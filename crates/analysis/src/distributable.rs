//! The **Allgather distributable analysis** (paper §6) and the one walk
//! over a kernel's memory accesses that every other analysis reads.
//!
//! [`KernelAccesses::of_kernel`] visits the kernel body once and records
//! every memory access — load, store, atomic — with its affine index, the
//! classified guard conjuncts on its path, its enclosing loops and whether
//! its evaluation is conditional. Nothing in it depends on a launch. The
//! global stores and atomics of that list are the *write sites* of §6
//! ([`KernelAccesses::writes`]); for each one [`analyze_kernel`] checks the
//! three conditions of §6.2:
//!
//! 1. treating block index and block size as constants, the write index is
//!    an affine function of the thread index with invariant coefficients;
//! 2. the write is not enclosed in thread-variant conditionals, unless the
//!    conditional is **tail divergent** (`affine(blockIdx,threadIdx) <
//!    launch-invariant bound`, true everywhere except trailing blocks) or
//!    *per-thread uniform* (block-invariant thread selection such as
//!    `threadIdx.x == 0`, which keeps per-block write lengths equal — a
//!    CuCC-rs generalization needed by kernels like BinomialOption);
//! 3. treating thread index as constant, the write index is an affine
//!    function of the block index with a positive coefficient (positivity
//!    and exact coverage are confirmed at launch time by the planner,
//!    because the coefficients are symbolic polynomials).
//!
//! Kernels passing all conditions are [`Verdict::Distributable`] and carry
//! the access list to launch time, where [`crate::footprint`] resolves it
//! once per launch; the rest fall back to replicated execution
//! ([`Verdict::Trivial`]) with the reasons recorded — these reasons drive
//! the Figure 7 coverage evaluation.

use crate::affine::{affine_of_expr, AffineForm, IdxVar, VarForms};
use crate::poly::Poly;
use cucc_ir::{
    barrier_sites, expr_variance, var_variance, BarrierSite, BinOp, Expr, Kernel, MemRef, ParamId,
    Stmt, ValueKind, VarId, Variance,
};
use std::collections::BTreeMap;
use std::fmt;

/// A tail-divergent guard `lhs < bound`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailGuard {
    /// Affine form over thread/block indices (strictly less-than `bound`).
    pub lhs: AffineForm,
    /// Launch-invariant bound.
    pub bound: Poly,
}

/// Classification of one guard conjunct enclosing an access.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardClass {
    /// Launch-invariant condition: identical for every thread and block.
    Uniform,
    /// Thread-variant but block-invariant (e.g. `threadIdx.x == 0`): every
    /// block selects the same thread subset, so per-block write lengths stay
    /// equal.
    PerThreadUniform,
    /// The canonical out-of-bounds filter (`global_id < n`): true for all
    /// blocks except a trailing range, which become callback blocks.
    Tail(TailGuard),
    /// Anything else — disqualifies the write (condition 2).
    Variant,
}

/// A comparison conjunct in affine form, normalized to `small < big`
/// (`small <= big` when `inclusive`, `small == big` when `eq`).
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The side the comparison bounds from above.
    pub small: AffineForm,
    /// The side the comparison bounds from below.
    pub big: AffineForm,
    /// `<=` / `>=` / `==` rather than `<` / `>`.
    pub inclusive: bool,
    /// `==`: both sides bound each other.
    pub eq: bool,
}

impl Comparison {
    /// Whether the comparison holds where `small − big` is `diff`.
    pub(crate) fn holds(&self, diff: i128) -> bool {
        match (self.eq, self.inclusive) {
            (true, _) => diff == 0,
            (false, true) => diff <= 0,
            (false, false) => diff < 0,
        }
    }
}

/// One guard conjunct on the path to an access.
#[derive(Debug, Clone, PartialEq)]
pub struct Guard {
    /// What the conjunct means for distribution.
    pub class: GuardClass,
    /// The conjunct as an affine comparison, when it is one and the access
    /// sits on its true branch — the bounds rule narrows index ranges by
    /// it. `None` on an `else` branch: the negated condition still guards
    /// the access but bounds nothing.
    pub cmp: Option<Comparison>,
}

/// One memory access with everything the analyses ask about it that does
/// not depend on the launch.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// The memory accessed.
    pub mem: MemRef,
    /// Element size in bytes.
    pub elem_size: usize,
    /// A store or an atomic (an atomic is also a read).
    pub write: bool,
    /// An atomic read-modify-write.
    pub atomic: bool,
    /// Affine form of the index (in elements), if affine.
    pub index: Option<AffineForm>,
    /// True when the index expression contains a memory load.
    pub indirect: bool,
    /// Every enclosing guard conjunct, outermost first.
    pub guards: Vec<Guard>,
    /// Induction variables of every enclosing `for`, outermost first.
    pub loops: Vec<VarId>,
    /// True when an enclosing loop has thread- or block-variant bounds.
    pub variant_loop: bool,
    /// Inside a `Select` arm or a short-circuit operand: evaluation is not
    /// guaranteed even where the guards hold.
    pub conditional: bool,
}

impl Access {
    /// The buffer parameter, for a global store or atomic — a write site.
    pub fn written_param(&self) -> Option<ParamId> {
        match self.mem {
            MemRef::Global(p) if self.write => Some(p),
            _ => None,
        }
    }

    /// True when every guard on the path is a tail guard — the guards a
    /// full block passes in every thread.
    pub fn only_tail_guards(&self) -> bool {
        self.tail_guards().count() == self.guards.len()
    }

    /// The tail guards on the path to the access.
    pub fn tail_guards(&self) -> impl Iterator<Item = &TailGuard> {
        self.guards.iter().filter_map(|g| match &g.class {
            GuardClass::Tail(t) => Some(t),
            _ => None,
        })
    }
}

/// Every memory access of a kernel, in the order the tree-walk interpreter
/// evaluates them (an index's own loads before the access that uses it),
/// plus the kernel-wide facts the launch-time consumers need beside them.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAccesses {
    /// The accesses.
    pub list: Vec<Access>,
    /// Launch-invariant `[start, end, step]` of each `for`, keyed by its
    /// induction variable; `None` when a bound is not a launch constant, or
    /// when that one range does not describe every value the variable is
    /// read at: it drives a second `for`, is assigned outside the `for`
    /// header, or is read outside the loop body (where it holds the exit
    /// value).
    pub loops: BTreeMap<VarId, Option<[Poly; 3]>>,
    /// No `return`: no thread stops early of its own accord.
    pub no_return: bool,
    /// No division or remainder by a non-literal and no `for` step that is
    /// not a non-zero constant: nothing can raise `DivByZero`.
    pub no_div_by_zero: bool,
    /// The tree-walk computes what the forms say: every `__syncthreads()`
    /// sits under launch-uniform control flow ([`barrier_sites`]: no
    /// enclosing condition or bound varies between threads or blocks, so no
    /// divergence trap) and no integer cast narrower than 64 bits is looked
    /// through (no wrap).
    pub faithful: bool,
}

impl KernelAccesses {
    /// Walk the kernel once.
    pub fn of_kernel(kernel: &Kernel) -> KernelAccesses {
        let mut w = Walker {
            kernel,
            forms: VarForms::of_kernel(kernel),
            variance: var_variance(kernel),
            out: KernelAccesses {
                list: Vec::new(),
                loops: BTreeMap::new(),
                no_return: true,
                no_div_by_zero: true,
                faithful: true,
            },
            guards: Vec::new(),
            loops: Vec::new(),
            variant_loop: false,
            unranged: Vec::new(),
        };
        w.stmts(&kernel.body);
        let variant = |s: &BarrierSite| s.control.thread || s.control.block;
        w.out.faithful &= !barrier_sites(kernel, &w.variance).iter().any(variant);
        for v in w.unranged {
            if let Some(bounds) = w.out.loops.get_mut(&v) {
                *bounds = None;
            }
        }
        w.out
    }

    /// The write sites of §6 — global stores and atomics, numbered as
    /// diagnostics number them — with their position in [`Self::list`] and
    /// the buffer they write.
    pub fn writes(&self) -> impl Iterator<Item = (usize, ParamId, &Access)> {
        self.list
            .iter()
            .enumerate()
            .filter_map(|(i, a)| Some((i, a.written_param()?, a)))
    }

    /// No thread stops, and no block faults other than out of bounds, before
    /// it has made every access its guards admit.
    pub fn runs_to_completion(&self) -> bool {
        self.no_return && self.no_div_by_zero
    }
}

struct Walker<'k> {
    kernel: &'k Kernel,
    forms: VarForms,
    variance: Vec<Variance>,
    out: KernelAccesses,
    guards: Vec<Guard>,
    loops: Vec<VarId>,
    variant_loop: bool,
    /// Variables that, where they are a loop's induction variable, take
    /// values its `[start, end, step]` does not describe.
    unranged: Vec<VarId>,
}

impl Walker<'_> {
    /// The affine form of `e`. A loop variable it mentions outside that
    /// loop's body is read at a value the loop's range does not hold.
    fn form(&mut self, e: &Expr) -> Option<AffineForm> {
        let form = affine_of_expr(e, &self.forms)?;
        for v in form.vars() {
            match v {
                IdxVar::Loop(lv) if !self.loops.contains(&lv) => self.unranged.push(lv),
                _ => {}
            }
        }
        Some(form)
    }

    fn access(&mut self, mem: MemRef, index: &Expr, write: bool, atomic: bool, conditional: bool) {
        let index_form = self.form(index);
        self.out.list.push(Access {
            mem,
            elem_size: self.kernel.elem_type(mem).size(),
            write,
            atomic,
            index: index_form,
            indirect: index.has_load(),
            guards: self.guards.clone(),
            loops: self.loops.clone(),
            variant_loop: self.variant_loop,
            conditional,
        });
    }

    /// Read a conjunct as a comparison of two affine forms.
    fn comparison(&mut self, e: &Expr) -> Option<Comparison> {
        let Expr::Binary { op, lhs, rhs } = e else {
            return None;
        };
        let (small, big, inclusive, eq) = match op {
            BinOp::Lt => (lhs, rhs, false, false),
            BinOp::Le => (lhs, rhs, true, false),
            BinOp::Gt => (rhs, lhs, false, false),
            BinOp::Ge => (rhs, lhs, true, false),
            BinOp::Eq => (lhs, rhs, true, true),
            _ => return None,
        };
        Some(Comparison {
            small: self.form(small)?,
            big: self.form(big)?,
            inclusive,
            eq,
        })
    }

    fn expr(&mut self, e: &Expr, conditional: bool) {
        match e {
            Expr::Load { mem, index } => {
                self.expr(index, conditional);
                self.access(*mem, index, false, false, conditional);
            }
            Expr::Binary { op, lhs, rhs } => {
                let literal_divisor = matches!(&**rhs, Expr::IntConst(c) if *c != 0)
                    || matches!(&**rhs, Expr::FloatConst(_));
                if matches!(op, BinOp::Div | BinOp::Rem) && !literal_divisor {
                    self.out.no_div_by_zero = false;
                }
                let short_circuit = matches!(op, BinOp::LAnd | BinOp::LOr);
                self.expr(lhs, conditional);
                self.expr(rhs, conditional || short_circuit);
            }
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => {
                self.expr(cond, conditional);
                self.expr(then_value, true);
                self.expr(else_value, true);
            }
            Expr::Cast { ty, arg } => {
                if ty.kind() == ValueKind::Int && ty.size() < 8 {
                    self.out.faithful = false;
                }
                self.expr(arg, conditional)
            }
            Expr::Unary { arg, .. } => self.expr(arg, conditional),
            Expr::Call { args, .. } => {
                for a in args {
                    self.expr(a, conditional);
                }
            }
            _ => {}
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Assign { var, value } => {
                    self.unranged.push(*var);
                    self.expr(value, false)
                }
                Stmt::Store { mem, index, value }
                | Stmt::AtomicRmw {
                    mem, index, value, ..
                } => {
                    self.expr(index, false);
                    self.expr(value, false);
                    let atomic = matches!(s, Stmt::AtomicRmw { .. });
                    self.access(*mem, index, true, atomic, false);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.expr(cond, false);
                    let mut conjuncts = Vec::new();
                    split_conjuncts(cond, &mut conjuncts);
                    let depth = self.guards.len();
                    for c in conjuncts {
                        let cmp = self.comparison(c);
                        let class = classify_conjunct(c, cmp.as_ref(), &self.variance);
                        self.guards.push(Guard { class, cmp });
                    }
                    self.stmts(then_body);
                    if !else_body.is_empty() {
                        // In the else branch the condition is negated:
                        // uniform and per-thread-uniform conjuncts stay in
                        // their class (negation preserves invariance); tail
                        // guards become head-divergent, i.e. unsupported.
                        for g in &mut self.guards[depth..] {
                            g.cmp = None;
                            if matches!(g.class, GuardClass::Tail(_)) {
                                g.class = GuardClass::Variant;
                            }
                        }
                        self.stmts(else_body);
                    }
                    self.guards.truncate(depth);
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    let mut bounds = Variance::uniform();
                    let mut consts = Vec::with_capacity(3);
                    for e in [start, end, step] {
                        self.expr(e, false);
                        bounds = bounds.join(expr_variance(e, &self.variance));
                        let form = affine_of_expr(e, &self.forms);
                        consts.push(form.filter(AffineForm::is_constant).map(|f| f.constant));
                    }
                    // A step that may be zero faults like a division by zero.
                    let step_const = consts[2].as_ref().and_then(Poly::as_const);
                    if step_const.is_none_or(|c| c == 0) {
                        self.out.no_div_by_zero = false;
                    }
                    let range = consts.into_iter().collect::<Option<Vec<_>>>();
                    let range = range.and_then(|r| r.try_into().ok());
                    if self.out.loops.insert(*var, range).is_some() {
                        self.unranged.push(*var);
                    }
                    let outer = self.variant_loop;
                    self.variant_loop |= bounds.thread || bounds.block;
                    self.loops.push(*var);
                    self.stmts(body);
                    self.loops.pop();
                    self.variant_loop = outer;
                }
                Stmt::SyncThreads => {}
                Stmt::Return => self.out.no_return = false,
            }
        }
    }
}

fn split_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary {
        op: BinOp::LAnd,
        lhs,
        rhs,
    } = e
    {
        split_conjuncts(lhs, out);
        split_conjuncts(rhs, out);
    } else {
        out.push(e);
    }
}

fn classify_conjunct(e: &Expr, cmp: Option<&Comparison>, variance: &[Variance]) -> GuardClass {
    let v = expr_variance(e, variance);
    if !v.thread && !v.block {
        return GuardClass::Uniform;
    }
    // Block-invariant thread selection: identical subset in every block.
    // Loads are excluded (expr_variance marks them block-variant).
    if !v.block {
        return GuardClass::PerThreadUniform;
    }
    // Tail pattern `variant < bound`: the variant side must be on the small
    // side of `<`; the bound must be launch-invariant; loop variables may
    // not appear.
    match cmp {
        Some(c)
            if !c.eq
                && c.big.is_constant()
                && !c.small.is_constant()
                && !c.small.vars().any(|v| matches!(v, IdxVar::Loop(_))) =>
        {
            let bound = if c.inclusive {
                c.big.constant.add(&Poly::constant(1))
            } else {
                c.big.constant.clone()
            };
            GuardClass::Tail(TailGuard {
                lhs: c.small.clone(),
                bound,
            })
        }
        _ => GuardClass::Variant,
    }
}

/// Why a kernel is only *trivially* Allgather distributable (replicated
/// execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reason {
    /// A write index is not an affine function of the indices.
    NonAffineIndex,
    /// A write index depends on loaded data (indirect access).
    IndirectIndex,
    /// Atomic updates imply overlapping write intervals across blocks.
    AtomicWrite,
    /// A write is guarded by an unsupported thread/block-variant condition.
    VariantGuard,
    /// A write sits in a loop with thread/block-variant bounds, so blocks
    /// would write unequal lengths.
    VariantLoopBounds,
    /// The write index does not grow with the block index: all blocks write
    /// the same interval (overlap).
    BlockInvariantIndex,
    /// The kernel writes no global memory at all.
    NoGlobalWrites,
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Reason::NonAffineIndex => "non-affine write index",
            Reason::IndirectIndex => "indirect (data-dependent) write index",
            Reason::AtomicWrite => "atomic global update (overlapping write intervals)",
            Reason::VariantGuard => "write guarded by unsupported variant condition",
            Reason::VariantLoopBounds => "write inside loop with variant bounds",
            Reason::BlockInvariantIndex => "write interval does not advance with block index",
            Reason::NoGlobalWrites => "kernel writes no global memory",
        };
        f.write_str(s)
    }
}

/// A buffer that the three-phase workflow must synchronize with Allgather.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherBuffer {
    /// Buffer parameter id.
    pub param: ParamId,
    /// Element size in bytes.
    pub elem_size: usize,
}

/// Compiler metadata for a distributable kernel (the `metadata` box of the
/// paper's Figure 6: `tail_divergent`, `mem_ptr`, `unit_size` — unit sizes
/// are resolved at launch time from the affine forms).
#[derive(Debug, Clone)]
pub struct KernelMeta {
    /// Buffers to synchronize after the partial block execution phase.
    pub buffers: Vec<GatherBuffer>,
    /// Deduplicated tail guards (empty ⇒ no tail divergence).
    pub tail_guards: Vec<TailGuard>,
    /// Every access of the kernel, write sites included: what the
    /// launch-time planner resolves against a launch.
    pub accesses: KernelAccesses,
}

impl KernelMeta {
    /// Whether the kernel contains tail-divergent guards (the
    /// `tail_divergent` metadata flag of Figure 6).
    pub fn tail_divergent(&self) -> bool {
        !self.tail_guards.is_empty()
    }
}

/// The analysis verdict for one kernel.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Non-trivially distributable: the three-phase workflow applies.
    Distributable(KernelMeta),
    /// Only trivially distributable: execute replicated on every node.
    Trivial(Vec<Reason>),
}

impl Verdict {
    /// True for the non-trivial case.
    pub fn is_distributable(&self) -> bool {
        matches!(self, Verdict::Distributable(_))
    }

    /// Metadata of the distributable case.
    pub fn meta(&self) -> Option<&KernelMeta> {
        match self {
            Verdict::Distributable(m) => Some(m),
            Verdict::Trivial(_) => None,
        }
    }

    /// Reasons of the trivial case.
    pub fn reasons(&self) -> &[Reason] {
        match self {
            Verdict::Trivial(r) => r,
            Verdict::Distributable(_) => &[],
        }
    }
}

/// Run the Allgather distributable analysis on a kernel.
pub fn analyze_kernel(kernel: &Kernel) -> Verdict {
    distributable_verdict(&KernelAccesses::of_kernel(kernel))
}

/// The §6 verdict, read off a kernel's access list.
pub(crate) fn distributable_verdict(accesses: &KernelAccesses) -> Verdict {
    if accesses.writes().next().is_none() {
        return Verdict::Trivial(vec![Reason::NoGlobalWrites]);
    }
    let mut reasons = Vec::new();
    for (_, _, site) in accesses.writes() {
        if site.atomic {
            push_unique(&mut reasons, Reason::AtomicWrite);
            continue;
        }
        if site.indirect {
            push_unique(&mut reasons, Reason::IndirectIndex);
            continue;
        }
        let Some(index) = &site.index else {
            push_unique(&mut reasons, Reason::NonAffineIndex);
            continue;
        };
        if site.variant_loop {
            push_unique(&mut reasons, Reason::VariantLoopBounds);
        }
        if site
            .guards
            .iter()
            .any(|g| matches!(g.class, GuardClass::Variant))
        {
            push_unique(&mut reasons, Reason::VariantGuard);
        }
        // Condition 3 (static part): the index must advance with the block
        // index. Either the index itself mentions a block axis, or a tail
        // guard will confine divergence — but without any block dependence
        // all blocks write the same interval.
        let has_block_var = index.vars().any(|v| matches!(v, IdxVar::Block(_)));
        let negative_const_block = index.coeffs.iter().any(|(v, c)| {
            matches!(v, IdxVar::Block(_)) && matches!(c.as_const(), Some(x) if x <= 0)
        });
        if !has_block_var || negative_const_block {
            push_unique(&mut reasons, Reason::BlockInvariantIndex);
        }
    }
    if !reasons.is_empty() {
        return Verdict::Trivial(reasons);
    }
    // Assemble metadata.
    let mut buffers: Vec<GatherBuffer> = Vec::new();
    let mut tail_guards: Vec<TailGuard> = Vec::new();
    for (_, param, site) in accesses.writes() {
        if !buffers.iter().any(|b| b.param == param) {
            buffers.push(GatherBuffer {
                param,
                elem_size: site.elem_size,
            });
        }
        for t in site.tail_guards() {
            if !tail_guards.contains(t) {
                tail_guards.push(t.clone());
            }
        }
    }
    buffers.sort_by_key(|b| b.param);
    Verdict::Distributable(KernelMeta {
        buffers,
        tail_guards,
        accesses: accesses.clone(),
    })
}

fn push_unique(v: &mut Vec<Reason>, r: Reason) {
    if !v.contains(&r) {
        v.push(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_ir::parse_kernel;

    fn verdict(src: &str) -> Verdict {
        let k = parse_kernel(src).unwrap();
        cucc_ir::validate(&k).unwrap();
        analyze_kernel(&k)
    }

    #[test]
    fn listing1_is_distributable_and_tail_divergent() {
        let v = verdict(
            "__global__ void vec_copy(char* src, char* dest, int n) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                if (id < n)
                    dest[id] = src[id];
            }",
        );
        let meta = v.meta().expect("should be distributable");
        assert!(meta.tail_divergent());
        assert_eq!(meta.buffers.len(), 1);
        assert_eq!(meta.buffers[0].param, ParamId(1));
        assert_eq!(meta.tail_guards.len(), 1);
    }

    #[test]
    fn unguarded_affine_write_distributable_without_tail() {
        let v = verdict(
            "__global__ void k(float* out) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                out[id] = 1.0f;
            }",
        );
        let meta = v.meta().unwrap();
        assert!(!meta.tail_divergent());
    }

    #[test]
    fn per_block_scalar_write_distributable() {
        // BinomialOption pattern: only thread 0 writes, one scalar per block.
        let v = verdict(
            "__global__ void k(float* out) {
                float acc = 1.0f;
                if (threadIdx.x == 0)
                    out[blockIdx.x] = acc;
            }",
        );
        let meta = v.meta().unwrap();
        assert!(!meta.tail_divergent());
        let (_, _, site) = meta.accesses.writes().next().unwrap();
        assert!(matches!(site.guards[0].class, GuardClass::PerThreadUniform));
    }

    #[test]
    fn atomic_writes_are_trivial() {
        let v = verdict(
            "__global__ void hist(int* bins, int* data) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                atomicAdd(&bins[data[id] % 16], 1);
            }",
        );
        assert!(v.reasons().contains(&Reason::AtomicWrite));
    }

    #[test]
    fn indirect_index_is_trivial() {
        let v = verdict(
            "__global__ void scatter(int* out, int* idx, int* val) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                out[idx[id]] = val[id];
            }",
        );
        assert!(v.reasons().contains(&Reason::IndirectIndex));
    }

    #[test]
    fn block_invariant_write_is_overlap() {
        // Every block writes out[threadIdx.x]: intervals overlap.
        let v = verdict(
            "__global__ void k(int* out) {
                out[threadIdx.x] = 1;
            }",
        );
        assert!(v.reasons().contains(&Reason::BlockInvariantIndex));
    }

    #[test]
    fn data_dependent_guard_is_variant() {
        let v = verdict(
            "__global__ void k(int* out, int* data, int t) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (data[id] == t)
                    out[id] = 1;
            }",
        );
        assert!(v.reasons().contains(&Reason::VariantGuard));
    }

    #[test]
    fn reversed_tail_comparison_accepted() {
        // `n > id` is the same tail filter as `id < n`.
        let v = verdict(
            "__global__ void k(int* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (n > id)
                    out[id] = 1;
            }",
        );
        assert!(v.meta().unwrap().tail_divergent());
    }

    #[test]
    fn head_divergence_rejected() {
        // True only for LARGE ids: blocks at the head diverge, which the
        // three-phase workflow does not support.
        let v = verdict(
            "__global__ void k(int* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id >= n)
                    out[id] = 1;
            }",
        );
        assert!(v.reasons().contains(&Reason::VariantGuard));
    }

    #[test]
    fn else_branch_of_tail_guard_rejected() {
        let v = verdict(
            "__global__ void k(int* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n)
                    out[id] = 1;
                else
                    out[id] = 2;
            }",
        );
        assert!(v.reasons().contains(&Reason::VariantGuard));
    }

    #[test]
    fn variant_loop_bounds_rejected() {
        let v = verdict(
            "__global__ void k(int* out) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                for (int i = 0; i < threadIdx.x; i++)
                    out[id * 32 + i] = 1;
            }",
        );
        assert!(v.reasons().contains(&Reason::VariantLoopBounds));
    }

    #[test]
    fn uniform_loop_with_affine_write_ok() {
        // Each thread writes K consecutive elements: still distributable.
        let v = verdict(
            "__global__ void k(int* out, int k) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                for (int i = 0; i < k; i++)
                    out[id * k + i] = i;
            }",
        );
        assert!(v.is_distributable());
    }

    #[test]
    fn conjunction_of_uniform_and_tail() {
        let v = verdict(
            "__global__ void k(int* out, int n, int enable) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (enable > 0 && id < n)
                    out[id] = 1;
            }",
        );
        let meta = v.meta().unwrap();
        assert!(meta.tail_divergent());
        let (_, _, site) = meta.accesses.writes().next().unwrap();
        assert_eq!(site.guards.len(), 2);
        assert!(matches!(site.guards[0].class, GuardClass::Uniform));
        assert!(matches!(site.guards[1].class, GuardClass::Tail(_)));
    }

    #[test]
    fn multiple_buffers_collected() {
        let v = verdict(
            "__global__ void k(float* a, float* b, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) {
                    a[id] = 1.0f;
                    b[id] = 2.0f;
                }
            }",
        );
        let meta = v.meta().unwrap();
        assert_eq!(meta.buffers.len(), 2);
        // One deduplicated tail guard, not two.
        assert_eq!(meta.tail_guards.len(), 1);
    }

    #[test]
    fn no_global_writes_is_trivial() {
        let v = verdict(
            "__global__ void k(int* data) {
                __shared__ int tmp[32];
                tmp[threadIdx.x] = data[threadIdx.x];
            }",
        );
        assert_eq!(v.reasons(), &[Reason::NoGlobalWrites]);
    }

    #[test]
    fn two_d_row_partition_distributable() {
        // 2-D grid writing row bands: affine with blockIdx.y coefficient.
        let v = verdict(
            "__global__ void k(float* out, int width) {
                int x = blockIdx.x * blockDim.x + threadIdx.x;
                int y = blockIdx.y * blockDim.y + threadIdx.y;
                out[y * width + x] = 1.0f;
            }",
        );
        assert!(v.is_distributable());
    }
}
