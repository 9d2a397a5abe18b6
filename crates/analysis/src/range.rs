//! # Flow-sensitive interval range analysis over compiled bytecode
//!
//! An abstract interpreter for [`cucc_exec::bytecode`] programs: it runs the
//! compiled instruction stream over an interval domain instead of concrete
//! values, computing for every register at every program point a sound
//! enclosure of the values it can hold on *any* thread of *any* block of the
//! launch. The launch configuration is part of the abstraction —
//! `threadIdx`/`blockIdx` registers start at `[0, dim-1]` and scalar
//! arguments were already constant-folded by [`Program::compile`] — so the
//! results are launch-resolved facts, exactly what the paper's §6 machinery
//! needs to discharge checks statically.
//!
//! Three consumers:
//!
//! 1. **Certified bounds-check elision** — [`certify_program`] proves
//!    individual `Load`/`Store`/`AtomicRmw` sites in-bounds against the
//!    launch-resolved buffer extents and attaches the certificate table to
//!    the [`Program`]; the bytecode and lane engines then take unchecked
//!    fast paths for certified accesses ([`CertMode::Elide`]) or
//!    cross-validate every certificate at runtime ([`CertMode::Validate`]).
//! 2. **The verifier's bounds rule** — `verify.rs` reads the same per-access
//!    certificates: a source access is in bounds exactly when its compiled
//!    instruction is certified or unreachable.
//! 3. **Lint** — [`RangeAnalysis::branches`] and
//!    [`RangeAnalysis::reachable`] drive the constant-condition and
//!    unreachable-code lints in `lint.rs`.
//!
//! ## Domain and soundness
//!
//! The element is `[lo, hi] ⊆ i128` with the invariant that any value a
//! register actually holds (interpreted via `Value::as_i64`) lies inside.
//! Arithmetic is evaluated exactly in `i128` (no intermediate can overflow)
//! and the result is kept only when it fits `i64`; otherwise the transfer
//! yields ⊤ = `[i64::MIN, i64::MAX]`, which makes the analysis sound for the
//! engines' *wrapping* integer semantics. Floats are ⊤ unconditionally
//! (`as_i64` of any float saturates into the `i64` range), tracked by a
//! may-be-float bit so integer-only facts (comparison results, bit-ops) stay
//! precise.
//!
//! ## Fixpoint and widening
//!
//! Loops always lower to `ForInit`/`ForNext`, so the only back-edges in a
//! segment are `ForNext → back`. The worklist widens at exactly those
//! targets, using *threshold widening*: a grown bound snaps outward to the
//! nearest member of a constant pool harvested from the program (folded and
//! emitted constants, launch dimensions, buffer extents, each ±1) before
//! giving up and jumping to the `i64` extremes; only growth along a loop's
//! own back edge counts towards either. That keeps `for (i = 0; i < n; ++i)`
//! at `i ∈ [0, n-1]` instead of ⊤ without iterating `n` times. Two plain
//! narrowing passes afterwards recover precision lost to overshoot (any
//! post-fixpoint re-applied through the monotone transfer stays sound).
//!
//! Guard refinement: integer comparisons record a provenance tag on their
//! destination register; `JumpIfFalse`/`JumpIfTrue` edges re-apply the
//! (possibly negated) comparison to narrow both operands, and `Return`
//! simply ends the path — which is how the ubiquitous
//! `if (id >= n) return;` tail guard propagates to every later phase.

use std::collections::BTreeMap;

use cucc_exec::bytecode::{CertMode, Inst, PhaseOp, Program, Reg, SlotKind};
use cucc_exec::memory::BufferId;
use cucc_ir::{Axis, BinOp, Dim3, Intrinsic, Scalar, UnOp, Value, ValueKind};

const I64MIN: i128 = i64::MIN as i128;
const I64MAX: i128 = i64::MAX as i128;

/// Widen (at loop heads) after this many growing joins at one program point.
const WIDEN_AFTER: u32 = 3;
/// Fall back from threshold widening to the `i64` extremes after this many.
const EXTREME_AFTER: u32 = 24;
/// Decreasing (narrowing) passes run after the ascending fixpoint.
const NARROW_PASSES: usize = 2;

// ---------------------------------------------------------------------------
// Interval
// ---------------------------------------------------------------------------

/// A closed integer interval `[lo, hi]` over `i128`.
///
/// This is the shared interval algebra of the analysis crate: the abstract
/// interpreter uses it clamped to `i64` (see [`Interval::fit_i64`]), while
/// the footprint and verifier layers use the exact `i128` operations for
/// byte-offset hulls. All arithmetic saturates at the `i128` extremes, which
/// is sound for enclosures (the true set is always contained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub lo: i128,
    pub hi: i128,
}

impl Interval {
    /// The full `i64` range — ⊤ of the bytecode value domain.
    pub const I64_FULL: Interval = Interval {
        lo: I64MIN,
        hi: I64MAX,
    };

    /// Single-point interval.
    pub const fn point(v: i128) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`; callers must pass `lo <= hi`.
    pub fn new(lo: i128, hi: i128) -> Interval {
        debug_assert!(lo <= hi, "interval bounds out of order: [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// Smallest interval containing both operands (join).
    pub fn hull(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Intersection (meet); `None` when empty.
    pub fn meet(self, o: Interval) -> Option<Interval> {
        let lo = self.lo.max(o.lo);
        let hi = self.hi.min(o.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Clamp from above: `self ∩ (-∞, hi]`.
    pub fn meet_hi(self, hi: i128) -> Option<Interval> {
        (self.lo <= hi).then(|| Interval::new(self.lo, self.hi.min(hi)))
    }

    /// Clamp from below: `self ∩ [lo, +∞)`.
    pub fn meet_lo(self, lo: i128) -> Option<Interval> {
        (self.hi >= lo).then(|| Interval::new(self.lo.max(lo), self.hi))
    }

    /// Pointwise sum (saturating).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(o.lo),
            hi: self.hi.saturating_add(o.hi),
        }
    }

    /// Pointwise difference (saturating).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_sub(o.hi),
            hi: self.hi.saturating_sub(o.lo),
        }
    }

    /// Pointwise product: hull of the four corner products (saturating).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Interval) -> Interval {
        let c = [
            self.lo.saturating_mul(o.lo),
            self.lo.saturating_mul(o.hi),
            self.hi.saturating_mul(o.lo),
            self.hi.saturating_mul(o.hi),
        ];
        Interval {
            lo: *c.iter().min().unwrap(),
            hi: *c.iter().max().unwrap(),
        }
    }

    /// Multiply by a constant.
    pub fn scale(self, k: i128) -> Interval {
        self.mul(Interval::point(k))
    }

    /// Shift both bounds by a constant (saturating).
    pub fn translate(self, d: i128) -> Interval {
        Interval {
            lo: self.lo.saturating_add(d),
            hi: self.hi.saturating_add(d),
        }
    }

    /// Exact negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Interval {
        Interval {
            lo: self.hi.saturating_neg(),
            hi: self.lo.saturating_neg(),
        }
    }

    pub fn contains(self, v: i128) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// `Some(v)` when the interval is the single point `v`.
    pub fn as_point(self) -> Option<i128> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Does every member fit in `i64`?
    pub fn fits_i64(self) -> bool {
        self.lo >= I64MIN && self.hi <= I64MAX
    }

    /// The enclosure a *wrapping* `i64` computation admits: the exact result
    /// if it fits, the full `i64` range otherwise (the computation may have
    /// wrapped anywhere).
    pub fn fit_i64(self) -> Interval {
        if self.fits_i64() {
            self
        } else {
            Interval::I64_FULL
        }
    }

    /// Largest absolute value of any member.
    pub fn abs_hi(self) -> i128 {
        self.lo.saturating_abs().max(self.hi.saturating_abs())
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self == &Interval::I64_FULL {
            write!(f, "⊤")
        } else if let Some(v) = self.as_point() {
            write!(f, "{{{v}}}")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

// ---------------------------------------------------------------------------
// Abstract values and states
// ---------------------------------------------------------------------------

/// Abstract register value: an interval enclosing `as_i64` of every concrete
/// value, plus a definitely-integer bit. May-be-float values are pinned at ⊤
/// (float payloads are not tracked; `as_i64` of a float saturates into the
/// `i64` range, so ⊤ is the correct enclosure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AbsVal {
    iv: Interval,
    int: bool,
}

impl AbsVal {
    fn int(iv: Interval) -> AbsVal {
        AbsVal {
            iv: iv.fit_i64(),
            int: true,
        }
    }

    fn point(v: i64) -> AbsVal {
        AbsVal::int(Interval::point(v as i128))
    }

    /// A loop variable holding a count in `iv`, converted to `ty`.
    fn count(iv: Interval, ty: Scalar) -> AbsVal {
        match ty.kind() {
            ValueKind::Int => AbsVal::int(iv),
            ValueKind::Float => AbsVal::float(),
        }
    }

    fn float() -> AbsVal {
        AbsVal {
            iv: Interval::I64_FULL,
            int: false,
        }
    }

    fn top_int() -> AbsVal {
        AbsVal::int(Interval::I64_FULL)
    }

    fn from_value(v: Value) -> AbsVal {
        match v {
            Value::I64(x) => AbsVal::point(x),
            Value::F64(_) => AbsVal::float(),
        }
    }

    /// Interval of `as_i64` readings of this value.
    fn as_int(self) -> Interval {
        if self.int {
            self.iv
        } else {
            Interval::I64_FULL
        }
    }

    fn join(self, o: AbsVal) -> AbsVal {
        if self.int && o.int {
            AbsVal::int(self.iv.hull(o.iv))
        } else {
            AbsVal::float()
        }
    }
}

/// Comparison provenance: register `dst` holds the 0/1 result of
/// `lhs <op> rhs` where both operand registers were definitely-integer and
/// still hold the compared values. Branch edges re-apply the comparison to
/// narrow the operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Prov {
    op: BinOp,
    lhs: Reg,
    rhs: Reg,
}

/// Abstract machine state at one program point: one generic thread's
/// register file (per-thread semantics are identical across threads and
/// the lane and thread-major paths, so a single frame abstracts them all).
#[derive(Debug, Clone, PartialEq)]
struct State {
    vals: Vec<AbsVal>,
    prov: Vec<Option<Prov>>,
}

impl State {
    fn get(&self, r: Reg) -> AbsVal {
        self.vals[r as usize]
    }

    /// Overwrite a register: kills its provenance and any provenance that
    /// mentions it as a comparison operand.
    fn set(&mut self, r: Reg, v: AbsVal) {
        self.vals[r as usize] = v;
        self.prov[r as usize] = None;
        for p in &mut self.prov {
            if let Some(q) = p {
                if q.lhs == r || q.rhs == r {
                    *p = None;
                }
            }
        }
    }

    /// Narrow a register in place without touching provenance (the value is
    /// unchanged, only the enclosure shrank).
    fn narrow(&mut self, r: Reg, iv: Interval) {
        let v = &mut self.vals[r as usize];
        v.iv = iv;
    }

    /// Pointwise join; true when `self` changed.
    fn join_from(&mut self, o: &State) -> bool {
        let mut changed = false;
        for (a, b) in self.vals.iter_mut().zip(&o.vals) {
            let j = a.join(*b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        for (a, b) in self.prov.iter_mut().zip(&o.prov) {
            if a.is_some() && *a != *b {
                *a = None;
                changed = true;
            }
        }
        changed
    }
}

fn join_opt(a: Option<State>, b: Option<State>) -> Option<State> {
    match (a, b) {
        (Some(mut x), Some(y)) => {
            x.join_from(&y);
            Some(x)
        }
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// What kind of memory instruction an [`AccessCert`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Load,
    Store,
    Atomic,
}

/// The analysis verdict for one reachable memory instruction.
#[derive(Debug, Clone)]
pub struct AccessCert {
    /// Instruction index in [`Program::code`].
    pub pc: u32,
    /// Memory-slot id the instruction addresses.
    pub slot: u32,
    pub kind: AccessKind,
    /// Enclosure of the element index, or `None` when the index register may
    /// hold a float (then no integer enclosure better than ⊤ exists).
    pub index: Option<Interval>,
    /// Launch-resolved slot extent in elements, when known.
    pub extent: Option<u64>,
    /// Proven `0 <= index < extent` on every execution — the engines may
    /// skip the bounds check.
    pub certified: bool,
}

/// Truth verdict for one reachable conditional branch.
#[derive(Debug, Clone, Copy)]
pub struct BranchFact {
    /// The `JumpIfFalse`/`JumpIfTrue` instruction (or, for a uniform `if`,
    /// the final instruction of its condition segment).
    pub pc: u32,
    /// `Some(true)`: the condition is provably always truthy;
    /// `Some(false)`: provably always falsy; `None`: both outcomes possible.
    pub outcome: Option<bool>,
}

/// Full result of [`analyze_ranges`].
#[derive(Debug, Clone)]
pub struct RangeAnalysis {
    /// One entry per *reachable* memory instruction, in pc order.
    pub certs: Vec<AccessCert>,
    /// Per-pc certificate bits, aligned with [`Program::code`] — the exact
    /// table [`Program::attach_certs`] consumes.
    pub pc_certified: Vec<bool>,
    /// Per-pc reachability under this launch.
    pub reachable: Vec<bool>,
    /// Truth facts for every reachable conditional, in pc order.
    pub branches: Vec<BranchFact>,
}

/// A kernel compiled for one launch, with the range analysis over it:
/// what a launch runs (its certificates attached from `ranges`) and what
/// [`crate::LaunchFacts`] hands the verifier and the lint.
#[derive(Debug, Clone)]
pub struct CompiledLaunch {
    /// The launch's program.
    pub program: Program,
    /// [`analyze_ranges`] over `program` at the launch's buffer extents.
    pub ranges: RangeAnalysis,
}

impl RangeAnalysis {
    /// `(certified, total)` over reachable memory instructions.
    pub fn stats(&self) -> (usize, usize) {
        let c = self.certs.iter().filter(|c| c.certified).count();
        (c, self.certs.len())
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Launch-resolved element extents per memory slot, for [`analyze_ranges`]:
/// shared/local slots from their compile-time lengths, global slots through
/// `size_of` (byte size of the bound buffer, e.g. [`MemPool::size_of`]).
///
/// [`MemPool::size_of`]: cucc_exec::MemPool::size_of
pub fn global_extents(
    prog: &Program,
    size_of: impl Fn(BufferId) -> Option<usize>,
) -> Vec<Option<u64>> {
    prog.slots()
        .iter()
        .map(|s| {
            let info = s.as_ref()?;
            match info.kind {
                SlotKind::Global { buf } => {
                    size_of(buf).map(|bytes| (bytes / info.elem.size()) as u64)
                }
                SlotKind::Shared { .. } | SlotKind::Local { .. } => Some(info.len_elems as u64),
            }
        })
        .collect()
}

/// Run the abstract interpreter over `prog`. `extents` gives the element
/// count of each memory slot (index = slot id, `None` = unknown); shared and
/// local slots always use their compile-time lengths regardless.
pub fn analyze_ranges(prog: &Program, extents: &[Option<u64>]) -> RangeAnalysis {
    let n = prog.code().len();
    assert_eq!(
        extents.len(),
        prog.slots().len(),
        "one extent entry per memory slot"
    );
    let mut col = Collector {
        reached: vec![false; n],
        access: BTreeMap::new(),
        branch: BTreeMap::new(),
    };
    let mut az = Analyzer::new(prog, extents);
    az.exec_ops(prog.phases(), Some(entry_state(prog)), &mut col);

    let mut pc_certified = vec![false; n];
    let mut certs = Vec::with_capacity(col.access.len());
    for (pc, rec) in col.access {
        let extent = slot_extent(prog, extents, rec.slot);
        let certified = match (rec.idx, extent) {
            (Some(iv), Some(e)) => iv.lo >= 0 && iv.hi < e as i128,
            _ => false,
        };
        pc_certified[pc as usize] = certified;
        certs.push(AccessCert {
            pc,
            slot: rec.slot,
            kind: rec.kind,
            index: rec.idx,
            extent,
            certified,
        });
    }
    let branches = col
        .branch
        .into_iter()
        .map(|(pc, (can_true, can_false))| BranchFact {
            pc,
            outcome: match (can_true, can_false) {
                (true, false) => Some(true),
                (false, true) => Some(false),
                _ => None,
            },
        })
        .collect();
    RangeAnalysis {
        certs,
        pc_certified,
        reachable: col.reached,
        branches,
    }
}

/// Analyze `prog` and attach the resulting certificate table (see
/// [`Program::attach_certs`]). Returns the analysis for inspection.
pub fn certify_program(
    prog: &mut Program,
    extents: &[Option<u64>],
    mode: CertMode,
) -> RangeAnalysis {
    let ra = analyze_ranges(prog, extents);
    prog.attach_certs(&ra.pc_certified, mode);
    ra
}

fn slot_extent(prog: &Program, extents: &[Option<u64>], slot: u32) -> Option<u64> {
    let info = prog.slots()[slot as usize].as_ref()?;
    match info.kind {
        SlotKind::Global { .. } => extents[slot as usize],
        SlotKind::Shared { .. } | SlotKind::Local { .. } => Some(info.len_elems as u64),
    }
}

fn axis_len(d: Dim3, ax: Axis) -> u32 {
    match ax {
        Axis::X => d.x,
        Axis::Y => d.y,
        Axis::Z => d.z,
    }
}

fn entry_state(prog: &Program) -> State {
    let nr = prog.num_regs() as usize;
    // Temporaries may hold stale values from the previous block (`reset`
    // rezeroes only the variables), so they start at may-be-float ⊤.
    let mut vals = vec![AbsVal::float(); nr];
    for v in vals.iter_mut().take(prog.num_vars() as usize) {
        *v = AbsVal::point(0); // vars are zeroed per block
    }
    let base = prog.const_base() as usize;
    for (i, c) in prog.const_pool().iter().enumerate() {
        vals[base + i] = AbsVal::from_value(*c);
    }
    let mut st = State {
        prov: vec![None; nr],
        vals,
    };
    for inst in prog.block_pool().iter().chain(prog.thread_pool()) {
        apply_straight(&mut st, inst, prog);
    }
    st
}

/// Threshold set for widening: every folded integer constant (pooled, or
/// emitted by a `Const` — loop bounds are, into the registers `ForInit`
/// normalizes), launch dimension and known extent, each with its ±1
/// neighbours, so loop bounds like `i < n` stabilize at `[0, n-1]` in a
/// handful of joins.
fn harvest_thresholds(prog: &Program, extents: &[Option<u64>]) -> Vec<i128> {
    let mut t = vec![I64MIN, -1, 0, 1, I64MAX];
    let mut push = |v: i128| {
        t.push(v.saturating_sub(1));
        t.push(v);
        t.push(v.saturating_add(1));
    };
    let emitted = prog.code().iter().filter_map(|i| match i {
        Inst::Const { v, .. } => Some(v),
        _ => None,
    });
    for c in prog.const_pool().iter().chain(emitted) {
        if let Value::I64(v) = c {
            push(*v as i128);
        }
    }
    let l = prog.launch();
    for d in [l.block, l.grid] {
        for ax in [Axis::X, Axis::Y, Axis::Z] {
            push(axis_len(d, ax) as i128);
        }
    }
    push(l.block.count() as i128);
    push((l.block.count() * l.grid.count()) as i128);
    for e in extents.iter().flatten() {
        push(*e as i128);
    }
    t.sort_unstable();
    t.dedup();
    t
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

struct AccessRec {
    slot: u32,
    kind: AccessKind,
    /// Joined index enclosure; `None` once any visit saw a may-be-float
    /// index.
    idx: Option<Interval>,
}

struct Collector {
    reached: Vec<bool>,
    access: BTreeMap<u32, AccessRec>,
    /// pc → (can be truthy, can be falsy), joined across visits.
    branch: BTreeMap<u32, (bool, bool)>,
}

impl Collector {
    fn rec_access(&mut self, pc: u32, slot: u32, kind: AccessKind, idx: AbsVal) {
        let iv = idx.int.then_some(idx.iv);
        self.access
            .entry(pc)
            .and_modify(|r| {
                r.idx = match (r.idx, iv) {
                    (Some(a), Some(b)) => Some(a.hull(b)),
                    _ => None,
                };
            })
            .or_insert(AccessRec {
                slot,
                kind,
                idx: iv,
            });
    }

    fn rec_branch(&mut self, pc: u32, cond: AbsVal) {
        let can_false = !cond.int || cond.iv.contains(0);
        let can_true = !cond.int || cond.iv != Interval::point(0);
        let e = self.branch.entry(pc).or_insert((false, false));
        e.0 |= can_true;
        e.1 |= can_false;
    }
}

// ---------------------------------------------------------------------------
// The interpreter
// ---------------------------------------------------------------------------

struct Analyzer<'a> {
    prog: &'a Program,
    thresholds: Vec<i128>,
    /// The block pool's code, then the thread pool's.
    pool: Vec<Inst>,
    /// Per register: the pool code re-run where it is read, in pool order.
    /// A pooled subtree is evaluated where the instruction reading it runs,
    /// as the inline code it stands for was, so a guard that narrowed its
    /// `threadIdx` operands narrows it too. A `Tid` register is a leaf,
    /// seeded once and narrowed in place.
    redo: Vec<Vec<usize>>,
}

impl<'a> Analyzer<'a> {
    fn new(prog: &'a Program, extents: &[Option<u64>]) -> Analyzer<'a> {
        let pool: Vec<Inst> = prog
            .block_pool()
            .iter()
            .chain(prog.thread_pool())
            .copied()
            .collect();
        let mut redo = vec![Vec::new(); prog.num_regs() as usize];
        for (i, inst) in pool.iter().enumerate() {
            if matches!(inst, Inst::Tid { .. }) {
                continue;
            }
            let (mut dst, mut deps) = (0, vec![i]);
            inst.for_each_reg(|r, write| match write {
                true => dst = r as usize,
                false => deps.extend(&redo[r as usize]),
            });
            deps.sort_unstable();
            deps.dedup();
            redo[dst] = deps;
        }
        Analyzer {
            prog,
            thresholds: harvest_thresholds(prog, extents),
            pool,
            redo,
        }
    }

    /// Re-evaluate the pooled registers `inst` reads (see `redo`).
    fn refresh(&self, st: &mut State, inst: &Inst) {
        inst.for_each_reg(|r, _| {
            for &i in &self.redo[r as usize] {
                apply_straight(st, &self.pool[i], self.prog);
            }
        });
    }

    /// Interpret a phase-op sequence. `None` in/out means no thread reaches
    /// this point (all paths returned) — subsequent ops stay unreached.
    fn exec_ops(
        &mut self,
        ops: &[PhaseOp],
        st: Option<State>,
        col: &mut Collector,
    ) -> Option<State> {
        let mut st = st;
        for op in ops {
            let cur = st?;
            st = match op {
                PhaseOp::Seg { start, end, .. } => self.seg_fix(*start, *end, cur, col),
                PhaseOp::Barrier => Some(cur),
                PhaseOp::UniformIf {
                    cond,
                    creg,
                    then_ops,
                    else_ops,
                } => self.uniform_if(*cond, *creg, then_ops, else_ops, cur, col),
                PhaseOp::UniformFor {
                    var,
                    ty,
                    bounds,
                    sreg,
                    ereg,
                    streg,
                    body,
                } => self.uniform_for((*var, *ty), *bounds, *sreg, *ereg, *streg, body, cur, col),
            };
        }
        st
    }

    fn uniform_if(
        &mut self,
        cond: (u32, u32),
        creg: Reg,
        then_ops: &[PhaseOp],
        else_ops: &[PhaseOp],
        cur: State,
        col: &mut Collector,
    ) -> Option<State> {
        // The condition segment runs on thread 0 only; other threads keep
        // their old temporaries, so the branch bodies start from the join.
        let sb = self.seg_fix(cond.0, cond.1, cur.clone(), col)?;
        let cv = sb.get(creg);
        if cond.1 > cond.0 {
            col.rec_branch(cond.1 - 1, cv);
        }
        let can_true = !cv.int || cv.iv != Interval::point(0);
        let can_false = !cv.int || cv.iv.contains(0);
        let mut base = cur;
        base.join_from(&sb);
        let t = can_true
            .then(|| self.exec_ops(then_ops, Some(base.clone()), col))
            .flatten();
        let e = can_false
            .then(|| self.exec_ops(else_ops, Some(base), col))
            .flatten();
        join_opt(t, e)
    }

    #[allow(clippy::too_many_arguments)]
    fn uniform_for(
        &mut self,
        (var, ty): (Reg, Scalar),
        bounds: (u32, u32),
        sreg: Reg,
        ereg: Reg,
        streg: Reg,
        body: &[PhaseOp],
        cur: State,
        col: &mut Collector,
    ) -> Option<State> {
        let sb = self.seg_fix(bounds.0, bounds.1, cur.clone(), col)?;
        let s = sb.get(sreg).as_int();
        let e = sb.get(ereg).as_int();
        let stp = sb.get(streg).as_int();
        if stp.as_point() == Some(0) {
            return None; // zero step faults the launch
        }
        let mut base = cur;
        base.join_from(&sb);

        // Enclosure of the loop variable while the body runs (`v < e` for
        // positive step, `v > e` for negative). The update wraps like every
        // integer op, so the bound holds only while one step past the last
        // in-body value still fits `i64`; a wrapped counter re-enters the
        // body anywhere.
        let wraps = (stp.lo > 0 && e.hi - 1 + stp.hi > I64MAX)
            || (stp.hi < 0 && e.lo + 1 + stp.lo < I64MIN);
        let body_var = if stp.lo > 0 {
            s.meet_hi(e.hi.saturating_sub(1))
        } else if stp.hi < 0 {
            s.meet_lo(e.lo.saturating_add(1))
        } else {
            Some(Interval::I64_FULL)
        }
        .map(|first| {
            if wraps {
                Interval::I64_FULL
            } else if stp.lo > 0 {
                Interval::new(first.lo, e.hi.saturating_sub(1).max(first.lo))
            } else if stp.hi < 0 {
                Interval::new(e.lo.saturating_add(1).min(first.hi), first.hi)
            } else {
                Interval::I64_FULL
            }
        });

        let zero_trip_possible = if stp.lo > 0 {
            s.hi >= e.lo
        } else if stp.hi < 0 {
            s.lo <= e.hi
        } else {
            true
        };

        let mut acc = base.clone();
        let mut any_out = false;
        if let Some(hull) = body_var {
            let mut iters = 0u32;
            loop {
                let mut bi = acc.clone();
                bi.set(var, AbsVal::count(hull, ty));
                let out = self.exec_ops(body, Some(bi), col);
                let Some(out) = out else { break };
                any_out = true;
                let before = acc.clone();
                let changed = acc.join_from(&out);
                if !changed {
                    break;
                }
                iters += 1;
                if iters > WIDEN_AFTER {
                    self.widen(&before, &mut acc, iters > EXTREME_AFTER);
                }
            }
        }
        if body_var.is_some() && !zero_trip_possible && !any_out {
            return None; // at least one trip, and every body path returned
        }
        // Final `var` value: `s` on a zero-trip, first past-the-end value
        // otherwise.
        let after = if stp.lo > 0 {
            Interval::new(
                s.lo.min(e.lo),
                s.hi.max(e.hi.saturating_add(stp.hi).saturating_sub(1)),
            )
        } else if stp.hi < 0 {
            Interval::new(
                s.lo.min(e.lo.saturating_add(stp.lo).saturating_add(1)),
                s.hi.max(e.hi),
            )
        } else {
            Interval::I64_FULL
        };
        acc.set(var, AbsVal::count(after.fit_i64(), ty));
        Some(acc)
    }

    /// Threshold-widen `now` against `before`: bounds that grew snap outward
    /// to the nearest harvested constant (or the `i64` extremes once
    /// `extreme` is set).
    fn widen(&self, before: &State, now: &mut State, extreme: bool) {
        for (b, n) in before.vals.iter().zip(now.vals.iter_mut()) {
            if n.iv.lo < b.iv.lo {
                n.iv.lo = if extreme {
                    I64MIN
                } else {
                    self.snap_down(n.iv.lo)
                };
            }
            if n.iv.hi > b.iv.hi {
                n.iv.hi = if extreme {
                    I64MAX
                } else {
                    self.snap_up(n.iv.hi)
                };
            }
        }
    }

    fn snap_up(&self, v: i128) -> i128 {
        match self.thresholds.binary_search(&v) {
            Ok(_) => v,
            Err(i) => self.thresholds.get(i).copied().unwrap_or(I64MAX),
        }
    }

    fn snap_down(&self, v: i128) -> i128 {
        match self.thresholds.binary_search(&v) {
            Ok(_) => v,
            Err(0) => I64MIN,
            Err(i) => self.thresholds[i - 1],
        }
    }

    /// Worklist fixpoint over one code segment `[start, end)`; returns the
    /// join over all paths that fall off the end (`None` when every path
    /// returns). Records reachability, access and branch facts.
    fn seg_fix(
        &mut self,
        start: u32,
        end: u32,
        entry: State,
        col: &mut Collector,
    ) -> Option<State> {
        let n = (end - start) as usize;
        if n == 0 {
            return Some(entry);
        }
        let code = self.prog.code();
        let mut ins: Vec<Option<State>> = vec![None; n + 1];
        ins[0] = Some(entry);
        // Growing joins along each loop's own back edge (`ForNext → back`,
        // the only edges that do not point forward); a re-entry from an
        // enclosing loop does not count, so an inner loop is not pushed to
        // the extremes while its outer loop still converges.
        let mut visits = vec![0u32; n + 1];
        let mut in_wl = vec![false; n + 1];
        let mut wl: Vec<usize> = vec![0];
        in_wl[0] = true;
        while let Some(rel) = wl.pop() {
            in_wl[rel] = false;
            if rel == n {
                continue;
            }
            let st = ins[rel].clone().expect("worklist entries have states");
            for (t, s) in self.edges(start, rel, st) {
                let merged = match &ins[t] {
                    None => {
                        ins[t] = Some(s);
                        true
                    }
                    Some(old) => {
                        let mut j = old.clone();
                        if j.join_from(&s) {
                            visits[t] += u32::from(t <= rel);
                            if visits[t] > WIDEN_AFTER {
                                let old = old.clone();
                                self.widen(&old, &mut j, visits[t] > EXTREME_AFTER);
                            }
                            ins[t] = Some(j);
                            true
                        } else {
                            false
                        }
                    }
                };
                if merged && !in_wl[t] {
                    in_wl[t] = true;
                    wl.push(t);
                }
            }
        }
        // Narrowing: re-apply the (monotone) transfer from the entry a few
        // times. Starting from a post-fixpoint this only shrinks states and
        // stays sound, clawing back precision the widening overshot.
        for _ in 0..NARROW_PASSES {
            let mut next: Vec<Option<State>> = vec![None; n + 1];
            next[0] = Some(ins[0].clone().expect("entry state"));
            // Two sweeps so forward edges see updated predecessors and back
            // edges still contribute (from the previous iterate).
            for sweep in 0..2 {
                for rel in 0..n {
                    let src = if sweep == 0 { &ins } else { &next };
                    let Some(st) = src[rel].clone() else { continue };
                    for (t, s) in self.edges(start, rel, st) {
                        match &mut next[t] {
                            slot @ None => *slot = Some(s),
                            Some(old) => {
                                old.join_from(&s);
                            }
                        }
                    }
                }
                if sweep == 0 {
                    // keep entry present for the second sweep
                    if next[0].is_none() {
                        next[0] = ins[0].clone();
                    }
                }
            }
            // Soundness guard: never let a narrowing pass *grow* a state
            // (paranoia against non-monotone corner cases); meet with the
            // widened solution.
            for (new, old) in next.iter_mut().zip(&ins) {
                match (new.as_mut(), old) {
                    (Some(nst), Some(ost)) => {
                        for (nv, ov) in nst.vals.iter_mut().zip(&ost.vals) {
                            if let Some(m) = nv.iv.meet(ov.iv) {
                                nv.iv = m;
                            }
                        }
                    }
                    (Some(_), None) => *new = None,
                    _ => {}
                }
            }
            ins = next;
        }
        // Final pass: record facts from the converged states.
        for (rel, slot) in ins.iter().enumerate().take(n) {
            let Some(st) = slot else { continue };
            let pc = start + rel as u32;
            col.reached[pc as usize] = true;
            let inst = &code[pc as usize];
            let st = &mut st.clone();
            self.refresh(st, inst);
            match inst {
                Inst::Load { slot, idx, .. } => {
                    col.rec_access(pc, *slot, AccessKind::Load, st.get(*idx));
                }
                Inst::Store { slot, idx, .. } => {
                    col.rec_access(pc, *slot, AccessKind::Store, st.get(*idx));
                }
                Inst::AtomicRmw { slot, idx, .. } => {
                    col.rec_access(pc, *slot, AccessKind::Atomic, st.get(*idx));
                }
                Inst::JumpIfFalse { cond, .. } | Inst::JumpIfTrue { cond, .. } => {
                    col.rec_branch(pc, st.get(*cond));
                }
                _ => {}
            }
        }
        ins[n].take()
    }

    /// Successor edges of the instruction at `start + rel`, with the state
    /// transformed and (on branch edges) refined. Relative target `n` is the
    /// segment exit.
    fn edges(&self, start: u32, rel: usize, mut st: State) -> Vec<(usize, State)> {
        let pc = start + rel as u32;
        let inst = &self.prog.code()[pc as usize];
        self.refresh(&mut st, inst);
        let r = |abs: u32| (abs - start) as usize;
        match inst {
            Inst::Jump { target } => vec![(r(*target), st)],
            Inst::JumpIfFalse { cond, target, .. } => {
                let mut out = Vec::with_capacity(2);
                let mut taken = st.clone();
                if refine_cond(&mut taken, *cond, false) {
                    out.push((r(*target), taken));
                }
                if refine_cond(&mut st, *cond, true) {
                    out.push((rel + 1, st));
                }
                out
            }
            Inst::JumpIfTrue { cond, target, .. } => {
                let mut out = Vec::with_capacity(2);
                let mut taken = st.clone();
                if refine_cond(&mut taken, *cond, true) {
                    out.push((r(*target), taken));
                }
                if refine_cond(&mut st, *cond, false) {
                    out.push((rel + 1, st));
                }
                out
            }
            Inst::ForInit {
                var,
                ty,
                start: sreg,
                end: ereg,
                step: streg,
                exit,
            } => {
                let s = st.get(*sreg).as_int();
                let e = st.get(*ereg).as_int();
                let stp = st.get(*streg).as_int();
                // Bounds normalize to I64 in place; `sreg` becomes the
                // private induction register.
                st.set(*sreg, AbsVal::int(s));
                st.set(*ereg, AbsVal::int(e));
                st.set(*streg, AbsVal::int(stp));
                st.set(*var, AbsVal::count(s, *ty));
                if stp.as_point() == Some(0) {
                    return vec![]; // zero step faults
                }
                let mut out = Vec::with_capacity(2);
                // Body edge: the loop condition held at entry.
                let body = if stp.lo > 0 {
                    match (
                        s.meet_hi(e.hi.saturating_sub(1)),
                        e.meet_lo(s.lo.saturating_add(1)),
                    ) {
                        (Some(si), Some(ei)) => Some((si, ei)),
                        _ => None,
                    }
                } else if stp.hi < 0 {
                    match (
                        s.meet_lo(e.lo.saturating_add(1)),
                        e.meet_hi(s.hi.saturating_sub(1)),
                    ) {
                        (Some(si), Some(ei)) => Some((si, ei)),
                        _ => None,
                    }
                } else {
                    Some((s, e))
                };
                if let Some((si, ei)) = body {
                    let mut b = st.clone();
                    b.narrow(*sreg, si);
                    if ty.kind() == ValueKind::Int {
                        b.narrow(*var, si);
                    }
                    b.narrow(*ereg, ei);
                    out.push((rel + 1, b));
                }
                out.push((r(*exit), st));
                out
            }
            Inst::ForNext {
                var,
                ty,
                ind,
                end: ereg,
                step: streg,
                back,
            } => {
                let stp = st.get(*streg).as_int();
                let e = st.get(*ereg).as_int();
                let v = st.get(*ind).as_int().add(stp).fit_i64();
                if stp.as_point() == Some(0) {
                    return vec![]; // unreachable: ForInit faulted
                }
                let mut out = Vec::with_capacity(2);
                let vb = if stp.lo > 0 {
                    v.meet_hi(e.hi.saturating_sub(1))
                } else if stp.hi < 0 {
                    v.meet_lo(e.lo.saturating_add(1))
                } else {
                    Some(v)
                };
                if let Some(vb) = vb {
                    let mut b = st.clone();
                    b.set(*ind, AbsVal::int(vb));
                    b.set(*var, AbsVal::count(vb, *ty));
                    out.push((r(*back), b));
                }
                let vf = if stp.lo > 0 {
                    v.meet_lo(e.lo)
                } else if stp.hi < 0 {
                    v.meet_hi(e.hi)
                } else {
                    Some(v)
                };
                if let Some(vf) = vf {
                    st.set(*ind, AbsVal::int(vf));
                    st.set(*var, AbsVal::count(vf, *ty));
                    out.push((rel + 1, st));
                }
                out
            }
            Inst::Return => vec![],
            _ => {
                apply_straight(&mut st, inst, self.prog);
                vec![(rel + 1, st)]
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Straight-line transfer functions
// ---------------------------------------------------------------------------

/// Interval enclosing every value a load of element type `ty` can produce
/// (as seen through `as_i64`), or `None` for float element types.
fn scalar_range(ty: Scalar) -> Option<Interval> {
    match ty {
        Scalar::U8 => Some(Interval::new(0, u8::MAX as i128)),
        Scalar::I8 => Some(Interval::new(i8::MIN as i128, i8::MAX as i128)),
        Scalar::I32 => Some(Interval::new(i32::MIN as i128, i32::MAX as i128)),
        Scalar::U32 => Some(Interval::new(0, u32::MAX as i128)),
        Scalar::I64 => Some(Interval::I64_FULL),
        Scalar::F32 | Scalar::F64 => None,
    }
}

fn apply_straight(st: &mut State, inst: &Inst, prog: &Program) {
    match inst {
        Inst::Const { dst, v, .. } => st.set(*dst, AbsVal::from_value(*v)),
        Inst::Tid { dst, axis } => {
            let n = axis_len(prog.launch().block, *axis).max(1) as i128;
            st.set(*dst, AbsVal::int(Interval::new(0, n - 1)));
        }
        Inst::Bid { dst, axis } => {
            let n = axis_len(prog.launch().grid, *axis).max(1) as i128;
            st.set(*dst, AbsVal::int(Interval::new(0, n - 1)));
        }
        Inst::Copy { dst, src } => {
            let v = st.get(*src);
            st.set(*dst, v);
            if dst != src {
                st.prov[*dst as usize] = st.prov[*src as usize];
            }
        }
        Inst::Unary { dst, op, src } => {
            let v = unary_transfer(*op, st.get(*src));
            st.set(*dst, v);
        }
        Inst::Binary { dst, op, lhs, rhs } => {
            let (a, b) = (st.get(*lhs), st.get(*rhs));
            let v = binary_transfer(*op, a, b);
            st.set(*dst, v);
            // Record comparison provenance for later branch refinement, but
            // only when the operand registers survive the write untouched.
            if matches!(
                op,
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
            ) && a.int
                && b.int
                && *dst != *lhs
                && *dst != *rhs
            {
                st.prov[*dst as usize] = Some(Prov {
                    op: *op,
                    lhs: *lhs,
                    rhs: *rhs,
                });
            }
        }
        Inst::MulAdd { dst, a, b, c } => {
            let (av, bv, cv) = (st.get(*a), st.get(*b), st.get(*c));
            let v = if av.int && bv.int && cv.int {
                AbsVal::int(av.iv.mul(bv.iv).fit_i64().add(cv.iv).fit_i64())
            } else {
                AbsVal::float()
            };
            st.set(*dst, v);
        }
        Inst::Cast { dst, ty, src } => {
            let a = st.get(*src);
            let v = match scalar_range(*ty) {
                None => AbsVal::float(),
                Some(range) => {
                    if a.int && a.iv.meet(range) == Some(a.iv) {
                        a // in-range values survive the narrowing unchanged
                    } else {
                        AbsVal::int(range)
                    }
                }
            };
            st.set(*dst, v);
        }
        Inst::Intrin1 { dst, f, a } => {
            let av = st.get(*a);
            let v = if *f == Intrinsic::Abs && av.int {
                let iv = av.iv;
                let abs = if iv.lo >= 0 {
                    iv
                } else if iv.hi <= 0 {
                    iv.neg()
                } else {
                    Interval::new(0, iv.abs_hi())
                };
                AbsVal::int(abs.fit_i64())
            } else {
                AbsVal::float()
            };
            st.set(*dst, v);
        }
        Inst::Intrin2 { dst, f, a, b } => {
            let (av, bv) = (st.get(*a), st.get(*b));
            let v = match f {
                Intrinsic::Min if av.int && bv.int => AbsVal::int(Interval::new(
                    av.iv.lo.min(bv.iv.lo),
                    av.iv.hi.min(bv.iv.hi),
                )),
                Intrinsic::Max if av.int && bv.int => AbsVal::int(Interval::new(
                    av.iv.lo.max(bv.iv.lo),
                    av.iv.hi.max(bv.iv.hi),
                )),
                _ => AbsVal::float(),
            };
            st.set(*dst, v);
        }
        Inst::Test { dst, src } => {
            let v = truthiness(st.get(*src));
            st.set(*dst, v);
            if dst != src {
                // `Test` preserves truthiness, so provenance flows through.
                st.prov[*dst as usize] = st.prov[*src as usize];
            }
        }
        Inst::Load { dst, slot, .. } => {
            let info = prog.slots()[*slot as usize]
                .as_ref()
                .expect("referenced slot is resolved at compile time");
            let v = match scalar_range(info.elem) {
                Some(iv) => AbsVal::int(iv),
                None => AbsVal::float(),
            };
            st.set(*dst, v);
        }
        Inst::Store { .. } | Inst::AtomicRmw { .. } => {}
        Inst::Jump { .. }
        | Inst::JumpIfFalse { .. }
        | Inst::JumpIfTrue { .. }
        | Inst::ForInit { .. }
        | Inst::ForNext { .. }
        | Inst::Return => unreachable!("control instructions handled by edges()"),
    }
}

/// 0/1 truthiness enclosure of a value.
fn truthiness(v: AbsVal) -> AbsVal {
    if v.int {
        if v.iv == Interval::point(0) {
            AbsVal::point(0)
        } else if !v.iv.contains(0) {
            AbsVal::point(1)
        } else {
            AbsVal::int(Interval::new(0, 1))
        }
    } else {
        AbsVal::int(Interval::new(0, 1))
    }
}

fn unary_transfer(op: UnOp, a: AbsVal) -> AbsVal {
    match op {
        UnOp::Neg => {
            if a.int {
                AbsVal::int(a.iv.neg().fit_i64())
            } else {
                AbsVal::float()
            }
        }
        UnOp::Not => {
            // `!x` = 1 - truthiness(x)
            let t = truthiness(a);
            AbsVal::int(Interval::new(1 - t.iv.hi, 1 - t.iv.lo))
        }
        UnOp::BitNot => {
            // `!v` on i64: exactly `-v - 1`; `as_i64` floats are ⊤ already.
            let iv = a.as_int();
            AbsVal::int(iv.neg().translate(-1))
        }
    }
}

fn cmp_interval(op: BinOp, a: Interval, b: Interval) -> Interval {
    let (t, f) = (Interval::point(1), Interval::point(0));
    let both = Interval::new(0, 1);
    match op {
        BinOp::Lt => {
            if a.hi < b.lo {
                t
            } else if a.lo >= b.hi {
                f
            } else {
                both
            }
        }
        BinOp::Le => {
            if a.hi <= b.lo {
                t
            } else if a.lo > b.hi {
                f
            } else {
                both
            }
        }
        BinOp::Gt => cmp_interval(BinOp::Lt, b, a),
        BinOp::Ge => cmp_interval(BinOp::Le, b, a),
        BinOp::Eq => match (a.as_point(), b.as_point()) {
            (Some(x), Some(y)) if x == y => t,
            _ if a.meet(b).is_none() => f,
            _ => both,
        },
        BinOp::Ne => {
            let eq = cmp_interval(BinOp::Eq, a, b);
            Interval::new(1 - eq.hi, 1 - eq.lo)
        }
        _ => unreachable!("not a comparison"),
    }
}

fn binary_transfer(op: BinOp, a: AbsVal, b: AbsVal) -> AbsVal {
    use BinOp::*;
    let float = !a.int || !b.int;
    if float {
        return match op {
            Add | Sub | Mul | Div => AbsVal::float(),
            Lt | Le | Gt | Ge | Eq | Ne | LAnd | LOr => AbsVal::int(Interval::new(0, 1)),
            // Integer-only operators fall back to `as_i64` semantics with ⊤
            // operands.
            Rem | And | Or | Xor | Shl | Shr => {
                binary_transfer(op, AbsVal::top_int(), AbsVal::top_int())
            }
        };
    }
    let (x, y) = (a.iv, b.iv);
    let iv = match op {
        Add => x.add(y).fit_i64(),
        Sub => x.sub(y).fit_i64(),
        Mul => x.mul(y).fit_i64(),
        Div => {
            // Zero divisors fault (no continuation) or defensively yield 0;
            // otherwise |x / y| <= |x|, with exact corner division when the
            // divisor has a single known sign.
            if !y.contains(0) {
                let c = [x.lo / y.lo, x.lo / y.hi, x.hi / y.lo, x.hi / y.hi];
                Interval::new(*c.iter().min().unwrap(), *c.iter().max().unwrap()).fit_i64()
            } else {
                let m = x.abs_hi();
                Interval::new(-m, m).fit_i64()
            }
        }
        Rem => {
            // `x % y` has |result| < |y|, the sign of `x` (0 on a zero
            // divisor, which either faults or yields the defensive 0).
            let m = y.abs_hi().saturating_sub(1).max(0);
            let lo = if x.lo >= 0 { 0 } else { (-m).max(x.lo) };
            let hi = if x.hi <= 0 { 0 } else { m.min(x.hi) };
            Interval::new(lo.min(hi), hi.max(lo)).fit_i64()
        }
        Lt | Le | Gt | Ge | Eq | Ne => cmp_interval(op, x, y),
        And => {
            if x.lo >= 0 && y.lo >= 0 {
                Interval::new(0, x.hi.min(y.hi))
            } else {
                Interval::I64_FULL
            }
        }
        Or | Xor => {
            if x.lo >= 0 && y.lo >= 0 {
                // Result fits in the bit-width covering both operands.
                let bits = 128 - (x.hi.max(y.hi) as u128).leading_zeros();
                Interval::new(0, ((1u128 << bits) - 1).min(i64::MAX as u128) as i128)
            } else {
                Interval::I64_FULL
            }
        }
        Shl => {
            // `wrapping_shl` masks the shift to [0, 63]; model `x * 2^s`
            // exactly when the shift range needs no masking.
            if y.lo >= 0 && y.hi <= 63 {
                let c = [x.lo << y.lo, x.lo << y.hi, x.hi << y.lo, x.hi << y.hi];
                Interval::new(*c.iter().min().unwrap(), *c.iter().max().unwrap()).fit_i64()
            } else {
                Interval::I64_FULL
            }
        }
        Shr => {
            if y.lo >= 0 && y.hi <= 63 {
                // Arithmetic shift is monotone in each argument separately,
                // so the extreme values are at the corners.
                let c = [x.lo >> y.lo, x.lo >> y.hi, x.hi >> y.lo, x.hi >> y.hi];
                Interval::new(*c.iter().min().unwrap(), *c.iter().max().unwrap())
            } else {
                Interval::I64_FULL
            }
        }
        LAnd => {
            let (ta, tb) = (truthiness(a).iv, truthiness(b).iv);
            Interval::new(ta.lo.min(tb.lo), ta.hi.min(tb.hi))
        }
        LOr => {
            let (ta, tb) = (truthiness(a).iv, truthiness(b).iv);
            Interval::new(ta.lo.max(tb.lo), ta.hi.max(tb.hi))
        }
    };
    AbsVal::int(iv)
}

fn negate_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        _ => unreachable!("not a comparison"),
    }
}

/// Narrow `st` along a branch edge where register `cond` is known truthy or
/// falsy; false when the edge is infeasible.
fn refine_cond(st: &mut State, cond: Reg, truthy: bool) -> bool {
    let cv = st.get(cond);
    if cv.int {
        if truthy {
            if cv.iv == Interval::point(0) {
                return false;
            }
            // Trim a zero endpoint (interior zeros are inexpressible).
            let mut iv = cv.iv;
            if iv.lo == 0 && iv.hi > 0 {
                iv.lo = 1;
            } else if iv.hi == 0 && iv.lo < 0 {
                iv.hi = -1;
            }
            st.narrow(cond, iv);
        } else {
            if !cv.iv.contains(0) {
                return false;
            }
            st.narrow(cond, Interval::point(0));
        }
    }
    if let Some(p) = st.prov[cond as usize] {
        let (la, ra) = (st.get(p.lhs), st.get(p.rhs));
        if la.int && ra.int {
            let op = if truthy { p.op } else { negate_cmp(p.op) };
            return refine_by_cmp(st, op, p.lhs, p.rhs);
        }
    }
    true
}

/// Apply `lhs <op> rhs` as a fact, narrowing both operand registers; false
/// when the combination is infeasible.
fn refine_by_cmp(st: &mut State, op: BinOp, lhs: Reg, rhs: Reg) -> bool {
    let a = st.get(lhs).iv;
    let b = st.get(rhs).iv;
    let (na, nb) = match op {
        BinOp::Lt => (
            a.meet_hi(b.hi.saturating_sub(1)),
            b.meet_lo(a.lo.saturating_add(1)),
        ),
        BinOp::Le => (a.meet_hi(b.hi), b.meet_lo(a.lo)),
        BinOp::Gt => (
            a.meet_lo(b.lo.saturating_add(1)),
            b.meet_hi(a.hi.saturating_sub(1)),
        ),
        BinOp::Ge => (a.meet_lo(b.lo), b.meet_hi(a.hi)),
        BinOp::Eq => {
            let m = a.meet(b);
            (m, m)
        }
        BinOp::Ne => {
            // Endpoint trims when the other side is a single point.
            let trim = |x: Interval, y: Interval| -> Option<Interval> {
                match y.as_point() {
                    Some(p) if x.as_point() == Some(p) => None,
                    Some(p) if x.lo == p => Some(Interval::new(p + 1, x.hi)),
                    Some(p) if x.hi == p => Some(Interval::new(x.lo, p - 1)),
                    _ => Some(x),
                }
            };
            (trim(a, b), trim(b, a))
        }
        _ => (Some(a), Some(b)),
    };
    match (na, nb) {
        (Some(na), Some(nb)) => {
            st.narrow(lhs, na);
            st.narrow(rhs, nb);
            true
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_exec::{Arg, BufferId};
    use cucc_ir::{parse_kernel, LaunchConfig};

    fn program(src: &str, launch: LaunchConfig, args: &[Arg]) -> Program {
        let k = parse_kernel(src).expect("parse");
        Program::compile(&k, launch, args).expect("compile")
    }

    /// Extents vector with every global slot set to `n` elements.
    fn uniform_extents(prog: &Program, n: u64) -> Vec<Option<u64>> {
        global_extents(prog, |_| Some(n as usize * 8))
            .iter()
            .zip(prog.slots())
            .map(|(e, s)| match s {
                Some(info) if matches!(info.kind, SlotKind::Global { .. }) => Some(n),
                _ => *e,
            })
            .collect()
    }

    #[test]
    fn interval_algebra() {
        let a = Interval::new(-3, 5);
        let b = Interval::new(2, 4);
        assert_eq!(a.add(b), Interval::new(-1, 9));
        assert_eq!(a.sub(b), Interval::new(-7, 3));
        assert_eq!(a.mul(b), Interval::new(-12, 20));
        assert_eq!(a.hull(b), Interval::new(-3, 5));
        assert_eq!(a.meet(b), Some(Interval::new(2, 4)));
        assert_eq!(Interval::new(0, 1).meet(Interval::new(3, 4)), None);
        assert_eq!(a.scale(-2), Interval::new(-10, 6));
        assert_eq!(a.neg(), Interval::new(-5, 3));
        assert!(Interval::new(I64MIN - 1, 0).fit_i64() == Interval::I64_FULL);
        assert_eq!(Interval::new(-7, 3).abs_hi(), 7);
    }

    #[test]
    fn guarded_kernel_certifies() {
        let launch = LaunchConfig::cover1(1000, 128);
        let mut prog = program(
            "__global__ void saxpy(float a, float* x, float* y, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) y[id] = a * x[id] + y[id];
            }",
            launch,
            &[
                Arg::float(2.0),
                Arg::Buffer(BufferId(0)),
                Arg::Buffer(BufferId(1)),
                Arg::int(1000),
            ],
        );
        let ext = uniform_extents(&prog, 1000);
        let ra = certify_program(&mut prog, &ext, CertMode::Elide);
        let (certified, total) = ra.stats();
        assert_eq!(total, 3, "x load, y load, y store");
        assert_eq!(
            certified, 3,
            "guard `id < n` proves every access: {:?}",
            ra.certs
        );
        assert_eq!(prog.cert_stats().0, 3);
    }

    #[test]
    fn unguarded_tail_is_uncertified() {
        // 1024 threads over extent 1000: ids 1000..=1023 are out of bounds.
        let launch = LaunchConfig::cover1(1000, 128);
        let prog = program(
            "__global__ void copy(float* x, float* y) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                y[id] = x[id];
            }",
            launch,
            &[Arg::Buffer(BufferId(0)), Arg::Buffer(BufferId(1))],
        );
        let ext = uniform_extents(&prog, 1000);
        let ra = analyze_ranges(&prog, &ext);
        assert_eq!(ra.stats(), (0, 2));
        // The witness interval pinpoints the overrun.
        for c in &ra.certs {
            assert_eq!(c.index, Some(Interval::new(0, 1023)), "{c:?}");
        }
    }

    #[test]
    fn return_guard_refines_later_phases() {
        let launch = LaunchConfig::cover1(1000, 128);
        let mut prog = program(
            "__global__ void f(float* x, float* y, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id >= n) return;
                __syncthreads();
                y[id] = x[id];
            }",
            launch,
            &[
                Arg::Buffer(BufferId(0)),
                Arg::Buffer(BufferId(1)),
                Arg::int(1000),
            ],
        );
        let ext = uniform_extents(&prog, 1000);
        let ra = certify_program(&mut prog, &ext, CertMode::Validate);
        assert_eq!(ra.stats(), (2, 2), "{:?}", ra.certs);
    }

    #[test]
    fn loop_bound_certifies_with_widening() {
        let launch = LaunchConfig::new(1, 64);
        let mut prog = program(
            "__global__ void sum(float* x, float* y, int n) {
                int id = threadIdx.x;
                float s = 0.0f;
                for (int i = 0; i < n; i++) s = s + x[i];
                y[id] = s;
            }",
            launch,
            &[
                Arg::Buffer(BufferId(0)),
                Arg::Buffer(BufferId(1)),
                Arg::int(1000),
            ],
        );
        let ext = uniform_extents(&prog, 1000);
        let ra = certify_program(&mut prog, &ext, CertMode::Elide);
        assert_eq!(ra.stats(), (2, 2), "{:?}", ra.certs);
        let xl = ra
            .certs
            .iter()
            .find(|c| c.kind == AccessKind::Load)
            .unwrap();
        assert_eq!(
            xl.index,
            Some(Interval::new(0, 999)),
            "loop head stabilizes at [0, n-1]"
        );
    }

    /// Extents per memory slot from the byte size of each bound buffer
    /// (`BufferId(i)` holds `bytes[i]`).
    fn byte_extents(prog: &Program, bytes: &[usize]) -> Vec<Option<u64>> {
        global_extents(prog, |b| bytes.get(b.index()).copied())
    }

    #[test]
    fn loop_bound_constants_are_widening_thresholds() {
        // `8` and `4` are emitted as `Const`s into the registers `ForInit`
        // normalizes, not pooled: without them as thresholds `c` widens to
        // the next pool member (31), and `ctr[c * 4 + j]` overruns 32.
        let launch = LaunchConfig::new(4, 32);
        let prog = program(
            "__global__ void k(float* ctr, float* out) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                float s = 0.0f;
                for (int c = 0; c < 8; c++)
                    for (int j = 0; j < 4; j++)
                        s += ctr[c * 4 + j];
                out[id] = s;
            }",
            launch,
            &[Arg::Buffer(BufferId(0)), Arg::Buffer(BufferId(1))],
        );
        let ra = analyze_ranges(&prog, &byte_extents(&prog, &[32 * 4, 128 * 4]));
        assert_eq!(ra.stats(), (2, 2), "{:?}", ra.certs);
        assert_eq!(ra.certs[0].index, Some(Interval::new(0, 31)));
    }

    #[test]
    fn ga_certifies_every_access_at_its_real_launch() {
        // An inner loop re-entered by its outer loop: counted as widening
        // visits of the inner head, the re-entries push `j` to the `i64`
        // extremes while `i` still converges.
        let ga = cucc_workloads::heteromark_kernels()
            .into_iter()
            .find(|k| k.name == "hm_ga")
            .expect("hm_ga");
        assert_eq!(ga.launch, LaunchConfig::new(16, 64));
        assert_eq!(ga.scalars, [Value::I64(16), Value::I64(4)], "seg, qlen");
        let buffers = (0..ga.buffer_bytes.len() as u32).map(|i| Arg::Buffer(BufferId(i)));
        let args: Vec<Arg> = buffers
            .chain(ga.scalars.iter().map(|v| Arg::Scalar(*v)))
            .collect();
        let prog = program(&ga.source, ga.launch, &args);
        let ra = analyze_ranges(&prog, &byte_extents(&prog, &ga.buffer_bytes));
        assert_eq!(ra.stats(), (5, 5), "{:?}", ra.certs);
    }

    #[test]
    fn three_deep_constant_nest_terminates_and_certifies() {
        let launch = LaunchConfig::new(2, 32);
        let prog = program(
            "__global__ void k(float* w, float* out) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                float s = 0.0f;
                for (int a = 0; a < 3; a++)
                    for (int b = 0; b < 5; b++)
                        for (int c = 0; c < 7; c++)
                            s += w[(a * 5 + b) * 7 + c];
                out[id] = s;
            }",
            launch,
            &[Arg::Buffer(BufferId(0)), Arg::Buffer(BufferId(1))],
        );
        let ra = analyze_ranges(&prog, &byte_extents(&prog, &[105 * 4, 64 * 4]));
        assert_eq!(ra.stats(), (2, 2), "{:?}", ra.certs);
        assert_eq!(ra.certs[0].index, Some(Interval::new(0, 104)));
    }

    #[test]
    fn modulo_bounds_certify() {
        let launch = LaunchConfig::cover1(4096, 256);
        let prog = program(
            "__global__ void f(float* x, float* y) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                y[id % 64] = x[id % 64];
            }",
            launch,
            &[Arg::Buffer(BufferId(0)), Arg::Buffer(BufferId(1))],
        );
        let ext = uniform_extents(&prog, 64);
        let ra = analyze_ranges(&prog, &ext);
        assert_eq!(ra.stats(), (2, 2), "{:?}", ra.certs);
    }

    #[test]
    fn constant_branch_fact_and_unreachable() {
        let launch = LaunchConfig::new(1, 32);
        let prog = program(
            "__global__ void f(float* y, int n) {
                int id = threadIdx.x;
                if (n > 0) { y[id] = 1.0f; } else { y[id] = 2.0f; }
            }",
            launch,
            &[Arg::Buffer(BufferId(0)), Arg::int(64)],
        );
        let ext = uniform_extents(&prog, 32);
        let ra = analyze_ranges(&prog, &ext);
        // n = 64 folds; the branch is provably taken.
        let consts: Vec<_> = ra
            .branches
            .iter()
            .filter(|b| b.outcome == Some(true))
            .collect();
        assert!(!consts.is_empty(), "{:?}", ra.branches);
        // The else side never runs.
        assert!(
            ra.reachable.iter().any(|r| !r),
            "dead else branch should leave unreached pcs"
        );
        // Only the reachable store is recorded.
        assert_eq!(ra.stats(), (1, 1), "{:?}", ra.certs);
    }

    /// A pooled index is evaluated where its access runs: the guard has
    /// narrowed `threadIdx.x` to `[0, 31]` there, so `threadIdx.x * 2 + 1`
    /// stays inside the 64-element tile, as the inline code did.
    #[test]
    fn pooled_index_is_narrowed_by_its_guard() {
        let launch = LaunchConfig::new(4, 64);
        let mut prog = program(
            "__global__ void f(float* y) {
                __shared__ float tile[64];
                if (threadIdx.x < 32) tile[threadIdx.x * 2 + 1] = 1.0f;
                __syncthreads();
                y[blockIdx.x * 64 + threadIdx.x] = tile[threadIdx.x];
            }",
            launch,
            &[Arg::Buffer(BufferId(0))],
        );
        assert!(!prog.thread_pool().is_empty());
        let ext = uniform_extents(&prog, 256);
        let ra = certify_program(&mut prog, &ext, CertMode::Elide);
        let (c, t) = ra.stats();
        assert_eq!((c, t), (3, 3), "{:?}", ra.certs);
    }

    #[test]
    fn shared_memory_extent_is_compile_time() {
        let launch = LaunchConfig::new(8, 64);
        let mut prog = program(
            "__global__ void f(float* x, float* y, int n) {
                __shared__ float tile[64];
                int t = threadIdx.x;
                int id = blockIdx.x * blockDim.x + t;
                tile[t] = id < n ? x[id] : 0.0f;
                __syncthreads();
                if (id < n) y[id] = tile[63 - t];
            }",
            launch,
            &[
                Arg::Buffer(BufferId(0)),
                Arg::Buffer(BufferId(1)),
                Arg::int(512),
            ],
        );
        let ext = uniform_extents(&prog, 512);
        let ra = certify_program(&mut prog, &ext, CertMode::Elide);
        let (c, t) = ra.stats();
        assert_eq!((c, t), (t, t), "all accesses certified: {:?}", ra.certs);
    }
}
