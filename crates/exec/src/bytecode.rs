//! Bytecode lowering: compile a [`Kernel`] **once per launch** into a flat,
//! register-based instruction stream.
//!
//! The tree-walk interpreter in [`crate::interp`] re-walks the `Stmt`/`Expr`
//! AST for every thread of every block. For a launch, though, almost
//! everything about that walk is invariant: variable slots, the shape of
//! control flow, the split into barrier phases, `blockDim`/`gridDim` and
//! every scalar parameter. [`Program::compile`] resolves all of it ahead of
//! time:
//!
//! * variables map to fixed low registers, expression temporaries to two
//!   compact stacks of scratch registers above them, one per value kind, so
//!   every register holds one [`ValueKind`] for the whole program
//!   (`Program::kinds`; the front end made every conversion explicit);
//! * scalar params, `blockDim`/`gridDim` and constant subtrees fold;
//! * every maximal subtree that reads no variable and no memory and cannot
//!   fault is *pooled*: a launch constant into a register splatted once per
//!   run, a subtree of `blockIdx` and launch values into code run once per
//!   block ([`Program::block_pool`]), one of `threadIdx` and launch values
//!   into code run once per thread and run ([`Program::thread_pool`]). The
//!   ops a folded or pooled subtree would have charged are charged by the
//!   instruction that stands in for it or reads its register, each time it
//!   runs (`Program::subtree_ops`), so stat parity with the oracle stays
//!   bit-for-bit;
//! * buffer params resolve to [`crate::memory::BufferId`]s in a dense
//!   memory-slot table (see `Kernel::mem_slot`);
//! * `__syncthreads()` phase boundaries are precomputed into a [`PhaseOp`]
//!   tree instead of being rediscovered per block via `Stmt::has_barrier`.
//!
//! Execution of the compiled form lives in [`crate::lane`] (the engine) and
//! [`crate::engine`] (its entry points and thread-major fallback). Every
//! instruction replicates the interpreter's *exact* dynamic statistics
//! semantics (which operations count as int vs float ops, address
//! arithmetic, traffic counters), so `BlockStats` from both executors agree
//! bit-for-bit — enforced by the differential proptest suite.

use crate::interp::{check_args, eval_binop, eval_intrinsic, eval_unop, Arg, ExecError};
use crate::memory::BufferId;
use crate::stats::{intrinsic_weight, BlockStats};
use cucc_ir::{
    AtomicOp, Axis, BinOp, Dim3, Expr, Intrinsic, Kernel, LaunchConfig, MemRef, MemSpace, Scalar,
    Stmt, UnOp, Value, ValueKind,
};
use std::ops::Range;

/// Register index into a thread's register file. Registers `0..num_vars`
/// hold the kernel's scalar variables; higher registers are expression
/// temporaries.
pub type Reg = u32;

/// What a dense memory slot refers to.
#[derive(Debug, Clone)]
pub enum SlotKind {
    /// A global buffer, already bound to its launch argument.
    Global { buf: BufferId },
    /// `__shared__` array `idx` (per block).
    Shared { idx: u32 },
    /// Local array `idx` (per thread).
    Local { idx: u32 },
}

/// Compile-time metadata for one referenced memory slot.
#[derive(Debug, Clone)]
pub struct MemSlotInfo {
    pub kind: SlotKind,
    pub elem: Scalar,
    /// Source name, for out-of-bounds diagnostics.
    pub name: String,
    /// Element count for shared/local arrays (globals are sized by the pool
    /// at run time).
    pub len_elems: usize,
}

/// One bytecode instruction.
///
/// Jump targets are absolute indices into [`Program::code`]. Control-flow
/// instructions carry the op counts the interpreter would have charged for
/// their decision; the ops of folded or pooled subtrees an instruction
/// stands in for are `Program::subtree_ops`. `BlockStats` stay
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// `dst ← v`, a folded subtree.
    Const {
        dst: Reg,
        v: Value,
    },
    /// `dst ← threadIdx.<axis>` (thread-pool code only).
    Tid {
        dst: Reg,
        axis: Axis,
    },
    /// `dst ← blockIdx.<axis>` (block-pool code only).
    Bid {
        dst: Reg,
        axis: Axis,
    },
    /// `dst ← src` (variable reads and assignments).
    Copy {
        dst: Reg,
        src: Reg,
    },
    Unary {
        dst: Reg,
        op: UnOp,
        src: Reg,
    },
    Binary {
        dst: Reg,
        op: BinOp,
        lhs: Reg,
        rhs: Reg,
    },
    /// Fused `dst ← a * b + c`, the dominant FMA shape in GPU kernels.
    /// Charges exactly what the interpreter charges for the `Mul` then the
    /// `Add` (each int or float by its operands' kinds); neither op can
    /// fault, so the fusion is observationally identical.
    MulAdd {
        dst: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
    },
    Cast {
        dst: Reg,
        ty: Scalar,
        src: Reg,
    },
    Intrin1 {
        dst: Reg,
        f: Intrinsic,
        a: Reg,
    },
    Intrin2 {
        dst: Reg,
        f: Intrinsic,
        a: Reg,
        b: Reg,
    },
    /// `dst ← (src != 0) as 0/1` — logical-operator normalization; charges
    /// nothing (the interpreter's `&&`/`||` charge only the decision op).
    Test {
        dst: Reg,
        src: Reg,
    },
    Load {
        dst: Reg,
        slot: u32,
        idx: Reg,
    },
    Store {
        slot: u32,
        idx: Reg,
        val: Reg,
    },
    AtomicRmw {
        op: cucc_ir::AtomicOp,
        slot: u32,
        idx: Reg,
        val: Reg,
    },
    Jump {
        target: u32,
    },
    /// Charge `int_ops` (the branch/short-circuit decision), then jump when
    /// the register is falsy.
    JumpIfFalse {
        cond: Reg,
        target: u32,
        int_ops: u32,
    },
    /// Charge `int_ops`, then jump when the register is truthy.
    JumpIfTrue {
        cond: Reg,
        target: u32,
        int_ops: u32,
    },
    /// For-loop entry. Registers `start`/`end`/`step` hold the evaluated
    /// bounds; they are normalized to `I64` in place, `start` becoming the
    /// *private* induction register (the body may freely clobber the loop
    /// variable without affecting iteration, exactly like the tree-walk
    /// interpreter's local induction value). Zero step errors; a zero trip
    /// count leaves `var = start` and jumps to `exit`. `var` receives each
    /// count converted to `ty`, the type the variable holds.
    ForInit {
        var: Reg,
        ty: Scalar,
        start: Reg,
        end: Reg,
        step: Reg,
        exit: u32,
    },
    /// For-loop back edge: charge the induction update + test (2 int ops),
    /// advance the private induction register and the variable, and jump to
    /// `back` while the loop condition holds. `ind` is the `start` register
    /// of the matching [`Inst::ForInit`].
    ForNext {
        var: Reg,
        ty: Scalar,
        ind: Reg,
        end: Reg,
        step: Reg,
        back: u32,
    },
    /// Thread returns: terminate this thread for the rest of the launch.
    Return,
}

/// One step of the precomputed barrier-phase schedule (the MCUDA/CuPBoP
/// loop-fission structure, discovered once at compile time instead of per
/// block).
#[derive(Debug, Clone)]
pub enum PhaseOp {
    /// A maximal barrier-free code range: every live thread runs
    /// `code[start..end]` to completion before the next phase op. `batch`
    /// is the lane execution mode [`seg_batchable`] proved safe
    /// ([`BatchKind::No`]: the segment runs thread-major).
    Seg {
        start: u32,
        end: u32,
        batch: BatchKind,
    },
    /// `__syncthreads()` — charges one barrier per block.
    Barrier,
    /// Uniform loop around a barrier. `bounds` is a code range evaluated
    /// once on thread 0's registers (op counts charged once, as in the
    /// oracle), leaving start/end/step in `sreg`/`ereg`/`streg`; `var`
    /// receives each count converted to `ty`.
    UniformFor {
        var: Reg,
        ty: Scalar,
        bounds: (u32, u32),
        sreg: Reg,
        ereg: Reg,
        streg: Reg,
        body: Vec<PhaseOp>,
    },
    /// Uniform branch around a barrier: `cond` code runs on thread 0 only.
    UniformIf {
        cond: (u32, u32),
        creg: Reg,
        then_ops: Vec<PhaseOp>,
        else_ops: Vec<PhaseOp>,
    },
}

/// A kernel compiled for one specific launch (geometry and arguments bound).
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) code: Vec<Inst>,
    /// Per pc: the ops of the folded and pooled subtrees the instruction
    /// stands in for or reads, charged per thread each time it runs — when
    /// the oracle evaluates those subtrees.
    pub(crate) subtree_ops: Vec<Charge>,
    pub(crate) phases: Vec<PhaseOp>,
    /// Registers per thread (variables + peak temporaries).
    pub(crate) num_regs: u32,
    /// The one kind each register holds (`num_regs` entries).
    pub(crate) kinds: Vec<ValueKind>,
    /// Leading registers holding kernel variables. Only these need zeroing
    /// between blocks: temporaries are always written before they are read.
    pub(crate) num_vars: u32,
    /// Launch constants, splatted once per run into the registers starting
    /// at `const_base` (above the temporaries) and never written again — so
    /// `reset` between blocks leaves them intact.
    pub(crate) const_pool: Vec<Value>,
    pub(crate) const_base: u32,
    /// Block-invariant subtrees (`blockIdx` and launch values): instruction
    /// `i` writes register `const_base + const_pool.len() + i`, reading only
    /// pooled registers. Run once per block on one lane, its rows splatted
    /// before the block's first segment.
    pub(crate) block_pool: Vec<Inst>,
    /// Thread-invariant subtrees (`threadIdx` and launch values), in the
    /// registers right after the block pool's: run once per thread and run.
    pub(crate) thread_pool: Vec<Inst>,
    /// Slot metadata, indexed by `Kernel::mem_slot` numbering. Slots the
    /// kernel never references (e.g. scalar parameters) stay `None`.
    pub(crate) slots: Vec<Option<MemSlotInfo>>,
    /// Byte sizes of the shared arrays (one image per block).
    pub(crate) shared_sizes: Vec<usize>,
    /// Byte sizes of the local arrays (one image per thread each).
    pub(crate) local_sizes: Vec<usize>,
    /// The pc range of every batchable segment (one the engine runs
    /// instruction-major over lane chunks), in phase-tree pre-order.
    pub(crate) lane_plans: Vec<Range<u32>>,
    pub(crate) launch: LaunchConfig,
    /// Optional bounds certificates attached by the range analysis
    /// (`cucc-analysis::range`): per-pc in-bounds proofs the engine consumes
    /// to elide (or cross-validate) bounds checks. `None` = every access
    /// takes the checked path.
    pub(crate) certs: Option<Certs>,
    /// Branch pc of each source `if`, in pre-order: the `JumpIfFalse` for
    /// segment-lowered ifs, the last condition instruction for barrier
    /// (phase-lowered) ifs. `?:` selects also emit conditional jumps but are
    /// deliberately absent — the table lets the lint pass attribute a
    /// constant-condition pc to an `if` ordinal (and thence a source line).
    pub(crate) if_sites: Vec<u32>,
    kernel_name: String,
    has_global_atomics: bool,
}

impl Program {
    /// Compile `kernel` for one launch: arguments are checked and bound,
    /// constants folded, phases precomputed. The returned program is
    /// immutable and reusable across blocks, nodes and worker threads.
    pub fn compile(
        kernel: &Kernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<Program, ExecError> {
        check_args(kernel, args)?;
        let num_vars = kernel.num_vars() as u32;
        let mut c = Compiler {
            kernel,
            launch,
            args,
            code: Vec::with_capacity(kernel.flat_stmt_count() * 4),
            subtree_ops: Vec::with_capacity(kernel.flat_stmt_count() * 4),
            pending: Charge::default(),
            slots: vec![None; kernel.num_mem_slots()],
            next_reg: [num_vars, FLOAT_BASE],
            max_reg: [num_vars, FLOAT_BASE],
            consts: Vec::new(),
            pools: Default::default(),
            pool_kinds: Default::default(),
            if_sites: Vec::new(),
        };
        let mut phases = c.lower_phases(&kernel.body)?;
        // Decided once all code is emitted, so every jump target is final.
        let (const_base, num_regs) = c.finish_regs(&mut phases);
        let mut kinds: Vec<ValueKind> = kernel.var_types.iter().map(|t| t.kind()).collect();
        kinds.resize(c.max_reg[0] as usize, ValueKind::Int);
        kinds.resize(const_base as usize, ValueKind::Float);
        kinds.extend(c.consts.iter().map(|v| v.kind()));
        kinds.extend(c.pool_kinds.iter().flatten());
        debug_assert_eq!(kinds.len(), num_regs as usize);
        let [block_pool, thread_pool] = c.pools;
        let pools = Pools {
            const_base,
            consts: &c.consts,
            block_pool: &block_pool,
            thread_pool: &thread_pool,
            block: launch.block,
        };
        let mut lane_plans = Vec::new();
        for_each_seg(&mut phases, &mut |start, end, batch| {
            *batch = seg_batchable(&c.code, &c.slots, &pools, start, end);
            if *batch != BatchKind::No {
                lane_plans.push(start..end);
            }
        });
        let mut has_global_atomics = false;
        kernel.visit_stmts(&mut |s| {
            if let Stmt::AtomicRmw { mem, .. } = s {
                if mem.space() == MemSpace::Global {
                    has_global_atomics = true;
                }
            }
        });
        Ok(Program {
            code: c.code,
            subtree_ops: c.subtree_ops,
            phases,
            num_regs,
            kinds,
            num_vars,
            const_pool: c.consts,
            const_base,
            block_pool,
            thread_pool,
            slots: c.slots,
            shared_sizes: kernel.shared.iter().map(|a| a.size_bytes()).collect(),
            local_sizes: kernel.locals.iter().map(|a| a.size_bytes()).collect(),
            lane_plans,
            launch,
            certs: None,
            if_sites: c.if_sites,
            kernel_name: kernel.name.clone(),
            has_global_atomics,
        })
    }

    // ---- read-only views for the static analyses ----------------------

    /// The flat instruction stream.
    pub fn code(&self) -> &[Inst] {
        &self.code
    }

    /// Branch pc of each source `if`, in pre-order (the same ordinal space
    /// as `SourceMap::if_lines`). `?:` selects are excluded even though they
    /// also lower to conditional jumps.
    pub fn if_sites(&self) -> &[u32] {
        &self.if_sites
    }

    /// The precomputed barrier-phase schedule.
    pub fn phases(&self) -> &[PhaseOp] {
        &self.phases
    }

    /// Slot metadata, indexed by the slot ids in `Load`/`Store`/`AtomicRmw`.
    pub fn slots(&self) -> &[Option<MemSlotInfo>] {
        &self.slots
    }

    /// Launch constant pool (register `const_base + i` holds
    /// `const_pool[i]` for the whole run).
    pub fn const_pool(&self) -> &[Value] {
        &self.const_pool
    }

    /// Block-pool code: each instruction writes its own register, reading
    /// pooled registers only; run once per block before its first segment.
    pub fn block_pool(&self) -> &[Inst] {
        &self.block_pool
    }

    /// Thread-pool code: as [`Self::block_pool`], run once per thread.
    pub fn thread_pool(&self) -> &[Inst] {
        &self.thread_pool
    }

    /// First block-pool register (the thread pool's follow it).
    pub(crate) fn block_base(&self) -> u32 {
        self.const_base + self.const_pool.len() as u32
    }

    /// First pooled register (registers below are variables + temporaries).
    pub fn const_base(&self) -> u32 {
        self.const_base
    }

    /// Leading registers holding the kernel's scalar variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Total register-file size per thread.
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }

    /// The pc ranges of the batchable segments, in phase-tree pre-order.
    pub fn lane_plans(&self) -> &[Range<u32>] {
        &self.lane_plans
    }

    // ---- bounds certificates -------------------------------------------

    /// Attach a per-pc bounds-certificate table (one entry per instruction;
    /// only memory instructions are consulted). Certified accesses take the
    /// engine's unchecked fast path in [`CertMode::Elide`]; in
    /// [`CertMode::Validate`] they run the checked path and a bounds fault
    /// on a certified access surfaces as
    /// [`ExecError::CertificateViolation`] — a wrong certificate is a loud
    /// failure, never UB. Lanes and the thread-major fallback read the same
    /// table, one bit per access.
    pub fn attach_certs(&mut self, pc_certified: &[bool], mode: CertMode) {
        assert_eq!(
            pc_certified.len(),
            self.code.len(),
            "certificate table must align with the instruction stream"
        );
        self.certs = Some(Certs {
            pc: pc_certified.to_vec(),
            mode,
        });
    }

    /// Drop every lane plan, so each segment runs thread-major through
    /// [`crate::engine::run_seg`] — the engine without its lanes. For
    /// differential tests and ablation benches; no launch option reaches it.
    pub fn detach_lane_plans(&mut self) {
        for_each_seg(&mut self.phases, &mut |_, _, batch| *batch = BatchKind::No);
        self.lane_plans.clear();
    }

    /// Mode of the attached certificate table, if any.
    pub fn cert_mode(&self) -> Option<CertMode> {
        self.certs.as_ref().map(|c| c.mode)
    }

    /// `(elide, validate)` per-pc certificate masks, split by mode — at most
    /// one side is `Some`. The engine hoists these out of its instruction
    /// loops (per lane chunk, per `run_seg` call): the elide mask gates the
    /// unchecked fast path, the validate mask escalates bounds faults at
    /// certified pcs to certificate violations.
    #[inline]
    pub(crate) fn cert_masks(&self) -> (Option<&[bool]>, Option<&[bool]>) {
        match &self.certs {
            Some(c) => match c.mode {
                CertMode::Elide => (Some(&c.pc[..]), None),
                CertMode::Validate => (None, Some(&c.pc[..])),
            },
            None => (None, None),
        }
    }

    /// `(certified, total)` memory instructions under the attached table
    /// (`(0, total)` when no table is attached).
    pub fn cert_stats(&self) -> (usize, usize) {
        let mut certified = 0;
        let mut total = 0;
        for (pc, inst) in self.code.iter().enumerate() {
            if is_mem_inst(inst) {
                total += 1;
                if self.certs.as_ref().is_some_and(|c| c.pc[pc]) {
                    certified += 1;
                }
            }
        }
        (certified, total)
    }

    /// The launch geometry this program was compiled for.
    pub fn launch(&self) -> LaunchConfig {
        self.launch
    }

    /// Name of the source kernel.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Number of instructions in the flat stream.
    pub fn num_insts(&self) -> usize {
        self.code.len()
    }

    /// Compact human-readable phase schedule — segment ranges with their
    /// chosen batch/vector mode (`dense`/`pred`/`scalar`) — for tests and
    /// `cucc run -v` diagnostics.
    pub fn phase_summary(&self) -> String {
        fn fmt(ops: &[PhaseOp], out: &mut String) {
            for (i, op) in ops.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                match op {
                    PhaseOp::Seg {
                        start, end, batch, ..
                    } => {
                        let tag = match batch {
                            BatchKind::No => "scalar",
                            BatchKind::Predicated => "pred",
                            BatchKind::Dense => "dense",
                        };
                        out.push_str(&format!("{tag}[{start}..{end}]"));
                    }
                    PhaseOp::Barrier => out.push_str("bar"),
                    PhaseOp::UniformFor { body, .. } => {
                        out.push_str("for(");
                        fmt(body, out);
                        out.push(')');
                    }
                    PhaseOp::UniformIf {
                        then_ops, else_ops, ..
                    } => {
                        out.push_str("if(");
                        fmt(then_ops, out);
                        out.push_str(")(");
                        fmt(else_ops, out);
                        out.push(')');
                    }
                }
            }
        }
        let mut s = String::new();
        fmt(&self.phases, &mut s);
        s
    }

    /// True when the kernel performs atomics on global memory. Such kernels
    /// interleave read-modify-writes across blocks, so the engine refuses to
    /// chunk their block range across intra-node workers (serial fallback).
    pub fn serial_only(&self) -> bool {
        self.has_global_atomics
    }

    /// The global buffers the program's slots bind: the only ones a run of
    /// it reaches.
    pub(crate) fn bound_buffers(&self) -> impl Iterator<Item = BufferId> + '_ {
        self.slots
            .iter()
            .flatten()
            .filter_map(|info| match info.kind {
                SlotKind::Global { buf } => Some(buf),
                SlotKind::Shared { .. } | SlotKind::Local { .. } => None,
            })
    }

    /// The global buffers some instruction stores to, in code order (a
    /// buffer may repeat). Every other buffer the launch binds is only
    /// read, so it may stay shared with other nodes for the whole launch.
    pub(crate) fn written_buffers(&self) -> impl Iterator<Item = BufferId> + '_ {
        self.code.iter().filter_map(|inst| {
            let (Inst::Store { slot, .. } | Inst::AtomicRmw { slot, .. }) = inst else {
                return None;
            };
            match self.slots[*slot as usize].as_ref()?.kind {
                SlotKind::Global { buf } => Some(buf),
                SlotKind::Shared { .. } | SlotKind::Local { .. } => None,
            }
        })
    }
}

/// How the engine consumes an attached certificate table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertMode {
    /// Certified accesses take the unchecked fast path: the per-access
    /// bounds check is elided (a `debug_assert` still guards debug builds).
    Elide,
    /// Certified accesses run the checked path, and a bounds fault on one
    /// becomes [`ExecError::CertificateViolation`]: a `--sanitize` launch
    /// runs its program so, and the soundness proptests certify in this
    /// mode to cross-validate every certificate.
    Validate,
}

/// Attached bounds certificates (see [`Program::attach_certs`]).
#[derive(Debug, Clone)]
pub(crate) struct Certs {
    /// Per-pc: the access at this pc is certified in-bounds. Only memory
    /// instructions are ever consulted.
    pub pc: Vec<bool>,
    pub mode: CertMode,
}

/// True for instructions that access a memory slot.
pub(crate) fn is_mem_inst(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Load { .. } | Inst::Store { .. } | Inst::AtomicRmw { .. }
    )
}

/// Visit every `Seg` of a phase tree in pre-order as
/// `f(start, end, batch)`.
fn for_each_seg(phases: &mut [PhaseOp], f: &mut impl FnMut(u32, u32, &mut BatchKind)) {
    for p in phases {
        match p {
            PhaseOp::Seg { start, end, batch } => f(*start, *end, batch),
            PhaseOp::Barrier => {}
            PhaseOp::UniformFor { body, .. } => for_each_seg(body, f),
            PhaseOp::UniformIf {
                then_ops, else_ops, ..
            } => {
                for_each_seg(then_ops, f);
                for_each_seg(else_ops, f);
            }
        }
    }
}

/// Ops charged per thread, by kind: what a folded or pooled subtree would
/// have charged in the oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Charge {
    pub(crate) int_ops: u32,
    pub(crate) float_ops: u32,
}

impl Charge {
    fn count(mut self, kind: ValueKind) -> Charge {
        match kind {
            ValueKind::Int => self.int_ops += 1,
            ValueKind::Float => self.float_ops += 1,
        }
        self
    }

    fn plus(self, o: Charge) -> Charge {
        Charge {
            int_ops: self.int_ops + o.int_ops,
            float_ops: self.float_ops + o.float_ops,
        }
    }

    /// Charge `n` threads.
    #[inline]
    pub(crate) fn add_to(self, stats: &mut BlockStats, n: u64) {
        stats.int_ops += n * u64::from(self.int_ops);
        stats.float_ops += n * u64::from(self.float_ops);
    }
}

/// Result of constant-folding a subtree: the value plus the op counts the
/// interpreter would have charged evaluating it.
#[derive(Clone, Copy)]
struct Folded {
    v: Value,
    ops: Charge,
}

impl Folded {
    fn pure(v: Value) -> Folded {
        Folded {
            v,
            ops: Charge::default(),
        }
    }

    fn count(mut self, kind: ValueKind) -> Folded {
        self.ops = self.ops.count(kind);
        self
    }

    fn plus_ops(mut self, other: Folded) -> Folded {
        self.ops = self.ops.plus(other.ops);
        self
    }
}

/// Which pool a subtree can live in ([`Compiler::pool_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    /// It folds: a launch constant.
    Launch,
    /// It reads `blockIdx` and launch values only.
    Block,
    /// It reads `threadIdx` and launch values only.
    Thread,
}

/// Virtual register bases during lowering, relocated by
/// [`Compiler::finish_regs`] to the final layout `[vars][int temps][float
/// temps][consts][block pool][thread pool]`. Int temporaries stack up from
/// the variables, float temporaries from `FLOAT_BASE`.
const CONST_BASE: Reg = 1 << 30;
const THREAD_BASE: Reg = 1 << 29;
const BLOCK_BASE: Reg = 1 << 28;
const FLOAT_BASE: Reg = 1 << 27;

struct Compiler<'a> {
    kernel: &'a Kernel,
    launch: LaunchConfig,
    args: &'a [Arg],
    code: Vec<Inst>,
    /// Parallel to `code` (see [`Program::subtree_ops`]).
    subtree_ops: Vec<Charge>,
    /// Ops of the pooled operands lowered for the instruction about to be
    /// emitted; [`Self::emit`] hands them to it.
    pending: Charge,
    slots: Vec<Option<MemSlotInfo>>,
    /// Temporary stacks, `[int, float]`.
    next_reg: [Reg; 2],
    max_reg: [Reg; 2],
    /// Launch constant pool: values the engine writes into dedicated
    /// registers once per run instead of re-materializing with a `Const`
    /// instruction in every block × thread.
    consts: Vec<Value>,
    /// Block- and thread-pool code (`[block, thread]`) and the kinds of the
    /// registers it writes.
    pools: [Vec<Inst>; 2],
    pool_kinds: [Vec<ValueKind>; 2],
    /// Branch pc per source `if`, pre-order (see [`Program::if_sites`]).
    if_sites: Vec<u32>,
}

impl<'a> Compiler<'a> {
    // ---- register allocation ------------------------------------------

    fn mark(&self) -> [Reg; 2] {
        self.next_reg
    }

    fn restore(&mut self, mark: [Reg; 2]) {
        self.next_reg = mark;
    }

    fn alloc_tmp(&mut self, kind: ValueKind) -> Reg {
        let k = kind as usize;
        let r = self.next_reg[k];
        self.next_reg[k] += 1;
        self.max_reg[k] = self.max_reg[k].max(self.next_reg[k]);
        r
    }

    fn kind(&self, e: &Expr) -> ValueKind {
        self.kernel.expr_kind(e)
    }

    /// Kind of a variable or temporary register (pooled registers are
    /// never lowering destinations).
    fn reg_kind(&self, r: Reg) -> ValueKind {
        if r >= FLOAT_BASE {
            ValueKind::Float
        } else if r < self.kernel.num_vars() as Reg {
            self.kernel.var_types[r as usize].kind()
        } else {
            ValueKind::Int
        }
    }

    /// `dst` when `e` has its kind, else a fresh temporary of `e`'s kind.
    fn scratch(&mut self, e: &Expr, dst: Reg) -> Reg {
        let k = self.kind(e);
        if self.reg_kind(dst) == k {
            dst
        } else {
            self.alloc_tmp(k)
        }
    }

    /// Dedicated read-only register for a launch-invariant value
    /// (deduplicated bitwise, so `-0.0` and `0.0` stay distinct).
    fn const_reg(&mut self, v: Value) -> Reg {
        let bits = |v: Value| match v {
            Value::I64(i) => (0u8, i as u64),
            Value::F64(f) => (1u8, f.to_bits()),
        };
        let k = bits(v);
        let i = match self.consts.iter().position(|c| bits(*c) == k) {
            Some(i) => i,
            None => {
                self.consts.push(v);
                self.consts.len() - 1
            }
        };
        CONST_BASE + i as Reg
    }

    /// Which pool can hold `e` — a syntactic walk over the one expression:
    /// `Launch` when it folds; `Block` or `Thread` when it reads `blockIdx`
    /// or `threadIdx` (not both) and launch values, no variable and no
    /// memory, and holds no int `/` or `%` (they can fault) and no `?:`,
    /// `&&` or `||` (what they charge depends on the values); else `None`.
    fn pool_of(&self, e: &Expr) -> Option<Pool> {
        let join = |a: Pool, b: Pool| match (a, b) {
            (Pool::Launch, p) | (p, Pool::Launch) => Some(p),
            (a, b) => (a == b).then_some(a),
        };
        let p = match e {
            Expr::ThreadIdx(_) => return Some(Pool::Thread),
            Expr::BlockIdx(_) => return Some(Pool::Block),
            Expr::Var(_) | Expr::Load { .. } => return None,
            Expr::IntConst(_)
            | Expr::FloatConst(_)
            | Expr::BlockDim(_)
            | Expr::GridDim(_)
            | Expr::Param(_) => Pool::Launch,
            Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => self.pool_of(arg)?,
            Expr::Call { args, .. } => args
                .iter()
                .try_fold(Pool::Launch, |p, a| join(p, self.pool_of(a)?))?,
            Expr::Binary { op, lhs, rhs } => {
                let p = join(self.pool_of(lhs)?, self.pool_of(rhs)?)?;
                let float =
                    self.kind(lhs) == ValueKind::Float || self.kind(rhs) == ValueKind::Float;
                let faults = !float && matches!(op, BinOp::Div | BinOp::Rem);
                if p != Pool::Launch && (faults || matches!(op, BinOp::LAnd | BinOp::LOr)) {
                    return None;
                }
                p
            }
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => {
                for x in [cond, then_value, else_value] {
                    if self.pool_of(x)? != Pool::Launch {
                        return None;
                    }
                }
                Pool::Launch
            }
        };
        match p {
            Pool::Launch => self.fold(e).map(|_| Pool::Launch),
            p => Some(p),
        }
    }

    /// The register holding `e` and the ops one evaluation of `e` charges,
    /// when `e` can be pooled ([`Self::pool_of`]): a launch constant's
    /// register, or a block- or thread-pool register.
    fn pooled(&mut self, e: &Expr) -> Option<(Reg, Charge)> {
        match self.pool_of(e)? {
            Pool::Launch => {
                let f = self.fold(e)?;
                Some((self.const_reg(f.v), f.ops))
            }
            Pool::Block => Some(self.pool_node(e, 0)),
            Pool::Thread => Some(self.pool_node(e, 1)),
        }
    }

    /// Emit `e`'s own instruction, reading its operands' pooled registers,
    /// into pool `k`'s code (`0` block, `1` thread); an identical
    /// instruction already there lends its register instead.
    fn pool_node(&mut self, e: &Expr, k: usize) -> (Reg, Charge) {
        let arg = |c: &mut Self, a: &Expr| {
            c.pooled(a)
                .expect("an operand of a pooled subtree is pooled")
        };
        let (inst, ops) = match e {
            Expr::ThreadIdx(axis) => (
                Inst::Tid {
                    dst: 0,
                    axis: *axis,
                },
                Charge::default(),
            ),
            Expr::BlockIdx(axis) => (
                Inst::Bid {
                    dst: 0,
                    axis: *axis,
                },
                Charge::default(),
            ),
            Expr::Unary { op, arg: a } => {
                let (src, ops) = arg(self, a);
                let inst = Inst::Unary {
                    dst: 0,
                    op: *op,
                    src,
                };
                (inst, ops.count(self.kind(a)))
            }
            Expr::Cast { ty, arg: a } => {
                let (src, ops) = arg(self, a);
                (
                    Inst::Cast {
                        dst: 0,
                        ty: *ty,
                        src,
                    },
                    ops.count(ty.kind()),
                )
            }
            Expr::Binary { op, lhs, rhs } => {
                let (l, lops) = arg(self, lhs);
                let (r, rops) = arg(self, rhs);
                let kind = self.kind(lhs).max(self.kind(rhs));
                let inst = Inst::Binary {
                    dst: 0,
                    op: *op,
                    lhs: l,
                    rhs: r,
                };
                (inst, lops.plus(rops).count(kind))
            }
            Expr::Call { f, args } => {
                let (a, mut ops) = arg(self, &args[0]);
                let inst = match args.get(1) {
                    None => Inst::Intrin1 { dst: 0, f: *f, a },
                    Some(b) => {
                        let (b, bops) = arg(self, b);
                        ops = ops.plus(bops);
                        Inst::Intrin2 {
                            dst: 0,
                            f: *f,
                            a,
                            b,
                        }
                    }
                };
                ops.float_ops += intrinsic_weight(*f) as u32;
                (inst, ops)
            }
            _ => unreachable!("`pool_of` pools no other node"),
        };
        let base = [BLOCK_BASE, THREAD_BASE][k];
        let code = &mut self.pools[k];
        let i = match code.iter().position(|c| with_dst(*c, 0) == inst) {
            Some(i) => i,
            None => {
                code.push(with_dst(inst, base + code.len() as Reg));
                self.pool_kinds[k].push(self.kernel.expr_kind(e));
                code.len() - 1
            }
        };
        (base + i as Reg, ops)
    }

    /// Relocate float temporaries and pooled registers from their virtual
    /// ranges to the final layout (see [`CONST_BASE`]), returning
    /// `(const_base, num_regs)`.
    fn finish_regs(&mut self, phases: &mut [PhaseOp]) -> (u32, u32) {
        let float_base = self.max_reg[0];
        let base = (float_base + self.max_reg[1] - FLOAT_BASE).max(1);
        debug_assert!(base < FLOAT_BASE, "register file overflow");
        let block_base = base + self.consts.len() as u32;
        let thread_base = block_base + self.pools[0].len() as u32;
        let remap = |r: &mut Reg| {
            *r = match *r {
                r if r >= CONST_BASE => base + (r - CONST_BASE),
                r if r >= THREAD_BASE => thread_base + (r - THREAD_BASE),
                r if r >= BLOCK_BASE => block_base + (r - BLOCK_BASE),
                r if r >= FLOAT_BASE => float_base + (r - FLOAT_BASE),
                r => r,
            }
        };
        remap_phases(phases, &remap);
        let [block, thread] = &mut self.pools;
        for inst in self.code.iter_mut().chain(block).chain(thread) {
            regs_mut(inst, |r, _| remap(r));
        }
        (base, thread_base + self.pools[1].len() as u32)
    }

    // ---- code emission -------------------------------------------------

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Append `i`, which charges the ops of the pooled operands lowered for
    /// it (`pending`).
    fn emit(&mut self, i: Inst) -> usize {
        self.code.push(i);
        self.subtree_ops.push(std::mem::take(&mut self.pending));
        self.code.len() - 1
    }

    fn patch_target(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Inst::Jump { target: t }
            | Inst::JumpIfFalse { target: t, .. }
            | Inst::JumpIfTrue { target: t, .. }
            | Inst::ForInit { exit: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    // ---- memory slots ---------------------------------------------------

    fn slot(&mut self, mem: MemRef) -> u32 {
        let i = self.kernel.mem_slot(mem);
        if self.slots[i].is_none() {
            let elem = self.kernel.elem_type(mem);
            let info = match mem {
                MemRef::Global(p) => {
                    let Arg::Buffer(id) = self.args[p.index()] else {
                        unreachable!("checked by check_args + validation");
                    };
                    MemSlotInfo {
                        kind: SlotKind::Global { buf: id },
                        elem,
                        name: self.kernel.params[p.index()].name().to_string(),
                        len_elems: 0,
                    }
                }
                MemRef::Shared(s) => {
                    let d = &self.kernel.shared[s as usize];
                    MemSlotInfo {
                        kind: SlotKind::Shared { idx: s },
                        elem,
                        name: d.name.clone(),
                        len_elems: d.len,
                    }
                }
                MemRef::Local(l) => {
                    let d = &self.kernel.locals[l as usize];
                    MemSlotInfo {
                        kind: SlotKind::Local { idx: l },
                        elem,
                        name: d.name.clone(),
                        len_elems: d.len,
                    }
                }
            };
            self.slots[i] = Some(info);
        }
        i as u32
    }

    // ---- constant folding -----------------------------------------------

    /// Fold a subtree whose value is fully determined at compile time
    /// (launch geometry and scalar arguments included), accumulating the op
    /// counts the interpreter would charge. Subtrees that would *error* at
    /// run time (constant division by zero) are deliberately not folded, so
    /// the error surfaces with oracle-identical behaviour.
    fn fold(&self, e: &Expr) -> Option<Folded> {
        Some(match e {
            Expr::IntConst(v) => Folded::pure(Value::I64(*v)),
            Expr::FloatConst(v) => Folded::pure(Value::F64(*v)),
            Expr::BlockDim(a) => Folded::pure(Value::I64(self.launch.block.get(*a) as i64)),
            Expr::GridDim(a) => Folded::pure(Value::I64(self.launch.grid.get(*a) as i64)),
            Expr::Param(p) => {
                let Arg::Scalar(v) = self.args[p.index()] else {
                    unreachable!("checked by check_args + validation");
                };
                Folded::pure(v.convert_to(self.kernel.params[p.index()].scalar()))
            }
            Expr::Unary { op, arg } => {
                let a = self.fold(arg)?;
                let v = eval_unop(*op, a.v);
                Folded { v, ..a }.count(a.v.kind())
            }
            Expr::Binary { op, lhs, rhs } => match op {
                // Short-circuit: a decided lhs folds even when rhs cannot
                // (the interpreter would never evaluate it either).
                BinOp::LAnd => {
                    let l = self.fold(lhs)?.count(ValueKind::Int);
                    if !l.v.is_true() {
                        Folded {
                            v: Value::I64(0),
                            ..l
                        }
                    } else {
                        let r = self.fold(rhs)?;
                        Folded {
                            v: Value::I64(i64::from(r.v.is_true())),
                            ..l.plus_ops(r)
                        }
                    }
                }
                BinOp::LOr => {
                    let l = self.fold(lhs)?.count(ValueKind::Int);
                    if l.v.is_true() {
                        Folded {
                            v: Value::I64(1),
                            ..l
                        }
                    } else {
                        let r = self.fold(rhs)?;
                        Folded {
                            v: Value::I64(i64::from(r.v.is_true())),
                            ..l.plus_ops(r)
                        }
                    }
                }
                _ => {
                    let l = self.fold(lhs)?;
                    let r = self.fold(rhs)?;
                    let float = l.v.kind() == ValueKind::Float || r.v.kind() == ValueKind::Float;
                    let v = eval_binop(*op, l.v, r.v, float).ok()?;
                    let kind = if float {
                        ValueKind::Float
                    } else {
                        ValueKind::Int
                    };
                    Folded { v, ..l.plus_ops(r) }.count(kind)
                }
            },
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => {
                let c = self.fold(cond)?.count(ValueKind::Int);
                let taken = if c.v.is_true() {
                    self.fold(then_value)?
                } else {
                    self.fold(else_value)?
                };
                Folded {
                    v: taken.v,
                    ..c.plus_ops(taken)
                }
            }
            Expr::Cast { ty, arg } => {
                let a = self.fold(arg)?;
                Folded {
                    v: a.v.convert_to(*ty),
                    ..a
                }
                .count(ty.kind())
            }
            Expr::Call { f, args } => {
                let mut vals = Vec::with_capacity(args.len());
                let mut ops = Charge::default();
                for a in args {
                    let fa = self.fold(a)?;
                    vals.push(fa.v);
                    ops = ops.plus(fa.ops);
                }
                ops.float_ops += intrinsic_weight(*f) as u32;
                Folded {
                    v: eval_intrinsic(*f, &vals),
                    ops,
                }
            }
            Expr::ThreadIdx(_) | Expr::BlockIdx(_) | Expr::Var(_) | Expr::Load { .. } => {
                return None
            }
        })
    }

    // ---- expression lowering --------------------------------------------

    /// Lower `e` as a read-only operand: a variable or a pooled subtree
    /// reads its register directly — no `Copy` or `Const` instruction at
    /// all. Anything else materializes into a fresh temporary; callers
    /// bracket the call with `mark`/`restore`.
    ///
    /// Never use this for registers an instruction later writes (`ForInit`
    /// normalizes its bound registers in place).
    fn lower_operand(&mut self, e: &Expr) -> Result<Reg, ExecError> {
        if let Some(r) = self.pooled_operand(e) {
            return Ok(r);
        }
        let t = self.alloc_tmp(self.kind(e));
        self.lower_expr(e, t)?;
        Ok(t)
    }

    /// The register an operand can read without any code: a variable or a
    /// pooled subtree ([`Self::pooled`]), whose ops the instruction emitted
    /// next — the one reading it — charges.
    fn pooled_operand(&mut self, e: &Expr) -> Option<Reg> {
        if let Expr::Var(v) = e {
            return Some(v.0 as Reg);
        }
        let (r, ops) = self.pooled(e)?;
        self.pending = self.pending.plus(ops);
        Some(r)
    }

    /// [`Self::lower_operand`], but a subexpression that does need code
    /// reuses the caller's scratch register `dst` when it has `dst`'s kind
    /// instead of a fresh temporary (keeps deep left-leaning chains at
    /// constant register pressure). A fresh temporary lives until the
    /// enclosing [`Self::lower_expr`] returns.
    fn lower_operand_into(&mut self, e: &Expr, dst: Reg) -> Result<Reg, ExecError> {
        if let Some(r) = self.pooled_operand(e) {
            return Ok(r);
        }
        let r = self.scratch(e, dst);
        self.lower_expr(e, r)?;
        Ok(r)
    }

    /// Lower `e` so its value lands in `dst`, a register of `e`'s kind.
    /// `dst` must be a register this subexpression owns — a temporary, or a
    /// variable register whose current value `e` provably does not read
    /// (see [`expr_reads_var`]) — because sub-lowering writes through it
    /// early.
    fn lower_expr(&mut self, e: &Expr, dst: Reg) -> Result<(), ExecError> {
        debug_assert_eq!(self.reg_kind(dst), self.kind(e), "kind of {e:?}");
        let outer = std::mem::take(&mut self.pending);
        let m = self.mark();
        self.lower_expr_at(e, dst)?;
        self.restore(m);
        debug_assert_eq!(
            self.pending,
            Charge::default(),
            "a reader takes its operands' ops"
        );
        self.pending = outer;
        Ok(())
    }

    fn lower_expr_at(&mut self, e: &Expr, dst: Reg) -> Result<(), ExecError> {
        if let Some(f) = self.fold(e) {
            self.pending = f.ops;
            self.emit(Inst::Const { dst, v: f.v });
            return Ok(());
        }
        if let Some(src) = self.pooled_operand(e) {
            self.emit(Inst::Copy { dst, src });
            return Ok(());
        }
        match e {
            Expr::Load { mem, index } => {
                let idx = self.lower_operand_into(index, dst)?;
                let slot = self.slot(*mem);
                self.emit(Inst::Load { dst, slot, idx });
            }
            Expr::Unary { op, arg } => {
                let src = self.lower_operand_into(arg, dst)?;
                self.emit(Inst::Unary { dst, op: *op, src });
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::LAnd => {
                    let c = self.lower_operand_into(lhs, dst)?;
                    let jf = self.emit(Inst::JumpIfFalse {
                        cond: c,
                        target: 0,
                        int_ops: 1,
                    });
                    let r = self.lower_operand_into(rhs, dst)?;
                    self.emit(Inst::Test { dst, src: r });
                    let j = self.emit(Inst::Jump { target: 0 });
                    let f = self.here();
                    self.patch_target(jf, f);
                    self.emit(Inst::Const {
                        dst,
                        v: Value::I64(0),
                    });
                    let end = self.here();
                    self.patch_target(j, end);
                }
                BinOp::LOr => {
                    let c = self.lower_operand_into(lhs, dst)?;
                    let jt = self.emit(Inst::JumpIfTrue {
                        cond: c,
                        target: 0,
                        int_ops: 1,
                    });
                    let r = self.lower_operand_into(rhs, dst)?;
                    self.emit(Inst::Test { dst, src: r });
                    let j = self.emit(Inst::Jump { target: 0 });
                    let t = self.here();
                    self.patch_target(jt, t);
                    self.emit(Inst::Const {
                        dst,
                        v: Value::I64(1),
                    });
                    let end = self.here();
                    self.patch_target(j, end);
                }
                _ => {
                    // Peephole: `a*b + c` fuses into one `MulAdd`. Operand
                    // code is emitted in oracle evaluation order (a, b, c)
                    // and the instruction charges the `Mul` and the `Add`
                    // separately, so stats stay bit-identical; neither op
                    // can fault, so behaviour is too.
                    if *op == BinOp::Add {
                        if let Expr::Binary {
                            op: BinOp::Mul,
                            lhs: a,
                            rhs: b,
                        } = lhs.as_ref()
                        {
                            let ra = self.lower_operand_into(a, dst)?;
                            let m = self.mark();
                            let rb = self.lower_operand(b)?;
                            let rc = self.lower_operand(rhs)?;
                            self.emit(Inst::MulAdd {
                                dst,
                                a: ra,
                                b: rb,
                                c: rc,
                            });
                            self.restore(m);
                            return Ok(());
                        }
                    }
                    let l = self.lower_operand_into(lhs, dst)?;
                    let m = self.mark();
                    let r = self.lower_operand(rhs)?;
                    self.emit(Inst::Binary {
                        dst,
                        op: *op,
                        lhs: l,
                        rhs: r,
                    });
                    self.restore(m);
                }
            },
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => {
                let c = self.lower_operand_into(cond, dst)?;
                let jf = self.emit(Inst::JumpIfFalse {
                    cond: c,
                    target: 0,
                    int_ops: 1,
                });
                self.lower_expr(then_value, dst)?;
                let j = self.emit(Inst::Jump { target: 0 });
                let e0 = self.here();
                self.patch_target(jf, e0);
                self.lower_expr(else_value, dst)?;
                let end = self.here();
                self.patch_target(j, end);
            }
            Expr::Cast { ty, arg } => {
                let src = self.lower_operand_into(arg, dst)?;
                self.emit(Inst::Cast { dst, ty: *ty, src });
            }
            Expr::Call { f, args } => match args.len() {
                1 => {
                    let a = self.lower_operand_into(&args[0], dst)?;
                    self.emit(Inst::Intrin1 { dst, f: *f, a });
                }
                2 => {
                    let a = self.lower_operand_into(&args[0], dst)?;
                    let m = self.mark();
                    let b = self.lower_operand(&args[1])?;
                    self.emit(Inst::Intrin2 { dst, f: *f, a, b });
                    self.restore(m);
                }
                n => unreachable!("intrinsic arity {n} rejected by validation"),
            },
            Expr::Var(_)
            | Expr::ThreadIdx(_)
            | Expr::BlockIdx(_)
            | Expr::IntConst(_)
            | Expr::FloatConst(_)
            | Expr::BlockDim(_)
            | Expr::GridDim(_)
            | Expr::Param(_) => unreachable!("always folded or pooled"),
        }
        Ok(())
    }

    // ---- statement lowering ---------------------------------------------

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), ExecError> {
        match s {
            Stmt::Assign { var, value } => {
                if expr_reads_var(value, var.0) {
                    // `value` reads the variable being assigned, and
                    // `lower_expr` may clobber `dst` before the read —
                    // stage through a temporary.
                    let m = self.mark();
                    let t = self.alloc_tmp(self.kind(value));
                    self.lower_expr(value, t)?;
                    self.emit(Inst::Copy {
                        dst: var.0 as Reg,
                        src: t,
                    });
                    self.restore(m);
                } else {
                    self.lower_expr(value, var.0 as Reg)?;
                }
            }
            Stmt::Store { mem, index, value } => {
                let m = self.mark();
                let idx = self.lower_operand(index)?;
                let val = self.lower_operand(value)?;
                let slot = self.slot(*mem);
                self.emit(Inst::Store { slot, idx, val });
                self.restore(m);
            }
            Stmt::AtomicRmw {
                op,
                mem,
                index,
                value,
            } => {
                let m = self.mark();
                let idx = self.lower_operand(index)?;
                let val = self.lower_operand(value)?;
                let slot = self.slot(*mem);
                self.emit(Inst::AtomicRmw {
                    op: *op,
                    slot,
                    idx,
                    val,
                });
                self.restore(m);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let m = self.mark();
                let c = self.lower_operand(cond)?;
                self.restore(m);
                let jf = self.emit(Inst::JumpIfFalse {
                    cond: c,
                    target: 0,
                    int_ops: 1,
                });
                self.if_sites.push(jf as u32);
                for s in then_body {
                    self.lower_stmt(s)?;
                }
                if else_body.is_empty() {
                    let end = self.here();
                    self.patch_target(jf, end);
                } else {
                    let j = self.emit(Inst::Jump { target: 0 });
                    let e0 = self.here();
                    self.patch_target(jf, e0);
                    for s in else_body {
                        self.lower_stmt(s)?;
                    }
                    let end = self.here();
                    self.patch_target(j, end);
                }
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                // Bound registers stay live across the body: hold the mark.
                // Bounds are ints (the front end converts them).
                let m = self.mark();
                let rs = self.alloc_tmp(ValueKind::Int);
                let re = self.alloc_tmp(ValueKind::Int);
                let rstep = self.alloc_tmp(ValueKind::Int);
                self.lower_expr(start, rs)?;
                self.lower_expr(end, re)?;
                self.lower_expr(step, rstep)?;
                let ty = self.kernel.var_type(*var).widened();
                let init = self.emit(Inst::ForInit {
                    var: var.0 as Reg,
                    ty,
                    start: rs,
                    end: re,
                    step: rstep,
                    exit: 0,
                });
                let top = self.here();
                for s in body {
                    self.lower_stmt(s)?;
                }
                self.emit(Inst::ForNext {
                    var: var.0 as Reg,
                    ty,
                    ind: rs,
                    end: re,
                    step: rstep,
                    back: top,
                });
                let exit = self.here();
                self.patch_target(init, exit);
                self.restore(m);
            }
            Stmt::SyncThreads => {
                // Only reachable in barrier-free runs, i.e. never (the phase
                // builder intercepts barriers); no-op like the interpreter.
            }
            Stmt::Return => {
                self.emit(Inst::Return);
            }
        }
        Ok(())
    }

    // ---- phase schedule --------------------------------------------------

    /// Lowering leaves `batch: No`; [`Program::compile`] decides the flag
    /// after the whole code stream exists.
    fn lower_phases(&mut self, stmts: &[Stmt]) -> Result<Vec<PhaseOp>, ExecError> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < stmts.len() {
            if !stmts[i].has_barrier() {
                let start = self.here();
                let s0 = i;
                while i < stmts.len() && !stmts[i].has_barrier() {
                    i += 1;
                }
                for s in &stmts[s0..i] {
                    self.lower_stmt(s)?;
                }
                out.push(PhaseOp::Seg {
                    start,
                    end: self.here(),
                    // Decided in `Program::compile` once all code is emitted.
                    batch: BatchKind::No,
                });
                continue;
            }
            match &stmts[i] {
                Stmt::SyncThreads => out.push(PhaseOp::Barrier),
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    let m = self.mark();
                    let sreg = self.alloc_tmp(ValueKind::Int);
                    let ereg = self.alloc_tmp(ValueKind::Int);
                    let streg = self.alloc_tmp(ValueKind::Int);
                    let c0 = self.here();
                    self.lower_expr(start, sreg)?;
                    self.lower_expr(end, ereg)?;
                    self.lower_expr(step, streg)?;
                    let c1 = self.here();
                    let body_ops = self.lower_phases(body)?;
                    self.restore(m);
                    out.push(PhaseOp::UniformFor {
                        var: var.0 as Reg,
                        ty: self.kernel.var_type(*var).widened(),
                        bounds: (c0, c1),
                        sreg,
                        ereg,
                        streg,
                        body: body_ops,
                    });
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let m = self.mark();
                    let creg = self.alloc_tmp(self.kind(cond));
                    let c0 = self.here();
                    self.lower_expr(cond, creg)?;
                    let c1 = self.here();
                    // Pre-order slot for this `if`: the final condition
                    // instruction stands in for the (absent) branch pc.
                    self.if_sites.push(c1.max(c0 + 1) - 1);
                    let then_ops = self.lower_phases(then_body)?;
                    let else_ops = self.lower_phases(else_body)?;
                    self.restore(m);
                    out.push(PhaseOp::UniformIf {
                        cond: (c0, c1),
                        creg,
                        then_ops,
                        else_ops,
                    });
                }
                // `Stmt::has_barrier` is only true for the three shapes
                // above; mirror the interpreter's defensive error.
                _ => return Err(ExecError::DivergentBarrier),
            }
            i += 1;
        }
        Ok(out)
    }
}

/// Relocate the condition registers of a phase tree, the only phase
/// registers that can be float temporaries.
fn remap_phases(phases: &mut [PhaseOp], remap: &impl Fn(&mut Reg)) {
    for p in phases {
        match p {
            PhaseOp::UniformFor { body, .. } => remap_phases(body, remap),
            PhaseOp::UniformIf {
                creg,
                then_ops,
                else_ops,
                ..
            } => {
                remap(creg);
                remap_phases(then_ops, remap);
                remap_phases(else_ops, remap);
            }
            PhaseOp::Seg { .. } | PhaseOp::Barrier => {}
        }
    }
}

/// Whether evaluating `e` reads variable `v` — if not, `v`'s register can
/// serve as the lowering destination directly (no staging temporary).
fn expr_reads_var(e: &Expr, v: u32) -> bool {
    match e {
        Expr::Var(id) => id.0 == v,
        Expr::Load { index, .. } => expr_reads_var(index, v),
        Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => expr_reads_var(arg, v),
        Expr::Binary { lhs, rhs, .. } => expr_reads_var(lhs, v) || expr_reads_var(rhs, v),
        Expr::Select {
            cond,
            then_value,
            else_value,
        } => {
            expr_reads_var(cond, v)
                || expr_reads_var(then_value, v)
                || expr_reads_var(else_value, v)
        }
        Expr::Call { args, .. } => args.iter().any(|a| expr_reads_var(a, v)),
        Expr::IntConst(_)
        | Expr::FloatConst(_)
        | Expr::ThreadIdx(_)
        | Expr::BlockIdx(_)
        | Expr::BlockDim(_)
        | Expr::GridDim(_)
        | Expr::Param(_) => false,
    }
}

// ---- thread-batching analysis ------------------------------------------

/// How a segment may execute across the threads of a block (decided once at
/// compile time by [`seg_batchable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// Thread-major only: its memory accesses could interleave observably
    /// under inst-major order, or its control flow leaves the segment.
    No,
    /// Inst-major with per-thread predication (forward jumps, returns and
    /// loop exits divert individual threads).
    Predicated,
    /// Inst-major with no control flow at all: every thread executes every
    /// instruction, so the engine can skip predication entirely.
    Dense,
}

/// Can `code[start..end)` run *inst-major* across all threads of a block
/// (one dispatch per instruction, inner loop over threads) while staying
/// bit-for-bit with the oracle's thread-major order? Two families of rules:
///
/// Control flow must stay inside the range and loop only through `for`:
/// every jump target satisfies `pc < target <= end`, every `ForInit` exit
/// lies in `(pc, end]` and every `ForNext` back edge in `(start, pc]`.
/// Divergence then reduces to predication: a thread that jumped ahead sits
/// out instructions until its resume point, a thread whose loop ended waits
/// at its exit while the others iterate, and `Return` retires it.
///
/// Inside a loop body the lanes run *iteration-major*: iteration `k` of
/// every lane of a chunk before iteration `k + 1` of any. Per-thread program
/// order is unchanged, so registers and local arrays need nothing more. A
/// store to a global or shared object inside a body is refused — two
/// (thread, iteration) pairs hitting one address would swap their last
/// writer — and an atomic there counts as two sites, so only the
/// commutative rule below admits it. The in-place exception is for
/// loop-free segments: its index scan is forward-only, and after a back
/// edge "unchanged from first access to last" no longer holds.
///
/// Memory accesses to one memory object — a global buffer, whichever
/// parameters it is bound to, or a shared array — must not interleave
/// observably (locals are thread-private, so per-thread program order —
/// which batching preserves — is all they need):
///
/// * a loaded object has no stores and no atomics in the range: every load
///   then sees segment-entry state, exactly as in the oracle, where a
///   thread's own earlier stores are the only ones it could observe — or
///   it is accessed *in place* ([`in_place`]): one store, and every access
///   at one thread-injective index, so each thread only ever sees its own
///   element and per-thread program order is again all that matters;
/// * at most one plain `Store` instruction per object (and no atomics on
///   it): a single instruction's thread-ascending writes leave the same
///   last-writer-per-element as the thread-major order, but two store
///   sites can swap order under divergence (`out[0] = 1` by all threads
///   then `out[0] = 2` by thread 0 only must end at 1, not 2);
/// * an object's atomics either come from a single instruction (its
///   thread-ascending order *is* the oracle order), or all share one op on
///   one integer element type: atomic results are discarded (`AtomicRmw`
///   has no destination register), so only the final accumulated value
///   matters, and wrapping-int add/min/max are order-independent — float
///   add is non-associative and float min/max can flip `±0.0` bits, so
///   multiple float atomic sites stay thread-major.
fn seg_batchable(
    code: &[Inst],
    slots: &[Option<MemSlotInfo>],
    pools: &Pools,
    start: u32,
    end: u32,
) -> BatchKind {
    struct ObjUse {
        obj: MemObj,
        elem: Scalar,
        /// Reached through slots of more than one element type.
        mixed: bool,
        loaded: bool,
        stores: u32,
        atomics: u32,
        atomic: Option<AtomicOp>,
        one_op: bool,
    }
    let mut uses: Vec<ObjUse> = Vec::new();
    let mut diverges = false;
    // Loop bodies nest or follow one another, so `pc < loop_end` (the
    // furthest `ForInit` exit seen so far) is exactly "inside a body".
    let mut loop_end = start;
    for pc in start..end {
        let in_loop = pc < loop_end;
        let slot = match &code[pc as usize] {
            Inst::Jump { target }
            | Inst::JumpIfFalse { target, .. }
            | Inst::JumpIfTrue { target, .. } => {
                if *target <= pc || *target > end {
                    return BatchKind::No;
                }
                diverges = true;
                continue;
            }
            Inst::Return => {
                diverges = true;
                continue;
            }
            Inst::ForInit { exit, .. } => {
                if *exit <= pc || *exit > end {
                    return BatchKind::No;
                }
                loop_end = loop_end.max(*exit);
                diverges = true;
                continue;
            }
            Inst::ForNext { back, .. } => {
                if *back <= start || *back > pc {
                    return BatchKind::No;
                }
                continue;
            }
            Inst::Load { slot, .. } | Inst::Store { slot, .. } | Inst::AtomicRmw { slot, .. } => {
                *slot
            }
            _ => continue,
        };
        let Some((obj, elem)) = mem_obj(slots, slot) else {
            continue;
        };
        let i = uses.iter().position(|u| u.obj == obj).unwrap_or_else(|| {
            uses.push(ObjUse {
                obj,
                elem,
                mixed: false,
                loaded: false,
                stores: 0,
                atomics: 0,
                atomic: None,
                one_op: true,
            });
            uses.len() - 1
        });
        let u = &mut uses[i];
        u.mixed |= u.elem != elem;
        match &code[pc as usize] {
            Inst::Load { .. } => u.loaded = true,
            // Iteration-major order reorders a loop's stores across
            // (thread, iteration) pairs, and with them the last writer.
            Inst::Store { .. } if in_loop => return BatchKind::No,
            Inst::Store { .. } => u.stores += 1,
            Inst::AtomicRmw { op, .. } => {
                // Each iteration is another site in effect: only the
                // commutative one-op integer rule admits it.
                u.atomics += if in_loop { 2 } else { 1 };
                u.one_op &= *u.atomic.get_or_insert(*op) == *op;
            }
            _ => unreachable!("matched a memory instruction above"),
        }
    }
    let loops = loop_end > start;
    let safe = uses.iter().all(|u| {
        let atomics_ok =
            u.atomics <= 1 || (u.one_op && !u.mixed && u.elem.kind() == ValueKind::Int);
        let hazard = u.loaded && (u.stores > 0 || u.atomics > 0);
        atomics_ok
            && u.stores <= 1
            && !(u.stores == 1 && u.atomics > 0)
            && (!hazard
                || (!loops
                    && u.atomics == 0
                    && !u.mixed
                    && in_place(code, slots, pools, start, end, u.obj)))
    });
    match (safe, diverges) {
        (false, _) => BatchKind::No,
        (true, true) => BatchKind::Predicated,
        (true, false) => BatchKind::Dense,
    }
}

/// One memory object a slot reaches: two buffer parameters bound to one
/// buffer are one object, so hazards are keyed by this, not by slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemObj {
    Global(BufferId),
    Shared(u32),
}

/// The object and element type behind `slot`; `None` for a local array
/// (thread-private, never a hazard).
fn mem_obj(slots: &[Option<MemSlotInfo>], slot: u32) -> Option<(MemObj, Scalar)> {
    let info = slots[slot as usize]
        .as_ref()
        .expect("an accessed slot has metadata");
    let obj = match info.kind {
        SlotKind::Global { buf } => MemObj::Global(buf),
        SlotKind::Shared { idx } => MemObj::Shared(idx),
        SlotKind::Local { .. } => return None,
    };
    Some((obj, info.elem))
}

/// What the in-place rule reads besides the code: the register pools
/// (final layout) and the block shape.
struct Pools<'a> {
    const_base: u32,
    consts: &'a [Value],
    block_pool: &'a [Inst],
    thread_pool: &'a [Inst],
    block: Dim3,
}

/// The in-place exception to the load/store hazard, for an object with one
/// `Store`, no atomics, one element type and no loop: every access to `obj` in
/// `code[start..end)` takes its index from one register `r`, `r` is not
/// written between the first access and the last, and at the first access
/// `r` is thread-injective ([`index_form`], [`injective`]). Each thread
/// then reads and writes an element no other thread of the block touches,
/// so inst-major order shows every thread exactly its own program order.
fn in_place(
    code: &[Inst],
    slots: &[Option<MemSlotInfo>],
    pools: &Pools,
    start: u32,
    end: u32,
    obj: MemObj,
) -> bool {
    let (mut r, mut first, mut last) = (None, start, start);
    for pc in start..end {
        let (Inst::Load { slot, idx, .. } | Inst::Store { slot, idx, .. }) = &code[pc as usize]
        else {
            continue;
        };
        if mem_obj(slots, *slot).map(|(o, _)| o) != Some(obj) {
            continue;
        }
        if r.is_none() {
            first = pc;
        }
        if *r.get_or_insert(*idx) != *idx {
            return false;
        }
        last = pc;
    }
    let Some(r) = r else { return false };
    let written = |pc: u32| {
        let mut w = false;
        code[pc as usize].for_each_reg(|reg, write| w |= write && reg == r);
        w
    };
    !(first..last).any(written)
        && index_form(code, pools, start, first, r).is_some_and(|c| injective(c, pools.block))
}

/// `r`'s value at `code[at]` as `u + Σ c[a]·threadIdx.a` with `u` uniform
/// in the block: `Some(c)`, or `None` when the form is not derivable. A
/// forward scan through the pool code, then from the segment start, through
/// `Tid`, `Bid`, constants, `Copy`, integer `Add`/`Sub`, `Mul` with one
/// constant (or uniform) side and `MulAdd`; any other write — a load, a
/// float, a cast, a division — leaves its destination unknown, as does any
/// write a forward jump can skip (the value then depends on the path a
/// thread took). Registers live into the segment are unknown, except the
/// pools.
fn index_form(code: &[Inst], pools: &Pools, start: u32, at: u32, r: Reg) -> Option<[i64; 3]> {
    /// `tid·threadIdx + u`; `k = Some(u)` when `u` is a known constant
    /// (then `tid` is zero).
    #[derive(Clone, Copy)]
    struct Form {
        tid: [i64; 3],
        k: Option<i64>,
    }
    const UNIFORM: Form = Form {
        tid: [0; 3],
        k: None,
    };
    fn axis(a: Axis) -> Form {
        let mut tid = [0; 3];
        tid[a as usize] = 1;
        Form { tid, k: None }
    }
    fn konst(v: Value) -> Option<Form> {
        let Value::I64(i) = v else { return None };
        Some(Form {
            tid: [0; 3],
            k: Some(i),
        })
    }
    fn lin(a: Form, b: Form, sign: i64) -> Option<Form> {
        let mut tid = a.tid;
        for (t, c) in tid.iter_mut().zip(b.tid) {
            *t = t.checked_add(c.checked_mul(sign)?)?;
        }
        let k =
            a.k.zip(b.k)
                .map(|(x, y)| x.wrapping_add(y.wrapping_mul(sign)));
        Some(Form { tid, k })
    }
    fn mul(a: Form, b: Form) -> Option<Form> {
        let (f, m) = match (a.k, b.k) {
            (_, Some(m)) => (a, m),
            (Some(m), _) => (b, m),
            // Two unknown uniform values multiply to a uniform value.
            _ if a.tid == [0; 3] && b.tid == [0; 3] => return Some(UNIFORM),
            _ => return None,
        };
        let mut tid = f.tid;
        for t in &mut tid {
            *t = t.checked_mul(m)?;
        }
        let k = f.k.map(|v| v.wrapping_mul(m));
        Some(Form { tid, k })
    }
    let consts = pools.const_base..pools.const_base + pools.consts.len() as u32;
    // Forms written in this scan (latest last); the constant pool is never
    // written, so a miss there falls back to its value.
    let mut forms: Vec<(Reg, Option<Form>)> = Vec::new();
    let get =
        |forms: &[(Reg, Option<Form>)], reg: Reg| match forms.iter().rev().find(|f| f.0 == reg) {
            Some(f) => f.1,
            None if consts.contains(&reg) => konst(pools.consts[(reg - consts.start) as usize]),
            None => None,
        };
    let write = |forms: &mut Vec<(Reg, Option<Form>)>, inst: &Inst, skippable: bool| {
        let f = |reg| get(forms, reg);
        let (dst, form) = match inst {
            Inst::Tid { dst, axis: a } => (*dst, Some(axis(*a))),
            Inst::Bid { dst, .. } => (*dst, Some(UNIFORM)),
            Inst::Const { dst, v } => (*dst, konst(*v)),
            Inst::Copy { dst, src } => (*dst, f(*src)),
            Inst::Binary { dst, op, lhs, rhs } => {
                let form = f(*lhs).zip(f(*rhs)).and_then(|(a, b)| match op {
                    BinOp::Add => lin(a, b, 1),
                    BinOp::Sub => lin(a, b, -1),
                    BinOp::Mul => mul(a, b),
                    _ => None,
                });
                (*dst, form)
            }
            Inst::MulAdd { dst, a, b, c } => {
                let ab = f(*a).zip(f(*b)).and_then(|(a, b)| mul(a, b));
                (*dst, ab.zip(f(*c)).and_then(|(ab, c)| lin(ab, c, 1)))
            }
            other => {
                other.for_each_reg(|reg, write| {
                    if write {
                        forms.push((reg, None));
                    }
                });
                return;
            }
        };
        forms.push((dst, if skippable { None } else { form }));
    };
    for inst in pools.block_pool.iter().chain(pools.thread_pool) {
        write(&mut forms, inst, false);
    }
    let mut reach = start;
    for pc in start..at {
        let inst = &code[pc as usize];
        if let Inst::Jump { target }
        | Inst::JumpIfFalse { target, .. }
        | Inst::JumpIfTrue { target, .. } = inst
        {
            reach = reach.max(*target);
            continue;
        }
        write(&mut forms, inst, reach > pc);
    }
    get(&forms, r).map(|f| f.tid)
}

/// Does `threadIdx ↦ Σ c[a]·threadIdx.a` give every thread of a `block`
/// a distinct value (mod 2⁶⁴, the engine's wrapping arithmetic)? Taking
/// the axes with extent > 1 by ascending `|c|`, each `|c|` must exceed the
/// widest span the axes before it reach, `Σ |c|·(extent − 1)` — a
/// mixed-radix numbering. For a 1-D block: `c.x ≠ 0`.
pub fn injective(c: [i64; 3], block: Dim3) -> bool {
    let mut axes: Vec<(u64, u64)> = [Axis::X, Axis::Y, Axis::Z]
        .into_iter()
        .filter(|a| block.get(*a) > 1)
        .map(|a| (c[a as usize].unsigned_abs(), u64::from(block.get(a) - 1)))
        .collect();
    axes.sort_unstable();
    let mut span: u64 = 0;
    for (c, extent) in axes {
        if c <= span {
            return false;
        }
        let Some(s) = c.checked_mul(extent).and_then(|w| span.checked_add(w)) else {
            return false;
        };
        span = s;
    }
    true
}

// ---- the registers an instruction reads and writes ---------------------

impl Inst {
    /// Visit every register the instruction names, once per field: `f(r,
    /// true)` when it writes `r` (`ForInit`'s bounds and `ForNext`'s
    /// induction register are read too), `f(r, false)` for a read only.
    pub fn for_each_reg(&self, mut f: impl FnMut(Reg, bool)) {
        let mut inst = *self;
        regs_mut(&mut inst, |r, write| f(*r, write));
    }
}

/// `inst` writing `dst` instead (an instruction with one destination).
fn with_dst(mut inst: Inst, dst: Reg) -> Inst {
    regs_mut(&mut inst, |r, write| {
        if write {
            *r = dst;
        }
    });
    inst
}

/// [`Inst::for_each_reg`] over the fields themselves.
fn regs_mut(inst: &mut Inst, mut f: impl FnMut(&mut Reg, bool)) {
    match inst {
        Inst::Const { dst, .. } | Inst::Tid { dst, .. } | Inst::Bid { dst, .. } => f(dst, true),
        Inst::Jump { .. } | Inst::Return => {}
        Inst::Copy { dst, src }
        | Inst::Unary { dst, src, .. }
        | Inst::Cast { dst, src, .. }
        | Inst::Test { dst, src }
        | Inst::Intrin1 { dst, a: src, .. }
        | Inst::Load { dst, idx: src, .. } => {
            f(src, false);
            f(dst, true);
        }
        Inst::Binary { dst, lhs, rhs, .. }
        | Inst::Intrin2 {
            dst,
            a: lhs,
            b: rhs,
            ..
        } => {
            f(lhs, false);
            f(rhs, false);
            f(dst, true);
        }
        Inst::MulAdd { dst, a, b, c } => {
            f(a, false);
            f(b, false);
            f(c, false);
            f(dst, true);
        }
        Inst::Store { idx, val, .. } | Inst::AtomicRmw { idx, val, .. } => {
            f(idx, false);
            f(val, false);
        }
        Inst::JumpIfFalse { cond, .. } | Inst::JumpIfTrue { cond, .. } => f(cond, false),
        Inst::ForInit {
            var,
            start,
            end,
            step,
            ..
        } => {
            for r in [start, end, step, var] {
                f(r, true);
            }
        }
        Inst::ForNext {
            var,
            ind,
            end,
            step,
            ..
        } => {
            f(end, false);
            f(step, false);
            f(ind, true);
            f(var, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_ir::parse_kernel;

    /// Every `blockIdx` read is block-pool code: the chunk loop runs no `Bid`.
    fn no_bid(prog: &Program) -> bool {
        !prog.code.iter().any(|i| matches!(i, Inst::Bid { .. }))
    }

    /// The tiled transpose at 1024² in 32×32 blocks: each segment keeps the
    /// per-thread work only — two address `MulAdd`s, the `+ threadIdx.x`,
    /// the load and the store. `blockIdx.y * 32` and friends are block-pool
    /// code, `threadIdx.y * 32 + threadIdx.x` and its transpose thread-pool
    /// code.
    #[test]
    fn transpose_runs_five_instructions_per_segment() {
        let src = "__global__ void transpose(float* in, float* out, int n) {
            __shared__ float tile[1024];
            tile[threadIdx.y * 32 + threadIdx.x]
                = in[(blockIdx.x * 32 + threadIdx.y) * n + blockIdx.y * 32 + threadIdx.x];
            __syncthreads();
            out[(blockIdx.y * 32 + threadIdx.y) * n + blockIdx.x * 32 + threadIdx.x]
                = tile[threadIdx.x * 32 + threadIdx.y];
        }";
        let k = parse_kernel(src).unwrap();
        let args = [
            Arg::Buffer(BufferId(0)),
            Arg::Buffer(BufferId(1)),
            Arg::int(1024),
        ];
        let launch = LaunchConfig::new((32u32, 32u32), (32u32, 32u32));
        let prog = Program::compile(&k, launch, &args).unwrap();
        assert_eq!(prog.phase_summary(), "dense[0..5] bar dense[5..10]");
        assert!(no_bid(&prog), "{:?}", prog.code);
    }

    /// `blockIdx.x * blockDim.x + threadIdx.x` reads the pooled `blockIdx.x`.
    #[test]
    fn vec_affine_runs_no_bid() {
        let src = "__global__ void vec_affine(float* x, float* y, float a, float b, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            if (id < n) y[id] = a * x[id] + b;
        }";
        let k = parse_kernel(src).unwrap();
        let n = 1 << 20;
        let args = [
            Arg::Buffer(BufferId(0)),
            Arg::Buffer(BufferId(1)),
            Arg::float(1.5),
            Arg::float(-0.25),
            Arg::int(n),
        ];
        let prog = Program::compile(&k, LaunchConfig::cover1(n as u64, 256), &args).unwrap();
        assert!(no_bid(&prog), "{:?}", prog.code);
    }
}
