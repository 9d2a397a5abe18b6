//! Entry points, the instruction step and the thread-major core of the
//! compiled engine.
//!
//! A [`Program`] produced by [`crate::bytecode`] runs on exactly one engine,
//! [`crate::lane::LaneEngine`]: batchable segments execute over 64-lane
//! chunks, every other segment falls back to [`run_seg`] — one thread at a
//! time over the flat instruction stream. There is one register file, the
//! engine's lane rows: a thread reads and writes its [`Column`] of them in
//! place on either path. What a data instruction computes and faults on for
//! one thread is defined once, in [`step`]:
//! [`run_seg`] is control flow around it, and the lane engine calls it per
//! lane for ops without a row loop and, under a partial active set, for the
//! ops that can fault (memory accesses, int `/`/`%`). What it charges is
//! decided once too, at compile time: the charge rule is `Program::charges`
//! per pc, the engine only counts how often each pc runs per thread, and
//! [`run_range`]'s one fold multiplies the two. Global memory is
//! reached one way too — a [`GlobalMem::raw`] view for loads or a
//! [`GlobalMem::raw_mut`] view for stores, an offset from
//! [`elem_off`] (the bounds rule, tested or certified), a copy of at most 8
//! bytes. [`run_range`] executes a contiguous block range serially (the
//! same ascending order as the tree-walk oracle); [`run_range_parallel`]
//! chunks the range across the process-wide worker [`crate::pool`] for
//! intra-node block parallelism; [`profile_program`] samples a launch's
//! blocks through [`run_range`] for the planner's cost model.
//!
//! Parallel legality: CUDA guarantees no ordering between blocks, so any
//! interleaving of block execution is a valid GPU execution. Workers share
//! the node's global memory through [`RacyView`] raw-pointer views (the
//! CuPBoP block-to-thread contract: kernels that race on global memory on a
//! GPU race here too; kernels with disjoint per-block writes — the common,
//! Allgather-distributable case — are deterministic). Kernels that use
//! *global atomics* are refused by the chunker ([`Program::serial_only`])
//! and fall back to the serial path, since the simulator's atomics are not
//! host-atomic instructions.

use crate::bytecode::{Inst, MemSlotInfo, Program, Reg, SlotKind};
use crate::interp::{
    apply_atomic, binop_faults, eval_binop_total, eval_intrinsic, eval_unop, slice_load,
    slice_store, Arg, ExecError, LaunchProfile,
};
use crate::lane::{Column, LaneEngine};
use crate::memory::{decode, encode, BufferId, MemPool};
use crate::stats::BlockStats;
use cucc_ir::{BinOp, Kernel, LaunchConfig, Scalar, Value, ValueKind};
use std::fmt;
use std::ops::Range;

/// Which executor runs functional-fidelity blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The tree-walking reference interpreter (`crate::interp`) — the
    /// differential-testing oracle.
    TreeWalk,
    /// The compiled engine (`crate::lane`): lane chunks for batchable
    /// segments, thread-major [`run_seg`] otherwise.
    #[default]
    Lane,
}

impl EngineKind {
    /// Parse a CLI spelling: `tree` or `lane`. `bytecode` and `simd` named
    /// the two compiled tiers that `lane` replaced and still select it:
    /// `benchmark/src/workloads/mod.rs` parses `"simd"` with `expect` (and
    /// `probes.rs` compares against it), and this crate's PRs may not edit
    /// `benchmark/` — the spellings stay until a `benchmark` PR drops them.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "tree" => Some(EngineKind::TreeWalk),
            "lane" | "bytecode" | "simd" => Some(EngineKind::Lane),
            _ => None,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::TreeWalk => write!(f, "tree"),
            EngineKind::Lane => write!(f, "lane"),
        }
    }
}

/// Execution knobs threaded from `RuntimeConfig` / the CLI down to the
/// per-node block loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// Which executor to use: the compiled engine unless a caller wants
    /// the oracle.
    pub engine: EngineKind,
    /// Requested worker threads per node for intra-node block parallelism
    /// (`0` = derive from host parallelism and the node's core count).
    pub node_threads: usize,
    /// Whether intra-node block parallelism is allowed at all. Callers
    /// enable this only for launches whose blocks are safe to interleave
    /// (e.g. Allgather-distributable three-phase plans).
    pub block_parallel: bool,
}

/// Global-memory access abstraction: the serial path reaches straight into a
/// node's [`MemPool`], parallel workers go through a [`RacyView`].
///
/// Loads and stores resolve through different doors, so a buffer a node
/// shares with other nodes (a restored buffer) stays shared while the node
/// only reads it: [`GlobalMem::raw`] reads the bytes where they are,
/// [`GlobalMem::raw_mut`] makes the buffer the node's own first.
pub(crate) trait GlobalMem {
    fn size_of(&self, id: BufferId) -> usize;
    /// Resolve a buffer to its raw base pointer and byte length for loads —
    /// once per instruction in the lane loops, once per access thread-major.
    /// All accesses through the pointer go via [`raw_load`] / [`raw_store`]
    /// (or the lane gather/scatter), which place every element by
    /// [`elem_off`] and copy at most 8 bytes — no `&`/`&mut` reference into
    /// the buffer is ever formed (the [`RacyView`] sharing contract).
    fn raw(&self, id: BufferId) -> (*const u8, usize);
    /// [`GlobalMem::raw`] for stores: the pointer reaches bytes no other
    /// node holds.
    fn raw_mut(&mut self, id: BufferId) -> (*mut u8, usize);
}

impl GlobalMem for MemPool {
    #[inline]
    fn size_of(&self, id: BufferId) -> usize {
        MemPool::size_of(self, id)
    }

    #[inline]
    fn raw(&self, id: BufferId) -> (*const u8, usize) {
        let b = self.bytes(id);
        (b.as_ptr(), b.len())
    }

    #[inline]
    fn raw_mut(&mut self, id: BufferId) -> (*mut u8, usize) {
        let b = self.bytes_mut(id);
        (b.as_mut_ptr(), b.len())
    }
}

/// Raw-pointer view of a pool's buffers, shared by intra-node workers.
///
/// Bounds are checked or certified ([`elem_off`]); what is *not*
/// synchronized is concurrent access to the same element from different
/// blocks. That mirrors the GPU:
/// a CUDA kernel whose blocks race on global memory has indeterminate
/// results there too, so any byte-level interleaving we produce is a valid
/// execution of such a kernel. Accesses copy at most 8 bytes through raw
/// pointers and never form `&`/`&mut` references into the shared buffers.
#[derive(Clone)]
pub(crate) struct RacyView {
    bufs: Vec<(*mut u8, usize)>,
    /// Which buffers the program stores to: only these were made the pool's
    /// own, the rest may be shared with other nodes and are only read.
    written: Vec<bool>,
}

// SAFETY: the view only exists while `run_chunked` holds `&mut MemPool`
// and `pool::run` does not return before every chunk has finished, so the
// pointed-to allocations are alive and not accessed through the pool for
// as long as any clone exists; `new` takes the pointer of every buffer the
// program stores to through `bytes_mut`, so each such allocation is the
// pool's own and no other pool can reach it, and the program stores to no
// other buffer (`Program::written_buffers`); all accesses are in-bounds
// (`elem_off`) byte copies (see type-level comment for the data-race
// contract).
unsafe impl Send for RacyView {}

impl RacyView {
    /// View `pool` for a chunked run of `prog`: the buffers `prog` stores
    /// to become the pool's own, the others are read where they are.
    pub(crate) fn new(pool: &mut MemPool, prog: &Program) -> RacyView {
        let mut written = vec![false; pool.len()];
        for id in prog.written_buffers() {
            written[id.index()] = true;
        }
        let bufs: Vec<(*mut u8, usize)> = (0..pool.len())
            .map(|i| {
                let id = BufferId(i as u32);
                if written[i] {
                    let b = pool.bytes_mut(id);
                    (b.as_mut_ptr(), b.len())
                } else {
                    let b = pool.bytes(id);
                    (b.as_ptr().cast_mut(), b.len())
                }
            })
            .collect();
        debug_assert!(
            (0..pool.len()).all(|i| !written[i] || pool.is_own(BufferId(i as u32))),
            "a racy view writes a buffer another pool shares"
        );
        debug_assert!(
            {
                let mut spans: Vec<(usize, usize)> =
                    bufs.iter().map(|&(p, n)| (p as usize, n)).collect();
                spans.sort_unstable();
                spans.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0)
            },
            "a racy view's buffers overlap"
        );
        RacyView { bufs, written }
    }
}

impl GlobalMem for RacyView {
    fn size_of(&self, id: BufferId) -> usize {
        self.bufs[id.index()].1
    }

    #[inline]
    fn raw(&self, id: BufferId) -> (*const u8, usize) {
        let (ptr, len) = self.bufs[id.index()];
        (ptr.cast_const(), len)
    }

    #[inline]
    fn raw_mut(&mut self, id: BufferId) -> (*mut u8, usize) {
        debug_assert!(
            self.written[id.index()],
            "a store to a buffer the program's write set misses"
        );
        self.bufs[id.index()]
    }
}

/// The bounds rule of every engine access, written once: element `index` of
/// a `len`-byte buffer of `sz`-byte elements lies at `Some(index * sz)` when
/// `index >= 0` and `index * sz + sz <= len`.
///
/// `certified` is the access's [`crate::bytecode::CertMode::Elide`] bit: the
/// range analysis proved the rule for every thread that reaches the access,
/// so the offset is taken on the certificate's word and the test is gone.
/// Debug builds still test, so a wrong certificate panics there before the
/// caller dereferences anything.
#[inline(always)]
pub(crate) fn elem_off(index: i64, sz: usize, len: usize, certified: bool) -> Option<usize> {
    let rule = || {
        if index < 0 {
            return None;
        }
        let off = (index as usize).checked_mul(sz)?;
        (off.checked_add(sz)? <= len).then_some(off)
    };
    if certified {
        debug_assert!(
            rule().is_some(),
            "bounds certificate violated: index {index}, len {len} bytes"
        );
        return Some(index as usize * sz);
    }
    rule()
}

/// Element load through a raw `(base, len)` buffer view, placed by
/// [`elem_off`]: `None` is an out-of-bounds index.
///
/// # Safety
/// `ptr` must be valid for `len` bytes for the duration of the call (both
/// [`GlobalMem`] providers guarantee it), and `certified` may be set
/// only where [`elem_off`]'s rule holds for `index` — what the access's
/// certificate asserts. A wrong certificate is UB in release builds.
#[inline]
unsafe fn raw_load(
    ptr: *const u8,
    len: usize,
    elem: Scalar,
    index: i64,
    certified: bool,
) -> Option<Value> {
    let sz = elem.size();
    let off = elem_off(index, sz, len, certified)?;
    let mut tmp = [0u8; 8];
    // `off + sz <= len`, tested or certified; see the function contract.
    std::ptr::copy_nonoverlapping(ptr.add(off), tmp.as_mut_ptr(), sz);
    Some(decode(elem, &tmp[..sz]))
}

/// Element store through a raw `(base, len)` buffer view (C narrowing as
/// [`encode`]); `false` is an out-of-bounds index.
///
/// # Safety
/// Same contract as [`raw_load`], and `ptr` must come from
/// [`GlobalMem::raw_mut`], so no other node holds the bytes it writes.
#[inline]
unsafe fn raw_store(
    ptr: *mut u8,
    len: usize,
    elem: Scalar,
    index: i64,
    value: Value,
    certified: bool,
) -> bool {
    let sz = elem.size();
    let Some(off) = elem_off(index, sz, len, certified) else {
        return false;
    };
    let mut tmp = [0u8; 8];
    encode(elem, value, &mut tmp[..sz]);
    // `off + sz <= len`, tested or certified; see the function contract.
    std::ptr::copy_nonoverlapping(tmp.as_ptr(), ptr.add(off), sz);
    true
}

#[inline]
pub(crate) fn slot_info(prog: &Program, slot: u32) -> &MemSlotInfo {
    prog.slots[slot as usize]
        .as_ref()
        .expect("referenced slot is resolved at compile time")
}

pub(crate) fn oob(info: &MemSlotInfo, index: i64, mem: &dyn GlobalMem) -> ExecError {
    let len_elems = match info.kind {
        SlotKind::Global { buf } => mem.size_of(buf) / info.elem.size(),
        SlotKind::Shared { .. } | SlotKind::Local { .. } => info.len_elems,
    };
    ExecError::OutOfBounds {
        mem: info.name.clone(),
        index,
        len_elems,
    }
}

/// Escalate a bounds fault on a *certified* access into
/// [`ExecError::CertificateViolation`] ([`crate::bytecode::CertMode::Validate`]:
/// the checked path ran and disagreed with the static proof, so the
/// certificate itself is wrong). Every other error passes through.
#[inline]
pub(crate) fn cert_wrap(e: ExecError, certified: bool) -> ExecError {
    match e {
        ExecError::OutOfBounds {
            mem,
            index,
            len_elems,
        } if certified => ExecError::CertificateViolation {
            mem,
            index,
            len_elems,
        },
        e => e,
    }
}

/// What a thread's [`step`] touches besides its registers: the block's
/// shared image and the thread's local arrays — disjoint borrows, split
/// once by the caller.
pub(crate) struct ThreadCx<'a> {
    pub(crate) shared: &'a mut [Vec<u8>],
    pub(crate) local: &'a mut [Vec<u8>],
}

/// Load element `index` of a slot. `elide` is the access's certificate bit;
/// it reaches only global buffers (shared and local arrays are always
/// tested).
#[inline(always)]
fn load_value<M: GlobalMem>(
    info: &MemSlotInfo,
    elide: bool,
    cx: &mut ThreadCx<'_>,
    index: i64,
    mem: &mut M,
) -> Result<Value, ExecError> {
    let v = match info.kind {
        SlotKind::Global { buf } => {
            let (ptr, len) = mem.raw(buf);
            // SAFETY: `raw`'s view is valid for `len` bytes, and `elide` is
            // set only for a pc that carries an in-bounds certificate for
            // every thread that reaches it (CertMode::Elide).
            unsafe { raw_load(ptr, len, info.elem, index, elide) }
        }
        SlotKind::Shared { idx } => slice_load(&cx.shared[idx as usize], info.elem, index),
        SlotKind::Local { idx } => slice_load(&cx.local[idx as usize], info.elem, index),
    };
    v.ok_or_else(|| oob(info, index, mem))
}

/// Store counterpart of [`load_value`].
#[inline(always)]
fn store_value<M: GlobalMem>(
    info: &MemSlotInfo,
    elide: bool,
    cx: &mut ThreadCx<'_>,
    index: i64,
    value: Value,
    mem: &mut M,
) -> Result<(), ExecError> {
    let ok = match info.kind {
        SlotKind::Global { buf } => {
            let (ptr, len) = mem.raw_mut(buf);
            // SAFETY: as in `load_value`.
            unsafe { raw_store(ptr, len, info.elem, index, value, elide) }
        }
        SlotKind::Shared { idx } => {
            slice_store(&mut cx.shared[idx as usize], info.elem, index, value)
        }
        SlotKind::Local { idx } => {
            slice_store(&mut cx.local[idx as usize], info.elem, index, value)
        }
    };
    if ok {
        Ok(())
    } else {
        Err(oob(info, index, mem))
    }
}

/// Execute one data op for one thread: the compiled engine's only
/// per-thread definition of `Const` … `AtomicRmw` — what they compute and
/// how they fault, on the thread's [`Column`] of the lane rows: [`run_seg`]
/// calls it for thread-major segments, the lane engine for ops that have no
/// row loop and for masked lanes of ops that can fault. What they charge is
/// `Program::charges`. `elide` is the access's certificate bit (see
/// [`load_value`]); a bounds fault comes back unwrapped, the caller applies
/// [`cert_wrap`]. Control flow is the caller's.
///
/// `#[inline]`, not `always`: both callers inline it either way, but forced
/// early inlining left `run_seg`'s loop 10–20 % slower on the loop-heavy
/// builtin kernels (`history/PR-24.md`). The two memory helpers are the
/// opposite case and are `always`.
#[inline]
pub(crate) fn step<M: GlobalMem>(
    prog: &Program,
    inst: &Inst,
    elide: bool,
    regs: &mut Column<'_>,
    cx: &mut ThreadCx<'_>,
    mem: &mut M,
) -> Result<(), ExecError> {
    match inst {
        Inst::Const { dst, v } => regs.set(*dst, *v),
        Inst::Copy { dst, src } => regs.set(*dst, regs.get(*src)),
        Inst::Unary { dst, op, src } => regs.set(*dst, eval_unop(*op, regs.get(*src))),
        Inst::Binary { dst, op, lhs, rhs } => {
            let l = regs.get(*lhs);
            let r = regs.get(*rhs);
            let float = l.kind() == ValueKind::Float || r.kind() == ValueKind::Float;
            // Fault check hoisted out of the evaluator so the common path
            // is an infallible `Value -> Value` computation (no `Result`
            // moved through the dispatch loop).
            if binop_faults(*op, r, float) {
                return Err(ExecError::DivByZero);
            }
            regs.set(*dst, eval_binop_total(*op, l, r, float));
        }
        Inst::MulAdd { dst, a, b, c } => {
            // Mul then add with the oracle's kind promotion; two roundings
            // in the float case, never fused.
            let av = regs.get(*a);
            let bv = regs.get(*b);
            let cv = regs.get(*c);
            let f1 = av.kind() == ValueKind::Float || bv.kind() == ValueKind::Float;
            let m = eval_binop_total(BinOp::Mul, av, bv, f1);
            let f2 = m.kind() == ValueKind::Float || cv.kind() == ValueKind::Float;
            regs.set(*dst, eval_binop_total(BinOp::Add, m, cv, f2));
        }
        Inst::Cast { dst, ty, src } => regs.set(*dst, regs.get(*src).convert_to(*ty)),
        Inst::Intrin1 { dst, f, a } => regs.set(*dst, eval_intrinsic(*f, &[regs.get(*a)])),
        Inst::Intrin2 { dst, f, a, b } => {
            let av = regs.get(*a);
            let bv = regs.get(*b);
            regs.set(*dst, eval_intrinsic(*f, &[av, bv]));
        }
        Inst::Test { dst, src } => {
            regs.set(*dst, Value::I64(i64::from(regs.get(*src).is_true())));
        }
        Inst::Load { dst, slot, idx } => {
            let index = regs.get(*idx).as_i64();
            let v = load_value(slot_info(prog, *slot), elide, cx, index, mem)?;
            regs.set(*dst, v);
        }
        Inst::Store { slot, idx, val } => {
            let index = regs.get(*idx).as_i64();
            let v = regs.get(*val);
            store_value(slot_info(prog, *slot), elide, cx, index, v, mem)?;
        }
        Inst::AtomicRmw { op, slot, idx, val } => {
            let index = regs.get(*idx).as_i64();
            let v = regs.get(*val);
            let info = slot_info(prog, *slot);
            let old = load_value(info, elide, cx, index, mem)?;
            store_value(info, elide, cx, index, apply_atomic(*op, old, v), mem)?;
        }
        Inst::Jump { .. }
        | Inst::JumpIfFalse { .. }
        | Inst::JumpIfTrue { .. }
        | Inst::ForInit { .. }
        | Inst::ForNext { .. }
        | Inst::Return
        | Inst::Tid { .. }
        | Inst::Bid { .. } => unreachable!("control flow is the caller's; pool code runs on rows"),
    }
    Ok(())
}

/// Whether a loop at count `v` runs (again) toward `e` by step `st`: the
/// test `ForInit`, `ForNext` and a uniform `for` make, per thread and per
/// row.
#[inline]
pub(crate) fn loop_runs(v: i64, e: i64, st: i64) -> bool {
    (st > 0 && v < e) || (st < 0 && v > e)
}

/// `ForInit` for one thread: normalise the bounds to `I64` in place (`sreg`
/// doubles as the private induction register from here on), set the
/// variable to the count converted to `ty`, and say whether the loop runs
/// at least once. A zero step is `DivByZero`.
#[inline]
pub(crate) fn for_init(
    regs: &mut Column<'_>,
    var: Reg,
    ty: Scalar,
    sreg: Reg,
    ereg: Reg,
    streg: Reg,
) -> Result<bool, ExecError> {
    let s = regs.get(sreg).as_i64();
    let e = regs.get(ereg).as_i64();
    let st = regs.get(streg).as_i64();
    if st == 0 {
        return Err(ExecError::DivByZero);
    }
    regs.set(sreg, Value::I64(s));
    regs.set(ereg, Value::I64(e));
    regs.set(streg, Value::I64(st));
    regs.set(var, Value::I64(s).convert_to(ty));
    Ok(loop_runs(s, e, st))
}

/// `ForNext` for one thread: advance the induction register (wrapping, like
/// every other integer op) and the variable (the count converted to `ty`),
/// and say whether the loop goes on.
#[inline]
pub(crate) fn for_next(
    regs: &mut Column<'_>,
    var: Reg,
    ty: Scalar,
    ind: Reg,
    ereg: Reg,
    streg: Reg,
) -> bool {
    let st = regs.get(streg).as_i64();
    let e = regs.get(ereg).as_i64();
    let v = regs.get(ind).as_i64().wrapping_add(st);
    regs.set(ind, Value::I64(v));
    regs.set(var, Value::I64(v).convert_to(ty));
    loop_runs(v, e, st)
}

/// Run `code[start..end]` for one thread (a thread-major segment, a uniform
/// bounds/cond snippet, or the body of a lone active lane's loop): the
/// control flow is here, every data op is a [`step`], and each instruction
/// that runs adds one to its pc's execution count. `Ok(true)` means the
/// thread executed `Return`.
///
/// `regs` is the thread's column of the lane rows, read and written in
/// place, `cx` the rest of its state and `counts` the engine's per-pc
/// execution counts — disjoint borrows split once by the caller.
pub(crate) fn run_seg<M: GlobalMem>(
    prog: &Program,
    regs: &mut Column<'_>,
    mut cx: ThreadCx<'_>,
    counts: &mut [u64],
    start: u32,
    end: u32,
    mem: &mut M,
) -> Result<bool, ExecError> {
    let (emask, vmask) = prog.cert_masks();
    let mut pc = start as usize;
    let end = end as usize;
    let (code, counts) = (&prog.code[..end], &mut counts[..end]);
    while pc < end {
        counts[pc] += 1;
        match &code[pc] {
            Inst::Jump { target } => {
                pc = *target as usize;
                continue;
            }
            Inst::JumpIfFalse { cond, target } => {
                if !regs.get(*cond).is_true() {
                    pc = *target as usize;
                    continue;
                }
            }
            Inst::JumpIfTrue { cond, target } => {
                if regs.get(*cond).is_true() {
                    pc = *target as usize;
                    continue;
                }
            }
            Inst::ForInit {
                var,
                ty,
                start: sreg,
                end: ereg,
                step: streg,
                exit,
            } => {
                if !for_init(regs, *var, *ty, *sreg, *ereg, *streg)? {
                    pc = *exit as usize;
                    continue;
                }
            }
            Inst::ForNext {
                var,
                ty,
                ind,
                end: ereg,
                step: streg,
                back,
            } => {
                if for_next(regs, *var, *ty, *ind, *ereg, *streg) {
                    pc = *back as usize;
                    continue;
                }
            }
            Inst::Return => return Ok(true),
            inst => {
                let elide = emask.is_some_and(|m| m[pc]);
                step(prog, inst, elide, regs, &mut cx, mem)
                    .map_err(|e| cert_wrap(e, vmask.is_some_and(|m| m[pc])))?;
            }
        }
        pc += 1;
    }
    Ok(false)
}

/// Run `blocks` in ascending order on one [`LaneEngine`]. Its stats are one
/// fold: the engine counts how often each pc ran, per thread, and the run
/// charges `Σ counts[pc] × Program::charges[pc]` on top of the counters
/// the engine writes itself (`blocks`, `active_threads`, `barriers`). A
/// fault returns no stats, so every record this makes is of a completed
/// run, in which each executed instruction charged once per executing
/// thread: exactly the oracle's count.
fn run_blocks<M: GlobalMem>(
    prog: &Program,
    mem: &mut M,
    blocks: Range<u64>,
) -> Result<BlockStats, ExecError> {
    let mut eng = LaneEngine::new(prog, mem);
    for b in blocks {
        eng.run_block(mem, b)?;
    }
    let (mut total, counts) = eng.tally();
    for (charge, &n) in prog.charges.iter().zip(counts) {
        if n > 0 {
            total += charge.scaled(n);
        }
    }
    Ok(total)
}

/// Execute a contiguous block range serially (ascending linear index — the
/// same order as the tree-walk oracle, so memory effects match bit-for-bit
/// even for racy kernels).
pub fn run_range(
    prog: &Program,
    pool: &mut MemPool,
    blocks: Range<u64>,
) -> Result<BlockStats, ExecError> {
    run_blocks(prog, pool, blocks)
}

/// The launch profile on the compiled engine: `LaunchProfile::from_samples`
/// over `prog`, each sampled block run through [`run_range`] on one scratch
/// copy of the buffers `prog` binds (the rest of `pool` is never reached).
/// `BlockStats` and errors are the oracle's, so the result equals
/// [`crate::profile_launch`] of the same launch.
pub fn profile_program(
    prog: &Program,
    pool: &MemPool,
    samples: usize,
) -> Result<LaunchProfile, ExecError> {
    let mut scratch = pool.clone_only(prog.bound_buffers());
    LaunchProfile::from_samples(prog.launch.num_blocks(), samples, |b| {
        run_range(prog, &mut scratch, b..b + 1)
    })
}

/// Cut `blocks` into `workers` near-equal ascending chunks and run each
/// through the [`crate::pool`] on its own engine and its own clone of one
/// [`RacyView`] of `pool`. `None` when a single worker suffices or the
/// program is [`Program::serial_only`] (global atomics): the caller then
/// takes its serial path.
///
/// Per-chunk [`BlockStats`] are summed in chunk order; since every counter
/// is a plain `u64` total, the merged stats are bit-identical to a serial
/// run regardless of interleaving. On error the first failing block in
/// ascending order wins (chunks are ascending and each chunk runs
/// ascending), matching the serial path's reported error.
fn run_chunked(
    prog: &Program,
    pool: &mut MemPool,
    blocks: &Range<u64>,
    workers: usize,
) -> Option<Result<BlockStats, ExecError>> {
    let nblocks = blocks.end.saturating_sub(blocks.start);
    let workers = workers.min(nblocks.min(usize::MAX as u64) as usize) as u64;
    if workers <= 1 || prog.serial_only() {
        return None;
    }
    let view = RacyView::new(pool, prog);
    let chunks: Vec<(RacyView, Range<u64>)> = (0..workers)
        .map(|i| {
            let lo = blocks.start + i * nblocks / workers;
            let hi = blocks.start + (i + 1) * nblocks / workers;
            (view.clone(), lo..hi)
        })
        .collect();
    let results = crate::pool::run(chunks, |(mut view, range)| {
        run_blocks(prog, &mut view, range)
    });
    let mut results = results.into_iter();
    Some(results.try_fold(BlockStats::default(), |total, r| Ok(total + r?)))
}

/// Execute a contiguous block range chunked across up to `workers` jobs on
/// the [`crate::pool`] (see `run_chunked` for the bit-identity argument).
/// Falls back to [`run_range`] when one worker suffices or the program is
/// [`Program::serial_only`].
pub fn run_range_parallel(
    prog: &Program,
    pool: &mut MemPool,
    blocks: Range<u64>,
    workers: usize,
) -> Result<BlockStats, ExecError> {
    run_chunked(prog, pool, &blocks, workers).unwrap_or_else(|| run_range(prog, pool, blocks))
}

/// Compile `kernel` for `launch` and execute every block with the compiled
/// engine — the drop-in counterpart of [`crate::interp::execute_launch`].
pub fn execute_launch_bytecode(
    kernel: &Kernel,
    launch: LaunchConfig,
    args: &[Arg],
    pool: &mut MemPool,
) -> Result<BlockStats, ExecError> {
    let prog = Program::compile(kernel, launch, args)?;
    run_range(&prog, pool, 0..launch.num_blocks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::execute_launch;
    use cucc_ir::parse_kernel;

    /// Oracle vs the engine vs the engine with its lane plans detached
    /// (every segment through `run_seg`), each serial and chunked.
    fn check_equiv(src: &str, launch: LaunchConfig, setup: impl Fn(&mut MemPool) -> Vec<Arg>) {
        let k = parse_kernel(src).unwrap();
        cucc_ir::validate(&k).unwrap();
        let mut pool_a = MemPool::new();
        let args = setup(&mut pool_a);
        let pool = pool_a.clone();
        let oracle = execute_launch(&k, launch, &args, &mut pool_a);
        let prog = Program::compile(&k, launch, &args).unwrap();
        let mut detached = prog.clone();
        detached.detach_lane_plans();
        for (what, prog) in [("lane", &prog), ("detached", &detached)] {
            let mut pool_b = pool.clone();
            let serial = run_range(prog, &mut pool_b, 0..launch.num_blocks());
            assert_eq!(oracle, serial, "{what}: stats/error mismatch vs oracle");
            if oracle.is_ok() {
                assert_eq!(pool_a, pool_b, "{what}: memory mismatch vs oracle");
            }
            let mut pool_c = pool.clone();
            let par = run_range_parallel(prog, &mut pool_c, 0..launch.num_blocks(), 4);
            match (&oracle, &par) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{what}: parallel stats mismatch");
                    assert_eq!(pool_a, pool_c, "{what}: parallel memory mismatch");
                }
                (Err(_), Err(_)) => {}
                other => panic!("{what}: oracle/parallel disagree on success: {other:?}"),
            }
        }
    }

    #[test]
    fn saxpy_matches_oracle() {
        let src = r#"
            __global__ void saxpy(float* x, float* y, float a, int n) {
                int i = blockDim.x * blockIdx.x + threadIdx.x;
                if (i < n) y[i] = a * x[i] + y[i];
            }
        "#;
        check_equiv(src, LaunchConfig::cover1(1000, 128), |pool| {
            let x = pool.alloc_elems(Scalar::F32, 1000);
            let y = pool.alloc_elems(Scalar::F32, 1000);
            let xs: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5).collect();
            let ys: Vec<f32> = (0..1000).map(|i| 1000.0 - i as f32).collect();
            pool.write_f32(x, &xs);
            pool.write_f32(y, &ys);
            vec![
                Arg::Buffer(x),
                Arg::Buffer(y),
                Arg::float(2.0),
                Arg::int(1000),
            ]
        });
    }

    /// Per-pc execution counts of one serial run of `prog` over `blocks`.
    fn counts(prog: &Program, pool: &MemPool, blocks: Range<u64>) -> Vec<u64> {
        let mut pool = pool.clone();
        let mut eng = LaneEngine::new(prog, &mut pool);
        for b in blocks {
            eng.run_block(&mut pool, b).unwrap();
        }
        eng.tally().1.to_vec()
    }

    /// The lanes count what the threads run: every pc's count is the same
    /// with lane plans as without them (one thread at a time), and a loop
    /// that one lane enters alone counts its `ForInit` once per block.
    #[test]
    fn lanes_count_each_pc_once_per_thread_that_runs_it() {
        let src = r#"
            __global__ void k(int* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id >= n) return;
                int acc = 0;
                if (threadIdx.x == 3) {
                    for (int j = 0; j < 5; j++) acc = acc + j;
                }
                for (int j = 0; j < id % 7; j++) {
                    if (j % 2 == 0) acc = acc + j * j;
                }
                out[id] = acc;
            }
        "#;
        let k = parse_kernel(src).unwrap();
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::I32, 500);
        let launch = LaunchConfig::cover1(500, 64);
        let prog = Program::compile(&k, launch, &[Arg::Buffer(out), Arg::int(500)]).unwrap();
        assert!(!prog.lane_plans().is_empty(), "{}", prog.phase_summary());
        let mut detached = prog.clone();
        detached.detach_lane_plans();
        let blocks = 0..launch.num_blocks();
        let lanes = counts(&prog, &pool, blocks.clone());
        assert_eq!(lanes, counts(&detached, &pool, blocks));
        let init = prog
            .code
            .iter()
            .position(|i| matches!(i, Inst::ForInit { .. }));
        assert_eq!(lanes[init.unwrap()], launch.num_blocks());
    }

    #[test]
    fn shared_reverse_matches_oracle() {
        let src = r#"
            __global__ void reverse(int* data) {
                __shared__ int tile[64];
                tile[threadIdx.x] = data[blockIdx.x * blockDim.x + threadIdx.x];
                __syncthreads();
                data[blockIdx.x * blockDim.x + threadIdx.x] = tile[blockDim.x - 1 - threadIdx.x];
            }
        "#;
        check_equiv(src, LaunchConfig::new(4u32, 64u32), |pool| {
            let data = pool.alloc_elems(Scalar::I32, 256);
            let init: Vec<i32> = (0..256).collect();
            pool.write_i32(data, &init);
            vec![Arg::Buffer(data)]
        });
    }

    #[test]
    fn barrier_in_uniform_loop_matches_oracle() {
        let src = r#"
            __global__ void rotate(int* out, int rounds) {
                __shared__ int ring[32];
                ring[threadIdx.x] = threadIdx.x;
                __syncthreads();
                int v = 0;
                for (int r = 0; r < rounds; r++) {
                    v = ring[(threadIdx.x + 1) % 32];
                    __syncthreads();
                    ring[threadIdx.x] = v;
                    __syncthreads();
                }
                out[threadIdx.x] = ring[threadIdx.x];
            }
        "#;
        check_equiv(src, LaunchConfig::new(1u32, 32u32), |pool| {
            let out = pool.alloc_elems(Scalar::I32, 32);
            vec![Arg::Buffer(out), Arg::int(5)]
        });
    }

    #[test]
    fn atomics_fall_back_to_serial_and_match() {
        let src = r#"
            __global__ void hist(int* bins, int* data, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) atomicAdd(&bins[data[id] % 4], 1);
            }
        "#;
        let k = parse_kernel(src).unwrap();
        let mut pool = MemPool::new();
        let bins = pool.alloc_elems(Scalar::I32, 4);
        let data = pool.alloc_elems(Scalar::I32, 100);
        let vals: Vec<i32> = (0..100).collect();
        pool.write_i32(data, &vals);
        let args = [Arg::Buffer(bins), Arg::Buffer(data), Arg::int(100)];
        let launch = LaunchConfig::cover1(100, 32);
        let prog = Program::compile(&k, launch, &args).unwrap();
        assert!(prog.serial_only());
        let stats = run_range_parallel(&prog, &mut pool, 0..launch.num_blocks(), 8).unwrap();
        assert_eq!(pool.read_i32(bins), vec![25, 25, 25, 25]);
        assert_eq!(stats.global_atomics, 100);
    }

    #[test]
    fn early_return_matches_oracle() {
        let src = r#"
            __global__ void k(int* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id >= n) return;
                int acc = 0;
                for (int j = 0; j < id % 7; j++) acc = acc + j * j;
                out[id] = acc;
            }
        "#;
        check_equiv(src, LaunchConfig::cover1(500, 64), |pool| {
            let out = pool.alloc_elems(Scalar::I32, 500);
            vec![Arg::Buffer(out), Arg::int(500)]
        });
    }

    #[test]
    fn oob_error_matches_oracle() {
        let src = "__global__ void k(int* out) { out[threadIdx.x] = 1; }";
        check_equiv(src, LaunchConfig::new(1u32, 8u32), |pool| {
            let out = pool.alloc_elems(Scalar::I32, 4);
            vec![Arg::Buffer(out)]
        });
    }

    #[test]
    fn div_by_zero_matches_oracle() {
        let src = "__global__ void k(int* out, int d) { out[0] = 1 / d; }";
        check_equiv(src, LaunchConfig::new(1u32, 1u32), |pool| {
            let out = pool.alloc_elems(Scalar::I32, 1);
            vec![Arg::Buffer(out), Arg::int(0)]
        });
    }

    /// All-mem-insts-certified copy of `prog` (valid only when every access
    /// that executes is dynamically in bounds).
    fn certify_all(prog: &Program, mode: crate::CertMode) -> Program {
        let mut p = prog.clone();
        let mask = vec![true; p.num_insts()];
        p.attach_certs(&mask, mode);
        p
    }

    /// Elide mode must be bit-identical to the checked path: same memory,
    /// same `BlockStats`, with lane plans and thread-major.
    #[test]
    fn certified_elide_is_bit_identical_to_checked() {
        let src = r#"
            __global__ void saxpy(float* x, float* y, float a, int n) {
                int i = blockDim.x * blockIdx.x + threadIdx.x;
                if (i < n) y[i] = a * x[i] + y[i];
            }
        "#;
        let k = parse_kernel(src).unwrap();
        let launch = LaunchConfig::cover1(1000, 128);
        let mut pool = MemPool::new();
        let x = pool.alloc_elems(Scalar::F32, 1000);
        let y = pool.alloc_elems(Scalar::F32, 1000);
        let xs: Vec<f32> = (0..1000).map(|i| i as f32 * 0.25).collect();
        pool.write_f32(x, &xs);
        pool.write_f32(y, &xs);
        let args = [
            Arg::Buffer(x),
            Arg::Buffer(y),
            Arg::float(3.0),
            Arg::int(1000),
        ];
        let prog = Program::compile(&k, launch, &args).unwrap();
        let eprog = certify_all(&prog, crate::CertMode::Elide);
        assert_eq!(eprog.cert_stats().0, eprog.cert_stats().1);

        let mut dprog = prog.clone();
        dprog.detach_lane_plans();
        let mut deprog = eprog.clone();
        deprog.detach_lane_plans();
        for (what, prog, eprog) in [("lane", &prog, &eprog), ("detached", &dprog, &deprog)] {
            let mut p_checked = pool.clone();
            let mut p_elide = pool.clone();
            let s_checked = run_range(prog, &mut p_checked, 0..launch.num_blocks()).unwrap();
            let s_elide = run_range(eprog, &mut p_elide, 0..launch.num_blocks()).unwrap();
            assert_eq!(s_checked, s_elide, "{what}: stats diverge under elision");
            assert_eq!(p_checked, p_elide, "{what}: memory diverges under elision");
        }
    }

    /// A wrong certificate in Validate mode is a loud, typed failure on
    /// lanes and thread-major alike — never a silent out-of-bounds report.
    #[test]
    fn wrong_certificate_is_a_violation_in_validate_mode() {
        let src = "__global__ void k(int* out) { out[threadIdx.x + 1] = 1; }";
        let k = parse_kernel(src).unwrap();
        let launch = LaunchConfig::new(1u32, 8u32);
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::I32, 8);
        let args = [Arg::Buffer(out)];
        let prog = Program::compile(&k, launch, &args).unwrap();

        // Unchecked claim: every access certified. Thread 7 writes out[8].
        let vprog = certify_all(&prog, crate::CertMode::Validate);
        let mut dvprog = vprog.clone();
        dvprog.detach_lane_plans();
        for (what, vprog) in [("lane", &vprog), ("detached", &dvprog)] {
            let got = run_range(vprog, &mut pool.clone(), 0..launch.num_blocks());
            assert!(
                matches!(got, Err(ExecError::CertificateViolation { ref mem, index: 8, .. }) if mem == "out"),
                "{what}: {got:?}"
            );
        }

        // Without certificates the same fault stays a plain OutOfBounds.
        let plain = run_range(&prog, &mut pool.clone(), 0..launch.num_blocks());
        assert!(matches!(plain, Err(ExecError::OutOfBounds { .. })));
    }

    #[test]
    fn engine_kind_parses() {
        assert_eq!(EngineKind::parse("tree"), Some(EngineKind::TreeWalk));
        assert_eq!(EngineKind::parse("lane"), Some(EngineKind::Lane));
        assert_eq!(EngineKind::parse("bytecode"), Some(EngineKind::Lane));
        assert_eq!(EngineKind::parse("simd"), Some(EngineKind::Lane));
        assert_eq!(EngineKind::parse("jit"), None);
        assert_eq!(EngineKind::TreeWalk.to_string(), "tree");
        assert_eq!(EngineKind::Lane.to_string(), "lane");
        assert_eq!(EngineKind::default(), EngineKind::Lane);
    }

    #[test]
    fn constants_fold_to_short_programs() {
        // `a * 2.0 + 1.0` with scalar args bound: the whole RHS save the
        // load collapses, so the stream stays small.
        let src = r#"
            __global__ void k(float* out, float a) {
                out[threadIdx.x] = a * 2.0 + 1.0;
            }
        "#;
        let k = parse_kernel(src).unwrap();
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::F32, 8);
        let args = [Arg::Buffer(out), Arg::float(3.0)];
        let launch = LaunchConfig::new(1u32, 8u32);
        let prog = Program::compile(&k, launch, &args).unwrap();
        // Folded value + tid + store: no multiply/add instructions remain.
        assert!(prog.num_insts() <= 4, "got {} insts", prog.num_insts());
        run_range(&prog, &mut pool, 0..1).unwrap();
        assert_eq!(pool.read_f32(out), vec![7.0f32; 8]);
    }

    #[test]
    fn the_write_set_names_stored_and_atomic_buffers_only() {
        let src = r#"
            __global__ void k(int* src, int* out, int* hist, int* unused) {
                __shared__ int tile[4];
                tile[threadIdx.x] = src[threadIdx.x];
                out[threadIdx.x] = tile[threadIdx.x];
                atomicAdd(&hist[0], 1);
            }
        "#;
        let k = parse_kernel(src).unwrap();
        let mut pool = MemPool::new();
        let bufs: Vec<BufferId> = (0..4).map(|_| pool.alloc_elems(Scalar::I32, 4)).collect();
        let args: Vec<Arg> = bufs.iter().map(|&b| Arg::Buffer(b)).collect();
        let prog = Program::compile(&k, LaunchConfig::new(1u32, 4u32), &args).unwrap();
        let mut written: Vec<BufferId> = prog.written_buffers().collect();
        written.sort_unstable();
        written.dedup();
        assert_eq!(written, [bufs[1], bufs[2]]);
    }
}
