//! The compiled engine: lane-array execution with a thread-major fallback.
//!
//! Every compiled [`Program`] runs here (the tree-walk interpreter is the
//! oracle it is tested against). Batchable segments run *instruction-major
//! over chunked lane-arrays*: the register file is one reg-major row of
//! `u64` bits per register, threads are processed in fixed-width chunks of
//! [`LANES`], and each chunk executes the segment's [`Inst`]s — the same
//! instruction stream the thread-major fallback runs — with branch-free
//! inner loops over contiguous rows the compiler can autovectorize
//! (`op_full`). A row holds no kinds: each register's kind is the static
//! `Program::kinds` entry (the front end made every conversion explicit).
//! So `op_full` picks one row loop per instruction from its operator and
//! its operand kinds (`per_variant!`, `per_kind!`), and each loop calls the
//! scalar definition `step` and the oracle share on a constant operator and
//! typed lanes: the definition folds to its one arm, and no lane decides an
//! operator or a kind at run time.
//! Pooled registers (`Program::block_pool`, `Program::thread_pool`) are
//! filled outside the chunk loop, one `op_full` per pool instruction: the
//! thread pool once per run, the block pool once per block on lane 0 and
//! splatted.
//! Nothing here charges: what an instruction costs one thread, pooled
//! subtrees it reads included, is `Program::charges`, decided at compile
//! time. The chunk loop and [`run_seg`] each add the lanes that run an
//! instruction — all `nl`, the active ones, or 1 — to its pc's count at
//! their one dispatch point, and a run's stats are counts × charges.
//! `Predicated` segments carry a per-lane `resume` target; the lanes at or
//! past it are the chunk's active set. Divergence is predication of the
//! whole row, as on a SIMD unit: a register op under a partial active set
//! runs the same row loop over every lane and its row store keeps the
//! inactive lanes' bits (a branch-free select). Only ops that cannot fault
//! may run on an inactive lane's stale bits; those that can — `Load`,
//! `Store`, atomics and int `/`/`%` — run one [`step`] per active lane, as
//! does any op without a row loop (local arrays, atomics), on the thread's
//! [`Column`] of the rows: the definition [`run_seg`] runs, so there is no
//! per-lane semantics here to keep in line with it. Loop control
//! (`ForInit`/`ForNext`) is one pass over the loop's rows, converged or
//! masked alike. Non-batchable segments run
//! thread-major through [`run_seg`], one live thread after another,
//! ascending, each on its own [`Column`]: the lane rows are the only
//! register file. Bounds certificates are consumed per access: one per-pc
//! table serves full-width rows, per-lane steps and the fallback alike, and
//! one [`gather`]/[`scatter`] pair serves the checked and the certified
//! access (`CERT`). `BlockStats`, memory effects and errors are
//! bit-identical to the oracle's either way.
//!
//! Chunk-major order (each chunk finishes the whole segment before the next
//! chunk starts) is observationally equivalent to the oracle's thread-major
//! order under `seg_batchable`'s hazard rules, keyed by memory object: loads
//! only see segment-entry state or, in place, the thread's own element;
//! each object has at most one store site (so stores from different lanes
//! land ascending at distinct or last-writer-wins-identical indices exactly
//! as the oracle's ascending thread loop), and atomics commute.
//!
//! A barrier-free `for` runs inside the chunk, *iteration-major*: iteration
//! `k` of every lane before iteration `k + 1` of any (a lane whose loop
//! ended waits at the exit). Each lane still runs its own program order, so
//! registers, local arrays and loads of objects the segment never writes
//! cannot tell. Only the order between (thread, iteration) pairs changes,
//! and it is observable only through an address two pairs write — which is
//! why `seg_batchable` refuses a global or shared store in a loop body and
//! admits an atomic there only under the commutative integer rule. A store
//! outside every body runs once per lane, ascending, as before.
//!
//! Faults preserve the lowest-thread rule: a faulting lane retires itself
//! and every lane above, lower lanes finish the segment and may overwrite the
//! pending error with one the oracle hits first, and later chunks never
//! start once an error is pending. In a loop that holds per iteration: a
//! higher lane that faults in an earlier iteration is overwritten by a
//! lower lane's later fault, which the oracle reaches first.

use crate::bytecode::{BatchKind, Inst, PhaseOp, Program, Reg, SlotKind};
use crate::engine::{
    cert_wrap, elem_off, loop_runs, oob, run_seg, slot_info, step, GlobalMem, ThreadCx,
};
use crate::interp::{axis_of, eval_binop_total, eval_intrinsic, eval_unop, ExecError};
use crate::stats::BlockStats;
use cucc_ir::{BinOp, Intrinsic, Scalar, UnOp, Value, ValueKind};

/// Lane-chunk width: one chunk of threads runs the whole segment before the
/// next chunk starts, so a batchable segment dispatches each instruction once
/// per 64 lanes — once per block for blocks of up to 64 threads. One
/// register's chunk row is 512 bytes (eight cache lines). Of the widths 16,
/// 32, 64, 128, 256 and 1024, 64 measured at or near the best on both steady
/// benchmark workloads; wider chunks gained nothing.
pub const LANES: usize = 64;

const DEAD: u32 = u32::MAX;

/// `$body` once per listed variant of `$e`'s enum `$ty`, with `$c` bound to
/// that variant: inside each copy the operator is a constant, so the scalar
/// definition the body calls folds to its one arm. A variant not listed runs
/// `$rest`. `$c` is a `const`, not a `let`: a closure that reads it
/// captures nothing, so no two copies compile to one shared, out-of-line
/// body that reads the operator at run time.
macro_rules! per_variant {
    ($e:expr, $ty:ident, [$($v:ident),*], |$c:ident| $body:expr $(, _ => $rest:expr)?) => {
        match $e {
            $($ty::$v => {
                #[allow(non_upper_case_globals)]
                const $c: $ty = $ty::$v;
                $body
            })*
            $(_ => $rest,)?
        }
    };
}

/// `$body` once per static register kind, with `$f` a constant: `true` for
/// float. [`lane`] reads a lane as that kind.
macro_rules! per_kind {
    ($k:expr, |$f:ident| $body:expr) => {
        match $k {
            ValueKind::Int => {
                const $f: bool = false;
                $body
            }
            ValueKind::Float => {
                const $f: bool = true;
                $body
            }
        }
    };
}

/// A row lane as a value of its register's static kind (`FLOAT`), fixed per
/// row loop.
#[inline(always)]
fn lane<const FLOAT: bool>(bits: u64) -> Value {
    if FLOAT {
        Value::F64(f64::from_bits(bits))
    } else {
        Value::I64(bits as i64)
    }
}

// The row loops `op_full` picks, one per (operator, operand kinds): `f` is
// the definition `step` runs, called with a constant operator on lanes read
// as fixed kinds, so each loop body is one arm of that definition.

/// `f` over the lanes of `a` (at most [`LANES`]), read as kind `A`, into
/// `out`.
#[inline(always)]
fn map1<const A: bool>(out: &mut [u64; LANES], a: &[u64], f: impl Fn(Value) -> Value) {
    for (o, x) in out.iter_mut().zip(a) {
        *o = pack(f(lane::<A>(*x)));
    }
}

/// `f` over the lanes of `a` and `b`, read as kinds `A` and `B`.
#[inline(always)]
fn map2<const A: bool, const B: bool>(
    out: &mut [u64; LANES],
    a: &[u64],
    b: &[u64],
    f: impl Fn(Value, Value) -> Value,
) {
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = pack(f(lane::<A>(*x), lane::<B>(*y)));
    }
}

/// `f` over the lanes of `a`, `b` and `c`, read as kinds `A`, `B` and `C`.
#[inline(always)]
fn map3<const A: bool, const B: bool, const C: bool>(
    out: &mut [u64; LANES],
    a: &[u64],
    b: &[u64],
    c: &[u64],
    f: impl Fn(Value, Value, Value) -> Value,
) {
    for (((o, x), y), z) in out.iter_mut().zip(a).zip(b).zip(c) {
        *o = pack(f(lane::<A>(*x), lane::<B>(*y), lane::<C>(*z)));
    }
}

/// `MulAdd` as [`step`] runs it: the mul, then the add, each promoted and
/// rounded on its own (never fused).
#[inline(always)]
fn muladd<const A: bool, const B: bool, const C: bool>(x: Value, y: Value, z: Value) -> Value {
    let m = eval_binop_total(BinOp::Mul, x, y, A || B);
    eval_binop_total(BinOp::Add, m, z, A || B || C)
}

/// A value's row bits; its kind is the register's static one.
#[inline]
fn pack(v: Value) -> u64 {
    match v {
        Value::I64(i) => i as u64,
        Value::F64(f) => f.to_bits(),
    }
}

#[inline]
fn unpack(bits: u64, kind: ValueKind) -> Value {
    match kind {
        ValueKind::Int => Value::I64(bits as i64),
        ValueKind::Float => Value::F64(f64::from_bits(bits)),
    }
}

/// Branch-free truthiness on row bits: ints are true when nonzero; floats
/// when not ±0.0 (shifting out the sign bit — NaN stays true), matching
/// `Value::is_true`.
#[inline]
fn truthy(bits: u64, kind: ValueKind) -> bool {
    match kind {
        ValueKind::Int => bits != 0,
        ValueKind::Float => (bits << 1) != 0,
    }
}

/// The lanes of a divergent chunk that run the instruction at `pc`: those
/// whose `resume` target is at or before it. A converged chunk has none:
/// all its lanes run.
#[derive(Clone, Copy)]
struct Active<'a> {
    resume: &'a [u32; LANES],
    pc: u32,
}

/// The masked row store: `out`'s lanes where `resume <= pc` (the active
/// lanes), `row`'s own lanes elsewhere — a select under a word mask (`!0`
/// active, `0` not), no branch per lane.
#[inline(always)]
fn blend(row: &mut [u64], out: &[u64; LANES], resume: &[u32; LANES], pc: u32) {
    for ((d, o), r) in row.iter_mut().zip(out).zip(resume) {
        let w = 0u64.wrapping_sub(u64::from(*r <= pc));
        *d = (o & w) | (*d & !w);
    }
}

/// A loop count as its variable's row bits: the count converted to `ty`, as
/// `for_init`/`for_next` set it (an `I64` variable takes it directly).
#[inline(always)]
fn count_as(v: i64, ty: Scalar) -> u64 {
    match ty {
        Scalar::I64 => v as u64,
        ty => pack(Value::I64(v).convert_to(ty)),
    }
}

/// `ForInit` over a chunk's `start`/`var`/`end`/`step` rows, as
/// [`for_init`](crate::engine::for_init) runs it per thread, for the lanes
/// of `resume` (a prefix of the chunk with no active zero step): an active
/// lane (`resume <= pc`) sets its variable to its start as `ty` and runs
/// the body, or waits at `exit` if its loop is empty. The bounds rows are
/// ints already, so the in-place normalisation writes nothing. Returns the
/// active and the entering lane counts.
#[inline(always)]
fn for_init_rows(
    [s, var, e, st]: [&mut [u64]; 4],
    ty: Scalar,
    resume: &mut [u32],
    pc: u32,
    exit: u32,
) -> (usize, usize) {
    let (mut nact, mut went) = (0, 0);
    let lanes = resume.iter_mut().zip(var).zip(&*s).zip(&*e).zip(&*st);
    for ((((r, var), &s), &e), &st) in lanes {
        let on = *r <= pc;
        let go = loop_runs(s as i64, e as i64, st as i64);
        let w = 0u64.wrapping_sub(u64::from(on));
        *var = (count_as(s as i64, ty) & w) | (*var & !w);
        *r = if on && !go { exit } else { *r };
        nact += usize::from(on);
        went += usize::from(on && go);
    }
    (nact, went)
}

/// `ForNext` over a chunk's `ind`/`var`/`end`/`step` rows, as
/// [`for_next`](crate::engine::for_next) runs it per thread: an active
/// lane (`resume <= pc`) adds its step to its induction lane (wrapping),
/// sets its variable to the count as `ty`, and goes `back` while its loop
/// runs or waits at `pc + 1`. An inactive lane keeps its row lanes and its
/// `resume`. Returns the active and the continuing lane counts.
#[inline(always)]
fn for_next_rows(
    [ind, var, e, st]: [&mut [u64]; 4],
    ty: Scalar,
    resume: &mut [u32],
    pc: u32,
    back: u32,
) -> (usize, usize) {
    let (mut nact, mut went) = (0, 0);
    let lanes = resume.iter_mut().zip(ind).zip(var).zip(&*e).zip(&*st);
    for ((((r, ind), var), &e), &st) in lanes {
        let on = *r <= pc;
        let v = (*ind as i64).wrapping_add(st as i64);
        let go = loop_runs(v, e as i64, st as i64);
        let w = 0u64.wrapping_sub(u64::from(on));
        *ind = (v as u64 & w) | (*ind & !w);
        *var = (count_as(v, ty) & w) | (*var & !w);
        *r = match (on, go) {
            (false, _) => *r,
            (true, true) => back,
            (true, false) => pc + 1,
        };
        nact += usize::from(on);
        went += usize::from(on && go);
    }
    (nact, went)
}

/// Gather `nl` lanes from a raw buffer view straight into packed lane bits —
/// `pack ∘ decode ∘ raw_load` per lane with the element-type dispatch
/// hoisted out of the loop. `CERT` is [`elem_off`]'s checked/certified
/// choice, fixed per instantiation so the certified loop carries no test.
/// `Err(i)` is the first faulting lane; lanes below `i` are already
/// committed to `out`.
///
/// # Safety
/// `ptr` must be valid for `len` bytes for the duration of the call (a
/// [`GlobalMem::raw`] view or a live shared image). With `CERT`, every
/// `ix[i]` for `i < nl` must be in bounds — what the op's
/// [`crate::bytecode::CertMode::Elide`] certificate asserts. A wrong
/// certificate is UB in release builds; debug builds catch it in
/// [`elem_off`].
#[inline]
unsafe fn gather<const CERT: bool>(
    ptr: *const u8,
    len: usize,
    elem: Scalar,
    ix: &[i64; LANES],
    nl: usize,
    out: &mut [u64; LANES],
) -> Result<(), usize> {
    let nl = nl.min(LANES);
    let sz = elem.size();
    macro_rules! per_lane {
        ($t:ty, $conv:expr) => {
            for i in 0..nl {
                let Some(off) = elem_off(ix[i], sz, len, CERT) else {
                    return Err(i);
                };
                // `off + sz <= len`, tested or certified by `elem_off`.
                let raw = std::ptr::read_unaligned(ptr.add(off) as *const $t);
                out[i] = $conv(<$t>::from_le(raw));
            }
        };
    }
    match elem {
        Scalar::U8 => per_lane!(u8, |v| v as u64),
        Scalar::I8 => per_lane!(u8, |v| v as i8 as i64 as u64),
        Scalar::I32 => per_lane!(u32, |v| v as i32 as i64 as u64),
        Scalar::U32 => per_lane!(u32, |v| v as u64),
        Scalar::I64 => per_lane!(u64, |v| v),
        Scalar::F32 => per_lane!(u32, |v| (f32::from_bits(v) as f64).to_bits()),
        Scalar::F64 => per_lane!(u64, |v| v),
    }
    Ok(())
}

/// Scatter the first `nl` lanes of a row into a raw buffer view —
/// `raw_store` per lane (same C narrowing as `encode`), dispatch hoisted,
/// `CERT` as in [`gather`]. `vb` holds the row's bits, read as the row
/// register's static kind `FLOAT` (as the row loops read theirs), so a lane
/// is converted by the kind of its register, not by a tag of its own.
/// `Err(i)` is the first faulting lane; lanes below committed.
///
/// # Safety
/// Same contract as [`gather`]: `ptr` must be valid for `len` bytes for the
/// duration of the call, and with `CERT` every `ix[i]` for `i < nl` must be
/// in bounds. `vb` is only read as a slice (a short one panics, it is never
/// read past its end), and a wrong `FLOAT` writes a wrongly converted value,
/// never out of bounds.
#[inline]
unsafe fn scatter<const CERT: bool, const FLOAT: bool>(
    ptr: *mut u8,
    len: usize,
    elem: Scalar,
    ix: &[i64; LANES],
    vb: &[u64],
    nl: usize,
) -> Result<(), usize> {
    let sz = elem.size();
    macro_rules! per_lane {
        ($t:ty, $conv:expr) => {
            for i in 0..nl {
                let Some(off) = elem_off(ix[i], sz, len, CERT) else {
                    return Err(i);
                };
                let enc: $t = $conv(lane::<FLOAT>(vb[i]));
                // `off + sz <= len`, tested or certified by `elem_off`.
                std::ptr::write_unaligned(ptr.add(off) as *mut $t, enc.to_le());
            }
        };
    }
    match elem {
        Scalar::U8 => per_lane!(u8, |v: Value| v.as_i64() as u8),
        Scalar::I8 => per_lane!(u8, |v: Value| v.as_i64() as i8 as u8),
        Scalar::I32 => per_lane!(u32, |v: Value| v.as_i64() as i32 as u32),
        Scalar::U32 => per_lane!(u32, |v: Value| v.as_i64() as u32),
        Scalar::I64 => per_lane!(u64, |v: Value| v.as_i64() as u64),
        Scalar::F32 => per_lane!(u32, |v: Value| (v.as_f64() as f32).to_bits()),
        Scalar::F64 => per_lane!(u64, |v: Value| v.as_f64().to_bits()),
    }
    Ok(())
}

/// `#[inline(never)]` disassembly probes over the two instantiations of the
/// lane gather and scatter, so tests (and humans with `objdump`) can
/// inspect exactly the code the lane loops run without hunting through
/// inlined callers.
///
/// The interesting property is that **no `panic_bounds_check` survives**
/// in either flavour: the global-memory bounds check is `elem_off`'s
/// `Option` (a fault return, never a panic), and the `ix[i]` / `out[i]` /
/// `vb[i]` indexing of the lane temporaries is dominated by `nl <= LANES`,
/// which the optimizer proves from the `nl.min(LANES)` restatement.
/// `tests/asm_probe.rs` disassembles these symbols in release builds and
/// fails if a bounds-check panic reappears.
#[doc(hidden)]
pub mod probe {
    use super::{
        blend, eval_binop_total, eval_intrinsic, eval_unop, for_next_rows, gather, gather_cert,
        map1, map2, map3, muladd, scatter, scatter_cert, LANES,
    };
    use cucc_ir::{BinOp, Intrinsic, Scalar, UnOp, ValueKind};

    /// Checked per-lane gather (`gather::<false>`, as the lane loops reach it).
    #[inline(never)]
    pub fn gather_checked(
        ptr: *const u8,
        len: usize,
        elem: Scalar,
        ix: &[i64; LANES],
        nl: usize,
        out: &mut [u64; LANES],
    ) -> Result<(), usize> {
        gather_cert(ptr, len, elem, ix, nl, out, false)
    }

    /// Certificate-elided gather (`gather::<true>`).
    ///
    /// # Safety
    /// Same contract as [`super::gather`] with `CERT`: every `ix[i]` for
    /// `i < nl` must be in bounds for the `(ptr, len)` view.
    #[inline(never)]
    pub unsafe fn gather_elided(
        ptr: *const u8,
        len: usize,
        elem: Scalar,
        ix: &[i64; LANES],
        nl: usize,
        out: &mut [u64; LANES],
    ) {
        let _ = gather::<true>(ptr, len, elem, ix, nl, out);
    }

    /// Checked per-lane scatter of an int row (`scatter::<false, false>`,
    /// as the lane loops reach it).
    #[inline(never)]
    pub fn scatter_checked(
        ptr: *mut u8,
        len: usize,
        elem: Scalar,
        ix: &[i64; LANES],
        vb: &[u64],
        nl: usize,
    ) -> Result<(), usize> {
        scatter_cert(ptr, len, elem, ix, vb, ValueKind::Int, nl, false)
    }

    /// Certificate-elided scatter of a float row (`scatter::<true, true>`).
    ///
    /// # Safety
    /// Same contract as [`super::scatter`] with `CERT`.
    #[inline(never)]
    pub unsafe fn scatter_elided(
        ptr: *mut u8,
        len: usize,
        elem: Scalar,
        ix: &[i64; LANES],
        vb: &[u64],
        nl: usize,
    ) {
        let _ = scatter::<true, true>(ptr, len, elem, ix, vb, nl);
    }

    // One row loop per row-op class, at one operator and one set of operand
    // kinds: the loop `op_full` runs for that instruction.

    /// Int `+`.
    #[inline(never)]
    pub fn int_binary(out: &mut [u64; LANES], a: &[u64], b: &[u64]) {
        map2::<false, false>(out, a, b, |x, y| eval_binop_total(BinOp::Add, x, y, false));
    }

    /// Float `*`.
    #[inline(never)]
    pub fn float_binary(out: &mut [u64; LANES], a: &[u64], b: &[u64]) {
        map2::<true, true>(out, a, b, |x, y| eval_binop_total(BinOp::Mul, x, y, true));
    }

    /// Float `<`.
    #[inline(never)]
    pub fn compare(out: &mut [u64; LANES], a: &[u64], b: &[u64]) {
        map2::<true, true>(out, a, b, |x, y| eval_binop_total(BinOp::Lt, x, y, true));
    }

    /// `(float)` of a float.
    #[inline(never)]
    pub fn cast(out: &mut [u64; LANES], a: &[u64]) {
        map1::<true>(out, a, |v| v.convert_to(Scalar::F32));
    }

    /// Float `-`.
    #[inline(never)]
    pub fn unary(out: &mut [u64; LANES], a: &[u64]) {
        map1::<true>(out, a, |v| eval_unop(UnOp::Neg, v));
    }

    /// `sqrtf` of a float.
    #[inline(never)]
    pub fn intrinsic(out: &mut [u64; LANES], a: &[u64]) {
        map1::<true>(out, a, |v| eval_intrinsic(Intrinsic::Sqrt, &[v]));
    }

    /// Float `a * b + c`.
    #[inline(never)]
    pub fn mul_add(out: &mut [u64; LANES], a: &[u64], b: &[u64], c: &[u64]) {
        map3::<true, true, true>(out, a, b, c, muladd::<true, true, true>);
    }

    // The two row passes a divergent chunk adds.

    /// The masked row store: a register op's result lanes into its row
    /// where `resume <= pc`, the row's own lanes elsewhere.
    #[inline(never)]
    pub fn masked_store(row: &mut [u64], out: &[u64; LANES], resume: &[u32; LANES], pc: u32) {
        blend(row, out, resume, pc);
    }

    /// The `ForNext` row pass over a chunk's `ind`/`var`/`end`/`step` rows.
    #[inline(never)]
    pub fn for_next(
        rows: [&mut [u64]; 4],
        ty: Scalar,
        resume: &mut [u32],
        pc: u32,
        back: u32,
    ) -> (usize, usize) {
        for_next_rows(rows, ty, resume, pc, back)
    }
}

/// Gather through the checked or the certified instantiation. `elide` is
/// the op's [`crate::bytecode::CertMode::Elide`] bit, hoisted by the
/// caller; when set, the per-lane bounds checks vanish and the call cannot
/// fault.
#[inline]
fn gather_cert(
    ptr: *const u8,
    len: usize,
    elem: Scalar,
    ix: &[i64; LANES],
    nl: usize,
    out: &mut [u64; LANES],
    elide: bool,
) -> Result<(), usize> {
    // SAFETY: callers pass a `GlobalMem::raw` view or a live shared image,
    // and with `elide` the certificate proves every lane index in bounds.
    unsafe {
        if elide {
            gather::<true>(ptr, len, elem, ix, nl, out)
        } else {
            gather::<false>(ptr, len, elem, ix, nl, out)
        }
    }
}

/// Scatter counterpart of [`gather_cert`]; `vk` is the row register's
/// static kind, picked once per call.
#[inline]
#[allow(clippy::too_many_arguments)]
fn scatter_cert(
    ptr: *mut u8,
    len: usize,
    elem: Scalar,
    ix: &[i64; LANES],
    vb: &[u64],
    vk: ValueKind,
    nl: usize,
    elide: bool,
) -> Result<(), usize> {
    // SAFETY: as in `gather_cert`, through a `GlobalMem::raw_mut` view
    // (bytes this node alone holds) or a live shared image.
    unsafe {
        per_kind!(vk, |F| if elide {
            scatter::<true, F>(ptr, len, elem, ix, vb, nl)
        } else {
            scatter::<false, F>(ptr, len, elem, ix, vb, nl)
        })
    }
}

/// A full chunk fast-path fault: chunk-relative lane index plus the error.
/// Lanes below the index committed the op; the lane and everything above
/// retire.
type LaneFault = (usize, ExecError);

/// A [`LaneEngine`]'s heap buffers. They outlive the engine: dropping it
/// parks them in a thread-local, and the next engine built on the same
/// thread refills them in place. A thread that runs launch after launch — a
/// pool worker, or the launching thread working beside it — therefore
/// neither allocates nor frees an engine's worth of memory per run. On the
/// launching thread those frees used to land between the planner's
/// multi-megabyte scratch copies, and glibc then trimmed and re-faulted the
/// heap on every launch (CHANGES.md, PR 12: 14k page faults per
/// `steady_tiled` op against 0.4k).
#[derive(Default)]
struct LaneBufs {
    /// Reg-major register bits: register `r`, thread `t` lives at
    /// `bits[r * nthreads + t]`, of kind `Program::kinds[r]`.
    bits: Vec<u64>,
    returned: Vec<bool>,
    tids: Vec<(u32, u32, u32)>,
    shared: Vec<Vec<u8>>,
    /// Thread-major local arrays: `locals[t * num_locals + l]`.
    locals: Vec<Vec<u8>>,
    /// Per pc: how many times a thread ran the instruction in this run.
    counts: Vec<u64>,
}

thread_local! {
    static PARKED: std::cell::Cell<LaneBufs> = std::cell::Cell::new(LaneBufs::default());
}

/// `*v = vec![x; n]`, in `v`'s existing allocation when it is large enough.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

/// `n` zeroed byte buffers of the given sizes, reusing `vs`' buffers in order.
fn refill_each(vs: &mut Vec<Vec<u8>>, n: usize, sizes: impl Iterator<Item = usize>) {
    vs.resize_with(n, Vec::new);
    for (v, size) in vs.iter_mut().zip(sizes) {
        refill(v, size, 0);
    }
}

/// One thread's registers inside the reg-major lane rows: register `r` of
/// thread `at` lives at `r * stride + at`, of kind `kinds[r]`. What [`step`]
/// and [`run_seg`] read and write; the engine has no other register file.
pub(crate) struct Column<'a> {
    bits: &'a mut [u64],
    kinds: &'a [ValueKind],
    at: usize,
    stride: usize,
}

impl Column<'_> {
    #[inline(always)]
    pub(crate) fn get(&self, r: Reg) -> Value {
        unpack(
            self.bits[r as usize * self.stride + self.at],
            self.kinds[r as usize],
        )
    }

    #[inline(always)]
    pub(crate) fn set(&mut self, r: Reg, v: Value) {
        debug_assert_eq!(v.kind(), self.kinds[r as usize], "static kind of r{r}");
        self.bits[r as usize * self.stride + self.at] = pack(v);
    }
}

/// Reusable per-run execution state for one block at a time: the SoA
/// register file for every thread, plus shared/local images — built once per
/// `run_*` call (from the thread's parked [`LaneBufs`]) and reset per block.
pub(crate) struct LaneEngine<'p> {
    prog: &'p Program,
    nthreads: usize,
    num_locals: usize,
    bufs: LaneBufs,
    block: (u32, u32, u32),
    /// The counters no instruction charges: `blocks`, `active_threads` and
    /// `barriers`.
    stats: BlockStats,
}

impl Drop for LaneEngine<'_> {
    fn drop(&mut self) {
        PARKED.set(std::mem::take(&mut self.bufs));
    }
}

impl<'p> LaneEngine<'p> {
    /// The engine for runs of `prog`, its pooled rows filled: the constants
    /// and the thread pool, which no block changes. `mem` is only passed
    /// through: pooled code reaches no memory.
    pub(crate) fn new<M: GlobalMem>(prog: &'p Program, mem: &mut M) -> LaneEngine<'p> {
        let nthreads = prog.launch.threads_per_block() as usize;
        let num_regs = prog.num_regs as usize;
        let num_locals = prog.local_sizes.len();
        let mut bufs = PARKED.take();
        bufs.tids.clear();
        let tids = (0..nthreads).map(|t| prog.launch.block.delinearize(t as u64));
        bufs.tids.extend(tids);
        refill(&mut bufs.bits, num_regs * nthreads, 0);
        refill(&mut bufs.returned, nthreads, false);
        let shared_sizes = prog.shared_sizes.iter().copied();
        refill_each(&mut bufs.shared, prog.shared_sizes.len(), shared_sizes);
        let local_sizes = prog.local_sizes.iter().copied().cycle();
        refill_each(&mut bufs.locals, nthreads * num_locals, local_sizes);
        refill(&mut bufs.counts, prog.code.len(), 0);
        let mut eng = LaneEngine {
            prog,
            nthreads,
            num_locals,
            bufs,
            block: (0, 0, 0),
            stats: BlockStats::default(),
        };
        // Pooled rows survive every block: nothing else writes them and
        // `reset` skips them.
        let base = prog.const_base as usize;
        for (k, c) in prog.const_pool.iter().enumerate() {
            let r = base + k;
            eng.bufs.bits[r * nthreads..(r + 1) * nthreads].fill(pack(*c));
        }
        for c0 in (0..nthreads).step_by(LANES) {
            eng.run_pool(&prog.thread_pool, c0, LANES.min(nthreads - c0), mem);
        }
        eng
    }

    /// Run pooled code over lanes `c0 .. c0 + nl`, one [`Self::op_full`]
    /// per instruction. It counts nothing: each instruction that reads a
    /// pooled register charges the subtree itself (`Program::charges`).
    fn run_pool<M: GlobalMem>(&mut self, code: &[Inst], c0: usize, nl: usize, mem: &mut M) {
        for inst in code {
            let done = self.op_full(inst, false, c0, nl, None, mem);
            assert!(done.is_ok(), "pooled code cannot fault");
        }
    }

    fn reset(&mut self) {
        // Variable registers carry cross-statement state; temporaries are
        // written before read, so only the leading `num_vars` rows need
        // clearing.
        let nv = self.prog.num_vars as usize * self.nthreads;
        self.bufs.bits[..nv].fill(0);
        self.bufs.returned.fill(false);
        for s in &mut self.bufs.shared {
            s.fill(0);
        }
        for l in &mut self.bufs.locals {
            l.fill(0);
        }
    }

    #[inline]
    fn get(&self, r: Reg, t: usize) -> Value {
        unpack(self.bufs.bits[r as usize * self.nthreads + t], self.kind(r))
    }

    /// The static kind of register `r`.
    #[inline]
    fn kind(&self, r: Reg) -> ValueKind {
        self.prog.kinds[r as usize]
    }

    /// Write the first `nl` lanes of `out` to a register row: every lane of
    /// a converged chunk, or only the lanes `mask` marks active.
    #[inline]
    fn store_row(
        &mut self,
        r: Reg,
        c0: usize,
        nl: usize,
        out: &[u64; LANES],
        mask: Option<Active<'_>>,
    ) {
        let base = r as usize * self.nthreads + c0;
        let row = &mut self.bufs.bits[base..base + nl];
        match mask {
            None => row.copy_from_slice(&out[..nl]),
            Some(m) => blend(row, out, m.resume, m.pc),
        }
    }

    /// A register row as memory indices (subscripts are ints).
    #[inline]
    fn idx_row(&self, r: Reg, c0: usize, nl: usize) -> [i64; LANES] {
        let mut ix = [0i64; LANES];
        for (i, b) in ix.iter_mut().zip(self.row(r, c0, nl)) {
            *i = *b as i64;
        }
        ix
    }

    /// Direct borrow of one register's chunk row (no copy).
    #[inline]
    fn row(&self, r: Reg, c0: usize, nl: usize) -> &[u64] {
        let base = r as usize * self.nthreads + c0;
        &self.bufs.bits[base..base + nl]
    }

    /// Broadcast a uniform loop variable to every thread's row.
    fn set_var_all(&mut self, r: Reg, v: Value) {
        let base = r as usize * self.nthreads;
        self.bufs.bits[base..base + self.nthreads].fill(pack(v));
    }

    /// Execute one block; global-memory effects land in `mem`.
    pub(crate) fn run_block<M: GlobalMem>(
        &mut self,
        mem: &mut M,
        block_linear: u64,
    ) -> Result<(), ExecError> {
        self.reset();
        let prog = self.prog;
        self.block = prog.launch.grid.delinearize(block_linear);
        // The block pool, on lane 0, splatted to every thread.
        let n = self.nthreads;
        if n > 0 {
            self.run_pool(&prog.block_pool, 0, 1, mem);
            let rows = prog.block_base() as usize * n..;
            let rows = self.bufs.bits[rows].chunks_exact_mut(n);
            for row in rows.take(prog.block_pool.len()) {
                let v = row[0];
                row.fill(v);
            }
        }
        self.stats.blocks += 1;
        self.stats.active_threads += self.nthreads as u64;
        self.exec_ops(&prog.phases, mem)
    }

    /// The run so far: the counters written directly, and how many times a
    /// thread ran each pc.
    pub(crate) fn tally(&self) -> (BlockStats, &[u64]) {
        (self.stats, &self.bufs.counts)
    }

    fn exec_ops<M: GlobalMem>(&mut self, ops: &[PhaseOp], mem: &mut M) -> Result<(), ExecError> {
        for op in ops {
            match op {
                PhaseOp::Seg { start, end, batch } => {
                    if *batch != BatchKind::No && self.nthreads > 1 {
                        self.seg_lanes(*start, *end, mem)?;
                    } else {
                        self.seg_threads(*start, *end, mem)?;
                    }
                }
                PhaseOp::Barrier => {
                    self.stats.barriers += 1;
                }
                PhaseOp::UniformFor {
                    var,
                    ty,
                    bounds,
                    sreg,
                    ereg,
                    streg,
                    body,
                } => {
                    // Bounds evaluate once, on thread 0 (oracle semantics).
                    self.seg_one(0, bounds.0, bounds.1, mem)?;
                    let s = self.get(*sreg, 0).as_i64();
                    let e = self.get(*ereg, 0).as_i64();
                    let st = self.get(*streg, 0).as_i64();
                    if st == 0 {
                        return Err(ExecError::DivergentBarrier);
                    }
                    let mut v = s;
                    while loop_runs(v, e, st) {
                        self.set_var_all(*var, Value::I64(v).convert_to(*ty));
                        self.exec_ops(body, mem)?;
                        v = v.wrapping_add(st); // as the oracle
                    }
                    self.set_var_all(*var, Value::I64(v).convert_to(*ty));
                }
                PhaseOp::UniformIf {
                    cond,
                    creg,
                    then_ops,
                    else_ops,
                } => {
                    self.seg_one(0, cond.0, cond.1, mem)?;
                    let taken = self.get(*creg, 0).is_true();
                    self.exec_ops(if taken { then_ops } else { else_ops }, mem)?;
                }
            }
        }
        Ok(())
    }

    /// Thread-major fallback for a non-batchable segment: every live thread
    /// runs `code[start..end]` to completion through [`Self::seg_one`],
    /// ascending, as in the oracle.
    fn seg_threads<M: GlobalMem>(
        &mut self,
        start: u32,
        end: u32,
        mem: &mut M,
    ) -> Result<(), ExecError> {
        for t in 0..self.nthreads {
            if !self.bufs.returned[t] {
                self.seg_one(t, start, end, mem)?;
            }
        }
        Ok(())
    }

    /// Run `code[start..end]` for thread `t` alone through [`run_seg`], on
    /// its column of the lane rows: a thread of a thread-major segment, a
    /// uniform bounds/cond snippet on thread 0 (oracle semantics), or the
    /// loop of a lone active lane.
    fn seg_one<M: GlobalMem>(
        &mut self,
        t: usize,
        start: u32,
        end: u32,
        mem: &mut M,
    ) -> Result<(), ExecError> {
        let prog = self.prog;
        let (mut regs, cx, counts) = self.thread(t);
        if run_seg(prog, &mut regs, cx, counts, start, end, mem)? {
            self.bufs.returned[t] = true;
        }
        Ok(())
    }

    /// Run a batchable segment on lanes, chunk-major: each [`LANES`]-wide
    /// chunk executes all of `code[start..end]` before the next chunk starts.
    /// Once a chunk leaves an error pending, later chunks never start (the
    /// oracle never runs those threads).
    fn seg_lanes<M: GlobalMem>(
        &mut self,
        start: u32,
        end: u32,
        mem: &mut M,
    ) -> Result<(), ExecError> {
        let n = self.nthreads;
        let mut pending: Option<ExecError> = None;
        let mut c0 = 0;
        while c0 < n {
            let nl = LANES.min(n - c0);
            self.chunk(start, end, c0, nl, &mut pending, mem);
            if pending.is_some() {
                break;
            }
            c0 += nl;
        }
        match pending {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Execute one lane chunk (`c0 .. c0+nl`) through `code[start..end]`.
    ///
    /// Divergence is predication: lane `i` executes the instruction at `pc`
    /// iff `resume[i] <= pc`; forward jumps raise the target, `Return` or a
    /// fault retires the lane (`DEAD`), and loops move `pc` back
    /// ([`Self::loop_ctl`]). While every lane is live and converged
    /// (`!divergent`) the chunk takes uniform branches by moving `pc`
    /// directly; a partially-taken branch flips it into masked execution,
    /// and full re-convergence (every resume target caught up) flips it
    /// back. Either way a data op is one [`Self::op_full`] over the chunk's
    /// rows, given the active lanes when divergent.
    ///
    /// Faults keep the lowest-thread rule: the faulting lane and everything
    /// above retire, lower lanes continue and may overwrite `pending` with
    /// an error the oracle (which runs them to completion *first*) reports.
    fn chunk<M: GlobalMem>(
        &mut self,
        start: u32,
        end: u32,
        c0: usize,
        nl: usize,
        pending: &mut Option<ExecError>,
        mem: &mut M,
    ) {
        let nl = nl.min(LANES);
        let prog = self.prog;
        let (emask, vmask) = prog.cert_masks();
        let mut resume = [start; LANES];
        let mut divergent = false;
        for (i, r) in resume.iter_mut().enumerate().take(nl) {
            if self.bufs.returned[c0 + i] {
                *r = DEAD;
                divergent = true;
            }
        }
        let mut pc = start;
        while pc < end {
            let inst = &prog.code[pc as usize];
            let mut nact = nl;
            if divergent {
                // Masked execution: recompute the active set, re-converge
                // when every live lane has caught up.
                nact = 0;
                let mut ndead = 0usize;
                for &r in &resume[..nl] {
                    nact += usize::from(r <= pc);
                    ndead += usize::from(r == DEAD);
                }
                if ndead == nl {
                    return;
                }
                if nact == nl {
                    divergent = false;
                    continue;
                }
                if nact == 0 {
                    pc += 1;
                    continue;
                }
            }
            self.bufs.counts[pc as usize] += nact as u64;
            if !divergent {
                match inst {
                    Inst::Jump { target } => {
                        pc = *target;
                        continue;
                    }
                    Inst::Return => {
                        for i in 0..nl {
                            self.bufs.returned[c0 + i] = true;
                        }
                        return;
                    }
                    Inst::JumpIfFalse { cond, target } | Inst::JumpIfTrue { cond, target } => {
                        let jump_if = matches!(inst, Inst::JumpIfTrue { .. });
                        let (cb, ck) = (self.row(*cond, c0, nl), self.kind(*cond));
                        let mut jump = [false; LANES];
                        let mut njump = 0usize;
                        for i in 0..nl {
                            jump[i] = truthy(cb[i], ck) == jump_if;
                            njump += usize::from(jump[i]);
                        }
                        pc =
                            self.branch(&jump, njump, nl, &mut resume, &mut divergent, pc, *target);
                        continue;
                    }
                    Inst::ForInit { .. } | Inst::ForNext { .. } => {
                        let (next, together) =
                            self.loop_ctl(inst, pc, c0, nl, &mut resume, pending, mem);
                        pc = next;
                        divergent = !together;
                        continue;
                    }
                    _ => {}
                }
            } else {
                let control = match inst {
                    Inst::Jump { target } => {
                        for r in &mut resume[..nl] {
                            if *r <= pc {
                                *r = *target;
                            }
                        }
                        true
                    }
                    Inst::Return => {
                        for (i, r) in resume[..nl].iter_mut().enumerate() {
                            if *r <= pc {
                                self.bufs.returned[c0 + i] = true;
                                *r = DEAD;
                            }
                        }
                        true
                    }
                    Inst::JumpIfFalse { cond, target } | Inst::JumpIfTrue { cond, target } => {
                        let jump_if = matches!(inst, Inst::JumpIfTrue { .. });
                        let (cb, ck) = (self.row(*cond, c0, nl), self.kind(*cond));
                        for (r, &b) in resume[..nl].iter_mut().zip(cb) {
                            if *r <= pc && truthy(b, ck) == jump_if {
                                *r = *target;
                            }
                        }
                        true
                    }
                    Inst::ForInit { .. } | Inst::ForNext { .. } => {
                        pc = self.loop_ctl(inst, pc, c0, nl, &mut resume, pending, mem).0;
                        continue;
                    }
                    _ => false,
                };
                if control {
                    pc += 1;
                    continue;
                }
            }
            let elide = emask.is_some_and(|m| m[pc as usize]);
            let mask = divergent.then_some(Active {
                resume: &resume,
                pc,
            });
            if let Err((lane, e)) = self.op_full(inst, elide, c0, nl, mask, mem) {
                // Lanes below the fault committed this op and stay runnable;
                // the faulting lane and above retire (the oracle never runs
                // them).
                resume[lane..nl].fill(DEAD);
                *pending = Some(cert_wrap(e, vmask.is_some_and(|m| m[pc as usize])));
                divergent = true;
            }
            pc += 1;
        }
    }

    /// Run a `ForInit` or `ForNext` for the chunk's active lanes (`resume <=
    /// pc`: all of them while converged) as one pass over the loop's rows
    /// ([`for_init_rows`], [`for_next_rows`]), exactly as [`run_seg`] runs
    /// it per thread. Returns the next pc and whether the active lanes
    /// stayed together (none split off, faulted or returned).
    ///
    /// `ForInit`: a lane that skips the loop waits at `exit`; a zero step
    /// faults the lowest active lane that has one and retires it and every
    /// lane above (those run nothing). A lone active lane that enters runs
    /// the rest of its loop, from the body on, thread-major
    /// ([`Self::seg_one`]): every other lane is dead or waits at or past
    /// `exit`, so there is nothing to batch. The chunk counted its
    /// `ForInit`; `run_seg` counts what it runs after.
    /// `ForNext`: continuing lanes go back, exiting lanes wait at `pc + 1`.
    /// Setting the continuing lanes' `resume` to `back` also drops a forward
    /// target an earlier iteration left behind: a lane still holding one
    /// would sit out the next iteration up to it.
    #[allow(clippy::too_many_arguments)]
    fn loop_ctl<M: GlobalMem>(
        &mut self,
        inst: &Inst,
        pc: u32,
        c0: usize,
        nl: usize,
        resume: &mut [u32; LANES],
        pending: &mut Option<ExecError>,
        mem: &mut M,
    ) -> (u32, bool) {
        let nl = nl.min(LANES);
        match *inst {
            Inst::ForInit {
                var,
                ty,
                start,
                end,
                step,
                exit,
            } => {
                let sb = self.row(step, c0, nl);
                let zero = (0..nl).find(|&i| resume[i] <= pc && sb[i] == 0);
                let upto = zero.unwrap_or(nl);
                let rows = self.loop_rows(c0, upto, [start, var, end, step]);
                let (nact, went) = for_init_rows(rows, ty, &mut resume[..upto], pc, exit);
                let next = if went == 0 { exit } else { pc + 1 };
                if zero.is_some() {
                    resume[upto..nl].fill(DEAD);
                    *pending = Some(ExecError::DivByZero);
                    return (next, false);
                }
                if (nact, went) == (1, 1) {
                    // The entering lane kept its resume target at or before pc.
                    let i = (0..nl)
                        .find(|&i| resume[i] <= pc)
                        .expect("one lane entered");
                    let t = c0 + i;
                    match self.seg_one(t, pc + 1, exit, mem) {
                        Ok(()) if self.bufs.returned[t] => resume[i] = DEAD,
                        Ok(()) => resume[i] = exit,
                        Err(e) => {
                            resume[i..nl].fill(DEAD);
                            *pending = Some(e);
                        }
                    }
                    return (exit, resume[i] == exit);
                }
                (next, went == 0 || went == nact)
            }
            Inst::ForNext {
                var,
                ty,
                ind,
                end,
                step,
                back,
            } => {
                let rows = self.loop_rows(c0, nl, [ind, var, end, step]);
                let (nact, went) = for_next_rows(rows, ty, &mut resume[..nl], pc, back);
                let next = if went == 0 { pc + 1 } else { back };
                (next, went == 0 || went == nact)
            }
            _ => unreachable!("loop_ctl runs loop control only"),
        }
    }

    /// Lanes `c0 .. c0 + nl` of four distinct registers' rows: a loop's
    /// bounds, induction and variable registers, which the loop owns.
    fn loop_rows(&mut self, c0: usize, nl: usize, regs: [Reg; 4]) -> [&mut [u64]; 4] {
        let mut order = [0, 1, 2, 3];
        order.sort_unstable_by_key(|&k| regs[k]);
        let mut rows = self.bufs.bits.chunks_exact_mut(self.nthreads);
        let mut out: [&mut [u64]; 4] = Default::default();
        let mut next = 0;
        for k in order {
            let r = regs[k] as usize;
            let skip = r
                .checked_sub(next)
                .expect("a loop's registers are distinct");
            out[k] = &mut rows.nth(skip).expect("a register's row")[c0..c0 + nl];
            next = r + 1;
        }
        out
    }

    /// Resolve a full-width branch: taken by every lane → move `pc` (stay
    /// converged), taken by none → fall through, split → raise the jumping
    /// lanes' resume targets and go divergent.
    #[allow(clippy::too_many_arguments)]
    fn branch(
        &mut self,
        jump: &[bool; LANES],
        njump: usize,
        nl: usize,
        resume: &mut [u32; LANES],
        divergent: &mut bool,
        pc: u32,
        target: u32,
    ) -> u32 {
        if njump == nl {
            target
        } else if njump == 0 {
            pc + 1
        } else {
            for i in 0..nl {
                if jump[i] {
                    resume[i] = target;
                }
            }
            *divergent = true;
            pc + 1
        }
    }

    /// Execute a data op for the chunk's lanes: all `nl` of a converged
    /// chunk (`mask` is `None`), or the active lanes of a divergent one.
    ///
    /// This is the engine's hot loop: operand rows are read in place, and
    /// the operator and the static kinds of the operand registers pick one
    /// branch-free loop over typed lanes, once per instruction (float
    /// muladds keep the two separate roundings of the oracle — never
    /// `mul_add`). Loads and stores hoist the slot lookup and buffer pointer
    /// out of the per-lane loop. The arithmetic is the scalar definitions
    /// `step` and the oracle share; local-memory accesses and atomics fall
    /// through to [`step`] per lane.
    ///
    /// Under a mask, a register op runs its row loop on every lane and its
    /// row store writes the active lanes only ([`blend`]): an inactive lane
    /// computes on whatever bits its row holds, which only an op that cannot
    /// fault may do, and its result is dropped. The ops that can fault —
    /// `Load`, `Store`, atomics and int `/`/`%` — run [`step`] per active
    /// lane instead. On a fault, lanes below the returned index have
    /// committed the op; the caller retires the rest.
    fn op_full<M: GlobalMem>(
        &mut self,
        inst: &Inst,
        elide: bool,
        c0: usize,
        nl: usize,
        mask: Option<Active<'_>>,
        mem: &mut M,
    ) -> Result<(), LaneFault> {
        // `nl <= LANES` always holds; restating it lets the optimizer drop
        // the bounds checks on `[u64; LANES]` temporaries in the lane loops
        // (verified by the disassembly probes in `tests/asm_probe.rs`).
        let nl = nl.min(LANES);
        let prog = self.prog;
        match inst {
            Inst::Const { dst, v } => self.store_row(*dst, c0, nl, &[pack(*v); LANES], mask),
            Inst::Tid { dst, axis } => {
                let mut out = [0u64; LANES];
                for (i, o) in out.iter_mut().enumerate().take(nl) {
                    *o = axis_of(self.bufs.tids[c0 + i], *axis) as u64;
                }
                self.store_row(*dst, c0, nl, &out, mask);
            }
            Inst::Bid { dst, axis } => {
                let v = axis_of(self.block, *axis) as u64;
                self.store_row(*dst, c0, nl, &[v; LANES], mask);
            }
            Inst::Copy { dst, src } => {
                let n = self.nthreads;
                let sb = *src as usize * n + c0;
                match mask {
                    None => self
                        .bufs
                        .bits
                        .copy_within(sb..sb + nl, *dst as usize * n + c0),
                    Some(_) => {
                        let mut out = [0u64; LANES];
                        out[..nl].copy_from_slice(&self.bufs.bits[sb..sb + nl]);
                        self.store_row(*dst, c0, nl, &out, mask);
                    }
                }
            }
            Inst::Test { dst, src } => {
                let mut out = [0u64; LANES];
                let k = self.kind(*src);
                for (o, b) in out.iter_mut().zip(self.row(*src, c0, nl)) {
                    *o = u64::from(truthy(*b, k));
                }
                self.store_row(*dst, c0, nl, &out, mask);
            }
            Inst::Unary { dst, op, src } => {
                let mut out = [0u64; LANES];
                let k = self.kind(*src);
                let a = self.row(*src, c0, nl);
                per_kind!(k, |F| per_variant!(*op, UnOp, [Neg, Not, BitNot], |op| {
                    map1::<F>(&mut out, a, |v| eval_unop(op, v))
                }));
                self.store_row(*dst, c0, nl, &out, mask);
            }
            Inst::Cast { dst, ty, src } => {
                let mut out = [0u64; LANES];
                let a = self.row(*src, c0, nl);
                per_kind!(self.kind(*src), |F| per_variant!(
                    *ty,
                    Scalar,
                    [U8, I8, I32, U32, I64, F32, F64],
                    |ty| map1::<F>(&mut out, a, |v| v.convert_to(ty))
                ));
                self.store_row(*dst, c0, nl, &out, mask);
            }
            Inst::Intrin1 { dst, f, a } => {
                let mut out = [0u64; LANES];
                let ab = self.row(*a, c0, nl);
                per_kind!(self.kind(*a), |F| per_variant!(
                    *f,
                    Intrinsic, [Exp, Log, Sqrt, Rsqrt, Sin, Cos, Tanh, Erf, Fabs, Floor, Ceil, Abs],
                    |f| map1::<F>(&mut out, ab, |v| eval_intrinsic(f, &[v])),
                    _ => unreachable!("an intrinsic's arity is checked by validation")
                ));
                self.store_row(*dst, c0, nl, &out, mask);
            }
            Inst::Intrin2 { dst, f, a, b } => {
                let mut out = [0u64; LANES];
                let (ab, bb) = (self.row(*a, c0, nl), self.row(*b, c0, nl));
                per_kind!(self.kind(*a), |AF| per_kind!(
                    self.kind(*b),
                    |BF| per_variant!(
                        *f,
                        Intrinsic, [Pow, Fmin, Fmax, Min, Max],
                        |f| map2::<AF, BF>(&mut out, ab, bb, |x, y| eval_intrinsic(f, &[x, y])),
                        _ => unreachable!("an intrinsic's arity is checked by validation")
                    )
                ));
                self.store_row(*dst, c0, nl, &out, mask);
            }
            Inst::Binary { dst, op, lhs, rhs } => {
                let (lk, rk) = (self.kind(*lhs), self.kind(*rhs));
                let float = lk == ValueKind::Float || rk == ValueKind::Float;
                let divides = !float && matches!(op, BinOp::Div | BinOp::Rem);
                if divides && mask.is_some() {
                    return self.lanes_step(inst, elide, c0, nl, mask, mem);
                }
                // An int `/` or `%` faults at the first zero divisor; the
                // lanes below it commit the op before the fault is reported.
                let mut out = [0u64; LANES];
                let rb = self.row(*rhs, c0, nl);
                let zero = if divides {
                    rb.iter().position(|&b| b == 0)
                } else {
                    None
                };
                let n = zero.unwrap_or(nl);
                let (lb, rb) = (self.row(*lhs, c0, n), &rb[..n]);
                per_kind!(lk, |LF| per_kind!(rk, |RF| per_variant!(
                    *op,
                    BinOp,
                    [
                        Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne, And, Or, Xor, Shl, Shr,
                        LAnd, LOr
                    ],
                    |op| map2::<LF, RF>(&mut out, lb, rb, |x, y| {
                        eval_binop_total(op, x, y, LF || RF)
                    })
                )));
                self.store_row(*dst, c0, n, &out, mask);
                if zero.is_some() {
                    return Err((n, ExecError::DivByZero));
                }
            }
            Inst::MulAdd { dst, a, b, c } => {
                let mut out = [0u64; LANES];
                let (ab, bb, cb) = (
                    self.row(*a, c0, nl),
                    self.row(*b, c0, nl),
                    self.row(*c, c0, nl),
                );
                let (ak, bk, ck) = (self.kind(*a), self.kind(*b), self.kind(*c));
                per_kind!(ak, |AF| per_kind!(bk, |BF| per_kind!(ck, |CF| {
                    map3::<AF, BF, CF>(&mut out, ab, bb, cb, muladd::<AF, BF, CF>)
                })));
                self.store_row(*dst, c0, nl, &out, mask);
            }
            Inst::Load { .. } | Inst::Store { .. } if mask.is_some() => {
                return self.lanes_step(inst, elide, c0, nl, mask, mem);
            }
            Inst::Load { dst, slot, idx } => {
                let mut out = [0u64; LANES];
                let info = slot_info(prog, *slot);
                let ix = self.idx_row(*idx, c0, nl);
                match info.kind {
                    SlotKind::Global { buf } => {
                        let (ptr, len) = mem.raw(buf);
                        if let Err(i) = gather_cert(ptr, len, info.elem, &ix, nl, &mut out, elide) {
                            self.store_row(*dst, c0, i, &out, None);
                            return Err((i, oob(info, ix[i], mem)));
                        }
                    }
                    SlotKind::Shared { idx: si } => {
                        let sh = &self.bufs.shared[si as usize];
                        let (sp, slen) = (sh.as_ptr(), sh.len());
                        if let Err(i) = gather_cert(sp, slen, info.elem, &ix, nl, &mut out, elide) {
                            self.store_row(*dst, c0, i, &out, None);
                            return Err((i, oob(info, ix[i], mem)));
                        }
                    }
                    SlotKind::Local { .. } => {
                        return self.lanes_step(inst, elide, c0, nl, None, mem)
                    }
                }
                self.store_row(*dst, c0, nl, &out, None);
            }
            Inst::Store { slot, idx, val } => {
                let info = slot_info(prog, *slot);
                let ix = self.idx_row(*idx, c0, nl);
                let vk = self.kind(*val);
                let pv = *val as usize * self.nthreads + c0;
                let vb = &self.bufs.bits[pv..pv + nl];
                let (ptr, len) = match info.kind {
                    SlotKind::Global { buf } => mem.raw_mut(buf),
                    SlotKind::Shared { idx: si } => {
                        let sh = &mut self.bufs.shared[si as usize];
                        (sh.as_mut_ptr(), sh.len())
                    }
                    SlotKind::Local { .. } => {
                        return self.lanes_step(inst, elide, c0, nl, None, mem)
                    }
                };
                if let Err(i) = scatter_cert(ptr, len, info.elem, &ix, vb, vk, nl, elide) {
                    return Err((i, oob(info, ix[i], mem)));
                }
            }
            // Rare in batchable segments: per-lane scalar execution.
            Inst::AtomicRmw { .. } => return self.lanes_step(inst, elide, c0, nl, mask, mem),
            Inst::Jump { .. }
            | Inst::JumpIfFalse { .. }
            | Inst::JumpIfTrue { .. }
            | Inst::Return => unreachable!("control flow is handled by `chunk`"),
            Inst::ForInit { .. } | Inst::ForNext { .. } => {
                unreachable!("loop control is `loop_ctl`'s")
            }
        }
        Ok(())
    }

    /// [`step`] per lane, ascending, for the chunk's lanes (all `nl`, or the
    /// ones `mask` marks active): ops without a row loop, and the ops that
    /// can fault under a mask. On a fault, lanes below the returned index
    /// have committed the op.
    fn lanes_step<M: GlobalMem>(
        &mut self,
        inst: &Inst,
        elide: bool,
        c0: usize,
        nl: usize,
        mask: Option<Active<'_>>,
        mem: &mut M,
    ) -> Result<(), LaneFault> {
        for i in 0..nl.min(LANES) {
            if mask.is_none_or(|m| m.resume[i] <= m.pc) {
                self.step_at(inst, elide, c0 + i, mem).map_err(|e| (i, e))?;
            }
        }
        Ok(())
    }

    /// Thread `t`'s column of the lane rows, the rest of what a [`step`]
    /// touches and the per-pc counts, split from the engine's buffers in one
    /// place.
    #[inline]
    fn thread(&mut self, t: usize) -> (Column<'_>, ThreadCx<'_>, &mut [u64]) {
        let nloc = self.num_locals;
        let bufs = &mut self.bufs;
        let regs = Column {
            bits: &mut bufs.bits,
            kinds: &self.prog.kinds,
            at: t,
            stride: self.nthreads,
        };
        let cx = ThreadCx {
            shared: &mut bufs.shared,
            local: &mut bufs.locals[t * nloc..(t + 1) * nloc],
        };
        (regs, cx, &mut bufs.counts)
    }

    /// [`step`] for thread `t` on its column of the lane rows: a lane of an
    /// op that has no row loop, or an active lane of an op that can fault.
    #[inline]
    fn step_at<M: GlobalMem>(
        &mut self,
        inst: &Inst,
        elide: bool,
        t: usize,
        mem: &mut M,
    ) -> Result<(), ExecError> {
        let prog = self.prog;
        let (mut regs, mut cx, _) = self.thread(t);
        step(prog, inst, elide, &mut regs, &mut cx, mem)
    }
}
