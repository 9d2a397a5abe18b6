//! The compiled engine: lane-array execution with a thread-major fallback.
//!
//! Every compiled [`Program`] runs here (the tree-walk interpreter is the
//! oracle it is tested against). Batchable segments run *instruction-major
//! over chunked lane-arrays*: the register file is struct-of-arrays
//! (`bits`/`kinds`, reg-major), threads are processed in fixed-width chunks
//! of [`LANES`], and each chunk executes the segment's [`Inst`]s — the same
//! instruction stream the thread-major fallback runs — with branch-free
//! inner loops over contiguous `u64` rows the compiler can autovectorize
//! (`op_full`; its arithmetic is the lanes' own, judged by the oracle).
//! `Predicated` segments carry a per-lane `resume` mask; a masked lane, and
//! any op without a row loop, is one [`step`] on the thread's [`Column`] of
//! the rows — the definition [`run_seg`] runs, so there is no per-lane
//! semantics here to keep in line with it. Non-batchable segments run
//! thread-major through [`run_seg`], a chunk of threads at a time, with only
//! the registers the segment names staged between the lane rows and
//! per-thread windows ([`crate::bytecode::SegStage`]). Bounds certificates
//! are consumed per access: one per-pc table serves full-width rows, masked
//! lanes and the fallback alike, and one [`gather`]/[`scatter`] pair serves
//! the checked and the certified access (`CERT`). `BlockStats`, memory
//! effects and errors are bit-identical to the oracle's either way.
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

use crate::bytecode::{BatchKind, Inst, PhaseOp, Program, Reg, SegStage, SlotKind};
use crate::engine::{
    cert_wrap, count_op, elem_off, for_init, for_next, oob, run_seg, slot_info, step, GlobalMem,
    RegView, ThreadCx,
};
use crate::interp::{
    axis_of, binop_faults, eval_binop_total, eval_intrinsic, eval_unop, ExecError,
};
use crate::stats::{intrinsic_weight, BlockStats};
use cucc_ir::{BinOp, Scalar, Value, ValueKind};

/// Lane-chunk width: one chunk of threads runs the whole segment before the
/// next chunk starts. 16 × 8-byte rows keep a chunk's working set inside two
/// cache lines per register while giving AVX2/AVX-512 full vectors.
pub const LANES: usize = 16;

const DEAD: u32 = u32::MAX;

#[inline]
fn pack(v: Value) -> (u64, u8) {
    match v {
        Value::I64(i) => (i as u64, 0),
        Value::F64(f) => (f.to_bits(), 1),
    }
}

#[inline]
fn unpack(bits: u64, kind: u8) -> Value {
    if kind == 0 {
        Value::I64(bits as i64)
    } else {
        Value::F64(f64::from_bits(bits))
    }
}

/// Branch-free truthiness on the packed representation: ints are true when
/// nonzero; floats when not ±0.0 (shifting out the sign bit — NaN stays
/// true), matching `Value::is_true`.
#[inline]
fn truthy(bits: u64, kind: u8) -> bool {
    if kind == 0 {
        bits != 0
    } else {
        (bits << 1) != 0
    }
}

#[inline]
fn as_index(bits: u64, kind: u8) -> i64 {
    if kind == 0 {
        bits as i64
    } else {
        f64::from_bits(bits) as i64
    }
}

/// `Some(kind)` when every lane of the row holds the same value kind — the
/// gate for the branch-free all-float / all-int fast loops. A full chunk
/// (`LANES` = 16 lanes) is one 16-byte compare.
#[inline]
fn uniform(kinds: &[u8]) -> Option<u8> {
    let k = kinds[0];
    if let Ok(arr) = <&[u8; LANES]>::try_from(kinds) {
        let splat = u128::from(k) * (u128::MAX / 0xff);
        if u128::from_ne_bytes(*arr) == splat {
            Some(k)
        } else {
            None
        }
    } else if kinds.iter().all(|&x| x == k) {
        Some(k)
    } else {
        None
    }
}

/// Infallible int binary op on i64 lanes — exact mirror of
/// `eval_binop_total`'s int path. Callers pre-check `Div`/`Rem` divisors.
#[inline]
fn ibin(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Shr => a.wrapping_shr(b as u32 & 63),
        BinOp::LAnd => i64::from(a != 0 && b != 0),
        BinOp::LOr => i64::from(a != 0 || b != 0),
    }
}

/// Float arithmetic ops that have a branch-free all-float lane loop (same
/// result as `eval_binop_total`'s float path).
#[inline]
fn fbin_arith(op: BinOp, a: f64, b: f64) -> Option<f64> {
    match op {
        BinOp::Add => Some(a + b),
        BinOp::Sub => Some(a - b),
        BinOp::Mul => Some(a * b),
        BinOp::Div => Some(a / b),
        _ => None,
    }
}

#[inline]
fn fcmp(op: BinOp, a: f64, b: f64) -> Option<i64> {
    match op {
        BinOp::Lt => Some(i64::from(a < b)),
        BinOp::Le => Some(i64::from(a <= b)),
        BinOp::Gt => Some(i64::from(a > b)),
        BinOp::Ge => Some(i64::from(a >= b)),
        BinOp::Eq => Some(i64::from(a == b)),
        BinOp::Ne => Some(i64::from(a != b)),
        _ => None,
    }
}

/// `Value::as_f64` on the packed representation.
#[inline]
fn lane_f64(bits: u64, kind: u8) -> f64 {
    if kind == 0 {
        bits as i64 as f64
    } else {
        f64::from_bits(bits)
    }
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

/// Scatter `nl` packed lanes into a raw buffer view — `raw_store ∘ unpack`
/// per lane (same C narrowing as `encode`), dispatch hoisted, `CERT` as in
/// [`gather`]. `Err(i)` is the first faulting lane; lanes below committed.
///
/// # Safety
/// Same contract as [`gather`].
#[inline]
unsafe fn scatter<const CERT: bool>(
    ptr: *mut u8,
    len: usize,
    elem: Scalar,
    ix: &[i64; LANES],
    vb: &[u64],
    vk: &[u8],
    nl: usize,
) -> Result<(), usize> {
    let sz = elem.size();
    macro_rules! per_lane {
        ($t:ty, $conv:expr) => {
            for i in 0..nl {
                let Some(off) = elem_off(ix[i], sz, len, CERT) else {
                    return Err(i);
                };
                let enc: $t = $conv(vb[i], vk[i]);
                // `off + sz <= len`, tested or certified by `elem_off`.
                std::ptr::write_unaligned(ptr.add(off) as *mut $t, enc.to_le());
            }
        };
    }
    match elem {
        Scalar::U8 => per_lane!(u8, |b, k| as_index(b, k) as u8),
        Scalar::I8 => per_lane!(u8, |b, k| as_index(b, k) as i8 as u8),
        Scalar::I32 => per_lane!(u32, |b, k| as_index(b, k) as i32 as u32),
        Scalar::U32 => per_lane!(u32, |b, k| as_index(b, k) as u32),
        Scalar::I64 => per_lane!(u64, |b, k| as_index(b, k) as u64),
        Scalar::F32 => per_lane!(u32, |b, k| (lane_f64(b, k) as f32).to_bits()),
        Scalar::F64 => per_lane!(u64, |b, k| lane_f64(b, k).to_bits()),
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
/// `Option` (a fault return, never a panic), and the `out[i]` / `vb[i]` /
/// `vk[i]` indexing of the `[u64; LANES]` temporaries is dominated by
/// `nl <= LANES`, which the optimizer proves from the `nl.min(LANES)`
/// restatement. `tests/asm_probe.rs` disassembles these symbols in
/// release builds and fails if a bounds-check panic reappears.
#[doc(hidden)]
pub mod probe {
    use super::{gather, gather_cert, scatter, scatter_cert, LANES};
    use cucc_ir::Scalar;

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

    /// Checked per-lane scatter (`scatter::<false>`, likewise).
    #[inline(never)]
    pub fn scatter_checked(
        ptr: *mut u8,
        len: usize,
        elem: Scalar,
        ix: &[i64; LANES],
        vb: &[u64],
        vk: &[u8],
        nl: usize,
    ) -> Result<(), usize> {
        scatter_cert(ptr, len, elem, ix, vb, vk, nl, false)
    }

    /// Certificate-elided scatter (`scatter::<true>`).
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
        vk: &[u8],
        nl: usize,
    ) {
        let _ = scatter::<true>(ptr, len, elem, ix, vb, vk, nl);
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

/// Scatter counterpart of [`gather_cert`].
#[inline]
#[allow(clippy::too_many_arguments)]
fn scatter_cert(
    ptr: *mut u8,
    len: usize,
    elem: Scalar,
    ix: &[i64; LANES],
    vb: &[u64],
    vk: &[u8],
    nl: usize,
    elide: bool,
) -> Result<(), usize> {
    // SAFETY: as in `gather_cert`.
    unsafe {
        if elide {
            scatter::<true>(ptr, len, elem, ix, vb, vk, nl)
        } else {
            scatter::<false>(ptr, len, elem, ix, vb, vk, nl)
        }
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
    /// Reg-major packed register values: register `r`, thread `t` lives at
    /// `bits[r * nthreads + t]`.
    bits: Vec<u64>,
    /// Value kind per register per thread (`0` = int, `1` = float),
    /// same layout as `bits`.
    kinds: Vec<u8>,
    returned: Vec<bool>,
    tids: Vec<(u32, u32, u32)>,
    shared: Vec<Vec<u8>>,
    /// Thread-major local arrays: `locals[t * num_locals + l]`.
    locals: Vec<Vec<u8>>,
    /// Staging for the thread-major fallback: [`LANES`] per-thread `run_seg`
    /// windows of `num_regs` values each, the pooled constants pre-splatted.
    scratch: Vec<Value>,
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
/// thread `at` lives at `r * stride + at`.
struct Column<'a> {
    bits: &'a mut [u64],
    kinds: &'a mut [u8],
    at: usize,
    stride: usize,
}

impl RegView for Column<'_> {
    #[inline(always)]
    fn get(&self, r: Reg) -> Value {
        let i = r as usize * self.stride + self.at;
        unpack(self.bits[i], self.kinds[i])
    }

    #[inline(always)]
    fn set(&mut self, r: Reg, v: Value) {
        let i = r as usize * self.stride + self.at;
        (self.bits[i], self.kinds[i]) = pack(v);
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
    stats: BlockStats,
}

impl Drop for LaneEngine<'_> {
    fn drop(&mut self) {
        PARKED.set(std::mem::take(&mut self.bufs));
    }
}

impl<'p> LaneEngine<'p> {
    pub(crate) fn new(prog: &'p Program) -> LaneEngine<'p> {
        let nthreads = prog.launch.threads_per_block() as usize;
        let num_regs = prog.num_regs as usize;
        let num_locals = prog.local_sizes.len();
        let mut bufs = PARKED.take();
        bufs.tids.clear();
        let tids = (0..nthreads).map(|t| prog.launch.block.delinearize(t as u64));
        bufs.tids.extend(tids);
        refill(&mut bufs.bits, num_regs * nthreads, 0);
        refill(&mut bufs.kinds, num_regs * nthreads, 0);
        refill(&mut bufs.returned, nthreads, false);
        refill(&mut bufs.scratch, LANES * num_regs, Value::I64(0));
        let shared_sizes = prog.shared_sizes.iter().copied();
        refill_each(&mut bufs.shared, prog.shared_sizes.len(), shared_sizes);
        let local_sizes = prog.local_sizes.iter().copied().cycle();
        refill_each(&mut bufs.locals, nthreads * num_locals, local_sizes);
        let mut eng = LaneEngine {
            prog,
            nthreads,
            num_locals,
            bufs,
            block: (0, 0, 0),
            stats: BlockStats::default(),
        };
        // Launch-invariant rows are splatted once and survive every block:
        // nothing writes them and `reset` skips them.
        let base = prog.const_base as usize;
        for (k, c) in prog.const_pool.iter().enumerate() {
            let (b, kd) = pack(*c);
            let r = base + k;
            eng.bufs.bits[r * nthreads..(r + 1) * nthreads].fill(b);
            eng.bufs.kinds[r * nthreads..(r + 1) * nthreads].fill(kd);
        }
        let tid_base = base + prog.const_pool.len();
        // `finish_regs` never lays out an empty register file.
        for w in eng.bufs.scratch.chunks_exact_mut(num_regs) {
            w[base..tid_base].copy_from_slice(&prog.const_pool);
        }
        for (k, axis) in prog.tid_pool.iter().enumerate() {
            let r = tid_base + k;
            for t in 0..nthreads {
                eng.bufs.bits[r * nthreads + t] = axis_of(eng.bufs.tids[t], *axis) as u64;
            }
        }
        eng
    }

    fn reset(&mut self) {
        // Variable registers carry cross-statement state; temporaries are
        // written before read, so only the leading `num_vars` rows (and the
        // `I64(0)` kind) need clearing.
        let nv = self.prog.num_vars as usize * self.nthreads;
        self.bufs.bits[..nv].fill(0);
        self.bufs.kinds[..nv].fill(0);
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
        let i = r as usize * self.nthreads + t;
        unpack(self.bufs.bits[i], self.bufs.kinds[i])
    }

    /// Copy one register's chunk row into stack arrays (lanes past `nl` are
    /// zero-padded and never read).
    #[inline]
    fn load_row(&self, r: Reg, c0: usize, nl: usize) -> ([u64; LANES], [u8; LANES]) {
        let base = r as usize * self.nthreads + c0;
        let mut b = [0u64; LANES];
        let mut k = [0u8; LANES];
        b[..nl].copy_from_slice(&self.bufs.bits[base..base + nl]);
        k[..nl].copy_from_slice(&self.bufs.kinds[base..base + nl]);
        (b, k)
    }

    /// Write the first `nl` lanes of `out` to a register row with a uniform
    /// value kind.
    #[inline]
    fn store_row(&mut self, r: Reg, c0: usize, nl: usize, out: &[u64; LANES], kind: u8) {
        let base = r as usize * self.nthreads + c0;
        self.bufs.bits[base..base + nl].copy_from_slice(&out[..nl]);
        self.bufs.kinds[base..base + nl].fill(kind);
    }

    #[inline]
    fn store_row_mixed(
        &mut self,
        r: Reg,
        c0: usize,
        nl: usize,
        out: &[u64; LANES],
        kinds: &[u8; LANES],
    ) {
        let base = r as usize * self.nthreads + c0;
        self.bufs.bits[base..base + nl].copy_from_slice(&out[..nl]);
        self.bufs.kinds[base..base + nl].copy_from_slice(&kinds[..nl]);
    }

    /// Gather a register row as memory indices (`Value::as_i64` per lane).
    #[inline]
    fn idx_row(&self, r: Reg, c0: usize, nl: usize) -> [i64; LANES] {
        let base = r as usize * self.nthreads + c0;
        let bs = &self.bufs.bits[base..base + nl];
        let ks = &self.bufs.kinds[base..base + nl];
        let mut ix = [0i64; LANES];
        if uniform(ks) == Some(0) {
            for i in 0..nl {
                ix[i] = bs[i] as i64;
            }
        } else {
            for i in 0..nl {
                ix[i] = as_index(bs[i], ks[i]);
            }
        }
        ix
    }

    /// Direct borrow of one register's chunk row (no copy) — bits and kinds.
    #[inline]
    fn row(&self, r: Reg, c0: usize, nl: usize) -> (&[u64], &[u8]) {
        let base = r as usize * self.nthreads + c0;
        (
            &self.bufs.bits[base..base + nl],
            &self.bufs.kinds[base..base + nl],
        )
    }

    /// Broadcast a uniform loop variable to every thread's row.
    fn set_var_all(&mut self, r: Reg, v: Value) {
        let (b, k) = pack(v);
        let base = r as usize * self.nthreads;
        self.bufs.bits[base..base + self.nthreads].fill(b);
        self.bufs.kinds[base..base + self.nthreads].fill(k);
    }

    /// Execute one block; global-memory effects land in `mem`.
    pub(crate) fn run_block<M: GlobalMem>(
        &mut self,
        mem: &mut M,
        block_linear: u64,
    ) -> Result<BlockStats, ExecError> {
        self.reset();
        self.block = self.prog.launch.grid.delinearize(block_linear);
        self.stats = BlockStats {
            blocks: 1,
            active_threads: self.nthreads as u64,
            ..BlockStats::default()
        };
        let prog = self.prog;
        self.exec_ops(&prog.phases, mem)?;
        Ok(self.stats)
    }

    fn exec_ops<M: GlobalMem>(&mut self, ops: &[PhaseOp], mem: &mut M) -> Result<(), ExecError> {
        for op in ops {
            match op {
                PhaseOp::Seg {
                    start,
                    end,
                    batch,
                    stage,
                } => {
                    if *batch != BatchKind::No && self.nthreads > 1 {
                        self.seg_lanes(*start, *end, mem)?;
                    } else {
                        self.seg_threads(*start, *end, stage, mem)?;
                    }
                }
                PhaseOp::Barrier => {
                    self.stats.barriers += 1;
                }
                PhaseOp::UniformFor {
                    var,
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
                    while (st > 0 && v < e) || (st < 0 && v > e) {
                        self.set_var_all(*var, Value::I64(v));
                        self.exec_ops(body, mem)?;
                        v = v.wrapping_add(st); // as the oracle
                    }
                    self.set_var_all(*var, Value::I64(v));
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
    /// runs `code[start..end]` to completion through [`run_seg`], ascending,
    /// as in the oracle. Threads are staged a chunk at a time — `stage.load`
    /// rows into the chunk's windows, the threads run, `stage.store` rows
    /// back. Registers are thread-private, so staging a whole chunk up front
    /// is unobservable; temporaries never cross a segment boundary, so they
    /// are not staged at all.
    fn seg_threads<M: GlobalMem>(
        &mut self,
        start: u32,
        end: u32,
        stage: &SegStage,
        mem: &mut M,
    ) -> Result<(), ExecError> {
        let n = self.nthreads;
        let nloc = self.num_locals;
        let prog = self.prog;
        let nr = prog.num_regs as usize;
        let bufs = &mut self.bufs;
        for c0 in (0..n).step_by(LANES) {
            let nl = LANES.min(n - c0);
            for &r in &stage.load {
                let (r, row) = (r as usize, r as usize * n + c0);
                let lanes = bufs.bits[row..row + nl]
                    .iter()
                    .zip(&bufs.kinds[row..row + nl]);
                for (w, (&b, &k)) in bufs.scratch[r..].iter_mut().step_by(nr).zip(lanes) {
                    *w = unpack(b, k);
                }
            }
            for i in 0..nl {
                let t = c0 + i;
                if bufs.returned[t] {
                    continue;
                }
                let cx = ThreadCx {
                    shared: &mut bufs.shared,
                    local: &mut bufs.locals[t * nloc..(t + 1) * nloc],
                    stats: &mut self.stats,
                    block: self.block,
                    tid: bufs.tids[t],
                };
                let regs = &mut bufs.scratch[i * nr..(i + 1) * nr];
                run_seg(prog, regs, cx, &mut bufs.returned[t], start, end, mem)?;
            }
            for &r in &stage.store {
                let (r, row) = (r as usize, r as usize * n + c0);
                let lanes = bufs.bits[row..row + nl]
                    .iter_mut()
                    .zip(&mut bufs.kinds[row..row + nl]);
                for (w, (b, k)) in bufs.scratch[r..].iter().step_by(nr).zip(lanes) {
                    (*b, *k) = pack(*w);
                }
            }
        }
        Ok(())
    }

    /// Run `code[start..end]` for thread `t` alone through [`run_seg`]: a
    /// uniform bounds/cond snippet on thread 0 (oracle semantics), or the
    /// loop of a lone active lane. The caller may read temporaries the code
    /// left behind, so all of the thread's registers go through the window
    /// and back.
    fn seg_one<M: GlobalMem>(
        &mut self,
        t: usize,
        start: u32,
        end: u32,
        mem: &mut M,
    ) -> Result<(), ExecError> {
        let n = self.nthreads;
        let nloc = self.num_locals;
        let prog = self.prog;
        let nr = prog.num_regs as usize;
        let bufs = &mut self.bufs;
        for r in 0..nr {
            bufs.scratch[r] = unpack(bufs.bits[r * n + t], bufs.kinds[r * n + t]);
        }
        let cx = ThreadCx {
            shared: &mut bufs.shared,
            local: &mut bufs.locals[t * nloc..(t + 1) * nloc],
            stats: &mut self.stats,
            block: self.block,
            tid: bufs.tids[t],
        };
        let regs = &mut bufs.scratch[..nr];
        let res = run_seg(prog, regs, cx, &mut bufs.returned[t], start, end, mem);
        for r in 0..prog.const_base as usize {
            (bufs.bits[r * n + t], bufs.kinds[r * n + t]) = pack(bufs.scratch[r]);
        }
        res
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
    /// ([`Self::loop_ctl`]). While every lane is live and
    /// converged (`!divergent`) the chunk runs the branch-free full-width
    /// fast paths and takes uniform branches by moving `pc` directly; a
    /// partially-taken branch flips it into masked per-lane execution, and
    /// full re-convergence (every resume target caught up) flips it back.
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
        let elide = |pc: u32| emask.is_some_and(|m| m[pc as usize]);
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
                    Inst::JumpIfFalse {
                        cond,
                        target,
                        int_ops,
                    }
                    | Inst::JumpIfTrue {
                        cond,
                        target,
                        int_ops,
                    } => {
                        let jump_if = matches!(inst, Inst::JumpIfTrue { .. });
                        self.stats.int_ops += nl as u64 * u64::from(*int_ops);
                        let (cb, ck) = self.row(*cond, c0, nl);
                        let mut jump = [false; LANES];
                        let mut njump = 0usize;
                        for i in 0..nl {
                            jump[i] = truthy(cb[i], ck[i]) == jump_if;
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
                    _ => {
                        match self.op_full(inst, elide(pc), c0, nl, mem) {
                            Ok(()) => {}
                            Err((lane, e)) => {
                                // Lanes below the fault committed this op and
                                // stay runnable; the faulting lane and above
                                // retire (the oracle never runs them).
                                for r in &mut resume[..lane] {
                                    *r = start;
                                }
                                for r in &mut resume[lane..nl] {
                                    *r = DEAD;
                                }
                                *pending =
                                    Some(cert_wrap(e, vmask.is_some_and(|m| m[pc as usize])));
                                divergent = true;
                            }
                        }
                    }
                }
                pc += 1;
                continue;
            }
            // Masked execution: recompute the active set, re-converge when
            // every live lane has caught up.
            let mut nact = 0usize;
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
            match inst {
                Inst::Jump { target } => {
                    for r in &mut resume[..nl] {
                        if *r <= pc {
                            *r = *target;
                        }
                    }
                }
                Inst::Return => {
                    for (i, r) in resume[..nl].iter_mut().enumerate() {
                        if *r <= pc {
                            self.bufs.returned[c0 + i] = true;
                            *r = DEAD;
                        }
                    }
                }
                Inst::JumpIfFalse {
                    cond,
                    target,
                    int_ops,
                }
                | Inst::JumpIfTrue {
                    cond,
                    target,
                    int_ops,
                } => {
                    let jump_if = matches!(inst, Inst::JumpIfTrue { .. });
                    self.stats.int_ops += nact as u64 * u64::from(*int_ops);
                    for (i, r) in resume.iter_mut().enumerate().take(nl) {
                        if *r <= pc && (self.get(*cond, c0 + i).is_true() == jump_if) {
                            *r = *target;
                        }
                    }
                }
                Inst::ForInit { .. } | Inst::ForNext { .. } => {
                    pc = self.loop_ctl(inst, pc, c0, nl, &mut resume, pending, mem).0;
                    continue;
                }
                _ => {
                    let elide = elide(pc);
                    for i in 0..nl {
                        if resume[i] <= pc {
                            if let Err(e) = self.step_at(inst, elide, c0 + i, mem) {
                                // Lower lanes already ran this op; this lane
                                // and everything above retire.
                                for r in &mut resume[i..nl] {
                                    *r = DEAD;
                                }
                                *pending =
                                    Some(cert_wrap(e, vmask.is_some_and(|m| m[pc as usize])));
                                break;
                            }
                        }
                    }
                }
            }
            pc += 1;
        }
    }

    /// Run a `ForInit` or `ForNext` for the chunk's active lanes (`resume <=
    /// pc`: all of them while converged), exactly as [`run_seg`] runs it per
    /// thread. Returns the next pc and whether the active lanes stayed
    /// together (none split off, faulted or returned).
    ///
    /// `ForInit`: a lane that skips the loop waits at `exit`; a zero step
    /// faults the lane and retires it and every lane above. A lone active
    /// lane runs the whole loop thread-major ([`Self::seg_one`]): every other
    /// lane is dead or waits at or past `exit`, so there is nothing to batch.
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
        let mut nact = 0usize;
        let mut went = 0usize;
        match *inst {
            Inst::ForInit {
                var,
                start,
                end,
                step,
                exit,
            } => {
                let mut act = (0..nl).filter(|&i| resume[i] <= pc);
                if let (Some(i), None) = (act.next(), act.next()) {
                    let t = c0 + i;
                    match self.seg_one(t, pc, exit, mem) {
                        Ok(()) if self.bufs.returned[t] => resume[i] = DEAD,
                        Ok(()) => resume[i] = exit,
                        Err(e) => {
                            resume[i..nl].fill(DEAD);
                            *pending = Some(e);
                        }
                    }
                    return (exit, resume[i] == exit);
                }
                for i in 0..nl {
                    if resume[i] > pc {
                        continue;
                    }
                    nact += 1;
                    match for_init(&mut self.column(c0 + i), var, start, end, step) {
                        Ok(true) => went += 1,
                        Ok(false) => resume[i] = exit,
                        Err(e) => {
                            resume[i..nl].fill(DEAD);
                            *pending = Some(e);
                            return (if went == 0 { exit } else { pc + 1 }, false);
                        }
                    }
                }
                let next = if went == 0 { exit } else { pc + 1 };
                (next, went == 0 || went == nact)
            }
            Inst::ForNext {
                var,
                ind,
                end,
                step,
                back,
            } => {
                for (i, r) in resume[..nl].iter_mut().enumerate() {
                    if *r > pc {
                        continue;
                    }
                    nact += 1;
                    if for_next(&mut self.column(c0 + i), var, ind, end, step) {
                        *r = back;
                        went += 1;
                    } else {
                        *r = pc + 1;
                    }
                }
                self.stats.int_ops += 2 * nact as u64;
                let next = if went == 0 { pc + 1 } else { back };
                (next, went == 0 || went == nact)
            }
            _ => unreachable!("loop_ctl runs loop control only"),
        }
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

    /// Execute a data op for every lane of a fully-active chunk.
    ///
    /// This is the engine's hot loop: operand rows are copied into stack
    /// arrays, the common uniform-kind cases run branch-free loops over raw
    /// `u64`/`i64`/`f64` lanes (float muladds keep the two separate
    /// roundings of the oracle — never `mul_add`), and loads and stores
    /// hoist the slot lookup and buffer pointer out of the per-lane loop.
    /// Anything rare falls through to [`step`] per lane. On a
    /// fault, lanes below the returned index have committed the op; the
    /// caller retires the rest.
    fn op_full<M: GlobalMem>(
        &mut self,
        inst: &Inst,
        elide: bool,
        c0: usize,
        nl: usize,
        mem: &mut M,
    ) -> Result<(), LaneFault> {
        // `nl <= LANES` always holds; restating it lets the optimizer drop
        // the bounds checks on `[u64; LANES]` temporaries in the lane loops
        // (verified by the disassembly probes in `tests/asm_probe.rs`).
        let nl = nl.min(LANES);
        let n64 = nl as u64;
        let prog = self.prog;
        match inst {
            Inst::Const {
                dst,
                v,
                int_ops,
                float_ops,
            } => {
                let (b, k) = pack(*v);
                self.store_row(*dst, c0, nl, &[b; LANES], k);
                self.stats.int_ops += n64 * u64::from(*int_ops);
                self.stats.float_ops += n64 * u64::from(*float_ops);
            }
            Inst::Tid { dst, axis } => {
                let mut out = [0u64; LANES];
                for (i, o) in out.iter_mut().enumerate().take(nl) {
                    *o = axis_of(self.bufs.tids[c0 + i], *axis) as u64;
                }
                self.store_row(*dst, c0, nl, &out, 0);
            }
            Inst::Bid { dst, axis } => {
                let v = axis_of(self.block, *axis) as u64;
                self.store_row(*dst, c0, nl, &[v; LANES], 0);
            }
            Inst::Copy { dst, src } => {
                let n = self.nthreads;
                let (sb, db) = (*src as usize * n + c0, *dst as usize * n + c0);
                self.bufs.bits.copy_within(sb..sb + nl, db);
                self.bufs.kinds.copy_within(sb..sb + nl, db);
            }
            Inst::Test { dst, src } => {
                let (b, k) = self.row(*src, c0, nl);
                let mut out = [0u64; LANES];
                for i in 0..nl {
                    out[i] = u64::from(truthy(b[i], k[i]));
                }
                self.store_row(*dst, c0, nl, &out, 0);
            }
            Inst::Unary { dst, op, src } => {
                let (b, k) = self.load_row(*src, c0, nl);
                let mut out = [0u64; LANES];
                let mut ok = [0u8; LANES];
                for i in 0..nl {
                    let a = unpack(b[i], k[i]);
                    count_op(&mut self.stats, a.kind());
                    let (ob, okd) = pack(eval_unop(*op, a));
                    out[i] = ob;
                    ok[i] = okd;
                }
                self.store_row_mixed(*dst, c0, nl, &out, &ok);
            }
            Inst::Cast { dst, ty, src } => {
                let (b, k) = self.load_row(*src, c0, nl);
                let mut out = [0u64; LANES];
                for i in 0..nl {
                    out[i] = pack(unpack(b[i], k[i]).convert_to(*ty)).0;
                }
                let okind = match ty.kind() {
                    ValueKind::Int => {
                        self.stats.int_ops += n64;
                        0
                    }
                    ValueKind::Float => {
                        self.stats.float_ops += n64;
                        1
                    }
                };
                self.store_row(*dst, c0, nl, &out, okind);
            }
            Inst::Intrin1 { dst, f, a } => {
                let (b, k) = self.load_row(*a, c0, nl);
                let mut out = [0u64; LANES];
                let mut ok = [0u8; LANES];
                for i in 0..nl {
                    let (ob, okd) = pack(eval_intrinsic(*f, &[unpack(b[i], k[i])]));
                    out[i] = ob;
                    ok[i] = okd;
                }
                self.stats.float_ops += n64 * intrinsic_weight(*f);
                self.store_row_mixed(*dst, c0, nl, &out, &ok);
            }
            Inst::Intrin2 { dst, f, a, b } => {
                let (ab, ak) = self.load_row(*a, c0, nl);
                let (bb, bk) = self.load_row(*b, c0, nl);
                let mut out = [0u64; LANES];
                let mut ok = [0u8; LANES];
                for i in 0..nl {
                    let (ob, okd) = pack(eval_intrinsic(
                        *f,
                        &[unpack(ab[i], ak[i]), unpack(bb[i], bk[i])],
                    ));
                    out[i] = ob;
                    ok[i] = okd;
                }
                self.stats.float_ops += n64 * intrinsic_weight(*f);
                self.store_row_mixed(*dst, c0, nl, &out, &ok);
            }
            Inst::Binary { dst, op, lhs, rhs } => {
                let (lb, lk) = self.row(*lhs, c0, nl);
                let (rb, rk) = self.row(*rhs, c0, nl);
                let mut out = [0u64; LANES];
                match (uniform(lk), uniform(rk)) {
                    (Some(1), Some(1)) if fbin_arith(*op, 0.0, 0.0).is_some() => {
                        for i in 0..nl {
                            let a = f64::from_bits(lb[i]);
                            let b = f64::from_bits(rb[i]);
                            out[i] = fbin_arith(*op, a, b).unwrap().to_bits();
                        }
                        self.stats.float_ops += n64;
                        self.store_row(*dst, c0, nl, &out, 1);
                    }
                    (Some(1), Some(1)) if fcmp(*op, 0.0, 0.0).is_some() => {
                        for i in 0..nl {
                            let a = f64::from_bits(lb[i]);
                            let b = f64::from_bits(rb[i]);
                            out[i] = fcmp(*op, a, b).unwrap() as u64;
                        }
                        self.stats.float_ops += n64;
                        self.store_row(*dst, c0, nl, &out, 0);
                    }
                    (Some(0), Some(0)) => {
                        if matches!(op, BinOp::Div | BinOp::Rem) {
                            let mut fault = None;
                            for i in 0..nl {
                                if rb[i] == 0 {
                                    fault = Some(i);
                                    break;
                                }
                                out[i] = ibin(*op, lb[i] as i64, rb[i] as i64) as u64;
                            }
                            if let Some(i) = fault {
                                // Lanes below already computed: commit them
                                // before reporting the fault.
                                self.stats.int_ops += i as u64 + 1;
                                let row = *dst as usize * self.nthreads + c0;
                                self.bufs.bits[row..row + i].copy_from_slice(&out[..i]);
                                self.bufs.kinds[row..row + i].fill(0);
                                return Err((i, ExecError::DivByZero));
                            }
                        } else {
                            for i in 0..nl {
                                out[i] = ibin(*op, lb[i] as i64, rb[i] as i64) as u64;
                            }
                        }
                        self.stats.int_ops += n64;
                        self.store_row(*dst, c0, nl, &out, 0);
                    }
                    _ => {
                        let mut ok = [0u8; LANES];
                        let (mut io, mut fo) = (0u64, 0u64);
                        let mut fault = None;
                        for i in 0..nl {
                            let l = unpack(lb[i], lk[i]);
                            let r = unpack(rb[i], rk[i]);
                            let float =
                                l.kind() == ValueKind::Float || r.kind() == ValueKind::Float;
                            if float {
                                fo += 1;
                            } else {
                                io += 1;
                            }
                            if binop_faults(*op, r, float) {
                                fault = Some(i);
                                break;
                            }
                            let (ob, okd) = pack(eval_binop_total(*op, l, r, float));
                            out[i] = ob;
                            ok[i] = okd;
                        }
                        self.stats.int_ops += io;
                        self.stats.float_ops += fo;
                        if let Some(i) = fault {
                            self.store_row_mixed(*dst, c0, i, &out, &ok);
                            return Err((i, ExecError::DivByZero));
                        }
                        self.store_row_mixed(*dst, c0, nl, &out, &ok);
                    }
                }
            }
            Inst::MulAdd { dst, a, b, c } => {
                let (ab, ak) = self.row(*a, c0, nl);
                let (bb, bk) = self.row(*b, c0, nl);
                let (cb, ck) = self.row(*c, c0, nl);
                let kinds = (uniform(ak), uniform(bk), uniform(ck));
                let mut out = [0u64; LANES];
                match kinds {
                    (Some(1), Some(1), Some(1)) => {
                        // Fixed-width body for full chunks so the trip count
                        // is a compile-time constant the autovectorizer can
                        // unroll into whole vectors.
                        if let (Ok(ab), Ok(bb), Ok(cb)) = (
                            <&[u64; LANES]>::try_from(ab),
                            <&[u64; LANES]>::try_from(bb),
                            <&[u64; LANES]>::try_from(cb),
                        ) {
                            for i in 0..LANES {
                                let m = f64::from_bits(ab[i]) * f64::from_bits(bb[i]);
                                out[i] = (m + f64::from_bits(cb[i])).to_bits();
                            }
                        } else {
                            for i in 0..nl {
                                let m = f64::from_bits(ab[i]) * f64::from_bits(bb[i]);
                                out[i] = (m + f64::from_bits(cb[i])).to_bits();
                            }
                        }
                        self.stats.float_ops += 2 * n64;
                        self.store_row(*dst, c0, nl, &out, 1);
                    }
                    (Some(0), Some(0), Some(0)) => {
                        for i in 0..nl {
                            let m = (ab[i] as i64).wrapping_mul(bb[i] as i64);
                            out[i] = m.wrapping_add(cb[i] as i64) as u64;
                        }
                        self.stats.int_ops += 2 * n64;
                        self.store_row(*dst, c0, nl, &out, 0);
                    }
                    // Mixed kinds: per-lane promotion and charging.
                    _ => return self.full_fallback(inst, elide, c0, nl, mem),
                }
            }
            Inst::Load { dst, slot, idx } => {
                let info = slot_info(prog, *slot);
                let sz = info.elem.size() as u64;
                let ix = self.idx_row(*idx, c0, nl);
                let okind = match info.elem.kind() {
                    ValueKind::Int => 0,
                    ValueKind::Float => 1,
                };
                let mut out = [0u64; LANES];
                match info.kind {
                    SlotKind::Global { buf } => {
                        let (ptr, len) = mem.raw(buf);
                        if let Err(i) = gather_cert(ptr, len, info.elem, &ix, nl, &mut out, elide) {
                            self.store_row(*dst, c0, i, &out, okind);
                            return Err((i, oob(info, ix[i], mem)));
                        }
                        self.stats.global_read_bytes += n64 * sz;
                        self.stats.global_loads += n64;
                    }
                    SlotKind::Shared { idx: si } => {
                        let sh = &self.bufs.shared[si as usize];
                        let (sp, slen) = (sh.as_ptr(), sh.len());
                        if let Err(i) = gather_cert(sp, slen, info.elem, &ix, nl, &mut out, elide) {
                            self.store_row(*dst, c0, i, &out, okind);
                            return Err((i, oob(info, ix[i], mem)));
                        }
                        self.stats.shared_bytes += n64 * sz;
                    }
                    SlotKind::Local { .. } => return self.full_fallback(inst, elide, c0, nl, mem),
                }
                self.stats.int_ops += n64; // address computation
                self.store_row(*dst, c0, nl, &out, okind);
            }
            Inst::Store { slot, idx, val } => {
                let info = slot_info(prog, *slot);
                let sz = info.elem.size() as u64;
                let ix = self.idx_row(*idx, c0, nl);
                match info.kind {
                    SlotKind::Global { buf } => {
                        let (ptr, len) = mem.raw(buf);
                        let (vb, vk) = self.row(*val, c0, nl);
                        if let Err(i) = scatter_cert(ptr, len, info.elem, &ix, vb, vk, nl, elide) {
                            return Err((i, oob(info, ix[i], mem)));
                        }
                        self.stats.global_write_bytes += n64 * sz;
                        self.stats.global_stores += n64;
                    }
                    SlotKind::Shared { idx: si } => {
                        let pv = *val as usize * self.nthreads + c0;
                        let (vb, vk) =
                            (&self.bufs.bits[pv..pv + nl], &self.bufs.kinds[pv..pv + nl]);
                        let sh = &mut self.bufs.shared[si as usize];
                        if let Err(i) = scatter_cert(
                            sh.as_mut_ptr(),
                            sh.len(),
                            info.elem,
                            &ix,
                            vb,
                            vk,
                            nl,
                            elide,
                        ) {
                            return Err((i, oob(info, ix[i], mem)));
                        }
                        self.stats.shared_bytes += n64 * sz;
                    }
                    SlotKind::Local { .. } => return self.full_fallback(inst, elide, c0, nl, mem),
                }
                self.stats.int_ops += n64; // address computation
            }
            // Rare in batchable segments: per-lane scalar execution.
            Inst::AtomicRmw { .. } => return self.full_fallback(inst, elide, c0, nl, mem),
            Inst::Jump { .. }
            | Inst::JumpIfFalse { .. }
            | Inst::JumpIfTrue { .. }
            | Inst::Return => unreachable!("control flow is handled by `chunk`"),
            Inst::ForInit { .. } | Inst::ForNext { .. } => {
                unreachable!("loop instructions are never batchable")
            }
        }
        Ok(())
    }

    /// Per-lane scalar execution of a full-width chunk for ops without a
    /// vector fast path.
    fn full_fallback<M: GlobalMem>(
        &mut self,
        inst: &Inst,
        elide: bool,
        c0: usize,
        nl: usize,
        mem: &mut M,
    ) -> Result<(), LaneFault> {
        for i in 0..nl {
            if let Err(e) = self.step_at(inst, elide, c0 + i, mem) {
                return Err((i, e));
            }
        }
        Ok(())
    }

    /// Thread `t`'s registers as a [`RegView`].
    #[inline]
    fn column(&mut self, t: usize) -> Column<'_> {
        Column {
            bits: &mut self.bufs.bits,
            kinds: &mut self.bufs.kinds,
            at: t,
            stride: self.nthreads,
        }
    }

    /// [`step`] for thread `t` on its column of the lane rows: masked lanes,
    /// and full-width ops that have no row loop.
    #[inline]
    fn step_at<M: GlobalMem>(
        &mut self,
        inst: &Inst,
        elide: bool,
        t: usize,
        mem: &mut M,
    ) -> Result<(), ExecError> {
        let nloc = self.num_locals;
        let bufs = &mut self.bufs;
        let mut col = Column {
            bits: &mut bufs.bits,
            kinds: &mut bufs.kinds,
            at: t,
            stride: self.nthreads,
        };
        let mut cx = ThreadCx {
            shared: &mut bufs.shared,
            local: &mut bufs.locals[t * nloc..(t + 1) * nloc],
            stats: &mut self.stats,
            block: self.block,
            tid: bufs.tids[t],
        };
        step(self.prog, inst, elide, &mut col, &mut cx, mem)
    }
}
