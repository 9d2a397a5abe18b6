//! Dynamic kernel sanitizer: per-buffer write logging with an OOB trap.
//!
//! This is the runtime counterpart of the static verifier in
//! `cucc-analysis::verify`, playing the same role `oracle.rs` plays for the
//! distribution planner: an independent, brute-force ground truth. Every
//! block of the launch runs on a scratch clone of the memory pool with the
//! interpreter's write tracing enabled; the per-block write logs are
//! coalesced into byte intervals and swept for **inter-block overlaps**
//! (write-write races — node-order-dependent after migration), while any
//! `ExecError::OutOfBounds` the interpreter traps is recorded as an OOB
//! finding. Other faults (division by zero, divergent barriers) are kept
//! separate so the verifier soundness contract stays precise: *dynamic OOB
//! implies the static bounds verdict is not `Safe`*, and likewise for races.
//!
//! Overlapping **atomic** writes from different blocks are not races — the
//! distribution analysis already refuses to distribute atomics, and they
//! commute under replicated execution — so atomic-atomic overlaps are
//! excluded (mixed atomic/plain overlaps are reported).
//!
//! A `--sanitize` launch in `cucc-core` runs this beside the program the
//! launch itself runs: the static verdicts it checks are read off that
//! program's range analysis (`cucc_analysis::LaunchFacts`), and the program
//! runs its certificates in [`crate::CertMode::Validate`], so a wrong
//! bounds certificate fails the launch as
//! [`crate::ExecError::CertificateViolation`].

use crate::interp::{execute_block_traced, Arg, WriteRecord};
use crate::memory::MemPool;
use cucc_ir::{Kernel, LaunchConfig};

/// Cap on recorded findings per category; the run is marked `truncated`
/// when reached (checking continues so `clean()` stays meaningful).
const FINDING_CAP: usize = 32;

/// One observed inter-block write-write overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceFinding {
    /// Buffer parameter index.
    pub param: u32,
    /// Overlapping byte range (inclusive lo, exclusive hi).
    pub byte_lo: u64,
    pub byte_hi: u64,
    /// The two racing blocks (linear ids).
    pub block_a: u64,
    pub block_b: u64,
    /// True when exactly one side was atomic (both-atomic is not reported).
    pub atomic_mix: bool,
}

/// One trapped out-of-bounds access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OobFinding {
    /// Linear id of the faulting block.
    pub block: u64,
    /// The interpreter's fault message.
    pub message: String,
}

/// Everything the sanitizer observed for one launch.
#[derive(Debug, Clone, Default)]
pub struct SanitizeReport {
    /// Blocks executed.
    pub blocks: u64,
    /// Global-memory write records observed (pre-coalescing).
    pub writes: u64,
    /// Inter-block write-write overlaps.
    pub races: Vec<RaceFinding>,
    /// Out-of-bounds traps.
    pub oob: Vec<OobFinding>,
    /// Non-OOB faults (division by zero, divergent barrier, …) as
    /// `(block, message)` — kept apart from `oob` so each static rule is
    /// cross-checked against exactly its own dynamic signal.
    pub faults: Vec<(u64, String)>,
    /// Some findings were dropped after [`FINDING_CAP`].
    pub truncated: bool,
}

impl SanitizeReport {
    /// True when no race, OOB or fault was observed.
    pub fn clean(&self) -> bool {
        self.races.is_empty() && self.oob.is_empty() && self.faults.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.clean() {
            format!(
                "sanitizer: clean ({} blocks, {} writes)",
                self.blocks, self.writes
            )
        } else {
            format!(
                "sanitizer: {} race(s), {} oob trap(s), {} other fault(s) over {} blocks{}",
                self.races.len(),
                self.oob.len(),
                self.faults.len(),
                self.blocks,
                if self.truncated { " [truncated]" } else { "" }
            )
        }
    }
}

/// A coalesced per-block write interval (bytes, exclusive hi).
#[derive(Debug, Clone, Copy)]
struct Interval {
    param: u32,
    lo: u64,
    hi: u64,
    block: u64,
    atomic: bool,
}

/// Coalesce one block's raw write records into maximal intervals, keeping
/// atomic and non-atomic runs separate.
fn block_intervals(block: u64, records: &[WriteRecord], out: &mut Vec<Interval>) {
    let mut sorted: Vec<&WriteRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.param, r.atomic, r.byte_off));
    let mut cur: Option<Interval> = None;
    for r in sorted {
        let (lo, hi) = (r.byte_off, r.byte_off + r.bytes as u64);
        match &mut cur {
            Some(c) if c.param == r.param && c.atomic == r.atomic && lo <= c.hi => {
                c.hi = c.hi.max(hi);
            }
            _ => {
                if let Some(c) = cur.take() {
                    out.push(c);
                }
                cur = Some(Interval {
                    param: r.param,
                    lo,
                    hi,
                    block,
                    atomic: r.atomic,
                });
            }
        }
    }
    if let Some(c) = cur.take() {
        out.push(c);
    }
}

/// Run every block of the launch with write tracing on a scratch clone of
/// `pool` and report all inter-block write-write overlaps, OOB traps and
/// other faults. Purely observational: the caller's pool is untouched.
pub fn sanitize_launch(
    kernel: &Kernel,
    launch: LaunchConfig,
    args: &[Arg],
    pool: &MemPool,
) -> SanitizeReport {
    let mut report = SanitizeReport::default();
    let mut scratch = pool.clone();
    let mut intervals: Vec<Interval> = Vec::new();
    let mut trace: Vec<WriteRecord> = Vec::new();
    for block in 0..launch.num_blocks() {
        trace.clear();
        match execute_block_traced(kernel, launch, block, args, &mut scratch, &mut trace) {
            Ok(_) => {}
            Err(e) => {
                let msg = e.to_string();
                if matches!(e, crate::interp::ExecError::OutOfBounds { .. }) {
                    if report.oob.len() < FINDING_CAP {
                        report.oob.push(OobFinding {
                            block,
                            message: msg,
                        });
                    } else {
                        report.truncated = true;
                    }
                } else if report.faults.len() < FINDING_CAP {
                    report.faults.push((block, msg));
                } else {
                    report.truncated = true;
                }
            }
        }
        report.blocks += 1;
        report.writes += trace.len() as u64;
        block_intervals(block, &trace, &mut intervals);
    }

    // Sweep for overlaps between intervals of *different* blocks.
    intervals.sort_by_key(|iv| (iv.param, iv.lo));
    let mut active: Vec<Interval> = Vec::new();
    for iv in &intervals {
        active.retain(|a| a.param == iv.param && a.hi > iv.lo);
        for a in &active {
            if a.block == iv.block || (a.atomic && iv.atomic) {
                continue;
            }
            if report.races.len() >= FINDING_CAP {
                report.truncated = true;
                break;
            }
            report.races.push(RaceFinding {
                param: iv.param,
                byte_lo: iv.lo.max(a.lo),
                byte_hi: iv.hi.min(a.hi),
                block_a: a.block,
                block_b: iv.block,
                atomic_mix: a.atomic != iv.atomic,
            });
        }
        active.push(*iv);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::BufferId;
    use cucc_ir::parse_kernel;

    fn pool_with(elems: usize) -> MemPool {
        let mut pool = MemPool::new();
        let id = pool.alloc(elems * 4);
        assert_eq!(id, BufferId(0));
        pool
    }

    #[test]
    fn clean_kernel_reports_clean() {
        let k = parse_kernel(
            "__global__ void k(int* out) {
                out[blockIdx.x * blockDim.x + threadIdx.x] = 1;
            }",
        )
        .unwrap();
        let launch = LaunchConfig::new(4u32, 8u32);
        let pool = pool_with(32);
        let r = sanitize_launch(&k, launch, &[Arg::Buffer(BufferId(0))], &pool);
        assert!(r.clean(), "{r:?}");
        assert_eq!(r.blocks, 4);
        assert_eq!(r.writes, 32);
    }

    #[test]
    fn block_invariant_writes_race() {
        let k = parse_kernel(
            "__global__ void k(int* out) {
                out[threadIdx.x] = 1;
            }",
        )
        .unwrap();
        let launch = LaunchConfig::new(3u32, 8u32);
        let pool = pool_with(8);
        let r = sanitize_launch(&k, launch, &[Arg::Buffer(BufferId(0))], &pool);
        assert!(!r.races.is_empty(), "{r:?}");
        assert!(r.oob.is_empty());
        let f = &r.races[0];
        assert_ne!(f.block_a, f.block_b);
        assert!(f.byte_hi > f.byte_lo);
    }

    #[test]
    fn sliding_window_halo_races_on_the_boundary() {
        let k = parse_kernel(
            "__global__ void k(float* out) {
                out[blockIdx.x * (blockDim.x - 1) + threadIdx.x] = 1.0f;
            }",
        )
        .unwrap();
        let launch = LaunchConfig::new(4u32, 8u32);
        let pool = pool_with(3 * 7 + 8);
        let r = sanitize_launch(&k, launch, &[Arg::Buffer(BufferId(0))], &pool);
        // Adjacent blocks share exactly one element = 4 bytes.
        assert!(!r.races.is_empty(), "{r:?}");
        assert_eq!(r.races[0].byte_hi - r.races[0].byte_lo, 4);
    }

    #[test]
    fn oob_trapped_not_classified_as_race() {
        let k = parse_kernel(
            "__global__ void k(int* out) {
                out[blockIdx.x * blockDim.x + threadIdx.x] = 1;
            }",
        )
        .unwrap();
        let launch = LaunchConfig::new(4u32, 8u32);
        let pool = pool_with(16); // half the needed extent
        let r = sanitize_launch(&k, launch, &[Arg::Buffer(BufferId(0))], &pool);
        assert!(!r.oob.is_empty(), "{r:?}");
        assert!(r.races.is_empty());
        assert!(r.faults.is_empty());
        assert!(!r.clean());
    }

    #[test]
    fn atomic_atomic_overlap_excluded() {
        let k = parse_kernel(
            "__global__ void k(int* out) {
                atomicAdd(&out[0], 1);
            }",
        )
        .unwrap();
        let launch = LaunchConfig::new(4u32, 8u32);
        let pool = pool_with(4);
        let r = sanitize_launch(&k, launch, &[Arg::Buffer(BufferId(0))], &pool);
        assert!(r.races.is_empty(), "{r:?}");
    }

    #[test]
    fn atomic_plain_mix_reported() {
        let k = parse_kernel(
            "__global__ void k(int* out) {
                atomicAdd(&out[0], 1);
                if (threadIdx.x == 0) out[1] = 7;
                if (threadIdx.x == 1) out[0] = 9;
            }",
        )
        .unwrap();
        let launch = LaunchConfig::new(2u32, 8u32);
        let pool = pool_with(4);
        let r = sanitize_launch(&k, launch, &[Arg::Buffer(BufferId(0))], &pool);
        assert!(r.races.iter().any(|f| f.atomic_mix), "{r:?}");
    }

    #[test]
    fn caller_pool_is_untouched() {
        let k = parse_kernel(
            "__global__ void k(int* out) {
                out[threadIdx.x] = 42;
            }",
        )
        .unwrap();
        let launch = LaunchConfig::new(2u32, 4u32);
        let pool = pool_with(4);
        let before = pool.bytes(BufferId(0)).to_vec();
        let _ = sanitize_launch(&k, launch, &[Arg::Buffer(BufferId(0))], &pool);
        assert_eq!(pool.bytes(BufferId(0)), &before[..]);
    }
}
