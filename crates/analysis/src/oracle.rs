//! Dynamic write-interval oracle.
//!
//! The static analysis is *sufficient but not necessary* (paper §6.2) and
//! the planner reads only the launch-resolved footprint. This module is the
//! independent ground truth: it traces **every** block of a launch and
//! checks the formal Allgather-distributable definition of §6.1 against a
//! concrete [`ThreePhasePlan`]:
//!
//! 1. every phase-1 chunk writes exactly inside its own unit interval
//!    (equal length, disjoint, no gaps — conditions 1–3 of the definition);
//! 2. no phase-1 write is atomic;
//! 3. the gathered region per buffer is the exact union of the chunk units.
//!
//! Property tests use the oracle to assert the static analysis is **sound**:
//! whenever `analyze_kernel` + `plan_launch` produce a three-phase plan, the
//! oracle confirms it.

use crate::plan::ThreePhasePlan;
use cucc_exec::{execute_block_traced, Arg, ExecError, MemPool};
use cucc_ir::{Kernel, LaunchConfig};

/// Result of a full oracle verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// Violations found (empty ⇒ the plan is valid).
    pub violations: Vec<String>,
}

impl OracleReport {
    /// True when no violations were found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verify a three-phase plan against the dynamic write sets of every full
/// chunk. Runs on a scratch copy of `pool`.
pub fn verify_plan(
    kernel: &Kernel,
    launch: LaunchConfig,
    args: &[Arg],
    pool: &MemPool,
    plan: &ThreePhasePlan,
) -> Result<OracleReport, ExecError> {
    let mut scratch = pool.clone();
    let mut violations = Vec::new();
    let g = plan.chunk_blocks;
    for chunk in 0..plan.full_chunks {
        let mut trace = Vec::new();
        for b in chunk * g..(chunk + 1) * g {
            execute_block_traced(kernel, launch, b, args, &mut scratch, &mut trace)?;
        }
        // Group per buffer and check containment in the chunk's unit.
        for region in &plan.buffers {
            let lo = region.base + chunk * region.unit;
            let hi = lo + region.unit;
            let mut covered = vec![false; region.unit as usize];
            for w in trace.iter().filter(|w| w.param == region.param.0) {
                if w.atomic {
                    violations.push(format!(
                        "chunk {chunk}: atomic write to p{} at byte {}",
                        w.param, w.byte_off
                    ));
                }
                let (s, e) = (w.byte_off, w.byte_off + w.bytes as u64);
                if s < lo || e > hi {
                    violations.push(format!(
                        "chunk {chunk}: write to p{} bytes [{s},{e}) escapes unit [{lo},{hi})",
                        w.param
                    ));
                } else {
                    for i in s..e {
                        covered[(i - lo) as usize] = true;
                    }
                }
            }
            if covered.iter().any(|c| !c) {
                let missing = covered.iter().filter(|c| !**c).count();
                violations.push(format!(
                    "chunk {chunk}: unit of p{} has {missing} unwritten bytes (gap)",
                    region.param.0
                ));
            }
        }
        // Writes to buffers outside the plan's gathered set would desync
        // the nodes.
        for w in &trace {
            if !plan.buffers.iter().any(|r| r.param.0 == w.param) {
                violations.push(format!(
                    "chunk {chunk}: write to unplanned buffer p{}",
                    w.param
                ));
            }
        }
        if violations.len() > 32 {
            violations.push("… further violations elided".into());
            break;
        }
    }
    Ok(OracleReport { violations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributable::analyze_kernel;
    use crate::plan::{plan_launch, Plan};
    use cucc_ir::{parse_kernel, Scalar};

    fn checked_plan(src: &str, launch: LaunchConfig, mk: impl Fn(&mut MemPool) -> Vec<Arg>) {
        let k = parse_kernel(src).unwrap();
        cucc_ir::validate(&k).unwrap();
        let verdict = analyze_kernel(&k);
        let mut pool = MemPool::new();
        let args = mk(&mut pool);
        match plan_launch(&k, &verdict, launch, &args, &pool) {
            Plan::ThreePhase(tp) => {
                let report = verify_plan(&k, launch, &args, &pool, &tp).unwrap();
                assert!(report.ok(), "oracle violations: {:?}", report.violations);
            }
            Plan::Replicated(cause) => panic!("expected three-phase plan, got {cause}"),
        }
    }

    #[test]
    fn oracle_confirms_listing1() {
        checked_plan(
            "__global__ void vec_copy(char* src, char* dest, int n) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                if (id < n) dest[id] = src[id];
            }",
            LaunchConfig::cover1(1200, 256),
            |p| {
                let src = p.alloc(1200);
                let dest = p.alloc(1200);
                vec![Arg::Buffer(src), Arg::Buffer(dest), Arg::int(1200)]
            },
        );
    }

    #[test]
    fn oracle_confirms_multi_element_per_thread() {
        checked_plan(
            "__global__ void k(int* out, int w) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                for (int i = 0; i < w; i++)
                    out[id * w + i] = i;
            }",
            LaunchConfig::new(8u32, 32u32),
            |p| {
                let out = p.alloc_elems(Scalar::I32, 8 * 32 * 3);
                vec![Arg::Buffer(out), Arg::int(3)]
            },
        );
    }

    #[test]
    fn oracle_catches_planted_escape() {
        // Hand-build a wrong plan (unit too small) and check the oracle
        // reports escapes.
        let k = parse_kernel(
            "__global__ void k(int* out) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                out[id] = 1;
            }",
        )
        .unwrap();
        let launch = LaunchConfig::new(4u32, 16u32);
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::I32, 64);
        let args = vec![Arg::Buffer(out)];
        let verdict = analyze_kernel(&k);
        let Plan::ThreePhase(mut tp) = plan_launch(&k, &verdict, launch, &args, &pool) else {
            panic!("expected plan");
        };
        tp.buffers[0].unit /= 2; // corrupt: half the real unit
        let report = verify_plan(&k, launch, &args, &pool, &tp).unwrap();
        assert!(!report.ok());
        assert!(report.violations.iter().any(|v| v.contains("escapes")));
    }

    #[test]
    fn oracle_catches_gaps() {
        // Every thread writes two slots but the planted plan claims four.
        let k = parse_kernel(
            "__global__ void k(int* out) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                out[id] = 1;
            }",
        )
        .unwrap();
        let launch = LaunchConfig::new(4u32, 16u32);
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::I32, 512);
        let args = vec![Arg::Buffer(out)];
        let verdict = analyze_kernel(&k);
        let Plan::ThreePhase(mut tp) = plan_launch(&k, &verdict, launch, &args, &pool) else {
            panic!("expected plan");
        };
        tp.buffers[0].unit *= 2; // claim twice the real unit
        tp.full_chunks = 2;
        let report = verify_plan(&k, launch, &args, &pool, &tp).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("gap") || v.contains("escapes")));
    }
}
