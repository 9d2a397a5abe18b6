//! # cucc-workloads — the paper's benchmark programs
//!
//! Three suites:
//!
//! * [`perf`] — the eight performance benchmarks of §7.2–§7.4 (Transpose,
//!   FIR, Kmeans, BinomialOption, EP, GA, plus BlackScholes and Conv2D as
//!   the two unnamed "previously used in other GPU migration projects"
//!   programs — see DESIGN.md), each with a pure-Rust reference
//!   implementation that the distributed executions are verified against;
//! * [`triton`] — 21 Triton-style AI kernels from BERT and ViT (§7.1,
//!   Figure 7: all Allgather distributable);
//! * [`heteromark`] — 13 Hetero-Mark-style hand-written CUDA kernels (§7.1,
//!   Figure 7: 8 distributable, 4 with overlapping writes, 1 with indirect
//!   access).
//!
//! The [`Benchmark`] trait describes a runnable instance (kernel source,
//! launch geometry, input data, expected outputs); [`setup_args`] and
//! [`run_reference_check`] run the same instance on any
//! [`cucc_core::ProgramBackend`]: the GPU reference device, the CuCC cluster
//! or the PGAS baseline.

pub mod api;
pub mod heteromark;
pub mod perf;
pub mod triton;

pub use api::{run_reference_check, setup_args};
pub use heteromark::heteromark_kernels;
pub use perf::{perf_suite, Benchmark, Scale};
pub use triton::{triton_kernels, CoverageKernel, Expected};

/// Classify a coverage kernel the way Figure 7 does: run the static
/// Allgather-distributable analysis, then (for statically distributable
/// kernels) the launch-time planner on the kernel's sample launch. Kernels
/// whose footprints overlap only at a launch (halo writes) are caught by
/// the planner's race veto.
pub fn classify_coverage(k: &CoverageKernel) -> Result<Expected, String> {
    use cucc_analysis::{plan_launch, Plan, Reason};
    use cucc_exec::{Arg, MemPool};
    use cucc_ir::Param;

    let kernel = cucc_ir::parse_kernel(&k.source).map_err(|e| format!("{}: {e}", k.name))?;
    cucc_ir::validate(&kernel).map_err(|e| format!("{}: {e}", k.name))?;
    let verdict = cucc_analysis::analyze_kernel(&kernel);
    if let Some(reasons) = match &verdict {
        cucc_analysis::Verdict::Trivial(r) => Some(r),
        cucc_analysis::Verdict::Distributable(_) => None,
    } {
        return Ok(if reasons.contains(&Reason::IndirectIndex) {
            Expected::Indirect
        } else {
            Expected::Overlap
        });
    }
    // Statically distributable: confirm with the launch-time planner.
    let mut pool = MemPool::new();
    let mut args = Vec::new();
    let (mut bi, mut si) = (0usize, 0usize);
    for p in &kernel.params {
        match p {
            Param::Buffer { .. } => {
                let id = pool.alloc(k.buffer_bytes[bi]);
                bi += 1;
                args.push(Arg::Buffer(id));
            }
            Param::Scalar { .. } => {
                args.push(Arg::Scalar(k.scalars[si]));
                si += 1;
            }
        }
    }
    match plan_launch(&kernel, &verdict, k.launch, &args, &pool) {
        Plan::ThreePhase(_) => Ok(Expected::Distributable),
        Plan::Replicated(_) => Ok(Expected::Overlap),
    }
}

/// One row of Figure 7: a suite's kernels by classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageRow {
    /// `ViT`, `BERT` or `Hetero-Mark`.
    pub suite: &'static str,
    /// Kernels in the suite.
    pub kernels: usize,
    /// Non-trivially Allgather distributable.
    pub distributable: usize,
    /// Overlapping write intervals.
    pub overlap: usize,
    /// Indirect store index.
    pub indirect: usize,
}

/// Figure 7: classify every coverage kernel ([`classify_coverage`]) and
/// count per suite — ViT, BERT, Hetero-Mark, in that order.
pub fn coverage_table() -> Result<[CoverageRow; 3], String> {
    let mut rows = ["ViT", "BERT", "Hetero-Mark"].map(|suite| CoverageRow {
        suite,
        kernels: 0,
        distributable: 0,
        overlap: 0,
        indirect: 0,
    });
    for k in triton_kernels().iter().chain(heteromark_kernels().iter()) {
        let row = rows
            .iter_mut()
            .find(|r| r.suite == k.suite)
            .ok_or_else(|| format!("{}: unknown suite `{}`", k.name, k.suite))?;
        row.kernels += 1;
        match classify_coverage(k)? {
            Expected::Distributable => row.distributable += 1,
            Expected::Overlap => row.overlap += 1,
            Expected::Indirect => row.indirect += 1,
        }
    }
    Ok(rows)
}

/// Compare two buffers elementwise with a relative tolerance for floats.
///
/// `elem = None` means exact byte comparison.
pub fn buffers_close(
    got: &[u8],
    want: &[u8],
    elem: Option<cucc_ir::Scalar>,
    rel_tol: f64,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length mismatch: {} vs {}", got.len(), want.len()));
    }
    match elem {
        None => {
            if got == want {
                Ok(())
            } else {
                let idx = got.iter().zip(want).position(|(a, b)| a != b).unwrap();
                Err(format!("byte mismatch at offset {idx}"))
            }
        }
        Some(s) => {
            let sz = s.size();
            for (i, (g, w)) in got.chunks_exact(sz).zip(want.chunks_exact(sz)).enumerate() {
                let (gv, wv) = (
                    cucc_exec::memory::decode(s, g).as_f64(),
                    cucc_exec::memory::decode(s, w).as_f64(),
                );
                let denom = wv.abs().max(1.0);
                if (gv - wv).abs() / denom > rel_tol {
                    return Err(format!("element {i}: got {gv}, want {wv}"));
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_ir::Scalar;

    /// Figure 7, end to end: every coverage kernel classifies as expected,
    /// and the table counts what the paper reports.
    #[test]
    fn figure7_classification_matches() {
        for k in triton_kernels().iter().chain(heteromark_kernels().iter()) {
            let got = classify_coverage(k).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(got, k.expected, "{} misclassified", k.name);
        }
        let counts = coverage_table()
            .unwrap()
            .map(|r| (r.suite, r.kernels, r.distributable, r.overlap, r.indirect));
        assert_eq!(
            counts,
            [
                ("ViT", 9, 9, 0, 0),
                ("BERT", 12, 12, 0, 0),
                ("Hetero-Mark", 13, 8, 4, 1)
            ]
        );
    }

    #[test]
    fn exact_compare() {
        assert!(buffers_close(&[1, 2], &[1, 2], None, 0.0).is_ok());
        assert!(buffers_close(&[1, 2], &[1, 3], None, 0.0).is_err());
        assert!(buffers_close(&[1], &[1, 2], None, 0.0).is_err());
    }

    #[test]
    fn tolerant_compare() {
        let a = 1.0f32.to_le_bytes();
        let b = 1.0000001f32.to_le_bytes();
        assert!(buffers_close(&a, &b, Some(Scalar::F32), 1e-6).is_ok());
        let c = 1.1f32.to_le_bytes();
        assert!(buffers_close(&a, &c, Some(Scalar::F32), 1e-6).is_err());
    }
}
