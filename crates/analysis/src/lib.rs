//! # cucc-analysis — compiler analyses for GPU-to-CPU-cluster migration
//!
//! This crate implements the compiler side of CuCC (paper §5–§6). The
//! paper's distributable test is a compile-time analysis whose metadata is
//! resolved at launch; the crate is split along that seam, and each half
//! is answered once:
//! kernel level, [`KernelAccesses::of_kernel`] (once per [`analyze`], kept
//! on [`KernelAnalysis::accesses`]): every access with its affine index,
//! guards, enclosing loops; then launch level, [`LaunchFootprints::of`]
//! (once per launch): every access in numbers. Byte ranges
//! ([`BufferFootprint::byte_ranges`]), races ([`analyze_block_races`]),
//! full blocks ([`full_blocks_under_guard`]) and gathered regions
//! ([`plan_launch`]) are all read off that one value. The launch-time
//! rules read one value built around it, [`LaunchFacts::of`]: the
//! footprints, the kernel compiled for the launch and its
//! [`RangeAnalysis`], with buffers measured in bytes. The verifier
//! ([`verify()`]) and the lint ([`lint_kernel`]) read it, `cucc check`
//! builds it once per target, and a sanitized launch builds it from the
//! program it runs.
//!
//! * [`poly`] / [`affine`] — symbolic polynomial and affine-form machinery
//!   used to reason about indices with launch-time-unknown values;
//! * [`variance`] — whether memory contents can steer the kernel
//!   ([`KernelAnalysis::content_steered`]: such a kernel's schedule is
//!   never cached), read off the one thread-/block-variance fixpoint
//!   ([`cucc_ir::var_variance`], condition 2), which the validator's
//!   barrier rule ([`cucc_ir::barrier_sites`]), the distributable and SIMD
//!   analyses, the verifier and the lint all read;
//! * [`distributable`] — the one walk over a kernel's accesses
//!   ([`KernelAccesses`]) and, on its write sites, the **Allgather
//!   distributable analysis**: decides whether a kernel's blocks can be
//!   partitioned across cluster nodes so that a balanced in-place Allgather
//!   restores consistency, and records the metadata of Figure 6
//!   (`tail_divergent`, `mem_ptr`, `unit_size`);
//! * [`footprint`] — those accesses resolved against one launch
//!   ([`LaunchFootprints`]): the one place an affine form meets a
//!   [`cucc_ir::LaunchConfig`], and the per-buffer `Must`/`Unknown` read
//!   and write footprints the launch-graph communication optimizer in
//!   `cucc-core` elides gathers on (`Must` is an over-approximation — see
//!   the module docs for the direction);
//! * [`plan`] — launch-time resolution of the metadata into an executable
//!   three-phase plan (full blocks, chunk granularity, gathered regions),
//!   read off the footprints alone, or the condition that keeps a launch
//!   replicated;
//! * [`oracle`] — a dynamic write-interval oracle that validates plans
//!   against the formal definition of §6.1 (used by the test suite to prove
//!   the static analysis sound);
//! * [`simd`] — vectorizability analysis of the transformed thread loop,
//!   driving the SIMD-Focused vs Thread-Focused performance model (§8.2);
//! * [`mod@verify`] — the **kernel verifier**: static inter-block race /
//!   out-of-bounds / barrier-divergence checking on a MAY/MUST/UNKNOWN
//!   lattice, cross-validated by the dynamic sanitizer in `cucc-exec`;
//! * [`range`] — flow-sensitive interval **abstract interpretation** over
//!   compiled bytecode, producing per-access bounds certificates that the
//!   engines consume to elide bounds checks and the verifier's bounds rule
//!   reads as its one proof;
//! * [`lint`] — dead-store / redundant-barrier / constant-condition /
//!   unreachable-code findings on top of the range analysis (`cucc lint`).

pub mod affine;
pub mod distributable;
pub mod footprint;
pub mod lint;
pub mod oracle;
pub mod plan;
pub mod poly;
pub mod range;
pub mod simd;
pub mod variance;
pub mod verify;

pub use affine::{affine_of_expr, AffineForm, IdxVar, VarForms};
pub use distributable::{
    analyze_kernel, Access, GatherBuffer, Guard, GuardClass, KernelAccesses, KernelMeta, Reason,
    TailGuard, Verdict,
};
pub use footprint::{BlockInterval, BufferFootprint, LaunchFacts, LaunchFootprints};
pub use lint::{lint_kernel, LintReport};
pub use oracle::{verify_plan, OracleReport};
pub use plan::{
    full_blocks_under_guard, plan_launch, BufferRegion, Partition, Plan, ReplicationCause,
    ThreePhasePlan,
};
pub use poly::{Poly, Sym};
pub use range::{
    analyze_ranges, certify_program, global_extents, AccessCert, AccessKind, BranchFact,
    CompiledLaunch, Interval, RangeAnalysis,
};
pub use simd::{analyze_simd, SimdClass, SimdReport};
pub use variance::content_steered;
pub use verify::{
    analyze_block_races, canonical_check_input, cause_diagnostic, reason_diagnostics, verify,
    Diagnostic, PropertyVerdict, RaceAnalysis, Rule, Severity, SiteRef, VerifyReport,
};

/// Complete compile-time analysis result for one kernel.
#[derive(Debug, Clone)]
pub struct KernelAnalysis {
    /// Allgather-distributable verdict (with metadata or fallback reasons).
    pub verdict: Verdict,
    /// Thread-loop vectorizability.
    pub simd: SimdReport,
    /// The kernel's access list, whatever the verdict: what a holder of a
    /// compiled kernel resolves against a launch ([`LaunchFootprints::of`],
    /// [`LaunchFacts::of`]) without walking the kernel again.
    pub accesses: KernelAccesses,
    /// Whether buffer contents can change the kernel's control flow or
    /// addresses ([`content_steered`]) — and with them what the sampling
    /// profiler observes.
    pub content_steered: bool,
}

/// Run every CuCC analysis on a kernel. The one walk over its accesses
/// happens here.
pub fn analyze(kernel: &cucc_ir::Kernel) -> KernelAnalysis {
    let accesses = KernelAccesses::of_kernel(kernel);
    KernelAnalysis {
        verdict: distributable::distributable_verdict(&accesses),
        simd: analyze_simd(kernel),
        accesses,
        content_steered: content_steered(kernel),
    }
}

#[cfg(test)]
mod corpus_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_ir::parse_kernel;

    #[test]
    fn analyze_bundles_both_results() {
        let k = parse_kernel(
            "__global__ void k(float* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) out[id] = 1.0f;
            }",
        )
        .unwrap();
        let a = analyze(&k);
        assert!(a.verdict.is_distributable());
        assert_eq!(a.simd.class, SimdClass::Full);
    }
}
