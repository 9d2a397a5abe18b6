//! Property tests for the kernel verifier (`cucc-analysis::verify`).
//!
//! The verifier's contract is a two-sided soundness pact with the dynamic
//! sanitizer (`cucc-exec::sanitize`), checked here over a corpus of random
//! affine kernels with **exact, known buffer extents** and no division or
//! barriers (so every verdict direction is decidable):
//!
//! 1. `Safe` is a proof: if the sanitizer observes an inter-block
//!    write-write race, the static race verdict must not be `Safe`; if it
//!    traps an out-of-bounds access, the static bounds verdict must not be
//!    `Safe`.
//! 2. `Must` is a witness: a MUST-level race verdict must reproduce as an
//!    observed dynamic race, and a MUST-level bounds verdict as a dynamic
//!    OOB trap.
//!
//! `Unknown`/`May` are unconstrained — imprecision is allowed, unsoundness
//! is not.

use cucc::analysis::{verify, LaunchFacts, PropertyVerdict};
use cucc::exec::{sanitize_launch, Arg, MemPool};
use cucc::ir::{parse_kernel, validate, LaunchConfig};
use proptest::prelude::*;

#[path = "support/generators.rs"]
mod generators;
use generators::{subject, Shape, Subject};

/// Run both the static verifier (exact extents, no assumed-extent cap) and
/// the dynamic sanitizer on a subject; returns `(report, dynamic)`.
fn run_both(s: &Subject) -> (cucc::analysis::VerifyReport, cucc::exec::SanitizeReport) {
    let kernel = parse_kernel(&s.source()).unwrap();
    validate(&kernel).unwrap();
    let launch = LaunchConfig::new(s.blocks, s.threads);
    let extent = (s.exact_extent() as u64).saturating_sub(s.shortfall).max(1);
    let mut pool = MemPool::new();
    let out = pool.alloc(extent as usize * 4);
    let mut args = vec![Arg::Buffer(out)];
    if let Some(n) = s.n_arg() {
        args.push(Arg::int(n));
    }
    let size_of = |b| (b == out).then(|| pool.size_of(out));
    let facts = LaunchFacts::of(&kernel, None, launch, &args, size_of, None);
    let report = verify(&facts, false, None);
    let dynamic = sanitize_launch(&kernel, launch, &args, &pool);
    (report, dynamic)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two-sided soundness: `Safe` never contradicted dynamically, `Must`
    /// always reproduced dynamically.
    #[test]
    fn verifier_sound_against_sanitizer(s in subject()) {
        let (report, dynamic) = run_both(&s);
        // Safe is a proof.
        if !dynamic.races.is_empty() {
            prop_assert!(
                report.race != PropertyVerdict::Safe,
                "dynamic race but static Safe on {:?}\n{:?}", s, dynamic.races
            );
        }
        if !dynamic.oob.is_empty() {
            prop_assert!(
                report.bounds != PropertyVerdict::Safe,
                "dynamic OOB but static Safe on {:?}\n{:?}", s, dynamic.oob
            );
        }
        // Must is a witness.
        if report.race == PropertyVerdict::Must {
            prop_assert!(
                !dynamic.races.is_empty(),
                "MUST race did not reproduce on {:?}\n{:?}", s, report.diagnostics
            );
        }
        if report.bounds == PropertyVerdict::Must {
            prop_assert!(
                !dynamic.oob.is_empty(),
                "MUST bounds did not reproduce on {:?}\n{:?}", s, report.diagnostics
            );
        }
        // Corpus has no barriers: the barrier rule must prove uniformity.
        prop_assert_eq!(report.barrier, PropertyVerdict::Safe);
    }

    /// Precision floor: exact-extent strided kernels are fully proven safe
    /// (no spurious MAY/UNKNOWN on the bread-and-butter affine pattern).
    #[test]
    fn strided_exact_is_proven_safe(
        stride in 1i64..4,
        blocks in 1u32..6,
        threads in prop::sample::select(vec![2u32, 4, 8]),
    ) {
        let s = Subject {
            shape: Shape::Strided { stride },
            blocks,
            threads,
            shortfall: 0,
        };
        let (report, dynamic) = run_both(&s);
        prop_assert_eq!(report.race, PropertyVerdict::Safe, "{:?}", report.diagnostics);
        prop_assert_eq!(report.bounds, PropertyVerdict::Safe, "{:?}", report.diagnostics);
        prop_assert!(dynamic.clean(), "{:?}", dynamic.summary());
    }

    /// Block-invariant writes with ≥2 blocks and an exactly-sized buffer
    /// are a MUST-level race — and the sanitizer sees them.
    #[test]
    fn block_invariant_is_must_race(
        blocks in 2u32..6,
        threads in prop::sample::select(vec![2u32, 4, 8]),
    ) {
        let s = Subject {
            shape: Shape::BlockInvariant,
            blocks,
            threads,
            shortfall: 0,
        };
        let (report, dynamic) = run_both(&s);
        prop_assert_eq!(report.race, PropertyVerdict::Must, "{:?}", report.diagnostics);
        prop_assert!(!dynamic.races.is_empty());
    }
}
