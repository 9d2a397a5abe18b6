//! Property tests for the compiler analyses.
//!
//! The central property is **soundness of the Allgather distributable
//! analysis**: whenever the static analysis plus launch-time planner
//! produce a three-phase plan for a kernel, the dynamic write-interval
//! oracle (which traces *every* block) confirms the plan — equal-length,
//! disjoint, gapless chunk footprints (§6.1's definition). False negatives
//! are allowed; false positives would corrupt results and must not exist.

use cucc::analysis::{analyze_kernel, plan_launch, verify_plan, Plan};
use cucc::exec::{Arg, MemPool};
use cucc::ir::{parse_kernel, validate, LaunchConfig};
use proptest::prelude::*;

#[path = "support/generators.rs"]
mod generators;
use generators::random_kernel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness: a three-phase plan is always confirmed by the oracle.
    #[test]
    fn static_analysis_is_sound(rk in random_kernel(), nodes in 1u64..6) {
        let kernel = parse_kernel(&rk.source()).unwrap();
        validate(&kernel).unwrap();
        let verdict = analyze_kernel(&kernel);
        let mut pool = MemPool::new();
        let out = pool.alloc(rk.out_elems() * 4);
        let args = vec![Arg::Buffer(out), Arg::int(rk.n)];
        let launch = LaunchConfig::new(rk.blocks, rk.threads);
        if let Plan::ThreePhase(tp) = plan_launch(&kernel, &verdict, launch, &args, &pool) {
            let report = verify_plan(&kernel, launch, &args, &pool, &tp).unwrap();
            prop_assert!(report.ok(), "oracle violations: {:?}", report.violations);
            // Partition invariants for every node count.
            let part = tp.partition(nodes);
            prop_assert_eq!(
                part.partial_blocks_per_node * nodes + part.callback_blocks,
                tp.num_blocks
            );
            prop_assert!(part.callback_start <= tp.num_blocks);
        }
    }

    /// Scaled writes (`out[2·id]`) leave gaps: the planner must reject them
    /// rather than produce a gappy gather region.
    #[test]
    fn gappy_writes_never_planned(blocks in 1u32..8, threads in prop::sample::select(vec![2u32, 4, 16])) {
        let src = "__global__ void k(int* out, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            out[id * 2] = id;
        }";
        let kernel = parse_kernel(src).unwrap();
        let verdict = analyze_kernel(&kernel);
        let mut pool = MemPool::new();
        let total = blocks as usize * threads as usize;
        let out = pool.alloc(total * 2 * 4 + 64);
        let args = vec![Arg::Buffer(out), Arg::int(total as i64)];
        let launch = LaunchConfig::new(blocks, threads);
        let plan = plan_launch(&kernel, &verdict, launch, &args, &pool);
        prop_assert!(plan.three_phase().is_none(), "gappy plan accepted: {plan:?}");
    }
}

mod tail_guard_properties {
    use super::*;
    use cucc::analysis::{full_blocks_under_guard, Verdict};

    /// Longest prefix of the linear block ids (x-fastest) in which `full`
    /// holds — what the three-phase workflow can hand to phase 1.
    fn full_prefix(blocks: u64, full: impl Fn(u64) -> bool) -> u64 {
        (0..blocks).take_while(|b| full(*b)).count() as u64
    }

    /// The guards of a kernel, each resolved on its own, then joined the way
    /// `plan_launch` joins them (the minimum).
    fn resolved_full_blocks(src: &str, launch: LaunchConfig, args: &[Arg], guards: usize) -> u64 {
        let kernel = parse_kernel(src).unwrap();
        let Verdict::Distributable(meta) = analyze_kernel(&kernel) else {
            panic!("guarded affine kernel must be distributable");
        };
        assert_eq!(meta.tail_guards.len(), guards, "tail guards of {src}");
        meta.tail_guards
            .iter()
            .map(|g| full_blocks_under_guard(g, launch, args).expect("resolvable guard"))
            .min()
            .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The symbolic tail-guard resolver computes exactly the number of
        /// blocks whose `affine(id) < n` guard holds for all threads.
        #[test]
        fn guard_resolver_matches_brute_force(
            scale in 1i64..5,
            offset in -10i64..10,
            bound in -50i64..5000,
            blocks in 1u32..20,
            threads in prop::sample::select(vec![1u32, 3, 8, 32]),
        ) {
            let src = format!(
                "__global__ void k(int* out, int n) {{
                    int id = blockIdx.x * blockDim.x + threadIdx.x;
                    if (id * {scale} + {offset} < n)
                        out[id] = 1;
                }}"
            );
            // The resolver reads scalar params only; buffer slots just need
            // to exist positionally — pass an int placeholder.
            let args = vec![Arg::int(0), Arg::int(bound)];
            let got = resolved_full_blocks(&src, LaunchConfig::new(blocks, threads), &args, 1);
            let t = threads as i64;
            let want = full_prefix(blocks as u64, |b| {
                (0..t).all(|tx| (b as i64 * t + tx) * scale + offset < bound)
            });
            prop_assert_eq!(got, want, "scale={} offset={} bound={} g={}x{}",
                scale, offset, bound, blocks, threads);
        }

        /// On a 2-D grid a guard on x, on y or on both still resolves to
        /// the longest linear prefix of blocks it holds in for every
        /// thread, for exact and ragged fits alike.
        #[test]
        fn guard_resolver_matches_brute_force_on_2d_grids(
            which in 0usize..3,
            (gx, gy) in (1u32..6, 1u32..6),
            (tx, ty) in (prop::sample::select(vec![1u32, 2, 4]), prop::sample::select(vec![1u32, 3, 4])),
            (slack_w, slack_h) in (0i64..7, 0i64..7),
        ) {
            let guard = ["x < w", "y < h", "x < w && y < h"][which];
            let src = format!(
                "__global__ void k(int* out, int w, int h) {{
                    int x = blockIdx.x * blockDim.x + threadIdx.x;
                    int y = blockIdx.y * blockDim.y + threadIdx.y;
                    if ({guard})
                        out[y * w + x] = 1;
                }}"
            );
            // slack 0 is the exact fit; more leaves trailing blocks ragged.
            let (w, h) = ((gx * tx) as i64 - slack_w, (gy * ty) as i64 - slack_h);
            let launch = LaunchConfig::new((gx, gy), (tx, ty));
            let args = vec![Arg::int(0), Arg::int(w), Arg::int(h)];
            let got = resolved_full_blocks(&src, launch, &args, if which == 2 { 2 } else { 1 });
            let want = full_prefix(launch.num_blocks(), |b| {
                let (bx, by, _) = launch.grid.delinearize(b);
                let x_ok = ((bx + 1) * tx) as i64 <= w;
                let y_ok = ((by + 1) * ty) as i64 <= h;
                [x_ok, y_ok, x_ok && y_ok][which]
            });
            prop_assert_eq!(got, want, "`{}` w={} h={} on {}", guard, w, h, launch);
        }
    }
}

mod partition_properties {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The paper's partition arithmetic conserves blocks and keeps the
        /// callback range a suffix, for arbitrary geometry.
        #[test]
        fn partition_conserves_blocks(
            full in 0u64..5000,
            extra in 0u64..5,
            chunk in 1u64..8,
            nodes in 1u64..64,
        ) {
            let tp = cucc::analysis::ThreePhasePlan {
                num_blocks: full * chunk + extra,
                chunk_blocks: chunk,
                full_chunks: full,
                buffers: vec![],
            };
            let p = tp.partition(nodes);
            prop_assert_eq!(
                p.partial_blocks_per_node * nodes + p.callback_blocks,
                tp.num_blocks
            );
            prop_assert_eq!(p.callback_start, p.partial_blocks_per_node * nodes);
            // More nodes never increases per-node partial work.
            if nodes > 1 {
                let p1 = tp.partition(nodes - 1);
                prop_assert!(p.partial_blocks_per_node <= p1.partial_blocks_per_node);
            }
        }
    }
}

mod allgather_properties {
    use cucc::net::{AllgatherAlgo, AllgatherPlacement, GatherPlan, GatherSegment, NetModel};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// All Allgather algorithms produce identical, correct buffers for
        /// arbitrary node counts and payloads.
        #[test]
        fn algorithms_agree(
            n in 1usize..12,
            unit in 1usize..64,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let total = n * unit;
            let reference: Vec<u8> = (0..total).map(|_| rng.gen()).collect();
            let model = NetModel::infiniband_100g();
            let sizes = vec![unit as u64; n];
            for algo in [
                AllgatherAlgo::Ring,
                AllgatherAlgo::RecursiveDoubling,
                AllgatherAlgo::Bruck,
            ] {
                let mut regions: Vec<Vec<u8>> = (0..n)
                    .map(|i| {
                        let mut r = vec![0u8; total];
                        r[i * unit..(i + 1) * unit]
                            .copy_from_slice(&reference[i * unit..(i + 1) * unit]);
                        r
                    })
                    .collect();
                let mut views: Vec<&mut [u8]> =
                    regions.iter_mut().map(|r| r.as_mut_slice()).collect();
                let plan = GatherPlan::new(&sizes, &model, algo, AllgatherPlacement::InPlace);
                plan.apply(&mut views, &GatherSegment::contiguous(&sizes));
                let cost = plan.cost();
                for (i, r) in regions.iter().enumerate() {
                    prop_assert_eq!(r, &reference, "algo {:?} node {}", algo, i);
                }
                // Cost sanity: wire traffic is exactly (n−1)·total for ring,
                // and at least total·(n-1)/n for the log algorithms.
                if n > 1 {
                    prop_assert!(cost.time > 0.0);
                    prop_assert!(cost.wire_bytes >= (total * (n - 1) / n) as u64);
                }
            }
        }
    }
}

mod simd_properties {
    use cucc::analysis::{analyze_simd, SimdClass};
    use cucc::ir::parse_kernel;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Adding an inner recurrence to any straight-line kernel can only
        /// downgrade the SIMD class, never upgrade it.
        #[test]
        fn recurrence_only_downgrades(iters in 1i64..64) {
            let plain = parse_kernel(
                "__global__ void k(float* a, float* out, int n) {
                    int id = blockIdx.x * blockDim.x + threadIdx.x;
                    if (id < n) out[id] = a[id] * 2.0f;
                }",
            ).unwrap();
            let with_loop = parse_kernel(&format!(
                "__global__ void k(float* a, float* out, int n) {{
                    int id = blockIdx.x * blockDim.x + threadIdx.x;
                    float acc = 0.0f;
                    for (int i = 0; i < {iters}; i++)
                        acc += a[id + i];
                    if (id < n) out[id] = acc;
                }}"
            )).unwrap();
            let p = analyze_simd(&plain);
            let l = analyze_simd(&with_loop);
            prop_assert_eq!(p.class, SimdClass::Full);
            prop_assert_eq!(l.class, SimdClass::Scalar);
            prop_assert!(l.efficiency <= p.efficiency);
        }
    }
}
