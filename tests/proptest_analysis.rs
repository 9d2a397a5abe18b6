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

/// A random affine-ish kernel: `out[a·id + b + (guarded?)] = f(id)` with a
/// random scale/offset, optional tail guard, optional per-thread inner loop
/// writing `w` consecutive elements.
#[derive(Debug, Clone)]
struct RandomKernel {
    scale: i64,
    offset: i64,
    width: i64,
    guard: bool,
    blocks: u32,
    threads: u32,
    n: i64,
}

impl RandomKernel {
    fn source(&self) -> String {
        let idx = if self.width > 1 {
            format!(
                "(id * {s} + {o}) * {w} + i",
                s = self.scale,
                o = self.offset,
                w = self.width
            )
        } else {
            format!("id * {s} + {o}", s = self.scale, o = self.offset)
        };
        let body = if self.width > 1 {
            format!(
                "for (int i = 0; i < {w}; i++) out[{idx}] = id + i;",
                w = self.width,
                idx = idx
            )
        } else {
            format!("out[{idx}] = id;", idx = idx)
        };
        let guarded = if self.guard {
            format!("if (id < n) {{ {body} }}")
        } else {
            body
        };
        format!(
            "__global__ void k(int* out, int n) {{
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                {guarded}
            }}"
        )
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig::new(self.blocks, self.threads)
    }

    fn out_elems(&self) -> usize {
        let total = self.blocks as i64 * self.threads as i64;
        ((total * self.scale.max(1) + self.offset) * self.width.max(1) + self.width + 64) as usize
    }
}

fn random_kernel() -> impl Strategy<Value = RandomKernel> {
    (
        1i64..4,  // scale
        0i64..32, // offset
        1i64..4,  // width
        any::<bool>(),
        1u32..12, // blocks
        prop::sample::select(vec![1u32, 2, 8, 32]),
    )
        .prop_flat_map(|(scale, offset, width, guard, blocks, threads)| {
            let total = blocks as i64 * threads as i64;
            (
                Just((scale, offset, width, guard, blocks, threads)),
                1i64..=total,
            )
        })
        .prop_map(
            |((scale, offset, width, guard, blocks, threads), n)| RandomKernel {
                scale,
                offset,
                width,
                guard,
                blocks,
                threads,
                n,
            },
        )
}

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
        if let Plan::ThreePhase(tp) = plan_launch(&kernel, &verdict, rk.launch(), &args, &pool) {
            let report = verify_plan(&kernel, rk.launch(), &args, &pool, &tp).unwrap();
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
    use cucc::analysis::{full_blocks_under_guard, GuardClass, Verdict};
    use cucc::ir::{Axis, LaunchConfig};

    /// Brute force: a block is "full" iff the guard holds for every thread.
    fn brute_force_full_blocks(
        scale: i64,
        offset: i64,
        bound: i64,
        blocks: u32,
        threads: u32,
    ) -> u64 {
        let mut full = 0u64;
        for b in 0..blocks as i64 {
            let all =
                (0..threads as i64).all(|t| (b * threads as i64 + t) * scale + offset < bound);
            if all && full == b as u64 {
                full += 1;
            } else if !all {
                break;
            }
        }
        full
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
            let kernel = parse_kernel(&src).unwrap();
            let verdict = analyze_kernel(&kernel);
            let Verdict::Distributable(meta) = &verdict else {
                panic!("guarded affine kernel must be distributable");
            };
            let tail: Vec<_> = meta
                .sites
                .iter()
                .flat_map(|s| s.guards.iter())
                .filter_map(|g| match g {
                    GuardClass::Tail(t) => Some(t.clone()),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(tail.len(), 1, "exactly one tail guard");
            let launch = LaunchConfig::new(blocks, threads);
            let args = vec![Arg::int(0) /* placeholder for out */, Arg::int(bound)];
            // full_blocks_under_guard reads scalar params only; buffer slots
            // just need to exist positionally — pass an int placeholder.
            let got = full_blocks_under_guard(&tail[0], launch, &args)
                .expect("resolvable guard");
            let want = brute_force_full_blocks(scale, offset, bound, blocks, threads);
            prop_assert_eq!(got, want, "scale={} offset={} bound={} g={}x{}",
                scale, offset, bound, blocks, threads);
            let _ = Axis::X;
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
