//! Property tests of the fault-tolerant runtime: for randomized kernels,
//! data, cluster sizes and injected single-node faults, a recovered launch
//! must reproduce the fault-free memory bit-for-bit — and a fault plan that
//! never fires must reproduce the fault-free `LaunchReport` bit-for-bit.

use cucc::cluster::ClusterSpec;
use cucc::core::{compile_source, CompiledKernel, CuccCluster, FaultPlan, RunOptions};
use cucc::exec::Arg;
use cucc::ir::LaunchConfig;
use proptest::prelude::*;

/// saxpy-like family: `y[id] = a·x[id] + y[id]` with a tail guard and a
/// random per-thread multiplicity (same family as `proptest_distributed`).
fn family_source(width: usize) -> String {
    if width == 1 {
        "__global__ void f(float* x, float* y, float a, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            if (id < n) y[id] = a * x[id] + y[id];
        }"
        .to_string()
    } else {
        format!(
            "__global__ void f(float* x, float* y, float a, int n) {{
                for (int i = 0; i < {width}; i++) {{
                    int id = blockIdx.x * blockDim.x + threadIdx.x;
                    if (id * {width} + i < n)
                        y[id * {width} + i] = a * x[id * {width} + i] + y[id * {width} + i];
                }}
            }}"
        )
    }
}

/// Run the kernel on a fresh cluster with `faults` armed and return the
/// launch outcome, the final bytes of `y`, and the cluster itself.
#[allow(clippy::too_many_arguments)]
fn run(
    ck: &CompiledKernel,
    nodes: u32,
    launch: LaunchConfig,
    xs: &[f32],
    ys: &[f32],
    a: f64,
    n: usize,
    faults: FaultPlan,
) -> (cucc::core::LaunchReport, Vec<u8>, CuccCluster) {
    let mut cl = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(nodes),
        RunOptions::builder().faults(faults).build(),
    );
    let x = cl.alloc(n * 4);
    let y = cl.alloc(n * 4);
    cl.upload::<f32>(x, xs).unwrap();
    cl.upload::<f32>(y, ys).unwrap();
    let report = cl
        .launch(
            ck,
            launch,
            &[
                Arg::Buffer(x),
                Arg::Buffer(y),
                Arg::float(a),
                Arg::int(n as i64),
            ],
        )
        .expect("single-node faults must be recoverable");
    let bytes = cl.download::<u8>(y).unwrap();
    (report, bytes, cl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Killing one random node at a random time yields memory bit-identical
    /// to the fault-free run, whether the kill fires before, during, or
    /// after the collective (or never).
    #[test]
    fn killed_node_recovers_bit_identical_memory(
        n in 256usize..4000,
        block in prop::sample::select(vec![64u32, 128, 256]),
        width in prop::sample::select(vec![1usize, 2]),
        nodes in 2u32..6,
        a in -2.0f64..2.0,
        victim in 0u32..8,
        kill_t in prop::sample::select(vec![0.0f64, 1e-7, 1e-5, 1e-3]),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let xs: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let ys: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let threads = n.div_ceil(width) as u64;
        let launch = LaunchConfig::cover1(threads, block);
        let ck = compile_source(&family_source(width)).unwrap();
        let victim = victim % nodes;

        let (clean_report, want, _) =
            run(&ck, nodes, launch, &xs, &ys, a, n, FaultPlan::none());
        let (report, got, cl) =
            run(&ck, nodes, launch, &xs, &ys, a, n, FaultPlan::none().kill(victim, kill_t));

        prop_assert_eq!(got, want, "recovered memory diverged (victim={}, t={})", victim, kill_t);
        if report.faults.failures > 0 {
            prop_assert!(!cl.is_alive(victim as usize), "confirmed-dead node still alive");
            prop_assert_eq!(cl.active_nodes(), nodes as usize - 1);
        } else {
            // The kill never fired (replicated schedule, or the collective
            // finished before `kill_t`): the report must match bit-for-bit.
            prop_assert_eq!(report, clean_report);
        }
    }

    /// A straggling node stretches the clock but never corrupts memory or
    /// counts as a failure.
    #[test]
    fn straggler_keeps_memory_and_stays_clean(
        n in 256usize..3000,
        nodes in 2u32..6,
        a in -2.0f64..2.0,
        victim in 0u32..8,
        factor in 1.5f64..6.0,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let xs: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let ys: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let launch = LaunchConfig::cover1(n as u64, 128);
        let ck = compile_source(&family_source(1)).unwrap();
        let victim = victim % nodes;

        let (clean_report, want, _) =
            run(&ck, nodes, launch, &xs, &ys, a, n, FaultPlan::none());
        let (report, got, _) = run(
            &ck, nodes, launch, &xs, &ys, a, n,
            FaultPlan::none().straggle(victim, 0.0, factor),
        );

        prop_assert_eq!(got, want, "straggler corrupted memory");
        prop_assert!(report.faults.is_clean(), "straggler counted as a failure");
        prop_assert!(
            report.times.total() >= clean_report.times.total(),
            "a straggler cannot make the launch faster"
        );
    }

    /// A fault plan that is armed but never fires must leave every launch
    /// bit-for-bit identical to a launch with no fault plan at all — the
    /// injection layer costs nothing until a fault actually lands.
    #[test]
    fn unfired_fault_plans_reproduce_clean_reports_bitwise(
        n in 256usize..3000,
        block in prop::sample::select(vec![64u32, 128, 256]),
        nodes in 1u32..6,
        a in -2.0f64..2.0,
        victim in 0u32..8,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let xs: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let ys: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let launch = LaunchConfig::cover1(n as u64, block);
        let ck = compile_source(&family_source(1)).unwrap();
        let victim = victim % nodes;

        let (clean, want, _) = run(&ck, nodes, launch, &xs, &ys, a, n, FaultPlan::none());
        // Kill far beyond any simulated completion time: armed, never fires.
        let (armed, got, _) =
            run(&ck, nodes, launch, &xs, &ys, a, n, FaultPlan::none().kill(victim, 1e9));

        prop_assert_eq!(got, want);
        prop_assert_eq!(&armed, &clean);
        prop_assert_eq!(armed.times.total().to_bits(), clean.times.total().to_bits());
        prop_assert_eq!(armed.wire_bytes, clean.wire_bytes);
    }
}

/// Two node deaths in one launch. 13 blocks on 4 nodes leave 12 distributed
/// chunks — divisible by 3 and by 2 — so both deaths re-partition across the
/// survivors (no degraded fallback) and memory must still match the
/// fault-free run bit-for-bit.
#[test]
fn double_kill_recovers_bit_identical_memory() {
    let ck = compile_source(&family_source(1)).unwrap();
    let n = 13 * 128;
    let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 100.0).collect();
    let ys: Vec<f32> = (0..n).map(|i| 50.0 - i as f32 * 0.125).collect();
    let launch = LaunchConfig::cover1(n as u64, 128);

    let (_, want, _) = run(&ck, 4, launch, &xs, &ys, 2.0, n, FaultPlan::none());
    let (report, got, cl) = run(
        &ck,
        4,
        launch,
        &xs,
        &ys,
        2.0,
        n,
        FaultPlan::none().kill(1, 0.0).kill(3, 0.0),
    );

    assert_eq!(
        got, want,
        "double-death recovery diverged from fault-free run"
    );
    assert_eq!(report.faults.failures, 2, "both kills must be confirmed");
    assert!(!cl.is_alive(1) && !cl.is_alive(3));
    assert_eq!(cl.active_nodes(), 2);
}
