//! The schedule cache's two load-bearing properties (ISSUE 6, re-keyed
//! by ISSUE 8's elastic membership state):
//!
//! 1. a warm (cached) plan is `PartialEq`-identical to the cold plan it
//!    memoized — caching never changes what executes;
//! 2. a cached schedule is **never** reused across a cluster-shape change:
//!    entries are keyed on the interned membership-shape id, so a node
//!    death makes the next lookup replan against the surviving
//!    communicator — while a later join back to the original shape
//!    warm-hits the entry planned for it.

use cucc::cluster::ClusterSpec;
use cucc::core::{compile_source, CompiledKernel, CuccCluster, FaultPlan, RunOptions};
use cucc::exec::Arg;
use cucc::ir::LaunchConfig;
use proptest::prelude::*;

const SAXPY: &str = "__global__ void f(float* x, float* y, float a, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) y[id] = a * x[id] + y[id];
}";

fn setup(
    nodes: u32,
    n: usize,
    faults: FaultPlan,
) -> (CuccCluster, CompiledKernel, Vec<Arg>, LaunchConfig) {
    let ck = compile_source(SAXPY).unwrap();
    let mut cl = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(nodes),
        RunOptions::builder().faults(faults).build(),
    );
    let x = cl.alloc(n * 4);
    let y = cl.alloc(n * 4);
    let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    cl.upload::<f32>(x, &xs).unwrap();
    cl.upload::<f32>(y, &xs).unwrap();
    let args = vec![
        Arg::Buffer(x),
        Arg::Buffer(y),
        Arg::float(2.0),
        Arg::int(n as i64),
    ];
    (cl, ck, args, LaunchConfig::cover1(n as u64, 128))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cold and warm plans are indistinguishable, and the warm one really
    /// came from the cache.
    #[test]
    fn warm_plans_equal_cold_plans(
        n in 256usize..4000,
        nodes in 1u32..6,
    ) {
        let (mut cl, ck, args, launch) = setup(nodes, n, FaultPlan::none());
        let cold = cl.plan_cached(&ck, launch, &args).unwrap();
        let warm = cl.plan_cached(&ck, launch, &args).unwrap();
        prop_assert_eq!(cl.schedule_cache().hits(), 1);
        prop_assert_eq!(cl.schedule_cache().misses(), 1);
        prop_assert_eq!(&warm, &cold, "cached schedule differs from fresh plan");
        // The cache never changes what a plain plan would produce.
        let fresh = cl.plan(&ck, launch, &args).unwrap();
        prop_assert_eq!(&fresh, &cold);
    }

    /// A node death between two lookups changes the membership shape: the
    /// second lookup must miss and replan for the smaller communicator —
    /// but the entry planned for the original shape stays cached, and a
    /// join back to that exact shape warm-hits it.
    #[test]
    fn cached_schedules_never_survive_shape_changes(
        n in 512usize..4000,
        nodes in 3u32..6,
        victim in 0u32..8,
    ) {
        let victim = victim % nodes;
        // The kill fires during the first launch's collective. The join is
        // ripe immediately, but a node that died *this* launch only
        // rejoins at the next launch boundary.
        let (mut cl, ck, args, launch) = setup(
            nodes,
            n,
            FaultPlan::none().kill(victim, 0.0).join(victim, 0.0),
        );
        let epoch0 = cl.epoch();
        let before = cl.plan_cached(&ck, launch, &args).unwrap();
        prop_assert_eq!(cl.schedule_cache().len(), 1);

        // The launch triggers the scripted kill; recovery marks the victim
        // dead, which bumps the epoch and changes the shape id.
        let report = cl.launch(&ck, launch, &args).unwrap();
        prop_assert!(report.faults.failures > 0); // kill at t=0 always fires
        prop_assert!(!cl.is_alive(victim as usize));
        prop_assert_eq!(cl.epoch(), epoch0 + 1, "death must advance the epoch");

        // Replan: a fresh miss, keyed against the survivors' shape. The
        // original shape's entry is retained, not evicted.
        let after = cl.plan_cached(&ck, launch, &args).unwrap();
        prop_assert_eq!(cl.schedule_cache().misses(), 2, "post-death lookup must miss");
        prop_assert_eq!(cl.schedule_cache().hits(), 0);
        prop_assert_eq!(cl.schedule_cache().len(), 2, "shape-keyed entries coexist");
        // The surviving communicator is smaller, so the three-phase
        // partition cannot be the one planned for the full cluster.
        prop_assert!(after != before, "stale schedule reused across shape change");

        // The next launch boundary admits the victim back: the cluster
        // returns to its original shape, and the lookup planned for that
        // shape is warm again.
        cl.launch(&ck, launch, &args).unwrap();
        let hits0 = cl.schedule_cache().hits();
        let back = cl.plan_cached(&ck, launch, &args).unwrap();
        prop_assert!(cl.is_alive(victim as usize), "join must revive the victim");
        prop_assert_eq!(cl.epoch(), epoch0 + 2, "join must advance the epoch");
        prop_assert_eq!(
            cl.schedule_cache().hits(),
            hits0 + 1,
            "return to the original shape must warm-hit"
        );
        prop_assert_eq!(&back, &before, "warm hit must return the original plan");
        prop_assert_eq!(cl.schedule_cache().len(), 2, "both shapes' entries outlive the cycle");
    }
}
