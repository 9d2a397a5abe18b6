//! The one planning door (ISSUE 23): every launch reads the cluster's one
//! `ScheduleCache`, and a schedule is a function of its `ScheduleKey`.
//!
//! 1. a cached schedule is `PartialEq`-identical to a fresh `plan` —
//!    whatever the buffers hold by then, for every kernel of the builtin
//!    suites; a kernel whose contents can steer its control flow or its
//!    addresses is never cached, at any door;
//! 2. the key carries the *active node count*: a death makes the next
//!    lookup miss, a rejoin makes it hit again, and two different victims
//!    share one entry;
//! 3. the cache is bounded: a loop that varies a scalar argument cannot
//!    grow it past `ScheduleCache::CAPACITY`.

use cucc::cluster::ClusterSpec;
use cucc::core::{
    compile_source, CompiledKernel, CuccCluster, FaultPlan, GraphCapture, LaunchSchedule,
    MigrateError, RunOptions, ScheduleCache,
};
use cucc::exec::{profile_launch, Arg, EngineKind, ExecError};
use cucc::ir::{LaunchConfig, Param, Scalar, Value};
use cucc::workloads::{heteromark_kernels, perf_suite, triton_kernels, Scale};
use proptest::prelude::*;

const SAXPY: &str = "__global__ void f(float* x, float* y, float a, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) y[id] = a * x[id] + y[id];
}";

fn cluster(nodes: u32, faults: FaultPlan) -> CuccCluster {
    CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(nodes),
        RunOptions::builder().faults(faults).build(),
    )
}

fn setup(
    nodes: u32,
    n: usize,
    faults: FaultPlan,
) -> (CuccCluster, CompiledKernel, Vec<Arg>, LaunchConfig) {
    let ck = compile_source(SAXPY).unwrap();
    let mut cl = cluster(nodes, faults);
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
        let stats = cl.schedule_cache().stats();
        prop_assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        prop_assert_eq!(stats.hit_rate(), 0.5);
        prop_assert_eq!(&warm, &cold, "cached schedule differs from fresh plan");
        // The cache never changes what a plain plan would produce.
        let fresh = cl.plan(&ck, launch, &args).unwrap();
        prop_assert_eq!(&fresh, &cold);
    }

    /// A node death between two lookups changes the active node count:
    /// the second lookup must miss and replan for the smaller communicator
    /// — but the entry planned for the original count stays cached, and a
    /// join back to that count warm-hits it.
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
        prop_assert_eq!(cl.schedule_cache().stats().entries, 1);

        // The launch reads the entry just planned, then triggers the
        // scripted kill; recovery marks the victim dead, which bumps the
        // epoch and lowers the active count.
        let report = cl.launch(&ck, launch, &args).unwrap();
        prop_assert!(report.faults.failures > 0); // kill at t=0 always fires
        prop_assert!(!cl.is_alive(victim as usize));
        prop_assert_eq!(cl.epoch(), epoch0 + 1, "death must advance the epoch");
        let launched = cl.schedule_cache().stats();
        prop_assert_eq!((launched.hits, launched.misses), (1, 1), "the launch goes through the door");

        // Replan: a fresh miss, keyed against the survivors' count. The
        // original count's entry is retained, not evicted.
        let after = cl.plan_cached(&ck, launch, &args).unwrap();
        let degraded = cl.schedule_cache().stats().since(&launched);
        prop_assert_eq!((degraded.hits, degraded.misses), (0, 1), "post-death lookup must miss");
        prop_assert_eq!(degraded.entries, 2, "entries of both counts coexist");
        // The surviving communicator is smaller, so the three-phase
        // partition cannot be the one planned for the full cluster.
        prop_assert!(after != before, "stale schedule reused across a membership change");

        // The next launch boundary admits the victim back: the cluster
        // returns to its original count, and both the launch's lookup and
        // ours find the entry planned for it.
        let rejoin = cl.schedule_cache().stats();
        cl.launch(&ck, launch, &args).unwrap();
        let back = cl.plan_cached(&ck, launch, &args).unwrap();
        prop_assert!(cl.is_alive(victim as usize), "join must revive the victim");
        prop_assert_eq!(cl.epoch(), epoch0 + 2, "join must advance the epoch");
        let rejoined = cl.schedule_cache().stats().since(&rejoin);
        prop_assert_eq!(
            (rejoined.hits, rejoined.misses),
            (2, 0),
            "return to the original count must warm-hit"
        );
        prop_assert_eq!(&back, &before, "warm hit must return the original plan");
        prop_assert_eq!(rejoined.entries, 2, "both counts' entries outlive the cycle");
    }
}

/// Two different victims, one entry. On 5 nodes: launch 0 loses node 1
/// mid-collective; launch 1 runs degraded on {0,2,3,4}; launch 2's boundary
/// admits node 1 back and node 3 dies inside it; launch 3 runs degraded on
/// {0,1,2,4}. The two degraded launches see different alive masks and the
/// same active count, so the second reads the schedule planned for the
/// first — and that schedule equals a fresh plan, and memory equals the
/// fault-free run's.
#[test]
fn different_victims_share_the_entry_of_their_count() {
    let n = 3000usize;
    // Returns `y`, each launch's miss count, the survivors it left and the
    // clock after it. With `probe`, also holds the door to a fresh plan
    // after every launch (its own lookups would blur the miss counts).
    let run = |faults: FaultPlan, probe: bool| {
        let (mut cl, ck, args, launch) = setup(5, n, faults);
        let (mut misses, mut alive, mut clocks) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..4 {
            let before = cl.schedule_cache().stats();
            cl.launch(&ck, launch, &args).unwrap();
            misses.push(cl.schedule_cache().stats().since(&before).misses);
            alive.push(cl.cluster_state().alive_ids());
            clocks.push(cl.clock());
            if probe {
                let door = cl.plan_cached(&ck, launch, &args).unwrap();
                assert_eq!(door, cl.plan(&ck, launch, &args).unwrap(), "launch {i}");
            }
        }
        let Arg::Buffer(y) = args[1] else {
            unreachable!()
        };
        (cl.download::<u8>(y).unwrap(), misses, alive, clocks)
    };
    let (clean, clean_misses, ..) = run(FaultPlan::none(), false);
    assert_eq!(clean_misses, vec![1, 0, 0, 0]);

    // The clock at launch 2's boundary, read off the first kill alone.
    let first_kill = FaultPlan::none().kill(1, 0.0);
    let boundary = run(first_kill.clone(), false).3[1];
    let faults = first_kill.join(1, boundary).kill(3, boundary);
    let (faulted, misses, alive, _) = run(faults.clone(), false);
    assert_eq!(
        alive,
        vec![
            vec![0, 2, 3, 4],
            vec![0, 2, 3, 4],
            vec![0, 1, 2, 4],
            vec![0, 1, 2, 4]
        ]
    );
    // One plan for five nodes, one for four: launch 3 (a miss when the key
    // held the alive mask) hits the entry launch 1 planned.
    assert_eq!(misses, vec![1, 1, 0, 0]);
    assert_eq!(faulted, clean, "memory equals the fault-free run's");
    assert_eq!(run(faults, true).0, clean);
}

/// One builtin kernel with its launch and initial buffers.
struct Case {
    name: String,
    source: String,
    launch: LaunchConfig,
    buffers: Vec<Vec<u8>>,
    scalars: Vec<Value>,
}

/// The 8 perf-suite programs.
fn perf_cases() -> impl Iterator<Item = Case> {
    perf_suite(Scale::Test).into_iter().map(|b| Case {
        name: b.name().to_string(),
        source: b.source(),
        launch: b.launch(),
        buffers: b.buffers(),
        scalars: b.scalars(),
    })
}

/// The 8 perf-suite programs and the 34 coverage kernels.
fn builtin_cases() -> Vec<Case> {
    let perf = perf_cases();
    let coverage = triton_kernels()
        .into_iter()
        .chain(heteromark_kernels())
        .map(|k| Case {
            name: k.name.to_string(),
            source: k.source,
            launch: k.launch,
            buffers: k.buffer_bytes.iter().map(|&b| vec![0u8; b]).collect(),
            scalars: k.scalars,
        });
    perf.chain(coverage).collect()
}

/// Allocate and upload `case`'s buffers on `cl` and bind them, with its
/// scalars, to `ck`'s parameters in order.
fn bind(cl: &mut CuccCluster, ck: &CompiledKernel, case: &Case) -> Vec<Arg> {
    let (mut bufs, mut scalars) = (case.buffers.iter(), case.scalars.iter());
    ck.kernel
        .params
        .iter()
        .map(|p| match p {
            Param::Buffer { .. } => {
                let data = bufs.next().expect("a buffer per buffer param");
                let id = cl.alloc(data.len());
                cl.upload(id, data).unwrap();
                Arg::Buffer(id)
            }
            Param::Scalar { .. } => Arg::Scalar(*scalars.next().expect("a scalar per param")),
        })
        .collect()
}

/// xorshift64*: the refill's self-contained deterministic RNG.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Overwrite every buffer argument with seeded values: small non-negative
/// integers (so a kernel that loops or indexes on what it loads stays
/// finite) and floats in [-4, 4).
fn refill(cl: &mut CuccCluster, ck: &CompiledKernel, args: &[Arg], seed: u64) {
    let mut state = seed.max(1);
    for (p, a) in ck.kernel.params.iter().zip(args) {
        let (Param::Buffer { elem, .. }, Arg::Buffer(id)) = (p, a) else {
            continue;
        };
        let len = cl.sim().node(0).size_of(*id);
        let mut bytes = Vec::with_capacity(len);
        while bytes.len() < len {
            let r = next(&mut state);
            match elem {
                Scalar::F32 => bytes
                    .extend_from_slice(&((r >> 40) as f32 / (1 << 21) as f32 - 4.0).to_le_bytes()),
                Scalar::F64 => bytes.extend_from_slice(
                    &((r >> 11) as f64 / (1u64 << 50) as f64 - 4.0).to_le_bytes(),
                ),
                Scalar::I64 => bytes.extend_from_slice(&((r % 8) as i64).to_le_bytes()),
                Scalar::I32 => bytes.extend_from_slice(&((r % 8) as i32).to_le_bytes()),
                _ => bytes.push((r % 8) as u8),
            }
        }
        bytes.truncate(len);
        cl.upload(*id, &bytes).unwrap();
    }
}

/// The profiler differential: planning samples blocks with the launch's
/// certified program on the compiled engine, and the profile it took (or the
/// error it stopped at) is `PartialEq`-equal to the tree-walk oracle's,
/// `profile_launch`, on the same node memory.
fn assert_profiled_like_the_oracle(
    cl: &CuccCluster,
    ck: &CompiledKernel,
    launch: LaunchConfig,
    args: &[Arg],
    planned: &Result<LaunchSchedule, MigrateError>,
) {
    let samples = RunOptions::default().profile_samples;
    let oracle = profile_launch(&ck.kernel, launch, args, cl.sim().node(0), samples);
    let planned = planned.as_ref().map(|s| s.profile).map_err(Clone::clone);
    assert_eq!(planned, oracle.map_err(MigrateError::Exec), "{}", ck.name());
}

/// The stationarity differential: for every builtin kernel on 4 nodes, what
/// the door returns equals a fresh `plan` — before the kernel's own launch,
/// after it, and after each of three seeded refills of every buffer. Each
/// fresh plan's profile is also held to the tree-walk oracle's.
#[test]
fn the_door_equals_a_fresh_plan_under_any_contents() {
    let mut steered = Vec::new();
    let mut cached = 0;
    for case in builtin_cases() {
        let ck = compile_source(&case.source).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let mut cl = cluster(4, FaultPlan::none());
        let args = bind(&mut cl, &ck, &case);
        let check = |cl: &mut CuccCluster, when: &str| {
            let text = |r: Result<LaunchSchedule, _>| {
                r.map_err(|e: cucc::core::MigrateError| e.to_string())
            };
            let door = text(cl.plan_cached(&ck, case.launch, &args));
            let fresh = cl.plan(&ck, case.launch, &args);
            assert_profiled_like_the_oracle(cl, &ck, case.launch, &args, &fresh);
            assert_eq!(door, text(fresh), "{}: {when}", case.name);
        };
        check(&mut cl, "before its launch");
        // Zero-filled coverage inputs can trap a launch (a loaded divisor);
        // the door is held to the fresh plan either way.
        let _ = cl.launch(&ck, case.launch, &args);
        check(&mut cl, "after its launch");
        for seed in [11, 12, 13] {
            refill(&mut cl, &ck, &args, seed);
            check(&mut cl, "after a refill");
        }
        let stats = cl.schedule_cache().stats();
        if ck.analysis.content_steered {
            assert_eq!((stats.hits, stats.entries), (0, 0), "{}", case.name);
            steered.push(case.name);
        } else {
            assert_eq!(stats.entries, 1, "{}", case.name);
            assert!(stats.hits >= 4, "{}: {stats:?}", case.name);
            cached += 1;
        }
    }
    println!(
        "{cached} kernels cached, {} content-steered (never cached): {steered:?}",
        steered.len()
    );
    assert_eq!(cached + steered.len(), 42);
}

/// `--sanitize` observes the same under the tree walk as on lanes, for
/// the perf-suite programs on 4 nodes (three-phase, replicated and
/// content-steered), at a planning miss and at a cache hit: the same
/// launch outcome (a soundness violation is an error) and the same
/// sanitizer report.
#[test]
fn sanitized_builtins_agree_across_engines() {
    for case in perf_cases() {
        let ck = compile_source(&case.source).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let sanitized = |engine: EngineKind| {
            let options = RunOptions::builder().sanitize(true).engine(engine).build();
            let mut cl =
                CuccCluster::with_options(ClusterSpec::simd_focused().with_nodes(4), options);
            let args = bind(&mut cl, &ck, &case);
            (0..2)
                .map(|_| {
                    let outcome = cl.launch(&ck, case.launch, &args).map(|_| ());
                    let report = cl.sanitize_report().map(|r| format!("{r:?}"));
                    (outcome.map_err(|e| e.to_string()), report)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            sanitized(EngineKind::TreeWalk),
            sanitized(EngineKind::Lane),
            "{}",
            case.name
        );
    }
}

/// A profile that traps stops where the oracle's does. Eight blocks of 32 at
/// three samples run the tail (7), then blocks 0, 2 and 4. Block 2 holds two
/// faults — thread 5 divides by zero, thread 3 stores out of bounds — and
/// block 4 a third: the lower thread of the first faulting sample wins.
#[test]
fn a_trapping_profile_fails_with_the_oracles_error() {
    let ck = compile_source(
        "__global__ void f(int* out, int* d, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            if (id < n) out[id + (d[id] == 2) * 100000] = 100 / d[id];
        }",
    )
    .unwrap();
    let n = 256usize;
    let mut d = vec![1i32; n];
    d[2 * 32 + 3] = 2;
    d[2 * 32 + 5] = 0;
    d[4 * 32] = 0;
    let mut cl = cluster(4, FaultPlan::none());
    let out = cl.alloc(n * 4);
    let dbuf = cl.alloc(n * 4);
    cl.upload::<i32>(dbuf, &d).unwrap();
    let args = [Arg::Buffer(out), Arg::Buffer(dbuf), Arg::int(n as i64)];
    let launch = LaunchConfig::cover1(n as u64, 32);
    let planned = cl.plan(&ck, launch, &args);
    assert_profiled_like_the_oracle(&cl, &ck, launch, &args, &planned);
    let want = ExecError::OutOfBounds {
        mem: "out".into(),
        index: 2 * 32 + 3 + 100000,
        len_elems: n,
    };
    assert_eq!(planned, Err(MigrateError::Exec(want)));
}

/// A kernel whose trip count is loaded from a buffer: the schedule really
/// differs between two contents, so no key can serve both — the door must
/// plan it fresh every time, through every entry point.
const LOADED_TRIPS: &str = "__global__ void f(int* trips, float* x, float* y, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    int t = trips[0];
    float acc = 0.0f;
    for (int i = 0; i < t; i++) acc = acc + x[id] * 0.5f;
    if (id < n) y[id] = acc;
}";

#[test]
fn loaded_trip_count_is_planned_fresh_at_every_door() {
    let n = 2048usize;
    let ck = compile_source(LOADED_TRIPS).unwrap();
    assert!(ck.analysis.content_steered);
    assert!(!compile_source(SAXPY).unwrap().analysis.content_steered);
    let launch = LaunchConfig::cover1(n as u64, 128);
    let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
    let build = || {
        let mut cl = cluster(4, FaultPlan::none());
        let trips = cl.alloc(4);
        let x = cl.alloc(n * 4);
        let y = cl.alloc(n * 4);
        cl.upload::<f32>(x, &xs).unwrap();
        (
            cl,
            trips,
            y,
            [
                Arg::Buffer(trips),
                Arg::Buffer(x),
                Arg::Buffer(y),
                Arg::int(n as i64),
            ],
        )
    };
    // The reference: a cluster built for each content, so its one lookup
    // cannot have been cached.
    let reference = |t: i32| {
        let (mut cl, trips, y, args) = build();
        cl.upload::<i32>(trips, &[t]).unwrap();
        let report = cl.launch(&ck, launch, &args).unwrap();
        (report, cl.download::<u8>(y).unwrap())
    };
    let (few, many) = (reference(2), reference(40));
    assert_ne!(
        few.0.times, many.0.times,
        "the two contents plan differently"
    );

    type Door = fn(
        &mut CuccCluster,
        &CompiledKernel,
        LaunchConfig,
        &[Arg],
    ) -> Option<cucc::core::LaunchReport>;
    let doors: [(&str, Door); 3] = [
        ("launch", |cl, ck, launch, args| {
            Some(cl.launch(ck, launch, args).unwrap())
        }),
        ("launch_on", |cl, ck, launch, args| {
            let s = cl.stream_create();
            let report = cl.launch_on(ck, launch, args, s).unwrap();
            cl.synchronize().unwrap();
            Some(report)
        }),
        ("graph_replay", |cl, ck, launch, args| {
            let mut cap = GraphCapture::new();
            cap.launch(ck, launch, args);
            cl.graph_replay(&cap.finish()).unwrap();
            None
        }),
    ];
    for (door, enter) in doors {
        let (mut cl, trips, y, args) = build();
        for (t, want) in [(2, &few), (40, &many), (2, &few)] {
            cl.upload::<i32>(trips, &[t]).unwrap();
            let before = cl.clock();
            let report = enter(&mut cl, &ck, launch, &args);
            if let Some(report) = report {
                assert_eq!(report, want.0, "{door}, {t} trips");
            } else {
                // Replay reports no per-launch value; its clock moves by
                // the schedule it ran, less the gather it elided (nothing in
                // the graph consumes `y`; the download materializes it).
                let moved = cl.clock() - before;
                let want = want.0.times.partial + want.0.times.callback;
                assert!((moved - want).abs() <= 1e-9 * want, "{door}, {t} trips");
            }
            assert_eq!(cl.download::<u8>(y).unwrap(), want.1, "{door}, {t} trips");
        }
        let stats = cl.schedule_cache().stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (0, 3, 0),
            "{door}"
        );
    }
}

/// An eager loop that varies a scalar argument makes one key per
/// iteration; the cache clears itself rather than grow without bound, and
/// every launch — first sight, retained entry or evicted one — reports and
/// computes what a cluster built for that one launch does.
#[test]
fn a_varying_scalar_cannot_grow_the_cache_past_its_capacity() {
    let n = 256usize;
    let cap = ScheduleCache::CAPACITY;
    let ck = compile_source(
        "__global__ void f(float* x, float* y, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            if (id < n) y[id] = 2.0f * x[id];
        }",
    )
    .unwrap();
    let launch = LaunchConfig::cover1(n as u64, 128);
    let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    let build = || {
        let mut cl = cluster(2, FaultPlan::none());
        let x = cl.alloc(n * 4);
        let y = cl.alloc(n * 4);
        cl.upload::<f32>(x, &xs).unwrap();
        (cl, x, y)
    };
    let (mut cl, x, y) = build();
    let launch_with = |cl: &mut CuccCluster, i: usize| {
        // `n` below the grid leaves the tail of `y` as it was: start clean.
        cl.upload::<f32>(y, &vec![0.0; n]).unwrap();
        let args = [Arg::Buffer(x), Arg::Buffer(y), Arg::int(i as i64)];
        let report = cl.launch(&ck, launch, &args).unwrap();
        (report, cl.download::<u8>(y).unwrap())
    };
    let check = |cl: &mut CuccCluster, i: usize| {
        let got = launch_with(cl, i);
        // The uncached run: a cluster whose only lookup is this one.
        let (mut fresh, ..) = build();
        assert_eq!(got, launch_with(&mut fresh, i), "n = {i}");
        assert_eq!(fresh.schedule_cache().stats().misses, 1);
        assert!(cl.schedule_cache().stats().entries <= cap, "n = {i}");
    };
    for i in 0..2 * cap {
        check(&mut cl, i);
    }
    let stats = cl.schedule_cache().stats();
    assert_eq!((stats.hits, stats.misses), (0, 2 * cap as u64));
    assert_eq!(
        stats.entries, cap,
        "cleared once, then refilled to the brim"
    );
    // A retained key hits; an evicted one misses (and clears again).
    check(&mut cl, 2 * cap - 1);
    check(&mut cl, 0);
    let after = cl.schedule_cache().stats().since(&stats);
    assert_eq!((after.hits, after.misses, after.entries), (1, 1, 1));
}
