//! The three launch doors agree under every small fault plan.
//!
//! A small-scope state-space search: two launches of one kernel run
//! through each door — `launch` (inputs from `upload`), `launch_on` on the
//! default stream (inputs from `upload_on`, output by `download_on`) and a
//! two-launch `graph_replay` — under every plan of a bounded family:
//!
//! * every single `kill` / `straggle` (factor 3) / `drop` × node × instant,
//!   where the instants are 0 and every span start and end of the clean
//!   run, each also taken one ulp later;
//! * three drops at one instant (the retry budget runs out: a timeout);
//! * every kill→join pair of one node (join at or after the kill).
//!
//! Over two kernels (Listing 1's copy, three-phase; an `atomicAdd` tally,
//! replicated) and three geometries (25 blocks on 3 nodes, where a death
//! re-balances; 16 blocks on 4 nodes, where it cannot, with degraded
//! completion allowed and refused), the invariants are:
//!
//! * sync ≡ replay on recorded spans (name, track, category, duration
//!   bits), downloaded memory and error text;
//! * sync ≡ stream on memory and error text; and, for plans without a
//!   join, also on spans and on each launch's report (`times`,
//!   `wire_bytes`, `node_stats`, `faults`). A stream launch is not a
//!   membership boundary, so with a join the doors' timelines differ by
//!   design: [`stream_launch_admits_a_ripe_join_at_its_allgather`] pins
//!   how.
//!
//! An armed plan never elides a gather, so replay is comparable span for
//! span. `doors_agree_on_a_slice` (every tenth plan) runs in the default
//! suite; the whole enumeration is
//! `cargo test --release --test door_enumeration -- --ignored --nocapture`.

use cucc::cluster::ClusterSpec;
use cucc::core::{
    compile_source, CompiledKernel, CuccCluster, FaultPlan, GraphCapture, LaunchReport, RunOptions,
    DEFAULT_STREAM,
};
use cucc::exec::Arg;
use cucc::ir::LaunchConfig;
use cucc::trace::{Category, Track};
use std::time::Instant;

const COPY: &str = "__global__ void vec_copy(char* src, char* dest, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) dest[id] = src[id];
}";

const TALLY: &str = "__global__ void tally(char* src, int* dest, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) atomicAdd(&dest[id % 64], 1);
}";

const BLOCK: u32 = 256;

/// One kernel on one cluster shape.
struct Case {
    ck: CompiledKernel,
    nodes: u32,
    blocks: u32,
    allow_degraded: bool,
}

impl Case {
    fn bytes(&self) -> usize {
        (self.blocks * BLOCK) as usize
    }

    fn label(&self) -> String {
        format!(
            "{} {}×{BLOCK} on {} nodes{}",
            self.ck.name(),
            self.blocks,
            self.nodes,
            if self.allow_degraded {
                ""
            } else {
                ", degraded refused"
            }
        )
    }
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for src in [COPY, TALLY] {
        for (nodes, blocks, allow_degraded) in [(3, 25, true), (4, 16, true), (4, 16, false)] {
            cases.push(Case {
                ck: compile_source(src).unwrap(),
                nodes,
                blocks,
                allow_degraded,
            });
        }
    }
    cases
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Door {
    Sync,
    Stream,
    Replay,
}

type SpanKey = (String, Track, Category, u64);

/// What one door produced for a two-launch run.
#[derive(Debug, PartialEq)]
struct Outcome {
    spans: Vec<SpanKey>,
    /// Per-launch reports (replay reports none).
    reports: Vec<LaunchReport>,
    mem: Option<Vec<u8>>,
    err: Option<String>,
}

impl Outcome {
    /// Whether some launch completed with a fault on its record.
    fn fired(&self) -> bool {
        self.reports.iter().any(|r| !r.faults.is_clean())
    }
}

/// Run the case's kernel twice through `door` under `faults`.
fn run(case: &Case, door: Door, faults: FaultPlan) -> Outcome {
    let faults = FaultPlan {
        allow_degraded: case.allow_degraded,
        ..faults
    };
    let spec = ClusterSpec::simd_focused().with_nodes(case.nodes);
    let mut cl = CuccCluster::with_options(spec, RunOptions::builder().faults(faults).build());
    let n = case.bytes();
    let (src, dest) = (cl.alloc(n), cl.alloc(n));
    let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
    let launch = LaunchConfig::new(case.blocks, BLOCK);
    let args = [Arg::Buffer(src), Arg::Buffer(dest), Arg::int(n as i64)];
    let mut reports = Vec::new();
    let result = match door {
        Door::Sync => cl.upload(src, &data).and_then(|()| {
            for _ in 0..2 {
                reports.push(cl.launch(&case.ck, launch, &args)?);
            }
            cl.download::<u8>(dest)
        }),
        Door::Stream => cl.upload_on(src, &data, DEFAULT_STREAM).and_then(|()| {
            for _ in 0..2 {
                reports.push(cl.launch_on(&case.ck, launch, &args, DEFAULT_STREAM)?);
            }
            let mem = cl.download_on::<u8>(dest, DEFAULT_STREAM)?;
            cl.synchronize()?;
            Ok(mem)
        }),
        Door::Replay => cl.upload(src, &data).and_then(|()| {
            let mut cap = GraphCapture::new();
            for _ in 0..2 {
                cap.launch(&case.ck, launch, &args);
            }
            cl.graph_replay(&cap.finish())?;
            cl.download::<u8>(dest)
        }),
    };
    let spans = cl
        .timeline()
        .spans()
        .iter()
        .map(|s| (s.name.clone(), s.track, s.category, s.dur.to_bits()))
        .collect();
    let (mem, err) = match result {
        Ok(mem) => (Some(mem), None),
        Err(e) => (None, Some(e.to_string())),
    };
    Outcome {
        spans,
        reports,
        mem,
        err,
    }
}

/// 0 and every span start and end of the clean sync run, each also one
/// ulp later; ascending, without duplicates.
fn instants(case: &Case) -> Vec<f64> {
    let spec = ClusterSpec::simd_focused().with_nodes(case.nodes);
    let mut cl = CuccCluster::with_options(spec, RunOptions::default());
    let n = case.bytes();
    let (src, dest) = (cl.alloc(n), cl.alloc(n));
    cl.upload(src, &vec![1u8; n]).unwrap();
    let args = [Arg::Buffer(src), Arg::Buffer(dest), Arg::int(n as i64)];
    for _ in 0..2 {
        let report = cl
            .launch(&case.ck, LaunchConfig::new(case.blocks, BLOCK), &args)
            .unwrap();
        // A clean launch re-executes nothing, and says so with +0.0.
        assert_eq!(report.times.reexec.to_bits(), 0, "{}", case.label());
    }
    let mut ts = vec![0.0];
    for s in cl.timeline().spans() {
        ts.extend([s.start, s.end()]);
    }
    // One ulp later: the next bit pattern up, for a non-negative time.
    let later = |t: f64| f64::from_bits(t.to_bits() + 1);
    let mut ts: Vec<f64> = ts.iter().flat_map(|&t| [t, later(t)]).collect();
    ts.sort_by(f64::total_cmp);
    ts.dedup_by(|a, b| a.to_bits() == b.to_bits());
    ts
}

/// The enumerated plans of one case, each with whether it holds a join.
fn plans(case: &Case) -> Vec<(FaultPlan, bool)> {
    let ts = instants(case);
    let mut plans = Vec::new();
    for &t in &ts {
        for node in 0..case.nodes {
            plans.push((FaultPlan::none().kill(node, t), false));
            plans.push((FaultPlan::none().straggle(node, t, 3.0), false));
        }
        plans.push((FaultPlan::none().drop_step(t), false));
        let timeout = FaultPlan::none().drop_step(t).drop_step(t).drop_step(t);
        plans.push((timeout, false));
    }
    for (i, &kill) in ts.iter().enumerate() {
        for &join in &ts[i..] {
            for node in 0..case.nodes {
                plans.push((FaultPlan::none().kill(node, kill).join(node, join), true));
            }
        }
    }
    plans
}

#[derive(Debug, Default, PartialEq)]
struct Tally {
    plans: usize,
    fired: usize,
    errored: usize,
}

/// Run every `every`-th plan of every case through the three doors and
/// check that they agree.
fn enumerate(every: usize) -> Tally {
    let mut tally = Tally::default();
    for case in cases() {
        for (i, (plan, has_join)) in plans(&case).into_iter().enumerate() {
            if i % every != 0 {
                continue;
            }
            let what = format!("{} under {:?}", case.label(), plan.events);
            let sync = run(&case, Door::Sync, plan.clone());
            let replay = run(&case, Door::Replay, plan.clone());
            assert_eq!(sync.spans, replay.spans, "sync vs replay spans: {what}");
            assert_eq!(sync.mem, replay.mem, "sync vs replay memory: {what}");
            assert_eq!(sync.err, replay.err, "sync vs replay error: {what}");
            let stream = run(&case, Door::Stream, plan);
            if has_join {
                assert_eq!(sync.mem, stream.mem, "sync vs stream memory: {what}");
                assert_eq!(sync.err, stream.err, "sync vs stream error: {what}");
            } else {
                assert_eq!(sync, stream, "sync vs stream: {what}");
            }
            tally.plans += 1;
            tally.fired += usize::from(sync.fired());
            tally.errored += usize::from(sync.err.is_some());
        }
    }
    tally
}

#[test]
fn doors_agree_on_a_slice() {
    let tally = enumerate(10);
    println!("door enumeration (1 in 10): {tally:?}");
    assert!(tally.fired > 0 && tally.errored > 0, "{tally:?}");
}

#[test]
#[ignore = "the whole enumeration: run in release with --ignored"]
fn doors_agree_under_every_small_fault_plan() {
    let start = Instant::now();
    let tally = enumerate(1);
    println!(
        "door enumeration: {} plans, {} fired, {} errored, {:.1} s",
        tally.plans,
        tally.fired,
        tally.errored,
        start.elapsed().as_secs_f64()
    );
}

/// With a join the doors differ by design. A synchronous launch is a
/// membership boundary: a join ripe by its start enters before planning,
/// so the launch plans on the grown communicator. A stream launch is not:
/// it plans on the survivors and the join enters at its Allgather, as a
/// mid-launch join. Memory is the same either way.
#[test]
fn stream_launch_admits_a_ripe_join_at_its_allgather() {
    let case = &cases()[0];
    assert_eq!((case.nodes, case.blocks), (3, 25));
    // Node 2 dies in the first launch. Its join is ripe from t = 0, but a
    // node that died in a launch rejoins at the next boundary at the
    // earliest.
    let plan = FaultPlan::none().kill(2, 0.0).join(2, 0.0);
    let sync = run(case, Door::Sync, plan.clone());
    let stream = run(case, Door::Stream, plan);
    assert_eq!(sync.err, None);
    assert_eq!(sync.mem, stream.mem);
    assert_eq!(sync.reports[0], stream.reports[0]);
    // The sync door's second launch runs clean on three nodes again; the
    // stream door's second launch re-partitions when the joiner arrives.
    assert!(sync.reports[1].faults.is_clean(), "{:?}", sync.reports[1]);
    assert!(
        stream.reports[1].faults.reexecuted_blocks > 0,
        "{:?}",
        stream.reports[1]
    );
    assert_ne!(sync.spans, stream.spans);
}
