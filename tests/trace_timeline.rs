//! Property tests of the trace timeline: the span record is not a side
//! channel — it IS the time accounting. Re-deriving `PhaseTimes` and wire
//! traffic from raw spans must reproduce the runtime's reported numbers
//! bit-for-bit, and the Chrome JSON export must round-trip through the
//! parser.

use cucc::cluster::ClusterSpec;
use cucc::core::{compile_source, CuccCluster, ExecMode, RuntimeConfig};
use cucc::exec::Arg;
use cucc::ir::LaunchConfig;
use cucc::net::{allgather_cost, AllgatherAlgo, AllgatherPlacement, GatherPlan, NetModel};
use cucc::trace::{json, Category, Timeline, Track, WIRE_BYTES};
use proptest::prelude::*;

/// Re-derive a phase duration from the raw span list exactly the way the
/// legacy accounting accumulated it: per-track in-order sum of depth-0
/// spans of the category, then max over tracks.
fn max_track_sum(tl: &Timeline, cat: Category) -> f64 {
    let mut best = 0.0f64;
    for track in tl.tracks() {
        let sum: f64 = tl
            .spans()
            .iter()
            .filter(|s| s.depth == 0 && s.category == cat && s.track == track)
            .fold(0.0, |acc, s| acc + s.dur);
        if sum > best {
            best = sum;
        }
    }
    best
}

/// In-order sum over every track (the order spans were recorded).
fn ordered_sum(tl: &Timeline, cat: Category) -> f64 {
    tl.spans()
        .iter()
        .filter(|s| s.depth == 0 && s.category == cat)
        .fold(0.0, |acc, s| acc + s.dur)
}

fn wire_counter_sum(tl: &Timeline) -> u64 {
    tl.counters()
        .iter()
        .filter(|c| c.name == WIRE_BYTES)
        .map(|c| c.value)
        .sum()
}

const TEMPLATES: [&str; 3] = [
    // saxpy: distributable, tail-divergent.
    "__global__ void k(float* x, float* y, float a, int n) {
        int id = blockIdx.x * blockDim.x + threadIdx.x;
        if (id < n) y[id] = a * x[id] + y[id];
    }",
    // copy: distributable, memory-bound.
    "__global__ void k(char* src, char* dst, int n) {
        int id = blockDim.x * blockIdx.x + threadIdx.x;
        if (id < n) dst[id] = src[id];
    }",
    // block-local reduction: one scalar store per block.
    "__global__ void k(float* out, int iters) {
        float acc = 0.0f;
        for (int i = 0; i < iters; i++)
            acc += 0.25f;
        if (threadIdx.x == 0)
            out[blockIdx.x] = acc;
    }",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Timeline-derived phase times and wire bytes equal the launch report
    /// (which in turn equals the legacy closed-form accounting) bit-for-bit.
    #[test]
    fn spans_rederive_launch_report(
        template in 0usize..3,
        elems in 256usize..8192,
        block in prop::sample::select(vec![64u32, 128, 256]),
        nodes in 1u32..9,
    ) {
        let ck = compile_source(TEMPLATES[template]).unwrap();
        let mut cl = CuccCluster::with_options(
            ClusterSpec::simd_focused().with_nodes(nodes),
            RuntimeConfig::modeled(),
        );
        let (launch, args) = match template {
            2 => {
                let blocks = (elems as u64).div_ceil(u64::from(block)).max(1) as u32;
                let out = cl.alloc(blocks as usize * 4);
                (LaunchConfig::new(blocks, block), vec![Arg::Buffer(out), Arg::int(50)])
            }
            1 => {
                let a = cl.alloc(elems);
                let b = cl.alloc(elems);
                (
                    LaunchConfig::cover1(elems as u64, block),
                    vec![Arg::Buffer(a), Arg::Buffer(b), Arg::int(elems as i64)],
                )
            }
            _ => {
                let a = cl.alloc(elems * 4);
                let b = cl.alloc(elems * 4);
                (
                    LaunchConfig::cover1(elems as u64, block),
                    vec![Arg::Buffer(a), Arg::Buffer(b), Arg::float(1.5), Arg::int(elems as i64)],
                )
            }
        };
        // Isolate the launch on the timeline (drop h2d setup spans).
        cl.reset_clock();
        let report = cl.launch(&ck, launch, &args).unwrap();

        let tl = cl.timeline();
        let partial = max_track_sum(tl, Category::Partial);
        let allgather = ordered_sum(tl, Category::Allgather);
        let callback = max_track_sum(tl, Category::Callback);
        let broadcast = ordered_sum(tl, Category::Broadcast);

        prop_assert_eq!(partial.to_bits(), report.times.partial.to_bits());
        prop_assert_eq!(allgather.to_bits(), report.times.allgather.to_bits());
        prop_assert_eq!(callback.to_bits(), report.times.callback.to_bits());
        prop_assert_eq!(broadcast.to_bits(), 0.0f64.to_bits());
        let total = partial + allgather + callback + broadcast;
        prop_assert_eq!(total.to_bits(), report.times.total().to_bits());
        // The clock is a derived view too: reset to 0, one launch → total.
        prop_assert_eq!(cl.clock().to_bits(), report.time().to_bits());

        prop_assert_eq!(wire_counter_sum(tl), report.wire_bytes);
        if let ExecMode::ThreePhase { nodes, .. } = report.mode {
            if nodes > 1 && report.wire_bytes > 0 {
                // Every allgather span sits on the network track; every
                // node sees exactly one partial and one callback span.
                let net_ag = tl.spans().iter().filter(|s| {
                    s.depth == 0 && s.category == Category::Allgather
                }).all(|s| s.track == Track::Network);
                prop_assert!(net_ag);
            }
            for i in 0..nodes {
                for cat in [Category::Partial, Category::Callback] {
                    let count = tl.spans().iter().filter(|s| {
                        s.depth == 0 && s.category == cat && s.track == Track::Node(i as u32)
                    }).count();
                    prop_assert_eq!(count, 1);
                }
            }
        }
    }

    /// The steps of a balanced gather plan account for exactly the wire
    /// traffic of `allgather_cost` (the plan's own cost), and their times
    /// sum to within float-accumulation distance of its total (the ring
    /// total is `steps × step`, not the running sum).
    #[test]
    fn balanced_steps_match_closed_form(
        n in 1usize..33,
        unit in 1u64..(1u64 << 20),
        algo in prop::sample::select(vec![
            AllgatherAlgo::Ring,
            AllgatherAlgo::RecursiveDoubling,
            AllgatherAlgo::Bruck,
        ]),
    ) {
        let model = NetModel::infiniband_100g();
        let cost = allgather_cost(n, unit, &model, algo, AllgatherPlacement::InPlace);
        let plan = GatherPlan::new(&vec![unit; n], &model, algo, AllgatherPlacement::InPlace);
        prop_assert_eq!(plan.cost(), cost);
        let steps = plan.steps();
        let wire: u64 = steps.iter().map(|s| s.wire_bytes).sum();
        prop_assert_eq!(wire, cost.wire_bytes);
        let t: f64 = steps.iter().map(|s| s.time).sum();
        prop_assert!((t - cost.time).abs() <= 1e-9 * cost.time.max(1.0),
            "steps {} vs closed form {}", t, cost.time);
    }

    /// Chrome JSON export round-trips through the parser: every span and
    /// counter is present with exact timestamps (ts/dur in microseconds).
    #[test]
    fn chrome_export_roundtrips(
        spans in prop::collection::vec(
            (0u32..5, 0usize..8, 0.0f64..10.0, 0.0f64..2.0),
            1..20,
        ),
        counters in prop::collection::vec((0.0f64..10.0, 1u64..1_000_000), 0..8),
    ) {
        let mut tl = Timeline::new();
        for (i, &(node, cat, start, dur)) in spans.iter().enumerate() {
            let track = match node {
                0 => Track::Network,
                1 => Track::Host,
                k => Track::Node(k - 2),
            };
            tl.span(format!("span{i}"), track, Category::ALL[cat], start, dur);
        }
        for &(t, v) in &counters {
            tl.counter(WIRE_BYTES, Track::Network, t, v);
        }

        let v = json::parse(&tl.to_chrome_json()).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let xs: Vec<_> = events.iter().filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
        }).collect();
        prop_assert_eq!(xs.len(), spans.len());
        for (i, &(_, _, start, dur)) in spans.iter().enumerate() {
            let ev = xs.iter().find(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some(&format!("span{i}"))
            }).unwrap();
            // `{:?}` float formatting round-trips exactly through the parser.
            prop_assert_eq!(
                ev.get("ts").and_then(|t| t.as_f64()).unwrap().to_bits(),
                (start * 1e6).to_bits()
            );
            prop_assert_eq!(
                ev.get("dur").and_then(|t| t.as_f64()).unwrap().to_bits(),
                (dur * 1e6).to_bits()
            );
        }
        let cs = events.iter().filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("C")
        }).count();
        prop_assert_eq!(cs, counters.len());
        // Counter samples export as running totals; the last one is the sum.
        if !counters.is_empty() {
            let want: u64 = counters.iter().map(|&(_, v)| v).sum();
            let last = events.iter().rev().find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("C")
            }).unwrap();
            let got = last
                .get("args")
                .and_then(|a| a.get(WIRE_BYTES))
                .and_then(|x| x.as_f64())
                .unwrap();
            prop_assert_eq!(got as u64, want);
        }
    }
}
