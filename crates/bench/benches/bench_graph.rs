//! Graph bench — Allgather elision savings of capture/replay.
//!
//! Captures a ping-pong chain of slice-local producer→consumer launches
//! into a launch graph and replays it, comparing against the same ops
//! issued as plain `launch` calls:
//!
//! * **wire-byte reduction** — elided gathers move zero bytes on the
//!   simulated wire;
//! * **wall clock**, reported and not gated — both sides read the one
//!   schedule cache, so what replay still skips on the host is the
//!   functional gather copy and the cross-pool consistency sweep.
//!
//! The replayed memory must stay bit-identical to the uncaptured run.
//! Writes `BENCH_graph.json` and a Perfetto trace of one replay
//! (`TRACE_graph.json`) at the repository root.

use cucc_bench::banner;
use cucc_cluster::ClusterSpec;
use cucc_core::{compile_source, CuccCluster, GraphCapture, ReplayStats, RuntimeConfig};
use cucc_exec::Arg;
use cucc_ir::LaunchConfig;

/// Unguarded slice-local step: dense writes, no tail block, reads only
/// its own index — every gather in the chain is elidable.
const STEP: &str = "__global__ void step(float* y, float* x) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    y[id] = x[id] * 1.0009765f + 0.25f;
}";

const ELEMS: usize = 16 * 256;
const NODES: u32 = 4;
const CHAIN: usize = 8;
const ITERS: usize = 50;

fn launch_cfg() -> LaunchConfig {
    LaunchConfig::cover1(ELEMS as u64, 256)
}

fn cluster() -> CuccCluster {
    CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(NODES),
        RuntimeConfig::default(),
    )
}

fn main() {
    banner(
        "Graph",
        "launch-graph replay vs uncaptured launches (gather elision)",
    );
    let ck = compile_source(STEP).expect("compile step kernel");
    let xs: Vec<f32> = (0..ELEMS).map(|i| (i % 97) as f32 * 0.125 - 4.0).collect();
    let init: Vec<u8> = xs.iter().flat_map(|v| v.to_le_bytes()).collect();

    // Captured side: upload + CHAIN ping-pong launches, replayed ITERS times.
    let mut a = cluster();
    let ba = a.alloc(ELEMS * 4);
    let bb = a.alloc(ELEMS * 4);
    let mut cap = GraphCapture::new();
    cap.upload(ba, init.clone());
    for i in 0..CHAIN {
        let (dst, src) = if i % 2 == 0 { (bb, ba) } else { (ba, bb) };
        cap.launch(&ck, launch_cfg(), &[Arg::Buffer(dst), Arg::Buffer(src)]);
    }
    let graph = cap.finish();

    let wall0 = std::time::Instant::now();
    let mut total = ReplayStats::default();
    for _ in 0..ITERS {
        let s = a.graph_replay(&graph).expect("replay");
        total.accumulate(&s);
    }
    let replay_wall = wall0.elapsed().as_secs_f64();

    // Uncaptured side: identical op sequence through the plain launch path.
    let mut b = cluster();
    let ca = b.alloc(ELEMS * 4);
    let cb = b.alloc(ELEMS * 4);
    let mut plain_wire = 0u64;
    let wall0 = std::time::Instant::now();
    for _ in 0..ITERS {
        b.upload::<u8>(ca, &init).expect("upload");
        for i in 0..CHAIN {
            let (dst, src) = if i % 2 == 0 { (cb, ca) } else { (ca, cb) };
            let report = b
                .launch(&ck, launch_cfg(), &[Arg::Buffer(dst), Arg::Buffer(src)])
                .expect("launch");
            plain_wire += report.wire_bytes;
        }
    }
    let plain_wall = wall0.elapsed().as_secs_f64();

    // Correctness gate: replayed memory is bit-identical to the
    // uncaptured run (downloads materialize any pending gathers).
    assert_eq!(
        a.download::<u8>(ba).expect("download"),
        b.download::<u8>(ca).expect("download"),
        "buffer a diverged from the uncaptured run"
    );
    assert_eq!(
        a.download::<u8>(bb).expect("download"),
        b.download::<u8>(cb).expect("download"),
        "buffer b diverged from the uncaptured run"
    );

    let speedup = plain_wall / replay_wall.max(1e-12);
    let launches = (ITERS * CHAIN) as u64;
    // Host wall time per replayed launch (first replay's two cache misses
    // included) — the number ROADMAP item 2 tracks; it depends on how many
    // host cores the worker pool has, so that is recorded beside it.
    let replay_launch_host_s = replay_wall / launches as f64;
    let host_cores = cucc_exec::pool::host_cores();
    let wire_reduction = if plain_wire > 0 {
        1.0 - total.wire_bytes as f64 / plain_wire as f64
    } else {
        0.0
    };
    println!(
        "{:<28} {:>12} {:>12} {:>9}",
        "side", "wall", "wire bytes", "gathers"
    );
    println!(
        "{:<28} {:>9.3} ms {:>12} {:>9}",
        "uncaptured launches",
        plain_wall * 1e3,
        plain_wire,
        launches
    );
    println!(
        "{:<28} {:>9.3} ms {:>12} {:>9}",
        "graph replay",
        replay_wall * 1e3,
        total.wire_bytes,
        total.gathers_full
    );
    println!(
        "\nreplay speedup {speedup:.2}x ({:.1} us of host time per replayed launch on {host_cores} \
         host core(s)), wire bytes {} -> {} ({:.1}% reduction), \
         cache hit rate {:.1}%, {} gathers elided / {} narrowed",
        replay_launch_host_s * 1e6,
        plain_wire,
        total.wire_bytes,
        wire_reduction * 100.0,
        total.cache_hit_rate() * 100.0,
        total.gathers_elided,
        total.gathers_narrowed
    );
    assert!(
        total.gathers_elided == launches,
        "every gather in the slice-local chain must elide"
    );

    let json = format!(
        "{{\n  \"bench\": \"graph\",\n  \"host_cores\": {host_cores},\n  \"nodes\": {NODES},\n  \
         \"chain\": {CHAIN},\n  \"iterations\": {ITERS},\n  \"elems\": {ELEMS},\n  \
         \"uncaptured_wall_s\": {plain_wall:.9},\n  \"replay_wall_s\": {replay_wall:.9},\n  \
         \"replay_launch_host_s\": {replay_launch_host_s:.9},\n  \
         \"replay_speedup\": {speedup:.4},\n  \"uncaptured_wire_bytes\": {plain_wire},\n  \
         \"replay_wire_bytes\": {},\n  \"wire_reduction\": {wire_reduction:.6},\n  \
         \"wire_bytes_saved\": {},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
         \"gathers_elided\": {},\n  \"gathers_narrowed\": {},\n  \"materializations\": {}\n}}\n",
        total.wire_bytes,
        total.wire_bytes_saved,
        total.cache_hits,
        total.cache_misses,
        total.gathers_elided,
        total.gathers_narrowed,
        total.materializations
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_graph.json");
    std::fs::write(path, &json).expect("write BENCH_graph.json");
    println!("\nwrote {path}");

    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TRACE_graph.json");
    std::fs::write(trace, a.timeline().to_chrome_json()).expect("write TRACE_graph.json");
    println!("wrote {trace} (load in https://ui.perfetto.dev)");
}
