//! Launch-graph capture/replay and the graph communication optimizer.
//!
//! The contract under test: replaying a captured graph leaves every buffer
//! **bit-identical** to running the same ops uncaptured, no matter how many
//! Allgathers the optimizer elides or narrows — and the elision actually
//! happens (zero gather wire bytes) when every consumer read is covered by
//! node-resident data.

use cucc::cluster::ClusterSpec;
use cucc::core::{compile_source, CuccCluster, GraphCapture, LaunchGraph, RuntimeConfig};
use cucc::exec::Arg;
use cucc::ir::LaunchConfig;
use cucc::trace::Category;
use proptest::prelude::*;

const ELEMS: usize = 1024;
const THREADS: u32 = 64;
/// Buffers carry a 64-element tail beyond the written region so shifted
/// reads (`r[id + k]`, k ≤ 64) stay in bounds without a tail guard.
const PAD: usize = 64;

fn cluster(nodes: u32) -> CuccCluster {
    CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(nodes),
        RuntimeConfig::default(),
    )
}

fn launch_cfg() -> LaunchConfig {
    LaunchConfig::cover1(ELEMS as u64, THREADS)
}

/// Unguarded producer: dense, slice-local writes, no tail block.
const PROD: &str = "__global__ void prod(float* x) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    x[id] = x[id] * 3.0f + 1.0f;
}";

/// Unguarded slice-local consumer: reads exactly what its node wrote.
const CONS: &str = "__global__ void cons(float* x, float* y) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    y[id] = x[id] + 2.0f;
}";

fn seeded(seed: u64, len: usize) -> Vec<f32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-8.0..8.0)).collect()
}

fn bytes(data: &[f32]) -> Vec<u8> {
    <f32 as cucc::core::HostScalar>::encode(data).into_owned()
}

/// The ISSUE's acceptance scenario: a 2-kernel producer→consumer graph
/// where the consumer reads only its node-local slice. Both gathers must
/// be elided — zero gather wire bytes inside the replay window — and
/// memory after download must match the uncaptured run bit-for-bit.
#[test]
fn slice_local_consumer_elides_all_gathers() {
    let prod = compile_source(PROD).unwrap();
    let cons = compile_source(CONS).unwrap();
    let xs = seeded(7, ELEMS);

    let mut a = cluster(4);
    let x = a.alloc(ELEMS * 4);
    let y = a.alloc(ELEMS * 4);
    let mut cap = GraphCapture::new();
    cap.upload(x, bytes(&xs));
    cap.launch(&prod, launch_cfg(), &[Arg::Buffer(x)]);
    cap.launch(&cons, launch_cfg(), &[Arg::Buffer(x), Arg::Buffer(y)]);
    let graph = cap.finish();

    let stats = a.graph_replay(&graph).unwrap();
    assert_eq!(stats.gathers_elided, 2, "both producer gathers must elide");
    assert_eq!(stats.gathers_full, 0);
    assert_eq!(stats.gathers_narrowed, 0);
    assert_eq!(stats.materializations, 0);
    assert_eq!(
        stats.wire_bytes, 0,
        "elided replay must move no gather bytes"
    );
    assert!(stats.wire_bytes_saved > 0, "savings vs the planned gathers");
    assert_eq!(stats.cache_misses, 2, "first replay plans fresh");

    // Second replay: schedules come entirely from the cache.
    let stats2 = a.graph_replay(&graph).unwrap();
    assert_eq!(stats2.cache_hits, 2);
    assert_eq!(stats2.cache_misses, 0);
    assert_eq!(stats2.cache_hit_rate(), 1.0);
    assert_eq!(stats2.wire_bytes, 0);

    // Uncaptured reference: same ops, same number of iterations.
    let mut b = cluster(4);
    let xb = b.alloc(ELEMS * 4);
    let yb = b.alloc(ELEMS * 4);
    for _ in 0..2 {
        b.upload::<f32>(xb, &xs).unwrap();
        b.launch(&prod, launch_cfg(), &[Arg::Buffer(xb)]).unwrap();
        b.launch(&cons, launch_cfg(), &[Arg::Buffer(xb), Arg::Buffer(yb)])
            .unwrap();
    }
    assert_eq!(
        a.download::<u8>(x).unwrap(),
        b.download::<u8>(xb).unwrap(),
        "x diverged from the uncaptured run"
    );
    assert_eq!(
        a.download::<u8>(y).unwrap(),
        b.download::<u8>(yb).unwrap(),
        "y diverged from the uncaptured run"
    );
}

/// A consumer that reads one thread-block past its own index: most bytes
/// are node-resident, but each node's last 256 bytes live on its right
/// neighbour. The optimizer must *narrow* the gather to those sub-ranges
/// instead of eliding it away or falling back to the full collective.
#[test]
fn shifted_consumer_narrows_the_gather() {
    let prod = compile_source(PROD).unwrap();
    let shift = compile_source(
        "__global__ void sh(float* y, float* x) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            y[id] = x[id + 64];
        }",
    )
    .unwrap();
    let xs = seeded(11, ELEMS + PAD);

    let mut a = cluster(4);
    let x = a.alloc((ELEMS + PAD) * 4);
    let y = a.alloc(ELEMS * 4);
    let mut cap = GraphCapture::new();
    cap.upload(x, bytes(&xs));
    cap.launch(&prod, launch_cfg(), &[Arg::Buffer(x)]);
    cap.launch(&shift, launch_cfg(), &[Arg::Buffer(y), Arg::Buffer(x)]);
    let graph = cap.finish();
    let stats = a.graph_replay(&graph).unwrap();

    assert_eq!(stats.gathers_elided, 2, "x and y gathers both deferred");
    assert_eq!(
        stats.gathers_narrowed, 1,
        "x narrowed for the shifted reads"
    );
    assert_eq!(stats.materializations, 0);
    assert!(stats.wire_bytes > 0, "the narrowed gather moves real bytes");
    assert!(
        stats.wire_bytes_saved > 0,
        "narrowing must still beat the planned full gathers"
    );

    let mut b = cluster(4);
    let xb = b.alloc((ELEMS + PAD) * 4);
    let yb = b.alloc(ELEMS * 4);
    b.upload::<f32>(xb, &xs).unwrap();
    b.launch(&prod, launch_cfg(), &[Arg::Buffer(xb)]).unwrap();
    b.launch(&shift, launch_cfg(), &[Arg::Buffer(yb), Arg::Buffer(xb)])
        .unwrap();
    assert_eq!(a.download::<u8>(x).unwrap(), b.download::<u8>(xb).unwrap());
    assert_eq!(a.download::<u8>(y).unwrap(), b.download::<u8>(yb).unwrap());
}

/// Replay a producer→consumer graph on 4 nodes and run the same ops
/// eagerly on a second cluster; returns the replay's stats after checking
/// both buffers bit-identical.
fn replay_against_eager(
    [prod, cons]: [&str; 2],
    launch: LaunchConfig,
    x_elems: usize,
    scalars: &[Arg],
) -> cucc::core::ReplayStats {
    let prod = compile_source(prod).unwrap();
    let cons = compile_source(cons).unwrap();
    let xs = seeded(17, x_elems);
    let with_scalars = |bufs: &[Arg]| [bufs, scalars].concat();

    let mut a = cluster(4);
    let (x, y) = (a.alloc(x_elems * 4), a.alloc(ELEMS * 4));
    let mut cap = GraphCapture::new();
    cap.upload(x, bytes(&xs));
    cap.launch(&prod, launch, &with_scalars(&[Arg::Buffer(x)]));
    cap.launch(
        &cons,
        launch,
        &with_scalars(&[Arg::Buffer(x), Arg::Buffer(y)]),
    );
    let stats = a.graph_replay(&cap.finish()).unwrap();

    let mut b = cluster(4);
    let (xb, yb) = (b.alloc(x_elems * 4), b.alloc(ELEMS * 4));
    b.upload::<f32>(xb, &xs).unwrap();
    b.launch(&prod, launch, &with_scalars(&[Arg::Buffer(xb)]))
        .unwrap();
    b.launch(
        &cons,
        launch,
        &with_scalars(&[Arg::Buffer(xb), Arg::Buffer(yb)]),
    )
    .unwrap();
    assert_eq!(a.download::<u8>(x).unwrap(), b.download::<u8>(xb).unwrap());
    assert_eq!(a.download::<u8>(y).unwrap(), b.download::<u8>(yb).unwrap());
    stats
}

/// A consumer that reads through a `for` with launch-resolvable bounds
/// (`x[id + i]`, `i < 4`) has a `Must` read footprint — the loop's whole
/// range, three elements into the right neighbour's slice — so the
/// producer's gather is deferred and narrowed instead of materialized.
#[test]
fn loop_indexed_consumer_defers_and_narrows_the_gather() {
    let stats = replay_against_eager(
        [
            PROD,
            "__global__ void stencil(float* x, float* y) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                float acc = 0.0f;
                for (int i = 0; i < 4; i++) { acc = acc + x[id + i]; }
                y[id] = acc;
            }",
        ],
        launch_cfg(),
        ELEMS + PAD,
        &[],
    );
    assert_eq!(stats.materializations, 0, "a loop read is not Unknown");
    assert_eq!(stats.gathers_elided, 2);
    assert_eq!(stats.gathers_narrowed, 1, "only the halo crosses nodes");
    assert!(stats.wire_bytes_saved > 0);
}

/// A loop's `[start, end, step]` bounds its counter only inside that one
/// loop's body. A counter read after the loop (it holds the exit value,
/// `x[id + 4]`) or driving two loops with different ranges is read at
/// values no single range describes: the footprint stays `Unknown` and the
/// producer's gather is materialized — a hull from either range alone
/// would be too narrow and the halo would be read stale.
#[test]
fn counter_outside_its_one_loop_materializes_the_gather() {
    let after_loop = "__global__ void after(float* x, float* y) {
        int id = blockIdx.x * blockDim.x + threadIdx.x;
        float acc = 0.0f;
        int i;
        for (i = 0; i < 4; i++) { acc = acc + x[id + i]; }
        y[id] = acc + x[id + i];
    }";
    let reused = "__global__ void reused(float* x, float* y) {
        int id = blockIdx.x * blockDim.x + threadIdx.x;
        float acc = 0.0f;
        int i;
        for (i = 0; i < 8; i++) { acc = acc + x[id + i]; }
        for (i = 0; i < 2; i++) { acc = acc + x[id + i]; }
        y[id] = acc;
    }";
    for cons in [after_loop, reused] {
        let stats = replay_against_eager([PROD, cons], launch_cfg(), ELEMS + PAD, &[]);
        assert_eq!(stats.materializations, 1, "{cons}");
        assert_eq!(stats.gathers_narrowed, 0, "{cons}");
    }
}

/// On a 2-D grid the footprints keep per-axis block coefficients: a node's
/// rows of blocks read exactly the rows it wrote, so both gathers elide.
#[test]
fn two_d_grid_consumer_elides_all_gathers() {
    let stats = replay_against_eager(
        [
            "__global__ void prod2(float* x, int w) {
                int c = blockIdx.x * blockDim.x + threadIdx.x;
                int r = blockIdx.y * blockDim.y + threadIdx.y;
                x[r * w + c] = x[r * w + c] * 3.0f + 1.0f;
            }",
            "__global__ void cons2(float* x, float* y, int w) {
                int c = blockIdx.x * blockDim.x + threadIdx.x;
                int r = blockIdx.y * blockDim.y + threadIdx.y;
                y[r * w + c] = x[r * w + c] + 2.0f;
            }",
        ],
        LaunchConfig::new((4u32, 4u32), (8u32, 8u32)),
        ELEMS,
        &[Arg::int(32)],
    );
    assert_eq!(stats.gathers_elided, 2);
    assert_eq!(
        stats.gathers_full + stats.gathers_narrowed + stats.materializations,
        0
    );
    assert_eq!(stats.wire_bytes, 0);
}

/// A consumer whose read index is not affine (`x[(id·id) % n]`) gets an
/// `Unknown` footprint: the optimizer must fall back to materializing the
/// full deferred Allgather before the consumer runs — never guess.
#[test]
fn non_must_footprint_falls_back_to_full_gather() {
    let prod = compile_source(PROD).unwrap();
    let gather_all = compile_source(
        "__global__ void ga(float* y, float* x, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            y[id] = x[(id * id) % n];
        }",
    )
    .unwrap();
    let xs = seeded(13, ELEMS);

    let mut a = cluster(4);
    let x = a.alloc(ELEMS * 4);
    let y = a.alloc(ELEMS * 4);
    let mut cap = GraphCapture::new();
    cap.upload(x, bytes(&xs));
    cap.launch(&prod, launch_cfg(), &[Arg::Buffer(x)]);
    cap.launch(
        &gather_all,
        launch_cfg(),
        &[Arg::Buffer(y), Arg::Buffer(x), Arg::int(ELEMS as i64)],
    );
    let graph = cap.finish();
    let stats = a.graph_replay(&graph).unwrap();

    assert_eq!(
        stats.materializations, 1,
        "Unknown footprint must materialize"
    );
    assert!(
        stats.wire_bytes > 0,
        "the fallback gather moves the full region"
    );
    assert_eq!(stats.gathers_narrowed, 0);

    let mut b = cluster(4);
    let xb = b.alloc(ELEMS * 4);
    let yb = b.alloc(ELEMS * 4);
    b.upload::<f32>(xb, &xs).unwrap();
    b.launch(&prod, launch_cfg(), &[Arg::Buffer(xb)]).unwrap();
    b.launch(
        &gather_all,
        launch_cfg(),
        &[Arg::Buffer(yb), Arg::Buffer(xb), Arg::int(ELEMS as i64)],
    )
    .unwrap();
    assert_eq!(a.download::<u8>(x).unwrap(), b.download::<u8>(xb).unwrap());
    assert_eq!(a.download::<u8>(y).unwrap(), b.download::<u8>(yb).unwrap());
}

/// A graph-external launch after a replay must first materialize any
/// pending (elided) gathers its arguments depend on.
#[test]
fn external_launch_materializes_pending_state() {
    let prod = compile_source(PROD).unwrap();
    let cons = compile_source(CONS).unwrap();

    let xs = seeded(17, ELEMS);
    let mut a = cluster(4);
    let x = a.alloc(ELEMS * 4);
    let y = a.alloc(ELEMS * 4);
    a.upload::<f32>(x, &xs).unwrap();
    let mut cap = GraphCapture::new();
    cap.launch(&prod, launch_cfg(), &[Arg::Buffer(x)]);
    let graph = cap.finish();
    a.graph_replay(&graph).unwrap();
    assert_eq!(a.pending_gathers(), vec![x], "x left pending by the replay");
    // Regular (uncaptured) launch: consumes x outside the graph machinery.
    a.launch(&cons, launch_cfg(), &[Arg::Buffer(x), Arg::Buffer(y)])
        .unwrap();
    assert!(
        a.pending_gathers().is_empty(),
        "external launch materialized x"
    );

    let mut b = cluster(4);
    let xb = b.alloc(ELEMS * 4);
    let yb = b.alloc(ELEMS * 4);
    b.upload::<f32>(xb, &xs).unwrap();
    b.launch(&prod, launch_cfg(), &[Arg::Buffer(xb)]).unwrap();
    b.launch(&cons, launch_cfg(), &[Arg::Buffer(xb), Arg::Buffer(yb)])
        .unwrap();
    assert_eq!(a.download::<u8>(y).unwrap(), b.download::<u8>(yb).unwrap());

    // A materialization costs what its plan says whether or not bytes
    // move: the deferred gather of a 128 KiB producer, forced by a
    // download, takes the same simulated time bit for bit in functional
    // and in modeled fidelity. (The functional ring used to sum its step
    // times where the model multiplied — unequal from 5 nodes on.)
    let big = 32768usize;
    let materialize_time = |nodes: u32, config: RuntimeConfig| {
        let spec = ClusterSpec::simd_focused().with_nodes(nodes);
        let mut cl = CuccCluster::with_options(spec, config);
        let x = cl.alloc(big * 4);
        cl.upload::<f32>(x, &seeded(19, big)).unwrap();
        let mut cap = GraphCapture::new();
        let launch = LaunchConfig::cover1(big as u64, THREADS);
        cap.launch(&prod, launch, &[Arg::Buffer(x)]);
        cl.graph_replay(&cap.finish()).unwrap();
        assert_eq!(cl.pending_gathers(), vec![x]);
        cl.download::<u8>(x).unwrap();
        cl.timeline().time_in(Category::Allgather)
    };
    for nodes in [8, 16] {
        let functional = materialize_time(nodes, RuntimeConfig::default());
        let modeled = materialize_time(nodes, RuntimeConfig::modeled());
        assert!(functional > 0.0, "{nodes} nodes: the gather was deferred");
        assert_eq!(functional.to_bits(), modeled.to_bits(), "{nodes} nodes");
    }
}

/// Replay accounting is relative to a timeline mark taken before each
/// launch, so what the timeline already holds must not show in
/// `ReplayStats`: the same graph replayed three times reports the same
/// stats on a fresh cluster and on one that has already moved wire bytes
/// on unrelated buffers (an upload and an uncaptured gathered launch).
/// The narrowed gather makes `wire_bytes` non-zero, so the window matters.
#[test]
fn replay_stats_ignore_earlier_wire_traffic() {
    let prod = compile_source(PROD).unwrap();
    let cons = compile_source(CONS).unwrap();
    let shift = compile_source(
        "__global__ void sh(float* y, float* x) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            y[id] = x[id + 64];
        }",
    )
    .unwrap();
    let xs = seeded(23, ELEMS + PAD);

    let replays = |busy: bool| {
        let mut cl = cluster(4);
        let x = cl.alloc((ELEMS + PAD) * 4);
        let y = cl.alloc(ELEMS * 4);
        let u = cl.alloc(ELEMS * 4);
        let v = cl.alloc(ELEMS * 4);
        if busy {
            cl.upload::<f32>(u, &seeded(29, ELEMS)).unwrap();
            cl.launch(&cons, launch_cfg(), &[Arg::Buffer(u), Arg::Buffer(v)])
                .unwrap();
            assert!(cl.timeline().wire_bytes() > 0, "earlier traffic recorded");
        }
        let mut cap = GraphCapture::new();
        cap.upload(x, bytes(&xs));
        cap.launch(&prod, launch_cfg(), &[Arg::Buffer(x)]);
        cap.launch(&shift, launch_cfg(), &[Arg::Buffer(y), Arg::Buffer(x)]);
        let graph = cap.finish();
        let stats: Vec<_> = (0..3).map(|_| cl.graph_replay(&graph).unwrap()).collect();
        (stats, cl.download::<u8>(y).unwrap())
    };
    let (fresh, y_fresh) = replays(false);
    let (busy, y_busy) = replays(true);
    assert!(fresh[0].wire_bytes > 0, "the narrowed gather moves bytes");
    for (i, (f, b)) in fresh.iter().zip(&busy).enumerate() {
        // `time` is a difference of two readings of an ever-advancing
        // clock; its last bits depend on how far the clock has run.
        assert!(
            (f.time - b.time).abs() <= 1e-9 * f.time,
            "replay {i}: time {} vs {}",
            f.time,
            b.time
        );
        assert_eq!(
            *f,
            cucc::core::ReplayStats { time: f.time, ..*b },
            "replay {i}"
        );
    }
    assert_eq!(y_fresh, y_busy);
}

// ---------------------------------------------------------------------
// Randomized producer/consumer DAGs
// ---------------------------------------------------------------------

/// One randomized captured op over a 3-buffer pool.
#[derive(Debug, Clone)]
enum Op {
    /// Re-broadcast fresh seeded data into a buffer.
    Upload { buf: usize, seed: u64 },
    /// `w[id] = w[id]·c + d` — slice-local read-modify-write.
    Scale { buf: usize, c: f32, d: f32 },
    /// `w[id] = w[id] + r[id]` — slice-local elementwise combine.
    Add { dst: usize, src: usize },
    /// `w[id] = r[id + k]` — shifted read crossing slice boundaries.
    Shift { dst: usize, src: usize, k: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, any::<u64>()).prop_map(|(buf, seed)| Op::Upload { buf, seed }),
        (0usize..3, -2.0f32..2.0, -2.0f32..2.0).prop_map(|(buf, c, d)| Op::Scale { buf, c, d }),
        (0usize..3, 0usize..3).prop_map(|(dst, src)| Op::Add { dst, src }),
        (
            0usize..3,
            0usize..3,
            prop::sample::select(vec![16usize, 64])
        )
            .prop_map(|(dst, src, k)| Op::Shift {
                dst,
                // A self-shift would race its own writes; read a neighbour.
                src: if src == dst { (src + 1) % 3 } else { src },
                k,
            }),
    ]
}

fn op_sources(op: &Op) -> String {
    match op {
        Op::Upload { .. } => String::new(),
        Op::Scale { .. } => "__global__ void sc(float* w, float c, float d) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            w[id] = w[id] * c + d;
        }"
        .to_string(),
        Op::Add { .. } => "__global__ void ad(float* w, float* r) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            w[id] = w[id] + r[id];
        }"
        .to_string(),
        Op::Shift { k, .. } => format!(
            "__global__ void sh{k}(float* w, float* r) {{
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                w[id] = r[id + {k}];
            }}"
        ),
    }
}

/// Capture the op sequence into a graph against `cl`'s buffer ids.
fn capture_ops(ops: &[Op], bufs: &[cucc::exec::BufferId]) -> LaunchGraph {
    let mut cap = GraphCapture::new();
    for op in ops {
        match op {
            Op::Upload { buf, seed } => {
                let data = seeded(*seed, ELEMS + PAD);
                cap.upload(bufs[*buf], bytes(&data));
            }
            Op::Scale { buf, c, d } => {
                let ck = compile_source(&op_sources(op)).unwrap();
                cap.launch(
                    &ck,
                    launch_cfg(),
                    &[
                        Arg::Buffer(bufs[*buf]),
                        Arg::float(*c as f64),
                        Arg::float(*d as f64),
                    ],
                );
            }
            Op::Add { dst, src } => {
                let ck = compile_source(&op_sources(op)).unwrap();
                cap.launch(
                    &ck,
                    launch_cfg(),
                    &[Arg::Buffer(bufs[*dst]), Arg::Buffer(bufs[*src])],
                );
            }
            Op::Shift { dst, src, .. } => {
                let ck = compile_source(&op_sources(op)).unwrap();
                cap.launch(
                    &ck,
                    launch_cfg(),
                    &[Arg::Buffer(bufs[*dst]), Arg::Buffer(bufs[*src])],
                );
            }
        }
    }
    cap.finish()
}

/// Run the op sequence uncaptured.
fn run_ops(cl: &mut CuccCluster, ops: &[Op], bufs: &[cucc::exec::BufferId]) {
    for op in ops {
        match op {
            Op::Upload { buf, seed } => {
                cl.upload::<f32>(bufs[*buf], &seeded(*seed, ELEMS + PAD))
                    .unwrap();
            }
            Op::Scale { buf, c, d } => {
                let ck = compile_source(&op_sources(op)).unwrap();
                cl.launch(
                    &ck,
                    launch_cfg(),
                    &[
                        Arg::Buffer(bufs[*buf]),
                        Arg::float(*c as f64),
                        Arg::float(*d as f64),
                    ],
                )
                .unwrap();
            }
            Op::Add { dst, src } | Op::Shift { dst, src, .. } => {
                let ck = compile_source(&op_sources(op)).unwrap();
                cl.launch(
                    &ck,
                    launch_cfg(),
                    &[Arg::Buffer(bufs[*dst]), Arg::Buffer(bufs[*src])],
                )
                .unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random producer/consumer DAGs over shared buffers — exercising
    /// elision, narrowing, re-elision of rewritten buffers, and uploads
    /// clearing pending state — two replays of the captured graph leave
    /// all memory bit-identical to two uncaptured runs of the same ops.
    #[test]
    fn replayed_graphs_match_uncaptured_runs_bitwise(
        ops in prop::collection::vec(op_strategy(), 3..9),
        init in any::<u64>(),
        nodes in prop::sample::select(vec![2u32, 4]),
    ) {
        let mut a = cluster(nodes);
        let mut b = cluster(nodes);
        let ba: Vec<_> = (0..3).map(|_| a.alloc((ELEMS + PAD) * 4)).collect();
        let bb: Vec<_> = (0..3).map(|_| b.alloc((ELEMS + PAD) * 4)).collect();
        for i in 0..3 {
            let data = seeded(init.wrapping_add(i as u64), ELEMS + PAD);
            a.upload::<f32>(ba[i], &data).unwrap();
            b.upload::<f32>(bb[i], &data).unwrap();
        }

        let graph = capture_ops(&ops, &ba);
        let s1 = a.graph_replay(&graph).unwrap();
        let s2 = a.graph_replay(&graph).unwrap();
        run_ops(&mut b, &ops, &bb);
        run_ops(&mut b, &ops, &bb);

        // Replay 2 plans nothing: every launch hits the schedule cache.
        prop_assert_eq!(s2.cache_misses, 0);
        prop_assert_eq!(s2.cache_hits, s1.cache_hits + s1.cache_misses);

        for i in 0..3 {
            prop_assert_eq!(
                a.download::<u8>(ba[i]).unwrap(),
                b.download::<u8>(bb[i]).unwrap(),
                "buffer {} diverged after replay (ops: {:?})", i, &ops
            );
        }
    }
}
