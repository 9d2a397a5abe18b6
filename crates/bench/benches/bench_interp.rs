//! The tree-walk oracle vs the compiled engine, in blocks/second: with its
//! lane plans (`lane`), with them detached so every segment runs
//! thread-major (`detached` — the same engine without lanes), and with
//! range certificates attached in `CertMode::Elide` (`unchecked`).
//!
//! Two kernel sets, both written to `BENCH_interp.json` at the repository
//! root so docs and CI can quote the numbers:
//!
//! * `micro` — four straight-line kernels (elementwise SAXPY out of place
//!   and in place, a shared-memory tile reverse with a barrier, a
//!   compute-bound Horner polynomial) whose launches exactly cover their
//!   data, on a 128-block and
//!   a 4096-block grid, at 1, 2, 4 and 8 requested intra-node workers capped
//!   at the host's core count (more chunks than cores only measures
//!   oversubscription). `lane_blocks_per_sec` includes the per-launch
//!   compile; the `*_run_*` columns hoist compile + range analysis out of
//!   the timed region, so `elide_speedup` isolates the elision effect.
//!   Repetitions share one cache-warm pool; `saxpy_inplace` updates `y`
//!   there, which moves its values between repetitions but no instruction
//!   it runs.
//! * `builtin` — all 42 built-in kernels (8 perf-suite at `Scale::Test`, 21
//!   Triton, 13 Hetero-Mark) at their own launches, serial, run-only, every
//!   repetition on a fresh copy of the initial memory.
//!
//! Every `lane` and `detached` column is also written as a ratio to the same
//! run's `tree` column (`*_vs_tree`). The tree-walk oracle is the one
//! executor an engine change leaves alone, so a ratio moved between two runs
//! is the engine, while a bare rate also carries the host's drift.
//!
//! `before` carries the serial run-only `tree`, `lane`, `detached` and
//! `unchecked` columns of the eight 1-worker micro rows and the 42 builtin
//! rows, measured at the commit it names — the parent of the last PR that
//! touched the engine — on the host it names, under the protocol it states.
//! The file records `host_cores`, and every row its grid and block size: a
//! number means nothing without them.
//!
//! The harness doubles as the perf-regression smoke: it panics if lanes fail
//! to beat thread-major execution on the saxpy, saxpy_inplace or horner15
//! serial rows of either grid or on the FIR, EP and BlackScholes builtin
//! rows (loops inside the lane chunk), or fall below 0.9× of it on
//! `vit_token_pool`, whose loop one lane of each block runs alone.
//! (Certificate elision is reported — `elide_speedup` — but not
//! asserted: it reads 0.98–1.04 on `horner15`, inside one measurement's
//! host noise.) Bit-identity of all four executions (stats and memory) is asserted
//! for every kernel before anything is timed.

use cucc_analysis::{certify_program, global_extents};
use cucc_exec::{
    execute_block_range, pool::host_cores, run_range, run_range_parallel, sanitize_launch, Arg,
    CertMode, MemPool, Program,
};
use cucc_ir::{Axis, Expr, Kernel, KernelBuilder, LaunchConfig, Param, Scalar, Value};
use cucc_workloads::{heteromark_kernels, perf_suite, triton_kernels, Scale};
use std::time::Instant;

const THREADS: u32 = 128;
/// Grid sizes swept: one where per-call overhead shows (128 blocks, 16 per
/// worker at 8 workers) and one where block work dominates.
const GRIDS: [u32; 2] = [128, 4096];
/// Requested worker counts; each is capped at [`host_cores`] before it runs.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// The 50-row sweep at the parent of the last engine PR (see the module
/// docs).
const BEFORE: &str = include_str!("bench_interp_before.json");

/// One kernel at one launch with its initial memory.
struct Case {
    name: String,
    kernel: Kernel,
    launch: LaunchConfig,
    pool: MemPool,
    args: Vec<Arg>,
}

fn global_tid(b: &mut KernelBuilder) -> cucc_ir::VarId {
    b.let_(
        "g",
        Expr::BlockIdx(Axis::X)
            .mul(Expr::BlockDim(Axis::X))
            .add(Expr::ThreadIdx(Axis::X)),
    )
}

/// `z[g] = a * x[g] + y[g]` — the elementwise multi-block baseline
/// (out-of-place, so loads and stores touch disjoint buffers).
fn saxpy() -> Kernel {
    let mut b = KernelBuilder::new("saxpy");
    let x = b.buffer("x", Scalar::F32);
    let y = b.buffer("y", Scalar::F32);
    let z = b.buffer("z", Scalar::F32);
    let a = b.scalar("a", Scalar::F32);
    let g = global_tid(&mut b);
    b.store(
        z,
        Expr::Var(g),
        a.clone()
            .mul(Expr::load(x, Expr::Var(g)))
            .add(Expr::load(y, Expr::Var(g))),
    );
    b.finish()
}

/// `y[g] = a * x[g] + y[g]` — the in-place SAXPY that `JobServer` serves:
/// `y` is loaded and stored in one segment, each thread at its own index.
fn saxpy_inplace() -> Kernel {
    let mut b = KernelBuilder::new("saxpy_inplace");
    let x = b.buffer("x", Scalar::F32);
    let y = b.buffer("y", Scalar::F32);
    let a = b.scalar("a", Scalar::F32);
    let g = global_tid(&mut b);
    b.store(
        y,
        Expr::Var(g),
        a.mul(Expr::load(x, Expr::Var(g)))
            .add(Expr::load(y, Expr::Var(g))),
    );
    b.finish()
}

/// Stage a tile in shared memory, barrier, write it back reversed.
fn tile_reverse() -> Kernel {
    let mut b = KernelBuilder::new("tile_reverse");
    let x = b.buffer("x", Scalar::F32);
    let y = b.buffer("y", Scalar::F32);
    let tile = b.shared("tile", Scalar::F32, THREADS as usize);
    let g = global_tid(&mut b);
    b.store(tile, Expr::ThreadIdx(Axis::X), Expr::load(x, Expr::Var(g)));
    b.sync_threads();
    b.store(
        y,
        Expr::Var(g),
        Expr::load(
            tile,
            Expr::BlockDim(Axis::X)
                .sub(Expr::int(1))
                .sub(Expr::ThreadIdx(Axis::X)),
        ),
    );
    b.finish()
}

/// Degree-15 Horner polynomial per element — a compute-bound straight-line
/// chain of 30 dependent multiply/adds.
fn horner15() -> Kernel {
    let mut b = KernelBuilder::new("horner15");
    let xb = b.buffer("x", Scalar::F32);
    let yb = b.buffer("y", Scalar::F32);
    let g = global_tid(&mut b);
    let xv = b.let_("xv", Expr::load(xb, Expr::Var(g)));
    let mut acc = Expr::float(0.5);
    for i in 0..15 {
        acc = acc
            .mul(Expr::Var(xv))
            .add(Expr::float(0.25 + f64::from(i) * 0.125));
    }
    b.store(yb, Expr::Var(g), acc);
    b.finish()
}

/// Bind one buffer per buffer parameter (with the given initial bytes) and
/// one scalar per scalar parameter, in declaration order.
fn case(
    name: &str,
    kernel: Kernel,
    launch: LaunchConfig,
    buffers: &[Vec<u8>],
    scalars: &[Value],
) -> Case {
    let mut pool = MemPool::new();
    let (mut bufs, mut scalars) = (buffers.iter(), scalars.iter());
    let args = kernel
        .params
        .iter()
        .map(|p| match p {
            Param::Buffer { .. } => {
                let data = bufs.next().expect("a buffer per buffer param");
                let id = pool.alloc(data.len());
                pool.write_all(id, data);
                Arg::Buffer(id)
            }
            Param::Scalar { .. } => Arg::Scalar(*scalars.next().expect("a scalar per param")),
        })
        .collect();
    Case {
        name: name.to_string(),
        kernel,
        launch,
        pool,
        args,
    }
}

fn micro_case(name: &str, kernel: Kernel, blocks: u32) -> Case {
    let launch = LaunchConfig::new(blocks, THREADS);
    let n = launch.total_threads() as usize;
    let f32s = |f: &dyn Fn(usize) -> f32| (0..n).flat_map(|i| f(i).to_le_bytes()).collect();
    let buffers: Vec<Vec<u8>> = vec![
        f32s(&|i| (i % 257) as f32 * 0.01 - 1.0),
        f32s(&|i| 3.0 - i as f32 * 0.125),
        vec![0u8; n * 4],
    ];
    let nbuf = kernel.params.iter().filter(|p| p.is_buffer()).count();
    let a = [Value::F64(1.0009765625)];
    case(name, kernel, launch, &buffers[..nbuf], &a)
}

fn builtin_cases() -> Vec<Case> {
    let parse = |src: &str| cucc_ir::parse_kernel(src).expect("builtin kernel parses");
    let mut out = Vec::new();
    for b in perf_suite(Scale::Test) {
        let (kernel, scalars) = (parse(&b.source()), b.scalars());
        out.push(case(b.name(), kernel, b.launch(), &b.buffers(), &scalars));
    }
    for k in triton_kernels().into_iter().chain(heteromark_kernels()) {
        let zeroed: Vec<Vec<u8>> = k.buffer_bytes.iter().map(|&n| vec![0u8; n]).collect();
        out.push(case(
            k.name,
            parse(&k.source),
            k.launch,
            &zeroed,
            &k.scalars,
        ));
    }
    out
}

/// The compiled forms of one case.
struct Programs {
    lane: Program,
    detached: Program,
    unchecked: Program,
    /// `(certified, total)` accesses of `unchecked`.
    certs: (usize, usize),
}

/// Compile the case three ways and assert all of them reproduce the oracle's
/// stats and memory exactly — nothing is timed before that.
fn programs(c: &Case) -> Programs {
    let lane = Program::compile(&c.kernel, c.launch, &c.args).unwrap();
    let mut detached = lane.clone();
    detached.detach_lane_plans();
    let mut unchecked = lane.clone();
    let exts = global_extents(&unchecked, |b| Some(c.pool.size_of(b)));
    let certs = certify_program(&mut unchecked, &exts, CertMode::Elide).stats();

    let blocks = 0..c.launch.num_blocks();
    let mut want = c.pool.clone();
    let stats = execute_block_range(&c.kernel, c.launch, blocks.clone(), &c.args, &mut want);
    for (what, prog) in [
        ("lane", &lane),
        ("detached", &detached),
        ("unchecked", &unchecked),
    ] {
        let mut got = c.pool.clone();
        let s = run_range(prog, &mut got, blocks.clone());
        assert_eq!(
            stats, s,
            "{}: {what} stats diverged from the oracle",
            c.name
        );
        assert!(want == got, "{}: {what} memory diverged", c.name);
    }
    Programs {
        lane,
        detached,
        unchecked,
        certs,
    }
}

/// Best single-run seconds: at least `min_reps` runs, and more until
/// `budget` seconds are spent. With `fresh`, every run starts from a new copy
/// of the case's memory (cloned outside the timed region), as a kernel that
/// updates its buffers in place needs; without, runs share one copy and the
/// data stays cache-warm.
fn best(c: &Case, fresh: bool, min_reps: usize, budget: f64, run: impl Fn(&mut MemPool)) -> f64 {
    let (mut best, mut spent, mut reps) = (f64::MAX, 0.0, 0);
    let mut pool = c.pool.clone();
    while reps < min_reps || spent < budget {
        if fresh {
            pool = c.pool.clone();
        }
        let t = Instant::now();
        run(&mut pool);
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        reps += 1;
    }
    best
}

/// Rows of the micro sweep for one kernel on one grid; returns the JSON rows
/// and runs the perf-regression assertions on the serial row.
fn micro_rows(c: &Case, reps: usize) -> Vec<String> {
    let p = programs(c);
    assert_eq!(
        p.certs.0, p.certs.1,
        "bench kernel `{}` left accesses uncertified: the unchecked rows would measure nothing",
        c.name
    );
    let nblocks = c.launch.num_blocks();
    let bps = |secs: f64| nblocks as f64 / secs;
    let tree = bps(best(c, false, reps, 0.0, |pool| {
        execute_block_range(&c.kernel, c.launch, 0..nblocks, &c.args, pool).unwrap();
    }));
    // Tree-walk with the dynamic sanitizer (write tracing on a scratch pool +
    // interval sweep) — quantifies the `--sanitize` overhead.
    let sanitize = bps(best(c, false, reps, 0.0, |pool| {
        let report = sanitize_launch(&c.kernel, c.launch, &c.args, pool);
        assert!(report.clean(), "bench kernel flagged: {}", report.summary());
    }));

    let mut rows = Vec::new();
    let mut seen = Vec::new();
    for requested in WORKER_COUNTS {
        let workers = requested.min(host_cores());
        if seen.contains(&workers) {
            continue;
        }
        seen.push(workers);
        // `run_range_parallel` takes the serial path at one worker.
        let run_only = |prog: &Program| {
            bps(best(c, false, reps, 0.0, |pool| {
                run_range_parallel(prog, pool, 0..nblocks, workers).unwrap();
            }))
        };
        let lane = bps(best(c, false, reps, 0.0, |pool| {
            let prog = Program::compile(&c.kernel, c.launch, &c.args).unwrap();
            run_range_parallel(&prog, pool, 0..nblocks, workers).unwrap();
        }));
        let (lane_run, detached_run, unchecked_run) = (
            run_only(&p.lane),
            run_only(&p.detached),
            run_only(&p.unchecked),
        );
        println!(
            "{:<14} {nblocks:>4} blocks w={workers}/{requested} tree {tree:>10.0} blk/s | lane \
             {lane:>10.0} ({:.2}x) | run-only: lane {lane_run:>10.0}, detached \
             {detached_run:>10.0} ({:.2}x), unchecked {unchecked_run:>10.0} ({:.2}x) | sanitize \
             {sanitize:>10.0}",
            c.name,
            lane / tree,
            lane_run / detached_run,
            unchecked_run / lane_run,
        );
        rows.push(format!(
            "    {{\"kernel\": \"{}\", \"blocks\": {nblocks}, \"threads_per_block\": {THREADS}, \
             \"workers_requested\": {requested}, \"workers\": {workers}, \
             \"tree_blocks_per_sec\": {tree:.0}, \"lane_blocks_per_sec\": {lane:.0}, \
             \"lane_speedup\": {:.2}, \"lane_run_blocks_per_sec\": {lane_run:.0}, \
             \"detached_run_blocks_per_sec\": {detached_run:.0}, \"lane_vs_detached\": {:.2}, \
             \"unchecked_run_blocks_per_sec\": {unchecked_run:.0}, \"elide_speedup\": {:.2}, \
             \"lane_run_vs_tree\": {:.2}, \"detached_run_vs_tree\": {:.2}, \
             \"sanitize_blocks_per_sec\": {sanitize:.0}, \"sanitize_overhead_vs_tree\": {:.2}}}",
            c.name,
            lane / tree,
            lane_run / detached_run,
            unchecked_run / lane_run,
            lane_run / tree,
            detached_run / tree,
            tree / sanitize,
        ));
        // Perf-regression smoke, serial row: lanes must not lose to
        // thread-major execution on the dense compute kernels they were
        // built for.
        if workers == 1 && matches!(c.name.as_str(), "saxpy" | "saxpy_inplace" | "horner15") {
            assert!(
                lane_run >= detached_run,
                "{}/{nblocks}: lanes regressed below thread-major ({lane_run:.0} < \
                 {detached_run:.0} blocks/s serial run-only)",
                c.name,
            );
        }
    }
    rows
}

/// One serial run-only row for a builtin kernel.
fn builtin_row(c: &Case) -> String {
    let p = programs(c);
    let nblocks = c.launch.num_blocks();
    let bps = |secs: f64| nblocks as f64 / secs;
    let tree = bps(best(c, true, 1, 0.0, |pool| {
        execute_block_range(&c.kernel, c.launch, 0..nblocks, &c.args, pool).unwrap();
    }));
    let run_only = |prog: &Program| {
        bps(best(c, true, 3, 0.03, |pool| {
            run_range(prog, pool, 0..nblocks).unwrap();
        }))
    };
    let (lane, detached, unchecked) = (
        run_only(&p.lane),
        run_only(&p.detached),
        run_only(&p.unchecked),
    );
    // Perf-regression smoke: loop kernels run on lanes, and a lone lane's
    // loop runs thread-major inside the lane chunk.
    let floor = match c.name.as_str() {
        "FIR" | "EP" | "BlackScholes" => 1.0,
        "vit_token_pool" => 0.9,
        _ => 0.0,
    };
    assert!(
        lane >= floor * detached,
        "{}: lanes regressed below {floor}x thread-major ({lane:.0} < {detached:.0} blocks/s \
         serial run-only)",
        c.name,
    );
    let tpb = c.launch.threads_per_block();
    println!(
        "{:<24} {nblocks:>4}x{tpb:<5} tree {tree:>10.0} | lane {lane:>10.0} ({:.2}x tree) | \
         detached {detached:>10.0} ({:.2}x tree; lane {:.2}x) | unchecked {unchecked:>10.0} \
         ({}/{} certified)",
        c.name,
        lane / tree,
        detached / tree,
        lane / detached,
        p.certs.0,
        p.certs.1,
    );
    format!(
        "    {{\"kernel\": \"{}\", \"blocks\": {nblocks}, \"threads_per_block\": {tpb}, \
         \"phases\": \"{}\", \"tree_blocks_per_sec\": {tree:.0}, \
         \"lane_run_blocks_per_sec\": {lane:.0}, \"detached_run_blocks_per_sec\": {detached:.0}, \
         \"lane_vs_tree\": {:.2}, \"detached_vs_tree\": {:.2}, \
         \"unchecked_run_blocks_per_sec\": {unchecked:.0}, \"certified\": {}, \"accesses\": {}}}",
        c.name,
        p.lane.phase_summary(),
        lane / tree,
        detached / tree,
        p.certs.0,
        p.certs.1,
    )
}

fn main() {
    let mut micro = Vec::new();
    for (name, kernel) in [
        ("saxpy", saxpy()),
        ("saxpy_inplace", saxpy_inplace()),
        ("tile_reverse", tile_reverse()),
        ("horner15", horner15()),
    ] {
        for blocks in GRIDS {
            // Best-of-9 on the small grid, where a run is a millisecond;
            // best-of-3 on the large one, where it is not.
            let reps = if blocks <= 128 { 9 } else { 3 };
            micro.extend(micro_rows(&micro_case(name, kernel.clone(), blocks), reps));
        }
    }
    let builtin: Vec<String> = builtin_cases().iter().map(builtin_row).collect();
    assert_eq!(builtin.len(), 42, "the builtin sweep covers every kernel");

    let json = format!(
        "{{\n  \"bench\": \"interp\",\n  \"unit\": \"blocks_per_sec\",\n  \"host_cores\": {},\n  \
         \"micro\": [\n{}\n  ],\n  \"builtin\": [\n{}\n  ],\n  \"before\": {}\n}}\n",
        host_cores(),
        micro.join(",\n"),
        builtin.join(",\n"),
        BEFORE.trim_end().replace('\n', "\n  "),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_interp.json");
    std::fs::write(path, &json).expect("write BENCH_interp.json");
    println!("wrote {path}");
}
