//! Tree-walk interpreter vs bytecode engine vs the vectorized lane-array
//! tier: blocks/second on three representative kernels (elementwise SAXPY, a
//! shared-memory tile reverse with a barrier, and a compute-bound Horner
//! polynomial).
//!
//! Every launch exactly covers its data (`n = blocks * THREADS`), so
//! the kernels need no tail guard — their segments are straight-line and
//! exercise the engines' dense modes; guarded/divergent and looping kernels
//! are covered by the equivalence suites and unit tests.
//!
//! Besides the criterion report, the harness re-measures each configuration
//! directly — on a 128-block and a 4096-block grid, at 1, 2, 4 and 8
//! requested intra-node workers capped at the host's core count (more
//! chunks than cores only measures oversubscription) — and writes
//! `BENCH_interp.json` at the repository root so docs and CI can quote the
//! numbers. The file records `host_cores`, and every row its grid size and
//! its requested and effective worker count: a multi-worker number means
//! nothing without them. One row per (kernel, grid, worker count) with
//! `tree`, `bytecode` and `simd` blocks/s columns (`bytecode_speedup` is vs
//! the serial tree walk, `simd_speedup` is vs the bytecode engine at the
//! *same* worker count),
//! plus steady-state `*_run_blocks_per_sec` (checked) and
//! `*_unchecked_blocks_per_sec` (range-certified, bounds-check-elided)
//! columns with compile + range analysis hoisted out of the timed region
//! — the schedule cache amortizes both across replays — so
//! `elide_speedup` (certified simd vs checked simd run-only, same worker
//! count) isolates the elision effect from per-launch compile jitter.
//!
//! The harness doubles as the perf-regression smoke: it panics if the
//! vectorized tier fails to beat the bytecode engine, or if the certified
//! unchecked path falls behind the checked path, on the saxpy or horner15
//! serial rows of either grid — so a CI bench run fails on a vectorization
//! or elision regression. Checked-vs-unchecked bit-identity (stats and memory) is
//! asserted before anything is timed.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use cucc_analysis::{certify_program, global_extents};
use cucc_exec::{
    execute_block_range, pool::host_cores, run_range, run_range_parallel, run_range_parallel_simd,
    run_range_simd, sanitize_launch, Arg, BufferId, CertMode, MemPool, Program,
};
use cucc_ir::{Axis, Expr, Kernel, KernelBuilder, LaunchConfig, Scalar};
use std::time::Instant;

const THREADS: u32 = 128;
/// Grid sizes swept: one where per-call overhead shows (128 blocks, 16 per
/// worker at 8 workers) and one where block work dominates.
const GRIDS: [u32; 2] = [128, 4096];
/// Requested worker counts; each is capped at [`host_cores`] before it runs.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Which launch arguments a kernel takes (all buffers are `f32[n]`).
#[derive(Clone, Copy)]
enum ArgSpec {
    /// `(x, y)`
    Xy,
    /// `(x, y, z, a)` — two inputs, one output, one scalar.
    XyzA,
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

fn setup(pool: &mut MemPool, spec: ArgSpec, n: usize) -> Vec<Arg> {
    let x = pool.alloc_elems(Scalar::F32, n);
    let y = pool.alloc_elems(Scalar::F32, n);
    let xs: Vec<u8> = (0..n)
        .flat_map(|i| ((i % 257) as f32 * 0.01 - 1.0).to_le_bytes())
        .collect();
    let ys: Vec<u8> = (0..n)
        .flat_map(|i| (3.0 - i as f32 * 0.125).to_le_bytes())
        .collect();
    pool.write_all(x, &xs);
    pool.write_all(y, &ys);
    match spec {
        ArgSpec::Xy => vec![Arg::Buffer(x), Arg::Buffer(y)],
        ArgSpec::XyzA => {
            let z = pool.alloc_elems(Scalar::F32, n);
            vec![
                Arg::Buffer(x),
                Arg::Buffer(y),
                Arg::Buffer(z),
                Arg::float(1.0009765625),
            ]
        }
    }
}

/// Serial baselines, measured once per kernel.
struct SerialBase {
    tree: f64,
    /// Tree-walk with the dynamic sanitizer (write tracing on a scratch
    /// pool + interval sweep) — quantifies the `--sanitize` overhead.
    sanitize: f64,
}

/// One (kernel, worker count) configuration: bytecode vs vectorized with
/// compile inside the timed region (the historical columns), plus
/// steady-state run-only rows — compile + range analysis hoisted, as the
/// schedule cache amortizes them across replays — in checked and
/// range-certified (bounds-check-elided) flavours, so `elide_speedup`
/// isolates the elision effect from per-launch compile jitter.
struct WorkerRow {
    /// Worker count asked for (`WORKER_COUNTS`).
    requested: usize,
    /// Worker count run: `requested` capped at the host's cores.
    workers: usize,
    bytecode: f64,
    simd: f64,
    bytecode_run: f64,
    simd_run: f64,
    bytecode_unchecked: f64,
    simd_unchecked: f64,
}

/// Compile and attach `CertMode::Elide` certificates against the pool's
/// real allocation sizes; the dense exact-cover bench kernels must
/// certify every access or the elided rows would be measuring nothing.
fn compile_certified(
    kernel: &Kernel,
    launch: LaunchConfig,
    args: &[Arg],
    pool: &MemPool,
) -> Program {
    let mut prog = Program::compile(kernel, launch, args).unwrap();
    let exts = global_extents(&prog, |b| (b.index() < pool.len()).then(|| pool.size_of(b)));
    let (certified, total) = certify_program(&mut prog, &exts, CertMode::Elide).stats();
    assert_eq!(
        certified, total,
        "bench kernel `{}` only certified {certified}/{total} accesses",
        kernel.name
    );
    prog
}

/// Best-of-`reps` blocks/second for every engine configuration, after an
/// equivalence sanity check between the serial engines. Compile-once cost
/// is part of the launch, so it stays inside the timed region for the
/// bytecode and simd configurations.
fn measure(
    kernel: &Kernel,
    launch: LaunchConfig,
    spec: ArgSpec,
    reps: usize,
) -> (SerialBase, Vec<WorkerRow>) {
    let mut pool_a = MemPool::new();
    let args = setup(&mut pool_a, spec, launch.total_threads() as usize);
    let mut pool_b = pool_a.clone();
    let mut pool_c = pool_a.clone();
    let mut pool_d = pool_a.clone();
    let mut pool_e = pool_a.clone();
    let nblocks = launch.num_blocks();

    let sa = execute_block_range(kernel, launch, 0..nblocks, &args, &mut pool_a).unwrap();
    let prog = Program::compile(kernel, launch, &args).unwrap();
    let sb = run_range(&prog, &mut pool_b, 0..nblocks).unwrap();
    assert_eq!(sa, sb, "engines disagree — refusing to benchmark");
    let sc = run_range_simd(&prog, &mut pool_c, 0..nblocks).unwrap();
    assert_eq!(sa, sc, "simd engine disagrees — refusing to benchmark");

    // Checked-vs-unchecked bit-identity: the certified elided path must
    // reproduce the checked path's stats and memory exactly.
    let prog_u = compile_certified(kernel, launch, &args, &pool_d);
    let sd = run_range(&prog_u, &mut pool_d, 0..nblocks).unwrap();
    assert_eq!(
        sa, sd,
        "certified bytecode disagrees — refusing to benchmark"
    );
    let se = run_range_simd(&prog_u, &mut pool_e, 0..nblocks).unwrap();
    assert_eq!(sa, se, "certified simd disagrees — refusing to benchmark");
    for i in 0..pool_a.len() {
        let id = BufferId(i as u32);
        assert_eq!(
            pool_a.bytes(id),
            pool_d.bytes(id),
            "certified bytecode memory diverged"
        );
        assert_eq!(
            pool_a.bytes(id),
            pool_e.bytes(id),
            "certified simd memory diverged"
        );
    }

    let bps = |secs: f64| nblocks as f64 / secs;
    let mut tree = f64::MAX;
    let mut sanitize = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        execute_block_range(kernel, launch, 0..nblocks, &args, &mut pool_a).unwrap();
        tree = tree.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let report = sanitize_launch(kernel, launch, &args, &pool_a);
        sanitize = sanitize.min(t.elapsed().as_secs_f64());
        assert!(report.clean(), "bench kernel flagged: {}", report.summary());
    }

    let mut rows: Vec<WorkerRow> = Vec::new();
    for requested in WORKER_COUNTS {
        let workers = requested.min(host_cores());
        if rows.iter().any(|r| r.workers == workers) {
            continue;
        }
        // Pre-built programs for the steady-state (run-only) rows.
        let prog_run = Program::compile(kernel, launch, &args).unwrap();
        let prog_cert = compile_certified(kernel, launch, &args, &pool_d);
        let mut bytecode = f64::MAX;
        let mut simd = f64::MAX;
        let mut bytecode_r = f64::MAX;
        let mut simd_r = f64::MAX;
        let mut bytecode_u = f64::MAX;
        let mut simd_u = f64::MAX;
        // `run_range_parallel{,_simd}` take the serial path at one worker.
        let time = |best: &mut f64, run: &mut dyn FnMut()| {
            let t = Instant::now();
            run();
            *best = best.min(t.elapsed().as_secs_f64());
        };
        for _ in 0..reps {
            time(&mut bytecode, &mut || {
                let prog = Program::compile(kernel, launch, &args).unwrap();
                run_range_parallel(&prog, &mut pool_b, 0..nblocks, workers).unwrap();
            });
            time(&mut simd, &mut || {
                let prog = Program::compile(kernel, launch, &args).unwrap();
                run_range_parallel_simd(&prog, &mut pool_c, 0..nblocks, workers).unwrap();
            });
            time(&mut bytecode_r, &mut || {
                run_range_parallel(&prog_run, &mut pool_b, 0..nblocks, workers).unwrap();
            });
            time(&mut simd_r, &mut || {
                run_range_parallel_simd(&prog_run, &mut pool_c, 0..nblocks, workers).unwrap();
            });
            time(&mut bytecode_u, &mut || {
                run_range_parallel(&prog_cert, &mut pool_d, 0..nblocks, workers).unwrap();
            });
            time(&mut simd_u, &mut || {
                run_range_parallel_simd(&prog_cert, &mut pool_e, 0..nblocks, workers).unwrap();
            });
        }
        rows.push(WorkerRow {
            requested,
            workers,
            bytecode: bps(bytecode),
            simd: bps(simd),
            bytecode_run: bps(bytecode_r),
            simd_run: bps(simd_r),
            bytecode_unchecked: bps(bytecode_u),
            simd_unchecked: bps(simd_u),
        });
    }
    (
        SerialBase {
            tree: bps(tree),
            sanitize: bps(sanitize),
        },
        rows,
    )
}

fn bench_engines(c: &mut Criterion) {
    let kernels: [(&str, Kernel, ArgSpec); 3] = [
        ("saxpy", saxpy(), ArgSpec::XyzA),
        ("tile_reverse", tile_reverse(), ArgSpec::Xy),
        ("horner15", horner15(), ArgSpec::Xy),
    ];

    // The criterion groups keep their historical shape: serial, small grid.
    let launch = LaunchConfig::new(GRIDS[0], THREADS);
    for (name, kernel, spec) in &kernels {
        let mut pool = MemPool::new();
        let args = setup(&mut pool, *spec, launch.total_threads() as usize);
        let mut g = c.benchmark_group(format!("interp/{name}"));
        g.throughput(Throughput::Elements(launch.num_blocks()));
        g.bench_function("tree_walk", |b| {
            b.iter(|| {
                execute_block_range(kernel, launch, 0..launch.num_blocks(), &args, &mut pool)
                    .unwrap()
            })
        });
        g.bench_function("bytecode", |b| {
            b.iter(|| {
                let prog = Program::compile(kernel, launch, &args).unwrap();
                run_range(&prog, &mut pool, 0..launch.num_blocks()).unwrap()
            })
        });
        g.bench_function("simd", |b| {
            b.iter(|| {
                let prog = Program::compile(kernel, launch, &args).unwrap();
                run_range_simd(&prog, &mut pool, 0..launch.num_blocks()).unwrap()
            })
        });
        g.finish();
    }

    let mut rows = String::new();
    for (name, kernel, spec) in &kernels {
        for blocks in GRIDS {
            let launch = LaunchConfig::new(blocks, THREADS);
            // Best-of-9 on the small grid, where a run is a millisecond;
            // best-of-3 on the large one, where it is not.
            let reps = if blocks <= 128 { 9 } else { 3 };
            let (base, wrows) = measure(kernel, launch, *spec, reps);
            for r in &wrows {
                println!(
                    "{name:<14} {blocks:>4} blocks w={}/{} tree {:>10.0} blk/s | bytecode \
                     {:>10.0} blk/s ({:.2}x) | simd {:>10.0} blk/s ({:.2}x vs bytecode) | \
                     certified simd {:>10.0} blk/s ({:.2}x vs checked run-only {:>10.0}) | \
                     sanitize {:>10.0} blk/s",
                    r.workers,
                    r.requested,
                    base.tree,
                    r.bytecode,
                    r.bytecode / base.tree,
                    r.simd,
                    r.simd / r.bytecode,
                    r.simd_unchecked,
                    r.simd_unchecked / r.simd_run,
                    r.simd_run,
                    base.sanitize,
                );
                if !rows.is_empty() {
                    rows.push_str(",\n");
                }
                rows.push_str(&format!(
                    "    {{\"kernel\": \"{name}\", \"blocks\": {blocks}, \
                     \"threads_per_block\": {THREADS}, \"workers_requested\": {}, \
                     \"workers\": {}, \"tree_blocks_per_sec\": {:.0}, \
                     \"bytecode_blocks_per_sec\": {:.0}, \"bytecode_speedup\": {:.2}, \
                     \"simd_blocks_per_sec\": {:.0}, \"simd_speedup\": {:.2}, \
                     \"bytecode_run_blocks_per_sec\": {:.0}, \
                     \"simd_run_blocks_per_sec\": {:.0}, \
                     \"bytecode_unchecked_blocks_per_sec\": {:.0}, \
                     \"simd_unchecked_blocks_per_sec\": {:.0}, \"elide_speedup\": {:.2}, \
                     \"sanitize_blocks_per_sec\": {:.0}, \"sanitize_overhead_vs_tree\": {:.2}}}",
                    r.requested,
                    r.workers,
                    base.tree,
                    r.bytecode,
                    r.bytecode / base.tree,
                    r.simd,
                    r.simd / r.bytecode,
                    r.bytecode_run,
                    r.simd_run,
                    r.bytecode_unchecked,
                    r.simd_unchecked,
                    r.simd_unchecked / r.simd_run,
                    base.sanitize,
                    base.tree / base.sanitize,
                ));
            }
            // Perf-regression smoke: the vectorized tier must not lose to
            // the bytecode engine, and the certified bounds-check-elided
            // path must not lose to the checked path, on the dense compute
            // kernels they were built for.
            if matches!(*name, "saxpy" | "horner15") {
                let serial = &wrows[0];
                assert!(
                    serial.simd >= serial.bytecode,
                    "{name}/{blocks}: simd tier regressed below bytecode \
                     ({:.0} < {:.0} blocks/s serial)",
                    serial.simd,
                    serial.bytecode,
                );
                // 10% noise floor: on the compute-bound kernels the two
                // memory ops per element put elision within run-to-run
                // jitter, so only a real regression should fail CI. Both
                // sides are steady-state run-only measurements.
                assert!(
                    serial.simd_unchecked >= serial.simd_run * 0.9,
                    "{name}/{blocks}: certified simd path regressed below checked \
                     ({:.0} < {:.0} blocks/s serial run-only)",
                    serial.simd_unchecked,
                    serial.simd_run,
                );
            }
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"interp\",\n  \"unit\": \"blocks_per_sec\",\n  \
         \"host_cores\": {},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        host_cores()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_interp.json");
    std::fs::write(path, &json).expect("write BENCH_interp.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
