//! Figure 13 + §8.2 — SIMD-style vs thread-style execution, reproduced from
//! **measured** engine runs instead of the capacity model.
//!
//! The paper contrasts a SIMD-Focused cluster (few fat cores, wide vectors)
//! with a Thread-Focused one (many scalar cores) at equalized peak capacity.
//! Our measured analog drives the real executors over the eight evaluation
//! kernels: the tree-walk oracle, the compiled engine with its lane plans
//! detached (`Program::detach_lane_plans`: every segment thread-major)
//! across 1/2/4/8 workers (thread-style scaling), and the compiled engine
//! as it ships across the same worker counts (SIMD-style scaling). The
//! per-worker `lane/thread-major` ratio is the measured counterpart of the
//! figure's SIMD-vs-thread trade-off, and the §8.2 ablation (what a
//! SIMD-focused machine loses when vector execution is disabled) is
//! literal: the same engine, the same kernel, lanes off.

use cucc_bench::{banner, geomean};
use cucc_exec::{execute_block_range, run_range_parallel, Arg, MemPool, Program};
use cucc_ir::Param;
use cucc_workloads::{perf_suite, Benchmark, Scale};
use std::time::Instant;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;

struct Prepared {
    name: &'static str,
    kernel: cucc_ir::Kernel,
    launch: cucc_ir::LaunchConfig,
    pool: MemPool,
    args: Vec<Arg>,
    summary: String,
}

fn prepare(bench: &dyn Benchmark) -> Prepared {
    let kernel = cucc_ir::parse_kernel(&bench.source()).expect("benchmark kernel parses");
    cucc_ir::validate(&kernel).expect("benchmark kernel validates");
    let launch = bench.launch();
    let mut pool = MemPool::new();
    let mut args = Vec::with_capacity(kernel.params.len());
    let host = bench.buffers();
    let scalars = bench.scalars();
    let (mut bi, mut si) = (0usize, 0usize);
    for p in &kernel.params {
        match p {
            Param::Buffer { .. } => {
                let id = pool.alloc(host[bi].len());
                pool.write_all(id, &host[bi]);
                bi += 1;
                args.push(Arg::Buffer(id));
            }
            Param::Scalar { .. } => {
                args.push(Arg::Scalar(scalars[si]));
                si += 1;
            }
        }
    }
    let summary = match Program::compile(&kernel, launch, &args) {
        Ok(p) => p.phase_summary().lines().collect::<Vec<_>>().join(" "),
        Err(e) => format!("uncompiled ({e})"),
    };
    Prepared {
        name: bench.name(),
        kernel,
        launch,
        pool,
        args,
        summary,
    }
}

/// Best-of-`REPS` wall time for one full launch; every rep runs on a fresh
/// copy of the initial pool so non-idempotent kernels measure the same work.
fn best_time(p: &Prepared, f: impl Fn(&Prepared, &mut MemPool)) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..REPS {
        let mut pool = p.pool.clone();
        let t = Instant::now();
        f(p, &mut pool);
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    banner(
        "Figure 13",
        "SIMD-style (lane plans) vs thread-style (thread-major workers), measured",
    );
    let suite = perf_suite(Scale::Test);
    println!(
        "{:<16} {:>10}   {}",
        "benchmark",
        "tree",
        WORKER_COUNTS
            .iter()
            .map(|w| format!("{:>22}", format!("w={w}: lane/thread")))
            .collect::<String>()
    );

    let mut ratios_per_w: Vec<Vec<f64>> = vec![Vec::new(); WORKER_COUNTS.len()];
    let mut serial: Vec<(String, f64, f64)> = Vec::new();
    let mut modes = String::new();
    for bench in &suite {
        let p = prepare(bench.as_ref());
        let blocks = p.launch.num_blocks();
        let tree = best_time(&p, |p, pool| {
            execute_block_range(&p.kernel, p.launch, 0..blocks, &p.args, pool).unwrap();
        });
        print!("{:<16} {:>8.2}ms  ", p.name, tree * 1e3);
        let prog = Program::compile(&p.kernel, p.launch, &p.args).unwrap();
        let mut thread_major = prog.clone();
        thread_major.detach_lane_plans();
        for (i, &w) in WORKER_COUNTS.iter().enumerate() {
            // `run_range_parallel` takes the serial path at one worker.
            let thread = best_time(&p, |_, pool| {
                run_range_parallel(&thread_major, pool, 0..blocks, w).unwrap();
            });
            let lane = best_time(&p, |_, pool| {
                run_range_parallel(&prog, pool, 0..blocks, w).unwrap();
            });
            let ratio = thread / lane;
            ratios_per_w[i].push(ratio);
            if i == 0 {
                serial.push((p.name.to_string(), thread, lane));
            }
            print!("{:>19.2}x   ", ratio);
        }
        println!();
        modes += &format!("  {:<16} {}\n", p.name, p.summary);
    }
    print!("{:<16} {:>10}   ", "geomean", "");
    for ratios in &ratios_per_w {
        print!("{:>19.2}x   ", geomean(ratios));
    }
    println!();
    println!("\nvectorization mode per kernel (phase summary):");
    print!("{modes}");

    // ---- §8.2 ablation: disable vector execution on the SIMD-style tier ----
    // The paper disables SIMD on both CPUs and reports Transpose slowing
    // 61.66x on the SIMD-Focused machine but ~1x on the Thread-Focused one.
    // Measured analog: the same engine with its lane plans detached, so the
    // slowdown is thread-major time vs lane time serially; the thread-style
    // column never used lanes and is unchanged.
    banner("§8.2 ablation", "Transpose with vector execution disabled");
    let (name, thread, lane) = serial
        .iter()
        .find(|(n, _, _)| n == "Transpose")
        .expect("Transpose in suite");
    println!(
        "  {name}: lanes on {:.3}ms -> lanes off {:.3}ms ({:.2}x slowdown; paper 61.66x on 512-lane hardware)",
        lane * 1e3,
        thread * 1e3,
        thread / lane
    );
    println!("  thread-style column: unchanged (never used lanes; paper ~1x)");
}
