//! Fault bench — recovery overhead on the simulated clock.
//!
//! Runs the same saxpy-style launch fault-free and under injected faults
//! (node kill at several points in the timeline, a straggler, a dropped
//! collective step) and reports how much simulated time each recovery
//! path costs relative to the clean run. Every faulty run must still
//! reproduce the clean output memory bit-for-bit. Writes the overheads
//! to `BENCH_fault.json` at the repository root.

use cucc_bench::banner;
use cucc_cluster::ClusterSpec;
use cucc_core::{compile_source, CompiledKernel, CuccCluster, FaultPlan, RunOptions};
use cucc_exec::Arg;
use cucc_ir::LaunchConfig;
use cucc_net::FaultKind;

const SAXPY: &str = "__global__ void saxpy(float* x, float* y, float a, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) y[id] = a * x[id] + y[id];
}";

const N: usize = 1 << 20;
const NODES: u32 = 4;
// Geometry whose dead-node slice re-partitions evenly across survivors
// (25 blocks on 3 nodes -> 24 distribution chunks -> 12 per survivor).
const N_SMALL: usize = 25 * 256;

struct Outcome {
    total: f64,
    retries: u32,
    failures: u32,
    reexecuted_blocks: u64,
    degraded: bool,
    memory: Vec<u8>,
}

fn run(ck: &CompiledKernel, nodes: u32, n: usize, faults: FaultPlan) -> Outcome {
    let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 100.0).collect();
    let ys: Vec<f32> = (0..n).map(|i| 50.0 - i as f32 * 0.125).collect();
    let mut cl = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(nodes),
        RunOptions::builder().faults(faults).build(),
    );
    let x = cl.alloc(n * 4);
    let y = cl.alloc(n * 4);
    cl.upload::<f32>(x, &xs).expect("upload x");
    cl.upload::<f32>(y, &ys).expect("upload y");
    let report = cl
        .launch(
            ck,
            LaunchConfig::cover1(n as u64, 256),
            &[
                Arg::Buffer(x),
                Arg::Buffer(y),
                Arg::float(2.0),
                Arg::int(n as i64),
            ],
        )
        .expect("recoverable launch");
    Outcome {
        total: report.times.total(),
        retries: report.faults.retries,
        failures: report.faults.failures,
        reexecuted_blocks: report.faults.reexecuted_blocks,
        degraded: report.faults.degraded,
        memory: cl.download::<u8>(y).expect("download y"),
    }
}

fn main() {
    banner(
        "Fault",
        "recovery overhead of kill / straggle / drop injection",
    );
    let ck = compile_source(SAXPY).expect("compile saxpy");

    let clean = run(&ck, NODES, N, FaultPlan::none());
    let clean_small = run(&ck, 3, N_SMALL, FaultPlan::none());
    println!(
        "{:<26} {:>12} {:>9} {:>8} {:>8}",
        "scenario", "simulated", "overhead", "retries", "reexec"
    );
    println!(
        "{:<26} {:>9.3} ms {:>8.2}x {:>8} {:>8}",
        "clean",
        clean.total * 1e3,
        1.0,
        0,
        0
    );

    let scenarios: Vec<(&str, u32, usize, FaultPlan)> = vec![
        ("kill@degraded", NODES, N, FaultPlan::none().kill(2, 0.0)),
        (
            "kill@repartition",
            3,
            N_SMALL,
            FaultPlan::none().kill(2, 0.0),
        ),
        (
            "straggle:3x",
            NODES,
            N,
            FaultPlan::none().straggle(1, 0.0, 3.0),
        ),
        ("drop-step", NODES, N, FaultPlan::none().drop_step(0.0)),
    ];

    let mut rows = String::new();
    for (name, nodes, n, plan) in scenarios {
        let base = if n == N { &clean } else { &clean_small };
        let kills = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Kill { .. }))
            .count();
        let o = run(&ck, nodes, n, plan);
        assert_eq!(
            o.memory, base.memory,
            "{name}: recovered memory diverges from the fault-free run"
        );
        assert_eq!(
            o.failures, kills as u32,
            "{name}: every injected kill must be detected"
        );
        let overhead = o.total / base.total;
        assert!(
            overhead >= 1.0 - 1e-12,
            "{name}: a fault cannot make the launch faster ({overhead:.3}x)"
        );
        println!(
            "{:<26} {:>9.3} ms {:>8.2}x {:>8} {:>8}{}",
            name,
            o.total * 1e3,
            overhead,
            o.retries,
            o.reexecuted_blocks,
            if o.degraded { "  (degraded)" } else { "" }
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"scenario\": \"{name}\", \"nodes\": {nodes}, \"n\": {n}, \
             \"clean_s\": {:.9}, \"faulty_s\": {:.9}, \"overhead\": {overhead:.4}, \
             \"retries\": {}, \"reexecuted_blocks\": {}, \"degraded\": {}}}",
            base.total, o.total, o.retries, o.reexecuted_blocks, o.degraded
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"fault\",\n  \"unit\": \"simulated_seconds\",\n  \"scenarios\": [\n{rows}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fault.json");
    std::fs::write(path, &json).expect("write BENCH_fault.json");
    println!("\nwrote {path}");
}
