//! Elasticity bench — node-join repartition vs staying degraded, and
//! checkpoint/restore cost against state size.
//!
//! Part 1 compares, on the simulated clock, a job growing from 4 to 8
//! nodes through scripted `join:` events against the same job pinned at 4
//! nodes, and a mid-launch kill whose geometry allows the §6 re-partition
//! against one that forces degraded (replicated-on-survivors) completion.
//! Part 2 measures wall-clock checkpoint serialization and restore across
//! growing state sizes, each row the median of [`REPS`] repetitions.
//! Every elastic run must reproduce the healthy run's memory bit-for-bit.
//! Writes `BENCH_elastic.json` at the repository root.

use cucc_bench::banner;
use cucc_cluster::ClusterSpec;
use cucc_core::{
    compile_source, CompiledKernel, CuccCluster, FaultPlan, RunOptions, RuntimeConfig,
};
use cucc_exec::Arg;
use cucc_ir::LaunchConfig;

const SAXPY: &str = "__global__ void saxpy(float* x, float* y, float a, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) y[id] = a * x[id] + y[id];
}";

/// Geometry whose dead-node slice re-partitions evenly across the 7
/// survivors of an 8-node cluster, and across the 3 survivors of 4.
const N_BALANCED: usize = 21 * 8 * 256;
/// Large power-of-two grid: a kill at 8 nodes leaves 7 survivors that
/// the distribution chunk count cannot divide onto — degraded.
const N_DEGRADED: usize = 1 << 20;

/// Repetitions behind each checkpoint row's wall times (the median is
/// reported).
const REPS: usize = 5;

fn make(nodes: u32, faults: FaultPlan) -> CuccCluster {
    CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(nodes),
        RunOptions::builder().faults(faults).build(),
    )
}

struct Outcome {
    sim_time: f64,
    degraded: bool,
    reexecuted_blocks: u64,
    memory: Vec<u8>,
}

/// Upload, run the kernel twice (two launch boundaries), download.
fn run_twice(ck: &CompiledKernel, nodes: u32, n: usize, faults: FaultPlan) -> Outcome {
    let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 100.0).collect();
    let ys: Vec<f32> = (0..n).map(|i| 50.0 - i as f32 * 0.125).collect();
    let mut cl = make(nodes, faults);
    let x = cl.alloc(n * 4);
    let y = cl.alloc(n * 4);
    cl.upload::<f32>(x, &xs).expect("upload x");
    cl.upload::<f32>(y, &ys).expect("upload y");
    let args = [
        Arg::Buffer(x),
        Arg::Buffer(y),
        Arg::float(2.0),
        Arg::int(n as i64),
    ];
    let launch = LaunchConfig::cover1(n as u64, 256);
    let t0 = cl.clock();
    let r1 = cl.launch(ck, launch, &args).expect("launch 1");
    let r2 = cl.launch(ck, launch, &args).expect("launch 2");
    Outcome {
        sim_time: cl.clock() - t0,
        degraded: r1.faults.degraded || r2.faults.degraded,
        reexecuted_blocks: r1.faults.reexecuted_blocks + r2.faults.reexecuted_blocks,
        memory: cl.download::<u8>(y).expect("download y"),
    }
}

/// A plan that grows the cluster from `from` to `to` nodes just after the
/// first launch begins: growth joins are launch-boundary events, so the
/// second launch runs on the enlarged communicator.
fn growth_plan(from: u32, to: u32, after: f64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for node in from..to {
        plan = plan.join(node, after + 1e-9);
    }
    plan
}

fn main() {
    banner(
        "Elastic",
        "join-driven growth, repartition vs degraded, checkpoint cost",
    );
    let ck = compile_source(SAXPY).expect("compile saxpy");

    // ---- Part 1: growth and recovery on the simulated clock ----------
    let upload_clock = {
        // The uploads' simulated duration fixes when the first launch
        // starts; growth joins are timestamped just after it.
        let mut cl = make(4, FaultPlan::none());
        let x = cl.alloc(N_BALANCED * 4);
        let y = cl.alloc(N_BALANCED * 4);
        cl.upload::<f32>(x, &vec![0.0; N_BALANCED]).unwrap();
        cl.upload::<f32>(y, &vec![0.0; N_BALANCED]).unwrap();
        cl.clock()
    };

    let clean4 = run_twice(&ck, 4, N_BALANCED, FaultPlan::none());
    let clean8 = run_twice(&ck, 8, N_BALANCED, FaultPlan::none());
    let grown = run_twice(&ck, 4, N_BALANCED, growth_plan(4, 8, upload_clock));
    assert_eq!(
        grown.memory, clean4.memory,
        "grow-to-8 run diverges from the 4-node run"
    );
    assert!(!grown.degraded);

    let clean8_deg = run_twice(&ck, 8, N_DEGRADED, FaultPlan::none());
    let repart = run_twice(&ck, 8, N_BALANCED, FaultPlan::none().kill(7, 0.0));
    let degraded = run_twice(&ck, 8, N_DEGRADED, FaultPlan::none().kill(7, 0.0));
    assert!(
        !repart.degraded,
        "balanced geometry must re-partition, not degrade"
    );
    assert!(
        degraded.degraded,
        "indivisible geometry must degrade to replicated"
    );
    assert_eq!(repart.memory, clean8.memory, "repartition memory diverges");
    assert_eq!(
        degraded.memory, clean8_deg.memory,
        "degraded memory diverges"
    );

    println!(
        "{:<22} {:>7} {:>12} {:>10} {:>8}",
        "scenario", "nodes", "simulated", "vs clean", "reexec"
    );
    let mut scenario_rows = String::new();
    for (name, nodes, o, base) in [
        ("clean@4", 4u32, &clean4, &clean4),
        ("clean@8", 8, &clean8, &clean8),
        ("grow:4->8", 4, &grown, &clean4),
        ("kill@8:repartition", 8, &repart, &clean8),
        ("kill@8:degraded", 8, &degraded, &clean8_deg),
    ] {
        let rel = o.sim_time / base.sim_time;
        println!(
            "{:<22} {:>7} {:>9.3} ms {:>9.2}x {:>8}{}",
            name,
            nodes,
            o.sim_time * 1e3,
            rel,
            o.reexecuted_blocks,
            if o.degraded { "  (degraded)" } else { "" }
        );
        if !scenario_rows.is_empty() {
            scenario_rows.push_str(",\n");
        }
        scenario_rows.push_str(&format!(
            "    {{\"scenario\": \"{name}\", \"nodes\": {nodes}, \
             \"simulated_s\": {:.9}, \"vs_clean\": {rel:.4}, \
             \"reexecuted_blocks\": {}, \"degraded\": {}}}",
            o.sim_time, o.reexecuted_blocks, o.degraded
        ));
    }

    // ---- Part 2: checkpoint/restore wall time vs state size ----------
    println!(
        "\n{:<14} {:>12} {:>14} {:>12}",
        "state", "image", "checkpoint", "restore"
    );
    let mut ckpt_rows = String::new();
    for elems in [1usize << 16, 1 << 18, 1 << 20, 1 << 22] {
        let data: Vec<f32> = (0..elems).map(|i| i as f32 * 0.5).collect();
        let mut cl = make(4, FaultPlan::none());
        let x = cl.alloc(elems * 4);
        let y = cl.alloc(elems * 4);
        cl.upload::<f32>(x, &data).unwrap();
        cl.upload::<f32>(y, &data).unwrap();
        cl.launch(
            &ck,
            LaunchConfig::cover1(elems as u64, 256),
            &[
                Arg::Buffer(x),
                Arg::Buffer(y),
                Arg::float(2.0),
                Arg::int(elems as i64),
            ],
        )
        .unwrap();
        let reference = cl.download::<u8>(y).unwrap();

        let path = std::env::temp_dir().join(format!("cucc-bench-elastic-{elems}.ckpt"));
        let (mut ckpts, mut restores) = (Vec::new(), Vec::new());
        let mut image_bytes = 0;
        for _ in 0..REPS {
            let w0 = std::time::Instant::now();
            image_bytes = cl.checkpoint_to(&path).expect("checkpoint");
            ckpts.push(w0.elapsed().as_secs_f64());
            let w1 = std::time::Instant::now();
            let mut restored = CuccCluster::restore_from(
                ClusterSpec::simd_focused().with_nodes(4),
                RuntimeConfig::default(),
                &path,
            )
            .expect("restore");
            restores.push(w1.elapsed().as_secs_f64());
            assert_eq!(
                restored.download::<u8>(y).unwrap(),
                reference,
                "restored memory diverges at {elems} elems"
            );
        }
        std::fs::remove_file(&path).ok();
        let median = |mut t: Vec<f64>| {
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        };
        let (t_ckpt, t_restore) = (median(ckpts), median(restores));

        let state_bytes = elems * 8; // two f32 buffers
        println!(
            "{:>10} KiB {:>8} KiB {:>11.3} ms {:>9.3} ms",
            state_bytes / 1024,
            image_bytes / 1024,
            t_ckpt * 1e3,
            t_restore * 1e3
        );
        if !ckpt_rows.is_empty() {
            ckpt_rows.push_str(",\n");
        }
        ckpt_rows.push_str(&format!(
            "    {{\"state_bytes\": {state_bytes}, \"image_bytes\": {image_bytes}, \
             \"checkpoint_s\": {t_ckpt:.9}, \"restore_s\": {t_restore:.9}, \
             \"repetitions\": {REPS}}}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"elastic\",\n  \"unit\": \"simulated_seconds|wall_seconds\",\n  \
         \"scenarios\": [\n{scenario_rows}\n  ],\n  \"checkpoint\": [\n{ckpt_rows}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_elastic.json");
    std::fs::write(path, &json).expect("write BENCH_elastic.json");
    println!("\nwrote {path}");
}
