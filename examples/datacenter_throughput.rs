//! Datacenter planning example (the paper's §7.4.2): given a
//! Lonestar6-shaped machine — 560 CPU nodes, 16 GPU nodes with 3× A100 —
//! how much batch throughput does GPU-to-CPU migration unlock?
//!
//! Uses modeled (timing-only) execution at reduced sizes so the example
//! runs in seconds; the full paper-scale sweep lives in
//! `cargo bench -p cucc-bench --bench fig12_throughput`.
//!
//! ```bash
//! cargo run --release --example datacenter_throughput
//! ```

use cucc::cluster::ClusterSpec;
use cucc::core::{compile_source, CuccCluster, RuntimeConfig};
use cucc::gpu_model::{GpuDevice, GpuSpec};
use cucc::slurm::Datacenter;
use cucc::workloads::{perf_suite, setup_args, Scale};

fn main() {
    let dc = Datacenter::lonestar6();
    println!(
        "datacenter: {} CPU nodes, {} GPU nodes × {} A100 = {} GPUs\n",
        dc.cpu_nodes,
        dc.gpu_nodes,
        dc.gpus_per_node,
        dc.total_gpus()
    );
    println!(
        "{:16} {:>12} {:>12} {:>14} {:>14} {:>9}",
        "benchmark", "gpu t (ms)", "cpu t (ms)", "gpu-only /s", "gpu+cpu /s", "ratio"
    );

    let mut ratios = Vec::new();
    for bench in perf_suite(Scale::Test) {
        let ck = compile_source(&bench.source()).unwrap();

        // GPU kernel time (A100, roofline).
        let mut gpu = GpuDevice::new(GpuSpec::a100());
        let (gargs, _) = setup_args(bench.as_ref(), &ck.kernel, &mut gpu).unwrap();
        let gpu_t = gpu.time_only(&ck.kernel, bench.launch(), &gargs).unwrap();

        // Best CPU cluster size (Thread-Focused class, like Lonestar6).
        let mut best: Option<(u32, f64)> = None;
        for nodes in [1u32, 2, 4, 8] {
            let mut cl = CuccCluster::with_options(
                ClusterSpec::thread_focused().with_nodes(nodes),
                RuntimeConfig::modeled(),
            );
            let (cargs, _) = setup_args(bench.as_ref(), &ck.kernel, &mut cl).unwrap();
            let t = cl.launch(&ck, bench.launch(), &cargs).unwrap().time();
            if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                best = Some((nodes, t));
            }
        }
        let (best_nodes, cpu_t) = best.unwrap();

        let gpu_only = dc.gpu_throughput(gpu_t);
        let combined = dc.combined_throughput(gpu_t, best_nodes, cpu_t);
        let ratio = combined / gpu_only;
        ratios.push(ratio);
        println!(
            "{:16} {:>12.3} {:>12.3} {:>14.1} {:>14.1} {:>8.2}x",
            bench.name(),
            gpu_t * 1e3,
            cpu_t * 1e3,
            gpu_only,
            combined,
            ratio
        );
    }
    let geo = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    println!(
        "\ngeomean improvement from adding the idle CPU fleet: {:.2}x",
        geo.exp()
    );
    println!("(paper, at full scale: 3.59x average; CPUs alone contribute 2.59x)");
}
