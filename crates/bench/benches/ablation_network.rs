//! Ablation: network generation (the paper's §10 outlook).
//!
//! "As the industry moves toward higher-bandwidth networks such as 400 Gbps
//! and 800 Gbps, the performance of clustered CPUs will continue to
//! improve." This harness re-runs the communication-bound benchmarks on
//! 100 Gb/s vs 400 Gb/s fabrics and also compares Allgather algorithm
//! choices.

use cucc_bench::{banner, cucc_report, fmt_time};
use cucc_cluster::ClusterSpec;
use cucc_core::{compile_source, CuccCluster, RuntimeConfig};
use cucc_net::{AllgatherAlgo, NetModel};
use cucc_workloads::{perf_suite, setup_args, Benchmark, Scale};

fn main() {
    banner("§10 ablation", "network generation & Allgather algorithm");

    // ---- 100G vs 400G on the 32-node SIMD-Focused cluster -------------
    println!("\n100 Gb/s vs 400 Gb/s InfiniBand (SIMD-Focused, 32 nodes):");
    println!(
        "{:<16} {:>12} {:>12} {:>9}",
        "benchmark", "100G", "400G", "speedup"
    );
    for bench in perf_suite(Scale::Paper) {
        let base = ClusterSpec::simd_focused().with_nodes(32);
        let mut fast = base.clone();
        fast.net = NetModel::infiniband_400g();
        let t100 = cucc_report(bench.as_ref(), base).time();
        let t400 = cucc_report(bench.as_ref(), fast).time();
        println!(
            "{:<16} {:>12} {:>12} {:>8.2}x",
            bench.name(),
            fmt_time(t100),
            fmt_time(t400),
            t100 / t400
        );
    }

    // ---- Allgather algorithm choice ------------------------------------
    println!("\nAllgather algorithm (Transpose, SIMD-Focused, 32 nodes):");
    for algo in [
        AllgatherAlgo::Ring,
        AllgatherAlgo::RecursiveDoubling,
        AllgatherAlgo::Bruck,
    ] {
        let bench = cucc_workloads::perf::Transpose::new(Scale::Paper);
        let ck = compile_source(&bench.source()).unwrap();
        let mut cfg = RuntimeConfig::modeled();
        cfg.allgather_algo = algo;
        let mut cl = CuccCluster::with_options(ClusterSpec::simd_focused().with_nodes(32), cfg);
        let (args, _) = setup_args(&bench, &ck.kernel, &mut cl).unwrap();
        let r = cl.launch(&ck, bench.launch(), &args).unwrap();
        println!(
            "  {:<20} total {:>10}, allgather {:>10}",
            format!("{algo:?}"),
            fmt_time(r.time()),
            fmt_time(r.times.allgather)
        );
    }
    println!("\npaper §10: faster fabrics directly shrink the Allgather phase,");
    println!("making CPU-cluster migration increasingly compelling.");
}
