//! # cucc-bench — harnesses that regenerate every table and figure
//!
//! One bench target per table/figure of the paper (run with
//! `cargo bench -p cucc-bench --bench <target>`; `cargo bench` runs all):
//!
//! | target | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — cluster specifications |
//! | `fig1_waiting_times` | Fig. 1 — Slurm partition waiting times |
//! | `fig4_pgas_scaling` | Fig. 4 — PGAS migration scalability |
//! | `fig7_coverage` | Fig. 7 — Allgather-distributable coverage |
//! | `fig8_scalability` | Fig. 8 — CuCC strong scaling on both clusters |
//! | `fig9_network_overhead` | Fig. 9 — communication share of runtime |
//! | `fig10_cucc_vs_pgas` | Fig. 10 — CuCC vs UPC++-style PGAS |
//! | `fig11_cpu_vs_gpu` | Fig. 11 — CPU clusters vs V100/A100 |
//! | `fig12_throughput` | Fig. 12 — Lonestar6 cluster-wide throughput |
//! | `fig13_simd_vs_thread` | Fig. 13 + §8.2 — SIMD- vs Thread-Focused |
//! | `allgather_micro` | §2.3 — Allgather placement/balance microbench |
//! | `criterion_components` | Criterion microbenches of the pipeline |
//!
//! Performance numbers come from the **modeled** execution fidelity at
//! paper-scale workloads: kernels are sample-interpreted for their dynamic
//! operation mix, and the calibrated cluster/GPU models convert the counts
//! to time. Measured-vs-paper comparisons live in `EXPERIMENTS.md`.

use cucc_cluster::ClusterSpec;
use cucc_core::{compile_source, CuccCluster, LaunchReport, RuntimeConfig};
use cucc_gpu_model::{GpuDevice, GpuSpec};
use cucc_pgas::{PgasCluster, PgasConfig, PgasReport};
use cucc_workloads::{setup_args, Benchmark};

/// Run one benchmark on a CuCC cluster in modeled fidelity.
pub fn cucc_report(bench: &dyn Benchmark, spec: ClusterSpec) -> LaunchReport {
    cucc_report_traced(bench, spec).0
}

/// Run one benchmark on a CuCC cluster in modeled fidelity and return the
/// trace timeline covering exactly the launch (h2d setup traffic is
/// dropped, so the span record is the kernel alone).
pub fn cucc_report_traced(
    bench: &dyn Benchmark,
    spec: ClusterSpec,
) -> (LaunchReport, cucc_trace::Timeline) {
    let ck = compile_source(&bench.source()).expect("compile");
    let mut cl = CuccCluster::with_options(spec, RuntimeConfig::modeled());
    let (args, _) = setup_args(bench, &ck.kernel, &mut cl).expect("upload");
    cl.reset_clock();
    let report = cl
        .launch(&ck, bench.launch(), &args)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
    let timeline = cl.timeline().clone();
    (report, timeline)
}

/// Run one benchmark on the PGAS baseline in modeled fidelity.
pub fn pgas_report(bench: &dyn Benchmark, spec: ClusterSpec) -> PgasReport {
    let ck = compile_source(&bench.source()).expect("compile");
    let mut pg = PgasCluster::new(spec, PgasConfig::modeled());
    let (args, _) = setup_args(bench, &ck.kernel, &mut pg).expect("upload");
    pg.launch(&ck, bench.launch(), &args)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
}

/// Roofline kernel time on a GPU.
pub fn gpu_time(bench: &dyn Benchmark, spec: GpuSpec) -> f64 {
    let ck = compile_source(&bench.source()).expect("compile");
    let mut gpu = GpuDevice::new(spec);
    let (args, _) = setup_args(bench, &ck.kernel, &mut gpu).expect("upload");
    gpu.time_only(&ck.kernel, bench.launch(), &args)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
}

/// Best (minimum) CuCC time across the given node counts; returns
/// `(best_nodes, best_time)`.
pub fn best_cucc(bench: &dyn Benchmark, base: ClusterSpec, node_counts: &[u32]) -> (u32, f64) {
    node_counts
        .iter()
        .map(|&n| (n, cucc_report(bench, base.clone().with_nodes(n)).time()))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .expect("at least one node count")
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Pretty banner for a figure harness.
pub fn banner(figure: &str, caption: &str) {
    println!("\n================================================================");
    println!("{figure}: {caption}");
    println!("================================================================");
}

/// Format seconds adaptively.
pub fn fmt_time(t: f64) -> String {
    if t >= 1.0 {
        format!("{t:.3} s")
    } else if t >= 1e-3 {
        format!("{:.3} ms", t * 1e3)
    } else {
        format!("{:.2} µs", t * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_workloads::{perf::VecCopy, Scale};

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn harness_helpers_run() {
        let b = VecCopy::new(Scale::Test);
        let spec = ClusterSpec::simd_focused().with_nodes(2);
        let r = cucc_report(&b, spec.clone());
        assert!(r.time() > 0.0);
        let p = pgas_report(&b, spec.clone());
        assert!(p.time() > 0.0);
        let g = gpu_time(&b, GpuSpec::a100());
        assert!(g > 0.0);
        let (_, best) = best_cucc(&b, spec, &[1, 2]);
        assert!(best > 0.0);
    }

    #[test]
    fn fmt_time_units() {
        assert!(fmt_time(2.0).ends_with(" s"));
        assert!(fmt_time(2e-3).ends_with(" ms"));
        assert!(fmt_time(2e-6).ends_with(" µs"));
    }
}
