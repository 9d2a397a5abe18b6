//! Ablation: block resizing (the §8.3 "Workload Redistribution" proposal,
//! implemented as the `split_blocks` IR transformation).
//!
//! Kernels with few, fat blocks underutilize large clusters: Kmeans' 313
//! blocks leave SIMD-Focused 32-node cores idle and inflate the callback
//! share (§7.2). Splitting each block multiplies the schedulable units
//! without changing semantics. This harness quantifies the effect.

use cucc_bench::{banner, fmt_time};
use cucc_cluster::ClusterSpec;
use cucc_core::{compile, split_blocks, CuccCluster, RuntimeConfig};
use cucc_ir::parse_kernel;
use cucc_workloads::{perf::Ep, perf::Kmeans, setup_args, Benchmark, Scale};

fn timed_with_factor(bench: &dyn Benchmark, spec: ClusterSpec, factor: u32) -> Option<f64> {
    let kernel = parse_kernel(&bench.source()).ok()?;
    let (kernel, launch) = split_blocks(&kernel, bench.launch(), factor).ok()?;
    let ck = compile(kernel).ok()?;
    let mut cl = CuccCluster::with_options(spec, RuntimeConfig::modeled());
    let (args, _) = setup_args(bench, &ck.kernel, &mut cl).unwrap();
    Some(cl.launch(&ck, launch, &args).ok()?.time())
}

fn main() {
    banner(
        "§8.3 ablation",
        "block resizing via the split_blocks transformation",
    );
    let factors = [1u32, 2, 4, 8];
    for (name, bench, spec) in [
        (
            "Kmeans (313 blocks), SIMD-Focused ×32",
            Box::new(Kmeans::new(Scale::Paper)) as Box<dyn Benchmark>,
            ClusterSpec::simd_focused().with_nodes(32),
        ),
        (
            "Kmeans (313 blocks), SIMD-Focused ×16",
            Box::new(Kmeans::new(Scale::Paper)),
            ClusterSpec::simd_focused().with_nodes(16),
        ),
        (
            "EP (512 blocks), SIMD-Focused ×32",
            Box::new(Ep::new(Scale::Paper)),
            ClusterSpec::simd_focused().with_nodes(32),
        ),
        (
            "EP (512 blocks), Thread-Focused ×4",
            Box::new(Ep::new(Scale::Paper)),
            ClusterSpec::thread_focused().with_nodes(4),
        ),
    ] {
        print!("{name:<40}");
        let mut base = None;
        for &f in &factors {
            match timed_with_factor(bench.as_ref(), spec.clone(), f) {
                Some(t) => {
                    let b = *base.get_or_insert(t);
                    print!("  x{f}: {:>9} ({:>5.2}x)", fmt_time(t), b / t);
                }
                None => print!("  x{f}: n/a"),
            }
        }
        println!();
    }
    println!("\npaper §8.3: \"adjustable block sizes could help redistribute");
    println!("workloads to align with hardware capabilities\" — splitting fat");
    println!("blocks recovers the idle-core losses of few-block kernels.");
}
