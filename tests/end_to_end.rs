//! End-to-end migration tests: every evaluation benchmark, compiled through
//! the full CuCC pipeline and executed **functionally** on simulated
//! clusters of several sizes, must produce exactly the results of the GPU
//! reference device (which itself is verified against pure-Rust reference
//! implementations inside `cucc-workloads`).

use cucc::analysis::ReplicationCause;
use cucc::cluster::ClusterSpec;
use cucc::core::{compile_source, CuccCluster, EngineKind, ExecMode, RuntimeConfig};
use cucc::exec::Arg;
use cucc::ir::LaunchConfig;
use cucc::pgas::{PgasCluster, PgasConfig};
use cucc::workloads::{perf_suite, run_reference_check, setup_args, Benchmark, Scale};

fn simd_cluster(n: u32) -> ClusterSpec {
    ClusterSpec::simd_focused().with_nodes(n)
}

fn thread_cluster(n: u32) -> ClusterSpec {
    ClusterSpec::thread_focused().with_nodes(n)
}

/// Run one benchmark functionally on a CuCC cluster and verify outputs.
fn check_cucc(bench: &dyn Benchmark, spec: ClusterSpec) {
    let ck = compile_source(&bench.source()).unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
    let mut cluster = CuccCluster::with_options(spec, RuntimeConfig::default());
    let (args, handles) = setup_args(bench, &ck.kernel, &mut cluster).unwrap();
    cluster
        .launch(&ck, bench.launch(), &args)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
    run_reference_check(bench, &mut cluster, &handles).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn all_benchmarks_on_simd_cluster_sizes() {
    for bench in perf_suite(Scale::Test) {
        for nodes in [1u32, 2, 4, 8] {
            check_cucc(bench.as_ref(), simd_cluster(nodes));
        }
    }
}

#[test]
fn all_benchmarks_on_thread_cluster() {
    for bench in perf_suite(Scale::Test) {
        for nodes in [2u32, 4] {
            check_cucc(bench.as_ref(), thread_cluster(nodes));
        }
    }
}

#[test]
fn odd_node_counts_work() {
    // Non-power-of-two clusters exercise remainder callbacks and the Bruck
    // paths.
    for bench in perf_suite(Scale::Test) {
        check_cucc(bench.as_ref(), simd_cluster(3));
        check_cucc(bench.as_ref(), simd_cluster(7));
    }
}

#[test]
fn pgas_baseline_matches_references_too() {
    for bench in perf_suite(Scale::Test) {
        let ck = compile_source(&bench.source()).unwrap();
        let mut pg = PgasCluster::new(simd_cluster(4), PgasConfig::default());
        let (args, handles) = setup_args(bench.as_ref(), &ck.kernel, &mut pg).unwrap();
        pg.launch(&ck, bench.launch(), &args)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        run_reference_check(bench.as_ref(), &mut pg, &handles).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn all_benchmarks_distribute_not_replicate() {
    // The eight evaluation programs must actually take the three-phase
    // path, not the fallback.
    for bench in perf_suite(Scale::Test) {
        let ck = compile_source(&bench.source()).unwrap();
        let mut cluster = CuccCluster::with_options(simd_cluster(4), RuntimeConfig::default());
        let (args, _) = setup_args(bench.as_ref(), &ck.kernel, &mut cluster).unwrap();
        let report = cluster.launch(&ck, bench.launch(), &args).unwrap();
        assert!(
            report.mode.is_three_phase(),
            "{} fell back to replication: {:?}",
            bench.name(),
            report.mode
        );
    }
}

#[test]
fn node_memories_fully_consistent_after_launch() {
    for bench in perf_suite(Scale::Test) {
        let ck = compile_source(&bench.source()).unwrap();
        let mut cluster = CuccCluster::with_options(simd_cluster(5), RuntimeConfig::default());
        let (args, _) = setup_args(bench.as_ref(), &ck.kernel, &mut cluster).unwrap();
        cluster.launch(&ck, bench.launch(), &args).unwrap();
        assert!(
            cluster.sim().fully_consistent(),
            "{}: node memories diverged",
            bench.name()
        );
    }
}

#[test]
fn callback_counts_match_partition_arithmetic() {
    // VecCopy at Listing-1 size on two nodes: Figure 5's exact partition.
    let bench = cucc::workloads::perf::VecCopy::new(Scale::Test);
    let ck = compile_source(&bench.source()).unwrap();
    let mut cluster = CuccCluster::with_options(simd_cluster(2), RuntimeConfig::default());
    let (args, _) = setup_args(&bench, &ck.kernel, &mut cluster).unwrap();
    let report = cluster.launch(&ck, bench.launch(), &args).unwrap();
    match report.mode {
        ExecMode::ThreePhase {
            partial_blocks_per_node,
            callback_blocks,
            ..
        } => {
            assert_eq!(partial_blocks_per_node, 2);
            assert_eq!(callback_blocks, 1);
        }
        other => panic!("unexpected mode {other:?}"),
    }
}

/// One buffer bound to both `in` and `out` of `out[i + 1] = in[i] + 1`:
/// every block reads what the block before it wrote, so the launch must
/// not be distributed. It replicates, naming both parameters, and memory is
/// the same ramp on 1 and 4 nodes under either engine.
#[test]
fn aliased_written_buffer_replicates() {
    let ck = compile_source(
        "__global__ void shift(float* in, float* out, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i + 1 < n) out[i + 1] = in[i] + 1.0f;
        }",
    )
    .unwrap();
    let n = 4096usize;
    let launch = LaunchConfig::cover1(n as u64, 256);
    let ramp: Vec<f32> = (0..n).map(|i| i as f32).collect();
    for engine in [EngineKind::TreeWalk, EngineKind::Lane] {
        for nodes in [1u32, 4] {
            let what = format!("{engine:?} on {nodes} node(s)");
            let config = RuntimeConfig::default().engine(engine);
            let mut cl = CuccCluster::with_options(simd_cluster(nodes), config);
            let buf = cl.alloc(n * 4);
            cl.upload(buf, &vec![0f32; n]).unwrap();
            let args = [Arg::Buffer(buf), Arg::Buffer(buf), Arg::int(n as i64)];
            let report = cl.launch(&ck, launch, &args).unwrap();
            match &report.mode {
                ExecMode::Replicated {
                    cause: ReplicationCause::Unproven(why),
                } => assert!(
                    why.contains("`out`") && why.contains("`in`"),
                    "{what}: {why}"
                ),
                other => panic!("{what}: {other:?}"),
            }
            assert_eq!(cl.download::<f32>(buf).unwrap(), ramp, "{what}");
        }
    }
}
