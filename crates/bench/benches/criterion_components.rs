//! Criterion microbenchmarks of the CuCC pipeline components: the mini-CUDA
//! front-end, the Allgather-distributable analysis, the instrumented
//! interpreter and the functional collectives. These measure *real* wall
//! time of the framework itself (not simulated time).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use cucc_analysis::{analyze, plan_launch};
use cucc_core::compile_source;
use cucc_exec::{execute_block, Arg, MemPool};
use cucc_ir::{parse_kernel, LaunchConfig};
use cucc_net::{AllgatherAlgo, AllgatherPlacement, GatherPlan, GatherSegment, NetModel};
use cucc_workloads::{perf::Kmeans, Benchmark, Scale};

const LISTING1: &str = "__global__ void vec_copy(char* src, char* dest, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) dest[id] = src[id];
}";

fn bench_frontend(c: &mut Criterion) {
    let kmeans_src = Kmeans::new(Scale::Test).source();
    c.bench_function("parse/listing1", |b| {
        b.iter(|| parse_kernel(std::hint::black_box(LISTING1)).unwrap())
    });
    c.bench_function("parse/kmeans", |b| {
        b.iter(|| parse_kernel(std::hint::black_box(&kmeans_src)).unwrap())
    });
}

fn bench_analysis(c: &mut Criterion) {
    let kernel = parse_kernel(&Kmeans::new(Scale::Test).source()).unwrap();
    c.bench_function("analysis/allgather_distributable+simd", |b| {
        b.iter(|| analyze(std::hint::black_box(&kernel)))
    });

    let ck = compile_source(LISTING1).unwrap();
    let mut pool = MemPool::new();
    let src = pool.alloc(65536);
    let dest = pool.alloc(65536);
    let args = vec![Arg::Buffer(src), Arg::Buffer(dest), Arg::int(65536)];
    let launch = LaunchConfig::cover1(65536, 256);
    c.bench_function("analysis/plan_launch(256_blocks)", |b| {
        b.iter(|| {
            plan_launch(
                &ck.kernel,
                std::hint::black_box(&ck.analysis.verdict),
                launch,
                &args,
                &pool,
            )
        })
    });
}

fn bench_interpreter(c: &mut Criterion) {
    let ck = compile_source(LISTING1).unwrap();
    let mut pool = MemPool::new();
    let src = pool.alloc(65536);
    let dest = pool.alloc(65536);
    let args = vec![Arg::Buffer(src), Arg::Buffer(dest), Arg::int(65536)];
    let launch = LaunchConfig::cover1(65536, 256);
    let mut g = c.benchmark_group("interpreter");
    g.throughput(Throughput::Elements(256));
    g.bench_function("vec_copy_block(256_threads)", |b| {
        b.iter(|| execute_block(&ck.kernel, launch, 0, &args, &mut pool).unwrap())
    });
    g.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let model = NetModel::infiniband_100g();
    let mut g = c.benchmark_group("allgather_functional");
    #[allow(clippy::single_element_loop)] // sweep list; add (nodes, unit) configs here
    for (nodes, unit) in [(8usize, 1usize << 17)] {
        let total = nodes * unit;
        let sizes = vec![unit as u64; nodes];
        let segments = GatherSegment::contiguous(&sizes);
        g.throughput(Throughput::Bytes((total * (nodes - 1)) as u64));
        g.bench_function(format!("ring/{nodes}x{}KiB", unit >> 10), |b| {
            b.iter_batched(
                || (0..nodes).map(|_| vec![0u8; total]).collect::<Vec<_>>(),
                |mut regions| {
                    let mut views: Vec<&mut [u8]> =
                        regions.iter_mut().map(|r| r.as_mut_slice()).collect();
                    // Plan and move, as `SimCluster::allgather_region` does.
                    let plan = GatherPlan::new(
                        &sizes,
                        &model,
                        AllgatherAlgo::Ring,
                        AllgatherPlacement::InPlace,
                    );
                    plan.apply(&mut views, &segments);
                    plan.cost()
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    use cucc_cluster::ClusterSpec;
    use cucc_core::{CuccCluster, RuntimeConfig};
    use cucc_workloads::setup_args;
    let bench = cucc_workloads::perf::VecCopy::new(Scale::Test);
    let ck = compile_source(&bench.source()).unwrap();
    c.bench_function("end_to_end/veccopy_2nodes_functional", |b| {
        b.iter(|| {
            let mut cl = CuccCluster::with_options(
                ClusterSpec::simd_focused().with_nodes(2),
                RuntimeConfig::default(),
            );
            let (args, _) = setup_args(&bench, &ck.kernel, &mut cl).unwrap();
            cl.launch(&ck, bench.launch(), &args).unwrap()
        })
    });
}

fn bench_transforms(c: &mut Criterion) {
    use cucc_core::split_blocks;
    use cucc_ir::optimize;
    let kmeans_src = Kmeans::new(Scale::Test).source();
    c.bench_function("optimize/kmeans", |b| {
        b.iter_batched(
            || parse_kernel(&kmeans_src).unwrap(),
            |mut k| optimize(&mut k),
            BatchSize::SmallInput,
        )
    });
    let saxpy = parse_kernel(LISTING1).unwrap();
    let launch = LaunchConfig::cover1(65536, 256);
    c.bench_function("split_blocks/x8", |b| {
        b.iter(|| split_blocks(std::hint::black_box(&saxpy), launch, 8).unwrap())
    });
}

fn bench_oracle(c: &mut Criterion) {
    use cucc_analysis::{plan_launch, verify_plan, Plan};
    let ck = compile_source(LISTING1).unwrap();
    let mut pool = MemPool::new();
    let src = pool.alloc(65536);
    let dest = pool.alloc(65536);
    let args = vec![Arg::Buffer(src), Arg::Buffer(dest), Arg::int(65536)];
    let launch = LaunchConfig::cover1(65536, 256);
    let Plan::ThreePhase(tp) = plan_launch(&ck.kernel, &ck.analysis.verdict, launch, &args, &pool)
    else {
        panic!("expected plan");
    };
    c.bench_function("oracle/verify_plan(256_blocks)", |b| {
        b.iter(|| verify_plan(&ck.kernel, launch, &args, &pool, &tp).unwrap())
    });
}

criterion_group!(
    benches,
    bench_frontend,
    bench_analysis,
    bench_interpreter,
    bench_collectives,
    bench_transforms,
    bench_oracle,
    bench_end_to_end
);
criterion_main!(benches);
