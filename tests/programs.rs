//! Whole-program migration tests: multi-kernel applications run through the
//! `GpuProgram` layer on all three backends (GPU reference, CuCC cluster,
//! PGAS baseline) and must produce identical outputs.

use cucc::cluster::ClusterSpec;
use cucc::core::{
    compile, split_blocks, ArgSpec, CuccCluster, GpuProgram, MigrateError, ProgramBackend,
    RuntimeConfig,
};
use cucc::exec::BufferId;
use cucc::gpu_model::{GpuDevice, GpuSpec};
use cucc::ir::{parse_kernel, LaunchConfig};
use cucc::pgas::{PgasCluster, PgasConfig};
use cucc::trace::{Category, Track};

/// A three-stage image-ish pipeline: brighten → blur(1D) → threshold count
/// per block. Exercises distributed buffers flowing between kernels.
fn pipeline(n: usize) -> GpuProgram {
    let data: Vec<u8> = (0..n).map(|i| ((i * 37) % 251) as u8).collect();
    GpuProgram::builder("image_pipeline")
        .kernel_source(
            "__global__ void brighten(uchar* in, uchar* out, int n, int add) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n)
                    out[id] = min(in[id] + add, 255);
            }",
        )
        .unwrap()
        .kernel_source(
            "__global__ void blur(uchar* in, uchar* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id > 0 && id < n - 1)
                    out[id] = (in[id - 1] + in[id] + in[id + 1]) / 3;
            }",
        )
        .unwrap()
        .kernel_source(
            "__global__ void count_bright(uchar* img, int* counts, int n, int thr) {
                __shared__ int partial[256];
                int tid = threadIdx.x;
                int id = blockIdx.x * blockDim.x + tid;
                int is = 0;
                if (id < n && img[id] > thr)
                    is = 1;
                partial[tid] = is;
                __syncthreads();
                if (tid == 0) {
                    int total = 0;
                    for (int t = 0; t < blockDim.x; t++)
                        total += partial[t];
                    counts[blockIdx.x] = total;
                }
            }",
        )
        .unwrap()
        .alloc("raw", n)
        .alloc("bright", n)
        .alloc("smooth", n)
        .alloc("counts", n.div_ceil(256) * 4)
        .h2d("raw", data)
        .launch(
            "brighten",
            LaunchConfig::cover1(n as u64, 256),
            vec![
                ArgSpec::Buffer("raw".into()),
                ArgSpec::Buffer("bright".into()),
                ArgSpec::Int(n as i64),
                ArgSpec::Int(40),
            ],
        )
        .launch(
            "blur",
            LaunchConfig::cover1(n as u64, 256),
            vec![
                ArgSpec::Buffer("bright".into()),
                ArgSpec::Buffer("smooth".into()),
                ArgSpec::Int(n as i64),
            ],
        )
        .launch(
            "count_bright",
            LaunchConfig::cover1(n as u64, 256),
            vec![
                ArgSpec::Buffer("smooth".into()),
                ArgSpec::Buffer("counts".into()),
                ArgSpec::Int(n as i64),
                ArgSpec::Int(128),
            ],
        )
        .d2h("smooth")
        .d2h("counts")
        .build()
}

#[test]
fn pipeline_identical_on_all_backends() {
    let prog = pipeline(4000);

    let mut gpu = GpuDevice::new(GpuSpec::a100());
    let gres = prog.run_with(&mut gpu).unwrap();
    assert_eq!(gres.launches, 3);

    for nodes in [1u32, 2, 4, 6] {
        let mut cucc = CuccCluster::with_options(
            ClusterSpec::simd_focused().with_nodes(nodes),
            RuntimeConfig::default(),
        );
        let cres = prog.run_with(&mut cucc).unwrap();
        assert_eq!(cres.outputs, gres.outputs, "CuCC {nodes} nodes");

        let mut pgas = PgasCluster::new(
            ClusterSpec::simd_focused().with_nodes(nodes),
            PgasConfig::default(),
        );
        let pres = prog.run_with(&mut pgas).unwrap();
        assert_eq!(pres.outputs, gres.outputs, "PGAS {nodes} nodes");
    }
}

/// A short payload and a buffer id that was never allocated are a typed
/// `Transfer` error on every backend, never a panic, and the refusals leave
/// the buffer usable.
#[test]
fn bad_transfer_is_an_error_not_a_panic() {
    let spec = || ClusterSpec::simd_focused().with_nodes(2);
    let backends: [(&str, Box<dyn ProgramBackend>); 3] = [
        (
            "cucc",
            Box::new(CuccCluster::with_options(spec(), RuntimeConfig::default())),
        ),
        ("gpu", Box::new(GpuDevice::new(GpuSpec::a100()))),
        (
            "pgas",
            Box::new(PgasCluster::new(spec(), PgasConfig::default())),
        ),
    ];
    for (name, mut b) in backends {
        let a = b.prog_alloc(16);
        let never = BufferId(a.0 + 1);
        let refused = |r: Result<(), MigrateError>| matches!(r, Err(MigrateError::Transfer(_)));
        assert!(refused(b.prog_h2d(a, &[0u8; 15])), "{name}: short upload");
        assert!(
            refused(b.prog_h2d(never, &[0u8; 16])),
            "{name}: upload to a never-allocated id"
        );
        assert!(
            matches!(b.prog_d2h(never), Err(MigrateError::Transfer(_))),
            "{name}: download of a never-allocated id"
        );
        b.prog_h2d(a, &[7u8; 16]).unwrap();
        assert_eq!(b.prog_d2h(a).unwrap(), vec![7u8; 16], "{name}");
    }
}

#[test]
fn pgas_program_reports_its_transfer_time() {
    let prog = pipeline(4000);
    for nodes in [2u32, 4] {
        let mut pgas = PgasCluster::new(
            ClusterSpec::simd_focused().with_nodes(nodes),
            PgasConfig::default(),
        );
        let res = prog.run_with(&mut pgas).unwrap();
        // The h2d broadcast reaches more than one rank, so it costs time.
        assert!(res.transfer_time > 0.0, "PGAS {nodes} nodes");
        let tl = pgas.timeline();
        assert_eq!(
            res.transfer_time,
            tl.time_in_on(Track::Host, Category::H2d) + tl.time_in_on(Track::Host, Category::D2h),
            "PGAS {nodes} nodes"
        );
    }
}

#[test]
fn blur_kernel_replicates_but_pipeline_stays_correct() {
    // `blur` is guarded by `id > 0 && id < n-1`: the leading conjunct is a
    // head-divergent condition, so the analysis rejects it (VariantGuard)
    // and the runtime must take the replicated path — transparently.
    let ck = cucc::core::compile_source(
        "__global__ void blur(uchar* in, uchar* out, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            if (id > 0 && id < n - 1)
                out[id] = (in[id - 1] + in[id] + in[id + 1]) / 3;
        }",
    )
    .unwrap();
    assert!(!ck.is_distributable());
}

#[test]
fn transpose_twice_is_identity_distributed() {
    let src = "__global__ void transpose(float* in, float* out, int n) {
        __shared__ float tile[1024];
        tile[threadIdx.y * 32 + threadIdx.x]
            = in[(blockIdx.x * 32 + threadIdx.y) * n + blockIdx.y * 32 + threadIdx.x];
        __syncthreads();
        out[(blockIdx.y * 32 + threadIdx.y) * n + blockIdx.x * 32 + threadIdx.x]
            = tile[threadIdx.x * 32 + threadIdx.y];
    }";
    let n = 128u32;
    let img: Vec<u8> = (0..(n * n * 4) as usize).map(|i| (i % 239) as u8).collect();
    let launch = LaunchConfig::new((n / 32, n / 32), (32u32, 32u32));
    let prog = GpuProgram::builder("double_transpose")
        .kernel_source(src)
        .unwrap()
        .alloc("a", img.len())
        .alloc("b", img.len())
        .alloc("c", img.len())
        .h2d("a", img.clone())
        .launch(
            "transpose",
            launch,
            vec![
                ArgSpec::Buffer("a".into()),
                ArgSpec::Buffer("b".into()),
                ArgSpec::Int(n as i64),
            ],
        )
        .launch(
            "transpose",
            launch,
            vec![
                ArgSpec::Buffer("b".into()),
                ArgSpec::Buffer("c".into()),
                ArgSpec::Int(n as i64),
            ],
        )
        .d2h("c")
        .build();
    let mut cl = CuccCluster::with_options(
        ClusterSpec::thread_focused().with_nodes(4),
        RuntimeConfig::default(),
    );
    let res = prog.run_with(&mut cl).unwrap();
    assert_eq!(res.outputs["c"], img, "(Mᵀ)ᵀ = M across a 4-node cluster");
}

#[test]
fn split_kernel_runs_distributed_and_matches() {
    // §8.3 block resizing, end-to-end: the split variant of saxpy runs the
    // three-phase workflow and matches the unsplit GPU result.
    let src = "__global__ void saxpy(float* x, float* y, float a, int n) {
        int id = blockIdx.x * blockDim.x + threadIdx.x;
        if (id < n) y[id] = a * x[id] + y[id];
    }";
    let n = 5000usize;
    let base_launch = LaunchConfig::cover1(n as u64, 256);
    let kernel = parse_kernel(src).unwrap();
    let (split, split_launch) = split_blocks(&kernel, base_launch, 4).unwrap();
    let ck_base = compile(kernel).unwrap();
    let ck_split = compile(split).unwrap();
    assert!(ck_split.is_distributable());

    let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.125).collect();
    let ys: Vec<f32> = (0..n).map(|i| (i % 97) as f32).collect();
    let args = |x, y| {
        use cucc::exec::Arg;
        [
            Arg::Buffer(x),
            Arg::Buffer(y),
            Arg::float(2.5),
            Arg::int(n as i64),
        ]
    };

    let mut gpu = GpuDevice::new(GpuSpec::v100());
    let gx = gpu.alloc(n * 4);
    let gy = gpu.alloc(n * 4);
    gpu.pool_mut().write_f32(gx, &xs);
    gpu.pool_mut().write_f32(gy, &ys);
    gpu.launch(&ck_base.kernel, base_launch, &args(gx, gy))
        .unwrap();
    let want = gpu.d2h(gy);

    let mut cl = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(8),
        RuntimeConfig::default(),
    );
    let cx = cl.alloc(n * 4);
    let cy = cl.alloc(n * 4);
    cl.upload(cx, &xs).unwrap();
    cl.upload(cy, &ys).unwrap();
    let report = cl.launch(&ck_split, split_launch, &args(cx, cy)).unwrap();
    assert!(report.mode.is_three_phase());
    assert_eq!(cl.download::<u8>(cy).unwrap(), want);
}
