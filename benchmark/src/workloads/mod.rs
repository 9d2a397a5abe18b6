//! The six workloads. Each one owns its seeded inputs and independent
//! references (built once by its constructor — harness time, not program
//! time) and drives the program through public functions only.

mod ckpt_cycle;
mod graph_replay;
mod migrate_cold;
mod serve_stream;
mod steady;

use crate::inputs::{f32_bytes, i32_bytes, Rng};
use crate::spans::Tracer;
use cucc::cluster::ClusterSpec;
use cucc::core::CuccCluster;
use cucc::exec::{Arg, BufferId, EngineKind};
use cucc::ir::{Kernel, LaunchConfig, Param, Scalar, Value};
use cucc::workloads::{buffers_close, Benchmark};

/// The simulated-clock results of one op. They are the paper's numbers:
/// every repetition of the same inputs must reproduce them, whatever the
/// host does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exact {
    /// Simulated seconds the op took.
    pub sim_time: f64,
    /// Simulated bytes on the wire.
    pub sim_wire: u64,
    /// Hash of every other report field that must repeat exactly.
    pub fingerprint: u64,
}

/// Hash a report's `Debug` text: floats print round-trip exact, so two
/// reports hash equal only if every field is bit-identical.
pub fn fingerprint(report: &impl std::fmt::Debug) -> u64 {
    crate::inputs::fnv1a(crate::inputs::FNV_BASIS, format!("{report:?}").as_bytes())
}

/// One benchmark workload, as the driver in `run.rs` sees it.
pub trait Workload {
    /// Everything the program does before the first op: cluster
    /// construction, compilation of resident kernels, uploads, graph
    /// capture. Replaces any earlier state. Timed as part of `setup_s`.
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String>;

    /// Harness work before an op that the op must not be charged for
    /// (clearing output buffers so a launch that writes nothing is caught).
    fn before_op(&mut self, _i: u64) -> Result<(), String> {
        Ok(())
    }

    /// The timed op. `i` counts ops from 0; `i % variants()` selects the
    /// input variant.
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String>;

    /// Untimed: check the op's output against the independent reference
    /// and hand back its simulated-clock results.
    fn verify(&mut self, i: u64) -> Result<Exact, String>;

    /// Traced pass only: call the layers below the op's composite calls
    /// on the same inputs (on clones where a call mutates), each inside a
    /// span named after the per-layer metric it feeds.
    fn probe(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String>;

    /// Number of distinct input variants ops cycle through.
    fn variants(&self) -> u64 {
        1
    }

    /// Fixed parameters, recorded with every result.
    fn conditions(&self) -> Vec<(&'static str, String)>;
}

/// Build the workload `name` with inputs derived from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "migrate_cold" => Box::new(migrate_cold::MigrateCold::new(seed)),
        "steady_dense" => Box::new(steady::Steady::dense(seed)),
        "steady_tiled" => Box::new(steady::Steady::tiled(seed)),
        "graph_replay" => Box::new(graph_replay::GraphReplay::new(seed)),
        "serve_stream" => Box::new(serve_stream::ServeStream::new(seed)),
        "ckpt_cycle" => Box::new(ckpt_cycle::CkptCycle::new(seed)),
        _ => return None,
    })
}

/// The cluster every workload runs on, at `nodes` nodes.
pub fn cluster_spec(nodes: u32) -> ClusterSpec {
    ClusterSpec::simd_focused().with_nodes(nodes)
}

/// Engines are chosen by their CLI spelling, which ROADMAP item 3 keeps
/// as aliases when the tiers collapse.
pub fn engine(spelling: &str) -> EngineKind {
    EngineKind::parse(spelling).expect("known engine spelling")
}

/// One kernel with its launch, its initial buffer contents and the
/// expected contents after one launch — plain data, so nothing is
/// generated inside a timed op.
#[derive(Debug, Clone)]
pub struct KernelCase {
    pub name: String,
    pub source: String,
    pub launch: LaunchConfig,
    /// Initial contents, in buffer-parameter order.
    pub buffers: Vec<Vec<u8>>,
    /// Scalar arguments, in scalar-parameter order.
    pub scalars: Vec<Value>,
    /// Contents after one launch, in buffer-parameter order.
    pub expected: Vec<Vec<u8>>,
    /// Element type for a tolerant comparison (`None`: exact bytes).
    pub elem: Option<Scalar>,
    pub tolerance: f64,
}

impl KernelCase {
    /// A perf-suite program with the library's own data, reference and
    /// tolerance.
    pub fn from_suite(b: &dyn Benchmark) -> KernelCase {
        KernelCase {
            name: b.name().to_string(),
            source: b.source(),
            launch: b.launch(),
            buffers: b.buffers(),
            scalars: b.scalars(),
            expected: b.reference(),
            elem: b.compare_elem(),
            tolerance: b.tolerance(),
        }
    }

    /// Guarded out-of-place `y = a·x + b` over `n` floats. The guard puts
    /// it on the lane engine's predicated path; it is memory-bound.
    pub fn vec_affine(n: usize, rng: &mut Rng) -> KernelCase {
        let (a, b) = (1.5f32, -0.25f32);
        let x = rng.f32s(n, -4.0, 4.0);
        // The interpreter carries floats as f64 and rounds at stores.
        let y: Vec<f32> = x
            .iter()
            .map(|&v| (a as f64 * v as f64 + b as f64) as f32)
            .collect();
        KernelCase {
            name: "vec_affine".into(),
            source: "__global__ void vec_affine(float* x, float* y, float a, float b, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) y[id] = a * x[id] + b;
            }"
            .into(),
            launch: LaunchConfig::cover1(n as u64, 256),
            buffers: vec![f32_bytes(&x), vec![0u8; n * 4]],
            scalars: vec![
                Value::F64(a as f64),
                Value::F64(b as f64),
                Value::I64(n as i64),
            ],
            expected: vec![f32_bytes(&x), f32_bytes(&y)],
            elem: None,
            tolerance: 0.0,
        }
    }

    /// The perf suite's tiled transpose (1024-thread blocks, shared tile,
    /// one barrier) on a seeded `n`×`n` matrix.
    pub fn transpose(n: usize, rng: &mut Rng) -> KernelCase {
        let suite = cucc::workloads::perf::Transpose { n };
        let input = rng.f32s(n * n, -1.0, 1.0);
        let mut out = vec![0f32; n * n];
        for r in 0..n {
            for c in 0..n {
                out[r * n + c] = input[c * n + r];
            }
        }
        KernelCase {
            name: "transpose".into(),
            source: suite.source(),
            launch: suite.launch(),
            buffers: vec![f32_bytes(&input), vec![0u8; n * n * 4]],
            scalars: suite.scalars(),
            expected: vec![f32_bytes(&input), f32_bytes(&out)],
            elem: None,
            tolerance: 0.0,
        }
    }

    /// The perf suite's gene-alignment kernel (barrier, block reduction
    /// through shared memory) on a seeded target and query.
    pub fn ga(suite: cucc::workloads::perf::Ga, rng: &mut Rng) -> KernelCase {
        let len = suite.blocks * suite.threads * suite.seg + suite.qlen;
        let target = rng.bytes_below(len, 4);
        let query = rng.bytes_below(suite.qlen, 4);
        let matches: Vec<i32> = (0..suite.blocks)
            .map(|b| {
                let first = b * suite.threads * suite.seg;
                (first..first + suite.threads * suite.seg)
                    .filter(|&i| target[i..i + suite.qlen] == query[..])
                    .count() as i32
            })
            .collect();
        KernelCase {
            name: "ga".into(),
            source: suite.source(),
            launch: suite.launch(),
            buffers: vec![target.clone(), query.clone(), vec![0u8; suite.blocks * 4]],
            scalars: suite.scalars(),
            expected: vec![target, query, i32_bytes(&matches)],
            elem: None,
            tolerance: 0.0,
        }
    }

    /// Buffers the launch changes (their expected contents differ from
    /// the initial ones).
    pub fn outputs(&self) -> Vec<usize> {
        (0..self.buffers.len())
            .filter(|&i| self.buffers[i] != self.expected[i])
            .collect()
    }

    /// Allocate this case's buffers on `cluster`; returns the launch
    /// arguments in parameter order and the buffer handles.
    pub fn alloc(&self, cluster: &mut CuccCluster, kernel: &Kernel) -> (Vec<Arg>, Vec<BufferId>) {
        let mut args = Vec::with_capacity(kernel.params.len());
        let mut handles = Vec::new();
        let mut scalars = self.scalars.iter();
        for p in &kernel.params {
            match p {
                Param::Buffer { .. } => {
                    let id = cluster.alloc(self.buffers[handles.len()].len());
                    handles.push(id);
                    args.push(Arg::Buffer(id));
                }
                Param::Scalar { .. } => {
                    args.push(Arg::Scalar(*scalars.next().expect("one value per scalar")));
                }
            }
        }
        (args, handles)
    }

    /// Upload the initial contents of every buffer.
    pub fn upload(&self, cluster: &mut CuccCluster, handles: &[BufferId]) -> Result<(), String> {
        for (id, data) in handles.iter().zip(&self.buffers) {
            cluster.upload::<u8>(*id, data).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Overwrite the buffers `outputs` (see [`KernelCase::outputs`]) with
    /// their initial contents.
    pub fn clear_outputs(
        &self,
        outputs: &[usize],
        cluster: &mut CuccCluster,
        handles: &[BufferId],
    ) -> Result<(), String> {
        for &i in outputs {
            cluster
                .upload::<u8>(handles[i], &self.buffers[i])
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Compare downloaded contents (buffer-parameter order) with the
    /// reference.
    pub fn check(&self, got: &[Vec<u8>]) -> Result<(), String> {
        for (i, (g, want)) in got.iter().zip(&self.expected).enumerate() {
            buffers_close(g, want, self.elem, self.tolerance)
                .map_err(|e| format!("{}: buffer {i}: {e}", self.name))?;
        }
        Ok(())
    }

    /// Download every buffer.
    pub fn download(
        &self,
        cluster: &mut CuccCluster,
        handles: &[BufferId],
    ) -> Result<Vec<Vec<u8>>, String> {
        handles
            .iter()
            .map(|id| cluster.download::<u8>(*id).map_err(|e| e.to_string()))
            .collect()
    }

    /// Total bytes of this case's buffers on one node.
    pub fn bytes(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }
}

/// `grid`×`block` as recorded in the conditions.
pub fn shape(launch: LaunchConfig) -> String {
    format!(
        "{} blocks x {} threads",
        launch.num_blocks(),
        launch.threads_per_block()
    )
}
