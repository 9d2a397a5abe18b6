//! Whole-program migration: the end-to-end framework surface.
//!
//! The paper's CuCC is not a kernel tool but an **end-to-end framework**
//! that translates complete CUDA programs — host code with allocations,
//! transfers and (possibly many) kernel launches — into CPU cluster
//! executables (§5). [`GpuProgram`] models that host module: a named
//! sequence of [`HostOp`]s over named buffers and compiled kernels, and
//! [`GpuProgram::run_with`] executes it on any [`ProgramBackend`] — the
//! CuCC cluster, the GPU reference device, or the PGAS baseline — so whole
//! applications can be compared functionally and in simulated time.

use crate::compile::{compile_source, CompiledKernel};
use crate::error::MigrateError;
use crate::runtime::CuccCluster;
use crate::stream::StreamId;
use cucc_exec::{Arg, BufferId, MemPool};
use cucc_ir::{LaunchConfig, Value};
use cucc_trace::{Category, Timeline, Track};
use std::collections::BTreeMap;

/// A launch argument referring to program state by name.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgSpec {
    /// A named program buffer.
    Buffer(String),
    /// Integer scalar.
    Int(i64),
    /// Float scalar.
    Float(f64),
}

/// One host-side operation.
#[derive(Debug, Clone, PartialEq)]
pub enum HostOp {
    /// `cudaMalloc`: allocate a named zeroed buffer.
    Alloc { name: String, bytes: usize },
    /// `cudaMemcpy` host→device of the embedded data.
    H2d { buf: String, data: Vec<u8> },
    /// Kernel launch by kernel name.
    Launch {
        kernel: String,
        launch: LaunchConfig,
        args: Vec<ArgSpec>,
    },
    /// `cudaMemcpy` device→host: marks `buf` as a program output.
    D2h { buf: String },
}

/// A complete migratable GPU program.
#[derive(Debug, Clone)]
pub struct GpuProgram {
    /// Program name.
    pub name: String,
    /// Compiled kernels, looked up by kernel name at launch ops.
    pub kernels: Vec<CompiledKernel>,
    /// Host operation sequence.
    pub ops: Vec<HostOp>,
}

/// Result of running a program on a backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramResult {
    /// Final contents of every buffer read back with [`HostOp::D2h`],
    /// keyed by buffer name (later reads overwrite earlier ones).
    pub outputs: BTreeMap<String, Vec<u8>>,
    /// Total simulated kernel time (host transfers excluded, matching the
    /// paper's kernel-execution-time measurements).
    pub kernel_time: f64,
    /// Simulated host-transfer time this run spent (h2d broadcasts plus
    /// d2h reads), derived from the backend's timeline so whole-program
    /// comparisons don't silently drop transfer cost. Zero on backends
    /// without a transfer-time model.
    pub transfer_time: f64,
    /// Number of kernel launches executed.
    pub launches: usize,
}

/// Anything a [`GpuProgram`] can run on.
pub trait ProgramBackend {
    /// Allocate zeroed device memory.
    fn prog_alloc(&mut self, bytes: usize) -> BufferId;
    /// Host→device copy of a whole buffer.
    fn prog_h2d(&mut self, buf: BufferId, data: &[u8]) -> Result<(), MigrateError>;
    /// Device→host copy of a whole buffer.
    fn prog_d2h(&mut self, buf: BufferId) -> Result<Vec<u8>, MigrateError>;
    /// Launch a compiled kernel; returns simulated kernel seconds.
    fn prog_launch(
        &mut self,
        kernel: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<f64, MigrateError>;
    /// Cumulative simulated host-transfer seconds (h2d + d2h) so far.
    /// Backends without a transfer-time model report zero.
    fn prog_transfer_time(&self) -> f64 {
        0.0
    }
}

impl ProgramBackend for CuccCluster {
    fn prog_alloc(&mut self, bytes: usize) -> BufferId {
        self.alloc(bytes)
    }
    fn prog_h2d(&mut self, buf: BufferId, data: &[u8]) -> Result<(), MigrateError> {
        self.upload(buf, data)
    }
    fn prog_d2h(&mut self, buf: BufferId) -> Result<Vec<u8>, MigrateError> {
        self.download::<u8>(buf)
    }
    fn prog_launch(
        &mut self,
        kernel: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<f64, MigrateError> {
        Ok(self.launch(kernel, launch, args)?.time())
    }
    fn prog_transfer_time(&self) -> f64 {
        host_transfer_time(self.timeline())
    }
}

/// Check a whole-buffer transfer against a backend's one device pool, as
/// the [`ProgramBackend`] impls that hold one (the GPU reference device,
/// the PGAS baseline) do before copying: `buf` must name an allocation, and
/// an upload's payload (`Some(bytes)`) must fill it. A refusal is
/// [`MigrateError::Transfer`], as on [`CuccCluster`], never a panic.
pub fn check_transfer(
    pool: &MemPool,
    buf: BufferId,
    upload: Option<usize>,
) -> Result<(), MigrateError> {
    let op = if upload.is_some() {
        "upload"
    } else {
        "download"
    };
    if buf.index() >= pool.len() {
        return Err(MigrateError::Transfer(format!(
            "{op}: buffer id {} was never allocated",
            buf.index()
        )));
    }
    let size = pool.size_of(buf);
    match upload {
        Some(n) if n != size => Err(MigrateError::Transfer(format!(
            "upload: {n} bytes do not fill buffer id {} ({size} bytes)",
            buf.index()
        ))),
        _ => Ok(()),
    }
}

/// Simulated seconds a timeline spent in host transfers: the h2d and d2h
/// spans on its host track. What a cluster backend's
/// [`ProgramBackend::prog_transfer_time`] reports.
pub fn host_transfer_time(timeline: &Timeline) -> f64 {
    timeline.time_in_on(Track::Host, Category::H2d)
        + timeline.time_in_on(Track::Host, Category::D2h)
}

impl GpuProgram {
    /// Start building a program.
    pub fn builder(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            program: GpuProgram {
                name: name.into(),
                kernels: Vec::new(),
                ops: Vec::new(),
            },
        }
    }

    /// Look a kernel up by name.
    pub fn kernel(&self, name: &str) -> Option<&CompiledKernel> {
        self.kernels.iter().find(|k| k.name() == name)
    }

    /// Execute on a backend: resolve names to buffers, kernels and
    /// arguments, and issue each op through `backend`.
    pub fn run_with<B: ProgramBackend>(
        &self,
        backend: &mut B,
    ) -> Result<ProgramResult, MigrateError> {
        // Name → (buffer, allocated bytes).
        let mut buffers: BTreeMap<String, (BufferId, usize)> = BTreeMap::new();
        let lookup = |buffers: &BTreeMap<String, (BufferId, usize)>, name: &str, what: &str| {
            buffers
                .get(name)
                .copied()
                .ok_or_else(|| MigrateError::Launch(format!("{what}unknown buffer `{name}`")))
        };
        let transfers_before = backend.prog_transfer_time();
        let mut result = ProgramResult {
            outputs: BTreeMap::new(),
            kernel_time: 0.0,
            transfer_time: 0.0,
            launches: 0,
        };
        for op in &self.ops {
            match op {
                HostOp::Alloc { name, bytes } => {
                    if buffers.contains_key(name) {
                        return Err(MigrateError::Launch(format!(
                            "buffer `{name}` allocated twice"
                        )));
                    }
                    buffers.insert(name.clone(), (backend.prog_alloc(*bytes), *bytes));
                }
                HostOp::H2d { buf, data } => {
                    let (id, bytes) = lookup(&buffers, buf, "h2d to ")?;
                    // The GPU and PGAS backends take whole-buffer copies and
                    // cannot report a bad one: reject it here.
                    if data.len() != bytes {
                        return Err(MigrateError::Transfer(format!(
                            "h2d of {} bytes does not fill buffer `{buf}` ({bytes} bytes)",
                            data.len()
                        )));
                    }
                    backend.prog_h2d(id, data)?;
                }
                HostOp::Launch {
                    kernel,
                    launch,
                    args,
                } => {
                    let ck = self.kernel(kernel).ok_or_else(|| {
                        MigrateError::Launch(format!("unknown kernel `{kernel}`"))
                    })?;
                    let mut resolved = Vec::with_capacity(args.len());
                    for a in args {
                        resolved.push(match a {
                            ArgSpec::Buffer(name) => Arg::Buffer(lookup(&buffers, name, "")?.0),
                            ArgSpec::Int(v) => Arg::Scalar(Value::I64(*v)),
                            ArgSpec::Float(v) => Arg::Scalar(Value::F64(*v)),
                        });
                    }
                    result.kernel_time += backend.prog_launch(ck, *launch, &resolved)?;
                    result.launches += 1;
                }
                HostOp::D2h { buf } => {
                    let (id, _) = lookup(&buffers, buf, "d2h from ")?;
                    result.outputs.insert(buf.clone(), backend.prog_d2h(id)?);
                }
            }
        }
        result.transfer_time = backend.prog_transfer_time() - transfers_before;
        Ok(result)
    }

    /// Execute on a [`CuccCluster`] through the async command-queue API,
    /// spreading independent op chains over up to `max_streams` streams.
    ///
    /// Dependencies are auto-derived from the buffers ops touch: an op lands
    /// on the stream of the first already-assigned buffer it touches
    /// (keeping each producer→consumer chain on one stream), and an op
    /// touching only fresh buffers starts the next chain, round-robin over
    /// lazily created streams. Cross-chain conflicts this assignment misses
    /// are still caught by the runtime's RAW/WAW/WAR hazard tracker, so
    /// outputs are byte-identical to [`GpuProgram::run_with`] for every
    /// assignment — only the simulated elapsed time changes.
    ///
    /// The cluster is synchronized before returning; `cl.clock()` then
    /// reflects the overlapped end-to-end time.
    pub fn run_streams_with(
        &self,
        cl: &mut CuccCluster,
        max_streams: usize,
    ) -> Result<ProgramResult, MigrateError> {
        let mut streamed = Streamed {
            cl,
            max_streams: max_streams.max(1),
            stream_of: BTreeMap::new(),
            streams: Vec::new(),
            next: 0,
        };
        let result = self.run_with(&mut streamed)?;
        streamed.cl.synchronize()?;
        Ok(result)
    }
}

/// The backend behind [`GpuProgram::run_streams_with`]: a cluster driven
/// through its async API, each op on the stream of the buffers it touches.
struct Streamed<'a> {
    cl: &'a mut CuccCluster,
    max_streams: usize,
    stream_of: BTreeMap<BufferId, StreamId>,
    streams: Vec<StreamId>,
    next: usize,
}

impl Streamed<'_> {
    /// The stream for an op touching `touched`, which join its chain.
    fn pick(&mut self, touched: impl Iterator<Item = BufferId> + Clone) -> StreamId {
        let assigned = touched
            .clone()
            .find_map(|b| self.stream_of.get(&b).copied());
        let s = assigned.unwrap_or_else(|| {
            if self.streams.len() < self.max_streams {
                self.streams.push(self.cl.stream_create());
            }
            let s = self.streams[self.next % self.streams.len()];
            self.next += 1;
            s
        });
        for b in touched {
            self.stream_of.entry(b).or_insert(s);
        }
        s
    }
}

impl ProgramBackend for Streamed<'_> {
    fn prog_alloc(&mut self, bytes: usize) -> BufferId {
        self.cl.alloc(bytes)
    }
    fn prog_h2d(&mut self, buf: BufferId, data: &[u8]) -> Result<(), MigrateError> {
        let s = self.pick([buf].into_iter());
        self.cl.upload_on(buf, data, s)
    }
    fn prog_d2h(&mut self, buf: BufferId) -> Result<Vec<u8>, MigrateError> {
        let s = self.pick([buf].into_iter());
        self.cl.download_on::<u8>(buf, s)
    }
    fn prog_launch(
        &mut self,
        kernel: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<f64, MigrateError> {
        let s = self.pick(args.iter().filter_map(|a| match a {
            Arg::Buffer(b) => Some(*b),
            Arg::Scalar(_) => None,
        }));
        Ok(self.cl.launch_on(kernel, launch, args, s)?.time())
    }
    fn prog_transfer_time(&self) -> f64 {
        self.cl.prog_transfer_time()
    }
}

/// Fluent construction of [`GpuProgram`]s.
#[derive(Debug)]
pub struct ProgramBuilder {
    program: GpuProgram,
}

impl ProgramBuilder {
    /// Compile and register a kernel from mini-CUDA source.
    pub fn kernel_source(mut self, src: &str) -> Result<ProgramBuilder, MigrateError> {
        let ck = compile_source(src)?;
        if self.program.kernel(ck.name()).is_some() {
            return Err(MigrateError::Launch(format!(
                "duplicate kernel `{}`",
                ck.name()
            )));
        }
        self.program.kernels.push(ck);
        Ok(self)
    }

    /// Register an already-compiled kernel.
    pub fn kernel(mut self, ck: CompiledKernel) -> ProgramBuilder {
        self.program.kernels.push(ck);
        self
    }

    /// Allocate a named buffer.
    pub fn alloc(mut self, name: impl Into<String>, bytes: usize) -> ProgramBuilder {
        self.program.ops.push(HostOp::Alloc {
            name: name.into(),
            bytes,
        });
        self
    }

    /// Upload data to a named buffer.
    pub fn h2d(mut self, buf: impl Into<String>, data: Vec<u8>) -> ProgramBuilder {
        self.program.ops.push(HostOp::H2d {
            buf: buf.into(),
            data,
        });
        self
    }

    /// Launch a registered kernel.
    pub fn launch(
        mut self,
        kernel: impl Into<String>,
        launch: LaunchConfig,
        args: Vec<ArgSpec>,
    ) -> ProgramBuilder {
        self.program.ops.push(HostOp::Launch {
            kernel: kernel.into(),
            launch,
            args,
        });
        self
    }

    /// Read a buffer back as a program output.
    pub fn d2h(mut self, buf: impl Into<String>) -> ProgramBuilder {
        self.program.ops.push(HostOp::D2h { buf: buf.into() });
        self
    }

    /// Finish building.
    pub fn build(self) -> GpuProgram {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use cucc_cluster::ClusterSpec;

    fn pipeline_program() -> GpuProgram {
        // Two-kernel pipeline: scale, then prefix-free square — the second
        // kernel consumes the first one's distributed output, so the
        // Allgather between launches is load-bearing.
        GpuProgram::builder("pipeline")
            .kernel_source(
                "__global__ void scale(float* x, float* y, float a, int n) {
                    int id = blockIdx.x * blockDim.x + threadIdx.x;
                    if (id < n) y[id] = x[id] * a;
                }",
            )
            .unwrap()
            .kernel_source(
                "__global__ void square(float* y, float* z, int n) {
                    int id = blockIdx.x * blockDim.x + threadIdx.x;
                    if (id < n) z[id] = y[id] * y[id];
                }",
            )
            .unwrap()
            .alloc("x", 1000 * 4)
            .alloc("y", 1000 * 4)
            .alloc("z", 1000 * 4)
            .h2d(
                "x",
                (0..1000u32)
                    .flat_map(|i| (i as f32 * 0.5).to_le_bytes())
                    .collect(),
            )
            .launch(
                "scale",
                LaunchConfig::cover1(1000, 128),
                vec![
                    ArgSpec::Buffer("x".into()),
                    ArgSpec::Buffer("y".into()),
                    ArgSpec::Float(2.0),
                    ArgSpec::Int(1000),
                ],
            )
            .launch(
                "square",
                LaunchConfig::cover1(1000, 128),
                vec![
                    ArgSpec::Buffer("y".into()),
                    ArgSpec::Buffer("z".into()),
                    ArgSpec::Int(1000),
                ],
            )
            .d2h("z")
            .build()
    }

    #[test]
    fn pipeline_runs_on_cucc_cluster() {
        let prog = pipeline_program();
        let mut cl = CuccCluster::with_options(
            ClusterSpec::simd_focused().with_nodes(4),
            RuntimeConfig::default(),
        );
        let res = prog.run_with(&mut cl).unwrap();
        assert_eq!(res.launches, 2);
        assert!(res.kernel_time > 0.0);
        let z: Vec<f32> = res.outputs["z"]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        for (i, v) in z.iter().enumerate() {
            let want = (i as f32) * (i as f32); // (i·0.5·2)²
            assert_eq!(*v, want, "z[{i}]");
        }
    }

    #[test]
    fn result_reports_transfer_time() {
        let prog = pipeline_program();
        let mut cl = CuccCluster::with_options(
            ClusterSpec::simd_focused().with_nodes(4),
            RuntimeConfig::default(),
        );
        let res = prog.run_with(&mut cl).unwrap();
        // Multi-node h2d broadcasts cost simulated time; d2h is free but
        // recorded. The derived transfer time must show up in the result.
        assert!(res.transfer_time > 0.0);
        let tl = cl.timeline();
        assert_eq!(
            res.transfer_time,
            tl.time_in_on(cucc_trace::Track::Host, cucc_trace::Category::H2d)
                + tl.time_in_on(cucc_trace::Track::Host, cucc_trace::Category::D2h)
        );
    }

    #[test]
    fn streamed_run_matches_serial_outputs() {
        let prog = pipeline_program();
        let spec = ClusterSpec::simd_focused().with_nodes(4);
        let mut serial = CuccCluster::with_options(spec.clone(), RuntimeConfig::default());
        let res_serial = prog.run_with(&mut serial).unwrap();
        for max_streams in [1usize, 2, 4] {
            let mut cl = CuccCluster::with_options(spec.clone(), RuntimeConfig::default());
            let res = prog.run_streams_with(&mut cl, max_streams).unwrap();
            assert_eq!(res.outputs, res_serial.outputs, "streams={max_streams}");
            assert_eq!(res.launches, res_serial.launches);
            // Whatever the stream assignment, hazards keep the overlapped
            // layout no slower than... never slower than serial.
            assert!(
                cl.clock() <= serial.clock() * (1.0 + 1e-12),
                "streams={max_streams}: {} > {}",
                cl.clock(),
                serial.clock()
            );
        }
    }

    #[test]
    fn independent_chains_overlap_under_streams() {
        // Two completely independent scale chains: with two streams the
        // second chain's h2d hides under the first chain's kernel.
        let n = 20_000u32;
        let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let mut b = GpuProgram::builder("indep")
            .kernel_source(
                "__global__ void scale(float* x, float* y, float a, int n) {
                    int id = blockIdx.x * blockDim.x + threadIdx.x;
                    if (id < n) y[id] = x[id] * a;
                }",
            )
            .unwrap();
        for chain in ["a", "b"] {
            b = b
                .alloc(format!("x_{chain}"), n as usize * 4)
                .alloc(format!("y_{chain}"), n as usize * 4)
                .h2d(format!("x_{chain}"), data.clone())
                .launch(
                    "scale",
                    LaunchConfig::cover1(n as u64, 256),
                    vec![
                        ArgSpec::Buffer(format!("x_{chain}")),
                        ArgSpec::Buffer(format!("y_{chain}")),
                        ArgSpec::Float(3.0),
                        ArgSpec::Int(n as i64),
                    ],
                )
                .d2h(format!("y_{chain}"));
        }
        let prog = b.build();
        let spec = ClusterSpec::simd_focused().with_nodes(4);
        let mut serial = CuccCluster::with_options(spec.clone(), RuntimeConfig::default());
        let mut streamed = CuccCluster::with_options(spec, RuntimeConfig::default());
        let res_serial = prog.run_with(&mut serial).unwrap();
        let res = prog.run_streams_with(&mut streamed, 2).unwrap();
        assert_eq!(res.outputs, res_serial.outputs);
        assert!(
            streamed.clock() < serial.clock(),
            "expected overlap: {} !< {}",
            streamed.clock(),
            serial.clock()
        );
    }

    #[test]
    fn unknown_names_rejected() {
        let prog = GpuProgram::builder("bad")
            .alloc("a", 16)
            .d2h("missing")
            .build();
        let mut cl = CuccCluster::with_options(
            ClusterSpec::simd_focused().with_nodes(1),
            RuntimeConfig::default(),
        );
        assert!(matches!(
            prog.run_with(&mut cl),
            Err(MigrateError::Launch(_))
        ));
        // A mis-sized h2d is a typed error on both doors (the direct one
        // used to panic inside the backend).
        let prog = GpuProgram::builder("short")
            .alloc("a", 16)
            .h2d("a", vec![0u8; 15])
            .build();
        assert!(matches!(
            prog.run_with(&mut cl),
            Err(MigrateError::Transfer(_))
        ));
        assert!(matches!(
            prog.run_streams_with(&mut cl, 2),
            Err(MigrateError::Transfer(_))
        ));
    }

    #[test]
    fn duplicate_alloc_rejected() {
        let prog = GpuProgram::builder("dup")
            .alloc("a", 16)
            .alloc("a", 16)
            .build();
        let mut cl = CuccCluster::with_options(
            ClusterSpec::simd_focused().with_nodes(1),
            RuntimeConfig::default(),
        );
        assert!(prog.run_with(&mut cl).is_err());
    }

    #[test]
    fn duplicate_kernel_rejected() {
        let src = "__global__ void k(int* o) { o[threadIdx.x] = 1; }";
        let b = GpuProgram::builder("dupk").kernel_source(src).unwrap();
        assert!(b.kernel_source(src).is_err());
    }
}
