//! The CuCC cluster runtime: CUDA-like API over a simulated CPU cluster,
//! executing launches with the three-phase workflow.
//!
//! This module holds the handle, its configuration and the accessors;
//! the work is split along the seams of the runtime:
//!
//! * [`transfer`] — uploads and downloads: one `h2d` and one `d2h`, each
//!   on a [`Start`];
//! * [`launch`] — planning, the one launch function behind `launch`,
//!   `launch_on` and graph replay, report derivation and the consistency
//!   check;
//! * [`walk`] — the timing walk of one launch: three-phase with retry and
//!   re-partition, and the one replicated completion;
//! * [`replay`] — graph replay, gather elision and materialization;
//! * [`elastic`] — node joins, checkpoint and restore.

mod elastic;
mod launch;
mod replay;
mod transfer;
mod walk;

use crate::compile::CompiledKernel;
use crate::error::MigrateError;
use crate::graph::PendingGather;
use crate::schedule::ScheduleCache;
use crate::state::ClusterState;
use crate::stream::{EventId, StreamId, StreamSet};
use cucc_cluster::{ClusterSpec, SimCluster};
use cucc_exec::{Arg, BufferId, EngineKind};
use cucc_ir::LaunchConfig;
use cucc_net::{AllgatherAlgo, AllgatherPlacement, FaultInjector, FaultPlan, GatherPlan};
use cucc_trace::{Timeline, Track};
use std::collections::BTreeMap;

/// Whether launches execute functionally or are only timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionFidelity {
    /// Every block really executes on its node's memory; collectives really
    /// move bytes; results are exact. Use for correctness work.
    Functional,
    /// Only representative blocks are interpreted (sampled profile); memory
    /// is not updated. Use for paper-scale performance sweeps where full
    /// interpretation would be prohibitive.
    Modeled,
}

/// Runtime knobs — the one options type ([`crate::RunOptions`] is its
/// front-end name).
///
/// Construct through [`RuntimeConfig::builder`] and the chainable setters,
/// or from [`RuntimeConfig::default`] / [`RuntimeConfig::modeled`] plus
/// struct update.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Functional vs modeled execution.
    pub fidelity: ExecutionFidelity,
    /// Allgather algorithm (paper uses ring-style MPI allgather).
    pub allgather_algo: AllgatherAlgo,
    /// Buffer placement (§2.3: CuCC uses balanced **in-place**).
    pub placement: AllgatherPlacement,
    /// Blocks sampled per profile.
    pub profile_samples: usize,
    /// Which executor runs functional blocks (the compiled lane engine by
    /// default; the tree-walk interpreter remains available as the oracle).
    pub engine: EngineKind,
    /// Worker threads per node for intra-node block parallelism
    /// (`0` = derive from host parallelism and the node's core count).
    pub node_threads: usize,
    /// Run the dynamic kernel sanitizer (per-buffer write log + OOB trap)
    /// before every functional launch and cross-check its observations
    /// against the static verifier's verdicts. Purely observational except
    /// that a soundness violation (sanitizer sees a race/OOB the verifier
    /// proved safe) fails the launch. Ignored in modeled fidelity.
    pub sanitize: bool,
    /// Deterministic fault plan: scripted node kills, stragglers, and
    /// dropped collective steps, plus the retry policy used to detect
    /// them. Every launch walks the same fault-aware executor; under
    /// [`FaultPlan::none`] (the default) no event ever fires, so stretches
    /// return their input, collectives never retry, and reports reproduce
    /// the pre-fault arithmetic bit-for-bit.
    pub faults: FaultPlan,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            fidelity: ExecutionFidelity::Functional,
            allgather_algo: AllgatherAlgo::Ring,
            placement: AllgatherPlacement::InPlace,
            profile_samples: 3,
            engine: EngineKind::default(),
            node_threads: 0,
            sanitize: false,
            faults: FaultPlan::none(),
        }
    }
}

impl RuntimeConfig {
    /// Timing-only configuration for performance sweeps.
    pub fn modeled() -> RuntimeConfig {
        RuntimeConfig {
            fidelity: ExecutionFidelity::Modeled,
            ..RuntimeConfig::default()
        }
    }
}

/// What one launch runs — the kernel, its geometry and its arguments: the
/// triple every step of the launch path needs together.
#[derive(Clone, Copy)]
struct Call<'a> {
    ck: &'a CompiledKernel,
    launch: LaunchConfig,
    args: &'a [Arg],
}

/// Where an op starts and how time moves past it (DESIGN.md §5.2).
#[derive(Clone, Copy)]
enum Start {
    /// At the clock, after pending stream work drains; the clock moves past the op.
    Clock,
    /// At the stream's position, its hazard floors and the ready times of the lanes
    /// the op occupies; the stream records the op's end, the clock moves at `synchronize`.
    Stream(StreamId),
}

/// A CUDA-context-like handle to a simulated CPU cluster.
#[derive(Debug, Clone)]
pub struct CuccCluster {
    sim: SimCluster,
    config: RuntimeConfig,
    /// Unified event record. All time accounting lives here: launches and
    /// host transfers lay spans out on the simulated clock and advance it;
    /// [`CuccCluster::clock`], [`crate::LaunchReport`] phase times and wire bytes
    /// are derived views over the recorded spans and counters.
    timeline: Timeline,
    /// The single ownership boundary for cluster **membership**: logical
    /// node count, per-node liveness and the monotonically increasing
    /// membership epoch. Every layer that reads the cluster shape —
    /// planner, schedule cache, fault recovery, consistency checks, the
    /// CLI — goes through here. In
    /// [`ExecutionFidelity::Modeled`] only one physical node memory is
    /// materialized (paper-scale sweeps would otherwise replicate
    /// gigabytes across 32 pools); the time model still uses the logical
    /// node count this state carries.
    state: ClusterState,
    /// Stream/event state and the RAW/WAW/WAR hazard tracker behind the
    /// async command-queue API. Empty (default stream only, nothing
    /// pending) unless the async entry points are used.
    streams: StreamSet,
    /// Observations of the most recent sanitized launch (populated only
    /// when [`RuntimeConfig::sanitize`] is on).
    last_sanitize: Option<cucc_exec::SanitizeReport>,
    /// The fault injector, seeded from [`RuntimeConfig::faults`] and always
    /// present: an empty plan holds no events, so every query the launch
    /// path makes (`stretch`, `kill_pending`, `take_drop`, `joins_pending`)
    /// loops over nothing and the fault-free arithmetic is untouched.
    fault_state: FaultInjector,
    /// Memoized launch schedules: the one cache behind
    /// [`CuccCluster::plan_cached`].
    schedule_cache: ScheduleCache,
    /// Elided Allgathers: buffers whose gathered region is currently
    /// inconsistent across nodes (each node holds its own slice plus any
    /// partially gathered extras). Consulted by every consistency check
    /// and materialized lazily — at downloads, graph-external launches,
    /// or when a graph consumer's footprint is not covered. Empty unless
    /// graph replay elided a gather, so legacy paths are untouched.
    pending: BTreeMap<BufferId, PendingGather>,
    /// `cert_stats` and `cert_mode` of the program the most recent launch
    /// ran: the tests' probe that every door and mode runs a certified one.
    #[cfg(test)]
    last_certs: Option<((usize, usize), Option<cucc_exec::CertMode>)>,
    /// The static verdicts the most recent sanitized launch checked, and
    /// whether they were read off the launch's own program.
    #[cfg(test)]
    last_verdicts: Option<(cucc_analysis::VerifyReport, bool)>,
}

impl CuccCluster {
    /// Build a runtime over `spec.nodes` simulated nodes.
    ///
    /// The cluster consumes the runtime knobs; what a session does around
    /// its launches (stream fan-out, graph iterations, checkpoint paths)
    /// belongs to the driver above it.
    pub fn with_options(spec: ClusterSpec, config: crate::RunOptions) -> CuccCluster {
        let logical_nodes = spec.nodes as usize;
        let sim_spec = if config.fidelity == ExecutionFidelity::Modeled {
            spec.with_nodes(1)
        } else {
            spec
        };
        let fault_state = FaultInjector::new(config.faults.clone());
        CuccCluster {
            sim: SimCluster::new(sim_spec),
            config,
            timeline: Timeline::new(),
            state: ClusterState::new(logical_nodes),
            streams: StreamSet::new(),
            last_sanitize: None,
            fault_state,
            schedule_cache: ScheduleCache::default(),
            pending: BTreeMap::new(),
            #[cfg(test)]
            last_certs: None,
            #[cfg(test)]
            last_verdicts: None,
        }
    }

    /// Number of nodes still participating in launches.
    pub fn active_nodes(&self) -> usize {
        self.state.active_nodes()
    }

    /// Liveness of one logical node (nodes die only under an injected
    /// fault plan; without one this is always `true`, and dead nodes can
    /// rejoin via `join:` fault events).
    pub fn is_alive(&self, node: usize) -> bool {
        self.state.is_alive(node)
    }

    /// The membership epoch: bumped once per membership change (death,
    /// revival, growth). A launch planned at epoch `e` is valid only while
    /// the epoch stays `e`.
    pub fn epoch(&self) -> u64 {
        self.state.epoch()
    }

    /// The elastic membership state (epoch, liveness).
    pub fn cluster_state(&self) -> &ClusterState {
        &self.state
    }

    /// The sanitizer report of the most recent launch, when
    /// [`RuntimeConfig::sanitize`] is enabled.
    pub fn sanitize_report(&self) -> Option<&cucc_exec::SanitizeReport> {
        self.last_sanitize.as_ref()
    }

    /// Number of (logical) nodes.
    pub fn num_nodes(&self) -> usize {
        self.state.logical_nodes()
    }

    /// Cluster hardware description.
    pub fn spec(&self) -> &ClusterSpec {
        &self.sim.spec
    }

    /// Simulated seconds elapsed (kernel launches + host transfers).
    /// Derived from the trace timeline, which owns the simulated clock.
    pub fn clock(&self) -> f64 {
        self.timeline.clock()
    }

    /// Reset the simulated clock and drop the recorded trace (e.g. to time
    /// a region). Stream handles stay valid; pending async work and
    /// recorded events are discarded along with the trace.
    pub fn reset_clock(&mut self) {
        self.timeline.reset();
        self.streams.reset();
    }

    /// The recorded trace timeline (spans, counters, simulated clock).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Total bytes moved across the network since construction (or the last
    /// [`CuccCluster::reset_clock`]) — Allgathers *and* h2d broadcasts —
    /// derived from the timeline's wire-byte counters.
    pub fn wire_bytes(&self) -> u64 {
        self.timeline.wire_bytes()
    }

    /// Direct access to the underlying simulator (tests, diagnostics).
    pub fn sim(&self) -> &SimCluster {
        &self.sim
    }

    /// Mutable access to the underlying simulator — intended for fault
    /// injection in tests (e.g. corrupting one node's memory to verify the
    /// consistency checker fires). Not part of the stable API surface.
    pub fn sim_mut(&mut self) -> &mut SimCluster {
        &mut self.sim
    }

    /// `cudaMalloc`: replicated allocation on every node.
    pub fn alloc(&mut self, bytes: usize) -> BufferId {
        self.sim.alloc(bytes)
    }

    /// Whether blocks really execute and collectives really move bytes.
    fn functional(&self) -> bool {
        self.config.fidelity == ExecutionFidelity::Functional
    }

    /// Drain what must settle before an op on `start` reading `inputs`: a
    /// synchronous op drains pending async work (a no-op on pure-sync
    /// sessions); a stream op drains every stream only when an input has a
    /// deferred gather, which resolves at a synchronous point, not mid-stream.
    fn drain(&mut self, start: Start, inputs: &[Arg]) -> Result<(), MigrateError> {
        let deferred = |a: &Arg| matches!(a, Arg::Buffer(b) if self.pending.contains_key(b));
        match start {
            Start::Clock if self.streams.pending() => self.synchronize().map(drop),
            Start::Stream(_) if inputs.iter().any(deferred) => self.synchronize().map(drop),
            _ => Ok(()),
        }
    }

    /// When an op on `start` reading `reads` and writing `writes` begins:
    /// at the clock, or at the latest of the stream's position, its hazard
    /// floors and the ready times of the `lanes` the op occupies.
    fn start_time(
        &self,
        start: Start,
        reads: &[BufferId],
        writes: &[BufferId],
        lanes: impl IntoIterator<Item = Track>,
    ) -> f64 {
        match start {
            Start::Clock => self.timeline.clock(),
            Start::Stream(s) => lanes
                .into_iter()
                .fold(self.streams.dep_floor(s, reads, writes), |t, lane| {
                    t.max(self.timeline.lane_ready(lane))
                }),
        }
    }

    /// Move time past an op on `start` that took `dur` and ended at `end`:
    /// the clock advances by `dur`, or the stream commits `end`.
    fn close(&mut self, start: Start, reads: &[BufferId], writes: &[BufferId], dur: f64, end: f64) {
        match start {
            Start::Clock => self.timeline.advance(dur),
            Start::Stream(s) => self.streams.commit(s, reads, writes, end),
        }
    }

    /// Plan a gather in which communicator slot `i` holds `per_owner[i]`
    /// authoritative bytes, under the configured algorithm and placement on
    /// this cluster's interconnect. Every gather the runtime charges,
    /// records or moves is planned here.
    fn plan_gather(&self, per_owner: &[u64]) -> GatherPlan {
        GatherPlan::new(
            per_owner,
            &self.sim.spec.net,
            self.config.allgather_algo,
            self.config.placement,
        )
    }

    /// Charge a collective of duration `dur` that ran serially at the
    /// clock: it occupied the network lane, and the clock moves past it.
    fn advance_past_network(&mut self, dur: f64) {
        if dur > 0.0 {
            let end = self.timeline.clock() + dur;
            self.timeline.reserve_lane(Track::Network, end);
        }
        self.timeline.advance(dur);
    }

    /// The physical pool downloads read: node 0 normally, the first
    /// surviving node once faults have killed nodes (dead pools hold stale
    /// pre-recovery bytes). Modeled fidelity materializes only pool 0.
    fn read_node(&self) -> usize {
        if self.sim.spec.nodes as usize == self.state.logical_nodes() {
            self.state.alive().iter().position(|&a| a).unwrap_or(0)
        } else {
            0
        }
    }

    /// Total allocated buffer bytes held by one node — the payload a
    /// joining node's state transfer moves, and the dominant term of a
    /// checkpoint's size.
    fn node_state_bytes(&self) -> u64 {
        let pool = self.sim.node(self.read_node());
        (0..pool.len())
            .map(|i| pool.size_of(BufferId(i as u32)) as u64)
            .sum()
    }

    // ---- Stream control (the ops are `launch_on`, `upload_on`, `download_on`)

    /// Create a new stream. Work on distinct streams may overlap on the
    /// simulated clock wherever neither hazards nor resource lanes force
    /// an order.
    pub fn stream_create(&mut self) -> StreamId {
        self.streams.create()
    }

    /// Record an event capturing `stream`'s current position.
    pub fn event_record(&mut self, stream: StreamId) -> EventId {
        self.streams.record_event(stream)
    }

    /// Make all later work on `stream` wait for `event`.
    pub fn stream_wait_event(&mut self, stream: StreamId, event: EventId) {
        self.streams.wait_event(stream, event);
    }

    /// Drain every stream: advance the simulated clock to the end of all
    /// in-flight async work and clear hazard state. Returns the clock.
    /// A no-op (and the clock is untouched) when nothing is pending.
    ///
    /// Fallible as part of the `Result`-based launch surface: draining can
    /// surface deferred failures, and callers should treat it like any
    /// other synchronization point.
    pub fn synchronize(&mut self) -> Result<f64, MigrateError> {
        let horizon = self.streams.horizon().max(self.timeline.lanes_horizon());
        self.timeline.advance_to(horizon);
        self.streams.settle(self.timeline.clock());
        Ok(self.timeline.clock())
    }

    /// Schedule-cache counters and contents (diagnostics, the CLI's
    /// hit-rate report).
    pub fn schedule_cache(&self) -> &ScheduleCache {
        &self.schedule_cache
    }

    /// Buffers with a currently deferred (elided) gather.
    pub fn pending_gathers(&self) -> Vec<BufferId> {
        self.pending.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_source;
    use crate::report::{ExecMode, LaunchReport};
    use cucc_analysis::LaunchFacts;
    use cucc_gpu_model::{GpuDevice, GpuSpec};
    use cucc_trace::Category;

    const LISTING1: &str = "__global__ void vec_copy(char* src, char* dest, int n) {
        int id = blockDim.x * blockIdx.x + threadIdx.x;
        if (id < n) dest[id] = src[id];
    }";

    fn spec(n: u32) -> ClusterSpec {
        ClusterSpec::simd_focused().with_nodes(n)
    }

    #[test]
    fn three_phase_copies_correctly_on_two_nodes() {
        let ck = compile_source(LISTING1).unwrap();
        let mut cl = CuccCluster::with_options(spec(2), RuntimeConfig::default());
        let src = cl.alloc(1200);
        let dest = cl.alloc(1200);
        let data: Vec<u8> = (0..1200).map(|i| (i % 251) as u8).collect();
        cl.upload(src, &data).unwrap();
        let report = cl
            .launch(
                &ck,
                LaunchConfig::cover1(1200, 256),
                &[Arg::Buffer(src), Arg::Buffer(dest), Arg::int(1200)],
            )
            .unwrap();
        {
            let shape = report.mode.three_phase().unwrap();
            assert_eq!(shape.partial_blocks_per_node, 2);
            assert_eq!(shape.callback_blocks, 1);
        }
        assert_eq!(cl.download::<u8>(dest).unwrap(), data);
        assert!(report.times.allgather > 0.0);
        assert!(report.times.partial > 0.0);
    }

    #[test]
    fn matches_gpu_reference_across_node_counts() {
        let ck = compile_source(
            "__global__ void saxpy(float* x, float* y, float a, int n) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                if (id < n) y[id] = a * x[id] + y[id];
            }",
        )
        .unwrap();
        let n = 5000usize;
        let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
        let ys: Vec<f32> = (0..n).map(|i| (n - i) as f32).collect();
        let launch = LaunchConfig::cover1(n as u64, 128);

        // GPU reference.
        let mut gpu = GpuDevice::new(GpuSpec::a100());
        let gx = gpu.alloc(n * 4);
        let gy = gpu.alloc(n * 4);
        gpu.pool_mut().write_f32(gx, &xs);
        gpu.pool_mut().write_f32(gy, &ys);
        gpu.launch(
            &ck.kernel,
            launch,
            &[
                Arg::Buffer(gx),
                Arg::Buffer(gy),
                Arg::float(1.5),
                Arg::int(n as i64),
            ],
        )
        .unwrap();
        let reference = gpu.d2h(gy);

        for nodes in [1u32, 2, 3, 4, 8] {
            let mut cl = CuccCluster::with_options(spec(nodes), RuntimeConfig::default());
            let cx = cl.alloc(n * 4);
            let cy = cl.alloc(n * 4);
            cl.upload(cx, &xs).unwrap();
            cl.upload(cy, &ys).unwrap();
            cl.launch(
                &ck,
                launch,
                &[
                    Arg::Buffer(cx),
                    Arg::Buffer(cy),
                    Arg::float(1.5),
                    Arg::int(n as i64),
                ],
            )
            .unwrap();
            assert_eq!(cl.download::<u8>(cy).unwrap(), reference, "nodes={nodes}");
        }
    }

    #[test]
    fn replicated_fallback_still_correct() {
        // Histogram with atomics: not distributable, must replicate and
        // still match the GPU.
        let ck = compile_source(
            "__global__ void hist(int* bins, int* data, int n) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                if (id < n) atomicAdd(&bins[data[id] % 16], 1);
            }",
        )
        .unwrap();
        assert!(!ck.is_distributable());
        let n = 4096usize;
        let data: Vec<i32> = (0..n as i32).map(|i| i * 37 % 1000).collect();
        let launch = LaunchConfig::cover1(n as u64, 256);

        let mut gpu = GpuDevice::new(GpuSpec::a100());
        let gb = gpu.alloc(16 * 4);
        let gd = gpu.alloc(n * 4);
        gpu.pool_mut().write_i32(gd, &data);
        gpu.launch(
            &ck.kernel,
            launch,
            &[Arg::Buffer(gb), Arg::Buffer(gd), Arg::int(n as i64)],
        )
        .unwrap();
        let reference = gpu.d2h(gb);

        let mut cl = CuccCluster::with_options(spec(4), RuntimeConfig::default());
        let cb = cl.alloc(16 * 4);
        let cd = cl.alloc(n * 4);
        let mut bytes = Vec::new();
        for v in &data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        cl.upload(cd, &bytes).unwrap();
        let report = cl
            .launch(
                &ck,
                launch,
                &[Arg::Buffer(cb), Arg::Buffer(cd), Arg::int(n as i64)],
            )
            .unwrap();
        assert!(matches!(report.mode, ExecMode::Replicated { .. }));
        assert_eq!(report.wire_bytes, 0);
        assert_eq!(cl.download::<u8>(cb).unwrap(), reference);
    }

    #[test]
    fn scaling_reduces_partial_time() {
        let ck = compile_source(
            "__global__ void heavy(float* out, int n, int iters) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                float acc = 0.0f;
                for (int i = 0; i < iters; i++)
                    acc += (float)(i) * 0.5f;
                if (id < n) out[id] = acc;
            }",
        )
        .unwrap();
        // 1024 blocks of heavy compute: enough blocks to keep every core of
        // a 16-node cluster busy, enough work per block to dwarf the
        // Allgather.
        let n = 262_144u64;
        let launch = LaunchConfig::cover1(n, 256);
        let mut t1 = 0.0;
        for nodes in [1u32, 4, 16] {
            let mut cl = CuccCluster::with_options(spec(nodes), RuntimeConfig::modeled());
            let out = cl.alloc(n as usize * 4);
            let report = cl
                .launch(
                    &ck,
                    launch,
                    &[Arg::Buffer(out), Arg::int(n as i64), Arg::int(2000)],
                )
                .unwrap();
            if nodes == 1 {
                t1 = report.time();
            } else {
                let speedup = t1 / report.time();
                assert!(
                    speedup > nodes as f64 * 0.5,
                    "nodes={nodes} speedup={speedup}"
                );
            }
        }
    }

    #[test]
    fn modeled_mode_does_not_touch_memory() {
        let ck = compile_source(LISTING1).unwrap();
        let mut cl = CuccCluster::with_options(spec(2), RuntimeConfig::modeled());
        let src = cl.alloc(1024);
        let dest = cl.alloc(1024);
        cl.upload(src, &[9u8; 1024]).unwrap();
        cl.launch(
            &ck,
            LaunchConfig::cover1(1024, 256),
            &[Arg::Buffer(src), Arg::Buffer(dest), Arg::int(1024)],
        )
        .unwrap();
        assert_eq!(
            cl.download::<u8>(dest).unwrap(),
            vec![0u8; 1024],
            "modeled mode leaves memory"
        );
    }

    #[test]
    fn clock_accumulates_and_resets() {
        let ck = compile_source(LISTING1).unwrap();
        let mut cl = CuccCluster::with_options(spec(2), RuntimeConfig::default());
        let src = cl.alloc(512);
        let dest = cl.alloc(512);
        cl.upload(src, &[1u8; 512]).unwrap();
        assert!(cl.clock() > 0.0, "h2d broadcast costs time");
        let before = cl.clock();
        cl.launch(
            &ck,
            LaunchConfig::cover1(512, 256),
            &[Arg::Buffer(src), Arg::Buffer(dest), Arg::int(512)],
        )
        .unwrap();
        assert!(cl.clock() > before);
        cl.reset_clock();
        assert_eq!(cl.clock(), 0.0);
    }

    #[test]
    fn engines_produce_identical_launches() {
        // Same kernel, same data: tree-walk and the compiled engine (with
        // intra-node parallelism) must agree on memory, stats, times and
        // wire bytes.
        let ck = compile_source(
            "__global__ void saxpy(float* x, float* y, float a, int n) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                if (id < n) y[id] = a * x[id] + y[id];
            }",
        )
        .unwrap();
        let n = 10_000usize;
        let xs: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let ys: Vec<f32> = (0..n).map(|i| i as f32 * 0.125).collect();
        let launch = LaunchConfig::cover1(n as u64, 128);
        let run = |engine: EngineKind, node_threads: usize| {
            let cfg = RuntimeConfig {
                engine,
                node_threads,
                ..RuntimeConfig::default()
            };
            let mut cl = CuccCluster::with_options(spec(3), cfg);
            let cx = cl.alloc(n * 4);
            let cy = cl.alloc(n * 4);
            cl.upload(cx, &xs).unwrap();
            cl.upload(cy, &ys).unwrap();
            let report = cl
                .launch(
                    &ck,
                    launch,
                    &[
                        Arg::Buffer(cx),
                        Arg::Buffer(cy),
                        Arg::float(0.75),
                        Arg::int(n as i64),
                    ],
                )
                .unwrap();
            (cl.download::<f32>(cy).unwrap(), report)
        };
        let (mem_tree, rep_tree) = run(EngineKind::TreeWalk, 0);
        let (mem_lane, rep_lane) = run(EngineKind::Lane, 0);
        let (mem_par, rep_par) = run(EngineKind::Lane, 4);
        assert_eq!(mem_tree, mem_lane);
        assert_eq!(mem_tree, mem_par);
        assert_eq!(rep_tree.node_stats, rep_lane.node_stats);
        assert_eq!(rep_tree.node_stats, rep_par.node_stats);
        assert_eq!(rep_tree.times, rep_lane.times);
        assert_eq!(rep_tree.wire_bytes, rep_lane.wire_bytes);
    }

    /// The three launch doors: the default stream, a created stream, and
    /// graph replay.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Door {
        Sync,
        Stream,
        Replay,
    }
    const DOORS: [Door; 3] = [Door::Sync, Door::Stream, Door::Replay];

    /// Issue the same launch `times` times through `door`, without leaving
    /// async work pending.
    fn launch_through(
        door: Door,
        cl: &mut CuccCluster,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
        times: usize,
    ) -> Vec<crate::LaunchReport> {
        let mut reports = Vec::new();
        match door {
            Door::Sync => {
                for _ in 0..times {
                    reports.push(cl.launch(ck, launch, args).unwrap());
                }
            }
            Door::Stream => {
                for _ in 0..times {
                    let s = crate::stream::DEFAULT_STREAM;
                    reports.push(cl.launch_on(ck, launch, args, s).unwrap());
                }
                cl.synchronize().unwrap();
            }
            Door::Replay => {
                let mut cap = crate::GraphCapture::new();
                for _ in 0..times {
                    cap.launch(ck, launch, args);
                }
                cl.graph_replay(&cap.finish()).unwrap();
            }
        }
        reports
    }

    const TALLY: &str = "__global__ void tally(char* src, int* dest, int n) {
        int id = blockDim.x * blockIdx.x + threadIdx.x;
        if (id < n) atomicAdd(&dest[id % 64], 1);
    }";

    #[test]
    fn sanitizer_checks_stream_launches() {
        // `sanitize` promises a check before *every* functional launch —
        // whatever door it enters by and whatever mode it runs in — and
        // cross-validates the certificates of the program it runs.
        let options = crate::RunOptions::builder().sanitize(true).build();
        let sanitized = |door: Door, src: &str| {
            let ck = compile_source(src).unwrap();
            let mut cl = CuccCluster::with_options(spec(2), options.clone());
            let x = cl.alloc(512 * 4);
            let out = cl.alloc(512 * 4);
            let args = [Arg::Buffer(x), Arg::Buffer(out), Arg::int(512)];
            let args = &args[..ck.kernel.params.len()];
            launch_through(door, &mut cl, &ck, LaunchConfig::new(4, 128), args, 1);
            let (certs, mode) = cl.last_certs.expect("a compiled program ran");
            assert_eq!(mode, Some(cucc_exec::CertMode::Validate), "{door:?}");
            let report = cl.sanitize_report().cloned();
            (report.expect("the launch was sanitized"), certs)
        };
        for door in DOORS {
            // Replicated (overlapping writes), racy.
            let (racy, _) = sanitized(
                door,
                "__global__ void all_to_zero(float* x, float* out) {
                    out[0] = x[blockDim.x * blockIdx.x + threadIdx.x];
                }",
            );
            assert!(!racy.races.is_empty(), "{door:?}: {}", racy.summary());
            // Three-phase, clean.
            let (clean, certs) = sanitized(
                door,
                "__global__ void copy(float* x, float* out) {
                    int id = blockDim.x * blockIdx.x + threadIdx.x;
                    out[id] = x[id];
                }",
            );
            assert!(clean.clean(), "{door:?}: {}", clean.summary());
            assert!(certs.0 > 0, "{door:?}: {certs:?}");
            // Replicated (atomics), clean: its accesses certify too.
            let (clean, certs) = sanitized(door, TALLY);
            assert!(clean.clean(), "{door:?}: {}", clean.summary());
            assert!(certs.0 > 0, "{door:?}: {certs:?}");
        }
    }

    /// A tree-walk launch is sanitized as a lane launch is: the same static
    /// verdicts and the same dynamic observations. A planning miss hands its
    /// program to the sanitizer under either engine; a cache hit under the
    /// tree walk has none to hand, and the verdicts come out the same.
    #[test]
    fn sanitizer_verdicts_do_not_depend_on_the_engine() {
        let sanitized = |engine: EngineKind, src: &str| {
            let ck = compile_source(src).unwrap();
            let options = crate::RunOptions::builder()
                .sanitize(true)
                .engine(engine)
                .build();
            let mut cl = CuccCluster::with_options(spec(2), options);
            let x = cl.alloc(512 * 4);
            let out = cl.alloc(512 * 4);
            let args = [Arg::Buffer(x), Arg::Buffer(out), Arg::int(512)];
            let args = &args[..ck.kernel.params.len()];
            // A planning miss, then a cache hit.
            (0..2)
                .map(|_| {
                    cl.launch(&ck, LaunchConfig::new(4, 128), args).unwrap();
                    let (verdicts, reused) = cl.last_verdicts.clone().expect("sanitized");
                    let dynamic = format!("{:?}", cl.sanitize_report().expect("sanitized"));
                    (verdicts, dynamic, reused)
                })
                .collect::<Vec<_>>()
        };
        for src in [
            "__global__ void copy(float* x, float* out) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                out[id] = x[id];
            }",
            "__global__ void all_to_zero(float* x, float* out) {
                out[0] = x[blockDim.x * blockIdx.x + threadIdx.x];
            }",
            TALLY,
        ] {
            let tree = sanitized(EngineKind::TreeWalk, src);
            let lane = sanitized(EngineKind::Lane, src);
            for (t, l) in tree.iter().zip(&lane) {
                assert_eq!((&t.0, &t.1), (&l.0, &l.1), "{src}");
            }
            assert!(
                tree[0].2 && lane[0].2,
                "a miss hands its program over: {src}"
            );
            assert!(lane[1].2, "a lane launch always runs a program: {src}");
        }
    }

    /// Two parameters of different element types bound to one buffer each
    /// measure it in their own elements: `b` sees 256 chars, `a` 64 ints,
    /// and block 1 stores `a[64..96]`. The verifier proves nothing there,
    /// so a sanitized launch fails exactly as an unsanitized one does, with
    /// the engine's trap.
    #[test]
    fn aliased_parameters_are_bounded_by_their_own_element_size() {
        let ck = compile_source(
            "__global__ void k(char* b, int* a) {
                if (blockIdx.x == 1) a[threadIdx.x + 64] = 1;
            }",
        )
        .unwrap();
        let launch = LaunchConfig::new(8u32, 32u32);
        for sanitize in [false, true] {
            let options = crate::RunOptions::builder().sanitize(sanitize).build();
            let mut cl = CuccCluster::with_options(spec(2), options);
            let buf = cl.alloc(256);
            let args = [Arg::Buffer(buf), Arg::Buffer(buf)];
            let acc = Some(&ck.analysis.accesses);
            let facts = LaunchFacts::of(&ck.kernel, acc, launch, &args, |_| Some(256), None);
            let bounds = cucc_analysis::verify(&facts, false, None).bounds;
            assert_eq!(bounds, cucc_analysis::PropertyVerdict::May);
            let err = cl.launch(&ck, launch, &args).unwrap_err();
            assert!(
                matches!(
                    &err,
                    MigrateError::Exec(cucc_exec::ExecError::OutOfBounds {
                        mem,
                        index: 64,
                        len_elems: 64,
                    }) if mem == "a"
                ),
                "sanitize {sanitize}: {err}"
            );
        }
    }

    #[test]
    fn empty_grid_rejected() {
        let ck = compile_source(LISTING1).unwrap();
        let mut cl = CuccCluster::with_options(spec(1), RuntimeConfig::default());
        let b = cl.alloc(4);
        let err = cl.launch(
            &ck,
            LaunchConfig::new(0u32, 32u32),
            &[Arg::Buffer(b), Arg::Buffer(b), Arg::int(0)],
        );
        assert!(matches!(err, Err(MigrateError::Launch(_))));
    }

    #[test]
    fn async_default_stream_matches_sync_reports_and_memory() {
        use crate::stream::DEFAULT_STREAM;
        let data: Vec<u8> = (0..4096).map(|i| (i % 239) as u8).collect();
        let launch = LaunchConfig::cover1(4096, 256);

        // Door × mode: a three-phase kernel and a replicated (atomics) one,
        // each launched twice through every door.
        for (src, three_phase) in [(LISTING1, true), (TALLY, false)] {
            let ck = compile_source(src).unwrap();
            let run = |door: Door| {
                // Replay elides gathers by design; an armed-but-silent fault
                // plan switches that policy off (and reproduces fault-free
                // reports bitwise), so all three doors are comparable.
                let faults = match door {
                    Door::Replay => FaultPlan::none().kill(2, 1e9),
                    _ => FaultPlan::none(),
                };
                let options = crate::RunOptions::builder().faults(faults).build();
                let mut cl = CuccCluster::with_options(spec(3), options);
                let (s, d) = (cl.alloc(4096), cl.alloc(4096));
                if door == Door::Stream {
                    cl.upload_on(s, &data, DEFAULT_STREAM).unwrap();
                } else {
                    cl.upload(s, &data).unwrap();
                }
                let args = [Arg::Buffer(s), Arg::Buffer(d), Arg::int(4096)];
                let mark = cl.timeline().checkpoint();
                let reports = launch_through(door, &mut cl, &ck, launch, &args, 2);
                // What the launches recorded, position-free: `times`,
                // `wire_bytes` and `node_stats` are all views of this.
                let tl = cl.timeline();
                let spans: Vec<_> = tl
                    .spans_since(mark)
                    .iter()
                    .map(|s| (s.name.clone(), s.track, s.category, s.dur.to_bits()))
                    .collect();
                let counters: Vec<_> = tl
                    .counters_since(mark)
                    .iter()
                    .map(|c| (c.name, c.track, c.value))
                    .collect();
                assert!(cl.last_certs.unwrap().0 .0 > 0, "{door:?}: certified");
                let mem = cl.download::<u8>(d).unwrap();
                (reports, (spans, counters), mem, cl.clock())
            };
            let (sync, sync_rec, sync_mem, a) = run(Door::Sync);
            let (asy, asy_rec, asy_mem, b) = run(Door::Stream);
            let (_, replay_rec, replay_mem, _) = run(Door::Replay);

            // Per-launch durations, wire traffic and statistics are
            // clock-independent: every door reproduces them bit-for-bit.
            for (r, q) in sync.iter().zip(&asy) {
                assert_eq!(r.mode.is_three_phase(), three_phase);
                assert_eq!(r.times, q.times);
                assert_eq!(r.wire_bytes, q.wire_bytes);
                assert_eq!(r.node_stats, q.node_stats);
            }
            assert_eq!(sync_rec, asy_rec);
            assert_eq!(sync_rec, replay_rec);
            assert_eq!(sync_mem, asy_mem);
            assert_eq!(sync_mem, replay_mem);
            if three_phase {
                assert_eq!(sync_mem, data);
            }
            // Span *positions* chain physical end times, so the elapsed
            // clock may differ from the serial sum by float association
            // only.
            assert!((a - b).abs() <= 1e-12 * a.max(b), "sync={a} async={b}");
        }
    }

    #[test]
    fn independent_streams_overlap_on_the_simulated_clock() {
        // Broadcast an unrelated buffer on one stream while a heavy kernel
        // computes on another: the prefetch should hide under the compute
        // (the kernel's node lanes are free; it only meets the transfer on
        // the network lane, at its Allgather).
        let ck = compile_source(
            "__global__ void heavy(float* out, int n, int iters) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                float acc = 0.0f;
                for (int i = 0; i < iters; i++)
                    acc += (float)(i) * 0.5f;
                if (id < n) out[id] = acc;
            }",
        )
        .unwrap();
        let n = 16_384u64;
        let launch = LaunchConfig::cover1(n, 256);
        let payload = vec![1u8; 1 << 20];

        let elapsed = |overlap: bool| {
            let mut cl = CuccCluster::with_options(spec(4), RuntimeConfig::default());
            let out = cl.alloc(n as usize * 4);
            let other = cl.alloc(payload.len());
            let args = [Arg::Buffer(out), Arg::int(n as i64), Arg::int(400)];
            if overlap {
                let s1 = cl.stream_create();
                let s2 = cl.stream_create();
                cl.upload_on(other, &payload, s2).unwrap();
                cl.launch_on(&ck, launch, &args, s1).unwrap();
                cl.synchronize().unwrap()
            } else {
                cl.upload(other, &payload).unwrap();
                cl.launch(&ck, launch, &args).unwrap();
                cl.clock()
            }
        };
        let serial = elapsed(false);
        let overlapped = elapsed(true);
        assert!(
            overlapped < serial * 0.95,
            "expected overlap: serial={serial} overlapped={overlapped}"
        );
    }

    #[test]
    fn cross_stream_hazard_serializes_bitwise() {
        // Stream 2's kernel reads the buffer stream 1 is broadcasting:
        // the RAW hazard must serialize it exactly like a single stream.
        let ck = compile_source(LISTING1).unwrap();
        let data = vec![7u8; 8192];
        let launch = LaunchConfig::cover1(8192, 256);

        let run = |two_streams: bool| {
            let mut cl = CuccCluster::with_options(spec(3), RuntimeConfig::default());
            let src = cl.alloc(8192);
            let dest = cl.alloc(8192);
            let s1 = cl.stream_create();
            let s2 = if two_streams { cl.stream_create() } else { s1 };
            cl.upload_on(src, &data, s1).unwrap();
            let args = [Arg::Buffer(src), Arg::Buffer(dest), Arg::int(8192)];
            cl.launch_on(&ck, launch, &args, s2).unwrap();
            (cl.synchronize().unwrap(), cl.download::<u8>(dest).unwrap())
        };
        let (t_one, mem_one) = run(false);
        let (t_two, mem_two) = run(true);
        assert_eq!(t_one.to_bits(), t_two.to_bits());
        assert_eq!(mem_one, mem_two);
        assert_eq!(mem_one, data);
    }

    #[test]
    fn events_order_cross_stream_work() {
        let ck = compile_source(LISTING1).unwrap();
        let data = vec![3u8; 4096];
        let launch = LaunchConfig::cover1(4096, 256);
        let mut cl = CuccCluster::with_options(spec(2), RuntimeConfig::default());
        let src = cl.alloc(4096);
        let dest = cl.alloc(4096);
        let scratch = cl.alloc(64);
        let s1 = cl.stream_create();
        let s2 = cl.stream_create();
        cl.upload_on(src, &data, s1).unwrap();
        let ready = cl.event_record(s1);
        // Unrelated tiny transfer keeps s2 formally busy first.
        cl.upload_on(scratch, &[1u8; 64], s2).unwrap();
        cl.stream_wait_event(s2, ready);
        let args = [Arg::Buffer(src), Arg::Buffer(dest), Arg::int(4096)];
        cl.launch_on(&ck, launch, &args, s2).unwrap();
        cl.synchronize().unwrap();
        assert_eq!(cl.download::<u8>(dest).unwrap(), data);
    }

    #[test]
    fn sync_ops_drain_pending_async_work() {
        let ck = compile_source(LISTING1).unwrap();
        let data = vec![9u8; 2048];
        let mut cl = CuccCluster::with_options(spec(2), RuntimeConfig::default());
        let src = cl.alloc(2048);
        let dest = cl.alloc(2048);
        let s = cl.stream_create();
        cl.upload_on(src, &data, s).unwrap();
        // The synchronous launch must see the broadcast completed — both
        // functionally and on the clock.
        let before = cl.clock();
        let args = [Arg::Buffer(src), Arg::Buffer(dest), Arg::int(2048)];
        cl.launch(&ck, LaunchConfig::cover1(2048, 256), &args)
            .unwrap();
        assert_eq!(cl.download::<u8>(dest).unwrap(), data);
        assert!(cl.clock() > before);
        assert!(cl.timeline().lanes_horizon() <= cl.clock());
    }

    #[test]
    fn single_node_is_cupbop_baseline() {
        // One node ⇒ no communication at all, but still the partial phase.
        let ck = compile_source(LISTING1).unwrap();
        let mut cl = CuccCluster::with_options(spec(1), RuntimeConfig::default());
        let src = cl.alloc(2048);
        let dest = cl.alloc(2048);
        cl.upload(src, &[3u8; 2048]).unwrap();
        let r = cl
            .launch(
                &ck,
                LaunchConfig::cover1(2048, 256),
                &[Arg::Buffer(src), Arg::Buffer(dest), Arg::int(2048)],
            )
            .unwrap();
        assert_eq!(r.times.allgather, 0.0);
        assert_eq!(r.wire_bytes, 0);
        assert_eq!(cl.download::<u8>(dest).unwrap(), vec![3u8; 2048]);
    }

    /// Run one copy launch of `bytes` bytes on `nodes` nodes under `faults`
    /// and return the report, the output memory, and the cluster.
    fn fault_run(
        ck: &CompiledKernel,
        nodes: u32,
        bytes: usize,
        data: &[u8],
        faults: FaultPlan,
    ) -> (Result<LaunchReport, MigrateError>, Vec<u8>, CuccCluster) {
        let cfg = crate::RunOptions::builder().faults(faults).build();
        let mut cl = CuccCluster::with_options(spec(nodes), cfg);
        let src = cl.alloc(bytes);
        let dest = cl.alloc(bytes);
        cl.upload(src, data).unwrap();
        let args = [Arg::Buffer(src), Arg::Buffer(dest), Arg::int(bytes as i64)];
        let report = cl.launch(ck, LaunchConfig::cover1(bytes as u64, 256), &args);
        let mem = if report.is_ok() {
            cl.download::<u8>(dest).unwrap()
        } else {
            Vec::new()
        };
        (report, mem, cl)
    }

    #[test]
    fn node_kill_recovers_bit_identical_memory() {
        let ck = compile_source(LISTING1).unwrap();
        // 25 blocks on 3 nodes: 8 chunks/node, so 2 survivors re-partition
        // the 24 distributed chunks evenly (12 each).
        let bytes = 25 * 256;
        let data: Vec<u8> = (0..bytes).map(|i| (i % 241) as u8).collect();

        let (clean, mem_clean, _) = fault_run(&ck, 3, bytes, &data, FaultPlan::none());
        let (faulty, mem_faulty, cl) =
            fault_run(&ck, 3, bytes, &data, FaultPlan::none().kill(1, 0.0));
        let clean = clean.unwrap();
        let faulty = faulty.unwrap();

        // Recovered output is bit-identical to the fault-free run.
        assert_eq!(mem_faulty, mem_clean);
        assert_eq!(mem_faulty, data);
        assert!(faulty.mode.is_three_phase());
        assert_eq!(faulty.faults.failures, 1);
        assert!(faulty.faults.retries > 0);
        assert!(faulty.faults.reexecuted_blocks > 0);
        assert!(!faulty.faults.degraded);
        assert!(faulty.times.retry > 0.0);
        assert!(faulty.times.reexec > 0.0);
        assert!(faulty.time() > clean.time());
        // The death persists: the communicator shrank for good.
        assert_eq!(cl.active_nodes(), 2);
        assert!(!cl.is_alive(1));
        // The timeline shows the retry and re-execution spans.
        let tl = cl.timeline();
        assert!(tl.spans().iter().any(|s| s.category == Category::Retry));
        assert!(tl.spans().iter().any(|s| s.category == Category::Reexec));
    }

    #[test]
    fn infeasible_repartition_degrades_to_replicated() {
        let ck = compile_source(LISTING1).unwrap();
        // 10 blocks on 3 nodes: 3 chunks/node, 9 distributed chunks — not
        // divisible across 2 survivors, so recovery must degrade.
        let bytes = 10 * 256;
        let data: Vec<u8> = (0..bytes).map(|i| (i % 97) as u8).collect();

        let (report, mem, cl) = fault_run(&ck, 3, bytes, &data, FaultPlan::none().kill(2, 0.0));
        let report = report.unwrap();
        assert_eq!(mem, data);
        assert!(matches!(
            &report.mode,
            ExecMode::Replicated {
                cause: cucc_analysis::ReplicationCause::NodeLoss(_)
            }
        ));
        assert!(report.faults.degraded);
        assert_eq!(report.faults.failures, 1);
        assert!(report.times.reexec > 0.0);
        assert_eq!(cl.active_nodes(), 2);
        // The degraded completion runs the launch's one certified program
        // (it used to compile a second, bare one).
        let (certs, mode) = cl.last_certs.unwrap();
        assert!(certs.0 > 0, "{certs:?}");
        assert_eq!(mode, Some(cucc_exec::CertMode::Elide));

        // The same death with degraded execution disallowed is an error.
        let plan = FaultPlan {
            allow_degraded: false,
            ..FaultPlan::none().kill(2, 0.0)
        };
        let (report, _, _) = fault_run(&ck, 3, bytes, &data, plan);
        assert!(matches!(
            report.unwrap_err(),
            MigrateError::Degraded { survivors: 2, .. }
        ));
    }

    #[test]
    fn straggler_stretches_but_stays_clean() {
        let ck = compile_source(LISTING1).unwrap();
        let bytes = 16 * 256;
        let data = vec![5u8; bytes];
        let (clean, mem_clean, _) = fault_run(&ck, 4, bytes, &data, FaultPlan::none());
        let (slow, mem_slow, _) = fault_run(
            &ck,
            4,
            bytes,
            &data,
            FaultPlan::none().straggle(0, 0.0, 4.0),
        );
        let clean = clean.unwrap();
        let slow = slow.unwrap();
        assert_eq!(mem_slow, mem_clean);
        // A whole-launch straggler stretches the partial phase by exactly
        // its factor (the max over nodes is the stretched span).
        assert_eq!(
            slow.times.partial.to_bits(),
            (clean.times.partial * 4.0).to_bits()
        );
        assert!(slow.time() > clean.time());
        // Stragglers are not failures: the summary stays clean.
        assert!(slow.faults.is_clean());
    }

    #[test]
    fn dropped_step_is_retried() {
        let ck = compile_source(LISTING1).unwrap();
        let bytes = 16 * 256;
        let data = vec![9u8; bytes];
        let (clean, mem_clean, _) = fault_run(&ck, 4, bytes, &data, FaultPlan::none());
        let (report, mem, _) = fault_run(&ck, 4, bytes, &data, FaultPlan::none().drop_step(0.0));
        let report = report.unwrap();
        assert_eq!(mem, mem_clean);
        assert_eq!(report.faults.retries, 1);
        assert_eq!(report.faults.failures, 0);
        assert!(report.times.retry > 0.0);
        // The collective itself still costs the analytic fault-free time.
        assert_eq!(
            report.times.allgather.to_bits(),
            clean.unwrap().times.allgather.to_bits()
        );
    }

    #[test]
    fn exhausted_retries_without_a_corpse_is_a_timeout() {
        let ck = compile_source(LISTING1).unwrap();
        let bytes = 16 * 256;
        let data = vec![1u8; bytes];
        // Three scripted drops exhaust the default three attempts with no
        // dead peer to evict.
        let plan = FaultPlan::none()
            .drop_step(0.0)
            .drop_step(0.0)
            .drop_step(0.0);
        let (report, _, _) = fault_run(&ck, 4, bytes, &data, plan);
        assert!(matches!(
            report.unwrap_err(),
            MigrateError::Timeout { retries: 3, .. }
        ));
    }

    #[test]
    fn armed_but_silent_fault_plan_reproduces_reports_bitwise() {
        let ck = compile_source(LISTING1).unwrap();
        let bytes = 25 * 256;
        let data: Vec<u8> = (0..bytes).map(|i| (i % 199) as u8).collect();
        let (clean, mem_clean, _) = fault_run(&ck, 3, bytes, &data, FaultPlan::none());
        // A kill scheduled far beyond the launch never fires, but the
        // injector is active — the fault-aware path must reproduce the
        // fault-free report bit-for-bit.
        let (armed, mem_armed, _) = fault_run(&ck, 3, bytes, &data, FaultPlan::none().kill(2, 1e9));
        let clean = clean.unwrap();
        let armed = armed.unwrap();
        assert_eq!(mem_armed, mem_clean);
        assert_eq!(armed.times.partial.to_bits(), clean.times.partial.to_bits());
        assert_eq!(
            armed.times.allgather.to_bits(),
            clean.times.allgather.to_bits()
        );
        assert_eq!(
            armed.times.callback.to_bits(),
            clean.times.callback.to_bits()
        );
        assert_eq!(armed.time().to_bits(), clean.time().to_bits());
        assert_eq!(armed, clean);
    }

    /// An armed-but-silent session lays every span and counter exactly
    /// where the empty plan does — also with several gathered regions,
    /// where accumulating positions in another order would show in the
    /// last float bits.
    #[test]
    fn armed_but_silent_fault_plan_reproduces_the_timeline_bitwise() {
        let ck = compile_source(
            "__global__ void fan(float* x, float* a, float* b, float* c, int n) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                if (id < n) { a[id] = x[id] + 1.0f; b[id] = x[id] * 2.0f; c[id] = x[id] - 3.0f; }
            }",
        )
        .unwrap();
        let n = 15437usize;
        let run = |faults: FaultPlan| {
            let cfg = crate::RunOptions::builder().faults(faults).build();
            let mut cl = CuccCluster::with_options(spec(3), cfg);
            let bufs: Vec<BufferId> = (0..4).map(|_| cl.alloc(n * 4)).collect();
            let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.37).collect();
            cl.upload(bufs[0], &data).unwrap();
            let mut args: Vec<Arg> = bufs.iter().map(|&b| Arg::Buffer(b)).collect();
            args.push(Arg::int(n as i64));
            for _ in 0..3 {
                cl.launch(&ck, LaunchConfig::cover1(n as u64, 128), &args)
                    .unwrap();
            }
            let tl = cl.timeline();
            (
                tl.spans().to_vec(),
                tl.counters().to_vec(),
                cl.clock().to_bits(),
            )
        };
        assert_eq!(run(FaultPlan::none().kill(2, 1e9)), run(FaultPlan::none()));
    }

    #[test]
    fn transfer_validation_is_typed() {
        let mut cl = CuccCluster::with_options(spec(2), RuntimeConfig::default());
        let buf = cl.alloc(8);
        // Wrong payload size.
        assert!(matches!(
            cl.upload(buf, &[1u8; 7]).unwrap_err(),
            MigrateError::Transfer(_)
        ));
        // Unknown buffer.
        assert!(matches!(
            cl.upload(BufferId(99), &[0u8; 4]).unwrap_err(),
            MigrateError::Transfer(_)
        ));
        // Non-divisible element size.
        let odd = cl.alloc(10);
        assert!(matches!(
            cl.download::<f32>(odd).unwrap_err(),
            MigrateError::Transfer(_)
        ));
        // The generic surface round-trips typed data.
        cl.upload(buf, &[1.5f32, -2.0]).unwrap();
        assert_eq!(cl.download::<f32>(buf).unwrap(), vec![1.5, -2.0]);
        assert_eq!(cl.download::<u8>(buf).unwrap().len(), 8);
    }

    #[test]
    fn every_door_refuses_a_buffer_never_allocated() {
        let ck = compile_source(LISTING1).unwrap();
        let launch = LaunchConfig::cover1(64, 32);
        let args = [
            Arg::Buffer(BufferId(7)),
            Arg::Buffer(BufferId(7)),
            Arg::int(64),
        ];
        let fresh = || CuccCluster::with_options(spec(2), RuntimeConfig::default());
        let refused = |r: Result<(), MigrateError>| {
            let e = r.unwrap_err().to_string();
            assert!(e.contains("buffer id 7 was never allocated"), "{e}");
        };
        refused(fresh().launch(&ck, launch, &args).map(drop));
        let mut cl = fresh();
        let s = cl.stream_create();
        refused(cl.launch_on(&ck, launch, &args, s).map(drop));
        let mut cap = crate::GraphCapture::new();
        cap.launch(&ck, launch, &args);
        refused(fresh().graph_replay(&cap.finish()).map(drop));
    }

    #[test]
    fn checkpoint_to_replaces_the_image_whole_or_not_at_all() {
        let dir = std::env::temp_dir().join(format!("cucc-ckpt-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let tmp = dir.join("state.ckpt.tmp");
        let restored = |at: &std::path::Path| {
            let mut cl = CuccCluster::restore_from(spec(2), RuntimeConfig::default(), at).unwrap();
            cl.download::<u8>(BufferId(0)).unwrap()
        };
        let mut cl = CuccCluster::with_options(spec(2), RuntimeConfig::default());
        let b = cl.alloc(64);
        cl.upload::<u8>(b, &[7; 64]).unwrap();
        let size = cl.checkpoint_to(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
        assert!(!tmp.exists(), "a successful checkpoint leaves no temporary");
        assert_eq!(restored(&path), [7; 64]);

        // The temporary cannot be written: a typed error, the old image kept.
        cl.upload::<u8>(b, &[9; 64]).unwrap();
        std::fs::create_dir(&tmp).unwrap();
        let err = cl.checkpoint_to(&path).unwrap_err();
        assert!(matches!(err, MigrateError::Checkpoint(_)), "{err}");
        std::fs::remove_dir(&tmp).unwrap();
        assert_eq!(restored(&path), [7; 64]);

        // The rename fails (the final name is a directory): a typed error,
        // the directory untouched and no temporary left behind.
        let blocked = dir.join("blocked.ckpt");
        std::fs::create_dir(&blocked).unwrap();
        std::fs::write(blocked.join("keep"), b"x").unwrap();
        let err = cl.checkpoint_to(&blocked).unwrap_err();
        assert!(matches!(err, MigrateError::Checkpoint(_)), "{err}");
        assert!(blocked.join("keep").exists());
        assert!(!dir.join("blocked.ckpt.tmp").exists());

        assert_eq!(cl.checkpoint_to(&path).unwrap(), size);
        assert_eq!(restored(&path), [9; 64]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
