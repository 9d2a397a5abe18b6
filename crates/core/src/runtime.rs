//! The CuCC cluster runtime: CUDA-like API over a simulated CPU cluster,
//! executing launches with the three-phase workflow.

use crate::compile::CompiledKernel;
use crate::error::MigrateError;
use crate::graph::{
    segments_for, uncovered_ranges, GraphOp, LaunchGraph, PendingGather, ReplayStats,
};
use crate::report::{ExecMode, FaultSummary, LaunchReport, PhaseTimes};
use crate::schedule::{
    plan_schedule, schedule_key, LaunchSchedule, ScheduleCache, ScheduleDecision,
};
use crate::state::{Checkpoint, ClusterState};
use crate::stream::{EventId, StreamId, StreamSet};
use crate::transfer::HostScalar;
use cucc_analysis::{
    certify_program, global_extents, LaunchFootprints, Partition, ReplicationCause, ThreePhasePlan,
};
use cucc_cluster::{ClusterSpec, SimCluster};
use cucc_exec::{Arg, BufferId, CertMode, EngineKind, ExecOptions, Program};
use cucc_ir::LaunchConfig;
use cucc_net::{
    allgather_cost_traced, allgather_cost_traced_fallible, broadcast_traced, collective_step_time,
    owner_bytes, partial_gather_cost_traced, AllgatherAlgo, AllgatherPlacement, FaultInjector,
    FaultPlan, GatherSegment,
};
use cucc_trace::{Category, Mark, Timeline, Track, WIRE_BYTES};
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

/// Runtime knobs: the plain data behind [`crate::RunOptions::runtime`].
///
/// Construct through [`crate::RunOptions::builder`] (the one builder), or
/// from [`RuntimeConfig::default`] / [`RuntimeConfig::modeled`] plus struct
/// update; a bare `RuntimeConfig` converts into [`crate::RunOptions`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Functional vs modeled execution.
    pub fidelity: ExecutionFidelity,
    /// Allgather algorithm (paper uses ring-style MPI allgather).
    pub allgather_algo: AllgatherAlgo,
    /// Buffer placement (§2.3: CuCC uses balanced **in-place**).
    pub placement: AllgatherPlacement,
    /// After every functional launch, assert that all written buffers are
    /// identical on every node (the paper's consistency invariant).
    pub verify_consistency: bool,
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
            verify_consistency: true,
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
            verify_consistency: false,
            ..RuntimeConfig::default()
        }
    }
}

/// How a pending (elided) gather meets a consuming launch inside a
/// replay.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PendingAction {
    /// Every resolved read lands on data already resident where it runs.
    Covered,
    /// Gather only the uncovered per-owner sub-ranges.
    Narrow(Vec<GatherSegment>),
    /// Fall back to the full deferred Allgather.
    Materialize,
}

/// A CUDA-context-like handle to a simulated CPU cluster.
#[derive(Debug, Clone)]
pub struct CuccCluster {
    sim: SimCluster,
    config: RuntimeConfig,
    /// Unified event record. All time accounting lives here: launches and
    /// host transfers lay spans out on the simulated clock and advance it;
    /// [`CuccCluster::clock`], [`LaunchReport`] phase times and wire bytes
    /// are derived views over the recorded spans and counters.
    timeline: Timeline,
    /// The single ownership boundary for cluster **membership**: logical
    /// node count, per-node liveness, the monotonically increasing
    /// membership epoch and the interned shape registry. Every layer that
    /// reads the cluster shape — planner, scheduler cache, fault recovery,
    /// consistency checks, the CLI — goes through here. In
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
    /// Memoized launch schedules (graph replay). Keyed on the interned
    /// membership-shape id from [`ClusterState`], so entries survive
    /// membership changes and become valid again when the cluster returns
    /// to a previously seen shape (kill → join back).
    schedule_cache: ScheduleCache,
    /// Elided Allgathers: buffers whose gathered region is currently
    /// inconsistent across nodes (each node holds its own slice plus any
    /// partially gathered extras). Consulted by every consistency check
    /// and materialized lazily — at downloads, graph-external launches,
    /// or when a graph consumer's footprint is not covered. Empty unless
    /// graph replay elided a gather, so legacy paths are untouched.
    pending: BTreeMap<BufferId, PendingGather>,
}

impl CuccCluster {
    /// Build a runtime over `spec.nodes` simulated nodes from the unified
    /// front-end options — a [`crate::RunOptions`] value or anything
    /// convertible into one (a bare [`RuntimeConfig`] included, which is
    /// what keeps legacy `(spec, config)` call sites working verbatim).
    ///
    /// The cluster consumes the runtime knobs ([`crate::RunOptions::runtime`]);
    /// session-level options (stream fan-out, graph iterations, checkpoint
    /// paths) configure the layers above it — the CLI driver and the
    /// serving front-end.
    pub fn with_options(spec: ClusterSpec, options: impl Into<crate::RunOptions>) -> CuccCluster {
        let config = options.into().runtime;
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
            schedule_cache: ScheduleCache::new(),
            pending: BTreeMap::new(),
        }
    }

    /// Logical node ids that are still alive, in ascending order.
    fn alive_ids(&self) -> Vec<u32> {
        self.state.alive_ids()
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

    /// The elastic membership state (epoch, liveness, shape registry).
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

    /// Drain pending async work before a synchronous op touches the clock.
    /// No-op on pure-sync sessions, so the legacy clock arithmetic is
    /// untouched when the stream API is never used.
    fn sync_point(&mut self) -> Result<(), MigrateError> {
        if self.streams.pending() {
            self.synchronize()?;
        }
        Ok(())
    }

    /// Record one host-side transfer span starting at `t0`, reserve the
    /// host lane for it, and return its end time. The single recording
    /// path behind `upload`/`download` and their `_on` stream variants.
    fn record_host_transfer(
        &mut self,
        name: &'static str,
        category: Category,
        t0: f64,
        duration: f64,
    ) -> f64 {
        self.timeline
            .span(name, Track::Host, category, t0, duration);
        let end = t0 + duration;
        // Instantaneous ops (d2h is free in the time model) occupy no link
        // time, so they must not push the host lane's ready time forward.
        if duration > 0.0 {
            self.timeline.reserve_lane(Track::Host, end);
        }
        end
    }

    /// Broadcast `data` to every node's copy of `buf` and record the
    /// transfer starting at `t0`. Returns the broadcast duration. A
    /// broadcast occupies the host's injection link (the host lane), not
    /// the inter-node fabric the collectives serialize on.
    fn perform_h2d(&mut self, buf: BufferId, data: &[u8], t0: f64) -> f64 {
        self.sim.write_all(buf, data);
        let bt = broadcast_traced(
            &self.sim.spec.net,
            self.state.logical_nodes(),
            data.len() as u64,
            &mut self.timeline,
            t0,
            "h2d broadcast",
        );
        self.record_host_transfer("h2d", Category::H2d, t0, bt);
        bt
    }

    /// Validate that `buf` names an allocation and return its byte size.
    fn check_buffer(&self, buf: BufferId, op: &str) -> Result<usize, MigrateError> {
        let pool = self.sim.node(0);
        if buf.index() >= pool.len() {
            return Err(MigrateError::Transfer(format!(
                "{op}: buffer id {} was never allocated",
                buf.index()
            )));
        }
        Ok(pool.size_of(buf))
    }

    /// Validate an upload payload against the destination allocation.
    fn check_upload<T: HostScalar>(&self, buf: BufferId, n: usize) -> Result<(), MigrateError> {
        let size = self.check_buffer(buf, "upload")?;
        if n * T::SIZE != size {
            return Err(MigrateError::Transfer(format!(
                "upload: {n} {} elements ({} bytes) do not fill buffer id {} ({size} bytes)",
                T::NAME,
                n * T::SIZE,
                buf.index()
            )));
        }
        Ok(())
    }

    /// Validate a download source and return its byte size.
    fn check_download<T: HostScalar>(&self, buf: BufferId) -> Result<usize, MigrateError> {
        let size = self.check_buffer(buf, "download")?;
        if size % T::SIZE != 0 {
            return Err(MigrateError::Transfer(format!(
                "download: buffer id {} ({size} bytes) is not a whole number of {} elements",
                buf.index(),
                T::NAME
            )));
        }
        Ok(size)
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

    /// Admit every scripted `join:` event whose time has come. Called at
    /// launch boundaries (and before a checkpoint), never inside a launch's
    /// report window — the joiner's state transfer is recorded as a
    /// broadcast, which launch reports assert they never contain.
    fn process_joins(&mut self) -> Result<(), MigrateError> {
        loop {
            let t = self.timeline.clock();
            let n = self.state.logical_nodes();
            let ripe = self.fault_state.joins_pending(t);
            // A join for a currently-alive slot stays pending — it fires
            // at the first boundary that finds the slot dead (a `kill` at
            // the same timestamp is admitted first, mid-launch).
            let Some(&node) = ripe
                .iter()
                .find(|&&jn| (jn as usize) >= n || !self.state.is_alive(jn as usize))
            else {
                return Ok(());
            };
            self.admit_join(node, t)?;
        }
    }

    /// Admit one join at a launch boundary: revive a dead slot, or grow
    /// the cluster by one when `node` names the next fresh id. The joiner
    /// receives the full cluster state from the first surviving node
    /// (pending gathers are flushed first so that state is globally
    /// consistent), and the membership epoch advances.
    fn admit_join(&mut self, node: u32, t: f64) -> Result<(), MigrateError> {
        let n = self.state.logical_nodes();
        let nn = node as usize;
        self.fault_state.take_join(node, t);
        // The join supersedes whatever kill(s) took this slot down.
        self.fault_state.absorb_kills(node, t);
        if nn < n && self.state.is_alive(nn) {
            // Already a member: the join is a no-op (but stays consumed).
            return Ok(());
        }
        if nn > n {
            return Err(MigrateError::Launch(format!(
                "join:node={node} skips ids — the cluster has {n} node slots; \
                 a growth join must use node={n}"
            )));
        }
        // The joiner must see globally consistent memory: flush deferred
        // gathers before cloning the donor's pool.
        let bufs: Vec<BufferId> = self.pending.keys().copied().collect();
        for buf in bufs {
            self.materialize_buffer(buf);
        }
        let donor = self.read_node();
        if self.config.fidelity == ExecutionFidelity::Functional {
            if nn == n {
                self.sim.add_node_from(donor);
            } else {
                self.sim.copy_node_state(donor, nn);
            }
        }
        if nn == n {
            self.state.grow();
        } else {
            self.state.mark_alive(nn);
        }
        let bytes = self.node_state_bytes();
        let t0 = self.timeline.clock();
        // One donor, one receiver: a 2-party broadcast prices the p2p
        // state transfer and records its wire traffic.
        let dur = broadcast_traced(
            &self.sim.spec.net,
            2,
            bytes,
            &mut self.timeline,
            t0,
            &format!("join: state transfer to node {node}"),
        );
        if dur > 0.0 {
            self.timeline.reserve_lane(Track::Network, t0 + dur);
        }
        self.timeline.advance(dur);
        Ok(())
    }

    /// Host→device copy: broadcast `data` to every node's replica of `buf`,
    /// charged to the clock. Typed and validated. Records the broadcast on
    /// the timeline — including the wire traffic the pre-timeline
    /// accounting never attributed anywhere.
    pub fn upload<T: HostScalar>(&mut self, buf: BufferId, data: &[T]) -> Result<(), MigrateError> {
        self.check_upload::<T>(buf, data.len())?;
        self.sync_point()?;
        // A whole-buffer broadcast makes every replica identical: any
        // deferred gather for this buffer is moot.
        self.pending.remove(&buf);
        let t0 = self.timeline.clock();
        let bt = self.perform_h2d(buf, &T::encode(data), t0);
        self.timeline.advance(bt);
        Ok(())
    }

    /// Device→host copy of a whole buffer. Free in the time model, but
    /// recorded on the timeline's host track. Typed and validated.
    pub fn download<T: HostScalar>(&mut self, buf: BufferId) -> Result<Vec<T>, MigrateError> {
        self.check_download::<T>(buf)?;
        self.sync_point()?;
        // The host observes memory: an elided gather must happen now.
        self.materialize_buffer(buf);
        let t = self.timeline.clock();
        self.record_host_transfer("d2h", Category::D2h, t, 0.0);
        Ok(T::decode(self.sim.read(self.read_node(), buf)))
    }

    /// The pure **planning** stage of a launch: run the launch-time
    /// planner, the sampling profiler and the cost model, and return the
    /// resulting [`LaunchSchedule`] without touching the timeline or any
    /// node's memory. [`CuccCluster::launch`] is exactly
    /// `plan` + [`execute at the current clock`](CuccCluster::launch_on).
    pub fn plan(
        &self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<LaunchSchedule, MigrateError> {
        let active = self.active_nodes();
        if active == 0 {
            return Err(MigrateError::NodeFailure {
                node: None,
                context: format!("planning `{}`", ck.name()),
            });
        }
        plan_schedule(
            ck,
            launch,
            args,
            self.sim.node(self.read_node()),
            &self.sim.spec,
            active,
            &self.config,
        )
    }

    /// Launch a compiled kernel on the cluster (on the default stream,
    /// synchronously: the simulated clock advances past the launch).
    ///
    /// Decides between the three-phase workflow and the replicated fallback
    /// via the launch-time planner, executes (or models) the phases, and
    /// returns the time breakdown.
    pub fn launch(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<LaunchReport, MigrateError> {
        self.sync_point()?;
        // A synchronous launch is a membership boundary: scripted joins
        // whose time has come enter the communicator before planning.
        self.process_joins()?;
        // A graph-external launch must see fully gathered memory: the
        // planner probes node memory and the grid may read anywhere.
        self.materialize_args(args);
        let sched = self.plan(ck, launch, args)?;
        let mark = self.timeline.checkpoint();
        let t0 = self.timeline.clock();
        // A synchronous launch starts at the clock and nothing else is in
        // flight, so the network floor is the clock itself; `t0 + partial`
        // can never round below `t0`, so the legacy serial layout — and its
        // exact f64 arithmetic — is reproduced.
        let (report, _end) = self.execute_schedule(ck, launch, args, &sched, t0, t0, &[])?;
        // The report's times and wire bytes are *derived* from the spans
        // and counters this launch recorded; the invariant check asserts
        // they reproduce the directly-computed legacy values bit-for-bit.
        let report = self.derive_report(mark, report, ck);
        self.timeline.advance(report.time());
        self.verify_written(ck, args)?;
        Ok(report)
    }

    /// Run the dynamic sanitizer on a scratch clone of node 0's memory and
    /// cross-validate the static verifier, the same way `oracle.rs`
    /// validates distribution plans: a dynamic race (or OOB) observed on a
    /// launch the verifier proved race-free (or in-bounds) is a soundness
    /// bug and fails the launch loudly. The sanitizer itself is
    /// observational — findings are stored on [`CuccCluster::sanitize_report`],
    /// not treated as errors (the real execution below still traps OOB).
    fn run_sanitizer(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<(), MigrateError> {
        let pool = self.sim.node(0);
        let dynamic = cucc_exec::sanitize_launch(&ck.kernel, launch, args, pool);
        let extents: Vec<Option<u64>> = ck
            .kernel
            .params
            .iter()
            .zip(args)
            .map(|(p, a)| match (p, a) {
                (cucc_ir::Param::Buffer { elem, .. }, Arg::Buffer(id)) => {
                    Some((pool.size_of(*id) / elem.size()) as u64)
                }
                _ => None,
            })
            .collect();
        let s = cucc_analysis::verify_launch(&ck.kernel, launch, args, &extents, false, None);
        if !dynamic.races.is_empty() && s.race.is_safe() {
            return Err(MigrateError::Launch(format!(
                "sanitizer soundness violation in `{}`: dynamic write race observed \
                 but the static verifier proved race freedom ({})",
                ck.name(),
                dynamic.summary()
            )));
        }
        if !dynamic.oob.is_empty() && s.bounds.is_safe() {
            return Err(MigrateError::Launch(format!(
                "sanitizer soundness violation in `{}`: dynamic out-of-bounds trapped \
                 but the static verifier proved in-bounds ({})",
                ck.name(),
                dynamic.summary()
            )));
        }
        self.last_sanitize = Some(dynamic);
        Ok(())
    }

    // ---- Async command-queue API -----------------------------------

    /// Create a new stream. Work on distinct streams may overlap on the
    /// simulated clock wherever neither hazards nor resource lanes force
    /// an order.
    pub fn stream_create(&mut self) -> StreamId {
        self.streams.create()
    }

    /// Launch a compiled kernel on `stream` without blocking the clock.
    ///
    /// The launch starts at the latest of: the stream's position, its
    /// RAW/WAW/WAR hazard dependencies on the kernel's buffer arguments,
    /// and the node lanes' ready times (a kernel occupies every node).
    /// The Allgather phase additionally waits for the network lane, which
    /// serializes collectives on the inter-node fabric (host broadcasts
    /// ride the host's injection link instead — the host lane).
    ///
    /// Functional execution is eager (memory effects land in submission
    /// order — always a valid serialization, since hazard and event edges
    /// only point to earlier submissions); only the simulated-time layout
    /// is asynchronous. The returned report carries the same per-phase
    /// durations the default stream would produce.
    pub fn launch_on(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
        stream: StreamId,
    ) -> Result<LaunchReport, MigrateError> {
        if args
            .iter()
            .any(|a| matches!(a, Arg::Buffer(b) if self.pending.contains_key(b)))
        {
            // Async launches do not interleave with deferred gathers:
            // drain the streams and materialize synchronously first (only
            // reachable when graph replay left a gather pending).
            self.synchronize()?;
            self.materialize_args(args);
        }
        let sched = self.plan(ck, launch, args)?;
        let mut t0 = self.streams.dep_floor(stream, &sched.reads, &sched.writes);
        for i in 0..self.state.logical_nodes() {
            t0 = t0.max(self.timeline.lane_ready(Track::Node(i as u32)));
        }
        let net_floor = self.timeline.lane_ready(Track::Network);
        let mark = self.timeline.checkpoint();
        let (report, end) = self.execute_schedule(ck, launch, args, &sched, t0, net_floor, &[])?;
        let report = self.derive_report(mark, report, ck);
        self.streams
            .commit(stream, &sched.reads, &sched.writes, end);
        self.verify_written(ck, args)?;
        Ok(report)
    }

    /// Async host→device broadcast on `stream`. Occupies the host lane
    /// (broadcasts serialize on the host's injection link) and overlaps
    /// with kernel compute on the node lanes. The bytes land immediately
    /// (see [`CuccCluster::launch_on`] on eager functional execution).
    /// The generic, validated twin of [`CuccCluster::upload`].
    pub fn upload_on<T: HostScalar>(
        &mut self,
        buf: BufferId,
        data: &[T],
        stream: StreamId,
    ) -> Result<(), MigrateError> {
        self.check_upload::<T>(buf, data.len())?;
        self.pending.remove(&buf);
        let t0 = self
            .streams
            .dep_floor(stream, &[], &[buf])
            .max(self.timeline.lane_ready(Track::Host));
        let bt = self.perform_h2d(buf, &T::encode(data), t0);
        self.streams.commit(stream, &[], &[buf], t0 + bt);
        Ok(())
    }

    /// Async device→host copy on `stream`. Free in the time model but
    /// hazard-ordered: it waits for the last write to `buf` on the
    /// simulated clock, and later writes wait for it (WAR). The data is
    /// returned immediately — eager functional execution guarantees it
    /// already holds the value the stream order will produce. The generic,
    /// validated twin of [`CuccCluster::download`].
    pub fn download_on<T: HostScalar>(
        &mut self,
        buf: BufferId,
        stream: StreamId,
    ) -> Result<Vec<T>, MigrateError> {
        self.check_download::<T>(buf)?;
        if self.pending.contains_key(&buf) {
            // Same policy as `launch_on`: deferred gathers resolve at a
            // synchronous point, not mid-stream.
            self.synchronize()?;
            self.materialize_buffer(buf);
        }
        let t0 = self
            .streams
            .dep_floor(stream, &[buf], &[])
            .max(self.timeline.lane_ready(Track::Host));
        self.record_host_transfer("d2h", Category::D2h, t0, 0.0);
        self.streams.commit(stream, &[buf], &[], t0);
        Ok(T::decode(self.sim.read(self.read_node(), buf)))
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

    // ---- Graph replay ----------------------------------------------

    /// Schedule-cache counters and contents (diagnostics, the CLI's
    /// hit-rate report).
    pub fn schedule_cache(&self) -> &ScheduleCache {
        &self.schedule_cache
    }

    /// Buffers with a currently deferred (elided) gather.
    pub fn pending_gathers(&self) -> Vec<BufferId> {
        self.pending.keys().copied().collect()
    }

    /// [`CuccCluster::plan`] through the [`ScheduleCache`]: a hit returns
    /// the memoized schedule without touching the planner, probe or
    /// profiler; a miss plans fresh and fills the cache. The key covers
    /// kernel identity, launch geometry, argument fingerprints, the
    /// interned membership-shape id and the engine knobs — so entries
    /// planned for an old shape are never reused after a membership
    /// change, yet warm up again when the cluster returns to that shape.
    pub fn plan_cached(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<LaunchSchedule, MigrateError> {
        let shape = self.state.shape_id();
        let key = schedule_key(
            ck,
            launch,
            args,
            self.state.logical_nodes(),
            shape,
            &self.config,
        );
        if let Some(sched) = self.schedule_cache.get(&key) {
            return Ok(sched);
        }
        let sched = self.plan(ck, launch, args)?;
        self.schedule_cache.insert(key, sched.clone());
        Ok(sched)
    }

    /// Replay a captured [`LaunchGraph`] once.
    ///
    /// Ops execute in capture order (a valid topological order of the
    /// dependency DAG). Launch schedules come from the [`ScheduleCache`];
    /// the communication optimizer decides, per gathered region, whether
    /// the Allgather runs in full, is narrowed to uncovered sub-ranges
    /// (partial gather), or is elided entirely (the buffer goes
    /// *pending* — each node keeps just its own slice until a download,
    /// an uncovered consumer, or a graph-external launch materializes
    /// it). Memory after replay + download is bit-identical to running
    /// the same ops uncaptured.
    pub fn graph_replay(&mut self, graph: &LaunchGraph) -> Result<ReplayStats, MigrateError> {
        self.sync_point()?;
        let mut stats = ReplayStats::default();
        let hits0 = self.schedule_cache.hits();
        let misses0 = self.schedule_cache.misses();
        let t_start = self.timeline.clock();
        let mut planned_wire = 0u64;
        let mut gather_wire = 0u64;
        for node in &graph.nodes {
            match &node.op {
                GraphOp::Upload { buf, data } => {
                    self.pending.remove(buf);
                    let t0 = self.timeline.clock();
                    let bt = self.perform_h2d(*buf, data, t0);
                    self.timeline.advance(bt);
                }
                GraphOp::Launch { ck, launch, args } => {
                    // Each replayed launch is a membership boundary, same
                    // as its uncaptured counterpart.
                    self.process_joins()?;
                    let sched = self.plan_cached(ck, *launch, args)?;
                    planned_wire += sched.wire_bytes;
                    let mark = self.timeline.checkpoint();
                    self.replay_launch(
                        ck,
                        *launch,
                        args,
                        &sched,
                        node.footprints.as_ref(),
                        &mut stats,
                    )?;
                    gather_wire += self.timeline.wire_bytes_since(mark);
                }
            }
        }
        stats.cache_hits = self.schedule_cache.hits() - hits0;
        stats.cache_misses = self.schedule_cache.misses() - misses0;
        // Launch-related wire only (full + partial + materialization
        // gathers); captured uploads broadcast the same bytes captured
        // or not, so they are excluded from the savings accounting.
        stats.wire_bytes = gather_wire;
        stats.wire_bytes_saved = planned_wire.saturating_sub(gather_wire);
        stats.time = self.timeline.clock() - t_start;
        Ok(stats)
    }

    // ---- Elasticity: checkpoint and restore ------------------------

    /// Capture the full cluster state at a quiesce barrier: drain every
    /// stream, flush every deferred gather (a checkpoint taken mid-graph
    /// would otherwise record per-node slices), and admit ripe joins so
    /// the image reflects the membership the next launch would see. The
    /// returned [`Checkpoint`] serializes with [`Checkpoint::encode`] and
    /// restores — into the same or a *different* node count — with
    /// [`CuccCluster::restore`].
    pub fn checkpoint(&mut self) -> Result<Checkpoint, MigrateError> {
        self.synchronize()?;
        self.process_joins()?;
        let bufs: Vec<BufferId> = self.pending.keys().copied().collect();
        for buf in bufs {
            self.materialize_buffer(buf);
        }
        let pool = self.sim.node(self.read_node());
        let buffers: Vec<Vec<u8>> = (0..pool.len())
            .map(|i| pool.bytes(BufferId(i as u32)).to_vec())
            .collect();
        Ok(Checkpoint {
            logical_nodes: self.state.logical_nodes() as u32,
            epoch: self.state.epoch(),
            clock: self.timeline.clock(),
            modeled: self.config.fidelity == ExecutionFidelity::Modeled,
            alive: self.state.alive().to_vec(),
            // Only an armed plan has consumption state worth carrying; an
            // empty plan's image stays cursor-free (and byte-identical to
            // the images written before the injector was always present).
            fault_cursor: (!self.config.faults.is_empty()).then(|| self.fault_state.cursor()),
            buffers,
        })
    }

    /// [`CuccCluster::checkpoint`], serialized to a file in the versioned
    /// on-disk format. Returns the byte size written.
    pub fn checkpoint_to(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<u64, MigrateError> {
        let ckpt = self.checkpoint()?;
        let bytes = ckpt.encode();
        std::fs::write(path.as_ref(), &bytes).map_err(|e| {
            MigrateError::Checkpoint(format!("writing {}: {e}", path.as_ref().display()))
        })?;
        Ok(bytes.len() as u64)
    }

    /// Rebuild a cluster from a checkpoint. With `spec.nodes` equal to the
    /// checkpointed node count, liveness and epoch survive the restore
    /// and execution resumes bit-identically to the uninterrupted run.
    /// With a *different* node count the restore is a migration: every
    /// node of the new shape starts alive, one epoch past the image's.
    /// Buffer ids are replayed in allocation order, so handles held
    /// before the checkpoint stay valid against the restored cluster.
    pub fn restore(
        spec: ClusterSpec,
        options: impl Into<crate::RunOptions>,
        ckpt: &Checkpoint,
    ) -> Result<CuccCluster, MigrateError> {
        let options = options.into();
        let modeled = options.runtime.fidelity == ExecutionFidelity::Modeled;
        if ckpt.modeled != modeled {
            return Err(MigrateError::Checkpoint(format!(
                "fidelity mismatch: the checkpoint was taken under {} execution \
                 but the restore config uses {}",
                if ckpt.modeled {
                    "modeled"
                } else {
                    "functional"
                },
                if modeled { "modeled" } else { "functional" },
            )));
        }
        let mut cl = CuccCluster::with_options(spec, options);
        if cl.state.logical_nodes() == ckpt.logical_nodes as usize {
            cl.state = ClusterState::restored(ckpt.alive.clone(), ckpt.epoch);
        } else {
            let n = cl.state.logical_nodes();
            cl.state = ClusterState::restored(vec![true; n], ckpt.epoch + 1);
        }
        for bytes in &ckpt.buffers {
            let id = cl.sim.alloc(bytes.len());
            cl.sim.write_all(id, bytes);
        }
        // Consumed one-shot fault events stay consumed across the restore,
        // and the fault RNG continues its checkpointed sequence.
        if let Some((rng, used)) = &ckpt.fault_cursor {
            if cl.config.faults.is_empty() {
                return Err(MigrateError::Checkpoint(
                    "the checkpoint carries a fault-session cursor but the restore \
                     config has no fault plan"
                        .into(),
                ));
            }
            cl.fault_state
                .restore_cursor(*rng, used)
                .map_err(MigrateError::Checkpoint)?;
        }
        // Resume the simulated clock at the checkpointed floor.
        cl.timeline.advance_to(ckpt.clock);
        let t = cl.timeline.clock();
        cl.streams.settle(t);
        Ok(cl)
    }

    /// [`CuccCluster::restore`] from a file written by
    /// [`CuccCluster::checkpoint_to`].
    pub fn restore_from(
        spec: ClusterSpec,
        options: impl Into<crate::RunOptions>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<CuccCluster, MigrateError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| {
            MigrateError::Checkpoint(format!("reading {}: {e}", path.as_ref().display()))
        })?;
        let ckpt = Checkpoint::decode(&bytes)?;
        CuccCluster::restore(spec, options, &ckpt)
    }

    /// One launch inside a replay: reconcile pending inputs, decide
    /// elision for its own gathers, execute, and record new pending
    /// state.
    fn replay_launch(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
        sched: &LaunchSchedule,
        fps: Option<&LaunchFootprints>,
        stats: &mut ReplayStats,
    ) -> Result<(), MigrateError> {
        self.reconcile_pending(args, sched, fps, stats)?;
        let elide = self.elision_plan(args, sched, fps);

        let mark = self.timeline.checkpoint();
        let t0 = self.timeline.clock();
        let (report, _end) = self.execute_schedule(ck, launch, args, sched, t0, t0, &elide)?;
        let report = self.derive_report(mark, report, ck);
        self.timeline.advance(report.time());

        // Bookkeeping: elided regions go (or stay) pending with fresh
        // slices; fully gathered regions are consistent again.
        if let ScheduleDecision::ThreePhase { plan, part, .. } = &sched.decision {
            for (idx, region) in plan.buffers.iter().enumerate() {
                let Arg::Buffer(id) = args[region.param.index()] else {
                    continue;
                };
                let unit = region.unit * part.chunks_per_node;
                if elide.get(idx).copied().unwrap_or(false) {
                    stats.gathers_elided += 1;
                    self.pending.insert(
                        id,
                        PendingGather {
                            base: region.base,
                            unit,
                            nodes: self.state.logical_nodes() as u64,
                            extras: Vec::new(),
                        },
                    );
                } else if unit > 0 {
                    stats.gathers_full += 1;
                    // `reconcile_pending` only lets a matching-geometry
                    // region write a pending buffer, so the full gather
                    // covered the whole pending span.
                    self.pending.remove(&id);
                }
            }
        }
        self.verify_written(ck, args)?;
        Ok(())
    }

    /// Walk the pending buffers this launch touches and resolve each:
    /// covered (nothing to do), narrowed (partial gather of the uncovered
    /// sub-ranges), or materialized (full fallback gather).
    fn reconcile_pending(
        &mut self,
        args: &[Arg],
        sched: &LaunchSchedule,
        fps: Option<&LaunchFootprints>,
        stats: &mut ReplayStats,
    ) -> Result<(), MigrateError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut touched: Vec<BufferId> = sched
            .reads
            .iter()
            .chain(sched.writes.iter())
            .copied()
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for id in touched {
            let Some(pg) = self.pending.get(&id).cloned() else {
                continue;
            };
            match self.pending_action(args, sched, fps, id, &pg) {
                PendingAction::Covered => {}
                PendingAction::Narrow(segs) => self.partial_gather_pending(id, &segs, stats),
                PendingAction::Materialize => {
                    self.materialize_buffer(id);
                    stats.materializations += 1;
                }
            }
        }
        Ok(())
    }

    /// Decide how a pending buffer meets one consuming launch. Sound
    /// fallback in every uncertain case is the full gather.
    fn pending_action(
        &self,
        args: &[Arg],
        sched: &LaunchSchedule,
        fps: Option<&LaunchFootprints>,
        id: BufferId,
        pg: &PendingGather,
    ) -> PendingAction {
        // Policy: a session with an armed fault plan never elides; if one
        // inherits pending state, resolve it the safe way.
        if !self.config.faults.is_empty() {
            return PendingAction::Materialize;
        }
        // Replicated consumers run the whole grid on every node: any node
        // may read anywhere.
        let ScheduleDecision::ThreePhase { plan, part, .. } = &sched.decision else {
            return PendingAction::Materialize;
        };
        let Some(fps) = fps else {
            return PendingAction::Materialize;
        };
        let n = self.state.logical_nodes() as u64;
        if pg.nodes != n || pg.unit == 0 {
            return PendingAction::Materialize;
        }
        // Writes: only a same-geometry gathered region may overwrite a
        // pending buffer (each node then rewrites exactly its own slice,
        // which the probe proved dense and slice-local).
        if sched.writes.contains(&id) {
            let matching = plan.buffers.iter().any(|r| {
                matches!(args.get(r.param.index()), Some(Arg::Buffer(b)) if *b == id)
                    && r.base == pg.base
                    && r.unit * part.chunks_per_node == pg.unit
            });
            if !matching {
                return PendingAction::Materialize;
            }
        }
        // Reads: every read of this buffer must have a `Must` footprint;
        // partial-phase reads of node `j` must be covered by node `j`'s
        // resident data, callback-phase reads by data resident everywhere.
        let pbn = part.partial_blocks_per_node;
        let mut per_node: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n as usize];
        let mut everywhere: Vec<(u64, u64)> = Vec::new();
        let mut saw_read = false;
        for (p, fp) in &fps.reads {
            if !matches!(args.get(p.index()), Some(Arg::Buffer(b)) if *b == id) {
                continue;
            }
            saw_read = true;
            if !fp.is_must() {
                return PendingAction::Materialize;
            }
            match fp.byte_ranges(part.callback_start..plan.num_blocks) {
                Some(rs) => everywhere.extend(rs),
                None => return PendingAction::Materialize,
            }
            for j in 0..n {
                match fp.byte_ranges(j * pbn..(j + 1) * pbn) {
                    Some(rs) => per_node[j as usize].extend(rs),
                    None => return PendingAction::Materialize,
                }
            }
        }
        if sched.reads.contains(&id) && !saw_read {
            // The schedule says the kernel reads this buffer but the
            // footprints do not show it — never elide on a mismatch.
            return PendingAction::Materialize;
        }
        let uncovered = uncovered_ranges(pg, &per_node, &everywhere);
        if uncovered.is_empty() {
            PendingAction::Covered
        } else {
            PendingAction::Narrow(segments_for(pg, &uncovered))
        }
    }

    /// Which of this launch's own gathered regions can be deferred: a
    /// three-phase launch under an empty fault plan, unaliased region
    /// buffers, and no callback-phase read touching the gathered span.
    fn elision_plan(
        &self,
        args: &[Arg],
        sched: &LaunchSchedule,
        fps: Option<&LaunchFootprints>,
    ) -> Vec<bool> {
        if !self.config.faults.is_empty() {
            return Vec::new();
        }
        let ScheduleDecision::ThreePhase { plan, part, .. } = &sched.decision else {
            return Vec::new();
        };
        let Some(fps) = fps else {
            return Vec::new();
        };
        let n = self.state.logical_nodes() as u64;
        // Aliased region buffers would share one pending entry: keep the
        // full gathers.
        let mut region_bufs = std::collections::BTreeSet::new();
        for region in &plan.buffers {
            match args.get(region.param.index()) {
                Some(Arg::Buffer(id)) => {
                    if !region_bufs.insert(*id) {
                        return Vec::new();
                    }
                }
                _ => return Vec::new(),
            }
        }
        let mut elide = vec![false; plan.buffers.len()];
        for (idx, region) in plan.buffers.iter().enumerate() {
            let unit = region.unit * part.chunks_per_node;
            if unit == 0 {
                continue;
            }
            let Some(Arg::Buffer(id)) = args.get(region.param.index()) else {
                continue;
            };
            let span = (region.base, region.base + unit * n);
            // Callback blocks run redundantly on every node *after* the
            // gather: any callback-phase read of the gathered span needs
            // the gather. (Partial-phase reads precede the gather in both
            // worlds, so they never constrain elision.)
            let mut ok = true;
            for (p, fp) in &fps.reads {
                if !matches!(args.get(p.index()), Some(Arg::Buffer(b)) if b == id) {
                    continue;
                }
                match fp.byte_ranges(part.callback_start..plan.num_blocks) {
                    Some(rs) => {
                        if rs.iter().any(|&(lo, hi)| lo < span.1 && hi > span.0) {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            elide[idx] = ok;
        }
        elide
    }

    /// Run (and trace) a deferred full Allgather for `buf` at the current
    /// clock, advancing past it. No-op when the buffer is not pending.
    /// Recorded *outside* any launch's report window, so launch reports
    /// keep their bit-for-bit derived invariants.
    fn materialize_buffer(&mut self, buf: BufferId) {
        let Some(pg) = self.pending.remove(&buf) else {
            return;
        };
        if pg.is_empty() {
            return;
        }
        let t0 = self.timeline.clock();
        let label = "materialize gather";
        let cost = if self.config.fidelity == ExecutionFidelity::Functional {
            self.sim.allgather_region_traced(
                buf,
                pg.base,
                pg.unit,
                self.config.allgather_algo,
                self.config.placement,
                &mut self.timeline,
                t0,
                label,
            )
        } else {
            allgather_cost_traced(
                pg.nodes as usize,
                pg.unit,
                &self.sim.spec.net,
                self.config.allgather_algo,
                self.config.placement,
                &mut self.timeline,
                t0,
                label,
            )
        };
        if cost.time > 0.0 {
            self.timeline.reserve_lane(Track::Network, t0 + cost.time);
        }
        self.timeline.advance(cost.time);
    }

    /// Materialize every pending buffer among `args` (graph-external
    /// launches). No-op when nothing is pending.
    fn materialize_args(&mut self, args: &[Arg]) {
        if self.pending.is_empty() {
            return;
        }
        for a in args {
            if let Arg::Buffer(id) = a {
                self.materialize_buffer(*id);
            }
        }
    }

    /// Narrow a pending buffer: gather only `segs` (per-owner uncovered
    /// sub-ranges) and remember them as resident-everywhere extras.
    fn partial_gather_pending(
        &mut self,
        buf: BufferId,
        segs: &[GatherSegment],
        stats: &mut ReplayStats,
    ) {
        let Some(pg) = self.pending.get(&buf) else {
            return;
        };
        let (base, len, nodes) = (pg.base, pg.len(), pg.nodes);
        let t0 = self.timeline.clock();
        let label = "partial gather";
        let cost = if self.config.fidelity == ExecutionFidelity::Functional {
            self.sim.partial_gather_region_traced(
                buf,
                base,
                len,
                segs,
                self.config.allgather_algo,
                self.config.placement,
                &mut self.timeline,
                t0,
                label,
            )
        } else {
            let per_owner = owner_bytes(nodes as usize, segs);
            partial_gather_cost_traced(
                &per_owner,
                &self.sim.spec.net,
                self.config.allgather_algo,
                self.config.placement,
                &mut self.timeline,
                t0,
                label,
            )
        };
        if cost.time > 0.0 {
            self.timeline.reserve_lane(Track::Network, t0 + cost.time);
        }
        self.timeline.advance(cost.time);
        stats.gathers_narrowed += 1;
        let pg = self.pending.get_mut(&buf).expect("pending entry");
        let mut extras = std::mem::take(&mut pg.extras);
        extras.extend(segs.iter().map(|s| (base + s.lo, base + s.hi)));
        pg.extras = crate::graph::normalize(extras);
    }

    /// The paper's consistency invariant: after a functional launch every
    /// written buffer must be identical on every node.
    fn verify_written(&self, ck: &CompiledKernel, args: &[Arg]) -> Result<(), MigrateError> {
        if self.config.verify_consistency && self.config.fidelity == ExecutionFidelity::Functional {
            // Dead nodes keep stale pre-recovery bytes; the invariant holds
            // over the surviving communicator (every node, absent faults).
            let survivors: Vec<usize> = self.alive_ids().iter().map(|&i| i as usize).collect();
            for p in ck.kernel.written_global_buffers() {
                let Arg::Buffer(id) = args[p.index()] else {
                    continue;
                };
                // A pending (elided-gather) buffer is inconsistent by
                // design until it is materialized; the invariant is
                // checked at materialization points instead.
                if self.pending.contains_key(&id) {
                    continue;
                }
                if !self.sim.consistent_among(id, &survivors) {
                    return Err(MigrateError::Launch(format!(
                        "consistency violation: buffer `{}` differs across nodes after `{}`",
                        ck.kernel.params[p.index()].name(),
                        ck.name()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Rebuild a launch report's scalar accounting from the timeline
    /// window the launch recorded, asserting it matches the values the
    /// executor computed directly from its walk bit-for-bit (`retry` and
    /// `reexec` are timeline views on both sides: their definitions are
    /// scans).
    fn derive_report(&self, mark: Mark, report: LaunchReport, ck: &CompiledKernel) -> LaunchReport {
        let tl = &self.timeline;
        let derived = PhaseTimes {
            // Phase spans are one per node with identical durations
            // (stragglers stretch individual spans; the phase time is the
            // per-node maximum either way).
            partial: tl.max_in_since(mark, Category::Partial),
            // Summing the per-collective parent spans in recording order
            // reproduces the legacy per-region accumulation exactly.
            allgather: tl.time_in_since(mark, Category::Allgather),
            callback: tl.max_in_since(mark, Category::Callback),
            broadcast: tl.time_in_since(mark, Category::Broadcast),
            // Retry spans are wasted wire time: a flat in-order sum.
            retry: tl.time_in_since(mark, Category::Retry),
            // Each re-execution round is recorded uniformly on every node
            // in the communicator at that moment. Membership can shrink
            // (deaths) and grow (mid-launch joins) between rounds, so a
            // track holds only the rounds its node took part in; the
            // phase time is the slowest track's in-order sum.
            reexec: tl.max_track_sum_since(mark, Category::Reexec),
        };
        let derived_wire = tl.wire_bytes_since(mark);
        assert_eq!(
            derived.partial.to_bits(),
            report.times.partial.to_bits(),
            "timeline-derived partial time diverged for `{}`",
            ck.name()
        );
        assert_eq!(
            derived.allgather.to_bits(),
            report.times.allgather.to_bits(),
            "timeline-derived allgather time diverged for `{}`",
            ck.name()
        );
        assert_eq!(
            derived.callback.to_bits(),
            report.times.callback.to_bits(),
            "timeline-derived callback time diverged for `{}`",
            ck.name()
        );
        assert_eq!(
            derived.broadcast.to_bits(),
            0.0f64.to_bits(),
            "kernel launches must not record broadcasts (`{}`)",
            ck.name()
        );
        assert_eq!(
            derived.retry.to_bits(),
            report.times.retry.to_bits(),
            "timeline-derived retry time diverged for `{}`",
            ck.name()
        );
        assert_eq!(
            derived.reexec.to_bits(),
            report.times.reexec.to_bits(),
            "timeline-derived re-execution time diverged for `{}`",
            ck.name()
        );
        assert_eq!(
            derived_wire,
            report.wire_bytes,
            "timeline-derived wire bytes diverged for `{}`",
            ck.name()
        );
        LaunchReport {
            times: derived,
            wire_bytes: derived_wire,
            ..report
        }
    }

    /// Compile the kernel for a compiled-engine launch and attach range
    /// certificates resolved against the live allocation sizes: certified
    /// accesses take the engine's unchecked fast path ([`CertMode::Elide`]).
    /// Under `--sanitize` every certificate is instead *cross-validated* at
    /// runtime ([`CertMode::Validate`]) — a wrong certificate becomes a
    /// hard `CertificateViolation` error, never UB.
    fn compile_certified(
        &self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<Program, MigrateError> {
        let mut prog = Program::compile(&ck.kernel, launch, args)?;
        let pool = self.sim.node(0);
        let exts = global_extents(&prog, |b| (b.index() < pool.len()).then(|| pool.size_of(b)));
        let mode = if self.config.sanitize {
            CertMode::Validate
        } else {
            CertMode::Elide
        };
        certify_program(&mut prog, &exts, mode);
        Ok(prog)
    }

    /// The **execution** stage: lay a planned schedule onto the timeline
    /// starting at `t0` (Allgather additionally floored at `net_floor`,
    /// the network lane's ready time) and run the functional blocks.
    /// Returns the launch report and the end time of the launch's last
    /// span. Does not advance the clock — the caller owns that (serially
    /// in [`CuccCluster::launch`], via stream commit in
    /// [`CuccCluster::launch_on`]).
    ///
    /// `elide` (parallel to the three-phase plan's `buffers`, or empty for
    /// "gather all") marks regions whose Allgather the graph replayer
    /// defers: they produce no collective spans, no wire bytes, and no
    /// functional gather — each node keeps only its own slice.
    #[allow(clippy::too_many_arguments)]
    fn execute_schedule(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
        sched: &LaunchSchedule,
        t0: f64,
        net_floor: f64,
        elide: &[bool],
    ) -> Result<(LaunchReport, f64), MigrateError> {
        if self.config.sanitize && self.config.fidelity == ExecutionFidelity::Functional {
            self.run_sanitizer(ck, launch, args)?;
        }
        match &sched.decision {
            ScheduleDecision::ThreePhase {
                plan,
                part,
                has_tail_block,
            } => self.execute_three_phase(
                ck,
                launch,
                args,
                sched,
                plan.clone(),
                part.clone(),
                *has_tail_block,
                t0,
                net_floor,
                elide,
            ),
            ScheduleDecision::Replicated { cause } => {
                self.execute_replicated(ck, launch, args, sched, cause.clone(), t0)
            }
        }
    }

    /// Three-phase execution — the only one. Every launch walks the
    /// fault-aware protocol; when the plan fires nothing (always, for the
    /// empty plan) stretches return durations unchanged, the fallible
    /// collective lays out the clean collective, the recovery loop runs
    /// its body once, and the result is the paper's plain §4 workflow with
    /// the pre-fault arithmetic, bit for bit.
    ///
    /// Recovery protocol on a confirmed node death:
    /// 1. evict the dead node from the surviving communicator;
    /// 2. if the distributed chunk count divides the survivor count,
    ///    re-partition the whole block space across survivors, have each
    ///    survivor re-execute exactly the blocks its new slice adds
    ///    (recorded as `Reexec` spans), and restart the Allgather phase
    ///    over the survivors;
    /// 3. otherwise §6 balance is violated: degrade to replicated
    ///    execution on the survivors (or fail with
    ///    [`MigrateError::Degraded`] when the plan forbids it).
    ///
    /// All functional memory effects are deferred until the timing walk is
    /// complete, so each block runs at most once per surviving pool —
    /// read-modify-write kernels stay correct through recovery.
    #[allow(clippy::too_many_arguments)]
    fn execute_three_phase(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
        sched: &LaunchSchedule,
        tp: ThreePhasePlan,
        part: Partition,
        has_tail_block: bool,
        t0: f64,
        net_floor: f64,
        elide: &[bool],
    ) -> Result<(LaunchReport, f64), MigrateError> {
        let mark = self.timeline.checkpoint();
        let elided = |idx: usize| elide.get(idx).copied().unwrap_or(false);
        let mut survivors: Vec<u32> = self.alive_ids();
        let initial = survivors.clone();
        let n0 = survivors.len() as u64;
        let pbn = part.partial_blocks_per_node;
        let t_partial = sched.times.partial;

        // ---- Phase 1: partial block execution (stragglers stretch) -----
        let mut t_partial_eff = 0.0f64;
        for &node in &survivors {
            let d = self.fault_state.stretch(node, t0, t_partial);
            self.timeline.span(
                format!("{}: partial ({pbn} blocks)", ck.name()),
                Track::Node(node),
                Category::Partial,
                t0,
                d,
            );
            t_partial_eff = t_partial_eff.max(d);
        }

        // ---- Phase 2: Allgather with retry, eviction and re-partition --
        // `fl(t0 + t_partial) >= t0` for non-negative durations, so with
        // `net_floor == t0` (the synchronous path) the max is exactly
        // `t0 + t_partial` — serial layouts are preserved bit-for-bit. An
        // async launch may instead wait here for the network lane (an
        // in-flight h2d broadcast).
        let t_ag_start = (t0 + t_partial_eff).max(net_floor);
        // Everything the phase has spent so far — collectives, retries,
        // re-execution rounds — summed in order; the walk's position is
        // always `t_ag_start + t_blocked`, which is also how the plain
        // workflow lays consecutive collectives out.
        let mut t_blocked = 0.0f64;
        let mut t_cursor = t_ag_start;
        // What the report states, accumulated as the walk goes: the
        // completed collectives' analytic time and wire bytes (plus join
        // state transfers).
        let mut t_allgather = 0.0f64;
        let mut wire_bytes = 0u64;
        let mut failures = 0u32;
        let mut retries_total = 0u32;
        let mut degraded_ctx: Option<String> = None;
        // The §6 balance invariant: the total distributed chunk count is
        // fixed by the plan; a survivor set can take over the dead node's
        // slice iff it divides that count evenly.
        let dist_chunks = part.chunks_per_node * n0;
        let mut cur_cpn = part.chunks_per_node;
        let mut cur_pbn = pbn;
        let mut slices = Repartition {
            per_block: if pbn > 0 { t_partial / pbn as f64 } else { 0.0 },
            owned: (0..n0).map(|i| i * pbn..(i + 1) * pbn).collect(),
            passes: Vec::new(),
            reexec_blocks: 0,
        };
        // Nodes admitted mid-launch via a `join:` event (they are not in
        // `initial`): the functional section first hands each one the
        // donor's launch-entry pool, and their tracks join the lane floor.
        let mut joined: Vec<u32> = Vec::new();
        // Joins that §6 rejects mid-launch (the in-flight chunk count does
        // not divide the enlarged communicator) wait for the next launch
        // boundary; the cluster keeps its current shape for this launch.
        let mut deferred_joins: Vec<u32> = Vec::new();

        'recover: loop {
            // Mid-launch joins: before (re)starting the Allgather phase
            // over the current communicator, admit any scripted joiner
            // that is ripe. Only existing node slots can rejoin mid-launch
            // — cluster *growth* is a launch-boundary operation — and the
            // §6 balance rule gates admission exactly like the death-side
            // re-partition below.
            while let Some(node) =
                self.fault_state
                    .joins_pending(t_cursor)
                    .into_iter()
                    .find(|&jn| {
                        // A node that died *this* launch rejoins at the next
                        // launch boundary: its pool already ran partial blocks
                        // here, and a mid-launch readmission would re-apply
                        // them (wrong for read-modify-write kernels).
                        (jn as usize) < self.state.logical_nodes()
                            && !survivors.contains(&jn)
                            && !initial.contains(&jn)
                            && !deferred_joins.contains(&jn)
                    })
            {
                let m_new = survivors.len() as u64 + 1;
                if dist_chunks % m_new != 0 {
                    deferred_joins.push(node);
                    continue;
                }
                self.fault_state.take_join(node, t_cursor);
                // The join supersedes the kill(s) that took the slot down.
                self.fault_state.absorb_kills(node, t_cursor);
                self.state.mark_alive(node as usize);
                let slot = survivors
                    .iter()
                    .position(|&s| s > node)
                    .unwrap_or(survivors.len());
                survivors.insert(slot, node);
                if !joined.contains(&node) {
                    joined.push(node);
                }
                // Re-partition onto the enlarged communicator. The joiner
                // owns nothing yet — an empty range at its new slice
                // start — so the slice diff hands it exactly its full new
                // slice.
                cur_cpn = dist_chunks / m_new;
                cur_pbn = cur_cpn * tp.chunk_blocks;
                let start = slot as u64 * cur_pbn;
                slices.owned.insert(slot, start..start);
                // The joiner first receives the launch-entry cluster state
                // from one survivor (point-to-point on the wire), then
                // re-executes its slice like any re-partition.
                let xfer_bytes = self.node_state_bytes();
                let xfer = collective_step_time(&self.sim.spec.net, xfer_bytes);
                if xfer_bytes > 0 {
                    self.timeline
                        .counter(WIRE_BYTES, Track::Network, t_cursor, xfer_bytes);
                    wire_bytes += xfer_bytes;
                }
                let t_round = self.repartition_round(
                    &mut slices,
                    &survivors,
                    cur_pbn,
                    t_cursor,
                    Some((node, xfer)),
                    format!("{}: re-exec after node {node} join", ck.name()),
                );
                t_blocked += t_round;
                t_cursor = t_ag_start + t_blocked;
                // The Allgather phase restarts over the enlarged
                // communicator.
                continue 'recover;
            }
            let m = survivors.len();
            for (idx, region) in tp.buffers.iter().enumerate() {
                if elided(idx) {
                    continue;
                }
                let unit = region.unit * cur_cpn;
                let label = format!(
                    "allgather {}",
                    ck.kernel.params[region.param.index()].name()
                );
                let res = allgather_cost_traced_fallible(
                    m,
                    unit,
                    &self.sim.spec.net,
                    self.config.allgather_algo,
                    self.config.placement,
                    &survivors,
                    &mut self.fault_state,
                    &mut self.timeline,
                    t_cursor,
                    &label,
                );
                match res {
                    Ok(g) => {
                        retries_total += g.retries;
                        t_blocked += g.retry_time + g.cost.time;
                        t_cursor = t_ag_start + t_blocked;
                        t_allgather += g.cost.time;
                        wire_bytes += g.cost.wire_bytes;
                    }
                    Err(abort) => {
                        retries_total += abort.retries;
                        t_blocked += abort.retry_time;
                        t_cursor = t_ag_start + t_blocked;
                        let Some(slot) = abort.dead_slot else {
                            return Err(MigrateError::Timeout {
                                context: format!("{label} in `{}`", ck.name()),
                                retries: abort.retries,
                            });
                        };
                        failures += 1;
                        let dead = survivors.remove(slot);
                        // The membership epoch advances; shape-keyed cached
                        // schedules stay put and become valid again only if
                        // this exact shape returns (kill → join back).
                        self.state.mark_dead(dead as usize);
                        slices.owned.remove(slot);
                        if survivors.is_empty() {
                            return Err(MigrateError::NodeFailure {
                                node: Some(dead),
                                context: format!("{label} in `{}`", ck.name()),
                            });
                        }
                        let m_new = survivors.len() as u64;
                        let ctx = format!("node {dead} died during {label} in `{}`", ck.name());
                        if dist_chunks % m_new != 0 {
                            // Re-partitioning would break Allgather balance.
                            if !self.fault_state.allow_degraded() {
                                return Err(MigrateError::Degraded {
                                    context: ctx,
                                    survivors: m_new as u32,
                                });
                            }
                            degraded_ctx = Some(ctx);
                            break 'recover;
                        }
                        // Re-partition: survivor slot j takes the j-th of
                        // m_new equal slices.
                        cur_cpn = dist_chunks / m_new;
                        cur_pbn = cur_cpn * tp.chunk_blocks;
                        let t_round = self.repartition_round(
                            &mut slices,
                            &survivors,
                            cur_pbn,
                            t_cursor,
                            None,
                            format!("{}: re-exec after node {dead} death", ck.name()),
                        );
                        t_blocked += t_round;
                        t_cursor = t_ag_start + t_blocked;
                        // The whole Allgather phase restarts over the
                        // surviving communicator.
                        continue 'recover;
                    }
                }
            }
            break 'recover;
        }
        let functional = self.config.fidelity == ExecutionFidelity::Functional;

        // ---- Degraded completion: replicated re-run on survivors -------
        if let Some(ctx) = degraded_ctx {
            let t_deg = sched.degraded_time;
            let mut t_round = 0.0f64;
            for &node in &survivors {
                let d = self.fault_state.stretch(node, t_cursor, t_deg);
                t_round = t_round.max(d);
            }
            for &node in &survivors {
                self.timeline.span(
                    format!(
                        "{}: degraded replicated re-run ({} blocks)",
                        ck.name(),
                        launch.num_blocks()
                    ),
                    Track::Node(node),
                    Category::Reexec,
                    t_cursor,
                    t_round,
                );
            }
            slices.reexec_blocks += launch.num_blocks() * survivors.len() as u64;
            let end = t_cursor + t_round;
            let mut node_stats = sched.profile.total;
            if functional {
                // Partial results may be mid-gather; the simple, correct
                // recovery re-runs the whole grid from the (unmodified by
                // this launch's deferred passes) inputs — so the partial
                // and re-exec passes above are intentionally *not* run.
                // Mid-launch joiners first receive the launch-entry state
                // from a donor pool (functional effects are deferred, so
                // the donor still holds it).
                for &jn in &joined {
                    self.sim.copy_node_state(initial[0] as usize, jn as usize);
                }
                node_stats = self.run_grid_on(&survivors, ck, launch, args)?;
            }
            for &node in &survivors {
                node_stats.emit_counters(&mut self.timeline, Track::Node(node), t0);
            }
            for &node in initial.iter().chain(&joined) {
                self.timeline.reserve_lane(Track::Node(node), end);
            }
            if t_blocked > 0.0 {
                self.timeline.reserve_lane(Track::Network, t_cursor);
            }
            let report = LaunchReport {
                mode: ExecMode::Replicated {
                    cause: ReplicationCause::NodeLoss(ctx),
                },
                times: PhaseTimes {
                    partial: t_partial_eff,
                    allgather: t_allgather,
                    ..self.recovery_times(mark)
                },
                node_stats,
                wire_bytes,
                faults: FaultSummary {
                    failures,
                    retries: retries_total,
                    reexecuted_blocks: slices.reexec_blocks,
                    degraded: true,
                },
            };
            return Ok((report, end));
        }

        // ---- Phase 3: callback on survivors ----------------------------
        if t_blocked > 0.0 {
            // Visualization-only: every survivor blocks in the collective
            // (including its retry and re-execution windows).
            for &node in &survivors {
                self.timeline.child_span(
                    "allgather",
                    Track::Node(node),
                    Category::Allgather,
                    t_ag_start,
                    t_blocked,
                );
            }
        }
        let t_callback = sched.times.callback;
        let mut t_cb_eff = 0.0f64;
        for &node in &survivors {
            let d = self.fault_state.stretch(node, t_cursor, t_callback);
            self.timeline.span(
                format!("{}: callback ({} blocks)", ck.name(), part.callback_blocks),
                Track::Node(node),
                Category::Callback,
                t_cursor,
                d,
            );
            t_cb_eff = t_cb_eff.max(d);
        }
        let end = t_cursor + t_cb_eff;

        // ---- Deferred functional execution ------------------------------
        let callback_full = part.callback_blocks - u64::from(has_tail_block);
        let mut node_stats = sched.profile.per_block.scaled(pbn + callback_full);
        if has_tail_block {
            node_stats += sched.profile.tail_block;
        }
        if functional {
            let opts = ExecOptions {
                engine: self.config.engine,
                node_threads: self.config.node_threads,
                // Three-phase plans are Allgather-distributable — per-block
                // write intervals are disjoint — so intra-node block
                // parallelism is safe to enable here.
                block_parallel: true,
            };
            // Compile once per launch; every pass reuses it.
            let prog = match opts.engine {
                EngineKind::Lane => Some(self.compile_certified(ck, launch, args)?),
                EngineKind::TreeWalk => None,
            };
            // Mid-launch joiners first receive the launch-entry state from
            // a donor pool; their blocks then come from the re-exec passes
            // (Pass B) recorded at admission time.
            for &jn in &joined {
                self.sim.copy_node_state(initial[0] as usize, jn as usize);
            }
            // Pass A: the original partial slices, on every node that was
            // alive at launch entry (mid-launch deaths are detected at the
            // collective; the dead pool's stale bytes are never gathered).
            let mut assignments = vec![0u64..0u64; self.state.logical_nodes()];
            for (j, &node) in initial.iter().enumerate() {
                assignments[node as usize] = j as u64 * pbn..(j as u64 + 1) * pbn;
            }
            let stats = run_pass(
                &mut self.sim,
                prog.as_ref(),
                ck,
                launch,
                args,
                &assignments,
                &opts,
            )?;
            let first = survivors[0] as usize;
            node_stats = stats[first];
            // Pass B: recovery re-execution rounds, in order.
            for pass in &slices.passes {
                let s = run_pass(&mut self.sim, prog.as_ref(), ck, launch, args, pass, &opts)?;
                node_stats += s[first];
            }
            // Pass C: the Allgather over the surviving communicator, with
            // the final re-partitioned unit.
            let nodes: Vec<usize> = survivors.iter().map(|&s| s as usize).collect();
            for (idx, region) in tp.buffers.iter().enumerate() {
                if elided(idx) {
                    continue;
                }
                let unit = region.unit * cur_cpn;
                let Arg::Buffer(id) = args[region.param.index()] else {
                    return Err(MigrateError::Launch(format!(
                        "parameter {} is not a buffer",
                        region.param
                    )));
                };
                if unit > 0 {
                    self.sim.allgather_region_among(
                        id,
                        region.base,
                        unit,
                        &nodes,
                        self.config.allgather_algo,
                        self.config.placement,
                    );
                }
            }
            // Pass D: callbacks on survivors.
            let mut cb = vec![0u64..0u64; self.state.logical_nodes()];
            for &node in &survivors {
                cb[node as usize] = part.callback_start..tp.num_blocks;
            }
            let cb_stats = run_pass(&mut self.sim, prog.as_ref(), ck, launch, args, &cb, &opts)?;
            node_stats += cb_stats[first];
        }

        // Per-node execution statistics as counter samples at launch start.
        for &node in &survivors {
            node_stats.emit_counters(&mut self.timeline, Track::Node(node), t0);
        }
        // The launch occupies every node lane until its last phase ends,
        // and the network lane for the Allgather window.
        for &node in initial.iter().chain(&joined) {
            self.timeline.reserve_lane(Track::Node(node), end);
        }
        if t_blocked > 0.0 {
            self.timeline.reserve_lane(Track::Network, t_cursor);
        }

        let report = LaunchReport {
            mode: ExecMode::ThreePhase {
                plan: tp,
                nodes: survivors.len() as u64,
                partial_blocks_per_node: cur_pbn,
                callback_blocks: part.callback_blocks,
            },
            times: PhaseTimes {
                partial: t_partial_eff,
                allgather: t_allgather,
                callback: t_cb_eff,
                ..self.recovery_times(mark)
            },
            node_stats,
            wire_bytes,
            faults: FaultSummary {
                failures,
                retries: retries_total,
                reexecuted_blocks: slices.reexec_blocks,
                degraded: false,
            },
        };
        Ok((report, end))
    }

    /// One re-partition round of the recovery walk, the same for a death
    /// and for a mid-launch join: survivor slot `j` takes the `j`-th slice
    /// of `pbn` blocks and re-executes only what that slice adds over the
    /// blocks its pool already holds (`slices.owned`, updated in place);
    /// the added ranges are queued as deferred passes. A `joiner` — its
    /// node id and state-transfer time — receives the cluster state before
    /// its re-run. The round's critical path is recorded as one `Reexec`
    /// span starting at `t` on every survivor and returned.
    fn repartition_round(
        &mut self,
        slices: &mut Repartition,
        survivors: &[u32],
        pbn: u64,
        t: f64,
        joiner: Option<(u32, f64)>,
        label: String,
    ) -> f64 {
        let mut pass_a = vec![0u64..0u64; self.state.logical_nodes()];
        let mut pass_b = vec![0u64..0u64; self.state.logical_nodes()];
        let mut t_round = 0.0f64;
        for (j, &node) in survivors.iter().enumerate() {
            let new = j as u64 * pbn..(j as u64 + 1) * pbn;
            let old = slices.owned[j].clone();
            let left = new.start..old.start.clamp(new.start, new.end);
            let right = old.end.clamp(new.start, new.end)..new.end;
            let blocks = (left.end - left.start) + (right.end - right.start);
            let mut d = self
                .fault_state
                .stretch(node, t, slices.per_block * blocks as f64);
            if let Some((_, xfer)) = joiner.filter(|&(jn, _)| jn == node) {
                // The state transfer precedes the joiner's re-run.
                d += xfer;
            }
            t_round = t_round.max(d);
            slices.reexec_blocks += blocks;
            pass_a[node as usize] = left;
            pass_b[node as usize] = right;
            // The pool now holds results for old ∪ new — recording only
            // `new` would forget blocks the node already ran and
            // re-execute them after a later death (double-applying
            // non-idempotent kernels). Consecutive slices of one survivor
            // always overlap, so the union is contiguous; fall back to
            // `new` defensively if not.
            slices.owned[j] = if old.start <= new.end && new.start <= old.end {
                old.start.min(new.start)..old.end.max(new.end)
            } else {
                new
            };
        }
        // Recorded uniformly (the round's critical path) on every current
        // survivor, joiner included: the derived `reexec` view sums the
        // slowest track.
        for &node in survivors {
            self.timeline.span(
                label.as_str(),
                Track::Node(node),
                Category::Reexec,
                t,
                t_round,
            );
        }
        for pass in [pass_a, pass_b] {
            if pass.iter().any(|r| r.end > r.start) {
                slices.passes.push(pass);
            }
        }
        t_round
    }

    /// Replicated execution — the only one: the launch runs on the alive
    /// nodes, with straggler stretch. Replicated launches run no
    /// collective, so a scripted kill is *not detected* here — the node
    /// simply keeps its stale replica (excluded from the consistency
    /// check) until a three-phase launch's collective confirms the death.
    fn execute_replicated(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
        sched: &LaunchSchedule,
        cause: ReplicationCause,
        t0: f64,
    ) -> Result<(LaunchReport, f64), MigrateError> {
        let survivors = self.alive_ids();
        let t = sched.times.callback;
        // Every node redundantly runs the whole grid; the accounting files
        // replicated time under the callback phase.
        let mut t_eff = 0.0f64;
        for &node in &survivors {
            let d = self.fault_state.stretch(node, t0, t);
            self.timeline.span(
                format!("{}: replicated ({} blocks)", ck.name(), launch.num_blocks()),
                Track::Node(node),
                Category::Callback,
                t0,
                d,
            );
            t_eff = t_eff.max(d);
        }
        let end = t0 + t_eff;
        let mut node_stats = sched.profile.total;
        if self.config.fidelity == ExecutionFidelity::Functional {
            node_stats = self.run_grid_on(&survivors, ck, launch, args)?;
        }
        for &node in &survivors {
            node_stats.emit_counters(&mut self.timeline, Track::Node(node), t0);
            self.timeline.reserve_lane(Track::Node(node), end);
        }
        let report = LaunchReport {
            mode: ExecMode::Replicated { cause },
            times: PhaseTimes {
                callback: t_eff,
                ..PhaseTimes::default()
            },
            node_stats,
            wire_bytes: 0,
            faults: FaultSummary::default(),
        };
        Ok((report, end))
    }

    /// Run the whole grid on every pool in `nodes` — the replicated
    /// fallback and the degraded recovery — and return the first node's
    /// statistics. Replicated launches are exactly the non-distributable
    /// ones (atomics, overlapping writes), so blocks stay serial per node.
    fn run_grid_on(
        &mut self,
        nodes: &[u32],
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<cucc_exec::BlockStats, MigrateError> {
        let opts = ExecOptions {
            engine: self.config.engine,
            node_threads: self.config.node_threads,
            block_parallel: false,
        };
        let mut all = vec![0u64..0u64; self.state.logical_nodes()];
        for &node in nodes {
            all[node as usize] = 0..launch.num_blocks();
        }
        let stats = self
            .sim
            .run_blocks_parallel_opts(&ck.kernel, launch, &all, args, &opts)?;
        Ok(stats[nodes[0] as usize])
    }

    /// The two report times that are timeline views by definition — the
    /// in-order sum of the window's retry spans and the slowest track's
    /// sum of its re-execution spans — with every other field zero.
    fn recovery_times(&self, mark: Mark) -> PhaseTimes {
        PhaseTimes {
            retry: self.timeline.time_in_since(mark, Category::Retry),
            reexec: self.timeline.max_track_sum_since(mark, Category::Reexec),
            ..PhaseTimes::default()
        }
    }
}

/// Mutable slice bookkeeping of one launch's recovery walk.
struct Repartition {
    /// Modeled time of one partial block.
    per_block: f64,
    /// Global block ids each survivor slot currently holds results for
    /// (contiguous by construction: a re-partition hands each survivor its
    /// full new slice).
    owned: Vec<std::ops::Range<u64>>,
    /// Deferred re-execution passes (per-pool block ranges), run after the
    /// timing walk.
    passes: Vec<Vec<std::ops::Range<u64>>>,
    /// Blocks re-executed so far.
    reexec_blocks: u64,
}

/// Run one deferred block pass through the configured engine.
fn run_pass(
    sim: &mut SimCluster,
    prog: Option<&Program>,
    ck: &CompiledKernel,
    launch: LaunchConfig,
    args: &[Arg],
    ranges: &[std::ops::Range<u64>],
    opts: &ExecOptions,
) -> Result<Vec<cucc_exec::BlockStats>, MigrateError> {
    if let Some(p) = prog {
        Ok(sim.run_program_parallel(p, ranges, opts)?)
    } else {
        Ok(sim.run_blocks_parallel_opts(&ck.kernel, launch, ranges, args, opts)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_source;
    use cucc_gpu_model::{GpuDevice, GpuSpec};

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

    #[test]
    fn sanitizer_checks_stream_launches() {
        // `sanitize` promises a check before *every* functional launch; a
        // stream launch reaches the executors without passing `launch`.
        let options = crate::RunOptions::builder().sanitize(true).build();
        let stream_launch = |src: &str| {
            let ck = compile_source(src).unwrap();
            let mut cl = CuccCluster::with_options(spec(2), options.clone());
            let x = cl.alloc(512 * 4);
            let out = cl.alloc(512 * 4);
            let stream = cl.stream_create();
            let args = [Arg::Buffer(x), Arg::Buffer(out)];
            cl.launch_on(&ck, LaunchConfig::new(4, 128), &args, stream)
                .unwrap();
            cl.sanitize_report().cloned()
        };
        let racy = stream_launch(
            "__global__ void all_to_zero(float* x, float* out) {
                out[0] = x[blockDim.x * blockIdx.x + threadIdx.x];
            }",
        )
        .expect("the stream launch was sanitized");
        assert!(!racy.races.is_empty(), "{}", racy.summary());
        let clean = stream_launch(
            "__global__ void copy(float* x, float* out) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                out[id] = x[id];
            }",
        )
        .expect("the stream launch was sanitized");
        assert!(clean.clean(), "{}", clean.summary());
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
        let ck = compile_source(LISTING1).unwrap();
        let data: Vec<u8> = (0..4096).map(|i| (i % 239) as u8).collect();
        let launch = LaunchConfig::cover1(4096, 256);

        let mut sync = CuccCluster::with_options(spec(3), RuntimeConfig::default());
        let (s_src, s_dest) = (sync.alloc(4096), sync.alloc(4096));
        sync.upload(s_src, &data).unwrap();
        let args = [Arg::Buffer(s_src), Arg::Buffer(s_dest), Arg::int(4096)];
        let r1 = sync.launch(&ck, launch, &args).unwrap();
        let r2 = sync.launch(&ck, launch, &args).unwrap();
        let sync_mem = sync.download::<u8>(s_dest).unwrap();

        let mut asy = CuccCluster::with_options(spec(3), RuntimeConfig::default());
        let (a_src, a_dest) = (asy.alloc(4096), asy.alloc(4096));
        asy.upload_on(a_src, &data, DEFAULT_STREAM).unwrap();
        let args = [Arg::Buffer(a_src), Arg::Buffer(a_dest), Arg::int(4096)];
        let q1 = asy.launch_on(&ck, launch, &args, DEFAULT_STREAM).unwrap();
        let q2 = asy.launch_on(&ck, launch, &args, DEFAULT_STREAM).unwrap();
        asy.synchronize().unwrap();
        let asy_mem = asy.download::<u8>(a_dest).unwrap();

        // Per-launch durations and wire traffic are clock-independent:
        // the async default stream reproduces them bit-for-bit.
        assert_eq!(r1.times, q1.times);
        assert_eq!(r2.times, q2.times);
        assert_eq!(r1.wire_bytes, q1.wire_bytes);
        assert_eq!(sync_mem, asy_mem);
        assert_eq!(sync_mem, data);
        // Span *positions* chain physical end times, so the elapsed clock
        // may differ from the serial sum by float association only.
        let (a, b) = (sync.clock(), asy.clock());
        assert!((a - b).abs() <= 1e-12 * a.max(b), "sync={a} async={b}");
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
}
