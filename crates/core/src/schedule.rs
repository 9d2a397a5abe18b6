//! The launch **planning** stage: everything the runtime decides *before*
//! touching the timeline or any node's memory.
//!
//! [`plan_schedule`] runs the launch-time planner, the sampling profiler
//! and the cost model, and returns a [`LaunchSchedule`] — a pure value
//! describing how the launch will execute (three-phase vs replicated),
//! what each phase costs on the simulated clock, how many bytes cross the
//! wire, and which buffers the kernel reads and writes. The execution
//! stage (the launch body in `runtime/launch.rs`) then lays that schedule onto
//! the trace timeline at an arbitrary start time and runs the functional
//! blocks.
//!
//! The profiler runs on the engine that executes: the launch is compiled
//! and certified once (`compile_certified`), its sampled blocks run that
//! program on a scratch copy of node memory, and a planning miss hands the
//! program on to the launch body. The tree-walk
//! [`cucc_exec::profile_launch`] stays the profile's oracle — equal field
//! for field (`tests/schedule_cache.rs`) — and is off the launch path.
//!
//! Splitting planning from execution is what makes the stream scheduler
//! possible: an async launch needs its phase durations and buffer sets
//! *before* it can be placed (its start time is the max of its hazard
//! dependencies and the ready times of the lanes it occupies), and the
//! planning stage has no side effects so it can run at submission time.
//!
//! Bit-for-bit guarantee: the arithmetic here is the launch path's legacy
//! cost model, evaluated in the same order on the same inputs — the
//! execution stage re-derives the same numbers from the recorded spans and
//! asserts equality on every launch.

use crate::compile::CompiledKernel;
use crate::error::MigrateError;
use crate::report::PhaseTimes;
use crate::runtime::RuntimeConfig;
use cucc_analysis::{
    certify_program, global_extents, plan_launch, CompiledLaunch, Partition, Plan,
    ReplicationCause, ThreePhasePlan,
};
use cucc_cluster::{block_compute_time, node_time_profiled, ClusterSpec};
use cucc_exec::{profile_program, Arg, BufferId, CertMode, LaunchProfile, MemPool, Program};
use cucc_ir::{Kernel, LaunchConfig, Value};
use cucc_net::{allgather_cost, AllgatherAlgo, AllgatherPlacement};
use std::collections::HashMap;

/// How a scheduled launch will execute.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleDecision {
    /// The three-phase workflow: partial blocks, balanced in-place
    /// Allgather, callback blocks.
    ThreePhase {
        /// The planner's resolved plan (chunking and gathered regions).
        plan: ThreePhasePlan,
        /// Its split across the cluster's nodes.
        part: Partition,
        /// Whether the last callback block is the divergent tail block.
        has_tail_block: bool,
    },
    /// Replicated fallback: every node redundantly runs the whole grid.
    Replicated {
        /// Why the fallback was taken.
        cause: ReplicationCause,
    },
}

/// The planning stage's output: a launch fully costed and characterized,
/// ready to be laid onto the timeline at any start time.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSchedule {
    /// Three-phase vs replicated, with the resolved partition.
    pub decision: ScheduleDecision,
    /// Per-phase simulated durations (broadcast always 0.0 — kernel
    /// launches never broadcast).
    pub times: PhaseTimes,
    /// Bytes the launch will move across the network.
    pub wire_bytes: u64,
    /// Buffer arguments the kernel loads from (atomics included).
    pub reads: Vec<BufferId>,
    /// Buffer arguments the kernel stores to (atomics included).
    pub writes: Vec<BufferId>,
    /// The sampled block profile driving the cost model.
    pub profile: LaunchProfile,
    /// Cost of running the whole grid replicated on one node — the
    /// fallback price fault recovery pays when a node death cannot be
    /// re-partitioned across the survivors (degraded execution). Equal to
    /// `times.callback` for replicated decisions.
    pub degraded_time: f64,
}

impl LaunchSchedule {
    /// Total simulated duration of the launch.
    pub fn time(&self) -> f64 {
        self.times.total()
    }
}

/// One launch argument, reduced to the exact bits that influence
/// planning. Scalars are fingerprinted by bit pattern (so `-0.0` and
/// `0.0` — which the planner and profiler can distinguish through guards —
/// hash differently), buffers by identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ArgFingerprint {
    Int(i64),
    FloatBits(u64),
    Buffer(BufferId),
}

/// Exactly what [`plan_schedule`] reads that can differ between two
/// launches on one cluster: which compilation, the launch geometry, the
/// argument bits the launch-time planner resolves, the **active node count**
/// (the function takes a count, not a membership: *which* nodes are dead
/// changes nothing, *how many* are alive changes every partition) and the
/// knobs the cost model consults. `spec.cpu`, `spec.net` and `spec.jitter`
/// are constants of the cluster that owns the cache.
///
/// Two lookups with equal keys get `PartialEq`-identical
/// [`LaunchSchedule`]s. Node memory is the one input no key can hold
/// ([`CuccCluster::sim_mut`] hands out the pools), so it is settled by
/// analysis instead: the planner reads no memory, the profiler observes
/// control flow and addresses only, and a kernel whose contents can steer
/// them ([`cucc_analysis::KernelAnalysis::content_steered`]) is never inserted —
/// every lookup for it misses and plans fresh, at every door.
///
/// [`CuccCluster::sim_mut`]: crate::runtime::CuccCluster::sim_mut
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScheduleKey {
    kernel_id: u64,
    launch: LaunchConfig,
    args: Vec<ArgFingerprint>,
    nodes: usize,
    algo: AllgatherAlgo,
    placement: AllgatherPlacement,
    profile_samples: usize,
}

/// Build the cache key for one prospective launch on `nodes` nodes.
pub fn schedule_key(
    ck: &CompiledKernel,
    launch: LaunchConfig,
    args: &[Arg],
    nodes: usize,
    config: &RuntimeConfig,
) -> ScheduleKey {
    ScheduleKey {
        kernel_id: ck.id,
        launch,
        args: args
            .iter()
            .map(|a| match a {
                Arg::Scalar(Value::I64(v)) => ArgFingerprint::Int(*v),
                Arg::Scalar(Value::F64(v)) => ArgFingerprint::FloatBits(v.to_bits()),
                Arg::Buffer(id) => ArgFingerprint::Buffer(*id),
            })
            .collect(),
        nodes,
        algo: config.allgather_algo,
        placement: config.placement,
        profile_samples: config.profile_samples,
    }
}

/// Memoizes [`plan_schedule`] results behind the one planning door
/// ([`CuccCluster::plan_cached`]): every launch, replayed launch and
/// serving-clock lookup pays the planner and sampling profiler once
/// per distinct key.
///
/// A membership change evicts nothing: a death changes the node count in
/// the key, so the next lookup misses; a rejoin restores it, so the entries
/// planned there hit again. The only eviction is the bound — a loop that
/// varies a scalar argument makes one entry per iteration, so an insert
/// into a cache holding [`ScheduleCache::CAPACITY`] entries clears it first.
///
/// [`CuccCluster::plan_cached`]: crate::runtime::CuccCluster::plan_cached
#[derive(Debug, Clone, Default)]
pub struct ScheduleCache {
    map: HashMap<ScheduleKey, LaunchSchedule>,
    hits: u64,
    misses: u64,
}

impl ScheduleCache {
    /// Entries the cache holds before an insert clears it.
    pub const CAPACITY: usize = 1024;

    /// Look up a schedule, counting a hit or miss.
    pub fn get(&mut self, key: &ScheduleKey) -> Option<LaunchSchedule> {
        match self.map.get(key) {
            Some(s) => {
                self.hits += 1;
                Some(s.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store a freshly planned schedule.
    pub fn insert(&mut self, key: ScheduleKey, schedule: LaunchSchedule) {
        if self.map.len() >= Self::CAPACITY {
            self.map.clear();
        }
        self.map.insert(key, schedule);
    }

    /// Counter snapshot: the one way to read the cache, for the CLI,
    /// serving stats, replay stats and tests alike.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
        }
    }
}

/// A point-in-time snapshot of [`ScheduleCache`] counters. Snapshots
/// subtract ([`CacheStats::since`]) so a caller can attribute hits and
/// misses to one window of work — one tenant's launches, one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed (and planned fresh).
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Counter deltas since an earlier snapshot (`entries` stays absolute:
    /// it is a level, not a counter).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries,
        }
    }

    /// `hits / (hits + misses)`, or 0 when the window had no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Map the kernel's read/written global-buffer parameter sets onto the
/// concrete `BufferId` arguments of one launch.
pub fn buffer_sets(kernel: &Kernel, args: &[Arg]) -> (Vec<BufferId>, Vec<BufferId>) {
    let resolve = |params: Vec<cucc_ir::ParamId>| -> Vec<BufferId> {
        let mut out: Vec<BufferId> = params
            .into_iter()
            .filter_map(|p| match args.get(p.index()) {
                Some(Arg::Buffer(id)) => Some(*id),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    };
    (
        resolve(kernel.read_global_buffers()),
        resolve(kernel.written_global_buffers()),
    )
}

/// Whether a profiled kernel counts as "staged": it round-trips a
/// substantial share of its global traffic through emulated shared-memory
/// tiles (transpose-like reshaping) — small reduction scratchpads don't
/// count.
fn is_staged(profile: &LaunchProfile) -> bool {
    profile.per_block.shared_bytes * 4 >= profile.per_block.global_bytes().max(1)
}

/// Compile the kernel for one launch and attach range certificates resolved
/// against `pool`'s allocation sizes: certified accesses take the engine's
/// unchecked fast path ([`CertMode::Elide`]). Under `--sanitize` every
/// certificate is instead *cross-validated* at runtime
/// ([`CertMode::Validate`]) — a wrong certificate becomes a hard
/// `CertificateViolation` error, never UB. The one compile route of a
/// launch: the planner profiles with this program, the launch body runs it
/// and the sanitizer checks the verifier against it, with the range
/// analysis the certificates came from.
pub(crate) fn compile_certified(
    ck: &CompiledKernel,
    launch: LaunchConfig,
    args: &[Arg],
    pool: &MemPool,
    config: &RuntimeConfig,
) -> Result<CompiledLaunch, MigrateError> {
    let mut prog = Program::compile(&ck.kernel, launch, args)?;
    let exts = global_extents(&prog, |b| (b.index() < pool.len()).then(|| pool.size_of(b)));
    let mode = if config.sanitize {
        CertMode::Validate
    } else {
        CertMode::Elide
    };
    let ranges = certify_program(&mut prog, &exts, mode);
    Ok(CompiledLaunch {
        program: prog,
        ranges,
    })
}

/// Run planner + profiler + cost model for one launch. Pure: reads node
/// memory (for the sampling profiler, on a scratch copy) but mutates
/// nothing. The profiler runs the launch's certified program on the
/// compiled engine ([`cucc_exec::profile_program`]).
pub fn plan_schedule(
    ck: &CompiledKernel,
    launch: LaunchConfig,
    args: &[Arg],
    node0: &MemPool,
    spec: &ClusterSpec,
    logical_nodes: usize,
    config: &RuntimeConfig,
) -> Result<LaunchSchedule, MigrateError> {
    plan_and_compile(ck, launch, args, node0, spec, logical_nodes, config).map(|(s, _)| s)
}

/// [`plan_schedule`], returning with the schedule the certified program
/// ([`compile_certified`]) its profile sampled, for the launch to run.
pub(crate) fn plan_and_compile(
    ck: &CompiledKernel,
    launch: LaunchConfig,
    args: &[Arg],
    node0: &MemPool,
    spec: &ClusterSpec,
    logical_nodes: usize,
    config: &RuntimeConfig,
) -> Result<(LaunchSchedule, CompiledLaunch), MigrateError> {
    if launch.num_blocks() == 0 {
        return Err(MigrateError::Launch("empty grid".into()));
    }
    if launch.threads_per_block() == 0 {
        return Err(MigrateError::Launch("empty block (zero threads)".into()));
    }
    let plan = plan_launch(&ck.kernel, &ck.analysis.verdict, launch, args, node0);
    let prog = compile_certified(ck, launch, args, node0, config)?;
    let profile = profile_program(&prog.program, node0, config.profile_samples)?;
    let (reads, writes) = buffer_sets(&ck.kernel, args);
    let degraded_time = replicated_time(ck, &profile, spec);
    let (decision, times, wire_bytes) = match plan {
        Plan::ThreePhase(tp) => cost_three_phase(ck, &tp, &profile, spec, logical_nodes, config),
        Plan::Replicated(cause) => cost_replicated(cause, degraded_time),
    };
    let sched = LaunchSchedule {
        decision,
        times,
        wire_bytes,
        reads,
        writes,
        profile,
        degraded_time,
    };
    Ok((sched, prog))
}

/// Cost of one node redundantly running the whole grid (the replicated
/// fallback, also the degraded-recovery price).
fn replicated_time(ck: &CompiledKernel, profile: &LaunchProfile, spec: &ClusterSpec) -> f64 {
    let cpu = &spec.cpu;
    let simd_eff = ck.analysis.simd.efficiency;
    let bt_full = block_compute_time(&profile.per_block, simd_eff, cpu);
    let bt_tail = block_compute_time(&profile.tail_block, simd_eff, cpu);
    let full = profile.num_blocks - 1;
    let staged = is_staged(profile);
    node_time_profiled(
        bt_full,
        full,
        Some(bt_tail),
        profile.total.global_bytes(),
        staged,
        cpu,
    )
}

fn cost_three_phase(
    ck: &CompiledKernel,
    tp: &ThreePhasePlan,
    profile: &LaunchProfile,
    spec: &ClusterSpec,
    logical_nodes: usize,
    config: &RuntimeConfig,
) -> (ScheduleDecision, PhaseTimes, u64) {
    let n = logical_nodes as u64;
    let part = tp.partition(n);
    let cpu = &spec.cpu;
    let simd_eff = ck.analysis.simd.efficiency;

    let bt_full = block_compute_time(&profile.per_block, simd_eff, cpu);
    let bt_tail = block_compute_time(&profile.tail_block, simd_eff, cpu);
    let staged = is_staged(profile);
    let tail_divergent = ck
        .analysis
        .verdict
        .meta()
        .map(|m| m.tail_divergent())
        .unwrap_or(false);

    // Multi-node straggler/jitter inefficiency on distributed phases.
    let jitter = 1.0 + spec.jitter * (n - 1) as f64;

    // ---- Phase 1: partial block execution -------------------------
    let pbn = part.partial_blocks_per_node;
    let t_partial = node_time_profiled(
        bt_full,
        pbn,
        None,
        pbn * profile.per_block.global_bytes(),
        staged,
        cpu,
    ) * jitter;

    // ---- Phase 2: balanced in-place Allgather ----------------------
    let mut t_allgather = 0.0;
    let mut wire_bytes = 0u64;
    for region in &tp.buffers {
        let unit = region.unit * part.chunks_per_node;
        let cost = allgather_cost(
            n as usize,
            unit,
            &spec.net,
            config.allgather_algo,
            config.placement,
        );
        t_allgather += cost.time;
        wire_bytes += cost.wire_bytes;
    }

    // ---- Phase 3: callback block execution -------------------------
    let has_tail_block = tail_divergent && part.callback_blocks > 0;
    let callback_full = part.callback_blocks - u64::from(has_tail_block);
    let t_callback = node_time_profiled(
        bt_full,
        callback_full,
        has_tail_block.then_some(bt_tail),
        callback_full * profile.per_block.global_bytes()
            + if has_tail_block {
                profile.tail_block.global_bytes()
            } else {
                0
            },
        staged,
        cpu,
    ) * jitter;

    (
        ScheduleDecision::ThreePhase {
            plan: tp.clone(),
            part,
            has_tail_block,
        },
        PhaseTimes {
            partial: t_partial,
            allgather: t_allgather,
            callback: t_callback,
            ..PhaseTimes::default()
        },
        wire_bytes,
    )
}

fn cost_replicated(cause: ReplicationCause, t: f64) -> (ScheduleDecision, PhaseTimes, u64) {
    (
        ScheduleDecision::Replicated { cause },
        // Every node redundantly runs the whole grid; the legacy
        // accounting files replicated time under the callback phase.
        PhaseTimes {
            callback: t,
            ..PhaseTimes::default()
        },
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_source;

    #[test]
    fn buffer_sets_resolve_through_args() {
        let ck = compile_source(
            "__global__ void saxpy(float* x, float* y, float a, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) y[id] = a * x[id] + y[id];
            }",
        )
        .unwrap();
        let args = [
            Arg::Buffer(BufferId(7)),
            Arg::Buffer(BufferId(3)),
            Arg::float(2.0),
            Arg::int(16),
        ];
        let (reads, writes) = buffer_sets(&ck.kernel, &args);
        // y is read-modify-written; x only read.
        assert_eq!(reads, vec![BufferId(3), BufferId(7)]);
        assert_eq!(writes, vec![BufferId(3)]);
    }

    #[test]
    fn schedule_matches_launch_report() {
        use crate::runtime::CuccCluster;
        use cucc_ir::LaunchConfig;

        let ck = compile_source(
            "__global__ void copy(char* src, char* dst, int n) {
                int id = blockDim.x * blockIdx.x + threadIdx.x;
                if (id < n) dst[id] = src[id];
            }",
        )
        .unwrap();
        let mut cl = CuccCluster::with_options(
            ClusterSpec::simd_focused().with_nodes(3),
            RuntimeConfig::default(),
        );
        let src = cl.alloc(4096);
        let dst = cl.alloc(4096);
        cl.upload(src, &[7u8; 4096]).unwrap();
        let launch = LaunchConfig::cover1(4096, 256);
        let args = [Arg::Buffer(src), Arg::Buffer(dst), Arg::int(4096)];
        let schedule = cl.plan(&ck, launch, &args).unwrap();
        let report = cl.launch(&ck, launch, &args).unwrap();
        // Planning is deterministic and execution reproduces it exactly.
        assert_eq!(schedule.times, report.times);
        assert_eq!(schedule.wire_bytes, report.wire_bytes);
        assert_eq!(schedule.time().to_bits(), report.time().to_bits());
        assert!(matches!(
            schedule.decision,
            ScheduleDecision::ThreePhase { .. }
        ));
        assert_eq!(schedule.reads, vec![src]);
        assert_eq!(schedule.writes, vec![dst]);
    }

    #[test]
    fn empty_grid_rejected_at_planning() {
        let ck = compile_source("__global__ void k(int* o) { o[threadIdx.x] = 1; }").unwrap();
        let spec = ClusterSpec::simd_focused();
        let pool = MemPool::new();
        // An empty grid, and a grid of zero-thread blocks (which would run
        // nothing and report an infinite speed-up).
        for (grid, block) in [(0u32, 32u32), (4, 0)] {
            let err = plan_schedule(
                &ck,
                LaunchConfig::new(grid, block),
                &[Arg::Buffer(BufferId(0))],
                &pool,
                &spec,
                1,
                &RuntimeConfig::default(),
            );
            assert!(
                matches!(err, Err(MigrateError::Launch(_))),
                "{grid}x{block}"
            );
        }
    }
}
