//! Multi-tenant serving front-end: job queue, admission control, and
//! backfill placement over the simulated cluster.
//!
//! Every benchmark before this module launched one kernel at a time. The
//! paper's end state is migrated GPU workloads running as *sustained
//! traffic* on a CPU fleet, so this is the layer where the pieces that
//! already exist finally meet:
//!
//! * **Queue** — each submitted [`JobSpec`] waits in its tenant's FIFO
//!   queue; admission control bounds the per-tenant depth and refuses
//!   excess submissions with a typed [`MigrateError::Rejected`].
//! * **Placement** — an EASY-backfill
//!   [`PlacementEngine`](cucc_slurm::PlacementEngine) (the library form of
//!   `cucc-slurm`'s trace scheduler) packs jobs onto the node pool; under
//!   the [`ServePolicy::Fair`] policy tenants are served by a weighted
//!   deficit counter (deadline-class weights), and blocked heads get EASY
//!   reservations that backfilled jobs may never delay.
//! * **Execution** — placed jobs really run on the shared [`CuccCluster`]
//!   (upload once, launch per job, download digests at drain), so
//!   schedule-cache reuse, fault injection with recovery, and membership
//!   epochs all behave exactly as they do for one-shot launches. Service
//!   *time* on the serving clock is the job's schedule at its allocated
//!   node count, asked of the cluster's own planning door — the same
//!   cache its launches read, so repeated tenant kernels plan once.
//! * **Observability** — the serving [`Timeline`] lays every job out on
//!   dedicated `Queue`/`Admit`/`Place` tracks (exportable as Chrome
//!   trace JSON), and [`ServeReport`] carries sustained launches/sec plus
//!   per-class and per-tenant p50/p99 latency and cache hit rates.
//!
//! A cluster that loses or gains nodes mid-stream (a `kill:`+`join:`
//! fault plan) resizes the placement capacity at the membership epoch
//! boundary; admitted jobs still complete bit-identically to a fault-free
//! run because per-tenant launch order is preserved and the runtime's
//! recovery path is bit-exact.

use crate::compile::{compile_source, CompiledKernel};
use crate::error::MigrateError;
use crate::options::RunOptions;
use crate::runtime::CuccCluster;
use crate::schedule::CacheStats;
use cucc_cluster::ClusterSpec;
use cucc_exec::{Arg, BufferId};
use cucc_ir::LaunchConfig;
use cucc_slurm::PlacementEngine;
use cucc_trace::{Category, Timeline, Track};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Latency expectations of a job, mapped to a fairness weight: a tenant
/// holding interactive traffic drains its deficit four times faster than
/// best-effort batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeadlineClass {
    /// User-facing traffic: weight 4.
    Interactive,
    /// Throughput-oriented batch: weight 2.
    Batch,
    /// Scavenger work: weight 1.
    BestEffort,
}

impl DeadlineClass {
    /// All classes, in report order.
    pub const ALL: [DeadlineClass; 3] = [
        DeadlineClass::Interactive,
        DeadlineClass::Batch,
        DeadlineClass::BestEffort,
    ];

    /// Deficit-counter weight.
    pub fn weight(self) -> f64 {
        match self {
            DeadlineClass::Interactive => 4.0,
            DeadlineClass::Batch => 2.0,
            DeadlineClass::BestEffort => 1.0,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DeadlineClass::Interactive => "interactive",
            DeadlineClass::Batch => "batch",
            DeadlineClass::BestEffort => "best-effort",
        }
    }
}

/// One launch request from one tenant: everything the serving layer needs
/// to queue, admit, place, and execute it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Submitting tenant.
    pub tenant: u32,
    /// Latency class (drives the fairness weight).
    pub class: DeadlineClass,
    /// Index into the server's kernel catalog ([`JobServer::KERNELS`]).
    pub kernel: usize,
    /// Problem size in `f32` elements (the tenant's working-set buffers
    /// hold `4 * elems` bytes each).
    pub elems: usize,
    /// Nodes requested for placement (clamped to the live capacity).
    pub nodes: u32,
    /// Submission time on the serving clock, seconds.
    pub arrival: f64,
    /// Kernel scalar argument (keeps repeated jobs from collapsing into
    /// one arithmetic fixpoint).
    pub scale: f64,
}

impl JobSpec {
    fn launch(&self) -> LaunchConfig {
        LaunchConfig::cover1(self.elems as u64, 128)
    }
}

/// Queue discipline of the serving front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePolicy {
    /// One global FIFO queue, strict head-of-line order, no backfill, no
    /// admission control — the naive baseline.
    Fifo,
    /// Per-tenant queues served by a weighted deficit counter, EASY
    /// backfill behind blocked heads, and queue-depth admission control.
    Fair,
}

impl ServePolicy {
    /// Parse a CLI policy name.
    pub fn parse(s: &str) -> Option<ServePolicy> {
        match s {
            "fifo" => Some(ServePolicy::Fifo),
            "fair" => Some(ServePolicy::Fair),
            _ => None,
        }
    }

    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ServePolicy::Fifo => "fifo",
            ServePolicy::Fair => "fair",
        }
    }
}

/// Serving-layer configuration: queue policy and admission limit on top
/// of the unified [`RunOptions`] front-end (fidelity, engine, fault plan).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Queue discipline.
    pub policy: ServePolicy,
    /// Per-tenant admission limit: a tenant already queueing this many
    /// jobs has further submissions rejected. `0` disables admission
    /// control.
    pub queue_depth: usize,
    /// Runtime options shared with `cucc run`.
    pub options: RunOptions,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            policy: ServePolicy::Fair,
            queue_depth: 0,
            options: RunOptions::default(),
        }
    }
}

/// Latency percentiles for one deadline class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassStats {
    /// The class.
    pub class: DeadlineClass,
    /// Completed jobs in the class.
    pub jobs: usize,
    /// Median queue wait (arrival → placement), seconds.
    pub p50_queue: f64,
    /// 99th-percentile queue wait, seconds.
    pub p99_queue: f64,
    /// Median execution time (placement → completion), seconds.
    pub p50_exec: f64,
    /// 99th-percentile execution time, seconds.
    pub p99_exec: f64,
    /// Median end-to-end latency, seconds.
    pub p50_total: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub p99_total: f64,
}

/// Per-tenant serving outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: u32,
    /// Jobs accepted into the queue.
    pub admitted: usize,
    /// Jobs refused by admission control.
    pub rejected: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Schedule-cache hits of this tenant's service-time lookups.
    pub cache_hits: u64,
    /// Schedule-cache misses of this tenant's service-time lookups.
    pub cache_misses: u64,
    /// Median end-to-end latency, seconds.
    pub p50_total: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub p99_total: f64,
}

impl TenantStats {
    /// Planner-cache hit rate of this tenant's placements.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Everything one serving run produced: throughput, latency percentiles
/// per class and tenant, cache behavior, fault counts, and per-tenant
/// output digests (the bit-identity witness).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Queue discipline the run used.
    pub policy: ServePolicy,
    /// Jobs submitted (admitted + rejected).
    pub submitted: usize,
    /// Jobs accepted into the queues.
    pub admitted: usize,
    /// Jobs refused by admission control.
    pub rejected: usize,
    /// Jobs that ran to completion (every admitted job).
    pub completed: usize,
    /// Serving-clock time from first arrival to last completion, seconds.
    pub makespan: f64,
    /// Sustained completed launches per simulated second.
    pub launches_per_sec: f64,
    /// Median end-to-end latency over all completed jobs, seconds.
    pub p50_total: f64,
    /// 99th-percentile end-to-end latency over all completed jobs.
    pub p99_total: f64,
    /// Latency percentiles per deadline class (classes with no completed
    /// jobs are omitted).
    pub per_class: Vec<ClassStats>,
    /// Per-tenant outcomes, ascending tenant id.
    pub per_tenant: Vec<TenantStats>,
    /// The cluster's schedule-cache counters at the end of the run:
    /// every service-time lookup and every launch's own.
    pub cache: CacheStats,
    /// Node failures the fault plan injected (and recovery absorbed).
    pub node_failures: u32,
    /// FNV-1a digest of each tenant's final working-set memory — equal
    /// across fault-free and fault-injected runs of the same admitted
    /// stream.
    pub digests: BTreeMap<u32, u64>,
}

impl ServeReport {
    /// The one-line summary the CLI prints (and CI greps).
    pub fn summary_line(&self) -> String {
        format!(
            "serving[{}]: {} submitted, {} completed, {} rejected, \
             {:.1} launches/sec, p50 {:.3} ms, p99 {:.3} ms",
            self.policy.label(),
            self.submitted,
            self.completed,
            self.rejected,
            self.launches_per_sec,
            self.p50_total * 1e3,
            self.p99_total * 1e3,
        )
    }
}

/// One job in flight on the placement engine: completion event in a
/// min-heap, with the record index for attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
struct InFlight {
    end: f64,
    idx: usize,
}

impl Eq for InFlight {}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: earliest completion first, ties by record index.
        other
            .end
            .total_cmp(&self.end)
            .then(other.idx.cmp(&self.idx))
    }
}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-job bookkeeping across queue → placement → completion.
#[derive(Debug, Clone)]
struct JobRecord {
    spec: JobSpec,
    placed: f64,
    end: f64,
}

/// Tally counters accumulated while the stream runs.
#[derive(Debug, Clone, Copy, Default)]
struct TenantTally {
    admitted: usize,
    rejected: usize,
    completed: usize,
    cache_hits: u64,
    cache_misses: u64,
    served_work: f64,
}

/// The serving front-end: queues, admission control, placement, and the
/// execution backend, driven by [`JobServer::run`] over a synthetic (or
/// recorded) arrival stream.
#[derive(Debug)]
pub struct JobServer {
    config: ServeConfig,
    cluster: CuccCluster,
    placement: PlacementEngine,
    kernels: Vec<CompiledKernel>,
    timeline: Timeline,
    /// Working-set buffers per (tenant, elems).
    buffers: BTreeMap<(u32, usize), (BufferId, BufferId)>,
    /// Per-tenant FIFO queues of record indices (Fair policy order).
    queues: BTreeMap<u32, VecDeque<usize>>,
    /// Global FIFO order of record indices (Fifo policy order).
    fifo: VecDeque<usize>,
    records: Vec<JobRecord>,
    tallies: BTreeMap<u32, TenantTally>,
    inflight: BinaryHeap<InFlight>,
    node_failures: u32,
}

impl JobServer {
    /// The built-in kernel catalog (both entries share the
    /// `(float* x, float* y, float a, int n)` signature [`JobSpec`]
    /// assumes). Index with [`JobSpec::kernel`] modulo this length.
    pub const KERNELS: [&'static str; 2] = [
        "__global__ void saxpy(float* x, float* y, float a, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            if (id < n) y[id] = a * x[id] + y[id];
        }",
        "__global__ void scale_add(float* x, float* y, float a, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            if (id < n) y[id] = a * y[id] + x[id];
        }",
    ];

    /// Build a server over `spec.nodes` simulated nodes.
    pub fn new(spec: ClusterSpec, config: ServeConfig) -> Result<JobServer, MigrateError> {
        let kernels = Self::KERNELS
            .iter()
            .map(|src| compile_source(src))
            .collect::<Result<Vec<_>, _>>()?;
        let nodes = spec.nodes;
        let cluster = CuccCluster::with_options(spec, config.options.clone());
        Ok(JobServer {
            config,
            cluster,
            placement: PlacementEngine::new(nodes),
            kernels,
            timeline: Timeline::new(),
            buffers: BTreeMap::new(),
            queues: BTreeMap::new(),
            fifo: VecDeque::new(),
            records: Vec::new(),
            tallies: BTreeMap::new(),
            inflight: BinaryHeap::new(),
            node_failures: 0,
        })
    }

    /// The serving timeline: `Queue`/`Admit`/`Place` spans on the serving
    /// clock, exportable with [`Timeline::to_chrome_json`].
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The execution backend.
    pub fn cluster(&self) -> &CuccCluster {
        &self.cluster
    }

    /// Jobs currently queued for `tenant`.
    pub fn queue_depth(&self, tenant: u32) -> usize {
        self.queues.get(&tenant).map_or(0, |q| q.len())
    }

    /// Admission-check and enqueue one job at its arrival time. Returns
    /// the typed [`MigrateError::Rejected`] (and counts the rejection)
    /// when the tenant's queue is at the configured depth limit, and
    /// [`MigrateError::Launch`] for a non-finite arrival; the cluster is
    /// untouched in either case.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<(), MigrateError> {
        finite_arrival(spec)?;
        let tenant = spec.tenant;
        let tally = self.tallies.entry(tenant).or_default();
        let depth = self.queues.get(&tenant).map_or(0, |q| q.len());
        let limit = self.config.queue_depth;
        if limit > 0 && depth >= limit {
            tally.rejected += 1;
            self.timeline.span(
                format!("job reject (tenant {tenant})"),
                Track::Admit,
                Category::Admit,
                spec.arrival,
                0.0,
            );
            return Err(MigrateError::Rejected {
                tenant,
                depth,
                limit,
            });
        }
        tally.admitted += 1;
        let idx = self.records.len();
        self.timeline.span(
            format!("job {idx} admit (tenant {tenant})"),
            Track::Admit,
            Category::Admit,
            spec.arrival,
            0.0,
        );
        self.ensure_working_set(spec)?;
        self.records.push(JobRecord {
            spec: spec.clone(),
            placed: f64::NAN,
            end: f64::NAN,
        });
        self.queues.entry(tenant).or_default().push_back(idx);
        self.fifo.push_back(idx);
        Ok(())
    }

    /// Allocate (and deterministically initialize) the tenant's working
    /// set for this problem size, once.
    fn ensure_working_set(&mut self, spec: &JobSpec) -> Result<(), MigrateError> {
        let key = (spec.tenant, spec.elems);
        if self.buffers.contains_key(&key) {
            return Ok(());
        }
        let bytes = spec.elems * 4;
        let x = self.cluster.alloc(bytes);
        let y = self.cluster.alloc(bytes);
        let xs: Vec<f32> = (0..spec.elems)
            .map(|i| (i % 97) as f32 * 0.03125 + spec.tenant as f32)
            .collect();
        self.cluster.upload(x, &xs)?;
        self.buffers.insert(key, (x, y));
        Ok(())
    }

    /// Service time of one job at `k` nodes — its schedule's duration,
    /// from the cluster's planning door — with the lookup's hit or miss
    /// attributed to the tenant.
    fn service_time(&mut self, spec: &JobSpec, args: &[Arg], k: u32) -> Result<f64, MigrateError> {
        let ck = &self.kernels[spec.kernel % Self::KERNELS.len()];
        let before = self.cluster.schedule_cache().stats();
        let (sched, _) = self
            .cluster
            .plan_cached_on(ck, spec.launch(), args, k as usize)?;
        let delta = self.cluster.schedule_cache().stats().since(&before);
        let tally = self.tallies.entry(spec.tenant).or_default();
        tally.cache_hits += delta.hits;
        tally.cache_misses += delta.misses;
        Ok(sched.time())
    }

    fn job_args(&self, spec: &JobSpec) -> Vec<Arg> {
        let (x, y) = self.buffers[&(spec.tenant, spec.elems)];
        vec![
            Arg::Buffer(x),
            Arg::Buffer(y),
            Arg::float(spec.scale),
            Arg::int(spec.elems as i64),
        ]
    }

    /// Node allocation a job actually gets: its request, clamped to the
    /// live capacity (which shrinks and grows with membership epochs).
    fn effective_nodes(&self, spec: &JobSpec) -> u32 {
        spec.nodes.max(1).min(self.placement.total_nodes().max(1))
    }

    /// Functionally execute a placed job on the shared cluster and record
    /// its spans and completion on the serving timeline.
    fn commit_placement(
        &mut self,
        idx: usize,
        clock: f64,
        k: u32,
        service: f64,
    ) -> Result<(), MigrateError> {
        let spec = self.records[idx].spec.clone();
        let args = self.job_args(&spec);
        let ck = &self.kernels[spec.kernel % Self::KERNELS.len()];
        let before_epoch = self.cluster.epoch();
        let report = self.cluster.launch(ck, spec.launch(), &args)?;
        self.node_failures += report.faults.failures;
        if self.cluster.epoch() != before_epoch {
            // Membership changed mid-stream (kill, join, growth): resize
            // the placement capacity at the epoch boundary.
            self.placement.set_total(self.cluster.active_nodes() as u32);
        }
        let tenant = spec.tenant;
        self.timeline.span(
            format!("job {idx} wait (tenant {tenant})"),
            Track::Queue,
            Category::Queue,
            spec.arrival,
            clock - spec.arrival,
        );
        self.timeline.span(
            format!("job {idx} x{k} (tenant {tenant})"),
            Track::Place,
            Category::Place,
            clock,
            service,
        );
        self.records[idx].placed = clock;
        self.records[idx].end = clock + service;
        self.inflight.push(InFlight {
            end: clock + service,
            idx,
        });
        let tally = self.tallies.entry(tenant).or_default();
        tally.completed += 1;
        tally.served_work += k as f64 * service;
        Ok(())
    }

    /// The tenant the deficit counter serves next: smallest weighted
    /// served-work among tenants with queued jobs (ties to the lowest
    /// id). A starving tenant's served-work is frozen, so it is
    /// eventually always chosen and its head holds the EASY reservation —
    /// the no-starvation argument.
    fn pick_tenant(&self) -> Option<u32> {
        let mut best: Option<(f64, u32)> = None;
        for (&tenant, q) in &self.queues {
            let Some(&head) = q.front() else { continue };
            let weight = self.records[head].spec.class.weight();
            let tally = self.tallies.get(&tenant).copied().unwrap_or_default();
            let key = tally.served_work / weight;
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, tenant));
            }
        }
        best.map(|(_, t)| t)
    }

    fn pop_queued(&mut self, idx: usize) {
        if let Some(q) = self.queues.get_mut(&self.records[idx].spec.tenant) {
            if q.front() == Some(&idx) {
                q.pop_front();
            }
        }
        if let Some(pos) = self.fifo.iter().position(|&i| i == idx) {
            self.fifo.remove(pos);
        }
    }

    /// Try to place and execute the job at `idx` right now. Returns
    /// whether it started.
    fn try_place(&mut self, idx: usize, clock: f64) -> Result<bool, MigrateError> {
        let spec = self.records[idx].spec.clone();
        let k = self.effective_nodes(&spec);
        let args = self.job_args(&spec);
        let service = self.service_time(&spec, &args, k)?;
        if !self.placement.try_start(clock, k, service) {
            return Ok(false);
        }
        self.pop_queued(idx);
        self.commit_placement(idx, clock, k, service)?;
        Ok(true)
    }

    /// Place everything that may start at `clock` under the configured
    /// policy.
    fn dispatch(&mut self, clock: f64) -> Result<(), MigrateError> {
        match self.config.policy {
            ServePolicy::Fifo => {
                // Strict arrival order with head-of-line blocking.
                while let Some(&head) = self.fifo.front() {
                    if !self.try_place(head, clock)? {
                        break;
                    }
                }
            }
            ServePolicy::Fair => {
                while let Some(tenant) = self.pick_tenant() {
                    let head = *self.queues[&tenant].front().unwrap();
                    if self.try_place(head, clock)? {
                        continue;
                    }
                    // The chosen head blocks: give it the EASY reservation and
                    // sweep the *other* tenants' heads for backfill (same-tenant
                    // order is never reordered, which keeps per-tenant launch
                    // order — and therefore memory — deterministic).
                    let spec = self.records[head].spec.clone();
                    let k = self.effective_nodes(&spec);
                    let mut res = self.placement.reserve(clock, k);
                    loop {
                        let mut placed_any = false;
                        let tenants: Vec<u32> = self.queues.keys().copied().collect();
                        for other in tenants {
                            if other == tenant {
                                continue;
                            }
                            let Some(&cand) = self.queues[&other].front() else {
                                continue;
                            };
                            let cspec = self.records[cand].spec.clone();
                            let ck = self.effective_nodes(&cspec);
                            let cargs = self.job_args(&cspec);
                            let cservice = self.service_time(&cspec, &cargs, ck)?;
                            if self.placement.try_backfill(clock, ck, cservice, &mut res) {
                                self.pop_queued(cand);
                                self.commit_placement(cand, clock, ck, cservice)?;
                                placed_any = true;
                            }
                        }
                        if !placed_any {
                            break;
                        }
                    }
                    break;
                }
            }
        }
        Ok(())
    }

    /// Drive one arrival stream to completion: admit (or reject) each job
    /// at its arrival time, place queued jobs under the policy at every
    /// event, execute placements on the cluster, and drain completions on
    /// the serving clock. Jobs are processed in arrival order.
    pub fn run(&mut self, jobs: &[JobSpec]) -> Result<ServeReport, MigrateError> {
        // Refused before any job is admitted, as `submit` would refuse it.
        jobs.iter().try_for_each(finite_arrival)?;
        let mut stream: Vec<JobSpec> = jobs.to_vec();
        stream.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        let mut next = 0usize;
        let mut clock = 0.0f64;
        loop {
            self.dispatch(clock)?;
            let t_arr = stream.get(next).map(|j| j.arrival);
            let t_end = self.inflight.peek().map(|f| f.end);
            let t = match (t_arr, t_end) {
                (Some(a), Some(e)) => a.min(e),
                (Some(a), None) => a,
                (None, Some(e)) => e,
                (None, None) => break,
            };
            clock = clock.max(t);
            self.timeline.advance_to(clock);
            while self
                .inflight
                .peek()
                .map(|f| f.end <= clock)
                .unwrap_or(false)
            {
                self.inflight.pop();
            }
            self.placement.release_until(clock);
            while next < stream.len() && stream[next].arrival <= clock {
                match self.submit(&stream[next]) {
                    Ok(()) | Err(MigrateError::Rejected { .. }) => {}
                    Err(e) => return Err(e),
                }
                next += 1;
            }
        }
        debug_assert!(
            self.queues.values().all(VecDeque::is_empty) && self.fifo.is_empty(),
            "the event loop drains every admitted job"
        );
        self.report()
    }

    /// FNV-1a over a byte slice.
    fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
        let mut h = acc;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Assemble the final report (and per-tenant memory digests).
    fn report(&mut self) -> Result<ServeReport, MigrateError> {
        // Digest every tenant's working-set memory, in deterministic
        // (tenant, elems) order.
        let mut digests: BTreeMap<u32, u64> = BTreeMap::new();
        let keys: Vec<((u32, usize), (BufferId, BufferId))> =
            self.buffers.iter().map(|(&k, &v)| (k, v)).collect();
        for ((tenant, _), (x, y)) in keys {
            let mut h = *digests.get(&tenant).unwrap_or(&0xcbf2_9ce4_8422_2325);
            h = Self::fnv1a(h, &self.cluster.download::<u8>(x)?);
            h = Self::fnv1a(h, &self.cluster.download::<u8>(y)?);
            digests.insert(tenant, h);
        }

        let done: Vec<&JobRecord> = self.records.iter().filter(|r| r.end.is_finite()).collect();
        let completed = done.len();
        let makespan = done.iter().map(|r| r.end).fold(0.0f64, f64::max);
        let totals_of = |recs: &[&JobRecord]| -> (Vec<f64>, Vec<f64>, Vec<f64>) {
            let mut q: Vec<f64> = recs.iter().map(|r| r.placed - r.spec.arrival).collect();
            let mut e: Vec<f64> = recs.iter().map(|r| r.end - r.placed).collect();
            let mut t: Vec<f64> = recs.iter().map(|r| r.end - r.spec.arrival).collect();
            q.sort_by(f64::total_cmp);
            e.sort_by(f64::total_cmp);
            t.sort_by(f64::total_cmp);
            (q, e, t)
        };
        let (_, _, all_totals) = totals_of(&done);

        let mut per_class = Vec::new();
        for class in DeadlineClass::ALL {
            let recs: Vec<&JobRecord> = done
                .iter()
                .filter(|r| r.spec.class == class)
                .copied()
                .collect();
            if recs.is_empty() {
                continue;
            }
            let (q, e, t) = totals_of(&recs);
            per_class.push(ClassStats {
                class,
                jobs: recs.len(),
                p50_queue: pct(&q, 0.50),
                p99_queue: pct(&q, 0.99),
                p50_exec: pct(&e, 0.50),
                p99_exec: pct(&e, 0.99),
                p50_total: pct(&t, 0.50),
                p99_total: pct(&t, 0.99),
            });
        }

        let mut per_tenant = Vec::new();
        for (&tenant, tally) in &self.tallies {
            let recs: Vec<&JobRecord> = done
                .iter()
                .filter(|r| r.spec.tenant == tenant)
                .copied()
                .collect();
            let (_, _, t) = totals_of(&recs);
            per_tenant.push(TenantStats {
                tenant,
                admitted: tally.admitted,
                rejected: tally.rejected,
                completed: tally.completed,
                cache_hits: tally.cache_hits,
                cache_misses: tally.cache_misses,
                p50_total: pct(&t, 0.50),
                p99_total: pct(&t, 0.99),
            });
        }

        let admitted: usize = per_tenant.iter().map(|t| t.admitted).sum();
        let rejected: usize = per_tenant.iter().map(|t| t.rejected).sum();
        Ok(ServeReport {
            policy: self.config.policy,
            submitted: admitted + rejected,
            admitted,
            rejected,
            completed,
            makespan,
            launches_per_sec: if makespan > 0.0 {
                completed as f64 / makespan
            } else {
                0.0
            },
            p50_total: pct(&all_totals, 0.50),
            p99_total: pct(&all_totals, 0.99),
            per_class,
            per_tenant,
            cache: self.cluster.schedule_cache().stats(),
            node_failures: self.node_failures,
            digests,
        })
    }
}

/// A job's arrival must be a finite time: the event loop and the sorts
/// order jobs by it.
fn finite_arrival(spec: &JobSpec) -> Result<(), MigrateError> {
    if spec.arrival.is_finite() {
        return Ok(());
    }
    Err(MigrateError::Launch(format!(
        "tenant {}'s job arrives at t={}: arrival times must be finite",
        spec.tenant, spec.arrival
    )))
}

/// Percentile of an ascending-sorted sample (nearest-rank; 0.0 when
/// empty).
fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// xorshift64* — the serving layer's self-contained deterministic RNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Generate a deterministic multi-tenant arrival stream: `jobs` launch
/// requests from `tenants` tenants with exponential interarrivals (mean
/// `mean_gap` seconds) and a linearly skewed tenant mix (tenant 0
/// submits the most). Tenant `t` always uses kernel `t % 2`, problem
/// size `512 << (t % 3)` and deadline class `t % 3`, so repeated jobs
/// hit the schedule cache; node requests vary per job (1–4 nodes).
pub fn synthetic_stream(jobs: usize, tenants: u32, seed: u64, mean_gap: f64) -> Vec<JobSpec> {
    assert!(tenants > 0, "at least one tenant");
    let mut rng = Rng::new(seed);
    let mut t = 0.0f64;
    let total_weight: u64 = (1..=tenants as u64).sum();
    let mut out = Vec::with_capacity(jobs);
    for i in 0..jobs {
        t += -mean_gap * (1.0 - rng.f64()).ln();
        // Linear skew: tenant k has weight (tenants - k).
        let mut draw = rng.next() % total_weight;
        let mut tenant = 0u32;
        for k in 0..tenants {
            let w = (tenants - k) as u64;
            if draw < w {
                tenant = k;
                break;
            }
            draw -= w;
        }
        let class = match tenant % 3 {
            0 => DeadlineClass::Interactive,
            1 => DeadlineClass::Batch,
            _ => DeadlineClass::BestEffort,
        };
        out.push(JobSpec {
            tenant,
            class,
            kernel: (tenant % 2) as usize,
            elems: 512 << (tenant % 3),
            nodes: 1 + (rng.next() % 4) as u32,
            arrival: t,
            scale: 1.0 + (i % 7) as f64 * 0.25,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(nodes: u32, config: ServeConfig) -> JobServer {
        JobServer::new(ClusterSpec::simd_focused().with_nodes(nodes), config).unwrap()
    }

    #[test]
    fn both_policies_complete_every_admitted_job() {
        let jobs = synthetic_stream(60, 4, 7, 2e-4);
        for policy in [ServePolicy::Fifo, ServePolicy::Fair] {
            let mut srv = server(
                4,
                ServeConfig {
                    policy,
                    ..ServeConfig::default()
                },
            );
            let report = srv.run(&jobs).unwrap();
            assert_eq!(report.submitted, 60);
            assert_eq!(report.rejected, 0);
            assert_eq!(report.completed, report.admitted, "{policy:?}");
            assert!(report.makespan > 0.0);
            assert!(report.launches_per_sec > 0.0);
            assert!(!report.per_class.is_empty());
            assert_eq!(report.per_tenant.len(), 4);
            // Repeated tenant kernels hit the schedule cache.
            assert!(report.cache.hits > 0, "{policy:?}: {:?}", report.cache);
            // The timeline carries the serving tracks.
            let spans = srv.timeline().spans();
            assert!(spans.iter().any(|s| s.track == Track::Queue));
            assert!(spans.iter().any(|s| s.track == Track::Admit));
            assert!(spans.iter().any(|s| s.track == Track::Place));
        }
    }

    #[test]
    fn queue_depth_rejections_are_typed_and_counted() {
        let mut srv = server(
            2,
            ServeConfig {
                policy: ServePolicy::Fair,
                queue_depth: 2,
                ..ServeConfig::default()
            },
        );
        let spec = |i: usize| JobSpec {
            tenant: 3,
            class: DeadlineClass::Batch,
            kernel: 0,
            elems: 512,
            nodes: 1,
            arrival: i as f64 * 1e-6,
            scale: 2.0,
        };
        srv.submit(&spec(0)).unwrap();
        srv.submit(&spec(1)).unwrap();
        let err = srv.submit(&spec(2)).unwrap_err();
        match err {
            MigrateError::Rejected {
                tenant,
                depth,
                limit,
            } => {
                assert_eq!((tenant, depth, limit), (3, 2, 2));
            }
            other => panic!("expected Rejected, got {other}"),
        }
        assert!(err.to_string().contains("admission rejected"));
        // A non-finite arrival is refused before anything runs (it used to
        // panic in the arrival sort).
        for arrival in [f64::NAN, f64::INFINITY] {
            let err = srv.run(&[JobSpec { arrival, ..spec(0) }]).unwrap_err();
            assert!(matches!(err, MigrateError::Launch(_)), "{err}");
        }
    }

    #[test]
    fn submit_refuses_a_nan_arrival_with_a_typed_error() {
        let mut srv = server(2, ServeConfig::default());
        let spec = JobSpec {
            tenant: 1,
            class: DeadlineClass::Interactive,
            kernel: 0,
            elems: 512,
            nodes: 1,
            arrival: f64::NAN,
            scale: 1.0,
        };
        let err = srv.submit(&spec).unwrap_err();
        assert!(matches!(err, MigrateError::Launch(_)), "{err}");
        assert_eq!(srv.queue_depth(1), 0, "nothing was admitted");
        // The server still runs a finite stream to its report.
        let report = srv
            .run(&[JobSpec {
                arrival: 0.0,
                ..spec
            }])
            .unwrap();
        assert_eq!((report.submitted, report.completed), (1, 1));
    }

    #[test]
    fn identical_streams_produce_identical_digests_across_policies() {
        // Per-tenant launch order is arrival order under both policies,
        // so memory outcomes agree even though placement differs.
        let jobs = synthetic_stream(40, 3, 11, 1e-4);
        let digests: Vec<_> = [ServePolicy::Fifo, ServePolicy::Fair]
            .into_iter()
            .map(|policy| {
                let mut srv = server(
                    3,
                    ServeConfig {
                        policy,
                        ..ServeConfig::default()
                    },
                );
                srv.run(&jobs).unwrap().digests
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
    }
}
