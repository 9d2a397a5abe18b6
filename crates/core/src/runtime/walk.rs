//! The timing walk of one launch — the paper's §4 rule, once.
//!
//! Every launch walks the fault-aware protocol; when the plan fires
//! nothing (always, for the empty plan) stretches return durations
//! unchanged, the fallible collective lays out the clean collective, the
//! recovery loop runs its body once, and the result is the plain §4
//! workflow with the pre-fault arithmetic, bit for bit.
//!
//! Recovery protocol on a confirmed node death:
//! 1. evict the dead node from the surviving communicator;
//! 2. if the distributed chunk count divides the survivor count,
//!    re-partition the whole block space across survivors, have each
//!    survivor re-execute exactly the blocks its new slice adds
//!    (recorded as `Reexec` spans), and restart the Allgather phase
//!    over the survivors;
//! 3. otherwise §6 balance is violated: degrade to replicated
//!    execution on the survivors (or fail with
//!    [`MigrateError::Degraded`] when the plan forbids it).
//!
//! All functional memory effects are deferred until the timing walk is
//! complete, so each block runs at most once per surviving pool —
//! read-modify-write kernels stay correct through recovery.

use super::{Call, CuccCluster};
use crate::error::MigrateError;
use crate::report::{ExecMode, FaultSummary, LaunchReport, PhaseTimes};
use crate::schedule::LaunchSchedule;
use cucc_analysis::{Partition, ReplicationCause, ThreePhasePlan};
use cucc_exec::{Arg, BlockStats, ExecOptions, Program};
use cucc_net::{collective_step_time, GatherSegment};
use cucc_trace::{Category, Track, WIRE_BYTES};
use std::ops::Range;

/// State of one launch's walk: the communicator as deaths and joins change
/// it, the position inside the Allgather phase, and what the report will
/// state. `plan`/`part` stay borrowed from the schedule.
pub(super) struct Walk<'a> {
    cl: &'a mut CuccCluster,
    call: Call<'a>,
    sched: &'a LaunchSchedule,
    /// The launch's compiled program; `None` under the tree-walk oracle
    /// and in modeled fidelity (where nothing executes).
    prog: Option<&'a Program>,
    t0: f64,
    /// The communicator, ascending.
    survivors: Vec<u32>,
    /// The communicator at launch entry.
    initial: Vec<u32>,
    /// Nodes admitted mid-launch via a `join:` event (they are not in
    /// `initial`): the functional section first hands each one the
    /// donor's launch-entry pool, and their tracks join the lane floor.
    joined: Vec<u32>,
    /// Joins that §6 rejects mid-launch (the in-flight chunk count does
    /// not divide the enlarged communicator) wait for the next launch
    /// boundary; the cluster keeps its current shape for this launch.
    deferred_joins: Vec<u32>,
    /// Start of the Allgather phase.
    t_ag_start: f64,
    /// Everything the phase has spent so far — collectives, retries,
    /// re-execution rounds — summed in order; the walk's position is
    /// always `t_ag_start + t_blocked`, which is also how the plain
    /// workflow lays consecutive collectives out.
    t_blocked: f64,
    /// What the report states, accumulated as the walk goes: phase times
    /// (the completed collectives' analytic time under `allgather`; `retry`
    /// and `reexec` are timeline scans by definition and left to
    /// `derive_report`), the fault summary, and wire bytes (join state
    /// transfers included).
    times: PhaseTimes,
    faults: FaultSummary,
    wire_bytes: u64,
    /// The §6 balance invariant: the total distributed chunk count is
    /// fixed by the plan; a communicator can hold it iff its size divides
    /// that count evenly.
    dist_chunks: u64,
    /// Chunks per node under the current partition.
    cur_cpn: u64,
    slices: Repartition,
}

/// Mutable slice bookkeeping of one launch's recovery walk.
#[derive(Default)]
struct Repartition {
    /// Modeled time of one partial block.
    per_block: f64,
    /// Global block ids each survivor slot currently holds results for
    /// (contiguous by construction: a re-partition hands each survivor its
    /// full new slice).
    owned: Vec<Range<u64>>,
    /// Deferred re-execution passes (per-pool block ranges), run after the
    /// timing walk.
    passes: Vec<Vec<Range<u64>>>,
}

/// How one pass over the Allgather phase ended.
enum Gathered {
    /// Every region is gathered over the current communicator.
    Whole,
    /// Membership changed and the slices were re-partitioned: the whole
    /// phase restarts over the new communicator.
    Restart,
    /// A death left a survivor count §6 cannot balance; the context names
    /// the death.
    Degraded(String),
}

impl<'a> Walk<'a> {
    pub(super) fn new(
        cl: &'a mut CuccCluster,
        call: Call<'a>,
        sched: &'a LaunchSchedule,
        prog: Option<&'a Program>,
        t0: f64,
    ) -> Walk<'a> {
        let survivors = cl.state.alive_ids();
        Walk {
            cl,
            call,
            sched,
            prog,
            t0,
            initial: survivors.clone(),
            survivors,
            joined: Vec::new(),
            deferred_joins: Vec::new(),
            t_ag_start: t0,
            t_blocked: 0.0,
            times: PhaseTimes::default(),
            faults: FaultSummary::default(),
            wire_bytes: 0,
            dist_chunks: 0,
            cur_cpn: 0,
            slices: Repartition::default(),
        }
    }

    /// The walk's position inside (or, once it is over, the end of) the
    /// Allgather phase.
    fn cursor(&self) -> f64 {
        self.t_ag_start + self.t_blocked
    }

    /// Three-phase execution: partial blocks, Allgather with retry,
    /// eviction and re-partition, then callbacks — or, when a death cannot
    /// be re-balanced, the degraded replicated completion.
    pub(super) fn three_phase(
        mut self,
        plan: &ThreePhasePlan,
        part: &Partition,
        has_tail_block: bool,
        net_floor: f64,
        elide: &[bool],
    ) -> Result<(LaunchReport, f64), MigrateError> {
        let name = self.call.ck.name();
        let pbn = part.partial_blocks_per_node;
        let n0 = self.survivors.len() as u64;
        let t_partial = self.sched.times.partial;
        self.times.partial = self.compute_phase(
            &format!("{name}: partial ({pbn} blocks)"),
            Category::Partial,
            self.t0,
            t_partial,
        );
        // `fl(t0 + t_partial) >= t0` for non-negative durations, so with
        // `net_floor == t0` (the synchronous doors) the max is exactly
        // `t0 + t_partial` — serial layouts are preserved bit-for-bit. An
        // async launch may instead wait here for the network lane (an
        // in-flight h2d broadcast).
        self.t_ag_start = (self.t0 + self.times.partial).max(net_floor);
        self.dist_chunks = part.chunks_per_node * n0;
        self.cur_cpn = part.chunks_per_node;
        self.slices = Repartition {
            per_block: if pbn > 0 { t_partial / pbn as f64 } else { 0.0 },
            owned: (0..n0).map(|i| i * pbn..(i + 1) * pbn).collect(),
            ..Repartition::default()
        };
        let degraded = loop {
            self.admit_joins(plan);
            match self.gather(plan, elide)? {
                Gathered::Whole => break None,
                Gathered::Restart => continue,
                Gathered::Degraded(ctx) => break Some(ctx),
            }
        };
        if let Some(ctx) = degraded {
            // Partial results may be mid-gather; the simple, correct
            // recovery re-runs the whole grid from the (unmodified by this
            // launch's deferred passes) inputs — so the partial and re-exec
            // passes are intentionally *not* run.
            let (t_round, node_stats) = self.replicated_pass(
                "degraded replicated re-run",
                Category::Reexec,
                self.cursor(),
            )?;
            self.faults.reexecuted_blocks +=
                self.call.launch.num_blocks() * self.survivors.len() as u64;
            self.faults.degraded = true;
            let mode = ExecMode::Replicated {
                cause: ReplicationCause::NodeLoss(ctx),
            };
            let end = self.cursor() + t_round;
            return Ok(self.finish(mode, node_stats, end));
        }

        if self.t_blocked > 0.0 {
            // Visualization-only: every survivor blocks in the collective
            // (including its retry and re-execution windows).
            for &node in &self.survivors {
                self.cl.timeline.child_span(
                    "allgather",
                    Track::Node(node),
                    Category::Allgather,
                    self.t_ag_start,
                    self.t_blocked,
                );
            }
        }
        self.times.callback = self.compute_phase(
            &format!("{name}: callback ({} blocks)", part.callback_blocks),
            Category::Callback,
            self.cursor(),
            self.sched.times.callback,
        );
        let end = self.cursor() + self.times.callback;

        let node_stats = if self.cl.functional() {
            self.run_phases(plan, part, elide)?
        } else {
            let callback_full = part.callback_blocks - u64::from(has_tail_block);
            let mut stats = self.sched.profile.per_block.scaled(pbn + callback_full);
            if has_tail_block {
                stats += self.sched.profile.tail_block;
            }
            stats
        };
        let mode = ExecMode::ThreePhase {
            plan: plan.clone(),
            nodes: self.survivors.len() as u64,
            partial_blocks_per_node: self.cur_cpn * plan.chunk_blocks,
            callback_blocks: part.callback_blocks,
        };
        Ok(self.finish(mode, node_stats, end))
    }

    /// Replicated execution: the launch runs on the alive nodes, with
    /// straggler stretch; the accounting files replicated time under the
    /// callback phase. Replicated launches run no collective, so a scripted
    /// kill is *not detected* here — the node simply keeps its stale
    /// replica (excluded from the consistency check) until a three-phase
    /// launch's collective confirms the death.
    pub(super) fn replicated(
        mut self,
        cause: ReplicationCause,
    ) -> Result<(LaunchReport, f64), MigrateError> {
        let (t, node_stats) = self.replicated_pass("replicated", Category::Callback, self.t0)?;
        self.times.callback = t;
        let end = self.t0 + t;
        Ok(self.finish(ExecMode::Replicated { cause }, node_stats, end))
    }

    /// Lay one compute phase of base duration `dur` onto every current
    /// survivor at `at` and return the slowest node's time. Stragglers
    /// stretch a node's own span; a re-execution round is instead recorded
    /// uniformly, as its critical path, on every node (the derived
    /// `reexec` view sums the rounds).
    fn compute_phase(&mut self, label: &str, category: Category, at: f64, dur: f64) -> f64 {
        let cl = &mut *self.cl;
        let stretched = |&node: &u32| cl.fault_state.stretch(node, at, dur);
        let slowest = self.survivors.iter().map(stretched).fold(0.0, f64::max);
        for node in &self.survivors {
            let d = match category {
                Category::Reexec => slowest,
                _ => stretched(node),
            };
            cl.timeline.span(label, Track::Node(*node), category, at, d);
        }
        slowest
    }

    /// Mid-launch joins: before (re)starting the Allgather phase over the
    /// current communicator, admit every scripted joiner that is ripe.
    /// Only existing node slots can rejoin mid-launch — cluster *growth* is
    /// a launch-boundary operation — and the §6 balance rule gates
    /// admission exactly like the death-side re-partition.
    fn admit_joins(&mut self, plan: &ThreePhasePlan) {
        while let Some(node) = self
            .cl
            .fault_state
            .joins_pending(self.cursor())
            .into_iter()
            .find(|&jn| {
                // A node that died *this* launch rejoins at the next launch
                // boundary: its pool already ran partial blocks here, and a
                // mid-launch readmission would re-apply them (wrong for
                // read-modify-write kernels).
                (jn as usize) < self.cl.state.logical_nodes()
                    && !self.survivors.contains(&jn)
                    && !self.initial.contains(&jn)
                    && !self.deferred_joins.contains(&jn)
            })
        {
            let m_new = self.survivors.len() as u64 + 1;
            if self.dist_chunks % m_new != 0 {
                self.deferred_joins.push(node);
                continue;
            }
            let t = self.cursor();
            self.cl.fault_state.take_join(node, t);
            // The join supersedes the kill(s) that took the slot down.
            self.cl.fault_state.absorb_kills(node, t);
            self.cl.state.mark_alive(node as usize);
            let slot = self
                .survivors
                .iter()
                .position(|&s| s > node)
                .unwrap_or(self.survivors.len());
            self.survivors.insert(slot, node);
            if !self.joined.contains(&node) {
                self.joined.push(node);
            }
            // The joiner owns nothing yet — an empty range at its new slice
            // start — so the slice diff hands it exactly its full new
            // slice.
            let start = slot as u64 * (self.dist_chunks / m_new * plan.chunk_blocks);
            self.slices.owned.insert(slot, start..start);
            // The joiner first receives the launch-entry cluster state
            // from one survivor (point-to-point on the wire), then
            // re-executes its slice like any re-partition.
            let xfer_bytes = self.cl.node_state_bytes();
            let xfer = collective_step_time(&self.cl.sim.spec.net, xfer_bytes);
            if xfer_bytes > 0 {
                self.cl
                    .timeline
                    .counter(WIRE_BYTES, Track::Network, t, xfer_bytes);
                self.wire_bytes += xfer_bytes;
            }
            let label = format!("{}: re-exec after node {node} join", self.call.ck.name());
            self.repartition(plan, Some((node, xfer)), label);
        }
    }

    /// One pass over the Allgather phase: the fallible collective of every
    /// region that is not elided, over the current communicator. A
    /// confirmed death ends the pass early.
    fn gather(&mut self, plan: &ThreePhasePlan, elide: &[bool]) -> Result<Gathered, MigrateError> {
        let ck = self.call.ck;
        for (idx, region) in plan.buffers.iter().enumerate() {
            if elided(elide, idx) {
                continue;
            }
            let label = format!(
                "allgather {}",
                ck.kernel.params[region.param.index()].name()
            );
            let cl = &mut *self.cl;
            let gather = cl.plan_gather(&vec![region.unit * self.cur_cpn; self.survivors.len()]);
            let res = gather.record_fallible(
                &self.survivors,
                &mut cl.fault_state,
                &mut cl.timeline,
                self.t_ag_start + self.t_blocked,
                &label,
            );
            match res {
                Ok(g) => {
                    let cost = gather.cost();
                    self.faults.retries += g.retries;
                    self.t_blocked += g.retry_time + cost.time;
                    self.times.allgather += cost.time;
                    self.wire_bytes += cost.wire_bytes;
                }
                Err(abort) => {
                    self.faults.retries += abort.retries;
                    self.t_blocked += abort.retry_time;
                    let context = format!("{label} in `{}`", ck.name());
                    let Some(slot) = abort.dead_slot else {
                        return Err(MigrateError::Timeout {
                            context,
                            retries: abort.retries,
                        });
                    };
                    return self.on_death(slot, plan, context);
                }
            }
        }
        Ok(Gathered::Whole)
    }

    /// A collective confirmed the death of survivor `slot`: evict it, then
    /// re-partition its slice over the survivors if §6 balance allows,
    /// degrade otherwise.
    fn on_death(
        &mut self,
        slot: usize,
        plan: &ThreePhasePlan,
        context: String,
    ) -> Result<Gathered, MigrateError> {
        self.faults.failures += 1;
        let dead = self.survivors.remove(slot);
        // The membership epoch advances, and the active count the next
        // schedule lookup is keyed on drops by one.
        self.cl.state.mark_dead(dead as usize);
        self.slices.owned.remove(slot);
        if self.survivors.is_empty() {
            return Err(MigrateError::NodeFailure {
                node: Some(dead),
                context,
            });
        }
        let m_new = self.survivors.len() as u64;
        if self.dist_chunks % m_new != 0 {
            // Re-partitioning would break Allgather balance.
            let context = format!("node {dead} died during {context}");
            if !self.cl.fault_state.allow_degraded() {
                return Err(MigrateError::Degraded {
                    context,
                    survivors: m_new as u32,
                });
            }
            return Ok(Gathered::Degraded(context));
        }
        let label = format!("{}: re-exec after node {dead} death", self.call.ck.name());
        self.repartition(plan, None, label);
        Ok(Gathered::Restart)
    }

    /// One re-partition round, the same for a death and for a mid-launch
    /// join: survivor slot `j` takes the `j`-th of the communicator's equal
    /// slices and re-executes only what that slice adds over the blocks its
    /// pool already holds (`slices.owned`, updated in place); the added
    /// ranges are queued as deferred passes. A `joiner` — its node id and
    /// state-transfer time — receives the cluster state before its re-run.
    /// The round's critical path is recorded as one `Reexec` span at the
    /// cursor on every survivor, and the cursor moves past it.
    fn repartition(&mut self, plan: &ThreePhasePlan, joiner: Option<(u32, f64)>, label: String) {
        self.cur_cpn = self.dist_chunks / self.survivors.len() as u64;
        let pbn = self.cur_cpn * plan.chunk_blocks;
        let t = self.cursor();
        let cl = &mut *self.cl;
        let slices = &mut self.slices;
        let mut pass_a = vec![0u64..0u64; cl.state.logical_nodes()];
        let mut pass_b = pass_a.clone();
        let mut t_round = 0.0f64;
        for (j, &node) in self.survivors.iter().enumerate() {
            let new = j as u64 * pbn..(j as u64 + 1) * pbn;
            let old = slices.owned[j].clone();
            let left = new.start..old.start.clamp(new.start, new.end);
            let right = old.end.clamp(new.start, new.end)..new.end;
            let blocks = (left.end - left.start) + (right.end - right.start);
            let mut d = cl
                .fault_state
                .stretch(node, t, slices.per_block * blocks as f64);
            if let Some((_, xfer)) = joiner.filter(|&(jn, _)| jn == node) {
                // The state transfer precedes the joiner's re-run.
                d += xfer;
            }
            t_round = t_round.max(d);
            self.faults.reexecuted_blocks += blocks;
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
        // rounds.
        for &node in &self.survivors {
            cl.timeline.span(
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
        self.t_blocked += t_round;
    }

    /// The one replicated completion — the planner's replicated fallback
    /// and the degraded recovery alike: every current survivor redundantly
    /// runs the whole grid from `at`. Returns the slowest node's time and
    /// the first survivor's statistics.
    fn replicated_pass(
        &mut self,
        what: &str,
        category: Category,
        at: f64,
    ) -> Result<(f64, BlockStats), MigrateError> {
        let blocks = self.call.launch.num_blocks();
        let label = format!("{}: {what} ({blocks} blocks)", self.call.ck.name());
        let t = self.compute_phase(&label, category, at, self.sched.degraded_time);
        let mut node_stats = self.sched.profile.total;
        if self.cl.functional() {
            self.seed_joiners();
            let mut all = vec![0u64..0u64; self.cl.state.logical_nodes()];
            for &node in &self.survivors {
                all[node as usize] = 0..blocks;
            }
            // Replicated launches are exactly the non-distributable ones
            // (atomics, overlapping writes), so blocks stay serial per node.
            node_stats = self.run_pass(&all, false)?[self.survivors[0] as usize];
        }
        Ok((t, node_stats))
    }

    /// The deferred functional passes of a three-phase launch, in order:
    /// partial slices on the nodes alive at entry, re-execution ranges, a
    /// per-region Allgather among survivors, callbacks. Returns the first
    /// survivor's statistics.
    fn run_phases(
        &mut self,
        plan: &ThreePhasePlan,
        part: &Partition,
        elide: &[bool],
    ) -> Result<BlockStats, MigrateError> {
        let pbn = part.partial_blocks_per_node;
        let nodes = self.cl.state.logical_nodes();
        let first = self.survivors[0] as usize;
        // Mid-launch joiners' blocks come from the re-exec passes (Pass B)
        // recorded at admission time.
        self.seed_joiners();
        // Three-phase plans are Allgather-distributable — per-block write
        // intervals are disjoint — so intra-node block parallelism is safe
        // in every pass here.
        // Pass A: the original partial slices, on every node that was
        // alive at launch entry (mid-launch deaths are detected at the
        // collective; the dead pool's stale bytes are never gathered).
        let mut assignments = vec![0u64..0u64; nodes];
        for (j, &node) in self.initial.iter().enumerate() {
            assignments[node as usize] = j as u64 * pbn..(j as u64 + 1) * pbn;
        }
        let mut node_stats = self.run_pass(&assignments, true)?[first];
        // Pass B: recovery re-execution rounds, in order.
        for pass in std::mem::take(&mut self.slices.passes) {
            node_stats += self.run_pass(&pass, true)?[first];
        }
        // Pass C: the Allgather over the surviving communicator, with the
        // final re-partitioned unit.
        let among: Vec<usize> = self.survivors.iter().map(|&s| s as usize).collect();
        for (idx, region) in plan.buffers.iter().enumerate() {
            if elided(elide, idx) {
                continue;
            }
            let unit = region.unit * self.cur_cpn;
            let Arg::Buffer(id) = self.call.args[region.param.index()] else {
                return Err(MigrateError::Launch(format!(
                    "parameter {} is not a buffer",
                    region.param
                )));
            };
            if unit > 0 {
                let sizes = vec![unit; among.len()];
                let gather = self.cl.plan_gather(&sizes);
                let segments = GatherSegment::contiguous(&sizes);
                self.cl
                    .sim
                    .gather_segments(id, region.base, &segments, &among, &gather);
            }
        }
        // Pass D: callbacks on survivors.
        let mut cb = vec![0u64..0u64; nodes];
        for &node in &self.survivors {
            cb[node as usize] = part.callback_start..plan.num_blocks;
        }
        node_stats += self.run_pass(&cb, true)?[first];
        Ok(node_stats)
    }

    /// Mid-launch joiners first receive the launch-entry state from a
    /// donor pool (functional effects are deferred, so the donor still
    /// holds it).
    fn seed_joiners(&mut self) {
        for &jn in &self.joined {
            self.cl
                .sim
                .copy_node_state(self.initial[0] as usize, jn as usize);
        }
    }

    /// Run one deferred block pass (per-pool block ranges) through the
    /// configured engine: the launch's compiled program, or the tree-walk
    /// oracle interpreting the kernel.
    fn run_pass(
        &mut self,
        ranges: &[Range<u64>],
        block_parallel: bool,
    ) -> Result<Vec<BlockStats>, MigrateError> {
        let Call { ck, launch, args } = self.call;
        let opts = ExecOptions {
            engine: self.cl.config.engine,
            node_threads: self.cl.config.node_threads,
            block_parallel,
        };
        let sim = &mut self.cl.sim;
        Ok(match self.prog {
            Some(prog) => sim.run_program_parallel(prog, ranges, &opts)?,
            None => sim.run_blocks_parallel_opts(&ck.kernel, launch, ranges, args, &opts)?,
        })
    }

    /// Close the walk: per-node execution statistics as counter samples at
    /// launch start, the lanes the launch occupied — every node lane until
    /// its last span ends at `end`, the network lane for the Allgather
    /// window — and the report the walk accumulated.
    fn finish(self, mode: ExecMode, node_stats: BlockStats, end: f64) -> (LaunchReport, f64) {
        let tl = &mut self.cl.timeline;
        for &node in &self.survivors {
            node_stats.emit_counters(tl, Track::Node(node), self.t0);
        }
        for &node in self.initial.iter().chain(&self.joined) {
            tl.reserve_lane(Track::Node(node), end);
        }
        if self.t_blocked > 0.0 {
            tl.reserve_lane(Track::Network, self.t_ag_start + self.t_blocked);
        }
        let report = LaunchReport {
            mode,
            times: self.times,
            node_stats,
            wire_bytes: self.wire_bytes,
            faults: self.faults,
        };
        (report, end)
    }
}

/// Whether the graph replayer deferred region `idx`'s gather (`elide` is
/// parallel to the plan's regions, or empty for "gather all").
pub(super) fn elided(elide: &[bool], idx: usize) -> bool {
    elide.get(idx).copied().unwrap_or(false)
}
