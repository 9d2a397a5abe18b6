//! Graph replay: cached schedules, gather elision, and the lazy
//! materialization of what was elided.

use super::walk::elided;
use super::{Call, CuccCluster, Start};
use crate::error::MigrateError;
use crate::graph::{
    segments_for, uncovered_ranges, GraphOp, LaunchGraph, PendingGather, ReplayStats,
};
use crate::schedule::{LaunchSchedule, ScheduleDecision};
use cucc_analysis::{BufferFootprint, LaunchFootprints, Partition, ThreePhasePlan};
use cucc_exec::{Arg, BufferId};
use cucc_net::{owner_bytes, GatherSegment};
use std::collections::BTreeSet;

/// A replayed launch: the footprints capture resolved for it, and the
/// replay's counters.
pub(super) type Replayed<'r> = (Option<&'r LaunchFootprints>, &'r mut ReplayStats);

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

impl CuccCluster {
    /// Replay a captured [`LaunchGraph`] once.
    ///
    /// Ops execute in capture order (a valid topological order of the
    /// dependency DAG). Launch schedules come from the [`crate::ScheduleCache`];
    /// the communication optimizer decides, per gathered region, whether
    /// the Allgather runs in full, is narrowed to uncovered sub-ranges
    /// (partial gather), or is elided entirely (the buffer goes
    /// *pending* — each node keeps just its own slice until a download,
    /// an uncovered consumer, or a graph-external launch materializes
    /// it). Memory after replay + download is bit-identical to running
    /// the same ops uncaptured.
    pub fn graph_replay(&mut self, graph: &LaunchGraph) -> Result<ReplayStats, MigrateError> {
        self.drain(Start::Clock, &[])?;
        let mut stats = ReplayStats::default();
        let cache0 = self.schedule_cache.stats();
        let t_start = self.timeline.clock();
        for node in &graph.nodes {
            match node.op {
                GraphOp::Upload { buf, ref data } => self.h2d(buf, data, Start::Clock)?,
                GraphOp::Launch {
                    ref ck,
                    launch,
                    ref args,
                } => {
                    let replayed = Some((node.footprints.as_ref(), &mut stats));
                    let call = Call { ck, launch, args };
                    stats.wire_bytes += self.submit(call, replayed, Start::Clock)?.wire_bytes;
                }
            }
        }
        let lookups = self.schedule_cache.stats().since(&cache0);
        stats.cache_hits = lookups.hits;
        stats.cache_misses = lookups.misses;
        // `wire_bytes` holds launch-related wire only (full + partial +
        // materialization gathers): captured uploads broadcast the same
        // bytes captured or not, so they are left out of the savings, and
        // `wire_bytes_saved` has so far summed the planned gather wire.
        stats.wire_bytes_saved = stats.wire_bytes_saved.saturating_sub(stats.wire_bytes);
        stats.time = self.timeline.clock() - t_start;
        Ok(stats)
    }

    /// What replay adds to a captured launch between planning and the walk:
    /// resolve each pending buffer it touches — covered (nothing to do),
    /// narrowed (partial gather) or materialized (full gather) — then elide
    /// what of its own gathers it can and record the pending state that
    /// leaves. Returns the elision mask (parallel to the three-phase plan's
    /// `buffers`, or empty for "gather all").
    pub(super) fn replay_gathers(
        &mut self,
        args: &[Arg],
        sched: &LaunchSchedule,
        (fps, stats): Replayed<'_>,
    ) -> Vec<bool> {
        let mark = self.timeline.checkpoint();
        let touched: BTreeSet<BufferId> =
            sched.reads.iter().chain(&sched.writes).copied().collect();
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
        stats.wire_bytes += self.timeline.wire_bytes_since(mark);
        // The planned gather wire; `graph_replay` subtracts what moved.
        stats.wire_bytes_saved += sched.wire_bytes;
        let elide = self.elision_plan(args, sched, fps);
        // Elided regions go (or stay) pending with fresh slices; fully
        // gathered regions are consistent again.
        if let ScheduleDecision::ThreePhase { plan, part, .. } = &sched.decision {
            for (idx, region) in plan.buffers.iter().enumerate() {
                let Arg::Buffer(id) = args[region.param.index()] else {
                    continue;
                };
                let unit = region.unit * part.chunks_per_node;
                if elided(&elide, idx) {
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
                    // `pending_action` only lets a matching-geometry
                    // region write a pending buffer, so the full gather
                    // covers the whole pending span.
                    self.pending.remove(&id);
                }
            }
        }
        elide
    }

    /// What replay needs before it may reason about a launch's gathers: a
    /// three-phase decision (replicated consumers run the whole grid on
    /// every node, so any node may read anywhere) with static footprints,
    /// under an empty fault plan (policy: a session with an armed plan
    /// never elides; if one inherits pending state, it resolves it the
    /// safe way).
    fn replay_scope<'s>(
        &self,
        sched: &'s LaunchSchedule,
        fps: Option<&'s LaunchFootprints>,
    ) -> Option<(&'s ThreePhasePlan, &'s Partition, &'s LaunchFootprints)> {
        match &sched.decision {
            ScheduleDecision::ThreePhase { plan, part, .. } if self.config.faults.is_empty() => {
                Some((plan, part, fps?))
            }
            _ => None,
        }
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
        let Some((plan, part, fps)) = self.replay_scope(sched, fps) else {
            return PendingAction::Materialize;
        };
        let n = self.state.logical_nodes() as u64;
        if pg.nodes != n || pg.unit == 0 {
            return PendingAction::Materialize;
        }
        // Writes: only a same-geometry gathered region may overwrite a
        // pending buffer (each node then rewrites exactly its own slice,
        // which the planner proved dense and slice-local).
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
        // Reads: every read of this buffer must have a `Must` footprint
        // (`byte_ranges` is `None` otherwise); partial-phase reads of node
        // `j` must be covered by node `j`'s resident data, callback-phase
        // reads by data resident everywhere.
        let pbn = part.partial_blocks_per_node;
        let mut per_node: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n as usize];
        let mut everywhere: Vec<(u64, u64)> = Vec::new();
        let mut reads = reads_of(fps, args, id).peekable();
        if sched.reads.contains(&id) && reads.peek().is_none() {
            // The schedule says the kernel reads this buffer but the
            // footprints do not show it — never elide on a mismatch.
            return PendingAction::Materialize;
        }
        for fp in reads {
            let Some(rs) = fp.byte_ranges(part.callback_start..plan.num_blocks) else {
                return PendingAction::Materialize;
            };
            everywhere.extend(rs);
            for j in 0..n {
                let Some(rs) = fp.byte_ranges(j * pbn..(j + 1) * pbn) else {
                    return PendingAction::Materialize;
                };
                per_node[j as usize].extend(rs);
            }
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
        let Some((plan, part, fps)) = self.replay_scope(sched, fps) else {
            return Vec::new();
        };
        let n = self.state.logical_nodes() as u64;
        // Aliased region buffers would share one pending entry: keep the
        // full gathers.
        let mut region_bufs = BTreeSet::new();
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
            elide[idx] = reads_of(fps, args, *id).all(|fp| {
                fp.byte_ranges(part.callback_start..plan.num_blocks)
                    .is_some_and(|rs| !rs.iter().any(|&(lo, hi)| lo < span.1 && hi > span.0))
            });
        }
        elide
    }

    /// Gather `segs` (byte ranges relative to `pg.base`, owned by slice) of a
    /// pending buffer over the pending gather's own node set, at the
    /// current clock and advancing past it: plan, record, and — in
    /// functional fidelity — move. Timing is the plan's either way.
    /// Recorded *outside* any launch's report window, so launch reports
    /// keep their bit-for-bit derived invariants.
    fn gather_pending(
        &mut self,
        buf: BufferId,
        pg: &PendingGather,
        segs: &[GatherSegment],
        label: &str,
    ) {
        let nodes = pg.nodes as usize;
        let plan = self.plan_gather(&owner_bytes(nodes, segs));
        let t0 = self.timeline.clock();
        plan.record(&mut self.timeline, t0, label);
        if self.functional() {
            let among: Vec<usize> = (0..nodes).collect();
            self.sim.gather_segments(buf, pg.base, segs, &among, &plan);
        }
        self.advance_past_network(plan.cost().time);
    }

    /// Run the deferred full Allgather for `buf`. No-op when the buffer is
    /// not pending.
    pub(super) fn materialize_buffer(&mut self, buf: BufferId) {
        let Some(pg) = self.pending.remove(&buf) else {
            return;
        };
        if pg.is_empty() {
            return;
        }
        let slices = GatherSegment::contiguous(&vec![pg.unit; pg.nodes as usize]);
        self.gather_pending(buf, &pg, &slices, "materialize gather");
    }

    /// Materialize every pending buffer (a join's donor pool and a
    /// checkpoint image must be globally consistent).
    pub(super) fn materialize_all(&mut self) {
        let bufs: Vec<BufferId> = self.pending.keys().copied().collect();
        for buf in bufs {
            self.materialize_buffer(buf);
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
        let Some(mut pg) = self.pending.remove(&buf) else {
            return;
        };
        self.gather_pending(buf, &pg, segs, "partial gather");
        stats.gathers_narrowed += 1;
        let gathered = segs.iter().map(|s| (pg.base + s.lo, pg.base + s.hi));
        pg.extras = crate::graph::normalize(pg.extras.into_iter().chain(gathered).collect());
        self.pending.insert(buf, pg);
    }
}

/// Footprints of the launch's reads of buffer `id`.
fn reads_of<'f>(
    fps: &'f LaunchFootprints,
    args: &'f [Arg],
    id: BufferId,
) -> impl Iterator<Item = &'f BufferFootprint> {
    fps.reads
        .iter()
        .filter(move |(p, _)| matches!(args.get(p.index()), Some(Arg::Buffer(b)) if *b == id))
        .map(|(_, fp)| fp)
}
