//! The launch path: planning and the one launch function,
//! [`CuccCluster::submit`], behind `launch`, `launch_on` and graph replay.
//!
//! A [`Start`] decides what is drained first, whether ripe joins enter,
//! where the launch starts and how time moves afterwards; the captured
//! footprints decide when pending inputs are gathered and which gathers
//! are deferred (DESIGN.md §5.2 has the table). Everything between —
//! compile, sanitizer, the timing walk, the functional passes, the report
//! and the consistency check — is the same for every launch.

use super::replay::Replayed;
use super::walk::Walk;
use super::{Call, CuccCluster, Start};
use crate::compile::CompiledKernel;
use crate::error::MigrateError;
use crate::report::{LaunchReport, PhaseTimes};
use crate::schedule::{
    compile_certified, plan_and_compile, schedule_key, LaunchSchedule, ScheduleDecision,
};
use crate::stream::StreamId;
use cucc_analysis::{CompiledLaunch, LaunchFacts};
use cucc_exec::{Arg, EngineKind};
use cucc_ir::LaunchConfig;
use cucc_trace::{Category, Mark, Track};

impl CuccCluster {
    /// The pure **planning** stage of a launch: run the launch-time
    /// planner, the sampling profiler and the cost model, and return the
    /// resulting [`LaunchSchedule`] without touching the timeline or any
    /// node's memory. Always fresh — this is the miss path of
    /// [`CuccCluster::plan_cached`], the door every launch goes through.
    pub fn plan(
        &self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<LaunchSchedule, MigrateError> {
        self.plan_on(ck, launch, args, self.active_nodes())
            .map(|(s, _)| s)
    }

    /// [`CuccCluster::plan`] for a launch spread over `nodes` nodes, with
    /// the certified program its profile ran.
    fn plan_on(
        &self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
        nodes: usize,
    ) -> Result<(LaunchSchedule, CompiledLaunch), MigrateError> {
        if nodes == 0 {
            return Err(MigrateError::NodeFailure {
                node: None,
                context: format!("planning `{}`", ck.name()),
            });
        }
        plan_and_compile(
            ck,
            launch,
            args,
            self.sim.node(self.read_node()),
            &self.sim.spec,
            nodes,
            &self.config,
        )
    }

    /// The one planning door: the schedule of this launch on the active
    /// nodes, from the [`crate::ScheduleCache`] when its
    /// [`crate::ScheduleKey`] was planned before, planned fresh (and kept)
    /// otherwise.
    pub fn plan_cached(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<LaunchSchedule, MigrateError> {
        self.plan_cached_on(ck, launch, args, self.active_nodes())
            .map(|(s, _)| s)
    }

    /// [`CuccCluster::plan_cached`] at an explicit node count (the serving
    /// layer's `k`-node service shape is just another key), with the
    /// certified program a miss profiled with: the launch runs it rather
    /// than compiling again. A hit brings no program. A buffer
    /// argument the cluster never allocated is refused here, for every door.
    pub(crate) fn plan_cached_on(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
        nodes: usize,
    ) -> Result<(LaunchSchedule, Option<CompiledLaunch>), MigrateError> {
        for a in args {
            if let Arg::Buffer(id) = a {
                self.check_buffer(*id, "launch")?;
            }
        }
        let key = schedule_key(ck, launch, args, nodes, &self.config);
        if let Some(sched) = self.schedule_cache.get(&key) {
            return Ok((sched, None));
        }
        let (sched, prog) = self.plan_on(ck, launch, args, nodes)?;
        // Contents can change what such a kernel's profile sees,
        // and no key holds contents: it plans fresh on every lookup.
        if !ck.analysis.content_steered {
            self.schedule_cache.insert(key, sched.clone());
        }
        Ok((sched, Some(prog)))
    }

    /// Launch a compiled kernel on the default stream, synchronously: the
    /// simulated clock advances past the launch. The launch-time planner
    /// decides between the three-phase workflow and the replicated
    /// fallback; the report carries the time breakdown.
    pub fn launch(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
    ) -> Result<LaunchReport, MigrateError> {
        self.submit(Call { ck, launch, args }, None, Start::Clock)
    }

    /// Launch a compiled kernel on `stream` without blocking the clock.
    /// Only the simulated-time layout is asynchronous: functional execution
    /// is eager, in submission order (always a valid serialization, since
    /// hazard and event edges only point to earlier submissions), and the
    /// report carries the same per-phase durations the default stream
    /// would produce.
    pub fn launch_on(
        &mut self,
        ck: &CompiledKernel,
        launch: LaunchConfig,
        args: &[Arg],
        stream: StreamId,
    ) -> Result<LaunchReport, MigrateError> {
        self.submit(Call { ck, launch, args }, None, Start::Stream(stream))
    }

    /// The one launch function behind `launch`, `launch_on` and every
    /// launch of graph replay: drain and admit what `start` requires, plan
    /// through [`CuccCluster::plan_cached_on`], lay the schedule onto the
    /// timeline from `start`'s time, run the functional blocks, and return
    /// the report — derived from, and checked against, the spans this
    /// launch recorded — after moving time past it.
    ///
    /// `replayed` is `None` for an uncaptured launch, which materializes its
    /// pending arguments before planning (the profile samples node memory)
    /// and never defers a gather. A replayed launch reconciles its pending
    /// inputs after planning, and the walk skips the Allgathers replay
    /// elides: no collective spans, no wire bytes, no functional gather —
    /// each node keeps only its own slice.
    pub(super) fn submit(
        &mut self,
        call: Call<'_>,
        replayed: Option<Replayed<'_>>,
        start: Start,
    ) -> Result<LaunchReport, MigrateError> {
        let Call { ck, launch, args } = call;
        self.drain(start, args)?;
        if let Start::Clock = start {
            // A synchronous launch is a membership boundary: scripted joins
            // whose time has come enter the communicator before planning.
            // A stream launch admits them at its Allgather.
            self.process_joins()?;
        }
        if replayed.is_none() {
            // A graph-external launch must see fully gathered memory: the
            // profiler samples node memory and the grid may read anywhere.
            for a in args {
                if let Arg::Buffer(id) = a {
                    self.materialize_buffer(*id);
                }
            }
        }
        let (sched, planned) = self.plan_cached_on(ck, launch, args, self.active_nodes())?;
        let elide = match replayed {
            Some(r) => self.replay_gathers(args, &sched, r),
            None => Vec::new(),
        };
        let functional = self.functional();
        let lane = functional && self.config.engine == EngineKind::Lane;
        // One compile per functional launch, whatever its mode; every pass
        // and the sanitizer reuse it, and a planning miss already made it.
        // The tree-walk oracle interprets the kernel itself (and modeled
        // fidelity runs nothing): a miss's program then serves only the
        // profile and the sanitizer.
        let compiled = match planned {
            Some(c) if functional => Some(c),
            None if lane => {
                let pool = self.sim.node(self.read_node());
                Some(compile_certified(ck, launch, args, pool, &self.config)?)
            }
            _ => None,
        };
        if functional && self.config.sanitize {
            self.run_sanitizer(call, compiled.as_ref())?;
        }
        let prog = compiled.as_ref().filter(|_| lane).map(|c| &c.program);
        #[cfg(test)]
        {
            self.last_certs = prog.map(|p| (p.cert_stats(), p.cert_mode()));
        }
        // A kernel occupies every node lane, and its Allgather waits for the
        // network lane. At the clock nothing else is in flight, so the floor
        // is the clock itself: `t0 + partial` can never round below `t0`,
        // so the serial layout — and its exact f64 arithmetic — holds.
        let nodes = (0..self.state.logical_nodes()).map(|i| Track::Node(i as u32));
        let t0 = self.start_time(start, &sched.reads, &sched.writes, nodes);
        let net_floor = match start {
            Start::Clock => t0,
            Start::Stream(_) => self.timeline.lane_ready(Track::Network),
        };
        let mark = self.timeline.checkpoint();
        let walk = Walk::new(self, call, &sched, prog, t0);
        let (report, end) = match &sched.decision {
            ScheduleDecision::ThreePhase {
                plan,
                part,
                has_tail_block,
            } => walk.three_phase(plan, part, *has_tail_block, net_floor, &elide)?,
            ScheduleDecision::Replicated { cause } => walk.replicated(cause.clone())?,
        };
        let report = self.derive_report(mark, report, ck);
        self.verify_written(call)?;
        self.close(start, &sched.reads, &sched.writes, report.time(), end);
        Ok(report)
    }

    /// Run the dynamic sanitizer on a scratch clone of node 0's memory and
    /// cross-validate the static verifier, the same way `oracle.rs`
    /// validates distribution plans: a dynamic race (or OOB) observed on a
    /// launch the verifier proved race-free (or in-bounds) is a soundness
    /// bug and fails the launch loudly. The verifier reads the launch's own
    /// program and range analysis (`compiled`: a planning miss's, or the
    /// lane engine's; a tree-walk launch that hit the schedule cache has
    /// none, and the facts compile it). The sanitizer itself is
    /// observational — findings are stored on [`CuccCluster::sanitize_report`],
    /// not treated as errors (the real execution still traps OOB).
    fn run_sanitizer(
        &mut self,
        call: Call<'_>,
        compiled: Option<&CompiledLaunch>,
    ) -> Result<(), MigrateError> {
        let Call { ck, launch, args } = call;
        let pool = self.sim.node(0);
        let dynamic = cucc_exec::sanitize_launch(&ck.kernel, launch, args, pool);
        let size_of = |b: cucc_exec::BufferId| (b.index() < pool.len()).then(|| pool.size_of(b));
        let acc = Some(&ck.analysis.accesses);
        let facts = LaunchFacts::of(&ck.kernel, acc, launch, args, size_of, compiled);
        let s = cucc_analysis::verify(&facts, false, None);
        #[cfg(test)]
        {
            self.last_verdicts = Some((s.clone(), compiled.is_some()));
        }
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

    /// The paper's consistency invariant: after every functional launch
    /// each written buffer must be identical on every node. Modeled
    /// fidelity moves no bytes, so it has nothing to check.
    fn verify_written(&self, call: Call<'_>) -> Result<(), MigrateError> {
        let Call { ck, args, .. } = call;
        if self.functional() {
            // Dead nodes keep stale pre-recovery bytes; the invariant holds
            // over the surviving communicator (every node, absent faults).
            let survivors: Vec<usize> =
                self.state.alive_ids().iter().map(|&i| i as usize).collect();
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
    /// walk computed directly bit-for-bit (`retry` and `reexec` are
    /// timeline views by definition: the walk leaves them to this scan).
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
            // Kernel launches must not record broadcasts.
            broadcast: tl.time_in_since(mark, Category::Broadcast),
            // Retry spans are wasted wire time: a flat in-order sum.
            retry: tl.time_in_since(mark, Category::Retry),
            // Each re-execution round is recorded uniformly on every node
            // in the communicator at that moment; membership can shrink
            // (deaths) and grow (mid-launch joins) between rounds, so the
            // phase time is the sum of the rounds, each counted once.
            reexec: tl.round_sum_since(mark, Category::Reexec),
        };
        let derived_wire = tl.wire_bytes_since(mark);
        for (what, got, want) in [
            ("partial", derived.partial, report.times.partial),
            ("allgather", derived.allgather, report.times.allgather),
            ("callback", derived.callback, report.times.callback),
            ("broadcast", derived.broadcast, 0.0),
        ] {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "timeline-derived {what} time diverged for `{}`",
                ck.name()
            );
        }
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
}
