//! Recording collectives on the timeline.
//!
//! [`GatherPlan::record`] lays a planned gather out as one authoritative
//! depth-0 span on the network track whose duration is the plan's total
//! time, depth-1 child spans for the individual exchange steps, and one
//! [`WIRE_BYTES`] counter sample per step;
//! [`GatherPlan::record_fallible`] steps the same plan under a
//! [`FaultInjector`]. Recording never changes the plan's cost.

use crate::collectives::{broadcast_time, broadcast_wire_bytes, CollectiveStep, GatherPlan};
use crate::fault::FaultInjector;
use crate::model::NetModel;
use cucc_trace::{Category, Timeline, Track, WIRE_BYTES};

/// Step `k` of a gather as a child span at `at`, with its wire-byte sample.
fn step_span(tl: &mut Timeline, k: usize, step: &CollectiveStep, at: f64) {
    tl.child_span(
        format!("step {k}"),
        Track::Network,
        Category::Allgather,
        at,
        step.time,
    );
    if step.wire_bytes > 0 {
        tl.counter(WIRE_BYTES, Track::Network, at, step.wire_bytes);
    }
}

/// What a fault-stepped gather that completed spent on wasted attempts
/// (the plan's own cost is unchanged by them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultyGather {
    /// Wasted attempts across all steps.
    pub retries: u32,
    /// Total simulated time burned on wasted attempts (timeout + backoff).
    pub retry_time: f64,
}

/// A fault-aware collective that could not complete.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatherAbort {
    /// Slot (index into the participant list) of the peer whose scripted
    /// kill explains the failure — `None` when every retry was exhausted by
    /// transient step drops with no dead peer to evict (a link timeout).
    pub dead_slot: Option<usize>,
    /// Wasted attempts before giving up.
    pub retries: u32,
    /// Total simulated time burned before giving up.
    pub retry_time: f64,
}

impl GatherPlan {
    /// Record the gather into `tl` starting at absolute simulated time
    /// `t0`: parent span of the plan's total time, per-step children and
    /// wire-byte counters back to back, then the staging copy if any.
    pub fn record(&self, tl: &mut Timeline, t0: f64, label: &str) {
        tl.span(
            label,
            Track::Network,
            Category::Allgather,
            t0,
            self.cost().time,
        );
        let mut t = t0;
        for (k, step) in self.steps().iter().enumerate() {
            step_span(tl, k, step, t);
            t += step.time;
        }
        if self.staging > 0.0 {
            tl.child_span(
                "staging copy",
                Track::Network,
                Category::Allgather,
                t,
                self.staging,
            );
        }
    }

    /// [`GatherPlan::record`] stepped under a [`FaultInjector`] with the
    /// plan's retry policy; `participants[slot]` is the node id of
    /// communicator slot `slot`.
    ///
    /// Each step gets a deadline derived from the cost model
    /// ([`crate::fault::RetryPolicy::deadline`]); attempt `k` of a failing
    /// step wastes `deadline × 2^(k−1)` (exponential backoff), recorded as a
    /// depth-0 [`Category::Retry`] span on the network track. When the
    /// retries of one step are exhausted the collective aborts: with the
    /// offending peer's slot if a scripted kill explains it, with
    /// `dead_slot: None` otherwise. Wasted attempts charge **no** wire
    /// bytes — the payload never arrived.
    ///
    /// When no fault fires, the recorded layout is bit-identical to
    /// [`GatherPlan::record`].
    pub fn record_fallible(
        &self,
        participants: &[u32],
        injector: &mut FaultInjector,
        tl: &mut Timeline,
        t0: f64,
        label: &str,
    ) -> Result<FaultyGather, GatherAbort> {
        debug_assert_eq!(participants.len(), self.per_owner.len());
        let steps = self.steps();
        let policy = injector.policy();

        let mut t = t0;
        let mut retries = 0u32;
        let mut retry_time = 0.0f64;
        let mut starts: Vec<f64> = Vec::with_capacity(steps.len());
        for (k, step) in steps.iter().enumerate() {
            let deadline = policy.deadline(step.time, &self.model);
            let mut attempt = 1u32;
            loop {
                let killed = injector.kill_pending(participants, t);
                let dropped = killed.is_none() && injector.take_drop(t);
                if killed.is_none() && !dropped {
                    starts.push(t);
                    t += step.time;
                    break;
                }
                let wasted = deadline * (1u64 << (attempt - 1)) as f64;
                tl.span(
                    format!("{label}: step {k} timeout (attempt {attempt})"),
                    Track::Network,
                    Category::Retry,
                    t,
                    wasted,
                );
                t += wasted;
                retry_time += wasted;
                retries += 1;
                if attempt == policy.max_attempts {
                    return Err(GatherAbort {
                        dead_slot: killed,
                        retries,
                        retry_time,
                    });
                }
                attempt += 1;
            }
        }

        if retries == 0 {
            // Clean run: identical layout and arithmetic to the fault-free path.
            self.record(tl, t0, label);
        } else {
            // Parent span keeps the analytic duration (the authoritative
            // allgather time excludes retries); children sit at their actual
            // post-retry positions.
            tl.span(
                label,
                Track::Network,
                Category::Allgather,
                t0,
                self.cost().time,
            );
            for (k, (step, &start)) in steps.iter().zip(&starts).enumerate() {
                step_span(tl, k, step, start);
            }
        }
        Ok(FaultyGather {
            retries,
            retry_time,
        })
    }
}

/// [`broadcast_time`] that records the broadcast — span plus the wire
/// traffic the legacy accounting dropped — into `tl` at time `t0`.
pub fn broadcast_traced(
    model: &NetModel,
    n: usize,
    bytes: u64,
    tl: &mut Timeline,
    t0: f64,
    label: &str,
) -> f64 {
    let time = broadcast_time(model, n, bytes);
    let wire = broadcast_wire_bytes(n, bytes);
    if time > 0.0 || wire > 0 {
        tl.span(label, Track::Network, Category::Broadcast, t0, time);
        if wire > 0 {
            tl.counter(WIRE_BYTES, Track::Network, t0, wire);
        }
    }
    time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{
        allgather_cost, AllgatherAlgo, AllgatherPlacement, GatherPlan, GatherSegment,
    };
    use crate::fault::{FaultInjector, FaultPlan};

    fn ring_plan(n: usize, unit: u64) -> GatherPlan {
        GatherPlan::new(
            &vec![unit; n],
            &NetModel::infiniband_100g(),
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
        )
    }

    #[test]
    fn recorded_gather_carries_the_plan_and_emits_steps() {
        let n = 4usize;
        let seg = 256usize;
        let plan = ring_plan(n, seg as u64);
        let want = plan.cost();

        let mut tl = Timeline::new();
        plan.record(&mut tl, 0.0, "allgather");
        // Parent span carries the authoritative time; counters the wire bytes.
        assert_eq!(tl.time_in(Category::Allgather), want.time);
        assert_eq!(tl.wire_bytes(), want.wire_bytes);
        // n−1 ring steps as children plus the parent.
        assert_eq!(tl.spans().len(), n);

        // Recording moved nothing and changed nothing: the same plan still
        // gathers the bytes.
        assert_eq!(plan.cost(), want);
        let mut regions: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; n * seg]).collect();
        for (i, r) in regions.iter_mut().enumerate() {
            r[i * seg..(i + 1) * seg].fill(i as u8 + 1);
        }
        let mut views: Vec<&mut [u8]> = regions.iter_mut().map(|r| r.as_mut_slice()).collect();
        plan.apply(&mut views, &GatherSegment::contiguous(&vec![seg as u64; n]));
        assert!(regions.iter().all(|r| r == &regions[0]));
        assert_eq!(regions[0][3 * seg], 4);
    }

    #[test]
    fn recorded_cost_matches_allgather_cost() {
        let model = NetModel::infiniband_100g();
        for algo in [
            AllgatherAlgo::Ring,
            AllgatherAlgo::RecursiveDoubling,
            AllgatherAlgo::Bruck,
        ] {
            for n in [1usize, 2, 5, 8] {
                let mut tl = Timeline::new();
                let want = allgather_cost(n, 4096, &model, algo, AllgatherPlacement::OutOfPlace);
                let plan =
                    GatherPlan::new(&vec![4096; n], &model, algo, AllgatherPlacement::OutOfPlace);
                plan.record(&mut tl, 1.5, "ag");
                assert_eq!(plan.cost(), want, "{algo:?} n={n}");
                assert_eq!(tl.wire_bytes(), want.wire_bytes, "{algo:?} n={n}");
                assert_eq!(tl.time_in(Category::Allgather), want.time);
            }
        }
    }

    #[test]
    fn fallible_gather_without_faults_matches_clean_layout() {
        let plan = ring_plan(4, 4096);
        let mut clean = Timeline::new();
        plan.record(&mut clean, 0.25, "ag");
        let mut tl = Timeline::new();
        let mut inj = FaultInjector::new(FaultPlan::default());
        let got = plan
            .record_fallible(&[0, 1, 2, 3], &mut inj, &mut tl, 0.25, "ag")
            .unwrap();
        assert_eq!(got.retries, 0);
        assert_eq!(got.retry_time, 0.0);
        assert_eq!(tl.spans(), clean.spans());
        assert_eq!(tl.counters(), clean.counters());
    }

    #[test]
    fn fallible_gather_retries_a_dropped_step() {
        let model = NetModel::infiniband_100g();
        let plan = ring_plan(4, 4096);
        let clean = plan.cost();
        let mut tl = Timeline::new();
        let mut inj = FaultInjector::new(FaultPlan::default().drop_step(0.0));
        let got = plan
            .record_fallible(&[0, 1, 2, 3], &mut inj, &mut tl, 0.0, "ag")
            .unwrap();
        assert_eq!(plan.cost(), clean, "retries do not change the plan's cost");
        assert_eq!(got.retries, 1);
        let want_retry = inj.policy().deadline(plan.steps()[0].time, &model);
        assert_eq!(got.retry_time, want_retry);
        assert_eq!(tl.time_in(Category::Retry), want_retry);
        assert_eq!(tl.time_in(Category::Allgather), clean.time);
        assert_eq!(
            tl.wire_bytes(),
            clean.wire_bytes,
            "wasted attempts move no bytes"
        );
    }

    #[test]
    fn fallible_gather_confirms_a_killed_peer() {
        let model = NetModel::infiniband_100g();
        let plan = ring_plan(4, 4096);
        let mut tl = Timeline::new();
        let mut inj = FaultInjector::new(FaultPlan::default().kill(7, 0.0));
        let err = plan
            .record_fallible(&[3, 5, 7, 9], &mut inj, &mut tl, 0.0, "ag")
            .unwrap_err();
        assert_eq!(err.dead_slot, Some(2), "slot of node 7 in the communicator");
        assert_eq!(err.retries, inj.policy().max_attempts);
        assert_eq!(
            err.retry_time,
            inj.policy().detection_time(plan.steps()[0].time, &model)
        );
        assert_eq!(tl.wire_bytes(), 0, "nothing completed");
        // Exhausted transient drops with nobody dead -> timeout, no culprit.
        let mut tl = Timeline::new();
        let mut inj = FaultInjector::new(
            FaultPlan::default()
                .drop_step(0.0)
                .drop_step(0.0)
                .drop_step(0.0),
        );
        let err = ring_plan(2, 512)
            .record_fallible(&[0, 1], &mut inj, &mut tl, 0.0, "ag")
            .unwrap_err();
        assert_eq!(err.dead_slot, None);
    }

    #[test]
    fn broadcast_records_dropped_wire_traffic() {
        let model = NetModel::infiniband_100g();
        let mut tl = Timeline::new();
        let t = broadcast_traced(&model, 8, 1 << 20, &mut tl, 0.0, "h2d broadcast");
        assert_eq!(t, broadcast_time(&model, 8, 1 << 20));
        assert_eq!(tl.wire_bytes(), 7 << 20);
        assert_eq!(tl.time_in(Category::Broadcast), t);
        // Single-node broadcast records nothing.
        let before = tl.spans().len();
        broadcast_traced(&model, 1, 1 << 20, &mut tl, 0.0, "noop");
        assert_eq!(tl.spans().len(), before);
    }
}
