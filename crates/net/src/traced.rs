//! Timeline-emitting wrappers around the collectives.
//!
//! Each wrapper performs (or models) the collective exactly as its
//! untraced counterpart — same arithmetic, same returned
//! [`CollectiveCost`] — and additionally records the event into a
//! [`Timeline`]: one authoritative depth-0 span on the network track whose
//! duration is the collective's total time, depth-1 child spans for the
//! individual exchange steps, and one [`WIRE_BYTES`] counter sample per
//! step.

use crate::collectives::{
    allgather_cost, allgather_with_steps, balanced_steps, broadcast_time, broadcast_wire_bytes,
    owner_bytes, partial_gather_cost_steps, partial_gather_with_steps, AllgatherAlgo,
    AllgatherPlacement, CollectiveCost, CollectiveStep, GatherSegment,
};
use crate::fault::FaultInjector;
use crate::model::NetModel;
use cucc_trace::{Category, Timeline, Track, WIRE_BYTES};

/// Lay one collective out on the timeline: parent span of `cost.time` at
/// `t0`, plus per-step children and wire-byte counters.
fn record(
    tl: &mut Timeline,
    t0: f64,
    label: &str,
    cost: &CollectiveCost,
    steps: &[CollectiveStep],
    staging_time: f64,
) {
    tl.span(label, Track::Network, Category::Allgather, t0, cost.time);
    let mut t = t0;
    for (k, step) in steps.iter().enumerate() {
        tl.child_span(
            format!("step {k}"),
            Track::Network,
            Category::Allgather,
            t,
            step.time,
        );
        if step.wire_bytes > 0 {
            tl.counter(WIRE_BYTES, Track::Network, t, step.wire_bytes);
        }
        t += step.time;
    }
    if staging_time > 0.0 {
        tl.child_span(
            "staging copy",
            Track::Network,
            Category::Allgather,
            t,
            staging_time,
        );
    }
}

/// Functional [`crate::collectives::allgather`] that records the collective
/// into `tl` starting at absolute simulated time `t0`.
#[allow(clippy::too_many_arguments)]
pub fn allgather_traced(
    regions: &mut [&mut [u8]],
    seg_sizes: &[u64],
    model: &NetModel,
    algo: AllgatherAlgo,
    placement: AllgatherPlacement,
    tl: &mut Timeline,
    t0: f64,
    label: &str,
) -> CollectiveCost {
    let mut steps = Vec::new();
    let cost = allgather_with_steps(regions, seg_sizes, model, algo, placement, &mut steps);
    let staging = if placement == AllgatherPlacement::OutOfPlace {
        model.local_copy_time(seg_sizes.iter().copied().max().unwrap_or(0))
    } else {
        0.0
    };
    record(tl, t0, label, &cost, &steps, staging);
    cost
}

/// Analytic [`allgather_cost`] that records the modeled collective into
/// `tl` starting at absolute simulated time `t0`.
#[allow(clippy::too_many_arguments)]
pub fn allgather_cost_traced(
    n: usize,
    unit: u64,
    model: &NetModel,
    algo: AllgatherAlgo,
    placement: AllgatherPlacement,
    tl: &mut Timeline,
    t0: f64,
    label: &str,
) -> CollectiveCost {
    let cost = allgather_cost(n, unit, model, algo, placement);
    let steps = balanced_steps(n, unit, model, algo);
    let staging = if placement == AllgatherPlacement::OutOfPlace {
        model.local_copy_time(unit)
    } else {
        0.0
    };
    record(tl, t0, label, &cost, &steps, staging);
    cost
}

/// A fault-aware collective that completed, possibly after retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultyGather {
    /// Analytic cost of the *successful* collective (identical to the
    /// fault-free [`allgather_cost`]); wasted attempts are not included.
    pub cost: CollectiveCost,
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

/// Analytic [`allgather_cost`] stepped under a [`FaultInjector`] with the
/// plan's retry policy.
///
/// Each balanced step gets a deadline derived from the cost model
/// ([`crate::fault::RetryPolicy::deadline`]); attempt `k` of a failing step
/// wastes `deadline × 2^(k−1)` (exponential backoff), recorded as a depth-0
/// [`Category::Retry`] span on the network track. When the retries of one
/// step are exhausted the collective aborts: with the offending peer's slot
/// if a scripted kill explains it, with `dead_slot: None` otherwise.
/// Wasted attempts charge **no** wire bytes — the payload never arrived.
///
/// When no fault fires, the recorded layout and returned cost are
/// bit-identical to [`allgather_cost_traced`].
#[allow(clippy::too_many_arguments)]
pub fn allgather_cost_traced_fallible(
    n: usize,
    unit: u64,
    model: &NetModel,
    algo: AllgatherAlgo,
    placement: AllgatherPlacement,
    participants: &[u32],
    injector: &mut FaultInjector,
    tl: &mut Timeline,
    t0: f64,
    label: &str,
) -> Result<FaultyGather, GatherAbort> {
    debug_assert_eq!(participants.len(), n);
    let cost = allgather_cost(n, unit, model, algo, placement);
    let steps = balanced_steps(n, unit, model, algo);
    let staging = if placement == AllgatherPlacement::OutOfPlace {
        model.local_copy_time(unit)
    } else {
        0.0
    };
    let policy = injector.policy();

    let mut t = t0;
    let mut retries = 0u32;
    let mut retry_time = 0.0f64;
    let mut starts: Vec<f64> = Vec::with_capacity(steps.len());
    for (k, step) in steps.iter().enumerate() {
        let deadline = policy.deadline(step.time, model);
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
        record(tl, t0, label, &cost, &steps, staging);
    } else {
        // Parent span keeps the analytic duration (the authoritative
        // allgather time excludes retries); children sit at their actual
        // post-retry positions.
        tl.span(label, Track::Network, Category::Allgather, t0, cost.time);
        for (k, (step, &start)) in steps.iter().zip(starts.iter()).enumerate() {
            tl.child_span(
                format!("step {k}"),
                Track::Network,
                Category::Allgather,
                start,
                step.time,
            );
            if step.wire_bytes > 0 {
                tl.counter(WIRE_BYTES, Track::Network, start, step.wire_bytes);
            }
        }
    }
    Ok(FaultyGather {
        cost,
        retries,
        retry_time,
    })
}

/// Functional [`crate::collectives::partial_gather`] that records the
/// narrowed collective into `tl` starting at `t0`, with the same span
/// layout as [`allgather_traced`] (parent + per-step children + wire-byte
/// counters).
#[allow(clippy::too_many_arguments)]
pub fn partial_gather_traced(
    regions: &mut [&mut [u8]],
    segments: &[GatherSegment],
    model: &NetModel,
    algo: AllgatherAlgo,
    placement: AllgatherPlacement,
    tl: &mut Timeline,
    t0: f64,
    label: &str,
) -> CollectiveCost {
    let mut steps = Vec::new();
    let cost = partial_gather_with_steps(regions, segments, model, algo, placement, &mut steps);
    let staging = partial_staging(placement, model, &owner_bytes(regions.len(), segments));
    record(tl, t0, label, &cost, &steps, staging);
    cost
}

/// Analytic [`crate::collectives::partial_gather_cost`] that records the
/// modeled partial gather into `tl` starting at `t0`.
#[allow(clippy::too_many_arguments)]
pub fn partial_gather_cost_traced(
    per_owner: &[u64],
    model: &NetModel,
    algo: AllgatherAlgo,
    placement: AllgatherPlacement,
    tl: &mut Timeline,
    t0: f64,
    label: &str,
) -> CollectiveCost {
    let mut steps = Vec::new();
    let cost = partial_gather_cost_steps(per_owner, model, algo, placement, &mut steps);
    let staging = partial_staging(placement, model, per_owner);
    record(tl, t0, label, &cost, &steps, staging);
    cost
}

/// Staging-copy duration of an out-of-place partial gather (gated by the
/// node with the most authoritative bytes), zero in-place.
fn partial_staging(placement: AllgatherPlacement, model: &NetModel, per_owner: &[u64]) -> f64 {
    if placement == AllgatherPlacement::OutOfPlace {
        model.local_copy_time(per_owner.iter().copied().max().unwrap_or(0))
    } else {
        0.0
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

    #[test]
    fn traced_allgather_matches_untraced_and_emits_steps() {
        let model = NetModel::infiniband_100g();
        let n = 4usize;
        let seg = 256usize;
        let mk = || {
            let mut regions: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; n * seg]).collect();
            for (i, r) in regions.iter_mut().enumerate() {
                r[i * seg..(i + 1) * seg].fill(i as u8 + 1);
            }
            regions
        };

        let mut plain = mk();
        let mut views: Vec<&mut [u8]> = plain.iter_mut().map(|r| r.as_mut_slice()).collect();
        let want = crate::collectives::allgather(
            &mut views,
            &vec![seg as u64; n],
            &model,
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
        );

        let mut tl = Timeline::new();
        let mut traced = mk();
        let mut views: Vec<&mut [u8]> = traced.iter_mut().map(|r| r.as_mut_slice()).collect();
        let got = allgather_traced(
            &mut views,
            &vec![seg as u64; n],
            &model,
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
            &mut tl,
            0.0,
            "allgather",
        );
        assert_eq!(got, want);
        assert_eq!(plain, traced);
        // Parent span carries the authoritative time; counters the wire bytes.
        assert_eq!(tl.time_in(Category::Allgather), want.time);
        assert_eq!(tl.wire_bytes(), want.wire_bytes);
        // n−1 ring steps as children plus the parent.
        assert_eq!(tl.spans().len(), n);
    }

    #[test]
    fn traced_cost_matches_untraced() {
        let model = NetModel::infiniband_100g();
        for algo in [
            AllgatherAlgo::Ring,
            AllgatherAlgo::RecursiveDoubling,
            AllgatherAlgo::Bruck,
        ] {
            for n in [1usize, 2, 5, 8] {
                let mut tl = Timeline::new();
                let want = allgather_cost(n, 4096, &model, algo, AllgatherPlacement::OutOfPlace);
                let got = allgather_cost_traced(
                    n,
                    4096,
                    &model,
                    algo,
                    AllgatherPlacement::OutOfPlace,
                    &mut tl,
                    1.5,
                    "ag",
                );
                assert_eq!(got, want, "{algo:?} n={n}");
                assert_eq!(tl.wire_bytes(), want.wire_bytes, "{algo:?} n={n}");
                assert_eq!(tl.time_in(Category::Allgather), want.time);
            }
        }
    }

    #[test]
    fn fallible_gather_without_faults_matches_clean_layout() {
        use crate::fault::{FaultInjector, FaultPlan};
        let model = NetModel::infiniband_100g();
        let mut clean = Timeline::new();
        let want = allgather_cost_traced(
            4,
            4096,
            &model,
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
            &mut clean,
            0.25,
            "ag",
        );
        let mut tl = Timeline::new();
        let mut inj = FaultInjector::new(FaultPlan::default());
        let got = allgather_cost_traced_fallible(
            4,
            4096,
            &model,
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
            &[0, 1, 2, 3],
            &mut inj,
            &mut tl,
            0.25,
            "ag",
        )
        .unwrap();
        assert_eq!(got.cost, want);
        assert_eq!(got.retries, 0);
        assert_eq!(got.retry_time, 0.0);
        assert_eq!(tl.spans(), clean.spans());
        assert_eq!(tl.counters(), clean.counters());
    }

    #[test]
    fn fallible_gather_retries_a_dropped_step() {
        use crate::fault::{FaultInjector, FaultPlan};
        let model = NetModel::infiniband_100g();
        let mut tl = Timeline::new();
        let mut inj = FaultInjector::new(FaultPlan::default().drop_step(0.0));
        let got = allgather_cost_traced_fallible(
            4,
            4096,
            &model,
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
            &[0, 1, 2, 3],
            &mut inj,
            &mut tl,
            0.0,
            "ag",
        )
        .unwrap();
        let clean = allgather_cost(
            4,
            4096,
            &model,
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
        );
        assert_eq!(got.cost, clean, "retries do not change the collective cost");
        assert_eq!(got.retries, 1);
        let step = balanced_steps(4, 4096, &model, AllgatherAlgo::Ring)[0];
        let want_retry = inj.policy().deadline(step.time, &model);
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
        use crate::fault::{FaultInjector, FaultPlan};
        let model = NetModel::infiniband_100g();
        let mut tl = Timeline::new();
        let mut inj = FaultInjector::new(FaultPlan::default().kill(7, 0.0));
        let err = allgather_cost_traced_fallible(
            4,
            4096,
            &model,
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
            &[3, 5, 7, 9],
            &mut inj,
            &mut tl,
            0.0,
            "ag",
        )
        .unwrap_err();
        assert_eq!(err.dead_slot, Some(2), "slot of node 7 in the communicator");
        assert_eq!(err.retries, inj.policy().max_attempts);
        let step = balanced_steps(4, 4096, &model, AllgatherAlgo::Ring)[0];
        assert_eq!(
            err.retry_time,
            inj.policy().detection_time(step.time, &model)
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
        let err = allgather_cost_traced_fallible(
            2,
            512,
            &model,
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
            &[0, 1],
            &mut inj,
            &mut tl,
            0.0,
            "ag",
        )
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
