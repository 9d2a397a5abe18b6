//! Collective communication: Allgather (the workhorse of the CuCC
//! workflow), barrier and broadcast.
//!
//! A gather is **one planned value**, [`GatherPlan`], built from the bytes
//! each node holds authoritatively. It can be *read* for its
//! [`CollectiveCost`], *recorded* on a timeline (`crate::traced`), and
//! *applied* to per-node regions, which *really moves the bytes* — the
//! cluster simulator's memory consistency is established by these copies,
//! not by fiat. All three derive from one step engine that spells the real
//! algorithms (ring, recursive doubling, Bruck) once, so what is charged,
//! what is drawn and what travels cannot drift apart.
//!
//! Placement and balance follow the paper's §2.3 taxonomy: **in-place**
//! Allgather reuses one buffer (node `i`'s segment is already at offset
//! `i·unit`); **out-of-place** needs a staging copy and double memory.
//! **Balanced** Allgather (equal segments) beats imbalanced because every
//! ring step is gated by the largest segment in flight.

use crate::model::NetModel;

/// Allgather algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllgatherAlgo {
    /// `N−1` neighbour steps; bandwidth-optimal, latency `O(N)`.
    Ring,
    /// `log₂N` exchange steps; requires a power-of-two node count
    /// (falls back to Bruck otherwise).
    RecursiveDoubling,
    /// `⌈log₂N⌉` steps for arbitrary `N`.
    Bruck,
}

/// Buffer placement (paper §2.3, Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllgatherPlacement {
    /// Input and output share the buffer; no staging copy.
    InPlace,
    /// Separate input buffer: staging copy + double memory.
    OutOfPlace,
}

/// Accumulated cost of one collective.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CollectiveCost {
    /// Simulated wall-clock seconds.
    pub time: f64,
    /// Total bytes that crossed the wire (all nodes).
    pub wire_bytes: u64,
    /// Total messages sent (all nodes).
    pub messages: u64,
    /// Bytes moved by local staging copies.
    pub local_copy_bytes: u64,
    /// Peak memory multiplier (2 for out-of-place, 1 for in-place).
    pub peak_memory_factor: u32,
}

/// One synchronous step of a collective (all nodes exchange concurrently;
/// the step is gated by its largest transfer). The step breakdown feeds
/// the trace timeline; [`CollectiveCost`] stays the authoritative total.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CollectiveStep {
    /// Simulated seconds this step takes (latency + gating transfer).
    pub time: f64,
    /// Bytes all nodes put on the wire during this step.
    pub wire_bytes: u64,
    /// Messages sent during this step.
    pub messages: u64,
}

/// Duration of one synchronous collective step gated by a `bytes`-sized
/// transfer: `α + o + bytes·β`.
///
/// This is THE step-time formula — every gather step charges through here,
/// and the fault path's per-step deadline
/// ([`crate::fault::RetryPolicy::deadline`]) is defined on top of it.
#[inline]
pub fn collective_step_time(model: &NetModel, bytes: u64) -> f64 {
    model.alpha + model.overhead + bytes as f64 * model.beta
}

/// One authoritative sub-range of a gather: the byte range `[lo, hi)` of
/// the shared region, held only by `owner` before the gather and by every
/// node after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherSegment {
    /// Node whose copy of `[lo, hi)` is authoritative.
    pub owner: usize,
    /// Inclusive start byte within the region.
    pub lo: u64,
    /// Exclusive end byte within the region.
    pub hi: u64,
}

impl GatherSegment {
    /// Length of the segment in bytes.
    pub fn bytes(&self) -> u64 {
        self.hi - self.lo
    }

    /// The segments of a full Allgather: node `i` owns `sizes[i]` bytes at
    /// the prefix-sum offset. Equal sizes give the balanced layout
    /// `[i·unit, (i+1)·unit)`.
    pub fn contiguous(sizes: &[u64]) -> Vec<GatherSegment> {
        let mut lo = 0;
        sizes
            .iter()
            .enumerate()
            .map(|(owner, &bytes)| {
                let seg = GatherSegment {
                    owner,
                    lo,
                    hi: lo + bytes,
                };
                lo += bytes;
                seg
            })
            .collect()
    }
}

/// Total authoritative bytes per owner, the quantity that gates gather
/// steps (the per-owner segment *set* travels as one unit).
pub fn owner_bytes(n: usize, segments: &[GatherSegment]) -> Vec<u64> {
    let mut per = vec![0u64; n];
    for s in segments {
        per[s.owner] += s.bytes();
    }
    per
}

/// The step engine: the one place ring, recursive doubling and Bruck — and
/// recursive doubling's fallback to Bruck off powers of two — are spelled.
/// The analytic cost and step breakdown run it with a no-op `relay`; the
/// byte movement runs the same loops with a `relay(src, dst, owner)` that
/// copies *all* of `owner`'s segments `src` holds to `dst`, so bytes travel
/// step by step as the algorithm prescribes.
///
/// Returns the network time and the per-step breakdown. The total-time
/// rule: every ring step has every owner set in flight, so all are gated by
/// the same `max(per_owner)` and the total is `(n−1) × step`; the doubling
/// algorithms' steps grow and their total is the in-order sum.
///
/// Needs `n ≥ 2` (a ring of one has no step).
fn run_steps(
    per_owner: &[u64],
    model: &NetModel,
    algo: AllgatherAlgo,
    mut relay: impl FnMut(usize, usize, usize),
) -> (f64, Vec<CollectiveStep>) {
    let n = per_owner.len();
    let mut steps = Vec::new();
    // Bytes of the round's `i`-th message; the `n` messages of a round
    // travel concurrently, so the largest gates it.
    let mut msg = vec![0u64; n];
    let round = |msg: &[u64]| CollectiveStep {
        time: collective_step_time(model, msg.iter().copied().max().unwrap_or(0)),
        wire_bytes: msg.iter().sum(),
        messages: n as u64,
    };
    let time = match algo {
        AllgatherAlgo::Ring => {
            // Step s: node i relays the segments of owner (i − s) mod n to
            // node (i+1) mod n.
            for s in 0..n - 1 {
                for (i, sent) in msg.iter_mut().enumerate() {
                    let owner = (i + n - s) % n;
                    relay(i, (i + 1) % n, owner);
                    *sent = per_owner[owner];
                }
                steps.push(round(&msg));
            }
            (n - 1) as f64 * steps[0].time
        }
        AllgatherAlgo::RecursiveDoubling | AllgatherAlgo::Bruck => {
            // Node i receives whatever its peer held before the round and
            // it still lacks. Recursive doubling pairs i with i ^ dist and
            // needs a power-of-two node count; Bruck's peer (i + dist)
            // mod n works for any.
            let exchange = algo == AllgatherAlgo::RecursiveDoubling && n.is_power_of_two();
            let mut owned: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
            let mut dist = 1usize;
            while dist < n {
                let before = owned.clone();
                for (i, (mine, recv)) in owned.iter_mut().zip(&mut msg).enumerate() {
                    let peer = if exchange { i ^ dist } else { (i + dist) % n };
                    *recv = 0;
                    for &owner in &before[peer] {
                        if !mine.contains(&owner) {
                            relay(peer, i, owner);
                            mine.push(owner);
                            *recv += per_owner[owner];
                        }
                    }
                }
                steps.push(round(&msg));
                dist <<= 1;
            }
            steps.iter().fold(0.0, |t, s| t + s.time)
        }
    };
    (time, steps)
}

fn copy_segment(regions: &mut [&mut [u8]], src: usize, dst: usize, lo: usize, hi: usize) {
    if src == dst || lo == hi {
        return;
    }
    // Split-borrow the two node regions.
    let (a, b) = if src < dst {
        let (left, right) = regions.split_at_mut(dst);
        (&left[src][lo..hi], &mut right[0][lo..hi])
    } else {
        let (left, right) = regions.split_at_mut(src);
        (&right[0][lo..hi], &mut left[dst][lo..hi])
    };
    b.copy_from_slice(a);
}

fn check_segments(n: usize, region_len: u64, segments: &[GatherSegment]) {
    let mut sorted: Vec<(u64, u64)> = segments.iter().map(|s| (s.lo, s.hi)).collect();
    sorted.sort_unstable();
    for (k, s) in segments.iter().enumerate() {
        assert!(
            s.owner < n,
            "segment {k}: owner {} out of {n} nodes",
            s.owner
        );
        assert!(s.lo <= s.hi, "segment {k}: lo > hi");
        assert!(s.hi <= region_len, "segment {k}: past region end");
    }
    for w in sorted.windows(2) {
        assert!(w[0].1 <= w[1].0, "overlapping gather segments");
    }
}

/// One gather, planned: what it costs, how its steps lay out, and — through
/// [`GatherPlan::apply`] — which bytes it moves. Built once from the bytes
/// each node holds authoritatively; every view is derived from the same
/// run of the step engine.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherPlan {
    pub(crate) per_owner: Vec<u64>,
    algo: AllgatherAlgo,
    cost: CollectiveCost,
    steps: Vec<CollectiveStep>,
    /// Duration of the out-of-place staging copy (zero in place).
    pub(crate) staging: f64,
    pub(crate) model: NetModel,
}

impl GatherPlan {
    /// Plan a gather in which node `i` holds `per_owner[i]` authoritative
    /// bytes. Pure: moves nothing. A balanced Allgather is the special case
    /// of equal counts ([`allgather_cost`]); a partial gather passes
    /// [`owner_bytes`] of its segments.
    ///
    /// The edge rule, stated once: a gather that moves nothing — a single
    /// node, or no authoritative bytes anywhere — has no steps and no
    /// network cost (when only *some* owners are empty the algorithm still
    /// runs and its zero-byte messages are charged their latency).
    /// Placement is charged on top either way: out-of-place adds the
    /// staging copy of the largest owner (each node stages its own
    /// segments; the slowest gates completion) and reports double memory,
    /// even on one node.
    pub fn new(
        per_owner: &[u64],
        model: &NetModel,
        algo: AllgatherAlgo,
        placement: AllgatherPlacement,
    ) -> GatherPlan {
        let moves = per_owner.len() > 1 && per_owner.iter().any(|&b| b > 0);
        let (time, steps) = if moves {
            run_steps(per_owner, model, algo, |_, _, _| {})
        } else {
            (0.0, Vec::new())
        };
        let mut cost = CollectiveCost {
            time,
            wire_bytes: steps.iter().map(|s| s.wire_bytes).sum(),
            messages: steps.iter().map(|s| s.messages).sum(),
            local_copy_bytes: 0,
            peak_memory_factor: 1,
        };
        let mut staging = 0.0;
        if placement == AllgatherPlacement::OutOfPlace {
            staging = model.local_copy_time(per_owner.iter().copied().max().unwrap_or(0));
            cost.time += staging;
            cost.local_copy_bytes = per_owner.iter().sum();
            cost.peak_memory_factor = 2;
        }
        GatherPlan {
            per_owner: per_owner.to_vec(),
            algo,
            cost,
            steps,
            staging,
            model: *model,
        }
    }

    /// The gather's cost — the authoritative total, whether or not bytes
    /// are ever moved.
    pub fn cost(&self) -> CollectiveCost {
        self.cost
    }

    /// The per-step breakdown (one entry per synchronous exchange round,
    /// without the staging copy). Step times sum to the cost's network
    /// time up to float rounding (the ring total is `steps × step`).
    pub fn steps(&self) -> &[CollectiveStep] {
        &self.steps
    }

    /// Move the planned bytes between per-node regions: `regions[i]` is
    /// node `i`'s copy of the shared region, each of `segments` is
    /// authoritative on its owner before the call, and every region holds
    /// every segment after it; bytes outside the segments stay put.
    ///
    /// # Panics
    /// Panics if the regions are not one per planned node and equally long,
    /// if segments overlap or leave the region, or if their per-owner byte
    /// counts are not the planned ones.
    pub fn apply(&self, regions: &mut [&mut [u8]], segments: &[GatherSegment]) {
        let n = self.per_owner.len();
        assert_eq!(regions.len(), n, "one region per planned node");
        let len = regions.first().map_or(0, |r| r.len());
        for r in regions.iter() {
            assert_eq!(r.len(), len, "regions must have equal lengths");
        }
        check_segments(n, len as u64, segments);
        assert_eq!(
            owner_bytes(n, segments),
            self.per_owner,
            "segments are not the planned gather"
        );
        if self.steps.is_empty() {
            return;
        }
        let mut by_owner: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for s in segments {
            by_owner[s.owner].push((s.lo as usize, s.hi as usize));
        }
        run_steps(
            &self.per_owner,
            &self.model,
            self.algo,
            |src, dst, owner| {
                for &(lo, hi) in &by_owner[owner] {
                    copy_segment(regions, src, dst, lo, hi);
                }
            },
        );
    }
}

/// Cost of a **balanced** Allgather of `unit` bytes per node over `n`
/// nodes — the plan every launch schedule reads.
pub fn allgather_cost(
    n: usize,
    unit: u64,
    model: &NetModel,
    algo: AllgatherAlgo,
    placement: AllgatherPlacement,
) -> CollectiveCost {
    GatherPlan::new(&vec![unit; n], model, algo, placement).cost
}

/// Dissemination barrier cost (no data movement).
pub fn barrier_time(model: &NetModel, n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    (n as f64).log2().ceil() * (model.alpha + model.overhead)
}

/// Binomial-tree broadcast of `bytes` from one root to `n` nodes.
pub fn broadcast_time(model: &NetModel, n: usize, bytes: u64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    (n as f64).log2().ceil() * model.msg_time(bytes)
}

/// Wire traffic of a binomial-tree broadcast: every non-root node receives
/// the payload exactly once.
pub fn broadcast_wire_bytes(n: usize, bytes: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    (n as u64 - 1) * bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALGOS: [AllgatherAlgo; 3] = [
        AllgatherAlgo::Ring,
        AllgatherAlgo::RecursiveDoubling,
        AllgatherAlgo::Bruck,
    ];
    const PLACEMENTS: [AllgatherPlacement; 2] =
        [AllgatherPlacement::InPlace, AllgatherPlacement::OutOfPlace];

    /// Plan and apply a full Allgather of `sizes[i]` bytes per node: node
    /// `i`'s own segment starts as a distinctive pattern and the rest as
    /// garbage; afterwards every region must equal the reference.
    fn gather(sizes: &[u64], algo: AllgatherAlgo, placement: AllgatherPlacement) -> GatherPlan {
        let segments = GatherSegment::contiguous(sizes);
        let total = sizes.iter().sum::<u64>() as usize;
        let reference: Vec<u8> = (0..total).map(|b| (b * 7 + 1) as u8).collect();
        let mut regions: Vec<Vec<u8>> = segments
            .iter()
            .map(|s| {
                let mut r = vec![0xEEu8; total];
                let own = s.lo as usize..s.hi as usize;
                r[own.clone()].copy_from_slice(&reference[own]);
                r
            })
            .collect();
        let plan = GatherPlan::new(sizes, &NetModel::infiniband_100g(), algo, placement);
        let planned = plan.clone();
        let mut views: Vec<&mut [u8]> = regions.iter_mut().map(|r| r.as_mut_slice()).collect();
        plan.apply(&mut views, &segments);
        for (i, r) in regions.iter().enumerate() {
            assert_eq!(r, &reference, "node {i} region after {algo:?} {sizes:?}");
        }
        assert_eq!(plan, planned);
        plan
    }

    fn run(
        n: usize,
        seg: usize,
        algo: AllgatherAlgo,
        placement: AllgatherPlacement,
    ) -> CollectiveCost {
        gather(&vec![seg as u64; n], algo, placement).cost()
    }

    #[test]
    fn all_algorithms_gather_correctly() {
        for algo in ALGOS {
            for n in [1usize, 2, 3, 4, 5, 8, 16, 32] {
                run(n, 64, algo, AllgatherPlacement::InPlace);
            }
        }
    }

    #[test]
    fn ring_wire_bytes_exact() {
        // Ring moves every segment n−1 times.
        let c = run(8, 128, AllgatherAlgo::Ring, AllgatherPlacement::InPlace);
        assert_eq!(c.wire_bytes, 7 * 8 * 128);
        assert_eq!(c.messages, 7 * 8);
    }

    #[test]
    fn recursive_doubling_fewer_latency_terms() {
        let model = NetModel::infiniband_100g();
        // tiny segments: latency dominates; RD's log(n) steps beat ring's n−1.
        let seg = 8usize;
        let n = 32;
        let ring = run(n, seg, AllgatherAlgo::Ring, AllgatherPlacement::InPlace);
        let rd = run(
            n,
            seg,
            AllgatherAlgo::RecursiveDoubling,
            AllgatherPlacement::InPlace,
        );
        assert!(rd.time < ring.time);
        // Both are dominated by per-step latency here.
        assert!(ring.time > 30.0 * (model.alpha + model.overhead));
    }

    #[test]
    fn out_of_place_costs_more() {
        let ip = run(4, 1 << 16, AllgatherAlgo::Ring, AllgatherPlacement::InPlace);
        let oop = run(
            4,
            1 << 16,
            AllgatherAlgo::Ring,
            AllgatherPlacement::OutOfPlace,
        );
        assert!(oop.time > ip.time);
        assert_eq!(ip.peak_memory_factor, 1);
        assert_eq!(oop.peak_memory_factor, 2);
        assert!(oop.local_copy_bytes > 0);
    }

    #[test]
    fn imbalanced_is_slower_than_balanced() {
        // Same total data, skewed split: ring steps gated by the largest
        // segment (paper §2.3's 2-node N/4 vs 3N/4 example).
        let total = 1u64 << 20;
        let time = |sizes: &[u64]| {
            gather(sizes, AllgatherAlgo::Ring, AllgatherPlacement::InPlace)
                .cost()
                .time
        };
        let balanced = time(&[total / 4; 4]);
        let imbalanced = time(&[total / 8, total / 8, total / 4, total / 2]);
        assert!(imbalanced > balanced);
    }

    #[test]
    fn balanced_in_place_is_fastest_configuration() {
        // The paper's conclusion of §2.3: balanced-in-place wins across the
        // 2×2 design space.
        let n = 8usize;
        let total = 1u64 << 22;
        let balanced = vec![total / n as u64; n];
        let mut skewed = vec![total / (2 * n as u64); n];
        skewed[n - 1] = total - skewed[..n - 1].iter().sum::<u64>();

        let time =
            |sizes: &[u64], placement| gather(sizes, AllgatherAlgo::Ring, placement).cost().time;
        let best = time(&balanced, AllgatherPlacement::InPlace);
        assert!(best <= time(&balanced, AllgatherPlacement::OutOfPlace));
        assert!(best <= time(&skewed, AllgatherPlacement::InPlace));
        assert!(best <= time(&skewed, AllgatherPlacement::OutOfPlace));
    }

    #[test]
    fn single_node_is_free() {
        let c = run(1, 1024, AllgatherAlgo::Ring, AllgatherPlacement::InPlace);
        assert_eq!(c.time, 0.0);
        assert_eq!(c.wire_bytes, 0);
    }

    #[test]
    fn barrier_and_broadcast_scale_logarithmically() {
        let m = NetModel::infiniband_100g();
        assert_eq!(barrier_time(&m, 1), 0.0);
        assert!(barrier_time(&m, 32) < 2.0 * barrier_time(&m, 16) + 1e-12);
        assert!(broadcast_time(&m, 32, 1024) > broadcast_time(&m, 2, 1024));
    }

    /// `allgather_cost` over n × algorithm × placement × unit, as one FNV-1a
    /// checksum computed at the commit before the three algorithms were
    /// folded into one engine: every bit a launch schedule reads is the bit
    /// the closed forms returned. The grid includes the edge rule (one
    /// node and zero bytes, in and out of place).
    #[test]
    fn allgather_cost_is_pinned() {
        let model = NetModel::infiniband_100g();
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for n in 1usize..=33 {
            for algo in ALGOS {
                for placement in PLACEMENTS {
                    for unit in [0u64, 1, 4120, 1 << 20] {
                        let c = allgather_cost(n, unit, &model, algo, placement);
                        eat(c.time.to_bits());
                        eat(c.wire_bytes);
                        eat(c.messages);
                        eat(c.local_copy_bytes);
                        eat(c.peak_memory_factor as u64);
                    }
                }
            }
        }
        assert_eq!(h, 0x47221db7455997a7);
    }

    /// The applied gather leaves every region equal to the reference and
    /// the plan untouched (both asserted in `gather`), for balanced and
    /// skewed sizes alike; a balanced plan's cost is `allgather_cost`'s,
    /// bitwise, and its steps account for all its wire traffic.
    #[test]
    fn applied_gather_is_the_planned_gather() {
        let model = NetModel::infiniband_100g();
        for n in 1usize..=33 {
            for algo in ALGOS {
                for placement in PLACEMENTS {
                    for unit in [0u64, 1, 24, 4120] {
                        let plan = gather(&vec![unit; n], algo, placement);
                        let cost = allgather_cost(n, unit, &model, algo, placement);
                        assert_eq!(plan.cost().time.to_bits(), cost.time.to_bits());
                        assert_eq!(plan.cost(), cost, "{algo:?} {placement:?} n={n}");
                    }
                    let skewed: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 11 * 5).collect();
                    let plan = gather(&skewed, algo, placement);
                    let wire: u64 = plan.steps().iter().map(|s| s.wire_bytes).sum();
                    assert_eq!(wire, plan.cost().wire_bytes);
                }
            }
        }
    }

    #[test]
    fn partial_gather_moves_only_segments() {
        let model = NetModel::infiniband_100g();
        for algo in ALGOS {
            for n in [2usize, 3, 4, 5, 8] {
                let len = 64 * n;
                // Node i's copy: its pattern everywhere; gathered ranges must
                // become the owner's pattern, everything else must stay put.
                let mut regions: Vec<Vec<u8>> =
                    (0..n).map(|i| vec![(i * 13 + 1) as u8; len]).collect();
                let segments = vec![
                    GatherSegment {
                        owner: 0,
                        lo: 4,
                        hi: 12,
                    },
                    GatherSegment {
                        owner: n - 1,
                        lo: 40,
                        hi: 41,
                    },
                ];
                let mut views: Vec<&mut [u8]> =
                    regions.iter_mut().map(|r| r.as_mut_slice()).collect();
                let plan = GatherPlan::new(
                    &owner_bytes(n, &segments),
                    &model,
                    algo,
                    AllgatherPlacement::InPlace,
                );
                plan.apply(&mut views, &segments);
                assert!(plan.cost().time > 0.0);
                for (i, r) in regions.iter().enumerate() {
                    for (b, v) in r.iter().enumerate() {
                        let want = if (4..12).contains(&b) {
                            1 // owner 0's pattern
                        } else if b == 40 {
                            ((n - 1) * 13 + 1) as u8 // owner n−1's pattern
                        } else {
                            (i * 13 + 1) as u8
                        };
                        assert_eq!(*v, want, "{algo:?} n={n} node {i} byte {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn partial_gather_empty_or_single_node_is_free() {
        let model = NetModel::infiniband_100g();
        for per_owner in [&[0u64, 0, 0][..], &[4096]] {
            let free = GatherPlan::new(
                per_owner,
                &model,
                AllgatherAlgo::Ring,
                AllgatherPlacement::InPlace,
            );
            assert_eq!(free.cost().time, 0.0);
            assert_eq!(free.cost().wire_bytes, 0);
            assert!(free.steps().is_empty());
        }
    }

    fn apply_two_node(planned: &[u64], segments: &[GatherSegment]) {
        let mut regions: Vec<Vec<u8>> = (0..2).map(|_| vec![0u8; 64]).collect();
        let mut views: Vec<&mut [u8]> = regions.iter_mut().map(|r| r.as_mut_slice()).collect();
        GatherPlan::new(
            planned,
            &NetModel::infiniband_100g(),
            AllgatherAlgo::Ring,
            AllgatherPlacement::InPlace,
        )
        .apply(&mut views, segments);
    }

    #[test]
    #[should_panic(expected = "overlapping gather segments")]
    fn partial_gather_rejects_overlap() {
        apply_two_node(
            &[10, 7],
            &[
                GatherSegment {
                    owner: 0,
                    lo: 0,
                    hi: 10,
                },
                GatherSegment {
                    owner: 1,
                    lo: 5,
                    hi: 12,
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "segments are not the planned gather")]
    fn apply_rejects_segments_it_did_not_plan() {
        // Charging for one gather and moving another is the drift the plan
        // exists to rule out.
        apply_two_node(&[10, 10], &GatherSegment::contiguous(&[10, 12]));
    }

    #[test]
    fn zero_sized_segments_ok() {
        gather(
            &[0, 16, 0, 16],
            AllgatherAlgo::Bruck,
            AllgatherPlacement::InPlace,
        );
    }
}
