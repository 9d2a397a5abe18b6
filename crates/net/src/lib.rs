//! # cucc-net — simulated cluster interconnect
//!
//! Stand-in for MPI over the paper's 100 Gb/s InfiniBand fabric. Two layers:
//!
//! * a **cost model** ([`model::NetModel`]) in the LogGP tradition — per
//!   message latency `α`, per-message CPU overhead `o`, per-byte time `β` —
//!   calibrated to the evaluation clusters' interconnect (Table 1);
//! * **functional collectives** ([`collectives`]) that really move bytes
//!   between per-node buffers (ring, recursive-doubling and Bruck Allgather,
//!   in-place and out-of-place, balanced and imbalanced) while charging the
//!   cost model, plus a **point-to-point tracker** ([`p2p`]) used by the
//!   PGAS baseline's fine-grained remote accesses.
//!
//! The paper's central performance claim — one coarse collective beats a
//! million fine-grained puts — is exactly the `α`/`o` versus `β` trade-off
//! this model expresses.

pub mod collectives;
pub mod fault;
pub mod model;
pub mod p2p;
pub mod traced;

pub use collectives::{
    allgather, allgather_cost, balanced_steps, barrier_time, broadcast_time, broadcast_wire_bytes,
    collective_step_time, owner_bytes, partial_gather, partial_gather_cost,
    partial_gather_cost_steps, partial_gather_with_steps, AllgatherAlgo, AllgatherPlacement,
    CollectiveCost, CollectiveStep, GatherSegment,
};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, RetryPolicy};
pub use model::NetModel;
pub use p2p::{P2pStats, P2pTracker};
pub use traced::{
    allgather_cost_traced, allgather_cost_traced_fallible, allgather_traced, broadcast_traced,
    partial_gather_cost_traced, partial_gather_traced, FaultyGather, GatherAbort,
};
