//! # cucc-net — simulated cluster interconnect
//!
//! Stand-in for MPI over the paper's 100 Gb/s InfiniBand fabric. Two layers:
//!
//! * a **cost model** ([`model::NetModel`]) in the LogGP tradition — per
//!   message latency `α`, per-message CPU overhead `o`, per-byte time `β` —
//!   calibrated to the evaluation clusters' interconnect (Table 1);
//! * **one planned gather** ([`collectives::GatherPlan`]): ring,
//!   recursive-doubling and Bruck Allgather — in-place and out-of-place,
//!   balanced and imbalanced, full and partial — are spelled once in a step
//!   engine, and the plan built from it is read for its cost
//!   ([`GatherPlan::cost`], [`allgather_cost`]), recorded on a timeline
//!   ([`GatherPlan::record`], or [`GatherPlan::record_fallible`] under a
//!   [`FaultInjector`]) and applied to per-node buffers, really moving the
//!   bytes ([`GatherPlan::apply`]); plus a **point-to-point tracker**
//!   ([`p2p`]) used by the PGAS baseline's fine-grained remote accesses.
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
    allgather_cost, barrier_time, broadcast_time, broadcast_wire_bytes, collective_step_time,
    owner_bytes, AllgatherAlgo, AllgatherPlacement, CollectiveCost, CollectiveStep, GatherPlan,
    GatherSegment,
};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, RetryPolicy};
pub use model::NetModel;
pub use p2p::{P2pStats, P2pTracker};
pub use traced::{broadcast_traced, FaultyGather, GatherAbort};
