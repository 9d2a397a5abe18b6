//! # cucc-cluster — simulated CPU cluster substrate
//!
//! The stand-in for the paper's physical evaluation clusters (Table 1):
//!
//! * [`specs`] — machine descriptions of the SIMD-Focused (32× dual Xeon
//!   6226) and Thread-Focused (4× dual EPYC 7713) clusters, with peak-FLOPs
//!   arithmetic that reproduces Table 1's numbers;
//! * [`compute`] — the node compute-time model (SIMD speedup × LPT core
//!   scheduling × memory-bandwidth floor) fed by instrumented
//!   [`cucc_exec::BlockStats`];
//! * [`cluster`] — [`SimCluster`]: per-node private memories, parallel
//!   functional block execution, and byte-moving Allgather between nodes.

pub mod cluster;
pub mod compute;
pub mod specs;

pub use cluster::SimCluster;
pub use compute::{
    block_compute_time, lpt_makespan, node_makespan, node_time_profiled, simd_speedup,
};
pub use specs::{table1_rows, ClusterSpec, CpuSpec};
