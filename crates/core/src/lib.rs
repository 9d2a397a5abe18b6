//! # cucc-core — CUDA on CPU Clusters
//!
//! The end-to-end CuCC framework of the paper *"Scaling GPU-to-CPU Migration
//! for Efficient Distributed Execution on CPU Clusters"* (PPoPP '26):
//! compile a GPU kernel, migrate it to a simulated CPU cluster, and execute
//! it with the **three-phase workflow** (§4):
//!
//! 1. **Partial block execution** — each node runs a disjoint contiguous
//!    slice of the grid;
//! 2. **Balanced in-place Allgather** — one collective restores memory
//!    consistency across the nodes' genuinely disjoint memories;
//! 3. **Callback block execution** — remainder and tail-divergent blocks
//!    run redundantly on every node.
//!
//! ```
//! use cucc_core::{compile_source, CuccCluster, RuntimeConfig};
//! use cucc_cluster::ClusterSpec;
//! use cucc_exec::Arg;
//! use cucc_ir::LaunchConfig;
//!
//! // Listing 1 of the paper.
//! let ck = compile_source(r#"
//!     __global__ void vec_copy(char* src, char* dest, int n) {
//!         int id = blockDim.x * blockIdx.x + threadIdx.x;
//!         if (id < n) dest[id] = src[id];
//!     }
//! "#).unwrap();
//!
//! let mut cluster = CuccCluster::with_options(
//!     ClusterSpec::simd_focused().with_nodes(2),
//!     RuntimeConfig::default(),
//! );
//! let src = cluster.alloc(1200);
//! let dest = cluster.alloc(1200);
//! cluster.upload(src, &[42u8; 1200]).unwrap();
//! let report = cluster
//!     .launch(&ck, LaunchConfig::cover1(1200, 256),
//!             &[Arg::Buffer(src), Arg::Buffer(dest), Arg::int(1200)])
//!     .unwrap();
//! assert!(report.mode.is_three_phase());
//! assert_eq!(cluster.download::<u8>(dest).unwrap(), vec![42u8; 1200]);
//! ```

pub mod codegen;
pub mod compile;
pub mod error;
pub mod graph;
pub mod options;
pub mod program;
pub mod report;
pub mod runtime;
pub mod schedule;
pub mod serve;
pub mod state;
pub mod stream;
pub mod transfer;
pub mod transform;

pub use compile::{compile, compile_source, CompiledKernel};
pub use cucc_exec::EngineKind;
pub use cucc_net::{FaultEvent, FaultKind, FaultPlan, RetryPolicy};
pub use error::MigrateError;
pub use graph::{
    lint_graph, GraphCapture, GraphNode, GraphOp, LaunchGraph, PendingGather, ReplayStats,
};
pub use options::RunOptions;
pub use program::{
    check_transfer, host_transfer_time, ArgSpec, GpuProgram, HostOp, ProgramBackend,
    ProgramBuilder, ProgramResult,
};
pub use report::{ExecMode, FaultSummary, LaunchReport, PhaseTimes, ThreePhaseShape};
pub use runtime::{CuccCluster, ExecutionFidelity, RuntimeConfig};
pub use schedule::{
    schedule_key, CacheStats, LaunchSchedule, ScheduleCache, ScheduleDecision, ScheduleKey,
};
pub use serve::{
    synthetic_stream, ClassStats, DeadlineClass, JobServer, JobSpec, ServeConfig, ServePolicy,
    ServeReport, TenantStats,
};
pub use state::{Checkpoint, ClusterState, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use stream::{EventId, StreamId, StreamSet, DEFAULT_STREAM};
pub use transfer::HostScalar;
pub use transform::{can_split_blocks, split_blocks};
