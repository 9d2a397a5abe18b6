//! # cucc-exec — instrumented execution of kernel IR
//!
//! This crate gives operational semantics to the `cucc-ir` kernels. It is the
//! stand-in for CuPBoP's compiled output in the paper: one GPU **block**
//! executes as one CPU task, with the threads of the block run as an inner
//! loop (split into phases at `__syncthreads()` barriers, exactly the
//! loop-fission transformation of MCUDA/CuPBoP).
//!
//! Execution is **instrumented**: every block run produces a [`BlockStats`]
//! with dynamic operation and memory-traffic counts. The performance models
//! in `cucc-cluster` and `cucc-gpu-model` consume these counts, so simulated
//! runtimes are grounded in the real dynamic behaviour of each kernel rather
//! than hand-written estimates.
//!
//! Because GPU programs are SPMD, blocks are statistically identical; for
//! large launches [`profile_launch`] samples a few representative blocks and
//! extrapolates, which is how the figure harnesses scale to paper-sized
//! workloads without interpreting billions of operations.

//! The tree-walk interpreter in [`interp`] is the *reference* executor (and
//! differential-testing oracle); [`bytecode`] + [`engine`] compile a kernel
//! once per launch into a flat register-based instruction stream and run it
//! with a reusable per-run arena and optional intra-node block parallelism
//! on the process-wide worker [`pool`].
//! [`lane`] adds a third, vectorized tier on top of the same compiled
//! [`Program`]: batchable segments execute instruction-major over chunked
//! SoA lane-arrays with superinstruction fusion, falling back to the scalar
//! path elsewhere — bit-identical results, `EngineKind::Simd` to select it.

pub mod bytecode;
pub mod engine;
pub mod interp;
pub mod lane;
pub mod memory;
pub mod pool;
pub mod sanitize;
pub mod stats;

pub use bytecode::{CertMode, Program};
pub use engine::{execute_launch_bytecode, run_range, run_range_parallel, EngineKind, ExecOptions};
pub use interp::{
    execute_block, execute_block_range, execute_block_traced, execute_launch, profile_launch, Arg,
    ExecError, LaunchProfile, WriteRecord,
};
pub use lane::{execute_launch_simd, run_range_parallel_simd, run_range_simd};
pub use memory::{BufferId, MemPool};
pub use sanitize::{
    cross_validate_certs, sanitize_launch, OobFinding, RaceFinding, SanitizeReport,
};
pub use stats::BlockStats;
