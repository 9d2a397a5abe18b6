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
//! large launches a [`LaunchProfile`] samples a few representative blocks
//! and extrapolates, which is how the figure harnesses scale to paper-sized
//! workloads without interpreting billions of operations. Planning samples
//! on the compiled engine ([`profile_program`]); [`profile_launch`] samples
//! the same blocks on the tree-walk and is the profile's oracle, not its hot
//! path.

//! The tree-walk interpreter in [`interp`] is the *reference* executor (and
//! differential-testing oracle). Everything else runs compiled: [`bytecode`]
//! lowers a kernel once per launch into a flat register-based instruction
//! stream, and one engine runs it — [`lane`], which executes batchable
//! segments over 64-lane struct-of-arrays chunks and every other segment
//! thread-major ([`engine::run_seg`]), with a reusable per-run arena and
//! optional intra-node block parallelism on the process-wide worker
//! [`pool`]. Results are bit-identical to the oracle.

pub mod bytecode;
pub mod engine;
pub mod interp;
pub mod lane;
pub mod memory;
pub mod pool;
pub mod sanitize;
pub mod stats;

pub use bytecode::{CertMode, Program};
pub use engine::{
    execute_launch_bytecode, profile_program, run_range, run_range_parallel, EngineKind,
    ExecOptions,
};
pub use interp::{
    execute_block, execute_block_range, execute_block_traced, execute_launch, profile_launch, Arg,
    ExecError, LaunchProfile, WriteRecord,
};
// The benchmark harness (`benchmark/`, which this crate's PRs may not edit)
// imports the lane entry point under its old name.
pub use engine::run_range as run_range_simd;
pub use memory::{BufferId, MemPool};
pub use sanitize::{sanitize_launch, OobFinding, RaceFinding, SanitizeReport};
pub use stats::BlockStats;
