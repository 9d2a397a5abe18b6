//! # cucc-ir — kernel intermediate representation for CuCC
//!
//! This crate defines the CUDA-like kernel IR that the whole CuCC pipeline
//! operates on. It plays the role that LLVM/NVVM IR plays in the paper
//! ("Scaling GPU-to-CPU Migration for Efficient Distributed Execution on CPU
//! Clusters", PPoPP '26): the *Allgather distributable analysis* (in
//! `cucc-analysis`) inspects the index expressions and control flow of this
//! IR, and the executors (in `cucc-exec`) give it semantics.
//!
//! The IR models the CUDA execution hierarchy faithfully:
//!
//! * a **kernel** is launched over a 3-D grid of blocks, each block a 3-D
//!   arrangement of threads (see [`LaunchConfig`]);
//! * threads read the built-in index registers `threadIdx` / `blockIdx` /
//!   `blockDim` / `gridDim` ([`Expr::ThreadIdx`] etc.);
//! * memory is partitioned into **global** (visible to every block — the only
//!   space that needs cross-node communication after migration), **shared**
//!   (per block) and **local** (per thread) spaces ([`MemSpace`]);
//! * `__syncthreads()` barriers ([`Stmt::SyncThreads`]) synchronize the
//!   threads of one block.
//!
//! Kernels can be constructed three ways:
//!
//! 1. programmatically with [`build::KernelBuilder`];
//! 2. by parsing a mini-CUDA source dialect with [`parse::parse_kernel`];
//! 3. directly as data structures.
//!
//! A structural [`validate::validate`] pass checks the invariants the rest of
//! the pipeline relies on (def-before-use, barrier placement, type kinds).
//! Barrier placement and the distributable analysis read one thread-variance
//! fixpoint, [`variance::var_variance`].

pub mod build;
pub mod expr;
pub mod kernel;
pub mod launch;
pub mod optimize;
pub mod parse;
pub mod printer;
pub mod stmt;
pub mod types;
pub mod validate;
pub mod variance;

pub use build::KernelBuilder;
pub use expr::{BinOp, Expr, Intrinsic, UnOp};
pub use kernel::{ArrayDecl, Kernel, MemRef, Param, ParamId, VarId};
pub use launch::{Dim3, LaunchConfig};
pub use optimize::optimize;
pub use parse::{parse_kernel, parse_kernel_with_map, ParseError, SourceMap};
pub use stmt::{AtomicOp, Stmt};
pub use types::{Axis, MemSpace, Scalar, Value, ValueKind};
pub use validate::{validate, ValidateError};
pub use variance::{barrier_sites, expr_variance, var_variance, BarrierSite, Variance};
