//! The kernel interpreter.
//!
//! [`execute_block`] runs one GPU block: all its threads execute the kernel
//! body, split into *phases* at `__syncthreads()` barriers (each phase runs
//! every thread to the barrier before any thread continues past it — the
//! classic MCUDA/CuPBoP loop-fission semantics). [`execute_launch`] runs a
//! whole grid sequentially, which is the functional reference used as the
//! correctness oracle. `LaunchProfile::from_samples` samples representative
//! blocks and extrapolates their [`BlockStats`] to the full launch;
//! [`profile_launch`] runs those samples here and is the oracle of the
//! profile, not its hot path — planning samples on the compiled engine
//! ([`crate::engine::profile_program`]).

use crate::memory::{decode, encode, BufferId, MemPool};
use crate::stats::{intrinsic_weight, BlockStats};
use cucc_ir::{
    AtomicOp, BinOp, Expr, Intrinsic, Kernel, LaunchConfig, MemRef, Param, Stmt, UnOp, Value,
    ValueKind,
};
use std::fmt;

/// A kernel launch argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// Scalar argument (converted to the parameter's declared type).
    Scalar(Value),
    /// Global-memory buffer argument.
    Buffer(BufferId),
}

impl Arg {
    /// Shorthand for an `i64`-typed scalar argument.
    pub fn int(v: i64) -> Arg {
        Arg::Scalar(Value::I64(v))
    }

    /// Shorthand for a float scalar argument.
    pub fn float(v: f64) -> Arg {
        Arg::Scalar(Value::F64(v))
    }
}

/// Runtime failure during interpretation.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Launch supplied the wrong number of arguments.
    ArgCount { expected: usize, got: usize },
    /// Buffer passed for scalar parameter or vice versa.
    ArgKind { param: String },
    /// Memory access outside an allocation.
    OutOfBounds {
        mem: String,
        index: i64,
        len_elems: usize,
    },
    /// Integer division or remainder by zero.
    DivByZero,
    /// A barrier-carrying loop or branch had thread-divergent control
    /// (should be prevented by validation).
    DivergentBarrier,
    /// A bounds check failed on an access the range analysis certified
    /// in-bounds (only under `CertMode::Validate`): the certificate itself
    /// is wrong, which the soundness suite treats as a hard failure.
    CertificateViolation {
        mem: String,
        index: i64,
        len_elems: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ArgCount { expected, got } => {
                write!(f, "kernel expects {expected} arguments, got {got}")
            }
            ExecError::ArgKind { param } => {
                write!(f, "argument kind mismatch for parameter `{param}`")
            }
            ExecError::OutOfBounds {
                mem,
                index,
                len_elems,
            } => write!(
                f,
                "out-of-bounds access to `{mem}`: index {index}, length {len_elems}"
            ),
            ExecError::DivByZero => write!(f, "integer division by zero"),
            ExecError::DivergentBarrier => {
                write!(f, "thread-divergent control flow around __syncthreads()")
            }
            ExecError::CertificateViolation {
                mem,
                index,
                len_elems,
            } => write!(
                f,
                "bounds certificate violated on `{mem}`: index {index}, length {len_elems} \
                 (range analysis certified this access in-bounds)"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// One recorded global-memory write (or atomic update).
///
/// Traced execution feeds the dynamic *write interval* oracle of the
/// Allgather-distributable analysis (paper §6.1): the write interval of a
/// block is the union of the byte ranges its threads write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRecord {
    /// Index of the buffer parameter written (`ParamId` value).
    pub param: u32,
    /// Byte offset of the write within the buffer.
    pub byte_off: u64,
    /// Number of bytes written.
    pub bytes: u32,
    /// True when the write was an atomic read-modify-write.
    pub atomic: bool,
}

/// Per-thread interpreter state.
struct Env {
    vars: Vec<Value>,
    locals: Vec<Vec<u8>>,
    returned: bool,
    tid: (u32, u32, u32),
}

/// Reusable per-launch execution state: thread environments and the shared
/// memory image, allocated once and reset per block so that multi-block
/// runs stop paying per-block allocation cost.
struct BlockArena {
    envs: Vec<Env>,
    shared: Vec<Vec<u8>>,
}

impl BlockArena {
    fn new(kernel: &Kernel, launch: LaunchConfig) -> BlockArena {
        let nthreads = launch.threads_per_block() as usize;
        BlockArena {
            envs: (0..nthreads)
                .map(|t| Env {
                    vars: vec![Value::I64(0); kernel.num_vars()],
                    locals: kernel
                        .locals
                        .iter()
                        .map(|a| vec![0u8; a.size_bytes()])
                        .collect(),
                    returned: false,
                    tid: launch.block.delinearize(t as u64),
                })
                .collect(),
            shared: kernel
                .shared
                .iter()
                .map(|a| vec![0u8; a.size_bytes()])
                .collect(),
        }
    }

    /// Restore the freshly-allocated state (zero vars/locals/shared, no
    /// thread returned). Thread ids are block-invariant and stay.
    fn reset(&mut self) {
        for env in &mut self.envs {
            env.vars.fill(Value::I64(0));
            for l in &mut env.locals {
                l.fill(0);
            }
            env.returned = false;
        }
        for s in &mut self.shared {
            s.fill(0);
        }
    }
}

struct Interp<'a> {
    kernel: &'a Kernel,
    launch: LaunchConfig,
    block: (u32, u32, u32),
    args: &'a [Arg],
    pool: &'a mut MemPool,
    shared: &'a mut [Vec<u8>],
    stats: BlockStats,
    trace: Option<&'a mut Vec<WriteRecord>>,
}

/// Execute a single block (identified by its linear index, x-fastest) and
/// return its dynamic statistics. Global memory effects land in `pool`.
pub fn execute_block(
    kernel: &Kernel,
    launch: LaunchConfig,
    block_linear: u64,
    args: &[Arg],
    pool: &mut MemPool,
) -> Result<BlockStats, ExecError> {
    execute_block_inner(kernel, launch, block_linear, args, pool, None)
}

/// Like [`execute_block`], but records every global-memory write into
/// `trace`.
pub fn execute_block_traced(
    kernel: &Kernel,
    launch: LaunchConfig,
    block_linear: u64,
    args: &[Arg],
    pool: &mut MemPool,
    trace: &mut Vec<WriteRecord>,
) -> Result<BlockStats, ExecError> {
    execute_block_inner(kernel, launch, block_linear, args, pool, Some(trace))
}

fn execute_block_inner(
    kernel: &Kernel,
    launch: LaunchConfig,
    block_linear: u64,
    args: &[Arg],
    pool: &mut MemPool,
    trace: Option<&mut Vec<WriteRecord>>,
) -> Result<BlockStats, ExecError> {
    check_args(kernel, args)?;
    let mut arena = BlockArena::new(kernel, launch);
    run_block_prepared(kernel, launch, block_linear, args, pool, &mut arena, trace)
}

/// Run one block out of a pre-checked, pre-allocated arena. `check_args`
/// must have been called once for the launch; the arena is reset here.
fn run_block_prepared(
    kernel: &Kernel,
    launch: LaunchConfig,
    block_linear: u64,
    args: &[Arg],
    pool: &mut MemPool,
    arena: &mut BlockArena,
    trace: Option<&mut Vec<WriteRecord>>,
) -> Result<BlockStats, ExecError> {
    arena.reset();
    let BlockArena { envs, shared } = arena;
    let mut interp = Interp {
        kernel,
        launch,
        block: launch.grid.delinearize(block_linear),
        args,
        pool,
        shared,
        stats: BlockStats {
            blocks: 1,
            active_threads: envs.len() as u64,
            ..BlockStats::default()
        },
        trace,
    };
    interp.run_phased(&kernel.body, envs)?;
    Ok(interp.stats)
}

/// Execute every block of the launch sequentially (ascending linear block
/// index). This is the functional GPU reference semantics: the CUDA model
/// guarantees no particular block order, so any fixed order is a valid
/// execution.
pub fn execute_launch(
    kernel: &Kernel,
    launch: LaunchConfig,
    args: &[Arg],
    pool: &mut MemPool,
) -> Result<BlockStats, ExecError> {
    execute_block_range(kernel, launch, 0..launch.num_blocks(), args, pool)
}

/// Execute a contiguous range of blocks sequentially (ascending), with
/// argument checking and environment allocation hoisted out of the per-block
/// loop. [`execute_launch`] and the cluster's tree-walk path build on this.
pub fn execute_block_range(
    kernel: &Kernel,
    launch: LaunchConfig,
    blocks: std::ops::Range<u64>,
    args: &[Arg],
    pool: &mut MemPool,
) -> Result<BlockStats, ExecError> {
    check_args(kernel, args)?;
    let mut arena = BlockArena::new(kernel, launch);
    let mut total = BlockStats::default();
    for b in blocks {
        total += run_block_prepared(kernel, launch, b, args, pool, &mut arena, None)?;
    }
    Ok(total)
}

/// Extrapolated launch statistics from sampled blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchProfile {
    /// Average statistics of one non-tail block.
    pub per_block: BlockStats,
    /// Statistics of the last block (tail blocks often do less work under
    /// bound-check guards).
    pub tail_block: BlockStats,
    /// Number of blocks in the launch.
    pub num_blocks: u64,
    /// Whole-launch extrapolation: `per_block × (n−1) + tail`.
    pub total: BlockStats,
}

impl LaunchProfile {
    /// Profile a launch of `num_blocks` (≥ 1) blocks from `run`, which
    /// executes one block and returns its statistics: the tail block first,
    /// then up to `samples` evenly spaced body blocks `i·(n−1)/k`, averaged
    /// field by field and extrapolated to the full launch. The first error
    /// `run` returns is the profile's.
    ///
    /// SPMD symmetry makes this accurate for the paper's kernels: all non-tail
    /// blocks execute the same instruction mix. Every profiler — the compiled
    /// one planning uses and the tree-walk [`profile_launch`] — samples
    /// through here, so they run the same blocks in the same order.
    pub(crate) fn from_samples(
        num_blocks: u64,
        samples: usize,
        mut run: impl FnMut(u64) -> Result<BlockStats, ExecError>,
    ) -> Result<LaunchProfile, ExecError> {
        let body_blocks = num_blocks - 1;
        let tail = run(body_blocks)?;
        let per_block = if body_blocks == 0 {
            BlockStats::default()
        } else {
            let k = (samples.max(1) as u64).min(body_blocks);
            let mut acc = BlockStats::default();
            for i in 0..k {
                acc += run(i * body_blocks / k)?;
            }
            // Average the samples; keep integer math exact by rounding.
            BlockStats {
                int_ops: acc.int_ops / k,
                float_ops: acc.float_ops / k,
                global_read_bytes: acc.global_read_bytes / k,
                global_write_bytes: acc.global_write_bytes / k,
                global_loads: acc.global_loads / k,
                global_stores: acc.global_stores / k,
                shared_bytes: acc.shared_bytes / k,
                local_bytes: acc.local_bytes / k,
                global_atomics: acc.global_atomics / k,
                barriers: acc.barriers / k,
                active_threads: acc.active_threads / k,
                blocks: 1,
            }
        };
        Ok(LaunchProfile {
            per_block,
            tail_block: tail,
            num_blocks,
            total: per_block.scaled(body_blocks) + tail,
        })
    }
}

/// `LaunchProfile::from_samples` on the tree-walk interpreter, each sampled
/// block run on one scratch copy of `pool`. This is the profile's oracle:
/// planning profiles on the compiled engine
/// ([`crate::engine::profile_program`]), which must equal it field for
/// field, error for error.
pub fn profile_launch(
    kernel: &Kernel,
    launch: LaunchConfig,
    args: &[Arg],
    pool: &MemPool,
    samples: usize,
) -> Result<LaunchProfile, ExecError> {
    let mut scratch = pool.clone();
    check_args(kernel, args)?;
    let mut arena = BlockArena::new(kernel, launch);
    LaunchProfile::from_samples(launch.num_blocks(), samples, |b| {
        run_block_prepared(kernel, launch, b, args, &mut scratch, &mut arena, None)
    })
}

/// Check that `args` match `kernel`'s parameter list in count and kind
/// (buffer vs scalar) — what every executor verifies before its first block.
pub fn check_args(kernel: &Kernel, args: &[Arg]) -> Result<(), ExecError> {
    if args.len() != kernel.params.len() {
        return Err(ExecError::ArgCount {
            expected: kernel.params.len(),
            got: args.len(),
        });
    }
    for (p, a) in kernel.params.iter().zip(args) {
        let ok = matches!(
            (p, a),
            (Param::Buffer { .. }, Arg::Buffer(_)) | (Param::Scalar { .. }, Arg::Scalar(_))
        );
        if !ok {
            return Err(ExecError::ArgKind {
                param: p.name().to_string(),
            });
        }
    }
    Ok(())
}

impl<'a> Interp<'a> {
    /// Run a statement list with barrier-phase semantics: maximal
    /// barrier-free runs execute thread-by-thread to completion; barriers
    /// and barrier-carrying compound statements are executed in lockstep.
    fn run_phased(&mut self, stmts: &[Stmt], envs: &mut [Env]) -> Result<(), ExecError> {
        let mut i = 0;
        while i < stmts.len() {
            if !stmts[i].has_barrier() {
                let start = i;
                while i < stmts.len() && !stmts[i].has_barrier() {
                    i += 1;
                }
                let run = &stmts[start..i];
                for env in envs.iter_mut() {
                    if !env.returned {
                        self.exec_run(run, env)?;
                    }
                }
                continue;
            }
            match &stmts[i] {
                Stmt::SyncThreads => {
                    self.stats.barriers += 1;
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    // Uniform loop (guaranteed by validation): bounds are
                    // evaluated once, with thread 0's environment.
                    let (s, e, st) = {
                        let env0 = &mut envs[0];
                        let s = self.eval(start, env0)?.as_i64();
                        let e = self.eval(end, env0)?.as_i64();
                        let st = self.eval(step, env0)?.as_i64();
                        (s, e, st)
                    };
                    if st == 0 {
                        return Err(ExecError::DivergentBarrier);
                    }
                    let ty = self.kernel.var_type(*var).widened();
                    let mut v = s;
                    while (st > 0 && v < e) || (st < 0 && v > e) {
                        for env in envs.iter_mut() {
                            env.vars[var.index()] = Value::I64(v).convert_to(ty);
                        }
                        self.run_phased(body, envs)?;
                        v = v.wrapping_add(st); // as every other integer op
                    }
                    for env in envs.iter_mut() {
                        env.vars[var.index()] = Value::I64(v).convert_to(ty);
                    }
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    // Uniform branch around a barrier: decide once.
                    let taken = {
                        let env0 = &mut envs[0];
                        self.eval(cond, env0)?.is_true()
                    };
                    let body = if taken { then_body } else { else_body };
                    self.run_phased(body, envs)?;
                }
                _ => return Err(ExecError::DivergentBarrier),
            }
            i += 1;
        }
        Ok(())
    }

    /// Execute a barrier-free statement run for one thread.
    fn exec_run(&mut self, stmts: &[Stmt], env: &mut Env) -> Result<(), ExecError> {
        for s in stmts {
            if env.returned {
                return Ok(());
            }
            self.exec_stmt(s, env)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt, env: &mut Env) -> Result<(), ExecError> {
        match s {
            Stmt::Assign { var, value } => {
                let v = self.eval(value, env)?;
                env.vars[var.index()] = v;
            }
            Stmt::Store { mem, index, value } => {
                let idx = self.eval(index, env)?.as_i64();
                let v = self.eval(value, env)?;
                self.store_mem(*mem, idx, v, env, false)?;
            }
            Stmt::AtomicRmw {
                op,
                mem,
                index,
                value,
            } => {
                let idx = self.eval(index, env)?.as_i64();
                let v = self.eval(value, env)?;
                let old = self.load_mem(*mem, idx, env)?;
                let new = apply_atomic(*op, old, v);
                self.store_mem(*mem, idx, new, env, true)?;
                if mem.space() == cucc_ir::MemSpace::Global {
                    self.stats.global_atomics += 1;
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.stats.int_ops += 1; // branch decision
                if self.eval(cond, env)?.is_true() {
                    self.exec_run(then_body, env)?;
                } else {
                    self.exec_run(else_body, env)?;
                }
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let s0 = self.eval(start, env)?.as_i64();
                let e = self.eval(end, env)?.as_i64();
                let st = self.eval(step, env)?.as_i64();
                if st == 0 {
                    // Validation rejects constant-zero steps; dynamic zero is
                    // treated as a divide-by-zero-class error.
                    return Err(ExecError::DivByZero);
                }
                // The loop counts in i64; the variable holds each count
                // converted to its declared type.
                let ty = self.kernel.var_type(*var).widened();
                let mut v = s0;
                while (st > 0 && v < e) || (st < 0 && v > e) {
                    env.vars[var.index()] = Value::I64(v).convert_to(ty);
                    self.exec_run(body, env)?;
                    if env.returned {
                        return Ok(());
                    }
                    self.stats.int_ops += 2; // induction update + test
                    v = v.wrapping_add(st); // as every other integer op
                }
                env.vars[var.index()] = Value::I64(v).convert_to(ty);
            }
            Stmt::SyncThreads => {
                // Reached only in barrier-free runs, i.e. never (the phased
                // driver intercepts barriers); keep as no-op for safety.
            }
            Stmt::Return => env.returned = true,
        }
        Ok(())
    }

    fn mem_len_elems(&self, mem: MemRef, env: &Env) -> usize {
        match mem {
            MemRef::Global(p) => {
                let Arg::Buffer(id) = self.args[p.index()] else {
                    unreachable!("checked by check_args");
                };
                self.pool.size_of(id) / self.kernel.elem_type(mem).size()
            }
            MemRef::Shared(i) => self.kernel.shared[i as usize].len,
            MemRef::Local(i) => {
                let _ = env;
                self.kernel.locals[i as usize].len
            }
        }
    }

    fn mem_name(&self, mem: MemRef) -> String {
        match mem {
            MemRef::Global(p) => self.kernel.params[p.index()].name().to_string(),
            MemRef::Shared(i) => self.kernel.shared[i as usize].name.clone(),
            MemRef::Local(i) => self.kernel.locals[i as usize].name.clone(),
        }
    }

    fn oob(&self, mem: MemRef, index: i64, env: &Env) -> ExecError {
        ExecError::OutOfBounds {
            mem: self.mem_name(mem),
            index,
            len_elems: self.mem_len_elems(mem, env),
        }
    }

    fn load_mem(&mut self, mem: MemRef, index: i64, env: &Env) -> Result<Value, ExecError> {
        let elem = self.kernel.elem_type(mem);
        let sz = elem.size() as u64;
        self.stats.int_ops += 1; // address computation
        match mem {
            MemRef::Global(p) => {
                let Arg::Buffer(id) = self.args[p.index()] else {
                    unreachable!();
                };
                self.stats.global_read_bytes += sz;
                self.stats.global_loads += 1;
                self.pool
                    .load(id, elem, index)
                    .ok_or_else(|| self.oob(mem, index, env))
            }
            MemRef::Shared(i) => {
                self.stats.shared_bytes += sz;
                slice_load(&self.shared[i as usize], elem, index)
                    .ok_or_else(|| self.oob(mem, index, env))
            }
            MemRef::Local(i) => {
                self.stats.local_bytes += sz;
                slice_load(&env.locals[i as usize], elem, index)
                    .ok_or_else(|| self.oob(mem, index, env))
            }
        }
    }

    fn store_mem(
        &mut self,
        mem: MemRef,
        index: i64,
        value: Value,
        env: &mut Env,
        atomic: bool,
    ) -> Result<(), ExecError> {
        let elem = self.kernel.elem_type(mem);
        let sz = elem.size() as u64;
        self.stats.int_ops += 1; // address computation
        match mem {
            MemRef::Global(p) => {
                let Arg::Buffer(id) = self.args[p.index()] else {
                    unreachable!();
                };
                self.stats.global_write_bytes += sz;
                self.stats.global_stores += 1;
                if self.pool.store(id, elem, index, value) {
                    if let Some(trace) = self.trace.as_deref_mut() {
                        trace.push(WriteRecord {
                            param: p.0,
                            byte_off: index as u64 * sz,
                            bytes: sz as u32,
                            atomic,
                        });
                    }
                    Ok(())
                } else {
                    Err(self.oob(mem, index, env))
                }
            }
            MemRef::Shared(i) => {
                self.stats.shared_bytes += sz;
                if slice_store(&mut self.shared[i as usize], elem, index, value) {
                    Ok(())
                } else {
                    Err(self.oob(mem, index, env))
                }
            }
            MemRef::Local(i) => {
                self.stats.local_bytes += sz;
                if slice_store(&mut env.locals[i as usize], elem, index, value) {
                    Ok(())
                } else {
                    Err(self.oob(mem, index, env))
                }
            }
        }
    }

    fn eval(&mut self, e: &Expr, env: &mut Env) -> Result<Value, ExecError> {
        Ok(match e {
            Expr::IntConst(v) => Value::I64(*v),
            Expr::FloatConst(v) => Value::F64(*v),
            Expr::ThreadIdx(a) => Value::I64(axis_of(env.tid, *a) as i64),
            Expr::BlockIdx(a) => Value::I64(axis_of(self.block, *a) as i64),
            Expr::BlockDim(a) => Value::I64(self.launch.block.get(*a) as i64),
            Expr::GridDim(a) => Value::I64(self.launch.grid.get(*a) as i64),
            Expr::Param(p) => {
                let Arg::Scalar(v) = self.args[p.index()] else {
                    unreachable!("checked by check_args");
                };
                v.convert_to(self.kernel.params[p.index()].scalar())
            }
            Expr::Var(v) => env.vars[v.index()],
            Expr::Load { mem, index } => {
                let idx = self.eval(index, env)?.as_i64();
                self.load_mem(*mem, idx, env)?
            }
            Expr::Unary { op, arg } => {
                let a = self.eval(arg, env)?;
                self.count_op(a.kind());
                eval_unop(*op, a)
            }
            Expr::Binary { op, lhs, rhs } => {
                // Short-circuit logical operators (needed so guarded loads
                // like `i < n && data[i]` never evaluate the load OOB).
                if *op == BinOp::LAnd {
                    let l = self.eval(lhs, env)?;
                    self.count_op(ValueKind::Int);
                    if !l.is_true() {
                        return Ok(Value::I64(0));
                    }
                    let r = self.eval(rhs, env)?;
                    return Ok(Value::I64(i64::from(r.is_true())));
                }
                if *op == BinOp::LOr {
                    let l = self.eval(lhs, env)?;
                    self.count_op(ValueKind::Int);
                    if l.is_true() {
                        return Ok(Value::I64(1));
                    }
                    let r = self.eval(rhs, env)?;
                    return Ok(Value::I64(i64::from(r.is_true())));
                }
                let l = self.eval(lhs, env)?;
                let r = self.eval(rhs, env)?;
                let float = l.kind() == ValueKind::Float || r.kind() == ValueKind::Float;
                self.count_op(if float {
                    ValueKind::Float
                } else {
                    ValueKind::Int
                });
                eval_binop(*op, l, r, float)?
            }
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => {
                let c = self.eval(cond, env)?;
                self.count_op(ValueKind::Int);
                if c.is_true() {
                    self.eval(then_value, env)?
                } else {
                    self.eval(else_value, env)?
                }
            }
            Expr::Cast { ty, arg } => {
                let v = self.eval(arg, env)?;
                self.count_op(ty.kind());
                v.convert_to(*ty)
            }
            Expr::Call { f, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                self.stats.float_ops += intrinsic_weight(*f);
                eval_intrinsic(*f, &vals)
            }
        })
    }

    #[inline]
    fn count_op(&mut self, kind: ValueKind) {
        match kind {
            ValueKind::Int => self.stats.int_ops += 1,
            ValueKind::Float => self.stats.float_ops += 1,
        }
    }
}

#[inline]
pub(crate) fn axis_of(t: (u32, u32, u32), a: cucc_ir::Axis) -> u32 {
    match a {
        cucc_ir::Axis::X => t.0,
        cucc_ir::Axis::Y => t.1,
        cucc_ir::Axis::Z => t.2,
    }
}

/// Apply a unary operator with the interpreter's exact semantics (wrapping
/// integer negation, C truthiness for `!`).
#[inline]
pub(crate) fn eval_unop(op: UnOp, a: Value) -> Value {
    match op {
        UnOp::Neg => match a {
            Value::I64(v) => Value::I64(v.wrapping_neg()),
            Value::F64(v) => Value::F64(-v),
        },
        UnOp::Not => Value::I64(i64::from(!a.is_true())),
        UnOp::BitNot => Value::I64(!a.as_i64()),
    }
}

/// True when evaluating `op` on these operands would fail (integer divide
/// or remainder by zero) — the only fallible case of [`eval_binop_total`].
#[inline]
pub(crate) fn binop_faults(op: BinOp, r: Value, float: bool) -> bool {
    !float && matches!(op, BinOp::Div | BinOp::Rem) && r.as_i64() == 0
}

#[inline]
pub(crate) fn eval_binop(op: BinOp, l: Value, r: Value, float: bool) -> Result<Value, ExecError> {
    if binop_faults(op, r, float) {
        return Err(ExecError::DivByZero);
    }
    Ok(eval_binop_total(op, l, r, float))
}

/// Infallible binary-op core: C's usual arithmetic conversions (a float
/// operand makes the op a float op), then [`float_binop`] or [`int_binop`].
/// Callers must rule out [`binop_faults`] first.
#[inline]
pub(crate) fn eval_binop_total(op: BinOp, l: Value, r: Value, float: bool) -> Value {
    if float {
        float_binop(op, l.as_f64(), r.as_f64())
    } else {
        Value::I64(int_binop(op, l.as_i64(), r.as_i64()))
    }
}

/// A binary op on doubles: arithmetic gives a double, comparisons 0/1.
#[inline]
pub(crate) fn float_binop(op: BinOp, a: f64, b: f64) -> Value {
    use BinOp::*;
    match op {
        Add => Value::F64(a + b),
        Sub => Value::F64(a - b),
        Mul => Value::F64(a * b),
        Div => Value::F64(a / b),
        Lt => Value::I64(i64::from(a < b)),
        Le => Value::I64(i64::from(a <= b)),
        Gt => Value::I64(i64::from(a > b)),
        Ge => Value::I64(i64::from(a >= b)),
        Eq => Value::I64(i64::from(a == b)),
        Ne => Value::I64(i64::from(a != b)),
        // Integer-only operators with float operands are rejected by
        // validation; fall back to int semantics defensively.
        Rem | And | Or | Xor | Shl | Shr | LAnd | LOr => {
            Value::I64(int_binop(op, a as i64, b as i64))
        }
    }
}

/// A binary op on i64s, wrapping like two's complement hardware. The `Div`
/// and `Rem` arms defensively yield 0 on a zero divisor so this can never
/// panic.
#[inline]
pub(crate) fn int_binop(op: BinOp, a: i64, b: i64) -> i64 {
    use BinOp::*;
    match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div if b == 0 => 0,
        Rem if b == 0 => 0,
        Div => a.wrapping_div(b),
        Rem => a.wrapping_rem(b),
        Lt => i64::from(a < b),
        Le => i64::from(a <= b),
        Gt => i64::from(a > b),
        Ge => i64::from(a >= b),
        Eq => i64::from(a == b),
        Ne => i64::from(a != b),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Shl => a.wrapping_shl(b as u32 & 63),
        Shr => a.wrapping_shr(b as u32 & 63),
        LAnd => i64::from(a != 0 && b != 0),
        LOr => i64::from(a != 0 || b != 0),
    }
}

#[inline]
pub(crate) fn eval_intrinsic(f: Intrinsic, args: &[Value]) -> Value {
    use Intrinsic::*;
    match f {
        Min | Max | Abs => {
            let all_int = args.iter().all(|v| v.kind() == ValueKind::Int);
            if all_int {
                let a = args[0].as_i64();
                return Value::I64(match f {
                    Min => a.min(args[1].as_i64()),
                    Max => a.max(args[1].as_i64()),
                    // `abs(i64::MIN)` is `i64::MIN`, as two's complement
                    // hardware computes it.
                    Abs => a.wrapping_abs(),
                    _ => unreachable!(),
                });
            }
        }
        _ => {}
    }
    let a = args[0].as_f64();
    Value::F64(match f {
        Exp => a.exp(),
        Log => a.ln(),
        Sqrt => a.sqrt(),
        Rsqrt => 1.0 / a.sqrt(),
        Sin => a.sin(),
        Cos => a.cos(),
        Tanh => a.tanh(),
        Erf => erf(a),
        Fabs | Abs => a.abs(),
        Floor => a.floor(),
        Ceil => a.ceil(),
        Pow => a.powf(args[1].as_f64()),
        Fmin | Min => a.min(args[1].as_f64()),
        Fmax | Max => a.max(args[1].as_f64()),
    })
}

/// Error function, Abramowitz & Stegun 7.1.26 (max abs error 1.5e-7 — the
/// same order as CUDA's single-precision `erff`).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[inline]
pub(crate) fn apply_atomic(op: AtomicOp, old: Value, v: Value) -> Value {
    let float = old.kind() == ValueKind::Float || v.kind() == ValueKind::Float;
    if float {
        let (a, b) = (old.as_f64(), v.as_f64());
        Value::F64(match op {
            AtomicOp::Add => a + b,
            AtomicOp::Min => a.min(b),
            AtomicOp::Max => a.max(b),
        })
    } else {
        let (a, b) = (old.as_i64(), v.as_i64());
        Value::I64(match op {
            AtomicOp::Add => a.wrapping_add(b),
            AtomicOp::Min => a.min(b),
            AtomicOp::Max => a.max(b),
        })
    }
}

#[inline]
pub(crate) fn slice_load(bytes: &[u8], elem: cucc_ir::Scalar, index: i64) -> Option<Value> {
    let sz = elem.size();
    if index < 0 {
        return None;
    }
    let off = (index as usize).checked_mul(sz)?;
    let slice = bytes.get(off..off + sz)?;
    Some(decode(elem, slice))
}

#[inline]
pub(crate) fn slice_store(
    bytes: &mut [u8],
    elem: cucc_ir::Scalar,
    index: i64,
    value: Value,
) -> bool {
    let sz = elem.size();
    if index < 0 {
        return false;
    }
    let Some(off) = (index as usize).checked_mul(sz) else {
        return false;
    };
    let Some(slice) = bytes.get_mut(off..off + sz) else {
        return false;
    };
    encode(elem, value, slice);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_ir::{parse_kernel, Scalar};

    const LISTING1: &str = r#"
        __global__ void vec_copy(char* src, char* dest, int n) {
            int id = blockDim.x * blockIdx.x + threadIdx.x;
            if (id < n)
                dest[id] = src[id];
        }
    "#;

    #[test]
    fn listing1_copies_with_tail_guard() {
        let k = parse_kernel(LISTING1).unwrap();
        cucc_ir::validate(&k).unwrap();
        let n = 1200usize;
        let mut pool = MemPool::new();
        let src = pool.alloc(n);
        let dest = pool.alloc(n);
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        pool.write_all(src, &data);
        let launch = LaunchConfig::cover1(n as u64, 256);
        let stats = execute_launch(
            &k,
            launch,
            &[Arg::Buffer(src), Arg::Buffer(dest), Arg::int(n as i64)],
            &mut pool,
        )
        .unwrap();
        assert_eq!(pool.bytes(dest), &data[..]);
        assert_eq!(stats.blocks, 5);
        assert_eq!(stats.global_write_bytes, n as u64);
        assert_eq!(stats.global_read_bytes, n as u64);
    }

    #[test]
    fn tail_block_writes_less() {
        let k = parse_kernel(LISTING1).unwrap();
        let n = 1200usize;
        let mut pool = MemPool::new();
        let src = pool.alloc(n);
        let dest = pool.alloc(n);
        let launch = LaunchConfig::cover1(n as u64, 256);
        let args = [Arg::Buffer(src), Arg::Buffer(dest), Arg::int(n as i64)];
        let full = execute_block(&k, launch, 0, &args, &mut pool).unwrap();
        let tail = execute_block(&k, launch, 4, &args, &mut pool).unwrap();
        assert_eq!(full.global_write_bytes, 256);
        assert_eq!(tail.global_write_bytes, 1200 - 4 * 256);
    }

    #[test]
    fn barrier_phases_order_shared_memory() {
        // Reverse within a block via shared memory: correctness requires all
        // writes to complete before any read — i.e. real barrier semantics.
        let src = r#"
            __global__ void reverse(int* data) {
                __shared__ int tile[64];
                tile[threadIdx.x] = data[blockIdx.x * blockDim.x + threadIdx.x];
                __syncthreads();
                data[blockIdx.x * blockDim.x + threadIdx.x] = tile[blockDim.x - 1 - threadIdx.x];
            }
        "#;
        let k = parse_kernel(src).unwrap();
        cucc_ir::validate(&k).unwrap();
        let mut pool = MemPool::new();
        let data = pool.alloc_elems(Scalar::I32, 128);
        let init: Vec<i32> = (0..128).collect();
        pool.write_i32(data, &init);
        execute_launch(
            &k,
            LaunchConfig::new(2u32, 64u32),
            &[Arg::Buffer(data)],
            &mut pool,
        )
        .unwrap();
        let got = pool.read_i32(data);
        let want: Vec<i32> = (0..128)
            .map(|i| {
                let block = i / 64;
                let t = i % 64;
                block * 64 + (63 - t)
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn barrier_in_uniform_loop() {
        // Each iteration all threads shift a shared value; requires barrier
        // phases inside the loop body.
        let src = r#"
            __global__ void rotate(int* out, int rounds) {
                __shared__ int ring[32];
                ring[threadIdx.x] = threadIdx.x;
                __syncthreads();
                int v = 0;
                for (int r = 0; r < rounds; r++) {
                    v = ring[(threadIdx.x + 1) % 32];
                    __syncthreads();
                    ring[threadIdx.x] = v;
                    __syncthreads();
                }
                out[threadIdx.x] = ring[threadIdx.x];
            }
        "#;
        let k = parse_kernel(src).unwrap();
        cucc_ir::validate(&k).unwrap();
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::I32, 32);
        execute_launch(
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[Arg::Buffer(out), Arg::int(3)],
            &mut pool,
        )
        .unwrap();
        let got = pool.read_i32(out);
        let want: Vec<i32> = (0..32).map(|t| (t + 3) % 32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn oob_reported_with_context() {
        let src = "__global__ void k(int* out) { out[threadIdx.x] = 1; }";
        let k = parse_kernel(src).unwrap();
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::I32, 4);
        let err = execute_launch(
            &k,
            LaunchConfig::new(1u32, 8u32),
            &[Arg::Buffer(out)],
            &mut pool,
        )
        .unwrap_err();
        match err {
            ExecError::OutOfBounds {
                mem,
                index,
                len_elems,
            } => {
                assert_eq!(mem, "out");
                assert_eq!(index, 4);
                assert_eq!(len_elems, 4);
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn short_circuit_guards_oob() {
        let src = r#"
            __global__ void k(int* data, int* out, int n) {
                int id = threadIdx.x;
                if (id < n && data[id] > 0)
                    out[id] = data[id];
            }
        "#;
        let k = parse_kernel(src).unwrap();
        let mut pool = MemPool::new();
        let data = pool.alloc_elems(Scalar::I32, 4);
        let out = pool.alloc_elems(Scalar::I32, 4);
        pool.write_i32(data, &[5, -1, 7, 0]);
        // 8 threads, n = 4: threads 4..7 must not touch data[].
        execute_launch(
            &k,
            LaunchConfig::new(1u32, 8u32),
            &[Arg::Buffer(data), Arg::Buffer(out), Arg::int(4)],
            &mut pool,
        )
        .unwrap();
        assert_eq!(pool.read_i32(out), vec![5, 0, 7, 0]);
    }

    #[test]
    fn div_by_zero_caught() {
        let src = "__global__ void k(int* out, int d) { out[0] = 1 / d; }";
        let k = parse_kernel(src).unwrap();
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::I32, 1);
        let err = execute_launch(
            &k,
            LaunchConfig::new(1u32, 1u32),
            &[Arg::Buffer(out), Arg::int(0)],
            &mut pool,
        )
        .unwrap_err();
        assert_eq!(err, ExecError::DivByZero);
    }

    #[test]
    fn atomics_accumulate() {
        let src = r#"
            __global__ void hist(int* bins, int* data, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) atomicAdd(&bins[data[id] % 4], 1);
            }
        "#;
        let k = parse_kernel(src).unwrap();
        let mut pool = MemPool::new();
        let bins = pool.alloc_elems(Scalar::I32, 4);
        let data = pool.alloc_elems(Scalar::I32, 100);
        let vals: Vec<i32> = (0..100).collect();
        pool.write_i32(data, &vals);
        let stats = execute_launch(
            &k,
            LaunchConfig::cover1(100, 32),
            &[Arg::Buffer(bins), Arg::Buffer(data), Arg::int(100)],
            &mut pool,
        )
        .unwrap();
        assert_eq!(pool.read_i32(bins), vec![25, 25, 25, 25]);
        assert_eq!(stats.global_atomics, 100);
    }

    #[test]
    fn return_terminates_thread() {
        let src = r#"
            __global__ void k(int* out) {
                int id = threadIdx.x;
                if (id >= 4) return;
                out[id] = id + 1;
            }
        "#;
        let k = parse_kernel(src).unwrap();
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::I32, 4);
        execute_launch(
            &k,
            LaunchConfig::new(1u32, 16u32),
            &[Arg::Buffer(out)],
            &mut pool,
        )
        .unwrap();
        assert_eq!(pool.read_i32(out), vec![1, 2, 3, 4]);
    }

    #[test]
    fn profile_extrapolates() {
        let k = parse_kernel(LISTING1).unwrap();
        let n = 1200usize;
        let mut pool = MemPool::new();
        let src = pool.alloc(n);
        let dest = pool.alloc(n);
        let launch = LaunchConfig::cover1(n as u64, 256);
        let args = [Arg::Buffer(src), Arg::Buffer(dest), Arg::int(n as i64)];
        let before = pool.clone();
        let prof = profile_launch(&k, launch, &args, &pool, 3).unwrap();
        // Profiling must not disturb caller memory.
        assert_eq!(pool, before);
        assert_eq!(prof.num_blocks, 5);
        assert_eq!(prof.per_block.global_write_bytes, 256);
        assert_eq!(prof.tail_block.global_write_bytes, 176);
        assert_eq!(prof.total.global_write_bytes, 1200);
        // Extrapolation matches a full run for this symmetric kernel.
        let mut pool2 = pool.clone();
        let full = execute_launch(&k, launch, &args, &mut pool2).unwrap();
        assert_eq!(prof.total.global_write_bytes, full.global_write_bytes);
        assert_eq!(prof.total.int_ops, full.int_ops);
    }

    #[test]
    fn intrinsics_evaluate() {
        let src = r#"
            __global__ void k(double* out, double x) {
                out[0] = expf(x);
                out[1] = sqrtf(x);
                out[2] = fmaxf(x, 2.0);
                out[3] = erff(x);
                out[4] = powf(x, 2.0);
            }
        "#;
        let k = parse_kernel(src).unwrap();
        let mut pool = MemPool::new();
        let out = pool.alloc_elems(Scalar::F64, 5);
        execute_launch(
            &k,
            LaunchConfig::new(1u32, 1u32),
            &[Arg::Buffer(out), Arg::float(1.5)],
            &mut pool,
        )
        .unwrap();
        let got = pool.read_f64(out);
        assert!((got[0] - 1.5f64.exp()).abs() < 1e-12);
        assert!((got[1] - 1.5f64.sqrt()).abs() < 1e-12);
        assert_eq!(got[2], 2.0);
        assert!((got[3] - 0.9661051465).abs() < 1e-6);
        assert!((got[4] - 2.25).abs() < 1e-12);
    }

    #[test]
    fn arg_checking() {
        let k = parse_kernel(LISTING1).unwrap();
        let mut pool = MemPool::new();
        let b = pool.alloc(8);
        assert!(matches!(
            execute_block(
                &k,
                LaunchConfig::new(1u32, 1u32),
                0,
                &[Arg::Buffer(b)],
                &mut pool
            ),
            Err(ExecError::ArgCount {
                expected: 3,
                got: 1
            })
        ));
        assert!(matches!(
            execute_block(
                &k,
                LaunchConfig::new(1u32, 1u32),
                0,
                &[Arg::int(1), Arg::Buffer(b), Arg::int(1)],
                &mut pool
            ),
            Err(ExecError::ArgKind { .. })
        ));
    }

    #[test]
    fn erf_reference_points() {
        assert!((erf(0.0)).abs() < 1e-9);
        assert!((erf(1.0) - 0.8427007929).abs() < 2e-7);
        assert!((erf(-1.0) + 0.8427007929).abs() < 2e-7);
        assert!((erf(3.0) - 0.9999779095).abs() < 2e-7);
    }
}
