//! Structural validation of kernels.
//!
//! The executors and analyses rely on invariants that the IR data types do
//! not express. [`validate`] checks them all and must pass before a kernel is
//! executed or migrated:
//!
//! * all ids ([`VarId`], [`crate::kernel::ParamId`], shared/local indices) are in range,
//!   and `MemRef::Global` refers to buffer (not scalar) parameters;
//! * every local variable is assigned before use on every path;
//! * C's implicit conversions are explicit (the parser and
//!   [`crate::KernelBuilder`] insert them): a value assigned to a variable
//!   has the kind of its declared type and the arms of a `?:` agree — so
//!   every register of a compiled kernel has one kind;
//! * `for` bounds and steps are integers (a float loop variable counts in
//!   them, converted): the loops count in `i64`, and a float bound is
//!   rejected rather than truncated;
//! * subscripts are integers, as in C;
//! * integer-only operators (`% & | ^ << >> ~`) receive integer operands;
//! * intrinsic calls have the right arity;
//! * `__syncthreads()` appears only in *uniform* control flow — under no
//!   `if` condition and no `for` bound that can differ between the threads
//!   of a block — mirroring CUDA's requirement that all threads of a block
//!   reach the same barrier. The thread-variance taint is
//!   [`crate::variance::var_variance`], shared with the
//!   Allgather-distributable analysis (paper §6.2, condition 2), and the
//!   sites are [`crate::variance::barrier_sites`], which the verifier and
//!   the lint read too;
//! * `return` is absent from kernels that contain barriers.

use crate::expr::{BinOp, Expr, UnOp};
use crate::kernel::{Kernel, MemRef, Param, VarId};
use crate::stmt::Stmt;
use crate::types::ValueKind;
use crate::variance::{barrier_sites, var_variance};
use std::fmt;

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A `VarId` is out of range.
    BadVarId(VarId),
    /// A `ParamId` or array index is out of range, or a `MemRef::Global`
    /// names a scalar parameter.
    BadMemRef(String),
    /// A variable may be read before any assignment dominates the read.
    UseBeforeDef { var: VarId, name: String },
    /// A value reaches a variable or a `?:` arm in the wrong kind: the
    /// cast the parser and `KernelBuilder` insert is missing.
    Unconverted(String),
    /// A bound or step of the `for` over `var` is a float. The dialect's
    /// loops count in integers; truncating the bound would run a different
    /// number of iterations than C does.
    FloatLoopBound { var: String },
    /// A load, store or atomic is subscripted by a float.
    FloatIndex { mem: String },
    /// An integer-only operator received a float operand.
    IntOnlyOp(String),
    /// Wrong number of intrinsic arguments.
    BadArity { intrinsic: &'static str, got: usize },
    /// `__syncthreads()` in divergent (thread-variant) control flow.
    DivergentBarrier,
    /// `return` used in a kernel that also uses barriers.
    ReturnWithBarrier,
    /// A `for` step expression is the constant zero.
    ZeroStep,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadVarId(v) => write!(f, "variable id {v} out of range"),
            ValidateError::BadMemRef(m) => write!(f, "invalid memory reference: {m}"),
            ValidateError::UseBeforeDef { name, .. } => {
                write!(f, "variable `{name}` may be used before assignment")
            }
            ValidateError::Unconverted(site) => {
                write!(f, "{site} needs an explicit conversion")
            }
            ValidateError::FloatLoopBound { var } => {
                write!(f, "the `for` over `{var}` has a float bound or step")
            }
            ValidateError::FloatIndex { mem } => {
                write!(f, "subscript of `{mem}` is not an integer")
            }
            ValidateError::IntOnlyOp(op) => {
                write!(f, "operator `{op}` requires integer operands")
            }
            ValidateError::BadArity { intrinsic, got } => {
                write!(f, "intrinsic `{intrinsic}` called with {got} arguments")
            }
            ValidateError::DivergentBarrier => {
                write!(f, "__syncthreads() inside thread-divergent control flow")
            }
            ValidateError::ReturnWithBarrier => {
                write!(f, "return statement in a kernel that uses __syncthreads()")
            }
            ValidateError::ZeroStep => write!(f, "for-loop step is zero"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Validate a kernel. See the module docs for the list of checks.
pub fn validate(kernel: &Kernel) -> Result<(), ValidateError> {
    check_refs(kernel)?;
    check_def_before_use(kernel)?;
    check_kinds(kernel)?;
    check_barriers(kernel)?;
    Ok(())
}

fn check_mem_ref(kernel: &Kernel, mem: MemRef) -> Result<(), ValidateError> {
    match mem {
        MemRef::Global(p) => match kernel.params.get(p.index()) {
            Some(Param::Buffer { .. }) => Ok(()),
            Some(Param::Scalar { name, .. }) => Err(ValidateError::BadMemRef(format!(
                "global reference to scalar parameter `{name}`"
            ))),
            None => Err(ValidateError::BadMemRef(format!(
                "parameter {p} out of range"
            ))),
        },
        MemRef::Shared(i) if (i as usize) < kernel.shared.len() => Ok(()),
        MemRef::Local(i) if (i as usize) < kernel.locals.len() => Ok(()),
        other => Err(ValidateError::BadMemRef(format!("{other:?} out of range"))),
    }
}

fn check_expr_refs(kernel: &Kernel, nv: u32, e: &Expr) -> Result<(), ValidateError> {
    let mut result = Ok(());
    e.visit(&mut |node| {
        if result.is_err() {
            return;
        }
        match node {
            Expr::Var(v) if v.0 >= nv => result = Err(ValidateError::BadVarId(*v)),
            Expr::Param(p) if p.index() >= kernel.params.len() => {
                result = Err(ValidateError::BadMemRef(format!(
                    "parameter {p} out of range"
                )))
            }
            Expr::Param(p) if kernel.params[p.index()].is_buffer() => {
                result = Err(ValidateError::BadMemRef(format!(
                    "scalar read of buffer parameter `{}`",
                    kernel.params[p.index()].name()
                )));
            }
            Expr::Load { mem, .. } => {
                if let Err(e) = check_mem_ref(kernel, *mem) {
                    result = Err(e);
                }
            }
            Expr::Call { f, args } if args.len() != f.arity() => {
                result = Err(ValidateError::BadArity {
                    intrinsic: f.c_name(),
                    got: args.len(),
                });
            }
            _ => {}
        }
    });
    result
}

fn check_refs(kernel: &Kernel) -> Result<(), ValidateError> {
    let nv = kernel.num_vars() as u32;
    if kernel.var_types.len() != kernel.num_vars() {
        let n = kernel.var_types.len().min(kernel.num_vars());
        return Err(ValidateError::BadVarId(VarId(n as u32)));
    }
    let mut result = Ok(());
    kernel.visit_stmts(&mut |s| {
        if result.is_err() {
            return;
        }
        s.visit_exprs(&mut |e| {
            if result.is_ok() {
                result = check_expr_refs(kernel, nv, e);
            }
        });
        if result.is_err() {
            return;
        }
        match s {
            Stmt::Assign { var, .. } if var.0 >= nv => {
                result = Err(ValidateError::BadVarId(*var));
            }
            Stmt::For { var, step, .. } => {
                if var.0 >= nv {
                    result = Err(ValidateError::BadVarId(*var));
                } else if matches!(step, Expr::IntConst(0)) {
                    result = Err(ValidateError::ZeroStep);
                }
            }
            Stmt::Store { mem, .. } | Stmt::AtomicRmw { mem, .. } => {
                if let Err(e) = check_mem_ref(kernel, *mem) {
                    result = Err(e);
                }
            }
            _ => {}
        }
    });
    result
}

fn check_def_before_use(kernel: &Kernel) -> Result<(), ValidateError> {
    fn uses_ok(e: &Expr, defined: &[bool], kernel: &Kernel) -> Result<(), ValidateError> {
        let mut err = Ok(());
        e.visit(&mut |node| {
            if let Expr::Var(v) = node {
                if err.is_ok() && !defined[v.index()] {
                    err = Err(ValidateError::UseBeforeDef {
                        var: *v,
                        name: kernel.var_names[v.index()].clone(),
                    });
                }
            }
        });
        err
    }

    fn walk(stmts: &[Stmt], defined: &mut [bool], kernel: &Kernel) -> Result<(), ValidateError> {
        for s in stmts {
            let mut err = Ok(());
            s.visit_exprs(&mut |e| {
                if err.is_ok() {
                    err = uses_ok(e, defined, kernel);
                }
            });
            err?;
            match s {
                Stmt::Assign { var, .. } => defined[var.index()] = true,
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    let mut d1 = defined.to_vec();
                    walk(then_body, &mut d1, kernel)?;
                    let mut d2 = defined.to_vec();
                    walk(else_body, &mut d2, kernel)?;
                    // A variable is definitely assigned only if both branches
                    // assign it.
                    for i in 0..defined.len() {
                        defined[i] = defined[i] || (d1[i] && d2[i]);
                    }
                }
                Stmt::For { var, body, .. } => {
                    let mut d = defined.to_vec();
                    d[var.index()] = true;
                    walk(body, &mut d, kernel)?;
                    // The body may execute zero times: definitions inside do
                    // not escape. The induction variable itself holds its
                    // final value after the loop (C scoping in our dialect),
                    // so it counts as defined.
                    defined[var.index()] = true;
                }
                _ => {}
            }
        }
        Ok(())
    }

    let mut defined = vec![false; kernel.num_vars()];
    walk(&kernel.body, &mut defined, kernel)
}

/// The kinds the executors rely on: every assignment already converted,
/// `?:` arms agreeing, integer `for` bounds, integer subscripts and integer
/// operands for the integer-only operators.
fn check_kinds(kernel: &Kernel) -> Result<(), ValidateError> {
    let int = |e: &Expr| kernel.expr_kind(e) == ValueKind::Int;
    let index = |mem: MemRef, e: &Expr| match int(e) {
        true => Ok(()),
        false => Err(ValidateError::FloatIndex {
            mem: match mem {
                MemRef::Global(p) => kernel.params[p.index()].name().to_string(),
                MemRef::Shared(i) => kernel.shared[i as usize].name.clone(),
                MemRef::Local(i) => kernel.locals[i as usize].name.clone(),
            },
        }),
    };
    let expr = |e: &Expr| {
        let mut result = Ok(());
        e.visit(&mut |node| {
            if result.is_err() {
                return;
            }
            result = match node {
                Expr::Load { mem, index: i } => index(*mem, i),
                Expr::Binary { op, lhs, rhs }
                    if matches!(
                        op,
                        BinOp::Rem | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
                    ) && !(int(lhs) && int(rhs)) =>
                {
                    Err(ValidateError::IntOnlyOp(op.symbol().to_string()))
                }
                Expr::Unary {
                    op: UnOp::BitNot,
                    arg,
                } if !int(arg) => Err(ValidateError::IntOnlyOp("~".into())),
                Expr::Select {
                    then_value,
                    else_value,
                    ..
                } if kernel.expr_kind(then_value) != kernel.expr_kind(else_value) => {
                    Err(ValidateError::Unconverted("the arms of a `?:`".into()))
                }
                _ => Ok(()),
            };
        });
        result
    };
    let mut result = Ok(());
    kernel.visit_stmts(&mut |s| {
        if result.is_err() {
            return;
        }
        let var = |v: &VarId| format!("`{}`", kernel.var_names[v.index()]);
        result = match s {
            Stmt::Assign { var: v, value }
                if kernel.expr_kind(value) != kernel.var_type(*v).kind() =>
            {
                Err(ValidateError::Unconverted(format!(
                    "the value assigned to {}",
                    var(v)
                )))
            }
            Stmt::For {
                var: v,
                start,
                end,
                step,
                ..
            } if !(int(start) && int(end) && int(step)) => Err(ValidateError::FloatLoopBound {
                var: kernel.var_names[v.index()].clone(),
            }),
            Stmt::Store { mem, index: i, .. } | Stmt::AtomicRmw { mem, index: i, .. } => {
                index(*mem, i)
            }
            _ => Ok(()),
        };
        s.visit_exprs(&mut |e| {
            if result.is_ok() {
                result = expr(e);
            }
        });
    });
    result
}

/// `return` never shares a kernel with a barrier, and no barrier sits
/// under thread-variant control flow ([`barrier_sites`], over the variance
/// fixpoint the distributable analysis reads).
fn check_barriers(kernel: &Kernel) -> Result<(), ValidateError> {
    if !kernel.has_barrier() {
        return Ok(());
    }
    let mut has_return = false;
    kernel.visit_stmts(&mut |s| has_return |= matches!(s, Stmt::Return));
    if has_return {
        return Err(ValidateError::ReturnWithBarrier);
    }
    let sites = barrier_sites(kernel, &var_variance(kernel));
    match sites.iter().any(|s| s.control.thread) {
        true => Err(ValidateError::DivergentBarrier),
        false => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KernelBuilder;
    use crate::expr::Expr;
    use crate::types::{Axis, Scalar};

    #[test]
    fn valid_copy_kernel_passes() {
        let mut b = KernelBuilder::new("copy");
        let src = b.buffer("src", Scalar::F32);
        let dst = b.buffer("dst", Scalar::F32);
        let n = b.scalar("n", Scalar::I32);
        let id = b.let_("id", Expr::global_tid_x());
        b.if_then(Expr::Var(id).lt(n), |b| {
            b.store(dst, Expr::Var(id), Expr::load(src, Expr::Var(id)));
        });
        validate(&b.finish()).unwrap();
    }

    #[test]
    fn use_before_def_caught() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("out", Scalar::I32);
        let x = b.var("x", Scalar::I32);
        b.store(buf, Expr::int(0), Expr::Var(x));
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(err, ValidateError::UseBeforeDef { .. }));
    }

    #[test]
    fn def_in_single_branch_not_definite() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("out", Scalar::I32);
        let x = b.var("x", Scalar::I32);
        b.if_then(Expr::ThreadIdx(Axis::X).lt(Expr::int(1)), |b| {
            b.assign(x, Expr::int(1));
        });
        b.store(buf, Expr::int(0), Expr::Var(x));
        assert!(matches!(
            validate(&b.finish()),
            Err(ValidateError::UseBeforeDef { .. })
        ));
    }

    #[test]
    fn def_in_both_branches_is_definite() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("out", Scalar::I32);
        let x = b.var("x", Scalar::I32);
        b.if_else(
            Expr::ThreadIdx(Axis::X).lt(Expr::int(1)),
            |b| b.assign(x, Expr::int(1)),
            |b| b.assign(x, Expr::int(2)),
        );
        b.store(buf, Expr::int(0), Expr::Var(x));
        validate(&b.finish()).unwrap();
    }

    #[test]
    fn builder_converts_and_bare_ir_is_rejected() {
        let mut b = KernelBuilder::new("k");
        let _buf = b.buffer("out", Scalar::I32);
        let x = b.var("x", Scalar::F32);
        b.assign(x, Expr::float(1.5));
        b.assign(x, Expr::int(1)); // C converts: `x = (float)1`
        let mut k = b.finish();
        validate(&k).unwrap();
        assert_eq!(
            k.body[1],
            Stmt::Assign {
                var: x,
                value: Expr::cast(Scalar::F32, Expr::int(1))
            }
        );
        k.body[1] = Stmt::Assign {
            var: x,
            value: Expr::int(1),
        };
        assert!(matches!(validate(&k), Err(ValidateError::Unconverted(_))));
    }

    #[test]
    fn mixed_select_gets_its_int_arm_cast() {
        let mut b = KernelBuilder::new("k");
        let out = b.buffer("out", Scalar::F32);
        let sel = Expr::Select {
            cond: Box::new(Expr::ThreadIdx(Axis::X)),
            then_value: Box::new(Expr::int(7)),
            else_value: Box::new(Expr::float(2.5)),
        };
        b.store(out, Expr::int(0), sel.clone());
        let mut k = b.finish();
        validate(&k).unwrap();
        let Stmt::Store { value, .. } = &k.body[0] else {
            unreachable!()
        };
        let Expr::Select { then_value, .. } = value else {
            unreachable!()
        };
        assert_eq!(**then_value, Expr::cast(Scalar::F64, Expr::int(7)));
        k.body[0] = Stmt::Store {
            mem: out,
            index: Expr::int(0),
            value: sel,
        };
        assert!(matches!(validate(&k), Err(ValidateError::Unconverted(_))));
    }

    #[test]
    fn float_loop_bounds_rejected() {
        let src = [
            // C sums 0.5 + 1.5 + 2.5 = 4.5; a truncated start would give 3.
            "__global__ void k(float* out) { float s = 0.0f; \
             for (float x = 0.5f; x < 3; x++) s = s + x; out[0] = s; }",
            // C runs i = 0, 1, 2; a truncated bound would stop after 2.
            "__global__ void k(int* out) { float lim = 2.5f; int n = 0; \
             for (int i = 0; i < lim; i++) n = n + 1; out[0] = n; }",
            "__global__ void k(int* out) { for (int i = 0; i < 8; i += 0.5f) out[i] = 1; }",
        ];
        for s in src {
            let k = crate::parse::parse_kernel(s).unwrap();
            assert!(
                matches!(validate(&k), Err(ValidateError::FloatLoopBound { .. })),
                "{s}"
            );
        }
        let k = crate::parse::parse_kernel(src[0]).unwrap();
        assert_eq!(
            validate(&k).unwrap_err().to_string(),
            "the `for` over `x` has a float bound or step"
        );
        // A float loop variable with int bounds counts in floats, as in C.
        let ok = "__global__ void k(float* out) { float s = 0.0f; float x; \
                  for (x = threadIdx.x; x < threadIdx.x + 3; x++) s = s + x / 2; out[0] = s; }";
        validate(&crate::parse::parse_kernel(ok).unwrap()).unwrap();
        // So does the builder; a float bound there is rejected too.
        let mut b = KernelBuilder::new("k");
        let out = b.buffer("out", Scalar::F32);
        b.for_("x", Expr::float(0.5), Expr::int(3), Expr::int(1), |b, x| {
            b.store(out, Expr::int(0), Expr::Var(x));
        });
        assert_eq!(
            validate(&b.finish()),
            Err(ValidateError::FloatLoopBound { var: "x".into() })
        );
    }

    #[test]
    fn float_subscripts_rejected() {
        let src = [
            "__global__ void k(float* a) { a[0.5f] = 1.0f; }",
            "__global__ void k(float* a, float* b) { b[0] = a[threadIdx.x * 0.5f]; }",
            "__global__ void k(int* a) { atomicAdd(&a[1.0], 1); }",
            "__global__ void k(int* a) { __shared__ int t[4]; t[0] = t[(double)1]; a[0] = 1; }",
        ];
        for s in src {
            let k = crate::parse::parse_kernel(s).unwrap();
            assert!(
                matches!(validate(&k), Err(ValidateError::FloatIndex { .. })),
                "{s}"
            );
        }
        // An explicit cast is the C spelling.
        let k = crate::parse::parse_kernel("__global__ void k(float* a) { a[(int)0.5f] = 1.0f; }");
        validate(&k.unwrap()).unwrap();
    }

    #[test]
    fn bitwise_on_float_rejected() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("out", Scalar::I32);
        b.store(
            buf,
            Expr::int(0),
            Expr::bin(BinOp::And, Expr::float(1.0), Expr::int(3)),
        );
        assert!(matches!(
            validate(&b.finish()),
            Err(ValidateError::IntOnlyOp(_))
        ));
    }

    #[test]
    fn divergent_barrier_rejected() {
        let mut b = KernelBuilder::new("k");
        let _buf = b.buffer("out", Scalar::I32);
        b.if_then(Expr::ThreadIdx(Axis::X).lt(Expr::int(16)), |b| {
            b.sync_threads();
        });
        assert_eq!(validate(&b.finish()), Err(ValidateError::DivergentBarrier));
    }

    #[test]
    fn uniform_barrier_in_loop_ok() {
        let mut b = KernelBuilder::new("k");
        let sh = b.shared("tile", Scalar::F32, 32);
        let n = b.scalar("n", Scalar::I32);
        b.for_range("i", n, |b, _i| {
            b.store(sh, Expr::ThreadIdx(Axis::X), Expr::float(0.0));
            b.sync_threads();
        });
        validate(&b.finish()).unwrap();
    }

    #[test]
    fn return_with_barrier_rejected() {
        let mut b = KernelBuilder::new("k");
        let _sh = b.shared("tile", Scalar::F32, 32);
        b.if_then(Expr::ThreadIdx(Axis::X).lt(Expr::int(1)), |b| b.ret());
        b.sync_threads();
        assert_eq!(validate(&b.finish()), Err(ValidateError::ReturnWithBarrier));
    }

    #[test]
    fn bad_memref_to_scalar_param() {
        let mut b = KernelBuilder::new("k");
        let n = b.scalar("n", Scalar::I32);
        let Expr::Param(pid) = n else { unreachable!() };
        let mut k = b.finish();
        k.body.push(Stmt::Store {
            mem: MemRef::Global(pid),
            index: Expr::int(0),
            value: Expr::int(0),
        });
        assert!(matches!(validate(&k), Err(ValidateError::BadMemRef(_))));
    }

    #[test]
    fn zero_step_rejected() {
        let mut b = KernelBuilder::new("k");
        let _buf = b.buffer("out", Scalar::I32);
        b.for_("i", Expr::int(0), Expr::int(4), Expr::int(0), |_b, _i| {});
        assert_eq!(validate(&b.finish()), Err(ValidateError::ZeroStep));
    }

    #[test]
    fn loop_var_defined_after_loop() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("out", Scalar::I32);
        let i = b.for_range("i", Expr::int(4), |_b, _i| {});
        b.store(buf, Expr::int(0), Expr::Var(i));
        validate(&b.finish()).unwrap();
    }
}
