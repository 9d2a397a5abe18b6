//! IR optimization passes: constant folding, algebraic simplification and
//! dead-branch elimination.
//!
//! The paper's pipeline lowers CUDA through LLVM, which canonicalizes the
//! IR before the Allgather-distributable analysis runs. This pass plays
//! that role here: it folds constant subexpressions and normalizes trivial
//! algebra so that the affine analysis sees `id` instead of
//! `id * 1 + 0`, and eliminates statically-false branches. Semantics are
//! preserved exactly (integer ops use the interpreter's wrapping rules; no
//! floating-point reassociation is performed).

use crate::expr::{BinOp, Expr, UnOp};
use crate::kernel::Kernel;
use crate::stmt::Stmt;
use crate::types::{Scalar, Value};

/// Optimize a kernel in place; returns the number of rewrites applied.
pub fn optimize(kernel: &mut Kernel) -> usize {
    let mut count = 0;
    let body = std::mem::take(&mut kernel.body);
    kernel.body = opt_block(body, &kernel.var_types, &mut count);
    count
}

fn opt_block(stmts: Vec<Stmt>, var_types: &[Scalar], count: &mut usize) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Assign { var, value } => out.push(Stmt::Assign {
                var,
                value: opt_expr(value, count),
            }),
            Stmt::Store { mem, index, value } => out.push(Stmt::Store {
                mem,
                index: opt_expr(index, count),
                value: opt_expr(value, count),
            }),
            Stmt::AtomicRmw {
                op,
                mem,
                index,
                value,
            } => out.push(Stmt::AtomicRmw {
                op,
                mem,
                index: opt_expr(index, count),
                value: opt_expr(value, count),
            }),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = opt_expr(cond, count);
                let then_body = opt_block(then_body, var_types, count);
                let else_body = opt_block(else_body, var_types, count);
                match const_truth(&cond) {
                    // Statically decided branch: splice the taken side.
                    Some(true) => {
                        *count += 1;
                        out.extend(then_body);
                    }
                    Some(false) => {
                        *count += 1;
                        out.extend(else_body);
                    }
                    None => {
                        if then_body.is_empty() && else_body.is_empty() {
                            // Side-effect-free condition: drop entirely
                            // (conditions cannot have side effects in this IR).
                            *count += 1;
                        } else {
                            out.push(Stmt::If {
                                cond,
                                then_body,
                                else_body,
                            });
                        }
                    }
                }
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let start = opt_expr(start, count);
                let end = opt_expr(end, count);
                let step = opt_expr(step, count);
                let body = opt_block(body, var_types, count);
                // Zero-trip loops still define the induction variable, so
                // keep the loop header (the interpreter assigns `var =
                // start` even when the body never runs) unless the body is
                // empty AND the variable is obviously unused — too fragile
                // to prove here, so we only drop statically-empty bodies
                // with constant zero-trip bounds.
                if let (Some(s0), Some(e0), Some(st)) =
                    (const_int(&start), const_int(&end), const_int(&step))
                {
                    let never_runs = (st > 0 && s0 >= e0) || (st < 0 && s0 <= e0);
                    if never_runs {
                        *count += 1;
                        // Keep the induction-variable definition: the
                        // count converted to the variable's type.
                        let ty = var_types[var.index()].widened();
                        out.push(Stmt::Assign {
                            var,
                            value: match Value::I64(s0).convert_to(ty) {
                                Value::I64(v) => Expr::IntConst(v),
                                Value::F64(v) => Expr::FloatConst(v),
                            },
                        });
                        continue;
                    }
                }
                out.push(Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                });
            }
            other => out.push(other),
        }
    }
    out
}

fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::IntConst(v) => Some(*v),
        _ => None,
    }
}

fn const_truth(e: &Expr) -> Option<bool> {
    match e {
        Expr::IntConst(v) => Some(*v != 0),
        Expr::FloatConst(v) => Some(*v != 0.0),
        _ => None,
    }
}

/// Fold and simplify one expression tree (bottom-up).
pub fn opt_expr(e: Expr, count: &mut usize) -> Expr {
    match e {
        Expr::Unary { op, arg } => {
            let arg = opt_expr(*arg, count);
            match (&op, &arg) {
                (UnOp::Neg, Expr::IntConst(v)) => {
                    *count += 1;
                    Expr::IntConst(v.wrapping_neg())
                }
                (UnOp::Neg, Expr::FloatConst(v)) => {
                    *count += 1;
                    Expr::FloatConst(-v)
                }
                (UnOp::Not, Expr::IntConst(v)) => {
                    *count += 1;
                    Expr::IntConst(i64::from(*v == 0))
                }
                (UnOp::BitNot, Expr::IntConst(v)) => {
                    *count += 1;
                    Expr::IntConst(!v)
                }
                // --x == x
                (
                    UnOp::Neg,
                    Expr::Unary {
                        op: UnOp::Neg,
                        arg: inner,
                    },
                ) => {
                    *count += 1;
                    (**inner).clone()
                }
                _ => Expr::Unary {
                    op,
                    arg: Box::new(arg),
                },
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let lhs = opt_expr(*lhs, count);
            let rhs = opt_expr(*rhs, count);
            simplify_binary(op, lhs, rhs, count)
        }
        Expr::Select {
            cond,
            then_value,
            else_value,
        } => {
            let cond = opt_expr(*cond, count);
            let then_value = opt_expr(*then_value, count);
            let else_value = opt_expr(*else_value, count);
            match const_truth(&cond) {
                Some(true) => {
                    *count += 1;
                    then_value
                }
                Some(false) => {
                    *count += 1;
                    else_value
                }
                None => Expr::Select {
                    cond: Box::new(cond),
                    then_value: Box::new(then_value),
                    else_value: Box::new(else_value),
                },
            }
        }
        Expr::Cast { ty, arg } => {
            let arg = opt_expr(*arg, count);
            if let Expr::IntConst(v) = arg {
                if ty.kind() == crate::types::ValueKind::Int {
                    *count += 1;
                    return Expr::IntConst(Value::I64(v).convert_to(ty).as_i64());
                }
            }
            Expr::Cast {
                ty,
                arg: Box::new(arg),
            }
        }
        Expr::Load { mem, index } => Expr::Load {
            mem,
            index: Box::new(opt_expr(*index, count)),
        },
        Expr::Call { f, args } => Expr::Call {
            f,
            args: args.into_iter().map(|a| opt_expr(a, count)).collect(),
        },
        leaf => leaf,
    }
}

fn simplify_binary(op: BinOp, lhs: Expr, rhs: Expr, count: &mut usize) -> Expr {
    use BinOp::*;
    // Integer constant folding with the interpreter's exact wrapping
    // semantics (division by zero is left for the runtime to report).
    if let (Expr::IntConst(a), Expr::IntConst(b)) = (&lhs, &rhs) {
        let (a, b) = (*a, *b);
        let folded = match op {
            Add => Some(a.wrapping_add(b)),
            Sub => Some(a.wrapping_sub(b)),
            Mul => Some(a.wrapping_mul(b)),
            Div if b != 0 => Some(a.wrapping_div(b)),
            Rem if b != 0 => Some(a.wrapping_rem(b)),
            And => Some(a & b),
            Or => Some(a | b),
            Xor => Some(a ^ b),
            Shl => Some(a.wrapping_shl(b as u32 & 63)),
            Shr => Some(a.wrapping_shr(b as u32 & 63)),
            Lt => Some(i64::from(a < b)),
            Le => Some(i64::from(a <= b)),
            Gt => Some(i64::from(a > b)),
            Ge => Some(i64::from(a >= b)),
            Eq => Some(i64::from(a == b)),
            Ne => Some(i64::from(a != b)),
            LAnd => Some(i64::from(a != 0 && b != 0)),
            LOr => Some(i64::from(a != 0 || b != 0)),
            _ => None,
        };
        if let Some(v) = folded {
            *count += 1;
            return Expr::IntConst(v);
        }
    }
    // Div/mod recomposition: `(x / c)·c + x % c == x` holds for ALL
    // integers under C (truncated) division semantics — the pattern Triton
    // and hand-written kernels use to decompose a linear index into
    // (row, col), which would otherwise defeat the affine analysis.
    if op == Add {
        if let Some(x) = recompose_divmod(&lhs, &rhs).or_else(|| recompose_divmod(&rhs, &lhs)) {
            *count += 1;
            return x;
        }
    }
    // Algebraic identities — integer-safe only (no float reassociation;
    // x*0 → 0 is also float-unsafe because of NaN, so it is int-only).
    match (&op, &lhs, &rhs) {
        // x + 0, 0 + x, x - 0
        (Add, e, Expr::IntConst(0)) | (Sub, e, Expr::IntConst(0)) => {
            *count += 1;
            return e.clone();
        }
        (Add, Expr::IntConst(0), e) => {
            *count += 1;
            return e.clone();
        }
        // x * 1, 1 * x, x / 1
        (Mul, e, Expr::IntConst(1)) | (Div, e, Expr::IntConst(1)) => {
            *count += 1;
            return e.clone();
        }
        (Mul, Expr::IntConst(1), e) => {
            *count += 1;
            return e.clone();
        }
        // x * 0 / 0 * x (integer only: the operand may still have been
        // evaluated for side effects, but expressions are effect-free here).
        (Mul, _, Expr::IntConst(0)) | (Mul, Expr::IntConst(0), _)
            if expr_is_int(&lhs) && expr_is_int(&rhs) =>
        {
            *count += 1;
            return Expr::IntConst(0);
        }
        // x << 0, x >> 0
        (Shl, e, Expr::IntConst(0)) | (Shr, e, Expr::IntConst(0)) => {
            *count += 1;
            return e.clone();
        }
        // 1 && x → (x != 0); 0 && x → 0; symmetrics
        (LAnd, Expr::IntConst(c), _e) => {
            *count += 1;
            return if *c != 0 {
                truthy(rhs)
            } else {
                Expr::IntConst(0)
            };
        }
        (LOr, Expr::IntConst(c), _e) => {
            *count += 1;
            return if *c != 0 {
                Expr::IntConst(1)
            } else {
                truthy(rhs)
            };
        }
        _ => {}
    }
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

/// Match `(x / c) * c` + `x % c` (either operand order inside the
/// multiplication) and return `x`.
fn recompose_divmod(mul_side: &Expr, rem_side: &Expr) -> Option<Expr> {
    let Expr::Binary {
        op: BinOp::Rem,
        lhs: rem_x,
        rhs: rem_c,
    } = rem_side
    else {
        return None;
    };
    let Expr::Binary {
        op: BinOp::Mul,
        lhs: mul_a,
        rhs: mul_b,
    } = mul_side
    else {
        return None;
    };
    // Identify which multiplication operand is the division.
    for (div, c) in [(mul_a, mul_b), (mul_b, mul_a)] {
        if let Expr::Binary {
            op: BinOp::Div,
            lhs: div_x,
            rhs: div_c,
        } = &**div
        {
            if **c == **div_c && **div_c == **rem_c && **div_x == **rem_x {
                return Some((**div_x).clone());
            }
        }
    }
    None
}

/// Normalize a value to 0/1 truthiness (used when collapsing `1 && x`).
fn truthy(e: Expr) -> Expr {
    match &e {
        Expr::Binary { op, .. } if op.is_comparison() || matches!(op, BinOp::LAnd | BinOp::LOr) => {
            e
        }
        Expr::IntConst(v) => Expr::IntConst(i64::from(*v != 0)),
        _ => Expr::bin(BinOp::Ne, e, Expr::IntConst(0)),
    }
}

/// Conservative integer-domain check for leaf-ish expressions (used to
/// justify `x·0 → 0`, which is invalid for floats because of NaN/Inf).
fn expr_is_int(e: &Expr) -> bool {
    match e {
        Expr::IntConst(_)
        | Expr::ThreadIdx(_)
        | Expr::BlockIdx(_)
        | Expr::BlockDim(_)
        | Expr::GridDim(_) => true,
        Expr::Unary { op: UnOp::Neg, arg } => expr_is_int(arg),
        Expr::Binary { op, lhs, rhs } => {
            op.is_comparison()
                || matches!(
                    op,
                    BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr | BinOp::Rem
                )
                || (matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
                    && expr_is_int(lhs)
                    && expr_is_int(rhs))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KernelBuilder;
    use crate::types::{Axis, Scalar};

    fn fold(e: Expr) -> Expr {
        let mut n = 0;
        opt_expr(e, &mut n)
    }

    #[test]
    fn constant_arithmetic_folds() {
        assert_eq!(fold(Expr::int(2).add(Expr::int(3))), Expr::IntConst(5));
        assert_eq!(fold(Expr::int(7).mul(Expr::int(-2))), Expr::IntConst(-14));
        assert_eq!(fold(Expr::int(7).rem(Expr::int(3))), Expr::IntConst(1));
        assert_eq!(fold(Expr::int(2).lt(Expr::int(3))), Expr::IntConst(1));
        // Division by zero is NOT folded — the runtime must report it.
        assert!(matches!(
            fold(Expr::int(1).div(Expr::int(0))),
            Expr::Binary { .. }
        ));
    }

    #[test]
    fn identities_simplify() {
        let tid = Expr::ThreadIdx(Axis::X);
        assert_eq!(fold(tid.clone().add(Expr::int(0))), tid);
        assert_eq!(fold(tid.clone().mul(Expr::int(1))), tid);
        assert_eq!(fold(Expr::int(0).add(tid.clone())), tid);
        assert_eq!(fold(tid.clone().mul(Expr::int(0))), Expr::IntConst(0));
        assert_eq!(fold(tid.clone().sub(Expr::int(0))), tid);
    }

    #[test]
    fn float_zero_mul_not_rewritten() {
        // 0.0 * x must stay (NaN propagation).
        let e = Expr::float(0.0).mul(Expr::FloatConst(f64::NAN));
        assert!(matches!(fold(e), Expr::Binary { .. }));
        // Param-typed operands are unknown-domain: keep.
        let p = Expr::Param(crate::kernel::ParamId(0));
        assert!(matches!(fold(p.mul(Expr::int(0))), Expr::Binary { .. }));
    }

    #[test]
    fn nested_folding_cascades() {
        // (2 + 3) * (4 - 4) = 0
        let e = Expr::int(2)
            .add(Expr::int(3))
            .mul(Expr::int(4).sub(Expr::int(4)));
        assert_eq!(fold(e), Expr::IntConst(0));
    }

    #[test]
    fn select_and_logic_collapse() {
        let tid = Expr::ThreadIdx(Axis::X);
        let sel = Expr::Select {
            cond: Box::new(Expr::int(1)),
            then_value: Box::new(tid.clone()),
            else_value: Box::new(Expr::int(9)),
        };
        assert_eq!(fold(sel), tid);
        assert_eq!(
            fold(Expr::int(0).land(Expr::ThreadIdx(Axis::X))),
            Expr::IntConst(0)
        );
        let t = fold(Expr::int(1).land(Expr::ThreadIdx(Axis::X).lt(Expr::int(3))));
        assert_eq!(t, Expr::ThreadIdx(Axis::X).lt(Expr::int(3)));
    }

    #[test]
    fn dead_branches_eliminated() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("out", Scalar::I32);
        b.if_then(Expr::int(1).lt(Expr::int(2)), |b| {
            b.store(buf, Expr::int(0), Expr::int(7));
        });
        b.if_then(Expr::int(5).lt(Expr::int(2)), |b| {
            b.store(buf, Expr::int(1), Expr::int(8));
        });
        let mut k = b.finish();
        let n = optimize(&mut k);
        assert!(n >= 2);
        // First if spliced to a bare store; second removed entirely.
        assert_eq!(k.body.len(), 1);
        assert!(matches!(&k.body[0], Stmt::Store { .. }));
    }

    #[test]
    fn zero_trip_loop_removed_but_var_defined() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("out", Scalar::I32);
        let i = b.for_("i", Expr::int(5), Expr::int(5), Expr::int(1), |_b, _i| {});
        b.store(buf, Expr::int(0), Expr::Var(i));
        let mut k = b.finish();
        optimize(&mut k);
        // Loop gone, but `i = 5` kept so the later use still validates.
        assert!(matches!(
            &k.body[0],
            Stmt::Assign {
                value: Expr::IntConst(5),
                ..
            }
        ));
        crate::validate::validate(&k).unwrap();
    }

    #[test]
    fn cast_of_int_constant_folds() {
        let e = Expr::cast(Scalar::U8, Expr::int(300));
        assert_eq!(fold(e), Expr::IntConst(44));
        // Float casts are not folded (value kind changes).
        let e = Expr::cast(Scalar::F32, Expr::int(3));
        assert!(matches!(fold(e), Expr::Cast { .. }));
    }

    #[test]
    fn divmod_recomposition() {
        use crate::types::Axis;
        let x = Expr::ThreadIdx(Axis::X).add(Expr::int(7));
        let c = Expr::int(32);
        // (x / 32) * 32 + x % 32  →  x
        let e = x
            .clone()
            .div(c.clone())
            .mul(c.clone())
            .add(x.clone().rem(c.clone()));
        assert_eq!(fold(e), x);
        // Commuted forms.
        let e = x
            .clone()
            .rem(c.clone())
            .add(c.clone().mul(x.clone().div(c.clone())));
        assert_eq!(fold(e), x);
        // Mismatched constants must NOT fold.
        let e = x
            .clone()
            .div(Expr::int(32))
            .mul(Expr::int(32))
            .add(x.clone().rem(Expr::int(16)));
        assert!(matches!(fold(e), Expr::Binary { .. }));
    }

    #[test]
    fn optimize_helps_affine_analysis() {
        // `id * 1 + 0` should analyze like `id` after optimization.
        let src = "__global__ void k(int* out) {
            int id = (blockIdx.x * blockDim.x + threadIdx.x) * 1 + 0;
            out[id * (2 - 1)] = 1;
        }";
        let mut k = crate::parse::parse_kernel(src).unwrap();
        let n = optimize(&mut k);
        assert!(n >= 3, "rewrites applied: {n}");
        let printed = crate::printer::print_kernel(&k);
        assert!(printed.contains("out[id] = 1;"), "{printed}");
    }
}
