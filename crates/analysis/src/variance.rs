//! Thread- and block-variance taint analysis.
//!
//! Condition 2 of the Allgather-distributable criteria (paper §6.2) needs to
//! know whether a guard condition is *thread-variant* (can differ between
//! threads of one block) and the equal-length condition additionally needs
//! *block-variance* (can differ between blocks). Both are computed here as a
//! joint conservative taint fixpoint, including control-dependence (a value
//! assigned under a variant condition is variant).
//!
//! The same fixpoint carries a third flag, *loaded* (the value may derive
//! from a memory load), and [`content_steered`] reads it: whether memory
//! *contents* can change which statements a thread runs or which addresses
//! it touches — the one input of launch planning that no cache key can hold.

use cucc_ir::{BinOp, Expr, Kernel, Stmt};

/// Per-variable variance flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Variance {
    /// Value may differ between threads of a block.
    pub thread: bool,
    /// Value may differ between blocks.
    pub block: bool,
    /// Value may derive from a memory load.
    pub loaded: bool,
}

impl Variance {
    /// Fully uniform (launch-invariant).
    pub fn uniform() -> Variance {
        Variance::default()
    }

    /// Join two variances (component-wise or).
    pub fn join(self, other: Variance) -> Variance {
        Variance {
            thread: self.thread || other.thread,
            block: self.block || other.block,
            loaded: self.loaded || other.loaded,
        }
    }
}

/// Compute the variance of every kernel variable.
pub fn var_variance(kernel: &Kernel) -> Vec<Variance> {
    let n = kernel.num_vars();
    let mut v = vec![Variance::uniform(); n];
    loop {
        let mut changed = false;
        // Data dependence.
        kernel.visit_stmts(&mut |s| match s {
            Stmt::Assign { var, value } => {
                let nv = v[var.index()].join(expr_variance(value, &v));
                if nv != v[var.index()] {
                    v[var.index()] = nv;
                    changed = true;
                }
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                ..
            } => {
                let nv = v[var.index()]
                    .join(expr_variance(start, &v))
                    .join(expr_variance(end, &v))
                    .join(expr_variance(step, &v));
                if nv != v[var.index()] {
                    v[var.index()] = nv;
                    changed = true;
                }
            }
            _ => {}
        });
        // Control dependence.
        control_taint(&kernel.body, Variance::uniform(), &mut v, &mut changed);
        if !changed {
            return v;
        }
    }
}

fn control_taint(stmts: &[Stmt], ctx: Variance, v: &mut [Variance], changed: &mut bool) {
    for s in stmts {
        match s {
            Stmt::Assign { var, .. } => {
                let nv = v[var.index()].join(ctx);
                if nv != v[var.index()] {
                    v[var.index()] = nv;
                    *changed = true;
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let inner = ctx.join(expr_variance(cond, v));
                control_taint(then_body, inner, v, changed);
                control_taint(else_body, inner, v, changed);
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let inner = ctx
                    .join(expr_variance(start, v))
                    .join(expr_variance(end, v))
                    .join(expr_variance(step, v));
                let nv = v[var.index()].join(inner);
                if nv != v[var.index()] {
                    v[var.index()] = nv;
                    *changed = true;
                }
                control_taint(body, inner, v, changed);
            }
            _ => {}
        }
    }
}

/// Variance of an expression given variable variances.
///
/// Memory loads are treated as thread- and block-variant: their value is
/// data-dependent and the analysis cannot prove it uniform.
pub fn expr_variance(e: &Expr, vars: &[Variance]) -> Variance {
    let mut out = Variance::uniform();
    e.visit(&mut |node| match node {
        Expr::ThreadIdx(_) => out.thread = true,
        Expr::BlockIdx(_) => out.block = true,
        Expr::Load { .. } => {
            out.thread = true;
            out.block = true;
            out.loaded = true;
        }
        Expr::Var(v) => out = out.join(vars[v.index()]),
        _ => {}
    });
    out
}

/// Whether memory contents can steer the kernel: a loaded value reaches a
/// branch condition, a loop bound, the deciding side of a short-circuit, a
/// select condition or a memory index. The sampling profiler observes
/// exactly control flow and addresses, so a kernel without this flag plans
/// identically under any buffer contents — and one with it may not, so its
/// schedules are never cached.
pub fn content_steered(kernel: &Kernel) -> bool {
    let v = var_variance(kernel);
    let loaded = |e: &Expr| expr_variance(e, &v).loaded;
    let mut steered = false;
    kernel.visit_stmts(&mut |s| {
        steered |= match s {
            Stmt::If { cond, .. } => loaded(cond),
            Stmt::For {
                start, end, step, ..
            } => loaded(start) || loaded(end) || loaded(step),
            Stmt::Store { index, .. } | Stmt::AtomicRmw { index, .. } => loaded(index),
            _ => false,
        };
        s.visit_exprs(&mut |e| {
            e.visit(&mut |node| {
                steered |= match node {
                    Expr::Load { index, .. } => loaded(index),
                    Expr::Binary {
                        op: BinOp::LAnd | BinOp::LOr,
                        lhs,
                        ..
                    } => loaded(lhs),
                    Expr::Select { cond, .. } => loaded(cond),
                    _ => false,
                }
            })
        });
    });
    steered
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_ir::parse_kernel;

    fn variances(src: &str) -> (Vec<Variance>, Kernel) {
        let k = parse_kernel(src).unwrap();
        let v = var_variance(&k);
        (v, k)
    }

    fn var_named(k: &Kernel, name: &str) -> usize {
        k.var_names.iter().position(|n| n == name).unwrap()
    }

    #[test]
    fn classification_basics() {
        let (v, k) = variances(
            "__global__ void k(int* out, int n) {
                int t = threadIdx.x;
                int b = blockIdx.x;
                int u = n * 2;
                int g = b * blockDim.x + t;
                out[g] = u;
            }",
        );
        assert_eq!(
            v[var_named(&k, "t")],
            Variance {
                thread: true,
                block: false,
                loaded: false,
            }
        );
        assert_eq!(
            v[var_named(&k, "b")],
            Variance {
                thread: false,
                block: true,
                loaded: false,
            }
        );
        assert_eq!(v[var_named(&k, "u")], Variance::uniform());
        assert_eq!(
            v[var_named(&k, "g")],
            Variance {
                thread: true,
                block: true,
                loaded: false,
            }
        );
    }

    #[test]
    fn load_is_fully_variant() {
        let (v, k) = variances(
            "__global__ void k(int* out, int* data) {
                int x = data[0];
                out[0] = x;
            }",
        );
        assert_eq!(
            v[var_named(&k, "x")],
            Variance {
                thread: true,
                block: true,
                loaded: true,
            }
        );
    }

    #[test]
    fn control_dependence_taints() {
        let (v, k) = variances(
            "__global__ void k(int* out) {
                int x = 0;
                int y = 0;
                if (threadIdx.x < 4) x = 1;
                if (blockIdx.x < 2) y = 1;
                out[0] = x + y;
            }",
        );
        assert_eq!(
            v[var_named(&k, "x")],
            Variance {
                thread: true,
                block: false,
                loaded: false,
            }
        );
        assert_eq!(
            v[var_named(&k, "y")],
            Variance {
                thread: false,
                block: true,
                loaded: false,
            }
        );
    }

    #[test]
    fn loop_feedback_fixpoint() {
        // acc picks up thread variance through its own reassignment.
        let (v, k) = variances(
            "__global__ void k(int* out, int n) {
                int acc = 0;
                for (int i = 0; i < n; i++)
                    acc = acc + threadIdx.x;
                out[0] = acc;
            }",
        );
        assert_eq!(
            v[var_named(&k, "acc")],
            Variance {
                thread: true,
                block: false,
                loaded: false,
            }
        );
        assert_eq!(v[var_named(&k, "i")], Variance::uniform());
    }

    #[test]
    fn variant_loop_bounds_taint_induction_var() {
        let (v, k) = variances(
            "__global__ void k(int* out) {
                int s = 0;
                for (int i = 0; i < threadIdx.x; i++)
                    s = s + 1;
                out[0] = s;
            }",
        );
        assert!(v[var_named(&k, "i")].thread);
        assert!(v[var_named(&k, "s")].thread);
    }

    #[test]
    fn content_steering_is_conditions_bounds_and_indices() {
        let steered = |body: &str| {
            let src = format!("__global__ void k(int* out, int* data, int n) {{ {body} }}");
            content_steered(&parse_kernel(&src).unwrap())
        };
        // A loaded value that is only stored steers nothing.
        assert!(!steered("out[threadIdx.x] = data[threadIdx.x] * n;"));
        assert!(!steered("if (threadIdx.x < n) out[threadIdx.x] = data[0];"));
        // Branch, loop bound (through a variable), short-circuit, select, index.
        assert!(steered("if (data[0] > 0) out[0] = 1;"));
        assert!(steered(
            "int t = data[0]; int s = 0; for (int i = 0; i < t; i++) s = s + 1; out[0] = s;"
        ));
        assert!(steered("out[0] = (data[0] > 0 && n > 0);"));
        assert!(steered("out[0] = data[0] > 0 ? 1 : 2;"));
        assert!(steered("out[data[threadIdx.x]] = 1;"));
        assert!(steered("out[threadIdx.x] = data[data[threadIdx.x]];"));
        // Control dependence: a value assigned under a loaded condition is
        // itself loaded (the condition already steers).
        assert!(steered("int x = 0; if (data[0] > 0) x = 1; out[x] = 1;"));
    }
}
