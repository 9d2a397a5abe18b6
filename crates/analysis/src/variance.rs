//! Whether memory *contents* can steer a kernel: which statements a thread
//! runs or which addresses it touches — the one input of launch planning
//! that no cache key can hold. It reads the *loaded* flag of the one
//! variance fixpoint ([`cucc_ir::var_variance`]).

use cucc_ir::{expr_variance, var_variance, BinOp, Expr, Kernel, Stmt};

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
