//! Thread- and block-variance taint analysis, and where barriers sit.
//!
//! One fact underlies both condition 2 of the Allgather-distributable
//! criteria (paper §6.2: no thread-variant guard on a write) and CUDA's
//! barrier rule (every thread of a block reaches the same
//! `__syncthreads()`): can a value differ between the threads of a block?
//! [`var_variance`] answers it for every variable as a joint conservative
//! taint fixpoint, including control dependence (a value assigned under a
//! variant condition is variant). Alongside *thread* variance it carries
//! *block* variance (the equal-length condition) and *loaded* (the value
//! may derive from a memory load), which `cucc-analysis` reads to decide
//! whether memory contents can steer a kernel.
//!
//! [`barrier_sites`] is the one walk that classifies barriers: the
//! validator rejects a divergent site, the verifier reports it as a MUST
//! finding on a kernel built as bare data, the lint reads the uniform
//! `if`s around a legal one, and the distributable analysis trusts its
//! forms only where no barrier sits under block- or thread-variant control.

use crate::expr::Expr;
use crate::kernel::Kernel;
use crate::stmt::Stmt;

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

/// Where one `__syncthreads()` sits in the kernel's control flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BarrierSite {
    /// The variance of every enclosing `if` condition and `for` bound,
    /// joined. `control.thread` makes the barrier *divergent*: some threads
    /// of a block may skip it, or reach it a different number of times,
    /// and the others wait forever.
    pub control: Variance,
    /// Enclosing `if`s whose condition is thread-uniform.
    pub uniform_ifs: usize,
}

/// Every `__syncthreads()` of `kernel` in pre-order — the numbering of
/// [`crate::SourceMap::barrier_lines`] — given the kernel's
/// [`var_variance`].
pub fn barrier_sites(kernel: &Kernel, variance: &[Variance]) -> Vec<BarrierSite> {
    fn walk(stmts: &[Stmt], at: BarrierSite, v: &[Variance], out: &mut Vec<BarrierSite>) {
        for s in stmts {
            match s {
                Stmt::SyncThreads => out.push(at),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let c = expr_variance(cond, v);
                    let inner = BarrierSite {
                        control: at.control.join(c),
                        uniform_ifs: at.uniform_ifs + usize::from(!c.thread),
                    };
                    walk(then_body, inner, v, out);
                    walk(else_body, inner, v, out);
                }
                Stmt::For {
                    start,
                    end,
                    step,
                    body,
                    ..
                } => {
                    let control = [start, end, step]
                        .into_iter()
                        .fold(at.control, |c, e| c.join(expr_variance(e, v)));
                    walk(body, BarrierSite { control, ..at }, v, out);
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(&kernel.body, BarrierSite::default(), variance, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_kernel;

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
    fn barrier_sites_read_divergence_and_uniform_ifs() {
        let k = parse_kernel(
            "__global__ void k(int* out, int n) {
                __syncthreads();
                if (n > 0) {
                    __syncthreads();
                    if (threadIdx.x < 4) __syncthreads();
                    for (int i = 0; i < blockIdx.x; i++) {
                        if (n > 1) __syncthreads();
                    }
                }
                int w = 0;
                if (threadIdx.x < 3) w = 1;
                for (int i = 0; i < w; i++) __syncthreads();
                out[0] = w;
            }",
        )
        .unwrap();
        // (thread-variant control, block-variant control, uniform `if`s)
        let read = |s: &BarrierSite| (s.control.thread, s.control.block, s.uniform_ifs);
        assert_eq!(
            barrier_sites(&k, &var_variance(&k))
                .iter()
                .map(read)
                .collect::<Vec<_>>(),
            [
                (false, false, 0),
                (false, false, 1),
                (true, false, 1),
                (false, true, 2),
                (true, false, 0)
            ]
        );
        let free = parse_kernel("__global__ void k(int* out) { out[0] = 1; }").unwrap();
        assert!(barrier_sites(&free, &var_variance(&free)).is_empty());
    }
}
