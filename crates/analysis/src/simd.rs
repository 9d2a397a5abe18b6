//! SIMD vectorizability analysis of the transformed thread loop.
//!
//! After GPU-to-CPU migration a GPU block becomes a CPU function whose
//! threads run as a loop (paper §2.2, Listing 2); CuPBoP marks that loop
//! `#pragma omp simd`. Whether the compiler can actually vectorize it
//! determines the huge SIMD-Focused vs Thread-Focused performance gaps of
//! §8.2 (BinomialOption: 55× — scalar on the SIMD CPU; Transpose: 1.3× —
//! fully vectorized; disabling SIMD slows the SIMD-Focused CPU 61.66×).
//!
//! This analysis reproduces the decision an outer-loop vectorizer makes on
//! the transformed code, using the heuristics the paper discusses in §8.3:
//!
//! * straight-line bodies (plus bound-check guards) vectorize fully;
//! * inner loops block outer-loop vectorization when they carry a
//!   **recurrence** (a scalar read and written in the same iteration —
//!   BinomialOption's binomial recurrence, FIR's accumulator, EP's RNG) or
//!   index a **per-thread local array** with a loop-variant subscript;
//! * data-dependent control flow and atomics force scalar execution;
//! * gather/scatter (non-unit thread stride) vectorizes at reduced
//!   efficiency.

use crate::affine::{affine_of_expr, IdxVar, VarForms};
use cucc_ir::{expr_variance, var_variance, Axis, Expr, Kernel, MemRef, Stmt, VarId, Variance};

/// Vectorization outcome class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdClass {
    /// The whole thread loop maps to SIMD lanes.
    Full,
    /// Parts vectorize (e.g. inner loops without recurrences).
    Partial,
    /// No SIMD benefit: scalar execution.
    Scalar,
}

/// Result of the vectorizability analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct SimdReport {
    /// Overall class.
    pub class: SimdClass,
    /// Fraction of the peak SIMD speedup the transformed loop achieves
    /// (`0.0` = scalar, `1.0` = perfect lane utilization).
    pub efficiency: f64,
    /// Human-readable reasons for downgrades.
    pub reasons: Vec<String>,
}

impl SimdReport {
    /// One-line human-readable summary for CLI diagnostics (`cucc run -v`):
    /// the class, the efficiency, and why it was downgraded, if it was.
    pub fn summary(&self) -> String {
        let class = match self.class {
            SimdClass::Full => "full",
            SimdClass::Partial => "partial",
            SimdClass::Scalar => "scalar",
        };
        if self.reasons.is_empty() {
            format!("{class} ({:.0}% lane efficiency)", self.efficiency * 100.0)
        } else {
            format!(
                "{class} ({:.0}% lane efficiency): {}",
                self.efficiency * 100.0,
                self.reasons.join("; ")
            )
        }
    }
}

/// Analyze the kernel's thread loop for vectorizability.
pub fn analyze_simd(kernel: &Kernel) -> SimdReport {
    let variance = var_variance(kernel);
    let forms = VarForms::of_kernel(kernel);
    let mut reasons = Vec::new();
    let mut class = SimdClass::Full;
    let mut stride_penalty = 1.0f64;

    let downgrade =
        |class: &mut SimdClass, to: SimdClass, reasons: &mut Vec<String>, why: String| {
            let worse = matches!(
                (&class, to),
                (SimdClass::Full, SimdClass::Partial)
                    | (SimdClass::Full, SimdClass::Scalar)
                    | (SimdClass::Partial, SimdClass::Scalar)
            );
            if worse {
                *class = to;
            }
            if !reasons.contains(&why) {
                reasons.push(why);
            }
        };

    // Walk statements with loop-nesting context.
    fn walk(
        kernel: &Kernel,
        stmts: &[Stmt],
        in_loop: Option<&LoopInfo>,
        variance: &[Variance],
        forms: &VarForms,
        downgrade: &mut impl FnMut(SimdClass, String),
        stride_penalty: &mut f64,
    ) {
        for s in stmts {
            match s {
                Stmt::Assign { var, value } => {
                    if let Some(li) = in_loop {
                        if reads_var(value, *var) {
                            downgrade(
                                SimdClass::Scalar,
                                format!(
                                    "loop-carried recurrence on `{}` inside inner loop over `{}`",
                                    kernel.var_names[var.index()],
                                    kernel.var_names[li.var.index()]
                                ),
                            );
                        }
                    }
                    check_mem_exprs(kernel, value, in_loop, forms, downgrade, stride_penalty);
                }
                Stmt::Store { mem, index, value }
                | Stmt::AtomicRmw {
                    mem, index, value, ..
                } => {
                    if matches!(s, Stmt::AtomicRmw { .. }) {
                        downgrade(SimdClass::Scalar, "atomic update serializes lanes".into());
                    }
                    check_access(
                        kernel,
                        *mem,
                        index,
                        in_loop,
                        forms,
                        downgrade,
                        stride_penalty,
                    );
                    check_mem_exprs(kernel, value, in_loop, forms, downgrade, stride_penalty);
                    check_mem_exprs(kernel, index, in_loop, forms, downgrade, stride_penalty);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let v = expr_variance(cond, variance);
                    let data_dependent = cond.has_load();
                    if data_dependent {
                        downgrade(
                            SimdClass::Partial,
                            "data-dependent branch requires masking".into(),
                        );
                    } else if v.thread && !else_body.is_empty() {
                        downgrade(
                            SimdClass::Partial,
                            "divergent if/else requires both-sides execution".into(),
                        );
                    }
                    // A plain thread-variant guard (no else) is the tail
                    // bound-check pattern: vectorizers handle it with a mask
                    // at negligible cost.
                    walk(
                        kernel,
                        then_body,
                        in_loop,
                        variance,
                        forms,
                        downgrade,
                        stride_penalty,
                    );
                    walk(
                        kernel,
                        else_body,
                        in_loop,
                        variance,
                        forms,
                        downgrade,
                        stride_penalty,
                    );
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    let bounds = expr_variance(start, variance)
                        .join(expr_variance(end, variance))
                        .join(expr_variance(step, variance));
                    if bounds.thread {
                        downgrade(
                            SimdClass::Scalar,
                            "inner loop trip count varies per thread".into(),
                        );
                    } else if in_loop.is_none() {
                        // First level of nesting: outer-loop vectorization
                        // across threads must now handle a whole loop body
                        // per lane — partial at best.
                        downgrade(
                            SimdClass::Partial,
                            "inner loop forces outer-loop vectorization".into(),
                        );
                    }
                    let li = LoopInfo { var: *var };
                    walk(
                        kernel,
                        body,
                        Some(&li),
                        variance,
                        forms,
                        downgrade,
                        stride_penalty,
                    );
                }
                Stmt::SyncThreads | Stmt::Return => {}
            }
        }
    }

    struct LoopInfo {
        var: VarId,
    }

    fn reads_var(e: &Expr, var: VarId) -> bool {
        let mut found = false;
        e.visit(&mut |n| {
            if matches!(n, Expr::Var(v) if *v == var) {
                found = true;
            }
        });
        found
    }

    /// Check memory accesses inside an expression tree.
    fn check_mem_exprs(
        kernel: &Kernel,
        e: &Expr,
        in_loop: Option<&LoopInfo>,
        forms: &VarForms,
        downgrade: &mut impl FnMut(SimdClass, String),
        stride_penalty: &mut f64,
    ) {
        e.visit(&mut |n| {
            if let Expr::Load { mem, index } = n {
                check_access(
                    kernel,
                    *mem,
                    index,
                    in_loop,
                    forms,
                    downgrade,
                    stride_penalty,
                );
            }
        });
    }

    /// Classify one memory access: unit thread stride is free, other strides
    /// gather/scatter, local arrays with loop-variant subscripts kill
    /// vectorization.
    fn check_access(
        kernel: &Kernel,
        mem: MemRef,
        index: &Expr,
        in_loop: Option<&LoopInfo>,
        forms: &VarForms,
        downgrade: &mut impl FnMut(SimdClass, String),
        stride_penalty: &mut f64,
    ) {
        let form = affine_of_expr(index, forms);
        if let MemRef::Local(i) = mem {
            if let Some(li) = in_loop {
                let loop_variant = match &form {
                    Some(f) => !f.coeff(IdxVar::Loop(li.var)).is_zero(),
                    None => true,
                };
                if loop_variant {
                    downgrade(
                        SimdClass::Scalar,
                        format!(
                            "per-thread array `{}` indexed by inner loop (no SIMD register mapping)",
                            kernel.locals[i as usize].name
                        ),
                    );
                    return;
                }
            }
        }
        match form {
            None => {
                downgrade(
                    SimdClass::Partial,
                    "non-affine access becomes gather/scatter".into(),
                );
                *stride_penalty = stride_penalty.min(0.5);
            }
            Some(f) => {
                let tx = f.coeff(IdxVar::Thread(Axis::X));
                match tx.as_const() {
                    Some(0) | Some(1) => {}
                    _ => {
                        // Strided or symbolic thread stride: gather/scatter.
                        *stride_penalty = stride_penalty.min(0.6);
                    }
                }
            }
        }
    }

    let mut dg = |to: SimdClass, why: String| downgrade(&mut class, to, &mut reasons, why);
    walk(
        kernel,
        &kernel.body,
        None,
        &variance,
        &forms,
        &mut dg,
        &mut stride_penalty,
    );

    let efficiency = match class {
        SimdClass::Full => 0.9 * stride_penalty,
        SimdClass::Partial => 0.45 * stride_penalty,
        SimdClass::Scalar => 0.0,
    };
    SimdReport {
        class,
        efficiency,
        reasons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_ir::parse_kernel;

    fn report(src: &str) -> SimdReport {
        let k = parse_kernel(src).unwrap();
        cucc_ir::validate(&k).unwrap();
        analyze_simd(&k)
    }

    #[test]
    fn copy_kernel_is_full() {
        let r = report(
            "__global__ void k(float* a, float* b, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) b[id] = a[id];
            }",
        );
        assert_eq!(r.class, SimdClass::Full);
        assert!(r.efficiency > 0.8, "{r:?}");
    }

    #[test]
    fn recurrence_in_inner_loop_is_scalar() {
        // FIR/BinomialOption shape: accumulator updated across iterations.
        let r = report(
            "__global__ void fir(float* in, float* coef, float* out, int taps, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                float acc = 0.0f;
                for (int t = 0; t < taps; t++)
                    acc += in[id + t] * coef[t];
                if (id < n) out[id] = acc;
            }",
        );
        assert_eq!(r.class, SimdClass::Scalar);
        assert!(r.reasons.iter().any(|m| m.contains("recurrence")), "{r:?}");
        assert_eq!(r.efficiency, 0.0);
    }

    #[test]
    fn local_array_loop_index_is_scalar() {
        // BinomialOption: per-thread valuation array walked by the loop.
        let r = report(
            "__global__ void k(float* out, int steps) {
                float vals[64];
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                for (int i = 0; i < steps; i++)
                    vals[i] = (float)(i);
                out[id] = vals[0];
            }",
        );
        assert_eq!(r.class, SimdClass::Scalar);
        assert!(
            r.reasons.iter().any(|m| m.contains("per-thread array")),
            "{r:?}"
        );
    }

    #[test]
    fn atomic_is_scalar() {
        let r = report(
            "__global__ void k(int* bins, int* d) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                atomicAdd(&bins[d[id] % 8], 1);
            }",
        );
        assert_eq!(r.class, SimdClass::Scalar);
    }

    #[test]
    fn inner_loop_without_recurrence_partial() {
        let r = report(
            "__global__ void k(float* out, int w) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                for (int i = 0; i < w; i++)
                    out[id * w + i] = 1.0f;
            }",
        );
        assert_eq!(r.class, SimdClass::Partial);
    }

    #[test]
    fn thread_variant_trip_count_scalar() {
        let r = report(
            "__global__ void k(float* out) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                float s = 1.0f;
                for (int i = 0; i < threadIdx.x; i++)
                    out[id * 32 + i] = s;
                out[id] = s;
            }",
        );
        assert_eq!(r.class, SimdClass::Scalar);
    }

    #[test]
    fn divergent_if_else_partial() {
        let r = report(
            "__global__ void k(float* out) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (threadIdx.x % 2 == 0)
                    out[id] = 1.0f;
                else
                    out[id] = 2.0f;
            }",
        );
        assert_eq!(r.class, SimdClass::Partial);
    }

    #[test]
    fn transpose_with_shared_memory_full() {
        // The paper's Transpose: memory movement through shared tiles,
        // barrier-phased, every phase straight-line — fully vectorizable.
        let r = report(
            "__global__ void transpose(float* in, float* out, int n) {
                __shared__ float tile[1024];
                int x = blockIdx.x * 32 + threadIdx.x;
                int y = blockIdx.y * 32 + threadIdx.y;
                tile[threadIdx.y * 32 + threadIdx.x] = in[y * n + x];
                __syncthreads();
                out[(blockIdx.y * 32 + threadIdx.x) * n + blockIdx.x * 32 + threadIdx.y]
                    = tile[threadIdx.x * 32 + threadIdx.y];
            }",
        );
        assert_eq!(r.class, SimdClass::Full);
        // Strided shared accesses cost some lane efficiency but stay SIMD.
        assert!(r.efficiency > 0.4, "{r:?}");
    }

    #[test]
    fn gather_reduces_efficiency_but_not_class() {
        let r = report(
            "__global__ void k(float* a, float* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                out[id] = a[id * 4];
            }",
        );
        assert_eq!(r.class, SimdClass::Full);
        assert!(r.efficiency < 0.9);
    }
}
