//! Affine forms over the GPU index space.
//!
//! A write index that can be expressed as
//!
//! ```text
//! index = c₀ + Σ cᵗₐ·threadIdx.a + Σ cᵇₐ·blockIdx.a + Σ cˡᵢ·loopᵢ
//! ```
//!
//! with coefficients that are launch-invariant polynomials ([`Poly`]) is
//! *affine* in the sense of the paper's conditions 1 and 3 (§6.2): treating
//! block index and block size as constants it is affine in the thread index,
//! and treating thread index as constant it is affine in the block index.
//!
//! [`affine_of_expr`] performs the symbolic evaluation; variables are
//! resolved through a [`VarForms`] environment built by a forward pass over
//! the kernel body.

use crate::poly::{Poly, Sym};
use cucc_ir::{Axis, BinOp, Expr, Kernel, Stmt, UnOp, VarId};
use std::collections::BTreeMap;
use std::fmt;

/// An index-space variable an affine form can depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IdxVar {
    /// `threadIdx.{x,y,z}`
    Thread(Axis),
    /// `blockIdx.{x,y,z}`
    Block(Axis),
    /// A `for`-loop induction variable.
    Loop(VarId),
}

impl fmt::Display for IdxVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdxVar::Thread(a) => write!(f, "threadIdx.{a}"),
            IdxVar::Block(a) => write!(f, "blockIdx.{a}"),
            IdxVar::Loop(v) => write!(f, "loop:{v}"),
        }
    }
}

/// An affine combination of index variables with polynomial coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AffineForm {
    /// Coefficients per index variable (zero coefficients are absent).
    pub coeffs: BTreeMap<IdxVar, Poly>,
    /// Constant (index-variable-free) part.
    pub constant: Poly,
}

impl AffineForm {
    /// The zero form.
    pub fn zero() -> AffineForm {
        AffineForm::default()
    }

    /// A pure constant form.
    pub fn constant(p: Poly) -> AffineForm {
        AffineForm {
            coeffs: BTreeMap::new(),
            constant: p,
        }
    }

    /// The form `1·v`.
    pub fn var(v: IdxVar) -> AffineForm {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v, Poly::constant(1));
        AffineForm {
            coeffs,
            constant: Poly::zero(),
        }
    }

    /// True when no index variable appears (launch-invariant value).
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// True when no *thread* or *loop* variable appears (the value is the
    /// same for every thread of a block).
    pub fn is_thread_invariant(&self) -> bool {
        self.coeffs.keys().all(|v| matches!(v, IdxVar::Block(_)))
    }

    /// True when no *block* variable appears.
    pub fn is_block_invariant(&self) -> bool {
        self.coeffs.keys().all(|v| !matches!(v, IdxVar::Block(_)))
    }

    /// Coefficient of an index variable (zero if absent).
    pub fn coeff(&self, v: IdxVar) -> Poly {
        self.coeffs.get(&v).cloned().unwrap_or_else(Poly::zero)
    }

    /// Index variables with nonzero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = IdxVar> + '_ {
        self.coeffs.keys().copied()
    }

    /// Pointwise sum.
    pub fn add(&self, rhs: &AffineForm) -> AffineForm {
        let mut out = self.clone();
        out.constant = out.constant.add(&rhs.constant);
        for (v, c) in &rhs.coeffs {
            let cur = out.coeffs.entry(*v).or_insert_with(Poly::zero);
            *cur = cur.add(c);
            if cur.is_zero() {
                out.coeffs.remove(v);
            }
        }
        out
    }

    /// Pointwise difference.
    pub fn sub(&self, rhs: &AffineForm) -> AffineForm {
        self.add(&rhs.neg())
    }

    /// Negation.
    pub fn neg(&self) -> AffineForm {
        AffineForm {
            coeffs: self.coeffs.iter().map(|(v, c)| (*v, c.neg())).collect(),
            constant: self.constant.neg(),
        }
    }

    /// Multiply by a launch-invariant polynomial.
    pub fn scale_poly(&self, k: &Poly) -> AffineForm {
        if k.is_zero() {
            return AffineForm::zero();
        }
        let mut coeffs = BTreeMap::new();
        for (v, c) in &self.coeffs {
            let p = c.mul(k);
            if !p.is_zero() {
                coeffs.insert(*v, p);
            }
        }
        AffineForm {
            coeffs,
            constant: self.constant.mul(k),
        }
    }

    /// Evaluate all polynomial coefficients under a symbol environment,
    /// producing concrete `(var, i128)` pairs and the constant.
    pub fn eval_coeffs(
        &self,
        env: &impl Fn(Sym) -> Option<i128>,
    ) -> Option<(Vec<(IdxVar, i128)>, i128)> {
        let constant = self.constant.eval(env)?;
        let mut out = Vec::with_capacity(self.coeffs.len());
        for (v, c) in &self.coeffs {
            let cv = c.eval(env)?;
            if cv != 0 {
                out.push((*v, cv));
            }
        }
        Some((out, constant))
    }
}

impl fmt::Display for AffineForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.coeffs {
            if !first {
                f.write_str(" + ")?;
            }
            first = false;
            write!(f, "({c})*{v}")?;
        }
        if !self.constant.is_zero() || first {
            if !first {
                f.write_str(" + ")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

/// Variable environment: maps kernel variables to their affine forms where a
/// unique reaching definition with an affine value exists, plus the raw
/// defining expressions of single-assignment variables (used to resolve
/// non-affine patterns like div/mod index decompositions).
#[derive(Debug, Clone, Default)]
pub struct VarForms {
    forms: Vec<Option<AffineForm>>,
    raw: Vec<Option<Expr>>,
}

impl VarForms {
    /// Build the environment for a kernel by a forward pass.
    ///
    /// Conservative rules: a variable gets a form only if it is assigned
    /// exactly once in the whole kernel (loop induction variables are bound
    /// to their own [`IdxVar::Loop`] instead); otherwise it is unknown and
    /// any index expression using it is treated as non-affine.
    pub fn of_kernel(kernel: &Kernel) -> VarForms {
        let n = kernel.num_vars();
        let mut assign_count = vec![0usize; n];
        let mut is_loop_var = vec![false; n];
        kernel.visit_stmts(&mut |s| match s {
            Stmt::Assign { var, .. } => assign_count[var.index()] += 1,
            Stmt::For { var, .. } => is_loop_var[var.index()] = true,
            _ => {}
        });

        let mut env = VarForms {
            forms: vec![None; n],
            raw: vec![None; n],
        };
        for (i, lv) in is_loop_var.iter().enumerate() {
            if *lv {
                env.forms[i] = Some(AffineForm::var(IdxVar::Loop(VarId(i as u32))));
            }
        }
        // Capture raw defining expressions of single-assignment scalars.
        kernel.visit_stmts(&mut |s| {
            if let Stmt::Assign { var, value } = s {
                let i = var.index();
                if assign_count[i] == 1 && !is_loop_var[i] {
                    env.raw[i] = Some(value.clone());
                }
            }
        });
        // Iterate until stable: a single-assignment variable's form may
        // depend on another single-assignment variable defined earlier.
        loop {
            let mut changed = false;
            kernel.visit_stmts(&mut |s| {
                if let Stmt::Assign { var, value } = s {
                    let i = var.index();
                    if assign_count[i] == 1 && !is_loop_var[i] && env.forms[i].is_none() {
                        if let Some(form) = affine_of_expr(value, &env) {
                            env.forms[i] = Some(form);
                            changed = true;
                        }
                    }
                }
            });
            if !changed {
                break;
            }
        }
        env
    }

    /// The affine form of a variable, if known.
    pub fn get(&self, v: VarId) -> Option<&AffineForm> {
        self.forms.get(v.index()).and_then(|f| f.as_ref())
    }

    /// Substitute single-assignment variables by their defining expressions
    /// (recursively, depth-bounded). Loop variables and multiply-assigned
    /// variables stay symbolic.
    pub fn resolve_expr(&self, e: &Expr, depth: u32) -> Expr {
        if depth == 0 {
            return e.clone();
        }
        match e {
            Expr::Var(v) => match self.raw.get(v.index()).and_then(|r| r.as_ref()) {
                Some(def) => self.resolve_expr(def, depth - 1),
                None => e.clone(),
            },
            Expr::Unary { op, arg } => Expr::Unary {
                op: *op,
                arg: Box::new(self.resolve_expr(arg, depth)),
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(self.resolve_expr(lhs, depth)),
                rhs: Box::new(self.resolve_expr(rhs, depth)),
            },
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => Expr::Select {
                cond: Box::new(self.resolve_expr(cond, depth)),
                then_value: Box::new(self.resolve_expr(then_value, depth)),
                else_value: Box::new(self.resolve_expr(else_value, depth)),
            },
            Expr::Cast { ty, arg } => Expr::Cast {
                ty: *ty,
                arg: Box::new(self.resolve_expr(arg, depth)),
            },
            Expr::Load { mem, index } => Expr::Load {
                mem: *mem,
                index: Box::new(self.resolve_expr(index, depth)),
            },
            Expr::Call { f, args } => Expr::Call {
                f: *f,
                args: args.iter().map(|a| self.resolve_expr(a, depth)).collect(),
            },
            leaf => leaf.clone(),
        }
    }
}

/// Match `(x / c)·c + x % c` (any operand order) after resolving variables,
/// returning `x`. The identity holds for all integers under C truncated
/// division, so it is safe to analyze the recomposed index instead.
fn recompose_divmod(lhs: &Expr, rhs: &Expr, env: &VarForms) -> Option<Expr> {
    let l = env.resolve_expr(lhs, 8);
    let r = env.resolve_expr(rhs, 8);
    for (mul_side, rem_side) in [(&l, &r), (&r, &l)] {
        let Expr::Binary {
            op: BinOp::Rem,
            lhs: rem_x,
            rhs: rem_c,
        } = rem_side
        else {
            continue;
        };
        let Expr::Binary {
            op: BinOp::Mul,
            lhs: mul_a,
            rhs: mul_b,
        } = mul_side
        else {
            continue;
        };
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
    }
    None
}

/// Symbolically evaluate an integer expression to an affine form, or `None`
/// if the expression is not (recognizably) affine in the index space.
pub fn affine_of_expr(e: &Expr, env: &VarForms) -> Option<AffineForm> {
    match e {
        Expr::IntConst(v) => Some(AffineForm::constant(Poly::constant(*v as i128))),
        Expr::FloatConst(_) => None,
        Expr::ThreadIdx(a) => Some(AffineForm::var(IdxVar::Thread(*a))),
        Expr::BlockIdx(a) => Some(AffineForm::var(IdxVar::Block(*a))),
        Expr::BlockDim(a) => Some(AffineForm::constant(Poly::sym(Sym::BlockDim(*a)))),
        Expr::GridDim(a) => Some(AffineForm::constant(Poly::sym(Sym::GridDim(*a)))),
        Expr::Param(p) => Some(AffineForm::constant(Poly::sym(Sym::Param(*p)))),
        Expr::Var(v) => env.get(*v).cloned(),
        Expr::Load { .. } => None, // data-dependent: indirect access
        Expr::Unary { op, arg } => match op {
            UnOp::Neg => Some(affine_of_expr(arg, env)?.neg()),
            UnOp::Not | UnOp::BitNot => None,
        },
        Expr::Binary { op, lhs, rhs } => {
            let l = affine_of_expr(lhs, env);
            let r = affine_of_expr(rhs, env);
            match op {
                BinOp::Add => match (l, r) {
                    (Some(l), Some(r)) => Some(l.add(&r)),
                    // Non-affine operands may still recompose: the
                    // div/mod index-decomposition pattern.
                    _ => {
                        let x = recompose_divmod(lhs, rhs, env)?;
                        affine_of_expr(&x, env)
                    }
                },
                BinOp::Sub => Some(l?.sub(&r?)),
                BinOp::Mul => {
                    let (l, r) = (l?, r?);
                    if l.is_constant() {
                        Some(r.scale_poly(&l.constant))
                    } else if r.is_constant() {
                        Some(l.scale_poly(&r.constant))
                    } else {
                        None // product of two index-variable forms
                    }
                }
                BinOp::Shl => {
                    // x << c with a constant literal c is x * 2^c.
                    let (l, r) = (l?, r?);
                    let shift = r.constant.as_const()?;
                    if !r.is_constant() || !(0..63).contains(&shift) {
                        return None;
                    }
                    Some(l.scale_poly(&Poly::constant(1i128 << shift)))
                }
                // Division, remainder and the other bitwise/logical
                // operators break affinity unless the whole expression is a
                // compile-time constant.
                BinOp::Div | BinOp::Rem => {
                    let (l, r) = (l?, r?);
                    let (lc, rc) = (l.constant.as_const()?, r.constant.as_const()?);
                    if !l.is_constant() || !r.is_constant() || rc == 0 {
                        return None;
                    }
                    let v = if *op == BinOp::Div { lc / rc } else { lc % rc };
                    Some(AffineForm::constant(Poly::constant(v)))
                }
                _ => None,
            }
        }
        Expr::Select { .. } | Expr::Cast { .. } | Expr::Call { .. } => match e {
            // Integer casts are value-preserving in the symbolic domain (we
            // ignore narrowing overflow, as the paper's analysis does).
            Expr::Cast { ty, arg } if ty.kind() == cucc_ir::ValueKind::Int => {
                affine_of_expr(arg, env)
            }
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_ir::{parse_kernel, ParamId};

    fn form_of(src: &str) -> Option<AffineForm> {
        // Parse a kernel whose single global store's index we inspect.
        let k = parse_kernel(src).unwrap();
        let env = VarForms::of_kernel(&k);
        let mut found = None;
        k.visit_stmts(&mut |s| {
            if let Stmt::Store { index, .. } = s {
                if found.is_none() {
                    found = Some(affine_of_expr(index, &env));
                }
            }
        });
        found.unwrap()
    }

    #[test]
    fn global_tid_is_affine() {
        let f = form_of(
            "__global__ void k(int* out) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                out[id] = 1;
            }",
        )
        .unwrap();
        assert_eq!(f.coeff(IdxVar::Thread(Axis::X)), Poly::constant(1));
        assert_eq!(
            f.coeff(IdxVar::Block(Axis::X)),
            Poly::sym(Sym::BlockDim(Axis::X))
        );
        assert!(f.constant.is_zero());
    }

    #[test]
    fn scaled_and_offset_affine() {
        let f = form_of(
            "__global__ void k(int* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                out[n + 2 * id + 1] = 1;
            }",
        )
        .unwrap();
        assert_eq!(f.coeff(IdxVar::Thread(Axis::X)), Poly::constant(2));
        assert_eq!(
            f.constant,
            Poly::sym(Sym::Param(ParamId(1))).add(&Poly::constant(1))
        );
    }

    #[test]
    fn modulo_breaks_affinity() {
        assert!(form_of(
            "__global__ void k(int* out) {
                out[threadIdx.x % 32] = 1;
            }"
        )
        .is_none());
    }

    #[test]
    fn indirect_load_breaks_affinity() {
        assert!(form_of(
            "__global__ void k(int* out, int* idx) {
                out[idx[threadIdx.x]] = 1;
            }"
        )
        .is_none());
    }

    #[test]
    fn loop_var_is_its_own_dimension() {
        let f = form_of(
            "__global__ void k(int* out, int n) {
                int base = threadIdx.x * n;
                for (int i = 0; i < n; i++)
                    out[base + i] = 1;
            }",
        )
        .unwrap();
        let loops: Vec<IdxVar> = f.vars().filter(|v| matches!(v, IdxVar::Loop(_))).collect();
        assert_eq!(loops.len(), 1);
        assert_eq!(f.coeff(loops[0]), Poly::constant(1));
        assert_eq!(
            f.coeff(IdxVar::Thread(Axis::X)),
            Poly::sym(Sym::Param(ParamId(1)))
        );
    }

    #[test]
    fn multiply_assigned_var_unknown() {
        // x is assigned twice: conservative analysis refuses a form.
        assert!(form_of(
            "__global__ void k(int* out) {
                int x = threadIdx.x;
                x = x + 1;
                out[x] = 1;
            }"
        )
        .is_none());
    }

    #[test]
    fn shift_is_scaling() {
        let f = form_of(
            "__global__ void k(int* out) {
                out[threadIdx.x << 2] = 1;
            }",
        )
        .unwrap();
        assert_eq!(f.coeff(IdxVar::Thread(Axis::X)), Poly::constant(4));
    }

    #[test]
    fn chained_single_assignments_resolve() {
        let f = form_of(
            "__global__ void k(int* out) {
                int a = blockIdx.x * blockDim.x;
                int b = a + threadIdx.x;
                int c = b * 2;
                out[c] = 1;
            }",
        )
        .unwrap();
        assert_eq!(f.coeff(IdxVar::Thread(Axis::X)), Poly::constant(2));
        assert_eq!(
            f.coeff(IdxVar::Block(Axis::X)),
            Poly::sym(Sym::BlockDim(Axis::X)).scale(2)
        );
    }

    #[test]
    fn thread_invariance_checks() {
        let c = AffineForm::constant(Poly::constant(5));
        assert!(c.is_thread_invariant());
        assert!(c.is_block_invariant());
        let t = AffineForm::var(IdxVar::Thread(Axis::X));
        assert!(!t.is_thread_invariant());
        assert!(t.is_block_invariant());
        let b = AffineForm::var(IdxVar::Block(Axis::Y));
        assert!(b.is_thread_invariant());
        assert!(!b.is_block_invariant());
    }

    #[test]
    fn algebra_cancellation() {
        let t = AffineForm::var(IdxVar::Thread(Axis::X));
        assert!(t.sub(&t).coeffs.is_empty());
        let s = t
            .scale_poly(&Poly::constant(3))
            .sub(&t.scale_poly(&Poly::constant(3)));
        assert_eq!(s, AffineForm::zero());
    }

    #[test]
    fn eval_coeffs_concrete() {
        let f = form_of(
            "__global__ void k(int* out, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                out[id * 2 + n] = 1;
            }",
        )
        .unwrap();
        let (coeffs, c0) = f
            .eval_coeffs(&|s| match s {
                Sym::Param(_) => Some(10),
                Sym::BlockDim(Axis::X) => Some(256),
                _ => Some(1),
            })
            .unwrap();
        assert_eq!(c0, 10);
        let m: std::collections::BTreeMap<_, _> = coeffs.into_iter().collect();
        assert_eq!(m[&IdxVar::Thread(Axis::X)], 2);
        assert_eq!(m[&IdxVar::Block(Axis::X)], 512);
    }
}
