//! Expression nodes of the kernel IR.

use crate::kernel::{MemRef, ParamId, VarId};
use crate::types::{Axis, Scalar};

/// Binary operators.
///
/// Arithmetic operators are polymorphic over the integer/float domains
/// (operands must agree); comparisons yield integer `0`/`1`; bitwise and
/// shift operators are integer-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    /// Remainder (`%`); integer-only in the front-end, C semantics.
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// Bitwise and (`&`).
    And,
    /// Bitwise or (`|`).
    Or,
    /// Bitwise xor (`^`).
    Xor,
    /// Left shift (`<<`).
    Shl,
    /// Arithmetic right shift (`>>`).
    Shr,
    /// Short-circuit logical and (`&&`) — both sides evaluated eagerly in the
    /// IR (kernels are side-effect-free in conditions by validation).
    LAnd,
    /// Logical or (`||`).
    LOr,
}

impl BinOp {
    /// Operator spelling in the mini-CUDA dialect.
    pub const fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::LAnd => "&&",
            BinOp::LOr => "||",
        }
    }

    /// True for operators returning a boolean (0/1) integer.
    pub const fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!`), integer 0/1 result.
    Not,
    /// Bitwise not (`~`), integer-only.
    BitNot,
}

impl UnOp {
    /// Operator spelling.
    pub const fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        }
    }
}

/// Math intrinsics callable from kernels.
///
/// These correspond to the CUDA device functions the benchmark kernels use
/// (`expf`, `sqrtf`, …). All evaluate in `f64` and are narrowed at stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    Exp,
    Log,
    Sqrt,
    Rsqrt,
    Sin,
    Cos,
    Tanh,
    Erf,
    Fabs,
    Floor,
    Ceil,
    Pow,
    Fmin,
    Fmax,
    Min,
    Max,
    Abs,
}

impl Intrinsic {
    /// Number of arguments the intrinsic takes.
    pub const fn arity(self) -> usize {
        match self {
            Intrinsic::Pow
            | Intrinsic::Fmin
            | Intrinsic::Fmax
            | Intrinsic::Min
            | Intrinsic::Max => 2,
            _ => 1,
        }
    }

    /// Source spelling (the `f`-suffixed CUDA names).
    pub const fn c_name(self) -> &'static str {
        match self {
            Intrinsic::Exp => "expf",
            Intrinsic::Log => "logf",
            Intrinsic::Sqrt => "sqrtf",
            Intrinsic::Rsqrt => "rsqrtf",
            Intrinsic::Sin => "sinf",
            Intrinsic::Cos => "cosf",
            Intrinsic::Tanh => "tanhf",
            Intrinsic::Erf => "erff",
            Intrinsic::Fabs => "fabsf",
            Intrinsic::Floor => "floorf",
            Intrinsic::Ceil => "ceilf",
            Intrinsic::Pow => "powf",
            Intrinsic::Fmin => "fminf",
            Intrinsic::Fmax => "fmaxf",
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::Abs => "abs",
        }
    }

    /// Look an intrinsic up by source spelling.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "expf" | "exp" => Intrinsic::Exp,
            "logf" | "log" => Intrinsic::Log,
            "sqrtf" | "sqrt" => Intrinsic::Sqrt,
            "rsqrtf" | "rsqrt" => Intrinsic::Rsqrt,
            "sinf" | "sin" => Intrinsic::Sin,
            "cosf" | "cos" => Intrinsic::Cos,
            "tanhf" | "tanh" => Intrinsic::Tanh,
            "erff" | "erf" => Intrinsic::Erf,
            "fabsf" | "fabs" => Intrinsic::Fabs,
            "floorf" | "floor" => Intrinsic::Floor,
            "ceilf" | "ceil" => Intrinsic::Ceil,
            "powf" | "pow" => Intrinsic::Pow,
            "fminf" | "fmin" => Intrinsic::Fmin,
            "fmaxf" | "fmax" => Intrinsic::Fmax,
            "min" => Intrinsic::Min,
            "max" => Intrinsic::Max,
            "abs" => Intrinsic::Abs,
            _ => return None,
        })
    }
}

/// An expression tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntConst(i64),
    /// Floating literal.
    FloatConst(f64),
    /// `threadIdx.<axis>`
    ThreadIdx(Axis),
    /// `blockIdx.<axis>`
    BlockIdx(Axis),
    /// `blockDim.<axis>`
    BlockDim(Axis),
    /// `gridDim.<axis>`
    GridDim(Axis),
    /// A scalar kernel parameter.
    Param(ParamId),
    /// A kernel-local scalar variable.
    Var(VarId),
    /// A load `mem[index]`.
    Load { mem: MemRef, index: Box<Expr> },
    /// Unary operation.
    Unary { op: UnOp, arg: Box<Expr> },
    /// Binary operation.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// C ternary `cond ? a : b`.
    Select {
        cond: Box<Expr>,
        then_value: Box<Expr>,
        else_value: Box<Expr>,
    },
    /// Explicit cast `(type)expr`, applying C conversion semantics.
    Cast { ty: Scalar, arg: Box<Expr> },
    /// Math intrinsic call.
    Call { f: Intrinsic, args: Vec<Expr> },
}

// The builder methods `add`/`sub`/`mul`/`div`/`rem` intentionally shadow the
// `std::ops` trait names: they build IR nodes rather than compute values, and
// operator overloading would hide that distinction at call sites.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Integer literal helper.
    #[inline]
    pub fn int(v: i64) -> Expr {
        Expr::IntConst(v)
    }

    /// Float literal helper.
    #[inline]
    pub fn float(v: f64) -> Expr {
        Expr::FloatConst(v)
    }

    /// `self + rhs`
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }
    /// `self - rhs`
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }
    /// `self * rhs`
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }
    /// `self / rhs`
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }
    /// `self % rhs`
    pub fn rem(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Rem, self, rhs)
    }
    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Lt, self, rhs)
    }
    /// `self <= rhs`
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Le, self, rhs)
    }
    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Gt, self, rhs)
    }
    /// `self >= rhs`
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Ge, self, rhs)
    }
    /// `self == rhs`
    pub fn eq_(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Eq, self, rhs)
    }
    /// `self != rhs`
    pub fn ne_(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Ne, self, rhs)
    }
    /// `self && rhs`
    pub fn land(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::LAnd, self, rhs)
    }

    /// Generic binary node constructor.
    #[inline]
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Load helper.
    pub fn load(mem: MemRef, index: Expr) -> Expr {
        Expr::Load {
            mem,
            index: Box::new(index),
        }
    }

    /// Cast helper.
    pub fn cast(ty: Scalar, arg: Expr) -> Expr {
        Expr::Cast {
            ty,
            arg: Box::new(arg),
        }
    }

    /// `blockIdx.x * blockDim.x + threadIdx.x` — the canonical 1-D global
    /// thread id used throughout the paper's examples.
    pub fn global_tid_x() -> Expr {
        Expr::BlockIdx(Axis::X)
            .mul(Expr::BlockDim(Axis::X))
            .add(Expr::ThreadIdx(Axis::X))
    }

    /// Visit every node of the expression tree (pre-order).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Load { index, .. } => index.visit(f),
            Expr::Unary { arg, .. } => arg.visit(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => {
                cond.visit(f);
                then_value.visit(f);
                else_value.visit(f);
            }
            Expr::Cast { arg, .. } => arg.visit(f),
            Expr::Call { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            _ => {}
        }
    }

    /// True if the expression mentions any `threadIdx` register.
    pub fn uses_thread_idx(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::ThreadIdx(_)) {
                found = true;
            }
        });
        found
    }

    /// Number of nodes in the expression tree. The bytecode lowering uses
    /// this to pre-size its instruction buffer (each node lowers to at most
    /// a few instructions).
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// True if the expression contains any memory load.
    pub fn has_load(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::Load { .. }) {
                found = true;
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_helpers_produce_expected_tree() {
        let e = Expr::int(2).add(Expr::int(3));
        match e {
            Expr::Binary {
                op: BinOp::Add,
                lhs,
                rhs,
            } => {
                assert_eq!(*lhs, Expr::IntConst(2));
                assert_eq!(*rhs, Expr::IntConst(3));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn global_tid_uses_thread_idx() {
        assert!(Expr::global_tid_x().uses_thread_idx());
        assert!(!Expr::BlockIdx(Axis::X).uses_thread_idx());
    }

    #[test]
    fn visit_counts_nodes() {
        let e = Expr::global_tid_x(); // bx*bd + tx : 5 nodes
        let mut n = 0;
        e.visit(&mut |_| n += 1);
        assert_eq!(n, 5);
    }

    #[test]
    fn node_count_matches_visit() {
        assert_eq!(Expr::global_tid_x().node_count(), 5);
        assert_eq!(Expr::int(1).node_count(), 1);
    }

    #[test]
    fn intrinsic_roundtrip_names() {
        for f in [
            Intrinsic::Exp,
            Intrinsic::Log,
            Intrinsic::Sqrt,
            Intrinsic::Pow,
            Intrinsic::Min,
            Intrinsic::Max,
            Intrinsic::Erf,
            Intrinsic::Tanh,
        ] {
            assert_eq!(Intrinsic::from_name(f.c_name()), Some(f));
        }
        assert_eq!(Intrinsic::from_name("frobnicate"), None);
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::LAnd.is_comparison());
    }
}
