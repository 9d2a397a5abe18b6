//! Statement nodes of the kernel IR.

use crate::expr::Expr;
use crate::kernel::{MemRef, VarId};

/// Atomic read-modify-write operations on memory.
///
/// Kernels that update global memory with atomics have *overlapping write
/// intervals* in the paper's terminology, which makes them not Allgather
/// distributable (they land in the "overlap" bar of Figure 7). They still
/// execute correctly via the replicated fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// `atomicAdd`
    Add,
    /// `atomicMin`
    Min,
    /// `atomicMax`
    Max,
}

impl AtomicOp {
    /// CUDA spelling of the atomic function.
    pub const fn c_name(self) -> &'static str {
        match self {
            AtomicOp::Add => "atomicAdd",
            AtomicOp::Min => "atomicMin",
            AtomicOp::Max => "atomicMax",
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var = value;` — also used for declarations (`int var = value;`);
    /// the validator enforces assignment-before-use.
    Assign { var: VarId, value: Expr },
    /// `mem[index] = value;`
    Store {
        mem: MemRef,
        index: Expr,
        value: Expr,
    },
    /// `atomicOp(&mem[index], value);`
    AtomicRmw {
        op: AtomicOp,
        mem: MemRef,
        index: Expr,
        value: Expr,
    },
    /// `if (cond) { … } else { … }`
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    /// `for (var = start; var < end; var += step) { … }`
    ///
    /// `step` must evaluate to a nonzero integer; a negative step flips the
    /// loop condition to `var > end` (C-style down-counting loops).
    For {
        var: VarId,
        start: Expr,
        end: Expr,
        step: Expr,
        body: Vec<Stmt>,
    },
    /// `__syncthreads();` — block-wide barrier. The validator restricts
    /// barriers to uniform control flow (top level or inside uniform loops),
    /// matching the CUDA requirement that all threads of a block reach the
    /// same barrier.
    SyncThreads,
    /// `return;` — terminates the calling thread. Disallowed in kernels with
    /// barriers (a returned thread could never reach the barrier).
    Return,
}

impl Stmt {
    /// `if (cond) { then_body }` without an else branch.
    pub fn if_then(cond: Expr, then_body: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_body,
            else_body: Vec::new(),
        }
    }

    /// Canonical counting loop `for (var = 0; var < end; var += 1)`.
    pub fn for_range(var: VarId, end: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            var,
            start: Expr::IntConst(0),
            end,
            step: Expr::IntConst(1),
            body,
        }
    }

    /// True if this statement is or contains a `__syncthreads()` barrier.
    pub fn has_barrier(&self) -> bool {
        match self {
            Stmt::SyncThreads => true,
            Stmt::If {
                then_body,
                else_body,
                ..
            } => then_body.iter().chain(else_body).any(Stmt::has_barrier),
            Stmt::For { body, .. } => body.iter().any(Stmt::has_barrier),
            _ => false,
        }
    }

    /// Visit every expression appearing directly in this statement
    /// (not recursing into nested statements).
    pub fn visit_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Stmt::Assign { value, .. } => f(value),
            Stmt::Store { index, value, .. } => {
                f(index);
                f(value);
            }
            Stmt::AtomicRmw { index, value, .. } => {
                f(index);
                f(value);
            }
            Stmt::If { cond, .. } => f(cond),
            Stmt::For {
                start, end, step, ..
            } => {
                f(start);
                f(end);
                f(step);
            }
            Stmt::SyncThreads | Stmt::Return => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Axis;

    #[test]
    fn if_then_has_empty_else() {
        let s = Stmt::if_then(Expr::int(1), vec![Stmt::Return]);
        match s {
            Stmt::If { else_body, .. } => assert!(else_body.is_empty()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn for_range_shape() {
        let s = Stmt::for_range(VarId(0), Expr::int(8), vec![]);
        match s {
            Stmt::For {
                start, end, step, ..
            } => {
                assert_eq!(start, Expr::IntConst(0));
                assert_eq!(end, Expr::IntConst(8));
                assert_eq!(step, Expr::IntConst(1));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn visit_exprs_covers_store() {
        let s = Stmt::Store {
            mem: MemRef::Shared(0),
            index: Expr::ThreadIdx(Axis::X),
            value: Expr::int(7),
        };
        let mut n = 0;
        s.visit_exprs(&mut |_| n += 1);
        assert_eq!(n, 2);
    }
}
