//! Fluent programmatic construction of kernels.
//!
//! ```
//! use cucc_ir::{KernelBuilder, Expr, Scalar};
//!
//! // Listing 1 of the paper: dest[id] = src[id] when id < n.
//! let mut b = KernelBuilder::new("vec_copy");
//! let src = b.buffer("src", Scalar::I8);
//! let dest = b.buffer("dest", Scalar::I8);
//! let n = b.scalar("n", Scalar::I32);
//! let id = b.let_("id", Expr::global_tid_x());
//! b.if_then(Expr::Var(id).lt(n), |b| {
//!     b.store(dest, Expr::Var(id), Expr::load(src, Expr::Var(id)));
//! });
//! let kernel = b.finish();
//! assert_eq!(kernel.name, "vec_copy");
//! cucc_ir::validate(&kernel).unwrap();
//! ```

use crate::expr::Expr;
use crate::kernel::{ArrayDecl, Kernel, MemRef, Param, ParamId, VarId};
use crate::stmt::{AtomicOp, Stmt};
use crate::types::Scalar;

/// Incremental kernel constructor.
///
/// Statements are appended to the innermost open block; [`Self::if_then`],
/// [`Self::if_else`] and [`Self::for_`] take closures that build the nested
/// bodies. Every expression passes through `Kernel::convert` on its way
/// in, so a value assigned across kinds or a mixed `?:` gets C's cast.
#[derive(Debug)]
pub struct KernelBuilder {
    /// Everything but the body, which lives on `stack` until `finish`.
    kernel: Kernel,
    stack: Vec<Vec<Stmt>>,
}

impl KernelBuilder {
    /// Start a new kernel.
    pub fn new(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            kernel: Kernel {
                name: name.into(),
                ..Kernel::default()
            },
            stack: vec![Vec::new()],
        }
    }

    /// Declare a global-memory buffer parameter; returns its memory handle.
    pub fn buffer(&mut self, name: impl Into<String>, elem: Scalar) -> MemRef {
        let id = ParamId(self.kernel.params.len() as u32);
        self.kernel.params.push(Param::Buffer {
            name: name.into(),
            elem,
        });
        MemRef::Global(id)
    }

    /// Declare a scalar parameter; returns an expression reading it.
    pub fn scalar(&mut self, name: impl Into<String>, ty: Scalar) -> Expr {
        let id = ParamId(self.kernel.params.len() as u32);
        self.kernel.params.push(Param::Scalar {
            name: name.into(),
            ty,
        });
        Expr::Param(id)
    }

    /// Declare a `__shared__` array of `len` elements.
    pub fn shared(&mut self, name: impl Into<String>, elem: Scalar, len: usize) -> MemRef {
        let id = self.kernel.shared.len() as u32;
        self.kernel.shared.push(ArrayDecl {
            name: name.into(),
            elem,
            len,
        });
        MemRef::Shared(id)
    }

    /// Declare a per-thread local array of `len` elements.
    pub fn local_array(&mut self, name: impl Into<String>, elem: Scalar, len: usize) -> MemRef {
        let id = self.kernel.locals.len() as u32;
        self.kernel.locals.push(ArrayDecl {
            name: name.into(),
            elem,
            len,
        });
        MemRef::Local(id)
    }

    /// Declare a local scalar variable of type `ty` (without assigning it).
    pub fn var(&mut self, name: impl Into<String>, ty: Scalar) -> VarId {
        self.kernel.add_var(name.into(), ty)
    }

    /// Declare a variable typed by its initializer's kind (`long` or
    /// `double`) and immediately assign it.
    pub fn let_(&mut self, name: impl Into<String>, value: Expr) -> VarId {
        let ty = self.kernel.expr_kind(&value).scalar();
        let v = self.var(name, ty);
        self.assign(v, value);
        v
    }

    fn push(&mut self, s: Stmt) {
        self.stack
            .last_mut()
            .expect("builder block stack is never empty")
            .push(s);
    }

    fn conv(&self, e: Expr) -> Expr {
        self.kernel.convert(e, None)
    }

    /// `var = value;`, converted to `var`'s declared type.
    pub fn assign(&mut self, var: VarId, value: Expr) {
        let value = self.kernel.convert(value, Some(self.kernel.var_type(var)));
        self.push(Stmt::Assign { var, value });
    }

    /// `mem[index] = value;`
    pub fn store(&mut self, mem: MemRef, index: Expr, value: Expr) {
        let (index, value) = (self.conv(index), self.conv(value));
        self.push(Stmt::Store { mem, index, value });
    }

    /// `atomicOp(&mem[index], value);`
    pub fn atomic(&mut self, op: AtomicOp, mem: MemRef, index: Expr, value: Expr) {
        let (index, value) = (self.conv(index), self.conv(value));
        self.push(Stmt::AtomicRmw {
            op,
            mem,
            index,
            value,
        });
    }

    /// `__syncthreads();`
    pub fn sync_threads(&mut self) {
        self.push(Stmt::SyncThreads);
    }

    /// `return;`
    pub fn ret(&mut self) {
        self.push(Stmt::Return);
    }

    /// `if (cond) { body(b) }`
    pub fn if_then(&mut self, cond: Expr, body: impl FnOnce(&mut KernelBuilder)) {
        self.if_else(cond, body, |_| {});
    }

    /// `if (cond) { then_b(b) } else { else_b(b) }`
    pub fn if_else(
        &mut self,
        cond: Expr,
        then_b: impl FnOnce(&mut KernelBuilder),
        else_b: impl FnOnce(&mut KernelBuilder),
    ) {
        self.stack.push(Vec::new());
        then_b(self);
        let then_body = self.stack.pop().expect("balanced block stack");
        self.stack.push(Vec::new());
        else_b(self);
        let else_body = self.stack.pop().expect("balanced block stack");
        let cond = self.conv(cond);
        self.push(Stmt::If {
            cond,
            then_body,
            else_body,
        });
    }

    /// `for (v = start; v < end; v += step) { body(b, v) }` — declares and
    /// returns the induction variable, typed by `start`'s kind. The loop
    /// counts in `i64`: a float bound is not truncated, `validate` rejects
    /// it.
    pub fn for_(
        &mut self,
        name: impl Into<String>,
        start: Expr,
        end: Expr,
        step: Expr,
        body: impl FnOnce(&mut KernelBuilder, VarId),
    ) -> VarId {
        let var = self.var(name, self.kernel.expr_kind(&start).scalar());
        self.stack.push(Vec::new());
        body(self, var);
        let body_stmts = self.stack.pop().expect("balanced block stack");
        let [start, end, step] = [start, end, step].map(|e| self.kernel.convert(e, None));
        self.push(Stmt::For {
            var,
            start,
            end,
            step,
            body: body_stmts,
        });
        var
    }

    /// Counting loop `for (v = 0; v < end; v += 1)`.
    pub fn for_range(
        &mut self,
        name: impl Into<String>,
        end: Expr,
        body: impl FnOnce(&mut KernelBuilder, VarId),
    ) -> VarId {
        self.for_(name, Expr::int(0), end, Expr::int(1), body)
    }

    /// Finish construction and return the kernel.
    ///
    /// # Panics
    /// Panics if called while a nested block is still open (programming
    /// error in builder usage — impossible through the closure API).
    pub fn finish(mut self) -> Kernel {
        assert_eq!(
            self.stack.len(),
            1,
            "KernelBuilder::finish called with unbalanced blocks"
        );
        self.kernel.body = self.stack.pop().unwrap();
        self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Axis;
    use crate::validate::validate;

    #[test]
    fn nested_blocks_land_in_right_place() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("out", Scalar::I32);
        let i = b.let_("i", Expr::ThreadIdx(Axis::X));
        b.if_then(Expr::Var(i).lt(Expr::int(4)), |b| {
            b.for_range("j", Expr::int(2), |b, j| {
                b.store(buf, Expr::Var(i).add(Expr::Var(j)), Expr::int(1));
            });
        });
        let k = b.finish();
        assert_eq!(k.body.len(), 2); // assign + if
        match &k.body[1] {
            Stmt::If { then_body, .. } => {
                assert_eq!(then_body.len(), 1);
                match &then_body[0] {
                    Stmt::For { body, .. } => assert_eq!(body.len(), 1),
                    other => panic!("expected For, got {other:?}"),
                }
            }
            other => panic!("expected If, got {other:?}"),
        }
        validate(&k).unwrap();
    }

    #[test]
    fn shared_and_local_handles() {
        let mut b = KernelBuilder::new("k");
        let sh = b.shared("tile", Scalar::F32, 256);
        let lo = b.local_array("scratch", Scalar::F64, 8);
        assert_eq!(sh, MemRef::Shared(0));
        assert_eq!(lo, MemRef::Local(0));
        let k = b.finish();
        assert_eq!(k.shared[0].size_bytes(), 1024);
        assert_eq!(k.locals[0].size_bytes(), 64);
    }

    #[test]
    fn var_ids_are_sequential() {
        let mut b = KernelBuilder::new("k");
        let a = b.var("a", Scalar::I32);
        let c = b.var("c", Scalar::F32);
        assert_eq!(a, VarId(0));
        assert_eq!(c, VarId(1));
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_finish_panics() {
        let mut b = KernelBuilder::new("k");
        b.stack.push(Vec::new()); // simulate a bug
        let _ = b.finish();
    }
}
