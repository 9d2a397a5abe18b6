//! Kernel definitions: parameters, memory declarations and the kernel body.

use crate::expr::{BinOp, Expr, Intrinsic, UnOp};
use crate::stmt::Stmt;
use crate::types::{MemSpace, Scalar, ValueKind};
use std::fmt;

/// Index of a kernel parameter (buffer or scalar), in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub u32);

impl ParamId {
    /// Index into [`Kernel::params`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Index of a kernel-local scalar variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// Index into the kernel's variable table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A kernel parameter: either a pointer into global memory or a scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    /// `elem* name` — a device global-memory buffer.
    Buffer { name: String, elem: Scalar },
    /// `ty name` — a launch-time scalar argument.
    Scalar { name: String, ty: Scalar },
}

impl Param {
    /// Parameter name as written in the signature.
    pub fn name(&self) -> &str {
        match self {
            Param::Buffer { name, .. } | Param::Scalar { name, .. } => name,
        }
    }

    /// True for buffer (pointer) parameters.
    pub fn is_buffer(&self) -> bool {
        matches!(self, Param::Buffer { .. })
    }

    /// Element/scalar type.
    pub fn scalar(&self) -> Scalar {
        match self {
            Param::Buffer { elem, .. } => *elem,
            Param::Scalar { ty, .. } => *ty,
        }
    }
}

/// A statically sized array declaration (shared or thread-local).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Source name.
    pub name: String,
    /// Element type.
    pub elem: Scalar,
    /// Number of elements (compile-time constant, as in CUDA static
    /// `__shared__` declarations).
    pub len: usize,
}

impl ArrayDecl {
    /// Total size of the array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.len * self.elem.size()
    }
}

/// A reference to an addressable memory object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRef {
    /// Global buffer parameter.
    Global(ParamId),
    /// `__shared__` array (index into [`Kernel::shared`]).
    Shared(u32),
    /// Per-thread array (index into [`Kernel::locals`]).
    Local(u32),
}

impl MemRef {
    /// Which memory space this reference addresses.
    #[inline]
    pub fn space(self) -> MemSpace {
        match self {
            MemRef::Global(_) => MemSpace::Global,
            MemRef::Shared(_) => MemSpace::Shared,
            MemRef::Local(_) => MemSpace::Local,
        }
    }
}

/// A GPU kernel: the unit CuCC migrates.
///
/// Invariants beyond what the type system expresses are established by
/// [`crate::validate::validate`] and relied on by the executors:
/// variables are assigned before use, barrier statements only appear in
/// uniform control flow, and every value reaching a variable, a subscript or
/// a `?:` arm already has the kind it needs there (the parser and
/// [`crate::KernelBuilder`] insert C's conversions; `for` bounds are ints),
/// so each expression's kind is static ([`Kernel::expr_kind`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Kernel {
    /// Kernel name (the `__global__` function name).
    pub name: String,
    /// Parameters in signature order.
    pub params: Vec<Param>,
    /// `__shared__` arrays.
    pub shared: Vec<ArrayDecl>,
    /// Per-thread local arrays.
    pub locals: Vec<ArrayDecl>,
    /// Kernel body.
    pub body: Vec<Stmt>,
    /// Names of local scalar variables, indexed by [`VarId`].
    pub var_names: Vec<String>,
    /// Declared type of each local scalar variable, indexed by [`VarId`].
    /// A variable holds `ty.widened()`: ints are carried i64-wide.
    pub var_types: Vec<Scalar>,
}

impl Kernel {
    /// Number of local scalar variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Declared type of a variable.
    pub fn var_type(&self, v: VarId) -> Scalar {
        self.var_types[v.index()]
    }

    /// Add a scalar variable of declared type `ty`.
    pub(crate) fn add_var(&mut self, name: String, ty: Scalar) -> VarId {
        let id = VarId(self.var_names.len() as u32);
        self.var_names.push(name);
        self.var_types.push(ty);
        id
    }

    /// The kind `e` evaluates to. Comparisons, logic and the integer-only
    /// operators give `Int`; arithmetic is `Float` when either operand is
    /// (C's usual arithmetic conversions, done inside the op); `min`/`max`/
    /// `abs` stay `Int` on int arguments and every other intrinsic is
    /// `Float`; a `?:` takes its then-arm's kind (the arms agree once the
    /// front end's conversions are in).
    pub fn expr_kind(&self, e: &Expr) -> ValueKind {
        match e {
            Expr::IntConst(_)
            | Expr::ThreadIdx(_)
            | Expr::BlockIdx(_)
            | Expr::BlockDim(_)
            | Expr::GridDim(_) => ValueKind::Int,
            Expr::FloatConst(_) => ValueKind::Float,
            Expr::Param(p) => self.params[p.index()].scalar().kind(),
            Expr::Var(v) => self.var_type(*v).kind(),
            Expr::Load { mem, .. } => self.elem_type(*mem).kind(),
            Expr::Unary { op: UnOp::Neg, arg } => self.expr_kind(arg),
            Expr::Unary { .. } => ValueKind::Int,
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    self.expr_kind(lhs).max(self.expr_kind(rhs))
                }
                _ => ValueKind::Int,
            },
            Expr::Select { then_value, .. } => self.expr_kind(then_value),
            Expr::Cast { ty, .. } => ty.kind(),
            Expr::Call { f, args } => match f {
                Intrinsic::Min | Intrinsic::Max | Intrinsic::Abs => args
                    .iter()
                    .map(|a| self.expr_kind(a))
                    .max()
                    .unwrap_or(ValueKind::Int),
                _ => ValueKind::Float,
            },
        }
    }

    /// C's implicit conversions made explicit, the one place they are made
    /// (the parser and [`crate::KernelBuilder`] call it on every statement's
    /// expressions): the int arm of every `?:` in `e` whose arms differ in
    /// kind is cast to `F64`, and when `to` names a target — a variable's
    /// declared type — the result is cast to `to.widened()` if its kind
    /// differs. Same-kind values are untouched.
    pub(crate) fn convert(&self, mut e: Expr, to: Option<Scalar>) -> Expr {
        self.convert_selects(&mut e);
        match to {
            Some(ty) if self.expr_kind(&e) != ty.kind() => Expr::cast(ty.widened(), e),
            _ => e,
        }
    }

    fn convert_selects(&self, e: &mut Expr) {
        match e {
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => {
                for x in [&mut **cond, &mut **then_value, &mut **else_value] {
                    self.convert_selects(x);
                }
                let (t, f) = (self.expr_kind(then_value), self.expr_kind(else_value));
                if t != f {
                    let arm = if t == ValueKind::Int {
                        &mut **then_value
                    } else {
                        &mut **else_value
                    };
                    *arm = Expr::cast(Scalar::F64, std::mem::replace(arm, Expr::IntConst(0)));
                }
            }
            Expr::Load { index: a, .. }
            | Expr::Unary { arg: a, .. }
            | Expr::Cast { arg: a, .. } => self.convert_selects(a),
            Expr::Binary { lhs, rhs, .. } => {
                self.convert_selects(lhs);
                self.convert_selects(rhs);
            }
            Expr::Call { args, .. } => args.iter_mut().for_each(|a| self.convert_selects(a)),
            _ => {}
        }
    }

    /// Element type of a memory reference.
    pub fn elem_type(&self, mem: MemRef) -> Scalar {
        match mem {
            MemRef::Global(p) => match &self.params[p.index()] {
                Param::Buffer { elem, .. } => *elem,
                Param::Scalar { .. } => {
                    panic!("MemRef::Global({p}) refers to a scalar parameter")
                }
            },
            MemRef::Shared(i) => self.shared[i as usize].elem,
            MemRef::Local(i) => self.locals[i as usize].elem,
        }
    }

    /// Find a parameter by name.
    pub fn param_by_name(&self, name: &str) -> Option<ParamId> {
        self.params
            .iter()
            .position(|p| p.name() == name)
            .map(|i| ParamId(i as u32))
    }

    /// Iterate over the buffer parameters with their ids.
    pub fn buffer_params(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_buffer())
            .map(|(i, p)| (ParamId(i as u32), p))
    }

    /// Number of dense *memory slots* a flat executor needs: one per
    /// parameter (scalar parameter slots stay unused placeholders, keeping
    /// the numbering trivial), then one per `__shared__` array, then one per
    /// local array. See [`Kernel::mem_slot`] for the numbering itself.
    pub fn num_mem_slots(&self) -> usize {
        self.params.len() + self.shared.len() + self.locals.len()
    }

    /// Dense slot index of a memory reference, stable for a given kernel:
    /// buffer parameters first (in declaration order), then shared arrays,
    /// then locals. The compiled engine resolves every [`MemRef`] to this
    /// numbering once at compile time instead of re-matching per access.
    pub fn mem_slot(&self, mem: MemRef) -> usize {
        match mem {
            MemRef::Global(p) => p.index(),
            MemRef::Shared(i) => self.params.len() + i as usize,
            MemRef::Local(i) => self.params.len() + self.shared.len() + i as usize,
        }
    }

    /// Total number of statements in the body, nested blocks included
    /// (used to pre-size flat instruction streams).
    pub fn flat_stmt_count(&self) -> usize {
        let mut n = 0;
        self.visit_stmts(&mut |_| n += 1);
        n
    }

    /// True if the kernel contains any `__syncthreads()` barrier.
    pub fn has_barrier(&self) -> bool {
        self.body.iter().any(Stmt::has_barrier)
    }

    /// Visit every statement in the kernel (pre-order, nested blocks
    /// included).
    pub fn visit_stmts<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        fn walk<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
            for s in stmts {
                f(s);
                match s {
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, f);
                        walk(else_body, f);
                    }
                    Stmt::For { body, .. } => walk(body, f),
                    _ => {}
                }
            }
        }
        walk(&self.body, f);
    }

    /// Collect the global buffers the kernel loads from. Atomics count as
    /// reads too (read-modify-write), so a kernel's read set and write set
    /// may overlap. Used by the stream scheduler's RAW/WAR hazard tracking.
    pub fn read_global_buffers(&self) -> Vec<ParamId> {
        let mut out: Vec<ParamId> = Vec::new();
        let push = |p: ParamId, out: &mut Vec<ParamId>| {
            if !out.contains(&p) {
                out.push(p);
            }
        };
        self.visit_stmts(&mut |s| {
            if let Stmt::AtomicRmw {
                mem: MemRef::Global(p),
                ..
            } = s
            {
                push(*p, &mut out);
            }
            s.visit_exprs(&mut |e| {
                e.visit(&mut |e| {
                    if let Expr::Load {
                        mem: MemRef::Global(p),
                        ..
                    } = e
                    {
                        push(*p, &mut out);
                    }
                });
            });
        });
        out.sort();
        out
    }

    /// Collect the global buffers the kernel stores to (including atomics).
    pub fn written_global_buffers(&self) -> Vec<ParamId> {
        let mut out: Vec<ParamId> = Vec::new();
        self.visit_stmts(&mut |s| {
            let mem = match s {
                Stmt::Store { mem, .. } => Some(*mem),
                Stmt::AtomicRmw { mem, .. } => Some(*mem),
                _ => None,
            };
            if let Some(MemRef::Global(p)) = mem {
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        });
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn toy_kernel() -> Kernel {
        // dest[gid] = src[gid]
        let src = ParamId(0);
        let dest = ParamId(1);
        Kernel {
            name: "copy".into(),
            params: vec![
                Param::Buffer {
                    name: "src".into(),
                    elem: Scalar::F32,
                },
                Param::Buffer {
                    name: "dest".into(),
                    elem: Scalar::F32,
                },
            ],
            shared: vec![],
            locals: vec![],
            body: vec![Stmt::Store {
                mem: MemRef::Global(dest),
                index: Expr::global_tid_x(),
                value: Expr::load(MemRef::Global(src), Expr::global_tid_x()),
            }],
            var_names: vec![],
            var_types: vec![],
        }
    }

    #[test]
    fn written_buffers_found() {
        let k = toy_kernel();
        assert_eq!(k.written_global_buffers(), vec![ParamId(1)]);
    }

    #[test]
    fn read_buffers_found() {
        let k = toy_kernel();
        assert_eq!(k.read_global_buffers(), vec![ParamId(0)]);
    }

    #[test]
    fn atomics_count_as_reads_and_writes() {
        let mut k = toy_kernel();
        k.body = vec![Stmt::AtomicRmw {
            op: crate::stmt::AtomicOp::Add,
            mem: MemRef::Global(ParamId(1)),
            index: Expr::global_tid_x(),
            value: Expr::load(MemRef::Global(ParamId(0)), Expr::global_tid_x()),
        }];
        assert_eq!(k.read_global_buffers(), vec![ParamId(0), ParamId(1)]);
        assert_eq!(k.written_global_buffers(), vec![ParamId(1)]);
    }

    #[test]
    fn param_lookup() {
        let k = toy_kernel();
        assert_eq!(k.param_by_name("src"), Some(ParamId(0)));
        assert_eq!(k.param_by_name("dest"), Some(ParamId(1)));
        assert_eq!(k.param_by_name("nope"), None);
    }

    #[test]
    fn elem_type_of_global() {
        let k = toy_kernel();
        assert_eq!(k.elem_type(MemRef::Global(ParamId(0))), Scalar::F32);
    }

    #[test]
    fn no_barrier_in_toy() {
        assert!(!toy_kernel().has_barrier());
    }

    #[test]
    fn mem_slot_numbering_is_dense_and_stable() {
        let mut k = toy_kernel();
        k.shared.push(ArrayDecl {
            name: "tile".into(),
            elem: Scalar::F32,
            len: 64,
        });
        k.locals.push(ArrayDecl {
            name: "acc".into(),
            elem: Scalar::F32,
            len: 4,
        });
        assert_eq!(k.num_mem_slots(), 4); // 2 params + 1 shared + 1 local
        assert_eq!(k.mem_slot(MemRef::Global(ParamId(0))), 0);
        assert_eq!(k.mem_slot(MemRef::Global(ParamId(1))), 1);
        assert_eq!(k.mem_slot(MemRef::Shared(0)), 2);
        assert_eq!(k.mem_slot(MemRef::Local(0)), 3);
    }

    #[test]
    fn flat_stmt_count_includes_nested() {
        let mut k = toy_kernel();
        assert_eq!(k.flat_stmt_count(), 1);
        k.body = vec![Stmt::if_then(
            Expr::int(1),
            vec![Stmt::Return, Stmt::Return],
        )];
        assert_eq!(k.flat_stmt_count(), 3);
    }

    #[test]
    fn memref_spaces() {
        assert_eq!(MemRef::Global(ParamId(0)).space(), MemSpace::Global);
        assert_eq!(MemRef::Shared(0).space(), MemSpace::Shared);
        assert_eq!(MemRef::Local(0).space(), MemSpace::Local);
    }
}
