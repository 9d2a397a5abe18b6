//! Pretty-printer: kernels back to the mini-CUDA source dialect.
//!
//! The output is re-parseable by [`crate::parse::parse_kernel`]; the
//! round-trip `parse(print(k)) == k` (modulo variable-name uniquification)
//! is checked by tests in the parser module.

use crate::expr::{BinOp, Expr};
use crate::kernel::{Kernel, MemRef, Param};
use crate::stmt::Stmt;
use std::fmt::Write;

/// Render a kernel as mini-CUDA source.
pub fn print_kernel(kernel: &Kernel) -> String {
    Printer::new(kernel).print()
}

struct Printer<'k> {
    kernel: &'k Kernel,
    /// Uniquified variable names (source names may repeat).
    var_names: Vec<String>,
    out: String,
    indent: usize,
}

impl<'k> Printer<'k> {
    fn new(kernel: &'k Kernel) -> Printer<'k> {
        let mut seen = std::collections::HashMap::new();
        // Parameter and array names are reserved so a variable never shadows
        // them in the printed source.
        for p in &kernel.params {
            seen.insert(p.name().to_string(), 0u32);
        }
        for a in kernel.shared.iter().chain(kernel.locals.iter()) {
            seen.insert(a.name.clone(), 0u32);
        }
        let var_names = kernel
            .var_names
            .iter()
            .map(|n| {
                let base = if n.is_empty() { "v" } else { n.as_str() };
                match seen.get_mut(base) {
                    None => {
                        seen.insert(base.to_string(), 0);
                        base.to_string()
                    }
                    Some(count) => {
                        *count += 1;
                        let mut fresh = format!("{base}_{count}");
                        while seen.contains_key(&fresh) {
                            *seen.get_mut(base).unwrap() += 1;
                            fresh = format!("{base}_{}", seen[base]);
                        }
                        seen.insert(fresh.clone(), 0);
                        fresh
                    }
                }
            })
            .collect();
        Printer {
            kernel,
            var_names,
            out: String::new(),
            indent: 0,
        }
    }

    fn print(mut self) -> String {
        let k = self.kernel;
        write!(self.out, "__global__ void {}(", k.name).unwrap();
        for (i, p) in k.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            match p {
                Param::Buffer { name, elem } => {
                    write!(self.out, "{}* {}", elem.c_name(), name).unwrap()
                }
                Param::Scalar { name, ty } => write!(self.out, "{} {}", ty.c_name(), name).unwrap(),
            }
        }
        self.out.push_str(") {\n");
        self.indent = 1;
        for a in &k.shared {
            self.line(&format!(
                "__shared__ {} {}[{}];",
                a.elem.c_name(),
                a.name,
                a.len
            ));
        }
        for a in &k.locals {
            self.line(&format!("{} {}[{}];", a.elem.c_name(), a.name, a.len));
        }
        // Hoisted scalar declarations: every local variable is declared up
        // front, with its declared type, so assignments inside nested
        // blocks stay plain assignments.
        for (ty, name) in k.var_types.iter().zip(self.var_names.clone()) {
            self.line(&format!("{ty} {name};"));
        }
        let body = &k.body;
        self.stmts(body);
        self.out.push_str("}\n");
        self.out
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { var, value } => {
                let line = format!("{} = {};", self.var_names[var.index()], self.expr(value, 0));
                self.line(&line);
            }
            Stmt::Store { mem, index, value } => {
                let line = format!(
                    "{}[{}] = {};",
                    self.mem_name(*mem),
                    self.expr(index, 0),
                    self.expr(value, 0)
                );
                self.line(&line);
            }
            Stmt::AtomicRmw {
                op,
                mem,
                index,
                value,
            } => {
                let line = format!(
                    "{}(&{}[{}], {});",
                    op.c_name(),
                    self.mem_name(*mem),
                    self.expr(index, 0),
                    self.expr(value, 0)
                );
                self.line(&line);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let line = format!("if ({}) {{", self.expr(cond, 0));
                self.line(&line);
                self.indent += 1;
                self.stmts(then_body);
                self.indent -= 1;
                if else_body.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    self.stmts(else_body);
                    self.indent -= 1;
                    self.line("}");
                }
            }
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let v = self.var_names[var.index()].clone();
                let line = format!(
                    "for ({v} = {}; {v} < {}; {v} += {}) {{",
                    self.expr(start, 0),
                    self.expr(end, 0),
                    self.expr(step, 0)
                );
                self.line(&line);
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                self.line("}");
            }
            Stmt::SyncThreads => self.line("__syncthreads();"),
            Stmt::Return => self.line("return;"),
        }
    }

    fn mem_name(&self, mem: MemRef) -> String {
        match mem {
            MemRef::Global(p) => self.kernel.params[p.index()].name().to_string(),
            MemRef::Shared(i) => self.kernel.shared[i as usize].name.clone(),
            MemRef::Local(i) => self.kernel.locals[i as usize].name.clone(),
        }
    }

    /// Render an expression; `parent_prec` is the binding power of the
    /// enclosing operator — parentheses are emitted when needed.
    fn expr(&self, e: &Expr, parent_prec: u8) -> String {
        let (text, prec) = match e {
            Expr::IntConst(v) => (v.to_string(), 100),
            Expr::FloatConst(v) => {
                // Ensure the literal re-parses as a float.
                let mut s = format!("{v}");
                if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN")
                {
                    s.push_str(".0");
                }
                (s, 100)
            }
            Expr::ThreadIdx(a) => (format!("threadIdx.{a}"), 100),
            Expr::BlockIdx(a) => (format!("blockIdx.{a}"), 100),
            Expr::BlockDim(a) => (format!("blockDim.{a}"), 100),
            Expr::GridDim(a) => (format!("gridDim.{a}"), 100),
            Expr::Param(p) => (self.kernel.params[p.index()].name().to_string(), 100),
            Expr::Var(v) => (self.var_names[v.index()].clone(), 100),
            Expr::Load { mem, index } => (
                format!("{}[{}]", self.mem_name(*mem), self.expr(index, 0)),
                100,
            ),
            Expr::Unary { op, arg } => (format!("{}{}", op.symbol(), self.expr(arg, 90)), 90),
            Expr::Binary { op, lhs, rhs } => {
                let prec = bin_prec(*op);
                (
                    format!(
                        "{} {} {}",
                        self.expr(lhs, prec),
                        op.symbol(),
                        // Right operand binds one tighter: makes `a - (b - c)`
                        // print with parens and `a - b - c` without.
                        self.expr(rhs, prec + 1)
                    ),
                    prec,
                )
            }
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => (
                format!(
                    "{} ? {} : {}",
                    self.expr(cond, 4),
                    self.expr(then_value, 0),
                    self.expr(else_value, 3)
                ),
                3,
            ),
            Expr::Cast { ty, arg } => (format!("({}){}", ty.c_name(), self.expr(arg, 95)), 90),
            Expr::Call { f, args } => {
                let rendered: Vec<String> = args.iter().map(|a| self.expr(a, 0)).collect();
                (format!("{}({})", f.c_name(), rendered.join(", ")), 100)
            }
        };
        if prec < parent_prec {
            format!("({text})")
        } else {
            text
        }
    }
}

/// Binding power of a binary operator (higher binds tighter). Mirrors the
/// parser's precedence table.
pub(crate) fn bin_prec(op: BinOp) -> u8 {
    match op {
        BinOp::LOr => 5,
        BinOp::LAnd => 6,
        BinOp::Or => 7,
        BinOp::Xor => 8,
        BinOp::And => 9,
        BinOp::Eq | BinOp::Ne => 10,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 11,
        BinOp::Shl | BinOp::Shr => 12,
        BinOp::Add | BinOp::Sub => 13,
        BinOp::Mul | BinOp::Div | BinOp::Rem => 14,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KernelBuilder;
    use crate::types::{Axis, Scalar};

    #[test]
    fn prints_listing1_shape() {
        let mut b = KernelBuilder::new("vec_copy");
        let src = b.buffer("src", Scalar::I8);
        let dest = b.buffer("dest", Scalar::I8);
        let n = b.scalar("n", Scalar::I32);
        let id = b.let_("id", Expr::global_tid_x());
        b.if_then(Expr::Var(id).lt(n), |b| {
            b.store(dest, Expr::Var(id), Expr::load(src, Expr::Var(id)));
        });
        let text = print_kernel(&b.finish());
        assert!(text.contains("__global__ void vec_copy(char* src, char* dest, int n)"));
        assert!(text.contains("id = blockIdx.x * blockDim.x + threadIdx.x;"));
        assert!(text.contains("if (id < n) {"));
        assert!(text.contains("dest[id] = src[id];"));
    }

    #[test]
    fn parenthesizes_when_needed() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("out", Scalar::I32);
        // (a + b) * c requires parens; a + b * c does not.
        b.store(
            buf,
            Expr::int(0),
            Expr::int(1).add(Expr::int(2)).mul(Expr::int(3)),
        );
        b.store(
            buf,
            Expr::int(1),
            Expr::int(1).add(Expr::int(2).mul(Expr::int(3))),
        );
        let text = print_kernel(&b.finish());
        assert!(text.contains("(1 + 2) * 3"));
        assert!(text.contains("1 + 2 * 3"));
    }

    #[test]
    fn duplicate_var_names_uniquified() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("out", Scalar::I32);
        let a1 = b.let_("i", Expr::int(1));
        let a2 = b.let_("i", Expr::int(2));
        b.store(buf, Expr::Var(a1), Expr::Var(a2));
        let text = print_kernel(&b.finish());
        assert!(text.contains("i = 1;"));
        assert!(text.contains("i_1 = 2;"));
    }

    #[test]
    fn float_literals_reparse_as_floats() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("out", Scalar::F32);
        b.store(buf, Expr::int(0), Expr::float(2.0));
        let text = print_kernel(&b.finish());
        assert!(text.contains("2.0") || text.contains("2."));
    }

    #[test]
    fn subtraction_is_left_associative() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("out", Scalar::I32);
        // a - (b - c)
        b.store(
            buf,
            Expr::int(0),
            Expr::int(5).sub(Expr::int(3).sub(Expr::int(1))),
        );
        let text = print_kernel(&b.finish());
        assert!(text.contains("5 - (3 - 1)"));
    }

    #[test]
    fn atomic_and_sync_print() {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer("hist", Scalar::I32);
        let _sh = b.shared("tile", Scalar::I32, 8);
        b.sync_threads();
        b.atomic(
            crate::stmt::AtomicOp::Add,
            buf,
            Expr::ThreadIdx(Axis::X),
            Expr::int(1),
        );
        let text = print_kernel(&b.finish());
        assert!(text.contains("__shared__ int tile[8];"));
        assert!(text.contains("__syncthreads();"));
        assert!(text.contains("atomicAdd(&hist[threadIdx.x], 1);"));
    }
}
