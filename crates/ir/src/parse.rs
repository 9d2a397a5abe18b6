//! Mini-CUDA front-end.
//!
//! Parses the dialect of CUDA C the paper's benchmark kernels are written in
//! (Listing 1 and the Hetero-Mark-style kernels) into the [`Kernel`] IR. The
//! dialect covers:
//!
//! * `__global__ void name(type* buf, type scalar, …) { … }` signatures;
//! * scalar declarations with optional initializers, assignments and the
//!   compound assignments `+= -= *= /=`;
//! * `__shared__` arrays and per-thread local arrays with constant sizes;
//! * `if`/`else`, canonical `for` loops (`<`/`<=`/`>`/`>=` conditions,
//!   `++ -- += -=` increments), `return;`, `__syncthreads();`;
//! * `threadIdx/blockIdx/blockDim/gridDim . x|y|z` builtins;
//! * the math intrinsics of [`crate::expr::Intrinsic`] and
//!   `atomicAdd/atomicMin/atomicMax`;
//! * C operator precedence, `?:`, casts `(float)x`, hex and float literals.

use crate::expr::{BinOp, Expr, Intrinsic, UnOp};
use crate::kernel::{ArrayDecl, Kernel, MemRef, Param, ParamId, VarId};
use crate::stmt::{AtomicOp, Stmt};
use crate::types::{Axis, Scalar, ValueKind};
use std::collections::HashMap;
use std::fmt;

/// Parse failure, with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Line the error was detected on.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse one `__global__` kernel from source text.
pub fn parse_kernel(src: &str) -> Result<Kernel, ParseError> {
    parse_kernel_with_map(src).map(|(k, _)| k)
}

/// Source-location breadcrumbs for diagnostics: 1-based line numbers of the
/// memory-writing statements and barriers, recorded during parsing.
///
/// The IR itself carries no locations (kernels built programmatically have
/// none, and `Kernel`/`Stmt` equality must stay structural), so the map is a
/// side table keyed by *pre-order ordinal*: `global_write_lines[k]` is the
/// line of the k-th `Stmt::Store`/`Stmt::AtomicRmw` targeting **global**
/// memory in pre-order (= source order), which is exactly the order the
/// analyses walk write sites in. `barrier_lines` does the same for
/// `__syncthreads()`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceMap {
    /// Line of each global-memory `Store`/`AtomicRmw`, in source order.
    pub global_write_lines: Vec<u32>,
    /// Line of each `__syncthreads()`, in source order.
    pub barrier_lines: Vec<u32>,
    /// Line of each `Store`/`AtomicRmw` targeting a **shared or local**
    /// array, in source order (used by the lint pass's dead-store finding).
    pub shared_write_lines: Vec<u32>,
    /// Line of each `if` statement, in source order (used by the lint pass
    /// to attribute constant-condition findings; `?:` selects are not ifs).
    pub if_lines: Vec<u32>,
}

/// Parse one kernel and also return the [`SourceMap`] breadcrumbs.
pub fn parse_kernel_with_map(src: &str) -> Result<(Kernel, SourceMap), ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        k: Kernel::default(),
        scopes: vec![HashMap::new()],
        map: SourceMap::default(),
    };
    let kernel = p.kernel()?;
    Ok((kernel, p.map))
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Punct(&'static str),
}

#[derive(Debug, Clone, PartialEq)]
struct Token {
    tok: Tok,
    line: u32,
}

const PUNCTS: &[&str] = &[
    "<<=", ">>=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "++", "--", "->", "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":", "+", "-", "*", "/",
    "%", "<", ">", "=", "!", "&", "|", "^", "~",
];

fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut out = Vec::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            if bytes[i + 1] == b'*' {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
                continue;
            }
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            out.push(Token {
                tok: Tok::Ident(src[start..i].to_string()),
                line,
            });
            continue;
        }
        if c.is_ascii_digit() || (c == '.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit())
        {
            let start = i;
            // Hex literal.
            if c == '0' && i + 1 < bytes.len() && (bytes[i + 1] == b'x' || bytes[i + 1] == b'X') {
                i += 2;
                while i < bytes.len() && (bytes[i] as char).is_ascii_hexdigit() {
                    i += 1;
                }
                let v = i64::from_str_radix(&src[start + 2..i], 16).map_err(|e| ParseError {
                    message: format!("bad hex literal: {e}"),
                    line,
                })?;
                out.push(Token {
                    tok: Tok::Int(v),
                    line,
                });
                continue;
            }
            let mut is_float = false;
            while i < bytes.len() {
                let d = bytes[i] as char;
                if d.is_ascii_digit() {
                    i += 1;
                } else if d == '.' && !is_float {
                    is_float = true;
                    i += 1;
                } else if (d == 'e' || d == 'E')
                    && i + 1 < bytes.len()
                    && (bytes[i + 1].is_ascii_digit()
                        || bytes[i + 1] == b'-'
                        || bytes[i + 1] == b'+')
                {
                    is_float = true;
                    i += 2;
                } else {
                    break;
                }
            }
            let text = &src[start..i];
            // Optional float suffix.
            if i < bytes.len() && (bytes[i] == b'f' || bytes[i] == b'F') {
                is_float = true;
                i += 1;
            }
            let tok = if is_float {
                Tok::Float(text.parse::<f64>().map_err(|e| ParseError {
                    message: format!("bad float literal `{text}`: {e}"),
                    line,
                })?)
            } else {
                Tok::Int(text.parse::<i64>().map_err(|e| ParseError {
                    message: format!("bad int literal `{text}`: {e}"),
                    line,
                })?)
            };
            out.push(Token { tok, line });
            continue;
        }
        let rest = &src[i..];
        let Some(p) = PUNCTS.iter().find(|p| rest.starts_with(**p)) else {
            return Err(ParseError {
                message: format!("unexpected character `{c}`"),
                line,
            });
        };
        out.push(Token {
            tok: Tok::Punct(p),
            line,
        });
        i += p.len();
    }
    Ok(out)
}

// --------------------------------------------------------------- parser --

#[derive(Debug, Clone, Copy)]
enum Binding {
    Var(VarId),
    ScalarParam(ParamId),
    Mem(MemRef),
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// The kernel so far: signature, arrays and typed variables (the body
    /// is assembled by the recursive descent and set at the end).
    k: Kernel,
    scopes: Vec<HashMap<String, Binding>>,
    map: SourceMap,
}

impl Parser {
    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            line: self.line(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.peek() == Some(&Tok::Punct_of(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.describe()))
        }
    }

    fn describe(&self) -> String {
        match self.peek() {
            Some(Tok::Ident(s)) => format!("`{s}`"),
            Some(Tok::Int(v)) => format!("`{v}`"),
            Some(Tok::Float(v)) => format!("`{v}`"),
            Some(Tok::Punct(p)) => format!("`{p}`"),
            None => "end of input".to_string(),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {}", self.describe()))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected identifier, found {}", self.describe()))
            }
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(v),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected integer, found {}", self.describe()))
            }
        }
    }

    /// Try to read a scalar type name at the cursor without consuming on
    /// failure.
    fn peek_type(&self) -> Option<(Scalar, usize)> {
        let s = match self.peek()? {
            Tok::Ident(s) => s.as_str(),
            _ => return None,
        };
        let simple = |t| Some((t, 1));
        match s {
            "char" => simple(Scalar::I8),
            "uchar" => simple(Scalar::U8),
            "int" => simple(Scalar::I32),
            "uint" => simple(Scalar::U32),
            "long" => simple(Scalar::I64),
            "float" => simple(Scalar::F32),
            "double" => simple(Scalar::F64),
            "unsigned" => match self.peek2() {
                Some(Tok::Ident(s2)) if s2 == "char" => Some((Scalar::U8, 2)),
                Some(Tok::Ident(s2)) if s2 == "int" => Some((Scalar::U32, 2)),
                _ => Some((Scalar::U32, 1)),
            },
            _ => None,
        }
    }

    fn eat_type(&mut self) -> Option<Scalar> {
        let (t, n) = self.peek_type()?;
        self.pos += n;
        Some(t)
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Some(*b);
            }
        }
        None
    }

    fn bind(&mut self, name: String, b: Binding) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name, b);
    }

    fn new_var(&mut self, name: String, ty: Scalar) -> VarId {
        let id = self.k.add_var(name.clone(), ty);
        self.bind(name, Binding::Var(id));
        id
    }

    /// `var = value`, converted to `var`'s declared type.
    fn assign(&self, var: VarId, value: Expr) -> Stmt {
        let value = self.k.convert(value, Some(self.k.var_type(var)));
        Stmt::Assign { var, value }
    }

    /// A statement expression with C's implicit conversions made explicit.
    fn conv(&self, e: Expr) -> Expr {
        self.k.convert(e, None)
    }

    /// Parse an expression and [`Self::conv`] it.
    fn expr_conv(&mut self) -> Result<Expr, ParseError> {
        let e = self.expr()?;
        Ok(self.conv(e))
    }

    // --------------------------------------------------- kernel structure --

    fn kernel(&mut self) -> Result<Kernel, ParseError> {
        self.expect_kw("__global__")?;
        self.expect_kw("void")?;
        self.k.name = self.expect_ident()?;
        self.expect_punct("(")?;
        if !self.eat_punct(")") {
            loop {
                let Some(ty) = self.eat_type() else {
                    return self.err(format!(
                        "expected parameter type, found {}",
                        self.describe()
                    ));
                };
                let is_ptr = self.eat_punct("*");
                let pname = self.expect_ident()?;
                let id = ParamId(self.k.params.len() as u32);
                if is_ptr {
                    self.k.params.push(Param::Buffer {
                        name: pname.clone(),
                        elem: ty,
                    });
                    self.bind(pname, Binding::Mem(MemRef::Global(id)));
                } else {
                    self.k.params.push(Param::Scalar {
                        name: pname.clone(),
                        ty,
                    });
                    self.bind(pname, Binding::ScalarParam(id));
                }
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        self.expect_punct("{")?;
        let body = self.block_body()?;
        if self.pos != self.tokens.len() {
            return self.err("trailing tokens after kernel body");
        }
        self.k.body = body;
        Ok(std::mem::take(&mut self.k))
    }

    /// Parse statements until the matching `}` (consumed).
    fn block_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        loop {
            if self.eat_punct("}") {
                return Ok(stmts);
            }
            if self.peek().is_none() {
                return self.err("unexpected end of input inside block");
            }
            self.stmt_into(&mut stmts)?;
        }
    }

    /// Parse one statement-or-declaration. Declarations without initializers
    /// produce no IR statement, which is why this appends rather than
    /// returns.
    fn stmt_into(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        // Line of the statement's first token, recorded into the side-table
        // [`SourceMap`] for global writes and barriers.
        let stmt_line = self.line();
        // __shared__ declarations.
        if self.eat_kw("__shared__") {
            let Some(ty) = self.eat_type() else {
                return self.err("expected type after __shared__");
            };
            let name = self.expect_ident()?;
            self.expect_punct("[")?;
            let len = self.expect_int()?;
            self.expect_punct("]")?;
            self.expect_punct(";")?;
            if len < 0 {
                return self.err("negative array length");
            }
            let id = self.k.shared.len() as u32;
            self.k.shared.push(ArrayDecl {
                name: name.clone(),
                elem: ty,
                len: len as usize,
            });
            self.bind(name, Binding::Mem(MemRef::Shared(id)));
            return Ok(());
        }
        // Typed declarations: scalar vars or local arrays.
        if self.peek_type().is_some() {
            let ty = self.eat_type().unwrap();
            let name = self.expect_ident()?;
            if self.eat_punct("[") {
                let len = self.expect_int()?;
                self.expect_punct("]")?;
                self.expect_punct(";")?;
                if len < 0 {
                    return self.err("negative array length");
                }
                let id = self.k.locals.len() as u32;
                self.k.locals.push(ArrayDecl {
                    name: name.clone(),
                    elem: ty,
                    len: len as usize,
                });
                self.bind(name, Binding::Mem(MemRef::Local(id)));
                return Ok(());
            }
            let var = self.new_var(name, ty);
            if self.eat_punct("=") {
                let value = self.expr()?;
                // A float declaration also rounds its initializer to the
                // declared width, whatever its kind.
                out.push(match ty.kind() {
                    ValueKind::Float => Stmt::Assign {
                        var,
                        value: Expr::cast(ty, self.conv(value)),
                    },
                    ValueKind::Int => self.assign(var, value),
                });
            }
            self.expect_punct(";")?;
            return Ok(());
        }
        if self.eat_kw("__syncthreads") {
            self.expect_punct("(")?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            self.map.barrier_lines.push(stmt_line);
            out.push(Stmt::SyncThreads);
            return Ok(());
        }
        if self.eat_kw("return") {
            self.expect_punct(";")?;
            out.push(Stmt::Return);
            return Ok(());
        }
        if self.eat_kw("if") {
            self.map.if_lines.push(stmt_line);
            return self.if_stmt(out);
        }
        if self.eat_kw("for") {
            return self.for_stmt(out);
        }
        // Atomic statement.
        if let Some(Tok::Ident(name)) = self.peek() {
            let op = match name.as_str() {
                "atomicAdd" => Some(AtomicOp::Add),
                "atomicMin" => Some(AtomicOp::Min),
                "atomicMax" => Some(AtomicOp::Max),
                _ => None,
            };
            if let Some(op) = op {
                self.pos += 1;
                self.expect_punct("(")?;
                self.expect_punct("&")?;
                let target = self.expect_ident()?;
                let Some(Binding::Mem(mem)) = self.lookup(&target) else {
                    return self.err(format!("`{target}` is not an array"));
                };
                self.expect_punct("[")?;
                let index = self.expr_conv()?;
                self.expect_punct("]")?;
                self.expect_punct(",")?;
                let value = self.expr_conv()?;
                self.expect_punct(")")?;
                self.expect_punct(";")?;
                if matches!(mem, MemRef::Global(_)) {
                    self.map.global_write_lines.push(stmt_line);
                } else {
                    self.map.shared_write_lines.push(stmt_line);
                }
                out.push(Stmt::AtomicRmw {
                    op,
                    mem,
                    index,
                    value,
                });
                return Ok(());
            }
        }
        // Assignment statements.
        let name = self.expect_ident()?;
        let Some(binding) = self.lookup(&name) else {
            return self.err(format!("unknown identifier `{name}`"));
        };
        match binding {
            Binding::Mem(mem) => {
                self.expect_punct("[")?;
                let index = self.expr_conv()?;
                self.expect_punct("]")?;
                let value = self.compound_rhs(Expr::load(mem, index.clone()))?;
                let value = self.conv(value);
                self.expect_punct(";")?;
                if matches!(mem, MemRef::Global(_)) {
                    self.map.global_write_lines.push(stmt_line);
                } else {
                    self.map.shared_write_lines.push(stmt_line);
                }
                out.push(Stmt::Store { mem, index, value });
                Ok(())
            }
            Binding::Var(var) => {
                let value = if self.eat_punct("++") {
                    Expr::Var(var).add(Expr::int(1))
                } else if self.eat_punct("--") {
                    Expr::Var(var).sub(Expr::int(1))
                } else {
                    self.compound_rhs(Expr::Var(var))?
                };
                self.expect_punct(";")?;
                out.push(self.assign(var, value));
                Ok(())
            }
            Binding::ScalarParam(_) => self.err(format!("cannot assign to parameter `{name}`")),
        }
    }

    /// Parse `= e`, `+= e`, `-= e`, `*= e`, `/= e`, `%= e` and build the
    /// right-hand side, given the current-value expression for compounds.
    fn compound_rhs(&mut self, current: Expr) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Some(Tok::Punct("=")) => None,
            Some(Tok::Punct("+=")) => Some(BinOp::Add),
            Some(Tok::Punct("-=")) => Some(BinOp::Sub),
            Some(Tok::Punct("*=")) => Some(BinOp::Mul),
            Some(Tok::Punct("/=")) => Some(BinOp::Div),
            Some(Tok::Punct("%=")) => Some(BinOp::Rem),
            _ => return self.err(format!("expected assignment, found {}", self.describe())),
        };
        self.pos += 1;
        let rhs = self.expr()?;
        Ok(match op {
            None => rhs,
            Some(op) => Expr::bin(op, current, rhs),
        })
    }

    fn if_stmt(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        self.expect_punct("(")?;
        let cond = self.expr_conv()?;
        self.expect_punct(")")?;
        let then_body = self.stmt_or_block()?;
        let else_body = if self.eat_kw("else") {
            if self.eat_kw("if") {
                self.map.if_lines.push(self.line());
                let mut nested = Vec::new();
                self.if_stmt(&mut nested)?;
                nested
            } else {
                self.stmt_or_block()?
            }
        } else {
            Vec::new()
        };
        out.push(Stmt::If {
            cond,
            then_body,
            else_body,
        });
        Ok(())
    }

    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.scopes.push(HashMap::new());
        let result = if self.eat_punct("{") {
            self.block_body()
        } else {
            let mut one = Vec::new();
            self.stmt_into(&mut one).map(|()| one)
        };
        self.scopes.pop();
        result
    }

    fn for_stmt(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        self.expect_punct("(")?;
        self.scopes.push(HashMap::new());
        let result = self.for_stmt_inner(out);
        self.scopes.pop();
        result
    }

    fn for_stmt_inner(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        // Init: `type name = start` or `name = start`.
        let declared = self.eat_type();
        let name = self.expect_ident()?;
        let var = if let Some(ty) = declared {
            self.new_var(name, ty)
        } else {
            match self.lookup(&name) {
                Some(Binding::Var(v)) => v,
                _ => return self.err(format!("`{name}` is not a loop variable")),
            }
        };
        self.expect_punct("=")?;
        let start = self.expr()?;
        self.expect_punct(";")?;

        // Condition: `name < end`, `<=`, `>`, `>=`.
        let cname = self.expect_ident()?;
        if cname != self.k.var_names[var.index()] {
            return self.err(format!(
                "for condition must test loop variable `{}`",
                self.k.var_names[var.index()]
            ));
        }
        let rel = match self.next() {
            Some(Tok::Punct(p @ ("<" | "<=" | ">" | ">="))) => p,
            _ => {
                return self.err("for condition must be <, <=, > or >=");
            }
        };
        let bound = self.expr()?;
        self.expect_punct(";")?;

        // Increment: `name++`, `name--`, `name += e`, `name -= e`.
        let iname = self.expect_ident()?;
        if iname != self.k.var_names[var.index()] {
            return self.err("for increment must update the loop variable");
        }
        let step = if self.eat_punct("++") {
            Expr::int(1)
        } else if self.eat_punct("--") {
            Expr::int(-1)
        } else if self.eat_punct("+=") {
            self.expr()?
        } else if self.eat_punct("-=") {
            let e = self.expr()?;
            Expr::int(0).sub(e)
        } else {
            return self.err("for increment must be ++, --, += or -=");
        };
        self.expect_punct(")")?;

        // Normalize <=/>= to the exclusive-bound IR form.
        let end = match rel {
            "<" | ">" => bound,
            "<=" => bound.add(Expr::int(1)),
            ">=" => bound.sub(Expr::int(1)),
            _ => unreachable!(),
        };
        let body = self.stmt_or_block()?;
        // The loop counts in i64 and the variable gets each count converted
        // to its declared type; a float bound is left for `validate` to
        // reject, not truncated.
        let [start, end, step] = [start, end, step].map(|e| self.k.convert(e, None));
        out.push(Stmt::For {
            var,
            start,
            end,
            step,
            body,
        });
        Ok(())
    }

    // --------------------------------------------------------- expressions --

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary(0)?;
        if self.eat_punct("?") {
            let then_value = self.expr()?;
            self.expect_punct(":")?;
            let else_value = self.ternary()?;
            Ok(Expr::Select {
                cond: Box::new(cond),
                then_value: Box::new(then_value),
                else_value: Box::new(else_value),
            })
        } else {
            Ok(cond)
        }
    }

    fn peek_binop(&self) -> Option<BinOp> {
        let p = match self.peek()? {
            Tok::Punct(p) => *p,
            _ => return None,
        };
        Some(match p {
            "||" => BinOp::LOr,
            "&&" => BinOp::LAnd,
            "|" => BinOp::Or,
            "^" => BinOp::Xor,
            "&" => BinOp::And,
            "==" => BinOp::Eq,
            "!=" => BinOp::Ne,
            "<" => BinOp::Lt,
            "<=" => BinOp::Le,
            ">" => BinOp::Gt,
            ">=" => BinOp::Ge,
            "<<" => BinOp::Shl,
            ">>" => BinOp::Shr,
            "+" => BinOp::Add,
            "-" => BinOp::Sub,
            "*" => BinOp::Mul,
            "/" => BinOp::Div,
            "%" => BinOp::Rem,
            _ => return None,
        })
    }

    /// Precedence-climbing binary expression parser.
    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some(op) = self.peek_binop() {
            let prec = crate::printer::bin_prec(op);
            if prec < min_prec {
                break;
            }
            self.pos += 1;
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("-") {
            let arg = self.unary()?;
            // Fold negation of literals so `-1` is a constant.
            return Ok(match arg {
                Expr::IntConst(v) => Expr::IntConst(-v),
                Expr::FloatConst(v) => Expr::FloatConst(-v),
                other => Expr::Unary {
                    op: UnOp::Neg,
                    arg: Box::new(other),
                },
            });
        }
        if self.eat_punct("!") {
            let arg = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                arg: Box::new(arg),
            });
        }
        if self.eat_punct("~") {
            let arg = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::BitNot,
                arg: Box::new(arg),
            });
        }
        if self.eat_punct("+") {
            return self.unary();
        }
        // Cast: `(` type `)` unary.
        if self.peek() == Some(&Tok::Punct("(")) {
            let save = self.pos;
            self.pos += 1;
            if let Some((ty, n)) = self.peek_type() {
                let after = self.pos + n;
                if self.tokens.get(after).map(|t| &t.tok) == Some(&Tok::Punct(")")) {
                    self.pos = after + 1;
                    let arg = self.unary()?;
                    return Ok(Expr::cast(ty, arg));
                }
            }
            self.pos = save;
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("(") {
            let e = self.expr()?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        match self.next() {
            Some(Tok::Int(v)) => Ok(Expr::IntConst(v)),
            Some(Tok::Float(v)) => Ok(Expr::FloatConst(v)),
            Some(Tok::Ident(name)) => self.ident_expr(name),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected expression, found {}", self.describe()))
            }
        }
    }

    fn ident_expr(&mut self, name: String) -> Result<Expr, ParseError> {
        // Builtin index registers.
        let builtin = matches!(
            name.as_str(),
            "threadIdx" | "blockIdx" | "blockDim" | "gridDim"
        );
        if builtin {
            self.expect_punct(".")?;
            let axis_name = self.expect_ident()?;
            let axis = match axis_name.as_str() {
                "x" => Axis::X,
                "y" => Axis::Y,
                "z" => Axis::Z,
                other => return self.err(format!("unknown axis `.{other}`")),
            };
            return Ok(match name.as_str() {
                "threadIdx" => Expr::ThreadIdx(axis),
                "blockIdx" => Expr::BlockIdx(axis),
                "blockDim" => Expr::BlockDim(axis),
                _ => Expr::GridDim(axis),
            });
        }
        // Intrinsic call.
        if self.peek() == Some(&Tok::Punct("(")) {
            let Some(f) = Intrinsic::from_name(&name) else {
                return self.err(format!("unknown function `{name}`"));
            };
            self.pos += 1;
            let mut args = Vec::new();
            if !self.eat_punct(")") {
                loop {
                    args.push(self.expr()?);
                    if self.eat_punct(")") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            if args.len() != f.arity() {
                return self.err(format!(
                    "`{}` expects {} argument(s), got {}",
                    f.c_name(),
                    f.arity(),
                    args.len()
                ));
            }
            return Ok(Expr::Call { f, args });
        }
        let Some(binding) = self.lookup(&name) else {
            return self.err(format!("unknown identifier `{name}`"));
        };
        match binding {
            Binding::Var(v) => Ok(Expr::Var(v)),
            Binding::ScalarParam(p) => Ok(Expr::Param(p)),
            Binding::Mem(mem) => {
                self.expect_punct("[")?;
                let index = self.expr()?;
                self.expect_punct("]")?;
                Ok(Expr::load(mem, index))
            }
        }
    }
}

// Helper so `eat_punct` can compare against a non-'static &str.
impl Tok {
    #[allow(non_snake_case)]
    fn Punct_of(p: &str) -> Tok {
        // PUNCTS entries are the only valid punct strings.
        let stat = PUNCTS
            .iter()
            .find(|s| **s == p)
            .expect("eat_punct called with unknown punctuation");
        Tok::Punct(stat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_kernel;
    use crate::validate::validate;

    const LISTING1: &str = r#"
        __global__ void vec_copy(char* src, char* dest, int n) {
            int id = blockDim.x * blockIdx.x + threadIdx.x;
            if (id < n)
                dest[id] = src[id];
        }
    "#;

    #[test]
    fn parses_listing1() {
        let k = parse_kernel(LISTING1).unwrap();
        assert_eq!(k.name, "vec_copy");
        assert_eq!(k.params.len(), 3);
        assert!(k.params[0].is_buffer());
        assert!(k.params[1].is_buffer());
        assert!(!k.params[2].is_buffer());
        assert_eq!(k.body.len(), 2);
        validate(&k).unwrap();
    }

    #[test]
    fn parse_print_roundtrip_listing1() {
        let k = parse_kernel(LISTING1).unwrap();
        let printed = print_kernel(&k);
        let k2 = parse_kernel(&printed).unwrap();
        assert_eq!(k.body, k2.body);
        assert_eq!(k.params, k2.params);
    }

    #[test]
    fn parses_shared_and_barrier() {
        let src = r#"
            __global__ void transpose(float* in, float* out, int n) {
                __shared__ float tile[1024];
                int x = blockIdx.x * 32 + threadIdx.x;
                int y = blockIdx.y * 32 + threadIdx.y;
                tile[threadIdx.y * 32 + threadIdx.x] = in[y * n + x];
                __syncthreads();
                out[y * n + x] = tile[threadIdx.y * 32 + threadIdx.x];
            }
        "#;
        let k = parse_kernel(src).unwrap();
        assert_eq!(k.shared.len(), 1);
        assert_eq!(k.shared[0].len, 1024);
        assert!(k.has_barrier());
        validate(&k).unwrap();
    }

    #[test]
    fn parses_for_variants() {
        let src = r#"
            __global__ void k(float* out, int n) {
                float acc = 0.0f;
                for (int i = 0; i < n; i++) acc += 1.5f;
                for (int j = n; j > 0; j--) acc -= 0.5f;
                for (int m = 0; m <= n; m += 2) acc *= 2.0f;
                out[threadIdx.x] = acc;
            }
        "#;
        let k = parse_kernel(src).unwrap();
        validate(&k).unwrap();
        let fors: Vec<&Stmt> = k
            .body
            .iter()
            .filter(|s| matches!(s, Stmt::For { .. }))
            .collect();
        assert_eq!(fors.len(), 3);
        if let Stmt::For { step, .. } = fors[1] {
            assert_eq!(*step, Expr::IntConst(-1));
        }
        if let Stmt::For { end, .. } = fors[2] {
            // n <= becomes n + 1 exclusive
            assert!(matches!(end, Expr::Binary { op: BinOp::Add, .. }));
        }
    }

    #[test]
    fn parses_intrinsics_and_casts() {
        let src = r#"
            __global__ void k(float* out, float s) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                float v = expf(s) + sqrtf(2.0f) * powf(s, 3.0f);
                out[id] = (float)(id) + v + fmaxf(s, 0.0f);
            }
        "#;
        let k = parse_kernel(src).unwrap();
        validate(&k).unwrap();
        let printed = print_kernel(&k);
        assert!(printed.contains("expf("));
        assert!(printed.contains("powf("));
    }

    #[test]
    fn parses_atomics() {
        let src = r#"
            __global__ void hist(uint* bins, uchar* data, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) {
                    atomicAdd(&bins[data[id]], 1);
                }
            }
        "#;
        let k = parse_kernel(src).unwrap();
        validate(&k).unwrap();
        let mut found = false;
        k.visit_stmts(&mut |s| {
            if matches!(
                s,
                Stmt::AtomicRmw {
                    op: AtomicOp::Add,
                    ..
                }
            ) {
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn ternary_and_precedence() {
        let src = r#"
            __global__ void k(int* out) {
                int a = 1 + 2 * 3;
                int b = (1 + 2) * 3;
                int c = a < b ? a : b;
                out[0] = c | 1 << 2;
            }
        "#;
        let k = parse_kernel(src).unwrap();
        validate(&k).unwrap();
        // a = 7, b = 9 at runtime; structural check on the tree instead:
        match &k.body[0] {
            Stmt::Assign { value, .. } => match value {
                Expr::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("precedence wrong: {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn error_on_unknown_identifier() {
        let src = "__global__ void k(int* out) { out[0] = bogus; }";
        let e = parse_kernel(src).unwrap_err();
        assert!(e.message.contains("bogus"), "{e}");
    }

    #[test]
    fn error_reports_line() {
        let src = "__global__ void k(int* out) {\n\n  out[0] = @;\n}";
        let e = parse_kernel(src).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn hex_and_float_literals() {
        let src = r#"
            __global__ void k(long* out, double* f) {
                out[0] = 0xFF + 10;
                f[0] = 1.5e3 + 2.0f + .25;
            }
        "#;
        let k = parse_kernel(src).unwrap();
        match &k.body[0] {
            Stmt::Store {
                value: Expr::Binary { lhs, .. },
                ..
            } => assert_eq!(**lhs, Expr::IntConst(255)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn comments_are_skipped() {
        let src = r#"
            // a line comment
            __global__ void k(int* out /* inline */) {
                /* multi
                   line */
                out[0] = 1; // trailing
            }
        "#;
        parse_kernel(src).unwrap();
    }

    #[test]
    fn unsigned_spellings() {
        let src = "__global__ void k(unsigned int* a, unsigned char* b) { a[0] = 1; b[0] = 2; }";
        let k = parse_kernel(src).unwrap();
        assert_eq!(k.params[0].scalar(), Scalar::U32);
        assert_eq!(k.params[1].scalar(), Scalar::U8);
    }

    #[test]
    fn else_if_chains() {
        let src = r#"
            __global__ void k(int* out) {
                int t = threadIdx.x;
                if (t < 1) out[0] = 1;
                else if (t < 2) out[1] = 2;
                else out[2] = 3;
            }
        "#;
        let k = parse_kernel(src).unwrap();
        match &k.body[1] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(
                    matches!(&else_body[0], Stmt::If { else_body, .. } if !else_body.is_empty())
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn scopes_shadow() {
        let src = r#"
            __global__ void k(int* out) {
                int i = 1;
                if (i < 2) {
                    int i = 5;
                    out[0] = i;
                }
                out[1] = i;
            }
        "#;
        let k = parse_kernel(src).unwrap();
        assert_eq!(k.var_names.len(), 2);
        // out[0] stores the inner i (VarId 1), out[1] the outer (VarId 0).
        let mut stores = Vec::new();
        k.visit_stmts(&mut |s| {
            if let Stmt::Store { value, .. } = s {
                stores.push(value.clone());
            }
        });
        assert_eq!(stores[0], Expr::Var(VarId(1)));
        assert_eq!(stores[1], Expr::Var(VarId(0)));
    }

    #[test]
    fn source_map_records_write_and_barrier_lines() {
        let src = "__global__ void k(float* out, float* aux) {\n\
                   __shared__ float tile[32];\n\
                   tile[threadIdx.x] = 1.0f;\n\
                   __syncthreads();\n\
                   out[blockIdx.x * blockDim.x + threadIdx.x] = tile[0];\n\
                   if (threadIdx.x < 3)\n\
                   aux[blockIdx.x * 3 + threadIdx.x] = 2.0f;\n\
                   atomicAdd(&out[0], 1.0f);\n\
                   }";
        let (k, map) = parse_kernel_with_map(src).unwrap();
        // Shared-memory stores are NOT in the global-write table; the
        // ordinals line up with the analysis pre-order over global writes.
        assert_eq!(map.global_write_lines, vec![5, 7, 8]);
        assert_eq!(map.barrier_lines, vec![4]);
        // And the plain parser returns the identical kernel.
        assert_eq!(parse_kernel(src).unwrap(), k);
    }

    #[test]
    fn source_map_ordinals_follow_pre_order_through_branches() {
        let src = "__global__ void k(int* out) {\n\
                   if (threadIdx.x < 8) {\n\
                   out[threadIdx.x] = 1;\n\
                   } else {\n\
                   out[threadIdx.x + 8] = 2;\n\
                   }\n\
                   for (int i = 0; i < 2; i++)\n\
                   out[i] = 3;\n\
                   }";
        let (_, map) = parse_kernel_with_map(src).unwrap();
        assert_eq!(map.global_write_lines, vec![3, 5, 8]);
        assert!(map.barrier_lines.is_empty());
    }
}
