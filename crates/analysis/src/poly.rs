//! Multivariate integer polynomials over launch-time symbols.
//!
//! The Allgather-distributable analysis treats kernel scalar parameters and
//! launch dimensions symbolically ("metadata values are based on symbolic
//! analysis", paper §5). Affine coefficients of write indices are therefore
//! polynomials over the symbols in [`Sym`], evaluated to concrete integers
//! once the launch configuration and arguments are known.

use cucc_ir::{Axis, ParamId};
use std::collections::BTreeMap;
use std::fmt;

/// A launch-time symbol: fixed for the whole launch, identical on every
/// thread and block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sym {
    /// A scalar kernel parameter.
    Param(ParamId),
    /// `blockDim.{x,y,z}`
    BlockDim(Axis),
    /// `gridDim.{x,y,z}`
    GridDim(Axis),
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sym::Param(p) => write!(f, "{p}"),
            Sym::BlockDim(a) => write!(f, "blockDim.{a}"),
            Sym::GridDim(a) => write!(f, "gridDim.{a}"),
        }
    }
}

/// Monomial: a sorted multiset of symbols (e.g. `n·blockDim.x`).
type Monomial = Vec<Sym>;

/// A multivariate polynomial with `i128` coefficients, kept in canonical
/// form (sorted monomials, no zero coefficients) so that structural equality
/// is semantic equality.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poly {
    /// Map monomial → coefficient. The empty monomial is the constant term.
    terms: BTreeMap<Monomial, i128>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly::default()
    }

    /// Constant polynomial.
    pub fn constant(c: i128) -> Poly {
        let mut p = Poly::zero();
        if c != 0 {
            p.terms.insert(Vec::new(), c);
        }
        p
    }

    /// The polynomial consisting of a single symbol.
    pub fn sym(s: Sym) -> Poly {
        let mut p = Poly::zero();
        p.terms.insert(vec![s], 1);
        p
    }

    /// True for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Constant value if the polynomial has no symbolic terms.
    pub fn as_const(&self) -> Option<i128> {
        match self.terms.len() {
            0 => Some(0),
            1 => self.terms.get(&Vec::new() as &Monomial).copied(),
            _ => None,
        }
    }

    /// Add two polynomials.
    pub fn add(&self, rhs: &Poly) -> Poly {
        let mut out = self.clone();
        for (m, c) in &rhs.terms {
            let e = out.terms.entry(m.clone()).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(m);
            }
        }
        out
    }

    /// Subtract.
    pub fn sub(&self, rhs: &Poly) -> Poly {
        self.add(&rhs.neg())
    }

    /// Negate.
    pub fn neg(&self) -> Poly {
        Poly {
            terms: self.terms.iter().map(|(m, c)| (m.clone(), -c)).collect(),
        }
    }

    /// Multiply.
    pub fn mul(&self, rhs: &Poly) -> Poly {
        let mut out = Poly::zero();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &rhs.terms {
                let mut m = ma.clone();
                m.extend(mb.iter().copied());
                m.sort();
                let e = out.terms.entry(m.clone()).or_insert(0);
                *e += ca * cb;
                if *e == 0 {
                    out.terms.remove(&m);
                }
            }
        }
        out
    }

    /// Multiply by an integer constant.
    pub fn scale(&self, k: i128) -> Poly {
        if k == 0 {
            return Poly::zero();
        }
        Poly {
            terms: self.terms.iter().map(|(m, c)| (m.clone(), c * k)).collect(),
        }
    }

    /// Evaluate under a symbol assignment. Returns `None` if a symbol is
    /// missing from the environment.
    pub fn eval(&self, env: &impl Fn(Sym) -> Option<i128>) -> Option<i128> {
        let mut total: i128 = 0;
        for (m, c) in &self.terms {
            let mut v = *c;
            for s in m {
                v = v.checked_mul(env(*s)?)?;
            }
            total = total.checked_add(v)?;
        }
        Some(total)
    }

    /// The symbols mentioned by the polynomial.
    pub fn symbols(&self) -> Vec<Sym> {
        let mut out: Vec<Sym> = self.terms.keys().flatten().copied().collect();
        out.sort();
        out.dedup();
        out
    }

    /// Total degree (0 for constants and zero).
    pub fn degree(&self) -> usize {
        self.terms.keys().map(|m| m.len()).max().unwrap_or(0)
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return f.write_str("0");
        }
        let mut first = true;
        for (m, c) in &self.terms {
            if !first {
                f.write_str(if *c >= 0 { " + " } else { " - " })?;
            } else if *c < 0 {
                f.write_str("-")?;
            }
            first = false;
            let mag = c.unsigned_abs();
            if m.is_empty() {
                write!(f, "{mag}")?;
            } else {
                if mag != 1 {
                    write!(f, "{mag}*")?;
                }
                for (i, s) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str("*")?;
                    }
                    write!(f, "{s}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n() -> Sym {
        Sym::Param(ParamId(0))
    }
    fn bdx() -> Sym {
        Sym::BlockDim(Axis::X)
    }

    #[test]
    fn canonical_equality() {
        // (n + 2) + (n - 2) == 2n
        let a = Poly::sym(n()).add(&Poly::constant(2));
        let b = Poly::sym(n()).sub(&Poly::constant(2));
        assert_eq!(a.add(&b), Poly::sym(n()).scale(2));
        // n - n == 0
        assert!(Poly::sym(n()).sub(&Poly::sym(n())).is_zero());
    }

    #[test]
    fn multiplication_commutes_and_sorts_monomials() {
        let p = Poly::sym(n()).mul(&Poly::sym(bdx()));
        let q = Poly::sym(bdx()).mul(&Poly::sym(n()));
        assert_eq!(p, q);
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn distributivity() {
        // (n + 1)(n - 1) == n^2 - 1
        let p = Poly::sym(n()).add(&Poly::constant(1));
        let q = Poly::sym(n()).sub(&Poly::constant(1));
        let sq = Poly::sym(n()).mul(&Poly::sym(n())).sub(&Poly::constant(1));
        assert_eq!(p.mul(&q), sq);
    }

    #[test]
    fn evaluation() {
        // 3*n*blockDim.x + 7 at n=5, bd=4 => 67
        let p = Poly::sym(n())
            .mul(&Poly::sym(bdx()))
            .scale(3)
            .add(&Poly::constant(7));
        let v = p.eval(&|s| match s {
            Sym::Param(_) => Some(5),
            Sym::BlockDim(_) => Some(4),
            _ => None,
        });
        assert_eq!(v, Some(67));
        assert_eq!(p.eval(&|_| None), None);
    }

    #[test]
    fn as_const() {
        assert_eq!(Poly::constant(9).as_const(), Some(9));
        assert_eq!(Poly::zero().as_const(), Some(0));
        assert_eq!(Poly::sym(n()).as_const(), None);
    }

    #[test]
    fn display_readable() {
        let p = Poly::sym(n()).scale(2).sub(&Poly::constant(3));
        let s = p.to_string();
        assert!(s.contains("2*p0"), "{s}");
        assert!(s.contains("3"), "{s}");
    }

    #[test]
    fn symbols_listed() {
        let p = Poly::sym(n()).mul(&Poly::sym(bdx()));
        assert_eq!(p.symbols(), vec![n(), bdx()]);
    }
}
