//! Scalar element types, runtime values and memory spaces.

use std::fmt;

/// Element type of a memory buffer or the target of a cast.
///
/// Matches the C scalar types the mini-CUDA front-end accepts (`char`,
/// `unsigned char`, `int`, `unsigned int`, `long`, `float`, `double`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scalar {
    /// 8-bit unsigned integer (`unsigned char`).
    U8,
    /// 8-bit signed integer (`char`).
    I8,
    /// 32-bit signed integer (`int`).
    I32,
    /// 32-bit unsigned integer (`unsigned int`).
    U32,
    /// 64-bit signed integer (`long`).
    I64,
    /// 32-bit IEEE-754 float (`float`).
    F32,
    /// 64-bit IEEE-754 float (`double`).
    F64,
}

impl Scalar {
    /// Size of one element in bytes.
    #[inline]
    pub const fn size(self) -> usize {
        match self {
            Scalar::U8 | Scalar::I8 => 1,
            Scalar::I32 | Scalar::U32 | Scalar::F32 => 4,
            Scalar::I64 | Scalar::F64 => 8,
        }
    }

    /// Whether values of this type are represented as integers at runtime.
    #[inline]
    pub const fn kind(self) -> ValueKind {
        match self {
            Scalar::U8 | Scalar::I8 | Scalar::I32 | Scalar::U32 | Scalar::I64 => ValueKind::Int,
            Scalar::F32 | Scalar::F64 => ValueKind::Float,
        }
    }

    /// The type a variable declared `self` holds: C's integer types are
    /// carried i64-wide (32-bit wrap is out of scope), floats keep their
    /// declared width. The target of every conversion into a variable.
    #[inline]
    pub const fn widened(self) -> Scalar {
        match self.kind() {
            ValueKind::Int => Scalar::I64,
            ValueKind::Float => self,
        }
    }

    /// The C-dialect spelling used by the printer and parser.
    pub const fn c_name(self) -> &'static str {
        match self {
            Scalar::U8 => "uchar",
            Scalar::I8 => "char",
            Scalar::I32 => "int",
            Scalar::U32 => "uint",
            Scalar::I64 => "long",
            Scalar::F32 => "float",
            Scalar::F64 => "double",
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.c_name())
    }
}

/// Whether a value is carried in the integer or floating domain.
///
/// Every expression evaluates to either an `i64` or an `f64`, and which one
/// is a compile-time fact ([`crate::Kernel::expr_kind`]): variables have
/// declared types and the front end makes C's implicit conversions
/// explicit casts. Narrowing to the destination [`Scalar`] happens at
/// stores and casts, mirroring C integer conversion semantics. Ordered
/// `Int < Float`: mixed arithmetic has the larger kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueKind {
    /// Integer domain (`i64` carrier).
    Int,
    /// Floating-point domain (`f64` carrier).
    Float,
}

impl ValueKind {
    /// The carrier as a [`Scalar`]: `I64` or `F64`.
    pub(crate) const fn scalar(self) -> Scalar {
        match self {
            ValueKind::Int => Scalar::I64,
            ValueKind::Float => Scalar::F64,
        }
    }
}

/// A runtime value flowing through the interpreter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer value (all integer widths are carried as `i64`).
    I64(i64),
    /// Floating value (both `f32` and `f64` are carried as `f64`; `f32`
    /// rounding is applied at stores and casts).
    F64(f64),
}

impl Value {
    /// The domain this value lives in.
    #[inline]
    pub fn kind(self) -> ValueKind {
        match self {
            Value::I64(_) => ValueKind::Int,
            Value::F64(_) => ValueKind::Float,
        }
    }

    /// Interpret as an integer, converting (truncating) floats like a C cast.
    #[inline]
    pub fn as_i64(self) -> i64 {
        match self {
            Value::I64(v) => v,
            Value::F64(v) => v as i64,
        }
    }

    /// Interpret as a float, converting integers exactly where possible.
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Value::I64(v) => v as f64,
            Value::F64(v) => v,
        }
    }

    /// True iff nonzero (C truthiness).
    #[inline]
    pub fn is_true(self) -> bool {
        match self {
            Value::I64(v) => v != 0,
            Value::F64(v) => v != 0.0,
        }
    }

    /// Convert to the representation a buffer of element type `ty` stores,
    /// then back to the runtime carrier. This applies C narrowing semantics
    /// (wrapping integer truncation, `f64`→`f32` rounding).
    #[inline]
    pub fn convert_to(self, ty: Scalar) -> Value {
        match ty {
            Scalar::U8 => Value::I64((self.as_i64() as u8) as i64),
            Scalar::I8 => Value::I64((self.as_i64() as i8) as i64),
            Scalar::I32 => Value::I64((self.as_i64() as i32) as i64),
            Scalar::U32 => Value::I64((self.as_i64() as u32) as i64),
            Scalar::I64 => Value::I64(self.as_i64()),
            Scalar::F32 => Value::F64((self.as_f64() as f32) as f64),
            Scalar::F64 => Value::F64(self.as_f64()),
        }
    }
}

/// One axis of the 3-D thread/block index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// `.x`
    X,
    /// `.y`
    Y,
    /// `.z`
    Z,
}

impl Axis {
    /// All three axes, in `x`, `y`, `z` order.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    /// The suffix used in source syntax (`x`/`y`/`z`).
    pub const fn name(self) -> &'static str {
        match self {
            Axis::X => "x",
            Axis::Y => "y",
            Axis::Z => "z",
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// CUDA memory spaces.
///
/// Only [`MemSpace::Global`] requires cross-node communication after
/// migration to a CPU cluster: shared and local memory are private to a
/// block/thread, and CuCC schedules every thread of a block onto the same
/// node (paper §2.2, footnote 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device global memory, visible to all blocks.
    Global,
    /// Per-block scratchpad (`__shared__`).
    Shared,
    /// Per-thread private array.
    Local,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
            MemSpace::Local => "local",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(Scalar::U8.size(), 1);
        assert_eq!(Scalar::I8.size(), 1);
        assert_eq!(Scalar::I32.size(), 4);
        assert_eq!(Scalar::U32.size(), 4);
        assert_eq!(Scalar::F32.size(), 4);
        assert_eq!(Scalar::I64.size(), 8);
        assert_eq!(Scalar::F64.size(), 8);
    }

    #[test]
    fn scalar_kinds() {
        assert_eq!(Scalar::F32.kind(), ValueKind::Float);
        assert_eq!(Scalar::F64.kind(), ValueKind::Float);
        assert_eq!(Scalar::I32.kind(), ValueKind::Int);
        assert_eq!(Scalar::U8.kind(), ValueKind::Int);
    }

    #[test]
    fn value_conversion_wraps_like_c() {
        assert_eq!(Value::I64(300).convert_to(Scalar::U8), Value::I64(44));
        assert_eq!(Value::I64(-1).convert_to(Scalar::U8), Value::I64(255));
        assert_eq!(
            Value::I64(-1).convert_to(Scalar::U32),
            Value::I64(u32::MAX as i64)
        );
        assert_eq!(
            Value::I64(i64::from(i32::MAX) + 1).convert_to(Scalar::I32),
            Value::I64(i64::from(i32::MIN))
        );
    }

    #[test]
    fn value_float_to_int_truncates() {
        assert_eq!(Value::F64(3.9).as_i64(), 3);
        assert_eq!(Value::F64(-3.9).as_i64(), -3);
    }

    #[test]
    fn f32_rounding_applied() {
        let v = Value::F64(0.1).convert_to(Scalar::F32);
        assert_eq!(v, Value::F64((0.1f32) as f64));
        // and F64 keeps full precision
        assert_eq!(Value::F64(0.1).convert_to(Scalar::F64), Value::F64(0.1));
    }

    #[test]
    fn truthiness() {
        assert!(Value::I64(2).is_true());
        assert!(!Value::I64(0).is_true());
        assert!(Value::F64(-0.5).is_true());
        assert!(!Value::F64(0.0).is_true());
    }
}
