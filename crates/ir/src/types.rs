//! The IR type system.
//!
//! The IR is deliberately small: integer types of arbitrary width up to 64
//! bits, an opaque pointer type, a boolean (i1), and void for functions that
//! return nothing. Array and struct layout decisions are made by the
//! frontend during lowering; what the checker needs (element sizes, array
//! bounds) is carried on the relevant instructions instead of in the type
//! system, mirroring how STACK consumes LLVM IR after lowering.

use std::fmt;

/// Width, in bits, used to model pointers. The paper's examples target
/// 64-bit systems (e.g. the Postgres int64 division case runs on x86-64).
pub const POINTER_WIDTH: u32 = 64;

/// An IR type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// No value (function return type only).
    Void,
    /// Single-bit boolean, the result of comparisons.
    Bool,
    /// Integer of the given bit width (1..=64). Signedness is a property of
    /// operations, not of values, exactly as in LLVM IR.
    Int(u32),
    /// An opaque pointer. Pointee element sizes appear on `PtrAdd`
    /// instructions; pointees are loaded/stored with an explicit type.
    Ptr,
}

impl Type {
    /// 32-bit integer, the default `int` of the mini-C frontend.
    pub const I32: Type = Type::Int(32);
    /// 64-bit integer.
    pub const I64: Type = Type::Int(64);
    /// 8-bit integer (`char`).
    pub const I8: Type = Type::Int(8);

    /// Bit width of a value of this type when represented in the solver.
    pub fn bit_width(self) -> u32 {
        match self {
            Type::Void => 0,
            Type::Bool => 1,
            Type::Int(w) => w,
            Type::Ptr => POINTER_WIDTH,
        }
    }

    /// Size in bytes when stored in memory (used for pointer arithmetic
    /// scaling). Booleans are stored as one byte.
    pub fn byte_size(self) -> u64 {
        match self {
            Type::Void => 0,
            Type::Bool => 1,
            Type::Int(w) => u64::from(w.div_ceil(8)),
            Type::Ptr => u64::from(POINTER_WIDTH / 8),
        }
    }

    /// Whether the type is an integer (of any width, excluding `Bool`).
    pub fn is_int(self) -> bool {
        matches!(self, Type::Int(_))
    }

    /// Whether the type is the pointer type.
    pub fn is_ptr(self) -> bool {
        matches!(self, Type::Ptr)
    }

    /// Whether the type is the boolean type.
    pub fn is_bool(self) -> bool {
        matches!(self, Type::Bool)
    }

    /// Whether the type carries a value at all.
    pub fn is_value(self) -> bool {
        !matches!(self, Type::Void)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Bool => write!(f, "i1"),
            Type::Int(w) => write!(f, "i{w}"),
            Type::Ptr => write!(f, "ptr"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_sizes() {
        assert_eq!(Type::I32.bit_width(), 32);
        assert_eq!(Type::I32.byte_size(), 4);
        assert_eq!(Type::I64.byte_size(), 8);
        assert_eq!(Type::Ptr.bit_width(), POINTER_WIDTH);
        assert_eq!(Type::Ptr.byte_size(), 8);
        assert_eq!(Type::Bool.bit_width(), 1);
        assert_eq!(Type::Void.bit_width(), 0);
        assert_eq!(Type::Int(12).byte_size(), 2);
    }

    #[test]
    fn predicates() {
        assert!(Type::I32.is_int());
        assert!(!Type::Ptr.is_int());
        assert!(Type::Ptr.is_ptr());
        assert!(Type::Bool.is_bool());
        assert!(Type::I8.is_value());
        assert!(!Type::Void.is_value());
    }

    #[test]
    fn display() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::Bool.to_string(), "i1");
        assert_eq!(Type::Ptr.to_string(), "ptr");
        assert_eq!(Type::Void.to_string(), "void");
    }
}
