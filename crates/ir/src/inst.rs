//! Instructions and terminators.

use crate::origin::Origin;
use crate::types::Type;
use crate::value::{BlockId, InstId, Operand};
use std::fmt;

/// Binary integer operators. Signedness is explicit where it matters,
/// following LLVM's convention.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    SDiv,
    UDiv,
    SRem,
    URem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
}

impl BinOp {
    /// Whether the operator is a division or remainder (division-by-zero UB).
    pub fn is_division(self) -> bool {
        matches!(self, BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem)
    }

    /// Whether the operator is a shift (oversized-shift UB).
    pub fn is_shift(self) -> bool {
        matches!(self, BinOp::Shl | BinOp::LShr | BinOp::AShr)
    }

    /// Whether signed overflow of this operator is undefined behavior when
    /// applied to signed operands (`+`, `-`, `*`, signed `/` and `%`).
    pub fn can_overflow_signed(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::SDiv | BinOp::SRem
        )
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::UDiv => "udiv",
            BinOp::SRem => "srem",
            BinOp::URem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
        }
    }
}

/// Comparison predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpPred {
    Eq,
    Ne,
    Ult,
    Ule,
    Ugt,
    Uge,
    Slt,
    Sle,
    Sgt,
    Sge,
}

impl CmpPred {
    /// The predicate with operands swapped (`a < b` becomes `b > a`).
    pub fn swapped(self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Eq,
            CmpPred::Ne => CmpPred::Ne,
            CmpPred::Ult => CmpPred::Ugt,
            CmpPred::Ule => CmpPred::Uge,
            CmpPred::Ugt => CmpPred::Ult,
            CmpPred::Uge => CmpPred::Ule,
            CmpPred::Slt => CmpPred::Sgt,
            CmpPred::Sle => CmpPred::Sge,
            CmpPred::Sgt => CmpPred::Slt,
            CmpPred::Sge => CmpPred::Sle,
        }
    }

    /// The logical negation of the predicate (`<` becomes `>=`).
    pub fn negated(self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Ne,
            CmpPred::Ne => CmpPred::Eq,
            CmpPred::Ult => CmpPred::Uge,
            CmpPred::Ule => CmpPred::Ugt,
            CmpPred::Ugt => CmpPred::Ule,
            CmpPred::Uge => CmpPred::Ult,
            CmpPred::Slt => CmpPred::Sge,
            CmpPred::Sle => CmpPred::Sgt,
            CmpPred::Sgt => CmpPred::Sle,
            CmpPred::Sge => CmpPred::Slt,
        }
    }

    /// Whether the predicate compares with signed ordering.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            CmpPred::Slt | CmpPred::Sle | CmpPred::Sgt | CmpPred::Sge
        )
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Ult => "ult",
            CmpPred::Ule => "ule",
            CmpPred::Ugt => "ugt",
            CmpPred::Uge => "uge",
            CmpPred::Slt => "slt",
            CmpPred::Sle => "sle",
            CmpPred::Sgt => "sgt",
            CmpPred::Sge => "sge",
        }
    }
}

/// The operation performed by an instruction.
#[derive(Clone, PartialEq, Debug)]
pub enum InstKind {
    /// Binary integer arithmetic / bitwise operation.
    Bin {
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// Integer or pointer comparison producing a `Bool`.
    Cmp {
        pred: CmpPred,
        lhs: Operand,
        rhs: Operand,
    },
    /// Pointer arithmetic: `ptr + offset * elem_size` (byte-scaled). If the
    /// base pointer is a declared array of known length, `bound` carries the
    /// element count so the buffer-overflow UB condition can be emitted.
    PtrAdd {
        ptr: Operand,
        offset: Operand,
        elem_size: u64,
        bound: Option<u64>,
    },
    /// Load a value of type `ty` through a pointer.
    Load { ptr: Operand, ty: Type },
    /// Store `value` through a pointer.
    Store { ptr: Operand, value: Operand },
    /// Stack allocation of `count` elements of `elem_ty`; yields a pointer.
    Alloca { elem_ty: Type, count: u64 },
    /// Call a named function. Library functions with undefined-behavior
    /// contracts (`abs`, `memcpy`, `free`, `realloc`, ...) are recognized by
    /// name during UB-condition insertion.
    Call {
        callee: String,
        args: Vec<Operand>,
        ty: Type,
    },
    /// Zero-extend an integer to a wider type.
    ZExt { value: Operand, to: Type },
    /// Sign-extend an integer to a wider type.
    SExt { value: Operand, to: Type },
    /// Truncate an integer to a narrower type.
    Trunc { value: Operand, to: Type },
    /// Convert a pointer to an integer of the pointer width (used when the
    /// frontend compares pointers arithmetically).
    PtrToInt { value: Operand },
    /// Convert an integer to a pointer.
    IntToPtr { value: Operand },
    /// SSA phi node: one incoming operand per predecessor block.
    Phi { incomings: Vec<(BlockId, Operand)> },
}

impl InstKind {
    /// Operands read by this instruction, in a fixed order.
    pub fn operands(&self) -> Operands<'_> {
        match self {
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                Operands::inline(*lhs, *rhs, 2)
            }
            InstKind::PtrAdd { ptr, offset, .. } => Operands::inline(*ptr, *offset, 2),
            InstKind::Load { ptr, .. } => Operands::inline(*ptr, *ptr, 1),
            InstKind::Store { ptr, value } => Operands::inline(*ptr, *value, 2),
            InstKind::Alloca { .. } => Operands::Args([].iter()),
            InstKind::Call { args, .. } => Operands::Args(args.iter()),
            InstKind::ZExt { value, .. }
            | InstKind::SExt { value, .. }
            | InstKind::Trunc { value, .. }
            | InstKind::PtrToInt { value }
            | InstKind::IntToPtr { value } => Operands::inline(*value, *value, 1),
            InstKind::Phi { incomings } => Operands::Incomings(incomings.iter()),
        }
    }

    /// Rewrite every operand through `f` (used by the optimizer when
    /// replacing values).
    pub fn map_operands(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        match self {
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            InstKind::PtrAdd { ptr, offset, .. } => {
                *ptr = f(*ptr);
                *offset = f(*offset);
            }
            InstKind::Load { ptr, .. } => *ptr = f(*ptr),
            InstKind::Store { ptr, value } => {
                *ptr = f(*ptr);
                *value = f(*value);
            }
            InstKind::Alloca { .. } => {}
            InstKind::Call { args, .. } => {
                for a in args.iter_mut() {
                    *a = f(*a);
                }
            }
            InstKind::ZExt { value, .. }
            | InstKind::SExt { value, .. }
            | InstKind::Trunc { value, .. }
            | InstKind::PtrToInt { value }
            | InstKind::IntToPtr { value } => *value = f(*value),
            InstKind::Phi { incomings } => {
                for (_, op) in incomings.iter_mut() {
                    *op = f(*op);
                }
            }
        }
    }

    /// Whether this instruction has a side effect and must not be removed by
    /// dead-code elimination even if its result is unused.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, InstKind::Store { .. } | InstKind::Call { .. })
    }

    /// Whether this is a memory access (used for the null-dereference UB
    /// condition).
    pub fn is_memory_access(&self) -> bool {
        matches!(self, InstKind::Load { .. } | InstKind::Store { .. })
    }
}

/// An instruction: an operation, its result type, and its origin.
#[derive(Clone, Debug)]
pub struct Inst {
    pub kind: InstKind,
    pub ty: Type,
    pub origin: Origin,
    /// Optional name carried from the source program, for readable reports
    /// (e.g. the C variable a value was loaded from).
    pub name: Option<String>,
    /// "No signed wrap": set on `add`/`sub`/`mul` lowered from *signed* C
    /// arithmetic, where overflow is undefined behavior (like LLVM's `nsw`
    /// flag). Unsigned arithmetic wraps and carries no UB condition.
    pub nsw: bool,
}

impl Inst {
    /// Create an instruction.
    pub fn new(kind: InstKind, ty: Type, origin: Origin) -> Inst {
        Inst {
            kind,
            ty,
            origin,
            name: None,
            nsw: false,
        }
    }

    /// Mark the instruction as signed arithmetic whose overflow is UB.
    pub fn with_nsw(mut self) -> Inst {
        self.nsw = true;
        self
    }

    /// Attach a source-level name.
    pub fn with_name(mut self, name: &str) -> Inst {
        self.name = Some(name.to_string());
        self
    }
}

/// Block terminators.
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional branch.
    Br { target: BlockId },
    /// Conditional branch on a boolean operand.
    CondBr {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Return from the function.
    Ret { value: Option<Operand> },
    /// Control can never reach here.
    Unreachable,
}

impl Terminator {
    /// Successor blocks, in order.
    pub fn successors(&self) -> Successors {
        let (blocks, len) = match self {
            Terminator::Br { target } => ([*target; 2], 1),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => ([*then_bb, *else_bb], 2),
            Terminator::Ret { .. } | Terminator::Unreachable => ([BlockId(0); 2], 0),
        };
        blocks.into_iter().take(len)
    }

    /// The operand read by the terminator, if any.
    pub fn operand(&self) -> Option<Operand> {
        match self {
            Terminator::CondBr { cond, .. } => Some(*cond),
            Terminator::Ret { value } => *value,
            _ => None,
        }
    }

    /// Rewrite the operands of the terminator.
    pub fn map_operands(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        match self {
            Terminator::CondBr { cond, .. } => *cond = f(*cond),
            Terminator::Ret { value: Some(v) } => *v = f(*v),
            _ => {}
        }
    }

    /// Rewrite successor block ids (used by CFG simplification).
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br { target } => *target = f(*target),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            _ => {}
        }
    }
}

/// The operands of one instruction, without allocating: up to two inline,
/// or a borrowed call argument list or phi incoming list.
#[derive(Clone, Debug)]
pub enum Operands<'a> {
    /// At most two operands, stored in the iterator.
    Inline(std::iter::Take<std::array::IntoIter<Operand, 2>>),
    /// A call's arguments.
    Args(std::slice::Iter<'a, Operand>),
    /// A phi's incoming values.
    Incomings(std::slice::Iter<'a, (BlockId, Operand)>),
}

impl Operands<'_> {
    /// The first `len` of `a`, `b`.
    fn inline(a: Operand, b: Operand, len: usize) -> Operands<'static> {
        Operands::Inline([a, b].into_iter().take(len))
    }
}

impl Iterator for Operands<'_> {
    type Item = Operand;

    fn next(&mut self) -> Option<Operand> {
        match self {
            Operands::Inline(ops) => ops.next(),
            Operands::Args(args) => args.next().copied(),
            Operands::Incomings(incomings) => incomings.next().map(|&(_, op)| op),
        }
    }
}

/// The successors of a terminator, without allocating: a terminator has at
/// most two.
pub type Successors = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

/// Reference to a value-producing program point used in reports: an
/// instruction or a terminator of a block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProgramPoint {
    Inst(InstId),
    Terminator(BlockId),
}

impl fmt::Display for ProgramPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramPoint::Inst(id) => write!(f, "{id}"),
            ProgramPoint::Terminator(b) => write!(f, "term({b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::SDiv.is_division());
        assert!(BinOp::URem.is_division());
        assert!(!BinOp::Add.is_division());
        assert!(BinOp::Shl.is_shift());
        assert!(!BinOp::And.is_shift());
        assert!(BinOp::Add.can_overflow_signed());
        assert!(BinOp::Mul.can_overflow_signed());
        assert!(!BinOp::Xor.can_overflow_signed());
        assert_eq!(BinOp::AShr.mnemonic(), "ashr");
    }

    #[test]
    fn cmp_negation_and_swap() {
        assert_eq!(CmpPred::Slt.negated(), CmpPred::Sge);
        assert_eq!(CmpPred::Eq.negated(), CmpPred::Ne);
        assert_eq!(CmpPred::Ult.swapped(), CmpPred::Ugt);
        assert_eq!(CmpPred::Eq.swapped(), CmpPred::Eq);
        assert!(CmpPred::Sgt.is_signed());
        assert!(!CmpPred::Ugt.is_signed());
        // Negation is an involution.
        for p in [
            CmpPred::Eq,
            CmpPred::Ne,
            CmpPred::Ult,
            CmpPred::Ule,
            CmpPred::Ugt,
            CmpPred::Uge,
            CmpPred::Slt,
            CmpPred::Sle,
            CmpPred::Sgt,
            CmpPred::Sge,
        ] {
            assert_eq!(p.negated().negated(), p);
            assert_eq!(p.swapped().swapped(), p);
        }
    }

    #[test]
    fn operand_traversal() {
        let lhs = Operand::Param(0);
        let rhs = Operand::int(Type::I32, 100);
        let mut kind = InstKind::Bin {
            op: BinOp::Add,
            lhs,
            rhs,
        };
        assert_eq!(kind.operands().collect::<Vec<_>>(), vec![lhs, rhs]);
        kind.map_operands(|op| {
            if op == lhs {
                Operand::int(Type::I32, 7)
            } else {
                op
            }
        });
        assert_eq!(kind.operands().next(), Some(Operand::int(Type::I32, 7)));
        assert!(!kind.has_side_effects());
        let store = InstKind::Store {
            ptr: Operand::Param(0),
            value: rhs,
        };
        assert!(store.has_side_effects());
        assert!(store.is_memory_access());
    }

    #[test]
    fn terminator_successors() {
        let br = Terminator::Br { target: BlockId(1) };
        assert_eq!(br.successors().collect::<Vec<_>>(), [BlockId(1)]);
        let cbr = Terminator::CondBr {
            cond: Operand::bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(
            cbr.successors().collect::<Vec<_>>(),
            [BlockId(1), BlockId(2)]
        );
        assert_eq!(cbr.operand(), Some(Operand::bool(true)));
        let ret = Terminator::Ret { value: None };
        assert_eq!(ret.successors().len(), 0);
        let mut retargeted = cbr.clone();
        retargeted.map_successors(|b| BlockId(b.0 + 10));
        assert_eq!(
            retargeted.successors().collect::<Vec<_>>(),
            [BlockId(11), BlockId(12)]
        );
    }
}
