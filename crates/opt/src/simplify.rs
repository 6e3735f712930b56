//! Constant folding and algebraic instruction simplification.
//!
//! These are the "ordinary" optimizations every compiler performs without
//! appealing to undefined behavior: folding operations on constants and
//! applying identities like `x + 0 = x`. The UB-exploiting rewrites live in
//! [`crate::ub_rewrites`] so profiles can enable them selectively.

use crate::replace::Replacements;
use stack_ir::{BinOp, CmpPred, Constant, Function, InstKind, Operand, Type};

/// Mask a raw value to the given bit width.
fn mask_to_width(value: u64, width: u32) -> u64 {
    if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// Run constant folding and simplification to a fixed point. Returns the
/// number of instructions simplified away.
///
/// Each round visits the instructions in block order. A visited
/// instruction first reads its operands through the replacements recorded
/// so far in the round, so it sees every earlier simplification; the round
/// then rewrites all remaining uses and detaches the simplified
/// instructions in one pass each.
pub fn run(func: &mut Function) -> usize {
    let mut total = 0;
    loop {
        let mut replacements = Replacements::new(func);
        let mut removed = vec![false; func.num_inst_slots()];
        let mut changed = 0;
        for b in func.block_ids() {
            for k in 0..func.block(b).insts.len() {
                let i = func.block(b).insts[k];
                if !replacements.is_empty() {
                    let inst = func.inst_mut(i);
                    inst.kind.map_operands(|op| replacements.resolve(op));
                }
                let inst = func.inst(i);
                if let Some(replacement) = simplify_inst(&inst.kind, inst.ty) {
                    replacements.insert(i, replacement);
                    removed[i.index()] = true;
                    changed += 1;
                }
            }
        }
        if changed == 0 {
            break;
        }
        func.detach_insts(|i| removed[i.index()]);
        replacements.apply(func);
        total += changed;
    }
    total
}

/// Try to simplify one instruction into an existing operand or constant.
fn simplify_inst(kind: &InstKind, ty: Type) -> Option<Operand> {
    match kind {
        InstKind::Bin { op, lhs, rhs } => simplify_bin(*op, *lhs, *rhs, ty),
        InstKind::Cmp { pred, lhs, rhs } => simplify_cmp(*pred, *lhs, *rhs),
        InstKind::ZExt { value, to } => value.as_const().map(|c| {
            Operand::Const(Constant {
                ty: *to,
                bits: c.bits,
            })
        }),
        InstKind::SExt { value, to } => value.as_const().map(|c| Operand::int(*to, c.as_signed())),
        InstKind::Trunc { value, to } => value.as_const().map(|c| {
            Operand::Const(Constant {
                ty: *to,
                bits: mask_to_width(c.bits, to.bit_width()),
            })
        }),
        InstKind::PtrAdd { ptr, offset, .. } if offset.is_const_value(0) => Some(*ptr),
        _ => None,
    }
}

fn simplify_bin(op: BinOp, lhs: Operand, rhs: Operand, ty: Type) -> Option<Operand> {
    let width = ty.bit_width();
    // Constant folding.
    if let (Some(a), Some(b)) = (lhs.as_const(), rhs.as_const()) {
        let (x, y) = (a.bits, b.bits);
        let (sx, sy) = (a.as_signed(), b.as_signed());
        let folded: Option<u64> = match op {
            BinOp::Add => Some(x.wrapping_add(y)),
            BinOp::Sub => Some(x.wrapping_sub(y)),
            BinOp::Mul => Some(x.wrapping_mul(y)),
            BinOp::UDiv => x.checked_div(y),
            BinOp::SDiv => {
                if sy == 0 {
                    None
                } else {
                    Some(sx.wrapping_div(sy) as u64)
                }
            }
            BinOp::URem => x.checked_rem(y),
            BinOp::SRem => {
                if sy == 0 {
                    None
                } else {
                    Some(sx.wrapping_rem(sy) as u64)
                }
            }
            BinOp::And => Some(x & y),
            BinOp::Or => Some(x | y),
            BinOp::Xor => Some(x ^ y),
            BinOp::Shl => {
                if y >= u64::from(width) {
                    None // oversized shift: left for the UB machinery
                } else {
                    Some(x << y)
                }
            }
            BinOp::LShr => {
                if y >= u64::from(width) {
                    None
                } else {
                    Some(mask_to_width(x, width) >> y)
                }
            }
            BinOp::AShr => {
                if y >= u64::from(width) {
                    None
                } else {
                    Some((sx >> y) as u64)
                }
            }
        };
        if let Some(v) = folded {
            return Some(Operand::Const(Constant {
                ty,
                bits: mask_to_width(v, width),
            }));
        }
    }
    // Algebraic identities.
    match op {
        BinOp::Add | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::LShr | BinOp::AShr
            if rhs.is_const_value(0) =>
        {
            Some(lhs)
        }
        BinOp::Add if lhs.is_const_value(0) => Some(rhs),
        BinOp::Sub if rhs.is_const_value(0) => Some(lhs),
        BinOp::Sub if lhs == rhs => Some(Operand::int(ty, 0)),
        BinOp::Mul if rhs.is_const_value(1) => Some(lhs),
        BinOp::Mul if lhs.is_const_value(1) => Some(rhs),
        BinOp::Mul if rhs.is_const_value(0) || lhs.is_const_value(0) => Some(Operand::int(ty, 0)),
        BinOp::And if lhs == rhs => Some(lhs),
        BinOp::And if rhs.is_const_value(0) || lhs.is_const_value(0) => Some(Operand::int(ty, 0)),
        BinOp::Or if lhs == rhs => Some(lhs),
        BinOp::Xor if lhs == rhs => Some(Operand::int(ty, 0)),
        BinOp::UDiv | BinOp::SDiv if rhs.is_const_value(1) => Some(lhs),
        _ => None,
    }
}

fn simplify_cmp(pred: CmpPred, lhs: Operand, rhs: Operand) -> Option<Operand> {
    if let (Some(a), Some(b)) = (lhs.as_const(), rhs.as_const()) {
        let result = match pred {
            CmpPred::Eq => a.bits == b.bits,
            CmpPred::Ne => a.bits != b.bits,
            CmpPred::Ult => a.bits < b.bits,
            CmpPred::Ule => a.bits <= b.bits,
            CmpPred::Ugt => a.bits > b.bits,
            CmpPred::Uge => a.bits >= b.bits,
            CmpPred::Slt => a.as_signed() < b.as_signed(),
            CmpPred::Sle => a.as_signed() <= b.as_signed(),
            CmpPred::Sgt => a.as_signed() > b.as_signed(),
            CmpPred::Sge => a.as_signed() >= b.as_signed(),
        };
        return Some(Operand::bool(result));
    }
    if lhs == rhs {
        let result = matches!(
            pred,
            CmpPred::Eq | CmpPred::Ule | CmpPred::Uge | CmpPred::Sle | CmpPred::Sge
        );
        return Some(Operand::bool(result));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack_ir::{print_function, FunctionBuilder};

    #[test]
    fn folds_constant_arithmetic() {
        let mut b = FunctionBuilder::with_params("f", &[], Type::I32);
        let a = b.add(Operand::int(Type::I32, 40), Operand::int(Type::I32, 2));
        let m = b.mul(a, Operand::int(Type::I32, 3));
        b.ret(m);
        let mut f = b.finish();
        let n = run(&mut f);
        assert_eq!(n, 2);
        let text = print_function(&f);
        assert!(text.contains("ret 126"), "{text}");
    }

    #[test]
    fn applies_identities() {
        let mut b = FunctionBuilder::with_params("f", &[("x", Type::I32)], Type::I32);
        let x = b.param(0);
        let a = b.add(x, Operand::int(Type::I32, 0));
        let s = b.sub(a, a);
        let m = b.mul(s, Operand::int(Type::I32, 7));
        b.ret(m);
        let mut f = b.finish();
        run(&mut f);
        let text = print_function(&f);
        assert!(text.contains("ret 0"), "{text}");
        assert_eq!(f.num_live_insts(), 0);
    }

    #[test]
    fn folds_comparisons() {
        let mut b = FunctionBuilder::with_params("f", &[], Type::Bool);
        let c = b.cmp(
            CmpPred::Slt,
            Operand::int(Type::I32, -5),
            Operand::int(Type::I32, 3),
        );
        b.ret(c);
        let mut f = b.finish();
        run(&mut f);
        let text = print_function(&f);
        assert!(text.contains("ret true"), "{text}");
    }

    #[test]
    fn does_not_fold_division_by_zero() {
        let mut b = FunctionBuilder::with_params("f", &[], Type::I32);
        let d = b.sdiv(Operand::int(Type::I32, 10), Operand::int(Type::I32, 0));
        b.ret(d);
        let mut f = b.finish();
        let n = run(&mut f);
        assert_eq!(n, 0);
        assert!(print_function(&f).contains("sdiv"));
    }

    #[test]
    fn folds_extensions_with_sign() {
        let mut b = FunctionBuilder::with_params("f", &[], Type::I64);
        let z = b.zext(Operand::int(Type::I32, -1), Type::I64);
        let s = b.sext(Operand::int(Type::I32, -1), Type::I64);
        let diff = b.sub(s, z);
        b.ret(diff);
        let mut f = b.finish();
        run(&mut f);
        let text = print_function(&f);
        // sext(-1) - zext(-1) = -1 - 0xFFFFFFFF = -(2^32)
        assert!(text.contains(&format!("ret {}", -(1i64 << 32))), "{text}");
    }

    #[test]
    fn same_operand_comparison_folds() {
        let mut b = FunctionBuilder::with_params("f", &[("x", Type::I32)], Type::Bool);
        let x = b.param(0);
        let c = b.cmp(CmpPred::Ult, x, x);
        b.ret(c);
        let mut f = b.finish();
        run(&mut f);
        assert!(print_function(&f).contains("ret false"));
    }
}
