//! Undefined-behavior conditions (Figure 3 of the paper).
//!
//! For every IR instruction that can exhibit undefined behavior, this module
//! produces a [`UbCondition`]: the kind of UB, the instruction it attaches
//! to, and a solver term that is true exactly when that UB is triggered
//! (under the C semantics of the construct). The checker's well-defined
//! program assumption Δ is the conjunction of the negations of these terms
//! over the dominators of the fragment under analysis.

use crate::encoder::FunctionEncoder;
use serde::Serialize;
use stack_ir::{BinOp, BlockId, Function, InstId, InstKind, Operand};
use stack_solver::TermId;

/// The kinds of undefined behavior modeled by the checker, matching the rows
/// of Figure 3 (plus the breakdown used in Figures 9 and 18).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize)]
pub enum UbKind {
    PointerOverflow,
    NullPointerDereference,
    SignedIntegerOverflow,
    DivisionByZero,
    OversizedShift,
    BufferOverflow,
    AbsoluteValueOverflow,
    OverlappingMemcpy,
    UseAfterFree,
    UseAfterRealloc,
}

impl UbKind {
    /// All kinds, in the order the paper's tables list them.
    pub fn all() -> &'static [UbKind] {
        &[
            UbKind::PointerOverflow,
            UbKind::NullPointerDereference,
            UbKind::SignedIntegerOverflow,
            UbKind::DivisionByZero,
            UbKind::OversizedShift,
            UbKind::BufferOverflow,
            UbKind::AbsoluteValueOverflow,
            UbKind::OverlappingMemcpy,
            UbKind::UseAfterFree,
            UbKind::UseAfterRealloc,
        ]
    }

    /// Short column label as used in Figure 9.
    pub fn short_name(self) -> &'static str {
        match self {
            UbKind::PointerOverflow => "pointer",
            UbKind::NullPointerDereference => "null",
            UbKind::SignedIntegerOverflow => "integer",
            UbKind::DivisionByZero => "div",
            UbKind::OversizedShift => "shift",
            UbKind::BufferOverflow => "buffer",
            UbKind::AbsoluteValueOverflow => "abs",
            UbKind::OverlappingMemcpy => "memcpy",
            UbKind::UseAfterFree => "free",
            UbKind::UseAfterRealloc => "realloc",
        }
    }

    /// Human-readable description.
    pub fn description(self) -> &'static str {
        match self {
            UbKind::PointerOverflow => "pointer overflow",
            UbKind::NullPointerDereference => "null pointer dereference",
            UbKind::SignedIntegerOverflow => "signed integer overflow",
            UbKind::DivisionByZero => "division by zero",
            UbKind::OversizedShift => "oversized shift",
            UbKind::BufferOverflow => "buffer overflow",
            UbKind::AbsoluteValueOverflow => "absolute value overflow",
            UbKind::OverlappingMemcpy => "overlapping memory copy",
            UbKind::UseAfterFree => "use after free",
            UbKind::UseAfterRealloc => "use after realloc",
        }
    }
}

/// One undefined-behavior condition attached to an instruction (whose
/// origin locates it in reports).
#[derive(Clone, Debug)]
pub struct UbCondition {
    pub kind: UbKind,
    pub inst: InstId,
    pub block: BlockId,
    /// Term that is true iff executing the instruction triggers this UB.
    pub term: TermId,
}

/// Collect the UB conditions of every instruction in a function, in the
/// spirit of the paper's `bug_on` insertion stage (§4.3).
pub fn collect_ub_conditions(func: &Function, enc: &mut FunctionEncoder<'_>) -> Vec<UbCondition> {
    let mut out = Vec::new();
    // Pointers already passed to free()/realloc(), with the instruction that
    // released them, for the use-after-free/realloc conditions.
    let mut freed: Vec<(Operand, InstId)> = Vec::new();
    let mut reallocated: Vec<(Operand, InstId)> = Vec::new();

    for (block, inst_id) in func.all_insts() {
        if !enc.cfg.is_reachable(block) {
            continue;
        }
        let inst = func.inst(inst_id);
        let push = |kind: UbKind, term: TermId, out: &mut Vec<UbCondition>| {
            out.push(UbCondition {
                kind,
                inst: inst_id,
                block,
                term,
            });
        };
        match &inst.kind {
            InstKind::Bin { op, lhs, rhs } => {
                let lhs_term = enc.bv_term(*lhs);
                let width = enc.pool.width(lhs_term).max(1);
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul if inst.nsw => {
                        let term = signed_overflow_term(enc, *op, *lhs, *rhs);
                        push(UbKind::SignedIntegerOverflow, term, &mut out);
                    }
                    BinOp::UDiv | BinOp::URem => {
                        let y = enc.bv_term(*rhs);
                        let zero = enc.pool.bv_const(width, 0);
                        let term = enc.pool.eq(y, zero);
                        push(UbKind::DivisionByZero, term, &mut out);
                    }
                    BinOp::SDiv | BinOp::SRem => {
                        let x = enc.bv_term(*lhs);
                        let y = enc.bv_term(*rhs);
                        let zero = enc.pool.bv_const(width, 0);
                        let div0 = enc.pool.eq(y, zero);
                        push(UbKind::DivisionByZero, div0, &mut out);
                        // INT_MIN / -1 overflows (the Figure 10 Postgres bug).
                        let int_min = enc.pool.bv_const(width, 1u64 << (width - 1));
                        let minus1 = enc.pool.bv_const(width, u64::MAX);
                        let x_min = enc.pool.eq(x, int_min);
                        let y_m1 = enc.pool.eq(y, minus1);
                        let ovf = enc.pool.and(x_min, y_m1);
                        push(UbKind::SignedIntegerOverflow, ovf, &mut out);
                    }
                    BinOp::Shl | BinOp::LShr | BinOp::AShr => {
                        let y = enc.bv_term(*rhs);
                        let zero = enc.pool.bv_const(width, 0);
                        let n = enc.pool.bv_const(width, u64::from(width));
                        let neg = enc.pool.bv_slt(y, zero);
                        let big = enc.pool.bv_uge(y, n);
                        let term = enc.pool.or(neg, big);
                        push(UbKind::OversizedShift, term, &mut out);
                    }
                    _ => {}
                }
            }
            InstKind::PtrAdd {
                ptr,
                offset,
                elem_size,
                bound,
            } => {
                // Pointer overflow: p + off wraps past either end of the
                // address space (Figure 3's p∞ + x∞ ∉ [0, 2^n - 1]).
                let p = enc.bv_term(*ptr);
                let off = enc.scaled_offset(*offset, *elem_size);
                let sum = enc.pool.bv_add(p, off);
                let zero64 = enc.pool.bv_const(64, 0);
                let nonneg = enc.pool.bv_sge(off, zero64);
                let wrap_up = enc.pool.bv_ult(sum, p);
                let wrap_down = enc.pool.bv_ugt(sum, p);
                let term = enc.pool.ite(nonneg, wrap_up, wrap_down);
                push(UbKind::PointerOverflow, term, &mut out);
                // Buffer overflow for indexing into an array of known bound.
                if let Some(b) = bound {
                    let idx = enc.index_term(*offset);
                    let zero = enc.pool.bv_const(64, 0);
                    let limit = enc.pool.bv_const(64, *b);
                    let neg = enc.pool.bv_slt(idx, zero);
                    let over = enc.pool.bv_sge(idx, limit);
                    let term = enc.pool.or(neg, over);
                    push(UbKind::BufferOverflow, term, &mut out);
                }
            }
            InstKind::Load { ptr, .. } | InstKind::Store { ptr, .. } => {
                let p = enc.bv_term(*ptr);
                let null = enc.pool.bv_const(64, 0);
                let term = enc.pool.eq(p, null);
                push(UbKind::NullPointerDereference, term, &mut out);
                // Use after free / realloc: a dominating release of the same
                // pointer value makes this access undefined.
                for (released, rel_inst) in &freed {
                    if released == ptr && dominates_inst(enc, *rel_inst, inst_id) {
                        let term = enc.pool.bool_const(true);
                        push(UbKind::UseAfterFree, term, &mut out);
                    }
                }
                for (released, rel_inst) in &reallocated {
                    if released == ptr && dominates_inst(enc, *rel_inst, inst_id) {
                        // Undefined only if realloc succeeded (returned non-null).
                        let result = enc.bv_term(Operand::Inst(*rel_inst));
                        let null = enc.pool.bv_const(64, 0);
                        let term = enc.pool.ne(result, null);
                        push(UbKind::UseAfterRealloc, term, &mut out);
                    }
                }
            }
            InstKind::Call { callee, args, .. } => match callee.as_str() {
                "abs" | "labs" | "llabs" if args.len() == 1 => {
                    let x = enc.bv_term(args[0]);
                    let width = enc.pool.width(x);
                    let int_min = enc.pool.bv_const(width, 1u64 << (width - 1));
                    let term = enc.pool.eq(x, int_min);
                    push(UbKind::AbsoluteValueOverflow, term, &mut out);
                }
                "memcpy" if args.len() == 3 => {
                    let dst = enc.bv_term(args[0]);
                    let src = enc.bv_term(args[1]);
                    let len = enc.bv_term(args[2]);
                    let len64 = if enc.pool.width(len) < 64 {
                        enc.pool.zext(len, 64)
                    } else {
                        len
                    };
                    let d1 = enc.pool.bv_sub(dst, src);
                    let d2 = enc.pool.bv_sub(src, dst);
                    let ge = enc.pool.bv_uge(dst, src);
                    let dist = enc.pool.ite(ge, d1, d2);
                    let term = enc.pool.bv_ult(dist, len64);
                    push(UbKind::OverlappingMemcpy, term, &mut out);
                }
                "memset" if args.len() == 3 => {
                    // Passing a null pointer to memset is undefined even
                    // though no dereference is visible at the call site — the
                    // e1000e idiom (paper Table 1): `memset(es, 0, n)`
                    // followed by `if (!es)` lets the compiler delete the
                    // null check.
                    let dst = enc.bv_term(args[0]);
                    let null = enc.pool.bv_const(64, 0);
                    let term = enc.pool.eq(dst, null);
                    push(UbKind::NullPointerDereference, term, &mut out);
                }
                "free" if args.len() == 1 => freed.push((args[0], inst_id)),
                "realloc" if args.len() == 2 => reallocated.push((args[0], inst_id)),
                _ => {}
            },
            _ => {}
        }
    }
    out
}

/// Signed-overflow condition for `x op y` at the operand width, encoded
/// without widening.
///
/// With a constant addend (`x + k`, `k + x`) or subtrahend (`x − k`), the
/// condition is a signed bound on `x` built by
/// [`TermPool::signed_add_overflow`](stack_solver::TermPool::signed_add_overflow):
/// `x − k` overflows as `x + (−k)` does, except for `k = MIN`, where
/// `x − MIN` overflows exactly when `x ≥s 0`. `TermPool::bv_slt` rewrites
/// the §2.2 guard `x + k <s x` to the same bound, so the elimination query
/// clashes syntactically before it reaches the SAT core. Two-variable
/// operands and `Mul` keep the sign-comparison identities.
fn signed_overflow_term(
    enc: &mut FunctionEncoder<'_>,
    op: BinOp,
    lhs: Operand,
    rhs: Operand,
) -> TermId {
    let x = enc.bv_term(lhs);
    let y = enc.bv_term(rhs);
    let width = enc.pool.width(x);
    let zero = enc.pool.bv_const(width, 0);
    match (op, enc.pool.as_bv_const(x), enc.pool.as_bv_const(y)) {
        (BinOp::Add, _, Some(k)) => enc.pool.signed_add_overflow(x, k),
        (BinOp::Add, Some(k), _) => enc.pool.signed_add_overflow(y, k),
        (BinOp::Sub, _, Some(k)) => {
            let min = 1u64 << (width - 1);
            if k == min {
                let negative = enc.pool.signed_add_overflow(x, min);
                enc.pool.not(negative)
            } else {
                enc.pool.signed_add_overflow(x, k.wrapping_neg())
            }
        }
        (BinOp::Add, ..) => {
            // Overflow iff x and y have the same sign and the result differs.
            let sum = enc.pool.bv_add(x, y);
            let sx = enc.pool.bv_slt(x, zero);
            let sy = enc.pool.bv_slt(y, zero);
            let sr = enc.pool.bv_slt(sum, zero);
            let same = enc.pool.iff(sx, sy);
            let diff = enc.pool.xor(sx, sr);
            enc.pool.and(same, diff)
        }
        (BinOp::Sub, ..) => {
            // Overflow iff x and y have different signs and the result's sign
            // differs from x's.
            let diff_v = enc.pool.bv_sub(x, y);
            let sx = enc.pool.bv_slt(x, zero);
            let sy = enc.pool.bv_slt(y, zero);
            let sr = enc.pool.bv_slt(diff_v, zero);
            let signs_differ = enc.pool.xor(sx, sy);
            let result_differs = enc.pool.xor(sx, sr);
            enc.pool.and(signs_differ, result_differs)
        }
        (BinOp::Mul, ..) => {
            // y != 0 and (x*y)/y != x (division-based check; exact except for
            // a corner case involving INT_MIN which it conservatively flags).
            let prod = enc.pool.bv_mul(x, y);
            let y_nonzero = enc.pool.ne(y, zero);
            let q = enc.pool.bv_sdiv(prod, y);
            let mismatch = enc.pool.ne(q, x);
            enc.pool.and(y_nonzero, mismatch)
        }
        _ => enc.pool.bool_const(false),
    }
}

/// Whether instruction `a` dominates instruction `b`.
fn dominates_inst(enc: &FunctionEncoder<'_>, a: InstId, b: InstId) -> bool {
    let (Some((ba, pa)), Some((bb, pb))) = (enc.positions.get(a), enc.positions.get(b)) else {
        return false;
    };
    if ba == bb {
        pa < pb
    } else {
        enc.dom.dominates(ba, bb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack_opt::optimize_for_analysis;

    fn conditions(src: &str, fname: &str) -> Vec<UbKind> {
        let mut m = stack_minic::compile(src, "t.c").unwrap();
        optimize_for_analysis(&mut m);
        let func = m.function(fname).unwrap();
        let mut enc = FunctionEncoder::new(func);
        collect_ub_conditions(func, &mut enc)
            .into_iter()
            .map(|c| c.kind)
            .collect()
    }

    #[test]
    fn division_conditions() {
        let kinds = conditions("int f(int a, int b) { return a / b; }", "f");
        assert!(kinds.contains(&UbKind::DivisionByZero));
        assert!(kinds.contains(&UbKind::SignedIntegerOverflow));
        let kinds = conditions("unsigned f(unsigned a, unsigned b) { return a % b; }", "f");
        assert_eq!(kinds, vec![UbKind::DivisionByZero]);
    }

    #[test]
    fn signed_vs_unsigned_addition() {
        let signed_kinds = conditions("int f(int a, int b) { return a + b; }", "f");
        assert!(signed_kinds.contains(&UbKind::SignedIntegerOverflow));
        let unsigned_kinds =
            conditions("unsigned f(unsigned a, unsigned b) { return a + b; }", "f");
        assert!(!unsigned_kinds.contains(&UbKind::SignedIntegerOverflow));
    }

    #[test]
    fn constant_operand_overflow_conditions_agree_with_i8_arithmetic() {
        use stack_ir::{FunctionBuilder, Type};
        for k in -128i64..=127 {
            let mut b = FunctionBuilder::with_params("f", &[("x", Type::I8)], Type::I8);
            let x = b.param(0);
            let c = Operand::int(Type::I8, k);
            b.bin_nsw(BinOp::Add, x, c);
            b.bin_nsw(BinOp::Add, c, x);
            b.bin_nsw(BinOp::Sub, x, c);
            b.ret(x);
            let func = b.finish();
            let mut enc = FunctionEncoder::new(&func);
            let terms: Vec<TermId> = collect_ub_conditions(&func, &mut enc)
                .iter()
                .map(|c| c.term)
                .collect();
            assert_eq!(terms.len(), 3);
            let (ki, pool) = (k as i8, &enc.pool);
            for xi in i8::MIN..=i8::MAX {
                let holds: Vec<bool> = terms
                    .iter()
                    .map(|&t| pool.eval(t, &|_, _| xi as u8 as u64) != 0)
                    .collect();
                let expected = [
                    xi.checked_add(ki).is_none(),
                    ki.checked_add(xi).is_none(),
                    xi.checked_sub(ki).is_none(),
                ];
                assert_eq!(holds, expected, "x = {xi}, k = {ki}");
            }
        }
    }

    #[test]
    fn shift_pointer_and_memory_conditions() {
        let kinds = conditions("int f(int x, int s) { return x << s; }", "f");
        assert!(kinds.contains(&UbKind::OversizedShift));
        let kinds = conditions(
            "int f(char *p, int n) { if (p + n < p) return 1; return 0; }",
            "f",
        );
        assert!(kinds.contains(&UbKind::PointerOverflow));
        let kinds = conditions("int f(int *p) { return *p; }", "f");
        assert!(kinds.contains(&UbKind::NullPointerDereference));
        let kinds = conditions("int f(int i) { char buf[15]; return buf[i]; }", "f");
        assert!(kinds.contains(&UbKind::BufferOverflow));
    }

    #[test]
    fn library_conditions() {
        let kinds = conditions("int f(int x) { return abs(x); }", "f");
        assert!(kinds.contains(&UbKind::AbsoluteValueOverflow));
        let kinds = conditions(
            "void f(char *d, char *s, unsigned long n) { memcpy(d, s, n); }",
            "f",
        );
        assert!(kinds.contains(&UbKind::OverlappingMemcpy));
        let kinds = conditions("void f(char *d, unsigned long n) { memset(d, 0, n); }", "f");
        assert!(kinds.contains(&UbKind::NullPointerDereference));
    }

    #[test]
    fn use_after_free_and_realloc() {
        let kinds = conditions("int f(int *p) { free(p); return *p; }", "f");
        assert!(kinds.contains(&UbKind::UseAfterFree));
        let kinds = conditions(
            "int f(char *p, unsigned long n) { char *q = realloc(p, n); if (!q) return -1; return *p; }",
            "f",
        );
        assert!(kinds.contains(&UbKind::UseAfterRealloc));
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(UbKind::all().len(), 10);
        assert_eq!(UbKind::PointerOverflow.short_name(), "pointer");
        assert_eq!(
            UbKind::NullPointerDereference.description(),
            "null pointer dereference"
        );
    }
}
