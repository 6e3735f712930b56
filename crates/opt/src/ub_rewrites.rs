//! Optimizations that exploit undefined behavior.
//!
//! Each rewrite here is one of the "aggressive" optimizations surveyed in
//! §2 of the paper: it is only sound under the assumption that the program
//! never triggers undefined behavior, and each one can silently discard a
//! sanity check the programmer intended to keep. The rewrites are
//! individually selectable so that [`crate::profile::CompilerProfile`] can
//! model which real compiler performs which rewrite at which `-O` level
//! (Figure 4).

use stack_ir::{
    BinOp, BlockId, Cfg, CmpPred, DomTree, Function, InstId, InstKind, Operand, Origin,
};

/// The individual UB-exploiting rewrites.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UbRewrite {
    /// `p + C < p` with a non-negative offset folds to `false`
    /// (no pointer overflow; Figure 1 / §2.2 example 1).
    PointerOverflowConst,
    /// `p + x < p` with a signed offset rewrites to `x < 0`
    /// (the FFmpeg bounds check of Figure 12).
    PointerOverflowAlgebra,
    /// A null check on a pointer that a dominating instruction already
    /// dereferenced (or that is the result of pointer arithmetic) folds away
    /// (Figure 2 / §2.2 example 2, Figure 11).
    NullCheckElim,
    /// `x + C < x` for signed `x` and positive constant `C` folds to `false`
    /// (§2.2 example 3).
    SignedOverflowConst,
    /// Value-range reasoning on signed arithmetic: with `x` known positive
    /// from a dominating branch, `x + C < 0` folds to `false`; with `k` known
    /// negative, `-k >= 0` folds to `true` (§2.2 example 4, Figure 13).
    SignedOverflowRange,
    /// `(C << x) == 0` with a non-zero constant folds to `false`
    /// (§2.2 example 5, the ext4 patch \[31]).
    ShiftFold,
    /// `abs(x) < 0` folds to `false` (§2.2 example 6, the PHP check \[18]).
    AbsFold,
}

impl UbRewrite {
    /// All rewrites, in a stable order.
    pub fn all() -> &'static [UbRewrite] {
        &[
            UbRewrite::PointerOverflowConst,
            UbRewrite::PointerOverflowAlgebra,
            UbRewrite::NullCheckElim,
            UbRewrite::SignedOverflowConst,
            UbRewrite::SignedOverflowRange,
            UbRewrite::ShiftFold,
            UbRewrite::AbsFold,
        ]
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            UbRewrite::PointerOverflowConst => "pointer overflow (constant offset)",
            UbRewrite::PointerOverflowAlgebra => "pointer overflow (algebraic)",
            UbRewrite::NullCheckElim => "null check elimination",
            UbRewrite::SignedOverflowConst => "signed overflow (constant)",
            UbRewrite::SignedOverflowRange => "signed overflow (value range)",
            UbRewrite::ShiftFold => "oversized shift",
            UbRewrite::AbsFold => "absolute value overflow",
        }
    }
}

/// A record of one UB-based optimization applied to the IR.
#[derive(Clone, Debug)]
pub struct OptEvent {
    pub rewrite: UbRewrite,
    pub origin: Origin,
    pub description: String,
}

/// Apply the enabled rewrites to a function. Returns one event per rewrite
/// applied (a check rewritten to a constant or a simpler expression).
pub fn run(func: &mut Function, enabled: &[UbRewrite]) -> Vec<OptEvent> {
    let mut events = Vec::new();
    if enabled.is_empty() {
        return events;
    }
    // A rewrite replaces or rewrites one comparison and never changes the
    // CFG, so one dominator tree serves every round. Each round rescans from
    // the top, because the rewrite may enable one earlier in block order.
    let cfg = Cfg::compute(func);
    let dt = DomTree::compute(func, &cfg);
    while let Some((block, index, (replacement, rewrite, desc))) =
        find_rewrite(func, &cfg, &dt, enabled)
    {
        let inst = func.block(block).insts[index];
        events.push(OptEvent {
            rewrite,
            origin: func.inst(inst).origin.clone(),
            description: desc,
        });
        match replacement {
            Replacement::Value(op) => {
                let from = Operand::Inst(inst);
                func.detach_insts(|i| i == inst);
                func.map_operands(|o| if o == from { op } else { o });
            }
            Replacement::NewCmp { pred, lhs, rhs } => {
                func.inst_mut(inst).kind = InstKind::Cmp { pred, lhs, rhs };
            }
        }
    }
    events
}

/// The first instruction, in block order, that an enabled rewrite applies
/// to: its block, its index there, and the rewrite.
fn find_rewrite(
    func: &Function,
    cfg: &Cfg,
    dt: &DomTree,
    enabled: &[UbRewrite],
) -> Option<(BlockId, usize, (Replacement, UbRewrite, String))> {
    for block in func.block_ids().filter(|&b| cfg.is_reachable(b)) {
        for (index, &inst) in func.block(block).insts.iter().enumerate() {
            if let Some(found) = try_rewrite(func, dt, block, index, inst, enabled) {
                return Some((block, index, found));
            }
        }
    }
    None
}

enum Replacement {
    /// Replace the instruction's result with an operand and delete it.
    Value(Operand),
    /// Rewrite the comparison in place.
    NewCmp {
        pred: CmpPred,
        lhs: Operand,
        rhs: Operand,
    },
}

fn try_rewrite(
    func: &Function,
    dt: &DomTree,
    block: BlockId,
    index: usize,
    inst: InstId,
    enabled: &[UbRewrite],
) -> Option<(Replacement, UbRewrite, String)> {
    let on = |r: UbRewrite| enabled.contains(&r);
    let InstKind::Cmp { pred, lhs, rhs } = func.inst(inst).kind.clone() else {
        return None;
    };

    // --- Pointer overflow: (p + off) < p ------------------------------------
    if matches!(pred, CmpPred::Ult | CmpPred::Uge) {
        if let Some((base, offset)) = as_ptr_add(func, lhs) {
            if rhs == base {
                let is_lt = pred == CmpPred::Ult;
                // Non-negative offset: the check folds to a constant.
                if on(UbRewrite::PointerOverflowConst) && offset_known_nonnegative(func, offset) {
                    return Some((
                        Replacement::Value(Operand::bool(!is_lt)),
                        UbRewrite::PointerOverflowConst,
                        "pointer overflow check folded to a constant".to_string(),
                    ));
                }
                // Signed offset: rewrite `p + x < p` into `x < 0`.
                if on(UbRewrite::PointerOverflowAlgebra) {
                    if let Some(x) = as_sext_source(func, offset) {
                        let zero = Operand::int(func.operand_type(x), 0);
                        let new_pred = if is_lt { CmpPred::Slt } else { CmpPred::Sge };
                        return Some((
                            Replacement::NewCmp {
                                pred: new_pred,
                                lhs: x,
                                rhs: zero,
                            },
                            UbRewrite::PointerOverflowAlgebra,
                            "pointer overflow check rewritten to a sign test".to_string(),
                        ));
                    }
                }
            }
        }
    }

    // --- Null check elimination ---------------------------------------------
    if on(UbRewrite::NullCheckElim) && matches!(pred, CmpPred::Eq | CmpPred::Ne) {
        let (ptr, _) = if rhs.is_const_value(0) && func.operand_type(lhs).is_ptr() {
            (lhs, rhs)
        } else if lhs.is_const_value(0) && func.operand_type(rhs).is_ptr() {
            (rhs, lhs)
        } else {
            (Operand::bool(false), Operand::bool(false))
        };
        if func.operand_type(ptr).is_ptr() {
            let nonnull = pointer_known_nonnull(func, dt, block, index, ptr);
            if nonnull {
                let result = pred == CmpPred::Ne;
                return Some((
                    Replacement::Value(Operand::bool(result)),
                    UbRewrite::NullCheckElim,
                    "null pointer check folded to a constant".to_string(),
                ));
            }
        }
    }

    // --- Signed overflow: x + C < x ------------------------------------------
    if on(UbRewrite::SignedOverflowConst) && matches!(pred, CmpPred::Slt | CmpPred::Sge) {
        if let Some((x, c)) = as_add_with_const(func, lhs) {
            if rhs == x && c > 0 {
                let result = pred == CmpPred::Sge;
                return Some((
                    Replacement::Value(Operand::bool(result)),
                    UbRewrite::SignedOverflowConst,
                    format!("signed overflow check `x + {c} < x` folded"),
                ));
            }
        }
        // Symmetric form: x > x + C.
        if let Some((x, c)) = as_add_with_const(func, rhs) {
            if lhs == x && c > 0 && pred == CmpPred::Slt {
                // x < x + C is always true without overflow.
                return Some((
                    Replacement::Value(Operand::bool(true)),
                    UbRewrite::SignedOverflowConst,
                    format!("signed comparison `x < x + {c}` folded"),
                ));
            }
        }
    }

    // --- Signed overflow with value-range reasoning ---------------------------
    if on(UbRewrite::SignedOverflowRange) {
        // x known positive: x + C < 0 is false (C >= 0).
        if matches!(pred, CmpPred::Slt | CmpPred::Sge) && rhs.is_const_value(0) {
            if let Some((x, c)) = as_add_with_const(func, lhs) {
                if c >= 0 && known_positive(func, dt, block, x) {
                    let result = pred == CmpPred::Sge;
                    return Some((
                        Replacement::Value(Operand::bool(result)),
                        UbRewrite::SignedOverflowRange,
                        "signed overflow check on known-positive value folded".to_string(),
                    ));
                }
            }
            // k known negative: -k >= 0 is true (Figure 13).
            if let Some(k) = as_negation(func, lhs) {
                if known_negative(func, dt, block, k) {
                    let result = pred == CmpPred::Sge;
                    return Some((
                        Replacement::Value(Operand::bool(result)),
                        UbRewrite::SignedOverflowRange,
                        "negation of known-negative value assumed non-negative".to_string(),
                    ));
                }
            }
        }
    }

    // --- Oversized shift: (C << x) == 0 ----------------------------------------
    if on(UbRewrite::ShiftFold)
        && matches!(pred, CmpPred::Eq | CmpPred::Ne)
        && rhs.is_const_value(0)
    {
        if let Operand::Inst(id) = lhs {
            if let InstKind::Bin {
                op: BinOp::Shl,
                lhs: shl_lhs,
                ..
            } = func.inst(id).kind
            {
                if let Some(c) = shl_lhs.as_const() {
                    if c.bits != 0 {
                        let result = pred == CmpPred::Ne;
                        return Some((
                            Replacement::Value(Operand::bool(result)),
                            UbRewrite::ShiftFold,
                            "shift-based check folded assuming an in-range shift amount"
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }

    // --- abs(x) < 0 ---------------------------------------------------------------
    if on(UbRewrite::AbsFold)
        && matches!(pred, CmpPred::Slt | CmpPred::Sge)
        && rhs.is_const_value(0)
    {
        if let Operand::Inst(id) = lhs {
            if let InstKind::Call { callee, .. } = &func.inst(id).kind {
                if callee == "abs" || callee == "labs" || callee == "llabs" {
                    let result = pred == CmpPred::Sge;
                    return Some((
                        Replacement::Value(Operand::bool(result)),
                        UbRewrite::AbsFold,
                        "abs() result assumed non-negative".to_string(),
                    ));
                }
            }
        }
    }

    None
}

/// If the operand is a `ptradd`, return its base pointer and offset.
fn as_ptr_add(func: &Function, op: Operand) -> Option<(Operand, Operand)> {
    if let Operand::Inst(id) = op {
        if let InstKind::PtrAdd { ptr, offset, .. } = func.inst(id).kind {
            return Some((ptr, offset));
        }
    }
    None
}

/// Whether an offset operand is provably non-negative: a non-negative
/// constant or a zero-extension (the lowering of an unsigned index).
fn offset_known_nonnegative(func: &Function, offset: Operand) -> bool {
    if let Some(c) = offset.as_const() {
        return c.as_signed() >= 0;
    }
    if let Operand::Inst(id) = offset {
        return matches!(func.inst(id).kind, InstKind::ZExt { .. });
    }
    false
}

/// If the operand is a sign-extension, return the original value; otherwise
/// return the operand itself if its type is a (signed-width) integer.
fn as_sext_source(func: &Function, offset: Operand) -> Option<Operand> {
    if let Operand::Inst(id) = offset {
        if let InstKind::SExt { value, .. } = func.inst(id).kind {
            return Some(value);
        }
    }
    if func.operand_type(offset).is_int() {
        return Some(offset);
    }
    None
}

/// If the operand is `add x, C`, return `(x, C)`.
fn as_add_with_const(func: &Function, op: Operand) -> Option<(Operand, i64)> {
    if let Operand::Inst(id) = op {
        if let InstKind::Bin {
            op: BinOp::Add,
            lhs,
            rhs,
        } = func.inst(id).kind
        {
            if let Some(c) = rhs.as_const() {
                return Some((lhs, c.as_signed()));
            }
            if let Some(c) = lhs.as_const() {
                return Some((rhs, c.as_signed()));
            }
        }
    }
    None
}

/// If the operand is `0 - k` (negation), return `k`.
fn as_negation(func: &Function, op: Operand) -> Option<Operand> {
    if let Operand::Inst(id) = op {
        if let InstKind::Bin {
            op: BinOp::Sub,
            lhs,
            rhs,
        } = func.inst(id).kind
        {
            if lhs.is_const_value(0) {
                return Some(rhs);
            }
        }
    }
    None
}

/// Whether a pointer is known non-null at the instruction at `index` in
/// `block`: either a dominating load/store dereferences it, or it is itself
/// the result of pointer arithmetic on some object.
fn pointer_known_nonnull(
    func: &Function,
    dt: &DomTree,
    block: BlockId,
    index: usize,
    ptr: Operand,
) -> bool {
    // Pointer arithmetic results cannot be null without pointer overflow.
    if let Operand::Inst(id) = ptr {
        if matches!(func.inst(id).kind, InstKind::PtrAdd { .. })
            || matches!(func.inst(id).kind, InstKind::Alloca { .. })
        {
            return true;
        }
    }
    // A dominating dereference of the same pointer implies it is non-null.
    let inst = func.block(block).insts[index];
    for d in dt.dominating_insts(func, block, index) {
        if d == inst {
            continue;
        }
        match &func.inst(d).kind {
            InstKind::Load { ptr: p, .. } | InstKind::Store { ptr: p, .. } if *p == ptr => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Whether a dominating branch constrains `x` to be strictly positive (or
/// non-negative combined with a non-zero constant offset, which is all the
/// §2.2 example needs).
fn known_positive(func: &Function, dt: &DomTree, block: BlockId, x: Operand) -> bool {
    branch_implies(func, dt, block, x, |pred, c, on_true| {
        match (pred, on_true) {
            (CmpPred::Sgt, true) => c >= 0,  // x > c, c >= 0
            (CmpPred::Sge, true) => c >= 1,  // x >= c, c >= 1
            (CmpPred::Slt, false) => c <= 0, // !(x < c), c <= 0 -> x >= 0 (weak, accept c<=0)
            (CmpPred::Sle, false) => c >= 0, // !(x <= c) -> x > c
            _ => false,
        }
    })
}

/// Whether a dominating branch constrains `x` to be strictly negative.
fn known_negative(func: &Function, dt: &DomTree, block: BlockId, x: Operand) -> bool {
    branch_implies(func, dt, block, x, |pred, c, on_true| {
        match (pred, on_true) {
            (CmpPred::Slt, true) => c <= 0,  // x < c, c <= 0
            (CmpPred::Sle, true) => c <= -1, // x <= c, c <= -1
            (CmpPred::Sge, false) => c <= 0, // !(x >= c), c <= 0
            (CmpPred::Sgt, false) => c <= -1,
            _ => false,
        }
    })
}

/// Walk the dominating conditional branches of `block`; return true if any
/// branch comparing `x` against a constant implies the property decided by
/// `check(pred, constant, branch_taken_on_true_edge)`.
fn branch_implies(
    func: &Function,
    dt: &DomTree,
    block: BlockId,
    x: Operand,
    check: impl Fn(CmpPred, i64, bool) -> bool,
) -> bool {
    for d in dt.dominators(block) {
        if d == block {
            continue;
        }
        let stack_ir::Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } = func.block(d).terminator
        else {
            continue;
        };
        if then_bb == else_bb {
            continue;
        }
        let Operand::Inst(cid) = cond else { continue };
        let InstKind::Cmp { pred, lhs, rhs } = func.inst(cid).kind else {
            continue;
        };
        // Normalize to (x pred' const).
        let (pred, constant) = if lhs == x {
            match rhs.as_const() {
                Some(c) => (pred, c.as_signed()),
                None => continue,
            }
        } else if rhs == x {
            match lhs.as_const() {
                Some(c) => (pred.swapped(), c.as_signed()),
                None => continue,
            }
        } else {
            continue;
        };
        // Which edge leads (dominator-wise) to our block?
        let on_true = dt.dominates(then_bb, block) && !dt.dominates(else_bb, block);
        let on_false = dt.dominates(else_bb, block) && !dt.dominates(then_bb, block);
        if on_true && check(pred, constant, true) {
            return true;
        }
        if on_false && check(pred, constant, false) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dce, mem2reg, simplify, simplifycfg};
    use stack_ir::{print_function, verify_function, Module};
    use stack_minic::compile;

    /// Compile, promote to SSA, apply the given rewrites, and clean up.
    fn optimize(src: &str, fname: &str, rewrites: &[UbRewrite]) -> (Function, Vec<OptEvent>) {
        let mut m: Module = compile(src, "t.c").unwrap();
        let f = m.function_mut(fname).unwrap();
        mem2reg::run(f);
        simplify::run(f);
        let events = run(f, rewrites);
        simplify::run(f);
        simplifycfg::run(f);
        dce::run(f);
        verify_function(f).unwrap_or_else(|e| panic!("{e:?}\n{}", print_function(f)));
        (f.clone(), events)
    }

    const EX1: &str = "int f(char *p) { if (p + 100 < p) return 1; return 0; }";
    const EX2: &str = "int f(int *p) { int v = *p; if (!p) return 1; return v; }";
    const EX3: &str = "int f(int x) { if (x + 100 < x) return 1; return 0; }";
    const EX4: &str = "int f(int x) { if (x > 0) { if (x + 100 < 0) return 1; } return 0; }";
    const EX5: &str = "int f(int x) { if (!(1 << x)) return 1; return 0; }";
    const EX6: &str = "int f(int x) { if (abs(x) < 0) return 1; return 0; }";

    #[test]
    fn pointer_overflow_constant_folds_check() {
        let (f, events) = optimize(EX1, "f", &[UbRewrite::PointerOverflowConst]);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rewrite, UbRewrite::PointerOverflowConst);
        // The `return 1` branch is gone.
        let text = print_function(&f);
        assert!(!text.contains("ret 1"), "{text}");
        // Without the rewrite the check stays.
        let (f2, events2) = optimize(EX1, "f", &[]);
        assert!(events2.is_empty());
        assert!(print_function(&f2).contains("icmp"));
    }

    #[test]
    fn null_check_after_dereference_folds() {
        let (f, events) = optimize(EX2, "f", &[UbRewrite::NullCheckElim]);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rewrite, UbRewrite::NullCheckElim);
        let text = print_function(&f);
        assert!(!text.contains("ret 1"), "{text}");
        // Without a prior dereference the check must stay.
        let (_, events2) = optimize(
            "int f(int *p) { if (!p) return 1; return 0; }",
            "f",
            &[UbRewrite::NullCheckElim],
        );
        assert!(events2.is_empty());
    }

    #[test]
    fn signed_overflow_constant_folds() {
        let (f, events) = optimize(EX3, "f", &[UbRewrite::SignedOverflowConst]);
        assert_eq!(events.len(), 1);
        assert!(!print_function(&f).contains("ret 1"));
        // The unsigned variant must NOT fold (wraparound is defined).
        let (_, events2) = optimize(
            "int f(unsigned int x) { if (x + 100 < x) return 1; return 0; }",
            "f",
            UbRewrite::all(),
        );
        assert!(
            events2
                .iter()
                .all(|e| e.rewrite != UbRewrite::SignedOverflowConst),
            "unsigned wraparound check must not be folded: {events2:?}"
        );
    }

    #[test]
    fn value_range_reasoning_folds_positive_case() {
        let (f, events) = optimize(EX4, "f", &[UbRewrite::SignedOverflowRange]);
        assert_eq!(events.len(), 1, "{}", print_function(&f));
        assert_eq!(events[0].rewrite, UbRewrite::SignedOverflowRange);
        // Without the range rewrite, nothing happens.
        let (_, events2) = optimize(EX4, "f", &[UbRewrite::SignedOverflowConst]);
        assert!(events2.is_empty());
    }

    #[test]
    fn plan9_negation_check_folds_with_range_reasoning() {
        let src = "int f(int k) { if (k < 0) { if (-k >= 0) return 1; return 2; } return 0; }";
        let (f, events) = optimize(src, "f", &[UbRewrite::SignedOverflowRange]);
        assert_eq!(events.len(), 1, "{}", print_function(&f));
        // After folding, the `return 2` path (the INT_MIN handler) is gone.
        assert!(!print_function(&f).contains("ret 2"));
    }

    #[test]
    fn shift_check_folds() {
        let (f, events) = optimize(EX5, "f", &[UbRewrite::ShiftFold]);
        assert_eq!(events.len(), 1);
        assert!(!print_function(&f).contains("ret 1"));
    }

    #[test]
    fn abs_check_folds() {
        let (f, events) = optimize(EX6, "f", &[UbRewrite::AbsFold]);
        assert_eq!(events.len(), 1);
        assert!(!print_function(&f).contains("ret 1"));
    }

    #[test]
    fn ffmpeg_bounds_check_rewritten_algebraically() {
        let src = "int f(char *data, char *data_end, int size) {\n\
                     if (data + size >= data_end || data + size < data) return -1;\n\
                     return 0;\n\
                   }";
        let (f, events) = optimize(src, "f", &[UbRewrite::PointerOverflowAlgebra]);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rewrite, UbRewrite::PointerOverflowAlgebra);
        // The rewritten check compares size against 0 instead of the pointer.
        let text = print_function(&f);
        assert!(
            text.contains("icmp slt %arg2, 0") || text.contains("icmp sge %arg2, 0"),
            "{text}"
        );
    }

    #[test]
    fn stable_code_is_untouched_by_all_rewrites() {
        let src =
            "int f(int x, int y) { if (x < y) return 1; if (y != 0) return x / y; return 0; }";
        let (_, events) = optimize(src, "f", UbRewrite::all());
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn strchr_plus_one_null_check_folds_as_ptr_arith() {
        // Figure 11: nodep = strchr(buf, '.') + 1; if (!nodep) ...
        let src = "int parse(char *buf) {\n\
                     char *nodep = strchr(buf, '.') + 1;\n\
                     if (!nodep) return -5;\n\
                     return 0;\n\
                   }";
        let (f, events) = optimize(src, "parse", &[UbRewrite::NullCheckElim]);
        assert_eq!(events.len(), 1, "{}", print_function(&f));
        assert!(!print_function(&f).contains("ret -5"));
    }
}
