//! Dead code elimination: removes instructions whose results are unused and
//! which have no side effects.

use stack_ir::{Function, InstId, Operand};
use std::collections::HashSet;

/// Run DCE on a function. Returns the number of instructions removed.
pub fn run(func: &mut Function) -> usize {
    run_impl(func, false)
}

/// DCE variant that keeps memory loads even when their results are unused.
/// The checker's analysis pipeline uses this: dereferences are sources of
/// undefined-behavior conditions (null pointer dereference, Figure 3) and
/// must stay visible to the UB-condition insertion stage.
pub fn run_keeping_loads(func: &mut Function) -> usize {
    run_impl(func, true)
}

fn run_impl(func: &mut Function, keep_loads: bool) -> usize {
    let mut removed_total = 0;
    loop {
        // Collect all used instruction results.
        let mut used: HashSet<InstId> = HashSet::new();
        for (_, i) in func.all_insts() {
            for op in func.inst(i).kind.operands() {
                if let Operand::Inst(id) = op {
                    used.insert(id);
                }
            }
        }
        for b in func.block_ids() {
            for op in func.block(b).terminator.operands() {
                if let Operand::Inst(id) = op {
                    used.insert(id);
                }
            }
        }
        // Remove unused, side-effect-free instructions.
        let mut to_remove: Vec<InstId> = Vec::new();
        for (_, i) in func.all_insts() {
            let inst = func.inst(i);
            if keep_loads && inst.kind.is_memory_access() {
                continue;
            }
            if !used.contains(&i) && !inst.kind.has_side_effects() {
                to_remove.push(i);
            }
        }
        if to_remove.is_empty() {
            break;
        }
        removed_total += to_remove.len();
        for i in to_remove {
            func.remove_inst(i);
        }
    }
    removed_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack_ir::{CmpPred, FunctionBuilder, Operand, Type};

    #[test]
    fn removes_unused_chains() {
        let mut b = FunctionBuilder::with_params("f", &[("x", Type::I32)], Type::I32);
        let x = b.param(0);
        let dead1 = b.add(x, Operand::int(Type::I32, 1));
        let _dead2 = b.mul(dead1, Operand::int(Type::I32, 2));
        let live = b.add(x, Operand::int(Type::I32, 5));
        b.ret(live);
        let mut f = b.finish();
        assert_eq!(f.num_live_insts(), 3);
        let removed = run(&mut f);
        assert_eq!(removed, 2);
        assert_eq!(f.num_live_insts(), 1);
    }

    #[test]
    fn keeps_side_effects_and_terminator_uses() {
        let mut b = FunctionBuilder::with_params("f", &[("p", Type::Ptr)], Type::Void);
        let p = b.param(0);
        b.store(p, Operand::int(Type::I32, 1)); // side effect, unused result
        let cmp = b.cmp(CmpPred::Eq, p, Operand::null());
        let t = b.add_block("t");
        let e = b.add_block("e");
        b.cond_br(cmp, t, e);
        b.switch_to(t);
        b.ret_void();
        b.switch_to(e);
        b.ret_void();
        let mut f = b.finish();
        let removed = run(&mut f);
        assert_eq!(removed, 0);
        assert_eq!(f.num_live_insts(), 2);
    }
}
