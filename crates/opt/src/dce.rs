//! Dead code elimination: removes instructions whose results are unused and
//! which have no side effects.

use stack_ir::{Function, Operand};

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
        let mut used = vec![false; func.num_inst_slots()];
        let mut mark = |op: Operand| {
            if let Operand::Inst(id) = op {
                used[id.index()] = true;
            }
        };
        for b in func.block_ids() {
            let block = func.block(b);
            for &i in &block.insts {
                func.inst(i).kind.operands().for_each(&mut mark);
            }
            block.terminator.operand().into_iter().for_each(&mut mark);
        }
        // Remove unused, side-effect-free instructions.
        let mut dead = vec![false; func.num_inst_slots()];
        let mut count = 0;
        for b in func.block_ids() {
            for &i in &func.block(b).insts {
                let kind = &func.inst(i).kind;
                if keep_loads && kind.is_memory_access() {
                    continue;
                }
                if !used[i.index()] && !kind.has_side_effects() {
                    dead[i.index()] = true;
                    count += 1;
                }
            }
        }
        if count == 0 {
            break;
        }
        removed_total += count;
        func.detach_insts(|i| dead[i.index()]);
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
