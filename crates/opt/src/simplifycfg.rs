//! Control-flow simplification: folding branches on constant conditions and
//! cleaning up phi nodes that lose incoming edges.
//!
//! This is the pass that actually *discards* an unstable check once a UB
//! rewrite has folded its condition to a constant — the step that turns
//! "the compiler knows this check is always false" into "the check is gone
//! from the generated code" (paper §1, Figure 1).

use crate::replace::Replacements;
use stack_ir::{BlockId, Cfg, Function, InstKind, Terminator};

/// Run CFG simplification. Returns the number of branches folded.
pub fn run(func: &mut Function) -> usize {
    let mut folded = 0;
    loop {
        let mut changed = false;
        // Fold conditional branches on constants.
        for b in func.block_ids() {
            let term = func.block(b).terminator.clone();
            if let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } = term
            {
                if let Some(c) = cond.as_const() {
                    let (taken, not_taken) = if c.bits != 0 {
                        (then_bb, else_bb)
                    } else {
                        (else_bb, then_bb)
                    };
                    func.block_mut(b).terminator = Terminator::Br { target: taken };
                    if not_taken != taken {
                        remove_phi_incoming(func, not_taken, b);
                    }
                    folded += 1;
                    changed = true;
                } else if then_bb == else_bb {
                    func.block_mut(b).terminator = Terminator::Br { target: then_bb };
                    changed = true;
                }
            }
        }
        // Drop phi entries from blocks that became unreachable; a phi left
        // with one entry is replaced by its value.
        let cfg = Cfg::compute(func);
        let mut is_pred = vec![false; func.num_blocks()];
        let mut replacements = Replacements::new(func);
        let mut removed = vec![false; func.num_inst_slots()];
        for b in func.block_ids() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &p in cfg.preds(b) {
                is_pred[p.index()] = cfg.is_reachable(p);
            }
            for k in 0..func.block(b).insts.len() {
                let i = func.block(b).insts[k];
                if let InstKind::Phi { incomings } = &mut func.inst_mut(i).kind {
                    let before = incomings.len();
                    incomings.retain(|(p, _)| is_pred[p.index()]);
                    changed |= incomings.len() != before;
                    if let [(_, value)] = incomings[..] {
                        replacements.insert(i, replacements.resolve(value));
                        removed[i.index()] = true;
                        changed = true;
                    }
                }
            }
            for &p in cfg.preds(b) {
                is_pred[p.index()] = false;
            }
        }
        func.detach_insts(|i| removed[i.index()]);
        replacements.apply(func);
        // Delete the contents of unreachable blocks: this is the moment a
        // discarded check actually disappears from the generated code.
        for b in func.block_ids() {
            if cfg.is_reachable(b) {
                continue;
            }
            let block = func.block_mut(b);
            if block.insts.is_empty() && matches!(block.terminator, Terminator::Unreachable) {
                continue;
            }
            block.insts.clear();
            block.terminator = Terminator::Unreachable;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    folded
}

/// Remove the incoming edge from `pred` in all phis of `block`.
fn remove_phi_incoming(func: &mut Function, block: BlockId, pred: BlockId) {
    for &i in &func.block(block).insts.clone() {
        if let InstKind::Phi { incomings } = &mut func.inst_mut(i).kind {
            incomings.retain(|(p, _)| *p != pred);
        }
    }
}

/// Count the conditional branches whose condition is a constant (i.e. checks
/// that *would* be discarded). Used by the pipeline to detect discarded
/// sanity checks without destroying the IR first.
pub fn count_constant_branches(func: &Function) -> usize {
    func.block_ids()
        .filter(|&b| {
            matches!(
                func.block(b).terminator,
                Terminator::CondBr { cond, .. } if cond.as_const().is_some()
            )
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack_ir::{print_function, verify_function, CmpPred, FunctionBuilder, Operand, Type};

    #[test]
    fn folds_constant_branch_and_cleans_phi() {
        let mut b = FunctionBuilder::with_params("f", &[("x", Type::I32)], Type::I32);
        let t = b.add_block("t");
        let e = b.add_block("e");
        let m = b.add_block("m");
        b.cond_br(Operand::bool(false), t, e);
        b.switch_to(t);
        b.br(m);
        b.switch_to(e);
        b.br(m);
        b.switch_to(m);
        let phi = b.phi(
            Type::I32,
            vec![
                (t, Operand::int(Type::I32, 1)),
                (e, Operand::int(Type::I32, 2)),
            ],
        );
        b.ret(phi);
        let mut f = b.finish();
        let folded = run(&mut f);
        assert_eq!(folded, 1);
        verify_function(&f).unwrap();
        let text = print_function(&f);
        // Only the else path survives; the phi collapses to the constant 2.
        assert!(text.contains("ret 2"), "{text}");
    }

    #[test]
    fn keeps_dynamic_branches() {
        let mut b = FunctionBuilder::with_params("f", &[("x", Type::I32)], Type::I32);
        let c = b.cmp(CmpPred::Sgt, b.param(0), Operand::int(Type::I32, 0));
        let t = b.add_block("t");
        let e = b.add_block("e");
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(Operand::int(Type::I32, 1));
        b.switch_to(e);
        b.ret(Operand::int(Type::I32, 0));
        let mut f = b.finish();
        assert_eq!(run(&mut f), 0);
        assert_eq!(count_constant_branches(&f), 0);
    }

    #[test]
    fn counts_constant_branches_without_mutation() {
        let mut b = FunctionBuilder::with_params("f", &[], Type::Void);
        let t = b.add_block("t");
        let e = b.add_block("e");
        b.cond_br(Operand::bool(true), t, e);
        b.switch_to(t);
        b.ret_void();
        b.switch_to(e);
        b.ret_void();
        let f = b.finish();
        assert_eq!(count_constant_branches(&f), 1);
    }
}
