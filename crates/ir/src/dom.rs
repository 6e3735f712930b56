//! Dominator tree computation (Cooper–Harvey–Kennedy).
//!
//! The checker approximates the paper's well-defined program assumption Δ by
//! restricting it to the dominators of the fragment under analysis (paper
//! §4.4, equation (5)): every execution reaching `e` must have executed all
//! of `dom(e)`, so the UB conditions collected from those dominators may be
//! assumed false.

use crate::cfg::Cfg;
use crate::function::Function;
use crate::value::{BlockId, InstId};

/// Marks a block without an immediate dominator in [`DomTree`]'s table.
const NO_IDOM: u32 = u32::MAX;

/// Dominator tree over the reachable blocks of a function.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator of each block, indexed by block: the entry maps
    /// to itself, an unreachable block to [`NO_IDOM`].
    idom: Vec<u32>,
    entry: BlockId,
}

impl DomTree {
    /// Compute dominators using the Cooper–Harvey–Kennedy iterative
    /// algorithm over reverse post-order.
    pub fn compute(func: &Function, cfg: &Cfg) -> DomTree {
        let rpo = cfg.reverse_post_order();
        let entry = func.entry();
        // The algorithm runs on reverse-post-order positions: `idom[i]` is
        // the position of the immediate dominator of `rpo[i]`.
        let mut idom = vec![NO_IDOM; rpo.len()];
        idom[0] = 0;
        let intersect = |idom: &[u32], mut a: u32, mut b: u32| {
            while a != b {
                while a > b {
                    a = idom[a as usize];
                }
                while b > a {
                    b = idom[b as usize];
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for (i, &b) in rpo.iter().enumerate().skip(1) {
                // Pick the first processed predecessor as the starting point.
                let mut new_idom = NO_IDOM;
                for &p in cfg.preds(b) {
                    // Skip unreachable and not yet processed predecessors.
                    let Some(p) = cfg.rpo_position(p) else {
                        continue;
                    };
                    if idom[p] != NO_IDOM {
                        new_idom = match new_idom {
                            NO_IDOM => p as u32,
                            cur => intersect(&idom, cur, p as u32),
                        };
                    }
                }
                if new_idom != NO_IDOM && idom[i] != new_idom {
                    idom[i] = new_idom;
                    changed = true;
                }
            }
        }
        let mut by_block = vec![NO_IDOM; func.num_blocks()];
        for (i, &b) in rpo.iter().enumerate() {
            by_block[b.index()] = rpo[idom[i] as usize].0;
        }
        DomTree {
            idom: by_block,
            entry,
        }
    }

    /// Immediate dominator of a block (`None` for the entry or unreachable
    /// blocks).
    pub fn idom(&self, block: BlockId) -> Option<BlockId> {
        if block == self.entry {
            return None;
        }
        match self.idom[block.index()] {
            NO_IDOM => None,
            d => Some(BlockId(d)),
        }
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        let mut cur = b;
        loop {
            match self.idom(cur) {
                Some(d) => {
                    if d == a {
                        return true;
                    }
                    cur = d;
                }
                None => return false,
            }
        }
    }

    /// All blocks dominating `block`, from the entry down to and including
    /// `block` itself.
    pub fn dominators(&self, block: BlockId) -> Vec<BlockId> {
        let mut chain = vec![block];
        let mut cur = block;
        while let Some(d) = self.idom(cur) {
            chain.push(d);
            cur = d;
        }
        chain.reverse();
        chain
    }

    /// The instructions that dominate the instruction at `(block, index)`:
    /// all instructions in strictly dominating blocks plus the earlier
    /// instructions of the same block, and the instruction itself. This is
    /// the `dom(e)` set of the paper's approximate queries.
    pub fn dominating_insts(&self, func: &Function, block: BlockId, index: usize) -> Vec<InstId> {
        let mut out = Vec::new();
        for d in self.dominators(block) {
            if d == block {
                for &i in func.block(d).insts.iter().take(index + 1) {
                    out.push(i);
                }
            } else {
                out.extend(func.block(d).insts.iter().copied());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Type;
    use crate::value::Operand;

    fn diamond() -> Function {
        let mut b = FunctionBuilder::with_params("d", &[("c", Type::Bool)], Type::I32);
        let then_bb = b.add_block("then");
        let else_bb = b.add_block("else");
        let merge = b.add_block("merge");
        b.cond_br(b.param(0), then_bb, else_bb);
        b.switch_to(then_bb);
        b.br(merge);
        b.switch_to(else_bb);
        b.br(merge);
        b.switch_to(merge);
        b.ret(Operand::int(Type::I32, 0));
        b.finish()
    }

    #[test]
    fn diamond_dominators() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let entry = f.entry();
        let then_bb = BlockId(1);
        let else_bb = BlockId(2);
        let merge = BlockId(3);
        assert_eq!(dt.idom(entry), None);
        assert_eq!(dt.idom(then_bb), Some(entry));
        assert_eq!(dt.idom(else_bb), Some(entry));
        // The merge block is dominated by the entry, not by either branch.
        assert_eq!(dt.idom(merge), Some(entry));
        assert!(dt.dominates(entry, merge));
        assert!(!dt.dominates(then_bb, merge));
        assert!(dt.dominates(merge, merge));
        assert_eq!(dt.dominators(merge), vec![entry, merge]);
    }

    #[test]
    fn straight_line_chain() {
        let mut b = FunctionBuilder::with_params("s", &[], Type::Void);
        let b1 = b.add_block("b1");
        let b2 = b.add_block("b2");
        b.br(b1);
        b.switch_to(b1);
        b.br(b2);
        b.switch_to(b2);
        b.ret_void();
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        assert_eq!(dt.idom(b1), Some(f.entry()));
        assert_eq!(dt.idom(b2), Some(b1));
        assert_eq!(dt.dominators(b2), vec![f.entry(), b1, b2]);
        assert!(dt.dominates(b1, b2));
        assert!(!dt.dominates(b2, b1));
    }

    #[test]
    fn loop_header_dominates_body() {
        let mut b = FunctionBuilder::with_params("l", &[("c", Type::Bool)], Type::Void);
        let header = b.add_block("header");
        let body = b.add_block("body");
        let exit = b.add_block("exit");
        b.br(header);
        b.switch_to(header);
        b.cond_br(b.param(0), body, exit);
        b.switch_to(body);
        b.br(header);
        b.switch_to(exit);
        b.ret_void();
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        assert!(dt.dominates(header, body));
        assert!(dt.dominates(header, exit));
        assert!(!dt.dominates(body, exit));
        assert_eq!(dt.idom(body), Some(header));
        assert_eq!(dt.idom(exit), Some(header));
    }

    #[test]
    fn dominating_instructions_include_prefix_of_own_block() {
        let mut b = FunctionBuilder::with_params("f", &[("x", Type::I32)], Type::I32);
        let x = b.param(0);
        let a1 = b.add(x, Operand::int(Type::I32, 1));
        let a2 = b.add(a1, Operand::int(Type::I32, 2));
        let a3 = b.add(a2, Operand::int(Type::I32, 3));
        b.ret(a3);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let insts = dt.dominating_insts(&f, f.entry(), 1);
        assert_eq!(insts.len(), 2); // a1 and a2, not a3
        assert_eq!(insts[0], a1.as_inst().unwrap());
        assert_eq!(insts[1], a2.as_inst().unwrap());
    }
}
