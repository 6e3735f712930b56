//! Control-flow graph utilities: successors, predecessors, reachability, and
//! reverse post-order.

use crate::function::Function;
use crate::value::BlockId;

/// Marks a block that is unreachable from the entry in [`Cfg`]'s
/// reverse-post-order positions.
const UNREACHABLE: u32 = u32::MAX;

/// Predecessor and successor lists of a function's CFG, plus the reverse
/// post-order of its reachable blocks, all indexed by block.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// `preds[pred_start[b]..pred_start[b + 1]]` are the predecessors of
    /// block `b`, in block order (a block branching twice to `b` appears
    /// twice).
    preds: Vec<BlockId>,
    pred_start: Vec<u32>,
    /// `succs[succ_start[b]..succ_start[b + 1]]` are the successors of `b`.
    succs: Vec<BlockId>,
    succ_start: Vec<u32>,
    rpo: Vec<BlockId>,
    /// Each block's index in `rpo`, or [`UNREACHABLE`].
    rpo_pos: Vec<u32>,
}

impl Cfg {
    /// Compute the CFG of a function.
    pub fn compute(func: &Function) -> Cfg {
        let n = func.num_blocks();
        // Successors pointing outside the function (malformed IR caught by
        // the verifier) are ignored so CFG construction never panics.
        let mut succs = Vec::with_capacity(2 * n);
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut pred_count = vec![0u32; n + 1];
        for b in func.block_ids() {
            succ_start.push(succs.len() as u32);
            for s in func.block(b).terminator.successors() {
                if s.index() < n {
                    succs.push(s);
                    pred_count[s.index()] += 1;
                }
            }
        }
        succ_start.push(succs.len() as u32);
        // Counting sort of the edges by target keeps each block's
        // predecessors in block order.
        let mut pred_start = Vec::with_capacity(n + 1);
        let mut total = 0;
        for count in &pred_count[..n] {
            pred_start.push(total);
            total += count;
        }
        pred_start.push(total);
        let mut fill = pred_start.clone();
        let mut preds = vec![BlockId(0); succs.len()];
        for b in func.block_ids() {
            let range = succ_start[b.index()] as usize..succ_start[b.index() + 1] as usize;
            for &s in &succs[range] {
                preds[fill[s.index()] as usize] = b;
                fill[s.index()] += 1;
            }
        }
        let mut cfg = Cfg {
            preds,
            pred_start,
            succs,
            succ_start,
            rpo: Vec::new(),
            rpo_pos: vec![UNREACHABLE; n],
        };
        cfg.rpo = cfg.depth_first_reverse_post_order(func.entry());
        for (i, b) in cfg.rpo.iter().enumerate() {
            cfg.rpo_pos[b.index()] = i as u32;
        }
        cfg
    }

    /// Predecessors of a block (empty for the entry and unreachable blocks).
    pub fn preds(&self, block: BlockId) -> &[BlockId] {
        let b = block.index();
        &self.preds[self.pred_start[b] as usize..self.pred_start[b + 1] as usize]
    }

    /// Successors of a block.
    pub fn succs(&self, block: BlockId) -> &[BlockId] {
        let b = block.index();
        &self.succs[self.succ_start[b] as usize..self.succ_start[b + 1] as usize]
    }

    /// Blocks reachable from the entry, in reverse post-order.
    pub fn reverse_post_order(&self) -> &[BlockId] {
        &self.rpo
    }

    /// A reachable block's index in [`reverse_post_order`], or `None` for
    /// an unreachable block.
    ///
    /// [`reverse_post_order`]: Cfg::reverse_post_order
    pub fn rpo_position(&self, block: BlockId) -> Option<usize> {
        match self.rpo_pos[block.index()] {
            UNREACHABLE => None,
            pos => Some(pos as usize),
        }
    }

    /// Whether a block is reachable from the entry.
    pub fn is_reachable(&self, block: BlockId) -> bool {
        self.rpo_pos[block.index()] != UNREACHABLE
    }

    /// Iterative DFS from `entry` with an explicit stack of (block, next
    /// successor index), visiting successors in order; returns the reversed
    /// post-order.
    fn depth_first_reverse_post_order(&self, entry: BlockId) -> Vec<BlockId> {
        let mut visited = vec![false; self.rpo_pos.len()];
        let mut post = Vec::with_capacity(self.rpo_pos.len());
        let mut stack = vec![(entry, 0)];
        visited[entry.index()] = true;
        while let Some((block, idx)) = stack.pop() {
            if let Some(&next) = self.succs(block).get(idx) {
                stack.push((block, idx + 1));
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    stack.push((next, 0));
                }
            } else {
                post.push(block);
            }
        }
        post.reverse();
        post
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Type;
    use crate::value::Operand;

    /// Build a diamond CFG: entry -> (then, else) -> merge.
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
    fn diamond_cfg_structure() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let entry = f.entry();
        assert_eq!(cfg.succs(entry).len(), 2);
        assert!(cfg.preds(entry).is_empty());
        let merge = BlockId(3);
        assert_eq!(cfg.preds(merge).len(), 2);
        assert!(cfg.is_reachable(merge));
        let rpo = cfg.reverse_post_order();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], entry);
        // Merge comes after both branches in RPO.
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(merge) > pos(BlockId(1)));
        assert!(pos(merge) > pos(BlockId(2)));
    }

    #[test]
    fn unreachable_blocks_are_excluded() {
        let mut b = FunctionBuilder::with_params("u", &[], Type::Void);
        let dead = b.add_block("dead");
        b.ret_void();
        b.switch_to(dead);
        b.ret_void();
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        assert!(cfg.is_reachable(f.entry()));
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.reverse_post_order().len(), 1);
    }

    #[test]
    fn loop_cfg() {
        // entry -> header; header -> (body, exit); body -> header.
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
        assert_eq!(cfg.preds(header).len(), 2); // entry and body
        assert_eq!(cfg.succs(header).len(), 2);
        assert_eq!(cfg.reverse_post_order().len(), 4);
        assert_eq!(cfg.reverse_post_order()[0], f.entry());
    }
}
