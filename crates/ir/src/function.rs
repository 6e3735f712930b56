//! Functions, basic blocks, and the instruction arena.

use crate::inst::{Inst, Terminator};
use crate::types::Type;
use crate::value::{BlockId, InstId, Operand};

/// A basic block: a list of instructions ending in a terminator.
#[derive(Clone, Debug)]
pub struct Block {
    /// Optional label carried from the source or the builder.
    pub name: Option<String>,
    /// Instructions in execution order (indices into the function arena).
    pub insts: Vec<InstId>,
    /// The terminator. Blocks under construction temporarily hold
    /// `Terminator::Unreachable`.
    pub terminator: Terminator,
}

impl Block {
    /// Create an empty block.
    pub fn new(name: Option<String>) -> Block {
        Block {
            name,
            insts: Vec::new(),
            terminator: Terminator::Unreachable,
        }
    }
}

/// A function parameter.
#[derive(Clone, Debug)]
pub struct Param {
    pub name: String,
    pub ty: Type,
}

/// A function: parameters, a return type, blocks, and the instruction arena.
#[derive(Clone, Debug)]
pub struct Function {
    pub name: String,
    pub params: Vec<Param>,
    pub ret_ty: Type,
    /// Instruction arena. Instructions removed by the optimizer stay in the
    /// arena but disappear from their block's `insts` list.
    insts: Vec<Inst>,
    /// Basic blocks; `BlockId(0)` is the entry block.
    blocks: Vec<Block>,
}

impl Function {
    /// Create a function with a single empty entry block.
    pub fn new(name: &str, params: Vec<Param>, ret_ty: Type) -> Function {
        Function {
            name: name.to_string(),
            params,
            ret_ty,
            insts: Vec::new(),
            blocks: vec![Block::new(Some("entry".to_string()))],
        }
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Ids of all blocks, in creation order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of instruction slots in the arena (including removed ones).
    pub fn num_inst_slots(&self) -> usize {
        self.insts.len()
    }

    /// Number of instructions currently attached to blocks.
    pub fn num_live_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Append a new empty block.
    pub fn add_block(&mut self, name: Option<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new(name));
        id
    }

    /// Borrow a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutably borrow a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Borrow an instruction.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// Mutably borrow an instruction.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()]
    }

    /// Append an instruction to the end of a block.
    pub fn push_inst(&mut self, block: BlockId, inst: Inst) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(inst);
        self.blocks[block.index()].insts.push(id);
        id
    }

    /// Insert an instruction into a block at the given position.
    pub fn insert_inst(&mut self, block: BlockId, index: usize, inst: Inst) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(inst);
        self.blocks[block.index()].insts.insert(index, id);
        id
    }

    /// Result type of an operand.
    pub fn operand_type(&self, op: Operand) -> Type {
        match op {
            Operand::Const(c) => c.ty,
            Operand::Param(i) => self.params[i as usize].ty,
            Operand::Inst(id) => self.inst(id).ty,
        }
    }

    /// The block that contains an instruction, if it is still attached.
    pub fn block_of(&self, inst: InstId) -> Option<BlockId> {
        self.block_ids()
            .find(|&id| self.block(id).insts.contains(&inst))
    }

    /// Position of an instruction within its block.
    pub fn position_in_block(&self, inst: InstId) -> Option<(BlockId, usize)> {
        for id in self.block_ids() {
            if let Some(pos) = self.block(id).insts.iter().position(|&i| i == inst) {
                return Some((id, pos));
            }
        }
        None
    }

    /// Iterate `(BlockId, InstId)` over all attached instructions in block
    /// order.
    pub fn all_insts(&self) -> Vec<(BlockId, InstId)> {
        let mut out = Vec::new();
        for b in self.block_ids() {
            for &i in &self.block(b).insts {
                out.push((b, i));
            }
        }
        out
    }

    /// Replace every use of `from` with `to` across all instructions and
    /// terminators.
    pub fn replace_all_uses(&mut self, from: Operand, to: Operand) {
        for inst in self.insts.iter_mut() {
            inst.kind
                .map_operands(|op| if op == from { to } else { op });
        }
        for block in self.blocks.iter_mut() {
            block
                .terminator
                .map_operands(|op| if op == from { to } else { op });
        }
    }

    /// Remove an instruction from its block (the arena slot is retained so
    /// existing `InstId`s stay valid).
    pub fn remove_inst(&mut self, inst: InstId) {
        for block in self.blocks.iter_mut() {
            block.insts.retain(|&i| i != inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, InstKind};
    use crate::origin::Origin;

    fn sample_function() -> Function {
        let mut f = Function::new(
            "f",
            vec![Param {
                name: "x".to_string(),
                ty: Type::I32,
            }],
            Type::I32,
        );
        let entry = f.entry();
        let add = f.push_inst(
            entry,
            Inst::new(
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Operand::Param(0),
                    rhs: Operand::int(Type::I32, 100),
                },
                Type::I32,
                Origin::unknown(),
            ),
        );
        f.block_mut(entry).terminator = Terminator::Ret {
            value: Some(Operand::Inst(add)),
        };
        f
    }

    #[test]
    fn build_and_query() {
        let f = sample_function();
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.num_live_insts(), 1);
        let (b, i) = f.all_insts()[0];
        assert_eq!(b, f.entry());
        assert_eq!(f.operand_type(Operand::Inst(i)), Type::I32);
        assert_eq!(f.operand_type(Operand::Param(0)), Type::I32);
        assert_eq!(f.block_of(i), Some(f.entry()));
        assert_eq!(f.position_in_block(i), Some((f.entry(), 0)));
    }

    #[test]
    fn replace_uses_and_remove() {
        let mut f = sample_function();
        let (_, add) = f.all_insts()[0];
        // Replace the parameter with a constant everywhere.
        f.replace_all_uses(Operand::Param(0), Operand::int(Type::I32, 1));
        assert_eq!(f.inst(add).kind.operands()[0], Operand::int(Type::I32, 1));
        f.remove_inst(add);
        assert_eq!(f.num_live_insts(), 0);
        assert_eq!(f.block_of(add), None);
        // The arena still holds the instruction.
        assert_eq!(f.num_inst_slots(), 1);
    }

    #[test]
    fn multiple_blocks() {
        let mut f = sample_function();
        let second = f.add_block(Some("next".to_string()));
        assert_eq!(second, BlockId(1));
        assert_eq!(f.num_blocks(), 2);
        f.block_mut(f.entry()).terminator = Terminator::Br { target: second };
        f.block_mut(second).terminator = Terminator::Ret { value: None };
        assert_eq!(f.block(f.entry()).terminator.successors(), vec![second]);
    }
}
