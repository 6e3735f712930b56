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

    /// Iterate `(BlockId, InstId)` over all attached instructions in block
    /// order.
    pub fn all_insts(&self) -> Vec<(BlockId, InstId)> {
        let mut out = Vec::with_capacity(self.num_live_insts());
        for b in self.block_ids() {
            for &i in &self.block(b).insts {
                out.push((b, i));
            }
        }
        out
    }

    /// The block and index of every attached instruction, computed in one
    /// pass over the blocks.
    pub fn positions(&self) -> InstPositions {
        let mut at = vec![(DETACHED, 0); self.insts.len()];
        for (b, block) in self.blocks.iter().enumerate() {
            for (index, &i) in block.insts.iter().enumerate() {
                at[i.index()] = (b as u32, index as u32);
            }
        }
        InstPositions { at }
    }

    /// Rewrite every operand of the attached instructions and of every
    /// terminator through `f`, in one pass.
    pub fn map_operands(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        for block in &mut self.blocks {
            for &i in &block.insts {
                self.insts[i.index()].kind.map_operands(&mut f);
            }
            block.terminator.map_operands(&mut f);
        }
    }

    /// Detach every instruction for which `remove` holds from its block, in
    /// one pass over the blocks. The arena slots are retained so existing
    /// `InstId`s stay valid.
    pub fn detach_insts(&mut self, mut remove: impl FnMut(InstId) -> bool) {
        for block in &mut self.blocks {
            block.insts.retain(|&i| !remove(i));
        }
    }
}

/// Block of an instruction that is in no block, in [`InstPositions`].
const DETACHED: u32 = u32::MAX;

/// Where each instruction of a function sits: built once by
/// [`Function::positions`], looked up in constant time.
#[derive(Clone, Debug)]
pub struct InstPositions {
    /// `(block, index)` per arena slot; the block is [`DETACHED`] for an
    /// instruction in no block.
    at: Vec<(u32, u32)>,
}

impl InstPositions {
    /// The block holding an instruction and its index there, or `None` if
    /// it is detached.
    pub fn get(&self, inst: InstId) -> Option<(BlockId, usize)> {
        match self.at.get(inst.index()) {
            Some(&(b, index)) if b != DETACHED => Some((BlockId(b), index as usize)),
            _ => None,
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
        assert_eq!(f.positions().get(i), Some((f.entry(), 0)));
    }

    #[test]
    fn replace_uses_and_remove() {
        let mut f = sample_function();
        let (_, add) = f.all_insts()[0];
        // Replace the parameter with a constant everywhere.
        f.map_operands(|op| match op {
            Operand::Param(0) => Operand::int(Type::I32, 1),
            op => op,
        });
        assert_eq!(
            f.inst(add).kind.operands().next(),
            Some(Operand::int(Type::I32, 1))
        );
        f.detach_insts(|i| i == add);
        assert_eq!(f.num_live_insts(), 0);
        assert_eq!(f.positions().get(add), None);
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
        assert_eq!(
            f.block(f.entry())
                .terminator
                .successors()
                .collect::<Vec<_>>(),
            [second]
        );
    }
}
