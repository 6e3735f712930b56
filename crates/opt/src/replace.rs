//! Batched value replacement. A pass records which instructions it replaces
//! and by what, then rewrites every operand of the function in one pass,
//! instead of one whole-function rewrite per replaced instruction.

use stack_ir::{Function, InstId, Operand};

/// Values that replace instructions, indexed by instruction.
pub(crate) struct Replacements {
    by: Vec<Option<Operand>>,
    any: bool,
}

impl Replacements {
    /// An empty map covering every instruction slot of `func`.
    pub(crate) fn new(func: &Function) -> Replacements {
        Replacements {
            by: vec![None; func.num_inst_slots()],
            any: false,
        }
    }

    /// Record that `inst`'s result is `value`. An instruction replaced by
    /// itself is not recorded: its uses keep naming it.
    pub(crate) fn insert(&mut self, inst: InstId, value: Operand) {
        if value != Operand::Inst(inst) {
            self.by[inst.index()] = Some(value);
            self.any = true;
        }
    }

    /// The value `op` stands for, following a replacement that was itself
    /// replaced. The walk is bounded by the map's size, so it ends even on
    /// a cycle.
    pub(crate) fn resolve(&self, mut op: Operand) -> Operand {
        for _ in 0..self.by.len() {
            match op {
                Operand::Inst(id) => match self.by.get(id.index()) {
                    Some(&Some(next)) => op = next,
                    _ => break,
                },
                _ => break,
            }
        }
        op
    }

    /// Whether nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        !self.any
    }

    /// Rewrite every operand of `func` through the map.
    pub(crate) fn apply(&self, func: &mut Function) {
        if self.any {
            func.map_operands(|op| self.resolve(op));
        }
    }
}
