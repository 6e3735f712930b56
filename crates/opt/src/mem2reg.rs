//! Promotion of stack slots to SSA values (the classic `mem2reg` pass).
//!
//! The frontend gives every local variable an `alloca` with explicit loads
//! and stores. This pass promotes the allocas whose address never escapes
//! (no pointer arithmetic, no calls taking the address, no stores *of* the
//! address) into SSA form by placing phi nodes at iterated dominance
//! frontiers and renaming along the dominator tree (Cytron et al., TOPLAS
//! 1991). The checker depends on this: the solver reasons about SSA values,
//! not memory.
//!
//! All slots are promoted together: one scan finds them, one dominator-tree
//! walk renames every slot at once, one operand pass applies the load
//! replacements and one sweep per block drops the promoted loads, stores
//! and allocas. Phis are created slot by slot in alloca order and, within a
//! slot, in block order, each at the head of its block; phi numbering, and
//! with it the printed IR, is a function of the input alone.

use crate::replace::Replacements;
use stack_ir::{BlockId, Cfg, DomTree, Function, Inst, InstId, InstKind, Operand, Origin, Type};

/// Slot index of an instruction that is no promotable alloca.
const NO_SLOT: u32 = u32::MAX;

/// Run mem2reg on a function. Returns the number of promoted allocas.
pub fn run(func: &mut Function) -> usize {
    let slots = find_promotable(func);
    if slots.is_empty() {
        return 0;
    }
    let cfg = Cfg::compute(func);
    let dt = DomTree::compute(func, &cfg);
    let mut slot_of = vec![NO_SLOT; func.num_inst_slots()];
    for (s, &(alloca, _)) in slots.iter().enumerate() {
        slot_of[alloca.index()] = s as u32;
    }
    let slot = |ptr: Operand| match ptr {
        Operand::Inst(id) => match slot_of.get(id.index()) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        },
        _ => None,
    };

    // Blocks that store to each slot.
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); slots.len()];
    for b in func.block_ids() {
        for &i in &func.block(b).insts {
            if let InstKind::Store { ptr, .. } = func.inst(i).kind {
                if let Some(s) = slot(ptr) {
                    if def_blocks[s].last() != Some(&b) {
                        def_blocks[s].push(b);
                    }
                }
            }
        }
    }

    // Phi placement at iterated dominance frontiers. `phis` lists every phi
    // with its slot; `phis_at[b]` indexes the phis at the head of block `b`.
    let frontiers = dominance_frontiers(func, &cfg, &dt);
    let mut phis: Vec<(usize, InstId)> = Vec::new();
    let mut phis_at: Vec<Vec<usize>> = vec![Vec::new(); func.num_blocks()];
    let mut placed = vec![false; func.num_blocks()];
    for (s, &(_, ty)) in slots.iter().enumerate() {
        let mut work = def_blocks[s].clone();
        let mut blocks = Vec::new();
        while let Some(b) = work.pop() {
            for &d in &frontiers[b.index()] {
                if !placed[d.index()] {
                    placed[d.index()] = true;
                    blocks.push(d);
                    work.push(d);
                }
            }
        }
        blocks.sort_unstable();
        for b in blocks {
            placed[b.index()] = false;
            let phi = Inst::new(InstKind::Phi { incomings: vec![] }, ty, Origin::unknown());
            phis_at[b.index()].push(phis.len());
            phis.push((s, func.insert_inst(b, 0, phi)));
        }
    }

    // Rename: one walk of the dominator tree keeps every slot's reaching
    // definition, restoring it from an undo log on leaving a subtree.
    let children = dom_children(func, &dt);
    let mut current: Vec<Operand> = slots.iter().map(|&(_, ty)| Operand::int(ty, 0)).collect();
    let mut undo: Vec<(usize, Operand)> = Vec::new();
    let mut incomings: Vec<Vec<(BlockId, Operand)>> = vec![Vec::new(); phis.len()];
    let mut replacements = Replacements::new(func);
    // The promoted allocas, and every load and store of them.
    let mut promoted = vec![false; func.num_inst_slots()];
    for &(alloca, _) in &slots {
        promoted[alloca.index()] = true;
    }
    let mut stack = vec![Visit::Enter(func.entry())];
    while let Some(visit) = stack.pop() {
        let b = match visit {
            Visit::Enter(b) => b,
            Visit::Leave(mark) => {
                for (s, value) in undo.drain(mark..).rev() {
                    current[s] = value;
                }
                continue;
            }
        };
        stack.push(Visit::Leave(undo.len()));
        for &p in &phis_at[b.index()] {
            let (s, phi) = phis[p];
            undo.push((s, current[s]));
            current[s] = Operand::Inst(phi);
        }
        for &i in &func.block(b).insts {
            match func.inst(i).kind {
                InstKind::Load { ptr, .. } => {
                    if let Some(s) = slot(ptr) {
                        replacements.insert(i, current[s]);
                        promoted[i.index()] = true;
                    }
                }
                InstKind::Store { ptr, value } => {
                    if let Some(s) = slot(ptr) {
                        undo.push((s, current[s]));
                        current[s] = value;
                        promoted[i.index()] = true;
                    }
                }
                _ => {}
            }
        }
        // The value flowing along each CFG edge into successor phis.
        for &succ in cfg.succs(b) {
            for &p in &phis_at[succ.index()] {
                incomings[p].push((b, current[phis[p].0]));
            }
        }
        stack.extend(children[b.index()].iter().map(|&c| Visit::Enter(c)));
    }

    // The walk never enters an unreachable block: a load there reads the
    // slot type's zero, and a store there is dropped.
    for b in func.block_ids().filter(|&b| !cfg.is_reachable(b)) {
        for &i in &func.block(b).insts {
            match func.inst(i).kind {
                InstKind::Load { ptr, .. } => {
                    if let Some(s) = slot(ptr) {
                        replacements.insert(i, Operand::int(slots[s].1, 0));
                        promoted[i.index()] = true;
                    }
                }
                InstKind::Store { ptr, .. } => promoted[i.index()] |= slot(ptr).is_some(),
                _ => {}
            }
        }
    }

    // Fill the phis, drop the promoted loads, stores and allocas, and
    // rewrite every use of a load to the value it read.
    for (&(_, phi), mut incoming) in phis.iter().zip(incomings) {
        if incoming.is_empty() {
            continue;
        }
        incoming.sort_by_key(|&(b, _)| b);
        for (_, value) in &mut incoming {
            *value = replacements.resolve(*value);
        }
        func.inst_mut(phi).kind = InstKind::Phi {
            incomings: incoming,
        };
    }
    func.detach_insts(|i| promoted[i.index()]);
    replacements.apply(func);
    slots.len()
}

/// One step of the renaming walk.
enum Visit {
    /// Rename a block, then its dominator-tree children.
    Enter(BlockId),
    /// Leave a subtree: undo the definitions logged since this length.
    Leave(usize),
}

/// Find allocas that can be promoted: single-element slots whose only uses
/// are direct loads and stores of the slot pointer. Returns them in
/// instruction order with their element type.
fn find_promotable(func: &Function) -> Vec<(InstId, Type)> {
    let mut candidates = Vec::new();
    let mut escapes = vec![false; func.num_inst_slots()];
    let mut escape = |op: Operand| {
        if let Operand::Inst(id) = op {
            escapes[id.index()] = true;
        }
    };
    for b in func.block_ids() {
        let block = func.block(b);
        for &i in &block.insts {
            match &func.inst(i).kind {
                InstKind::Alloca { elem_ty, count } => {
                    if *count == 1 && elem_ty.is_value() {
                        candidates.push((i, *elem_ty));
                    }
                }
                InstKind::Load { .. } => {}
                // Storing the address itself disqualifies it.
                InstKind::Store { value, .. } => escape(*value),
                other => other.operands().for_each(&mut escape),
            }
        }
        // Terminator uses (should not happen for pointers, but be safe).
        if let Some(op) = block.terminator.operand() {
            escape(op);
        }
    }
    candidates.retain(|(i, _)| !escapes[i.index()]);
    candidates.sort_by_key(|&(i, _)| i);
    candidates
}

/// Dominance frontier of every block, indexed by block.
fn dominance_frontiers(func: &Function, cfg: &Cfg, dt: &DomTree) -> Vec<Vec<BlockId>> {
    let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); func.num_blocks()];
    for &b in cfg.reverse_post_order() {
        let preds = cfg.preds(b);
        if preds.len() < 2 {
            continue;
        }
        let Some(idom_b) = dt.idom(b) else {
            continue;
        };
        for &p in preds {
            if !cfg.is_reachable(p) {
                continue;
            }
            let mut runner = p;
            while runner != idom_b {
                df[runner.index()].push(b);
                runner = match dt.idom(runner) {
                    Some(d) => d,
                    None => break,
                };
            }
        }
    }
    df
}

/// Children lists of the dominator tree, indexed by block, in block order.
fn dom_children(func: &Function, dt: &DomTree) -> Vec<Vec<BlockId>> {
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); func.num_blocks()];
    for b in func.block_ids() {
        if let Some(d) = dt.idom(b) {
            children[d.index()].push(b);
        }
    }
    children
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack_ir::{print_function, verify_function};
    use stack_minic::compile;

    fn promoted(src: &str, fname: &str) -> Function {
        let mut m = compile(src, "t.c").unwrap();
        let f = m.function_mut(fname).unwrap();
        run(f);
        verify_function(f).unwrap_or_else(|e| panic!("{e:?}\n{}", print_function(f)));
        f.clone()
    }

    #[test]
    fn straight_line_promotion_removes_allocas() {
        let f = promoted(
            "int f(int x) { int y = x + 1; int z = y * 2; return z; }",
            "f",
        );
        let text = print_function(&f);
        assert!(!text.contains("alloca"), "{text}");
        assert!(!text.contains("load"), "{text}");
        assert!(!text.contains("store"), "{text}");
        assert!(text.contains("add i32"));
        assert!(text.contains("mul i32"));
    }

    #[test]
    fn branches_insert_phi() {
        let f = promoted(
            "int f(int x) { int y = 0; if (x > 0) y = 1; else y = 2; return y; }",
            "f",
        );
        let text = print_function(&f);
        assert!(!text.contains("alloca"), "{text}");
        assert!(text.contains("phi"), "{text}");
    }

    /// A variable merged at two points gets one phi in each merge block,
    /// numbered in block order, so equal bytes always compile to equal IR.
    #[test]
    fn phis_of_one_variable_are_numbered_in_block_order() {
        let src = "int f(int x, int y) { int r = 0; if (x > 0) { r = 1; } else { r = 2; } \
                   if (y > 0) { r = r + 3; } else { r = r + 4; } return r; }";
        let f = promoted(src, "f");
        let text = print_function(&f);
        for _ in 1..16 {
            assert_eq!(print_function(&promoted(src, "f")), text);
        }
        let phis: Vec<InstId> = f
            .all_insts()
            .into_iter()
            .filter(|&(_, i)| matches!(f.inst(i).kind, InstKind::Phi { .. }))
            .map(|(_, i)| i)
            .collect();
        assert_eq!(phis.len(), 2, "{text}");
        assert!(phis[0] < phis[1], "{text}");
    }

    #[test]
    fn loops_insert_phi_at_header() {
        let f = promoted(
            "int f(int n) { int i = 0; int s = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
            "f",
        );
        let text = print_function(&f);
        assert!(!text.contains("alloca"), "{text}");
        assert!(text.matches("phi").count() >= 2, "{text}");
    }

    #[test]
    fn arrays_are_not_promoted() {
        let f = promoted(
            "int f(int i) { char buf[8]; buf[i] = 1; return buf[0]; }",
            "f",
        );
        let text = print_function(&f);
        assert!(text.contains("alloca i8 x 8"), "{text}");
        assert!(text.contains("ptradd"), "{text}");
    }

    #[test]
    fn address_taken_slots_are_not_promoted() {
        let f = promoted(
            "int g(int *p);\nint f(int x) { int y = x; return g(&y); }",
            "f",
        );
        let text = print_function(&f);
        assert!(text.contains("alloca"), "{text}");
    }

    #[test]
    fn figure2_pattern_promotes_to_clean_ssa() {
        let f = promoted(
            "int poll(struct tun_struct *tun) {\n\
               long sk = tun->sk;\n\
               if (!tun) return 1;\n\
               return 0;\n\
             }",
            "poll",
        );
        let text = print_function(&f);
        // The load through tun (member access) stays; the local slots vanish.
        assert!(!text.contains("alloca"), "{text}");
        assert!(text.contains("load i64"), "{text}");
        assert!(text.contains("icmp eq"), "{text}");
    }

    #[test]
    fn parameters_reaching_uses_directly() {
        let f = promoted("int f(int x) { return x + 100; }", "f");
        let text = print_function(&f);
        assert!(text.contains("add i32 %arg0, 100"), "{text}");
    }
}
