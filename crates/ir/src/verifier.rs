//! IR well-formedness checks.
//!
//! The verifier catches malformed IR early: dangling references, type
//! mismatches, phi nodes inconsistent with predecessors, and uses that are
//! not dominated by their definitions. The frontend, the optimizer, and the
//! corpus generators all run it in tests.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::Function;
use crate::inst::{InstKind, Terminator};
use crate::module::Module;
use crate::types::Type;
use crate::value::{BlockId, InstId, Operand};
use std::collections::HashMap;

/// A verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    pub function: String,
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.function, self.message)
    }
}

/// Verify a whole module.
pub fn verify_module(module: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    for func in module.functions() {
        if let Err(mut e) = verify_function(func) {
            errors.append(&mut e);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Verify a single function.
pub fn verify_function(func: &Function) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    macro_rules! err {
        ($($arg:tt)*) => {
            errors.push(VerifyError {
                function: func.name.clone(),
                message: format!($($arg)*),
            })
        };
    }

    let num_blocks = func.num_blocks() as u32;
    let valid_block = |b: BlockId| b.0 < num_blocks;

    // Block-level structural checks.
    for b in func.block_ids() {
        let block = func.block(b);
        for target in block.terminator.successors() {
            if !valid_block(target) {
                err!("{b} branches to non-existent block {target}");
            }
        }
        if let Terminator::Ret { value } = &block.terminator {
            match (value, func.ret_ty) {
                (Some(_), Type::Void) => err!("{b} returns a value from a void function"),
                (None, ty) if ty != Type::Void => {
                    err!("{b} returns void from a {ty} function");
                }
                (Some(v), ty) => {
                    let vt = func.operand_type(*v);
                    if vt != ty {
                        err!("{b} returns {vt}, function declares {ty}");
                    }
                }
                _ => {}
            }
        }
    }

    // Map from instruction to its defining block for dominance checking.
    let mut def_block: HashMap<InstId, BlockId> = HashMap::new();
    for (b, i) in func.all_insts() {
        if def_block.insert(i, b).is_some() {
            err!("instruction {i} appears in more than one block");
        }
    }

    let cfg = Cfg::compute(func);
    let dt = DomTree::compute(func, &cfg);

    // Operand checks.
    let check_operand = |op: Operand,
                         user_block: BlockId,
                         user_pos: usize,
                         is_phi: bool,
                         errors: &mut Vec<VerifyError>| {
        if let Operand::Inst(def) = op {
            match def_block.get(&def) {
                None => errors.push(VerifyError {
                    function: func.name.clone(),
                    message: format!("use of detached instruction {def}"),
                }),
                Some(&db) => {
                    if is_phi {
                        // Phi operands are checked against their incoming edge
                        // rather than the phi's own position.
                        return;
                    }
                    if !cfg.is_reachable(user_block) {
                        return;
                    }
                    if db == user_block {
                        let def_pos = func
                            .block(db)
                            .insts
                            .iter()
                            .position(|&i| i == def)
                            .unwrap_or(usize::MAX);
                        if def_pos >= user_pos {
                            errors.push(VerifyError {
                                function: func.name.clone(),
                                message: format!(
                                    "{def} used at {user_block}[{user_pos}] before its definition"
                                ),
                            });
                        }
                    } else if !dt.dominates(db, user_block) {
                        errors.push(VerifyError {
                            function: func.name.clone(),
                            message: format!(
                                "use of {def} in {user_block} is not dominated by its definition in {db}"
                            ),
                        });
                    }
                }
            }
        } else if let Operand::Param(i) = op {
            if i as usize >= func.params.len() {
                errors.push(VerifyError {
                    function: func.name.clone(),
                    message: format!("reference to non-existent parameter {i}"),
                });
            }
        }
    };

    for b in func.block_ids() {
        let block = func.block(b);
        for (pos, &i) in block.insts.iter().enumerate() {
            let inst = func.inst(i);
            let is_phi = matches!(inst.kind, InstKind::Phi { .. });
            for op in inst.kind.operands() {
                check_operand(op, b, pos, is_phi, &mut errors);
            }
            // Type checks for a few common shapes.
            match &inst.kind {
                InstKind::Bin { lhs, rhs, .. } => {
                    let lt = func.operand_type(*lhs);
                    let rt = func.operand_type(*rhs);
                    if lt != rt {
                        err!("{i}: binary operands have different types ({lt} vs {rt})");
                    }
                    if !lt.is_int() && !lt.is_bool() {
                        err!("{i}: binary operation on non-integer type {lt}");
                    }
                }
                InstKind::Cmp { lhs, rhs, .. } => {
                    let lt = func.operand_type(*lhs);
                    let rt = func.operand_type(*rhs);
                    if lt != rt {
                        err!("{i}: comparison operands differ ({lt} vs {rt})");
                    }
                    if inst.ty != Type::Bool {
                        err!("{i}: comparison must produce i1");
                    }
                }
                InstKind::Load { ptr, .. } | InstKind::Store { ptr, .. }
                    if func.operand_type(*ptr) != Type::Ptr =>
                {
                    err!("{i}: memory access through non-pointer");
                }
                InstKind::PtrAdd { ptr, offset, .. } => {
                    if func.operand_type(*ptr) != Type::Ptr {
                        err!("{i}: ptradd base is not a pointer");
                    }
                    if !func.operand_type(*offset).is_int() {
                        err!("{i}: ptradd offset is not an integer");
                    }
                }
                InstKind::ZExt { value, to } | InstKind::SExt { value, to } => {
                    let from = func.operand_type(*value);
                    if from.bit_width() > to.bit_width() {
                        err!("{i}: extension narrows {from} to {to}");
                    }
                }
                InstKind::Trunc { value, to } => {
                    let from = func.operand_type(*value);
                    if from.bit_width() < to.bit_width() {
                        err!("{i}: truncation widens {from} to {to}");
                    }
                }
                InstKind::Phi { incomings } => {
                    let preds = cfg.preds(b);
                    if cfg.is_reachable(b) && incomings.len() != preds.len() {
                        err!(
                            "{i}: phi has {} incomings but block has {} predecessors",
                            incomings.len(),
                            preds.len()
                        );
                    }
                    for (pb, _) in incomings {
                        if cfg.is_reachable(b) && !preds.contains(pb) {
                            err!("{i}: phi incoming from non-predecessor {pb}");
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some(op) = block.terminator.operand() {
            check_operand(op, b, block.insts.len(), false, &mut errors);
        }
        if let Terminator::CondBr { cond, .. } = &block.terminator {
            if func.operand_type(*cond) != Type::Bool {
                err!("{b}: conditional branch on non-boolean");
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, CmpPred, Inst};
    use crate::origin::Origin;
    use crate::value::Operand;

    #[test]
    fn well_formed_function_passes() {
        let mut b =
            FunctionBuilder::with_params("ok", &[("p", Type::Ptr), ("x", Type::I32)], Type::I32);
        let p = b.param(0);
        let x = b.param(1);
        let v = b.load(p, Type::I32);
        let s = b.add(v, x);
        let c = b.cmp(CmpPred::Slt, s, x);
        let t = b.add_block("t");
        let e = b.add_block("e");
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(Operand::int(Type::I32, 1));
        b.switch_to(e);
        b.ret(s);
        let f = b.finish();
        assert!(verify_function(&f).is_ok());
    }

    #[test]
    fn catches_type_mismatch() {
        let mut b = FunctionBuilder::with_params("bad", &[("x", Type::I32)], Type::I32);
        // Mix i32 and i64 in one add.
        let bad = b.func_mut().push_inst(
            BlockId(0),
            Inst::new(
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Operand::Param(0),
                    rhs: Operand::int(Type::I64, 1),
                },
                Type::I32,
                Origin::unknown(),
            ),
        );
        b.ret(Operand::Inst(bad));
        let f = b.finish();
        let errs = verify_function(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("different types")));
    }

    #[test]
    fn catches_branch_to_missing_block() {
        let mut b = FunctionBuilder::with_params("bad", &[], Type::Void);
        b.br(BlockId(99));
        let f = b.finish();
        let errs = verify_function(&f).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("non-existent block")));
    }

    #[test]
    fn catches_return_type_mismatch() {
        let mut b = FunctionBuilder::with_params("bad", &[], Type::I32);
        b.ret_void();
        let f = b.finish();
        let errs = verify_function(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("returns void")));
    }

    #[test]
    fn catches_use_before_definition() {
        let mut b = FunctionBuilder::with_params("bad", &[("x", Type::I32)], Type::I32);
        // Manually create a use of an instruction defined later in the block.
        let later = InstId(1);
        let first = b.func_mut().push_inst(
            BlockId(0),
            Inst::new(
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Operand::Inst(later),
                    rhs: Operand::int(Type::I32, 1),
                },
                Type::I32,
                Origin::unknown(),
            ),
        );
        let _later_def = b.func_mut().push_inst(
            BlockId(0),
            Inst::new(
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Operand::Param(0),
                    rhs: Operand::int(Type::I32, 2),
                },
                Type::I32,
                Origin::unknown(),
            ),
        );
        b.ret(Operand::Inst(first));
        let f = b.finish();
        let errs = verify_function(&f).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("before its definition")));
    }

    #[test]
    fn catches_bad_cond_br_type() {
        let mut b = FunctionBuilder::with_params("bad", &[("x", Type::I32)], Type::Void);
        let t = b.add_block("t");
        let e = b.add_block("e");
        b.cond_br(b.param(0), t, e); // i32 condition: invalid
        b.switch_to(t);
        b.ret_void();
        b.switch_to(e);
        b.ret_void();
        let f = b.finish();
        let errs = verify_function(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("non-boolean")));
    }

    #[test]
    fn module_verification_aggregates() {
        let mut m = Module::new("m.c");
        let mut ok = FunctionBuilder::with_params("ok", &[], Type::Void);
        ok.ret_void();
        m.add_function(ok.finish());
        let mut bad = FunctionBuilder::with_params("bad", &[], Type::Void);
        bad.br(BlockId(7));
        m.add_function(bad.finish());
        let errs = verify_module(&m).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].function, "bad");
    }
}
