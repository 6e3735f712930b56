//! Encoding IR values, reachability conditions, and control flow into
//! bit-vector terms for the solver.
//!
//! This module implements the per-function approximations of §4.4: the
//! reachability condition `R'_e(x)` is computed from the start of the current
//! function using the branch structure (a gated-SSA style path condition in
//! the spirit of Tu and Padua \[48]), and phi nodes are encoded as nested
//! if-then-else over the conditions of their incoming edges. Loops are
//! handled acyclically: back edges contribute unconstrained values, which is
//! part of the approximation the paper accepts (§4.6).
//!
//! One encoder — and therefore one [`TermPool`] — covers a whole function.
//! Everything is memoized against that pool (operand values, reachability
//! conditions, condition negations), which is what lets the solver keep a
//! single persistent SAT instance across all of the function's fragments:
//! each UB-condition negation produced by [`FunctionEncoder::negation`]
//! becomes an assumption literal once, on first use, and every elimination,
//! simplification, and Figure 8 minimization query runs over the same
//! encoding.

use stack_ir::{
    BinOp, BlockId, Cfg, CmpPred, DomTree, Function, InstId, InstKind, InstPositions, Operand,
    Terminator, Type,
};
use stack_solver::{TermId, TermPool};
use std::collections::HashMap;

/// Per-function encoder: maps IR operands to solver terms and blocks to
/// reachability conditions.
pub struct FunctionEncoder<'f> {
    pub func: &'f Function,
    pub pool: TermPool,
    pub cfg: Cfg,
    pub dom: DomTree,
    /// The block and index of every instruction of `func`.
    pub(crate) positions: InstPositions,
    value_cache: HashMap<Operand, TermId>,
    /// Reachability condition per block, once computed.
    reach_cache: Vec<Option<TermId>>,
    fresh: u32,
}

// Each scan worker constructs one encoder — and thus one private
// `TermPool` — per function it checks; nothing is shared mutably across
// workers. Keep the type `Send` so a driver stays free to move encoders
// into threads, and so a future field can't silently break it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<FunctionEncoder<'static>>();
};

impl<'f> FunctionEncoder<'f> {
    /// Create an encoder for a function.
    pub fn new(func: &'f Function) -> FunctionEncoder<'f> {
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        FunctionEncoder {
            func,
            pool: TermPool::new(),
            cfg,
            dom,
            positions: func.positions(),
            value_cache: HashMap::new(),
            reach_cache: vec![None; func.num_blocks()],
            fresh: 0,
        }
    }

    /// The negation of a boolean term.
    ///
    /// The checker calls this once per UB condition to build the Δ conjuncts
    /// (`¬c` for every condition `c`) that its queries assume. The pool
    /// hash-conses, so repeated negations of the same condition return the
    /// *same* `TermId`, which in turn maps to exactly one assumption literal
    /// on the function's SAT instance — this wrapper exists to name that
    /// contract, not to add caching on top of the interning.
    pub fn negation(&mut self, term: TermId) -> TermId {
        self.pool.not(term)
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}_{}", self.fresh)
    }

    /// Bit width used to model an operand in the solver.
    fn width_of(&self, op: Operand) -> u32 {
        match self.func.operand_type(op) {
            Type::Bool => 1,
            Type::Int(w) => w,
            Type::Ptr => 64,
            Type::Void => 1,
        }
    }

    /// Whether an operand is boolean-typed.
    fn is_bool(&self, op: Operand) -> bool {
        self.func.operand_type(op) == Type::Bool
    }

    /// Term for an operand, as a bit-vector (booleans become 1-bit vectors).
    pub fn bv_term(&mut self, op: Operand) -> TermId {
        let t = self.value_term(op);
        if self.pool.sort(t).is_bool() {
            self.pool.bool_to_bv1(t)
        } else {
            t
        }
    }

    /// Term for an operand, as a boolean (non-booleans become `!= 0`).
    pub fn bool_term(&mut self, op: Operand) -> TermId {
        let t = self.value_term(op);
        if self.pool.sort(t).is_bool() {
            t
        } else {
            self.pool.bv_to_bool(t)
        }
    }

    /// Core translation of an operand into a term (memoized).
    pub fn value_term(&mut self, op: Operand) -> TermId {
        if let Some(&t) = self.value_cache.get(&op) {
            return t;
        }
        let term = self.translate(op);
        self.value_cache.insert(op, term);
        term
    }

    fn translate(&mut self, op: Operand) -> TermId {
        match op {
            Operand::Const(c) => {
                if c.ty == Type::Bool {
                    self.pool.bool_const(c.bits != 0)
                } else {
                    let width = self.width_of(op).max(1);
                    self.pool.bv_const(width, c.bits)
                }
            }
            Operand::Param(i) => {
                let name = format!("arg{i}_{}", self.func.params[i as usize].name);
                if self.is_bool(op) {
                    self.pool.bool_var(&name)
                } else {
                    let width = self.width_of(op);
                    self.pool.bv_var(&name, width)
                }
            }
            Operand::Inst(id) => self.translate_inst(id),
        }
    }

    fn translate_inst(&mut self, id: InstId) -> TermId {
        let func = self.func;
        let inst = func.inst(id);
        let result_width = match inst.ty {
            Type::Bool => 1,
            Type::Int(w) => w,
            Type::Ptr => 64,
            Type::Void => 1,
        };
        match inst.kind {
            InstKind::Bin { op, lhs, rhs } => {
                let a = self.bv_term(lhs);
                let b = self.bv_term(rhs);
                match op {
                    BinOp::Add => self.pool.bv_add(a, b),
                    BinOp::Sub => self.pool.bv_sub(a, b),
                    BinOp::Mul => self.pool.bv_mul(a, b),
                    BinOp::SDiv => self.pool.bv_sdiv(a, b),
                    BinOp::UDiv => self.pool.bv_udiv(a, b),
                    BinOp::SRem => self.pool.bv_srem(a, b),
                    BinOp::URem => self.pool.bv_urem(a, b),
                    BinOp::And => self.pool.bv_and(a, b),
                    BinOp::Or => self.pool.bv_or(a, b),
                    BinOp::Xor => self.pool.bv_xor(a, b),
                    BinOp::Shl => self.pool.bv_shl(a, b),
                    BinOp::LShr => self.pool.bv_lshr(a, b),
                    BinOp::AShr => self.pool.bv_ashr(a, b),
                }
            }
            InstKind::Cmp { pred, lhs, rhs } => {
                let a = self.bv_term(lhs);
                let b = self.bv_term(rhs);
                match pred {
                    CmpPred::Eq => self.pool.eq(a, b),
                    CmpPred::Ne => self.pool.ne(a, b),
                    CmpPred::Ult => self.pool.bv_ult(a, b),
                    CmpPred::Ule => self.pool.bv_ule(a, b),
                    CmpPred::Ugt => self.pool.bv_ugt(a, b),
                    CmpPred::Uge => self.pool.bv_uge(a, b),
                    CmpPred::Slt => self.pool.bv_slt(a, b),
                    CmpPred::Sle => self.pool.bv_sle(a, b),
                    CmpPred::Sgt => self.pool.bv_sgt(a, b),
                    CmpPred::Sge => self.pool.bv_sge(a, b),
                }
            }
            InstKind::PtrAdd {
                ptr,
                offset,
                elem_size,
                ..
            } => {
                let p = self.bv_term(ptr);
                let off = self.scaled_offset(offset, elem_size);
                self.pool.bv_add(p, off)
            }
            InstKind::Load { .. } => {
                let name = self.fresh_name(&format!(
                    "load{}_{}",
                    id.0,
                    inst.name.as_deref().unwrap_or_default()
                ));
                if inst.ty == Type::Bool {
                    self.pool.bool_var(&name)
                } else {
                    self.pool.bv_var(&name, result_width)
                }
            }
            InstKind::Alloca { .. } => {
                let name = self.fresh_name(&format!("alloca{}", id.0));
                self.pool.bv_var(&name, 64)
            }
            InstKind::Call {
                ref callee,
                ref args,
                ..
            } => {
                // `abs` is modeled precisely so that the `abs(x) < 0` check of
                // §2.2 can be reasoned about; other calls are unknown values.
                if (callee == "abs" || callee == "labs" || callee == "llabs") && args.len() == 1 {
                    let x = self.bv_term(args[0]);
                    let width = self.pool.width(x);
                    let zero = self.pool.bv_const(width, 0);
                    let neg = self.pool.bv_neg(x);
                    let is_neg = self.pool.bv_slt(x, zero);
                    let abs = self.pool.ite(is_neg, neg, x);
                    // Result width may differ from the argument; adjust.
                    if width < result_width {
                        self.pool.sext(abs, result_width)
                    } else if width > result_width {
                        self.pool.trunc(abs, result_width)
                    } else {
                        abs
                    }
                } else {
                    let name = self.fresh_name(&format!("call{}_{}", id.0, callee));
                    if inst.ty == Type::Bool {
                        self.pool.bool_var(&name)
                    } else {
                        self.pool.bv_var(&name, result_width.max(1))
                    }
                }
            }
            InstKind::ZExt { value, to } => {
                let v = self.bv_term(value);
                self.pool.zext(v, to.bit_width())
            }
            InstKind::SExt { value, to } => {
                let v = self.bv_term(value);
                self.pool.sext(v, to.bit_width())
            }
            InstKind::Trunc { value, to } => {
                let v = self.bv_term(value);
                self.pool.trunc(v, to.bit_width())
            }
            InstKind::PtrToInt { value } | InstKind::IntToPtr { value } => {
                let v = self.bv_term(value);
                let w = self.pool.width(v);
                if w < 64 {
                    self.pool.zext(v, 64)
                } else {
                    v
                }
            }
            InstKind::Phi { ref incomings } => {
                let (block, _) = self.positions.get(id).expect("phi must belong to a block");
                let my_rpo = self.cfg.rpo_position(block).unwrap_or(usize::MAX);
                // Start from an unconstrained value (covers back edges and
                // unreachable predecessors), then layer forward-edge values
                // gated by their edge conditions.
                let base_name = self.fresh_name(&format!("phi{}", id.0));
                let is_bool = inst.ty == Type::Bool;
                let mut acc = if is_bool {
                    self.pool.bool_var(&base_name)
                } else {
                    self.pool.bv_var(&base_name, result_width)
                };
                for &(pred, value) in incomings {
                    match self.cfg.rpo_position(pred) {
                        Some(p) if p < my_rpo => {
                            let reach = self.reach_term(pred);
                            let edge = self.edge_cond(pred, block);
                            let active = self.pool.and(reach, edge);
                            let v = if is_bool {
                                self.bool_term(value)
                            } else {
                                self.bv_term(value)
                            };
                            acc = self.pool.ite(active, v, acc);
                        }
                        _ => {} // back edge or unreachable predecessor
                    }
                }
                acc
            }
            InstKind::Store { .. } => {
                // No value; should not be requested.
                self.pool.bool_const(true)
            }
        }
    }

    /// The byte offset term of a `ptradd`: the element index sign-extended to
    /// 64 bits and scaled by the element size.
    pub fn scaled_offset(&mut self, offset: Operand, elem_size: u64) -> TermId {
        let off = self.bv_term(offset);
        let w = self.pool.width(off);
        let off64 = if w < 64 { self.pool.sext(off, 64) } else { off };
        let size = self.pool.bv_const(64, elem_size);
        self.pool.bv_mul(off64, size)
    }

    /// The element-index term of a `ptradd` offset, sign-extended to 64 bits
    /// (used by the buffer-overflow condition).
    pub fn index_term(&mut self, offset: Operand) -> TermId {
        let off = self.bv_term(offset);
        let w = self.pool.width(off);
        if w < 64 {
            self.pool.sext(off, 64)
        } else {
            off
        }
    }

    /// Reachability condition of a block from the function entry, following
    /// forward edges only.
    pub fn reach_term(&mut self, block: BlockId) -> TermId {
        if let Some(t) = self.reach_cache[block.index()] {
            return t;
        }
        let term = if block == self.func.entry() {
            self.pool.bool_const(true)
        } else if let Some(my_rpo) = self.cfg.rpo_position(block) {
            let preds: Vec<BlockId> = self
                .cfg
                .preds(block)
                .iter()
                .copied()
                .filter(|&p| self.cfg.rpo_position(p).is_some_and(|i| i < my_rpo))
                .collect();
            let mut disjuncts = Vec::new();
            for p in preds {
                let r = self.reach_term(p);
                let e = self.edge_cond(p, block);
                disjuncts.push(self.pool.and(r, e));
            }
            if disjuncts.is_empty() {
                // Only reachable through back edges: approximate as reachable.
                self.pool.bool_const(true)
            } else {
                self.pool.or_many(&disjuncts)
            }
        } else {
            self.pool.bool_const(false)
        };
        self.reach_cache[block.index()] = Some(term);
        term
    }

    /// Condition under which control flows along the edge `from -> to`.
    pub fn edge_cond(&mut self, from: BlockId, to: BlockId) -> TermId {
        match self.func.block(from).terminator {
            Terminator::Br { .. } => self.pool.bool_const(true),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                if then_bb == else_bb {
                    self.pool.bool_const(true)
                } else if to == then_bb {
                    self.bool_term(cond)
                } else {
                    let c = self.bool_term(cond);
                    self.pool.not(c)
                }
            }
            Terminator::Ret { .. } | Terminator::Unreachable => self.pool.bool_const(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack_opt::optimize_for_analysis;
    use stack_solver::BvSolver;

    fn encode(src: &str, fname: &str) -> (stack_ir::Module, String) {
        let mut m = stack_minic::compile(src, "t.c").unwrap();
        optimize_for_analysis(&mut m);
        (m, fname.to_string())
    }

    #[test]
    fn reachability_of_branch_targets() {
        let (m, f) = encode("int f(int x) { if (x > 10) return 1; return 0; }", "f");
        let func = m.function(&f).unwrap();
        let mut enc = FunctionEncoder::new(func);
        let mut solver = BvSolver::new();
        // The "then" block is reachable only when x > 10: check that
        // reach(then) ∧ x <= 10 is UNSAT.
        let then_block = func
            .block_ids()
            .find(|&b| func.block(b).name.as_deref() == Some("if.then"))
            .unwrap();
        let reach = enc.reach_term(then_block);
        let x = enc.pool.bv_var("arg0_x", 32);
        let ten = enc.pool.bv_const(32, 10);
        let le10 = enc.pool.bv_sle(x, ten);
        assert!(solver.check(&enc.pool, &[reach, le10]).is_unsat());
        // And reach(then) alone is satisfiable.
        assert!(solver.check(&enc.pool, &[reach]).is_sat());
    }

    #[test]
    fn values_fold_through_ssa() {
        let (m, f) = encode("int f(int x) { int y = x + 1; return y * 2; }", "f");
        let func = m.function(&f).unwrap();
        let mut enc = FunctionEncoder::new(func);
        // The returned value is (x + 1) * 2; check it equals 2x + 2.
        let ret_val = match &func.block(func.entry()).terminator {
            Terminator::Ret { value: Some(v) } => *v,
            _ => panic!("expected a return"),
        };
        let t = enc.bv_term(ret_val);
        let x = enc.pool.bv_var("arg0_x", 32);
        let two = enc.pool.bv_const(32, 2);
        let twox = enc.pool.bv_mul(x, two);
        let expected = enc.pool.bv_add(twox, two);
        let neq = enc.pool.ne(t, expected);
        let mut solver = BvSolver::new();
        assert!(solver.check(&enc.pool, &[neq]).is_unsat());
    }

    #[test]
    fn loads_are_unknown_values() {
        let (m, f) = encode("int f(int *p) { return *p; }", "f");
        let func = m.function(&f).unwrap();
        let mut enc = FunctionEncoder::new(func);
        let ret_val = match &func
            .block_ids()
            .map(|b| func.block(b).terminator.clone())
            .find(|t| matches!(t, Terminator::Ret { value: Some(_) }))
            .unwrap()
        {
            Terminator::Ret { value: Some(v) } => *v,
            _ => unreachable!(),
        };
        let t = enc.bv_term(ret_val);
        // The load is unconstrained: it can be 0 and it can be 1.
        let zero = enc.pool.bv_const(32, 0);
        let one = enc.pool.bv_const(32, 1);
        let eq0 = enc.pool.eq(t, zero);
        let eq1 = enc.pool.eq(t, one);
        let mut solver = BvSolver::new();
        assert!(solver.check(&enc.pool, &[eq0]).is_sat());
        assert!(solver.check(&enc.pool, &[eq1]).is_sat());
    }

    #[test]
    fn phi_nodes_are_gated_by_edge_conditions() {
        let (m, f) = encode(
            "int f(int x) { int y; if (x > 0) y = 7; else y = 9; return y; }",
            "f",
        );
        let func = m.function(&f).unwrap();
        let mut enc = FunctionEncoder::new(func);
        let ret_val = func
            .block_ids()
            .filter_map(|b| match &func.block(b).terminator {
                Terminator::Ret { value: Some(v) } => Some(*v),
                _ => None,
            })
            .next()
            .unwrap();
        let t = enc.bv_term(ret_val);
        let x = enc.pool.bv_var("arg0_x", 32);
        let zero = enc.pool.bv_const(32, 0);
        let pos = enc.pool.bv_sgt(x, zero);
        let seven = enc.pool.bv_const(32, 7);
        let neq7 = enc.pool.ne(t, seven);
        let mut solver = BvSolver::new();
        // x > 0 implies the result is 7.
        assert!(solver.check(&enc.pool, &[pos, neq7]).is_unsat());
        // x <= 0 implies the result is 9.
        let nine = enc.pool.bv_const(32, 9);
        let neg = enc.pool.not(pos);
        let neq9 = enc.pool.ne(t, nine);
        assert!(solver.check(&enc.pool, &[neg, neq9]).is_unsat());
    }
}
