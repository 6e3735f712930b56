//! A convenience builder for constructing IR functions.
//!
//! The frontend lowering, the corpus programs, and many tests construct IR
//! directly; the builder keeps that code short by tracking a current
//! insertion block and an origin that is attached to every emitted
//! instruction.

use crate::function::{Function, Param};
use crate::inst::{BinOp, CmpPred, Inst, InstKind, Terminator};
use crate::origin::Origin;
use crate::types::Type;
use crate::value::{BlockId, InstId, Operand};

/// Builder over a [`Function`] with a current insertion point.
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
    origin: Origin,
}

impl FunctionBuilder {
    /// Start building a function; the insertion point is the entry block.
    pub fn new(name: &str, params: Vec<Param>, ret_ty: Type) -> FunctionBuilder {
        let func = Function::new(name, params, ret_ty);
        let current = func.entry();
        FunctionBuilder {
            func,
            current,
            origin: Origin::unknown(),
        }
    }

    /// Shorthand for declaring parameters from `(name, type)` pairs.
    pub fn with_params(name: &str, params: &[(&str, Type)], ret_ty: Type) -> FunctionBuilder {
        let params = params
            .iter()
            .map(|(n, t)| Param {
                name: (*n).to_string(),
                ty: *t,
            })
            .collect();
        FunctionBuilder::new(name, params, ret_ty)
    }

    /// Finish and return the function.
    pub fn finish(self) -> Function {
        self.func
    }

    /// Borrow the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Mutably borrow the function under construction.
    pub fn func_mut(&mut self) -> &mut Function {
        &mut self.func
    }

    /// The current insertion block.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Set the origin attached to subsequently emitted instructions.
    pub fn set_origin(&mut self, origin: Origin) {
        self.origin = origin;
    }

    /// Current origin.
    pub fn origin(&self) -> Origin {
        self.origin.clone()
    }

    /// Create a new block.
    pub fn add_block(&mut self, name: &str) -> BlockId {
        self.func.add_block(Some(name.to_string()))
    }

    /// Move the insertion point to a block.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    /// The `n`-th parameter as an operand.
    pub fn param(&self, index: u32) -> Operand {
        Operand::Param(index)
    }

    /// Emit an instruction at the insertion point.
    pub fn emit(&mut self, kind: InstKind, ty: Type) -> InstId {
        let inst = Inst::new(kind, ty, self.origin.clone());
        self.func.push_inst(self.current, inst)
    }

    /// Emit an instruction with a source-level name.
    pub fn emit_named(&mut self, kind: InstKind, ty: Type, name: &str) -> InstId {
        let inst = Inst::new(kind, ty, self.origin.clone()).with_name(name);
        self.func.push_inst(self.current, inst)
    }

    // ---- Arithmetic ---------------------------------------------------------

    /// Binary operation; the result type is the type of `lhs`.
    pub fn bin(&mut self, op: BinOp, lhs: Operand, rhs: Operand) -> Operand {
        let ty = self.func.operand_type(lhs);
        Operand::Inst(self.emit(InstKind::Bin { op, lhs, rhs }, ty))
    }

    /// Binary operation on signed operands: overflow is undefined behavior
    /// (the `nsw` flag is set for the UB-condition inserter).
    pub fn bin_nsw(&mut self, op: BinOp, lhs: Operand, rhs: Operand) -> Operand {
        let ty = self.func.operand_type(lhs);
        let inst = Inst::new(InstKind::Bin { op, lhs, rhs }, ty, self.origin.clone()).with_nsw();
        Operand::Inst(self.func.push_inst(self.current, inst))
    }

    /// Signed addition (`nsw`).
    pub fn add_nsw(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin_nsw(BinOp::Add, lhs, rhs)
    }

    /// Signed negation (`0 - x`, `nsw`).
    pub fn neg_nsw(&mut self, value: Operand) -> Operand {
        let ty = self.func.operand_type(value);
        let zero = Operand::int(ty, 0);
        self.bin_nsw(BinOp::Sub, zero, value)
    }

    /// Addition.
    pub fn add(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::Add, lhs, rhs)
    }

    /// Subtraction.
    pub fn sub(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::Sub, lhs, rhs)
    }

    /// Multiplication.
    pub fn mul(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::Mul, lhs, rhs)
    }

    /// Signed division.
    pub fn sdiv(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::SDiv, lhs, rhs)
    }

    /// Signed remainder.
    pub fn srem(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::SRem, lhs, rhs)
    }

    /// Left shift.
    pub fn shl(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::Shl, lhs, rhs)
    }

    /// Two's-complement negation (`0 - x`).
    pub fn neg(&mut self, value: Operand) -> Operand {
        let ty = self.func.operand_type(value);
        let zero = Operand::int(ty, 0);
        self.bin(BinOp::Sub, zero, value)
    }

    /// Comparison; the result type is `Bool`.
    pub fn cmp(&mut self, pred: CmpPred, lhs: Operand, rhs: Operand) -> Operand {
        Operand::Inst(self.emit(InstKind::Cmp { pred, lhs, rhs }, Type::Bool))
    }

    /// Equality against the null pointer (`!p` in C).
    pub fn is_null(&mut self, ptr: Operand) -> Operand {
        self.cmp(CmpPred::Eq, ptr, Operand::null())
    }

    // ---- Memory -------------------------------------------------------------

    /// Pointer arithmetic with byte scaling.
    pub fn ptr_add(&mut self, ptr: Operand, offset: Operand, elem_size: u64) -> Operand {
        Operand::Inst(self.emit(
            InstKind::PtrAdd {
                ptr,
                offset,
                elem_size,
                bound: None,
            },
            Type::Ptr,
        ))
    }

    /// Pointer arithmetic into an array with a known element count.
    pub fn ptr_add_bounded(
        &mut self,
        ptr: Operand,
        offset: Operand,
        elem_size: u64,
        bound: u64,
    ) -> Operand {
        Operand::Inst(self.emit(
            InstKind::PtrAdd {
                ptr,
                offset,
                elem_size,
                bound: Some(bound),
            },
            Type::Ptr,
        ))
    }

    /// Load through a pointer.
    pub fn load(&mut self, ptr: Operand, ty: Type) -> Operand {
        Operand::Inst(self.emit(InstKind::Load { ptr, ty }, ty))
    }

    /// Load with a source-level name.
    pub fn load_named(&mut self, ptr: Operand, ty: Type, name: &str) -> Operand {
        Operand::Inst(self.emit_named(InstKind::Load { ptr, ty }, ty, name))
    }

    /// Store through a pointer.
    pub fn store(&mut self, ptr: Operand, value: Operand) {
        self.emit(InstKind::Store { ptr, value }, Type::Void);
    }

    /// Stack allocation.
    pub fn alloca(&mut self, elem_ty: Type, count: u64) -> Operand {
        Operand::Inst(self.emit(InstKind::Alloca { elem_ty, count }, Type::Ptr))
    }

    // ---- Calls and conversions ------------------------------------------------

    /// Call a named function.
    pub fn call(&mut self, callee: &str, args: &[Operand], ty: Type) -> Operand {
        let id = self.emit(
            InstKind::Call {
                callee: callee.to_string(),
                args: args.to_vec(),
                ty,
            },
            ty,
        );
        Operand::Inst(id)
    }

    /// Zero-extension.
    pub fn zext(&mut self, value: Operand, to: Type) -> Operand {
        Operand::Inst(self.emit(InstKind::ZExt { value, to }, to))
    }

    /// Sign-extension.
    pub fn sext(&mut self, value: Operand, to: Type) -> Operand {
        Operand::Inst(self.emit(InstKind::SExt { value, to }, to))
    }

    /// Truncation.
    pub fn trunc(&mut self, value: Operand, to: Type) -> Operand {
        Operand::Inst(self.emit(InstKind::Trunc { value, to }, to))
    }

    /// Phi node.
    pub fn phi(&mut self, ty: Type, incomings: Vec<(BlockId, Operand)>) -> Operand {
        Operand::Inst(self.emit(InstKind::Phi { incomings }, ty))
    }

    // ---- Terminators ------------------------------------------------------------

    /// Unconditional branch; leaves the insertion point unchanged.
    pub fn br(&mut self, target: BlockId) {
        self.func.block_mut(self.current).terminator = Terminator::Br { target };
    }

    /// Conditional branch.
    pub fn cond_br(&mut self, cond: Operand, then_bb: BlockId, else_bb: BlockId) {
        self.func.block_mut(self.current).terminator = Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        };
    }

    /// Return a value.
    pub fn ret(&mut self, value: Operand) {
        self.func.block_mut(self.current).terminator = Terminator::Ret { value: Some(value) };
    }

    /// Return without a value.
    pub fn ret_void(&mut self) {
        self.func.block_mut(self.current).terminator = Terminator::Ret { value: None };
    }

    /// Mark the current block as unreachable.
    pub fn unreachable(&mut self) {
        self.func.block_mut(self.current).terminator = Terminator::Unreachable;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::SourceLoc;

    #[test]
    fn build_figure1_pointer_check() {
        // The Figure 1 idiom: if (buf + len < buf) return;
        let mut b = FunctionBuilder::with_params(
            "check",
            &[("buf", Type::Ptr), ("len", Type::I32)],
            Type::I32,
        );
        b.set_origin(Origin::programmer(SourceLoc::new(5, 3)));
        let buf = b.param(0);
        let len = b.param(1);
        let len64 = b.zext(len, Type::I64);
        let end = b.ptr_add(buf, len64, 1);
        let wrapped = b.cmp(CmpPred::Ult, end, buf);
        let then_bb = b.add_block("overflow");
        let else_bb = b.add_block("ok");
        b.cond_br(wrapped, then_bb, else_bb);
        b.switch_to(then_bb);
        b.ret(Operand::int(Type::I32, -1));
        b.switch_to(else_bb);
        b.ret(Operand::int(Type::I32, 0));
        let f = b.finish();
        assert_eq!(f.num_blocks(), 3);
        assert_eq!(f.num_live_insts(), 3);
        assert_eq!(f.block(f.entry()).terminator.successors().len(), 2);
        // Every instruction carries the programmer origin we set.
        for (_, i) in f.all_insts() {
            assert!(f.inst(i).origin.is_programmer_written());
            assert_eq!(f.inst(i).origin.loc, SourceLoc::new(5, 3));
        }
    }

    #[test]
    fn builder_helpers_produce_expected_types() {
        let mut b = FunctionBuilder::with_params("t", &[("x", Type::I32)], Type::Void);
        let x = b.param(0);
        let c = Operand::int(Type::I32, 3);
        let sum = b.add(x, c);
        assert_eq!(b.func().operand_type(sum), Type::I32);
        let cmp = b.cmp(CmpPred::Slt, sum, x);
        assert_eq!(b.func().operand_type(cmp), Type::Bool);
        let p = b.alloca(Type::I32, 4);
        assert_eq!(b.func().operand_type(p), Type::Ptr);
        let v = b.load(p, Type::I32);
        assert_eq!(b.func().operand_type(v), Type::I32);
        b.store(p, sum);
        let neg = b.neg(x);
        assert_eq!(b.func().operand_type(neg), Type::I32);
        let wide = b.sext(x, Type::I64);
        assert_eq!(b.func().operand_type(wide), Type::I64);
        let abs = b.call("abs", &[x], Type::I32);
        assert_eq!(b.func().operand_type(abs), Type::I32);
        b.ret_void();
        let f = b.finish();
        assert!(matches!(
            f.block(f.entry()).terminator,
            Terminator::Ret { value: None }
        ));
    }
}
