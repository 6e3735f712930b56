//! Lowering from the mini-C AST to the IR.
//!
//! Every local variable and parameter is given a stack slot (`alloca`) with
//! explicit loads and stores; the optimizer's `mem2reg` pass later promotes
//! them to SSA values, mirroring the clang → LLVM pipeline the paper uses.
//! Short-circuit operators and the conditional operator lower to control
//! flow, so the checker's reachability conditions see exactly the branch
//! structure the programmer wrote. Array indexing carries the declared array
//! bound on the emitted `ptradd`, which feeds the buffer-overflow UB
//! condition of Figure 3.

use crate::ast::*;
use crate::diag::Diag;
use stack_ir::{
    BinOp, CmpPred, FunctionBuilder, InstKind, Module, Operand, Origin, Param, SourceLoc, Type,
};
use std::collections::HashMap;

/// Lower a translation unit into an IR module.
pub fn lower(unit: &TranslationUnit, file_name: &str) -> Result<Module, Diag> {
    let mut module = Module::new(file_name);
    // Collect return types of functions defined in this unit so calls between
    // them type-check.
    let signatures: HashMap<String, CType> = unit
        .functions
        .iter()
        .map(|f| (f.name.clone(), f.ret_ty.clone()))
        .collect();
    for func in &unit.functions {
        let lowered = FuncLowerer::new(func, &signatures).lower()?;
        module.add_function(lowered);
    }
    Ok(module)
}

/// Convenience: lex, parse, and lower a source string.
pub fn compile(src: &str, file_name: &str) -> Result<Module, Diag> {
    let tokens = crate::lexer::lex(src)?;
    let unit = crate::parser::parse(&tokens)?;
    lower(&unit, file_name)
}

/// A local variable's stack slot.
#[derive(Clone, Debug)]
struct Slot {
    /// Pointer to the slot (an `alloca` result or, for parameters, the copy).
    ptr: Operand,
    /// Declared C type of the variable (element type for arrays).
    ty: CType,
    /// Array element count, if declared as an array.
    array: Option<u64>,
}

struct FuncLowerer<'a> {
    def: &'a FuncDef,
    signatures: &'a HashMap<String, CType>,
    builder: FunctionBuilder,
    scopes: Vec<HashMap<String, Slot>>,
}

impl<'a> FuncLowerer<'a> {
    fn new(def: &'a FuncDef, signatures: &'a HashMap<String, CType>) -> Self {
        let params: Vec<Param> = def
            .params
            .iter()
            .map(|p| Param {
                name: p.name.clone(),
                ty: ctype_to_ir(&p.ty),
            })
            .collect();
        let builder = FunctionBuilder::new(&def.name, params, ctype_to_ir(&def.ret_ty));
        FuncLowerer {
            def,
            signatures,
            builder,
            scopes: vec![HashMap::new()],
        }
    }

    fn lower(mut self) -> Result<stack_ir::Function, Diag> {
        // Give every parameter a stack slot so assignments to parameters work;
        // mem2reg removes the indirection later.
        self.set_origin(&self.def.span.clone());
        for (i, p) in self.def.params.iter().enumerate() {
            let slot_ptr = self.builder.alloca(ctype_to_ir(&p.ty), 1);
            self.builder.store(slot_ptr, Operand::Param(i as u32));
            self.current_scope()?.insert(
                p.name.clone(),
                Slot {
                    ptr: slot_ptr,
                    ty: p.ty.clone(),
                    array: None,
                },
            );
        }
        let body = self.def.body.clone();
        self.lower_stmts(&body)?;
        // Fall-through return.
        self.ensure_terminated();
        Ok(self.builder.finish())
    }

    fn ensure_terminated(&mut self) {
        let cur = self.builder.current_block();
        let has_term = !matches!(
            self.builder.func().block(cur).terminator,
            stack_ir::Terminator::Unreachable
        );
        if !has_term {
            match &self.def.ret_ty {
                CType::Void => self.builder.ret_void(),
                ty => {
                    let zero = Operand::int(ctype_to_ir(ty), 0);
                    self.builder.ret(zero);
                }
            }
        }
    }

    fn set_origin(&mut self, span: &Span) {
        let loc = SourceLoc::new(span.line, span.column);
        let origin = match &span.from_macro {
            Some(name) => Origin::macro_expansion(loc, name),
            None => Origin::programmer(loc),
        };
        self.builder.set_origin(origin);
    }

    /// The slot of the innermost variable named `name`, or an "unknown
    /// variable" error at `span`.
    fn lookup(&self, name: &str, span: &Span) -> Result<Slot, Diag> {
        match self.scopes.iter().rev().find_map(|scope| scope.get(name)) {
            Some(slot) => Ok(slot.clone()),
            None => self.err(&format!("unknown variable `{name}`"), span),
        }
    }

    fn err<T>(&self, msg: &str, span: &Span) -> Result<T, Diag> {
        Err(Diag::new(
            format!("{}: {msg}", self.def.name),
            span.line,
            span.column,
        ))
    }

    /// The innermost scope. A scope is pushed before any statement lowers
    /// and the stack never drains below the function scope, so an empty
    /// stack is a broken internal invariant — reported as a [`Diag`] like
    /// every other lowering error instead of panicking the caller.
    fn current_scope(&mut self) -> Result<&mut HashMap<String, Slot>, Diag> {
        let function = self.def.name.clone();
        self.scopes
            .last_mut()
            .ok_or_else(|| Diag::new(format!("{function}: internal error: no active scope"), 0, 0))
    }

    // ---- Statements -------------------------------------------------------------

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), Diag> {
        for s in stmts {
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn block_is_terminated(&self) -> bool {
        !matches!(
            self.builder
                .func()
                .block(self.builder.current_block())
                .terminator,
            stack_ir::Terminator::Unreachable
        )
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), Diag> {
        // Statements after a return in the same block are unreachable; skip
        // them rather than emitting into a terminated block.
        if self.block_is_terminated() {
            return Ok(());
        }
        match stmt {
            Stmt::Decl {
                name,
                ty,
                array,
                init,
                span,
            } => {
                self.set_origin(span);
                let count = array.unwrap_or(1);
                let elem_ir = ctype_to_ir(ty);
                let slot_ptr = self.builder.alloca(elem_ir, count);
                self.current_scope()?.insert(
                    name.clone(),
                    Slot {
                        ptr: slot_ptr,
                        ty: ty.clone(),
                        array: *array,
                    },
                );
                if let Some(init) = init {
                    let (value, vty) = self.lower_expr(init)?;
                    let converted = self.convert(value, &vty, ty, span)?;
                    self.set_origin(span);
                    self.builder.store(slot_ptr, converted);
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.lower_expr(e)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => {
                let (cv, cty) = self.lower_expr(cond)?;
                let flag = self.make_cond(cv, &cty, span)?;
                self.set_origin(span);
                let then_bb = self.builder.add_block("if.then");
                let else_bb = self.builder.add_block("if.else");
                let merge_bb = self.builder.add_block("if.end");
                self.builder.cond_br(flag, then_bb, else_bb);

                self.builder.switch_to(then_bb);
                self.scopes.push(HashMap::new());
                self.lower_stmts(then_body)?;
                self.scopes.pop();
                if !self.block_is_terminated() {
                    self.builder.br(merge_bb);
                }

                self.builder.switch_to(else_bb);
                self.scopes.push(HashMap::new());
                self.lower_stmts(else_body)?;
                self.scopes.pop();
                if !self.block_is_terminated() {
                    self.builder.br(merge_bb);
                }

                self.builder.switch_to(merge_bb);
                Ok(())
            }
            Stmt::While { cond, body, span } => {
                let header = self.builder.add_block("while.cond");
                let body_bb = self.builder.add_block("while.body");
                let exit = self.builder.add_block("while.end");
                self.set_origin(span);
                self.builder.br(header);
                self.builder.switch_to(header);
                let (cv, cty) = self.lower_expr(cond)?;
                let flag = self.make_cond(cv, &cty, span)?;
                self.set_origin(span);
                self.builder.cond_br(flag, body_bb, exit);
                self.builder.switch_to(body_bb);
                self.scopes.push(HashMap::new());
                self.lower_stmts(body)?;
                self.scopes.pop();
                if !self.block_is_terminated() {
                    self.builder.br(header);
                }
                self.builder.switch_to(exit);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.lower_stmt(init)?;
                }
                let header = self.builder.add_block("for.cond");
                let body_bb = self.builder.add_block("for.body");
                let exit = self.builder.add_block("for.end");
                self.set_origin(span);
                self.builder.br(header);
                self.builder.switch_to(header);
                let flag = match cond {
                    Some(c) => {
                        let (cv, cty) = self.lower_expr(c)?;
                        self.make_cond(cv, &cty, span)?
                    }
                    None => Operand::bool(true),
                };
                self.set_origin(span);
                self.builder.cond_br(flag, body_bb, exit);
                self.builder.switch_to(body_bb);
                self.lower_stmts(body)?;
                if let Some(step) = step {
                    if !self.block_is_terminated() {
                        self.lower_expr(step)?;
                    }
                }
                if !self.block_is_terminated() {
                    self.builder.br(header);
                }
                self.builder.switch_to(exit);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return { value, span } => {
                self.set_origin(span);
                match value {
                    None => self.builder.ret_void(),
                    Some(e) => {
                        let (v, vty) = self.lower_expr(e)?;
                        let ret_ty = self.def.ret_ty.clone();
                        let converted = self.convert(v, &vty, &ret_ty, span)?;
                        self.set_origin(span);
                        self.builder.ret(converted);
                    }
                }
                Ok(())
            }
            Stmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                self.lower_stmts(stmts)?;
                self.scopes.pop();
                Ok(())
            }
        }
    }

    // ---- Expressions --------------------------------------------------------------

    /// Lower an expression; returns the IR operand and its C type.
    fn lower_expr(&mut self, expr: &Expr) -> Result<(Operand, CType), Diag> {
        match expr {
            Expr::IntLit { value, span } => {
                self.set_origin(span);
                // Literals that do not fit 32 bits become 64-bit.
                let ty = if *value > i64::from(i32::MAX) || *value < i64::from(i32::MIN) {
                    CType::long()
                } else {
                    CType::int()
                };
                Ok((Operand::int(ctype_to_ir(&ty), *value), ty))
            }
            Expr::Null { span } => {
                self.set_origin(span);
                Ok((Operand::null(), CType::ptr_to(CType::Void)))
            }
            Expr::Var { name, span } => {
                self.set_origin(span);
                let slot = self.lookup(name, span)?;
                if slot.array.is_some() {
                    // Arrays decay to a pointer to their first element.
                    Ok((slot.ptr, CType::ptr_to(slot.ty.clone())))
                } else {
                    let value = self
                        .builder
                        .load_named(slot.ptr, ctype_to_ir(&slot.ty), name);
                    Ok((value, slot.ty))
                }
            }
            Expr::Unary { op, operand, span } => self.lower_unary(*op, operand, span),
            Expr::Binary { op, lhs, rhs, span } => self.lower_binary(*op, lhs, rhs, span),
            Expr::Conditional {
                cond,
                then,
                els,
                span,
            } => {
                let (cv, cty) = self.lower_expr(cond)?;
                let flag = self.make_cond(cv, &cty, span)?;
                self.set_origin(span);
                let then_bb = self.builder.add_block("cond.then");
                let else_bb = self.builder.add_block("cond.else");
                let merge = self.builder.add_block("cond.end");
                self.builder.cond_br(flag, then_bb, else_bb);
                self.builder.switch_to(then_bb);
                let (tv, tty) = self.lower_expr(then)?;
                let then_end = self.builder.current_block();
                self.builder.br(merge);
                self.builder.switch_to(else_bb);
                let (ev, ety) = self.lower_expr(els)?;
                // Unify the two branch types.
                let common = common_type(&tty, &ety);
                let ev = self.convert(ev, &ety, &common, span)?;
                let else_end = self.builder.current_block();
                self.builder.br(merge);
                // Conversion of the then-value must happen in the then block;
                // go back and do it there if needed.
                self.builder.switch_to(then_end);
                let tv = self.convert(tv, &tty, &common, span)?;
                self.builder.br(merge);
                self.builder.switch_to(merge);
                let phi = self
                    .builder
                    .phi(ctype_to_ir(&common), vec![(then_end, tv), (else_end, ev)]);
                Ok((phi, common))
            }
            Expr::Index { base, index, span } => {
                let (ptr, elem_ty, bound) = self.lower_index_address(base, index, span)?;
                self.set_origin(span);
                let _ = bound;
                let value = self.builder.load(ptr, ctype_to_ir(&elem_ty));
                Ok((value, elem_ty))
            }
            Expr::Member { base, field, span } => {
                let (bv, bty) = self.lower_expr(base)?;
                if !bty.is_pointer() {
                    return self.err("member access through non-pointer", span);
                }
                self.set_origin(span);
                // Field-insensitive: load a pointer-sized value through the
                // base pointer. The null-dereference UB condition attaches to
                // this load, which is what the analysis needs.
                let value = self.builder.load_named(bv, Type::I64, field);
                Ok((
                    value,
                    CType::Int {
                        width: 64,
                        signed: true,
                    },
                ))
            }
            Expr::Call { callee, args, span } => {
                let mut arg_ops = Vec::new();
                for a in args {
                    let (v, _) = self.lower_expr(a)?;
                    arg_ops.push(v);
                }
                self.set_origin(span);
                let ret_ty = self.callee_return_type(callee);
                let result = self.builder.call(callee, &arg_ops, ctype_to_ir(&ret_ty));
                Ok((result, ret_ty))
            }
            Expr::Cast { ty, operand, span } => {
                let (v, vty) = self.lower_expr(operand)?;
                let converted = self.convert(v, &vty, ty, span)?;
                Ok((converted, ty.clone()))
            }
            Expr::Assign {
                target,
                value,
                span,
            } => {
                let (v, vty) = self.lower_expr(value)?;
                self.lower_store_to(target, v, &vty, span)
            }
            Expr::PostIncrement { target, span } => {
                let (old, ty) = self.lower_expr(target)?;
                let one = Operand::int(ctype_to_ir(&ty), 1);
                self.set_origin(span);
                let new = if ty.is_signed_int() {
                    self.builder.add_nsw(old, one)
                } else {
                    self.builder.add(old, one)
                };
                self.lower_store_to(target, new, &ty, span)?;
                Ok((old, ty))
            }
            Expr::SizeOf { ty, span } => {
                self.set_origin(span);
                Ok((
                    Operand::int(Type::I64, ty.byte_size() as i64),
                    CType::ulong(),
                ))
            }
        }
    }

    /// Compute the address and element type of `base[index]`.
    fn lower_index_address(
        &mut self,
        base: &Expr,
        index: &Expr,
        span: &Span,
    ) -> Result<(Operand, CType, Option<u64>), Diag> {
        // Direct indexing of a declared array keeps its bound for the
        // buffer-overflow UB condition.
        let (base_op, base_ty, bound) = match base {
            Expr::Var { name, span: vspan } => {
                let slot = self.lookup(name, vspan)?;
                if slot.array.is_some() {
                    self.set_origin(vspan);
                    (slot.ptr, CType::ptr_to(slot.ty.clone()), slot.array)
                } else {
                    let (v, t) = self.lower_expr(base)?;
                    (v, t, None)
                }
            }
            _ => {
                let (v, t) = self.lower_expr(base)?;
                (v, t, None)
            }
        };
        if !base_ty.is_pointer() {
            return self.err("indexing a non-pointer", span);
        }
        let elem_ty = base_ty.pointee();
        let elem_ty = if elem_ty == CType::Void {
            CType::char_ty()
        } else {
            elem_ty
        };
        let (iv, ity) = self.lower_expr(index)?;
        let idx64 = self.convert(iv, &ity, &CType::long(), span)?;
        self.set_origin(span);
        let ptr = match bound {
            Some(b) => self
                .builder
                .ptr_add_bounded(base_op, idx64, elem_ty.byte_size(), b),
            None => self.builder.ptr_add(base_op, idx64, elem_ty.byte_size()),
        };
        Ok((ptr, elem_ty, bound))
    }

    /// Store `value` into the lvalue `target`.
    fn lower_store_to(
        &mut self,
        target: &Expr,
        value: Operand,
        vty: &CType,
        span: &Span,
    ) -> Result<(Operand, CType), Diag> {
        match target {
            Expr::Var { name, span: vspan } => {
                let slot = self.lookup(name, vspan)?;
                let converted = self.convert(value, vty, &slot.ty, span)?;
                self.set_origin(span);
                self.builder.store(slot.ptr, converted);
                Ok((converted, slot.ty))
            }
            Expr::Unary {
                op: UnOpKind::Deref,
                operand,
                span: dspan,
            } => {
                let (ptr, pty) = self.lower_expr(operand)?;
                if !pty.is_pointer() {
                    return self.err("store through non-pointer", dspan);
                }
                let elem = pty.pointee();
                let elem = if elem == CType::Void {
                    CType::long()
                } else {
                    elem
                };
                let converted = self.convert(value, vty, &elem, span)?;
                self.set_origin(span);
                self.builder.store(ptr, converted);
                Ok((converted, elem))
            }
            Expr::Index {
                base,
                index,
                span: ispan,
            } => {
                let (ptr, elem_ty, _) = self.lower_index_address(base, index, ispan)?;
                let converted = self.convert(value, vty, &elem_ty, span)?;
                self.set_origin(span);
                self.builder.store(ptr, converted);
                Ok((converted, elem_ty))
            }
            Expr::Member {
                base, span: mspan, ..
            } => {
                let (bv, bty) = self.lower_expr(base)?;
                if !bty.is_pointer() {
                    return self.err("member store through non-pointer", mspan);
                }
                let converted = self.convert(value, vty, &CType::long(), span)?;
                self.set_origin(span);
                self.builder.store(bv, converted);
                Ok((converted, CType::long()))
            }
            other => self.err(&format!("unsupported assignment target {other:?}"), span),
        }
    }

    fn lower_unary(
        &mut self,
        op: UnOpKind,
        operand: &Expr,
        span: &Span,
    ) -> Result<(Operand, CType), Diag> {
        match op {
            UnOpKind::Neg => {
                let (v, ty) = self.lower_expr(operand)?;
                self.set_origin(span);
                let neg = if ty.is_signed_int() {
                    self.builder.neg_nsw(v)
                } else {
                    self.builder.neg(v)
                };
                Ok((neg, ty))
            }
            UnOpKind::BitNot => {
                let (v, ty) = self.lower_expr(operand)?;
                self.set_origin(span);
                let all_ones = Operand::int(ctype_to_ir(&ty), -1);
                let r = self.builder.bin(BinOp::Xor, v, all_ones);
                Ok((r, ty))
            }
            UnOpKind::Not => {
                let (v, ty) = self.lower_expr(operand)?;
                self.set_origin(span);
                let flag = if ty.is_pointer() {
                    self.builder.is_null(v)
                } else if ty == CType::Bool {
                    self.builder.cmp(CmpPred::Eq, v, Operand::bool(false))
                } else {
                    let zero = Operand::int(ctype_to_ir(&ty), 0);
                    self.builder.cmp(CmpPred::Eq, v, zero)
                };
                Ok((flag, CType::Bool))
            }
            UnOpKind::Deref => {
                let (v, ty) = self.lower_expr(operand)?;
                if !ty.is_pointer() {
                    return self.err("dereference of non-pointer", span);
                }
                let elem = ty.pointee();
                let elem = if elem == CType::Void {
                    CType::long()
                } else {
                    elem
                };
                self.set_origin(span);
                let value = self.builder.load(v, ctype_to_ir(&elem));
                Ok((value, elem))
            }
            UnOpKind::AddrOf => match operand {
                Expr::Var { name, span: vspan } => {
                    let slot = self.lookup(name, vspan)?;
                    self.set_origin(span);
                    Ok((slot.ptr, CType::ptr_to(slot.ty)))
                }
                Expr::Unary {
                    op: UnOpKind::Deref,
                    operand,
                    ..
                } => self.lower_expr(operand),
                Expr::Index {
                    base,
                    index,
                    span: ispan,
                } => {
                    let (ptr, elem, _) = self.lower_index_address(base, index, ispan)?;
                    Ok((ptr, CType::ptr_to(elem)))
                }
                other => self.err(&format!("cannot take the address of {other:?}"), span),
            },
        }
    }

    fn lower_binary(
        &mut self,
        op: BinOpKind,
        lhs: &Expr,
        rhs: &Expr,
        span: &Span,
    ) -> Result<(Operand, CType), Diag> {
        // Short-circuit operators lower to control flow.
        if matches!(op, BinOpKind::LogicalAnd | BinOpKind::LogicalOr) {
            return self.lower_short_circuit(op, lhs, rhs, span);
        }
        let (lv, lty) = self.lower_expr(lhs)?;
        let (rv, rty) = self.lower_expr(rhs)?;

        // Pointer arithmetic and pointer comparisons.
        if lty.is_pointer() || rty.is_pointer() {
            return self.lower_pointer_op(op, lv, lty, rv, rty, span);
        }

        let common = common_type(&lty, &rty);
        let lv = self.convert(lv, &lty, &common, span)?;
        let rv = self.convert(rv, &rty, &common, span)?;
        let signed = common.is_signed_int();
        self.set_origin(span);
        // Signed +, -, * carry the `nsw` marker: their overflow is undefined
        // behavior (Figure 3), unlike unsigned wrap-around.
        let arith = |b: &mut FunctionBuilder, op: BinOp, l: Operand, r: Operand| {
            if signed {
                b.bin_nsw(op, l, r)
            } else {
                b.bin(op, l, r)
            }
        };
        let result = match op {
            BinOpKind::Add => (arith(&mut self.builder, BinOp::Add, lv, rv), common),
            BinOpKind::Sub => (arith(&mut self.builder, BinOp::Sub, lv, rv), common),
            BinOpKind::Mul => (arith(&mut self.builder, BinOp::Mul, lv, rv), common),
            BinOpKind::Div => (
                self.builder
                    .bin(if signed { BinOp::SDiv } else { BinOp::UDiv }, lv, rv),
                common,
            ),
            BinOpKind::Rem => (
                self.builder
                    .bin(if signed { BinOp::SRem } else { BinOp::URem }, lv, rv),
                common,
            ),
            BinOpKind::Shl => (self.builder.bin(BinOp::Shl, lv, rv), common),
            BinOpKind::Shr => (
                self.builder
                    .bin(if signed { BinOp::AShr } else { BinOp::LShr }, lv, rv),
                common,
            ),
            BinOpKind::BitAnd => (self.builder.bin(BinOp::And, lv, rv), common),
            BinOpKind::BitOr => (self.builder.bin(BinOp::Or, lv, rv), common),
            BinOpKind::BitXor => (self.builder.bin(BinOp::Xor, lv, rv), common),
            BinOpKind::Lt
            | BinOpKind::Le
            | BinOpKind::Gt
            | BinOpKind::Ge
            | BinOpKind::Eq
            | BinOpKind::Ne => {
                let Some(pred) = comparison_pred(op, signed) else {
                    return self.err("internal error: non-comparison operator", span);
                };
                (self.builder.cmp(pred, lv, rv), CType::Bool)
            }
            BinOpKind::LogicalAnd | BinOpKind::LogicalOr => {
                return self.err(
                    "internal error: short-circuit operator reached arithmetic lowering",
                    span,
                )
            }
        };
        Ok(result)
    }

    fn lower_pointer_op(
        &mut self,
        op: BinOpKind,
        lv: Operand,
        lty: CType,
        rv: Operand,
        rty: CType,
        span: &Span,
    ) -> Result<(Operand, CType), Diag> {
        self.set_origin(span);
        match op {
            BinOpKind::Add | BinOpKind::Sub if lty.is_pointer() && !rty.is_pointer() => {
                // p + i / p - i: scale by the element size.
                let elem = lty.pointee();
                let size = if elem == CType::Void {
                    1
                } else {
                    elem.byte_size()
                };
                let idx = self.convert(rv, &rty, &CType::long(), span)?;
                self.set_origin(span);
                let idx = if op == BinOpKind::Sub {
                    self.builder.neg(idx)
                } else {
                    idx
                };
                let p = self.builder.ptr_add(lv, idx, size);
                Ok((p, lty))
            }
            BinOpKind::Add if rty.is_pointer() && !lty.is_pointer() => {
                self.lower_pointer_op(BinOpKind::Add, rv, rty, lv, lty, span)
            }
            BinOpKind::Sub if lty.is_pointer() && rty.is_pointer() => {
                // Pointer difference in bytes (the corpus uses it only for
                // comparisons against lengths).
                let li = Operand::Inst(
                    self.builder
                        .emit(InstKind::PtrToInt { value: lv }, Type::I64),
                );
                let ri = Operand::Inst(
                    self.builder
                        .emit(InstKind::PtrToInt { value: rv }, Type::I64),
                );
                let d = self.builder.sub(li, ri);
                Ok((d, CType::long()))
            }
            BinOpKind::Eq
            | BinOpKind::Ne
            | BinOpKind::Lt
            | BinOpKind::Le
            | BinOpKind::Gt
            | BinOpKind::Ge => {
                // Pointer comparison; integer literals (0 / NULL) become the
                // null pointer constant.
                let lv = self.coerce_to_pointer(lv, &lty);
                let rv = self.coerce_to_pointer(rv, &rty);
                let Some(pred) = comparison_pred(op, false) else {
                    return self.err("internal error: non-comparison operator", span);
                };
                Ok((self.builder.cmp(pred, lv, rv), CType::Bool))
            }
            other => self.err(&format!("unsupported pointer operation {other:?}"), span),
        }
    }

    fn coerce_to_pointer(&mut self, v: Operand, ty: &CType) -> Operand {
        if ty.is_pointer() {
            v
        } else if v.is_const_value(0) {
            Operand::null()
        } else {
            Operand::Inst(
                self.builder
                    .emit(InstKind::IntToPtr { value: v }, Type::Ptr),
            )
        }
    }

    fn lower_short_circuit(
        &mut self,
        op: BinOpKind,
        lhs: &Expr,
        rhs: &Expr,
        span: &Span,
    ) -> Result<(Operand, CType), Diag> {
        let (lv, lty) = self.lower_expr(lhs)?;
        let lflag = self.make_cond(lv, &lty, span)?;
        self.set_origin(span);
        let lhs_end = self.builder.current_block();
        let rhs_bb = self.builder.add_block("sc.rhs");
        let merge = self.builder.add_block("sc.end");
        match op {
            BinOpKind::LogicalAnd => self.builder.cond_br(lflag, rhs_bb, merge),
            BinOpKind::LogicalOr => self.builder.cond_br(lflag, merge, rhs_bb),
            _ => {
                return self.err(
                    "internal error: lower_short_circuit needs a short-circuit operator",
                    span,
                )
            }
        }
        self.builder.switch_to(rhs_bb);
        let (rv, rty) = self.lower_expr(rhs)?;
        let rflag = self.make_cond(rv, &rty, span)?;
        let rhs_end = self.builder.current_block();
        self.set_origin(span);
        self.builder.br(merge);
        self.builder.switch_to(merge);
        let short_value = Operand::bool(op == BinOpKind::LogicalOr);
        let phi = self
            .builder
            .phi(Type::Bool, vec![(lhs_end, short_value), (rhs_end, rflag)]);
        Ok((phi, CType::Bool))
    }

    /// Convert a value to a boolean condition (`!= 0` / `!= NULL`).
    fn make_cond(&mut self, v: Operand, ty: &CType, span: &Span) -> Result<Operand, Diag> {
        self.set_origin(span);
        Ok(match ty {
            CType::Bool => v,
            CType::Pointer(_) => {
                let is_null = self.builder.is_null(v);
                self.builder.cmp(CmpPred::Eq, is_null, Operand::bool(false))
            }
            CType::Int { .. } => {
                let zero = Operand::int(ctype_to_ir(ty), 0);
                self.builder.cmp(CmpPred::Ne, v, zero)
            }
            CType::Void => return self.err("void value used as a condition", span),
        })
    }

    /// Convert between C types, inserting the appropriate IR cast.
    fn convert(
        &mut self,
        v: Operand,
        from: &CType,
        to: &CType,
        span: &Span,
    ) -> Result<Operand, Diag> {
        if from == to {
            return Ok(v);
        }
        self.set_origin(span);
        let result = match (from, to) {
            (CType::Bool, CType::Int { width, .. }) => self.builder.zext(v, Type::Int(*width)),
            (CType::Bool, CType::Pointer(_)) => {
                let wide = self.builder.zext(v, Type::I64);
                Operand::Inst(
                    self.builder
                        .emit(InstKind::IntToPtr { value: wide }, Type::Ptr),
                )
            }
            (CType::Int { .. }, CType::Bool) => {
                let zero = Operand::int(ctype_to_ir(from), 0);
                self.builder.cmp(CmpPred::Ne, v, zero)
            }
            (
                CType::Int {
                    width: wf,
                    signed: sf,
                },
                CType::Int { width: wt, .. },
            ) => {
                if wt > wf {
                    if *sf {
                        self.builder.sext(v, Type::Int(*wt))
                    } else {
                        self.builder.zext(v, Type::Int(*wt))
                    }
                } else if wt < wf {
                    self.builder.trunc(v, Type::Int(*wt))
                } else {
                    v // same width, only signedness differs
                }
            }
            (CType::Int { width, signed }, CType::Pointer(_)) => {
                if v.is_const_value(0) {
                    Operand::null()
                } else {
                    let wide = if *width < 64 {
                        if *signed {
                            self.builder.sext(v, Type::I64)
                        } else {
                            self.builder.zext(v, Type::I64)
                        }
                    } else {
                        v
                    };
                    Operand::Inst(
                        self.builder
                            .emit(InstKind::IntToPtr { value: wide }, Type::Ptr),
                    )
                }
            }
            (CType::Pointer(_), CType::Int { width, .. }) => {
                let int = Operand::Inst(
                    self.builder
                        .emit(InstKind::PtrToInt { value: v }, Type::I64),
                );
                if *width < 64 {
                    self.builder.trunc(int, Type::Int(*width))
                } else {
                    int
                }
            }
            (CType::Pointer(_), CType::Pointer(_)) => v,
            (CType::Pointer(_), CType::Bool) => {
                let n = self.builder.is_null(v);
                self.builder.cmp(CmpPred::Eq, n, Operand::bool(false))
            }
            (CType::Void, _) | (_, CType::Void) => {
                return self.err(&format!("cannot convert between {from:?} and {to:?}"), span)
            }
            (CType::Bool, CType::Bool) => v,
        };
        Ok(result)
    }

    /// Return type of a called function: defined in this unit, a known
    /// library function, or `int` by default.
    fn callee_return_type(&self, name: &str) -> CType {
        if let Some(ty) = self.signatures.get(name) {
            return ty.clone();
        }
        match name {
            "malloc" | "calloc" | "realloc" | "__string_literal" => CType::ptr_to(CType::char_ty()),
            "strchr" | "strrchr" | "strstr" | "memchr" => CType::ptr_to(CType::char_ty()),
            "memcpy" | "memmove" | "memset" => CType::ptr_to(CType::Void),
            "free" => CType::Void,
            "abs" => CType::int(),
            "labs" | "llabs" => CType::long(),
            "strlen" | "simple_strtoul" | "strtoul" => CType::ulong(),
            "strtol" | "strtoll" => CType::long(),
            _ => CType::int(),
        }
    }
}

/// Map a C type to an IR type.
pub fn ctype_to_ir(ty: &CType) -> Type {
    match ty {
        CType::Void => Type::Void,
        CType::Bool => Type::Bool,
        CType::Int { width, .. } => Type::Int(*width),
        CType::Pointer(_) => Type::Ptr,
    }
}

/// The usual arithmetic conversions, simplified: promote to the wider of the
/// operands (at least `int`); the result is unsigned if either promoted
/// operand is unsigned at the common width.
fn common_type(a: &CType, b: &CType) -> CType {
    let (wa, sa) = int_info(a);
    let (wb, sb) = int_info(b);
    let width = wa.max(wb).max(32);
    let signed = match wa.cmp(&wb) {
        std::cmp::Ordering::Greater => sa,
        std::cmp::Ordering::Less => sb,
        std::cmp::Ordering::Equal => sa && sb,
    };
    CType::Int { width, signed }
}

fn int_info(t: &CType) -> (u32, bool) {
    match t {
        CType::Int { width, signed } => (*width, *signed),
        CType::Bool => (1, false),
        CType::Pointer(_) => (64, false),
        CType::Void => (32, true),
    }
}

/// The IR predicate of a comparison operator, or `None` for a
/// non-comparison operator (callers surface that as a lowering [`Diag`],
/// never a panic — the library must stay panic-free on any input).
fn comparison_pred(op: BinOpKind, signed: bool) -> Option<CmpPred> {
    Some(match (op, signed) {
        (BinOpKind::Eq, _) => CmpPred::Eq,
        (BinOpKind::Ne, _) => CmpPred::Ne,
        (BinOpKind::Lt, true) => CmpPred::Slt,
        (BinOpKind::Lt, false) => CmpPred::Ult,
        (BinOpKind::Le, true) => CmpPred::Sle,
        (BinOpKind::Le, false) => CmpPred::Ule,
        (BinOpKind::Gt, true) => CmpPred::Sgt,
        (BinOpKind::Gt, false) => CmpPred::Ugt,
        (BinOpKind::Ge, true) => CmpPred::Sge,
        (BinOpKind::Ge, false) => CmpPred::Uge,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack_ir::verify_function;

    fn compile_ok(src: &str) -> Module {
        let m = compile(src, "test.c").expect("compilation should succeed");
        for f in m.functions() {
            if let Err(errs) = verify_function(f) {
                panic!(
                    "verification of {} failed: {:?}\n{}",
                    f.name,
                    errs,
                    stack_ir::print_function(f)
                );
            }
        }
        m
    }

    #[test]
    fn lower_figure1_pointer_overflow_check() {
        let m = compile_ok(
            "int check(char *buf, char *buf_end, unsigned int len) {\n\
               if (buf + len >= buf_end) return -1;\n\
               if (buf + len < buf) return -1;\n\
               return 0;\n\
             }",
        );
        let f = m.function("check").unwrap();
        // Expect pointer arithmetic and pointer comparisons in the IR.
        let text = stack_ir::print_function(f);
        assert!(text.contains("ptradd"));
        assert!(text.contains("icmp ult") || text.contains("icmp uge"));
        assert!(f.num_blocks() >= 5);
    }

    #[test]
    fn lower_figure2_null_check_after_deref() {
        let m = compile_ok(
            "int poll(struct tun_struct *tun) {\n\
               long sk = tun->sk;\n\
               if (!tun) return 1;\n\
               return 0;\n\
             }",
        );
        let f = m.function("poll").unwrap();
        let text = stack_ir::print_function(f);
        // The member access becomes a load through the parameter; the null
        // check becomes a pointer comparison against null.
        assert!(text.contains("load i64"));
        assert!(text.contains("null"));
    }

    #[test]
    fn lower_signed_division_and_overflow_check() {
        let m = compile_ok(
            "int64_t int8div(int64_t arg1, int64_t arg2) {\n\
               if (arg2 == 0) return -1;\n\
               int64_t result = arg1 / arg2;\n\
               if (arg2 == -1 && arg1 < 0 && result <= 0) return -2;\n\
               return result;\n\
             }",
        );
        let f = m.function("int8div").unwrap();
        let text = stack_ir::print_function(f);
        assert!(text.contains("sdiv i64"));
        // Short-circuit && produces extra blocks and a phi.
        assert!(text.contains("phi"));
    }

    #[test]
    fn lower_shift_and_unsigned_ops() {
        let m = compile_ok(
            "unsigned int f(unsigned int x, int s) {\n\
               unsigned int a = x << s;\n\
               unsigned int b = x >> s;\n\
               unsigned int c = x / 3;\n\
               return a + b + c;\n\
             }",
        );
        let text = stack_ir::print_function(m.function("f").unwrap());
        assert!(text.contains("shl i32"));
        assert!(text.contains("lshr i32"));
        assert!(text.contains("udiv i32"));
    }

    #[test]
    fn lower_array_indexing_with_bound() {
        let m = compile_ok(
            "int f(int i) {\n\
               char buf[15];\n\
               buf[i] = 1;\n\
               return buf[0];\n\
             }",
        );
        let text = stack_ir::print_function(m.function("f").unwrap());
        assert!(text.contains("bound 15"));
        assert!(text.contains("alloca i8 x 15"));
    }

    #[test]
    fn lower_loops_and_calls() {
        let m = compile_ok(
            "int sum(int n) {\n\
               int total = 0;\n\
               for (int i = 0; i < n; i = i + 1) total += i;\n\
               while (total > 1000) total = total - helper(total);\n\
               return total;\n\
             }\n\
             int helper(int x) { return x / 2; }",
        );
        assert_eq!(m.len(), 2);
        let text = stack_ir::print_function(m.function("sum").unwrap());
        assert!(text.contains("call i32 @helper"));
        // Loop structure: at least header/body/exit blocks for both loops.
        assert!(m.function("sum").unwrap().num_blocks() >= 7);
    }

    #[test]
    fn lower_abs_and_ternary() {
        let m = compile_ok(
            "int f(int x) {\n\
               int a = abs(x);\n\
               return a < 0 ? -a : a;\n\
             }",
        );
        let text = stack_ir::print_function(m.function("f").unwrap());
        assert!(text.contains("call i32 @abs"));
        assert!(text.contains("phi"));
    }

    #[test]
    fn macro_expanded_code_is_tagged() {
        let m = compile_ok(
            "#define IS_VALID(p) (p != NULL)\n\
             int f(char *p) {\n\
               long v = *p;\n\
               if (IS_VALID(p)) return 1;\n\
               return 0;\n\
             }",
        );
        let f = m.function("f").unwrap();
        // At least one instruction must be marked as macro-expanded.
        let any_macro = f.all_insts().iter().any(|&(_, i)| {
            matches!(
                f.inst(i).origin.kind,
                stack_ir::OriginKind::MacroExpansion { .. }
            )
        });
        assert!(any_macro, "{}", stack_ir::print_function(f));
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let err = compile("int f(void) { return x; }", "t.c").unwrap_err();
        assert!(err.message.contains("unknown variable"));
    }

    #[test]
    fn post_increment_returns_old_value() {
        let m = compile_ok("int f(int x) { int y = x++; return y; }");
        let text = stack_ir::print_function(m.function("f").unwrap());
        assert!(text.contains("add i32"));
    }

    #[test]
    fn strchr_plus_one_null_check_lowering() {
        // The Figure 11 pattern from the Linux kernel sysctl code.
        let m = compile_ok(
            "int parse(char *buf) {\n\
               char *nodep = strchr(buf, '.') + 1;\n\
               if (!nodep) return -5;\n\
               return 0;\n\
             }",
        );
        let text = stack_ir::print_function(m.function("parse").unwrap());
        assert!(text.contains("call ptr @strchr") || text.contains("call i8"));
        assert!(text.contains("ptradd"));
    }
}
