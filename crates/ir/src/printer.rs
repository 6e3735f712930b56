//! Textual rendering of the IR, for debugging, reports, and golden tests.

use crate::function::Function;
use crate::inst::{InstKind, Terminator};
use crate::module::Module;
use crate::value::InstId;
use std::fmt::Write;

/// Render a whole module.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "; module {}", module.name);
    for func in module.functions() {
        out.push_str(&print_function(func));
        out.push('\n');
    }
    out
}

/// Render a single function.
pub fn print_function(func: &Function) -> String {
    let mut out = String::new();
    let params: Vec<String> = func
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{} %arg{}<{}>", p.ty, i, p.name))
        .collect();
    let _ = writeln!(
        out,
        "define {} @{}({}) {{",
        func.ret_ty,
        func.name,
        params.join(", ")
    );
    for b in func.block_ids() {
        let block = func.block(b);
        let label = block.name.clone().unwrap_or_else(|| format!("{b}"));
        let _ = writeln!(out, "{b}: ; {label}");
        for &i in &block.insts {
            let _ = writeln!(out, "  {}", print_inst(func, i));
        }
        let _ = writeln!(out, "  {}", print_terminator(&block.terminator));
    }
    out.push_str("}\n");
    out
}

/// Render one instruction.
pub fn print_inst(func: &Function, id: InstId) -> String {
    let inst = func.inst(id);
    let name_suffix = inst
        .name
        .as_ref()
        .map(|n| format!(" ; {n}"))
        .unwrap_or_default();
    let body = match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => {
            format!("{id} = {} {} {lhs}, {rhs}", op.mnemonic(), inst.ty)
        }
        InstKind::Cmp { pred, lhs, rhs } => {
            format!("{id} = icmp {} {lhs}, {rhs}", pred.mnemonic())
        }
        InstKind::PtrAdd {
            ptr,
            offset,
            elem_size,
            bound,
        } => {
            let bound_str = bound.map(|b| format!(", bound {b}")).unwrap_or_default();
            format!("{id} = ptradd {ptr}, {offset}, size {elem_size}{bound_str}")
        }
        InstKind::Load { ptr, ty } => format!("{id} = load {ty}, {ptr}"),
        InstKind::Store { ptr, value } => format!("store {value}, {ptr}"),
        InstKind::Alloca { elem_ty, count } => format!("{id} = alloca {elem_ty} x {count}"),
        InstKind::Call { callee, args, ty } => {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            format!("{id} = call {ty} @{callee}({})", args.join(", "))
        }
        InstKind::ZExt { value, to } => format!("{id} = zext {value} to {to}"),
        InstKind::SExt { value, to } => format!("{id} = sext {value} to {to}"),
        InstKind::Trunc { value, to } => format!("{id} = trunc {value} to {to}"),
        InstKind::PtrToInt { value } => format!("{id} = ptrtoint {value}"),
        InstKind::IntToPtr { value } => format!("{id} = inttoptr {value}"),
        InstKind::Phi { incomings } => {
            let inc: Vec<String> = incomings
                .iter()
                .map(|(b, op)| format!("[{op}, {b}]"))
                .collect();
            format!("{id} = phi {} {}", inst.ty, inc.join(", "))
        }
    };
    format!("{body}{name_suffix}")
}

/// Render a terminator.
pub fn print_terminator(term: &Terminator) -> String {
    match term {
        Terminator::Br { target } => format!("br {target}"),
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } => format!("br {cond}, {then_bb}, {else_bb}"),
        Terminator::Ret { value: Some(v) } => format!("ret {v}"),
        Terminator::Ret { value: None } => "ret void".to_string(),
        Terminator::Unreachable => "unreachable".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpPred;
    use crate::types::Type;
    use crate::value::Operand;

    #[test]
    fn printing_is_stable_and_complete() {
        let mut b =
            FunctionBuilder::with_params("f", &[("p", Type::Ptr), ("x", Type::I32)], Type::I32);
        let p = b.param(0);
        let x = b.param(1);
        let deref = b.load_named(p, Type::I32, "p_value");
        let sum = b.add(x, Operand::int(Type::I32, 100));
        b.cmp(CmpPred::Slt, sum, x);
        let abs = b.call("abs", &[deref], Type::I32);
        b.ret(abs);
        let f = b.finish();
        let text = print_function(&f);
        assert!(text.contains("define i32 @f(ptr %arg0<p>, i32 %arg1<x>)"));
        assert!(text.contains("load i32"));
        assert!(text.contains("; p_value"));
        assert!(text.contains("add i32"));
        assert!(text.contains("icmp slt"));
        assert!(text.contains("call i32 @abs"));
        assert!(text.contains("ret"));
    }

    #[test]
    fn module_printing() {
        let mut m = Module::new("unit.c");
        let mut b = FunctionBuilder::with_params("g", &[], Type::Void);
        b.ret_void();
        m.add_function(b.finish());
        let text = print_module(&m);
        assert!(text.contains("; module unit.c"));
        assert!(text.contains("define void @g()"));
        assert!(text.contains("ret void"));
    }

    #[test]
    fn terminator_rendering() {
        use crate::value::BlockId;
        assert_eq!(
            print_terminator(&Terminator::Br { target: BlockId(2) }),
            "br bb2"
        );
        assert_eq!(print_terminator(&Terminator::Unreachable), "unreachable");
        assert_eq!(
            print_terminator(&Terminator::Ret { value: None }),
            "ret void"
        );
    }
}
