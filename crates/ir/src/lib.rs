//! `stack-ir` — a typed, SSA-style intermediate representation.
//!
//! This crate is the reproduction's stand-in for the LLVM IR that STACK
//! (Wang et al., SOSP 2013) analyzes. The mini-C frontend lowers source
//! programs into this IR, the optimizer crate transforms it, and the checker
//! crate inserts undefined-behavior conditions and runs its solver-based
//! elimination/simplification algorithms over it.
//!
//! Design notes:
//!
//! * Instructions live in a per-function arena ([`function::Function`]);
//!   basic blocks hold ordered lists of instruction ids plus a terminator.
//! * Types are integers of explicit width, an opaque pointer type, booleans,
//!   and void ([`types::Type`]); signedness is a property of operations.
//! * Every instruction records an [`origin::Origin`] (source location plus
//!   programmer/macro provenance) which the checker uses to suppress
//!   reports about macro-generated code, mirroring §4.2 of the paper.
//! * UB conditions (§4.3) are not IR instructions: `stack_core::ubcond`
//!   builds them as solver terms over the IR.

pub mod builder;
pub mod cfg;
pub mod dom;
pub mod function;
pub mod inst;
pub mod module;
pub mod origin;
pub mod printer;
pub mod types;
pub mod value;
pub mod verifier;

pub use builder::FunctionBuilder;
pub use cfg::Cfg;
pub use dom::DomTree;
pub use function::{Block, Function, InstPositions, Param};
pub use inst::{BinOp, CmpPred, Inst, InstKind, Operands, ProgramPoint, Successors, Terminator};
pub use module::Module;
pub use origin::{Origin, OriginKind, SourceLoc};
pub use printer::{print_function, print_inst, print_module, print_terminator};
pub use types::{Type, POINTER_WIDTH};
pub use value::{BlockId, Constant, InstId, Operand};
pub use verifier::{verify_function, verify_module, VerifyError};
