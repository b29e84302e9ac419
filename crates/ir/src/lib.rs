//! # latte-ir
//!
//! The intermediate representation of the Latte compiler: affine index
//! expressions, scalar expression trees, loop-nest statements with tiling /
//! parallelism annotations, matched library-kernel nodes, and buffer
//! declarations.
//!
//! In the paper, Latte's IR is "a superset of the internal Julia AST" and
//! neuron bodies are obtained by macro introspection. Rust has no such
//! introspection, so this crate *is* the substitute: neuron bodies are
//! written directly against [`Expr`] / [`Stmt`] through builder APIs in
//! `latte-core`, and every compiler pass (shared-variable analysis, GEMM
//! pattern matching, tiling, cross-layer fusion, parallelization) is a
//! transformation over these types.
//!
//! # Examples
//!
//! ```
//! use latte_ir::{BufRef, Expr, IndexExpr, Stmt};
//!
//! // for n in 0..4 { for i in 0..3 { value[n] += inputs[i] * weights[i, n] } }
//! let nest = Stmt::for_loop("n", 4, vec![Stmt::for_loop("i", 3, vec![
//!     Stmt::accumulate(
//!         BufRef::new("value", vec![IndexExpr::var("n")]),
//!         Expr::load("inputs", vec![IndexExpr::var("i")])
//!             .mul(Expr::load("weights", vec![IndexExpr::var("i"), IndexExpr::var("n")])),
//!     ),
//! ])]);
//! assert!(nest.to_string().contains("value[n] += (inputs[i] * weights[i, n])"));
//! ```

#![warn(missing_docs)]

mod buffer;
mod expr;
mod stmt;
pub mod verify;

pub use buffer::{BufferDecl, BufferKind};
pub use expr::{BinOp, BufRef, Expr, IndexExpr, UnaryOp};
pub use stmt::{
    print_stmts, Assign, AssignOp, CopyStmt, ExternOp, GatherStmt, GemmDim, GemmStmt, GemmTiling,
    Loop, LoopAnnot, Stmt, TileInfo,
};
pub use verify::{verify_buffers, verify_program, VerifyError};
