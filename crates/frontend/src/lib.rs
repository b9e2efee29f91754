//! Datalog front end: AST, lexer, parser, pretty-printer and static
//! analysis (safety, dependency graph, recursion classification, and the
//! paper's canonical *linear sirup* form).
//!
//! The AST is deliberately small — pure Datalog plus opaque *constraint
//! literals*. Constraint literals are how the parallelization schemes of
//! Ganguly–Silberschatz–Tsur (SIGMOD 1990) inject `h(v(r)) = i` conditions
//! into rewritten rules: the front end only defines the [`ast::Constraint`]
//! interface; `gst-core` supplies hash-based implementations and `gst-eval`
//! evaluates them during semi-naive iteration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod builtins;
pub mod lexer;
pub mod magic;
pub mod parser;
pub mod pretty;
pub mod sirup;

pub use analysis::ProgramAnalysis;
pub use ast::{Atom, Constraint, Literal, Predicate, Program, Rule, Term, Variable};
pub use builtins::{CompareOp, Comparison};
pub use magic::{magic_rewrite, MagicRewrite, MagicRuleInfo, MagicRuleKind};
pub use parser::{parse_program, ParsedUnit};
pub use sirup::LinearSirup;
