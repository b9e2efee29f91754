//! Bottom-up Datalog evaluation: rule→plan compilation, a join executor,
//! and naive / semi-naive fixpoint engines.
//!
//! The paper assumes "the bottom-up evaluation of Datalog programs is done
//! using semi-naive evaluation" (§2). This crate provides that engine in a
//! reusable, round-at-a-time form ([`FixpointEngine`]) so the parallel
//! runtime can interleave evaluation rounds with the paper's send/receive
//! steps, plus one-shot drivers ([`seminaive_eval`], [`naive_eval`]) for
//! sequential baselines.
//!
//! Firing statistics are first-class: Theorems 2 and 6 of the paper bound
//! the *number of successful ground substitutions* in the parallel
//! execution by the sequential count, so [`EvalStats`] counts every rule
//! firing and every duplicate, per rule, making the non-redundancy
//! theorems executable assertions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod exec;
pub mod plan;
pub mod route;
pub mod stats;

pub use engine::{fire_once, naive_eval, seminaive_eval, EvalResult, FixpointEngine, CHUNK_ROWS};
pub use plan::{compile_rule, AtomSource, PlanStep, RulePlan};
pub use route::{Outlet, Route, Shards};
pub use stats::{EvalStats, TimeMode};
