//! Deterministic workload generators: graphs and a Datalog program corpus.
//!
//! The 1990 paper predates public benchmark datasets, so experiments use
//! the graph shapes the transitive-closure literature of that era used —
//! chains, cycles, trees, layered DAGs and seeded random digraphs — plus
//! the programs the paper itself names: linear ancestor (its running
//! example, §4), non-linear ancestor (Example 8), the arity-3 chain sirup
//! of Examples 4/7, the two-bit program of Example 6, and same-generation.
//! All generators are seeded and reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graphs;
pub mod programs;

pub use graphs::*;
pub use programs::*;
