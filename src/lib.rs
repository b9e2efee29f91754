//! # parallel-datalog
//!
//! A Rust implementation of **"A Framework for the Parallel Processing of
//! Datalog Queries"** (Ganguly, Silberschatz & Tsur, SIGMOD 1990): parallel
//! bottom-up (semi-naive) Datalog evaluation driven by *discriminating
//! hash functions* that partition the set of ground substitutions across
//! processors, with provably non-redundant computation and compile-time
//! derivation of the minimal interprocessor network.
//!
//! This crate is a facade that re-exports the workspace layers:
//!
//! * [`common`] — values, tuples, interning, hashing;
//! * [`frontend`] — Datalog parser, AST, program analysis, linear sirups;
//! * [`storage`] — relations, indexes, deltas, fragmentation;
//! * [`eval`] — naive and semi-naive sequential engines;
//! * [`runtime`] — multi-worker runtime with channels, and termination
//!   detected by one supervisor from the workers' link watermarks;
//! * [`core`] — the paper's contribution: discriminating functions, the
//!   rewriting schemes of §3/§6/§7, dataflow graphs (§5) and minimal
//!   network-graph derivation (§5);
//! * [`workloads`] — deterministic graph generators and a program corpus.
//!
//! ## Quickstart
//!
//! Parallel transitive closure on 4 processors with the paper's §3
//! non-redundant scheme (Example 3's discriminating choice):
//!
//! ```
//! use std::sync::Arc;
//! use parallel_datalog::prelude::*;
//!
//! // Parse the program and its facts.
//! let unit = parse_program(
//!     "anc(X,Y) :- par(X,Y).\n\
//!      anc(X,Y) :- par(X,Z), anc(Z,Y).\n\
//!      par(1,2). par(2,3). par(3,4).",
//! ).unwrap();
//! let mut db = Database::new(unit.program.interner.clone());
//! db.load_facts(unit.facts).unwrap();
//!
//! // Recognize the linear sirup and pick discriminating sequences.
//! let sirup = LinearSirup::from_program(&unit.program).unwrap();
//! let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
//!
//! // Execute on 4 real worker threads and pool the answer.
//! let outcome = scheme.run().unwrap();
//! let anc = (unit.program.interner.get("anc").unwrap(), 2);
//! assert_eq!(outcome.relation(anc).len(), 6);
//!
//! // The parallel run fires no more rules than sequential semi-naive
//! // evaluation (the paper's Theorem 2).
//! let seq = seminaive_eval(&unit.program, &db).unwrap();
//! assert!(outcome.stats.total_processing_firings() <= seq.stats.firings);
//! ```

#![forbid(unsafe_code)]

pub use gst_common as common;
pub use gst_core as core;
pub use gst_eval as eval;
pub use gst_frontend as frontend;
pub use gst_runtime as runtime;
pub use gst_storage as storage;
pub use gst_workloads as workloads;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use gst_common::{ituple, Error, Interner, Result, SmallRng, Tuple, Value, Word};
    pub use gst_core::prelude::*;
    pub use gst_eval::{naive_eval, seminaive_eval, EvalResult, EvalStats, FixpointEngine};
    pub use gst_frontend::{
        parse_program, Atom, LinearSirup, Literal, Predicate, Program, ProgramAnalysis, Rule,
        Term, Variable,
    };
    pub use gst_runtime::{
        ExecutionOutcome, ProcessorProgram, Route, RuntimeConfig,
        SessionSeed, ThreadedTransport, Transport, WorkerSpec,
    };
    pub use gst_storage::{
        hash_fragment, round_robin_fragment, Database, Fragmentation, HashIndex, Relation,
    };
}
