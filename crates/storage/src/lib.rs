//! Storage layer: relations, hash indexes, the database catalog, and
//! horizontal fragmentation.
//!
//! Everything here is single-threaded and owned; the parallel runtime gives
//! each worker its own `Database` of fragments, mirroring the paper's
//! architecture where relations `t_out^i`, `t_in^i` are local to processor
//! `i` and base relations are either shared (read-only, behind an `Arc` at
//! the runtime layer) or fragmented.

#![warn(missing_docs)]

pub mod database;
pub mod index;
pub mod partition;
pub mod relation;

pub use database::Database;
pub use index::{hash_key, postings_in_range, HashIndex};
pub use partition::{hash_fragment, round_robin_fragment, Fragmentation};
pub use relation::Relation;
