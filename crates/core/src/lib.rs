//! The paper's contribution: parallelizing bottom-up Datalog evaluation
//! with discriminating hash functions.
//!
//! Ganguly, Silberschatz & Tsur, *A Framework for the Parallel Processing
//! of Datalog Queries* (SIGMOD 1990) partitions the ground substitutions
//! of semi-naive evaluation across processors via *discriminating
//! sequences* of variables and *discriminating functions* based on
//! hashing. This crate implements the whole framework:
//!
//! * [`discriminator`] — the function family (§3): hash partitions,
//!   bit-vector and linear `g`-combinations, fragment ownership, and the
//!   §6 keep-local mixes;
//! * [`schemes`] — the rewriting: one loop under one policy per rule
//!   (`v(r)`, `h_k^i`, conditioned or not), which is `Q_i` (§3,
//!   non-redundant), `R_i` (§6, per-processor functions: the
//!   redundancy/communication trade-off), the communication-free scheme of
//!   [Wolfson 88] (§6) or `T_i` (§7, arbitrary programs), and the §4
//!   example presets as policy tables;
//! * [`dataflow`] — argument-position dataflow graphs (§5, Def. 2) and
//!   the Theorem-3 zero-communication chooser;
//! * [`network`] — compile-time derivation of the minimal processor
//!   network (§5, Def. 3, Examples 6–7 / Figures 3–4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod dataflow;
pub mod discriminator;
pub mod network;
pub mod schemes;
pub mod session;

/// Convenient imports for building and running schemes.
pub mod prelude {
    pub use crate::advisor::{choose_sequences, placement, predict, Flow, Pair};
    pub use crate::dataflow::{zero_comm_choice, DataflowGraph, ZeroCommChoice};
    pub use crate::discriminator::{
        decode_constraint, BitFn, BitVector, Constant, DiscConstraint, Discriminator,
        DiscriminatorRef, FragmentOwner, HashMod, Linear, Mixed, SymmetricHashMod,
    };
    pub use crate::network::{derive_network, NetworkGraph, SymbolicDisc};
    pub use crate::schemes::demand::{compile_demand, demand_choices, DEMAND_HASH_SEED};
    pub use crate::schemes::general::{rewrite_general, RuleChoice, RulePolicy};
    pub use crate::schemes::presets::{
        example1_wolfson, example2_valduriez, example3_hash_partition, no_comm, rewrite_sirup,
    };
    pub use crate::schemes::common::first_body_variable;
    pub use crate::schemes::placement::Holds;
    pub use crate::schemes::{BaseDistribution, CompiledScheme};
    pub use crate::session::{RoundReport, UpdateBatch, UpdateSession};
}
