//! Shared primitives for the `parallel-datalog` workspace.
//!
//! This crate holds the data-representation layer every other crate builds
//! on: interned [`Value`]s, fixed-arity [`Tuple`]s with an inline
//! small-tuple representation, a fast non-cryptographic hasher
//! ([`fxhash`]), the workspace-wide [`Error`] type, and the one JSON
//! writer and parser ([`json`]) every report and export goes through.
//!
//! Nothing in this crate knows about Datalog; it is the substrate the
//! parser, storage and evaluation layers share so that tuples can cross
//! crate (and thread) boundaries without conversion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fxhash;
pub mod interner;
pub mod json;
pub mod rng;
pub mod tuple;
pub mod value;

pub use error::{Error, Result};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use interner::{Interner, SymbolId};
pub use rng::SmallRng;
pub use tuple::Tuple;
pub use value::{Value, Word};
