//! Experiment drivers for the reproduction.
//!
//! The 1990 paper is qualitative: its "evaluation" artifacts are Figures
//! 1–4, Examples 1–8 and Theorems 1–6. Every function here regenerates
//! one of those artifacts — or attaches numbers to one of the paper's
//! qualitative claims — and returns a structured result that the
//! `harness` binary renders as text and the test suite asserts on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod tracecheck;

pub use experiments::*;
