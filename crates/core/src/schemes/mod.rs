//! The paper's parallelization schemes as one program rewriting.
//!
//! [`general`] holds the loop, [`general::rewrite`] — the only code that
//! turns (program, one [`general::RulePolicy`] per rule, base distribution)
//! into per-processor programs. A policy is a rule's `v(r)`, its `h_k^i`
//! per processor and whether the rule is conditioned on them:
//! [`RulePolicy::shared`](general::RulePolicy::shared) (conditioned, one
//! `h`) or [`RulePolicy::local`](general::RulePolicy::local)
//! (unconditioned, `h_i` per processor). [`presets`] holds the named policy
//! tables of a linear sirup `[exit, recursive]`, which compiles through
//! [`presets::rewrite_sirup`], and [`demand`] one more for magic-sets
//! rewrites. Where a row can be is one [`placement`] table the loop builds
//! from the policies and checks before any tuple moves.
//!
//! | Scheme | Paper | policies | base |
//! |---|---|---|---|
//! | `rewrite_sirup` | §3 `Q_i` | `[shared(v(e), h'), shared(v(r), h)]` | given |
//! | `rewrite_sirup` | §6 `R_i` | `[shared(v(e), h'), local(v(r) ⊆ Ȳ, h_i)]` | shared |
//! | [`presets::no_comm`] | §6 / [Wolfson 88] | `[shared(first exit-body variable, hash), local(⟨⟩, h_i(x) = i)]` | shared |
//! | [`general::rewrite_general`] | §7 `T_i` | `shared(v(r_k), h_k)` per rule | given |
//! | [`presets::example1_wolfson`] | §4 Ex. 1 | `[shared(v(e), h), shared(a dataflow cycle, h)]`, `h` symmetric | shared |
//! | [`presets::example2_valduriez`] | §4 Ex. 2 | `[shared(v(e), h), shared(the base atom's variables, h)]`, `h` the fragment owner | its fragments |
//! | [`presets::example3_hash_partition`] | §4 Ex. 3 | `[shared(v(e), h), shared(Ȳ's first base-bound variable, h)]`, `h` a hash | minimal fragments |
//! | [`demand::compile_demand`] | §7 | `shared(the magic guard, h)` per rule | minimal fragments |
//!
//! Over one processor no rule is conditioned: `h(v(r)) = 0` always holds
//! there. Every rewriting produces a [`CompiledScheme`]: one
//! [`gst_runtime::WorkerSpec`] per processor plus the identity of the
//! global answer predicates. Executing it runs the real multi-threaded
//! runtime and returns pooled relations plus communication statistics.

pub mod common;
pub mod demand;
pub mod general;
pub mod placement;
pub mod presets;

use gst_common::Result;
use gst_eval::plan::RelationId;
use gst_runtime::{
    ExecutionOutcome, FaultPlan, RuntimeConfig, SimTransport, ThreadedTransport, Transport,
    WorkerSpec,
};

pub use common::BaseDistribution;
use placement::Holds;

/// A fully compiled parallel execution plan.
#[derive(Debug, Clone)]
pub struct CompiledScheme {
    /// One spec per processor, position-indexed.
    pub workers: Vec<WorkerSpec>,
    /// The global (source-program) predicates the answer pools into.
    pub answers: Vec<RelationId>,
    /// What every inbox of each answer holds: the rewrite's placement table.
    pub holds: Vec<(RelationId, Holds)>,
    /// Which rewriting produced this (for reports).
    pub kind: &'static str,
}

impl CompiledScheme {
    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.workers.len()
    }

    /// Run the scheme on OS threads ([`gst_runtime::ThreadedTransport`]).
    pub fn execute(&self, config: &RuntimeConfig) -> Result<ExecutionOutcome> {
        ThreadedTransport.execute(self.workers.clone(), config)
    }

    /// Run with default runtime settings.
    pub fn run(&self) -> Result<ExecutionOutcome> {
        self.execute(&RuntimeConfig::default())
    }

    /// Run under the deterministic simulation transport: all processors
    /// interleaved on one thread under a virtual clock, with the schedule
    /// and every injected fault drawn from `seed` (see
    /// [`gst_runtime::SimTransport`]). Same seed, same plan ⇒ bit-for-bit
    /// the same run — model, firings, channel matrix — which makes a
    /// fixed-seed, fault-free run the deterministic reference for the
    /// threaded one.
    pub fn run_simulated(&self, seed: u64, faults: FaultPlan) -> Result<ExecutionOutcome> {
        self.run_simulated_with(seed, faults, &RuntimeConfig::default())
    }

    /// [`run_simulated`](Self::run_simulated) with explicit runtime
    /// settings — in particular the supervisor's restart budget, which
    /// governs whether a `recover`-marked crash in the fault plan is
    /// survivable.
    pub fn run_simulated_with(
        &self,
        seed: u64,
        faults: FaultPlan,
        config: &RuntimeConfig,
    ) -> Result<ExecutionOutcome> {
        SimTransport::with_faults(seed, faults).execute(self.workers.clone(), config)
    }
}
