//! Specification of what each processor executes.
//!
//! The rewriting schemes (`gst-core`) compile a source program into one
//! [`ProcessorProgram`] per processor: the local rules (the
//! initialization and processing rules of `Q_i`, `R_i` or `T_i`) plus
//! the routing metadata the runtime needs — the route table that stands
//! for the paper's sending rules, which predicates accept network input,
//! which rules count as *processing* rules for the non-redundancy
//! theorems, and which local relations are pooled into the global answer,
//! and how: `t_out^i`, or `t_in^i` where the route table makes the inboxes
//! a partition or replicas of `t` (the compiler's placement table).

use std::sync::Arc;

use gst_common::{Error, Result, Tuple};
use gst_eval::plan::RelationId;
use gst_eval::FixpointEngine;
use gst_frontend::Program;
use gst_storage::{Database, Relation};

pub use gst_eval::{Route, Shards};

/// The program processor `i` executes, with routing metadata.
#[derive(Debug, Clone)]
pub struct ProcessorProgram {
    /// This processor's index in `P = {0, …, n−1}`.
    pub processor: usize,
    /// The local rules: initialization and processing. Sending is the
    /// route table; receiving and pooling are realized by the runtime.
    pub program: Program,
    /// The sending step: each [`Route`] is the paper's rule family
    /// `t_ij(Ȳ) :- t_out^i(Ȳ), h(v(r)) = j` for all `j`, evaluated by the
    /// engine where a row is emitted when the source has a home inbox (the
    /// row goes to `t_in^i` or an outlet, never into `t_out^i`), else on
    /// every row `advance` admits to `t_out^i` (only fresh rows); a remote
    /// row is shipped to `j` and injected into `t_in^j`, which realizes the
    /// receiving rule without materializing `t_ij` at either end. A route
    /// flagged `retract` carries the over-deletion cone of a DRed update
    /// round: its batches are marked on the envelope so deletion traffic
    /// is accounted separately, and otherwise handled identically.
    pub routes: Vec<Route>,
    /// Predicates that accept injected tuples from the network (this
    /// processor's `t_in^i`s). Declared even when no rule defines them.
    pub inboxes: Vec<RelationId>,
    /// Rule indexes (into `program.rules`) whose firings count as
    /// *processing* work under Definition 4 / Theorems 2 and 6.
    pub processing_rules: Vec<usize>,
    /// `(local, global, shards)`: final pooling puts the local relation —
    /// a rule head, an inbox or a `local_idb` predicate — into the global
    /// answer predicate, as `shards` says the processors' locals relate.
    /// A compiler's claim; a hand-built spec says [`Shards::Overlap`].
    pub pooling: Vec<(RelationId, RelationId, Shards)>,
    /// Additional predicates the engine must treat as derived even
    /// without defining rules, *besides* the inboxes. An update session
    /// lists the updatable base predicates here so live inserts can be
    /// injected into their pending pools and flow through the ordinary
    /// semi-naive delta machinery. Empty in batch mode — batch-mode
    /// plans, firings, and wire traffic are unchanged.
    pub local_idb: Vec<RelationId>,
}

/// A processor program plus the base data it runs over.
///
/// Shared/replicated base relations (paper §4, Example 1) are expressed by
/// giving every worker a clone of the same `Arc` — zero copies. Fragmented
/// bases (Examples 2–3) give each worker its own database holding only its
/// fragment.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// What to run.
    pub program: ProcessorProgram,
    /// The extensional database visible to this worker.
    pub edb: Arc<Database>,
    /// Update-session resume state, `None` in batch mode. Behind an
    /// `Arc`: transports retain spec clones for crash recovery, and a
    /// restarted worker rebuilds from the same seed — which is exactly
    /// what makes epoch recovery correct mid-update-round.
    pub session: Option<Arc<SessionSeed>>,
}

/// The state an update-session round resumes a worker from.
///
/// Each update round is one complete (monotone) run over fresh worker
/// cores; this seed carries everything a round inherits from the
/// previous one. Preseeded relations enter with an **empty delta** —
/// no rule refires on them and no route ships them — while injected
/// tuples enter the pending pools and become the first deltas of the
/// round.
#[derive(Debug, Clone, Default)]
pub struct SessionSeed {
    /// `(predicate, resumed state)` — installed via the engine's
    /// `preseed` before bootstrap. May carry tombstones from the
    /// delete phase of the round.
    pub preseed: Vec<(RelationId, Relation)>,
    /// `(predicate, tuples)` queued into pending pools before the run:
    /// live EDB inserts and DRed rederivation seeds.
    pub inject: Vec<(RelationId, Vec<Tuple>)>,
}

impl WorkerSpec {
    /// Construct this worker's fixpoint engine — the one place the
    /// session seed is applied, so a supervisor-restarted core and a
    /// single-threaded fallback build byte-identical state. Preseeded
    /// relations are installed before bootstrap (empty delta: nothing
    /// refires, nothing ships); injected tuples land in pending pools
    /// and become the first deltas of the run.
    pub fn build_engine(&self) -> Result<FixpointEngine> {
        let mut engine = FixpointEngine::with_routes(
            &self.program.program,
            self.edb.clone(),
            &self.program.extra_idb(),
            self.program.processor,
            &self.program.routes,
        )?;
        if let Some(seed) = &self.session {
            for (pred, state) in &seed.preseed {
                engine.preseed(*pred, state.clone())?;
            }
            for (pred, tuples) in &seed.inject {
                engine.inject(*pred, tuples.iter().cloned())?;
            }
        }
        Ok(engine)
    }
}

impl ProcessorProgram {
    /// All predicates the engine must treat as derived even without
    /// defining rules: the inboxes plus any session-local predicates.
    pub fn extra_idb(&self) -> Vec<RelationId> {
        let mut v = self.inboxes.clone();
        v.extend(self.local_idb.iter().copied());
        v
    }

    /// Every pooling pair must name a relation this processor's engine
    /// holds (a rule head, an inbox, a `local_idb` predicate), of its
    /// global's arity: pooling anything else would silently contribute
    /// nothing to the answer.
    pub fn check_pooling(&self) -> Result<()> {
        let mut held = self.extra_idb();
        held.extend(self.program.rules.iter().map(|r| (r.head.predicate, r.head.terms.len())));
        for &(local, global, _) in &self.pooling {
            let why = if !held.contains(&local) {
                "which it neither derives nor declares as an inbox".to_string()
            } else if local.1 != global.1 {
                format!("into {}/{}", self.program.interner.resolve(global.0), global.1)
            } else {
                continue;
            };
            let name = self.program.interner.resolve(local.0);
            return Err(Error::Runtime(format!("processor {} pools {name}/{}, {why}", self.processor, local.1)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn extra_idb_is_the_inboxes_then_the_local_idb() {
        let (spec, _) = crate::fixtures::lone_worker();
        let mut pp = spec.program;
        let inbox = pp.inboxes[0];
        assert_eq!(pp.extra_idb(), vec![inbox]);
        let local = (pp.program.interner.intern("s"), 1);
        pp.local_idb = vec![local];
        assert_eq!(pp.extra_idb(), vec![inbox, local]);
    }
}
