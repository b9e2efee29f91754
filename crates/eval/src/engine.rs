//! The semi-naive fixpoint engine, exposed round-at-a-time.
//!
//! A [`FixpointEngine`] owns the derived-relation state of one evaluation
//! site (the whole computation when sequential; one processor `i` when
//! parallel) and is driven in three strokes:
//!
//! 1. [`FixpointEngine::bootstrap`] — fire the rules with no derived body
//!    atoms (the initialization rules of the paper's schemes) into the
//!    pending pool;
//! 2. [`FixpointEngine::advance`] — end a round: deduplicate pending
//!    tuples into fresh deltas (the paper's "difference operation");
//! 3. [`FixpointEngine::process_round`] — fire every delta version of
//!    every recursive rule against the current deltas, producing the next
//!    pending pool.
//!
//! The parallel runtime interleaves [`FixpointEngine::inject`] (receive)
//! and delta draining (send) between strokes; the sequential drivers
//! [`seminaive_eval`] and [`naive_eval`] just loop.

use std::sync::Arc;

use gst_common::{Error, FxHashMap, Result, Tuple};
use gst_frontend::{Program, ProgramAnalysis};
use gst_storage::{Database, HashIndex, Relation};

use crate::exec::{run_plan, run_plan_morsels_profiled, Access, MorselConfig, MorselPool};
use crate::plan::{compile_rule_with, idb_occurrence_count, AtomSource, PlanOptions, PlanStep, RelationId, RulePlan};
use crate::stats::{EvalStats, TimeMode};

/// Derived-relation state under semi-naive iteration.
///
/// The delta is not a second relation: `full` is an insertion-ordered
/// row arena, and the delta is its suffix `full.rows()[delta_start..]`
/// — the rows the last [`IdbState::advance`] appended. The `Old` view
/// (`T_{i-1}`) is the complementary prefix, so both views are borrowed
/// row ranges of one arena and share its hash indexes.
#[derive(Debug)]
struct IdbState {
    full: Relation,
    /// First arena row of the current delta.
    delta_start: usize,
    pending: Vec<Tuple>,
}

impl IdbState {
    fn new(arity: usize) -> Self {
        IdbState {
            full: Relation::new(arity),
            delta_start: 0,
            pending: Vec::new(),
        }
    }

    /// `pending ∖ full → delta`; returns `(submitted, fresh)`. The set
    /// insert into the arena is the paper's difference operation — the
    /// surviving rows *are* the new delta.
    fn advance(&mut self) -> (u64, u64) {
        let submitted = self.pending.len() as u64;
        self.delta_start = self.full.len();
        let fresh = self.full.insert_batch(&mut self.pending);
        (submitted, fresh)
    }

    /// The current delta as a borrowed arena suffix.
    fn delta_slice(&self) -> &[Tuple] {
        &self.full.rows()[self.delta_start..]
    }

    fn delta_is_empty(&self) -> bool {
        self.delta_start == self.full.len()
    }
}

type IndexKey = (RelationId, Vec<usize>);

/// A resumable semi-naive evaluator for one evaluation site.
pub struct FixpointEngine {
    edb: Arc<Database>,
    idb: FxHashMap<RelationId, IdbState>,
    /// Plans fired every round (delta versions of rules with derived
    /// body atoms).
    round_plans: Vec<RulePlan>,
    /// Plans fired once at bootstrap (no derived body atoms).
    bootstrap_plans: Vec<RulePlan>,
    edb_indexes: FxHashMap<IndexKey, HashIndex>,
    /// One index per (relation, columns) serves the full, `Old`, and
    /// delta views — they are row ranges of the same arena.
    full_indexes: FxHashMap<IndexKey, HashIndex>,
    stats: EvalStats,
    bootstrapped: bool,
    /// Predicates installed by [`FixpointEngine::preseed`]: bootstrap
    /// must not seed these again from the EDB.
    preseeded: Vec<RelationId>,
    /// Morsel-parallel join settings (disabled by default; the sequential
    /// and morsel paths produce bit-identical results, see
    /// [`run_plan_morsels`]).
    morsels: MorselConfig,
    /// Persistent helper threads for the morsel path, created by
    /// [`FixpointEngine::set_morsels`] when it enables morsels. Spawning
    /// threads per round would cost more than a medium delta's join work.
    pool: Option<MorselPool>,
    /// Per-rule / per-chunk time attribution mode (off by default; the
    /// unprofiled path pays one branch per rule execution).
    time_mode: TimeMode,
    /// Scratch buffer for morsel chunk `(micros, tuples)` samples,
    /// reused across rule executions to avoid per-rule allocation.
    chunk_scratch: Vec<(u64, u64)>,
}

impl FixpointEngine {
    /// Build an engine for `program` over the base relations in `edb`.
    ///
    /// `extra_idb` declares predicates that receive tuples only via
    /// [`FixpointEngine::inject`] (the incoming-channel predicates `t_ji`
    /// of the paper's receive rules); they are treated as derived even
    /// though no rule in `program` defines them.
    pub fn new(program: &Program, edb: Arc<Database>, extra_idb: &[RelationId]) -> Result<Self> {
        Self::with_options(program, edb, extra_idb, PlanOptions::default())
    }

    /// [`FixpointEngine::new`] with explicit [`PlanOptions`] — used by the
    /// ablation benchmarks to disable individual planner optimizations.
    pub fn with_options(
        program: &Program,
        edb: Arc<Database>,
        extra_idb: &[RelationId],
        options: PlanOptions,
    ) -> Result<Self> {
        ProgramAnalysis::new(program)?; // safety check

        let mut idb: FxHashMap<RelationId, IdbState> = FxHashMap::default();
        for rule in &program.rules {
            let id: RelationId = (rule.head.predicate, rule.head.terms.len());
            idb.entry(id).or_insert_with(|| IdbState::new(id.1));
        }
        for &id in extra_idb {
            idb.entry(id).or_insert_with(|| IdbState::new(id.1));
        }

        let idb_ids: Vec<RelationId> = idb.keys().copied().collect();
        let is_idb = move |rel: RelationId| idb_ids.contains(&rel);

        let mut round_plans = Vec::new();
        let mut bootstrap_plans = Vec::new();
        for (rule_index, rule) in program.rules.iter().enumerate() {
            let occurrences = idb_occurrence_count(rule, &is_idb);
            if occurrences == 0 {
                bootstrap_plans.push(compile_rule_with(rule, rule_index, &is_idb, None, options)?);
            } else {
                for version in 0..occurrences {
                    round_plans.push(compile_rule_with(
                        rule,
                        rule_index,
                        &is_idb,
                        Some(version),
                        options,
                    )?);
                }
            }
        }

        let stats = EvalStats::new(program.rules.len());
        Ok(FixpointEngine {
            edb,
            idb,
            round_plans,
            bootstrap_plans,
            edb_indexes: FxHashMap::default(),
            full_indexes: FxHashMap::default(),
            stats,
            bootstrapped: false,
            preseeded: Vec::new(),
            morsels: MorselConfig::default(),
            pool: None,
            time_mode: TimeMode::Off,
            chunk_scratch: Vec::new(),
        })
    }

    /// Set the morsel-parallel join configuration. Safe to call at any
    /// point: the morsel path is bit-identical to the sequential one, so
    /// this only changes how large leading scans are executed.
    pub fn set_morsels(&mut self, morsels: MorselConfig) {
        self.morsels = morsels;
        if morsels.enabled() {
            if self.pool.as_ref().map(MorselPool::participants) != Some(morsels.threads) {
                self.pool = Some(MorselPool::new(morsels.threads));
            }
        } else {
            self.pool = None;
        }
    }

    /// Set the time-attribution mode. `Wall` splits per-rule compute time
    /// in microseconds; `Ticks` uses deterministic work proxies (firings,
    /// tuples) so simulated runs profile reproducibly; `Off` (default)
    /// records nothing. Safe to call at any point — attribution is purely
    /// observational.
    pub fn set_time_mode(&mut self, mode: TimeMode) {
        self.time_mode = mode;
    }

    /// Install `state` as the complete already-derived relation for
    /// `pred`, with an **empty delta**: the rows are treated as known
    /// from previous evaluation rounds, so no rule refires on them and
    /// they sit below every shipping watermark. This is how an update
    /// session resumes a maintained fixpoint — each round's engine
    /// starts from the previous round's state instead of re-deriving it.
    ///
    /// The relation may carry tombstones (rows deleted between rounds);
    /// dead rows stay out of scans and dedup probes but keep their
    /// arena slots, so `state.len()` is the correct resume watermark.
    ///
    /// Must be called before [`FixpointEngine::bootstrap`]; the EDB
    /// seeding that bootstrap would do for `pred` is skipped (the
    /// preseeded state already includes whatever survived).
    ///
    /// # Errors
    /// `pred` must be a derived predicate of matching arity, and the
    /// engine must not have bootstrapped yet.
    pub fn preseed(&mut self, pred: RelationId, state: Relation) -> Result<()> {
        if self.bootstrapped {
            return Err(Error::Eval("preseed after bootstrap".into()));
        }
        if state.arity() != pred.1 {
            return Err(Error::Eval(format!(
                "preseed arity {} != predicate arity {}",
                state.arity(),
                pred.1
            )));
        }
        let s = self.idb.get_mut(&pred).ok_or_else(|| {
            Error::Eval(format!("preseed of non-derived predicate {pred:?}"))
        })?;
        s.delta_start = state.len();
        s.full = state;
        self.preseeded.push(pred);
        Ok(())
    }

    /// Derived predicates (including injected channel predicates).
    pub fn idb_predicates(&self) -> Vec<RelationId> {
        self.idb.keys().copied().collect()
    }

    /// Everything derived so far for `pred` (None if not derived here).
    pub fn relation(&self, pred: RelationId) -> Option<&Relation> {
        self.idb.get(&pred).map(|s| &s.full)
    }

    /// The previous round's fresh tuples for `pred` — a borrowed slice
    /// of the relation's row arena (what a worker transmits on the
    /// channels after an advance, and encodes without copying).
    pub fn delta_tuples(&self, pred: RelationId) -> &[Tuple] {
        self.idb.get(&pred).map(|s| s.delta_slice()).unwrap_or(&[])
    }

    /// Everything appended to `pred`'s row arena at or after row `from` —
    /// a borrowed slice spanning any number of rounds. Workers read what
    /// a channel has not shipped yet this way: the arena keeps rows in
    /// insertion order, so the backlog is just a suffix.
    pub fn rows_from(&self, pred: RelationId, from: usize) -> &[Tuple] {
        self.idb
            .get(&pred)
            .map(|s| &s.full.rows()[from.min(s.full.len())..])
            .unwrap_or(&[])
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Queue externally received tuples for `pred` (the receive step).
    pub fn inject(&mut self, pred: RelationId, tuples: impl IntoIterator<Item = Tuple>) -> Result<()> {
        let state = self.idb.get_mut(&pred).ok_or_else(|| {
            Error::Eval(format!("inject into non-derived predicate {pred:?}"))
        })?;
        for t in tuples {
            if t.arity() != pred.1 {
                return Err(Error::Eval(format!(
                    "injected tuple arity {} != predicate arity {}",
                    t.arity(),
                    pred.1
                )));
            }
            state.pending.push(t);
        }
        Ok(())
    }

    /// Queue externally received tuples for `pred` by letting `fill`
    /// append directly into the pending pool — the zero-copy receive
    /// path: a transport decoder writes tuples where the engine will
    /// drain them, with no intermediate buffer. The arity invariant of
    /// [`FixpointEngine::inject`] is preserved by checking the appended
    /// suffix afterwards; on any failure the pool is rolled back to its
    /// pre-call length.
    ///
    /// # Errors
    /// `pred` must be a derived predicate; `fill`'s error is propagated;
    /// appending a tuple of the wrong arity is rejected.
    pub fn inject_with<T>(
        &mut self,
        pred: RelationId,
        fill: impl FnOnce(&mut Vec<Tuple>) -> Result<T>,
    ) -> Result<T> {
        let state = self.idb.get_mut(&pred).ok_or_else(|| {
            Error::Eval(format!("inject into non-derived predicate {pred:?}"))
        })?;
        let before = state.pending.len();
        match fill(&mut state.pending) {
            Ok(v) => {
                if let Some(bad) = state.pending[before..].iter().find(|t| t.arity() != pred.1)
                {
                    let got = bad.arity();
                    state.pending.truncate(before);
                    return Err(Error::Eval(format!(
                        "injected tuple arity {got} != predicate arity {}",
                        pred.1
                    )));
                }
                Ok(v)
            }
            Err(e) => {
                state.pending.truncate(before);
                Err(e)
            }
        }
    }

    /// Queue every row of `from` at or after arena row `from_row` into the
    /// pending pool of `to` — the path for a worker's self-channel
    /// (`t_ii`), which needs no wire format: the self-channel counterpart
    /// of encoding [`FixpointEngine::rows_from`]. Returns the tuples
    /// queued.
    ///
    /// # Errors
    /// `to` must be a derived predicate with the same arity as `from`.
    pub fn loopback_from(
        &mut self,
        from: RelationId,
        to: RelationId,
        from_row: usize,
    ) -> Result<u64> {
        if !self.idb.contains_key(&to) {
            return Err(Error::Eval(format!(
                "loopback into non-derived predicate {to:?}"
            )));
        }
        if from.1 != to.1 {
            return Err(Error::Eval(format!(
                "loopback arity mismatch: {} -> {}",
                from.1, to.1
            )));
        }
        if from == to || self.idb.get(&from).is_none_or(|s| s.full.len() <= from_row) {
            // Self-loopback would only re-submit rows the arena already
            // holds; an empty backlog ships nothing.
            return Ok(0);
        }
        let mut dst = self.idb.remove(&to).expect("presence checked above");
        let n = {
            let src = &self.idb[&from].full.rows()[from_row..];
            dst.pending.extend_from_slice(src);
            src.len() as u64
        };
        self.idb.insert(to, dst);
        Ok(n)
    }

    /// True when no delta and no pending tuples exist anywhere — the local
    /// idle condition of the paper's termination test.
    pub fn quiescent(&self) -> bool {
        self.idb
            .values()
            .all(|s| s.delta_is_empty() && s.pending.is_empty())
    }

    /// Fire initialization rules (no derived body atoms) and seed derived
    /// predicates that have facts in the EDB. Idempotent.
    pub fn bootstrap(&mut self) -> Result<()> {
        if self.bootstrapped {
            return Ok(());
        }
        self.bootstrapped = true;

        // Facts supplied for derived predicates become part of the input
        // — except for preseeded predicates, whose resumed state already
        // reflects every surviving input fact.
        let edb = Arc::clone(&self.edb);
        for (&id, state) in self.idb.iter_mut() {
            if self.preseeded.contains(&id) {
                continue;
            }
            if let Some(rel) = edb.relation(id) {
                state.pending.extend(rel.iter().cloned());
            }
        }

        for i in 0..self.bootstrap_plans.len() {
            self.run_plan_step(PlanSet::Bootstrap, i);
        }
        Ok(())
    }

    /// End the round: move pending to deltas, update incremental indexes.
    /// Returns the number of fresh tuples across all derived predicates.
    pub fn advance(&mut self) -> u64 {
        let mut fresh_total = 0;
        let mut submitted_total = 0;
        let ids: Vec<RelationId> = self.idb.keys().copied().collect();
        for id in ids {
            let state = self.idb.get_mut(&id).expect("iterating own keys");
            let (submitted, fresh) = state.advance();
            self.stats.record_advance(submitted, fresh);
            submitted_total += submitted;
            fresh_total += fresh;
            if fresh > 0 {
                // Feed the appended arena rows into every cached index of
                // this relation so the fixpoint stays O(total tuples), not
                // O(rounds × tuples). `sync` reads the rows in place — no
                // delta copy, no tuple clones.
                let full = &self.idb[&id].full;
                for ((rel, _cols), index) in self.full_indexes.iter_mut() {
                    if *rel == id {
                        index.sync(full);
                    }
                }
            }
        }
        self.stats.end_round(submitted_total, fresh_total);
        fresh_total
    }

    /// Fire every delta-version plan once, pushing results into pending.
    pub fn process_round(&mut self) {
        for i in 0..self.round_plans.len() {
            self.run_plan_step(PlanSet::Round, i);
        }
    }

    /// Sync indexes, run one plan, and record its firings — plus, when a
    /// [`TimeMode`] is active, its time attribution: per-rule compute
    /// time (wall micros or firings-as-ticks) and per-chunk morsel
    /// service samples. The `Off` path is the pre-profiling code exactly,
    /// modulo two predictable branches.
    fn run_plan_step(&mut self, set: PlanSet, i: usize) {
        self.sync_indexes_for(set, i);
        let plan = self.plan(set, i);
        let head = plan.head;
        let rule_index = plan.rule_index;
        let mut pending = self.take_pending(head);
        let timing = self.time_mode;
        let mut chunk_scratch = std::mem::take(&mut self.chunk_scratch);
        chunk_scratch.clear();
        let t0 = (timing == TimeMode::Wall).then(std::time::Instant::now);
        let collector = (timing != TimeMode::Off).then_some(&mut chunk_scratch);
        let (firings, morsels) = self.run_one_into(set, i, &mut pending, collector);
        match timing {
            TimeMode::Off => {}
            TimeMode::Wall => {
                let micros = t0.expect("wall timer set").elapsed().as_micros() as u64;
                self.stats.record_rule_time(rule_index, micros);
            }
            TimeMode::Ticks => self.stats.record_rule_time(rule_index, firings),
        }
        if timing != TimeMode::Off {
            for &(micros, tuples) in &chunk_scratch {
                let sample = if timing == TimeMode::Wall { micros } else { tuples };
                self.stats.chunk_service.record(sample);
            }
        }
        self.chunk_scratch = chunk_scratch;
        self.stats.record_firings(rule_index, firings);
        self.stats.record_morsels(morsels);
        self.put_pending(head, pending);
    }

    /// Run to the local fixpoint: bootstrap, then advance/process rounds
    /// until nothing new appears. Returns total fresh tuples.
    pub fn run_to_fixpoint(&mut self) -> Result<u64> {
        self.bootstrap()?;
        let mut total = 0;
        loop {
            let fresh = self.advance();
            total += fresh;
            if fresh == 0 {
                return Ok(total);
            }
            self.process_round();
        }
    }

    /// Move a derived relation out of the engine (used by final pooling
    /// to avoid cloning large results). The engine keeps an empty
    /// relation in its place; only call after the fixpoint.
    pub fn take_relation(&mut self, pred: RelationId) -> Option<Relation> {
        self.idb.get_mut(&pred).map(|s| {
            s.delta_start = 0;
            std::mem::replace(&mut s.full, Relation::new(pred.1))
        })
    }

    /// Extract the final derived relations (consumes nothing; clones).
    pub fn snapshot(&self) -> FxHashMap<RelationId, Relation> {
        self.idb
            .iter()
            .map(|(&id, state)| (id, state.full.clone()))
            .collect()
    }

    // ----- internals -------------------------------------------------

    fn plan(&self, set: PlanSet, i: usize) -> &RulePlan {
        match set {
            PlanSet::Bootstrap => &self.bootstrap_plans[i],
            PlanSet::Round => &self.round_plans[i],
        }
    }

    /// Make sure every index a plan's scans need exists and is current.
    fn sync_indexes_for(&mut self, set: PlanSet, i: usize) {
        let needs: Vec<(RelationId, AtomSource, Vec<usize>)> = self
            .plan(set, i)
            .steps
            .iter()
            .filter_map(|s| match s {
                PlanStep::Scan(sc) if !sc.probe_columns.is_empty() => {
                    Some((sc.relation, sc.source, sc.probe_columns.clone()))
                }
                _ => None,
            })
            .collect();

        for (rel, source, cols) in needs {
            let key = (rel, cols.clone());
            match source {
                AtomSource::Edb => {
                    // Borrow the EDB relation in place; a missing relation
                    // gets a permanently-empty index (the EDB never grows
                    // during evaluation).
                    if !self.edb_indexes.contains_key(&key) {
                        let index = match self.edb.relation(rel) {
                            Some(relation) => HashIndex::build(relation, &cols),
                            None => HashIndex::new(&cols),
                        };
                        self.edb_indexes.insert(key, index);
                    }
                }
                AtomSource::IdbFull | AtomSource::IdbOld | AtomSource::IdbDelta => {
                    // All three views share the full-arena index; `sync`
                    // ingests only the rows appended since the last call.
                    let full = &self.idb[&rel].full;
                    self.full_indexes
                        .entry(key)
                        .or_insert_with(|| HashIndex::new(&cols))
                        .sync(full);
                }
            }
        }
    }

    /// Execute one plan against current state. Returns (firings, output).
    /// Borrow the head predicate's pending pool for the duration of one
    /// rule run, so [`FixpointEngine::run_one_into`] can emit straight
    /// into it — no per-rule output buffer, no copy when the round ends.
    /// (Plans never *read* pending, only arenas, so lending it out is
    /// safe.)
    fn take_pending(&mut self, head: RelationId) -> Vec<Tuple> {
        std::mem::take(
            &mut self
                .idb
                .get_mut(&head)
                .expect("head predicate has state")
                .pending,
        )
    }

    /// Return a pending pool borrowed with [`FixpointEngine::take_pending`].
    fn put_pending(&mut self, head: RelationId, pending: Vec<Tuple>) {
        self.idb
            .get_mut(&head)
            .expect("head predicate has state")
            .pending = pending;
    }

    /// Execute one plan against current state, emitting into `out`.
    /// Returns `(firings, morsel_chunks)` — chunks is zero when the
    /// sequential path ran.
    fn run_one_into(
        &self,
        set: PlanSet,
        i: usize,
        out: &mut Vec<Tuple>,
        chunk_times: Option<&mut Vec<(u64, u64)>>,
    ) -> (u64, u64) {
        let plan = self.plan(set, i);
        // EDB relations referenced without data need a live empty relation
        // to borrow; collect owned empties first.
        let accesses: Vec<Option<Access<'_>>> = plan
            .steps
            .iter()
            .map(|s| match s {
                PlanStep::Filter { .. } => None,
                PlanStep::Scan(sc) => Some(self.access_for(sc)),
            })
            .collect();
        if self.morsels.enabled() {
            if let Some((firings, chunks)) = run_plan_morsels_profiled(
                plan,
                &accesses,
                &self.morsels,
                self.pool.as_ref(),
                chunk_times,
                &mut |t| out.push(t),
            ) {
                return (firings, chunks);
            }
        }
        (run_plan(plan, &accesses, &mut |t| out.push(t)), 0)
    }

    fn access_for<'a>(&'a self, scan: &crate::plan::ScanStep) -> Access<'a> {
        let key = (scan.relation, scan.probe_columns.clone());
        match scan.source {
            AtomSource::Edb => {
                if !scan.probe_columns.is_empty() {
                    match (self.edb_indexes.get(&key), self.edb.relation(scan.relation)) {
                        (Some(idx), Some(rel)) => Access::probe_all(idx, rel),
                        _ => Access::Empty,
                    }
                } else {
                    match self.edb.relation(scan.relation) {
                        Some(rel) => Access::scan_all(rel),
                        None => Access::Empty,
                    }
                }
            }
            AtomSource::IdbFull => {
                let state = &self.idb[&scan.relation];
                if state.full.is_empty() {
                    Access::Empty
                } else if !scan.probe_columns.is_empty() {
                    Access::probe_all(&self.full_indexes[&key], &state.full)
                } else {
                    Access::scan_all(&state.full)
                }
            }
            AtomSource::IdbOld => {
                // Old = the arena rows below the delta watermark.
                let state = &self.idb[&scan.relation];
                if state.delta_start == 0 {
                    Access::Empty
                } else if !scan.probe_columns.is_empty() {
                    Access::probe_range(
                        &self.full_indexes[&key],
                        &state.full,
                        0,
                        state.delta_start as u32,
                    )
                } else {
                    Access::scan_range(&state.full, 0, state.delta_start as u32)
                }
            }
            AtomSource::IdbDelta => {
                // Delta = the arena rows at or above the watermark.
                let state = &self.idb[&scan.relation];
                if state.delta_is_empty() {
                    Access::Empty
                } else if !scan.probe_columns.is_empty() {
                    Access::probe_range(
                        &self.full_indexes[&key],
                        &state.full,
                        state.delta_start as u32,
                        state.full.len() as u32,
                    )
                } else {
                    Access::scan_range(&state.full, state.delta_start as u32, state.full.len() as u32)
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
enum PlanSet {
    Bootstrap,
    Round,
}

/// The outcome of a sequential evaluation.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Final interpretation of every derived predicate.
    pub idb: FxHashMap<RelationId, Relation>,
    /// Firing/round statistics.
    pub stats: EvalStats,
}

impl EvalResult {
    /// The relation for a derived predicate, empty if never derived.
    pub fn relation(&self, pred: RelationId) -> Relation {
        self.idb
            .get(&pred)
            .cloned()
            .unwrap_or_else(|| Relation::new(pred.1))
    }
}

/// Sequential semi-naive evaluation of `program` over `edb` — the paper's
/// baseline (§2) against which non-redundancy is defined.
pub fn seminaive_eval(program: &Program, edb: &Database) -> Result<EvalResult> {
    seminaive_eval_with(program, edb, PlanOptions::default())
}

/// [`seminaive_eval`] with explicit [`PlanOptions`] (ablation studies).
pub fn seminaive_eval_with(
    program: &Program,
    edb: &Database,
    options: PlanOptions,
) -> Result<EvalResult> {
    let mut engine =
        FixpointEngine::with_options(program, Arc::new(edb.clone()), &[], options)?;
    engine.run_to_fixpoint()?;
    Ok(EvalResult {
        idb: engine.snapshot(),
        stats: engine.stats().clone(),
    })
}

/// Fire every rule of `program` exactly once, with **every** body atom
/// reading `db` — no derived/base distinction, no deltas, no fixpoint.
/// Returns the emitted head tuples grouped per head predicate
/// (duplicates included; callers dedup against their own state).
///
/// This is the rederivation probe of delete–rederive (DRed): after
/// over-deletion, one naive pass over the database holding the
/// *surviving* state emits exactly the tuples that are one-step
/// rederivable from live support. Everything the over-deletion removed
/// that is still derivable appears here (or cascades from here once the
/// emissions are fed back through the semi-naive loop).
pub fn fire_once(program: &Program, db: &Database) -> Result<Vec<(RelationId, Vec<Tuple>)>> {
    ProgramAnalysis::new(program)?;
    let is_idb = |_: RelationId| false;
    let mut out: FxHashMap<RelationId, Vec<Tuple>> = FxHashMap::default();
    for (i, rule) in program.rules.iter().enumerate() {
        let plan = compile_rule_with(rule, i, &is_idb, None, PlanOptions::default())?;
        let accesses: Vec<Option<Access<'_>>> = plan
            .steps
            .iter()
            .map(|s| match s {
                PlanStep::Filter { .. } => None,
                PlanStep::Scan(sc) => Some(match db.relation(sc.relation) {
                    Some(rel) if !rel.is_empty() => Access::scan_all(rel),
                    _ => Access::Empty,
                }),
            })
            .collect();
        let emitted = out.entry(plan.head).or_default();
        run_plan(&plan, &accesses, &mut |t| emitted.push(t));
    }
    Ok(out.into_iter().collect())
}

/// Naive evaluation: refire *every* rule against *full* relations each
/// round until a fixpoint. Used as a differential-testing oracle (its
/// least model must equal semi-naive's) and to quantify how much work
/// semi-naive saves.
pub fn naive_eval(program: &Program, edb: &Database) -> Result<EvalResult> {
    ProgramAnalysis::new(program)?;
    let edb = Arc::new(edb.clone());
    let mut idb: FxHashMap<RelationId, Relation> = FxHashMap::default();
    for rule in &program.rules {
        let id: RelationId = (rule.head.predicate, rule.head.terms.len());
        idb.entry(id).or_insert_with(|| Relation::new(id.1));
    }
    // Seed derived predicates that have input facts.
    let ids: Vec<RelationId> = idb.keys().copied().collect();
    for id in &ids {
        if let Some(rel) = edb.relation(*id) {
            idb.get_mut(id).expect("own key").absorb(rel).expect("arity agrees");
        }
    }
    let idb_ids = ids.clone();
    let is_idb = move |rel: RelationId| idb_ids.contains(&rel);
    let plans: Vec<RulePlan> = program
        .rules
        .iter()
        .enumerate()
        .map(|(i, r)| compile_rule_with(r, i, &is_idb, None, PlanOptions::default()))
        .collect::<Result<_>>()?;

    let mut stats = EvalStats::new(program.rules.len());
    loop {
        let mut emitted: Vec<(RelationId, Vec<Tuple>)> = Vec::new();
        for plan in &plans {
            let accesses: Vec<Option<Access<'_>>> = plan
                .steps
                .iter()
                .map(|s| match s {
                    PlanStep::Filter { .. } => None,
                    PlanStep::Scan(sc) => Some(match sc.source {
                        AtomSource::Edb => match edb.relation(sc.relation) {
                            Some(rel) => Access::scan_all(rel),
                            None => Access::Empty,
                        },
                        _ => {
                            let rel = &idb[&sc.relation];
                            if rel.is_empty() {
                                Access::Empty
                            } else {
                                Access::scan_all(rel)
                            }
                        }
                    }),
                })
                .collect();
            let mut out = Vec::new();
            let firings = run_plan(plan, &accesses, &mut |t| out.push(t));
            stats.record_firings(plan.rule_index, firings);
            emitted.push((plan.head, out));
        }
        let mut fresh = 0u64;
        let mut submitted = 0u64;
        for (head, out) in emitted {
            let rel = idb.get_mut(&head).expect("head state");
            submitted += out.len() as u64;
            for t in out {
                if rel.insert_unchecked(t) {
                    fresh += 1;
                }
            }
        }
        stats.record_advance(submitted, fresh);
        stats.end_round(submitted, fresh);
        if fresh == 0 {
            break;
        }
    }
    Ok(EvalResult { idb, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::{ituple, Interner};
    use gst_frontend::parse_program;

    /// Load `source`, returning (program, database).
    fn load(source: &str) -> (Program, Database) {
        let unit = parse_program(source).unwrap();
        let mut db = Database::new(unit.program.interner.clone());
        db.load_facts(unit.facts.clone()).unwrap();
        (unit.program, db)
    }

    fn rel(program: &Program, result: &EvalResult, name: &str, arity: usize) -> Relation {
        let id = (program.interner.get(name).unwrap(), arity);
        result.relation(id)
    }

    #[test]
    fn ancestor_on_a_chain() {
        let (p, db) = load(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- par(X,Z), anc(Z,Y).\n\
             par(1,2). par(2,3). par(3,4).",
        );
        let r = seminaive_eval(&p, &db).unwrap();
        let anc = rel(&p, &r, "anc", 2);
        assert_eq!(anc.len(), 6);
        assert!(anc.contains(&ituple![1, 4]));
        assert!(!anc.contains(&ituple![4, 1]));
    }

    #[test]
    fn seminaive_equals_naive_on_ancestor() {
        let (p, db) = load(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- par(X,Z), anc(Z,Y).\n\
             par(1,2). par(2,3). par(3,4). par(2,5). par(5,6). par(6,2).",
        );
        let a = seminaive_eval(&p, &db).unwrap();
        let b = naive_eval(&p, &db).unwrap();
        assert!(rel(&p, &a, "anc", 2).set_eq(&rel(&p, &b, "anc", 2)));
        // Naive refires everything; it can never fire fewer times.
        assert!(b.stats.firings >= a.stats.firings);
    }

    #[test]
    fn nonlinear_equals_linear_ancestor() {
        let facts = "par(1,2). par(2,3). par(3,4). par(4,5). par(5,1). par(3,6).";
        let (pl, dbl) = load(&format!(
            "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).\n{facts}"
        ));
        let (pn, dbn) = load(&format!(
            "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(X,Z), anc(Z,Y).\n{facts}"
        ));
        let a = seminaive_eval(&pl, &dbl).unwrap();
        let b = seminaive_eval(&pn, &dbn).unwrap();
        assert!(rel(&pl, &a, "anc", 2).set_eq(&rel(&pn, &b, "anc", 2)));
    }

    #[test]
    fn seminaive_fires_each_derivation_once_on_a_chain() {
        // On a chain of n edges, linear TC derives each anc(i,j) exactly
        // once: firings == |anc| (+|par| copies from the exit rule).
        let n = 20i64;
        let facts: String = (1..=n).map(|k| format!("par({},{}).", k, k + 1)).collect();
        let (p, db) = load(&format!(
            "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).\n{facts}"
        ));
        let r = seminaive_eval(&p, &db).unwrap();
        let anc_size = (n * (n + 1) / 2) as u64;
        assert_eq!(rel(&p, &r, "anc", 2).len() as u64, anc_size);
        assert_eq!(r.stats.firings, anc_size);
        assert_eq!(r.stats.duplicates, 0);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let (p, db) = load(
            "t(X,Y) :- e(X,Y).\n\
             t(X,Y) :- e(X,Z), t(Z,Y).\n\
             e(1,2). e(2,3). e(3,1).",
        );
        let r = seminaive_eval(&p, &db).unwrap();
        assert_eq!(rel(&p, &r, "t", 2).len(), 9); // complete digraph on the cycle
    }

    #[test]
    fn multi_rule_multi_predicate_program() {
        let (p, db) = load(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Y) :- e(X,Z), tc(Z,Y).\n\
             sym(X,Y) :- tc(X,Y), tc(Y,X).\n\
             e(1,2). e(2,1). e(2,3).",
        );
        let r = seminaive_eval(&p, &db).unwrap();
        let sym = rel(&p, &r, "sym", 2);
        assert!(sym.contains(&ituple![1, 2]));
        assert!(sym.contains(&ituple![1, 1]));
        assert!(!sym.contains(&ituple![1, 3]));
    }

    #[test]
    fn same_generation_program() {
        //      1
        //     / \
        //    2   3
        //   /     \
        //  4       5
        let (p, db) = load(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,U), sg(U,V), down(V,Y).\n\
             up(4,2). up(2,1). up(5,3). up(3,1).\n\
             down(1,1).\n\
             flat(1,1).",
        );
        let r = seminaive_eval(&p, &db).unwrap();
        let sg = rel(&p, &r, "sg", 2);
        assert!(sg.contains(&ituple![1, 1]));
        // 2 and 3 are the same generation via up;sg;down? down only has
        // (1,1): sg(2,1)? up(2,1),sg(1,1),down(1,1) => sg(2,1).
        assert!(sg.contains(&ituple![2, 1]));
        assert!(!sg.contains(&ituple![4, 2]));
    }

    #[test]
    fn facts_for_derived_predicates_are_seeded() {
        let (p, db) = load(
            "t(X,Y) :- t(X,Z), t(Z,Y).\n\
             t(X,Y) :- seed(X,Y).\n\
             t(7,8). seed(8,9).",
        );
        let r = seminaive_eval(&p, &db).unwrap();
        let t = rel(&p, &r, "t", 2);
        assert!(t.contains(&ituple![7, 8]));
        assert!(t.contains(&ituple![8, 9]));
        assert!(t.contains(&ituple![7, 9]));
    }

    #[test]
    fn inject_drives_external_tuples() {
        let (p, db) = load("t(X,Y) :- e(X,Z), t(Z,Y).\nt(X,Y) :- s(X,Y).\ne(1,2). s(2,3).");
        let t_id = (p.interner.get("t").unwrap(), 2);
        let mut engine = FixpointEngine::new(&p, Arc::new(db), &[]).unwrap();
        engine.run_to_fixpoint().unwrap();
        assert_eq!(engine.relation(t_id).unwrap().len(), 2); // (2,3), (1,3)
        // Inject t(2,9): expect (1,9) to be derived when we continue.
        engine.inject(t_id, vec![ituple![2, 9]]).unwrap();
        assert!(!engine.quiescent());
        loop {
            if engine.advance() == 0 {
                break;
            }
            engine.process_round();
        }
        assert!(engine.relation(t_id).unwrap().contains(&ituple![1, 9]));
        assert!(engine.quiescent());
    }

    #[test]
    fn inject_rejects_unknown_or_wrong_arity() {
        let (p, db) = load("t(X) :- s(X).");
        let mut engine = FixpointEngine::new(&p, Arc::new(db), &[]).unwrap();
        let t_id = (p.interner.get("t").unwrap(), 1);
        let bogus = (p.interner.intern("zz"), 1);
        assert!(engine.inject(bogus, vec![ituple![1]]).is_err());
        assert!(engine.inject(t_id, vec![ituple![1, 2]]).is_err());
    }

    #[test]
    fn extra_idb_predicates_accept_injection() {
        // channel predicate `in_ch` feeds t but has no defining rule.
        let (p, db) = load("t(X,Y) :- in_ch(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).\ne(0,1).");
        let in_ch = (p.interner.get("in_ch").unwrap(), 2);
        let t_id = (p.interner.get("t").unwrap(), 2);
        let mut engine = FixpointEngine::new(&p, Arc::new(db), &[in_ch]).unwrap();
        engine.bootstrap().unwrap();
        engine.inject(in_ch, vec![ituple![1, 5]]).unwrap();
        loop {
            if engine.advance() == 0 {
                break;
            }
            engine.process_round();
        }
        let t = engine.relation(t_id).unwrap();
        assert!(t.contains(&ituple![1, 5]));
        assert!(t.contains(&ituple![0, 5]));
    }

    #[test]
    fn delta_tuples_expose_last_round() {
        let (p, db) = load("t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).\ne(1,2). e(2,3).");
        let t_id = (p.interner.get("t").unwrap(), 2);
        let mut engine = FixpointEngine::new(&p, Arc::new(db), &[]).unwrap();
        engine.bootstrap().unwrap();
        assert!(engine.advance() > 0);
        let first_delta = engine.delta_tuples(t_id);
        assert_eq!(first_delta.len(), 2); // e copied
        engine.process_round();
        assert_eq!(engine.advance(), 1); // t(1,3)
        assert_eq!(engine.delta_tuples(t_id), vec![ituple![1, 3]]);
    }

    #[test]
    fn empty_edb_yields_empty_idb() {
        let (p, db) = load("t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).");
        let r = seminaive_eval(&p, &db).unwrap();
        assert_eq!(rel(&p, &r, "t", 2).len(), 0);
        assert!(r.stats.firings == 0);
    }

    #[test]
    fn naive_and_seminaive_agree_on_same_generation() {
        let (p, db) = load(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,U), sg(U,V), down(V,Y).\n\
             up(2,1). up(3,1). up(4,2). up(5,3).\n\
             flat(1,1). flat(2,3).\n\
             down(1,2). down(1,3). down(2,4). down(3,5).",
        );
        let a = seminaive_eval(&p, &db).unwrap();
        let b = naive_eval(&p, &db).unwrap();
        assert!(rel(&p, &a, "sg", 2).set_eq(&rel(&p, &b, "sg", 2)));
    }

    #[test]
    fn plan_options_are_semantics_preserving() {
        let (p, db) = load(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- par(X,Z), anc(Z,Y).\n\
             par(1,2). par(2,3). par(3,4). par(2,5). par(5,2).",
        );
        let reference = seminaive_eval(&p, &db).unwrap();
        let anc = (p.interner.get("anc").unwrap(), 2);
        for delta_leading in [true, false] {
            for eager_constraints in [true, false] {
                let opts = crate::plan::PlanOptions {
                    delta_leading,
                    eager_constraints,
                };
                let r = seminaive_eval_with(&p, &db, opts).unwrap();
                assert!(
                    r.relation(anc).set_eq(&reference.relation(anc)),
                    "options {opts:?} changed the least model"
                );
                assert_eq!(
                    r.stats.firings, reference.stats.firings,
                    "options {opts:?} changed the firing count"
                );
            }
        }
    }

    #[test]
    fn preseed_resumes_without_refiring() {
        // Fixpoint once; preseed a second engine with the result; it
        // must be quiescent immediately (no refires, no fresh tuples).
        let (p, db) = load("t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).\ne(1,2). e(2,3).");
        let t_id = (p.interner.get("t").unwrap(), 2);
        let db = Arc::new(db);
        let mut first = FixpointEngine::new(&p, Arc::clone(&db), &[]).unwrap();
        first.run_to_fixpoint().unwrap();
        let state = first.take_relation(t_id).unwrap();
        let len = state.len();

        let mut resumed = FixpointEngine::new(&p, Arc::clone(&db), &[]).unwrap();
        resumed.preseed(t_id, state).unwrap();
        let fresh = resumed.run_to_fixpoint().unwrap();
        assert_eq!(fresh, 0, "preseeded state is already the fixpoint");
        assert_eq!(resumed.relation(t_id).unwrap().len(), len);
        assert!(resumed.rows_from(t_id, len).is_empty(), "nothing above watermark");

        // Injecting a new edge-reachable tuple continues from the state.
        resumed.inject(t_id, vec![ituple![3, 9]]).unwrap();
        loop {
            if resumed.advance() == 0 {
                break;
            }
            resumed.process_round();
        }
        let t = resumed.relation(t_id).unwrap();
        assert!(t.contains(&ituple![1, 9]) && t.contains(&ituple![2, 9]));
        // Exactly the genuinely new tuples sit above the resume watermark.
        assert_eq!(resumed.rows_from(t_id, len).len(), 3);
    }

    #[test]
    fn preseed_accepts_tombstoned_state_and_reships_reinserts() {
        let (p, db) = load("t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).\ne(1,2).");
        let t_id = (p.interner.get("t").unwrap(), 2);
        let db = Arc::new(db);
        let mut first = FixpointEngine::new(&p, Arc::clone(&db), &[]).unwrap();
        first.run_to_fixpoint().unwrap();
        let mut state = first.take_relation(t_id).unwrap();
        assert!(state.delete(&ituple![1, 2]));
        let watermark = state.len();

        let mut resumed = FixpointEngine::new(&p, Arc::clone(&db), &[]).unwrap();
        resumed.preseed(t_id, state).unwrap();
        resumed.inject(t_id, vec![ituple![1, 2]]).unwrap();
        loop {
            if resumed.advance() == 0 {
                break;
            }
            resumed.process_round();
        }
        // The re-inserted tuple landed in a fresh arena row above the
        // watermark — a shipping loop reading `rows_from` re-ships it.
        assert_eq!(resumed.rows_from(t_id, watermark), &[ituple![1, 2]]);
    }

    #[test]
    fn preseed_rejects_bad_calls() {
        let (p, db) = load("t(X) :- s(X).\ns(1).");
        let t_id = (p.interner.get("t").unwrap(), 1);
        let mut engine = FixpointEngine::new(&p, Arc::new(db), &[]).unwrap();
        assert!(engine.preseed((p.interner.intern("zz"), 1), Relation::new(1)).is_err());
        assert!(engine.preseed(t_id, Relation::new(2)).is_err());
        engine.bootstrap().unwrap();
        assert!(engine.preseed(t_id, Relation::new(1)).is_err());
    }

    #[test]
    fn fire_once_emits_one_step_consequences() {
        let (p, db) = load(
            "t(X,Y) :- e(X,Y).\n\
             t(X,Y) :- e(X,Z), t(Z,Y).\n\
             e(1,2). e(2,3).",
        );
        // Against the raw EDB (no t yet), only the copy rule produces.
        let t_id = (p.interner.get("t").unwrap(), 2);
        let out = fire_once(&p, &db).unwrap();
        let t_out: &Vec<Tuple> = &out.iter().find(|(id, _)| *id == t_id).unwrap().1;
        let mut got = t_out.clone();
        got.sort();
        assert_eq!(got, vec![ituple![1, 2], ituple![2, 3]]);

        // With t materialized in the database, the recursive rule joins
        // against it (every atom reads the database, fixpoint-free).
        let mut db2 = db.clone();
        let full = seminaive_eval(&p, &db).unwrap().relation(t_id);
        db2.put_relation(t_id, full).unwrap();
        let out2 = fire_once(&p, &db2).unwrap();
        let n: usize = out2.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(n, 2 + 1); // copy rule: 2 firings; recursive: e(1,2),t(2,3)
    }

    #[test]
    fn snapshot_includes_all_idb() {
        let (p, db) = load("a(X) :- e(X).\nb(X) :- a(X).\ne(1).");
        let mut engine = FixpointEngine::new(&p, Arc::new(db), &[]).unwrap();
        engine.run_to_fixpoint().unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.len(), 2);
        let interner: &Interner = &p.interner;
        let a_id = (interner.get("a").unwrap(), 1);
        let b_id = (interner.get("b").unwrap(), 1);
        assert_eq!(snap[&a_id].len(), 1);
        assert_eq!(snap[&b_id].len(), 1);
    }
}
