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
//!    tuples into fresh deltas (the paper's "difference operation") and,
//!    when the site has a route table, hash each fresh row of a source
//!    without a home inbox to its destination (the paper's sending step);
//! 3. [`FixpointEngine::process_round`] — fire every delta version of
//!    every recursive rule against the current deltas, producing the next
//!    pending pool.
//!
//! Where a row of a routed head `t_out^i` goes is decided once, where a
//! rule emits it (or bootstrap seeds it, or [`FixpointEngine::inject`]
//! queues it): when [`route::home_inbox`] holds for the head, the row goes
//! straight to every sink its keys name — the pending pool of `t_in^i`
//! here, the [`Outlet`] of a remote destination — and is stored only by
//! the inbox that receives it, so `t_out^i` stays empty. Only a source
//! without a home inbox (a remote broadcast, selective routes) stores its
//! rows in `t_out^i` and routes the fresh ones when the round ends.
//!
//! The parallel runtime interleaves [`FixpointEngine::inject`] (receive)
//! and shipping the filled [`Outlet`]s (send) between strokes; the
//! sequential drivers [`seminaive_eval`] and [`naive_eval`] just loop.

use std::sync::Arc;

use gst_common::{Error, FxHashMap, Result, Tuple};
use gst_frontend::{Program, ProgramAnalysis};
use gst_storage::{Database, HashIndex, Relation};

use crate::exec::{run_plan, Access};
use crate::plan::{compile_rule, idb_occurrence_count, AtomSource, PlanStep, RelationId, RulePlan};
use crate::route::{self, Outlet, Route, Router, Sink};
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
    id: RelationId,
    full: Relation,
    /// First arena row of the current delta.
    delta_start: usize,
    pending: Vec<Tuple>,
    /// One index per probe-column set any plan scans this relation by;
    /// it serves the full, `Old` and delta views alike.
    indexes: Vec<HashIndex>,
    /// The predicate's router, when its rows bypass it
    /// ([`route::home_inbox`]).
    home: Option<usize>,
}

impl IdbState {
    fn new(id: RelationId) -> Self {
        IdbState {
            id,
            full: Relation::new(id.1),
            delta_start: 0,
            pending: Vec::new(),
            indexes: Vec::new(),
            home: None,
        }
    }

    /// `pending ∖ full → delta`; returns `(submitted, fresh)`. The set
    /// insert into the arena is the paper's difference operation — the
    /// surviving rows *are* the new delta. Fresh rows are fed to the
    /// relation's indexes in place, so the fixpoint stays O(total tuples),
    /// not O(rounds × tuples).
    fn advance(&mut self) -> (u64, u64) {
        let submitted = self.pending.len() as u64;
        self.delta_start = self.full.len();
        let fresh = self.full.insert_batch(&mut self.pending);
        if fresh > 0 {
            self.indexes.iter_mut().for_each(|index| index.sync(&self.full));
        }
        (submitted, fresh)
    }

    /// The current delta as a borrowed arena suffix.
    fn delta_slice(&self) -> &[Tuple] {
        &self.full.rows()[self.delta_start..]
    }
}

/// The position of the first element of `v` that `is`, pushing `make()`
/// when there is none.
pub(crate) fn find_or_push<T>(v: &mut Vec<T>, is: impl Fn(&T) -> bool, make: impl FnOnce() -> T) -> usize {
    v.iter().position(is).unwrap_or_else(|| {
        v.push(make());
        v.len() - 1
    })
}

/// The pending pools and outlets the rows of a head with a home inbox
/// are submitted to, lent out of the engine while a plan runs
/// (plans read arenas, never pending pools or outlets).
struct Pools<'r> {
    router: &'r Router,
    /// The head's own pool: only rows whose route fails, kept for the
    /// advance to report.
    stored: Vec<Tuple>,
    /// The inbox-phase states' pools, by inbox slot.
    homes: Vec<Vec<Tuple>>,
    outlets: Vec<Outlet>,
    hit: Vec<Sink>,
}

impl Pools<'_> {
    /// A row goes, as it is emitted, to every sink its keys name: a local
    /// inbox's pool or a remote destination's outlet. Nothing is stored
    /// at the sender; the inbox that receives a row is its only difference
    /// operation. A row whose key cannot be evaluated takes the stored
    /// path, `t_out^i` and then [`route_fresh`], where its error is
    /// reported.
    #[inline]
    fn submit(&mut self, row: Tuple) {
        if let Some(slot) = self.router.always {
            return self.homes[slot].push(row);
        }
        // One hash route: its sink is the row's only one, no list needed.
        if let Some(keyed) = self.router.lone() {
            return match keyed.sink(&row) {
                Ok(Some(sink)) => put(&mut self.homes, &mut self.outlets, sink, row),
                _ => self.stored.push(row),
            };
        }
        let routed = self.router.sinks(&row, &mut self.hit);
        match self.hit.split_last() {
            Some((&last, rest)) if routed.is_ok() => {
                rest.iter().for_each(|&sink| put(&mut self.homes, &mut self.outlets, sink, row.clone()));
                put(&mut self.homes, &mut self.outlets, last, row);
            }
            _ => self.stored.push(row),
        }
    }
}

/// Put `row` into `sink`: a local inbox's pool or an outlet.
#[inline]
fn put(homes: &mut [Vec<Tuple>], outlets: &mut [Outlet], sink: Sink, row: Tuple) {
    match sink {
        Sink::Local(slot) => homes[slot].push(row),
        Sink::Remote(o) => outlets[o].rows.push(row),
    }
}

/// The sending step of a source without a home inbox: put every fresh row
/// of it into the pending pool of the local inbox it hashes to, or into
/// the outlet of its destination. (A home source's rows were placed where
/// they were emitted; its delta holds only rows whose route failed, and
/// the error is reported here.) Out of line on purpose: compiled into
/// `advance`, between its two dedup phases, this loop doubled the cost of
/// the advance (EXPERIMENTS.md P10).
#[inline(never)]
fn route_fresh(
    routers: &[Router],
    heads: &[IdbState],
    inboxes: &mut [IdbState],
    outlets: &mut [Outlet],
) -> Result<()> {
    let mut hit: Vec<Sink> = Vec::new();
    let mut put = |sink: Sink, row: &Tuple| match sink {
        Sink::Local(slot) => inboxes[slot].pending.push(row.clone()),
        Sink::Remote(o) => outlets[o].rows.push(row.clone()),
    };
    for router in routers {
        let fresh = heads[router.source].delta_slice();
        if let Some(keyed) = router.lone() {
            for row in fresh {
                if let Some(sink) = keyed.sink(row)? {
                    put(sink, row);
                }
            }
            continue;
        }
        for row in fresh {
            router.sinks(row, &mut hit)?;
            hit.iter().for_each(|&sink| put(sink, row));
        }
    }
    Ok(())
}

/// Where a plan's scan step reads, resolved once at construction: the
/// relation's slot and the slot of the index on the step's probe columns
/// (`None` for a full scan).
#[derive(Debug, Clone, Copy)]
enum ScanSlot {
    Edb { index: Option<usize> },
    Idb { state: usize, index: Option<usize> },
}

/// A rule plan with its head and scans resolved to slots.
struct SlottedPlan {
    plan: RulePlan,
    /// Slot of the head predicate's state.
    head: usize,
    /// Aligned with `plan.steps`; `None` for filter steps.
    scans: Vec<Option<ScanSlot>>,
}

/// A resumable semi-naive evaluator for one evaluation site.
pub struct FixpointEngine {
    edb: Arc<Database>,
    /// Derived predicates in advance order: rule heads and declared
    /// predicates first, then — from `inboxes_from` on — the local inboxes
    /// of the route table, so a row routed to this site is a delta of the
    /// same round. Without routes the second phase is empty.
    idb: Vec<IdbState>,
    inboxes_from: usize,
    slots: FxHashMap<RelationId, usize>,
    /// `plans[..round_from]` fire once at bootstrap (no derived body
    /// atoms); the rest — the delta versions of rules with derived body
    /// atoms — fire every round.
    plans: Vec<SlottedPlan>,
    round_from: usize,
    /// `(relation, index)`; built on first use, the EDB never grows.
    edb_indexes: Vec<(RelationId, HashIndex)>,
    routers: Vec<Router>,
    outlets: Vec<Outlet>,
    stats: EvalStats,
    bootstrapped: bool,
    /// Predicates installed by [`FixpointEngine::preseed`]: bootstrap
    /// must not seed these again from the EDB.
    preseeded: Vec<RelationId>,
    /// Per-rule time attribution mode (off by default; the unprofiled
    /// path pays one branch per rule execution).
    time_mode: TimeMode,
}

impl FixpointEngine {
    /// Build an engine for `program` over the base relations in `edb`.
    ///
    /// `extra_idb` declares predicates that receive tuples only via
    /// [`FixpointEngine::inject`] (the inboxes `t_in^i` of the paper's
    /// receive rules); they are treated as derived even though no rule in
    /// `program` defines them.
    pub fn new(program: &Program, edb: Arc<Database>, extra_idb: &[RelationId]) -> Result<Self> {
        Self::with_routes(program, edb, extra_idb, 0, &[])
    }

    /// The general constructor: for processor `processor` of a parallel
    /// scheme, a route table. A row of a source with a home inbox
    /// ([`route::home_inbox`]) is queued where it is emitted, for the local
    /// inbox when it hashes here and in an [`Outlet`] otherwise; every
    /// advance routes the fresh rows of each other source the same way.
    ///
    /// # Errors
    /// Every route's source and local inbox must be derived predicates of
    /// one arity, a local inbox must not itself be routed, a hash route's
    /// key variables must occur in its pattern, and no rule may read a
    /// source with a home inbox, which stores none of its rows.
    pub fn with_routes(
        program: &Program,
        edb: Arc<Database>,
        extra_idb: &[RelationId],
        processor: usize,
        routes: &[Route],
    ) -> Result<Self> {
        ProgramAnalysis::new(program)?; // safety check

        // Advance order: heads in rule order, then declared predicates;
        // the route table's local inboxes move to the back.
        let mut ids: Vec<RelationId> = Vec::new();
        let heads = program.rules.iter().map(|r| (r.head.predicate, r.head.terms.len()));
        for id in heads.chain(extra_idb.iter().copied()) {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let is_local_inbox = |id: &RelationId| {
            routes
                .iter()
                .any(|r| r.dests.iter().any(|(d, inbox)| *d == processor && inbox == id))
        };
        let (inboxes, mut order): (Vec<RelationId>, Vec<RelationId>) =
            ids.iter().partition(|id| is_local_inbox(id));
        let inboxes_from = order.len();
        order.extend(inboxes);
        let mut idb: Vec<IdbState> = order.iter().map(|&id| IdbState::new(id)).collect();
        let slots: FxHashMap<RelationId, usize> =
            order.iter().enumerate().map(|(slot, &id)| (id, slot)).collect();

        let is_idb = |rel: RelationId| slots.contains_key(&rel);
        let mut edb_indexes: Vec<(RelationId, HashIndex)> = Vec::new();
        let mut slot_plan = |plan: RulePlan| -> SlottedPlan {
            let scans = plan
                .steps
                .iter()
                .map(|step| {
                    let PlanStep::Scan(sc) = step else { return None };
                    let cols = &sc.probe_columns;
                    let index = |ix: &HashIndex| ix.key_columns() == cols;
                    Some(match sc.source {
                        AtomSource::Edb => ScanSlot::Edb {
                            index: (!cols.is_empty()).then(|| {
                                let same = |(rel, ix): &(RelationId, HashIndex)| *rel == sc.relation && index(ix);
                                find_or_push(&mut edb_indexes, same, || (sc.relation, HashIndex::new(cols)))
                            }),
                        },
                        _ => {
                            let state = slots[&sc.relation];
                            let indexes = &mut idb[state].indexes;
                            let index = (!cols.is_empty())
                                .then(|| find_or_push(indexes, index, || HashIndex::new(cols)));
                            ScanSlot::Idb { state, index }
                        }
                    })
                })
                .collect();
            SlottedPlan { head: slots[&plan.head], scans, plan }
        };

        let mut round_plans = Vec::new();
        let mut bootstrap_plans = Vec::new();
        for (rule_index, rule) in program.rules.iter().enumerate() {
            let occurrences = idb_occurrence_count(rule, &is_idb);
            if occurrences == 0 {
                let plan = compile_rule(rule, rule_index, &is_idb, None)?;
                bootstrap_plans.push(slot_plan(plan));
            } else {
                for version in 0..occurrences {
                    let plan = compile_rule(rule, rule_index, &is_idb, Some(version))?;
                    round_plans.push(slot_plan(plan));
                }
            }
        }

        let (routers, outlets) = route::compile(routes, processor, &slots, inboxes_from)?;
        for (k, router) in routers.iter().enumerate().filter(|(_, r)| r.home) {
            let source = router.source;
            let reads = |scan: &ScanSlot| matches!(*scan, ScanSlot::Idb { state, .. } if state == source);
            if bootstrap_plans.iter().chain(&round_plans).any(|p| p.scans.iter().flatten().any(reads)) {
                let what = "its rows are stored in the inboxes, but a rule reads the source";
                return Err(Error::Eval(format!("route of {:?}: {what}", idb[source].id)));
            }
            idb[source].home = Some(k);
        }
        let stats = EvalStats::new(program.rules.len());
        Ok(FixpointEngine {
            edb,
            idb,
            inboxes_from,
            slots,
            round_from: bootstrap_plans.len(),
            plans: bootstrap_plans.into_iter().chain(round_plans).collect(),
            edb_indexes,
            routers,
            outlets,
            stats,
            bootstrapped: false,
            preseeded: Vec::new(),
            time_mode: TimeMode::Off,
        })
    }

    /// Set the time-attribution mode. `Wall` splits per-rule compute time
    /// in microseconds; `Ticks` uses a deterministic work proxy (firings)
    /// so simulated runs profile reproducibly; `Off` (default)
    /// records nothing. Safe to call at any point — attribution is purely
    /// observational.
    pub fn set_time_mode(&mut self, mode: TimeMode) {
        self.time_mode = mode;
    }

    fn state_mut(&mut self, pred: RelationId, what: &str) -> Result<&mut IdbState> {
        match self.slots.get(&pred) {
            Some(&slot) => Ok(&mut self.idb[slot]),
            None => Err(Error::Eval(format!("{what} non-derived predicate {pred:?}"))),
        }
    }

    /// Install `state` as the complete already-derived relation for
    /// `pred`, with an **empty delta**: the rows are treated as known
    /// from previous evaluation rounds, so no rule refires on them and
    /// no route ships them. This is how an update session resumes a
    /// maintained fixpoint — each round's engine starts from the previous
    /// round's state instead of re-deriving it.
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
        let s = self.state_mut(pred, "preseed of")?;
        s.delta_start = state.len();
        s.full = state;
        self.preseeded.push(pred);
        Ok(())
    }

    /// Derived predicates (including the inboxes), in advance order.
    pub fn idb_predicates(&self) -> Vec<RelationId> {
        self.idb.iter().map(|s| s.id).collect()
    }

    /// Everything derived so far for `pred` (None if not derived here).
    pub fn relation(&self, pred: RelationId) -> Option<&Relation> {
        self.slots.get(&pred).map(|&slot| &self.idb[slot].full)
    }

    /// The previous round's fresh tuples for `pred` — a borrowed slice
    /// of the relation's row arena.
    pub fn delta_tuples(&self, pred: RelationId) -> &[Tuple] {
        self.slots.get(&pred).map(|&slot| self.idb[slot].delta_slice()).unwrap_or(&[])
    }

    /// What was routed to other processors since the outlets were last
    /// cleared (paper: the output of the sending step): the rows of a home
    /// source as its rules emitted them, those of any other source as an
    /// advance admitted them. The caller ships the non-empty outlets and
    /// then calls [`FixpointEngine::clear_outlets`].
    pub fn outlets(&self) -> &[Outlet] {
        &self.outlets
    }

    /// Empty every outlet, keeping its buffer for the next round.
    pub fn clear_outlets(&mut self) {
        self.outlets.iter_mut().for_each(|o| o.rows.clear());
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Queue externally received tuples for `pred` (the receive step).
    pub fn inject(&mut self, pred: RelationId, tuples: impl IntoIterator<Item = Tuple>) -> Result<()> {
        self.inject_with(pred, |pending| {
            pending.extend(tuples);
            Ok(())
        })
    }

    /// Queue externally received tuples for `pred` by letting `fill`
    /// append directly into the pending pool — the zero-copy receive
    /// path: a transport decoder writes tuples where the engine will
    /// drain them, with no intermediate buffer. The appended suffix is
    /// checked afterwards; on any failure the pool is rolled back to its
    /// pre-call length. Rows for a head with a home inbox are then placed
    /// like emitted ones: into the local inbox's pool or an outlet.
    ///
    /// # Errors
    /// `pred` must be a derived predicate; `fill`'s error is propagated;
    /// appending a tuple of the wrong arity is rejected.
    pub fn inject_with<T>(
        &mut self,
        pred: RelationId,
        fill: impl FnOnce(&mut Vec<Tuple>) -> Result<T>,
    ) -> Result<T> {
        let state = self.state_mut(pred, "inject into")?;
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
                if let Some(router) = state.home {
                    let rows = state.pending.split_off(before);
                    let slot = self.slots[&pred];
                    self.with_pools(slot, router, |_, pools| rows.into_iter().for_each(|t| pools.submit(t)));
                }
                Ok(v)
            }
            Err(e) => {
                state.pending.truncate(before);
                Err(e)
            }
        }
    }

    /// True when no delta and no pending tuples exist anywhere — the local
    /// idle condition of the paper's termination test.
    pub fn quiescent(&self) -> bool {
        self.idb
            .iter()
            .all(|s| s.delta_slice().is_empty() && s.pending.is_empty())
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
        for slot in 0..self.idb.len() {
            let id = self.idb[slot].id;
            if self.preseeded.contains(&id) {
                continue;
            }
            if let Some(rel) = edb.relation(id) {
                self.inject(id, rel.iter().cloned())?;
            }
        }

        for i in 0..self.round_from {
            self.run_plan_step(i);
        }
        Ok(())
    }

    /// End the round: move pending to deltas and update the indexes —
    /// first for the heads, then, once the route table has pushed the
    /// fresh rows of the heads without a home inbox that hash here into
    /// the local inboxes' pending pools (and the others into their
    /// [`Outlet`]s), for the inboxes. Returns the number of fresh tuples
    /// across all derived predicates.
    ///
    /// # Errors
    /// Only a route can fail: a key that is no partitioning constraint,
    /// or one that hashes a row to a processor the route does not list —
    /// on any row emitted since the last advance.
    pub fn advance(&mut self) -> Result<u64> {
        let (mut submitted_total, mut fresh_total) = (0, 0);
        let mut phase = |states: &mut [IdbState], stats: &mut EvalStats| {
            for state in states {
                let (submitted, fresh) = state.advance();
                stats.record_advance(submitted, fresh);
                submitted_total += submitted;
                fresh_total += fresh;
            }
        };
        let (heads, inboxes) = self.idb.split_at_mut(self.inboxes_from);
        phase(heads, &mut self.stats);
        route_fresh(&self.routers, heads, inboxes, &mut self.outlets)?;
        phase(inboxes, &mut self.stats);
        self.stats.end_round(submitted_total, fresh_total);
        Ok(fresh_total)
    }

    /// Fire every delta-version plan once, pushing results into pending.
    pub fn process_round(&mut self) {
        for i in self.round_from..self.plans.len() {
            self.run_plan_step(i);
        }
    }

    /// Sync indexes, run one plan, and record its firings — plus, when a
    /// [`TimeMode`] is active, its per-rule compute time (wall micros or
    /// firings-as-ticks). The `Off` path is the pre-profiling code
    /// exactly, modulo one predictable branch.
    fn run_plan_step(&mut self, i: usize) {
        self.sync_indexes_for(i);
        let (head, rule_index) = (self.plans[i].head, self.plans[i].plan.rule_index);
        let timing = self.time_mode;
        let t0 = (timing == TimeMode::Wall).then(std::time::Instant::now);
        // Lend the pending pools out for the run, so the plan emits
        // straight into them — no per-rule output buffer, no copy when the
        // round ends: the head's own pool, or, for a head with a home
        // inbox, the inboxes' pools and the outlets, chosen per row as it
        // is emitted.
        let firings = match self.idb[head].home {
            None => {
                let mut pending = std::mem::take(&mut self.idb[head].pending);
                let firings = self.run_one_into(i, &mut |t| pending.push(t));
                self.idb[head].pending = pending;
                firings
            }
            Some(router) => self.with_pools(head, router, |engine, pools| {
                engine.run_one_into(i, &mut |t| pools.submit(t))
            }),
        };
        match timing {
            TimeMode::Off => {}
            TimeMode::Wall => {
                let micros = t0.expect("wall timer set").elapsed().as_micros() as u64;
                self.stats.record_rule_time(rule_index, micros);
            }
            TimeMode::Ticks => self.stats.record_rule_time(rule_index, firings),
        }
        self.stats.record_firings(rule_index, firings);
    }

    /// Run `run` with the pending pools of `head` — routed by `router` —
    /// and of the inboxes, and the outlets, lent out as [`Pools`]. (Plans
    /// never *read* a pending pool or an outlet, only arenas.)
    fn with_pools<T>(&mut self, head: usize, router: usize, run: impl FnOnce(&Self, &mut Pools<'_>) -> T) -> T {
        let take = |state: &mut IdbState| std::mem::take(&mut state.pending);
        let mut pools = Pools {
            router: &self.routers[router],
            stored: take(&mut self.idb[head]),
            homes: self.idb[self.inboxes_from..].iter_mut().map(take).collect(),
            outlets: std::mem::take(&mut self.outlets),
            hit: Vec::new(),
        };
        let out = run(self, &mut pools);
        let Pools { stored, homes, outlets, .. } = pools;
        (self.idb[head].pending, self.outlets) = (stored, outlets);
        for (state, pool) in self.idb[self.inboxes_from..].iter_mut().zip(homes) {
            state.pending = pool;
        }
        out
    }

    /// Run to the local fixpoint: bootstrap, then advance/process rounds
    /// until nothing new appears. Returns total fresh tuples.
    pub fn run_to_fixpoint(&mut self) -> Result<u64> {
        self.bootstrap()?;
        let mut total = 0;
        loop {
            let fresh = self.advance()?;
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
        let s = &mut self.idb[*self.slots.get(&pred)?];
        s.delta_start = 0;
        Some(std::mem::replace(&mut s.full, Relation::new(pred.1)))
    }

    /// Finish: the derived relations, moved out, and the statistics.
    pub fn into_result(self) -> EvalResult {
        EvalResult { idb: self.idb.into_iter().map(|s| (s.id, s.full)).collect(), stats: self.stats }
    }

    // ----- internals -------------------------------------------------

    /// Make sure every index a plan's scans probe is current. An EDB
    /// index is built here on its first use (the EDB never grows during
    /// evaluation; a missing relation leaves the index empty); a derived
    /// relation's indexes are kept current by `advance`, so this only
    /// finds work after a preseed.
    fn sync_indexes_for(&mut self, i: usize) {
        for scan in self.plans[i].scans.iter().flatten() {
            match *scan {
                ScanSlot::Edb { index: Some(k) } => {
                    let (rel, index) = &mut self.edb_indexes[k];
                    if let Some(relation) = self.edb.relation(*rel) {
                        index.sync(relation);
                    }
                }
                ScanSlot::Idb { state, index: Some(k) } => {
                    let state = &mut self.idb[state];
                    state.indexes[k].sync(&state.full);
                }
                _ => {}
            }
        }
    }

    /// Execute one plan against current state, emitting through `emit`.
    /// Returns the firing count.
    fn run_one_into(&self, i: usize, emit: &mut impl FnMut(Tuple)) -> u64 {
        let SlottedPlan { plan, scans, .. } = &self.plans[i];
        let accesses: Vec<Option<Access<'_>>> = plan
            .steps
            .iter()
            .zip(scans)
            .map(|(step, slot)| match (step, slot) {
                (PlanStep::Scan(sc), Some(slot)) => Some(self.access_for(sc, *slot)),
                _ => None,
            })
            .collect();
        run_plan(plan, &accesses, emit)
    }

    fn access_for<'a>(&'a self, scan: &crate::plan::ScanStep, slot: ScanSlot) -> Access<'a> {
        match slot {
            ScanSlot::Edb { index } => match (self.edb.relation(scan.relation), index) {
                (None, _) => Access::Empty,
                (Some(rel), Some(k)) => Access::probe_all(&self.edb_indexes[k].1, rel),
                (Some(rel), None) => Access::scan_all(rel),
            },
            ScanSlot::Idb { state, index } => {
                let state = &self.idb[state];
                // Old = the arena rows below the delta watermark, delta =
                // those at or above it.
                let (start, end) = match scan.source {
                    AtomSource::IdbOld => (0, state.delta_start),
                    AtomSource::IdbDelta => (state.delta_start, state.full.len()),
                    _ => (0, state.full.len()),
                };
                if start == end {
                    return Access::Empty;
                }
                let (start, end) = (start as u32, end as u32);
                match index {
                    Some(k) => Access::probe_range(&state.indexes[k], &state.full, start, end),
                    None => Access::scan_range(&state.full, start, end),
                }
            }
        }
    }
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
    let mut engine = FixpointEngine::new(program, Arc::new(edb.clone()), &[])?;
    engine.run_to_fixpoint()?;
    Ok(engine.into_result())
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
        let plan = compile_rule(rule, i, &is_idb, None)?;
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
        .map(|(i, r)| compile_rule(r, i, &is_idb, None))
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
    use gst_common::{ituple, Interner, Value};
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
            if engine.advance().unwrap() == 0 {
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
        // inbox predicate `in_ch` feeds t but has no defining rule.
        let (p, db) = load("t(X,Y) :- in_ch(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).\ne(0,1).");
        let in_ch = (p.interner.get("in_ch").unwrap(), 2);
        let t_id = (p.interner.get("t").unwrap(), 2);
        let mut engine = FixpointEngine::new(&p, Arc::new(db), &[in_ch]).unwrap();
        engine.bootstrap().unwrap();
        engine.inject(in_ch, vec![ituple![1, 5]]).unwrap();
        loop {
            if engine.advance().unwrap() == 0 {
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
        assert!(engine.advance().unwrap() > 0);
        let first_delta = engine.delta_tuples(t_id);
        assert_eq!(first_delta.len(), 2); // e copied
        engine.process_round();
        assert_eq!(engine.advance().unwrap(), 1); // t(1,3)
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

        // Injecting a new edge-reachable tuple continues from the state.
        resumed.inject(t_id, vec![ituple![3, 9]]).unwrap();
        loop {
            if resumed.advance().unwrap() == 0 {
                break;
            }
            resumed.process_round();
        }
        let t = resumed.relation(t_id).unwrap();
        assert!(t.contains(&ituple![1, 9]) && t.contains(&ituple![2, 9]));
        // Exactly the genuinely new tuples sit above the resume watermark.
        assert_eq!(t.rows()[len..].len(), 3);
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
            if resumed.advance().unwrap() == 0 {
                break;
            }
            resumed.process_round();
        }
        // The re-inserted tuple landed in a fresh arena row above the
        // watermark: it was a delta again, so a route would re-ship it.
        assert_eq!(&resumed.relation(t_id).unwrap().rows()[watermark..], &[ituple![1, 2]]);
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
    fn the_result_includes_all_idb() {
        let (p, db) = load("a(X) :- e(X).\nb(X) :- a(X).\ne(1).");
        let snap = seminaive_eval(&p, &db).unwrap().idb;
        assert_eq!(snap.len(), 2);
        let interner: &Interner = &p.interner;
        let a_id = (interner.get("a").unwrap(), 1);
        let b_id = (interner.get("b").unwrap(), 1);
        assert_eq!(snap[&a_id].len(), 1);
        assert_eq!(snap[&b_id].len(), 1);
    }

    /// The route key `X mod n = ·` of these tests.
    struct ModKey(Vec<gst_frontend::Variable>, i64);

    impl gst_frontend::Constraint for ModKey {
        fn variables(&self) -> &[gst_frontend::Variable] {
            &self.0
        }
        fn holds(&self, _: &[Value]) -> bool {
            true
        }
        fn describe(&self, _: &Interner) -> String {
            "mod".into()
        }
        fn partition(&self, bound: &[Value]) -> Option<usize> {
            match bound[0] {
                Value::Int(k) => Some(k.rem_euclid(self.1) as usize),
                Value::Sym(_) => None,
            }
        }
    }

    /// `t/2` routed to `t_in/2` at processors `0..n`: rows matching
    /// `pattern` (variable names or integers) by `key`'s value mod `n`,
    /// or — no key — every row everywhere.
    fn route(p: &Program, pattern: [&str; 2], key: Option<&str>, n: usize) -> Route {
        let var = |name: &str| gst_frontend::Variable(p.interner.intern(name));
        let term = |tok: &str| match tok.parse::<i64>() {
            Ok(k) => gst_frontend::Term::Const(Value::Int(k)),
            Err(_) => gst_frontend::Term::Var(var(tok)),
        };
        let t_in = (p.interner.intern("t_in"), 2);
        Route {
            source: gst_frontend::Atom::new(p.interner.intern("t"), pattern.map(term).to_vec()),
            key: key.map(|k| Arc::new(ModKey(vec![var(k)], n as i64)) as _),
            dests: (0..n).map(|j| (j, t_in)).collect(),
            retract: false,
        }
    }

    /// Processor 0's engine for `source`, bootstrapped and advanced once;
    /// what it put into `t_in` here, and its outlets.
    fn routed(source: &str, routes: impl Fn(&Program) -> Vec<Route>) -> Result<(Vec<Tuple>, FixpointEngine)> {
        let (p, db) = load(source);
        let t_in = (p.interner.intern("t_in"), 2);
        let mut engine =
            FixpointEngine::with_routes(&p, Arc::new(db), &[t_in], 0, &routes(&p))?;
        engine.bootstrap()?;
        engine.advance()?;
        let mut local = engine.delta_tuples(t_in).to_vec();
        local.sort();
        Ok((local, engine))
    }

    const CHAIN: &str = "t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t_in(Z,Y).\n\
                         e(0,1). e(1,2). e(2,3). e(3,4). e(4,5). e(5,6).";
    const PAIRS: &str = "t(X,Y) :- s(X,Y).\ns(1,3). s(1,2). s(4,6).";

    /// What the routed head `t` (first in advance order) holds.
    fn stored(engine: &FixpointEngine) -> Vec<Tuple> {
        engine.relation(engine.idb_predicates()[0]).unwrap().rows().to_vec()
    }

    #[test]
    fn a_locally_routed_row_is_a_delta_of_the_same_round() {
        let (local, mut engine) = routed(CHAIN, |p| vec![route(p, ["A", "B"], Some("A"), 2)]).unwrap();
        assert_eq!(local, vec![ituple![0, 1], ituple![2, 3], ituple![4, 5]]);
        // A row is stored once, by the inbox that receives it: the 3 even
        // edges in t_in here, the 3 odd ones nowhere — they are shipped.
        assert_eq!(engine.stats().derived, 3, "only the even edges are stored here");
        let [outlet] = engine.outlets() else { panic!("one remote destination") };
        assert_eq!(outlet.dests.len(), 1);
        assert_eq!(outlet.rows, vec![ituple![1, 2], ituple![3, 4], ituple![5, 6]]);
        assert!(stored(&engine).is_empty());
        engine.clear_outlets();
        // No sending rule fired: the firings are the two rules' own, and a
        // row a rule emits for elsewhere is in the outlet before any advance.
        engine.process_round();
        assert_eq!(engine.stats().firings, 6 + 2, "t_in(2,3) and t_in(4,5) have an edge into them");
        assert_eq!(engine.outlets()[0].rows, vec![ituple![1, 3], ituple![3, 5]]);
    }

    #[test]
    fn an_injected_row_is_placed_like_an_emitted_one() {
        let by_a = |p: &Program| vec![route(p, ["A", "B"], Some("A"), 2)];
        let (local, emitted) = routed(CHAIN, by_a).unwrap();
        // The same six rows, injected into the head instead of derived.
        let (p, db) = load("t(X,Y) :- e(X,Z), t_in(Z,Y).");
        let (t, t_in) = ((p.interner.intern("t"), 2), (p.interner.intern("t_in"), 2));
        let mut engine =
            FixpointEngine::with_routes(&p, Arc::new(db), &[t_in], 0, &by_a(&p)).unwrap();
        engine.inject(t, (0..6i64).map(|k| ituple![k, k + 1])).unwrap();
        assert!(engine.inject(t, vec![ituple![0, 1], ituple![7]]).is_err(), "rolled back whole");
        engine.advance().unwrap();
        assert_eq!(engine.delta_tuples(t_in), local);
        assert_eq!(stored(&engine), stored(&emitted));
        assert_eq!(engine.outlets()[0].rows, emitted.outlets()[0].rows);
    }

    #[test]
    fn a_route_pattern_selects_like_the_rule_it_stands_for() {
        // Only rows t(3, _) are routed, by their second column. With no
        // route that selects every row, `t` keeps every row — the home
        // row t(3,4) too — and stays the pooled relation.
        let selective = |p: &Program| vec![route(p, ["3", "B"], Some("B"), 2)];
        let (local, engine) = routed(CHAIN, selective).unwrap();
        assert_eq!(local, vec![ituple![3, 4]]);
        assert!(engine.outlets()[0].rows.is_empty());
        assert_eq!(stored(&engine).len(), 6);
        let (p, _) = load(CHAIN);
        let (t, t_in) = ((p.interner.intern("t"), 2), (p.interner.intern("t_in"), 2));
        assert_eq!(route::home_inbox(&selective(&p), 0, t), None);
        // Beside a route that selects every row, the same route does not
        // stop the rows from bypassing `t`.
        let both = |p: &Program| vec![route(p, ["A", "A"], Some("A"), 2), route(p, ["A", "B"], Some("A"), 2)];
        assert_eq!(route::home_inbox(&both(&p), 0, t), Some(t_in));
        let engine = routed(CHAIN, both).unwrap().1;
        assert_eq!((stored(&engine).len(), engine.outlets()[0].rows.len()), (0, 3));
    }

    #[test]
    fn a_row_reaches_an_inbox_once_however_many_routes_pick_it() {
        // Example 8's shape: t routed on both columns. t(1,3) hashes to
        // processor 1 under either route and is buffered once; t(1,2)
        // goes to 1 (by X) and stays here (by Y); t(4,6) stays, once —
        // home under both keys. None is stored in `t`.
        let both = |p: &Program| vec![route(p, ["A", "B"], Some("A"), 2), route(p, ["A", "B"], Some("B"), 2)];
        let (local, engine) = routed(PAIRS, both).unwrap();
        assert_eq!(local, vec![ituple![1, 2], ituple![4, 6]]);
        let mut remote = engine.outlets()[0].rows.clone();
        remote.sort();
        assert_eq!(remote, vec![ituple![1, 2], ituple![1, 3]]);
        assert!(stored(&engine).is_empty());

        // A broadcast of the same source covers its hash routes: one
        // shared outlet for both remote processors, each row in it once.
        // Every row is shipped, so every row is stored in `t`; broadcast
        // to this processor alone (N = 1), none is.
        let mixed = |p: &Program| vec![route(p, ["A", "B"], Some("A"), 3), route(p, ["A", "B"], None, 3)];
        let (local, engine) = routed(PAIRS, mixed).unwrap();
        let [outlet] = engine.outlets() else { panic!("one shared outlet") };
        assert_eq!((outlet.dests.len(), outlet.rows.len(), local.len()), (2, 3, 3));
        assert_eq!(stored(&engine).len(), 3);
        let (local, engine) = routed(PAIRS, |p| vec![route(p, ["A", "B"], None, 1)]).unwrap();
        assert_eq!((local.len(), stored(&engine).len(), engine.stats().derived), (3, 0, 3));
    }

    #[test]
    fn bad_routes_are_typed_errors() {
        let err = |routes: &dyn Fn(&Program) -> Vec<Route>| match routed(PAIRS, routes) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("accepted"),
        };
        let wrong = |edit: fn(&Program, &mut Route)| {
            move |p: &Program| {
                let mut r = route(p, ["A", "B"], None, 2);
                edit(p, &mut r);
                vec![r]
            }
        };
        let e = err(&wrong(|p, r| r.dests[0].1 = (p.interner.intern("elsewhere"), 2)));
        assert!(e.contains("local inbox is not a derived predicate"), "{e}");
        let e = err(&wrong(|p, r| r.source.predicate = p.interner.intern("s")));
        assert!(e.contains("source is not a derived predicate"), "{e}");
        let e = err(&wrong(|_, r| r.source.predicate = r.dests[0].1 .0));
        assert!(e.contains("local inbox of another route"), "{e}");
        let e = err(&wrong(|_, r| r.dests[1].1 .1 = 3));
        assert!(e.contains("arity differs"), "{e}");
        let e = err(&wrong(|_, r| r.source.terms[0] = gst_frontend::Term::Const(Value::Int(1))));
        assert!(e.contains("broadcast route must not select"), "{e}");
        let e = err(&|p| vec![route(p, ["A", "B"], Some("Q"), 2)]);
        assert!(e.contains("key variable does not occur"), "{e}");
        // `t`'s home rows would bypass it; a rule reading `t` would miss them.
        let reads_source = "t(X,Y) :- s(X,Y).\nt(X,Y) :- s(X,Z), t(Z,Y).";
        let e = routed(reads_source, |p| vec![route(p, ["A", "B"], Some("A"), 2)]).err().unwrap().to_string();
        assert!(e.contains("but a rule reads the source"), "{e}");
        // A key that hashes outside the route's table fails the advance.
        let e = err(&|p| vec![Route { dests: vec![], ..route(p, ["A", "B"], Some("B"), 5) }]);
        assert!(e.contains("to processor 3, which it lists no inbox for"), "{e}");
    }

    #[test]
    fn a_home_row_whose_key_fails_fails_the_next_advance() {
        // `t` has a home inbox, so its rows are routed as they are emitted;
        // one whose key cannot name a listed processor (`mod n` over inboxes
        // at 0 and 1) still fails the advance with the route's error —
        // under one hash route, and under two (Example 8) where the other
        // key routes the row fine.
        let cases = [("s(1,a).", 2, "route key is not a partitioning constraint"), ("s(1,3).", 5, "to processor 3, which it lists no inbox for")];
        for ((fact, n, error), keys) in cases.into_iter().flat_map(|case| [(case, &["B"][..]), (case, &["A", "B"])]) {
            let source = format!("t(X,Y) :- s(X,Y).\n{fact}");
            let routes = |p: &Program| keys.iter().map(|&k| Route { dests: route(p, ["A", "B"], None, 2).dests, ..route(p, ["A", "B"], Some(k), n) }).collect::<Vec<_>>();
            let (p, _) = load(&source);
            assert!(route::home_inbox(&routes(&p), 0, (p.interner.intern("t"), 2)).is_some());
            let e = routed(&source, routes).err();
            assert!(matches!(&e, Some(Error::Eval(m)) if m.contains(error)), "{fact} keyed by {keys:?}: {e:?}");
        }
    }
}
