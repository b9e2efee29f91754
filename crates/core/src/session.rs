//! Incremental view maintenance over a compiled scheme: live EDB
//! inserts and deletes without recomputing from scratch.
//!
//! An [`UpdateSession`] wraps a [`CompiledScheme`] and keeps, between
//! update rounds, every worker's **maintained state**: its rule heads
//! (`t@out^i` — empty where `t` has a home inbox, whose rows go straight
//! to the inboxes, else everything it derived), its inboxes (`t@in^i` —
//! its home rows and joinable copies of remote derivations), and its
//! replica of every updatable base predicate. The answer shard is
//! whichever of the two the scheme pools
//! ([`crate::schemes::placement`]). Nothing else is stored: the route
//! table ships what the phase at hand derives — every emitted row of a
//! home source, the rows fresh in `t@out^i` of any other — and the
//! preseeded inboxes absorb what they already hold, so preseeded state
//! ships nothing by itself and a re-inserted tuple ships again, without
//! any plumbing.
//!
//! Each update round applies one [`UpdateBatch`] in two phases:
//!
//! 1. **Over-deletion (DRed phase A)** — a *deletion-cone* program is
//!    derived mechanically from each worker's rules: for every rule and
//!    every dynamic body atom, a rule `del(head) :- …, del(atom), …`
//!    whose other atoms read the pre-delete maintained state (shipped
//!    into the phase as plain base facts). The cone is itself a
//!    monotone Datalog fixpoint, so it runs on the unmodified parallel
//!    runtime — same semi-naive deltas, same termination detection, same
//!    crash recovery — with its routes flagged
//!    [`retract`](gst_runtime::Route::retract) so deletion traffic is
//!    accounted separately on the wire.
//!    Everything the cone reaches is tombstoned out of the maintained
//!    state (arena rows keep their slots; see `gst_storage`).
//!
//! 2. **Rederivation + inserts (phase B)** — one naive firing of the
//!    *source* program over the surviving global state
//!    ([`gst_eval::fire_once`]) finds every over-deleted tuple that is
//!    still one-step derivable from live support; those seeds, plus the
//!    batch's base inserts, are injected into the workers' pending
//!    pools while the surviving state is preseeded with an empty delta
//!    ([`gst_runtime::SessionSeed`]). The ordinary semi-naive loop then
//!    cascades: seeds become deltas, deltas fire rules, the routes
//!    ship fresh derivations, and the distributed fixpoint converges to
//!    exactly the least model of the updated database.
//!
//! Base predicates are listed as
//! [`local_idb`](gst_runtime::ProcessorProgram::local_idb) in session
//! mode so base *inserts* flow through the same delta machinery as
//! derived tuples (a rule joining a new base fact against old derived
//! state must refire, which requires delta plan versions for base
//! atoms). Batch-mode compilation leaves `local_idb` empty, so batch
//! plans, firings, and wire bytes are unchanged by this module.

use std::sync::Arc;

use gst_common::{Error, FxHashMap, Interner, Result, Tuple};
use gst_eval::fire_once;
use gst_eval::plan::RelationId;
use gst_frontend::ast::Literal;
use gst_frontend::Program;
use gst_runtime::{
    ExecutionOutcome, ParallelStats, ProcessorProgram, Route, RuntimeConfig, SessionSeed, Shards,
    Transport, WorkerSpec,
};
use gst_storage::{Database, Relation};

use crate::schemes::common::{atom, Namer};
use crate::schemes::CompiledScheme;

/// One batch of base-fact updates, applied atomically by
/// [`UpdateSession::apply`]. Deletes are applied before inserts, so a
/// tuple both deleted and inserted in one batch ends up present.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    /// Tuples added to base predicates.
    pub inserts: Vec<(RelationId, Tuple)>,
    /// Tuples removed from base predicates. Deleting an absent tuple is
    /// a no-op.
    pub deletes: Vec<(RelationId, Tuple)>,
}

impl UpdateBatch {
    /// True when the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// What one update round did — the session's per-round statistics, the
/// maintenance counterpart of a batch run's [`ParallelStats`].
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Round number (0 = the initial fixpoint).
    pub round: u64,
    /// Base tuples actually deleted (present before the batch).
    pub deleted_base: u64,
    /// Base tuples submitted for insertion.
    pub inserted_base: u64,
    /// Derived tuples tombstoned by the over-deletion cone, summed over
    /// worker shards and inbox replicas.
    pub overdeleted: u64,
    /// Rederivation seeds found by the one-step probe over surviving
    /// state (tuples the cone removed that are still derivable).
    pub rederive_seeds: u64,
    /// Runtime statistics of the over-deletion run (`None` when the
    /// batch had no effective deletes and phase A was skipped).
    pub phase_a: Option<ParallelStats>,
    /// Runtime statistics of the rederive/insert run (`None` only for a
    /// round that had nothing at all to do).
    pub phase_b: Option<ParallelStats>,
}

/// A live, incrementally maintained parallel Datalog view.
///
/// Build with [`UpdateSession::new`], run the initial fixpoint with
/// [`UpdateSession::initialize`], then feed [`UpdateBatch`]es through
/// [`UpdateSession::apply`]. [`UpdateSession::answer`] returns the
/// maintained global relation for any answer predicate; after every
/// round it is bit-identical (as a set) to recomputing the scheme from
/// scratch over the updated database.
pub struct UpdateSession {
    source: Program,
    interner: Interner,
    /// Session-mode worker templates: batch workers with base
    /// predicates promoted to `local_idb` and pooling redirected to
    /// per-worker capture predicates.
    workers: Vec<WorkerSpec>,
    /// Per worker: every local predicate whose state is maintained
    /// across rounds (rule heads + inboxes + base replicas).
    maintained: Vec<Vec<RelationId>>,
    /// Per worker: the derived subset of `maintained` (heads and
    /// inboxes — the predicates the deletion cone tombstones), each
    /// paired with the global answer predicate it replicates. A local
    /// with no known global (a scheme-internal auxiliary) is paired
    /// with itself and tombstoned per-worker only.
    derived_global: Vec<Vec<(RelationId, RelationId)>>,
    /// `(answer predicate, [(worker, local shard)])` from the original
    /// batch-mode pooling — how maintained shards union into answers.
    by_answer: Vec<(RelationId, Vec<(usize, RelationId)>)>,
    /// Per worker: `(answer predicate, rule head)` — the head whose rows
    /// the shard pools, where rederivation seeds enter so that the engine
    /// places and routes them like emitted rows.
    seed_heads: Vec<Vec<(RelationId, RelationId)>>,
    /// Updatable base predicates (every EDB predicate the rules read).
    base_preds: Vec<RelationId>,
    /// The current global extensional database (tombstoned in place).
    global_edb: Database,
    /// `state[i][local]` — worker `i`'s maintained relations.
    state: Vec<FxHashMap<RelationId, Relation>>,
    /// Per-round reports, `[0]` being the initial fixpoint.
    reports: Vec<RoundReport>,
}

/// `pred` with `suffix` appended to its name, same arity. Suffixes use
/// `~`, outside the surface grammar, so session predicates can never
/// collide with source or scheme (`@`-suffixed) predicates.
fn suffixed(interner: &Interner, pred: RelationId, suffix: &str) -> RelationId {
    let name = format!("{}{}", interner.resolve(pred.0), suffix);
    (interner.intern(&name), pred.1)
}

/// The deletion-cone twin `pred~del` of a dynamic predicate.
fn del_id(interner: &Interner, pred: RelationId) -> RelationId {
    suffixed(interner, pred, "~del")
}

/// The capture predicate worker `i` pools `pred`'s final state into.
/// Local predicate names repeat across workers (base replicas), so the
/// worker index is part of the name.
fn cap_id(interner: &Interner, pred: RelationId, i: usize) -> RelationId {
    suffixed(interner, pred, &format!("~cap{i}"))
}

/// A copy of `rel` holding only its live rows (tombstones dropped).
fn live_clone(rel: &Relation) -> Relation {
    if rel.dead_count() == 0 {
        return rel.clone();
    }
    let mut out = Relation::new(rel.arity());
    for t in rel.iter() {
        out.insert_unchecked(t.clone());
    }
    out
}

impl UpdateSession {
    /// Wrap a compiled scheme for incremental maintenance. `source` is
    /// the original (unrewritten) program — the rederivation probe runs
    /// it over global state — and `db` the initial extensional
    /// database.
    pub fn new(scheme: &CompiledScheme, source: &Program, db: &Database) -> Result<Self> {
        let interner = source.interner.clone();
        let n = scheme.workers.len();

        // Updatable base predicates: every body atom the worker rules
        // read that is neither a local head nor an inbox.
        let mut base_preds: Vec<RelationId> = Vec::new();
        for spec in &scheme.workers {
            let pp = &spec.program;
            let idb: Vec<RelationId> = pp
                .program
                .rules
                .iter()
                .map(|r| (r.head.predicate, r.head.terms.len()))
                .chain(pp.inboxes.iter().copied())
                .collect();
            for rule in &pp.program.rules {
                for a in rule.body_atoms() {
                    let id: RelationId = (a.predicate, a.terms.len());
                    if !idb.contains(&id) && !base_preds.contains(&id) {
                        base_preds.push(id);
                    }
                }
            }
        }
        base_preds.sort();

        let namer = Namer::new(interner.clone());
        let mut workers = Vec::with_capacity(n);
        let mut maintained = Vec::with_capacity(n);
        let mut derived_global = Vec::with_capacity(n);
        let mut by_answer: Vec<(RelationId, Vec<(usize, RelationId)>)> = Vec::new();
        let mut seed_heads = Vec::with_capacity(n);
        for spec in &scheme.workers {
            let i = spec.program.processor;
            let mut derived: Vec<RelationId> =
                spec.program.pooling.iter().map(|&(local, ..)| local).collect();
            let heads: Vec<RelationId> =
                spec.program.program.rules.iter().map(|r| (r.head.predicate, r.head.terms.len())).collect();
            for &local in heads.iter().chain(&spec.program.inboxes) {
                if !derived.contains(&local) {
                    derived.push(local);
                }
            }
            // Which global answer predicate each derived local is a
            // replica of: shards say so in the pooling pairs, the other
            // heads and inboxes follow the scheme namer's convention.
            let global_of = |local: RelationId| {
                let pooled = spec.program.pooling.iter().find(|&&(l, ..)| l == local).map(|&(_, g, _)| g);
                let named = |&g: &RelationId| namer.input(g, i) == local || namer.out(g, i) == local;
                pooled.or_else(|| scheme.answers.iter().copied().find(named)).unwrap_or(local)
            };
            let globals: Vec<(RelationId, RelationId)> = derived.iter().map(|&l| (l, global_of(l))).collect();
            let mut locals = derived.clone();
            for &p in &base_preds {
                if !locals.contains(&p) {
                    locals.push(p);
                }
            }
            let mut seeded = Vec::new();
            for &(local, global, shards) in &spec.program.pooling {
                match by_answer.iter_mut().find(|(g, _)| *g == global) {
                    // One copy of a replicated answer is the answer.
                    Some(_) if shards == Shards::Replica => {}
                    Some((_, locals)) => locals.push((i, local)),
                    None => by_answer.push((global, vec![(i, local)])),
                }
                // The heads whose rows the pooled relation holds: itself,
                // or whichever a route carries into it here.
                let routed = |head| spec.program.routes.iter().any(|r| r.source_id() == head && r.dests.contains(&(i, local)));
                for &head in heads.iter().filter(|&&head| head == local || routed(head)) {
                    if !seeded.contains(&(global, head)) {
                        seeded.push((global, head));
                    }
                }
            }
            seed_heads.push(seeded);
            let mut program = spec.program.clone();
            program.local_idb = base_preds.clone();
            program.pooling = locals
                .iter()
                .map(|&l| (l, cap_id(&interner, l, i), Shards::Overlap))
                .collect();
            workers.push(WorkerSpec {
                program,
                edb: Arc::clone(&spec.edb),
                session: None,
            });
            maintained.push(locals);
            derived_global.push(globals);
        }

        Ok(UpdateSession {
            source: source.clone(),
            interner,
            workers,
            maintained,
            derived_global,
            by_answer,
            seed_heads,
            base_preds,
            global_edb: db.clone(),
            state: Vec::new(),
            reports: Vec::new(),
        })
    }

    /// True once [`UpdateSession::initialize`] has run.
    pub fn initialized(&self) -> bool {
        !self.state.is_empty()
    }

    /// Rounds executed so far, including the initial fixpoint.
    pub fn rounds(&self) -> u64 {
        self.reports.len() as u64
    }

    /// Per-round reports, `[0]` being the initial fixpoint.
    pub fn reports(&self) -> &[RoundReport] {
        &self.reports
    }

    /// The maintained global relation for an answer predicate: the live
    /// union of every worker's shard. Empty before initialization or
    /// for a predicate the scheme does not pool.
    pub fn answer(&self, pred: RelationId) -> Relation {
        let mut out = Relation::new(pred.1);
        if let Some((_, shards)) = self.by_answer.iter().find(|(g, _)| *g == pred) {
            for &(i, local) in shards {
                if let Some(rel) = self.state.get(i).and_then(|m| m.get(&local)) {
                    for t in rel.iter() {
                        out.insert_unchecked(t.clone());
                    }
                }
            }
        }
        out
    }

    /// The current global extensional database (tombstones included).
    pub fn edb(&self) -> &Database {
        &self.global_edb
    }

    /// Round 0: run the initial distributed fixpoint and capture every
    /// worker's state.
    pub fn initialize<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        config: &RuntimeConfig,
    ) -> Result<&RoundReport> {
        if self.initialized() {
            return Err(Error::Runtime("update session already initialized".into()));
        }
        let outcome = transport.execute(self.workers.clone(), config)?;
        self.capture(&outcome);
        self.reports.push(RoundReport {
            round: 0,
            deleted_base: 0,
            inserted_base: 0,
            overdeleted: 0,
            rederive_seeds: 0,
            phase_a: None,
            phase_b: Some(outcome.stats),
        });
        Ok(self.reports.last().expect("just pushed"))
    }

    /// Apply one update batch: over-delete (DRed phase A), tombstone,
    /// rederive + insert (phase B), and recapture the maintained state.
    pub fn apply<T: Transport + ?Sized>(
        &mut self,
        batch: &UpdateBatch,
        transport: &T,
        config: &RuntimeConfig,
    ) -> Result<&RoundReport> {
        if !self.initialized() {
            return Err(Error::Runtime(
                "update session must be initialized before applying batches".into(),
            ));
        }
        for (pred, _) in batch.inserts.iter().chain(batch.deletes.iter()) {
            if !self.base_preds.contains(pred) {
                return Err(Error::Shape(format!(
                    "updates must target base predicates; {}/{} is not one",
                    self.interner.resolve(pred.0),
                    pred.1
                )));
            }
        }
        let round = self.reports.len() as u64;

        // Effective deletes: tuples actually present. Absent deletes
        // would seed a cone over nothing — skip them up front so an
        // all-absent batch skips phase A entirely.
        let deletes: Vec<(RelationId, Tuple)> = batch
            .deletes
            .iter()
            .filter(|(p, t)| self.global_edb.relation(*p).is_some_and(|r| r.contains(t)))
            .cloned()
            .collect();

        // ---- Phase A: distributed over-deletion ---------------------
        let mut overdeleted = 0u64;
        let mut phase_a = None;
        if !deletes.is_empty() {
            let specs = self.delete_specs(&deletes)?;
            let outcome = transport.execute(specs, config)?;
            // The cone names a tuple for deletion at the worker its
            // supporting *rule* discriminates to, but live copies of
            // the same tuple can sit in other workers' shards (another
            // rule derives it elsewhere) and in inbox replicas the
            // mirrored routing never visits. Over-deletion is a global
            // property of the answer predicate: union the cone across
            // all replicas first, then tombstone every replica of
            // every named tuple.
            let mut cones: Vec<(RelationId, Relation)> = Vec::new();
            for i in 0..self.workers.len() {
                for &(local, global) in &self.derived_global[i] {
                    let cone =
                        outcome.relation(cap_id(&self.interner, del_id(&self.interner, local), i));
                    if cone.is_empty() {
                        continue;
                    }
                    let slot = match cones.iter().position(|(g, _)| *g == global) {
                        Some(k) => k,
                        None => {
                            cones.push((global, Relation::new(global.1)));
                            cones.len() - 1
                        }
                    };
                    for t in cone.iter() {
                        cones[slot].1.insert_unchecked(t.clone());
                    }
                }
            }
            for i in 0..self.workers.len() {
                for &(local, global) in &self.derived_global[i] {
                    let Some((_, named)) = cones.iter().find(|(g, _)| *g == global) else {
                        continue;
                    };
                    let replica = self.state[i].get_mut(&local).expect("maintained local");
                    for t in named.iter() {
                        if replica.delete(t) {
                            overdeleted += 1;
                        }
                    }
                }
            }
            for (p, t) in &deletes {
                self.global_edb.delete(*p, t);
                for map in self.state.iter_mut() {
                    map.get_mut(p).expect("maintained base").delete(t);
                }
            }
            phase_a = Some(outcome.stats);
        }

        // ---- Rederivation probe -------------------------------------
        // One naive firing of the source program over the surviving
        // global state; emissions not already present are the DRed
        // rederivation seeds (their consequences cascade in phase B).
        let mut seeds: Vec<(RelationId, Vec<Tuple>)> = Vec::new();
        let mut seed_count = 0u64;
        if !deletes.is_empty() {
            let answers: Vec<(RelationId, Relation)> = self
                .by_answer
                .iter()
                .map(|(g, _)| (*g, self.answer(*g)))
                .collect();
            let mut merged = Database::new(self.interner.clone());
            for &p in &self.base_preds {
                if let Some(rel) = self.global_edb.relation(p) {
                    merged.put_relation(p, live_clone(rel))?;
                }
            }
            for (g, rel) in &answers {
                merged.put_relation(*g, rel.clone())?;
            }
            for (head, emitted) in fire_once(&self.source, &merged)? {
                let existing = answers
                    .iter()
                    .find(|(g, _)| *g == head)
                    .map(|(_, rel)| rel);
                let mut fresh = Relation::new(head.1);
                let mut out = Vec::new();
                for t in emitted {
                    if existing.is_some_and(|rel| rel.contains(&t)) {
                        continue;
                    }
                    if fresh.insert_unchecked(t.clone()) {
                        out.push(t);
                    }
                }
                if !out.is_empty() {
                    seed_count += out.len() as u64;
                    seeds.push((head, out));
                }
            }
        }

        // ---- Phase B: preseed survivors, inject seeds + inserts -----
        let mut inserted = 0u64;
        for (p, t) in &batch.inserts {
            self.global_edb.insert(*p, t.clone())?;
            inserted += 1;
        }
        let mut phase_b = None;
        if !deletes.is_empty() || !batch.inserts.is_empty() {
            let mut specs = self.workers.clone();
            for spec in &mut specs {
                let i = spec.program.processor;
                let preseed: Vec<(RelationId, Relation)> = self.maintained[i]
                    .iter()
                    .map(|&l| (l, self.state[i][&l].clone()))
                    .collect();
                let mut inject: Vec<(RelationId, Vec<Tuple>)> = Vec::new();
                // Rederivation seeds are injected into every worker's
                // rule head for the answer: the engine stores a seed at
                // home or fans it out to exactly the inbox replicas that
                // need it, and set semantics absorbs the redundancy.
                for (g, tuples) in &seeds {
                    let heads = self.seed_heads[i].iter().filter(|(answer, _)| answer == g);
                    inject.extend(heads.map(|&(_, head)| (head, tuples.clone())));
                }
                // Base inserts broadcast to every replica; the rules'
                // discriminating constraints keep processing partitioned.
                for &p in &self.base_preds {
                    let tuples: Vec<Tuple> = batch
                        .inserts
                        .iter()
                        .filter(|(ip, _)| *ip == p)
                        .map(|(_, t)| t.clone())
                        .collect();
                    if !tuples.is_empty() {
                        inject.push((p, tuples));
                    }
                }
                spec.session = Some(Arc::new(SessionSeed { preseed, inject }));
            }
            let outcome = transport.execute(specs, config)?;
            self.capture(&outcome);
            phase_b = Some(outcome.stats);
        }

        self.reports.push(RoundReport {
            round,
            deleted_base: deletes.len() as u64,
            inserted_base: inserted,
            overdeleted,
            rederive_seeds: seed_count,
            phase_a,
            phase_b,
        });
        Ok(self.reports.last().expect("just pushed"))
    }

    /// Store every worker's captured relations as the maintained state.
    fn capture(&mut self, outcome: &ExecutionOutcome) {
        let n = self.workers.len();
        if self.state.is_empty() {
            self.state = (0..n).map(|_| FxHashMap::default()).collect();
        }
        for i in 0..n {
            for &local in &self.maintained[i] {
                self.state[i].insert(local, outcome.relation(cap_id(&self.interner, local, i)));
            }
        }
    }

    /// Build the phase-A (over-deletion) worker specs for one batch of
    /// effective base deletes.
    ///
    /// For every worker rule and every *dynamic* body atom (a local
    /// head, an inbox, or a base predicate — anything whose content
    /// depends on updatable input), a cone rule is emitted with the
    /// head and that one atom renamed to their `~del` twins; all other
    /// literals (including the discriminating constraints) are kept
    /// verbatim and read the pre-delete maintained state, shipped into
    /// the phase as plain base facts; every route is renamed to its
    /// `~del` twin the same way. The cone thus retraces exactly the
    /// original derivations' routing, so every shard and inbox copy of
    /// an affected tuple receives a deletion marker at the worker that
    /// holds it.
    fn delete_specs(&self, deletes: &[(RelationId, Tuple)]) -> Result<Vec<WorkerSpec>> {
        let interner = &self.interner;
        let mut specs = Vec::with_capacity(self.workers.len());
        for spec in &self.workers {
            let pp = &spec.program;
            let i = pp.processor;
            let mut dynamic: Vec<RelationId> = pp
                .program
                .rules
                .iter()
                .map(|r| (r.head.predicate, r.head.terms.len()))
                .collect();
            for &id in pp.inboxes.iter().chain(self.base_preds.iter()) {
                if !dynamic.contains(&id) {
                    dynamic.push(id);
                }
            }

            let mut rules = Vec::new();
            let mut processing_rules = Vec::new();
            for (k, rule) in pp.program.rules.iter().enumerate() {
                let head_id: RelationId = (rule.head.predicate, rule.head.terms.len());
                for (pos, literal) in rule.body.iter().enumerate() {
                    let Literal::Atom(a) = literal else { continue };
                    let id: RelationId = (a.predicate, a.terms.len());
                    if !dynamic.contains(&id) {
                        continue;
                    }
                    let mut body = rule.body.clone();
                    body[pos] =
                        Literal::Atom(atom(del_id(interner, id), a.terms.clone()));
                    let candidate = gst_frontend::Rule::new(
                        atom(del_id(interner, head_id), rule.head.terms.clone()),
                        body,
                    );
                    if !rules.contains(&candidate) {
                        if pp.processing_rules.contains(&k) {
                            processing_rules.push(rules.len());
                        }
                        rules.push(candidate);
                    }
                }
            }

            // Every route becomes its `~del` twin, flagged as retraction
            // traffic: the cone's tuples retrace the routing of the
            // derivations they retract.
            let routes: Vec<Route> = pp
                .routes
                .iter()
                .map(|r| Route {
                    source: atom(del_id(interner, r.source_id()), r.source.terms.clone()),
                    key: r.key.clone(),
                    dests: r.dests.iter().map(|&(j, inbox)| (j, del_id(interner, inbox))).collect(),
                    retract: true,
                })
                .collect();
            let inboxes: Vec<RelationId> =
                pp.inboxes.iter().map(|&x| del_id(interner, x)).collect();
            // The deletion seeds arrive as base facts of the `~del`
            // twins; listing the twins in local_idb makes bootstrap
            // move them into the pending pools (the cone's round-0
            // deltas).
            let local_idb: Vec<RelationId> = self
                .base_preds
                .iter()
                .map(|&p| del_id(interner, p))
                .collect();
            let pooling = self.derived_global[i]
                .iter()
                .map(|&(l, _)| {
                    let d = del_id(interner, l);
                    (d, cap_id(interner, d, i), Shards::Overlap)
                })
                .collect();

            // Phase-A database: the worker's pre-delete maintained
            // state (live rows only) plus the broadcast deletion seeds.
            let mut db = Database::new(interner.clone());
            for &l in &self.maintained[i] {
                db.put_relation(l, live_clone(&self.state[i][&l]))?;
            }
            for &p in &self.base_preds {
                let mut seed = Relation::new(p.1);
                for (dp, t) in deletes {
                    if *dp == p {
                        seed.insert_unchecked(t.clone());
                    }
                }
                db.put_relation(del_id(interner, p), seed)?;
            }

            specs.push(WorkerSpec {
                program: ProcessorProgram {
                    processor: i,
                    program: Program::new(rules, interner.clone()),
                    routes,
                    inboxes,
                    processing_rules,
                    pooling,
                    local_idb,
                },
                edb: Arc::new(db),
                session: None,
            });
        }
        Ok(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discriminator::{DiscriminatorRef, HashMod};
    use crate::schemes::general::{rewrite_general, RuleChoice};
    use crate::schemes::BaseDistribution;
    use gst_common::ituple;
    use gst_eval::seminaive_eval;
    use gst_runtime::{SimTransport, ThreadedTransport};
    use gst_workloads::{chain, linear_ancestor, nonlinear_ancestor, random_digraph};

    /// Linear transitive closure over 3 workers (the §7 general scheme),
    /// wrapped in an update session. Returns (session, anc, edge).
    fn tc_session(edges: &Relation) -> (UpdateSession, Program, RelationId, RelationId) {
        let fx = linear_ancestor();
        let db = fx.database(edges);
        let h: DiscriminatorRef = Arc::new(HashMod::new(3, 19));
        let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
        let scheme =
            rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
        let session = UpdateSession::new(&scheme, &fx.program, &db).unwrap();
        let (anc, edge) = (fx.output_id(), fx.input_id(0));
        (session, fx.program, anc, edge)
    }

    /// The maintained answer must equal recomputing the source program
    /// from scratch over the session's current global database.
    fn assert_differential(session: &UpdateSession, source: &Program, pred: RelationId) {
        let oracle = seminaive_eval(source, session.edb()).unwrap();
        let maintained = session.answer(pred);
        assert!(
            maintained.set_eq(&oracle.relation(pred)),
            "maintained view diverged from recompute: {} vs {} tuples",
            maintained.len(),
            oracle.relation(pred).len()
        );
    }

    #[test]
    fn insert_delete_mixed_rounds_match_recompute() {
        let (mut session, source, anc, edge) = tc_session(&chain(10));
        let t = ThreadedTransport;
        let cfg = RuntimeConfig::default();

        let r0 = session.initialize(&t, &cfg).unwrap();
        assert_eq!(r0.round, 0);
        assert_differential(&session, &source, anc);

        // Insert-only round: phase A (over-deletion) is skipped.
        let grow = UpdateBatch {
            inserts: vec![(edge, ituple![10, 11]), (edge, ituple![11, 12])],
            deletes: vec![],
        };
        let r1 = session.apply(&grow, &t, &cfg).unwrap();
        assert_eq!((r1.round, r1.inserted_base, r1.deleted_base), (1, 2, 0));
        assert!(r1.phase_a.is_none() && r1.phase_b.is_some());
        assert_differential(&session, &source, anc);

        // Delete-only round: splitting the chain kills a whole cone.
        let cut = UpdateBatch {
            inserts: vec![],
            deletes: vec![(edge, ituple![5, 6])],
        };
        let r2 = session.apply(&cut, &t, &cfg).unwrap();
        assert_eq!(r2.deleted_base, 1);
        assert!(r2.overdeleted > 0, "cutting the chain must tombstone derived facts");
        assert_differential(&session, &source, anc);

        // Mixed round: heal the cut, cut somewhere else.
        let mixed = UpdateBatch {
            inserts: vec![(edge, ituple![5, 6])],
            deletes: vec![(edge, ituple![0, 1])],
        };
        session.apply(&mixed, &t, &cfg).unwrap();
        assert_differential(&session, &source, anc);

        // Cycle round: a back edge, then a cut that must rederive
        // through the cycle (the classic DRed stress case).
        let back = UpdateBatch {
            inserts: vec![(edge, ituple![12, 3])],
            deletes: vec![],
        };
        session.apply(&back, &t, &cfg).unwrap();
        assert_differential(&session, &source, anc);
        let through = UpdateBatch {
            inserts: vec![],
            deletes: vec![(edge, ituple![6, 7])],
        };
        session.apply(&through, &t, &cfg).unwrap();
        assert_differential(&session, &source, anc);
        assert_eq!(session.rounds(), 6);
    }

    #[test]
    fn deleting_absent_tuples_is_a_no_op_round() {
        let (mut session, source, anc, edge) = tc_session(&chain(6));
        let t = ThreadedTransport;
        let cfg = RuntimeConfig::default();
        session.initialize(&t, &cfg).unwrap();
        let before = session.answer(anc);
        let phantom = UpdateBatch {
            inserts: vec![],
            deletes: vec![(edge, ituple![99, 100])],
        };
        let r = session.apply(&phantom, &t, &cfg).unwrap();
        assert_eq!(r.deleted_base, 0);
        assert!(r.phase_a.is_none() && r.phase_b.is_none());
        assert!(session.answer(anc).set_eq(&before));
        assert_differential(&session, &source, anc);
    }

    #[test]
    fn session_rejects_misuse() {
        let (mut session, _source, anc, edge) = tc_session(&chain(4));
        let t = ThreadedTransport;
        let cfg = RuntimeConfig::default();
        let batch = UpdateBatch {
            inserts: vec![(edge, ituple![4, 5])],
            deletes: vec![],
        };
        assert!(session.apply(&batch, &t, &cfg).is_err(), "apply before initialize");
        session.initialize(&t, &cfg).unwrap();
        assert!(session.initialize(&t, &cfg).is_err(), "double initialize");
        let derived = UpdateBatch {
            inserts: vec![(anc, ituple![0, 1])],
            deletes: vec![],
        };
        assert!(session.apply(&derived, &t, &cfg).is_err(), "derived predicates are not updatable");
    }

    #[test]
    fn update_rounds_match_recompute_under_simulation() {
        for seed in [11, 42, 1999] {
            let (mut session, source, anc, edge) = tc_session(&chain(8));
            let cfg = RuntimeConfig::default();
            session.initialize(&SimTransport::new(seed), &cfg).unwrap();
            assert_differential(&session, &source, anc);
            let batch = UpdateBatch {
                inserts: vec![(edge, ituple![8, 9]), (edge, ituple![9, 2])],
                deletes: vec![(edge, ituple![3, 4])],
            };
            session.apply(&batch, &SimTransport::new(seed ^ 0xa5), &cfg).unwrap();
            assert_differential(&session, &source, anc);
            let batch2 = UpdateBatch {
                inserts: vec![(edge, ituple![3, 4])],
                deletes: vec![(edge, ituple![9, 2]), (edge, ituple![0, 1])],
            };
            session.apply(&batch2, &SimTransport::new(seed ^ 0x5a), &cfg).unwrap();
            assert_differential(&session, &source, anc);
        }
    }

    #[test]
    fn nonlinear_ancestor_survives_update_rounds() {
        let fx = nonlinear_ancestor();
        let edges = random_digraph(12, 24, 7);
        let db = fx.database(&edges);
        let h: DiscriminatorRef = Arc::new(HashMod::new(3, 13));
        let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
        let scheme =
            rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
        let mut session = UpdateSession::new(&scheme, &fx.program, &db).unwrap();
        let t = ThreadedTransport;
        let cfg = RuntimeConfig::default();
        let (anc, edge) = (fx.output_id(), fx.input_id(0));
        session.initialize(&t, &cfg).unwrap();
        assert_differential(&session, &fx.program, anc);

        // Delete three real edges, then re-insert two of them.
        let victims: Vec<Tuple> = edges.iter().take(3).cloned().collect();
        let cut = UpdateBatch {
            inserts: vec![],
            deletes: victims.iter().map(|v| (edge, v.clone())).collect(),
        };
        let r = session.apply(&cut, &t, &cfg).unwrap();
        assert_eq!(r.deleted_base, 3);
        assert_differential(&session, &fx.program, anc);
        let heal = UpdateBatch {
            inserts: victims.iter().take(2).map(|v| (edge, v.clone())).collect(),
            deletes: vec![],
        };
        session.apply(&heal, &t, &cfg).unwrap();
        assert_differential(&session, &fx.program, anc);
    }

}
