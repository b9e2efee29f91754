//! The transport abstraction: how worker state machines get driven and
//! how their envelopes move.
//!
//! The paper's architecture assumes "a processor i in P may communicate
//! with every other processor j" over reliable channels, but deliberately
//! says nothing about *what* a processor is. This module keeps that
//! abstraction honest in code: a [`Transport`] executes a set of
//! [`WorkerSpec`]s to distributed termination and pools the answer, and
//! everything above it (schemes, CLI, experiments) is transport-agnostic.
//!
//! Three implementations exist:
//!
//! * [`ThreadedTransport`] — one OS thread per processor with blocking
//!   queues, supervised for crash recovery; real parallelism, schedule
//!   chosen by the OS;
//! * [`crate::sim::SimTransport`] — all processors interleaved on the
//!   calling thread under a virtual clock, schedule chosen by a seeded
//!   PRNG, with optional fault injection. Same [`crate::worker::WorkerCore`],
//!   adversarial schedules, bit-for-bit reproducible;
//! * [`crate::net::NetCoordinator`] — one OS process per processor over
//!   loopback TCP, every envelope relayed by the coordinator.
//!
//! ## Supervision (crash recovery)
//!
//! The threaded transport runs its supervisor loop on the coordinating
//! thread. Every worker thread reports when it goes passive and how it
//! exits — finished, *fatal* error (spec/arity bug, watchdog expiry:
//! restarting cannot help) or *recoverable* death (panic, injected
//! fail-point: the incarnation died, the computation is fine). What to do
//! about each is `supervisor.rs`'s decision; this loop delivers its
//! broadcasts to every queue and spawns the workers it restarts.

use std::collections::hash_map::Entry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use gst_common::{Error, FxHashMap, Result};
use gst_eval::plan::RelationId;
use gst_storage::Relation;

use crate::coordinator::RuntimeConfig;
use crate::message::Envelope;
use crate::obs::{Journal, ObsEvent, ObsKind, TimeBase, TraceSink};
use crate::spec::{Shards, WorkerSpec};
use crate::stats::{ExecutionOutcome, ParallelStats, WorkerReport};
use crate::supervisor::{Action, PassiveReport, Supervisor};
use crate::worker::{finish_core, take_pooled, watchdog_error, Outbox, PooledRelations, Step, WorkerCore};

/// Something that can run a fleet of processor programs to distributed
/// termination and pool the global answer.
pub trait Transport {
    /// Execute one [`WorkerSpec`] per processor and pool the results.
    ///
    /// `specs[i].program.processor` must equal `i` — the link watermarks
    /// and the channel matrix are indexed by position.
    fn execute(&self, specs: Vec<WorkerSpec>, config: &RuntimeConfig) -> Result<ExecutionOutcome>;
}

/// Per answer predicate, how its shards relate.
pub type ShardKinds = FxHashMap<RelationId, Shards>;

/// How final pooling puts each answer predicate's shards together: the one
/// [`Shards`] every processor pooling it declares. A kind is a property of
/// all the shards, so processors that disagree are a typed error — a
/// partition appended to an overlap would be a duplicate row — and so is a
/// replica processor 0, the one copy taken, does not pool.
pub fn shard_kinds(specs: &[WorkerSpec]) -> Result<ShardKinds> {
    let mut kinds = ShardKinds::default();
    for spec in specs {
        for &(_, global, shards) in &spec.program.pooling {
            let known = *kinds.entry(global).or_insert(shards);
            let untaken = shards == Shards::Replica && specs[0].program.pooling.iter().all(|p| p.1 != global);
            if known != shards || untaken {
                let (i, name) = (spec.program.processor, spec.program.program.interner.resolve(global.0));
                let clash = if untaken { "processor 0 pools none".into() } else { format!("an earlier processor as {known:?}") };
                return Err(Error::Runtime(format!("processor {i} pools {name}/{} as {shards:?}, {clash}", global.1)));
            }
        }
    }
    Ok(kinds)
}

/// Shared spec validation, before any worker starts: positions match
/// processor ids, every pooled relation is one the processor holds, and
/// every route delivers to a processor that exists, into an inbox that
/// processor declares, of the routed predicate's arity — a misroute is a
/// typed error here, not an inject failure inside a worker one step
/// later, and a mis-declared pooling pair not a silently empty answer.
/// `Ok` is [`shard_kinds`]: what [`pool_into`] is to do with each answer.
pub(crate) fn validate_specs(specs: &[WorkerSpec]) -> Result<ShardKinds> {
    if specs.is_empty() {
        return Err(Error::Runtime("no processors to execute".into()));
    }
    for (i, spec) in specs.iter().enumerate() {
        if spec.program.processor != i {
            return Err(Error::Runtime(format!(
                "worker at position {i} claims processor {}",
                spec.program.processor
            )));
        }
        spec.program.check_pooling()?;
        for route in &spec.program.routes {
            let interner = &spec.program.program.interner;
            let source = route.source_id();
            for &(dest, inbox) in &route.dests {
                let name = interner.resolve(inbox.0);
                let why = match specs.get(dest) {
                    None => "which does not exist".to_string(),
                    Some(peer) if !peer.program.inboxes.contains(&inbox) => {
                        format!("which declares no inbox {name}/{}", inbox.1)
                    }
                    Some(_) if inbox.1 != source.1 => format!("whose inbox {name} has arity {}", inbox.1),
                    Some(_) => continue,
                };
                return Err(Error::Runtime(format!(
                    "processor {i} routes {}/{} to processor {dest}, {why}",
                    interner.resolve(source.0),
                    source.1
                )));
            }
        }
    }
    shard_kinds(specs)
}

/// Put one worker's pooled relations into the global answer. The first
/// shard per predicate arrives by move (no per-tuple cost); a later one as
/// the predicate's entry in `kinds` says — appended, dropped, or unioned.
pub(crate) fn pool_into(
    relations: &mut FxHashMap<RelationId, Relation>,
    kinds: &ShardKinds,
    pooled: PooledRelations,
) -> Result<()> {
    for (global, rel) in pooled {
        match (relations.entry(global), kinds.get(&global).copied().unwrap_or(Shards::Overlap)) {
            (Entry::Vacant(slot), _) => {
                slot.insert(rel);
            }
            (Entry::Occupied(_), Shards::Replica) => {}
            (Entry::Occupied(mut slot), Shards::Partition) => {
                slot.get_mut().append_disjoint(rel)?;
            }
            (Entry::Occupied(mut slot), Shards::Overlap) => {
                slot.get_mut().absorb_owned(rel)?;
            }
        }
    }
    Ok(())
}

/// What a finished worker hands back: its report, its share of the
/// pooled answer, and its journal buffer.
pub(crate) type WorkerResult = (WorkerReport, PooledRelations, Vec<ObsEvent>);

/// Assemble the final outcome from per-worker results (shared by all
/// transports). Worker journal buffers travel with their reports and are
/// merged — in processor order, after the transport's own events — into
/// one time-sorted [`Journal`]. `kinds` is what [`validate_specs`] gave.
pub(crate) fn assemble_outcome(
    results: Vec<WorkerResult>,
    kinds: &ShardKinds,
    wall_time: std::time::Duration,
    restarts: u64,
    base: TimeBase,
    transport_events: Vec<ObsEvent>,
) -> Result<ExecutionOutcome> {
    let mut reports: Vec<WorkerReport> = Vec::with_capacity(results.len());
    let mut relations: FxHashMap<RelationId, Relation> = FxHashMap::default();
    let mut buffers: Vec<(usize, Vec<ObsEvent>)> = Vec::with_capacity(results.len());
    let pooling = Instant::now();
    for (report, pooled, events) in results {
        pool_into(&mut relations, kinds, pooled)?;
        buffers.push((report.processor, events));
        reports.push(report);
    }
    let pooling_time = pooling.elapsed();
    reports.sort_by_key(|r| r.processor);
    // Deterministic tie-breaking for the stable time sort: worker buffers
    // concatenate in processor order.
    buffers.sort_by_key(|(processor, _)| *processor);
    let journal = Journal::assemble(
        base,
        transport_events,
        buffers.into_iter().map(|(_, events)| events).collect(),
    );
    let channel_matrix: Vec<Vec<u64>> = reports.iter().map(|r| r.sent_tuples_to.clone()).collect();
    Ok(ExecutionOutcome {
        relations,
        stats: ParallelStats {
            workers: reports,
            channel_matrix,
            restarts,
            reconnects: 0,
            relay_bytes: 0,
            wall_time,
            pooling_time,
        },
        journal,
    })
}

/// True when no tuple can cross between processors: every destination of
/// every route is the processor that owns the route — a single worker,
/// an empty route table, or §6's `h_i(x) = i`, whose routes name only `i`.
pub(crate) fn network_is_silent(specs: &[WorkerSpec]) -> bool {
    let home = |s: &WorkerSpec| s.program.routes.iter().flat_map(|r| &r.dests).all(|&(j, _)| j == s.program.processor);
    specs.iter().all(home)
}

/// Run one spec's local fixpoint with none of the distributed machinery —
/// no queues, no codec, no replay logs, no termination detection. Sound exactly
/// when the network is silent: with nothing to receive and nothing to
/// ship, local quiescence *is* the paper's termination condition, observed
/// directly. A silent worker's routes all end in its own inboxes, which the
/// engine fills as it advances.
fn run_local(spec: &WorkerSpec, n: usize) -> Result<WorkerResult> {
    let t0 = Instant::now();
    // The shared construction path applies any update-session seed, so
    // the N=1 fast path maintains exactly the state a distributed run
    // would.
    let mut engine = spec.build_engine()?;
    engine.run_to_fixpoint()?;
    let pooled = take_pooled(&mut engine, &spec.program);
    let mut report = WorkerReport::new(spec.program.processor, n);
    report.set_eval(engine.stats(), &spec.program.processing_rules);
    report.pooled_tuples = pooled.iter().map(|(_, r)| r.len() as u64).sum();
    report.busy = t0.elapsed();
    Ok((report, pooled, Vec::new()))
}

/// The zero-communication fast path: every worker runs [`run_local`] —
/// inline for a single processor, on scoped threads otherwise.
fn execute_silent(specs: &[WorkerSpec], kinds: &ShardKinds) -> Result<ExecutionOutcome> {
    let n = specs.len();
    let started = Instant::now();
    let results: Vec<WorkerResult> = if n == 1 {
        vec![run_local(&specs[0], n)?]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| scope.spawn(move || run_local(spec, n)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|payload| {
                        Err(Error::Runtime(format!(
                            "worker panicked: {}",
                            panic_message(payload.as_ref())
                        )))
                    })
                })
                .collect::<Result<Vec<WorkerResult>>>()
        })?
    };
    assemble_outcome(results, kinds, started.elapsed(), 0, TimeBase::WallMicros, Vec::new())
}

/// One OS thread per processor, unbounded queues, OS scheduling, a
/// supervisor for crash recovery — the deployment transport.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadedTransport;

/// The hot-swappable channel registry: `registry[i]` is the sender for
/// worker `i`'s *current* incarnation. The supervisor replaces a slot
/// when it restarts a worker; everyone else picks up the new queue on
/// their next send.
type Registry = Arc<Vec<Mutex<Sender<Envelope>>>>;

fn lock(slot: &Mutex<Sender<Envelope>>) -> MutexGuard<'_, Sender<Envelope>> {
    // A sender is never poisoned mid-operation (send returns a Result);
    // recover the guard rather than propagate a panic from another thread.
    slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Enqueue `env` to every worker's current incarnation, holding every
/// slot until the last queue has its copy: a worker that acts on its
/// `Recover` at once cannot get a new-epoch envelope (its `AckSync`, a
/// replayed batch) into a peer's queue ahead of that peer's `Recover`,
/// which the peer would then drop as from a future epoch. Workers lock
/// one slot at a time,
/// so taking them all in index order cannot deadlock. Sends to a worker
/// that already exited fail silently — its receiver is gone, and so is
/// its interest.
fn broadcast(registry: &Registry, env: &Envelope) {
    let slots: Vec<_> = registry.iter().map(lock).collect();
    for tx in &slots {
        let _ = tx.send(env.clone());
    }
}

/// What a worker thread tells the supervisor: that it went passive, or
/// how it ended.
enum Notice {
    /// Went passive: its link watermarks, for termination detection.
    Passive(PassiveReport),
    /// Reached distributed termination.
    Finished(Box<WorkerResult>),
    /// An error restarting cannot cure: the spec, the data, or the fleet
    /// is wrong (arity/codec errors, watchdog expiry, teardown races).
    Fatal(Error),
    /// The incarnation died but the computation is intact (panic or
    /// injected fail-point): a restart plus replay recovers it.
    Recoverable(Error),
}

/// Outbox over the hot-swappable registry, with a line to the supervisor.
struct ThreadOutbox {
    id: usize,
    senders: Registry,
    supervisor: Sender<(usize, Notice)>,
}

impl Outbox for ThreadOutbox {
    fn send(&mut self, to: usize, env: Envelope) -> Result<()> {
        // A send to a dead peer is black-holed rather than failing the
        // sender: if the peer is being restarted, the replay log
        // re-delivers this batch; if the run is aborting, delivery no
        // longer matters. The supervisor owns failure handling.
        let _ = lock(&self.senders[to]).send(env);
        Ok(())
    }

    fn report(&mut self, report: PassiveReport) -> Result<()> {
        // The supervisor outlives every worker; a failed send means it is
        // already unwinding.
        let _ = self.supervisor.send((self.id, Notice::Passive(report)));
        Ok(())
    }
}

/// The per-thread driver: drain the queue, step the core, block on the
/// queue when idle — every wake-up cause (batch, recover, terminate,
/// abort) is a message on it — for at most what is left of the watchdog,
/// honor the fail-point. `Ok` is the core at distributed termination.
fn run_threaded(
    spec: WorkerSpec,
    mut out: ThreadOutbox,
    rx: Receiver<Envelope>,
    config: RuntimeConfig,
    epoch: u64,
    fail_after: Option<u64>,
    trace_origin: Option<Instant>,
) -> std::result::Result<WorkerCore, Notice> {
    let n = out.senders.len();
    let mut core = WorkerCore::with_epoch(spec, n, epoch).map_err(Notice::Fatal)?;
    if let Some(origin) = trace_origin {
        // All sinks share the run's origin so the tracks line up.
        core.set_sink(TraceSink::wall(core.id(), origin));
    }
    if config.worker.profile {
        core.set_profiler(TimeBase::WallMicros);
    }
    let mut idle_since: Option<Instant> = None;
    let mut steps = 0u64;
    loop {
        if fail_after == Some(steps) {
            return Err(Notice::Recoverable(Error::Runtime(format!(
                "injected fail-point crash at step {steps}"
            ))));
        }
        steps += 1;
        while let Ok(env) = rx.try_recv() {
            core.enqueue(env);
        }
        match core.step(&mut out) {
            Err(e) => return Err(Notice::Fatal(e)),
            Ok(Step::Done) => return Ok(core),
            Ok(Step::Worked) => idle_since = None,
            Ok(Step::Idle) => {
                let since = *idle_since.get_or_insert_with(Instant::now);
                let left = config.worker.idle_watchdog.saturating_sub(since.elapsed());
                if left.is_zero() {
                    return Err(Notice::Fatal(watchdog_error(core.id(), since.elapsed())));
                }
                match rx.recv_timeout(left) {
                    Ok(env) => core.enqueue(env),
                    // One more (idle) step, then the check above fires.
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        // The registry anchor is gone: the coordinator
                        // itself is unwinding. Distinct from the watchdog
                        // (which means a *peer* starved us).
                        return Err(Notice::Fatal(Error::Runtime(format!(
                            "processor {}: peer channels disconnected during teardown",
                            core.id()
                        ))));
                    }
                }
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

impl Transport for ThreadedTransport {
    fn execute(&self, specs: Vec<WorkerSpec>, config: &RuntimeConfig) -> Result<ExecutionOutcome> {
        let kinds = validate_specs(&specs)?;
        // A silent network needs none of the machinery below. Keep the
        // full path when tracing (the journal wants round/termination
        // events), when profiling (phase attribution lives in the worker
        // state machine), or when a fail-point asks for supervised
        // crashes.
        if network_is_silent(&specs)
            && !config.trace
            && !config.worker.profile
            && config.supervisor.fail_point.is_none()
        {
            return execute_silent(&specs, &kinds);
        }
        let n = specs.len();
        let mut slots = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Envelope>();
            slots.push(Mutex::new(tx));
            receivers.push(rx);
        }
        let registry: Registry = Arc::new(slots);
        // The registry doubles as the coordinator's sender anchor: a
        // worker blocked in recv_timeout sees Timeout (not Disconnected)
        // for as long as the supervisor lives.
        let (notice_tx, notice_rx) = channel::<(usize, Notice)>();

        let started = Instant::now();
        let trace_origin = config.trace.then_some(started);
        std::thread::scope(|scope| {
            let spawn_worker =
                |id: usize, rx: Receiver<Envelope>, epoch: u64, fail_after: Option<u64>| {
                    let spec = specs[id].clone();
                    let out = ThreadOutbox { id, senders: registry.clone(), supervisor: notice_tx.clone() };
                    let notice_tx = notice_tx.clone();
                    let config = config.clone();
                    scope.spawn(move || {
                        // The report goes out first; the core — arenas,
                        // indexes, replay logs — is freed after it, while
                        // the supervisor already pools.
                        let mut core = None;
                        let exit = catch_unwind(AssertUnwindSafe(|| {
                            match run_threaded(spec, out, rx, config, epoch, fail_after, trace_origin) {
                                Ok(done) => Notice::Finished(Box::new(finish_core(core.insert(done)))),
                                Err(exit) => exit,
                            }
                        }))
                        .unwrap_or_else(|payload| {
                            Notice::Recoverable(Error::Runtime(format!(
                                "worker panicked: {}",
                                panic_message(payload.as_ref())
                            )))
                        });
                        let _ = notice_tx.send((id, exit));
                    });
                };

            for (id, rx) in receivers.into_iter().enumerate() {
                let fail_after = config
                    .supervisor
                    .fail_point
                    .filter(|f| f.worker == id)
                    .map(|f| f.after_steps);
                spawn_worker(id, rx, 0, fail_after);
            }

            // The supervisor loop: collect reports and exits until every
            // incarnation is accounted for.
            let mut outstanding = n;
            let mut supervisor = Supervisor::new(n, &config.supervisor);
            // Transport-level journal entries (crash/restart): the thread
            // owning a crashed incarnation takes its buffer down with it,
            // so this loop records the lifecycle events itself.
            let mut transport_events: Vec<ObsEvent> = Vec::new();
            while outstanding > 0 {
                let (id, notice) = notice_rx.recv().expect("supervisor retains a notice sender");
                if !matches!(notice, Notice::Passive(_)) {
                    outstanding -= 1;
                }
                let action = match notice {
                    Notice::Passive(report) => supervisor.on_report(id, report),
                    Notice::Finished(result) => {
                        supervisor.on_exit(id, *result);
                        None
                    }
                    Notice::Fatal(e) => supervisor.on_death(id, e, false),
                    Notice::Recoverable(e) => supervisor.on_death(id, e, true),
                };
                match action {
                    None => {}
                    Some(Action::Broadcast(env)) => broadcast(&registry, &env),
                    Some(Action::Restart { worker, epoch, backoff, recover }) => {
                        if config.trace {
                            let now = started.elapsed().as_micros() as u64;
                            for kind in [ObsKind::Crashed, ObsKind::Restarted { epoch }] {
                                transport_events.push(ObsEvent { time: now, worker, kind });
                            }
                        }
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                        let (tx, rx) = channel::<Envelope>();
                        *lock(&registry[worker]) = tx;
                        // Broadcast *before* spawning: the Recover lands in
                        // every queue (including the fresh one) ahead of
                        // anything the new incarnation can send, so no
                        // worker sees epoch-`epoch` traffic before it has
                        // repaired into that epoch.
                        broadcast(&registry, &recover);
                        spawn_worker(worker, rx, epoch, None);
                        outstanding += 1;
                    }
                }
            }
            // Pooled inside the scope: the worker threads are joined when
            // it ends, and until then they are still freeing their cores.
            supervisor.outcome(&kinds, started.elapsed(), TimeBase::WallMicros, transport_events)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::lone_worker;

    #[test]
    fn silence_is_every_route_ending_at_its_owner() {
        assert!(network_is_silent(&[lone_worker().0]));
        let (mut pair, _) = crate::fixtures::pipeline();
        assert!(!network_is_silent(&pair));
        pair[0].program.routes.clear();
        assert!(network_is_silent(&pair));
    }

    /// A misroute is rejected before any worker starts, with the
    /// processor, predicate and destination named.
    #[test]
    fn misroutes_are_rejected_up_front() {
        let (mut specs, answer) = crate::fixtures::pipeline();
        let interner = specs[0].program.program.interner.clone();
        let wide = (interner.intern("wide"), 2);
        specs[1].program.inboxes.push(wide);
        let inbox = specs[0].program.routes[0].dests[0].1;
        let err = |dest: (usize, RelationId)| {
            let mut specs = specs.clone();
            specs[0].program.routes[0].dests = vec![dest];
            validate_specs(&specs).unwrap_err().to_string()
        };
        let e = err((2, inbox));
        assert!(e.contains("processor 0 routes out0/1 to processor 2, which does not exist"), "{e}");
        let e = err((1, (interner.intern("nowhere"), 1)));
        assert!(e.contains("to processor 1, which declares no inbox nowhere/1"), "{e}");
        let e = err((1, wide));
        assert!(e.contains("whose inbox wide has arity 2"), "{e}");

        // Nor is a pooling pair the engine would find nothing under, or
        // one that changes arity on the way into the answer.
        let pools = |local: RelationId| {
            let mut specs = specs.clone();
            specs[1].program.pooling[0].0 = local;
            validate_specs(&specs).unwrap_err().to_string()
        };
        let e = pools((interner.intern("nowhere"), 1));
        assert!(e.contains("processor 1 pools nowhere/1, which it neither derives nor declares"), "{e}");
        let e = pools(wide);
        assert!(e.contains("processor 1 pools wide/2, into answer/1"), "{e}");
        let kinds = validate_specs(&specs).expect("an inbox may be pooled");
        assert_eq!(kinds.into_iter().collect::<Vec<_>>(), [(answer, Shards::Overlap)]);
        // A kind is the predicate's, not a processor's: two that disagree
        // would append to a union. And a replica only processor 1
        // declares would be taken from nobody.
        specs[1].program.pooling[0].2 = Shards::Replica;
        let e = validate_specs(&specs).unwrap_err().to_string();
        assert!(e.contains("processor 1 pools answer/1 as Replica, an earlier processor as Overlap"), "{e}");
        specs[0].program.pooling.clear();
        let e = validate_specs(&specs).unwrap_err().to_string();
        assert!(e.contains("processor 1 pools answer/1 as Replica, processor 0 pools none"), "{e}");
    }

    /// The zero-communication fast path computes the same least model and
    /// the same stats shape as the full machinery (forced here via
    /// tracing), on the same silent spec.
    #[test]
    fn silent_fast_path_matches_full_machinery() {
        let (spec, answer) = lone_worker();

        let fast = ThreadedTransport
            .execute(vec![spec.clone()], &RuntimeConfig::default())
            .unwrap();
        let traced_cfg = RuntimeConfig {
            trace: true,
            ..Default::default()
        };
        let full = ThreadedTransport.execute(vec![spec], &traced_cfg).unwrap();

        assert!(fast.relation(answer).set_eq(&full.relation(answer)));
        assert_eq!(fast.relation(answer).len(), 5 + 4 + 3 + 2 + 1);
        assert!(fast.stats.communication_free());
        assert!(full.stats.communication_free());
        assert_eq!(fast.stats.workers.len(), 1);
        assert_eq!(fast.stats.channel_matrix, full.stats.channel_matrix);
        assert_eq!(
            fast.stats.workers[0].pooled_tuples,
            full.stats.workers[0].pooled_tuples
        );
        assert_eq!(fast.stats.workers[0].encode_calls, 0, "nothing encoded");
        assert!(
            fast.journal.is_empty(),
            "the fast path records no journal; tracing keeps the full path"
        );
        assert!(!full.journal.is_empty());
    }
}
