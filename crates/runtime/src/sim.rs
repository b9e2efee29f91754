//! Deterministic simulation transport: all processors on one thread,
//! under a virtual clock, with seeded adversarial scheduling and fault
//! injection.
//!
//! The threaded transport leaves scheduling to the OS — every run explores
//! one uncontrollable interleaving. [`SimTransport`] turns the schedule
//! into an *input*: a discrete-event loop pops `(virtual time, tiebreak)`
//! ordered events off a heap, and every nondeterministic choice — which
//! worker steps next, how long a step takes, when a message arrives,
//! whether it is duplicated, delayed or dropped-and-redelivered
//! ([`FaultPlan`]) — is drawn from a [`SmallRng`] seeded by the caller.
//! Identical seed, specs and plan ⇒ identical event sequence, journal,
//! per-worker firing counts and final model, bit for bit. A failing seed
//! from a sweep ([`crate::explore`]) is therefore a complete, replayable
//! bug report.
//!
//! The same [`crate::worker::WorkerCore`] state machine runs here and in
//! the threaded transport; nothing is mocked above the wire. This is the
//! simulation-testing discipline FoundationDB popularized, applied to the
//! paper's architecture: the algorithmic claims (least-model correctness
//! under asynchrony, termination detection, set-semantics idempotence
//! under duplication) are checked under schedules far nastier than an OS will
//! produce in a CI run.
//!
//! Crashes come in two flavors. A plain [`crate::fault::CrashSpec`] kills a
//! worker unobserved, and the run must surface the idle-watchdog error at
//! a healthy peer. With `recover: true` the death is reported to the
//! supervisor (`supervisor.rs`), like a thread's panic or a dead TCP link:
//! a restart it decides happens [`RESTART_DELAY`] ticks later, an abort at
//! once. A passive report reaches the supervisor at the end of the step
//! that made it, and every broadcast it decides — `Terminate`, `Recover`,
//! `Abort` — is delivered in the same tick over a reliable path that
//! bypasses the fault plan, like a supervisor's control channel
//! (`DESIGN.md` §7). So once `Terminate` is decided every worker holds it,
//! and a crash falling due after that is a crash of a terminated worker,
//! which is not injected.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use gst_common::{Error, Result, SmallRng};

use crate::coordinator::RuntimeConfig;
use crate::fault::FaultPlan;
use crate::message::{Envelope, MessageKind};
use crate::obs::{Journal, ObsEvent, ObsKind, TimeBase, TraceSink};
use crate::spec::WorkerSpec;
use crate::stats::ExecutionOutcome;
use crate::supervisor::{Action, PassiveReport, Supervisor};
use crate::transport::{validate_specs, ShardKinds, Transport};
use crate::worker::{finish_core, watchdog_error, Outbox, Step, WorkerCore};

/// Extra virtual ticks a step may cost beyond its base tick — the
/// scheduler's knob for letting workers race past each other.
const STEP_JITTER: u64 = 4;

/// Hard ceiling on processed events: a diverging simulation (which would
/// mean a liveness bug) fails loudly instead of spinning forever.
const MAX_EVENTS: u64 = 20_000_000;

/// Virtual ticks between a recoverable crash and the simulated
/// supervisor's restart of the worker — long enough for in-flight
/// pre-crash traffic to keep racing the recovery broadcast.
const RESTART_DELAY: u64 = 25;

enum EventKind {
    /// Give worker `w` one step.
    Ready(usize),
    /// Hand an envelope to worker `to`.
    Deliver {
        to: usize,
        env: Envelope,
        duplicate: bool,
    },
    /// Kill a worker.
    Crash(usize),
    /// Bring a crashed worker back in `epoch`, then deliver `recover`.
    Restart { worker: usize, epoch: u64, recover: Envelope },
}

struct Event {
    time: u64,
    tiebreak: u64,
    kind: EventKind,
}

// BinaryHeap is a max-heap; invert the comparison for earliest-first.
// `tiebreak` is unique per event, giving a total (hence deterministic)
// order.
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.tiebreak) == (other.time, other.tiebreak)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.tiebreak).cmp(&(self.time, self.tiebreak))
    }
}

/// Outbox that collects a step's sends for the event loop to route, and
/// its report for the event loop to supervise.
#[derive(Default)]
pub(crate) struct SimOutbox {
    pub(crate) sends: Vec<(usize, Envelope)>,
    pub(crate) reports: Vec<PassiveReport>,
}

impl Outbox for SimOutbox {
    fn send(&mut self, to: usize, env: Envelope) -> Result<()> {
        self.sends.push((to, env));
        Ok(())
    }

    fn report(&mut self, report: PassiveReport) -> Result<()> {
        self.reports.push(report);
        Ok(())
    }
}

/// A core in recovery epoch `epoch` with the config's knobs applied.
/// Sinks and profilers run on the virtual clock: the journal carries only
/// ticks and counters and profile durations are deterministic work
/// proxies, so same-seed runs are bit-identical in both.
fn new_core(spec: WorkerSpec, n: usize, epoch: u64, config: &RuntimeConfig) -> Result<WorkerCore> {
    let mut core = WorkerCore::with_epoch(spec, n, epoch)?;
    if config.trace {
        core.set_sink(TraceSink::virtual_clock(core.id()));
    }
    if config.worker.profile {
        core.set_profiler(TimeBase::VirtualTicks);
    }
    Ok(core)
}

/// The single-threaded, virtual-clock transport.
#[derive(Debug, Clone)]
pub struct SimTransport {
    /// Seed for every scheduling and fault decision.
    pub seed: u64,
    /// The misbehavior distribution.
    pub faults: FaultPlan,
}

impl SimTransport {
    /// A simulator with a perfect network.
    pub fn new(seed: u64) -> Self {
        SimTransport {
            seed,
            faults: FaultPlan::none(),
        }
    }

    /// A simulator drawing faults from `plan`.
    pub fn with_faults(seed: u64, plan: FaultPlan) -> Self {
        SimTransport { seed, faults: plan }
    }

    /// Run the fleet with tracing forced on, returning the outcome together
    /// with the journal. A failed run still yields its journal — every
    /// delivery, stall and crash up to the failure, plus what each worker
    /// had recorded — which is the replayable evidence
    /// [`crate::explore::shrink_failure`] reports.
    pub fn run_traced(
        &self,
        specs: Vec<WorkerSpec>,
        config: &RuntimeConfig,
    ) -> (Result<ExecutionOutcome>, Journal) {
        let config = RuntimeConfig {
            trace: true,
            ..config.clone()
        };
        let (result, journal) = self.run(specs, &config);
        let result = result.map(|mut outcome| {
            outcome.journal = journal.clone();
            outcome
        });
        (result, journal)
    }

    /// Run the fleet. The journal comes back beside the result (not inside
    /// the outcome) so that it survives a failed run; it is empty unless
    /// `config.trace` is set.
    fn run(
        &self,
        specs: Vec<WorkerSpec>,
        config: &RuntimeConfig,
    ) -> (Result<ExecutionOutcome>, Journal) {
        let started = Instant::now();
        // A recoverable crash rebuilds the dead worker from its spec, so
        // retain a copy (the cores consume the originals).
        let retained: Option<Vec<WorkerSpec>> = self
            .faults
            .crash
            .is_some_and(|c| c.recover)
            .then(|| specs.clone());
        let (kinds, mut cores) = match self.build_cores(specs, config) {
            Ok(built) => built,
            Err(e) => return (Err(e), Journal::default()),
        };
        // Transport-level journal entries (deliveries, stalls, crashes,
        // restarts) plus the buffer salvaged from a crashed incarnation;
        // worker steps are journaled as rounds and idles by the workers'
        // own sinks.
        let mut events: Vec<ObsEvent> = Vec::new();
        let mut supervisor = Supervisor::new(cores.len(), &config.supervisor);
        let driven = self.drive(&mut cores, &mut supervisor, retained.as_deref(), config, &mut events);
        let journal = Journal::assemble(
            TimeBase::VirtualTicks,
            events,
            cores.iter_mut().map(WorkerCore::take_trace_events).collect(),
        );
        let result = driven.and_then(|()| {
            for core in cores.iter_mut().filter(|c| c.terminated()) {
                supervisor.on_exit(core.id(), finish_core(core));
            }
            supervisor.outcome(&kinds, started.elapsed(), TimeBase::VirtualTicks, Vec::new())
        });
        (result, journal)
    }

    /// Validate the fleet — `Ok` leads with what the validation found, how
    /// each answer's shards pool — and build one core per spec.
    fn build_cores(
        &self,
        specs: Vec<WorkerSpec>,
        config: &RuntimeConfig,
    ) -> Result<(ShardKinds, Vec<WorkerCore>)> {
        let kinds = validate_specs(&specs)?;
        if let Some(crash) = self.faults.crash {
            if crash.worker >= specs.len() {
                return Err(gst_common::Error::Runtime(format!(
                    "fault plan crashes nonexistent processor {}",
                    crash.worker
                )));
            }
        }
        let n = specs.len();
        let cores = specs.into_iter().map(|spec| new_core(spec, n, 0, config));
        Ok((kinds, cores.collect::<Result<_>>()?))
    }

    /// The discrete-event loop: step and deliver until every worker
    /// terminated or the queue ran dry, telling `supervisor` what happens
    /// and carrying out what it decides.
    fn drive(
        &self,
        cores: &mut [WorkerCore],
        supervisor: &mut Supervisor,
        retained: Option<&[WorkerSpec]>,
        config: &RuntimeConfig,
        events: &mut Vec<ObsEvent>,
    ) -> Result<()> {
        let n = cores.len();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let record = |events: &mut Vec<ObsEvent>, time: u64, worker: usize, kind: ObsKind| {
            if config.trace {
                events.push(ObsEvent { time, worker, kind });
            }
        };

        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut tiebreak = 0u64;
        let mut push = |heap: &mut BinaryHeap<Event>, time: u64, kind: EventKind| {
            heap.push(Event {
                time,
                tiebreak,
                kind,
            });
            tiebreak += 1;
        };
        // A supervisor broadcast reaches every worker in the tick it is
        // decided, bypassing the fault plan. It is pushed ahead of anything
        // a worker sends in reply, so every queue holds it first.
        let broadcast = |push: &mut dyn FnMut(&mut BinaryHeap<Event>, u64, EventKind),
                         heap: &mut BinaryHeap<Event>,
                         now: u64,
                         env: Envelope| {
            for to in 0..n {
                push(heap, now, EventKind::Deliver { to, env: env.clone(), duplicate: false });
            }
        };

        let mut ready_pending = vec![false; n];
        let mut crashed = vec![false; n];
        // Random initial offsets: even the first step order is part of the
        // explored schedule space.
        for (w, pending) in ready_pending.iter_mut().enumerate() {
            let at = rng.gen_below(STEP_JITTER + 1);
            *pending = true;
            push(&mut heap, at, EventKind::Ready(w));
        }
        if let Some(crash) = self.faults.crash {
            push(&mut heap, crash.at_time, EventKind::Crash(crash.worker));
        }

        let mut now = 0u64;
        let mut processed = 0u64;
        while let Some(event) = heap.pop() {
            debug_assert!(event.time >= now, "virtual time went backwards");
            now = event.time;
            processed += 1;
            if processed > MAX_EVENTS {
                return Err(Error::Runtime(
                    "simulation exceeded its event budget (liveness bug?)".into(),
                ));
            }
            match event.kind {
                EventKind::Ready(w) => {
                    ready_pending[w] = false;
                    if crashed[w] || cores[w].terminated() {
                        continue;
                    }
                    cores[w].set_trace_now(now);
                    let mut out = SimOutbox::default();
                    let step = cores[w].step(&mut out)?;
                    for (to, env) in out.sends {
                        self.route(&mut rng, &mut push, &mut heap, now, to, env);
                    }
                    if let Some(report) = out.reports.pop() {
                        if let Some(Action::Broadcast(env)) = supervisor.on_report(w, report) {
                            broadcast(&mut push, &mut heap, now, env);
                        }
                    }
                    if step == Step::Worked {
                        let mut at = now + 1 + rng.gen_below(STEP_JITTER);
                        if self.faults.stall_ticks > 0
                            && rng.gen_bool(self.faults.stall_prob)
                        {
                            at += self.faults.stall_ticks;
                            record(events, now, w, ObsKind::Stalled { until: at });
                        }
                        ready_pending[w] = true;
                        push(&mut heap, at, EventKind::Ready(w));
                    }
                    // Idle: sleep until a delivery; Done: out of the game.
                }
                EventKind::Deliver { to, env, duplicate } => {
                    if crashed[to] {
                        continue; // a dead worker black-holes its queue
                    }
                    record(
                        events,
                        now,
                        to,
                        ObsKind::Delivered {
                            from: env.from,
                            kind: env.message.kind(),
                            seq: env.seq,
                            duplicate,
                        },
                    );
                    if cores[to].terminated() {
                        continue; // late duplicate after termination
                    }
                    cores[to].enqueue(env);
                    if !ready_pending[to] {
                        ready_pending[to] = true;
                        push(&mut heap, now, EventKind::Ready(to));
                    }
                }
                // Every worker holds a decided `Terminate`: not injected.
                EventKind::Crash(w) if cores[w].terminated() || supervisor.terminating() => {}
                EventKind::Crash(w) => {
                    crashed[w] = true;
                    record(events, now, w, ObsKind::Crashed);
                    if !self.faults.crash.is_some_and(|c| c.recover) {
                        supervisor.forget(w);
                        continue;
                    }
                    let error = Error::Runtime(format!("injected crash of processor {w} at virtual time {now}"));
                    match supervisor.on_death(w, error, true) {
                        Some(Action::Restart { worker, epoch, recover, .. }) => {
                            push(&mut heap, now + RESTART_DELAY, EventKind::Restart { worker, epoch, recover });
                        }
                        Some(Action::Broadcast(env)) => broadcast(&mut push, &mut heap, now, env),
                        None => {}
                    }
                }
                EventKind::Restart { worker: w, epoch, recover } => {
                    let specs = retained.expect("restart without retained specs");
                    record(events, now, w, ObsKind::Restarted { epoch });
                    // The crashed incarnation's partial profile dies with
                    // it (as its stats do); its journal buffer is salvaged
                    // before the replacement drops it. All of it predates
                    // the restart, so the journal's time sort files it
                    // ahead of whatever is recorded from here on.
                    events.extend(cores[w].take_trace_events());
                    cores[w] = new_core(specs[w].clone(), n, epoch, config)?;
                    cores[w].set_trace_now(now);
                    crashed[w] = false;
                    // The fresh incarnation's own sends can only leave
                    // after its first Ready, at a strictly later tiebreak.
                    broadcast(&mut push, &mut heap, now, recover);
                }
            }
            if cores.iter().all(WorkerCore::terminated) {
                break;
            }
        }

        // The queue ran dry. If a healthy worker never terminated, the
        // fleet starved — exactly the condition the threaded transport's
        // idle watchdog reports (a crashed fleet must error, not hang).
        if let Some(w) = cores
            .iter()
            .position(|c| !c.terminated() && !crashed[c.id()])
        {
            return Err(watchdog_error(w, format!("virtual time {now}")));
        }
        Ok(())
    }

    /// Route one send through the fault plan, scheduling delivery events.
    fn route(
        &self,
        rng: &mut SmallRng,
        push: &mut impl FnMut(&mut BinaryHeap<Event>, u64, EventKind),
        heap: &mut BinaryHeap<Event>,
        now: u64,
        to: usize,
        env: Envelope,
    ) {
        let plan = &self.faults;
        let mut delay = rng.gen_inclusive(plan.min_delay, plan.max_delay);
        // Control traffic (the recovery handshake and its snapshots) is
        // exempt from duplication and loss: only batches carry the link
        // sequence numbers a receiver dedups by, and a real transport
        // keeps control messages reliable via acks. Delay (and therefore
        // reordering against batches) still applies.
        if env.message.kind() == MessageKind::Batch {
            if rng.gen_bool(plan.drop_prob) {
                // Loss with guaranteed redelivery: the retransmit pays the
                // redelivery penalty on top of the original draw.
                delay += plan.drop_redeliver_after;
            }
            if rng.gen_bool(plan.dup_prob) {
                let dup_delay = rng.gen_inclusive(plan.min_delay, plan.max_delay);
                push(
                    heap,
                    now + dup_delay,
                    EventKind::Deliver {
                        to,
                        env: env.clone(),
                        duplicate: true,
                    },
                );
            }
        }
        push(
            heap,
            now + delay,
            EventKind::Deliver {
                to,
                env,
                duplicate: false,
            },
        );
    }
}

impl Transport for SimTransport {
    fn execute(&self, specs: Vec<WorkerSpec>, config: &RuntimeConfig) -> Result<ExecutionOutcome> {
        let (result, journal) = self.run(specs, config);
        result.map(|mut outcome| {
            outcome.journal = journal;
            outcome
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_matches_threaded_semantics() {
        let (specs, answer) = crate::fixtures::chain_fleet(2, 6);
        let threaded = crate::transport::ThreadedTransport
            .execute(specs.clone(), &RuntimeConfig::default())
            .unwrap();
        let sim = SimTransport::new(7)
            .execute(specs, &RuntimeConfig::default())
            .unwrap();
        assert!(sim.relation(answer).set_eq(&threaded.relation(answer)));
        assert!(!sim.relation(answer).is_empty());
        assert_eq!(
            sim.stats.total_tuples_sent(),
            threaded.stats.total_tuples_sent(),
            "delta shipping sends each tuple once in both transports"
        );
    }

    #[test]
    fn same_seed_is_bit_for_bit_reproducible() {
        let (specs, answer) = crate::fixtures::chain_fleet(2, 6);
        let sim = SimTransport::with_faults(99, FaultPlan::chaos());
        let (a, ja) = sim.run_traced(specs.clone(), &RuntimeConfig::default());
        let (b, jb) = sim.run_traced(specs, &RuntimeConfig::default());
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(!ja.is_empty());
        assert_eq!(ja, jb, "identical journal, event for event");
        assert_eq!(a.journal, ja, "a successful run carries the same journal");
        assert!(a.relation(answer).set_eq(&b.relation(answer)));
        for (wa, wb) in a.stats.workers.iter().zip(&b.stats.workers) {
            assert_eq!(wa.eval.firings, wb.eval.firings);
            assert_eq!(wa.sent_tuples_to, wb.sent_tuples_to);
            assert_eq!(wa.duplicate_batches, wb.duplicate_batches);
        }
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let (specs, _) = crate::fixtures::chain_fleet(2, 6);
        let sim_a = SimTransport::with_faults(1, FaultPlan::jitter());
        let sim_b = SimTransport::with_faults(2, FaultPlan::jitter());
        let (_, ja) = sim_a.run_traced(specs.clone(), &RuntimeConfig::default());
        let (_, jb) = sim_b.run_traced(specs, &RuntimeConfig::default());
        assert_ne!(ja, jb, "seeds should yield distinct schedules");
    }

    #[test]
    fn faults_do_not_change_the_least_model() {
        let (specs, answer) = crate::fixtures::chain_fleet(2, 6);
        let clean = SimTransport::new(0)
            .execute(specs.clone(), &RuntimeConfig::default())
            .unwrap();
        for seed in 0..8 {
            let chaotic = SimTransport::with_faults(seed, FaultPlan::chaos())
                .execute(specs.clone(), &RuntimeConfig::default())
                .unwrap();
            assert!(
                chaotic.relation(answer).set_eq(&clean.relation(answer)),
                "seed {seed} diverged under faults"
            );
        }
    }

    #[test]
    fn duplicates_are_observed_and_absorbed() {
        let (specs, _) = crate::fixtures::chain_fleet(2, 6);
        let plan = FaultPlan {
            dup_prob: 1.0,
            ..FaultPlan::jitter()
        };
        let (outcome, journal) =
            SimTransport::with_faults(5, plan).run_traced(specs, &RuntimeConfig::default());
        let outcome = outcome.unwrap();
        let duplicated = journal
            .events
            .iter()
            .filter(|e| matches!(e.kind, ObsKind::Delivered { duplicate: true, .. }))
            .count();
        assert!(duplicated > 0, "every batch should be duplicated");
        let absorbed: u64 = outcome.stats.workers.iter().map(|w| w.duplicate_batches).sum();
        assert!(absorbed > 0, "workers must see (and dedup) duplicates");
    }

    #[test]
    fn crash_surfaces_watchdog_error_not_hang() {
        let (specs, _) = crate::fixtures::chain_fleet(2, 6);
        // Kill worker 1 early, before the fixpoint can complete.
        let sim = SimTransport::with_faults(3, FaultPlan::with_crash(1, 2));
        let (result, journal) = sim.run_traced(specs.clone(), &RuntimeConfig::default());
        let err = result.unwrap_err().to_string();
        assert!(err.contains("idle"), "want the watchdog error, got: {err}");
        // The failed run still hands back its journal: the crash, and what
        // the survivor did before starving.
        assert!(journal
            .events
            .iter()
            .any(|e| e.worker == 1 && e.kind == ObsKind::Crashed));
        assert!(journal.worker_events(0).any(|e| e.kind == ObsKind::IdleWait));
        journal.validate().expect("a failed run's journal is well-formed");
        // Untraced, the same failure records nothing.
        let (result, journal) = sim.run(specs, &RuntimeConfig::default());
        assert!(result.is_err());
        assert!(journal.is_empty());
    }

    #[test]
    fn recoverable_crash_reaches_the_same_least_model() {
        let (specs, answer) = crate::fixtures::chain_fleet(2, 6);
        let clean = SimTransport::new(0)
            .execute(specs.clone(), &RuntimeConfig::default())
            .unwrap();
        // Crash mid-run (t=60): traffic has already flowed, so recovery
        // must actually replay, not just restart.
        let sim = SimTransport::with_faults(3, FaultPlan::with_recovering_crash(1, 60));
        let (result, journal) = sim.run_traced(specs, &RuntimeConfig::default());
        let outcome = result.expect("recovering crash must not fail the run");
        assert_eq!(outcome.stats.restarts, 1, "exactly one restart");
        assert!(
            journal
                .events
                .iter()
                .any(|e| e.worker == 1 && e.kind == ObsKind::Restarted { epoch: 1 }),
            "journal should record the restart"
        );
        assert!(outcome.relation(answer).set_eq(&clean.relation(answer)));
        assert!(!outcome.relation(answer).is_empty());
        assert!(
            outcome.stats.total_replayed_batches() > 0,
            "recovery must replay the lost traffic"
        );
    }

    #[test]
    fn recoverable_crash_without_budget_fails_fast() {
        let (specs, _) = crate::fixtures::chain_fleet(2, 6);
        let mut config = RuntimeConfig::default();
        config.supervisor.max_restarts = 0;
        let sim = SimTransport::with_faults(3, FaultPlan::with_recovering_crash(1, 2));
        let (result, journal) = sim.run_traced(specs, &config);
        let err = result.unwrap_err().to_string();
        let crash = "injected crash of processor 1 at virtual time 2";
        assert!(err.contains(crash), "want the supervisor's abort naming the crash, got: {err}");
        assert!(
            !journal.events.iter().any(|e| matches!(e.kind, ObsKind::Restarted { .. })),
            "no budget, no restart"
        );
    }

    /// `Terminate` reaches every worker in the tick it is decided, so a
    /// crash falling due in that tick — after the decision — is a crash of
    /// a terminated worker: it is not injected, recoverable or not, and
    /// the run pools every worker's answer.
    #[test]
    fn a_crash_due_after_the_decision_is_not_injected() {
        // Empty fragments: every worker goes passive in its first step, so
        // the last first step decides, at a tick the crash event sorts
        // after.
        let (specs, _) = crate::fixtures::chain_fleet(3, 0);
        let config = RuntimeConfig::default();
        let (clean, journal) = SimTransport::new(4).run_traced(specs.clone(), &config);
        clean.unwrap();
        let decided = journal
            .events
            .iter()
            .find(|e| matches!(e.kind, ObsKind::Delivered { kind: MessageKind::Terminate, .. }))
            .expect("a Terminate delivery")
            .time;
        assert!(decided <= STEP_JITTER, "decided by a first step, at tick {decided}");
        for worker in 0..3 {
            for recover in [false, true] {
                let crash = crate::fault::CrashSpec { worker, at_time: decided, recover };
                let plan = FaultPlan { crash: Some(crash), ..FaultPlan::none() };
                let (result, journal) = SimTransport::with_faults(4, plan).run_traced(specs.clone(), &config);
                let outcome = result.unwrap_or_else(|e| panic!("{crash:?}: {e}"));
                assert!(!journal.events.iter().any(|e| e.kind == ObsKind::Crashed), "{crash:?} was injected");
                assert_eq!((outcome.stats.restarts, outcome.stats.workers.len()), (0, 3));
            }
        }
    }

    #[test]
    fn single_worker_fleet_terminates_in_sim() {
        let (spec, answer) = crate::fixtures::lone_worker();
        let outcome = SimTransport::new(11)
            .execute(vec![spec], &RuntimeConfig::default())
            .unwrap();
        assert_eq!(outcome.relation(answer).len(), 15);
    }
}
