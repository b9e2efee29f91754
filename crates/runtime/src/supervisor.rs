//! Supervision, written once: when a fleet has terminated, when a dead
//! worker restarts, and when a run aborts (`DESIGN.md` §7).
//!
//! Every transport has one supervisor that sees every worker: the
//! threaded supervisor loop, the simulator's event loop and the TCP relay.
//! Each tells a [`Supervisor`] what it observed — a passive report, a
//! death, a finished worker's result — and carries out the [`Action`] it
//! gets back. How a broadcast travels and how a worker is spawned belong
//! to the transport; which of them happens, and when, is decided here:
//!
//! * `Terminate` goes out once [`quiescent`] holds, and never after an
//!   abort;
//! * a recoverable death (panic, injected crash, dead link) within the
//!   worker's restart budget and before `Terminate` restarts the worker in
//!   a new recovery epoch, which voids every report taken before it, after
//!   a backoff that grows with the restarts the worker has used;
//! * any other death aborts the run with its error: a fatal one, one over
//!   budget, or one after `Terminate`, when finished workers answer no
//!   replay request. Deaths after the abort are teardown noise.
//!
//! Termination needs no ring, since one supervisor sees every worker. A
//! worker that goes passive reports its recovery epoch, its per-link
//! batch counters and its per-link receive watermarks ([`PassiveReport`]);
//! both counters already exist for replay. The fleet has terminated — "all
//! processors are idle and all channels are empty" (§3, step 6) — once
//! every latest report is from the current epoch and every link balances.
//! `DESIGN.md` §7 proves that one wave of reports is enough, and shows why
//! the check is per link rather than on totals; the tests below pin both.

use std::time::Duration;

use gst_common::{Error, Result};

use crate::coordinator::SupervisorConfig;
use crate::message::{Envelope, Message};
use crate::obs::{ObsEvent, TimeBase};
use crate::stats::ExecutionOutcome;
use crate::transport::{assemble_outcome, ShardKinds, WorkerResult};

/// What a worker tells its supervisor each time it goes passive with an
/// epoch or a counter that moved since its previous report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PassiveReport {
    /// The recovery epoch the worker is in.
    pub epoch: u64,
    /// `batch_seq[j]`: the batches numbered on the link to `j` (the next
    /// sequence number).
    pub batch_seq: Vec<u64>,
    /// `recv_floor[i]`: every batch from `i` numbered below it has been
    /// absorbed.
    pub recv_floor: Vec<u64>,
}

/// True when the computation has terminated: every worker's latest report
/// (`latest[w]`, `None` before its first) is from `epoch`, and every worker
/// has absorbed every batch every other worker had numbered to it.
fn quiescent(epoch: u64, latest: &[Option<PassiveReport>]) -> bool {
    let current = latest.iter().map(|r| r.as_ref().filter(|r| r.epoch == epoch));
    let Some(reports) = current.collect::<Option<Vec<_>>>() else {
        return false;
    };
    reports.iter().enumerate().all(|(i, from)| {
        reports.iter().enumerate().all(|(j, to)| i == j || to.recv_floor[i] == from.batch_seq[j])
    })
}

/// Pause before a restart, scaled linearly by the worker's restart count
/// (crash-looping workers back off harder).
const RESTART_BACKOFF: Duration = Duration::from_millis(10);

/// What the transport is to do about what it just told the supervisor.
#[derive(Debug, PartialEq)]
pub(crate) enum Action {
    /// Deliver this `Terminate` or `Abort` to every worker.
    Broadcast(Envelope),
    /// Rebuild `worker` from its spec in recovery epoch `epoch` after
    /// `backoff`, and deliver `recover` to every worker — the new
    /// incarnation included — ahead of anything sent in that epoch.
    Restart { worker: usize, epoch: u64, backoff: Duration, recover: Envelope },
}

/// One run's supervision state, and every decision taken on it.
pub(crate) struct Supervisor {
    max_restarts: u32,
    epoch: u64,
    /// Each worker's latest passive report.
    latest: Vec<Option<PassiveReport>>,
    restarts_used: Vec<u32>,
    /// `Terminate` went out: no death is recoverable from here on.
    terminating: bool,
    /// The run aborted with this error, the first death it could not cure.
    error: Option<Error>,
    results: Vec<Option<WorkerResult>>,
}

impl Supervisor {
    pub(crate) fn new(n: usize, config: &SupervisorConfig) -> Self {
        Supervisor {
            max_restarts: config.max_restarts,
            epoch: 0,
            latest: vec![None; n],
            restarts_used: vec![0; n],
            terminating: false,
            error: None,
            results: (0..n).map(|_| None).collect(),
        }
    }

    /// `worker` went passive with `report`: `Terminate` if that settles it.
    pub(crate) fn on_report(&mut self, worker: usize, report: PassiveReport) -> Option<Action> {
        self.latest[worker] = Some(report);
        if self.terminating || self.error.is_some() || !quiescent(self.epoch, &self.latest) {
            return None;
        }
        self.terminating = true;
        Some(Action::Broadcast(Envelope::control(0, self.epoch, Message::Terminate)))
    }

    /// `worker` died of `error`. A `recoverable` death lost the
    /// incarnation, not the computation (panic, injected crash, dead
    /// link): a restart plus replay can cure it. A fatal one means the
    /// spec, the data or the fleet is wrong.
    pub(crate) fn on_death(&mut self, worker: usize, error: Error, recoverable: bool) -> Option<Action> {
        if self.error.is_some() {
            return None;
        }
        let used = &mut self.restarts_used[worker];
        if recoverable && *used < self.max_restarts && !self.terminating {
            *used += 1;
            self.epoch += 1;
            let epoch = self.epoch;
            let recover = Envelope::control(worker, epoch, Message::Recover { epoch, restarted: worker });
            return Some(Action::Restart { worker, epoch, backoff: RESTART_BACKOFF * *used, recover });
        }
        let abort = Envelope::control(worker, self.epoch, Message::Abort { reason: error.to_string() });
        self.error = Some(error);
        Some(Action::Broadcast(abort))
    }

    /// `worker` reached termination and handed back `result`.
    pub(crate) fn on_exit(&mut self, worker: usize, result: WorkerResult) {
        self.results[worker] = Some(result);
    }

    /// `worker` died and no one observed it (the simulator's crash without
    /// `recover`): its report describes state that is gone, so it no longer
    /// counts toward termination, and the fleet starves into the watchdog.
    pub(crate) fn forget(&mut self, worker: usize) {
        self.latest[worker] = None;
    }

    /// The current recovery epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `Terminate` was decided.
    pub(crate) fn terminating(&self) -> bool {
        self.terminating
    }

    /// `worker` handed back its result.
    pub(crate) fn finished(&self, worker: usize) -> bool {
        self.results[worker].is_some()
    }

    /// Nothing is left to wait for: the run aborted, or every worker
    /// handed back its result.
    pub(crate) fn settled(&self) -> bool {
        self.error.is_some() || self.results.iter().all(Option::is_some)
    }

    /// How the run ended: its first incurable error, or every worker's
    /// result pooled into the answer ([`assemble_outcome`]).
    pub(crate) fn outcome(
        self,
        kinds: &ShardKinds,
        wall_time: Duration,
        base: TimeBase,
        transport_events: Vec<ObsEvent>,
    ) -> Result<ExecutionOutcome> {
        if let Some(error) = self.error {
            return Err(error);
        }
        let restarts = self.restarts_used.iter().map(|&used| u64::from(used)).sum();
        let results = self.results.into_iter().enumerate().map(|(w, result)| {
            result.ok_or_else(|| Error::Runtime(format!("processor {w} ended without a result")))
        });
        assemble_outcome(results.collect::<Result<_>>()?, kinds, wall_time, restarts, base, transport_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::{FxHashSet, SmallRng};
    use std::collections::VecDeque;

    fn report(epoch: u64, batch_seq: &[u64], recv_floor: &[u64]) -> Option<PassiveReport> {
        Some(PassiveReport { epoch, batch_seq: batch_seq.to_vec(), recv_floor: recv_floor.to_vec() })
    }

    fn supervisor(n: usize, max_restarts: u32) -> Supervisor {
        Supervisor::new(n, &SupervisorConfig { max_restarts, fail_point: None })
    }

    /// A passive report of a fleet of two that shipped nothing.
    fn idle(epoch: u64) -> PassiveReport {
        PassiveReport { epoch, batch_seq: vec![0; 2], recv_floor: vec![0; 2] }
    }

    fn crash(worker: usize) -> Error {
        Error::Runtime(format!("crash of processor {worker}"))
    }

    fn terminate(epoch: u64) -> Option<Action> {
        Some(Action::Broadcast(Envelope::control(0, epoch, Message::Terminate)))
    }

    fn abort(worker: usize, epoch: u64) -> Option<Action> {
        let reason = crash(worker).to_string();
        Some(Action::Broadcast(Envelope::control(worker, epoch, Message::Abort { reason })))
    }

    fn restart(worker: usize, epoch: u64, used: u32) -> Option<Action> {
        let recover = Envelope::control(worker, epoch, Message::Recover { epoch, restarted: worker });
        Some(Action::Restart { worker, epoch, backoff: RESTART_BACKOFF * used, recover })
    }

    fn error(sup: Supervisor) -> Option<String> {
        let outcome = sup.outcome(&ShardKinds::default(), Duration::ZERO, TimeBase::WallMicros, Vec::new());
        outcome.err().map(|e| e.to_string())
    }

    #[test]
    fn terminate_goes_out_once_the_reports_balance_and_never_after_an_abort() {
        let mut sup = supervisor(2, 1);
        let sent = PassiveReport { batch_seq: vec![1, 0], ..idle(0) };
        assert_eq!(sup.on_report(1, sent.clone()), None, "worker 0 never reported");
        assert_eq!(sup.on_report(0, idle(0)), None, "worker 0 has not absorbed worker 1's batch");
        assert_eq!(sup.on_report(0, PassiveReport { recv_floor: vec![0, 1], ..idle(0) }), terminate(0));
        assert_eq!(sup.on_report(1, sent), None, "Terminate goes out once");

        let mut sup = supervisor(2, 1);
        sup.on_report(0, idle(0));
        assert_eq!(sup.on_death(1, crash(1), false), abort(1, 0));
        assert_eq!(sup.on_report(1, idle(0)), None, "no Terminate after an abort");

        let mut sup = supervisor(2, 1);
        sup.on_report(0, idle(0));
        sup.forget(0);
        assert_eq!(sup.on_report(1, idle(0)), None, "a forgotten report counts for nothing");
    }

    #[test]
    fn a_recoverable_death_within_budget_restarts_in_the_next_epoch() {
        let mut sup = supervisor(3, 2);
        assert_eq!(sup.on_death(1, crash(1), true), restart(1, 1, 1));
        assert_eq!(sup.on_death(2, crash(2), true), restart(2, 2, 1), "each worker has its own budget");
        assert_eq!(sup.on_death(1, crash(1), true), restart(1, 3, 2), "the backoff grows with the restarts used");
        assert_eq!((sup.epoch(), sup.settled()), (3, false));
    }

    #[test]
    fn an_exhausted_budget_a_fatal_death_or_a_death_after_terminate_aborts() {
        let mut sup = supervisor(2, 1);
        assert_eq!(sup.on_death(0, crash(0), true), restart(0, 1, 1));
        assert_eq!(sup.on_death(0, crash(0), true), abort(0, 1), "the budget is spent");
        assert_eq!(error(sup), Some(crash(0).to_string()));
        let mut sup = supervisor(2, 1);
        assert_eq!(sup.on_death(1, crash(1), false), abort(1, 0), "a fatal death");
        let mut sup = supervisor(2, 1);
        sup.on_report(0, idle(0));
        assert_eq!(sup.on_report(1, idle(0)), terminate(0));
        assert_eq!(sup.on_death(1, crash(1), true), abort(1, 0), "finished workers answer no replay request");
    }

    #[test]
    fn deaths_after_an_abort_decide_nothing() {
        let mut sup = supervisor(3, 1);
        assert_eq!(sup.on_death(0, crash(0), false), abort(0, 0));
        assert!(sup.settled());
        assert_eq!(sup.on_death(1, crash(1), true), None);
        assert_eq!(sup.on_death(2, crash(2), false), None);
        assert_eq!(error(sup), Some(crash(0).to_string()), "the first death is the run's error");
    }

    #[test]
    fn reports_from_before_a_restart_never_terminate() {
        let mut sup = supervisor(2, 1);
        sup.on_report(0, idle(0));
        assert_eq!(sup.on_death(1, crash(1), true), restart(1, 1, 1));
        assert_eq!(sup.on_report(1, idle(1)), None, "worker 0's report predates the restart");
        assert_eq!(sup.on_report(0, idle(1)), terminate(1));
    }

    #[test]
    fn a_worker_without_a_result_is_a_typed_error() {
        let mut sup = supervisor(2, 1);
        sup.on_exit(0, (crate::stats::WorkerReport::new(0, 2), Vec::new(), Vec::new()));
        assert!(sup.finished(0) && !sup.finished(1) && !sup.settled());
        assert_eq!(error(sup).as_deref(), Some("runtime error: processor 1 ended without a result"));
    }

    #[test]
    fn an_idle_fleet_terminates() {
        assert!(quiescent(0, &[report(0, &[0], &[0])]), "a fleet of one has no link");
        let idle = report(0, &[0; 4], &[0; 4]);
        assert!(quiescent(0, &vec![idle; 4]));
    }

    #[test]
    fn an_unabsorbed_batch_defers_termination() {
        // Worker 1 sent worker 2 one batch that worker 2 has not absorbed.
        let mut latest = [report(0, &[0; 3], &[0; 3]), report(0, &[0, 0, 1], &[0; 3]), report(0, &[0; 3], &[0; 3])];
        assert!(!quiescent(0, &latest));
        latest[2] = report(0, &[0; 3], &[0, 1, 0]);
        assert!(quiescent(0, &latest), "absorbed and reported: the link balances");
    }

    /// The schedule from `DESIGN.md` §7, with `W`, `Y`, `Z` as workers
    /// 0, 1, 2: the totals balance, the links do not.
    #[test]
    fn a_stale_report_with_balanced_totals_is_not_termination() {
        let z = report(0, &[0, 0, 0], &[0, 0, 0]);
        let y = report(0, &[0, 0, 1], &[0, 0, 0]);
        let w = report(0, &[0, 0, 0], &[0, 0, 1]);
        let latest = [w, y, z];
        let total = |pick: fn(&PassiveReport) -> &Vec<u64>| -> u64 {
            latest.iter().flatten().map(|r| pick(r).iter().sum::<u64>()).sum()
        };
        assert_eq!(total(|r| &r.batch_seq), total(|r| &r.recv_floor), "the totals balance");
        assert!(!quiescent(0, &latest), "Z absorbed Y's batch after its report and is active");
    }

    #[test]
    fn every_worker_must_report_in_the_current_epoch() {
        let idle = |epoch| report(epoch, &[0, 0], &[0, 0]);
        assert!(quiescent(1, &[idle(1), idle(1)]));
        assert!(!quiescent(1, &[idle(1), idle(0)]), "a report from before the recovery");
        assert!(!quiescent(1, &[idle(1), None]), "a worker that never reported");
    }

    /// One worker of the model: what the runtime's worker keeps, and
    /// whether it is active.
    struct Worker {
        active: bool,
        batch_seq: Vec<u64>,
        recv_floor: Vec<u64>,
        seen_above: Vec<FxHashSet<u64>>,
        reported: Option<PassiveReport>,
    }

    impl Worker {
        fn absorbed(&self, from: usize, seq: u64) -> bool {
            seq < self.recv_floor[from] || self.seen_above[from].contains(&seq)
        }
    }

    /// Random schedules: sends, reordered and duplicated deliveries,
    /// first deliveries that may or may not wake the receiver, reports
    /// taken at random passive moments and handed to the supervisor late.
    /// The detector must never fire while a worker is active or a batch
    /// is unabsorbed (safety), and must fire once all is quiet (liveness).
    #[test]
    fn simulated_schedules_are_safe_and_live() {
        let mut rng = SmallRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
        for n in [1usize, 2, 3, 5] {
            for _ in 0..200 {
                let mut workers: Vec<Worker> = (0..n)
                    .map(|_| Worker {
                        active: true,
                        batch_seq: vec![0; n],
                        recv_floor: vec![0; n],
                        seen_above: vec![FxHashSet::default(); n],
                        reported: None,
                    })
                    .collect();
                let mut in_flight: Vec<(usize, usize, u64)> = Vec::new();
                let mut mailbox: Vec<VecDeque<PassiveReport>> = vec![VecDeque::new(); n];
                let mut latest: Vec<Option<PassiveReport>> = vec![None; n];
                let mut budget = rng.gen_below(16);
                let mut steps = 0;
                while !quiescent(0, &latest) {
                    steps += 1;
                    assert!(steps < 100_000, "liveness: n={n}, everything quiet yet no decision");
                    let w = rng.gen_below(n as u64) as usize;
                    match rng.gen_below(4) {
                        0 if workers[w].active => {
                            if n > 1 && budget > 0 && rng.gen_bool(0.7) {
                                let to = (w + 1 + rng.gen_below(n as u64 - 1) as usize) % n;
                                let seq = workers[w].batch_seq[to];
                                workers[w].batch_seq[to] += 1;
                                in_flight.push((w, to, seq));
                                if rng.gen_bool(0.3) {
                                    in_flight.push((w, to, seq));
                                }
                                budget -= 1;
                            } else {
                                workers[w].active = false;
                            }
                        }
                        1 if !in_flight.is_empty() => {
                            let at = rng.gen_below(in_flight.len() as u64) as usize;
                            let (from, to, seq) = in_flight.swap_remove(at);
                            let receiver = &mut workers[to];
                            if !receiver.absorbed(from, seq) {
                                receiver.seen_above[from].insert(seq);
                                while receiver.seen_above[from].remove(&receiver.recv_floor[from]) {
                                    receiver.recv_floor[from] += 1;
                                }
                                // A batch whose rows are all known wakes nobody.
                                receiver.active |= rng.gen_bool(0.7);
                            }
                        }
                        2 if !workers[w].active => {
                            let worker = &mut workers[w];
                            let now = report(0, &worker.batch_seq, &worker.recv_floor);
                            if worker.reported != now {
                                mailbox[w].extend(now.clone());
                                worker.reported = now;
                            }
                        }
                        3 => {
                            if let Some(r) = mailbox[w].pop_front() {
                                latest[w] = Some(r);
                            }
                        }
                        _ => {}
                    }
                }
                assert!(workers.iter().all(|w| !w.active), "safety: n={n}, a worker is active");
                let unabsorbed = in_flight.iter().find(|&&(from, to, seq)| !workers[to].absorbed(from, seq));
                assert_eq!(unabsorbed, None, "safety: n={n}, a batch is still in flight");
            }
        }
    }
}
