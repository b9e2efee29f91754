//! Termination detection from the link watermarks the workers already
//! keep, as one pure function every supervisor calls.
//!
//! The paper requires detecting "the condition that all processors are
//! idle and all channels are empty" (§3, step 6). Every transport has one
//! supervisor that sees every worker — the threaded supervisor loop, the
//! simulator's event loop and the TCP coordinator — so detection needs no
//! ring. A worker that goes passive sends its supervisor one
//! [`PassiveReport`]: its recovery epoch, its per-link batch sequence
//! counters and its per-link contiguous receive watermarks. Both counters
//! already exist for replay. The supervisor broadcasts `Terminate` once
//! [`quiescent`] holds: every worker's latest report is from the current
//! epoch and every link balances, `recv_floor_j[i] == batch_seq_i[j]`.
//!
//! ## Why one wave is enough
//!
//! A passive worker becomes active only by absorbing the first copy of a
//! batch it has not seen (a replay snapshot counts as the batches it
//! stands in for). Suppose the reports balance, and take the
//! earliest batch any worker numbered after its own latest report. That
//! worker was woken after its report by the first delivery of some batch
//! `m`, sent on link `i → j`:
//!
//! * if `m` was numbered after its sender's report, that send came
//!   earlier, contradicting the choice of the earliest;
//! * otherwise `m`'s number is below `batch_seq_i[j]` in the sender's
//!   report, which equals `recv_floor_j[i]` in the woken worker's report:
//!   `m` was absorbed before that report, not after it.
//!
//! So no worker numbered a batch after its report, no channel holds a batch
//! its receiver has not absorbed (at most a duplicate copy), and no worker
//! woke up. Replay after a crash reuses the sequence numbers it resends, so
//! it moves no counter. Reports may reach the supervisor late: the argument
//! holds for whichever report it holds, as long as each worker's reports
//! arrive in the order they were sent.
//!
//! ## Why per link, not totals
//!
//! Comparing `Σ batch_seq` with `Σ recv_floor` over the latest reports is
//! unsafe. With three workers: `Z` reports; `Y` sends to `Z` and reports;
//! `Z` absorbs it and sends to `W`; `W` absorbs that and reports. The
//! totals balance (one sent by `Y`, one absorbed by `W`) while `Z` is still
//! active. Link `Y → Z` does not balance, because `Z`'s report predates
//! the batch.

/// What a worker tells its supervisor each time it goes passive with an
/// epoch or a counter that moved since its previous report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassiveReport {
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
pub fn quiescent(epoch: u64, latest: &[Option<PassiveReport>]) -> bool {
    let current = latest.iter().map(|r| r.as_ref().filter(|r| r.epoch == epoch));
    let Some(reports) = current.collect::<Option<Vec<_>>>() else {
        return false;
    };
    reports.iter().enumerate().all(|(i, from)| {
        reports.iter().enumerate().all(|(j, to)| i == j || to.recv_floor[i] == from.batch_seq[j])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::{FxHashSet, SmallRng};
    use std::collections::VecDeque;

    fn report(epoch: u64, batch_seq: &[u64], recv_floor: &[u64]) -> Option<PassiveReport> {
        Some(PassiveReport { epoch, batch_seq: batch_seq.to_vec(), recv_floor: recv_floor.to_vec() })
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

    /// The schedule from the module docs, with `W`, `Y`, `Z` as workers
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
