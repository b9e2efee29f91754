//! Execution statistics for parallel runs.
//!
//! These counters are the measurement apparatus of the reproduction:
//! Example 1's "no communication is incurred" becomes
//! `channel_matrix[i][j] == 0` for `i ≠ j`; Theorem 2's non-redundancy
//! becomes `processing_firings ≤` the sequential engine's firings; the §6
//! trade-off becomes the curve of `total_tuples_sent` against
//! `duplicate` firings as the keep-local mix varies.

use std::time::Duration;

use gst_common::FxHashMap;
use gst_eval::plan::RelationId;
use gst_eval::EvalStats;
use gst_storage::Relation;

use crate::obs::Journal;

/// What one worker reports after termination.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Processor index.
    pub processor: usize,
    /// Engine statistics (all rules: init, processing, sending).
    pub eval: EvalStats,
    /// Firings of the paper's *processing* rules only.
    pub processing_firings: u64,
    /// Tuples sent to each destination processor (the channel row `i→*`).
    pub sent_tuples_to: Vec<u64>,
    /// Wire bytes sent to each destination (serialized batches).
    pub sent_bytes_to: Vec<u64>,
    /// Data messages sent (batches, not tuples).
    pub sent_messages: u64,
    /// Tuples received from other processors.
    pub received_tuples: u64,
    /// Wire bytes received.
    pub received_bytes: u64,
    /// Distinct `encode_batch` calls on the ship path — one per
    /// (round, outlet), however many destinations the payload was
    /// multicast to.
    pub encode_calls: u64,
    /// Bytes those encodes produced. Each multicast payload is counted
    /// once here, unlike `sent_bytes_to` which counts per link.
    pub encoded_bytes: u64,
    /// Bytes the row-oriented wire format would have spent on the same
    /// batches — the reference of [`ParallelStats::compression_ratio`].
    pub encoded_raw_bytes: u64,
    /// Transport-level duplicate deliveries absorbed (same link sequence
    /// number seen twice). Zero under a reliable transport; positive only
    /// when a fault plan duplicates or re-delivers batches.
    pub duplicate_batches: u64,
    /// Messages retransmitted from this worker's replay logs during crash
    /// recovery (replayed batches plus compacted snapshots). Zero unless a
    /// peer was restarted. Counted separately from `sent_tuples_to` /
    /// `sent_messages`, which measure the algorithm's communication, not
    /// the transport's retransmissions.
    pub replayed_batches: u64,
    /// Stale deliveries discarded by the epoch filter during recovery
    /// (envelopes sent before the epoch bump, and repeated `Recover`s).
    pub stale_dropped: u64,
    /// Tuples shipped on delete-marked channels — the over-deletion cone
    /// of a DRed update round crossing the network. Zero in batch mode.
    pub retract_tuples_sent: u64,
    /// Tuples received in delete-marked batches (first deliveries only,
    /// matching `received_tuples` accounting). Zero in batch mode.
    pub retract_tuples_received: u64,
    /// Tuples contributed to the pooled global answer.
    pub pooled_tuples: u64,
    /// Time spent computing (local evaluation), excluding idle waits.
    pub busy: std::time::Duration,
    /// Phase-attributed profile — `None` unless the run enabled
    /// [`crate::worker::WorkerConfig::profile`].
    pub profile: Option<crate::profile::WorkerProfile>,
}

impl WorkerReport {
    /// The all-zero report of processor `processor` in a fleet of `n`: a
    /// worker counts straight into it as it runs.
    pub fn new(processor: usize, n: usize) -> Self {
        WorkerReport {
            processor,
            eval: EvalStats::default(),
            processing_firings: 0,
            sent_tuples_to: vec![0; n],
            sent_bytes_to: vec![0; n],
            sent_messages: 0,
            received_tuples: 0,
            received_bytes: 0,
            encode_calls: 0,
            encoded_bytes: 0,
            encoded_raw_bytes: 0,
            duplicate_batches: 0,
            replayed_batches: 0,
            stale_dropped: 0,
            retract_tuples_sent: 0,
            retract_tuples_received: 0,
            pooled_tuples: 0,
            busy: Duration::ZERO,
            profile: None,
        }
    }

    /// Freeze the engine's side of the report: its statistics and, out of
    /// them, the firings of the paper's *processing* rules.
    pub(crate) fn set_eval(&mut self, eval: &EvalStats, processing_rules: &[usize]) {
        self.processing_firings = eval.firings_for_rules(processing_rules);
        self.eval = eval.clone();
    }
}

/// Aggregated statistics of one parallel execution.
#[derive(Debug, Clone)]
pub struct ParallelStats {
    /// Per-worker reports, indexed by processor.
    pub workers: Vec<WorkerReport>,
    /// `channel_matrix[i][j]` = tuples sent from `i` to `j` during the
    /// recursive computation (final pooling not included).
    pub channel_matrix: Vec<Vec<u64>>,
    /// Worker restarts the supervisor performed (crash recovery). Zero on
    /// a fault-free run.
    pub restarts: u64,
    /// Worker reconnections the network coordinator accepted (TCP
    /// transport only; zero for in-process transports). Tracks `restarts`
    /// unless a replacement incarnation died before reconnecting.
    pub reconnects: u64,
    /// Framed wire bytes of worker-to-worker envelopes the network
    /// coordinator relayed — actual bytes on the wire, frame headers
    /// included (TCP transport only; zero for in-process transports).
    pub relay_bytes: u64,
    /// Wall-clock time of the parallel section.
    pub wall_time: Duration,
    /// Wall-clock time of the final pooling — the serial union of the
    /// workers' shares into the answer, after `wall_time` stops.
    pub pooling_time: Duration,
}

impl ParallelStats {
    /// Total tuples sent between distinct processors.
    pub fn total_tuples_sent(&self) -> u64 {
        self.channel_matrix
            .iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .filter(move |(j, _)| *j != i)
                    .map(|(_, &v)| v)
            })
            .sum()
    }

    /// Total data messages (batches) sent between distinct processors.
    pub fn total_messages(&self) -> u64 {
        self.workers.iter().map(|w| w.sent_messages).sum()
    }

    /// Total wire bytes sent between distinct processors — the unit a
    /// cluster cost model charges for communication.
    pub fn total_bytes_sent(&self) -> u64 {
        self.workers.iter().flat_map(|w| w.sent_bytes_to.iter()).sum()
    }

    /// Total distinct wire encodings across workers (each multicast
    /// payload counted once).
    pub fn total_encode_calls(&self) -> u64 {
        self.workers.iter().map(|w| w.encode_calls).sum()
    }

    /// Total bytes the distinct encodings produced.
    pub fn total_encoded_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.encoded_bytes).sum()
    }

    /// How much smaller the columnar wire format is than the row-oriented
    /// one on this run's traffic: `raw / encoded`. 1.0 when nothing was
    /// encoded (e.g. a zero-communication run).
    pub fn compression_ratio(&self) -> f64 {
        let encoded: u64 = self.workers.iter().map(|w| w.encoded_bytes).sum();
        if encoded == 0 {
            return 1.0;
        }
        let raw: u64 = self.workers.iter().map(|w| w.encoded_raw_bytes).sum();
        raw as f64 / encoded as f64
    }

    /// Mean worker utilization: each worker's busy time over the longest
    /// busy time (1.0 = perfectly even, → 0 = one straggler).
    pub fn utilization(&self) -> f64 {
        let max = self
            .workers
            .iter()
            .map(|w| w.busy.as_secs_f64())
            .fold(0.0f64, f64::max);
        if max == 0.0 {
            return 1.0;
        }
        let mean = self.workers.iter().map(|w| w.busy.as_secs_f64()).sum::<f64>()
            / self.workers.len() as f64;
        mean / max
    }

    /// Load balance of the processing firings: the most any worker fired
    /// over the mean per worker (1.0 = perfectly even, and when nothing
    /// fired; N = one worker fired everything).
    pub fn firing_skew(&self) -> f64 {
        let max = self.workers.iter().map(|w| w.processing_firings).max().unwrap_or(0);
        let total = self.total_processing_firings();
        if total == 0 {
            return 1.0;
        }
        max as f64 / (total as f64 / self.workers.len() as f64)
    }

    /// Total processing-rule firings across processors — the left side of
    /// Theorems 2 and 6.
    pub fn total_processing_firings(&self) -> u64 {
        self.workers.iter().map(|w| w.processing_firings).sum()
    }

    /// Total firings of every rule (incl. init/send bookkeeping).
    pub fn total_firings(&self) -> u64 {
        self.workers.iter().map(|w| w.eval.firings).sum()
    }

    /// Total replay-log retransmissions during crash recovery.
    pub fn total_replayed_batches(&self) -> u64 {
        self.workers.iter().map(|w| w.replayed_batches).sum()
    }

    /// Total stale (pre-recovery-epoch) deliveries discarded, including
    /// repeated `Recover`s.
    pub fn total_stale_dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.stale_dropped).sum()
    }

    /// Total tuples shipped on delete-marked channels — the wire cost of
    /// a DRed update round's over-deletion phase. Zero in batch mode.
    pub fn total_retract_tuples_sent(&self) -> u64 {
        self.workers.iter().map(|w| w.retract_tuples_sent).sum()
    }

    /// True if no tuple ever crossed between two distinct processors —
    /// Example 1's and Theorem 3's zero-communication property.
    pub fn communication_free(&self) -> bool {
        self.total_tuples_sent() == 0
    }

    /// The set of used channels `(i, j)`, `i ≠ j` — compared against the
    /// compile-time network graph in the §5 experiments.
    pub fn used_channels(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, row) in self.channel_matrix.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if i != j && v > 0 {
                    out.push((i, j));
                }
            }
        }
        out
    }
}

/// The result of a parallel execution: pooled relations plus statistics.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// Global answer per pooled predicate (the paper's final `t`).
    pub relations: FxHashMap<RelationId, Relation>,
    /// Measurements.
    pub stats: ParallelStats,
    /// The merged event journal — empty unless the run was traced
    /// ([`crate::coordinator::RuntimeConfig::trace`]).
    pub journal: Journal,
}

impl ExecutionOutcome {
    /// The pooled relation for `pred` (empty if never pooled).
    pub fn relation(&self, pred: RelationId) -> Relation {
        self.relations
            .get(&pred)
            .cloned()
            .unwrap_or_else(|| Relation::new(pred.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(processor: usize, sent: Vec<u64>) -> WorkerReport {
        WorkerReport {
            processing_firings: 10,
            sent_bytes_to: sent.iter().map(|t| t * 9).collect(),
            sent_tuples_to: sent,
            sent_messages: 1,
            encode_calls: 1,
            encoded_bytes: 9,
            encoded_raw_bytes: 90,
            ..WorkerReport::new(processor, 2)
        }
    }

    #[test]
    fn matrix_excludes_self_channels() {
        let stats = ParallelStats {
            workers: vec![report(0, vec![5, 3]), report(1, vec![2, 7])],
            channel_matrix: vec![vec![5, 3], vec![2, 7]],
            restarts: 0,
            reconnects: 0,
            relay_bytes: 0,
            wall_time: Duration::ZERO,
            pooling_time: Duration::ZERO,
        };
        assert_eq!(stats.total_tuples_sent(), 5);
        assert_eq!(stats.used_channels(), vec![(0, 1), (1, 0)]);
        assert!(!stats.communication_free());
        assert_eq!(stats.total_processing_firings(), 20);
        assert_eq!(stats.total_messages(), 2);
        assert_eq!(stats.total_bytes_sent(), (5 + 3 + 2 + 7) * 9);
        assert_eq!(stats.total_encode_calls(), 2);
        assert_eq!(stats.total_encoded_bytes(), 18);
        assert!((stats.compression_ratio() - 10.0).abs() < 1e-9);
        assert_eq!(stats.utilization(), 1.0, "all-zero busy counts as even");
    }

    #[test]
    fn firing_skew_is_max_over_mean_and_one_when_nothing_fired() {
        let fleet = |firings: &[u64]| ParallelStats {
            workers: firings
                .iter()
                .enumerate()
                .map(|(i, &f)| WorkerReport { processing_firings: f, ..WorkerReport::new(i, firings.len()) })
                .collect(),
            channel_matrix: vec![vec![0; firings.len()]; firings.len()],
            restarts: 0,
            reconnects: 0,
            relay_bytes: 0,
            wall_time: Duration::ZERO,
            pooling_time: Duration::ZERO,
        };
        assert_eq!(fleet(&[0, 0, 0]).firing_skew(), 1.0, "an idle fleet is even");
        assert_eq!(fleet(&[]).firing_skew(), 1.0, "so is an empty one");
        assert_eq!(fleet(&[7, 7, 7, 7]).firing_skew(), 1.0);
        assert!((fleet(&[30, 10, 0, 0]).firing_skew() - 3.0).abs() < 1e-12, "max 30 over mean 10");
        assert_eq!(fleet(&[0, 0, 9]).firing_skew(), 3.0, "one worker fired everything");
    }

    #[test]
    fn zero_matrix_is_communication_free() {
        let stats = ParallelStats {
            workers: vec![report(0, vec![0, 0]), report(1, vec![0, 0])],
            channel_matrix: vec![vec![0, 0], vec![0, 0]],
            restarts: 0,
            reconnects: 0,
            relay_bytes: 0,
            wall_time: Duration::ZERO,
            pooling_time: Duration::ZERO,
        };
        assert!(stats.communication_free());
        assert!(stats.used_channels().is_empty());
    }
}
