//! Evaluation statistics.
//!
//! Definition 4 of the paper counts *successful ground substitutions* —
//! complete variable assignments making every body atom true. Our executor
//! fires its emit callback exactly once per successful ground substitution
//! of the plan it runs, so `firings` here is the quantity Theorems 2 and 6
//! reason about. `duplicates` counts firings whose head tuple was already
//! known (wasted work — the redundancy the §6 trade-off spends).

/// How the engine attributes time to rules.
///
/// `Wall` records wall-clock microseconds — the right unit for threaded
/// and TCP runs. `Ticks` records a deterministic *work proxy* (firings
/// per rule execution) so the simulated transport's profiles are
/// bit-identical across same-seed reruns while still ranking rules by
/// actual work done. `Off` (the
/// default) records nothing and costs one branch per rule execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TimeMode {
    /// No time attribution (default).
    #[default]
    Off,
    /// Wall-clock microseconds.
    Wall,
    /// Deterministic work proxy (firings).
    Ticks,
}

/// Counters accumulated by a fixpoint engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Completed semi-naive rounds (bootstrap counts as round 0).
    pub rounds: u64,
    /// Successful ground substitutions, total across rules.
    pub firings: u64,
    /// Distinct tuples added across all derived relations.
    pub derived: u64,
    /// Firings whose head tuple was already present when its round ended.
    pub duplicates: u64,
    /// Firings per rule, indexed by the rule's position in the program.
    pub firings_by_rule: Vec<u64>,
    /// Time attributed per rule, same indexing as `firings_by_rule`.
    /// Unit depends on the engine's [`TimeMode`]: microseconds under
    /// `Wall`, firings under `Ticks`, all zeros under `Off`.
    pub time_by_rule: Vec<u64>,
}

impl EvalStats {
    /// Create counters for a program with `rule_count` rules.
    pub fn new(rule_count: usize) -> Self {
        EvalStats {
            firings_by_rule: vec![0; rule_count],
            time_by_rule: vec![0; rule_count],
            ..Default::default()
        }
    }

    /// Record `n` firings of rule `rule_index`.
    pub fn record_firings(&mut self, rule_index: usize, n: u64) {
        self.firings += n;
        if let Some(slot) = self.firings_by_rule.get_mut(rule_index) {
            *slot += n;
        }
    }

    /// Attribute `t` time units ([`TimeMode`]-dependent) to rule
    /// `rule_index`. Out-of-range indices are ignored, mirroring
    /// [`EvalStats::record_firings`].
    pub fn record_rule_time(&mut self, rule_index: usize, t: u64) {
        if let Some(slot) = self.time_by_rule.get_mut(rule_index) {
            *slot += t;
        }
    }

    /// Record the outcome of an advance: `fresh` new tuples out of
    /// `submitted` submissions.
    pub fn record_advance(&mut self, submitted: u64, fresh: u64) {
        self.derived += fresh;
        self.duplicates += submitted - fresh;
    }

    /// Total firings over a subset of rules (e.g. only the paper's
    /// *processing* rules, excluding send/receive bookkeeping).
    pub fn firings_for_rules(&self, rules: &[usize]) -> u64 {
        rules
            .iter()
            .map(|&r| self.firings_by_rule.get(r).copied().unwrap_or(0))
            .sum()
    }

    /// Merge another engine's counters into this one (used to aggregate
    /// per-processor statistics into a parallel-run total).
    pub fn merge(&mut self, other: &EvalStats) {
        self.rounds = self.rounds.max(other.rounds);
        self.firings += other.firings;
        self.derived += other.derived;
        self.duplicates += other.duplicates;
        if self.firings_by_rule.len() < other.firings_by_rule.len() {
            self.firings_by_rule.resize(other.firings_by_rule.len(), 0);
        }
        for (i, &n) in other.firings_by_rule.iter().enumerate() {
            self.firings_by_rule[i] += n;
        }
        if self.time_by_rule.len() < other.time_by_rule.len() {
            self.time_by_rule.resize(other.time_by_rule.len(), 0);
        }
        for (i, &t) in other.time_by_rule.iter().enumerate() {
            self.time_by_rule[i] += t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_firings_totals_and_indexes() {
        let mut s = EvalStats::new(3);
        s.record_firings(0, 5);
        s.record_firings(2, 7);
        s.record_firings(0, 1);
        assert_eq!(s.firings, 13);
        assert_eq!(s.firings_by_rule, vec![6, 0, 7]);
        assert_eq!(s.firings_for_rules(&[0]), 6);
        assert_eq!(s.firings_for_rules(&[0, 2]), 13);
    }

    #[test]
    fn record_advance_tracks_duplicates() {
        let mut s = EvalStats::new(1);
        s.record_advance(10, 7);
        assert_eq!(s.derived, 7);
        assert_eq!(s.duplicates, 3);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = EvalStats::new(2);
        a.rounds = 4;
        a.record_firings(0, 2);
        let mut b = EvalStats::new(3);
        b.rounds = 9;
        b.record_firings(2, 5);
        b.record_advance(5, 5);
        a.merge(&b);
        assert_eq!(a.rounds, 9);
        assert_eq!(a.firings, 7);
        assert_eq!(a.derived, 5);
        assert_eq!(a.firings_by_rule, vec![2, 0, 5]);
    }

    #[test]
    fn out_of_range_rule_index_is_ignored_in_per_rule_but_counted_total() {
        let mut s = EvalStats::new(1);
        s.record_firings(5, 3);
        assert_eq!(s.firings, 3);
        assert_eq!(s.firings_by_rule, vec![0]);
    }
}
