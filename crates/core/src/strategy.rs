//! Architecture-aware scheme selection (paper §8).
//!
//! "The particular scheme used in a compiler may be dependent on the
//! underlying characteristics of the architecture e.g., computation cost
//! as opposed to communication cost." This module is that compiler
//! decision: given measured (or estimated) firing and communication
//! volumes per candidate scheme and a machine's cost ratio, pick the
//! cheapest execution.
//!
//! It also holds the compile-time *skew sampler* behind the skew-aware
//! scheme (ROADMAP item 4): a pass over an EDB relation's key column(s)
//! that measures per-key frequency and flags the keys hot enough to melt
//! one worker under a uniform hash partition.

use std::collections::BTreeMap;
use std::sync::Arc;

use gst_common::{Result, Value};
use gst_frontend::magic::MagicRewrite;
use gst_storage::Relation;

use crate::discriminator::{DiscriminatorRef, HashMod};
use crate::schemes::common::{first_body_variable, validate_sequence};
use crate::schemes::general::RuleChoice;

/// Knobs of the hot-key detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewPolicy {
    /// A key is *hot* when its frequency exceeds `hot_factor` fair shares,
    /// i.e. `count · n > hot_factor · total`. At the default 1.0 a key
    /// whose own weight exceeds one worker's uniform share (`total / n`)
    /// gets split: such a key caps the best achievable balance all by
    /// itself, which is exactly when §6's `R_i` replication pays off.
    pub hot_factor: f64,
    /// Processors each hot key splits across; `0` means all `n`.
    pub split_k: usize,
}

impl Default for SkewPolicy {
    fn default() -> Self {
        SkewPolicy {
            hot_factor: 1.0,
            split_k: 0,
        }
    }
}

/// Frequency census of an EDB relation's key column(s).
#[derive(Debug, Clone)]
pub struct KeyFrequencyProfile {
    /// Number of tuples sampled.
    pub total: u64,
    /// Distinct keys with their frequencies, most frequent first (ties in
    /// key order, so the census is deterministic).
    pub counts: Vec<(Vec<Value>, u64)>,
}

impl KeyFrequencyProfile {
    /// The keys hot enough to split under `policy` when partitioning
    /// across `n` processors, most frequent first.
    ///
    /// The rule *peels* the head of the distribution: a key is hot when it
    /// exceeds `hot_factor` fair shares of the mass **remaining after the
    /// hotter keys above it were split away** — a split key spreads
    /// (near-)uniformly, so it stops constraining the achievable maximum,
    /// and the next key down is judged against the load that is actually
    /// left to balance. Peeling stops at the first key that fits, since
    /// every later (smaller) key fits the same remainder a fortiori.
    pub fn hot_keys(&self, n: usize, policy: &SkewPolicy) -> Vec<(Vec<Value>, u64)> {
        if n <= 1 || self.total == 0 {
            return Vec::new();
        }
        let mut hot = Vec::new();
        let mut remaining = self.total;
        for (key, count) in &self.counts {
            if (count * n as u64) as f64 <= policy.hot_factor * remaining as f64 {
                break;
            }
            hot.push((key.clone(), *count));
            remaining -= count;
        }
        hot
    }
}

/// Census the frequencies of `columns` projections over `rel` — the
/// compile-time sampling pass of the skew-aware discriminator. The cost is
/// one scan of the relation; for the workloads this system targets the
/// EDB is already resident, so "sampling" reads every tuple.
pub fn sample_key_frequencies(rel: &Relation, columns: &[usize]) -> KeyFrequencyProfile {
    let mut by_key: BTreeMap<Vec<Value>, u64> = BTreeMap::new();
    let mut total = 0u64;
    for t in rel.iter() {
        let key: Vec<Value> = columns.iter().map(|&c| t.get(c)).collect();
        *by_key.entry(key).or_insert(0) += 1;
        total += 1;
    }
    let mut counts: Vec<(Vec<Value>, u64)> = by_key.into_iter().collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    KeyFrequencyProfile { total, counts }
}

/// Relative costs of the three resources a scheme spends: computation
/// (rule firings), communication (tuples shipped), and storage (base
/// tuples replicated or fragmented to the workers — Example 1 pays
/// `n·|base|`, Example 3 about `2·|base|`, Example 2 exactly `|base|`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one rule firing (computation).
    pub firing_cost: f64,
    /// Cost of shipping one tuple between processors (communication).
    pub tuple_send_cost: f64,
    /// Cost of storing one base tuple at one worker (replication).
    pub base_tuple_cost: f64,
}

impl CostModel {
    /// A machine where communication costs `ratio`× as much as a firing
    /// and storage is free.
    pub fn with_comm_ratio(ratio: f64) -> Self {
        CostModel {
            firing_cost: 1.0,
            tuple_send_cost: ratio,
            base_tuple_cost: 0.0,
        }
    }

    /// Additionally charge `storage` per base tuple per worker.
    pub fn with_storage_cost(mut self, storage: f64) -> Self {
        self.base_tuple_cost = storage;
        self
    }

    /// Total modeled cost of a profile.
    pub fn cost(&self, profile: &SchemeProfile) -> f64 {
        self.firing_cost * profile.firings as f64
            + self.tuple_send_cost * profile.tuples_sent as f64
            + self.base_tuple_cost * profile.base_tuples as f64
    }
}

/// Measured resource consumption of one candidate scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeProfile {
    /// Display name.
    pub name: String,
    /// Total processing-rule firings across processors.
    pub firings: u64,
    /// Total tuples shipped between distinct processors.
    pub tuples_sent: u64,
    /// Total base tuples held across all workers.
    pub base_tuples: u64,
}

impl SchemeProfile {
    /// Build a profile from an execution outcome; `scheme` supplies the
    /// per-worker base storage.
    pub fn from_run(
        name: impl Into<String>,
        scheme: &crate::schemes::CompiledScheme,
        outcome: &gst_runtime::ExecutionOutcome,
    ) -> Self {
        SchemeProfile {
            name: name.into(),
            firings: outcome.stats.total_processing_firings(),
            tuples_sent: outcome.stats.total_tuples_sent(),
            base_tuples: scheme
                .workers
                .iter()
                .map(|w| w.edb.total_tuples() as u64)
                .sum(),
        }
    }
}

/// Pick the cheapest profile under the model. Ties go to the earlier
/// entry (stable). Returns `None` on an empty slate.
pub fn choose<'a>(profiles: &'a [SchemeProfile], model: &CostModel) -> Option<&'a SchemeProfile> {
    profiles.iter().min_by(|a, b| {
        model
            .cost(a)
            .partial_cmp(&model.cost(b))
            .expect("costs are finite")
    })
}

/// Hash seed shared by every rule of a demand-partitioned magic program.
///
/// One seed across all rules is what makes the strategy *co-locating*:
/// `h(c)` computes the same worker whether `c` arrives as a magic
/// (demand) tuple, as the bound column of an adorned answer, or as the
/// join column of a base fragment.
pub const DEMAND_HASH_SEED: u64 = 0xD17;

/// Demand-aware partitioning for a magic-sets rewrite: one
/// [`RuleChoice`] per generated rule, discriminating on the rule's
/// *demand key* — the variables of its magic guard, i.e. the bound
/// columns of the demanded predicate — under a single shared
/// [`HashMod`].
///
/// Why a magic program gets its own choice and not the program-text
/// chooser `--scheme general` runs ([`crate::advisor::choose_sequences`]):
/// the demand key is known from the adornment, not guessed from the
/// rules. Every magic atom's argument pattern *is* its guard key, so
/// magic (demand) tuples always route point-to-point to `h(key)` — they
/// never broadcast — and [`crate::schemes::BaseDistribution::MinimalFragments`] places
/// the base fragments whose join column carries the same key on the same
/// worker. Demand lands where the data lives. An adorned answer
/// occurrence whose pattern does not contain the demand key (e.g. the
/// recursive atom of the *left*-linear ancestor rule) falls back to
/// replication — `rewrite_general`'s broadcast path — which ships only
/// the demand-bounded answer set, not the full closure.
///
/// Rules whose guard binds no variable (an all-free sub-adornment, or a
/// constant-bound head) fall back to the first body-atom variable, and to
/// the empty sequence when the body is ground.
pub fn demand_choices(
    rewrite: &MagicRewrite,
    workers: usize,
    seed: u64,
) -> Result<Vec<RuleChoice>> {
    let h: DiscriminatorRef = Arc::new(HashMod::new(workers, seed));
    rewrite
        .program
        .rules
        .iter()
        .zip(&rewrite.rules)
        .enumerate()
        .map(|(k, (rule, info))| {
            let v = if info.guard.is_empty() { first_body_variable(rule) } else { info.guard.clone() };
            validate_sequence(rule, &v, &format!("demand v(r{k})"))?;
            Ok(RuleChoice { v, h: h.clone() })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(name: &str, firings: u64, sent: u64) -> SchemeProfile {
        SchemeProfile {
            name: name.into(),
            firings,
            tuples_sent: sent,
            base_tuples: 0,
        }
    }

    #[test]
    fn cheap_communication_prefers_non_redundant() {
        // Non-redundant: fewer firings, more traffic.
        let profiles = vec![
            profile("non-redundant", 1_000, 500),
            profile("no-comm", 3_000, 0),
        ];
        let fast_net = CostModel::with_comm_ratio(0.1);
        assert_eq!(choose(&profiles, &fast_net).unwrap().name, "non-redundant");
    }

    #[test]
    fn expensive_communication_prefers_redundant() {
        let profiles = vec![
            profile("non-redundant", 1_000, 500),
            profile("no-comm", 3_000, 0),
        ];
        let slow_net = CostModel::with_comm_ratio(10.0);
        assert_eq!(choose(&profiles, &slow_net).unwrap().name, "no-comm");
    }

    #[test]
    fn storage_cost_penalizes_replication() {
        let mut replicated = profile("example1", 1_000, 0);
        replicated.base_tuples = 4_000; // 4 workers × full base
        let mut fragmented = profile("example3", 1_000, 300);
        fragmented.base_tuples = 1_500;
        let free_storage = CostModel::with_comm_ratio(1.0);
        assert_eq!(
            choose(&[replicated.clone(), fragmented.clone()], &free_storage)
                .unwrap()
                .name,
            "example1"
        );
        let tight_storage = CostModel::with_comm_ratio(1.0).with_storage_cost(1.0);
        assert_eq!(
            choose(&[replicated, fragmented], &tight_storage).unwrap().name,
            "example3"
        );
    }

    #[test]
    fn choose_on_empty_is_none() {
        assert!(choose(&[], &CostModel::with_comm_ratio(1.0)).is_none());
    }

    #[test]
    fn tie_breaks_stably() {
        let a = profile("first", 100, 0);
        let b = profile("second", 100, 0);
        assert_eq!(
            choose(&[a, b], &CostModel::with_comm_ratio(2.0)).unwrap().name,
            "first"
        );
    }

    #[test]
    fn sampler_counts_and_ranks_keys() {
        use gst_common::ituple;
        // Column 1 frequencies: 0 appears 6×, 1 appears 2×, others once.
        let rel: gst_storage::Relation = (0..6i64)
            .map(|k| ituple![k + 10, 0])
            .chain((0..2i64).map(|k| ituple![k + 20, 1]))
            .chain((0..4i64).map(|k| ituple![k + 30, k + 2]))
            .collect();
        let profile = sample_key_frequencies(&rel, &[1]);
        assert_eq!(profile.total, 12);
        assert_eq!(profile.counts[0], (vec![Value::Int(0)], 6));
        assert_eq!(profile.counts[1], (vec![Value::Int(1)], 2));
        // Peeling at n=4 under the default policy: key 0 carries 6/12 = 2
        // fair shares (hot); with it split away 6 tuples remain, against
        // which key 1's 2·4 = 8 > 6 also exceeds a share (hot); the next
        // count (1) fits the remaining 4 exactly, so peeling stops.
        let hot = profile.hot_keys(4, &SkewPolicy::default());
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, vec![Value::Int(0)]);
        assert_eq!(hot[1].0, vec![Value::Int(1)]);
        // A stricter factor suppresses it: 6·4 = 24 > 2·12 fails strictly.
        let strict = SkewPolicy {
            hot_factor: 2.0,
            split_k: 0,
        };
        assert!(profile.hot_keys(4, &strict).is_empty());
        // Degenerate cases never split.
        assert!(profile.hot_keys(1, &SkewPolicy::default()).is_empty());
        assert!(
            sample_key_frequencies(&gst_storage::Relation::new(2), &[1])
                .hot_keys(4, &SkewPolicy::default())
                .is_empty()
        );
    }
}
