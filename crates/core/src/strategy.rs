//! Architecture-aware scheme selection (paper §8).
//!
//! "The particular scheme used in a compiler may be dependent on the
//! underlying characteristics of the architecture e.g., computation cost
//! as opposed to communication cost." This module is that compiler
//! decision: given measured (or estimated) firing and communication
//! volumes per candidate scheme and a machine's cost ratio, pick the
//! cheapest execution.
//!
//! It also holds the per-rule choice of a demand-partitioned magic program
//! ([`demand_choices`]), whose key the adornment fixes. No choice here
//! reads the data: there is no key census, and a hot key is hashed like
//! any other (EXPERIMENTS.md P24).

use std::sync::Arc;

use gst_common::Result;
use gst_frontend::magic::MagicRewrite;

use crate::discriminator::{DiscriminatorRef, HashMod};
use crate::schemes::common::{first_body_variable, validate_sequence};
use crate::schemes::general::RuleChoice;

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
}
