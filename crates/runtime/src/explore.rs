//! Schedule exploration: sweep seeds, shrink failures.
//!
//! One simulated run checks one schedule. The claims worth testing —
//! "the parallel evaluation computes the sequential least model under
//! *any* schedule the transport permits" — quantify over schedules, so
//! [`sweep_seeds`] runs a whole seed range of [`SimTransport`] schedules
//! against an expected model and collects every seed that diverges.
//!
//! A failing seed under a rich fault plan is a needle in a haystack of
//! noise: most of the injected faults are irrelevant to the bug.
//! [`shrink_failure`] greedily disables fault dimensions (crash → stalls
//! → drops → duplication → delay spread) while the failure reproduces,
//! ending with a minimal plan and the failing run's [`Journal`] — the
//! replayable, human-readable counterexample. This is the classic
//! property-testing shrink loop, applied to fault plans instead of data.

use std::ops::Range;

use gst_common::FxHashMap;
use gst_eval::plan::RelationId;
use gst_storage::Relation;

use crate::coordinator::RuntimeConfig;
use crate::fault::FaultPlan;
use crate::obs::Journal;
use crate::sim::SimTransport;
use crate::spec::WorkerSpec;

/// The expected least model: predicate → relation, as computed by a
/// trusted oracle (sequential semi-naive evaluation).
pub type ExpectedModel = FxHashMap<RelationId, Relation>;

/// One seed that did not reproduce the expected model.
#[derive(Debug, Clone)]
pub struct SeedFailure {
    /// The failing seed.
    pub seed: u64,
    /// What went wrong: a runtime error, or a description of the model
    /// mismatch.
    pub reason: String,
}

/// The result of a seed sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// How many seeds ran.
    pub seeds_run: u64,
    /// Every failing seed, in sweep order.
    pub failures: Vec<SeedFailure>,
}

impl SweepReport {
    /// True when every seed agreed with the expected model.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run one simulated schedule and compare against the oracle. `None`
/// means the run agreed; `Some(reason)` describes the divergence.
pub fn check_seed(
    specs: &[WorkerSpec],
    config: &RuntimeConfig,
    plan: &FaultPlan,
    seed: u64,
    expected: &ExpectedModel,
) -> Option<String> {
    use crate::transport::Transport;
    let sim = SimTransport::with_faults(seed, plan.clone());
    match sim.execute(specs.to_vec(), config) {
        Err(e) => Some(format!("run failed: {e}")),
        Ok(outcome) => {
            for (&pred, want) in expected {
                let got = outcome.relation(pred);
                if !got.set_eq(want) {
                    return Some(format!(
                        "model mismatch on {pred:?}: got {} tuples, want {}",
                        got.len(),
                        want.len()
                    ));
                }
            }
            None
        }
    }
}

/// Run every seed in `seeds` under `plan`, comparing each run's pooled
/// relations against `expected`.
pub fn sweep_seeds(
    specs: &[WorkerSpec],
    config: &RuntimeConfig,
    plan: &FaultPlan,
    seeds: Range<u64>,
    expected: &ExpectedModel,
) -> SweepReport {
    let mut failures = Vec::new();
    let mut seeds_run = 0;
    for seed in seeds {
        seeds_run += 1;
        if let Some(reason) = check_seed(specs, config, plan, seed, expected) {
            failures.push(SeedFailure { seed, reason });
        }
    }
    SweepReport { seeds_run, failures }
}

/// A shrunk counterexample: the minimal fault plan that still fails, and
/// the journal of the failing run.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The failing seed (unchanged by shrinking).
    pub seed: u64,
    /// The minimal plan that still reproduces the failure.
    pub plan: FaultPlan,
    /// Why the minimal run fails.
    pub reason: String,
    /// The failing run's journal: every delivery, stall and crash beside
    /// what each worker recorded up to the failure.
    pub trace: Journal,
}

/// Greedily minimize the fault plan of a failing seed, keeping only the
/// dimensions the failure actually needs, then re-run for the trace.
///
/// Returns `None` if `seed` does not fail under `plan` in the first place
/// (nothing to shrink).
pub fn shrink_failure(
    specs: &[WorkerSpec],
    config: &RuntimeConfig,
    plan: &FaultPlan,
    seed: u64,
    expected: &ExpectedModel,
) -> Option<Shrunk> {
    check_seed(specs, config, plan, seed, expected)?;
    let mut current = plan.clone();

    // Candidate simplifications, most-drastic first. Each is retried after
    // any other succeeds, because disabling one fault can change which
    // random draws the others consume.
    let simplify: Vec<fn(&FaultPlan) -> FaultPlan> = vec![
        |p| FaultPlan { crash: None, ..p.clone() },
        |p| FaultPlan { stall_prob: 0.0, stall_ticks: 0, ..p.clone() },
        |p| FaultPlan { drop_prob: 0.0, drop_redeliver_after: 0, ..p.clone() },
        |p| FaultPlan { dup_prob: 0.0, ..p.clone() },
        |p| FaultPlan { max_delay: p.min_delay, ..p.clone() },
        |p| FaultPlan { min_delay: 1, max_delay: 1, ..p.clone() },
    ];

    let mut progress = true;
    while progress {
        progress = false;
        for f in &simplify {
            let candidate = f(&current);
            if candidate == current {
                continue;
            }
            if check_seed(specs, config, &candidate, seed, expected).is_some() {
                current = candidate;
                progress = true;
            }
        }
    }

    let sim = SimTransport::with_faults(seed, current.clone());
    let (result, trace) = sim.run_traced(specs.to_vec(), config);
    let reason = match result {
        Err(e) => format!("run failed: {e}"),
        Ok(outcome) => {
            // Reconstruct the mismatch message for the report.
            expected
                .iter()
                .find_map(|(&pred, want)| {
                    let got = outcome.relation(pred);
                    (!got.set_eq(want)).then(|| {
                        format!(
                            "model mismatch on {pred:?}: got {} tuples, want {}",
                            got.len(),
                            want.len()
                        )
                    })
                })
                .unwrap_or_else(|| "failure did not reproduce on the final re-run".into())
        }
    };
    Some(Shrunk {
        seed,
        plan: current,
        reason,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::ituple;

    /// A two-worker pipeline whose expected answer we know exactly.
    fn pipeline() -> (Vec<WorkerSpec>, ExpectedModel) {
        let (specs, answer) = crate::fixtures::pipeline();
        let mut expected = ExpectedModel::default();
        expected.insert(answer, [ituple![1], ituple![2]].into_iter().collect());
        (specs, expected)
    }

    #[test]
    fn clean_sweep_passes() {
        let (specs, expected) = pipeline();
        let report = sweep_seeds(
            &specs,
            &RuntimeConfig::default(),
            &FaultPlan::chaos(),
            0..20,
            &expected,
        );
        assert_eq!(report.seeds_run, 20);
        assert!(report.all_passed(), "failures: {:?}", report.failures);
    }

    #[test]
    fn crash_plans_fail_and_shrink_to_the_crash() {
        let (specs, expected) = pipeline();
        let config = RuntimeConfig::default();
        let plan = FaultPlan::with_crash(1, 1);
        let report = sweep_seeds(&specs, &config, &plan, 0..5, &expected);
        assert_eq!(report.failures.len(), 5, "a crashed sink always fails");

        let seed = report.failures[0].seed;
        let shrunk = shrink_failure(&specs, &config, &plan, seed, &expected).unwrap();
        // Everything except the crash is noise; shrinking must strip it.
        assert!(shrunk.plan.crash.is_some(), "the crash is load-bearing");
        assert_eq!(shrunk.plan.dup_prob, 0.0);
        assert_eq!(shrunk.plan.drop_prob, 0.0);
        assert_eq!(shrunk.plan.stall_prob, 0.0);
        assert_eq!(shrunk.plan.max_delay, shrunk.plan.min_delay);
        assert!(shrunk.reason.contains("idle") || shrunk.reason.contains("failed"));
        assert!(
            shrunk.trace.events.iter().any(|e| e.kind == crate::obs::ObsKind::Crashed),
            "the journal is the evidence: it must show the crash"
        );
    }

    #[test]
    fn shrink_returns_none_for_passing_seeds() {
        let (specs, expected) = pipeline();
        let shrunk = shrink_failure(
            &specs,
            &RuntimeConfig::default(),
            &FaultPlan::none(),
            0,
            &expected,
        );
        assert!(shrunk.is_none());
    }
}
