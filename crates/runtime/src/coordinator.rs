//! Runtime configuration shared by every transport.
//!
//! The part of the paper's architecture that lives outside any single
//! processor — wiring the complete channel set the abstract architecture
//! assumes (schemes needing fewer channels simply never use the rest),
//! running every worker to distributed termination, and the *final
//! pooling* step, the union `t(W̄) :- t_out^i(W̄)` over all processors —
//! is behind the [`crate::transport::Transport`] trait. This module holds
//! the knobs its implementations read; the tests below drive the
//! OS-thread transport end to end on hand-built specs.

use crate::worker::WorkerConfig;

/// Crash-recovery knobs for the supervising transport.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// How many times a *recoverable* worker death (panic, injected
    /// crash) may be answered with a restart before the run aborts. Fatal
    /// errors (spec/arity bugs, watchdog expiry) always abort immediately.
    /// `0` disables recovery entirely: any death fails the run fast.
    pub max_restarts: u32,
    /// Deterministic crash injection for the threaded transport: kill one
    /// worker's first incarnation after a fixed number of steps, as a
    /// recoverable death. Test-oriented — the simulator injects crashes
    /// via its [`crate::fault::FaultPlan`] instead.
    pub fail_point: Option<FailPoint>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 1,
            fail_point: None,
        }
    }
}

/// A deterministic injected crash: `worker`'s first incarnation dies
/// (recoverably) after `after_steps` scheduling quanta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailPoint {
    /// The worker whose first incarnation dies.
    pub worker: usize,
    /// Steps the incarnation performs before dying.
    pub after_steps: u64,
}

/// Configuration for a parallel execution.
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// Per-worker knobs (watchdog, profiling).
    pub worker: WorkerConfig,
    /// Crash-recovery knobs (restart budget, fail-point).
    pub supervisor: SupervisorConfig,
    /// Record the event journal ([`crate::obs`]). Off by default: workers
    /// then carry disabled sinks and pay one branch per would-be event.
    pub trace: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ThreadedTransport, Transport};
    use gst_common::{ituple, Interner};
    use std::sync::Arc;

    /// Hand-built two-processor pipeline: processor 0 derives out0 from
    /// its fragment and ships everything to 1; processor 1 stores what it
    /// receives. Exercise wiring, inboxes, pooling and termination
    /// without the rewrite layer.
    #[test]
    fn two_stage_pipeline_pools_results() {
        let (specs, answer) = crate::fixtures::pipeline();
        let outcome = ThreadedTransport.execute(specs, &RuntimeConfig::default()).unwrap();
        let answer_rel = outcome.relation(answer);
        assert_eq!(answer_rel.len(), 2);
        assert!(answer_rel.contains(&ituple![1]));
        // Processor 0 shipped both tuples to processor 1.
        assert_eq!(outcome.stats.channel_matrix[0][1], 2);
        assert_eq!(outcome.stats.total_tuples_sent(), 2);
        assert_eq!(outcome.stats.used_channels(), vec![(0, 1)]);
        assert_eq!(outcome.stats.workers[1].received_tuples, 2);
        // A reliable transport delivers nothing twice.
        assert_eq!(outcome.stats.workers[1].duplicate_batches, 0);
    }

    #[test]
    fn single_processor_runs_sequentially() {
        let (spec, answer) = crate::fixtures::lone_worker();
        let outcome = ThreadedTransport.execute(vec![spec], &RuntimeConfig::default()).unwrap();
        assert_eq!(outcome.relation(answer).len(), 15);
        assert!(outcome.stats.communication_free());
    }

    #[test]
    fn misnumbered_processor_and_out_of_range_route_are_rejected() {
        let (spec, _) = crate::fixtures::lone_worker();
        let mut misnumbered = spec.clone();
        misnumbered.program.processor = 5;
        assert!(ThreadedTransport.execute(vec![misnumbered], &RuntimeConfig::default()).is_err());
        let mut astray = spec;
        astray.program.routes[0].dests[0].0 = 3;
        assert!(ThreadedTransport.execute(vec![astray], &RuntimeConfig::default()).is_err());
    }

    #[test]
    fn empty_spec_list_is_rejected() {
        assert!(ThreadedTransport.execute(vec![], &RuntimeConfig::default()).is_err());
    }

    /// A route key that sends every row to processor 7.
    struct Misdirect(Vec<gst_frontend::Variable>);

    impl gst_frontend::Constraint for Misdirect {
        fn variables(&self) -> &[gst_frontend::Variable] {
            &self.0
        }
        fn holds(&self, _: &[gst_common::Word]) -> bool {
            true
        }
        fn describe(&self, _: &Interner) -> String {
            "misdirect".into()
        }
        fn partition(&self, _: &[gst_common::Word]) -> Option<usize> {
            Some(7)
        }
    }

    /// A peer failure must not hang the fleet — and must not even need
    /// the watchdog: the supervisor broadcasts `Abort` the moment the
    /// fatal error is reported, so the fleet tears down in milliseconds.
    #[test]
    fn worker_failure_is_detected_not_hung() {
        // Worker 0's route hashes its first row to a processor the fleet
        // does not have — its advance fails immediately.
        let (mut specs, _) = crate::fixtures::pipeline();
        let route = &mut specs[0].program.routes[0];
        route.key = Some(Arc::new(Misdirect(route.source.variables().collect())));

        // Pin the watchdog far above the timing bound: finishing under
        // the bound then proves the Abort broadcast (not the watchdog)
        // performed the teardown, with enough slack that scheduler
        // starvation on a loaded machine cannot flake the assertion.
        let mut config = RuntimeConfig::default();
        config.worker.idle_watchdog = std::time::Duration::from_secs(300);
        let started = std::time::Instant::now();
        let err = ThreadedTransport.execute(specs, &config).unwrap_err();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(60),
            "abort must tear the fleet down long before any watchdog"
        );
        let message = err.to_string();
        assert!(
            message.contains("processor 7"),
            "the causal error (not teardown noise) must surface: {message}"
        );
    }

    /// Crash recovery end to end on OS threads: a fail-point kills one
    /// worker's first incarnation mid-run; the supervisor restarts it,
    /// the fleet enters the new epoch, replays, and still computes the full
    /// least model.
    #[test]
    fn fail_point_crash_recovers_on_threads() {
        let (specs, answer) = crate::fixtures::chain_fleet(2, 8);

        let baseline =
            ThreadedTransport.execute(specs.clone(), &RuntimeConfig::default()).unwrap();

        let mut config = RuntimeConfig::default();
        config.supervisor.fail_point = Some(crate::coordinator::FailPoint {
            worker: 1,
            after_steps: 3,
        });
        let recovered = ThreadedTransport.execute(specs.clone(), &config).unwrap();
        assert_eq!(recovered.stats.restarts, 1, "exactly one restart");
        assert!(
            recovered
                .relation(answer)
                .set_eq(&baseline.relation(answer)),
            "recovery must reach the exact least model"
        );
        assert!(!recovered.relation(answer).is_empty());

        // With recovery disabled the same fail-point aborts the run fast
        // with the injected (typed) error. The watchdog is pinned far
        // above the bound so passing it proves the Abort path (see
        // `worker_failure_is_detected_not_hung`).
        let mut config = RuntimeConfig::default();
        config.supervisor.max_restarts = 0;
        config.worker.idle_watchdog = std::time::Duration::from_secs(300);
        config.supervisor.fail_point = Some(crate::coordinator::FailPoint {
            worker: 1,
            after_steps: 3,
        });
        let started = std::time::Instant::now();
        let err = ThreadedTransport.execute(specs, &config).unwrap_err();
        assert!(started.elapsed() < std::time::Duration::from_secs(60), "no hang");
        assert!(err.to_string().contains("fail-point"), "got: {err}");
    }
}
