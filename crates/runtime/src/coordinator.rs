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
    /// Pause before each restart, scaled linearly by the worker's restart
    /// count (crash-looping workers back off harder).
    pub restart_backoff: std::time::Duration,
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
            restart_backoff: std::time::Duration::from_millis(10),
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
    /// Per-worker knobs (poll interval, watchdog).
    pub worker: WorkerConfig,
    /// Crash-recovery knobs (restart budget, backoff, fail-point).
    pub supervisor: SupervisorConfig,
    /// Record the event journal ([`crate::obs`]). Off by default: workers
    /// then carry disabled sinks and pay one branch per would-be event.
    pub trace: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChannelOut, ProcessorProgram, WorkerSpec};
    use crate::transport::{ThreadedTransport, Transport};
    use gst_common::{ituple, Interner};
    use gst_frontend::parse_program;
    use gst_storage::Database;
    use std::sync::Arc;

    /// Hand-built two-processor pipeline:
    /// processor 0 derives t0 from its fragment and ships everything to 1;
    /// processor 1 stores what it receives. Exercise wiring, inboxes,
    /// pooling and termination without the rewrite layer.
    #[test]
    fn two_stage_pipeline_pools_results() {
        let interner = Interner::new();
        // Processor 0: out0(X) :- e(X). ship0 holds what goes to 1.
        let unit0 = gst_frontend::parser::parse_program_with(
            "out0(X) :- e(X).\n\
             ship0(X) :- out0(X).",
            &interner,
        )
        .unwrap();
        // Processor 1: out1(X) :- inbox1(X).
        let unit1 = gst_frontend::parser::parse_program_with("out1(X) :- inbox1(X).", &interner)
            .unwrap();

        let e = (interner.intern("e"), 1);
        let ship0 = (interner.get("ship0").unwrap(), 1);
        let inbox1 = (interner.intern("inbox1"), 1);
        let out0 = (interner.get("out0").unwrap(), 1);
        let out1 = (interner.get("out1").unwrap(), 1);
        let answer = (interner.intern("answer"), 1);

        let mut db0 = Database::new(interner.clone());
        db0.insert(e, ituple![1]).unwrap();
        db0.insert(e, ituple![2]).unwrap();
        let db1 = Database::new(interner.clone());

        let spec0 = WorkerSpec {
            program: ProcessorProgram {
                processor: 0,
                program: unit0.program,
                outgoing: vec![ChannelOut {
                    channel: ship0,
                    dest: 1,
                    inbox: inbox1,
                }],
                inboxes: vec![],
                processing_rules: vec![0],
                pooling: vec![(out0, answer)],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(db0),
            session: None,
        };
        let spec1 = WorkerSpec {
            program: ProcessorProgram {
                processor: 1,
                program: unit1.program,
                outgoing: vec![],
                inboxes: vec![inbox1],
                processing_rules: vec![0],
                pooling: vec![(out1, answer)],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(db1),
            session: None,
        };

        let outcome =
            ThreadedTransport.execute(vec![spec0, spec1], &RuntimeConfig::default()).unwrap();
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
        let unit = parse_program("t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).\ne(1,2). e(2,3).")
            .unwrap();
        let mut db = Database::new(unit.program.interner.clone());
        db.load_facts(unit.facts.clone()).unwrap();
        let t = (unit.program.interner.get("t").unwrap(), 2);
        let global = (unit.program.interner.intern("t_answer"), 2);
        let spec = WorkerSpec {
            program: ProcessorProgram {
                processor: 0,
                program: unit.program.clone(),
                outgoing: vec![],
                inboxes: vec![],
                processing_rules: vec![0, 1],
                pooling: vec![(t, global)],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(db),
            session: None,
        };
        let outcome = ThreadedTransport.execute(vec![spec], &RuntimeConfig::default()).unwrap();
        assert_eq!(outcome.relation(global).len(), 3);
        assert!(outcome.stats.communication_free());
    }

    #[test]
    fn misnumbered_processor_is_rejected() {
        let unit = parse_program("t(X) :- e(X).").unwrap();
        let spec = WorkerSpec {
            program: ProcessorProgram {
                processor: 5,
                program: unit.program.clone(),
                outgoing: vec![],
                inboxes: vec![],
                processing_rules: vec![],
                pooling: vec![],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(Database::new(unit.program.interner.clone())),
            session: None,
        };
        assert!(ThreadedTransport.execute(vec![spec], &RuntimeConfig::default()).is_err());
    }

    #[test]
    fn out_of_range_channel_is_rejected() {
        let unit = parse_program("t(X) :- e(X).").unwrap();
        let interner = unit.program.interner.clone();
        let spec = WorkerSpec {
            program: ProcessorProgram {
                processor: 0,
                program: unit.program.clone(),
                outgoing: vec![ChannelOut {
                    channel: (interner.intern("c"), 1),
                    dest: 3,
                    inbox: (interner.intern("i"), 1),
                }],
                inboxes: vec![],
                processing_rules: vec![],
                pooling: vec![],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(Database::new(interner)),
            session: None,
        };
        assert!(ThreadedTransport.execute(vec![spec], &RuntimeConfig::default()).is_err());
    }

    #[test]
    fn empty_spec_list_is_rejected() {
        assert!(ThreadedTransport.execute(vec![], &RuntimeConfig::default()).is_err());
    }

    /// A peer failure must not hang the fleet — and must not even need
    /// the watchdog: the supervisor broadcasts `Abort` the moment the
    /// fatal error is reported, so the fleet tears down in milliseconds.
    #[test]
    fn worker_failure_is_detected_not_hung() {
        let interner = Interner::new();
        // Worker 0 ships e-tuples (arity 1) into an inbox that worker 1
        // declares with arity 2 — worker 1's inject fails immediately.
        let unit0 = gst_frontend::parser::parse_program_with(
            "out0(X) :- e(X).\nship0(X) :- out0(X).",
            &interner,
        )
        .unwrap();
        let unit1 =
            gst_frontend::parser::parse_program_with("out1(X,Y) :- inbox1(X,Y).", &interner)
                .unwrap();
        let e = (interner.intern("e"), 1);
        let ship0 = (interner.get("ship0").unwrap(), 1);
        let inbox1_wrong = (interner.intern("inbox1"), 2);

        let mut db0 = Database::new(interner.clone());
        db0.insert(e, ituple![1]).unwrap();

        let spec0 = WorkerSpec {
            program: ProcessorProgram {
                processor: 0,
                program: unit0.program,
                outgoing: vec![ChannelOut {
                    channel: ship0,
                    dest: 1,
                    inbox: inbox1_wrong,
                }],
                inboxes: vec![],
                processing_rules: vec![0],
                pooling: vec![],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(db0),
            session: None,
        };
        let spec1 = WorkerSpec {
            program: ProcessorProgram {
                processor: 1,
                program: unit1.program,
                outgoing: vec![],
                inboxes: vec![inbox1_wrong],
                processing_rules: vec![0],
                pooling: vec![],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(Database::new(interner.clone())),
            session: None,
        };

        // Pin the watchdog far above the timing bound: finishing under
        // the bound then proves the Abort broadcast (not the watchdog)
        // performed the teardown, with enough slack that scheduler
        // starvation on a loaded machine cannot flake the assertion.
        let mut config = RuntimeConfig::default();
        config.worker.idle_watchdog = std::time::Duration::from_secs(300);
        let started = std::time::Instant::now();
        let err = ThreadedTransport.execute(vec![spec0, spec1], &config).unwrap_err();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(60),
            "abort must tear the fleet down long before any watchdog"
        );
        let message = err.to_string();
        assert!(
            message.contains("arity"),
            "the causal error (not teardown noise) must surface: {message}"
        );
    }

    /// Crash recovery end to end on OS threads: a fail-point kills one
    /// worker's first incarnation mid-run; the supervisor restarts it,
    /// the fleet repairs the ring, replays, and still computes the full
    /// least model.
    #[test]
    fn fail_point_crash_recovers_on_threads() {
        let interner = Interner::new();
        let unit0 = gst_frontend::parser::parse_program_with(
            "t0(X,Y) :- e0(X,Y).\n\
             t0(X,Y) :- e0(X,Z), in0(Z,Y).\n\
             ship0(Z,Y) :- t0(Z,Y).",
            &interner,
        )
        .unwrap();
        let unit1 = gst_frontend::parser::parse_program_with(
            "t1(X,Y) :- e1(X,Z), in1(Z,Y).\n\
             ship1(Z,Y) :- t1(Z,Y).",
            &interner,
        )
        .unwrap();
        let e0 = (interner.get("e0").unwrap(), 2);
        let e1 = (interner.get("e1").unwrap(), 2);
        let t0 = (interner.get("t0").unwrap(), 2);
        let t1 = (interner.get("t1").unwrap(), 2);
        let in0 = (interner.intern("in0"), 2);
        let in1 = (interner.intern("in1"), 2);
        let ship0 = (interner.get("ship0").unwrap(), 2);
        let ship1 = (interner.get("ship1").unwrap(), 2);
        let answer = (interner.intern("t"), 2);
        let mut db0 = Database::new(interner.clone());
        let mut db1 = Database::new(interner.clone());
        for k in 0..8i64 {
            let id = if k % 2 == 0 { e0 } else { e1 };
            let db = if k % 2 == 0 { &mut db0 } else { &mut db1 };
            db.insert(id, ituple![k, k + 1]).unwrap();
        }
        let specs = vec![
            WorkerSpec {
                program: ProcessorProgram {
                    processor: 0,
                    program: unit0.program,
                    outgoing: vec![ChannelOut { channel: ship0, dest: 1, inbox: in1 }],
                    inboxes: vec![in0],
                    processing_rules: vec![0, 1],
                    pooling: vec![(t0, answer)],
                    local_idb: vec![],
                    retract_channels: vec![],
                },
                edb: Arc::new(db0),
                session: None,
            },
            WorkerSpec {
                program: ProcessorProgram {
                    processor: 1,
                    program: unit1.program,
                    outgoing: vec![ChannelOut { channel: ship1, dest: 0, inbox: in0 }],
                    inboxes: vec![in1],
                    processing_rules: vec![0],
                    pooling: vec![(t1, answer)],
                    local_idb: vec![],
                    retract_channels: vec![],
                },
                edb: Arc::new(db1),
                session: None,
            },
        ];

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
