//! Acceptance tests for phase-attributed profiling (DESIGN.md §14).
//!
//! The profile is an *observation* of the run, so these tests pin the
//! properties its consumers rely on: it is strictly opt-in (no worker
//! allocates a profiler unless asked), under the simulation transport
//! it is as deterministic as the run itself (bit-identical JSON for the
//! same seed), it survives the TCP wire format round trip, and turning
//! it on never perturbs the least model.

use parallel_datalog::common::json::Json;
use parallel_datalog::prelude::*;
use parallel_datalog::runtime::{FaultPlan, ProfileReport, TimeBase};
use parallel_datalog::workloads::{graphs, linear_ancestor};

fn profiled_config() -> RuntimeConfig {
    let mut config = RuntimeConfig::default();
    config.worker.profile = true;
    config
}

fn fixture() -> (
    parallel_datalog::workloads::Fixture,
    parallel_datalog::storage::Database,
) {
    let fx = linear_ancestor();
    let edges = graphs::random_digraph(60, 180, 7);
    let db = fx.database(&edges);
    (fx, db)
}

#[test]
fn profiling_is_opt_in() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let outcome = scheme.execute(&RuntimeConfig::default()).unwrap();
    assert!(
        outcome.stats.workers.iter().all(|w| w.profile.is_none()),
        "default runs must not carry profiles"
    );
    assert!(
        ProfileReport::build(&outcome.stats, TimeBase::WallMicros).is_none(),
        "no profiles, no report"
    );
}

#[test]
fn same_seed_same_profile_json() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let config = profiled_config();
    for seed in [0u64, 3, 11] {
        let run = |_: u32| {
            let outcome = scheme
                .run_simulated_with(seed, FaultPlan::chaos(), &config)
                .unwrap();
            ProfileReport::build(&outcome.stats, TimeBase::VirtualTicks)
                .expect("profiled sim run must produce a report")
                .to_json()
        };
        let (a, b) = (run(0), run(1));
        assert!(a.contains("\"time_base\":\"virtual_ticks\""));
        assert_eq!(
            a, b,
            "seed {seed}: same seed must replay a bit-identical profile"
        );
    }
}

#[test]
fn non_ascii_rule_labels_export_as_valid_json() {
    // Identifiers may be non-ASCII, and so may the labels the magic
    // rewrite builds from them; the export must still parse.
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 2, &db).unwrap();
    let outcome = scheme
        .run_simulated_with(7, FaultPlan::none(), &profiled_config())
        .unwrap();
    let label = "ancêtre^bf [adorned r1] \"π\"";
    let text = ProfileReport::build(&outcome.stats, TimeBase::VirtualTicks)
        .unwrap()
        .with_rule_labels(vec![label.to_string(); fx.program.rules.len()])
        .to_json();
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("invalid JSON: {e}"));
    let hot = json.get("hot_rules").and_then(Json::as_arr).unwrap();
    assert!(!hot.is_empty(), "no hot rule carries a label");
    for rule in hot {
        assert_eq!(rule.get("label").and_then(Json::as_str), Some(label));
    }
}

#[test]
fn sim_profile_counts_work_not_wall_time() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let outcome = scheme
        .run_simulated_with(5, FaultPlan::jitter(), &profiled_config())
        .unwrap();
    let report = ProfileReport::build(&outcome.stats, TimeBase::VirtualTicks).unwrap();
    assert_eq!(report.unit(), "ticks");
    // Compute ticks are work proxies, not anything clock-derived: one per
    // firing, one per tuple an `advance` dedups into the arenas, and one
    // more per tuple a self-channel copies into its inbox (each of which
    // is also submitted, hence the upper bound).
    let firings: u64 = outcome.stats.workers.iter().map(|w| w.eval.firings).sum();
    let submitted: u64 = outcome
        .stats
        .workers
        .iter()
        .map(|w| w.eval.derived + w.eval.duplicates)
        .sum();
    let compute = report.merged.phases.compute;
    assert!(
        (firings + submitted..=firings + 2 * submitted).contains(&compute),
        "virtual compute ticks {compute} must cover {firings} firings + {submitted} submissions"
    );
    // The jittered schedule makes some worker wait at some point.
    assert!(report.merged.phases.idle > 0, "no idle ticks recorded");
}

#[test]
fn threaded_profile_attributes_every_round() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    // N=1 on the general path: one worker, no communication noise — the
    // wall-clock profile skeleton must still match the engine's rounds.
    let scheme = example3_hash_partition(&sirup, 1, &db).unwrap();
    let outcome = scheme.execute(&profiled_config()).unwrap();
    let report = ProfileReport::build(&outcome.stats, TimeBase::WallMicros).unwrap();
    assert_eq!(report.unit(), "us");
    assert_eq!(report.workers.len(), 1);
    let profile = &report.workers[0].1;
    let rounds = outcome.stats.workers[0].eval.rounds;
    // Wall durations differ run to run; normalize by comparing only the
    // structure — every *productive* engine round got a latency sample
    // (rounds that derive nothing end the fixpoint without one) and a
    // per-round entry, and rule time accounting covers every rule.
    assert!(
        profile.round_latency.count > 0 && profile.round_latency.count <= rounds,
        "latency samples ({}) must count productive rounds (engine ran {rounds})",
        profile.round_latency.count
    );
    assert!(
        !profile.per_round.is_empty() && profile.per_round.len() as u64 <= rounds,
        "per-round breakdown ({} entries) must stay within {rounds} engine rounds",
        profile.per_round.len()
    );
    assert_eq!(
        report.time_by_rule.len(),
        report.firings_by_rule.len(),
        "per-rule time and firing vectors must align"
    );
    assert_eq!(
        report.rounds.len(),
        profile.per_round.len(),
        "critical path covers every observed round"
    );
}

#[test]
fn profile_survives_the_tcp_wire_format() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let net = parallel_datalog::runtime::NetCoordinator::new(
        std::sync::Arc::new(parallel_datalog::runtime::InProcessLauncher {
            decoder: Some(parallel_datalog::core::prelude::decode_constraint),
        }),
        parallel_datalog::runtime::NetConfig::default(),
    );
    let outcome = net
        .execute(scheme.workers.clone(), &profiled_config())
        .unwrap();
    // Every worker's profile crossed the RESULT frame intact.
    assert_eq!(outcome.stats.workers.len(), 4);
    for w in &outcome.stats.workers {
        let p = w.profile.as_ref().expect("worker profile lost on the wire");
        assert!(
            p.phases.compute > 0,
            "worker {} shipped an empty compute phase",
            w.processor
        );
        assert!(
            p.round_latency.count > 0 && p.round_latency.count <= w.eval.rounds,
            "worker {} latency samples ({}) exceed its {} engine rounds",
            w.processor,
            p.round_latency.count,
            w.eval.rounds
        );
    }
    let report = ProfileReport::build(&outcome.stats, TimeBase::WallMicros).unwrap();
    assert_eq!(report.workers.len(), 4);
    let summed: u64 = outcome
        .stats
        .workers
        .iter()
        .filter_map(|w| w.profile.as_ref())
        .map(|p| p.phases.compute)
        .sum();
    assert_eq!(report.merged.phases.compute, summed);
}

#[test]
fn profiling_does_not_perturb_the_least_model() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let seq = seminaive_eval(&fx.program, &db).unwrap();
    let anc = fx.output_id();
    let plain = scheme.execute(&RuntimeConfig::default()).unwrap();
    let profiled = scheme.execute(&profiled_config()).unwrap();
    assert!(profiled.relation(anc).set_eq(&seq.relation(anc)));
    assert_eq!(
        plain.stats.total_firings(),
        profiled.stats.total_firings(),
        "phase timers must not change the computation they time"
    );
}

#[test]
fn profiled_recovery_still_reports_for_every_live_worker() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let seq = seminaive_eval(&fx.program, &db).unwrap();
    let plan = FaultPlan::with_recovering_crash(1, 40);
    let outcome = scheme
        .run_simulated_with(2, plan, &profiled_config())
        .unwrap();
    assert!(outcome.stats.restarts >= 1, "the crash must trigger a restart");
    // The crashed incarnation's partial profile dies with it; the
    // replacement re-installs a fresh one, so every surviving report
    // still carries a profile and the analyzer still builds.
    for w in &outcome.stats.workers {
        assert!(
            w.profile.is_some(),
            "worker {} lost its profiler across the restart",
            w.processor
        );
    }
    let report = ProfileReport::build(&outcome.stats, TimeBase::VirtualTicks).unwrap();
    assert!(report.merged.phases.compute > 0);
    let anc = fx.output_id();
    assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
}
