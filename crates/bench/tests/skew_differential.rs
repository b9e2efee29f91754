//! Differential tests for the skew-aware partition (DESIGN.md §13).
//!
//! The skew-aware partition reroutes hot keys and replicates their
//! complementary fragments (§6 `R_i`), which changes communication but must
//! never change the least model, on any transport.

use gst_core::prelude::{decode_constraint, skew_aware_hash_partition, SkewPolicy};
use gst_eval::seminaive_eval;
use gst_frontend::LinearSirup;
use gst_runtime::{
    FaultPlan, InProcessLauncher, NetConfig, NetCoordinator, RuntimeConfig, Transport,
};
use gst_storage::Relation;
use gst_workloads::{chain, linear_ancestor, random_digraph, star, zipf_digraph};
use std::sync::Arc;

/// Seeded workload suite: the skew stressors plus uniform shapes, so a
/// bug that only bites on balanced or on degenerate inputs still
/// surfaces.
fn workloads() -> Vec<(&'static str, Relation)> {
    vec![
        ("zipf", zipf_digraph(300, 240, 30, 42)),
        ("star", star(64)),
        ("chain", chain(48)),
        ("random-7", random_digraph(60, 180, 7)),
        ("random-99", random_digraph(80, 200, 99)),
    ]
}

/// The skew-aware partition — hot keys split by the secondary hash,
/// complementary fragments replicated — pins the sequential least model
/// bit-identically on all three transports (threaded, deterministic
/// simulation, TCP loopback), and non-vacuously: the skewed workloads must
/// actually split at least one hot key.
#[test]
fn skew_aware_models_bit_identical_on_all_transports() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let anc = fx.output_id();
    let config = RuntimeConfig::default();

    for (wname, data) in &workloads() {
        let db = fx.database(data);
        let oracle = seminaive_eval(&fx.program, &db).unwrap();
        let reference = oracle.relation(anc).sorted();
        for n in [2usize, 4] {
            let scheme = skew_aware_hash_partition(&sirup, n, &db, &SkewPolicy::default()).unwrap();
            if matches!(*wname, "zipf" | "star") {
                assert!(
                    scheme.hot_keys_split >= 1,
                    "{wname}/N={n}: skewed workload split no hot key (vacuous test)"
                );
            }

            let threaded = scheme.execute(&config).unwrap();
            assert_eq!(
                threaded.relation(anc).sorted(),
                reference,
                "{wname}/N={n}: threaded skew-aware model differs from the oracle"
            );

            let sim = scheme
                .run_simulated_with(42, FaultPlan::default(), &config)
                .unwrap();
            assert_eq!(
                sim.relation(anc).sorted(),
                reference,
                "{wname}/N={n}: simulated skew-aware model differs from the oracle"
            );

            let net = NetCoordinator::new(
                Arc::new(InProcessLauncher {
                    decoder: Some(decode_constraint),
                }),
                NetConfig::default(),
            );
            let net_outcome = net.execute(scheme.workers.clone(), &config).unwrap();
            assert_eq!(
                net_outcome.relation(anc).sorted(),
                reference,
                "{wname}/N={n}: tcp-loopback skew-aware model differs from the oracle"
            );
        }
    }
}
