//! Differential acceptance suite for incremental view maintenance.
//!
//! The update session (DRed over the parallel runtime; see DESIGN.md
//! §11) claims that after *any* stream of base-fact insert/delete
//! batches, the maintained view is bit-identical to recomputing the
//! source program from scratch over the updated database. These tests
//! check exactly that, the brute-force way: seeded random update
//! streams over the standard workload shapes (chain, grid, random
//! digraph), every batch followed by a full sequential recompute that
//! the maintained answer must equal as a set — on the threaded
//! transport *and* under the deterministic simulation transport, for
//! more than 200 seeds in total.
//!
//! The streams are adversarial on purpose: deletes target *existing*
//! edges most of the time (so over-deletion cones are non-trivial),
//! re-insertion of just-deleted edges is common (so rederivation and
//! tombstone-slot reuse are exercised), and some deletes are of absent
//! tuples (no-ops that must not perturb the view).

use std::sync::Arc;

use gst_common::{ituple, SmallRng, Tuple};
use gst_core::prelude::{
    rewrite_general, DiscriminatorRef, HashMod, RuleChoice, UpdateBatch, UpdateSession,
};
use gst_core::schemes::BaseDistribution;
use gst_core::session::RoundReport;
use gst_eval::seminaive_eval;
use gst_eval::plan::RelationId;
use gst_runtime::{RuntimeConfig, SimTransport, ThreadedTransport, Transport};
use gst_storage::Relation;
use gst_workloads::{chain, grid, linear_ancestor, random_digraph, Fixture};

/// The workload shapes the streams mutate. Small on purpose: each seed
/// runs several full fixpoints plus one sequential recompute per batch.
fn workloads() -> Vec<(&'static str, Relation, u64)> {
    vec![
        // (name, initial edges, node-universe size for random ops)
        ("chain", chain(10), 14),
        ("grid", grid(3, 4), 16),
        ("random", random_digraph(12, 22, 5), 14),
    ]
}

/// Transitive closure over 3 workers through the §7 general scheme,
/// wrapped in an update session.
fn tc_session(fx: &Fixture, edges: &Relation, disc_seed: u64) -> UpdateSession {
    let db = fx.database(edges);
    let h: DiscriminatorRef = Arc::new(HashMod::new(3, disc_seed));
    let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
    let scheme =
        rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
    UpdateSession::new(&scheme, &fx.program, &db).unwrap()
}

/// One seeded random batch: mostly deletes of live edges and inserts of
/// fresh pairs, with a sprinkle of absent-tuple deletes (no-ops) and
/// re-inserts of tuples deleted in the same batch.
fn random_batch(rng: &mut SmallRng, session: &UpdateSession, edge: RelationId, nodes: u64) -> UpdateBatch {
    let live: Vec<Tuple> = session
        .edb()
        .relation(edge)
        .map(|r| r.iter().cloned().collect())
        .unwrap_or_default();
    let mut batch = UpdateBatch::default();
    for _ in 0..rng.gen_inclusive(1, 5) {
        match rng.gen_below(10) {
            // Delete a live edge (the interesting case: a real cone).
            0..=3 => {
                if let Some(t) = rng.choose(&live) {
                    batch.deletes.push((edge, t.clone()));
                }
            }
            // Delete an absent edge: must be a no-op.
            4 => {
                let (a, b) = (rng.gen_below(nodes) as i64, rng.gen_below(nodes) as i64);
                batch.deletes.push((edge, ituple![a + 100, b + 100]));
            }
            // Re-insert something deleted earlier in this very batch.
            5 => {
                if let Some((p, t)) = rng.choose(&batch.deletes).cloned() {
                    batch.inserts.push((p, t));
                }
            }
            // Insert a random pair from the node universe.
            _ => {
                let (a, b) = (rng.gen_below(nodes) as i64, rng.gen_below(nodes) as i64);
                batch.inserts.push((edge, ituple![a, b]));
            }
        }
    }
    batch
}

/// Drive one seeded stream through a session on the given transport,
/// asserting the maintained view equals a from-scratch recompute after
/// every single batch. Returns the per-round reports for meta-checks.
fn check_stream<T: Transport + ?Sized>(
    label: &str,
    seed: u64,
    edges: &Relation,
    nodes: u64,
    batches: usize,
    transport: &T,
) -> Vec<RoundReport> {
    let fx = linear_ancestor();
    let (anc, edge) = (fx.output_id(), fx.input_id(0));
    let mut session = tc_session(&fx, edges, seed ^ 0x9e37);
    let config = RuntimeConfig::default();
    session.initialize(transport, &config).unwrap();

    let mut rng = SmallRng::seed_from_u64(seed);
    for round in 1..=batches {
        let batch = random_batch(&mut rng, &session, edge, nodes);
        session.apply(&batch, transport, &config).unwrap();
        let oracle = seminaive_eval(&fx.program, session.edb()).unwrap();
        let maintained = session.answer(anc);
        assert!(
            maintained.set_eq(&oracle.relation(anc)),
            "{label} seed {seed} round {round}: maintained view diverged \
             ({} vs {} tuples) after {:?}",
            maintained.len(),
            oracle.relation(anc).len(),
            batch
        );
    }
    session.reports().to_vec()
}

/// 120 seeded streams (3 workloads × 40 seeds) × 3 batches each on the
/// threaded transport: every batch's maintained view equals the
/// recompute-from-scratch oracle.
#[test]
fn threaded_streams_match_recompute() {
    let transport = ThreadedTransport;
    let mut overdeleted = 0u64;
    let mut rederived = 0u64;
    for (name, edges, nodes) in &workloads() {
        for seed in 0..40 {
            for r in check_stream(name, seed, edges, *nodes, 3, &transport) {
                overdeleted += r.overdeleted;
                rederived += r.rederive_seeds;
            }
        }
    }
    // The sweep is only meaningful if the streams actually exercised
    // the DRed machinery: cones must have been cut and support rebuilt.
    assert!(overdeleted > 0, "no stream ever over-deleted anything");
    assert!(rederived > 0, "no stream ever rederived from surviving support");
}

/// 120 more seeded streams (3 workloads × 40 seeds, disjoint from the
/// threaded range) under the deterministic simulation transport: the
/// virtual-clock scheduler reorders every phase's deliveries, and the
/// maintained view must still equal the oracle after every batch.
#[test]
fn simulated_streams_match_recompute() {
    for (name, edges, nodes) in &workloads() {
        for seed in 1000u64..1040 {
            let transport = SimTransport::new(seed.wrapping_mul(0x2545f4914f6cdd1d));
            check_stream(name, seed, edges, *nodes, 3, &transport);
        }
    }
}

/// A long single stream: 40 consecutive batches on one session (chain
/// start), alternating growth and decay so the view both expands and
/// collapses. State carried across 40 rounds must never drift from the
/// oracle, and tombstone reuse must keep the arena from diverging.
#[test]
fn long_stream_does_not_drift() {
    let fx = linear_ancestor();
    let (anc, edge) = (fx.output_id(), fx.input_id(0));
    let edges = chain(8);
    let mut session = tc_session(&fx, &edges, 77);
    let transport = ThreadedTransport;
    let config = RuntimeConfig::default();
    session.initialize(&transport, &config).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xdecaf);
    for round in 1..=40 {
        let batch = random_batch(&mut rng, &session, edge, 12);
        session.apply(&batch, &transport, &config).unwrap();
        let oracle = seminaive_eval(&fx.program, session.edb()).unwrap();
        assert!(
            session.answer(anc).set_eq(&oracle.relation(anc)),
            "round {round}: long-running session drifted from the oracle"
        );
    }
    assert_eq!(session.rounds(), 41);
}

/// The empty batch and the all-absent-deletes batch are observable
/// no-ops: no phases run, the view is untouched.
#[test]
fn degenerate_batches_are_no_ops() {
    let fx = linear_ancestor();
    let (anc, edge) = (fx.output_id(), fx.input_id(0));
    let mut session = tc_session(&fx, &chain(6), 3);
    let transport = ThreadedTransport;
    let config = RuntimeConfig::default();
    session.initialize(&transport, &config).unwrap();
    let before = session.answer(anc);

    let empty = UpdateBatch::default();
    let r = session.apply(&empty, &transport, &config).unwrap().clone();
    assert!(r.phase_a.is_none() && r.phase_b.is_none());

    let phantom = UpdateBatch {
        inserts: vec![],
        deletes: vec![(edge, ituple![404, 404])],
    };
    let r = session.apply(&phantom, &transport, &config).unwrap().clone();
    assert_eq!((r.deleted_base, r.overdeleted), (0, 0));
    assert!(session.answer(anc).set_eq(&before));
}

/// Deleting every base fact and reinserting the original set round-trips
/// to exactly the initial view — the maintained state fully collapses
/// (every derived tuple tombstoned) and fully rebuilds.
#[test]
fn full_collapse_and_rebuild_roundtrips() {
    let fx = linear_ancestor();
    let (anc, edge) = (fx.output_id(), fx.input_id(0));
    let edges = grid(3, 3);
    let mut session = tc_session(&fx, &edges, 11);
    let transport = ThreadedTransport;
    let config = RuntimeConfig::default();
    session.initialize(&transport, &config).unwrap();
    let initial = session.answer(anc);
    assert!(!initial.is_empty());

    let all: Vec<Tuple> = edges.iter().cloned().collect();
    let wipe = UpdateBatch {
        inserts: vec![],
        deletes: all.iter().map(|t| (edge, t.clone())).collect(),
    };
    let r = session.apply(&wipe, &transport, &config).unwrap();
    assert_eq!(r.rederive_seeds, 0, "nothing survives a total wipe");
    assert!(session.answer(anc).is_empty(), "view must collapse to empty");

    let restore = UpdateBatch {
        inserts: all.iter().map(|t| (edge, t.clone())).collect(),
        deletes: vec![],
    };
    session.apply(&restore, &transport, &config).unwrap();
    assert!(
        session.answer(anc).set_eq(&initial),
        "restoring the base must restore the exact initial view"
    );
}

