//! Differential acceptance suite for demand-driven point queries
//! (magic sets on the parallel runtime; DESIGN.md §15).
//!
//! The rewrite claims that for any bound-first goal, running the magic
//! program under the demand-partitioned §7 scheme yields *exactly* the
//! tuples a full-closure run would yield filtered to the goal — never a
//! subset, never extras from transitively demanded bindings. These
//! tests check that equality the brute-force way: seeded chain / grid /
//! random / zipf EDBs, random query constants, left- and right-linear
//! recursion, on all three transports (threaded, deterministic
//! simulation, TCP loopback), through injected crash/recovery, and
//! composed with incremental update batches.
//!
//! Tests prefixed `fast_` form the tier the CI `magic-smoke` job runs
//! on every push; the rest ride the full suite.

use std::sync::Arc;

use gst_common::{ituple, SmallRng, Tuple, Value};
use gst_core::prelude::{compile_demand, decode_constraint, UpdateBatch, UpdateSession};
use gst_eval::seminaive_eval;
use gst_frontend::magic::{magic_rewrite, MagicRewrite};
use gst_frontend::{Atom, Term, Variable};
use gst_runtime::{
    FaultPlan, InProcessLauncher, NetConfig, NetCoordinator, RuntimeConfig, Transport,
};
use gst_storage::{Database, Relation};
use gst_workloads::{
    chain, grid, linear_ancestor, random_digraph, right_linear_ancestor, zipf_digraph, Fixture,
};

/// The EDB shapes under test, with the node universe a random query
/// constant is drawn from. Small on purpose: every case also runs a
/// sequential full closure as its oracle.
fn workloads() -> Vec<(&'static str, Relation, u64)> {
    vec![
        ("chain", chain(24), 26),
        ("grid", grid(4, 5), 20),
        ("random", random_digraph(40, 90, 11), 40),
        ("zipf", zipf_digraph(80, 64, 16, 7), 80),
    ]
}

/// Both recursion shapes: demand stays at the seed under right-linear
/// rules and propagates down reachability under left-linear ones.
fn programs() -> Vec<(&'static str, Fixture)> {
    vec![
        ("left-linear", linear_ancestor()),
        ("right-linear", right_linear_ancestor()),
    ]
}

/// Bound-first point query `anc(c, Y)`.
fn point_query(fx: &Fixture, c: i64) -> Atom {
    let y = Variable(fx.program.interner.intern("QY"));
    Atom::new(fx.output_id().0, vec![Term::Const(Value::Int(c)), Term::Var(y)])
}

/// The full closure of the *original* program, filtered to the goal —
/// the ground truth every demand-bounded run must reproduce exactly.
fn oracle(fx: &Fixture, db: &Database, rw: &MagicRewrite) -> Relation {
    let seq = seminaive_eval(&fx.program, db).unwrap();
    filter_answers(&seq.relation(fx.output_id()), rw)
}

fn filter_answers(rel: &Relation, rw: &MagicRewrite) -> Relation {
    let mut out = Relation::new(rw.answer.arity);
    for t in rel.iter() {
        if rw.answer_matches(t) {
            out.insert(t.clone()).unwrap();
        }
    }
    out
}

/// Fast tier: every workload × both recursion shapes × random query
/// constants on the threaded transport at N=3 — the demand-bounded
/// answer must equal the filtered full closure, and across the sweep
/// some queries must be non-empty (a vacuously empty sweep proves
/// nothing).
#[test]
fn fast_point_queries_match_filtered_closure_threaded() {
    let mut rng = SmallRng::seed_from_u64(0x3a61c);
    let mut nonempty = 0usize;
    for (pname, fx) in &programs() {
        for (wname, data, nodes) in &workloads() {
            let db = fx.database(data);
            for _ in 0..4 {
                let c = rng.gen_below(*nodes) as i64;
                let rw = magic_rewrite(&fx.program, &point_query(fx, c)).unwrap();
                let outcome = compile_demand(&rw, &db, 3).unwrap().run().unwrap();
                let got =
                    filter_answers(&outcome.relation((rw.answer.name, rw.answer.arity)), &rw);
                let want = oracle(fx, &db, &rw);
                assert!(
                    got.set_eq(&want),
                    "{pname}/{wname} c={c}: demand answers diverged ({} vs {} tuples)",
                    got.len(),
                    want.len()
                );
                nonempty += usize::from(!want.is_empty());
            }
        }
    }
    assert!(nonempty >= 8, "only {nonempty} non-empty queries; sweep is vacuous");
}

/// Fast tier: the deterministic simulation transport with an injected
/// mid-run crash marked recoverable — the supervisor restarts the
/// worker, peers replay, and the demand-bounded answer still equals the
/// filtered closure bit-for-bit.
#[test]
fn fast_simulated_crash_recovery_matches() {
    let mut rng = SmallRng::seed_from_u64(0xfa117);
    let config = RuntimeConfig::default();
    let mut crashes = 0u64;
    for (pname, fx) in &programs() {
        for (wname, data, nodes) in &workloads() {
            let db = fx.database(data);
            let c = rng.gen_below(*nodes) as i64;
            let rw = magic_rewrite(&fx.program, &point_query(fx, c)).unwrap();
            let scheme = compile_demand(&rw, &db, 3).unwrap();
            let want = oracle(fx, &db, &rw);
            // A one-key plan runs on one processor: crash the last there is.
            let crash = format!("chaos,crash={}@40,recover", scheme.processors() - 1);
            for (fname, plan) in [
                ("jitter", FaultPlan::parse("jitter").unwrap()),
                ("crash+recover", FaultPlan::parse(&crash).unwrap()),
            ] {
                let seed = rng.gen_below(1 << 20);
                let outcome = scheme.run_simulated_with(seed, plan, &config).unwrap();
                let got =
                    filter_answers(&outcome.relation((rw.answer.name, rw.answer.arity)), &rw);
                assert!(
                    got.set_eq(&want),
                    "{pname}/{wname}/{fname} c={c} seed={seed}: recovered answer diverged"
                );
                if fname == "crash+recover" {
                    crashes += outcome.stats.restarts as u64;
                }
            }
        }
    }
    // A demand-bounded run can finish before virtual time 40, so the
    // crash cannot land in every case — but it must land somewhere, or
    // the recovery half of this sweep proved nothing.
    assert!(crashes >= 1, "no crash plan ever fired across the sweep (vacuous)");
}

/// TCP loopback (full wire protocol, in-process workers): the magic
/// program's constraints decode on the far side of a real socket and
/// the pooled answer equals the filtered closure.
#[test]
fn tcp_loopback_matches_filtered_closure() {
    let mut rng = SmallRng::seed_from_u64(0x7c9);
    let config = RuntimeConfig::default();
    for (pname, fx) in &programs() {
        for (wname, data, nodes) in [
            ("random", random_digraph(40, 90, 11), 40u64),
            ("zipf", zipf_digraph(80, 64, 16, 7), 80),
        ] {
            let db = fx.database(&data);
            let c = rng.gen_below(nodes) as i64;
            let rw = magic_rewrite(&fx.program, &point_query(fx, c)).unwrap();
            let scheme = compile_demand(&rw, &db, 3).unwrap();
            let net = NetCoordinator::new(
                Arc::new(InProcessLauncher { decoder: Some(decode_constraint) }),
                NetConfig::default(),
            );
            let outcome = net.execute(scheme.workers.clone(), &config).unwrap();
            let got = filter_answers(&outcome.relation((rw.answer.name, rw.answer.arity)), &rw);
            assert!(
                got.set_eq(&oracle(fx, &db, &rw)),
                "{pname}/{wname} c={c}: tcp-loopback answer diverged"
            );
        }
    }
}

/// One seeded random update batch: mostly deletes of live edges plus
/// inserts of random pairs from the node universe, with an occasional
/// absent-tuple delete (a no-op).
fn random_batch(
    rng: &mut SmallRng,
    session: &UpdateSession,
    edge: (gst_common::SymbolId, usize),
    nodes: u64,
) -> UpdateBatch {
    let live: Vec<Tuple> = session
        .edb()
        .relation(edge)
        .map(|r| r.iter().cloned().collect())
        .unwrap_or_default();
    let mut batch = UpdateBatch::default();
    for _ in 0..rng.gen_inclusive(1, 4) {
        match rng.gen_below(8) {
            0..=2 => {
                if let Some(t) = rng.choose(&live) {
                    batch.deletes.push((edge, t.clone()));
                }
            }
            3 => {
                let (a, b) = (rng.gen_below(nodes) as i64, rng.gen_below(nodes) as i64);
                batch.deletes.push((edge, ituple![a + 500, b + 500]));
            }
            _ => {
                let (a, b) = (rng.gen_below(nodes) as i64, rng.gen_below(nodes) as i64);
                batch.inserts.push((edge, ituple![a, b]));
            }
        }
    }
    batch
}

/// Composition with incremental maintenance: an update session over the
/// *magic* program keeps the demand-bounded view live through base-fact
/// insert/delete batches — after every batch the maintained answer
/// equals a from-scratch full closure of the original program over the
/// updated base, filtered to the goal. Threaded and simulated.
#[test]
fn update_batches_maintain_the_demand_bounded_view() {
    for (tname, sim_seed) in [("threaded", None), ("sim", Some(0xbeef_u64))] {
        let transport: Box<dyn Transport> = match sim_seed {
            None => Box::new(gst_runtime::ThreadedTransport),
            Some(s) => Box::new(gst_runtime::SimTransport::new(s)),
        };
        let config = RuntimeConfig::default();
        for (pname, fx) in &programs() {
            for (wname, data, nodes) in
                [("chain", chain(10), 14u64), ("random", random_digraph(14, 26, 5), 16)]
            {
                let db = fx.database(&data);
                let edge = fx.input_id(0);
                let c = (nodes / 2) as i64;
                let rw = magic_rewrite(&fx.program, &point_query(fx, c)).unwrap();
                let scheme = compile_demand(&rw, &db, 3).unwrap();
                let mut seeded = db.clone();
                seeded
                    .insert(
                        (rw.seed_predicate.name, rw.seed_predicate.arity),
                        rw.seed_fact.clone(),
                    )
                    .unwrap();
                let mut session =
                    UpdateSession::new(&scheme, &rw.program, &seeded).unwrap();
                session.initialize(transport.as_ref(), &config).unwrap();

                let mut rng = SmallRng::seed_from_u64(0xca11 ^ nodes);
                for round in 1..=3 {
                    let batch = random_batch(&mut rng, &session, edge, nodes);
                    session.apply(&batch, transport.as_ref(), &config).unwrap();
                    let maintained = filter_answers(
                        &session.answer((rw.answer.name, rw.answer.arity)),
                        &rw,
                    );
                    let want = filter_answers(
                        &seminaive_eval(&fx.program, session.edb()).unwrap().relation(fx.output_id()),
                        &rw,
                    );
                    assert!(
                        maintained.set_eq(&want),
                        "{tname}/{pname}/{wname} c={c} round {round}: maintained \
                         demand view diverged ({} vs {} tuples) after {batch:?}",
                        maintained.len(),
                        want.len()
                    );
                }
            }
        }
    }
}

/// Ground goals (both arguments bound) survive the whole pipeline: the
/// fully bound adornment runs in parallel and answers with exactly the
/// queried tuple or nothing.
#[test]
fn ground_goals_answer_membership_exactly() {
    let fx = linear_ancestor();
    let db = fx.database(&grid(4, 4));
    let seq = seminaive_eval(&fx.program, &db).unwrap();
    let closure = seq.relation(fx.output_id());
    let mut rng = SmallRng::seed_from_u64(0x96d);
    for _ in 0..6 {
        let (a, b) = (rng.gen_below(16) as i64, rng.gen_below(16) as i64);
        let goal = Atom::new(
            fx.output_id().0,
            vec![Term::Const(Value::Int(a)), Term::Const(Value::Int(b))],
        );
        let rw = magic_rewrite(&fx.program, &goal).unwrap();
        let outcome = compile_demand(&rw, &db, 3).unwrap().run().unwrap();
        let got = filter_answers(&outcome.relation((rw.answer.name, rw.answer.arity)), &rw);
        let member = closure.contains(&ituple![a, b]);
        assert_eq!(
            got.len(),
            usize::from(member),
            "anc({a}, {b}): membership answer wrong (closure says {member})"
        );
    }
}
