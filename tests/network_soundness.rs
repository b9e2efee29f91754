//! §5 validation: the compile-time network graph is sound — every channel
//! observed in a real execution is predicted — and tight in practice:
//! with enough data, predicted channels actually light up.

use std::sync::Arc;

use parallel_datalog::core::dataflow::DataflowGraph;
use parallel_datalog::prelude::*;
use parallel_datalog::workloads::{chain_sirup, example6_sirup, linear_ancestor, random_digraph};

/// Run Example 6's sirup with the bit-vector function and check observed
/// traffic against the derived Figure-3 network, over several datasets
/// and `g` seeds.
#[test]
fn example6_network_is_sound() {
    let fx = example6_sirup();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let v_r = vec![fx.program.var("Y"), fx.program.var("Z")];
    let v_e = vec![fx.program.var("X"), fx.program.var("Y")];

    for g_seed in [1u64, 2, 3] {
        let bv = BitVector::new(BitFn::new(g_seed), 2).unwrap();
        let net = derive_network(&sirup, &v_r, &v_e, &bv).unwrap();
        for data_seed in [10u64, 11] {
            let q = random_digraph(30, 70, data_seed);
            let r = random_digraph(30, 90, data_seed + 100);
            let db = fx.database_multi(&[q, r]);
            let h: DiscriminatorRef = Arc::new(bv.clone());
            let policies = [RulePolicy::shared(v_e.clone(), &h), RulePolicy::shared(v_r.clone(), &h)];
            let outcome = rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§3 Q_i")
                .unwrap()
                .run()
                .unwrap();
            let used = outcome.stats.used_channels();
            assert!(
                net.covers(&used),
                "g_seed {g_seed}, data {data_seed}: used {used:?} ⊄ derived {:?}",
                net.edges
            );
        }
    }
}

/// With enough data the derived channels are not vacuous: a large run
/// touches a decent share of them (the "minimal" direction, empirically).
#[test]
fn example6_network_is_reasonably_tight() {
    let fx = example6_sirup();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let v_r = vec![fx.program.var("Y"), fx.program.var("Z")];
    let v_e = vec![fx.program.var("X"), fx.program.var("Y")];
    let bv = BitVector::new(BitFn::new(1), 2).unwrap();
    let net = derive_network(&sirup, &v_r, &v_e, &bv).unwrap();

    let q = random_digraph(60, 240, 5);
    let r = random_digraph(60, 300, 6);
    let db = fx.database_multi(&[q, r]);
    let h: DiscriminatorRef = Arc::new(bv);
    let policies = [RulePolicy::shared(v_e, &h), RulePolicy::shared(v_r, &h)];
    let outcome = rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§3 Q_i").unwrap().run().unwrap();
    let used = outcome.stats.used_channels();
    assert!(
        used.len() * 2 >= net.edges.len(),
        "a dense run should exercise at least half the predicted channels: \
         used {used:?} of {:?}",
        net.edges
    );
}

/// The linear-function network of Example 7 is sound on real executions
/// of the chain sirup.
#[test]
fn example7_network_is_sound() {
    let fx = chain_sirup();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let v_r = vec![
        fx.program.var("V"),
        fx.program.var("W"),
        fx.program.var("Z"),
    ];
    let v_e = vec![
        fx.program.var("U"),
        fx.program.var("V"),
        fx.program.var("W"),
    ];
    let lin = Linear::new(BitFn::new(4), vec![1, -1, 1]).unwrap();
    let net = derive_network(&sirup, &v_r, &v_e, &lin).unwrap();

    let mut s = Relation::new(3);
    s.insert(ituple![0, 1, 2]).unwrap();
    s.insert(ituple![3, 4, 5]).unwrap();
    // A dense q so the recursion p(U,V,W) :- p(V,W,Z), q(U,Z) keeps
    // extending to fresh triples.
    let mut q = Relation::new(2);
    for a in 0..6i64 {
        for b in 0..6i64 {
            if a != b {
                q.insert(ituple![a, b]).unwrap();
            }
        }
    }
    let db = fx.database_multi(&[s, q]);
    let h: DiscriminatorRef = Arc::new(lin);
    let policies = [RulePolicy::shared(v_e, &h), RulePolicy::shared(v_r, &h)];
    let outcome = rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§3 Q_i").unwrap().run().unwrap();
    assert!(net.covers(&outcome.stats.used_channels()));
    // The run must actually derive something beyond the two seeds.
    let p = fx.output_id();
    assert!(outcome.relation(p).len() > 2);
}

/// Theorem 3 across the sirup corpus: every cyclic-dataflow sirup admits
/// a zero-communication execution via the chooser + symmetric hash.
#[test]
fn theorem3_zero_communication_where_cycles_exist() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    assert!(DataflowGraph::of(&sirup).has_cycle());
    for n in [2usize, 4, 7] {
        let db = fx.database(&random_digraph(25, 60, n as u64));
        let scheme = example1_wolfson(&sirup, n, &db).unwrap();
        let outcome = scheme.run().unwrap();
        assert!(
            outcome.stats.communication_free(),
            "n={n}: Theorem 3 promises zero communication"
        );
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        assert!(outcome.relation(fx.output_id()).set_eq(&seq.relation(fx.output_id())));
    }
}

/// A swap-cycle sirup (2-cycle in the dataflow graph) also goes
/// communication-free under the Theorem-3 construction.
#[test]
fn theorem3_on_a_two_cycle() {
    let unit = parse_program(
        "t(X,Y) :- s(X,Y).\n\
         t(X,Y) :- t(Y,X), e(X,Y).",
    )
    .unwrap();
    let sirup = LinearSirup::from_program(&unit.program).unwrap();
    let choice = zero_comm_choice(&sirup).unwrap();
    assert_eq!(choice.positions.len(), 2);

    let h: DiscriminatorRef = Arc::new(SymmetricHashMod::new(3, 2));
    let policies = [RulePolicy::shared(choice.v_e, &h), RulePolicy::shared(choice.v_r, &h)];
    let mut db = Database::new(unit.program.interner.clone());
    let s_id = (unit.program.interner.get("s").unwrap(), 2);
    let e_id = (unit.program.interner.get("e").unwrap(), 2);
    for k in 0..12i64 {
        db.insert(s_id, ituple![k, (k * 5) % 12]).unwrap();
        db.insert(e_id, ituple![(k * 7) % 12, k]).unwrap();
    }
    let outcome = rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§3 Q_i").unwrap().run().unwrap();
    assert!(outcome.stats.communication_free());
    let seq = seminaive_eval(&unit.program, &db).unwrap();
    let t_id = (unit.program.interner.get("t").unwrap(), 2);
    assert!(outcome.relation(t_id).set_eq(&seq.relation(t_id)));
}
