//! Theorems 2 and 6 (non-redundancy): the total number of successful
//! ground substitutions of the processing rules across all processors is
//! bounded by the sequential semi-naive count — on every dataset, for
//! every processor count, for both the §3 and §7 schemes.

use std::sync::Arc;

use parallel_datalog::core::schemes::BaseDistribution;
use parallel_datalog::prelude::*;
use parallel_datalog::workloads::{
    chain, cycle, grid, layered, linear_ancestor, nonlinear_ancestor, random_digraph,
};

fn datasets() -> Vec<(&'static str, Relation)> {
    vec![
        ("chain", chain(20)),
        ("cycle", cycle(8)),
        ("grid", grid(5, 5)),
        ("layered", layered(4, 5, 2, 11)),
        ("random", random_digraph(20, 50, 3)),
    ]
}

#[test]
fn theorem2_on_the_non_redundant_scheme() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    for n in [2usize, 3, 4, 8] {
        for (name, edges) in datasets() {
            let db = fx.database(&edges);
            let seq = seminaive_eval(&fx.program, &db).unwrap();
            let scheme = example3_hash_partition(&sirup, n, &db).unwrap();
            let outcome = scheme.run().unwrap();
            assert!(
                outcome.stats.total_processing_firings() <= seq.stats.firings,
                "dataset {name}, n={n}: parallel {} > sequential {}",
                outcome.stats.total_processing_firings(),
                seq.stats.firings
            );
        }
    }
}

#[test]
fn theorem2_on_example1_and_example2() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    for (name, edges) in datasets() {
        let db = fx.database(&edges);
        let seq = seminaive_eval(&fx.program, &db).unwrap();

        let e1 = example1_wolfson(&sirup, 4, &db).unwrap().run().unwrap();
        assert!(
            e1.stats.total_processing_firings() <= seq.stats.firings,
            "Example 1 on {name}"
        );

        let frag = round_robin_fragment(&edges, 4).unwrap();
        let e2 = example2_valduriez(&sirup, frag, &db).unwrap().run().unwrap();
        assert!(
            e2.stats.total_processing_firings() <= seq.stats.firings,
            "Example 2 on {name}"
        );
    }
}

#[test]
fn theorem6_on_the_general_scheme() {
    let fx = nonlinear_ancestor();
    let h: DiscriminatorRef = Arc::new(HashMod::new(4, 13));
    let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
    for (name, edges) in datasets() {
        let db = fx.database(&edges);
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let scheme =
            rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
        let outcome = scheme.run().unwrap();
        assert!(
            outcome.stats.total_processing_firings() <= seq.stats.firings,
            "dataset {name}: parallel {} > sequential {}",
            outcome.stats.total_processing_firings(),
            seq.stats.firings
        );
    }
}

/// Definition 1's exact accounting on a duplicate-free workload: on a
/// chain, every scheme and the sequential engine fire exactly once per
/// derivable tuple.
#[test]
fn chain_firings_are_exact() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let edges = chain(25);
    let db = fx.database(&edges);
    let closure_size = 25 * 26 / 2;

    let seq = seminaive_eval(&fx.program, &db).unwrap();
    assert_eq!(seq.stats.firings, closure_size);
    assert_eq!(seq.stats.duplicates, 0);

    let outcome = example3_hash_partition(&sirup, 4, &db)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.stats.total_processing_firings(), closure_size);
}

/// The redundant scheme's overshoot is real and measured: on a grid the
/// zero-communication scheme fires strictly more than sequential.
#[test]
fn no_comm_scheme_is_redundant_where_expected() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let db = fx.database(&grid(6, 6));
    let seq = seminaive_eval(&fx.program, &db).unwrap();
    let h: DiscriminatorRef = Arc::new(HashMod::new(4, 11));
    let policies = [RulePolicy::shared(vec![fx.program.var("X")], &h), RulePolicy::local(vec![], Constant::each(4))];
    let outcome = rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§6 no-comm").unwrap().run().unwrap();
    assert!(
        outcome.stats.total_processing_firings() > seq.stats.firings,
        "grid workload must show redundancy: {} vs {}",
        outcome.stats.total_processing_firings(),
        seq.stats.firings
    );
    // ... and still compute the right answer.
    let anc = fx.output_id();
    assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
}
