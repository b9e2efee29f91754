//! Section 7 of the paper, live: the general scheme `T_i` on programs the
//! sirup-only sections cannot touch — Example 8's non-linear ancestor and
//! a mutually recursive even/odd program — with Theorem 6's
//! non-redundancy checked against the sequential engine.
//!
//! ```text
//! cargo run --release --example nonlinear_general
//! ```

use std::sync::Arc;

use parallel_datalog::core::schemes::BaseDistribution;
use parallel_datalog::prelude::*;
use parallel_datalog::workloads::{even_odd, nonlinear_ancestor, random_digraph};

fn main() -> Result<()> {
    let n = 4;

    // ---- Example 8: non-linear ancestor ------------------------------
    // anc(X,Y) :- par(X,Y).         v(r1) = ⟨Y⟩
    // anc(X,Y) :- anc(X,Z), anc(Z,Y).  v(r2) = ⟨Z⟩,  h1 = h2 = h
    let fx = nonlinear_ancestor();
    let db = fx.database(&random_digraph(40, 90, 17));
    let h: DiscriminatorRef = Arc::new(HashMod::new(n, 13));
    let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
    let scheme = rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared)?;
    let outcome = scheme.run()?;
    let sequential = seminaive_eval(&fx.program, &db)?;
    let anc = fx.output_id();

    println!("== Example 8: non-linear ancestor on {n} processors ==");
    println!(
        "|anc| = {} (sequential {}), tuples sent = {}, processing firings = {} \
         (sequential {})",
        outcome.relation(anc).len(),
        sequential.relation(anc).len(),
        outcome.stats.total_tuples_sent(),
        outcome.stats.total_processing_firings(),
        sequential.stats.firings,
    );
    assert!(outcome.relation(anc).set_eq(&sequential.relation(anc)));
    assert!(outcome.stats.total_processing_firings() <= sequential.stats.firings);
    println!("Theorem 5 (correctness) and Theorem 6 (non-redundancy) hold ✓");
    println!(
        "note: each anc tuple (a,b) is shipped to h(b) AND h(a) — the two sending \
         rules of Example 8\n"
    );

    // ---- Mutual recursion: even/odd ----------------------------------
    let fx = even_odd();
    let len = 30i64;
    let succ: Relation = (0..len).map(|k| ituple![k, k + 1]).collect();
    let zero: Relation = [ituple![0]].into_iter().collect();
    let db = fx.database_multi(&[zero, succ]);
    let h: DiscriminatorRef = Arc::new(HashMod::new(n, 29));
    let choices = RuleChoice::by_name(&fx.program, &["X", "Y", "Y"], &h);
    let scheme = rewrite_general(&fx.program, &choices, &db, BaseDistribution::MinimalFragments)?;
    let outcome = scheme.run()?;
    let sequential = seminaive_eval(&fx.program, &db)?;
    let even = fx.output_id();
    let odd = (fx.program.interner.get("odd").unwrap(), 1);

    println!("== mutual recursion: even/odd over a successor chain of {len} ==");
    println!(
        "|even| = {}, |odd| = {}, tuples sent = {}",
        outcome.relation(even).len(),
        outcome.relation(odd).len(),
        outcome.stats.total_tuples_sent()
    );
    assert!(outcome.relation(even).set_eq(&sequential.relation(even)));
    assert!(outcome.relation(odd).set_eq(&sequential.relation(odd)));
    println!("both mutually recursive predicates match the least model ✓");
    Ok(())
}
