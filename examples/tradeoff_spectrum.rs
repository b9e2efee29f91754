//! Section 6 of the paper, live: sweep the keep-local probability of the
//! generalized scheme `R_i` and print the redundancy ↔ communication
//! spectrum whose two endpoints are the non-redundant scheme (§3) and
//! the communication-free scheme ([Wolfson 88]).
//!
//! ```text
//! cargo run --release --example tradeoff_spectrum
//! ```

use std::sync::Arc;

use parallel_datalog::prelude::*;
use parallel_datalog::workloads::{grid, linear_ancestor};

fn main() -> Result<()> {
    let n = 4;
    let fx = linear_ancestor();
    let edges = grid(8, 8); // many alternative derivations ⇒ redundancy visible
    let db = fx.database(&edges);
    let sirup = LinearSirup::from_program(&fx.program)?;
    let sequential = seminaive_eval(&fx.program, &db)?;
    let anc = fx.output_id();

    let var = |name: &str| Variable(fx.program.interner.get(name).unwrap());
    let base_h: DiscriminatorRef = Arc::new(HashMod::new(n, 23));

    println!(
        "grid 8×8: |par| = {}, |anc| = {}, sequential firings = {}\n",
        edges.len(),
        sequential.relation(anc).len(),
        sequential.stats.firings
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>10}",
        "α", "tuples sent", "firings", "redundancy", "correct"
    );

    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let h_locals: Vec<DiscriminatorRef> = (0..n)
            .map(|i| Arc::new(Mixed::new(i, base_h.clone(), alpha, 31)) as DiscriminatorRef)
            .collect();
        let policies = [RulePolicy::shared(vec![var("X")], &base_h), RulePolicy::local(vec![var("Z")], h_locals)];
        let outcome = rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§6 R_i")?.run()?;
        let firings = outcome.stats.total_processing_firings();
        let redundancy = firings.saturating_sub(sequential.stats.firings);
        let comm = outcome.stats.total_tuples_sent();
        println!(
            "{:>6.2} {:>12} {:>12} {:>12} {:>10}",
            alpha,
            comm,
            firings,
            redundancy,
            outcome.relation(anc).set_eq(&sequential.relation(anc)),
        );
        assert!(
            outcome.relation(anc).set_eq(&sequential.relation(anc)),
            "Theorem 4: correct at every point of the spectrum"
        );
        // Redundant firings route too, so traffic need not fall at every
        // step of α (on this grid α = 0.25 ships more than α = 0); the
        // endpoints are what §6 guarantees.
        if alpha == 0.0 {
            assert_eq!(redundancy, 0, "α = 0 is the non-redundant scheme");
        }
        if alpha == 1.0 {
            assert_eq!(comm, 0, "α = 1 keeps every tuple local");
        }
    }

    println!(
        "\nα = 0 is the §3 non-redundant scheme; α = 1 is the zero-communication"
    );
    println!("scheme of [Wolfson 88]; in between, every point is a legal execution —");
    println!("\"more communication would lead to lesser redundancy, and vice-versa\".");
    Ok(())
}
