//! Section 4 of the paper, live: the same transitive-closure query run
//! under all three derived algorithms — Example 1 (Wolfson–Silberschatz,
//! zero communication, shared base), Example 2 (Valduriez–Khoshafian,
//! arbitrary fragments, broadcast), and Example 3 (the paper's new
//! point-to-point hash partition) — printing the trade-offs the paper
//! states qualitatively.
//!
//! ```text
//! cargo run --release --example ancestor_schemes
//! ```

use parallel_datalog::prelude::*;
use parallel_datalog::workloads::{linear_ancestor, random_digraph};

fn main() -> Result<()> {
    let n = 4;
    let fx = linear_ancestor();
    let edges = random_digraph(60, 150, 42);
    let db = fx.database(&edges);
    let sirup = LinearSirup::from_program(&fx.program)?;
    let sequential = seminaive_eval(&fx.program, &db)?;
    let anc = fx.output_id();

    println!(
        "transitive closure of a random digraph: |par| = {}, |anc| = {}, {} processors\n",
        edges.len(),
        sequential.relation(anc).len(),
        n
    );
    println!(
        "{:<44} {:>10} {:>10} {:>12} {:>10}",
        "scheme", "comm", "firings", "base tuples", "correct"
    );

    let report = |scheme: &CompiledScheme, outcome: &ExecutionOutcome| {
        let base_tuples: usize = scheme
            .workers
            .iter()
            .map(|w| w.edb.total_tuples())
            .sum();
        println!(
            "{:<44} {:>10} {:>10} {:>12} {:>10}",
            scheme.kind,
            outcome.stats.total_tuples_sent(),
            outcome.stats.total_processing_firings(),
            base_tuples,
            outcome.relation(anc).set_eq(&sequential.relation(anc)),
        );
    };

    // Example 1: v(r) on the dataflow cycle — no communication, but every
    // worker holds the full base relation.
    let e1 = example1_wolfson(&sirup, n, &db)?;
    let o1 = e1.execute(&RuntimeConfig::default())?;
    report(&e1, &o1);
    assert!(o1.stats.communication_free());

    // Example 3: hash partition — point-to-point traffic, fragments.
    let e3 = example3_hash_partition(&sirup, n, &db)?;
    let o3 = e3.execute(&RuntimeConfig::default())?;
    report(&e3, &o3);

    // Example 2: adversarial round-robin fragmentation — broadcast.
    let frag = round_robin_fragment(&edges, n)?;
    let e2 = example2_valduriez(&sirup, frag, &db)?;
    let o2 = e2.execute(&RuntimeConfig::default())?;
    report(&e2, &o2);

    println!(
        "\nsequential baseline: {} firings",
        sequential.stats.firings
    );
    println!("\npaper §4.3: Example 3 sits between the extremes —");
    println!(
        "  communication: {} (Ex1) ≤ {} (Ex3) ≤ {} (Ex2)",
        o1.stats.total_tuples_sent(),
        o3.stats.total_tuples_sent(),
        o2.stats.total_tuples_sent()
    );
    assert!(o1.stats.total_tuples_sent() <= o3.stats.total_tuples_sent());
    assert!(o3.stats.total_tuples_sent() <= o2.stats.total_tuples_sent());

    Ok(())
}
