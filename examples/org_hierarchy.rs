//! A realistic end-user program: an org chart with string constants and
//! comparison built-ins, queried sequentially and in parallel.
//!
//! Shows the full surface language — quoted strings, `!=`/`<`
//! comparisons (which ride the same constraint machinery as the paper's
//! discriminating conditions) — on a management hierarchy:
//! who reports (transitively) to whom, and which pairs are peers under
//! the same boss.
//!
//! ```text
//! cargo run --release --example org_hierarchy
//! ```

use parallel_datalog::prelude::*;

fn main() -> Result<()> {
    let source = r#"
        % reports(Manager, Report)
        reports("Ada Lovelace", "Grace Hopper").
        reports("Ada Lovelace", "Alan Turing").
        reports("Grace Hopper", "Edsger Dijkstra").
        reports("Grace Hopper", "Barbara Liskov").
        reports("Alan Turing", "Tony Hoare").
        reports("Tony Hoare", "Niklaus Wirth").

        % chain(M, R): R is anywhere under M.
        chain(M, R) :- reports(M, R).
        chain(M, R) :- reports(M, X), chain(X, R).

        % peers under the same direct boss (unordered pairs via !=).
        peers(A, B) :- reports(M, A), reports(M, B), A != B.
    "#;
    let unit = parse_program(source)?;
    let mut db = Database::new(unit.program.interner.clone());
    db.load_facts(unit.facts.clone())?;
    let interner = unit.program.interner.clone();

    let chain = (interner.get("chain").unwrap(), 2);
    let peers = (interner.get("peers").unwrap(), 2);

    let result = seminaive_eval(&unit.program, &db)?;
    println!("everyone under Ada Lovelace:");
    let ada = Value::Sym(interner.get("Ada Lovelace").unwrap());
    for t in result.relation(chain).sorted() {
        if t.get(0) == ada {
            println!("  {}", t.get(1).display(&interner));
        }
    }

    println!("\npeer pairs (same direct boss):");
    for t in result.relation(peers).sorted() {
        println!(
            "  {} ↔ {}",
            t.get(0).display(&interner),
            t.get(1).display(&interner)
        );
    }

    // The same program runs under the §7 general scheme: `chain` is a
    // linear sirup but `peers` makes the program multi-rule, so T_i is
    // the right rewriting. The compiler chooses each rule's `v(r_k)` —
    // here Theorem 3's choice for `chain`: nothing crosses a channel.
    let h: DiscriminatorRef = std::sync::Arc::new(HashMod::new(3, 7));
    let choices: Vec<RuleChoice> =
        choose_sequences(&unit.program).into_iter().map(|v| RuleChoice { v, h: h.clone() }).collect();
    let scheme = rewrite_general(
        &unit.program,
        &choices,
        &db,
        parallel_datalog::core::schemes::BaseDistribution::Shared,
    )?;
    let outcome = scheme.run()?;
    assert!(outcome.relation(chain).set_eq(&result.relation(chain)));
    assert!(outcome.relation(peers).set_eq(&result.relation(peers)));
    println!(
        "\nparallel (§7 T_i, 3 processors): identical answers, {} tuples crossed channels ✓",
        outcome.stats.total_tuples_sent()
    );
    Ok(())
}
