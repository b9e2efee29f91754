//! Section 5 of the paper, live: dataflow graphs (Figures 1–2), minimal
//! network graphs derived at compile time (Figures 3–4), and a runtime
//! validation that observed channel traffic stays inside the derived
//! network.
//!
//! ```text
//! cargo run --release --example network_topology
//! ```

use std::sync::Arc;

use parallel_datalog::core::dataflow::DataflowGraph;
use parallel_datalog::prelude::*;
use parallel_datalog::workloads::{chain_sirup, example6_sirup, linear_ancestor, random_digraph};

fn main() -> Result<()> {
    // ---- Figure 1: dataflow graph of the chain sirup ----------------
    let fx = chain_sirup();
    let s = LinearSirup::from_program(&fx.program)?;
    let g = DataflowGraph::of(&s);
    println!("Figure 1 — dataflow graph of p(U,V,W) :- p(V,W,Z), q(U,Z):");
    println!("  {}\n", g.display());

    // ---- Figure 2: ancestor has a cycle → Theorem 3 applies ---------
    let fx_anc = linear_ancestor();
    let s_anc = LinearSirup::from_program(&fx_anc.program)?;
    let g_anc = DataflowGraph::of(&s_anc);
    println!("Figure 2 — dataflow graph of anc(X,Y) :- par(X,Z), anc(Z,Y):");
    println!("  {} (a cycle)", g_anc.display());
    let choice = zero_comm_choice(&s_anc)?;
    println!(
        "  Theorem 3 chooses v(r) = ⟨{}⟩ ⇒ communication-free execution\n",
        choice
            .v_r
            .iter()
            .map(|v| v.name(&fx_anc.program.interner))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // ---- Figure 3: Example 6's network on four processors -----------
    let fx6 = example6_sirup();
    let s6 = LinearSirup::from_program(&fx6.program)?;
    let var = |name: &str| Variable(fx6.program.interner.get(name).unwrap());
    let h6 = BitVector::new(BitFn::new(1), 2)?;
    let net6 = derive_network(&s6, &[var("Y"), var("Z")], &[var("X"), var("Y")], &h6)?;
    println!("Figure 3 — minimal network for Example 6, h(a,b) = (g(a),g(b)):");
    for line in net6.display().lines() {
        println!("  {line}");
    }
    let (have, possible) = net6.density();
    println!("  ({have} of {possible} possible channels)\n");

    // ---- Figure 4: Example 7's network from the linear system -------
    let s7 = LinearSirup::from_program(&chain_sirup().program)?;
    let var7 = |name: &str| Variable(chain_sirup().program.interner.get(name).unwrap());
    let _ = var7; // names resolved on fx's interner below
    let i7 = &s7.program.interner;
    let v = |n: &str| Variable(i7.get(n).unwrap());
    let h7 = Linear::new(BitFn::new(1), vec![1, -1, 1])?;
    println!(
        "Figure 4 — minimal network for Example 7, h = g(a1)-g(a2)+g(a3), P = {:?}:",
        h7.processor_values()
    );
    let net7 = derive_network(&s7, &[v("V"), v("W"), v("Z")], &[v("U"), v("V"), v("W")], &h7)?;
    for line in net7.display().lines() {
        println!("  {line}");
    }
    let (have, possible) = net7.density();
    println!("  ({have} of {possible} possible channels)\n");

    // ---- Runtime validation: observed traffic ⊆ derived network -----
    println!("validating Example 6's network against a real execution…");
    let edges = random_digraph(40, 90, 7);
    let r_edges = random_digraph(40, 120, 8);
    let db = fx6.database_multi(&[edges, r_edges]);
    let h: DiscriminatorRef = Arc::new(h6.clone());
    let policies = [RulePolicy::shared(vec![var("X"), var("Y")], &h), RulePolicy::shared(vec![var("Y"), var("Z")], &h)];
    let scheme = rewrite_sirup(&s6, policies, &db, BaseDistribution::Shared, "§3 Q_i")?;
    let outcome = scheme.run()?;
    let used = outcome.stats.used_channels();
    println!(
        "  channels used at runtime: {:?}",
        used.iter()
            .map(|&(i, j)| format!("{}→{}", net6.labels[i], net6.labels[j]))
            .collect::<Vec<_>>()
    );
    assert!(
        net6.covers(&used),
        "soundness: every used channel must be predicted"
    );
    println!("  all observed traffic is inside the derived network ✓");
    Ok(())
}
