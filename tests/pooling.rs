//! Final pooling, kind by kind. The rewrite tags every pooling pair with
//! how the N shards of its predicate relate — a partition is appended, a
//! replica moved, anything else unioned — and `append_disjoint` hashes
//! nothing, so a wrong claim would put a duplicate row in the answer.
//! Every preset, Example 8, mutual recursion and an `h` that names one
//! processor only, at N ∈ {1, 2, 3, 4, 7}:
//! the *declared* kind is checked against the shards themselves, what the
//! placement table says every inbox holds against the inboxes, and the
//! pooled answer against the sequential engine's, row count included, on
//! threads, under the simulator and (one column) over loopback TCP.

use std::sync::Arc;

use parallel_datalog::core::schemes::common::Namer;
use parallel_datalog::core::schemes::BaseDistribution;
use parallel_datalog::eval::{route::home_inbox, FixpointEngine};
use parallel_datalog::prelude::*;
use parallel_datalog::runtime::{FaultPlan, InProcessLauncher, NetConfig, NetCoordinator, Shards};
use parallel_datalog::workloads::{
    even_odd, grid, linear_ancestor, nonlinear_ancestor, random_digraph, same_generation,
    same_generation_tree, star, zipf_digraph, Fixture,
};

use Shards::{Overlap, Partition, Replica};

/// One compiled scheme with the kind every answer predicate must be
/// declared as, once there is more than one shard.
struct Cell {
    name: &'static str,
    program: Program,
    db: Database,
    scheme: CompiledScheme,
    expect: Shards,
}

/// Every preset of `schemes/presets.rs` on linear ancestor, Example 8,
/// same-generation and mutual recursion through §7, at `n` processors.
fn cells(n: usize) -> Vec<Cell> {
    let mut out = Vec::new();
    let mut cell = |name, fx: &Fixture, db: &Database, scheme: Result<CompiledScheme>, expect| {
        let (program, db, scheme) = (fx.program.clone(), db.clone(), scheme.unwrap());
        out.push(Cell { name, program, db, scheme, expect });
    };
    let h: DiscriminatorRef = Arc::new(HashMod::new(n, 19));

    let fx = linear_ancestor();
    let edges = random_digraph(30, 70, 5);
    let db = fx.database(&edges);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let (v_r, v_e) = (vec![fx.program.var("Z")], vec![fx.program.var("X")]);
    cell("example1", &fx, &db, example1_wolfson(&sirup, n, &db), Partition);
    let frag = round_robin_fragment(&edges, n).unwrap();
    cell("example2 (broadcast)", &fx, &db, example2_valduriez(&sirup, frag, &db), Replica);
    cell("example3", &fx, &db, example3_hash_partition(&sirup, n, &db), Partition);
    let sirup_scheme = |policies, kind| rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, kind);
    let h_prime: DiscriminatorRef = Arc::new(HashMod::new(n, 23));
    let q_i = [RulePolicy::shared(v_e.clone(), &h_prime), RulePolicy::shared(v_r.clone(), &h)];
    cell("Q_i", &fx, &db, sirup_scheme(q_i, "§3 Q_i"), Partition);
    let r_i = |v_r: &[Variable], h_locals| sirup_scheme([RulePolicy::shared(v_e.clone(), &h), RulePolicy::local(v_r.to_vec(), h_locals)], "§6 R_i");
    cell("R_i, one h", &fx, &db, r_i(&v_r, vec![h.clone(); n]), Partition);
    // One function built once per processor is still one `h`: compared by
    // what it is, it keys every inbox and partitions the answer.
    let apart = (0..n).map(|_| Arc::new(HashMod::new(n, 19)) as DiscriminatorRef).collect();
    cell("R_i, equal h_i built apart", &fx, &db, r_i(&v_r, apart), Partition);
    // §6 proper: processor i keeps a tuple with probability ½, else hashes
    // it — no two processors route alike, and several may store one row.
    let mixed = (0..n).map(|i| Arc::new(Mixed::new(i, h.clone(), 0.5, 31)) as DiscriminatorRef).collect();
    cell("R_i, per-processor h_i", &fx, &db, r_i(&v_r, mixed), Overlap);
    cell("no-comm", &fx, &db, r_i(&[], Constant::each(n)), Overlap);
    // The hub of a star, or the head of a Zipf graph, is a hot key: all of
    // its rows hash to one processor — still one home per row, so a
    // Partition.
    for (name, edges) in [("example3 (star)", star(40)), ("example3 (zipf)", zipf_digraph(200, 120, 20, 42))] {
        let hot = fx.database(&edges);
        cell(name, &fx, &hot, example3_hash_partition(&sirup, n, &hot), Partition);
    }
    // One `h` shared by all — but one that names the last processor alone.
    // Only there is a row of `anc` at home; every other processor pools
    // what it shipped there, so no one table may call this a partition.
    let mut choices = RuleChoice::by_name(&fx.program, &["X", "Z"], &h);
    choices[1].h = Arc::new(Constant::new(n, n - 1));
    cell("constant h (one home)", &fx, &db, rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared), Overlap);

    // Example 8: `anc` is consumed at two positions, so it has two routes
    // and a row may be stored at h(a) and at h(b).
    let fx = nonlinear_ancestor();
    let db = fx.database(&grid(4, 4));
    let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
    cell("example 8 (two routes)", &fx, &db, rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared), Overlap);

    // Same generation on each rule's first body variable: v(r) = ⟨X⟩ is
    // not bound by sg(U,V), so sg is broadcast …
    let fx = same_generation();
    let (up, down, flat) = same_generation_tree(4);
    let db = fx.database_multi(&[up, down, flat]);
    let choices = RuleChoice::by_name(&fx.program, &["X", "X"], &h);
    cell("same generation (broadcast)", &fx, &db, rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared), Replica);
    // … and as `--scheme general` compiles it: the chooser keys the rule on
    // the U that sg(U,V) binds, one hash route, every row in one inbox.
    let choices = choose_sequences(&fx.program).into_iter().map(|v| RuleChoice { v, h: h.clone() }).collect::<Vec<_>>();
    cell("same generation (chosen)", &fx, &db, rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared), Partition);

    // Mutual recursion: two answer predicates, hashed on the variable the
    // consuming atom binds, or broadcast where it binds none of v(r).
    let fx = even_odd();
    let succ: Relation = (0..24i64).map(|k| ituple![k, k + 1]).collect();
    let db = fx.database_multi(&[[ituple![0]].into_iter().collect(), succ]);
    for (name, vars, expect) in [("even/odd, hashed", ["X", "X", "X"], Partition), ("even/odd, broadcast", ["X", "Y", "Y"], Replica)] {
        let choices = RuleChoice::by_name(&fx.program, &vars, &h);
        cell(name, &fx, &db, rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared), expect);
    }
    out
}

/// The scheme's engines at the fixpoint, driven in lock step: advance
/// every engine, carry each outlet's rows to the inboxes it names, fire.
fn engines_at_fixpoint(scheme: &CompiledScheme) -> Vec<FixpointEngine> {
    let mut engines: Vec<FixpointEngine> = scheme.workers.iter().map(|w| w.build_engine().unwrap()).collect();
    engines.iter_mut().for_each(|e| e.bootstrap().unwrap());
    loop {
        let (mut fresh, mut mail) = (0, Vec::new());
        for engine in engines.iter_mut() {
            fresh += engine.advance().unwrap();
            for outlet in engine.outlets() {
                mail.extend(outlet.dests.iter().map(|&(dest, inbox)| (dest, inbox, outlet.rows.clone())));
            }
            engine.clear_outlets();
        }
        if fresh == 0 && mail.iter().all(|(_, _, rows)| rows.is_empty()) {
            return engines;
        }
        for (dest, inbox, rows) in mail {
            engines[dest].inject(inbox, rows).unwrap();
        }
        engines.iter_mut().for_each(FixpointEngine::process_round);
    }
}

/// The declared kind is what the shards are: processors agree on it, a
/// Partition's shards are pairwise disjoint, a Replica's pairwise equal,
/// and whatever the kind, the shards together are the oracle's relation.
/// The placement table's word on every inbox holds too: each row of a
/// `Keyed(h, c)` inbox `t_in^i` has `h(row[c]) = i`, a `Whole` inbox is
/// the model, and a processor pools its inbox — a replica aside — exactly
/// where the engine's storage rule, `home_inbox`, stores the rows there
/// and leaves `t_out^i` empty.
#[test]
fn the_declared_kind_is_what_the_shards_are() {
    let mut overlapping = Vec::new();
    for n in [1usize, 2, 3, 4, 7] {
        for Cell { name, program, db, scheme, expect } in cells(n) {
            let what = format!("{name} / n={n}");
            let oracle = seminaive_eval(&program, &db).unwrap();
            let engines = engines_at_fixpoint(&scheme);
            let namer = Namer::new(program.interner.clone());
            assert!(!scheme.answers.is_empty(), "{what}");
            for (a, &answer) in scheme.answers.iter().enumerate() {
                let model = oracle.relation(answer);
                let holds = scheme.holds.iter().find(|(d, _)| *d == answer).map(|(_, h)| h).expect("the table places every answer");
                for (w, engine) in scheme.workers.iter().zip(&engines) {
                    let (i, inbox) = (w.program.processor, w.program.inboxes[a]);
                    let rows = engine.relation(inbox).unwrap();
                    match holds {
                        Holds::Keyed(h, c) => {
                            let keyed_here = |row: &Tuple| h.assign(&c.iter().map(|&q| row.word(q)).collect::<Vec<_>>()) == i;
                            assert!(rows.iter().all(keyed_here), "{what}: a row of a Keyed inbox at {i} is keyed elsewhere");
                        }
                        Holds::Whole => assert!(rows.set_eq(&model), "{what}: the Whole inbox at {i} is not the model"),
                        Holds::Subset => {}
                    }
                    let out = namer.out(answer, i);
                    let (local, _, kind) = *w.program.pooling.iter().find(|(_, g, _)| *g == answer).unwrap();
                    let home = home_inbox(&w.program.routes, i, out);
                    assert!(kind != Partition || home.is_some(), "{what}: a partition not stored at its inboxes");
                    if let Some(home) = home {
                        assert_eq!(home, inbox, "{what}");
                        assert!(engine.relation(out).is_none_or(Relation::is_empty), "{what}: a home row stored in t_out^{i}");
                    }
                    assert_eq!(local, if kind == Replica { inbox } else { home.unwrap_or(out) }, "{what}: processor {i} pools");
                }
                let pairs: Vec<_> = scheme
                    .workers
                    .iter()
                    .map(|w| *w.program.pooling.iter().find(|(_, g, _)| *g == answer).expect("every processor pools it"))
                    .collect();
                let declared = pairs[0].2;
                assert!(pairs.iter().all(|p| p.2 == declared), "{what}: processors disagree");
                assert!(n == 1 || declared == expect, "{what}: declared {declared:?}, expected {expect:?}");
                let shards: Vec<&Relation> =
                    pairs.iter().zip(&engines).map(|(p, e)| e.relation(p.0).unwrap()).collect();
                let mut union = Relation::new(answer.1);
                let total: usize = shards.iter().map(|s| s.len()).sum();
                let stored: usize = shards.iter().map(|s| union.absorb(s).unwrap()).sum();
                assert_eq!(stored, union.len());
                assert!(union.set_eq(&model) && !model.is_empty(), "{what}: the shards are not the least model");
                match declared {
                    Partition => assert_eq!(total, union.len(), "{what}: a row has two homes"),
                    Replica => assert!(shards.iter().all(|s| s.set_eq(&model)), "{what}: a shard is not the whole"),
                    Overlap if total > union.len() => overlapping.push(name),
                    Overlap => {}
                }
            }
        }
    }
    // The Overlap claims are not idle caution: each such scheme did store
    // a row twice at some N.
    for name in ["R_i, per-processor h_i", "no-comm", "constant h (one home)", "example 8 (two routes)"] {
        assert!(overlapping.contains(&name), "{name}: shards never overlapped");
    }
}

/// The pooled answer is the oracle's, as a set and row for row — a
/// duplicate arena row from a wrong Partition claim would make it longer
/// — on threads and under the simulator.
#[test]
fn the_pooled_answer_is_the_least_model_on_every_transport() {
    for n in [1usize, 2, 3, 4, 7] {
        for Cell { name, program, db, scheme, expect } in cells(n) {
            let oracle = seminaive_eval(&program, &db).unwrap();
            let sim = scheme.run_simulated(n as u64, FaultPlan::none()).unwrap();
            for (transport, outcome) in [("threads", &scheme.run().unwrap()), ("sim", &sim)] {
                for &answer in &scheme.answers {
                    let (got, model) = (outcome.relation(answer), oracle.relation(answer));
                    let what = format!("{name} / n={n} / {transport}");
                    assert!(got.set_eq(&model), "{what}: pooled answer differs from the least model");
                    assert_eq!((got.len(), got.dead_count()), (model.len(), 0), "{what}: a duplicate row");
                }
                let taken = outcome.stats.workers.iter().filter(|w| w.pooled_tuples > 0).count();
                assert!(expect != Replica || taken == 1, "{name} / n={n}: only processor 0's replica is taken");
            }
        }
    }
}

/// One column over loopback TCP: a replica is shipped by processor 0
/// alone, a partition by everyone, and the answer is the oracle's.
#[test]
fn the_net_transport_pools_by_kind() {
    let net = NetCoordinator::new(Arc::new(InProcessLauncher { decoder: Some(decode_constraint) }), NetConfig::default());
    for Cell { name, program, db, scheme, expect } in cells(3) {
        let oracle = seminaive_eval(&program, &db).unwrap();
        let outcome = net.execute(scheme.workers.clone(), &RuntimeConfig::default()).unwrap();
        for &answer in &scheme.answers {
            let (got, model) = (outcome.relation(answer), oracle.relation(answer));
            assert!(got.set_eq(&model) && got.len() == model.len(), "{name} / net");
        }
        let pooled: Vec<u64> = outcome.stats.workers.iter().map(|w| w.pooled_tuples).collect();
        assert!(expect != Replica || (pooled[0] > 0 && pooled[1..] == [0, 0]), "{name} / net: {pooled:?}");
    }
}
