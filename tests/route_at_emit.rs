//! Route at emit: the §3 sending rules are a route table the engine
//! evaluates as it deduplicates a tuple, not rules it fires. Over the
//! program corpus × every scheme: firings are processing firings (at N=1
//! the sequential engine's), no channel relation exists, the traffic is
//! what the sending rules shipped (pinned on the last commit that executed
//! them), a doubly routed tuple goes once, a broadcast is encoded once, a
//! misroute is a typed error before any worker starts.

use std::sync::Arc;

use parallel_datalog::core::schemes::BaseDistribution;
use parallel_datalog::eval::{plan::RelationId, FixpointEngine};
use parallel_datalog::prelude::*;
use parallel_datalog::runtime::{
    FaultPlan, InProcessLauncher, NetConfig, NetCoordinator, Route, SimTransport,
};
use parallel_datalog::workloads::{
    chain, even_odd, grid, linear_ancestor, nonlinear_ancestor, random_digraph,
    same_generation_tree, sirup_corpus, Fixture,
};

/// The corpus: every sirup, plus the two programs only §7 accepts, each
/// with a database.
fn corpus() -> Vec<(&'static str, Fixture, Database)> {
    let digraph = random_digraph(30, 60, 5);
    let mut out = Vec::new();
    for (name, fx) in sirup_corpus() {
        let db = match name {
            "chain_sirup" => {
                let s: Relation = [ituple![1, 2, 3], ituple![5, 6, 7]].into_iter().collect();
                let q: Relation = (0..8i64).map(|k| ituple![k, k + 2]).collect();
                fx.database_multi(&[s, q])
            }
            "example6_sirup" => fx.database_multi(&[digraph.clone(), random_digraph(30, 60, 6)]),
            "same_generation" => {
                let (up, down, flat) = same_generation_tree(5);
                fx.database_multi(&[up, down, flat])
            }
            _ => fx.database(&digraph),
        };
        out.push((name, fx, db));
    }
    let fx = nonlinear_ancestor();
    let db = fx.database(&digraph);
    out.push(("nonlinear_ancestor", fx, db));
    let fx = even_odd();
    let succ: Relation = (0..12i64).map(|k| ituple![k, k + 1]).collect();
    let zero: Relation = [ituple![0]].into_iter().collect();
    let db = fx.database_multi(&[zero, succ]);
    out.push(("even_odd", fx, db));
    out
}

fn first_var(terms: &[Term]) -> Vec<Variable> {
    terms.iter().filter_map(Term::as_var).take(1).collect()
}

/// Every scheme that accepts `fx` at `n` processors, labelled.
fn schemes(fx: &Fixture, db: &Database, n: usize) -> Vec<(&'static str, CompiledScheme)> {
    let mut out = Vec::new();
    let h: DiscriminatorRef = Arc::new(HashMod::new(n, 19));
    if let Ok(sirup) = LinearSirup::from_program(&fx.program) {
        let (v_r, v_e) = (first_var(&sirup.recursive_args), first_var(&sirup.exit_head));
        let frag = round_robin_fragment(&db.relation_or_empty(fx.input_id(0)), n);
        let no_comm = NoCommConfig { v_e: v_e.clone(), h_prime: h.clone() };
        let generalized =
            GeneralizedConfig { v_r, v_e, h_prime: h.clone(), h_locals: vec![h.clone(); n] };
        let presets = [
            ("example1", example1_wolfson(&sirup, n, db)),
            ("example3", example3_hash_partition(&sirup, n, db)),
            ("example2", frag.and_then(|frag| example2_valduriez(&sirup, frag, db))),
            ("no-comm", rewrite_no_comm(&sirup, &no_comm, db)),
            ("generalized", rewrite_generalized(&sirup, &generalized, db)),
        ];
        out.extend(presets.into_iter().filter_map(|(name, s)| Some((name, s.ok()?))));
    }
    let choices: Vec<RuleChoice> = fx
        .program
        .rules
        .iter()
        .map(|r| RuleChoice { v: first_var(&r.head.terms), h: h.clone() })
        .collect();
    let general = rewrite_general(&fx.program, &choices, db, BaseDistribution::Shared).unwrap();
    out.push(("general", general));
    out
}

/// (a) The only rules a processor fires are processing rules; one
/// processor fires exactly what the sequential engine fires.
#[test]
fn total_firings_are_processing_firings_and_sequential_at_n1() {
    for (name, fx, db) in corpus() {
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let mut accepted = 0;
        for n in [1usize, 2, 4] {
            for (kind, scheme) in schemes(&fx, &db, n) {
                let outcome = scheme.run_simulated(7, FaultPlan::none()).unwrap();
                let what = format!("{name} / {kind} / n={n}");
                let out = fx.output_id();
                assert!(outcome.relation(out).set_eq(&seq.relation(out)), "{what}: least model");
                assert_eq!(
                    outcome.stats.total_firings(),
                    outcome.stats.total_processing_firings(),
                    "{what}: a non-processing rule fired"
                );
                if n == 1 {
                    assert_eq!(outcome.stats.total_firings(), seq.stats.firings, "{what}");
                    // The inline fast path and the worker loop agree.
                    let threaded = scheme.run().unwrap();
                    assert_eq!(threaded.stats.total_firings(), seq.stats.firings, "{what}");
                }
                accepted += 1;
            }
        }
        assert!(accepted >= 3, "{name}: the general scheme accepts every program");
    }
}

/// Drive a compiled scheme's engines by hand, one lock-step round at a
/// time: advance every engine, carry each outlet's rows to the inbox it
/// names, fire a round. `inspect` sees every engine right after its
/// advance, outlets still full. Returns the engines at the fixpoint.
fn run_by_hand(
    scheme: &CompiledScheme,
    mut inspect: impl FnMut(usize, &FixpointEngine),
) -> Vec<FixpointEngine> {
    let mut engines: Vec<FixpointEngine> =
        scheme.workers.iter().map(|w| w.build_engine().unwrap()).collect();
    engines.iter_mut().for_each(|e| e.bootstrap().unwrap());
    loop {
        let mut fresh = 0;
        let mut mail = Vec::new();
        for (i, engine) in engines.iter_mut().enumerate() {
            fresh += engine.advance().unwrap();
            inspect(i, engine);
            for outlet in engine.outlets() {
                for &(dest, inbox) in &outlet.dests {
                    assert_ne!(dest, i, "an outlet is addressed to other processors");
                    mail.push((dest, inbox, outlet.rows.clone()));
                }
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

/// (b) No channel is materialised: a processor's derived predicates are
/// `t@out_i` and `t@in_i` and nothing else, and what it stores is those
/// relations' rows.
#[test]
fn a_processor_stores_its_out_and_in_relations_and_nothing_else() {
    for (name, fx, db) in corpus() {
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let derived = fx.program.derived_predicates().len();
        for (kind, scheme) in schemes(&fx, &db, 3) {
            let what = format!("{name} / {kind}");
            let mut pooled = Relation::new(fx.output.1);
            for (engine, w) in run_by_hand(&scheme, |_, _| {}).iter().zip(&scheme.workers) {
                let len = |p: RelationId| engine.relation(p).unwrap().len();
                let preds = engine.idb_predicates();
                let own: Vec<RelationId> =
                    w.program.pooling.iter().map(|(l, _)| *l).chain(w.program.inboxes.clone()).collect();
                for p in &preds {
                    let name = fx.program.interner.resolve(p.0);
                    assert!(own.contains(p) && !name.contains("@ch") && !name.contains("@bc"), "{what}: {name}");
                }
                assert_eq!(preds.len(), if w.program.inboxes.is_empty() { derived } else { 2 * derived });
                let stored: usize = own.iter().map(|p| len(*p)).sum();
                assert_eq!(engine.stats().derived as usize, stored, "{what}: rows outside t_out / t_in");
                for (local, _) in w.program.pooling.iter().filter(|(_, g)| *g == fx.output_id()) {
                    pooled.absorb(engine.relation(*local).unwrap()).unwrap();
                }
            }
            assert!(pooled.set_eq(&seq.relation(fx.output_id())), "{what}: least model");
        }
    }
}

fn var(p: &Program, name: &str) -> Variable {
    Variable(p.interner.get(name).unwrap())
}

/// The three ways this suite runs linear ancestor.
fn ancestor_scheme(kind: &str, n: usize, edges: &Relation) -> CompiledScheme {
    let fx = linear_ancestor();
    let db = fx.database(edges);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    match kind {
        "example2" => {
            example2_valduriez(&sirup, round_robin_fragment(edges, n).unwrap(), &db).unwrap()
        }
        "example3" => example3_hash_partition(&sirup, n, &db).unwrap(),
        _ => {
            let h: DiscriminatorRef = Arc::new(HashMod::new(n, 19));
            let choices = vec![
                RuleChoice { v: vec![var(&fx.program, "Y")], h: h.clone() },
                RuleChoice { v: vec![var(&fx.program, "Z")], h },
            ];
            rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap()
        }
    }
}

/// (c) Traffic is unchanged: `channel_matrix` and processing firings as
/// recorded on the last commit whose workers executed the sending rules
/// (PR 13), `grid(12,12)` and `random_digraph(30,60,5)`.
#[test]
fn channel_matrix_is_what_the_sending_rules_shipped() {
    type Pinned = (&'static str, &'static str, usize, &'static [&'static [u64]], u64);
    #[rustfmt::skip]
    let pinned: &[Pinned] = &[
        ("grid", "example2", 2, &[&[0, 5148], &[5148, 0]], 10296),
        ("grid", "example2", 3, &[&[0, 3464, 3464], &[3420, 0, 3420], &[3412, 3412, 0]], 10296),
        ("grid", "example2", 4, &[&[0, 2607, 2607, 2607], &[2580, 0, 2580, 2580], &[2541, 2541, 0, 2541], &[2568, 2568, 2568, 0]], 10296),
        ("grid", "example3", 2, &[&[0, 2280], &[2736, 0]], 10296),
        ("grid", "example3", 3, &[&[0, 1022, 829], &[661, 0, 1032], &[1065, 546, 0]], 10296),
        ("grid", "example3", 4, &[&[0, 0, 0, 912], &[1602, 0, 0, 0], &[0, 1368, 0, 0], &[0, 0, 1134, 0]], 10296),
        ("grid", "general", 2, &[&[0, 2340], &[2808, 0]], 10296),
        ("grid", "general", 3, &[&[0, 1243, 854], &[837, 0, 1181], &[1108, 764, 0]], 10296),
        ("grid", "general", 4, &[&[0, 0, 0, 1404], &[1170, 0, 0, 0], &[0, 936, 0, 0], &[0, 0, 1638, 0]], 10296),
        ("random", "example2", 2, &[&[0, 536], &[508, 0]], 1350),
        ("random", "example2", 3, &[&[0, 395, 395], &[371, 0, 371], &[453, 453, 0]], 1350),
        ("random", "example2", 4, &[&[0, 287, 287, 287], &[339, 0, 339, 339], &[339, 339, 0, 339], &[339, 339, 339, 0]], 1350),
        ("random", "example3", 2, &[&[0, 196], &[252, 0]], 1350),
        ("random", "example3", 3, &[&[0, 196, 28], &[140, 0, 140], &[84, 29, 0]], 1350),
        ("random", "example3", 4, &[&[0, 112, 28, 56], &[112, 0, 112, 140], &[0, 56, 0, 28], &[56, 114, 56, 0]], 1350),
        ("random", "general", 2, &[&[0, 199], &[252, 0]], 1350),
        ("random", "general", 3, &[&[0, 30, 196], &[112, 0, 57], &[85, 140, 0]], 1350),
        ("random", "general", 4, &[&[0, 28, 0, 56], &[56, 0, 56, 116], &[30, 58, 0, 114], &[112, 140, 112, 0]], 1350),
    ];
    for &(graph, kind, n, matrix, processing) in pinned {
        let edges = if graph == "grid" { grid(12, 12) } else { random_digraph(30, 60, 5) };
        let scheme = ancestor_scheme(kind, n, &edges);
        for outcome in [scheme.run_simulated(1, FaultPlan::none()).unwrap(), scheme.run().unwrap()] {
            assert_eq!(outcome.stats.channel_matrix, matrix, "{graph} / {kind} / n={n}");
            assert_eq!(outcome.stats.total_processing_firings(), processing, "{graph} / {kind} / n={n}");
        }
    }
}

/// (d) Example 8, both occurrences of `anc` routed: a tuple `anc(a,b)`
/// with `h(a) = h(b) = j` is sent to `j` by either sending rule, and
/// appears once in the round's batch for `j`.
#[test]
fn example8_sends_a_doubly_routed_tuple_once() {
    let fx = nonlinear_ancestor();
    let db = fx.database(&random_digraph(20, 40, 6));
    let n = 3;
    let hash = HashMod::new(n, 13);
    let h: DiscriminatorRef = Arc::new(hash.clone());
    let choices = vec![
        RuleChoice { v: vec![var(&fx.program, "Y")], h: h.clone() },
        RuleChoice { v: vec![var(&fx.program, "Z")], h },
    ];
    let scheme = rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
    assert_eq!(scheme.workers[0].program.routes.len(), 2, "one route per occurrence");
    let mut doubly_routed = 0;
    run_by_hand(&scheme, |i, engine| {
        for outlet in engine.outlets() {
            let [(dest, _)] = outlet.dests[..] else { panic!("hash routes address one inbox") };
            let mut rows = outlet.rows.clone();
            rows.sort();
            rows.dedup();
            assert_eq!(rows.len(), outlet.rows.len(), "processor {i}: a row twice in one batch");
            doubly_routed += rows
                .iter()
                .filter(|t| hash.assign(&[t.get(0)]) == dest && hash.assign(&[t.get(1)]) == dest)
                .count();
        }
    });
    assert!(doubly_routed > 0, "the workload must exercise the case");
}

/// (e) Example 2 broadcasts: one buffer, one encoding, three envelopes.
#[test]
fn a_broadcast_is_encoded_once_per_shipping_round() {
    let outcome = ancestor_scheme("example2", 4, &grid(8, 8)).run().unwrap();
    for w in &outcome.stats.workers {
        assert!(w.encode_calls > 0);
        assert_eq!(w.encode_calls as usize, w.sent_per_round.len(), "worker {}", w.processor);
        assert_eq!(w.sent_messages, 3 * w.encode_calls, "worker {}", w.processor);
    }
}

/// (f) Retract routes carry the whole of a delete phase's traffic, and a
/// preseeded `t_out` ships nothing: an insert-only round sends only what
/// the insert newly derives.
#[test]
fn update_rounds_ship_retractions_and_only_fresh_rows() {
    let fx = linear_ancestor();
    let edges = chain(10);
    let db = fx.database(&edges);
    let scheme = ancestor_scheme("general", 3, &edges);
    let mut session = UpdateSession::new(&scheme, &fx.program, &db).unwrap();
    let (t, cfg) = (ThreadedTransport, RuntimeConfig::default());
    let (anc, edge) = (fx.output_id(), fx.input_id(0));

    let initial = session.initialize(&t, &cfg).unwrap().phase_b.clone().unwrap();
    assert!(initial.total_tuples_sent() > 11 && initial.total_retract_tuples_sent() == 0);

    // par(10,11) derives anc(k,11) for k in 0..=10 and nothing else.
    let grow = UpdateBatch { inserts: vec![(edge, ituple![10, 11])], deletes: vec![] };
    let report = session.apply(&grow, &t, &cfg).unwrap();
    let sent = report.phase_b.as_ref().unwrap().total_tuples_sent();
    assert!(sent > 0 && sent <= 11, "the 55 preseeded tuples must stay home, sent {sent}");
    assert_eq!(session.answer(anc).len(), 66);

    let cut = UpdateBatch { inserts: vec![], deletes: vec![(edge, ituple![5, 6])] };
    let report = session.apply(&cut, &t, &cfg).unwrap();
    let phase_a = report.phase_a.as_ref().unwrap();
    assert!(phase_a.total_tuples_sent() > 0);
    assert_eq!(phase_a.total_retract_tuples_sent(), phase_a.total_tuples_sent());
    let oracle = seminaive_eval(&fx.program, session.edb()).unwrap();
    assert!(session.answer(anc).set_eq(&oracle.relation(anc)));
}

/// A route into an inbox its destination does not declare is refused by
/// every transport before a worker starts, naming processor, predicate
/// and destination.
#[test]
fn a_misroute_is_a_typed_error_on_every_transport() {
    let mut specs = ancestor_scheme("example3", 2, &chain(6)).workers;
    let interner = specs[0].program.program.interner.clone();
    let stray = (interner.intern("nowhere"), 2);
    let source = specs[0].program.routes[0].source_id();
    specs[0].program.routes.push(Route::broadcast(source, &interner, vec![(1, stray)]));
    let cfg = RuntimeConfig::default();
    let net = NetCoordinator::new(
        Arc::new(InProcessLauncher { decoder: Some(decode_constraint) }),
        NetConfig::default(),
    );
    let transports: [(&str, &dyn Transport); 3] =
        [("threads", &ThreadedTransport), ("sim", &SimTransport::new(3)), ("net", &net)];
    for (name, transport) in transports {
        let err = transport.execute(specs.clone(), &cfg).unwrap_err();
        assert!(matches!(err, Error::Runtime(_)), "{name}: {err:?}");
        let message = err.to_string();
        assert!(
            message.contains("processor 0 routes anc@out0/2 to processor 1")
                && message.contains("declares no inbox nowhere/2"),
            "{name}: {message}"
        );
    }
}
