//! Route at emit: the §3 sending rules are a route table the engine
//! evaluates where a tuple is emitted, not rules it fires. Over the
//! program corpus × every scheme: firings are processing firings, and one
//! processor fires, inserts and discards exactly what the sequential
//! engine does; a row of a source with a home inbox is stored once, by
//! the inbox that receives it, and that source's `t@out_i` stays empty;
//! no channel relation exists; such a source ships one row per firing
//! that routes off the processor (a nested-loop reference), any other
//! what the sending rules shipped (pinned on the last commit that
//! executed them); a doubly routed tuple goes once per firing, a
//! broadcast is encoded once; a misroute or a mis-declared pooling pair
//! is a typed error before any worker starts.

use std::sync::Arc;

use parallel_datalog::core::schemes::BaseDistribution;
use parallel_datalog::eval::{plan::RelationId, route::home_inbox, FixpointEngine};
use parallel_datalog::frontend::{ast::ConstraintRef, magic::magic_rewrite, pretty};
use parallel_datalog::prelude::*;
use parallel_datalog::runtime::{
    FaultPlan, InProcessLauncher, NetConfig, NetCoordinator, ParallelStats, Route, Shards, SimTransport,
};
use parallel_datalog::workloads::{
    chain, even_odd, grid, linear_ancestor, nonlinear_ancestor, random_digraph,
    right_linear_ancestor, same_generation_tree, sirup_corpus, star, Fixture,
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
        let frag = round_robin_fragment(db.relation(fx.input_id(0)).unwrap_or(&Relation::new(2)), n);
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
/// processor fires, inserts and discards exactly what the sequential
/// engine does — every row is a home row, so every `t@out` stays empty.
/// The corpus under every scheme, and the demand plan of a magic point
/// query against the seeded magic program.
#[test]
fn total_firings_are_processing_firings_and_sequential_at_n1() {
    for (name, fx, db) in corpus() {
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let mut accepted = 0;
        for n in [1usize, 2, 4] {
            for (kind, scheme) in schemes(&fx, &db, n) {
                let what = format!("{name} / {kind} / n={n}");
                fires_what_seq_fires(&what, &scheme, &fx.program, &seq, fx.output_id());
                accepted += 1;
            }
        }
        assert!(accepted >= 3, "{name}: the general scheme accepts every program");
    }
    let fx = right_linear_ancestor();
    let db = fx.database(&random_digraph(30, 60, 5));
    let y = Term::Var(Variable(fx.program.interner.intern("QY")));
    let goal = Atom::new(fx.output_id().0, vec![Term::Const(Value::Int(3)), y]);
    let rw = magic_rewrite(&fx.program, &goal).unwrap();
    let (answer, seed) = ((rw.answer.name, rw.answer.arity), (rw.seed_predicate.name, rw.seed_predicate.arity));
    let mut seeded = db.clone();
    seeded.insert(seed, rw.seed_fact.clone()).unwrap();
    let seq = seminaive_eval(&rw.program, &seeded).unwrap();
    assert!(!seq.relation(answer).is_empty(), "a vacuous point query");
    for n in [1usize, 2, 4] {
        let scheme = compile_demand(&rw, &db, n).unwrap();
        fires_what_seq_fires(&format!("magic point / n={n}"), &scheme, &rw.program, &seq, answer);
    }
}

/// `scheme` computes `seq`'s `out` firing processing rules only, and at
/// one processor fires, inserts and discards what `seq` did with every
/// `t@out` of `program` empty.
fn fires_what_seq_fires(
    what: &str,
    scheme: &CompiledScheme,
    program: &Program,
    seq: &EvalResult,
    out: RelationId,
) {
    let outcome = scheme.run_simulated(7, FaultPlan::none()).unwrap();
    assert!(outcome.relation(out).set_eq(&seq.relation(out)), "{what}: least model");
    assert_eq!(
        outcome.stats.total_firings(),
        outcome.stats.total_processing_firings(),
        "{what}: a non-processing rule fired"
    );
    if scheme.workers.len() > 1 {
        return;
    }
    // The worker loop and the inline fast path agree.
    for run in [outcome, scheme.run().unwrap()] {
        let eval = &run.stats.workers[0].eval;
        let counters = |s: &EvalStats| (s.firings, s.derived, s.duplicates);
        assert_eq!(counters(eval), counters(&seq.stats), "{what}");
    }
    let engine = &run_by_hand(scheme, |_, _| {})[0];
    for p in engine.idb_predicates() {
        let name = program.interner.resolve(p.0);
        let rows = engine.relation(p).unwrap().len();
        assert!(!name.contains("@out") || rows == 0, "{what}: {rows} rows in {name}");
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

/// A ground substitution: each variable with its value.
type Env = Vec<(Variable, Value)>;

fn value(env: &Env, term: &Term) -> Value {
    match term {
        Term::Const(c) => *c,
        Term::Var(v) => env.iter().find(|(w, _)| w == v).expect("a safe rule").1,
    }
}

/// The values of `constraint`'s variables under `env`.
fn bound(env: &Env, constraint: &ConstraintRef) -> Vec<Value> {
    constraint.variables().iter().map(|&v| value(env, &Term::Var(v))).collect()
}

/// Bind `terms` to `row`'s values in `env`; false when a constant or an
/// already bound variable disagrees.
fn unify(terms: &[Term], row: &Tuple, env: &mut Env) -> bool {
    terms.iter().enumerate().all(|(k, term)| match term {
        Term::Var(v) if !env.iter().any(|(w, _)| w == v) => {
            env.push((*v, row.get(k)));
            true
        }
        _ => value(env, term) == row.get(k),
    })
}

/// The head row of every ground substitution of `rule`'s body over
/// `relation` from body literal `at` on, one per substitution: nested
/// loops in body order, the constraints checked on the whole substitution.
fn fire<'a>(rule: &Rule, relation: &dyn Fn(RelationId) -> Option<&'a Relation>, at: usize, env: &mut Env, out: &mut Vec<Tuple>) {
    let Some(literal) = rule.body.get(at) else {
        if rule.body.iter().all(|l| !matches!(l, Literal::Constraint(c) if !c.holds(&bound(env, c)))) {
            out.push(rule.head.terms.iter().map(|t| value(env, t)).collect());
        }
        return;
    };
    let Literal::Atom(atom) = literal else { return fire(rule, relation, at + 1, env, out) };
    for row in relation((atom.predicate, atom.terms.len())).into_iter().flat_map(Relation::iter) {
        let mark = env.len();
        if unify(&atom.terms, row, env) {
            fire(rule, relation, at + 1, env, out);
        }
        env.truncate(mark);
    }
}

/// What sources with home inboxes ship — `None` where some routed
/// predicate has none: `matrix[i][j]` is the number of firings at `i`
/// whose head row a route sends to `j ≠ i`, every ground substitution of
/// `i`'s rules over its final inboxes and base fragment counted once per
/// distinct remote processor its route keys name.
fn remote_firings(scheme: &CompiledScheme) -> Option<Vec<Vec<u64>>> {
    let home = |w: &WorkerSpec, r: &Route| home_inbox(&w.program.routes, w.program.processor, r.source_id()).is_some();
    if !scheme.workers.iter().all(|w| w.program.routes.iter().all(|r| home(w, r))) {
        return None;
    }
    let n = scheme.processors();
    let mut matrix = vec![vec![0; n]; n];
    for (i, (w, engine)) in scheme.workers.iter().zip(run_by_hand(scheme, |_, _| {})).enumerate() {
        let relation = |id| engine.relation(id).or_else(|| w.edb.relation(id));
        for rule in &w.program.program.rules {
            let mut rows = Vec::new();
            fire(rule, &relation, 0, &mut Vec::new(), &mut rows);
            let routes: Vec<&Route> = w.program.routes.iter().filter(|r| r.source_id() == (rule.head.predicate, rule.head.terms.len())).collect();
            for row in rows {
                let mut to: Vec<usize> = Vec::new();
                for route in &routes {
                    let mut env = Vec::new();
                    if unify(&route.source.terms, &row, &mut env) {
                        // A home source's broadcast reaches this processor only.
                        let j = route.key.as_ref().map_or(i, |key| key.partition(&bound(&env, key)).expect("a partitioning key"));
                        if j != i && !to.contains(&j) {
                            to.push(j);
                        }
                    }
                }
                to.into_iter().for_each(|j| matrix[i][j] += 1);
            }
        }
    }
    Some(matrix)
}

/// (b) No channel is materialised: a processor's derived predicates are
/// its rule heads `t@out_i` and inboxes `t@in_i`, every stored row is
/// stored once — `derived` is what the relations hold — and where `t` has
/// a home inbox, `t@out_i` holds nothing: its rows went, as they were
/// emitted, to the inbox here or to the processors that store them.
#[test]
fn a_home_row_is_stored_once_and_a_home_t_out_holds_nothing() {
    let mut bypassed = 0;
    for (name, fx, db) in corpus() {
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let derived = fx.program.derived_predicates().len();
        for (kind, scheme) in schemes(&fx, &db, 3) {
            let what = format!("{name} / {kind}");
            let engines = run_by_hand(&scheme, |_, _| {});
            let mut pooled = Relation::new(fx.output.1);
            for (engine, w) in engines.iter().zip(&scheme.workers) {
                let len = |p: RelationId| engine.relation(p).unwrap().len();
                let preds = engine.idb_predicates();
                let heads: Vec<RelationId> =
                    w.program.program.rules.iter().map(|r| (r.head.predicate, r.head.terms.len())).collect();
                for p in &preds {
                    let name = fx.program.interner.resolve(p.0);
                    let own = heads.contains(p) || w.program.inboxes.contains(p);
                    assert!(own && !name.contains("@ch") && !name.contains("@bc"), "{what}: {name}");
                }
                assert_eq!(preds.len(), if w.program.inboxes.is_empty() { derived } else { 2 * derived });
                let stored: usize = preds.iter().map(|p| len(*p)).sum();
                assert_eq!(engine.stats().derived as usize, stored, "{what}: a row stored twice");
                let (routes, i) = (&w.program.routes, w.program.processor);
                if let [head] = preds[..preds.len() / 2] {
                    if home_inbox(routes, i, head).is_some() {
                        assert_eq!(len(head), 0, "{what}: t@out_{i}");
                        bypassed += engine.stats().derived;
                    }
                }
                for (local, ..) in w.program.pooling.iter().filter(|(_, g, _)| *g == fx.output_id()) {
                    pooled.absorb(engine.relation(*local).unwrap()).unwrap();
                }
            }
            assert!(pooled.set_eq(&seq.relation(fx.output_id())), "{what}: least model");
        }
    }
    assert!(bypassed > 0, "some scheme must route by hash");
}

/// Each worker's `t@out_i` and `t@in_i`, captured by pooling them under
/// per-worker names, after a fixed-seed simulated run.
fn stored_after_sim(scheme: &CompiledScheme, t: RelationId) -> (ExecutionOutcome, Vec<[Relation; 2]>) {
    let mut specs = scheme.workers.clone();
    let interner = specs[0].program.program.interner.clone();
    let cap = |what: &str, i: usize| (interner.intern(&format!("{what}~{i}")), t.1);
    for (i, spec) in specs.iter_mut().enumerate() {
        let pp = &mut spec.program;
        let head = (pp.program.rules[0].head.predicate, t.1);
        pp.pooling = vec![(head, cap("out", i), Shards::Overlap), (pp.inboxes[0], cap("in", i), Shards::Overlap)];
    }
    let outcome = SimTransport::new(5).execute(specs, &RuntimeConfig::default()).unwrap();
    let stored = (0..scheme.processors())
        .map(|i| [outcome.relation(cap("out", i)), outcome.relation(cap("in", i))])
        .collect();
    (outcome, stored)
}

/// (b') Hash partitioning: every `t@out_i` is empty, processor `i` ships
/// to `j` one row per firing whose head hashes to `j` — the run's
/// communication is [`remote_firings`] — and the `t@in_i`, the pooled
/// relations, partition the answer.
#[test]
fn hash_partitioned_traffic_is_the_remote_firings_and_t_in_partitions_the_answer() {
    let fx = linear_ancestor();
    for (kind, n) in [("example3", 2), ("example3", 4), ("general", 2), ("general", 4)] {
        let (what, edges) = (format!("{kind} / n={n}"), grid(8, 8));
        let seq = seminaive_eval(&fx.program, &fx.database(&edges)).unwrap();
        let scheme = ancestor_scheme(&fx, kind, n, &edges);
        let (outcome, stored) = stored_after_sim(&scheme, fx.output_id());
        assert_eq!(Some(outcome.stats.channel_matrix.clone()), remote_firings(&scheme), "{what}");
        let mut answer = Relation::new(2);
        for (i, [out, inbox]) in stored.iter().enumerate() {
            assert!(out.is_empty(), "{what}: t@out_{i}");
            assert!(inbox.iter().all(|t| !answer.contains(t)), "{what}: t@in_{i} overlaps another");
            answer.absorb(inbox).unwrap();
        }
        assert!(outcome.stats.total_tuples_sent() > 0 && answer.set_eq(&seq.relation(fx.output_id())), "{what}");
    }
}

/// (c) Where only selective routes consume a predicate — a constant or
/// a repeated variable in the consuming atom — the rows no route selects
/// stay in `t@out`, which stays the pooled relation, and the answer is
/// the oracle's. (Example 2's broadcast and Example 8's two routes run in
/// (a) at N = 2, 4; §6's per-processor `h_i`, where no send may be gated
/// on an inbox, in `correctness.rs`'s Theorem 4 sweep.)
#[test]
fn rows_no_route_selects_are_still_pooled() {
    let h: DiscriminatorRef = Arc::new(HashMod::new(3, 19));
    for rule in ["r(X,Y) :- r(X,3), e(3,Y).", "r(X,Y) :- r(X,X), e(X,Z), e(Z,Y)."] {
        let edge = |t: &Tuple| format!("e({},{}).", t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap());
        let facts: String = random_digraph(12, 40, 3).iter().map(edge).collect();
        let unit = parse_program(&format!("r(X,Y) :- e(X,Y).\n{rule}\ne(3,3). {facts}")).unwrap();
        let mut db = Database::new(unit.program.interner.clone());
        db.load_facts(unit.facts.clone()).unwrap();
        let choices = RuleChoice::by_name(&unit.program, &["X", "X"], &h);
        let scheme = rewrite_general(&unit.program, &choices, &db, BaseDistribution::Shared).unwrap();
        let (r, w) = (scheme.answers[0], &scheme.workers[0].program);
        let out = (w.program.rules[0].head.predicate, 2);
        assert_eq!((home_inbox(&w.routes, 0, out), &w.pooling[..]), (None, &[(out, r, Shards::Overlap)][..]), "{rule}");
        let seq = seminaive_eval(&unit.program, &db).unwrap().relation(r);
        let outcome = scheme.run_simulated(9, FaultPlan::none()).unwrap();
        assert!(seq.len() > 41 && outcome.relation(r).set_eq(&seq), "{rule}");
    }
}

/// The ways this suite runs linear ancestor (`fx`): the presets, §6's
/// `R_i` (`v(r) = ⟨Z⟩`, `v(e) = ⟨X⟩`) under three `h_i`, and §7 directly.
fn ancestor_scheme(fx: &Fixture, kind: &str, n: usize, edges: &Relation) -> CompiledScheme {
    let db = fx.database(edges);
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let h: DiscriminatorRef = Arc::new(HashMod::new(n, 19));
    let v_e = vec![fx.program.var("X")];
    let r_i = |h_i: &dyn Fn(usize) -> DiscriminatorRef| {
        let (v_r, h_locals) = (vec![fx.program.var("Z")], (0..n).map(h_i).collect());
        let cfg = GeneralizedConfig { v_r, v_e: v_e.clone(), h_prime: h.clone(), h_locals };
        rewrite_generalized(&sirup, &cfg, &db).unwrap()
    };
    match kind {
        "example1" => example1_wolfson(&sirup, n, &db).unwrap(),
        "example2" => {
            example2_valduriez(&sirup, round_robin_fragment(edges, n).unwrap(), &db).unwrap()
        }
        "example3" => example3_hash_partition(&sirup, n, &db).unwrap(),
        "skew" => skew_aware_hash_partition(&sirup, n, &db, &SkewPolicy::default()).unwrap(),
        "nocomm" => rewrite_no_comm(&sirup, &NoCommConfig { v_e, h_prime: h }, &db).unwrap(),
        "r-shared" => r_i(&|_| h.clone()),
        "r-mixed" => r_i(&|i| Arc::new(Mixed::new(i, h.clone(), 0.5, 31))),
        "r-constant" => r_i(&|i| Arc::new(Constant::new(n, i))),
        _ => {
            let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
            rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap()
        }
    }
}

/// (c) Traffic: where a routed predicate has no home inbox (Example 2's
/// broadcast), `channel_matrix` is what the sending rules shipped, as
/// recorded on the last commit whose workers executed them; everywhere
/// else it is [`remote_firings`], one row per firing that routes off the
/// processor. Processing firings as recorded there and on the last commit
/// that had one rewrite loop per scheme, at n = 2, 3, 4 for the latter.
/// `grid(12,12)`, `random_digraph(30,60,5)` and, for the skew split,
/// `star(40)`.
#[test]
fn channel_matrix_is_what_the_sending_rules_shipped() {
    type Pinned = (&'static str, &'static str, usize, &'static [&'static [u64]], u64);
    #[rustfmt::skip]
    let pinned: &[Pinned] = &[
        ("grid", "example2", 2, &[&[0, 5148], &[5148, 0]], 10296),
        ("grid", "example2", 3, &[&[0, 3464, 3464], &[3420, 0, 3420], &[3412, 3412, 0]], 10296),
        ("grid", "example2", 4, &[&[0, 2607, 2607, 2607], &[2580, 0, 2580, 2580], &[2541, 2541, 0, 2541], &[2568, 2568, 2568, 0]], 10296),
        ("random", "example2", 2, &[&[0, 536], &[508, 0]], 1350),
        ("random", "example2", 3, &[&[0, 395, 395], &[371, 0, 371], &[453, 453, 0]], 1350),
        ("random", "example2", 4, &[&[0, 287, 287, 287], &[339, 0, 339, 339], &[339, 339, 0, 339], &[339, 339, 339, 0]], 1350),
    ];
    #[rustfmt::skip]
    let home: &[(&str, &str, [u64; 3])] = &[
        ("grid", "example3", [10296; 3]), ("grid", "general", [10296; 3]), ("random", "example3", [1350; 3]),
        ("random", "general", [1350; 3]), ("grid", "example1", [10296; 3]),
        ("grid", "nocomm", [17556, 14863, 17556]), ("grid", "r-shared", [10296; 3]),
        ("grid", "r-mixed", [13676, 14693, 14830]), ("grid", "r-constant", [17556, 14863, 17556]),
        ("random", "example1", [1350; 3]), ("random", "nocomm", [1810, 1994, 2224]),
        ("random", "r-shared", [1350; 3]), ("random", "r-mixed", [1867, 2063, 2558]),
        ("random", "r-constant", [1810, 1994, 2224]), ("star", "skew", [40; 3]),
    ];
    let home = home.iter().flat_map(|&(graph, kind, firings)| (2..5).map(move |n| (graph, kind, n, &[][..], firings[n - 2])));
    for (graph, kind, n, matrix, processing) in pinned.iter().copied().chain(home) {
        let edges = match graph {
            "grid" => grid(12, 12),
            "random" => random_digraph(30, 60, 5),
            _ => star(40),
        };
        let (what, scheme) = (format!("{graph} / {kind} / n={n}"), ancestor_scheme(&linear_ancestor(), kind, n, &edges));
        let matrix = match (matrix, remote_firings(&scheme)) {
            ([], Some(oracle)) => oracle,
            ([_, ..], None) => matrix.iter().map(|row| row.to_vec()).collect(),
            _ => panic!("{what}: pinned iff a routed predicate has no home inbox"),
        };
        for outcome in [scheme.run_simulated(1, FaultPlan::none()).unwrap(), scheme.run().unwrap()] {
            assert_eq!(outcome.stats.channel_matrix, matrix, "{what}");
            assert_eq!(outcome.stats.total_processing_firings(), processing, "{what}");
        }
    }
}

/// What each worker of `scheme` runs, printed: rules, routes (pattern,
/// inboxes), inboxes, pooling pairs, processing rules — and every rule
/// condition and route key by its wire bytes, which carry the function
/// and its seed.
fn printed(scheme: &CompiledScheme) -> Vec<String> {
    let worker = |w: &WorkerSpec| {
        let pp = &w.program;
        let conditions = pp.program.rules.iter().flat_map(|r| &r.body).filter_map(|l| match l {
            Literal::Constraint(c) => Some(c),
            Literal::Atom(_) => None,
        });
        let keys: Vec<_> = conditions.chain(pp.routes.iter().flat_map(|r| &r.key)).map(|c| c.wire_encode()).collect();
        let rules = pretty::program(&pp.program);
        format!("{rules} {keys:?} {:?} {:?} {:?} {:?}", pp.routes, pp.inboxes, pp.pooling, pp.processing_rules)
    };
    scheme.workers.iter().map(worker).collect()
}

/// The paper's two reductions, over every sirup. §3 is §7 on a linear
/// sirup: `Q_i` and `rewrite_general` on the same two choices compile to
/// the same worker programs, whichever rule the source lists first. And
/// `h_i = h` is `Q_i`: `R_i` under a shared `h` ships and fires, worker
/// by worker, what `Q_i` does.
#[test]
fn q_i_is_t_i_on_a_sirup_and_r_i_under_a_shared_h() {
    for (name, fx, db) in corpus().into_iter().take(sirup_corpus().len()) {
        let (exit_first, mut flipped) = (fx.program.clone(), fx.program.clone());
        flipped.rules.reverse();
        for n in [1usize, 2, 4] {
            let (h, h_prime): (DiscriminatorRef, DiscriminatorRef) =
                (Arc::new(HashMod::new(n, 19)), Arc::new(HashMod::new(n, 23)));
            for source in [&exit_first, &flipped] {
                let sirup = LinearSirup::from_program(source).unwrap();
                let (v_r, v_e) = (first_var(&sirup.recursive_args), first_var(&sirup.exit_head));
                let choices = [
                    RuleChoice { v: v_e.clone(), h: h_prime.clone() },
                    RuleChoice { v: v_r.clone(), h: h.clone() },
                ];
                let base = BaseDistribution::Shared;
                let cfg = NonRedundantConfig { v_r, v_e, h: h.clone(), h_prime: h_prime.clone(), base };
                let q_i = rewrite_non_redundant(&sirup, &cfg, &db).unwrap();
                let t_i = rewrite_general(&exit_first, &choices, &db, base).unwrap();
                assert_eq!(printed(&q_i), printed(&t_i), "{name} / n={n}");

                let NonRedundantConfig { v_r, v_e, h_prime, .. } = cfg;
                let cfg = GeneralizedConfig { v_r, v_e, h_prime, h_locals: vec![h.clone(); n] };
                let r_i = rewrite_generalized(&sirup, &cfg, &db).unwrap();
                let [q, r] = [q_i, r_i].map(|s| s.run_simulated(3, FaultPlan::none()).unwrap().stats);
                let firings = |s: &ParallelStats| s.workers.iter().map(|w| w.processing_firings).collect::<Vec<_>>();
                assert_eq!((&q.channel_matrix, firings(&q)), (&r.channel_matrix, firings(&r)), "{name} / n={n}");
            }
        }
    }
}

/// (d) Example 8, both occurrences of `anc` routed: a tuple `anc(a,b)`
/// with `h(a) = h(b) = j` is sent to `j` by either sending rule, and
/// goes once per firing that derives it, not once per route: what each
/// processor ships to `j` is [`remote_firings`]' count.
#[test]
fn example8_sends_a_doubly_routed_tuple_once() {
    let fx = nonlinear_ancestor();
    let db = fx.database(&random_digraph(20, 40, 6));
    let n = 3;
    let hash = HashMod::new(n, 13);
    let h: DiscriminatorRef = Arc::new(hash.clone());
    let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
    let scheme = rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
    assert_eq!(scheme.workers[0].program.routes.len(), 2, "one route per occurrence");
    let (mut doubly_routed, mut shipped) = (0, vec![vec![0; n]; n]);
    let engines = run_by_hand(&scheme, |i, engine| {
        for outlet in engine.outlets() {
            let [(dest, _)] = outlet.dests[..] else { panic!("hash routes address one inbox") };
            shipped[i][dest] += outlet.rows.len() as u64;
            doubly_routed += outlet
                .rows
                .iter()
                .filter(|t| hash.assign(&[t.get(0)]) == dest && hash.assign(&[t.get(1)]) == dest)
                .count();
        }
    });
    assert!(doubly_routed > 0, "the workload must exercise the case");
    assert_eq!(Some(shipped), remote_firings(&scheme), "a doubly routed row goes once per firing");
    // A row is home only when both keys hash home: those rows are in
    // `anc@in_i`, and no row is ever stored in `anc@out_i`.
    for (i, (engine, w)) in engines.iter().zip(&scheme.workers).enumerate() {
        let home = |t: &Tuple| hash.assign(&[t.get(0)]) == i && hash.assign(&[t.get(1)]) == i;
        let (out, inbox) = (w.program.program.rules[0].head.predicate, w.program.inboxes[0]);
        assert!(engine.relation((out, 2)).unwrap().is_empty(), "processor {i} stored a row in anc@out");
        assert!(engine.relation(inbox).unwrap().iter().any(home), "processor {i} has home rows");
    }
}

/// (e) Example 2 broadcasts: one buffer, one encoding, three envelopes.
#[test]
fn a_broadcast_is_encoded_once_per_shipping_round() {
    let outcome = ancestor_scheme(&linear_ancestor(), "example2", 4, &grid(8, 8)).run().unwrap();
    for w in &outcome.stats.workers {
        assert!(w.encode_calls > 0);
        assert_eq!(w.encode_calls as usize, w.sent_per_round.len(), "worker {}", w.processor);
        assert_eq!(w.sent_messages, 3 * w.encode_calls, "worker {}", w.processor);
    }
}

/// (f) Retract routes carry the whole of a delete phase's traffic, and
/// preseeded state ships nothing: an insert-only round sends only what
/// the insert newly derives.
#[test]
fn update_rounds_ship_retractions_and_only_fresh_rows() {
    let fx = linear_ancestor();
    let edges = chain(10);
    let db = fx.database(&edges);
    let scheme = ancestor_scheme(&fx, "general", 3, &edges);
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

/// A route into an inbox its destination does not declare, or a pooling
/// pair naming a relation its processor does not hold, is refused by
/// every transport before a worker starts, naming processor, predicate
/// and destination.
#[test]
fn a_misroute_is_a_typed_error_on_every_transport() {
    let mut specs = ancestor_scheme(&linear_ancestor(), "example3", 2, &chain(6)).workers;
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
    let mut mispooled = specs.clone();
    mispooled[0].program.routes.pop();
    mispooled[1].program.pooling[0].0 = stray;
    for (name, transport) in transports {
        let err = transport.execute(specs.clone(), &cfg).unwrap_err();
        assert!(matches!(err, Error::Runtime(_)), "{name}: {err:?}");
        let message = err.to_string();
        assert!(
            message.contains("processor 0 routes anc@out0/2 to processor 1")
                && message.contains("declares no inbox nowhere/2"),
            "{name}: {message}"
        );
        let err = transport.execute(mispooled.clone(), &cfg).unwrap_err();
        assert!(matches!(err, Error::Runtime(_)), "{name}: {err:?}");
        assert!(err.to_string().contains("processor 1 pools nowhere/2, which it neither derives"), "{name}: {err}");
    }
}
