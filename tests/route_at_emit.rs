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
//! is a typed error before any worker starts. A point query whose only
//! demand is its seed compiles to one processor, and a one-processor plan
//! runs no filter and copies no base relation. A condition the routes
//! into a rule's inbox already guarantee is compiled to no filter, and
//! runs exactly as the unmarked plan does.

use std::sync::Arc;

use parallel_datalog::core::schemes::BaseDistribution;
use parallel_datalog::eval::plan::{PlanStep, RelationId};
use parallel_datalog::eval::{compile_rule, route::home_inbox, FixpointEngine};
use parallel_datalog::frontend::magic::{magic_rewrite, MagicRewrite};
use parallel_datalog::frontend::{ast::ConstraintRef, parser::parse_program_with, pretty, Constraint};
use parallel_datalog::prelude::*;
use parallel_datalog::runtime::{
    FaultPlan, InProcessLauncher, Journal, NetConfig, NetCoordinator, ObsKind, ParallelStats, Route, Shards, SimTransport,
};
use parallel_datalog::workloads::{
    chain, even_odd, grid, layered, linear_ancestor, nonlinear_ancestor, random_digraph,
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
        let no_comm = [RulePolicy::shared(v_e.clone(), &h), RulePolicy::local(vec![], Constant::each(n))];
        let generalized = [RulePolicy::shared(v_e, &h), RulePolicy::local(v_r, vec![h.clone(); n])];
        let sirup_scheme = |policies, kind| rewrite_sirup(&sirup, policies, db, BaseDistribution::Shared, kind);
        let presets = [
            ("example1", example1_wolfson(&sirup, n, db)),
            ("example3", example3_hash_partition(&sirup, n, db)),
            ("example2", frag.and_then(|frag| example2_valduriez(&sirup, frag, db))),
            ("no-comm", sirup_scheme(no_comm, "§6 no-comm")),
            ("generalized", sirup_scheme(generalized, "§6 R_i")),
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

/// `source` parsed, its facts the database.
fn load(source: &str) -> (Program, Database) {
    let unit = parse_program(source).unwrap();
    let mut db = Database::new(unit.program.interner.clone());
    db.load_facts(unit.facts).unwrap();
    (unit.program, db)
}

/// Point queries, each a program with its facts and a goal: first those
/// whose demand is the seed alone — right-linear ancestor, a ground goal
/// on a view, the shipped `org_magic.dl` — then goals whose demand grows:
/// left-linear ancestor, a ground goal on right-linear ancestor (its
/// recursive occurrence demands `anc^bf`), a goal that binds `boss`'s
/// second argument (`m_boss_ff`).
fn point_queries() -> [(&'static str, String, String); 6] {
    let edges = random_digraph(30, 60, 5);
    let int = |t: &Tuple, k| t.get(k).as_int().unwrap();
    let par: String = edges.iter().map(|t| format!("par({},{}). ", int(t, 0), int(t, 1))).collect();
    let (a, b) = (int(&edges.rows()[0], 0), int(&edges.rows()[0], 1));
    let right = format!("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(X,Z), par(Z,Y).\n{par}");
    let left = format!("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).\n{par}");
    let view = format!("sym(X,Y) :- par(X,Y).\nsym(X,Y) :- par(Y,X).\n{par}");
    let org = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs/org_magic.dl")).unwrap();
    [
        ("right-linear", right.clone(), format!("anc({a}, Y)")),
        ("view", view, format!("sym({b}, {a})")),
        ("org_magic", org.clone(), "boss(ivan, B)".into()),
        ("left-linear", left, format!("anc({a}, Y)")),
        ("ground right-linear", right, format!("anc({a}, {b})")),
        ("org boss(E, ceo)", org, "boss(E, ceo)".into()),
    ]
}

/// The magic rewrite of `goal` over `program`, and `db` with its seed.
fn rewrite_goal(program: &Program, db: &Database, goal: &str) -> (MagicRewrite, Database) {
    let wrapped = parse_program_with(&format!("goal :- {goal}."), &program.interner).unwrap();
    let goal = wrapped.program.rules[0].body_atoms().next().unwrap().clone();
    let rw = magic_rewrite(program, &goal).unwrap();
    let mut seeded = db.clone();
    seeded.insert((rw.seed_predicate.name, rw.seed_predicate.arity), rw.seed_fact.clone()).unwrap();
    (rw, seeded)
}

/// The compiler picks N: a point query whose only demand is its seed
/// compiles to one processor under any ceiling, and fires and inserts what
/// `seminaive_eval` does on the seeded magic program. The premise: built
/// directly at W processors, such a plan fires on one worker and ships
/// nothing, so N = 1 gives no parallelism away. A goal whose demand grows
/// keeps W, with the Σ processing firings and `comm_tuples` of a seed-7
/// sim run as recorded before the compiler could pick N.
#[test]
fn a_point_query_whose_only_demand_is_its_seed_runs_on_one_processor() {
    let growing: [[(u64, u64); 3]; 3] = [
        [(1261, 646), (1261, 1275), (1261, 1894)],
        [(65, 29), (65, 57), (65, 85)],
        [(62, 45), (62, 90), (62, 135)],
    ];
    for (k, (name, source, goal)) in point_queries().into_iter().enumerate() {
        let (program, db) = load(&source);
        let (rw, seeded) = rewrite_goal(&program, &db, &goal);
        let answer = (rw.answer.name, rw.answer.arity);
        let seq = seminaive_eval(&rw.program, &seeded).unwrap();
        assert!(seq.relation(answer).iter().any(|t| rw.answer_matches(t)), "{name}: a vacuous point query");
        for w in [2usize, 3, 4] {
            let what = format!("{name} / W={w}");
            let scheme = compile_demand(&rw, &db, w).unwrap();
            if k >= 3 {
                assert_eq!(scheme.processors(), w, "{what}: the demand grows");
                let stats = scheme.run_simulated(7, FaultPlan::none()).unwrap().stats;
                let counters = (stats.total_processing_firings(), stats.total_tuples_sent());
                assert_eq!(counters, growing[k - 3][w - 2], "{what}");
                continue;
            }
            assert_eq!(scheme.processors(), 1, "{what}: one demand key");
            fires_what_seq_fires(&what, &scheme, &rw.program, &seq, answer);
            let choices = demand_choices(&rw, w, DEMAND_HASH_SEED).unwrap();
            let direct = rewrite_general(&rw.program, &choices, &seeded, BaseDistribution::MinimalFragments).unwrap();
            let outcome = direct.run_simulated(7, FaultPlan::none()).unwrap();
            assert!(outcome.relation(answer).set_eq(&seq.relation(answer)), "{what}: least model at W");
            let firing = outcome.stats.workers.iter().filter(|r| r.processing_firings > 0).count();
            assert_eq!((firing, outcome.stats.total_tuples_sent()), (1, 0), "{what}: one worker fires, none ships");
        }
    }
}

/// Over one processor `h(v(r)) = 0` always holds, so no compiled plan has
/// a filter and every base relation is the caller's, shared and not
/// copied: the corpus under every scheme but Example 2 (whose base *is*
/// its fragments), and every point query's plan, whose seed relation the
/// compiler adds.
#[test]
fn a_one_processor_plan_runs_no_filter_and_copies_no_base_relation() {
    let check = |what: &str, scheme: &CompiledScheme, db: &Database, added: &[RelationId]| {
        assert_eq!(scheme.processors(), 1, "{what}");
        let w = &scheme.workers[0];
        for (k, rule) in w.program.program.rules.iter().enumerate() {
            let plan = compile_rule(rule, k, &|id| w.edb.relation(id).is_none(), None).unwrap();
            assert!(!plan.steps.iter().any(|s| matches!(s, PlanStep::Filter { .. })), "{what}: rule {k} filters");
        }
        for (id, relation) in w.edb.iter().filter(|(id, _)| !added.contains(id)) {
            assert!(std::ptr::eq(relation, db.relation(*id).unwrap()), "{what}: a copy of {}", w.program.program.interner.resolve(id.0));
        }
    };
    for (name, fx, db) in corpus() {
        for (kind, scheme) in schemes(&fx, &db, 1).iter().filter(|(kind, _)| *kind != "example2") {
            check(&format!("{name} / {kind}"), scheme, &db, &[]);
        }
    }
    for (name, source, goal) in point_queries() {
        let (program, db) = load(&source);
        let (rw, _) = rewrite_goal(&program, &db, &goal);
        let seed = (rw.seed_predicate.name, rw.seed_predicate.arity);
        check(name, &compile_demand(&rw, &db, 1).unwrap(), &db, &[seed]);
    }
}

/// `scheme` computes `seq`'s `out` firing processing rules only, and at
/// one processor fires, inserts and discards what `seq` did with every
/// routed `t@out` empty (a predicate no rule reads has no route, and its
/// `t@out` is what pools).
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
    for route in &scheme.workers[0].program.routes {
        let name = program.interner.resolve(route.source_id().0);
        let rows = engine.relation(route.source_id()).unwrap().len();
        assert!(rows == 0, "{what}: {rows} rows in {name}");
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

/// The words of `constraint`'s variables' values under `env`.
fn bound(env: &Env, constraint: &ConstraintRef) -> Vec<Word> {
    constraint.variables().iter().map(|&v| value(env, &Term::Var(v)).word()).collect()
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
    let r_i = |v_r: Vec<Variable>, h_locals: Vec<DiscriminatorRef>| {
        let policies = [RulePolicy::shared(v_e.clone(), &h), RulePolicy::local(v_r, h_locals)];
        rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§6 R_i").unwrap()
    };
    let z = || vec![fx.program.var("Z")];
    match kind {
        "example1" => example1_wolfson(&sirup, n, &db).unwrap(),
        "example2" => {
            example2_valduriez(&sirup, round_robin_fragment(edges, n).unwrap(), &db).unwrap()
        }
        "example3" => example3_hash_partition(&sirup, n, &db).unwrap(),
        "nocomm" => r_i(vec![], Constant::each(n)),
        "r-shared" => r_i(z(), vec![h.clone(); n]),
        "r-mixed" => r_i(z(), (0..n).map(|i| Arc::new(Mixed::new(i, h.clone(), 0.5, 31)) as DiscriminatorRef).collect()),
        "r-constant" => r_i(z(), Constant::each(n)),
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
/// `grid(12,12)`, `random_digraph(30,60,5)` and, for a hot key,
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
        ("random", "r-constant", [1810, 1994, 2224]), ("star", "example3", [40; 3]),
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

/// Batches worker `worker` sent inside one of its rounds, between its
/// `RoundBegin` and `RoundEnd`: the chunks a round shipped while it ran.
fn shipped_mid_round(journal: &Journal, worker: usize) -> usize {
    let mut open = false;
    let mut inside = 0;
    for e in journal.events.iter().filter(|e| e.worker == worker) {
        match e.kind {
            ObsKind::RoundBegin { .. } => open = true,
            ObsKind::RoundEnd { .. } => open = false,
            ObsKind::BatchSent { .. } => inside += open as usize,
            _ => {}
        }
    }
    inside
}

/// (c') A round ships while it runs: a worker fires its leading delta in
/// chunks of `CHUNK_ROWS` rows and ships an outlet between two chunks once
/// it holds a chunk's worth. On a layered graph whose rounds span several
/// chunks, every preset and `general` at N = 2, 3, 4, on five simulated
/// schedules and on threads, fire, ship and compute what the engines fire
/// whole, in lock-step rounds by hand: per-worker firings, the channel
/// matrix, `tuples_sent` and the least model. Rows shipped mid-round reach
/// a peer before the round that emitted them ends, so the schedules differ
/// from the hand's; none of these counts may, and every journal, with its
/// sends inside rounds, validates.
#[test]
fn a_round_fired_and_shipped_in_chunks_fires_and_ships_what_it_fires_whole() {
    let fx = linear_ancestor();
    let kinds = ["example1", "example2", "example3", "nocomm", "r-shared", "r-mixed", "r-constant", "general"];
    let mut mid_round = [0; 5];
    for n in [2usize, 3, 4] {
        // Three layers of 60·N nodes, each wired to 12 of the next: the
        // middle layer's edges are half of the first round's delta and fire
        // about 12 times each, so at every processor that round reads more
        // than a chunk of rows and fills every outlet past a chunk.
        let edges = layered(3, 60 * n as u64, 12, 7);
        let seq = seminaive_eval(&fx.program, &fx.database(&edges)).unwrap().relation(fx.output_id());
        for kind in kinds {
            let (what, scheme) = (format!("{kind} / n={n}"), ancestor_scheme(&fx, kind, n, &edges));
            let mut matrix = vec![vec![0; n]; n];
            let engines = run_by_hand(&scheme, |i, engine| {
                for outlet in engine.outlets() {
                    outlet.dests.iter().for_each(|&(j, _)| matrix[i][j] += outlet.rows.len() as u64);
                }
            });
            let firings: Vec<u64> = engines.iter().map(|e| e.stats().firings).collect();
            let config = RuntimeConfig { trace: true, ..RuntimeConfig::default() };
            let sim = (0..5).map(|seed| (format!("seed {seed}"), SimTransport::new(seed).execute(scheme.workers.clone(), &config)));
            let threads = ThreadedTransport.execute(scheme.workers.clone(), &config);
            for (run, outcome) in sim.chain([("threads".to_string(), threads)]) {
                let (outcome, what) = (outcome.unwrap(), format!("{what} / {run}"));
                let stats = &outcome.stats;
                assert!(outcome.relation(fx.output_id()).set_eq(&seq), "{what}: least model");
                assert_eq!(stats.workers.iter().map(|w| w.eval.firings).collect::<Vec<_>>(), firings, "{what}: firings");
                assert_eq!(stats.channel_matrix, matrix, "{what}: channel matrix");
                assert_eq!(stats.total_tuples_sent(), matrix.iter().flatten().sum::<u64>(), "{what}: tuples_sent");
                outcome.journal.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
                mid_round[n] += (0..n).map(|w| shipped_mid_round(&outcome.journal, w)).sum::<usize>();
            }
        }
    }
    assert!(mid_round[2..].iter().all(|&k| k > 0), "no round shipped while it ran: {mid_round:?}");
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
                let exit = RulePolicy::shared(v_e, &h_prime);
                let q_i = rewrite_sirup(&sirup, [exit.clone(), RulePolicy::shared(v_r.clone(), &h)], &db, base, "§3 Q_i").unwrap();
                let t_i = rewrite_general(&exit_first, &choices, &db, base).unwrap();
                assert_eq!(printed(&q_i), printed(&t_i), "{name} / n={n}");

                let r_i = rewrite_sirup(&sirup, [exit, RulePolicy::local(v_r, vec![h.clone(); n])], &db, base, "§6 R_i").unwrap();
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
                .filter(|t| hash.assign(&[t.word(0)]) == dest && hash.assign(&[t.word(1)]) == dest)
                .count();
        }
    });
    assert!(doubly_routed > 0, "the workload must exercise the case");
    assert_eq!(Some(shipped), remote_firings(&scheme), "a doubly routed row goes once per firing");
    // A row is home only when both keys hash home: those rows are in
    // `anc@in_i`, and no row is ever stored in `anc@out_i`.
    for (i, (engine, w)) in engines.iter().zip(&scheme.workers).enumerate() {
        let home = |t: &Tuple| hash.assign(&[t.word(0)]) == i && hash.assign(&[t.word(1)]) == i;
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
        assert_eq!(w.sent_messages, 3 * w.encode_calls, "worker {}", w.processor);
    }
}

/// (e') The journal is the one per-round and per-batch record: each
/// worker's events add up to its report's traffic and codec counters,
/// its rounds' fresh rows to what its engine admitted, and its rounds are
/// numbered in order. Every preset and `general` at N = 2, 3, 4 on the
/// layered graph whose rounds ship in chunks, traced under `--sim --seed 7`.
#[test]
fn the_journal_carries_every_workers_rounds_and_traffic() {
    let fx = linear_ancestor();
    let kinds = ["example1", "example2", "example3", "nocomm", "r-shared", "r-mixed", "r-constant", "general"];
    let config = RuntimeConfig { trace: true, ..RuntimeConfig::default() };
    for n in [2usize, 3, 4] {
        let edges = layered(3, 60 * n as u64, 12, 7);
        for kind in kinds {
            let scheme = ancestor_scheme(&fx, kind, n, &edges);
            let outcome = scheme.run_simulated_with(7, FaultPlan::none(), &config).unwrap();
            for (i, w) in outcome.stats.workers.iter().enumerate() {
                let what = format!("{kind} / n={n} / w{i}");
                let (mut sent, mut encodes, mut received, mut fresh_rows, mut rounds) =
                    (vec![0; n], 0, 0, 0, Vec::new());
                for e in outcome.journal.events.iter().filter(|e| e.worker == i) {
                    match e.kind {
                        ObsKind::BatchSent { to, tuples, .. } => sent[to] += tuples,
                        ObsKind::BatchEncoded { .. } => encodes += 1,
                        ObsKind::BatchReceived { tuples, duplicate: false, .. } => received += tuples,
                        ObsKind::RoundEnd { round, fresh, .. } => {
                            fresh_rows += fresh;
                            rounds.push(round);
                        }
                        _ => {}
                    }
                }
                assert_eq!(sent, outcome.stats.channel_matrix[i], "{what}: sends");
                assert_eq!(encodes, w.encode_calls, "{what}: encodes");
                assert_eq!(received, w.received_tuples, "{what}: receives");
                assert_eq!(fresh_rows, w.eval.derived, "{what}: fresh rows");
                assert!(rounds.windows(2).all(|r| r[0] < r[1]), "{what}: rounds out of order: {rounds:?}");
            }
        }
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
    // The recursive rule reads `anc_in`, keyed on its `v(r) = ⟨Z⟩`: its
    // condition is implied, and every round below — preseeded inboxes,
    // injected seeds, the deletion cone — runs with that asserted in a
    // debug build. No session places a row where its key does not.
    assert_eq!(filters_and_marks("session", &scheme), (1, 1));
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

/// A rule condition rebuilt unmarked: the same test, claiming nothing of
/// the placement.
struct Unmarked(ConstraintRef);

impl Constraint for Unmarked {
    fn variables(&self) -> &[Variable] {
        self.0.variables()
    }
    fn holds(&self, bound: &[Word]) -> bool {
        self.0.holds(bound)
    }
    fn describe(&self, interner: &Interner) -> String {
        self.0.describe(interner)
    }
}

/// `scheme` with every rule condition rebuilt unmarked: every worker runs
/// every filter.
fn unmarked(scheme: &CompiledScheme) -> CompiledScheme {
    let mut scheme = scheme.clone();
    for rule in scheme.workers.iter_mut().flat_map(|w| &mut w.program.program.rules) {
        for literal in &mut rule.body {
            if let Literal::Constraint(c) = literal {
                *c = Arc::new(Unmarked(c.clone()));
            }
        }
    }
    scheme
}

/// The `Filter` steps in a worker's compiled plans and the conditions its
/// rules mark implied — the same at every worker of `scheme`.
fn filters_and_marks(what: &str, scheme: &CompiledScheme) -> (usize, usize) {
    let count = |w: &WorkerSpec| {
        let pp = &w.program;
        let heads = pp.program.rules.iter().map(|r| (r.head.predicate, r.head.terms.len()));
        let idb: Vec<RelationId> = heads.chain(pp.extra_idb()).collect();
        let (mut filters, mut asserted) = (0, 0);
        for (k, rule) in pp.program.rules.iter().enumerate() {
            for step in compile_rule(rule, k, &|id| idb.contains(&id), None).unwrap().steps {
                filters += usize::from(matches!(step, PlanStep::Filter { .. }));
                asserted += usize::from(matches!(step, PlanStep::Implied { .. }));
            }
        }
        let body = pp.program.rules.iter().flat_map(|r| &r.body);
        let marks = body.filter(|l| matches!(l, Literal::Constraint(c) if c.implied())).count();
        assert_eq!(asserted, if cfg!(debug_assertions) { marks } else { 0 }, "{what}: a debug build asserts every mark");
        (filters, marks)
    };
    let per_worker: Vec<(usize, usize)> = scheme.workers.iter().map(count).collect();
    assert!(per_worker.windows(2).all(|p| p[0] == p[1]), "{what}: {per_worker:?}");
    per_worker[0]
}

/// A condition the placement implies is marked and compiled to no filter,
/// and the mark changes nothing: on every preset, on `general` over linear
/// ancestor, same-generation and Example 8, and on a growing demand plan,
/// at W = 2, 3, 4, each worker's plans hold the pinned number of `Filter`
/// steps, and a run of the scheme as compiled and one with every condition
/// rebuilt unmarked give the same per-worker firings, channel matrix,
/// tuples sent and least model. The recursive rule's filter goes where its
/// inbox is keyed on `v(r)` by the rule's own `h`, and so do the demand
/// plan's magic, exit and recursive rules, which all read the demand
/// inbox; Example 2 broadcasts, Example 8 keys `anc` on two columns,
/// `nocomm`'s `h_i` differ per processor, and an exit rule over a base
/// relation reads no inbox, so theirs stay.
#[test]
fn a_condition_the_placement_implies_runs_no_filter_and_changes_nothing() {
    let edges = random_digraph(30, 60, 5);
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let (db, anc) = (fx.database(&edges), fx.output_id());
    let hot = fx.database(&parallel_datalog::workloads::zipf_digraph(200, 150, 20, 9));
    let (sg, tree) = (parallel_datalog::workloads::same_generation(), same_generation_tree(5));
    let sg_db = sg.database_multi(&[tree.0, tree.1, tree.2]);
    let (ex8, ex8_db) = (nonlinear_ancestor(), nonlinear_ancestor().database(&edges));
    let (program, facts) = load(&point_queries()[3].1);
    let (rw, _) = rewrite_goal(&program, &facts, &point_queries()[3].2);
    let general = |fx: &Fixture, db: &Database, n: usize| {
        let h: DiscriminatorRef = Arc::new(HashMod::new(n, 0xC17));
        let choices: Vec<RuleChoice> = choose_sequences(&fx.program).into_iter().map(|v| RuleChoice { v, h: h.clone() }).collect();
        rewrite_general(&fx.program, &choices, db, BaseDistribution::Shared).unwrap()
    };
    for n in [2usize, 3, 4] {
        let h: DiscriminatorRef = Arc::new(HashMod::new(n, 19));
        let no_comm = [RulePolicy::shared(vec![fx.program.var("X")], &h), RulePolicy::local(vec![], Constant::each(n))];
        #[rustfmt::skip]
        let cells: Vec<(&str, CompiledScheme, RelationId, (usize, usize))> = vec![
            ("example1", example1_wolfson(&sirup, n, &db).unwrap(), anc, (1, 1)),
            ("example2", example2_valduriez(&sirup, round_robin_fragment(&edges, n).unwrap(), &db).unwrap(), anc, (2, 0)),
            ("example3", example3_hash_partition(&sirup, n, &db).unwrap(), anc, (1, 1)),
            ("nocomm", rewrite_sirup(&sirup, no_comm, &db, BaseDistribution::Shared, "§6 no-comm").unwrap(), anc, (1, 0)),
            ("example3 (zipf)", example3_hash_partition(&sirup, n, &hot).unwrap(), anc, (1, 1)),
            ("general ancestor", general(&fx, &db, n), anc, (1, 1)),
            ("general same-generation", general(&sg, &sg_db, n), sg.output_id(), (1, 1)),
            ("general Example 8", general(&ex8, &ex8_db, n), ex8.output_id(), (2, 0)),
            ("growing demand", compile_demand(&rw, &facts, n).unwrap(), (rw.answer.name, rw.answer.arity), (1, 3)),
        ];
        for (kind, scheme, answer, pinned) in cells {
            let what = format!("{kind} / W={n}");
            assert_eq!(scheme.processors(), n, "{what}");
            assert_eq!(filters_and_marks(&what, &scheme), pinned, "{what}: (filters, marks) per worker");
            let plain = unmarked(&scheme);
            assert_eq!(filters_and_marks(&what, &plain), (pinned.0 + pinned.1, 0), "{what}: unmarked");
            let [marked, plain] = [scheme, plain].map(|s| s.run_simulated(7, FaultPlan::none()).unwrap());
            let firings = |o: &ExecutionOutcome| o.stats.workers.iter().map(|w| (w.processing_firings, w.eval.firings)).collect::<Vec<_>>();
            assert_eq!(firings(&marked), firings(&plain), "{what}: per-worker firings");
            assert_eq!(marked.stats.channel_matrix, plain.stats.channel_matrix, "{what}: channel matrix");
            assert_eq!(marked.stats.total_tuples_sent(), plain.stats.total_tuples_sent(), "{what}: tuples sent");
            assert!(!marked.relation(answer).is_empty() && marked.relation(answer).set_eq(&plain.relation(answer)), "{what}: least model");
        }
    }
}
