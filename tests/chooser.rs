//! The compiler's choice of `v(r_k)` — what `--scheme general` runs.
//! Over every sirup of the corpus, Example 8, mutual recursion, a constant
//! in the recursive atom, a repeated-variable atom and a ground-body rule,
//! at N ∈ {1, 2, 3, 4} on threads and under the simulator: the chosen plan
//! computes the least model without a redundant firing (Theorems 4–6),
//! what `predict` says of every (producer → consuming occurrence) pair is
//! what the compiled route tables and the observed traffic show, nothing
//! is broadcast that some candidate could route, and the choice is a
//! function of the program text alone.

use std::sync::Arc;

use parallel_datalog::core::schemes::BaseDistribution;
use parallel_datalog::frontend::pretty;
use parallel_datalog::prelude::*;
use parallel_datalog::runtime::FaultPlan;
use parallel_datalog::workloads::{
    even_odd, nonlinear_ancestor, random_digraph, same_generation, same_generation_tree, sirup_corpus,
};

fn parsed(src: &str) -> (Program, Database) {
    let unit = parse_program(src).unwrap();
    let mut db = Database::new(unit.program.interner.clone());
    db.load_facts(unit.facts).unwrap();
    (unit.program, db)
}

/// Every program with a database: the sirup corpus, the two programs only
/// §7 accepts, and three shapes the candidate rules have a clause for.
fn corpus() -> Vec<(&'static str, Program, Database)> {
    let digraph = random_digraph(16, 36, 5);
    let mut out = Vec::new();
    for (name, fx) in sirup_corpus() {
        let db = match name {
            "chain_sirup" => {
                let s: Relation = [ituple![1, 2, 3], ituple![5, 6, 7]].into_iter().collect();
                let q: Relation = (0..8i64).map(|k| ituple![k, k + 2]).collect();
                fx.database_multi(&[s, q])
            }
            "example6_sirup" => fx.database_multi(&[digraph.clone(), random_digraph(16, 36, 6)]),
            "same_generation" => {
                let (up, down, flat) = same_generation_tree(4);
                fx.database_multi(&[up, down, flat])
            }
            _ => fx.database(&digraph),
        };
        out.push((name, fx.program, db));
    }
    let fx = nonlinear_ancestor();
    out.push(("nonlinear_ancestor", fx.program.clone(), fx.database(&digraph)));
    let fx = even_odd();
    let succ: Relation = (0..12i64).map(|k| ituple![k, k + 1]).collect();
    out.push(("even_odd", fx.program.clone(), fx.database_multi(&[[ituple![0]].into_iter().collect(), succ])));

    let (program, db) = parsed("t(X,Y) :- s(X,Y).\nt(X,Y) :- t(0,Z), e(Z,X,Y).\ns(0,1). s(0,2). s(3,4). e(1,5,0). e(2,0,7). e(7,0,8). e(4,9,9).");
    out.push(("constant_in_recursive_atom", program, db));
    let texts = [
        ("repeated_variable_atom", "t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).\nloop(X) :- t(X,X)."),
        ("ground_body_rule", "ok(1) :- flag(1).\nreach(X) :- ok(X).\nreach(Y) :- reach(X), e(X,Y).\nflag(1)."),
    ];
    for (name, text) in texts {
        let (program, mut db) = parsed(text);
        db.put_relation((program.interner.intern("e"), 2), digraph.clone()).unwrap();
        out.push((name, program, db));
    }
    out
}

/// `program` keyed on `v`, as `--scheme general` compiles it for `n`
/// processors.
fn compiled(program: &Program, v: &[Vec<Variable>], db: &Database, n: usize) -> CompiledScheme {
    let h: DiscriminatorRef = Arc::new(HashMod::new(n, 0xC17));
    let choices: Vec<RuleChoice> = v.iter().map(|v| RuleChoice { v: v.clone(), h: h.clone() }).collect();
    rewrite_general(program, &choices, db, BaseDistribution::Shared).unwrap()
}

/// (broadcast pairs, pairs that are not home) — what the chooser minimises.
fn cost(pairs: &[Pair]) -> (usize, usize) {
    let count = |f: fn(Flow) -> bool| pairs.iter().filter(|p| f(p.flow)).count();
    (count(|f| f == Flow::Broadcast), count(|f| f != Flow::Home))
}

fn names(program: &Program, v: &[Vec<Variable>]) -> Vec<Vec<String>> {
    v.iter().map(|v| v.iter().map(|x| x.name(&program.interner)).collect()).collect()
}

/// (a) Theorems 4–6 over the chosen plan, and (b) predicted against
/// observed: a pair is predicted `Broadcast` iff its compiled route has no
/// key; without a broadcast a processor ships a fired row at most once per
/// route of its predicate; with every pair `Home` no channel carries a row.
/// The plan the CLI used to take — every rule on its first body variable,
/// which does broadcast — is held to the same prediction.
#[test]
fn the_chosen_plan_is_correct_non_redundant_and_does_what_was_predicted() {
    for (name, program, db) in corpus() {
        let first: Vec<Vec<Variable>> = program.rules.iter().map(first_body_variable).collect();
        for v in [choose_sequences(&program), first] {
            plan_does_what_was_predicted(name, &program, &v, &db);
        }
    }
}

fn plan_does_what_was_predicted(name: &str, program: &Program, v: &[Vec<Variable>], db: &Database) {
    let seq = seminaive_eval(program, db).unwrap();
    let pairs = predict(program, v);
    let (broadcasts, away) = cost(&pairs);
    // One route per (consumer, occurrence): the pairs of one occurrence
    // are adjacent and agree on whether it broadcasts.
    let mut occurrences: Vec<&Pair> = Vec::new();
    for pair in &pairs {
        if occurrences.last().is_none_or(|o| (o.consumer, o.atom) != (pair.consumer, pair.atom)) {
            occurrences.push(pair);
        }
    }
    for n in 1..=4usize {
        let scheme = compiled(program, v, db, n);
        for worker in &scheme.workers {
            let routes = &worker.program.routes;
            assert_eq!(routes.len(), occurrences.len(), "{name} / n={n}: one route per occurrence");
            for (route, predicted) in routes.iter().zip(&occurrences) {
                assert_eq!(route.key.is_none(), predicted.flow == Flow::Broadcast, "{name} / n={n}: {route:?} vs {predicted:?}");
            }
        }
        // The most routes any one predicate has.
        let routes = &scheme.workers[0].program.routes;
        let fan = routes.iter().map(|r| routes.iter().filter(|o| o.source_id() == r.source_id()).count()).max().unwrap_or(0) as u64;
        let runs = [("threads", scheme.run()), ("sim", scheme.run_simulated(7, FaultPlan::none()))];
        for (transport, outcome) in runs {
            let what = format!("{name} / n={n} / {transport}");
            let outcome = outcome.unwrap();
            for &answer in &scheme.answers {
                assert!(outcome.relation(answer).set_eq(&seq.relation(answer)), "{what}: least model");
            }
            let fired = outcome.stats.total_processing_firings();
            assert!(fired <= seq.stats.firings, "{what}: Theorem 6, {fired} > {}", seq.stats.firings);
            if n == 1 {
                assert_eq!(fired, seq.stats.firings, "{what}: one processor is the sequential engine");
            }
            let sent = outcome.stats.total_tuples_sent();
            if broadcasts == 0 {
                assert!(sent <= fired * fan, "{what}: {sent} rows shipped, {fired} fired, {fan} routes");
            }
            if away == 0 {
                assert_eq!(sent, 0, "{what}: every pair is home, {:?}", outcome.stats.channel_matrix);
            }
        }
    }
}

/// (c) Exhaustively over the single-variable assignments of every corpus
/// program: the chooser never broadcasts where some assignment does not,
/// and on these programs its sweeps reach the fewest non-home pairs too.
/// On a sirup whose dataflow graph has a self-loop the result is Theorem
/// 3's: nothing ships.
#[test]
fn no_assignment_broadcasts_less_or_keeps_more_at_home() {
    for (name, program, _) in corpus() {
        let per_rule: Vec<Vec<Vec<Variable>>> = program
            .rules
            .iter()
            .map(|rule| {
                let mut vars: Vec<Vec<Variable>> = Vec::new();
                for v in rule.body_atoms().flat_map(Atom::variables) {
                    if !vars.contains(&vec![v]) {
                        vars.push(vec![v]);
                    }
                }
                if vars.is_empty() { vec![vec![]] } else { vars }
            })
            .collect();
        let mut assignments: Vec<Vec<Vec<Variable>>> = vec![vec![]];
        for options in &per_rule {
            assignments = assignments
                .iter()
                .flat_map(|a| options.iter().map(move |v| [a.clone(), vec![v.clone()]].concat()))
                .collect();
        }
        let best = assignments.iter().map(|v| cost(&predict(&program, v))).min().unwrap();
        let chosen = choose_sequences(&program);
        assert_eq!(cost(&predict(&program, &chosen)), best, "{name}: chose {:?}", names(&program, &chosen));

        if let Ok(choice) = LinearSirup::from_program(&program).and_then(|s| zero_comm_choice(&s)) {
            if choice.positions.len() == 1 {
                assert_eq!(best, (0, 0), "{name}: a self-loop of the dataflow graph is a home plan");
                assert_eq!(chosen[1], choice.v_r, "{name}: v(r)");
                assert_eq!(chosen[0], choice.v_e, "{name}: v(e)");
            }
        }
    }
}

/// (d) The choice is a function of the program text: a second call, and a
/// fresh parse of the printed program (other symbol ids), choose the same
/// names — and `choose_sequences` is given nothing else to read: no
/// database, processor count or seed.
#[test]
fn the_choice_is_a_function_of_the_program_text() {
    for (name, program, _) in corpus() {
        let chosen = choose_sequences(&program);
        assert_eq!(chosen, choose_sequences(&program), "{name}");
        let reparsed = parse_program(&pretty::program(&program)).unwrap().program;
        assert_eq!(names(&reparsed, &choose_sequences(&reparsed)), names(&program, &chosen), "{name}");
    }
}

/// Same generation, the benchmark's `sg-general` in small: keyed on the
/// variable the recursive atom binds, it ships fewer rows than it derives
/// at N = 2; on the first body variable it shipped every one of them.
#[test]
fn same_generation_ships_less_than_it_derives() {
    let fx = same_generation();
    let (up, down, flat) = same_generation_tree(6);
    let db = fx.database_multi(&[up, down, flat]);
    assert_eq!(names(&fx.program, &choose_sequences(&fx.program)), [["X"], ["U"]]);
    let outcome = compiled(&fx.program, &choose_sequences(&fx.program), &db, 2).run().unwrap();
    let derived = outcome.relation(fx.output_id()).len() as u64;
    let sent = outcome.stats.total_tuples_sent();
    assert!(0 < sent && sent < derived, "{sent} shipped of {derived}");

    let first = vec![vec![fx.program.var("X")]; 2];
    let broadcast = compiled(&fx.program, &first, &db, 2).run().unwrap();
    assert_eq!(broadcast.stats.total_tuples_sent(), derived, "the broadcast plan ships every row once");
}
