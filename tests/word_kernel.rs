//! The word kernel against a `Value` reference.
//!
//! The join binds, probes and emits untagged words and a type bit, the
//! indexes hash the words, and the route table hashes the row it is handed
//! (DESIGN.md §8). The reference here is a brute-force nested-loop
//! evaluator over `Tuple::get` and `Value` equality; the programs are the
//! ones a word path gets wrong when it drops the type bit, mishandles a
//! constant, a repeated variable, a heap row, an empty head, a wide key or
//! a dead row. Then a pin: every discriminator's assignment of the words a
//! row's columns hold, and its literal's `holds` and `partition`, fold into
//! a digest that was written from the `Value` evaluation the words
//! replaced, so no partition can move unseen.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;
use std::sync::Arc;

use parallel_datalog::common::{FxHasher, SymbolId};
use parallel_datalog::eval::exec::{run_plan, Access};
use parallel_datalog::eval::compile_rule;
use parallel_datalog::eval::plan::RelationId;
use parallel_datalog::frontend::Constraint;
use parallel_datalog::prelude::*;

type Model = BTreeMap<RelationId, BTreeSet<Tuple>>;

/// The head of every ground substitution satisfying `rule`'s body over
/// `model`, one per substitution: nested loops in body order, a variable
/// bound on first sight and compared (as a `Value`) after.
fn fire(rule: &Rule, model: &Model) -> Vec<Tuple> {
    fn go(rule: &Rule, model: &Model, at: usize, env: &mut Vec<(Variable, Value)>, out: &mut Vec<Tuple>) {
        let value = |env: &[(Variable, Value)], term: &Term| match term {
            Term::Const(c) => Some(*c),
            Term::Var(v) => env.iter().find(|(w, _)| w == v).map(|&(_, value)| value),
        };
        let Some(literal) = rule.body.get(at) else {
            let bound = |c: &Arc<dyn Constraint>| c.variables().iter().map(|v| value(env, &Term::Var(*v)).unwrap().word()).collect::<Vec<_>>();
            let constraints = rule.body.iter().filter_map(|l| match l {
                Literal::Constraint(c) => Some(c),
                Literal::Atom(_) => None,
            });
            if constraints.into_iter().all(|c| c.holds(&bound(c))) {
                out.push(rule.head.terms.iter().map(|t| value(env, t).unwrap()).collect());
            }
            return;
        };
        let Literal::Atom(atom) = literal else { return go(rule, model, at + 1, env, out) };
        for row in model.get(&(atom.predicate, atom.terms.len())).into_iter().flatten() {
            let mark = env.len();
            let matches = atom.terms.iter().enumerate().all(|(k, term)| match (value(env, term), term) {
                (Some(v), _) => row.get(k) == v,
                (None, Term::Var(v)) => {
                    env.push((*v, row.get(k)));
                    true
                }
                (None, Term::Const(_)) => unreachable!(),
            });
            if matches {
                go(rule, model, at + 1, env, out);
            }
            env.truncate(mark);
        }
    }
    let mut out = Vec::new();
    go(rule, model, 0, &mut Vec::new(), &mut out);
    out
}

/// The least model by naive iteration of [`fire`], and the firings of a
/// non-redundant evaluation: the substitutions that hold in it.
fn reference(program: &Program, facts: &Model) -> (Model, u64) {
    let mut model = facts.clone();
    loop {
        let before: usize = model.values().map(BTreeSet::len).sum();
        for rule in &program.rules {
            let heads = fire(rule, &model);
            model.entry((rule.head.predicate, rule.head.terms.len())).or_default().extend(heads);
        }
        if model.values().map(BTreeSet::len).sum::<usize>() == before {
            let firings = program.rules.iter().map(|r| fire(r, &model).len() as u64).sum();
            return (model, firings);
        }
    }
}

/// `source` with `{K}` replaced by the id the constant `five` interns to,
/// so `Int({K})` and `five` share a word; parsed, with its facts.
fn load(source: &str) -> (Program, Database, Model) {
    let id_of_five = |text: &str| parse_program(text).unwrap().program.interner.get("five").map_or(0, |s| s.0);
    let text = source.replace("{K}", &id_of_five(&source.replace("{K}", "0")).to_string());
    let unit = parse_program(&text).unwrap();
    let mut db = Database::new(unit.program.interner.clone());
    db.load_facts(unit.facts.clone()).unwrap();
    let mut facts = Model::new();
    for (pred, rows) in unit.facts {
        facts.entry((pred.name, pred.arity)).or_default().extend(rows);
    }
    (unit.program, db, facts)
}

fn check(name: &str, program: &Program, db: &Database, facts: &Model) {
    let (model, firings) = reference(program, facts);
    let result = seminaive_eval(program, db).unwrap();
    for (id, relation) in &result.idb {
        let got: BTreeSet<Tuple> = relation.iter().cloned().collect();
        assert_eq!(Some(&got), model.get(id).or(Some(&BTreeSet::new())), "{name}: {}", program.interner.resolve(id.0));
    }
    assert_eq!(result.stats.firings, firings, "{name}: firings");
    assert!(firings > 0, "{name}: the program must fire");
}

const PROGRAMS: &[(&str, &str)] = &[
    // Int(k) and the Sym with id k: in a join column (EDB probe, delta
    // scan, derived probe) and as a probe constant. Nothing may cross.
    ("int-vs-sym", "j(X,Z) :- a(X,Y), b(Y,Z). t(X,Y) :- a(X,Y). t(X,Z) :- t(X,Y), b(Y,Z).
      u(X,Z) :- b(X,Y), t(Y,Z). ci(Z) :- b({K},Z). cs(Z) :- b(five,Z). both(X) :- a(X,Y), b(Y,Y).
      a(1,{K}). a(2,five). a(3,7). a({K},five). a(five,{K}).
      b({K},10). b(five,20). b(7,30). b({K},{K}). b(five,five). b({K},five). b(10,1). b(20,2)."),
    // Constants in heads and bodies, a variable repeated inside one atom,
    // a comparison filter (the one consumer of rebuilt `Value`s), and an
    // arity-0 head.
    ("selections", "loop(X) :- e(X,X). tag(X,marked,7) :- loop(X). mid(X) :- tri(X,Y,X), e(Y,Y).
      up(X,Y) :- e(X,Y), X < Y. from3(Y) :- e(3,Y). named(X) :- tri(X,five,{K}). any :- loop(X). none :- e(9,9).
      r(X,Y) :- e(X,Y). r(X,Z) :- r(X,Y), r(Y,Z), X != Z.
      e(1,1). e(1,2). e(2,2). e(2,3). e(3,1). e(3,4). e(five,five). e(five,{K}).
      tri(1,2,1). tri(2,1,3). tri(4,five,{K}). tri(5,{K},five). tri(five,1,five)."),
    // Arity 4 and 5 (heap rows): joined on the fourth column, an arity-4
    // head with a constant and a repeat, heap rows through the recursion,
    // and a five-column probe key — wider than the stack buffer.
    ("heap-rows", "w(D,C,B,A) :- q(A,B,C,D). on4(A,E) :- q(A,B,C,D), s(D,E). h(X,Y,X,five) :- s(X,Y).
      p(A,B,C,D) :- q(A,B,C,D). p(A,B,C,E) :- p(A,B,C,D), s(D,E). m(A) :- v(A,B,C,D,E), x(E,D,C,B,A).
      q(1,2,3,4). q(1,five,{K},five). q(2,2,2,{K}). s(4,5). s(5,6). s(five,1). s({K},2). s(6,4).
      v(1,2,3,4,5). v(1,2,3,4,{K}). v(five,2,3,4,5). x(5,4,3,2,1). x(five,4,3,2,1). x(5,4,3,2,five)."),
];

#[test]
fn seminaive_matches_the_nested_loop_reference() {
    for (name, source) in PROGRAMS {
        let (program, db, facts) = load(source);
        let five = program.interner.get("five").unwrap();
        assert!(source.contains("{K}") && facts.values().flatten().any(|t| t.iter().any(|v| v == Value::Int(i64::from(five.0)))));
        check(name, &program, &db, &facts);
    }
}

/// A filter over five variables: its arguments outgrow the stack buffer.
struct OddSum(Vec<Variable>);

impl Constraint for OddSum {
    fn variables(&self) -> &[Variable] {
        &self.0
    }
    fn holds(&self, bound: &[Word]) -> bool {
        bound.iter().filter(|&&(_, sym)| !sym).map(|&(word, _)| word as i64).sum::<i64>() % 2 == 1
    }
    fn describe(&self, _: &Interner) -> String {
        "odd sum".into()
    }
}

#[test]
fn a_filter_wider_than_the_stack_buffer_reads_the_same_values() {
    let (program, db, facts) = load(PROGRAMS[2].1);
    let mut rules = program.rules.clone();
    let wide = rules.iter_mut().find(|r| r.body.len() == 2 && r.head.terms.len() == 1).unwrap();
    let vars: Vec<Variable> = wide.body[0].variables();
    assert_eq!(vars.len(), 5);
    wide.body.push(Literal::Constraint(Arc::new(OddSum(vars))));
    check("wide filter", &Program::new(rules, program.interner.clone()), &db, &facts);
}

#[test]
fn a_row_tombstoned_under_a_probe_does_not_join() {
    let source = "j(X,Z) :- a(X,Y), b(Y,Z). a(1,2). a(2,five). a(3,{K}). b(2,3). b(2,4). b(five,{K}). b(five,-1). b({K},7).";
    let (program, db, mut facts) = load(source);
    let id = |name: &str| (program.interner.get(name).unwrap(), 2);
    let mut b = db.relation(id("b")).unwrap().clone();
    let plan = compile_rule(&program.rules[0], 0, &|_| false, None).unwrap();
    // Index first, then tombstone: the postings still list the dead rows.
    let index = HashIndex::build(&b, &[0]);
    for dead in [ituple![2, 3], b.rows()[3].clone()] {
        assert!(b.delete(&dead) && facts.get_mut(&id("b")).unwrap().remove(&dead));
    }
    let mut expect = fire(&program.rules[0], &facts);
    expect.sort();
    // Through the index, and by the raw scan that checks the probe columns.
    for inner in [Access::probe_all(&index, &b), Access::scan_all(&b)] {
        let mut got = Vec::new();
        let accesses = [Some(Access::scan_all(db.relation(id("a")).unwrap())), Some(inner)];
        let firings = run_plan(&plan, &accesses, &mut |t| got.push(t));
        got.sort();
        assert_eq!((firings, &got), (3, &expect));
    }
}

/// Every discriminator's assignment of 3 000 seeded ground instances,
/// read as words from a row's columns the way a route key and the
/// fragmenter gather them, and its literal's `holds` at every processor
/// and `partition`, folded into one FxHash digest. The expected digest was
/// computed by the `Value` evaluation of `h` the words replaced: the hashes
/// replay `hash_one` over the values, so no assignment may move.
#[test]
fn every_discriminator_assigns_words_as_it_assigns_values() {
    let mut rng = SmallRng::seed_from_u64(0x18_D15C);
    let value = |rng: &mut SmallRng| match rng.gen_below(4) {
        0 => Value::Sym(SymbolId(rng.gen_below(6) as u32)),
        1 => Value::Int(rng.next_u64() as i64),
        _ => Value::Int(rng.gen_below(6) as i64 - 2),
    };
    let mut digest = FxHasher::default();
    for case in 0..3_000u64 {
        let (arity, n) = (case as usize % 5, [1, 2, 3, 4, 7][rng.gen_below(5) as usize]);
        let row: Vec<Value> = (0..arity + rng.gen_below(2) as usize).map(|_| value(&mut rng)).collect();
        let columns: Vec<usize> = (0..arity).map(|_| rng.gen_below(row.len() as u64) as usize).collect();
        let ground: Vec<Value> = columns.iter().map(|&c| row[c]).collect();
        let seed = rng.next_u64();
        let hash: DiscriminatorRef = Arc::new(HashMod::new(n, seed));
        let owned: Relation = (0..40).map(|_| (0..arity).map(|_| value(&mut rng)).collect::<Tuple>()).chain([Tuple::new(&ground)]).collect();
        let mut all: Vec<DiscriminatorRef> = vec![
            hash.clone(),
            Arc::new(SymmetricHashMod::new(n, seed)),
            Arc::new(Constant::new(n, rng.gen_below(n as u64) as usize)),
            Arc::new(Mixed::new(rng.gen_below(n as u64) as usize, hash, 0.5, seed ^ 1)),
            Arc::new(FragmentOwner::new(Arc::new(round_robin_fragment(&owned, n).unwrap()))),
        ];
        if arity > 0 {
            all.push(Arc::new(BitVector::new(BitFn::new(seed), arity).unwrap()));
            all.push(Arc::new(Linear::new(BitFn::new(seed), (0..arity).map(|k| k as i64 - 1).collect()).unwrap()));
        }
        let row = Tuple::new(&row);
        let words: Vec<Word> = columns.iter().map(|&c| row.word(c)).collect();
        for disc in all {
            digest.write_usize(disc.assign(&words));
            for k in 0..disc.processors() {
                let literal = DiscConstraint::literal(Vec::new(), disc.clone(), k);
                digest.write_u8(u8::from(literal.holds(&words)));
                digest.write_usize(literal.partition(&words).expect("a discriminating literal partitions"));
            }
        }
    }
    assert_eq!(digest.finish(), 0x9e99_afe5_991b_4709, "an assignment moved");
}
