//! What the rewrite loop stands on: predicate naming, validation of a
//! discriminating sequence, and distribution of base relations to
//! workers.

use std::sync::Arc;

use gst_common::{Error, FxHashMap, Interner, Result, Tuple};
use gst_eval::plan::RelationId;
use gst_frontend::ast::{Atom, ConstraintRef, Literal, Rule, Term};
use gst_frontend::{Program, Variable};
use gst_runtime::ProcessorProgram;
use gst_storage::{Database, Relation};

/// Generates the per-processor predicate names of the rewritten programs.
///
/// Names use characters outside the surface grammar (`@`) so rewritten
/// predicates can never collide with source-program predicates.
#[derive(Debug, Clone)]
pub struct Namer {
    interner: Interner,
}

impl Namer {
    /// A namer over the program's interner.
    pub fn new(interner: Interner) -> Self {
        Namer { interner }
    }

    fn base_name(&self, pred: RelationId) -> String {
        self.interner.resolve(pred.0).to_string()
    }

    /// `t_out^i` of the paper.
    pub fn out(&self, pred: RelationId, i: usize) -> RelationId {
        let name = format!("{}@out{}", self.base_name(pred), i);
        (self.interner.intern(&name), pred.1)
    }

    /// `t_in^i` of the paper.
    pub fn input(&self, pred: RelationId, i: usize) -> RelationId {
        let name = format!("{}@in{}", self.base_name(pred), i);
        (self.interner.intern(&name), pred.1)
    }
}

/// The first variable `rule`'s body atoms bind, or `⟨⟩` when they bind
/// none: a discriminating sequence for a caller with nothing to choose by
/// (an exit rule's `v(e)`, a magic rule without a guard). What
/// `--scheme general` runs is [`crate::advisor::choose_sequences`].
pub fn first_body_variable(rule: &Rule) -> Vec<Variable> {
    rule.body_atoms().flat_map(Atom::variables).take(1).collect()
}

/// The consuming occurrences of `rule`: its distinct derived body atoms,
/// in body order. The rewrite builds one route per occurrence, and the
/// chooser predicts one flow per occurrence and producing rule.
pub fn consuming_occurrences<'a>(program: &Program, rule: &'a Rule) -> Vec<&'a Atom> {
    let mut seen: Vec<&Atom> = Vec::new();
    for a in rule.body_atoms().filter(|a| program.is_derived(a.pred())) {
        if !seen.contains(&a) {
            seen.push(a);
        }
    }
    seen
}

/// Check that every variable of `vars` occurs in at least one body atom
/// of `rule` — the paper's §3 requirement on discriminating sequences —
/// and that `vars` is empty only when no body atom binds a variable: such
/// a rule has one ground substitution, and `h(⟨⟩)` names its processor.
pub fn validate_sequence(rule: &Rule, vars: &[Variable], which: &str) -> Result<()> {
    let body_vars: Vec<Variable> = rule.body_atoms().flat_map(Atom::variables).collect();
    if vars.is_empty() && !body_vars.is_empty() {
        return Err(Error::Discriminator(format!(
            "the discriminating sequence {which} must not be empty"
        )));
    }
    for v in vars {
        if !body_vars.contains(v) {
            return Err(Error::Discriminator(format!(
                "discriminating variable of {which} does not appear in any body atom \
                 (paper §3: the selection could not be pushed into the joins)"
            )));
        }
    }
    Ok(())
}

/// Whether a conditional send is possible: `h(v(r))` can be evaluated on
/// an outgoing tuple only if every `v(r)` variable is bound by the tuple
/// pattern — i.e. occurs in `pattern` — and `h` is locally evaluable.
/// Otherwise the scheme broadcasts (Example 2).
pub fn can_route(pattern: &[Term], vars: &[Variable], locally_evaluable: bool) -> bool {
    locally_evaluable && vars.iter().all(|v| pattern.contains(&Term::Var(*v)))
}

/// How base relations reach the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseDistribution {
    /// Every worker shares one copy of the full EDB (paper: relations
    /// "shared or replicated" — Example 1's requirement).
    Shared,
    /// Each worker stores only the fragment its rules can actually touch,
    /// computed from the discriminating constraints pushed into its rules
    /// (paper §3: `b_k^i :- b_k, h(v(r)) = i`; §7's `D_in^i`). A base
    /// atom not covered by a constraint forces the full relation.
    MinimalFragments,
}

/// Materialize each worker's extensional database.
///
/// Under [`BaseDistribution::MinimalFragments`] what a worker needs of a
/// base relation is decided from its rules before a tuple is read
/// ([`needs`]). A relation some rule of the worker reads unconstrained is
/// shared whole, not copied ([`Database::share_from`]). Every other
/// relation is cut in one pass over its tuples, which hands each tuple to
/// every worker one of whose covers keeps it. A worker's fragment lists
/// its first cover's tuples, then those only its second keeps, and so on,
/// each group in the relation's order.
pub fn worker_databases(
    global: &Database,
    programs: &[ProcessorProgram],
    distribution: BaseDistribution,
) -> Result<Vec<Arc<Database>>> {
    if distribution == BaseDistribution::Shared {
        let shared = Arc::new(global.clone());
        return Ok(programs.iter().map(|_| Arc::clone(&shared)).collect());
    }
    let needs: Vec<FxHashMap<RelationId, Vec<Cover>>> = programs.iter().map(|pp| needs(global, pp)).collect();
    let mut edbs: Vec<Database> = programs.iter().map(|_| Database::new(global.interner().clone())).collect();
    for (&id, relation) in global.iter() {
        // The workers cutting this relation, each with a group per cover.
        let mut cutting = Vec::new();
        for (w, need) in needs.iter().enumerate() {
            match need.get(&id) {
                None => {}
                Some(covers) if covers[0].constraint.is_none() => edbs[w].share_from(global, id),
                Some(covers) => cutting.push((w, covers, vec![Vec::new(); covers.len()])),
            }
        }
        if cutting.is_empty() {
            continue;
        }
        for t in relation.iter() {
            for (_, covers, groups) in &mut cutting {
                if let Some(k) = covers.iter().position(|c| c.keeps(t)) {
                    groups[k].push(t.clone());
                }
            }
        }
        for (w, _, groups) in cutting {
            let fragment = Relation::from_distinct(id.1, groups.into_iter().flatten().collect())?;
            edbs[w].put_relation(id, fragment)?;
        }
    }
    Ok(edbs.into_iter().map(Arc::new).collect())
}

/// A constraint of a rule and where the rule's atom over a base relation
/// binds a leading prefix of its variables: the tuples it may hold on.
struct Cover<'a> {
    /// `None` keeps every tuple: the atom is read unconstrained, or binds
    /// too short a prefix to narrow anything.
    constraint: Option<&'a ConstraintRef>,
    columns: Vec<usize>,
}

impl Cover<'_> {
    fn keeps(&self, t: &Tuple) -> bool {
        self.constraint.is_none_or(|c| c.may_hold_prefix(t, &self.columns))
    }
}

/// What worker `pp` needs of each base relation `global` holds: the tuples
/// one of its covers keeps — all of them when the first keeps every tuple.
/// For every base atom of every rule, the cover is the constraint of that
/// rule binding the most of its variables (a full cover before any prefix,
/// the earliest on ties); an atom read unconstrained needs the whole
/// relation whatever else reads it.
///
/// An atom that binds only a leading *prefix* of a constraint's variables
/// still fragments, via [`Constraint::may_hold_prefix`]: a tuple is kept
/// exactly when some extension of the prefix could satisfy the constraint.
/// For a plain hash function the prefix narrows nothing and the worker
/// keeps the whole relation; for a skew-aware function over an extended
/// discriminating sequence this is precisely §6's `R_i` replication — a
/// hot key's complementary base fragment lands at every worker of its
/// split set, a cold key's at exactly one.
///
/// [`Constraint::may_hold_prefix`]: gst_frontend::Constraint::may_hold_prefix
fn needs<'a>(global: &Database, pp: &'a ProcessorProgram) -> FxHashMap<RelationId, Vec<Cover<'a>>> {
    let derived: Vec<RelationId> =
        pp.program.derived_predicates().into_iter().map(Into::into).chain(pp.inboxes.iter().copied()).collect();
    let mut needs: FxHashMap<RelationId, Vec<Cover>> = FxHashMap::default();
    for rule in &pp.program.rules {
        for atom in rule.body_atoms() {
            let id: RelationId = (atom.predicate, atom.terms.len());
            if derived.contains(&id) || global.relation(id).is_none() {
                continue;
            }
            let position = |v: &Variable| atom.terms.iter().position(|t| *t == Term::Var(*v));
            // How many leading constraint variables the atom binds, ranked
            // full cover first, then longer prefix, then earlier constraint.
            let mut covering: Option<(&ConstraintRef, usize)> = None;
            for literal in &rule.body {
                let Literal::Constraint(c) = literal else { continue };
                let m = c.variables().iter().take_while(|v| position(v).is_some()).count();
                let rank = |(c, m): (&ConstraintRef, usize)| (m == c.variables().len(), m);
                if m > 0 && covering.is_none_or(|best| rank((c, m)) > rank(best)) {
                    covering = Some((c, m));
                }
            }
            let covers = needs.entry(id).or_default();
            match covering {
                None => *covers = vec![Cover { constraint: None, columns: Vec::new() }],
                // Past a cover that keeps every tuple, no cover adds one.
                Some(_) if covers.last().is_some_and(|last| last.constraint.is_none()) => {}
                Some((c, m)) => {
                    let columns = c.variables()[..m].iter().filter_map(position).collect();
                    covers.push(Cover { constraint: c.narrows(m).then_some(c), columns });
                }
            }
        }
    }
    needs
}

/// Build an atom quickly.
pub fn atom(pred: RelationId, terms: Vec<Term>) -> Atom {
    debug_assert_eq!(pred.1, terms.len());
    Atom::new(pred.0, terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::{ituple, Value};
    use gst_frontend::parse_program;

    /// Processor `processor` running `program`'s one rule, no routing.
    fn bare(processor: usize, program: Program) -> ProcessorProgram {
        ProcessorProgram {
            processor,
            program,
            routes: vec![],
            inboxes: vec![],
            processing_rules: vec![0],
            pooling: vec![],
            local_idb: vec![],
        }
    }

    #[test]
    fn namer_is_stable_and_distinct() {
        let interner = Interner::new();
        let t = (interner.intern("anc"), 2);
        let n = Namer::new(interner.clone());
        assert_eq!(n.out(t, 0), n.out(t, 0));
        assert_ne!(n.out(t, 0), n.out(t, 1));
        assert_ne!(n.out(t, 0), n.input(t, 0));
        assert_ne!(n.input(t, 0), n.input(t, 1));
        assert_eq!(interner.resolve(n.out(t, 3).0).as_ref(), "anc@out3");
    }

    #[test]
    fn validate_sequence_accepts_body_vars() {
        let p = parse_program("t(X,Y) :- e(X,Z), t(Z,Y).").unwrap().program;
        let z = Variable(p.interner.get("Z").unwrap());
        let w = Variable(p.interner.intern("Qq"));
        assert!(validate_sequence(&p.rules[0], &[z], "v(r)").is_ok());
        assert!(validate_sequence(&p.rules[0], &[z, w], "v(r)").is_err());
        assert!(validate_sequence(&p.rules[0], &[], "v(r)").is_err());
    }

    #[test]
    fn can_route_requires_pattern_and_evaluability() {
        let interner = Interner::new();
        let z = Variable(interner.intern("Z"));
        let y = Variable(interner.intern("Y"));
        let x = Variable(interner.intern("X"));
        let pattern = vec![Term::Var(z), Term::Var(y)];
        assert!(can_route(&pattern, &[z], true));
        assert!(can_route(&pattern, &[z, y], true));
        assert!(!can_route(&pattern, &[x], true));
        assert!(!can_route(&pattern, &[z], false));
    }

    #[test]
    fn shared_distribution_aliases_one_database() {
        let unit = parse_program("t(X) :- e(X).\ne(1).").unwrap();
        let mut db = Database::new(unit.program.interner.clone());
        db.load_facts(unit.facts.clone()).unwrap();
        let pp = bare(0, unit.program.clone());
        let dbs = worker_databases(&db, &[pp.clone(), { let mut q = pp; q.processor = 1; q }], BaseDistribution::Shared)
            .unwrap();
        assert!(Arc::ptr_eq(&dbs[0], &dbs[1]));
    }

    #[test]
    fn minimal_fragments_full_when_unconstrained() {
        let unit = parse_program("t(X,Y) :- e(X,Y).").unwrap();
        let mut db = Database::new(unit.program.interner.clone());
        let e = (unit.program.interner.get("e").unwrap(), 2);
        db.insert(e, ituple![1, 2]).unwrap();
        db.insert(e, ituple![3, 4]).unwrap();
        let pp = bare(0, unit.program.clone());
        let dbs = worker_databases(&db, &[pp], BaseDistribution::MinimalFragments).unwrap();
        assert_eq!(dbs[0].relation(e).unwrap().len(), 2);
    }

    #[test]
    fn minimal_fragments_apply_constraints() {
        use crate::discriminator::{DiscConstraint, HashMod};
        let unit = parse_program("t(X,Y) :- e(X,Y).").unwrap();
        let mut program = unit.program.clone();
        let interner = program.interner.clone();
        let e = (interner.get("e").unwrap(), 2);
        let y = Variable(interner.get("Y").unwrap());
        let h: crate::discriminator::DiscriminatorRef = Arc::new(HashMod::new(2, 1));

        let mut db = Database::new(interner.clone());
        for k in 0..40i64 {
            db.insert(e, ituple![k, k + 1]).unwrap();
        }

        let mut programs = Vec::new();
        for i in 0..2usize {
            let mut rules = program.rules.clone();
            rules[0].body.push(Literal::Constraint(DiscConstraint::literal(vec![y], h.clone(), i)));
            programs.push(bare(i, Program::new(rules, interner.clone())));
        }
        program.rules.clear();

        let dbs = worker_databases(&db, &programs, BaseDistribution::MinimalFragments).unwrap();
        let n0 = dbs[0].relation(e).map(Relation::len).unwrap_or(0);
        let n1 = dbs[1].relation(e).map(Relation::len).unwrap_or(0);
        assert_eq!(n0 + n1, 40, "fragments partition the relation");
        assert!(n0 > 0 && n1 > 0, "both sides populated: {n0}/{n1}");
        // Every tuple in fragment i satisfies h(Y)=i.
        for (i, dbw) in dbs.iter().enumerate() {
            for t in dbw.relation(e).unwrap().iter() {
                assert_eq!(h.assign(&[t.get(1)]), i);
            }
        }
    }

    /// What worker `pp` needs of `global`, the plain way — per processor,
    /// value by value: for each base atom of each rule, the tuples the
    /// covering constraint admits (the whole relation when the atom is read
    /// unconstrained), unioned over the rules in order.
    fn reference(global: &Database, pp: &ProcessorProgram) -> Vec<(RelationId, Vec<Tuple>)> {
        let derived: Vec<RelationId> =
            pp.program.derived_predicates().into_iter().map(Into::into).chain(pp.inboxes.iter().copied()).collect();
        let mut out: FxHashMap<RelationId, Option<Vec<Tuple>>> = FxHashMap::default(); // `None`: all of it
        for rule in &pp.program.rules {
            for atom in rule.body_atoms() {
                let id = (atom.predicate, atom.terms.len());
                let Some(relation) = global.relation(id).filter(|_| !derived.contains(&id)) else { continue };
                let at = |v: &Variable| atom.terms.iter().position(|t| *t == Term::Var(*v));
                // The constraint binding the most variables, a full binding
                // first, the earliest on ties (`max_by_key` keeps the last).
                let best = rule.body.iter().filter_map(|l| match l {
                    Literal::Constraint(c) => Some((c, c.variables().iter().take_while(|v| at(v).is_some()).count())),
                    Literal::Atom(_) => None,
                });
                let best = best.filter(|&(_, m)| m > 0).rev().max_by_key(|&(c, m)| (m == c.variables().len(), m));
                match (best, out.entry(id).or_insert_with(|| Some(Vec::new()))) {
                    (_, None) => {}
                    (None, kept) => *kept = None,
                    (Some((c, m)), Some(kept)) => {
                        for t in relation.iter() {
                            let key: Vec<Value> = c.variables()[..m].iter().map(|v| t.get(at(v).unwrap())).collect();
                            let admitted = if m == c.variables().len() {
                                c.holds(&key)
                            } else {
                                c.may_hold_prefix(&Tuple::new(&key), &(0..m).collect::<Vec<_>>())
                            };
                            if admitted && !kept.contains(t) {
                                kept.push(t.clone());
                            }
                        }
                    }
                }
            }
        }
        let all = |id| global.relation(id).unwrap().iter().cloned().collect();
        out.into_iter().map(|(id, kept)| (id, kept.unwrap_or_else(|| all(id)))).collect()
    }

    /// `worker_databases(MinimalFragments)` is the reference, tuple for
    /// tuple and in the same order, on the workers of every preset — the
    /// skew-aware prefix cover and §6's per-processor `h_i` among them —
    /// of `general` on two programs and of two magic plans.
    #[test]
    fn fragments_match_a_per_processor_reference() {
        use crate::advisor::choose_sequences;
        use crate::discriminator::{DiscriminatorRef, HashMod, Mixed};
        use crate::schemes::demand::compile_demand;
        use crate::schemes::general::{rewrite_general, RuleChoice};
        use crate::schemes::presets::*;
        use crate::strategy::SkewPolicy;
        use gst_frontend::magic::magic_rewrite;
        use gst_frontend::LinearSirup;
        use gst_storage::round_robin_fragment;
        use gst_workloads::*;

        let edges = random_digraph(24, 60, 5);
        let skewed = zipf_digraph(200, 150, 20, 9);
        for n in [1, 2, 3, 4, 7] {
            let fx = linear_ancestor();
            let sirup = LinearSirup::from_program(&fx.program).unwrap();
            let (db, hot_db) = (fx.database(&edges), fx.database(&skewed));
            let h: DiscriminatorRef = Arc::new(HashMod::new(n, 3));
            let var = |name| fx.program.var(name);
            let skew = skew_aware_hash_partition(&sirup, n, &hot_db, &SkewPolicy::default()).unwrap();
            assert!(n == 1 || skew.hot_keys_split > 0, "the zipf graph has a hot key at n={n}");
            let local = |i| Arc::new(Mixed::new(i, h.clone(), 0.5, 7)) as DiscriminatorRef;
            let generalized = GeneralizedConfig { v_r: vec![var("Z")], v_e: vec![var("X")], h_prime: h.clone(), h_locals: (0..n).map(local).collect() };
            let mut plans = vec![
                ("example1", db.clone(), example1_wolfson(&sirup, n, &db).unwrap()),
                ("example2", db.clone(), example2_valduriez(&sirup, round_robin_fragment(&edges, n).unwrap(), &db).unwrap()),
                ("example3", db.clone(), example3_hash_partition(&sirup, n, &db).unwrap()),
                ("skew-aware", hot_db, skew),
                ("§6 per-processor h_i", db.clone(), rewrite_generalized(&sirup, &generalized, &db).unwrap()),
                ("nocomm", db.clone(), rewrite_no_comm(&sirup, &NoCommConfig { v_e: vec![var("X")], h_prime: h.clone() }, &db).unwrap()),
            ];
            let (sg, tree) = (same_generation(), same_generation_tree(3));
            for (name, fx, db) in [
                ("general nonlinear", nonlinear_ancestor(), nonlinear_ancestor().database(&edges)),
                ("general sg", sg.clone(), sg.database_multi(&[tree.0, tree.1, tree.2])),
            ] {
                let choices: Vec<RuleChoice> =
                    choose_sequences(&fx.program).into_iter().map(|v| RuleChoice { v, h: h.clone() }).collect();
                plans.push((name, db.clone(), rewrite_general(&fx.program, &choices, &db, BaseDistribution::MinimalFragments).unwrap()));
            }
            for (name, fx) in [("magic left-linear", linear_ancestor()), ("magic right-linear", right_linear_ancestor())] {
                let y = Term::Var(fx.program.var("Y"));
                let rw = magic_rewrite(&fx.program, &Atom::new(fx.output_id().0, vec![Term::Const(Value::Int(3)), y])).unwrap();
                let mut db = fx.database(&edges);
                db.insert((rw.seed_predicate.name, rw.seed_predicate.arity), rw.seed_fact.clone()).unwrap();
                plans.push((name, db.clone(), compile_demand(&rw, &db, n).unwrap()));
            }
            for (name, db, scheme) in plans {
                let programs: Vec<ProcessorProgram> = scheme.workers.iter().map(|w| w.program.clone()).collect();
                let edbs = worker_databases(&db, &programs, BaseDistribution::MinimalFragments).unwrap();
                for (pp, edb) in programs.iter().zip(&edbs) {
                    let want = reference(&db, pp);
                    assert_eq!(edb.relation_count(), want.len(), "{name}, n={n}, worker {}", pp.processor);
                    for (id, rows) in want {
                        let got = edb.relation(id).unwrap();
                        assert!(got.iter().eq(&rows), "{name}, n={n}, worker {}: {got:?} != {rows:?}", pp.processor);
                    }
                }
            }
        }
    }
}
