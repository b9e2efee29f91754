//! What the rewrite loop stands on: predicate naming, validation of a
//! discriminating sequence, and distribution of base relations to
//! workers.

use std::sync::Arc;

use gst_common::value::gather;
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
/// in body order. The placement table keys one route per occurrence
/// ([`crate::schemes::placement`]).
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
                Some(covers) if covers[0].is_none() => edbs[w].share_from(global, id),
                Some(covers) => cutting.push((w, covers, vec![Vec::new(); covers.len()])),
            }
        }
        if cutting.is_empty() {
            continue;
        }
        for t in relation.iter() {
            for (_, covers, groups) in &mut cutting {
                if let Some(k) = covers.iter().position(|c| keeps(c, t)) {
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

/// The tuples of a base relation that one rule's atom over it may join:
/// those a constraint of the rule holds on, read from the columns where the
/// atom binds the constraint's variables — or every tuple (`None`).
type Cover<'a> = Option<(&'a ConstraintRef, Vec<usize>)>;

fn keeps(cover: &Cover, t: &Tuple) -> bool {
    cover.as_ref().is_none_or(|(c, columns)| gather(columns.len(), |k| t.word(columns[k]), |key| c.holds(key)))
}

/// What worker `pp` needs of each base relation `global` holds: the tuples
/// one of its covers keeps — all of them when the first keeps every tuple.
/// For every base atom of every rule, the cover is the constraint of that
/// rule whose every variable the atom binds (the longest, the earliest on
/// ties). An atom that binds the leading variable of a constraint but not
/// all of its variables keeps every tuple; an atom read unconstrained needs
/// the whole relation whatever else reads it.
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
            let (mut full, mut leading): (Option<&ConstraintRef>, bool) = (None, false);
            for literal in &rule.body {
                let Literal::Constraint(c) = literal else { continue };
                let vars = c.variables();
                leading |= vars.first().is_some_and(|v| position(v).is_some());
                let binds_all = !vars.is_empty() && vars.iter().all(|v| position(v).is_some());
                if binds_all && full.is_none_or(|best| vars.len() > best.variables().len()) {
                    full = Some(c);
                }
            }
            let covers = needs.entry(id).or_default();
            match (full, leading) {
                (_, false) => *covers = vec![None],
                // Past a cover that keeps every tuple, no cover adds one.
                _ if covers.last().is_some_and(Option::is_none) => {}
                (full, true) => covers.push(full.map(|c| (c, c.variables().iter().filter_map(position).collect()))),
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
    use gst_common::{ituple, Value, Word};
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
                assert_eq!(h.assign(&[t.word(1)]), i);
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
                            let key: Vec<Word> = c.variables()[..m].iter().map(|v| t.word(at(v).unwrap())).collect();
                            // A prefix of the variables admits every tuple.
                            let admitted = m < c.variables().len() || c.holds(&key);
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
    /// tuple and in the same order, on the workers of every preset — §6's
    /// per-processor `h_i` among them, and Example 3 on a Zipf graph too —
    /// of `general` on two programs and of two magic plans.
    #[test]
    fn fragments_match_a_per_processor_reference() {
        use crate::advisor::choose_sequences;
        use crate::discriminator::{Constant, DiscriminatorRef, HashMod, Mixed};
        use crate::schemes::demand::compile_demand;
        use crate::schemes::general::{rewrite_general, RuleChoice, RulePolicy};
        use crate::schemes::presets::*;
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
            let local = |i| Arc::new(Mixed::new(i, h.clone(), 0.5, 7)) as DiscriminatorRef;
            let r_i = [RulePolicy::shared(vec![var("X")], &h), RulePolicy::local(vec![var("Z")], (0..n).map(local).collect())];
            let no_comm = [RulePolicy::shared(vec![var("X")], &h), RulePolicy::local(vec![], Constant::each(n))];
            let sirup_plan = |policies| rewrite_sirup(&sirup, policies, &db, BaseDistribution::Shared, "§6").unwrap();
            let mut plans = vec![
                ("example1", db.clone(), example1_wolfson(&sirup, n, &db).unwrap()),
                ("example2", db.clone(), example2_valduriez(&sirup, round_robin_fragment(&edges, n).unwrap(), &db).unwrap()),
                ("example3", db.clone(), example3_hash_partition(&sirup, n, &db).unwrap()),
                ("example3 (zipf)", hot_db.clone(), example3_hash_partition(&sirup, n, &hot_db).unwrap()),
                ("§6 per-processor h_i", db.clone(), sirup_plan(r_i)),
                ("nocomm", db.clone(), sirup_plan(no_comm)),
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
