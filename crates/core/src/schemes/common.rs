//! What the rewrite loop stands on: predicate naming, validation of a
//! discriminating sequence, and distribution of base relations to
//! workers.

use std::sync::Arc;

use gst_common::{Error, Interner, Result};
use gst_eval::plan::RelationId;
use gst_frontend::ast::{Atom, Literal, Rule, Term};
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
pub fn worker_databases(
    global: &Database,
    programs: &[ProcessorProgram],
    distribution: BaseDistribution,
) -> Result<Vec<Arc<Database>>> {
    match distribution {
        BaseDistribution::Shared => {
            let shared = Arc::new(global.clone());
            Ok(programs.iter().map(|_| Arc::clone(&shared)).collect())
        }
        BaseDistribution::MinimalFragments => programs
            .iter()
            .map(|pp| Ok(Arc::new(fragment_database(global, pp)?)))
            .collect(),
    }
}

/// Compute the fragment of the global EDB that worker `pp` needs: for
/// every base atom of every rule, the tuples passing some constraint of
/// that rule whose variables the atom binds — or the full relation if any
/// rule reads the atom unconstrained.
///
/// An atom that binds only a leading *prefix* of a constraint's variables
/// still fragments, via [`Constraint::may_hold_prefix`]: a tuple is kept
/// exactly when some extension of the prefix could satisfy the constraint.
/// For a plain hash function the prefix narrows nothing and the worker
/// keeps the whole relation (the old behaviour); for a skew-aware function
/// over an extended discriminating sequence this is precisely §6's `R_i`
/// replication — a hot key's complementary base fragment lands at every
/// worker of its split set, a cold key's at exactly one.
fn fragment_database(global: &Database, pp: &ProcessorProgram) -> Result<Database> {
    let derived: Vec<RelationId> = pp
        .program
        .derived_predicates()
        .into_iter()
        .map(|p| (p.name, p.arity))
        .chain(pp.inboxes.iter().copied())
        .collect();

    let mut out = Database::new(global.interner().clone());
    // needed[pred] = None ⇒ full relation; Some(set) ⇒ union of σs.
    let mut needed: gst_common::FxHashMap<RelationId, Option<Relation>> =
        gst_common::FxHashMap::default();

    for rule in &pp.program.rules {
        let constraints: Vec<&gst_frontend::ast::ConstraintRef> = rule
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::Constraint(c) => Some(c),
                Literal::Atom(_) => None,
            })
            .collect();
        for atom in rule.body_atoms() {
            let id: RelationId = (atom.predicate, atom.terms.len());
            if derived.contains(&id) {
                continue;
            }
            let Some(relation) = global.relation(id) else {
                continue; // no data: nothing to distribute
            };
            // How many leading constraint variables the atom binds: a full
            // cover decides exactly, a non-empty prefix may still narrow
            // (skew-aware functions), zero tells us nothing.
            let bound_prefix = |c: &gst_frontend::ast::ConstraintRef| {
                c.variables()
                    .iter()
                    .take_while(|v| {
                        atom.terms
                            .iter()
                            .any(|t| matches!(t, Term::Var(tv) if tv == *v))
                    })
                    .count()
            };
            // Prefer a full cover over a prefix, a longer prefix over a
            // shorter one, and the earliest constraint on ties (matching
            // the pre-prefix behaviour of taking the first full cover).
            let mut covering: Option<(&gst_frontend::ast::ConstraintRef, usize)> = None;
            for c in &constraints {
                let m = bound_prefix(c);
                if m == 0 {
                    continue;
                }
                let rank = (m == c.variables().len(), m);
                let current = covering.map(|(bc, bm)| (bm == bc.variables().len(), bm));
                if current.is_none_or(|best| rank > best) {
                    covering = Some((c, m));
                }
            }
            match covering {
                None => {
                    needed.insert(id, None); // full
                }
                Some((c, m)) => {
                    // Positions of each bound constraint variable in the atom.
                    let positions: Vec<usize> = c
                        .variables()
                        .iter()
                        .take(m)
                        .map(|v| {
                            atom.terms
                                .iter()
                                .position(|t| matches!(t, Term::Var(tv) if tv == v))
                                .expect("prefix variable is bound")
                        })
                        .collect();
                    let entry = needed
                        .entry(id)
                        .or_insert_with(|| Some(Relation::new(id.1)));
                    if let Some(fragment) = entry {
                        for t in relation.iter() {
                            let ground: Vec<gst_common::Value> =
                                positions.iter().map(|&p| t.get(p)).collect();
                            if c.may_hold_prefix(&ground) {
                                fragment.insert_unchecked(t.clone());
                            }
                        }
                    }
                }
            }
        }
    }

    for (id, fragment) in needed {
        match fragment {
            None => {
                let full = global
                    .relation(id)
                    .cloned()
                    .unwrap_or_else(|| Relation::new(id.1));
                out.put_relation(id, full)?;
            }
            Some(fragment) => {
                // Union with anything already placed (a pred may be both
                // fully and partially required across rules; full wins
                // because `None` overwrote the map entry).
                let mut existing = out.relation_or_empty(id);
                existing.absorb(&fragment)?;
                out.put_relation(id, existing)?;
            }
        }
    }
    Ok(out)
}

/// Build an atom quickly.
pub fn atom(pred: RelationId, terms: Vec<Term>) -> Atom {
    debug_assert_eq!(pred.1, terms.len());
    Atom::new(pred.0, terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::ituple;
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
            rules[0]
                .body
                .push(Literal::Constraint(DiscConstraint::literal(
                    vec![y],
                    h.clone(),
                    i,
                )));
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
}
