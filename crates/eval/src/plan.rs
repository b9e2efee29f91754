//! Rule → join-plan compilation.
//!
//! A [`RulePlan`] evaluates one rule body left-to-right with sideways
//! information passing: each atom becomes a [`PlanStep::Scan`] that probes
//! a hash index on the columns bound by earlier steps, binds the atom's
//! fresh variables, and hands the extended binding to the next step.
//!
//! Constraint literals (the discriminating conditions `h(v(r)) = i`) are
//! scheduled *eagerly*: each is placed immediately after the step that
//! binds the last of its variables. This implements the paper's §3
//! observation that the selection `σ_{h(v(r))=i}` must be pushed into the
//! join — when the discriminating variables appear in a body atom, tuples
//! failing the hash test are discarded before they multiply downstream
//! join work. A constraint whose variables never appear in any body atom
//! is rejected, mirroring the paper's requirement that "all the variables
//! appearing in a discriminating sequence ... must also appear in at least
//! one atom in the body". A constraint the data placement implies
//! ([`Constraint::implied`]) is not scheduled at all: a release build runs
//! no step for it, a debug build asserts it once the substitution is
//! complete.
//!
//! For semi-naive evaluation, [`compile_rule`] produces one plan per
//! occurrence of a derived predicate in the body (the *delta versions*):
//! version `j` reads occurrence `j` from the delta, occurrences before `j`
//! from the full relation, and occurrences after `j` from the previous
//! round's relation, so every derivation fires exactly once across
//! versions — the property the paper's non-redundancy accounting
//! (Definition 1) presumes of the sequential baseline.
//!
//! [`Constraint::implied`]: gst_frontend::Constraint::implied

use gst_common::{Error, FxHashMap, Result, SymbolId, Value};
use gst_frontend::ast::{Atom, ConstraintRef, Literal, Rule, Term, Variable};

/// Identifies a stored relation: interned name + arity.
pub type RelationId = (SymbolId, usize);

/// Which population of a relation a scan reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomSource {
    /// A base (extensional) relation; immutable during evaluation.
    Edb,
    /// Everything derived so far for an intensional predicate (`T_i`).
    IdbFull,
    /// Tuples first derived in the previous round (`ΔT_i`).
    IdbDelta,
    /// The round-before state (`T_{i-1} = T_i ∖ ΔT_i`).
    IdbOld,
}

/// Where a probe-key component comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySource {
    /// A variable bound by an earlier step (slot index).
    Slot(usize),
    /// A constant written in the rule.
    Const(Value),
}

/// One relational subgoal, compiled.
#[derive(Debug, Clone)]
pub struct ScanStep {
    /// Relation to read.
    pub relation: RelationId,
    /// Population to read.
    pub source: AtomSource,
    /// Columns forming the probe key (empty ⇒ full scan).
    pub probe_columns: Vec<usize>,
    /// Value sources for the probe key, aligned with `probe_columns`.
    pub probe_values: Vec<KeySource>,
    /// `(column, slot)`: columns binding fresh variables.
    pub bindings: Vec<(usize, usize)>,
    /// `(column, earlier_column)`: intra-atom repeated variables that must
    /// match the column of their first occurrence in this same atom.
    pub intra_checks: Vec<(usize, usize)>,
}

/// One compiled body item.
#[derive(Clone)]
pub enum PlanStep {
    /// Join against a relation.
    Scan(ScanStep),
    /// Evaluate an opaque constraint over bound slots.
    Filter {
        /// The constraint to test.
        constraint: ConstraintRef,
        /// Slot of each constraint variable, in the constraint's order.
        slots: Vec<usize>,
    },
    /// Assert a constraint the data placement implies
    /// ([`Constraint::implied`]): compiled by debug builds only, after the
    /// last scan, where the substitution is complete.
    ///
    /// [`Constraint::implied`]: gst_frontend::Constraint::implied
    Implied {
        /// The constraint that must hold.
        constraint: ConstraintRef,
        /// Slot of each constraint variable, in the constraint's order.
        slots: Vec<usize>,
    },
}

impl std::fmt::Debug for PlanStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanStep::Scan(s) => f.debug_tuple("Scan").field(s).finish(),
            PlanStep::Filter { slots, .. } => f.debug_struct("Filter").field("slots", slots).finish(),
            PlanStep::Implied { slots, .. } => f.debug_struct("Implied").field("slots", slots).finish(),
        }
    }
}

/// How each head position is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadTerm {
    /// Copy the value bound in a slot.
    Slot(usize),
    /// Emit a constant.
    Const(Value),
}

/// A fully compiled rule.
#[derive(Debug, Clone)]
pub struct RulePlan {
    /// Head relation the plan emits into.
    pub head: RelationId,
    /// Head tuple recipe.
    pub head_terms: Vec<HeadTerm>,
    /// Body steps, in execution order.
    pub steps: Vec<PlanStep>,
    /// Number of variable slots the executor must allocate.
    pub slot_count: usize,
    /// Index of the source rule within its program.
    pub rule_index: usize,
    /// Which derived-occurrence reads the delta (`None` for rules with no
    /// derived body atoms, i.e. fired once at bootstrap).
    pub delta_version: Option<usize>,
}

/// Compile one delta version of `rule`.
///
/// `is_idb` decides whether a body atom reads a derived relation;
/// `delta_version = Some(j)` makes the `j`-th derived occurrence (0-based,
/// counting only derived atoms) read [`AtomSource::IdbDelta`], earlier
/// ones [`AtomSource::IdbFull`] and later ones [`AtomSource::IdbOld`].
/// `delta_version = None` compiles every derived occurrence as
/// [`AtomSource::IdbFull`] (naive evaluation / bootstrap).
pub fn compile_rule(
    rule: &Rule,
    rule_index: usize,
    is_idb: &dyn Fn(RelationId) -> bool,
    delta_version: Option<usize>,
) -> Result<RulePlan> {
    // ---- collect atoms (with their semi-naive sources) and constraints.
    let mut atoms: Vec<(&Atom, AtomSource)> = Vec::new();
    let mut constraints: Vec<ConstraintRef> = Vec::new();
    let mut idb_occurrence = 0usize;
    for literal in &rule.body {
        match literal {
            Literal::Atom(atom) => {
                let rel: RelationId = (atom.predicate, atom.terms.len());
                let source = if is_idb(rel) {
                    let src = match delta_version {
                        None => AtomSource::IdbFull,
                        Some(j) if idb_occurrence < j => AtomSource::IdbFull,
                        Some(j) if idb_occurrence == j => AtomSource::IdbDelta,
                        Some(_) => AtomSource::IdbOld,
                    };
                    idb_occurrence += 1;
                    src
                } else {
                    AtomSource::Edb
                };
                atoms.push((atom, source));
            }
            Literal::Constraint(c) => constraints.push(c.clone()),
        }
    }

    // ---- join ordering. The delta atom leads: semi-naive rounds must
    // cost in proportion to the delta, not to the static relations (a
    // full first-atom scan every round makes the fixpoint quadratic and
    // destroys parallel scaling — each worker would rescan the shared
    // base). Remaining atoms are added greedily by connectivity: most
    // already-bound variables first, original order as tie-break.
    let order: Vec<usize> = if atoms.is_empty() {
        Vec::new()
    } else {
        let seed = atoms
            .iter()
            .position(|(_, src)| *src == AtomSource::IdbDelta)
            .unwrap_or(0);
        let mut chosen = vec![seed];
        let mut bound: Vec<Variable> = atoms[seed].0.variables().collect();
        while chosen.len() < atoms.len() {
            let next = (0..atoms.len())
                .filter(|i| !chosen.contains(i))
                .max_by_key(|&i| {
                    let shared = atoms[i]
                        .0
                        .variables()
                        .filter(|v| bound.contains(v))
                        .count();
                    // Prefer connectivity; tie-break toward source order.
                    (shared, usize::MAX - i)
                })
                .expect("unchosen atom exists");
            bound.extend(atoms[next].0.variables());
            chosen.push(next);
        }
        chosen
    };

    // ---- compile scans in the chosen order, placing each constraint as
    // soon as its variables are bound (pushing selections into joins).
    let mut slots: FxHashMap<Variable, usize> = FxHashMap::default();
    let mut steps: Vec<PlanStep> = Vec::with_capacity(rule.body.len());
    let mut waiting: Vec<ConstraintRef> = constraints;
    // An implied constraint is no filter: it holds for every complete
    // substitution, and only a debug build checks that, at the end.
    let mut implied: Vec<PlanStep> = Vec::new();

    for &ai in &order {
        let (atom, source) = (atoms[ai].0, atoms[ai].1);
        let rel: RelationId = (atom.predicate, atom.terms.len());
        let mut probe_columns = Vec::new();
        let mut probe_values = Vec::new();
        let mut bindings = Vec::new();
        let mut intra_checks = Vec::new();
        // First occurrence column of each variable *within this atom*.
        let mut first_in_atom: FxHashMap<Variable, usize> = FxHashMap::default();

        for (col, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    probe_columns.push(col);
                    probe_values.push(KeySource::Const(*c));
                }
                Term::Var(v) => {
                    // A repeat within this atom must be an intra check
                    // even though the variable now has a slot: the slot
                    // is written by *this* step, so it cannot feed this
                    // step's probe key.
                    if let Some(&first) = first_in_atom.get(v) {
                        intra_checks.push((col, first));
                    } else if let Some(&slot) = slots.get(v) {
                        probe_columns.push(col);
                        probe_values.push(KeySource::Slot(slot));
                    } else {
                        first_in_atom.insert(*v, col);
                        let slot = slots.len();
                        slots.insert(*v, slot);
                        bindings.push((col, slot));
                    }
                }
            }
        }

        steps.push(PlanStep::Scan(ScanStep {
            relation: rel,
            source,
            probe_columns,
            probe_values,
            bindings,
            intra_checks,
        }));

        // Place any waiting constraints whose variables are now all
        // bound, preserving their relative order.
        let mut still_waiting = Vec::new();
        for c in waiting.drain(..) {
            if c.variables().iter().all(|v| slots.contains_key(v)) {
                let cslots = c.variables().iter().map(|v| slots[v]).collect();
                if !c.implied() {
                    steps.push(PlanStep::Filter { constraint: c, slots: cslots });
                } else if cfg!(debug_assertions) {
                    implied.push(PlanStep::Implied { constraint: c, slots: cslots });
                }
            } else {
                still_waiting.push(c);
            }
        }
        waiting = still_waiting;
    }

    if !waiting.is_empty() {
        return Err(Error::Discriminator(
            "a constraint references variables that appear in no body atom \
             (discriminating variables must appear in the rule body)"
                .into(),
        ));
    }
    steps.extend(implied);

    let mut head_terms = Vec::with_capacity(rule.head.terms.len());
    for term in &rule.head.terms {
        match term {
            Term::Const(c) => head_terms.push(HeadTerm::Const(*c)),
            Term::Var(v) => {
                let slot = slots.get(v).ok_or_else(|| {
                    Error::Analysis("unsafe rule reached the planner".into())
                })?;
                head_terms.push(HeadTerm::Slot(*slot));
            }
        }
    }

    Ok(RulePlan {
        head: (rule.head.predicate, rule.head.terms.len()),
        head_terms,
        steps,
        slot_count: slots.len(),
        rule_index,
        delta_version,
    })
}

/// Count the derived-predicate occurrences in `rule`'s body; this is how
/// many delta versions semi-naive evaluation compiles for it.
pub fn idb_occurrence_count(rule: &Rule, is_idb: &dyn Fn(RelationId) -> bool) -> usize {
    rule.body_atoms()
        .filter(|a| is_idb((a.predicate, a.terms.len())))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::Interner;
    use gst_frontend::parse_program;
    use gst_frontend::Constraint;
    use std::sync::Arc;

    struct AlwaysTrue {
        vars: Vec<Variable>,
        implied: bool,
    }

    impl Constraint for AlwaysTrue {
        fn variables(&self) -> &[Variable] {
            &self.vars
        }
        fn implied(&self) -> bool {
            self.implied
        }
        fn holds(&self, _bound: &[gst_common::Word]) -> bool {
            true
        }
        fn describe(&self, _interner: &Interner) -> String {
            "true".into()
        }
    }

    fn ancestor() -> gst_frontend::Program {
        parse_program(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- par(X,Z), anc(Z,Y).",
        )
        .unwrap()
        .program
    }

    fn idb_of(program: &gst_frontend::Program) -> impl Fn(RelationId) -> bool + '_ {
        let derived: Vec<RelationId> = program
            .derived_predicates()
            .into_iter()
            .map(|p| (p.name, p.arity))
            .collect();
        move |rel| derived.contains(&rel)
    }

    #[test]
    fn linear_rule_has_one_delta_version() {
        let p = ancestor();
        let is_idb = idb_of(&p);
        assert_eq!(idb_occurrence_count(&p.rules[0], &is_idb), 0);
        assert_eq!(idb_occurrence_count(&p.rules[1], &is_idb), 1);
    }

    #[test]
    fn delta_version_marks_sources_and_leads() {
        let p = ancestor();
        let is_idb = idb_of(&p);
        let plan = compile_rule(&p.rules[1], 1, &is_idb, Some(0)).unwrap();
        let sources: Vec<AtomSource> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                PlanStep::Scan(sc) => Some(sc.source),
                _ => None,
            })
            .collect();
        // The delta atom is moved to the front of the join order so each
        // round costs in proportion to the delta.
        assert_eq!(sources, vec![AtomSource::IdbDelta, AtomSource::Edb]);
    }

    #[test]
    fn nonlinear_versions_use_full_delta_old() {
        let p = parse_program(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- anc(X,Z), anc(Z,Y).",
        )
        .unwrap()
        .program;
        let is_idb = idb_of(&p);
        let v0 = compile_rule(&p.rules[1], 1, &is_idb, Some(0)).unwrap();
        let v1 = compile_rule(&p.rules[1], 1, &is_idb, Some(1)).unwrap();
        let srcs = |plan: &RulePlan| -> Vec<AtomSource> {
            plan.steps
                .iter()
                .filter_map(|s| match s {
                    PlanStep::Scan(sc) => Some(sc.source),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(srcs(&v0), vec![AtomSource::IdbDelta, AtomSource::IdbOld]);
        // Version 1's delta atom (second occurrence) leads the join.
        assert_eq!(srcs(&v1), vec![AtomSource::IdbDelta, AtomSource::IdbFull]);
    }

    #[test]
    fn sideways_binding_produces_probe() {
        let p = ancestor();
        let is_idb = idb_of(&p);
        let plan = compile_rule(&p.rules[1], 1, &is_idb, Some(0)).unwrap();
        // Step 0: Δanc(Z, Y) leads — full scan of the delta, binds Z, Y.
        let PlanStep::Scan(s0) = &plan.steps[0] else { panic!() };
        assert_eq!(s0.source, AtomSource::IdbDelta);
        assert!(s0.probe_columns.is_empty());
        assert_eq!(s0.bindings, vec![(0, 0), (1, 1)]);
        // Step 1: par(X, Z) — Z is bound (slot 0), probe column 1.
        let PlanStep::Scan(s1) = &plan.steps[1] else { panic!() };
        assert_eq!(s1.probe_columns, vec![1]);
        assert_eq!(s1.probe_values, vec![KeySource::Slot(0)]);
        assert_eq!(s1.bindings, vec![(0, 2)]);
        assert_eq!(plan.slot_count, 3);
        // Head anc(X, Y): X = slot 2 (bound by par), Y = slot 1.
        assert_eq!(plan.head_terms, vec![HeadTerm::Slot(2), HeadTerm::Slot(1)]);
    }

    #[test]
    fn constants_become_probe_keys() {
        let p = parse_program("q(X) :- e(X, 7, alice).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let PlanStep::Scan(s) = &plan.steps[0] else { panic!() };
        assert_eq!(s.probe_columns, vec![1, 2]);
        assert!(matches!(s.probe_values[0], KeySource::Const(Value::Int(7))));
        assert!(matches!(s.probe_values[1], KeySource::Const(Value::Sym(_))));
    }

    #[test]
    fn intra_atom_repeat_becomes_check() {
        let p = parse_program("q(X) :- e(X, X).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let PlanStep::Scan(s) = &plan.steps[0] else { panic!() };
        assert_eq!(s.bindings, vec![(0, 0)]);
        assert_eq!(s.intra_checks, vec![(1, 0)]);
    }

    #[test]
    fn constraint_is_placed_after_binding_step() {
        // body: constraint(Z) inserted syntactically first but Z binds in
        // the second atom — the filter must land after that scan.
        let unit = parse_program("t(X) :- a(X), b(X, Z).").unwrap();
        let p = unit.program;
        let z = Variable(p.interner.get("Z").unwrap());
        let c: ConstraintRef = Arc::new(AlwaysTrue { vars: vec![z], implied: false });
        let mut rule = p.rules[0].clone();
        rule.body.insert(0, Literal::Constraint(c));
        let plan = compile_rule(&rule, 0, &|_| false, None).unwrap();
        let kinds: Vec<&str> = plan
            .steps
            .iter()
            .map(|s| match s {
                PlanStep::Scan(_) => "scan",
                PlanStep::Filter { .. } => "filter",
                PlanStep::Implied { .. } => "implied",
            })
            .collect();
        assert_eq!(kinds, vec!["scan", "scan", "filter"]);
    }

    #[test]
    fn an_implied_constraint_is_no_filter_and_a_debug_build_asserts_it_last() {
        // h(X) would be placed after a(X); implied, it is no filter, and a
        // debug build checks it once the substitution is complete.
        let p = parse_program("t(X) :- a(X), b(X, Z).").unwrap().program;
        let x = Variable(p.interner.get("X").unwrap());
        let mut rule = p.rules[0].clone();
        rule.body.push(Literal::Constraint(Arc::new(AlwaysTrue { vars: vec![x], implied: true })));
        let plan = compile_rule(&rule, 0, &|_| false, None).unwrap();
        let kinds: Vec<&str> = plan
            .steps
            .iter()
            .map(|s| match s {
                PlanStep::Scan(_) => "scan",
                PlanStep::Filter { .. } => "filter",
                PlanStep::Implied { .. } => "implied",
            })
            .collect();
        let checked: &[&str] = if cfg!(debug_assertions) { &["implied"] } else { &[] };
        assert_eq!(kinds, [&["scan", "scan"][..], checked].concat());
    }

    #[test]
    fn constraint_on_absent_variable_is_rejected() {
        let unit = parse_program("t(X) :- a(X).").unwrap();
        let p = unit.program;
        let w = Variable(p.interner.intern("W"));
        let c: ConstraintRef = Arc::new(AlwaysTrue { vars: vec![w], implied: false });
        let mut rule = p.rules[0].clone();
        rule.body.push(Literal::Constraint(c));
        let err = compile_rule(&rule, 0, &|_| false, None).unwrap_err();
        assert!(err.to_string().contains("discriminating variables"));
    }

    #[test]
    fn head_constant_is_emitted() {
        let p = parse_program("t(X, 9) :- a(X).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        assert_eq!(
            plan.head_terms,
            vec![HeadTerm::Slot(0), HeadTerm::Const(Value::Int(9))]
        );
    }
}
