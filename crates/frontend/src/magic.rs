//! Magic-sets rewrite: demand-driven evaluation of point queries.
//!
//! A query `?- anc("ann", Y).` binds some arguments of a derived predicate
//! to constants. Evaluating the full least model to answer it wastes work
//! proportional to the *whole* closure; the magic-sets transformation
//! (Bancilhon–Maier–Sagiv–Ullman) rewrites the program so a semi-naive
//! fixpoint explores only the part of the model the query can reach.
//!
//! The rewrite is mechanical and produces ordinary Datalog:
//!
//! 1. **Adornments.** Starting from the query's bound/free pattern (`b`
//!    where the argument is a constant, `f` where it is a variable),
//!    propagate a left-to-right *sideways information passing* (SIP)
//!    strategy through every rule: a body argument is bound if it is a
//!    constant, bound in the head, or appears in an earlier body atom.
//!    Each reachable derived predicate `p` with adornment `a` becomes a
//!    fresh predicate `p_a` (e.g. `anc_bf`).
//! 2. **Magic predicates.** For each `p^a` a predicate `m_p_a` holds the
//!    demand tuples — the bound-argument combinations whose answers the
//!    query actually needs. Every adorned rule is *guarded* by its magic
//!    atom, and every derived body occurrence contributes a *magic rule*
//!    deriving the demand it creates from the guard plus the occurrence's
//!    SIP prefix.
//! 3. **Seed.** The query constants form one fact. Because magic
//!    predicates appear in rule heads (they are derived), the seed is
//!    loaded under an auxiliary *base* predicate and copied in by a seed
//!    rule — this keeps the output a plain program the parallel runtime
//!    (scheme rewriting, semi-naive evaluation, all transports, recovery,
//!    profiling) runs unchanged.
//!
//! All generated names are lowercase-identifier-shaped, so the rewrite
//! pretty-prints (`--explain-rewrite`) and re-parses to itself.

use std::collections::{HashMap, HashSet, VecDeque};

use gst_common::{Error, Result, Tuple, Value};

use crate::ast::{Atom, Literal, Predicate, Program, Rule, Term, Variable};
use crate::pretty;

/// What a generated rule is, for provenance labels and partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MagicRuleKind {
    /// The seed copy rule `m_q_a(..) :- m_q_a_seed(..).`
    Seed,
    /// A magic rule deriving demand for a body occurrence.
    Magic,
    /// A guarded adorned copy of a source rule.
    Adorned,
}

/// Provenance of one generated rule, aligned with
/// [`MagicRewrite::program`] by index.
#[derive(Debug, Clone)]
pub struct MagicRuleInfo {
    /// Seed, magic, or adorned.
    pub kind: MagicRuleKind,
    /// Index of the source rule this was generated from, if any.
    pub source_rule: Option<usize>,
    /// Source predicate name the rule concerns (`anc`, not `m_anc_bf`).
    pub predicate: String,
    /// The adornment string, e.g. `bf` (empty for arity 0).
    pub adornment: String,
    /// Distinct variables of the rule's demand guard, in term order —
    /// the demand key a partitioning strategy should co-locate on.
    pub guard: Vec<Variable>,
}

impl MagicRuleInfo {
    /// Human label for profiling tables, e.g. `anc^bf [magic r1]`.
    pub fn label(&self) -> String {
        let head = if self.adornment.is_empty() {
            self.predicate.clone()
        } else {
            format!("{}^{}", self.predicate, self.adornment)
        };
        let tag = match (self.kind, self.source_rule) {
            (MagicRuleKind::Seed, _) => "seed".to_string(),
            (MagicRuleKind::Magic, Some(k)) => format!("magic r{k}"),
            (MagicRuleKind::Magic, None) => "magic".to_string(),
            (MagicRuleKind::Adorned, Some(k)) => format!("adorned r{k}"),
            (MagicRuleKind::Adorned, None) => "adorned".to_string(),
        };
        format!("{head} [{tag}]")
    }
}

/// The output of [`magic_rewrite`]: an ordinary program plus the seed
/// fact and per-rule provenance.
#[derive(Debug, Clone)]
pub struct MagicRewrite {
    /// The adorned + magic program. Shares the source interner.
    pub program: Program,
    /// Auxiliary *base* predicate carrying the demand seed.
    pub seed_predicate: Predicate,
    /// The seed tuple: the query's constants, in bound-position order.
    pub seed_fact: Tuple,
    /// The adorned query predicate whose relation holds the answers
    /// (filter with [`MagicRewrite::answer_matches`] before printing —
    /// it also holds answers for transitively demanded bindings).
    pub answer: Predicate,
    /// The original query goal.
    pub query: Atom,
    /// Provenance, one entry per rule of [`MagicRewrite::program`].
    pub rules: Vec<MagicRuleInfo>,
}

impl MagicRewrite {
    /// The seed fact as a ground atom (for printing / loading).
    pub fn seed_atom(&self) -> Atom {
        Atom::new(
            self.seed_predicate.name,
            self.seed_fact.iter().map(Term::Const).collect(),
        )
    }

    /// True if `tuple` (from the answer relation) matches the query
    /// goal: constants agree and repeated variables bind consistently.
    pub fn answer_matches(&self, tuple: &Tuple) -> bool {
        let mut bound: HashMap<Variable, Value> = HashMap::new();
        for (i, term) in self.query.terms.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    if tuple.get(i) != *c {
                        return false;
                    }
                }
                Term::Var(v) => match bound.get(v) {
                    Some(prev) => {
                        if *prev != tuple.get(i) {
                            return false;
                        }
                    }
                    None => {
                        bound.insert(*v, tuple.get(i));
                    }
                },
            }
        }
        true
    }

    /// Pretty-print the rewrite: every generated rule with a provenance
    /// comment, then the seed fact. The output re-parses to the same
    /// program (comments are skipped by the lexer).
    pub fn explain(&self) -> String {
        let interner = &self.program.interner;
        let mut out = String::new();
        for (rule, info) in self.program.rules.iter().zip(&self.rules) {
            out.push_str(&format!(
                "{}  % {}\n",
                pretty::rule(rule, interner),
                info.label()
            ));
        }
        out.push_str(&format!("{}.  % demand seed\n", pretty::atom(&self.seed_atom(), interner)));
        out
    }
}

/// Render an adornment as its conventional string, e.g. `[true,false]`
/// → `"bf"`.
pub fn adornment_str(adornment: &[bool]) -> String {
    adornment.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

/// Allocates collision-free, identifier-shaped names for adorned and
/// magic predicates.
struct Namer {
    used: HashSet<String>,
    adorned: HashMap<(Predicate, Vec<bool>), Predicate>,
    magic: HashMap<(Predicate, Vec<bool>), Predicate>,
}

impl Namer {
    fn new(source: &Program) -> Self {
        let used = source
            .predicates()
            .into_iter()
            .map(|p| source.interner.resolve(p.name).to_string())
            .collect();
        Namer {
            used,
            adorned: HashMap::new(),
            magic: HashMap::new(),
        }
    }

    fn fresh(&mut self, base: String) -> String {
        let mut name = base;
        while self.used.contains(&name) {
            name.push_str("_m");
        }
        self.used.insert(name.clone());
        name
    }

    fn adorned(&mut self, program: &Program, p: Predicate, a: &[bool]) -> Predicate {
        if let Some(q) = self.adorned.get(&(p, a.to_vec())) {
            return *q;
        }
        let base = program.interner.resolve(p.name).to_string();
        let astr = adornment_str(a);
        let name = if astr.is_empty() {
            self.fresh(format!("{base}_q"))
        } else {
            self.fresh(format!("{base}_{astr}"))
        };
        let q = Predicate::new(program.interner.intern(&name), p.arity);
        self.adorned.insert((p, a.to_vec()), q);
        q
    }

    fn magic(&mut self, program: &Program, p: Predicate, a: &[bool]) -> Predicate {
        if let Some(q) = self.magic.get(&(p, a.to_vec())) {
            return *q;
        }
        let base = program.interner.resolve(p.name).to_string();
        let astr = adornment_str(a);
        let name = if astr.is_empty() {
            self.fresh(format!("m_{base}"))
        } else {
            self.fresh(format!("m_{base}_{astr}"))
        };
        let arity = a.iter().filter(|&&b| b).count();
        let q = Predicate::new(program.interner.intern(&name), arity);
        self.magic.insert((p, a.to_vec()), q);
        q
    }
}

/// Distinct variables of an atom, in term order.
fn distinct_vars(atom: &Atom) -> Vec<Variable> {
    let mut out = Vec::new();
    for v in atom.variables() {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Rewrite `source` for the point query `query` (constants mark bound
/// arguments). Errors if the goal predicate is not derived by the
/// program, or if no argument is bound (the rewrite would degenerate to
/// full evaluation — just run the program).
pub fn magic_rewrite(source: &Program, query: &Atom) -> Result<MagicRewrite> {
    let interner = source.interner.clone();
    let goal_pred = query.pred();
    if !source.is_derived(goal_pred) {
        return Err(Error::Shape(format!(
            "query goal {} is not a derived predicate of the program; \
             point queries on base relations need no rewrite",
            goal_pred.display(&interner)
        )));
    }
    let goal_adornment: Vec<bool> = query
        .terms
        .iter()
        .map(|t| t.as_const().is_some())
        .collect();
    if !goal_adornment.iter().any(|&b| b) {
        return Err(Error::Shape(
            "query has no bound argument (all terms are variables); \
             the magic rewrite would evaluate the full closure — run the \
             program and filter instead"
                .into(),
        ));
    }

    let mut namer = Namer::new(source);
    let mut rules: Vec<Rule> = Vec::new();
    let mut infos: Vec<MagicRuleInfo> = Vec::new();
    let push_rule = |rules: &mut Vec<Rule>, infos: &mut Vec<MagicRuleInfo>, r: Rule, i: MagicRuleInfo| {
        // Skip tautologies (`m(X) :- m(X).`, from occurrences whose
        // demand is their own guard) and exact duplicates.
        if r.body.len() == 1 && r.body[0] == Literal::Atom(r.head.clone()) {
            return;
        }
        if rules.contains(&r) {
            return;
        }
        rules.push(r);
        infos.push(i);
    };

    // Seed rule first: copy the seed base relation into the goal's magic
    // predicate. Fresh variables B0.. (uppercase so the rendering
    // re-parses as variables).
    let goal_magic = namer.magic(source, goal_pred, &goal_adornment);
    let seed_name = namer.fresh(format!(
        "{}_seed",
        interner.resolve(goal_magic.name)
    ));
    let seed_predicate = Predicate::new(interner.intern(&seed_name), goal_magic.arity);
    let seed_vars: Vec<Term> = (0..goal_magic.arity)
        .map(|i| Term::Var(Variable(interner.intern(&format!("B{i}")))))
        .collect();
    push_rule(
        &mut rules,
        &mut infos,
        Rule::new(
            Atom::new(goal_magic.name, seed_vars.clone()),
            vec![Literal::Atom(Atom::new(seed_predicate.name, seed_vars.clone()))],
        ),
        MagicRuleInfo {
            kind: MagicRuleKind::Seed,
            source_rule: None,
            predicate: interner.resolve(goal_pred.name).to_string(),
            adornment: adornment_str(&goal_adornment),
            guard: seed_vars.iter().filter_map(Term::as_var).collect(),
        },
    );
    let seed_fact: Tuple = query.terms.iter().filter_map(Term::as_const).collect();

    // Propagate adornments through every reachable derived predicate.
    let mut seen: HashSet<(Predicate, Vec<bool>)> = HashSet::new();
    let mut worklist: VecDeque<(Predicate, Vec<bool>)> = VecDeque::new();
    seen.insert((goal_pred, goal_adornment.clone()));
    worklist.push_back((goal_pred, goal_adornment.clone()));

    while let Some((p, a)) = worklist.pop_front() {
        let p_adorned = namer.adorned(source, p, &a);
        let p_magic = namer.magic(source, p, &a);
        for (k, rule) in source.rules.iter().enumerate() {
            if rule.head.pred() != p {
                continue;
            }
            // The guard: demand for this head under adornment `a`.
            let guard_terms: Vec<Term> = rule
                .head
                .terms
                .iter()
                .zip(&a)
                .filter(|(_, &b)| b)
                .map(|(t, _)| *t)
                .collect();
            let guard = Atom::new(p_magic.name, guard_terms);
            let guard_vars = distinct_vars(&guard);

            // SIP state: variables bound so far, and the prefix of
            // literals a magic rule for a later occurrence may use.
            let mut bound: HashSet<Variable> = guard.variables().collect();
            let mut prefix: Vec<Literal> = vec![Literal::Atom(guard.clone())];
            let mut adorned_body: Vec<Literal> = vec![Literal::Atom(guard.clone())];

            for literal in &rule.body {
                match literal {
                    Literal::Atom(atom) if source.is_derived(atom.pred()) => {
                        let occ: Vec<bool> = atom
                            .terms
                            .iter()
                            .map(|t| match t {
                                Term::Const(_) => true,
                                Term::Var(v) => bound.contains(v),
                            })
                            .collect();
                        let q = atom.pred();
                        let q_magic = namer.magic(source, q, &occ);
                        let m_head_terms: Vec<Term> = atom
                            .terms
                            .iter()
                            .zip(&occ)
                            .filter(|(_, &b)| b)
                            .map(|(t, _)| *t)
                            .collect();
                        push_rule(
                            &mut rules,
                            &mut infos,
                            Rule::new(Atom::new(q_magic.name, m_head_terms), prefix.clone()),
                            MagicRuleInfo {
                                kind: MagicRuleKind::Magic,
                                source_rule: Some(k),
                                predicate: interner.resolve(q.name).to_string(),
                                adornment: adornment_str(&occ),
                                guard: guard_vars.clone(),
                            },
                        );
                        if seen.insert((q, occ.clone())) {
                            worklist.push_back((q, occ.clone()));
                        }
                        let q_adorned = namer.adorned(source, q, &occ);
                        let renamed = Atom::new(q_adorned.name, atom.terms.clone());
                        adorned_body.push(Literal::Atom(renamed.clone()));
                        bound.extend(atom.variables());
                        prefix.push(Literal::Atom(renamed));
                    }
                    Literal::Atom(atom) => {
                        adorned_body.push(literal.clone());
                        bound.extend(atom.variables());
                        prefix.push(literal.clone());
                    }
                    Literal::Constraint(c) => {
                        adorned_body.push(literal.clone());
                        // A constraint joins the SIP prefix only once all
                        // of its variables are bound there; otherwise the
                        // magic rules soundly over-approximate demand.
                        if c.variables().iter().all(|v| bound.contains(v)) {
                            prefix.push(literal.clone());
                        }
                    }
                }
            }

            push_rule(
                &mut rules,
                &mut infos,
                Rule::new(Atom::new(p_adorned.name, rule.head.terms.clone()), adorned_body),
                MagicRuleInfo {
                    kind: MagicRuleKind::Adorned,
                    source_rule: Some(k),
                    predicate: interner.resolve(p.name).to_string(),
                    adornment: adornment_str(&a),
                    guard: guard_vars,
                },
            );
        }
    }

    let answer = namer.adorned(source, goal_pred, &goal_adornment);
    Ok(MagicRewrite {
        program: Program::new(rules, interner),
        seed_predicate,
        seed_fact,
        answer,
        query: query.clone(),
        rules: infos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::pretty;

    fn goal(unit: &crate::parser::ParsedUnit) -> Atom {
        unit.queries[0].clone()
    }

    #[test]
    fn rewrites_left_linear_ancestor() {
        let unit = parse_program(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- par(X,Z), anc(Z,Y).\n\
             ?- anc(ann, Y).",
        )
        .unwrap();
        let rw = magic_rewrite(&unit.program, &goal(&unit)).unwrap();
        let text = pretty::program(&rw.program);
        assert_eq!(
            text,
            "m_anc_bf(B0) :- m_anc_bf_seed(B0).\n\
             anc_bf(X, Y) :- m_anc_bf(X), par(X, Y).\n\
             m_anc_bf(Z) :- m_anc_bf(X), par(X, Z).\n\
             anc_bf(X, Y) :- m_anc_bf(X), par(X, Z), anc_bf(Z, Y).",
            "unexpected rewrite:\n{text}"
        );
        assert_eq!(rw.seed_fact.arity(), 1);
        assert_eq!(rw.answer.arity, 2);
        let i = &rw.program.interner;
        assert_eq!(&*i.resolve(rw.answer.name), "anc_bf");
        assert_eq!(&*i.resolve(rw.seed_predicate.name), "m_anc_bf_seed");
        // Provenance: seed, adorned r0, magic r1, adorned r1.
        let labels: Vec<String> = rw.rules.iter().map(|r| r.label()).collect();
        assert_eq!(
            labels,
            vec![
                "anc^bf [seed]",
                "anc^bf [adorned r0]",
                "anc^bf [magic r1]",
                "anc^bf [adorned r1]"
            ]
        );
    }

    #[test]
    fn right_linear_demand_does_not_propagate() {
        let unit = parse_program(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- anc(X,Z), par(Z,Y).\n\
             ?- anc(ann, Y).",
        )
        .unwrap();
        let rw = magic_rewrite(&unit.program, &goal(&unit)).unwrap();
        // The recursive occurrence's magic rule is the tautology
        // m(X) :- m(X) and is dropped: demand stays exactly the seed.
        assert_eq!(
            pretty::program(&rw.program),
            "m_anc_bf(B0) :- m_anc_bf_seed(B0).\n\
             anc_bf(X, Y) :- m_anc_bf(X), par(X, Y).\n\
             anc_bf(X, Y) :- m_anc_bf(X), anc_bf(X, Z), par(Z, Y)."
        );
    }

    #[test]
    fn nonlinear_rules_demand_both_occurrences() {
        let unit = parse_program(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- anc(X,Z), anc(Z,Y).\n\
             ?- anc(ann, Y).",
        )
        .unwrap();
        let rw = magic_rewrite(&unit.program, &goal(&unit)).unwrap();
        assert_eq!(
            pretty::program(&rw.program),
            "m_anc_bf(B0) :- m_anc_bf_seed(B0).\n\
             anc_bf(X, Y) :- m_anc_bf(X), par(X, Y).\n\
             m_anc_bf(Z) :- m_anc_bf(X), anc_bf(X, Z).\n\
             anc_bf(X, Y) :- m_anc_bf(X), anc_bf(X, Z), anc_bf(Z, Y)."
        );
    }

    #[test]
    fn multi_predicate_adornment_propagates() {
        // buys^bf demands likes^bf through the SIP.
        let unit = parse_program(
            "buys(X,Y) :- likes(X,Y).\n\
             likes(X,Y) :- knows(X,Z), likes(Z,Y).\n\
             likes(X,Y) :- owns(X,Y).\n\
             ?- buys(ann, Y).",
        )
        .unwrap();
        let rw = magic_rewrite(&unit.program, &goal(&unit)).unwrap();
        let text = pretty::program(&rw.program);
        assert!(text.contains("m_likes_bf(X) :- m_buys_bf(X)."), "{text}");
        assert!(text.contains("likes_bf(X, Y) :- m_likes_bf(X), owns(X, Y)."), "{text}");
    }

    #[test]
    fn comparison_constraints_survive_the_rewrite() {
        let unit = parse_program(
            "reach(X,Y) :- edge(X,Y,W), W < 10.\n\
             reach(X,Y) :- edge(X,Z,W), W < 10, reach(Z,Y).\n\
             ?- reach(ann, Y).",
        )
        .unwrap();
        let rw = magic_rewrite(&unit.program, &goal(&unit)).unwrap();
        let text = pretty::program(&rw.program);
        // The bounded-weight condition guards both the adorned rule and
        // the magic rule (its variables are in the SIP prefix).
        assert!(text.contains("m_reach_bf(Z) :- m_reach_bf(X), edge(X, Z, W), W < 10."), "{text}");
    }

    #[test]
    fn explain_round_trips_through_the_parser() {
        let unit = parse_program(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- par(X,Z), anc(Z,Y).\n\
             ?- anc(\"ann lee\", Y).",
        )
        .unwrap();
        let rw = magic_rewrite(&unit.program, &goal(&unit)).unwrap();
        let printed = rw.explain();
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(pretty::program(&reparsed.program), pretty::program(&rw.program));
        assert_eq!(reparsed.program.rules.len(), rw.program.rules.len());
        // The seed fact re-parses as the single ground fact.
        assert_eq!(reparsed.facts.len(), 1);
        assert_eq!(reparsed.facts[0].0.arity, rw.seed_predicate.arity);
    }

    #[test]
    fn generated_names_avoid_collisions() {
        let unit = parse_program(
            "anc_bf(X) :- m_anc_bf(X).\n\
             m_anc_bf(X) :- src(X).\n\
             anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- par(X,Z), anc(Z,Y).\n\
             ?- anc(ann, Y).",
        )
        .unwrap();
        let rw = magic_rewrite(&unit.program, &goal(&unit)).unwrap();
        let i = &rw.program.interner;
        assert_eq!(&*i.resolve(rw.answer.name), "anc_bf_m");
        let text = pretty::program(&rw.program);
        assert!(text.contains("m_anc_bf_m(Z) :- m_anc_bf_m(X), par(X, Z)."), "{text}");
    }

    #[test]
    fn unbound_query_is_rejected() {
        let unit = parse_program("anc(X,Y) :- par(X,Y).\n?- anc(X, Y).").unwrap();
        let err = magic_rewrite(&unit.program, &goal(&unit)).unwrap_err();
        assert!(err.to_string().contains("no bound argument"), "{err}");
    }

    #[test]
    fn base_predicate_query_is_rejected() {
        let unit = parse_program("anc(X,Y) :- par(X,Y).\n?- par(ann, Y).").unwrap();
        let err = magic_rewrite(&unit.program, &goal(&unit)).unwrap_err();
        assert!(err.to_string().contains("not a derived predicate"), "{err}");
    }

    #[test]
    fn answer_matching_checks_constants_and_repeats() {
        let unit = parse_program(
            "p(X,Y,Z) :- e(X,Y,Z).\n\
             ?- p(ann, Y, Y).",
        )
        .unwrap();
        let rw = magic_rewrite(&unit.program, &goal(&unit)).unwrap();
        let i = &rw.program.interner;
        let ann = Value::Sym(i.get("ann").unwrap());
        let bob = Value::Sym(i.intern("bob"));
        let t = |a, b, c| -> Tuple { [a, b, c].into_iter().collect() };
        assert!(rw.answer_matches(&t(ann, bob, bob)));
        assert!(!rw.answer_matches(&t(bob, bob, bob)));
        assert!(!rw.answer_matches(&t(ann, ann, bob)));
    }
}
