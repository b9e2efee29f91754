//! The §7 general scheme `T_i`: parallelizing **any** Datalog program —
//! non-linear rules, multiple recursive rules, mutual recursion.
//!
//! Every rule `r_k : A :- B, …, C` gets its own discriminating sequence
//! `v(r_k)` and function `h_k`. Processor `i` executes, per rule,
//!
//! ```text
//! processing:       A_out^i :- B_in^i, …, C_in^i, h_k(v(r_k)) = i
//! sending (∀ derived C in r_k, ∀j):  C_ij :- C_out^i, h_k(v(r_k)) = j
//! receiving (∀ derived t, ∀j):       t_in^i(W̄) :- t_ji(W̄)
//! final pooling (∀ derived t):       t(W̄) :- t_out^i(W̄)
//! ```
//!
//! A tuple of a predicate consumed by several rules (or at several
//! positions of one rule, as in Example 8's non-linear ancestor) is
//! shipped once per *consuming occurrence's* routing — e.g. `anc(a,b)`
//! goes both to `h(b)` (to join as `anc(X,Z)`) and to `h(a)` (to join as
//! `anc(Z,Y)`), matching the paper's two sending rules for Example 8.
//!
//! As in §3 the sending rules are the specification: each consuming
//! occurrence becomes one [`gst_runtime::Route`] of `C_out^i`, and the
//! engine hashes a tuple under every route of its predicate where it is
//! emitted — a tuple two occurrences send to the same processor goes
//! there once, and one every occurrence keeps at `i` is stored in
//! `C_in^i` alone. An occurrence whose `v(r_k)` is not bound by the atom
//! broadcasts. A predicate is pooled from `C_in^i` when some occurrence
//! consumes every tuple of it and none broadcasts to another processor
//! ([`gst_eval::route::home_inbox`]), from `C_out^i` otherwise.
//!
//! Base relations are distributed per [`BaseDistribution`]: the paper's
//! `D_in^i :- D, h(v(r)) = i` fragments fall out of
//! [`BaseDistribution::MinimalFragments`].

use gst_common::{Error, Result};
use gst_eval::plan::RelationId;
use gst_frontend::ast::Literal;
use gst_frontend::{Program, ProgramAnalysis, Variable};
use gst_runtime::ProcessorProgram;
use gst_storage::Database;

use crate::discriminator::{DiscConstraint, DiscriminatorRef};
use crate::schemes::common::{
    assemble, atom, can_route, pooling_pair, program, rel_id, sending_route, validate_sequence,
    BaseDistribution, Namer,
};
use crate::schemes::CompiledScheme;

/// Discriminating choice for one rule.
#[derive(Clone)]
pub struct RuleChoice {
    /// `v(r_k)`: variables of the rule.
    pub v: Vec<Variable>,
    /// `h_k`: the rule's discriminating function.
    pub h: DiscriminatorRef,
}

impl RuleChoice {
    /// One choice per rule of `program`, rule `k` discriminating on its
    /// variable named `vars[k]`, all under `h` — the shape of the paper's
    /// Example 8 (`v(r₁) = ⟨Y⟩`, `v(r₂) = ⟨Z⟩`, `h₁ = h₂ = h`).
    pub fn by_name(program: &Program, vars: &[&str], h: &DiscriminatorRef) -> Vec<RuleChoice> {
        let choice = |v: &&str| RuleChoice { v: vec![Variable(program.interner.intern(v))], h: h.clone() };
        vars.iter().map(choice).collect()
    }
}

/// Rewrite an arbitrary Datalog program into the §7 parallel scheme.
///
/// `choices[k]` is the discriminating choice for `source.rules[k]`; all
/// functions must share one processor count. Facts for derived predicates
/// are not supported (provide them via an auxiliary base predicate).
pub fn rewrite_general(
    source: &Program,
    choices: &[RuleChoice],
    db: &Database,
    base: BaseDistribution,
) -> Result<CompiledScheme> {
    if choices.len() != source.rules.len() {
        return Err(Error::Discriminator(format!(
            "need one discriminating choice per rule: {} rules, {} choices",
            source.rules.len(),
            choices.len()
        )));
    }
    ProgramAnalysis::new(source)?;
    let n = choices
        .first()
        .map(|c| c.h.processors())
        .ok_or_else(|| Error::Discriminator("program has no rules".into()))?;
    if choices.iter().any(|c| c.h.processors() != n) {
        return Err(Error::Discriminator(
            "all rules' discriminating functions must share one processor set".into(),
        ));
    }
    for (k, choice) in choices.iter().enumerate() {
        validate_sequence(&source.rules[k], &choice.v, &format!("v(r{k})"))?;
    }

    let interner = source.interner.clone();
    let namer = Namer::new(interner.clone());
    let derived: Vec<RelationId> = source
        .derived_predicates()
        .into_iter()
        .map(rel_id)
        .collect();
    for d in &derived {
        if db.relation(*d).is_some_and(|r| !r.is_empty()) {
            return Err(Error::Shape(format!(
                "input facts for derived predicate {} are not supported by the \
                 general scheme; load them under a base predicate",
                interner.resolve(d.0)
            )));
        }
    }

    let rule_count = source.rules.len();
    let mut programs = Vec::with_capacity(n);
    for i in 0..n {
        let mut rules = Vec::new();

        // Processing copies, one per source rule, same order.
        for (k, rule) in source.rules.iter().enumerate() {
            let head_id = rel_id(rule.head.pred());
            let mut body: Vec<Literal> = Vec::with_capacity(rule.body.len() + 1);
            for literal in &rule.body {
                match literal {
                    Literal::Atom(a) => {
                        let id: RelationId = (a.predicate, a.terms.len());
                        if derived.contains(&id) {
                            body.push(Literal::Atom(atom(
                                namer.input(id, i),
                                a.terms.clone(),
                            )));
                        } else {
                            body.push(Literal::Atom(a.clone()));
                        }
                    }
                    Literal::Constraint(c) => body.push(Literal::Constraint(c.clone())),
                }
            }
            body.push(Literal::Constraint(DiscConstraint::literal(
                choices[k].v.clone(),
                choices[k].h.clone(),
                i,
            )));
            rules.push(gst_frontend::Rule::new(
                atom(namer.out(head_id, i), rule.head.terms.clone()),
                body,
            ));
        }

        // Sending: one route per rule and distinct derived occurrence.
        let mut routes = Vec::new();
        for (k, rule) in source.rules.iter().enumerate() {
            let choice = &choices[k];
            let mut occurrences: Vec<(RelationId, &[gst_frontend::Term])> = Vec::new();
            for a in rule.body_atoms() {
                let occurrence = ((a.predicate, a.terms.len()), a.terms.as_slice());
                if derived.contains(&occurrence.0) && !occurrences.contains(&occurrence) {
                    occurrences.push(occurrence);
                }
            }
            for (c_id, args) in occurrences {
                let routed = can_route(args, &choice.v, choice.h.locally_evaluable());
                let key = routed.then_some((choice.v.as_slice(), &choice.h));
                routes.push(sending_route(&namer, c_id, i, n, args, key));
            }
        }

        programs.push(ProcessorProgram {
            processor: i,
            program: program(rules, &interner),
            pooling: derived.iter().map(|&d| pooling_pair(&namer, &routes, d, i)).collect(),
            routes,
            inboxes: derived.iter().map(|&d| namer.input(d, i)).collect(),
            processing_rules: (0..rule_count).collect(),
            local_idb: vec![],
        });
    }

    assemble(programs, db, base, derived, "general scheme (§7 T_i)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discriminator::HashMod;
    use gst_common::ituple;
    use gst_eval::seminaive_eval;
    use gst_workloads::{
        chain, even_odd, grid, linear_ancestor, nonlinear_ancestor, random_digraph,
    };
    use std::sync::Arc;

    /// Paper Example 8: v(r₁) = ⟨Y⟩, v(r₂) = ⟨Z⟩, h₁ = h₂ = h.
    fn example8_choices(p: &Program, n: usize) -> Vec<RuleChoice> {
        let h: DiscriminatorRef = Arc::new(HashMod::new(n, 13));
        RuleChoice::by_name(p, &["Y", "Z"], &h)
    }

    #[test]
    fn example8_nonlinear_ancestor_is_correct() {
        let fx = nonlinear_ancestor();
        let db = fx.database(&random_digraph(20, 40, 6));
        let scheme = rewrite_general(
            &fx.program,
            &example8_choices(&fx.program, 4),
            &db,
            BaseDistribution::Shared,
        )
        .unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
    }

    #[test]
    fn example8_is_theorem6_non_redundant() {
        let fx = nonlinear_ancestor();
        let db = fx.database(&grid(5, 5));
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let scheme = rewrite_general(
            &fx.program,
            &example8_choices(&fx.program, 4),
            &db,
            BaseDistribution::Shared,
        )
        .unwrap();
        let outcome = scheme.run().unwrap();
        assert!(
            outcome.stats.total_processing_firings() <= seq.stats.firings,
            "Theorem 6: parallel {} ≤ sequential {}",
            outcome.stats.total_processing_firings(),
            seq.stats.firings
        );
    }

    #[test]
    fn linear_ancestor_through_general_scheme() {
        // §7 subsumes §3: running the linear program through T_i.
        let fx = linear_ancestor();
        let db = fx.database(&chain(15));
        let h: DiscriminatorRef = Arc::new(HashMod::new(3, 19));
        let choices = RuleChoice::by_name(&fx.program, &["Y", "Z"], &h);
        let scheme =
            rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
        assert_eq!(outcome.relation(anc).len(), 120);
    }

    #[test]
    fn mutual_recursion_even_odd() {
        let fx = even_odd();
        let succ: gst_storage::Relation =
            (0..12i64).map(|k| ituple![k, k + 1]).collect();
        let zero: gst_storage::Relation = [ituple![0]].into_iter().collect();
        let db = fx.database_multi(&[zero, succ]);
        let h: DiscriminatorRef = Arc::new(HashMod::new(3, 29));
        let choices = RuleChoice::by_name(&fx.program, &["X", "Y", "Y"], &h);
        let scheme =
            rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let even = fx.output_id();
        let odd = (fx.program.interner.get("odd").unwrap(), 1);
        assert!(outcome.relation(even).set_eq(&seq.relation(even)));
        assert!(outcome.relation(odd).set_eq(&seq.relation(odd)));
        assert_eq!(outcome.relation(even).len(), 7); // 0,2,…,12
    }

    #[test]
    fn minimal_fragments_distribution_works() {
        let fx = nonlinear_ancestor();
        let db = fx.database(&chain(12));
        let scheme = rewrite_general(
            &fx.program,
            &example8_choices(&fx.program, 3),
            &db,
            BaseDistribution::MinimalFragments,
        )
        .unwrap();
        let outcome = scheme.run().unwrap();
        let seq = seminaive_eval(&fx.program, &db).unwrap();
        let anc = fx.output_id();
        assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
    }

    #[test]
    fn rejects_wrong_choice_count() {
        let fx = nonlinear_ancestor();
        let db = fx.database(&chain(3));
        let err = rewrite_general(&fx.program, &[], &db, BaseDistribution::Shared).unwrap_err();
        assert!(err.to_string().contains("one discriminating choice per rule"));
    }

    #[test]
    fn rejects_facts_for_derived_predicates() {
        let fx = nonlinear_ancestor();
        let mut db = fx.database(&chain(3));
        db.insert(fx.output_id(), ituple![9, 9]).unwrap();
        let err = rewrite_general(
            &fx.program,
            &example8_choices(&fx.program, 2),
            &db,
            BaseDistribution::Shared,
        )
        .unwrap_err();
        assert!(err.to_string().contains("derived predicate"));
    }

    #[test]
    fn rejects_mixed_processor_counts() {
        let fx = nonlinear_ancestor();
        let db = fx.database(&chain(3));
        let choices = vec![
            RuleChoice {
                v: vec![fx.program.var("Y")],
                h: Arc::new(HashMod::new(2, 1)),
            },
            RuleChoice {
                v: vec![fx.program.var("Z")],
                h: Arc::new(HashMod::new(3, 1)),
            },
        ];
        assert!(rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared).is_err());
    }
}
