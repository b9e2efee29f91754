//! Canonical *linear sirup* form (paper, Section 2).
//!
//! Sections 3–6 of the paper restrict attention to Datalog programs with
//! one linear recursive rule `r` and one non-recursive exit rule `e`,
//! canonically
//!
//! ```text
//! e:  t(Z̄) :- s(Z̄)
//! r:  t(X̄) :- t(Ȳ), b₁, …, b_k
//! ```
//!
//! [`LinearSirup::from_program`] recognizes this shape and extracts the
//! named pieces (`t`, `s`, `X̄`, `Ȳ`, `b₁…b_k`) that the discriminating
//! sequences and rewriting schemes refer to.

use gst_common::{Error, Result};

use crate::analysis::ProgramAnalysis;
use crate::ast::{Atom, Predicate, Program, Rule, Term};

/// A linear sirup decomposed into the paper's canonical pieces.
#[derive(Debug, Clone)]
pub struct LinearSirup {
    /// The whole program (two rules).
    pub program: Program,
    /// The derived predicate `t`.
    pub target: Predicate,
    /// The base predicate `s` of the exit rule.
    pub source: Predicate,
    /// Index of the exit rule in `program.rules`.
    pub exit_index: usize,
    /// Index of the recursive rule in `program.rules`.
    pub recursive_index: usize,
    /// `Z̄`: terms of the exit rule's head.
    pub exit_head: Vec<Term>,
    /// `X̄`: terms of the recursive rule's head.
    pub head: Vec<Term>,
    /// `Ȳ`: terms of the unique `t`-occurrence in the recursive body.
    pub recursive_args: Vec<Term>,
    /// `b₁ … b_k`: the base atoms of the recursive body, in order.
    pub base_atoms: Vec<Atom>,
}

impl LinearSirup {
    /// Recognize `program` as a linear sirup.
    ///
    /// Requirements checked (each yields an [`Error::Shape`] otherwise):
    /// exactly two rules; a single derived predicate; one non-recursive
    /// rule over base atoms only (the exit rule); one recursive rule with
    /// exactly one `t`-occurrence in its body, all other body atoms base;
    /// safety of both rules.
    pub fn from_program(program: &Program) -> Result<Self> {
        if program.rules.len() != 2 {
            return Err(Error::Shape(format!(
                "a linear sirup has exactly 2 rules, found {}",
                program.rules.len()
            )));
        }
        let analysis = ProgramAnalysis::new(program)?;
        let derived = analysis.derived();
        if derived.len() != 1 {
            return Err(Error::Shape(format!(
                "a linear sirup has exactly 1 derived predicate, found {}",
                derived.len()
            )));
        }
        let target = derived[0];

        let occurrences = |rule: &Rule| -> usize {
            rule.body_atoms().filter(|a| a.pred() == target).count()
        };
        let (exit_index, recursive_index) =
            match (occurrences(&program.rules[0]), occurrences(&program.rules[1])) {
                (0, 1) => (0usize, 1usize),
                (1, 0) => (1, 0),
                (0, 0) => {
                    return Err(Error::Shape(
                        "no recursive rule: neither body mentions the derived predicate".into(),
                    ))
                }
                _ => {
                    return Err(Error::Shape(
                        "not linear: a rule body mentions the derived predicate more than once, \
                         or both rules are recursive"
                            .into(),
                    ))
                }
            };

        let exit_rule = &program.rules[exit_index];
        let recursive_rule = &program.rules[recursive_index];

        // Exit rule: head is t, body entirely base atoms (canonically one).
        if exit_rule.head.pred() != target {
            return Err(Error::Shape("exit rule head is not the derived predicate".into()));
        }
        let exit_atoms: Vec<&Atom> = exit_rule.body_atoms().collect();
        if exit_atoms.len() != 1 {
            return Err(Error::Shape(format!(
                "canonical exit rule has exactly one base atom s(Z̄), found {}",
                exit_atoms.len()
            )));
        }
        let source = exit_atoms[0].pred();

        if recursive_rule.head.pred() != target {
            return Err(Error::Shape(
                "recursive rule head is not the derived predicate".into(),
            ));
        }

        let (recursive, base_atoms): (Vec<&Atom>, Vec<&Atom>) =
            recursive_rule.body_atoms().partition(|atom| atom.pred() == target);
        let recursive_args = recursive.first().expect("occurrence count checked above").terms.clone();
        let base_atoms = base_atoms.into_iter().cloned().collect();

        Ok(LinearSirup {
            target,
            source,
            exit_index,
            recursive_index,
            exit_head: exit_rule.head.terms.clone(),
            head: recursive_rule.head.terms.clone(),
            recursive_args,
            base_atoms,
            program: program.clone(),
        })
    }

    /// The exit rule `e`.
    pub fn exit_rule(&self) -> &Rule {
        &self.program.rules[self.exit_index]
    }

    /// The recursive rule `r`.
    pub fn recursive_rule(&self) -> &Rule {
        &self.program.rules[self.recursive_index]
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// The names of the variables among `terms`, in position order.
    fn names(terms: &[Term], i: &gst_common::Interner) -> Vec<String> {
        terms.iter().filter_map(Term::as_var).map(|v| v.name(i)).collect()
    }

    fn sirup(src: &str) -> Result<LinearSirup> {
        let unit = parse_program(src).unwrap();
        LinearSirup::from_program(&unit.program)
    }

    #[test]
    fn recognizes_ancestor() {
        let s = sirup(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- par(X,Z), anc(Z,Y).",
        )
        .unwrap();
        let i = &s.program.interner;
        assert_eq!(i.resolve(s.target.name).as_ref(), "anc");
        assert_eq!(i.resolve(s.source.name).as_ref(), "par");
        assert_eq!(s.exit_index, 0);
        assert_eq!(s.recursive_index, 1);
        assert_eq!(s.base_atoms.len(), 1);
        assert_eq!(names(&s.recursive_args, i), vec!["Z", "Y"]);
    }

    #[test]
    fn recognizes_rule_order_swapped() {
        let s = sirup(
            "anc(X,Y) :- par(X,Z), anc(Z,Y).\n\
             anc(X,Y) :- par(X,Y).",
        )
        .unwrap();
        assert_eq!(s.exit_index, 1);
        assert_eq!(s.recursive_index, 0);
    }

    #[test]
    fn recognizes_chain_sirup() {
        // Example 7 of the paper.
        let s = sirup(
            "p(U,V,W) :- s(U,V,W).\n\
             p(U,V,W) :- p(V,W,Z), q(U,Z).",
        )
        .unwrap();
        let i = &s.program.interner;
        assert_eq!(s.head.len(), 3);
        assert_eq!(s.recursive_args.len(), 3);
        assert_eq!(names(&s.head, i), vec!["U", "V", "W"]);
        assert_eq!(names(&s.recursive_args, i), vec!["V", "W", "Z"]);
        assert_eq!(s.base_atoms.len(), 1);
        assert_eq!(i.resolve(s.base_atoms[0].predicate).as_ref(), "q");
    }

    #[test]
    fn rejects_nonlinear() {
        let err = sirup(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- anc(X,Z), anc(Z,Y).",
        )
        .unwrap_err();
        assert!(err.to_string().contains("not linear"));
    }

    #[test]
    fn rejects_wrong_rule_count() {
        assert!(sirup("t(X) :- s(X).").is_err());
        assert!(sirup(
            "t(X) :- s(X).\n\
             t(X) :- t(Y), e(Y,X).\n\
             t(X) :- u(X)."
        )
        .is_err());
    }

    #[test]
    fn rejects_two_derived_predicates() {
        let err = sirup(
            "t(X) :- s(X).\n\
             u(X) :- t(X).",
        )
        .unwrap_err();
        assert!(err.to_string().contains("derived predicate"));
    }

    #[test]
    fn rejects_no_recursion() {
        let err = sirup(
            "t(X) :- s(X).\n\
             t(X) :- u(X).",
        )
        .unwrap_err();
        assert!(err.to_string().contains("derived predicate"));
    }

    #[test]
    fn rejects_multi_atom_exit_rule() {
        let err = sirup(
            "t(X,Y) :- s(X,Y), u(Y).\n\
             t(X,Y) :- t(X,Z), e(Z,Y).",
        )
        .unwrap_err();
        assert!(err.to_string().contains("exactly one base atom"));
    }

    #[test]
    fn multiple_base_atoms_in_recursive_rule() {
        let s = sirup(
            "t(X,Y) :- s(X,Y).\n\
             t(X,Y) :- a(X,U), t(U,V), b(V,Y).",
        )
        .unwrap();
        assert_eq!(s.base_atoms.len(), 2);
    }

    #[test]
    fn accessor_rules_match_indexes() {
        let s = sirup(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- par(X,Z), anc(Z,Y).",
        )
        .unwrap();
        assert_eq!(s.exit_rule(), &s.program.rules[0]);
        assert_eq!(s.recursive_rule(), &s.program.rules[1]);
        assert_eq!(s.recursive_rule().variables().len(), 3);
        assert_eq!(s.exit_rule().variables().len(), 2);
    }
}
