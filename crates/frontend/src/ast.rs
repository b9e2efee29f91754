//! Abstract syntax for Datalog programs.
//!
//! The shapes follow Section 2 of the paper: a program is a finite set of
//! rules `Q :- Q1, ..., Qk`; predicate symbols split into *base*
//! (extensional) and *derived* (intensional); an atom is a predicate symbol
//! applied to terms; terms are variables or constants.
//!
//! One extension beyond the paper's surface syntax: a rule body may contain
//! [`Literal::Constraint`] items. These are the `h(v(r)) = i` conditions the
//! parallelization schemes attach to rewritten rules (paper §3, execution
//! steps 1–3). A constraint is an opaque boolean predicate over variable
//! bindings; the front end defines only the interface.

use std::fmt;
use std::sync::Arc;

use gst_common::{Interner, SymbolId, Tuple, Value};

/// A variable name (interned). By convention variables start with an
/// uppercase letter or `_` in the surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Variable(pub SymbolId);

impl Variable {
    /// Resolve the variable's name.
    pub fn name(self, interner: &Interner) -> String {
        interner.resolve(self.0).to_string()
    }
}

/// A predicate symbol with its arity. Two predicates are the same only if
/// both name and arity agree (`p/2` ≠ `p/3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Predicate {
    /// Interned predicate name.
    pub name: SymbolId,
    /// Number of argument positions.
    pub arity: usize,
}

impl Predicate {
    /// Construct a predicate symbol.
    pub fn new(name: SymbolId, arity: usize) -> Self {
        Predicate { name, arity }
    }

    /// Render as `name/arity`.
    pub fn display(&self, interner: &Interner) -> String {
        format!("{}/{}", interner.resolve(self.name), self.arity)
    }
}

impl From<Predicate> for (SymbolId, usize) {
    /// Storage identifies relations by `(name, arity)` pairs; this makes
    /// `Predicate` usable wherever `gst_storage::RelationId` is expected.
    fn from(p: Predicate) -> Self {
        (p.name, p.arity)
    }
}

/// A term: a variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable, e.g. `X`.
    Var(Variable),
    /// A constant, e.g. `alice` or `42`.
    Const(Value),
}

impl Term {
    /// The variable, if this term is one.
    pub fn as_var(&self) -> Option<Variable> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// The constant, if this term is one.
    pub fn as_const(&self) -> Option<Value> {
        match self {
            Term::Const(c) => Some(*c),
            Term::Var(_) => None,
        }
    }
}

/// A predicate applied to terms, e.g. `anc(X, Y)` or `par(alice, Y)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The predicate symbol (name + arity implied by `terms.len()`).
    pub predicate: SymbolId,
    /// Argument terms, in position order.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    pub fn new(predicate: SymbolId, terms: Vec<Term>) -> Self {
        Atom { predicate, terms }
    }

    /// The predicate symbol with arity.
    pub fn pred(&self) -> Predicate {
        Predicate::new(self.predicate, self.terms.len())
    }

    /// Iterate over the variables occurring in the atom (with repeats).
    pub fn variables(&self) -> impl Iterator<Item = Variable> + '_ {
        self.terms.iter().filter_map(Term::as_var)
    }

    /// True if every term is a constant.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(|t| matches!(t, Term::Const(_)))
    }

    /// True if `tuple` is an instance of the atom: its constants agree and
    /// a repeated variable takes one value.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.terms.iter().enumerate().all(|(i, term)| match term {
            Term::Const(c) => tuple.get(i) == *c,
            Term::Var(_) => self.terms[..i].iter().position(|t| t == term).is_none_or(|j| tuple.get(j) == tuple.get(i)),
        })
    }
}

/// The interface constraint literals implement.
///
/// A constraint is a deterministic boolean function of the bindings of its
/// [`Constraint::variables`]. The evaluator calls [`Constraint::holds`] once
/// all of those variables are bound. Implementations live in `gst-core`
/// (discriminating functions `h(v(r)) = i`).
pub trait Constraint: Send + Sync {
    /// The variables the constraint reads. The evaluator guarantees all are
    /// bound before calling [`Constraint::holds`].
    fn variables(&self) -> &[Variable];

    /// Decide the constraint given the values bound to
    /// [`Constraint::variables`], in the same order.
    fn holds(&self, bound: &[Value]) -> bool;

    /// Human-readable rendering, e.g. `h(Y, Z) = 3`.
    fn describe(&self, interner: &Interner) -> String;

    /// Serialize the constraint for a multi-process deployment, or `None`
    /// if this implementation cannot travel (the default).
    ///
    /// The front end defines only the hook: the byte format and the
    /// matching decoder live with the implementations (in `gst-core`),
    /// and a transport that needs to ship rules across an OS-process
    /// boundary turns a `None` into a clean typed error rather than
    /// silently dropping the condition.
    fn wire_encode(&self) -> Option<Vec<u8>> {
        None
    }

    /// For a constraint of the shape `f(variables) = k` over a
    /// partitioning function `f`: the value `f(bound)`, whatever `k` is.
    /// A route table evaluates this once per tuple and indexes the
    /// destination, instead of testing [`Constraint::holds`] once per
    /// candidate `k`. `None` (the default) for any other constraint.
    fn partition(&self, bound: &[Value]) -> Option<usize> {
        let _ = bound;
        None
    }

    /// [`Constraint::partition`] of the values in `row`'s `columns`, which
    /// hold the constraint's variables in order — what a route table asks,
    /// per emitted row. An implementation that can evaluate `f` on the
    /// row's untagged words ([`Tuple::word`]) overrides this and must
    /// agree with the default, which rebuilds the values.
    fn partition_words(&self, row: &Tuple, columns: &[usize]) -> Option<usize> {
        self.partition(&columns.iter().map(|&c| row.get(c)).collect::<Vec<_>>())
    }

    /// Decide whether the constraint *could* hold given the values in
    /// `row`'s `columns`, which bind a leading prefix of
    /// [`Constraint::variables`] — what the fragmenter asks of a base tuple
    /// whose atom binds some or all of the constraint's variables: `false`
    /// means no extension of the prefix satisfies the constraint, so the
    /// tuple can be dropped from the fragment. The default is conservative
    /// — a full binding decides exactly, anything shorter is assumed
    /// possible. An implementation that reads the row's words overrides it.
    fn may_hold_prefix(&self, row: &Tuple, columns: &[usize]) -> bool {
        columns.len() < self.variables().len()
            || self.holds(&columns.iter().map(|&c| row.get(c)).collect::<Vec<_>>())
    }

    /// Whether a prefix of `bound` variables can make
    /// [`Constraint::may_hold_prefix`] false at all — asked before a tuple
    /// is read, so a prefix that narrows nothing costs no pass. The
    /// default: only a full binding does.
    fn narrows(&self, bound: usize) -> bool {
        bound == self.variables().len()
    }
}

/// A shared, immutable constraint literal.
pub type ConstraintRef = Arc<dyn Constraint>;

/// One item in a rule body: an ordinary atom or a constraint.
#[derive(Clone)]
pub enum Literal {
    /// A relational subgoal.
    Atom(Atom),
    /// An opaque boolean condition over bound variables.
    Constraint(ConstraintRef),
}

impl Literal {
    /// The atom, if this literal is one.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Literal::Atom(a) => Some(a),
            Literal::Constraint(_) => None,
        }
    }

    /// Variables occurring in the literal.
    pub fn variables(&self) -> Vec<Variable> {
        match self {
            Literal::Atom(a) => a.variables().collect(),
            Literal::Constraint(c) => c.variables().to_vec(),
        }
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Atom(a) => write!(f, "{a:?}"),
            Literal::Constraint(_) => write!(f, "<constraint>"),
        }
    }
}

impl PartialEq for Literal {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Literal::Atom(a), Literal::Atom(b)) => a == b,
            (Literal::Constraint(a), Literal::Constraint(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A Datalog rule `head :- body.`. A rule with an empty body is a ground
/// fact in the surface syntax (handled by the parser as data, not rules).
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// Body literals, evaluated left to right.
    pub body: Vec<Literal>,
}

impl Rule {
    /// Construct a rule.
    pub fn new(head: Atom, body: Vec<Literal>) -> Self {
        Rule { head, body }
    }

    /// Relational (atom) subgoals of the body, skipping constraints.
    pub fn body_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(Literal::as_atom)
    }

    /// All distinct variables in the rule, in first-occurrence order
    /// (head first, then body left-to-right).
    pub fn variables(&self) -> Vec<Variable> {
        let mut seen = Vec::new();
        let mut push = |v: Variable| {
            if !seen.contains(&v) {
                seen.push(v);
            }
        };
        for v in self.head.variables() {
            push(v);
        }
        for lit in &self.body {
            for v in lit.variables() {
                push(v);
            }
        }
        seen
    }

    /// True if every variable of the head occurs in some body *atom*
    /// (the paper's safety requirement, Section 2).
    pub fn is_safe(&self) -> bool {
        let body_vars: Vec<Variable> = self.body_atoms().flat_map(Atom::variables).collect();
        self.head.variables().all(|v| body_vars.contains(&v))
    }
}

/// A Datalog program: rules plus the interner naming its symbols.
///
/// Base (extensional) vs derived (intensional) predicates are *computed*:
/// a predicate is derived iff it appears in some rule head (Section 2:
/// "base predicates may not appear in the head of any rule").
#[derive(Debug, Clone)]
pub struct Program {
    /// The rules, in source order. Rule indexes are stable and used by the
    /// per-rule discriminating sequences of the general scheme (§7).
    pub rules: Vec<Rule>,
    /// Interner that names every symbol in `rules`.
    pub interner: Interner,
}

impl Program {
    /// Construct a program from parts.
    pub fn new(rules: Vec<Rule>, interner: Interner) -> Self {
        Program { rules, interner }
    }

    /// The variable named `name` (as written in the source).
    pub fn var(&self, name: &str) -> Variable {
        Variable(self.interner.intern(name))
    }

    /// All predicates appearing anywhere, base and derived, deduplicated in
    /// first-occurrence order.
    pub fn predicates(&self) -> Vec<Predicate> {
        let mut out: Vec<Predicate> = Vec::new();
        let mut push = |p: Predicate| {
            if !out.contains(&p) {
                out.push(p);
            }
        };
        for rule in &self.rules {
            push(rule.head.pred());
            for atom in rule.body_atoms() {
                push(atom.pred());
            }
        }
        out
    }

    /// Predicates appearing in some head (intensional/derived).
    pub fn derived_predicates(&self) -> Vec<Predicate> {
        let mut out: Vec<Predicate> = Vec::new();
        for rule in &self.rules {
            let p = rule.head.pred();
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }

    /// Predicates appearing only in bodies (extensional/base).
    pub fn base_predicates(&self) -> Vec<Predicate> {
        let derived = self.derived_predicates();
        self.predicates()
            .into_iter()
            .filter(|p| !derived.contains(p))
            .collect()
    }

    /// True if `p` is a derived predicate of this program.
    pub fn is_derived(&self, p: Predicate) -> bool {
        self.rules.iter().any(|r| r.head.pred() == p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Interner, Program) {
        let p = crate::parser::parse_program("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).").unwrap().program;
        (p.interner.clone(), p)
    }

    #[test]
    fn base_and_derived_partition() {
        let (i, p) = setup();
        let anc = Predicate::new(i.get("anc").unwrap(), 2);
        let par = Predicate::new(i.get("par").unwrap(), 2);
        assert_eq!(p.derived_predicates(), vec![anc]);
        assert_eq!(p.base_predicates(), vec![par]);
        assert!(p.is_derived(anc));
        assert!(!p.is_derived(par));
    }

    #[test]
    fn predicates_with_same_name_different_arity_are_distinct() {
        let i = Interner::new();
        let p2 = Predicate::new(i.intern("p"), 2);
        let p3 = Predicate::new(i.intern("p"), 3);
        assert_ne!(p2, p3);
    }

    #[test]
    fn rule_variables_in_first_occurrence_order() {
        let (i, p) = setup();
        let names: Vec<String> = p.rules[1]
            .variables()
            .iter()
            .map(|v| v.name(&i))
            .collect();
        assert_eq!(names, vec!["X", "Y", "Z"]);
    }

    #[test]
    fn safety_check() {
        let (_, p) = setup();
        assert!(p.rules[0].is_safe());
        assert!(p.rules[1].is_safe());
        // q(X, W) :- par(X, X).   — W unsafe.
        let bad = crate::parser::parse_program("q(X, W) :- par(X, X).").unwrap().program.rules[0].clone();
        assert!(!bad.is_safe());
    }

    #[test]
    fn ground_atom_detection() {
        let i = Interner::new();
        let p = i.intern("p");
        let ground = Atom::new(p, vec![Term::Const(Value::Int(1))]);
        let open = Atom::new(p, vec![Term::Var(Variable(i.intern("X")))]);
        assert!(ground.is_ground());
        assert!(!open.is_ground());
    }

    #[test]
    fn term_accessors() {
        let i = Interner::new();
        let v = Variable(i.intern("X"));
        assert_eq!(Term::Var(v).as_var(), Some(v));
        assert_eq!(Term::Var(v).as_const(), None);
        assert_eq!(Term::Const(Value::Int(1)).as_const(), Some(Value::Int(1)));
        assert_eq!(Term::Const(Value::Int(1)).as_var(), None);
    }

    #[test]
    fn predicate_display() {
        let i = Interner::new();
        let p = Predicate::new(i.intern("anc"), 2);
        assert_eq!(p.display(&i), "anc/2");
    }
}
