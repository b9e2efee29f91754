//! Built-in comparison constraints: `X < Y`, `X >= 3`, `X != Y`, `X = Y`.
//!
//! These are surface-syntax instances of the same [`Constraint`] interface
//! the parallelization schemes use for their discriminating conditions
//! `h(v(r)) = i`: opaque boolean tests over bound variables, pushed into
//! the join by the planner as soon as their variables bind. Like
//! discriminating sequences (paper §3), every variable in a comparison
//! must also appear in a body *atom* — comparisons test values, they do
//! not generate them — which the planner enforces.
//!
//! Ordering across value kinds follows [`gst_common::Value`]'s total
//! order (integers sort before symbols; symbols compare by interning
//! order). Cross-kind comparisons are deterministic but carry no domain
//! meaning; programs normally compare like with like.

use gst_common::{Interner, Value, Word};

use crate::ast::{Constraint, Term, Variable};

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CompareOp {
    /// Apply the operator to two values.
    pub fn eval(self, lhs: Value, rhs: Value) -> bool {
        match self {
            CompareOp::Lt => lhs < rhs,
            CompareOp::Le => lhs <= rhs,
            CompareOp::Gt => lhs > rhs,
            CompareOp::Ge => lhs >= rhs,
            CompareOp::Eq => lhs == rhs,
            CompareOp::Ne => lhs != rhs,
        }
    }

    /// Surface-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
        }
    }
}

/// The constraint literal `lhs op rhs`.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Left operand.
    pub lhs: Term,
    /// The operator.
    pub op: CompareOp,
    /// Right operand.
    pub rhs: Term,
    /// Distinct variables of the two operands, in `lhs, rhs` order —
    /// the binding order [`Constraint::holds`] receives.
    vars: Vec<Variable>,
}

impl Comparison {
    /// Build a comparison literal.
    pub fn new(lhs: Term, op: CompareOp, rhs: Term) -> Self {
        let mut vars = Vec::with_capacity(2);
        for term in [&lhs, &rhs] {
            if let Term::Var(v) = term {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
        Comparison { lhs, op, rhs, vars }
    }

    fn value_of(&self, term: &Term, bound: &[Word]) -> Value {
        match term {
            Term::Const(c) => *c,
            Term::Var(v) => {
                let k = self
                    .vars
                    .iter()
                    .position(|bv| bv == v)
                    .expect("operand variable is in vars");
                let (word, sym) = bound[k];
                Value::from_word(word, sym)
            }
        }
    }
}

impl Constraint for Comparison {
    fn variables(&self) -> &[Variable] {
        &self.vars
    }

    fn holds(&self, bound: &[Word]) -> bool {
        self.op
            .eval(self.value_of(&self.lhs, bound), self.value_of(&self.rhs, bound))
    }

    fn describe(&self, interner: &Interner) -> String {
        format!(
            "{} {} {}",
            crate::pretty::term(&self.lhs, interner),
            self.op.symbol(),
            crate::pretty::term(&self.rhs, interner),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(interner: &Interner, name: &str) -> Variable {
        Variable(interner.intern(name))
    }

    #[test]
    fn operators_evaluate() {
        let (a, b) = (Value::Int(1), Value::Int(2));
        assert!(CompareOp::Lt.eval(a, b));
        assert!(!CompareOp::Lt.eval(b, a));
        assert!(CompareOp::Le.eval(a, a));
        assert!(CompareOp::Gt.eval(b, a));
        assert!(CompareOp::Ge.eval(b, b));
        assert!(CompareOp::Eq.eval(a, a));
        assert!(CompareOp::Ne.eval(a, b));
    }

    #[test]
    fn var_var_comparison() {
        let i = Interner::new();
        let c = Comparison::new(
            Term::Var(v(&i, "X")),
            CompareOp::Lt,
            Term::Var(v(&i, "Y")),
        );
        assert_eq!(c.variables().len(), 2);
        assert!(c.holds(&[Value::Int(1).word(), Value::Int(5).word()]));
        assert!(!c.holds(&[Value::Int(5).word(), Value::Int(1).word()]));
    }

    #[test]
    fn var_const_comparison() {
        let i = Interner::new();
        let c = Comparison::new(Term::Var(v(&i, "X")), CompareOp::Ge, Term::Const(Value::Int(3)));
        assert_eq!(c.variables().len(), 1);
        assert!(c.holds(&[Value::Int(3).word()]));
        assert!(!c.holds(&[Value::Int(2).word()]));
    }

    #[test]
    fn repeated_variable_binds_once() {
        let i = Interner::new();
        let x = v(&i, "X");
        let c = Comparison::new(Term::Var(x), CompareOp::Eq, Term::Var(x));
        assert_eq!(c.variables(), &[x]);
        assert!(c.holds(&[Value::Int(9).word()]));
    }

    #[test]
    fn const_const_comparison_has_no_vars() {
        let c = Comparison::new(
            Term::Const(Value::Int(1)),
            CompareOp::Ne,
            Term::Const(Value::Int(2)),
        );
        assert!(c.variables().is_empty());
        assert!(c.holds(&[]));
    }

    #[test]
    fn describe_renders_surface_syntax() {
        let i = Interner::new();
        let c = Comparison::new(Term::Var(v(&i, "X")), CompareOp::Le, Term::Const(Value::Int(7)));
        assert_eq!(c.describe(&i), "X <= 7");
    }
}
