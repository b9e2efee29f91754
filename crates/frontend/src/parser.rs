//! Recursive-descent parser for the Datalog surface syntax.
//!
//! ```text
//! unit   := (clause | query)* EOF
//! clause := atom [ ':-' literal (',' literal)* ] '.'
//! query  := '?-' atom '.'
//! literal := atom | term cmp term
//! cmp    := '<' | '<=' | '>' | '>=' | '=' | '!='
//! atom   := ident [ '(' term (',' term)* ')' ]
//! term   := Variable | ident | integer | string
//! ```
//!
//! A clause without a body must be ground and is returned as a *fact*
//! rather than a rule, matching the paper's split between the program (a
//! finite set of rules) and its input (a relation per base predicate).
//!
//! A query `?- anc("ann", Y).` names a goal atom: constants mark bound
//! arguments, variables mark requested outputs. Queries are collected on
//! the side — they are not rules — and drive the magic-sets rewrite in
//! [`crate::magic`].
//!
//! The parser pulls tokens from the [`Lexer`] one at a time, so no token
//! list is built; a comparison is told from an atom by lexing the token
//! after an identifier on a copy of the cursor. A fact's arguments go to a
//! reused buffer and straight into its [`Tuple`], and a name repeated
//! from one clause to the next is not looked up again. Errors read as if the
//! whole source had been tokenized first: the first lexical error
//! anywhere wins over a syntax error before it.

use gst_common::{Interner, Result, SymbolId, Tuple, Value};

use std::borrow::Cow;
use std::sync::Arc;

use crate::ast::{Atom, Literal, Predicate, Program, Rule, Term, Variable};
use crate::builtins::{CompareOp, Comparison};
use crate::lexer::{unescape, Lexer, Token, TokenKind};

/// The result of parsing a source unit: the rules (as a [`Program`]) and
/// the ground facts, ready to be loaded into a database.
#[derive(Debug, Clone)]
pub struct ParsedUnit {
    /// The rules of the unit.
    pub program: Program,
    /// Ground facts `(predicate, tuple)` in source order.
    pub facts: Vec<(Predicate, Tuple)>,
    /// Query goals (`?- atom.`) in source order.
    pub queries: Vec<Atom>,
}

/// Parse `source` with a fresh interner.
pub fn parse_program(source: &str) -> Result<ParsedUnit> {
    parse_program_with(source, &Interner::new())
}

/// Parse `source`, interning all symbols into `interner`.
///
/// Sharing an interner lets separately parsed programs and generated data
/// agree on symbol ids — required when a workload generator produces facts
/// for a program parsed from text.
pub fn parse_program_with(source: &str, interner: &Interner) -> Result<ParsedUnit> {
    let mut lexer = Lexer::new(source);
    let cur = lexer.next_token();
    let mut parser = Parser {
        lexer,
        cur,
        interner: interner.clone(),
        last: None,
    };
    let unit = parser.unit();
    // The first lexical error anywhere wins over a syntax error before it.
    parser.lexer.finish().map_or(unit, Err)
}

/// The comparison operator a token spells, if it spells one.
fn comparison(kind: TokenKind<'_>) -> Option<CompareOp> {
    Some(match kind {
        TokenKind::Lt => CompareOp::Lt,
        TokenKind::Le => CompareOp::Le,
        TokenKind::Gt => CompareOp::Gt,
        TokenKind::Ge => CompareOp::Ge,
        TokenKind::EqSign => CompareOp::Eq,
        TokenKind::Ne => CompareOp::Ne,
        _ => return None,
    })
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token.
    cur: Token<'a>,
    interner: Interner,
    /// The last name interned: a run of facts names its predicate again
    /// and again, and this spares it the shared interner's lock.
    last: Option<(&'a str, SymbolId)>,
}

impl<'a> Parser<'a> {
    /// Consume the current token. Inlined, lexer and all, at every call
    /// site: measured, that is what keeps a token at a few nanoseconds.
    #[inline(always)]
    fn bump(&mut self) -> Token<'a> {
        std::mem::replace(&mut self.cur, self.lexer.next_token())
    }

    /// The token after the current one.
    fn peek_ahead(&self) -> TokenKind<'a> {
        self.lexer.clone().next_token().kind
    }

    fn expect(&mut self, kind: TokenKind<'a>) -> Result<Token<'a>> {
        let t = self.bump();
        if t.kind == kind {
            Ok(t)
        } else {
            Err(self.lexer.error(t.offset, format!("expected {}, found {}", kind.describe(), t.kind.describe())))
        }
    }

    fn intern(&mut self, name: &'a str) -> SymbolId {
        match self.last {
            Some((last, id)) if last == name => id,
            _ => {
                let id = self.interner.intern(name);
                self.last = Some((name, id));
                id
            }
        }
    }

    fn unit(&mut self) -> Result<ParsedUnit> {
        let mut rules = Vec::new();
        let mut facts = Vec::new();
        let mut queries = Vec::new();
        // A clause head's arguments, and a fact's values: reused.
        let (mut terms, mut values) = (Vec::new(), Vec::new());
        while self.cur.kind != TokenKind::Eof {
            if self.cur.kind == TokenKind::QuestionDash {
                self.bump();
                let goal = self.atom()?;
                self.expect(TokenKind::Dot)?;
                queries.push(goal);
                continue;
            }
            let name = self.predicate()?;
            self.arguments(&mut terms)?;
            match self.cur.kind {
                TokenKind::ColonDash => {
                    self.bump();
                    let head = Atom::new(name, std::mem::take(&mut terms));
                    let mut body = vec![self.literal()?];
                    while self.cur.kind == TokenKind::Comma {
                        self.bump();
                        body.push(self.literal()?);
                    }
                    self.expect(TokenKind::Dot)?;
                    rules.push(Rule::new(head, body));
                }
                TokenKind::Dot => {
                    let dot = self.bump();
                    values.clear();
                    for term in &terms {
                        let Term::Const(value) = term else {
                            return Err(self.lexer.error(dot.offset, "a fact (bodyless clause) must be ground"));
                        };
                        values.push(*value);
                    }
                    facts.push((Predicate::new(name, values.len()), Tuple::new(&values)));
                }
                other => return Err(self.lexer.error(self.cur.offset, format!("expected `:-` or `.`, found {}", other.describe()))),
            }
        }
        Ok(ParsedUnit {
            program: Program::new(rules, self.interner.clone()),
            facts,
            queries,
        })
    }

    /// One body literal: an atom, or a comparison `term op term`.
    fn literal(&mut self) -> Result<Literal> {
        // A comparison begins with a non-predicate term (variable,
        // integer, string) or with an identifier followed by an operator.
        let starts_comparison = match self.cur.kind {
            TokenKind::UpperIdent(_) | TokenKind::Int(_) | TokenKind::Str(_) => true,
            TokenKind::Ident(_) => comparison(self.peek_ahead()).is_some(),
            _ => false,
        };
        if !starts_comparison {
            return Ok(Literal::Atom(self.atom()?));
        }
        let lhs = self.term()?;
        let t = self.bump();
        let op = comparison(t.kind)
            .ok_or_else(|| self.lexer.error(t.offset, format!("expected a comparison operator, found {}", t.kind.describe())))?;
        let rhs = self.term()?;
        Ok(Literal::Constraint(Arc::new(Comparison::new(lhs, op, rhs))))
    }

    fn atom(&mut self) -> Result<Atom> {
        let name = self.predicate()?;
        let mut terms = Vec::new();
        self.arguments(&mut terms)?;
        Ok(Atom::new(name, terms))
    }

    fn predicate(&mut self) -> Result<SymbolId> {
        let t = self.bump();
        match t.kind {
            TokenKind::Ident(s) => Ok(self.intern(s)),
            other => Err(self.lexer.error(t.offset, format!("expected a predicate name, found {}", other.describe()))),
        }
    }

    /// An atom's argument list, if it has one, into `terms`.
    fn arguments(&mut self, terms: &mut Vec<Term>) -> Result<()> {
        terms.clear();
        if self.cur.kind == TokenKind::LParen {
            self.bump();
            if self.cur.kind != TokenKind::RParen {
                terms.push(self.term()?);
                while self.cur.kind == TokenKind::Comma {
                    self.bump();
                    terms.push(self.term()?);
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        Ok(())
    }

    fn term(&mut self) -> Result<Term> {
        let t = self.bump();
        match t.kind {
            TokenKind::UpperIdent(s) => Ok(Term::Var(Variable(self.intern(s)))),
            TokenKind::Ident(s) => Ok(Term::Const(Value::Sym(self.intern(s)))),
            TokenKind::Int(n) => Ok(Term::Const(Value::Int(n))),
            TokenKind::Str(body) => Ok(Term::Const(Value::Sym(match unescape(body) {
                Cow::Borrowed(text) => self.intern(text),
                Cow::Owned(text) => self.interner.intern(&text),
            }))),
            other => Err(self.lexer.error(t.offset, format!("expected a term, found {}", other.describe()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_ancestor_program() {
        let unit = parse_program(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- par(X,Z), anc(Z,Y).",
        )
        .unwrap();
        assert_eq!(unit.program.rules.len(), 2);
        assert!(unit.facts.is_empty());
        let i = &unit.program.interner;
        let anc = Predicate::new(i.get("anc").unwrap(), 2);
        assert_eq!(unit.program.derived_predicates(), vec![anc]);
        assert_eq!(unit.program.rules[1].body.len(), 2);
    }

    #[test]
    fn parses_facts_and_rules_mixed() {
        let unit = parse_program(
            "par(alice, bob).\n\
             par(1, 2).\n\
             anc(X,Y) :- par(X,Y).",
        )
        .unwrap();
        assert_eq!(unit.facts.len(), 2);
        assert_eq!(unit.program.rules.len(), 1);
        let (pred, tuple) = &unit.facts[1];
        assert_eq!(pred.arity, 2);
        assert_eq!(tuple.get(0), Value::Int(1));
    }

    #[test]
    fn symbolic_constants_are_interned_values() {
        let unit = parse_program("par(alice, bob).").unwrap();
        let i = &unit.program.interner;
        let (_, tuple) = &unit.facts[0];
        assert_eq!(tuple.get(0), Value::Sym(i.get("alice").unwrap()));
    }

    #[test]
    fn string_constants_are_interned_symbols() {
        let unit = parse_program(r#"par("John Smith", bob)."#).unwrap();
        let i = &unit.program.interner;
        let (_, tuple) = &unit.facts[0];
        assert_eq!(tuple.get(0), Value::Sym(i.get("John Smith").unwrap()));
        assert_eq!(tuple.get(1), Value::Sym(i.get("bob").unwrap()));
    }

    #[test]
    fn string_and_bare_symbol_unify() {
        // "alice" and alice intern to the same symbol.
        let unit = parse_program(r#"p("alice"). q(alice)."#).unwrap();
        let i = &unit.program.interner;
        assert_eq!(unit.facts[0].1.get(0), unit.facts[1].1.get(0));
        assert_eq!(i.len(), 3); // p, alice, q
    }

    #[test]
    fn zero_arity_atoms() {
        let unit = parse_program("go.\nrun() :- go.").unwrap();
        assert_eq!(unit.facts[0].0.arity, 0);
        assert_eq!(unit.program.rules[0].head.pred().arity, 0);
    }

    #[test]
    fn non_ground_fact_is_rejected() {
        let err = parse_program("par(X, bob).").unwrap_err();
        assert!(err.to_string().contains("must be ground"));
    }

    #[test]
    fn missing_dot_is_rejected() {
        assert!(parse_program("p(X) :- q(X)").is_err());
    }

    #[test]
    fn garbage_after_head_is_rejected() {
        assert!(parse_program("p(X) q(X).").is_err());
    }

    #[test]
    fn variable_as_predicate_is_rejected() {
        assert!(parse_program("X(a).").is_err());
    }

    #[test]
    fn parses_comparison_literals() {
        let unit = parse_program("older(X,Y) :- age(X,A), age(Y,B), A > B.").unwrap();
        let rule = &unit.program.rules[0];
        assert_eq!(rule.body.len(), 3);
        assert!(matches!(rule.body[2], Literal::Constraint(_)));
        // Comparisons don't count as body atoms.
        assert_eq!(rule.body_atoms().count(), 2);
        // Safety still holds: X, Y bound by atoms.
        assert!(rule.is_safe());
    }

    #[test]
    fn comparison_with_constant_operand() {
        let unit = parse_program("adult(X) :- age(X,A), A >= 18.").unwrap();
        assert!(matches!(unit.program.rules[0].body[1], Literal::Constraint(_)));
        let unit = parse_program("p(X) :- q(X), 3 < X.").unwrap();
        assert!(matches!(unit.program.rules[0].body[1], Literal::Constraint(_)));
    }

    #[test]
    fn symbol_comparison_disambiguates_from_atom() {
        // `alice != X` starts with an identifier but is a comparison.
        let unit = parse_program("p(X) :- q(X), alice != X.").unwrap();
        assert!(matches!(unit.program.rules[0].body[1], Literal::Constraint(_)));
        // `q(X)` stays an atom.
        assert!(matches!(unit.program.rules[0].body[0], Literal::Atom(_)));
    }

    #[test]
    fn comparison_in_fact_position_is_rejected() {
        assert!(parse_program("X < 3.").is_err());
    }

    #[test]
    fn dangling_comparison_is_rejected() {
        assert!(parse_program("p(X) :- q(X), X <.").is_err());
    }

    #[test]
    fn shared_interner_agrees_across_units() {
        let i = Interner::new();
        let a = parse_program_with("p(X) :- e(X).", &i).unwrap();
        let b = parse_program_with("q(X) :- e(X).", &i).unwrap();
        let ea = a.program.rules[0].body_atoms().next().unwrap().predicate;
        let eb = b.program.rules[0].body_atoms().next().unwrap().predicate;
        assert_eq!(ea, eb);
    }

    #[test]
    fn empty_source_parses_to_empty_unit() {
        let unit = parse_program("  % nothing here\n").unwrap();
        assert!(unit.program.rules.is_empty());
        assert!(unit.facts.is_empty());
    }

    #[test]
    fn dangling_comma_in_body_is_rejected() {
        assert!(parse_program("p(X) :- q(X), .").is_err());
    }

    #[test]
    fn parses_query_goals() {
        let unit = parse_program(
            "anc(X,Y) :- par(X,Y).\n\
             par(ann, bob).\n\
             ?- anc(\"ann\", Y).",
        )
        .unwrap();
        assert_eq!(unit.queries.len(), 1);
        let goal = &unit.queries[0];
        assert_eq!(goal.pred().arity, 2);
        let i = &unit.program.interner;
        assert_eq!(goal.terms[0].as_const(), Some(Value::Sym(i.get("ann").unwrap())));
        assert!(goal.terms[1].as_var().is_some());
        // Queries are neither rules nor facts.
        assert_eq!(unit.program.rules.len(), 1);
        assert_eq!(unit.facts.len(), 1);
    }

    #[test]
    fn query_without_dot_is_rejected() {
        assert!(parse_program("?- anc(ann, Y)").is_err());
    }

    /// Malformed inputs and what each is told, text and `line:column`, as
    /// the lexer that built a token list first reported them: the first
    /// lexical error anywhere wins, columns count characters.
    #[test]
    fn malformed_inputs_keep_their_errors() {
        const CORPUS: &[(&str, &str)] = &[
            ("anc(X,Y :- par(X,Y).", "1:9: expected `)`, found `:-`"),
            ("p(X) :- q(X)", "1:13: expected `.`, found end of input"),
            ("p(X) q(X).", "1:6: expected `:-` or `.`, found identifier `q`"),
            ("X(a).", "1:1: expected a predicate name, found variable `X`"),
            ("par(X, bob).", "1:12: a fact (bodyless clause) must be ground"),
            ("p(X) :- q(X), X <.", "1:18: expected a term, found `.`"),
            ("p(X) :- q(X), .", "1:15: expected a predicate name, found `.`"),
            ("p :", "1:3: expected `:-`"),
            ("p(X) ? q(X)", "1:6: expected `?-`"),
            ("p(X) :- q(X), X ! Y.", "1:17: expected `!=`"),
            ("p / q", "1:3: unexpected character `/`"),
            ("p(-)", "1:3: `-` must start an integer literal"),
            ("p(99999999999999999999999).", "1:3: integer `99999999999999999999999` out of range"),
            ("p(-9223372036854775809).", "1:3: integer `9223372036854775809` out of range"),
            ("p(\"abc", "1:3: unterminated string"),
            ("p(\"bad \\q escape\").", "1:3: unknown escape `\\q` in string"),
            ("p(#).", "1:3: unexpected character `#`"),
            ("p(\"é\", ü) :- ¬.", "1:14: unexpected character `¬`"),
            ("p(1).\n\n  q(2) :- r(2)\n  s(3).", "4:3: expected `.`, found identifier `s`"),
            ("p(X q.\nr(\"oops", "2:3: unterminated string"),
            ("p(\"a\nb\") :- .", "2:8: expected a predicate name, found `.`"),
            ("p(1) :- q(1), 3.", "1:16: expected a comparison operator, found `.`"),
            ("p(\"a\\", "1:3: unterminated string"),
            ("p(1). % fine\n// also fine\nq(2) :- p(2), 2 >= .", "3:20: expected a term, found `.`"),
            ("p(X) \"a\\tb\".", "1:6: expected `:-` or `.`, found string \"a\\tb\""),
            ("q(1) -42.", "1:6: expected `:-` or `.`, found integer `-42`"),
            ("q(1) :- r(1), 2 < 3 < 4.", "1:21: expected `.`, found `<`"),
        ];
        for (source, want) in CORPUS {
            let got = parse_program(source).unwrap_err().to_string();
            assert_eq!(got, format!("parse error at {want}"), "{source:?}");
        }
        assert_eq!(parse_program("p(1)\u{a0}:- q.").unwrap().program.rules.len(), 1);
    }

    /// Truncated or corrupted sample programs parse or fail, never panic —
    /// multi-byte characters spliced in among the punctuation included.
    #[test]
    fn damaged_sample_programs_never_panic() {
        const PIECES: &[&str] = &["\"", "\\", "%", "//", "-", "(", ")", ",", ".", ":", "?", "!", "<", "=", "_", "X", "9", "\n", "é", "Ü", "\u{a0}", "\u{2028}", "¬"];
        let floor = |text: &str, at: usize| (0..=at).rev().find(|&k| text.is_char_boundary(k)).unwrap();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
        let mut rng = gst_common::SmallRng::seed_from_u64(0x1E7);
        for entry in std::fs::read_dir(dir).unwrap() {
            let sample = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            for _ in 0..200 {
                let mut text = sample[..floor(&sample, rng.gen_below(sample.len() as u64 + 1) as usize)].to_string();
                for _ in 0..rng.gen_below(4) {
                    let at = floor(&text, rng.gen_below(text.len() as u64 + 1) as usize);
                    text.insert_str(at, rng.choose(PIECES).unwrap());
                }
                let _ = parse_program(&text);
            }
        }
    }
}
