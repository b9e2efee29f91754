//! Pretty-printing of AST nodes back to the surface syntax.
//!
//! Output parses back to an equal program (round-trip property tested in
//! the workspace's property suite), comparisons included; the scheme
//! constraints `h(v) = i` render inside `{...}` braces and are for human
//! consumption only. A symbol is spelled by one rule, [`symbol`], which
//! `pdatalog run --print` shares.

use std::borrow::Cow;

use gst_common::{Interner, Tuple, Value};

use crate::ast::{Atom, Literal, Predicate, Program, Rule, Term};
use crate::parser::{parse_program, ParsedUnit};

/// Render a term; a constant re-parses to itself (a symbol as
/// [`symbol`] spells it).
pub fn term(t: &Term, interner: &Interner) -> String {
    match t {
        Term::Var(v) => v.name(interner),
        Term::Const(Value::Sym(s)) => symbol(&interner.resolve(*s)).into_owned(),
        Term::Const(c) => c.display(interner),
    }
}

/// A symbol's spelling: bare when it lexes back as a lowercase
/// identifier, else quoted and escaped (spaces, capitals, punctuation).
pub fn symbol(name: &str) -> Cow<'_, str> {
    if is_plain_symbol(name) {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(quote(name))
    }
}

/// True when `name` lexes back as a lowercase identifier.
fn is_plain_symbol(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() && c.is_lowercase() => {}
        _ => return false,
    }
    chars.all(|c| c.is_alphanumeric() || c == '_')
}

/// Quote and escape a symbol for the surface syntax.
fn quote(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 2);
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an atom, e.g. `anc(X, Y)`.
pub fn atom(a: &Atom, interner: &Interner) -> String {
    let name = interner.resolve(a.predicate);
    if a.terms.is_empty() {
        name.to_string()
    } else {
        let args: Vec<String> = a.terms.iter().map(|t| term(t, interner)).collect();
        format!("{}({})", name, args.join(", "))
    }
}

/// Render a body literal. Comparison constraints re-parse; scheme
/// constraints (`h(v) = i`) render inside `{…}` braces for humans only.
pub fn literal(l: &Literal, interner: &Interner) -> String {
    match l {
        Literal::Atom(a) => atom(a, interner),
        Literal::Constraint(c) => {
            let rendered = c.describe(interner);
            if rendered.starts_with("h(") {
                format!("{{{rendered}}}")
            } else {
                rendered
            }
        }
    }
}

/// Render a rule, e.g. `anc(X, Y) :- par(X, Z), anc(Z, Y).`.
pub fn rule(r: &Rule, interner: &Interner) -> String {
    if r.body.is_empty() {
        return format!("{}.", atom(&r.head, interner));
    }
    let body: Vec<String> = r.body.iter().map(|l| literal(l, interner)).collect();
    format!("{} :- {}.", atom(&r.head, interner), body.join(", "))
}

/// Render a whole program, one rule per line.
pub fn program(p: &Program) -> String {
    p.rules
        .iter()
        .map(|r| rule(r, &p.interner))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Render a parsed unit, one clause per line: its rules, then its facts,
/// then its goals. A source laid out in that order interns its symbols in
/// the order this text does, so the two parse to equal units, ids and all.
pub fn unit(u: &ParsedUnit) -> String {
    let interner = &u.program.interner;
    let rules: Vec<String> = u.program.rules.iter().map(|r| rule(r, interner)).collect();
    // The rules name the first symbols: as many as their text interns alone.
    let named = parse_program(&rules.join("\n")).map_or(0, |alone| alone.program.interner.len() as u32);
    let fact = |(p, t): (Predicate, &Tuple)| format!("{}.", atom(&Atom::new(p.name, t.iter().map(Term::Const).collect()), interner));
    let facts = in_naming_order(&u.facts, named).into_iter().map(fact);
    let goals = u.queries.iter().map(|q| format!("?- {}.", atom(q, interner)));
    rules.into_iter().chain(facts).chain(goals).collect::<Vec<_>>().join("\n")
}

/// The rows of `groups`, each group's in order, interleaved so that every
/// symbol from id `named` on is first written in id order — the order a
/// parse numbers them in. The source's order is one such interleaving, so
/// taking the first group whose next row writes no symbol ahead of its
/// turn never runs out of rows that fit; a unit laid out otherwise gets
/// the first group's next row when none fits.
fn in_naming_order(groups: &[(Predicate, Vec<Tuple>)], mut named: u32) -> Vec<(Predicate, &Tuple)> {
    let mut next = vec![0; groups.len()];
    let mut out = Vec::new();
    // Where `row` leaves the count of symbols named, if it fits.
    let fits = |named: u32, pred: Predicate, row: &Tuple| {
        let mut symbols = std::iter::once(pred.name).chain(row.iter().filter_map(Value::as_sym));
        symbols.try_fold(named, |named, s| (s.0 <= named).then_some(named + u32::from(s.0 == named)))
    };
    loop {
        let heads = groups.iter().enumerate().filter_map(|(g, (pred, rows))| Some((g, *pred, rows.get(next[g])?)));
        let Some((g, pred, row, after)) = heads
            .clone()
            .find_map(|(g, pred, row)| Some((g, pred, row, fits(named, pred, row)?)))
            .or_else(|| heads.clone().next().map(|(g, pred, row)| (g, pred, row, named)))
        else {
            return out;
        };
        out.push((pred, row));
        next[g] += 1;
        named = after;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ancestor() {
        let unit = parse_program(
            "anc(X,Y) :- par(X,Y).\n\
             anc(X,Y) :- par(X,Z), anc(Z,Y).",
        )
        .unwrap();
        assert_eq!(
            program(&unit.program),
            "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y)."
        );
    }

    #[test]
    fn renders_constants() {
        let unit = parse_program("p(X) :- q(X, alice, 42).").unwrap();
        assert_eq!(program(&unit.program), "p(X) :- q(X, alice, 42).");
    }

    #[test]
    fn renders_zero_arity() {
        let unit = parse_program("go :- ready.").unwrap();
        assert_eq!(program(&unit.program), "go :- ready.");
    }

    #[test]
    fn quotes_non_identifier_symbols() {
        let unit = parse_program(r#"p(X) :- q(X, "John Smith", alice)."#).unwrap();
        assert_eq!(
            program(&unit.program),
            r#"p(X) :- q(X, "John Smith", alice)."#
        );
    }

    #[test]
    fn string_round_trip_with_escapes() {
        let src = r#"p(X) :- q(X, "a\"b\nc")."#;
        assert_eq!(program(&parse_program(src).unwrap().program), src);
    }

    #[test]
    fn round_trips_through_parser() {
        let src = "t(X, Y) :- s(X, Y).\nt(X, Y) :- t(X, Z), e(Z, Y, -3), Z != \"Z z\".";
        assert_eq!(program(&parse_program(src).unwrap().program), src);
    }
}
