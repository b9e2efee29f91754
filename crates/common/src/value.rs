//! Runtime constants.
//!
//! A [`Value`] is what fills an argument position of a ground atom: either
//! a 64-bit integer or an interned symbol. Both variants are `Copy`, so
//! tuples of values move through joins, channels and hash tables without
//! allocation.

use std::fmt;

use crate::interner::{Interner, SymbolId};

/// A value as a row stores it and a join slot holds it: [`Value::word`]'s
/// untagged word and whether it is a `Sym`. It is the one form of a ground
/// instance that a discriminating function or a constraint reads.
pub type Word = (u64, bool);

/// Keys up to this long are gathered on the stack by [`gather`].
const STACK_KEY: usize = 4;

/// `f` on the words `item(0..n)`: in a stack buffer when they fit — a
/// probe key, a filter's arguments or a route key is gathered once per
/// candidate or row, and a heap buffer would cost more than the work it
/// keys — and in a `Vec` otherwise.
#[inline]
pub fn gather<R>(n: usize, item: impl Fn(usize) -> Word, f: impl FnOnce(&[Word]) -> R) -> R {
    let mut stack = [(0, false); STACK_KEY];
    match stack.get_mut(..n) {
        Some(buf) => {
            buf.iter_mut().enumerate().for_each(|(k, slot)| *slot = item(k));
            f(buf)
        }
        None => f(&(0..n).map(item).collect::<Vec<Word>>()),
    }
}

/// A Datalog constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A 64-bit integer constant, e.g. node ids from a workload generator.
    Int(i64),
    /// An interned symbolic constant, e.g. `alice` in `par(alice, bob)`.
    Sym(SymbolId),
}

impl Value {
    /// The integer payload, if this is an [`Value::Int`].
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(n),
            Value::Sym(_) => None,
        }
    }

    /// The symbol payload, if this is a [`Value::Sym`].
    #[inline]
    pub fn as_sym(self) -> Option<SymbolId> {
        match self {
            Value::Sym(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// The untagged word a row stores for this value — an `Int`'s
    /// two's-complement bits, a `Sym`'s zero-extended id — and whether it
    /// is a `Sym`. Two values are equal iff their pairs are.
    #[inline]
    pub fn word(self) -> Word {
        match self {
            Value::Int(n) => (n as u64, false),
            Value::Sym(s) => (u64::from(s.0), true),
        }
    }

    /// The value [`Value::word`] took apart (a `Sym` keeps the low 32 bits).
    #[inline]
    pub fn from_word(word: u64, sym: bool) -> Self {
        if sym {
            Value::Sym(SymbolId(word as u32))
        } else {
            Value::Int(word as i64)
        }
    }

    /// Render the value using `interner` to resolve symbols.
    pub fn display(self, interner: &Interner) -> String {
        match self {
            Value::Int(n) => n.to_string(),
            Value::Sym(s) => interner.resolve(s).to_string(),
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<SymbolId> for Value {
    fn from(s: SymbolId) -> Self {
        Value::Sym(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Sym(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_sym(), None);
        let s = SymbolId(3);
        assert_eq!(Value::Sym(s).as_sym(), Some(s));
        assert_eq!(Value::Sym(s).as_int(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(SymbolId(2)), Value::Sym(SymbolId(2)));
    }

    #[test]
    fn ints_and_syms_never_compare_equal() {
        assert_ne!(Value::Int(0), Value::Sym(SymbolId(0)));
    }

    #[test]
    fn display_resolves_symbols() {
        let interner = Interner::new();
        let id = interner.intern("alice");
        assert_eq!(Value::Sym(id).display(&interner), "alice");
        assert_eq!(Value::Int(-3).display(&interner), "-3");
    }

    #[test]
    fn value_is_small() {
        // Two words: keeps tuples compact and copies cheap.
        assert!(std::mem::size_of::<Value>() <= 16);
    }
}
