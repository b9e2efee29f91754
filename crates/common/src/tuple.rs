//! Fixed-arity tuples of [`Value`]s — the row type.
//!
//! Tuples are the unit of everything: facts, deltas, channel messages,
//! index keys, and every §3 step (processing, difference, sending,
//! receiving) is charged per tuple. Almost every relation in the paper's
//! workloads has arity 2 or 3 (`par`, `anc`, the chain sirup's `p/3`), and
//! the host's bottleneck is memory speed, so a row costs what it holds:
//!
//! * **A row of arity ≤ [`INLINE_CAP`] is 32 bytes**: a length byte, a
//!   one-byte type mask and three untagged 64-bit words. `Int(n)` is
//!   stored as `n`'s two's-complement bits, `Sym(s)` as its `u32` id
//!   zero-extended; bit `k` of the mask says column `k` is a `Sym`. A
//!   tagged [`Value`] is 16 bytes (8 of them a discriminant and padding),
//!   which made the same row 56 — and every arena, pending pool, outlet
//!   and decode buffer is a `Vec<Tuple>`.
//! * **Why a mask and not a tag bit in the word**: `Int` spans all of
//!   `i64`, so no bit of the word is free; one byte beside the length
//!   types the whole row, and is zero for the all-integer rows of every
//!   generated workload.
//! * **Canonical form**: unused words and mask bits are zero and the
//!   representation is a function of arity alone, so equality is field
//!   equality (no per-column tag match) and hashing feeds the length/mask
//!   and then the used words. Ordering is *not* a word compare: it stays
//!   the `Value`-wise lexicographic order (`Int < Sym`, integers signed)
//!   that `--print`, `Relation::sorted` and the sorted RESULT frames show.
//! * **Why `Heap` is unchanged**: arity > 3 is rare, an `Arc<[Value]>`
//!   clones in O(1), and it fits beside the inline row without growing
//!   the enum past 32 bytes.
//! * **Why there is no `&[Value]` view**: a slice view needs 16-byte
//!   tagged slots in the row. Read a column with [`Tuple::get`] or walk
//!   the row by value with [`Tuple::iter`].

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::interner::Interner;
use crate::value::{Value, Word};

/// Maximum arity stored without heap allocation.
pub const INLINE_CAP: usize = 3;

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// `words[k]` for `k < len` is column `k`'s payload, a `Sym` iff bit
    /// `k` of `syms` is set; everything past `len` is zero.
    Inline {
        len: u8,
        syms: u8,
        words: [u64; INLINE_CAP],
    },
    Heap(Arc<[Value]>),
}

/// An immutable tuple of constants.
#[derive(Clone, PartialEq, Eq)]
pub struct Tuple {
    repr: Repr,
}

impl Tuple {
    /// Build a tuple from a slice of values.
    pub fn new(values: &[Value]) -> Self {
        if values.len() <= INLINE_CAP {
            Self::inline(values.len(), |k| values[k].word())
        } else {
            Tuple {
                repr: Repr::Heap(values.into()),
            }
        }
    }

    /// The row whose columns are `values` in order, or `None` if one of
    /// them is `None` — how the parser turns a fact's arguments into its
    /// row, a variable among them being `None`.
    pub fn try_from_values<I>(values: I) -> Option<Self>
    where
        I: IntoIterator<Item = Option<Value>>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut values = values.into_iter();
        let len = values.len();
        if len > INLINE_CAP {
            return values.collect::<Option<Vec<_>>>().map(Self::from_vec);
        }
        let mut cols = [(0, false); INLINE_CAP];
        for col in cols.iter_mut().take(len) {
            *col = values.next().flatten()?.word();
        }
        Some(Self::inline(len, |k| cols[k]))
    }

    /// An inline row of `len ≤ INLINE_CAP` columns, column `k` the
    /// [`Value::word`] pair `col(k)`.
    #[inline]
    fn inline(len: usize, col: impl Fn(usize) -> Word) -> Self {
        let (mut syms, mut words) = (0u8, [0u64; INLINE_CAP]);
        for (k, word) in words.iter_mut().enumerate().take(len) {
            let (w, sym) = col(k);
            *word = w;
            syms |= u8::from(sym) << k;
        }
        Self::from_parts(len, syms, words)
    }

    /// The inline row of `len ≤ INLINE_CAP` columns whose column `k` is the
    /// untagged word `words[k]`, a `Sym` iff bit `k` of `syms` is set — how
    /// the join emits a head without building a [`Value`]. Whatever lies
    /// past `len`, and a `Sym` word's high half, is dropped, so the row is
    /// in canonical form whatever the caller left there.
    ///
    /// # Panics
    /// Panics if `len > INLINE_CAP`.
    #[inline]
    pub fn from_parts(len: usize, syms: u8, mut words: [u64; INLINE_CAP]) -> Self {
        assert!(len <= INLINE_CAP, "an inline row holds at most {INLINE_CAP} columns, not {len}");
        let syms = syms & ((1u8 << len) - 1);
        for (k, word) in words.iter_mut().enumerate() {
            if k >= len {
                *word = 0;
            } else if syms >> k & 1 == 1 {
                *word &= u64::from(u32::MAX);
            }
        }
        Tuple {
            repr: Repr::Inline {
                len: len as u8,
                syms,
                words,
            },
        }
    }

    /// An inline row's parts, as [`Tuple::from_parts`] takes them and in
    /// its canonical form (zero past `len`), or `None` for a row of more
    /// than `INLINE_CAP` columns.
    #[inline]
    pub fn parts(&self) -> Option<(usize, u8, [u64; INLINE_CAP])> {
        match &self.repr {
            Repr::Inline { len, syms, words } => Some((*len as usize, *syms, *words)),
            Repr::Heap(_) => None,
        }
    }

    /// Build from untagged words (an `Int`'s two's-complement bits, a
    /// `Sym`'s zero-extended id), column `k` a `Sym` iff `is_sym(k)` — what
    /// a decoder holds before any [`Value`] exists.
    pub fn from_words(words: &[u64], is_sym: impl Fn(usize) -> bool) -> Self {
        if words.len() <= INLINE_CAP {
            Self::inline(words.len(), |k| (words[k], is_sym(k)))
        } else {
            let typed = |(k, &w)| Value::from_word(w, is_sym(k));
            words.iter().enumerate().map(typed).collect()
        }
    }

    /// Build from an owned `Vec`, avoiding a copy for wide tuples.
    pub fn from_vec(values: Vec<Value>) -> Self {
        if values.len() <= INLINE_CAP {
            Self::new(&values)
        } else {
            Tuple {
                repr: Repr::Heap(values.into()),
            }
        }
    }

    /// The empty (arity-0) tuple.
    pub fn unit() -> Self {
        Self::new(&[])
    }

    /// Tuple arity.
    #[inline]
    pub fn arity(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(h) => h.len(),
        }
    }

    /// The value at `index`, panicking if out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Value {
        match &self.repr {
            Repr::Inline { .. } => {
                let (word, sym) = self.word(index);
                Value::from_word(word, sym)
            }
            Repr::Heap(h) => h[index],
        }
    }

    /// Column `index` as [`Value::word`] gives it — the untagged word and
    /// whether it is a `Sym` — panicking if out of bounds. What the join,
    /// the indexes and the route table read instead of [`Tuple::get`].
    #[inline]
    pub fn word(&self, index: usize) -> Word {
        match &self.repr {
            Repr::Inline { len, syms, words } => {
                assert!(index < *len as usize, "column {index} of an arity-{len} tuple");
                (words[index], syms >> index & 1 == 1)
            }
            Repr::Heap(h) => h[index].word(),
        }
    }

    /// The columns in order, by value.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Value> + DoubleEndedIterator + '_ {
        (0..self.arity()).map(move |k| self.get(k))
    }

    /// Project the tuple onto the given column indexes.
    ///
    /// Used by indexes (key extraction) and by discriminating functions
    /// (extracting the ground instance of the discriminating sequence).
    pub fn project(&self, columns: &[usize]) -> Tuple {
        if columns.len() <= INLINE_CAP {
            Self::inline(columns.len(), |k| self.word(columns[k]))
        } else {
            columns.iter().map(|&c| self.get(c)).collect()
        }
    }

    /// True unless the tuple required a heap allocation (diagnostics/tests).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// Render using `interner` for symbols: `(a, b, 3)`.
    pub fn display(&self, interner: &Interner) -> String {
        let cols: Vec<String> = self.iter().map(|v| v.display(interner)).collect();
        format!("({})", cols.join(", "))
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    /// `Value`-wise lexicographic (`Int < Sym`, integers signed), a shorter
    /// tuple before its extensions.
    fn cmp(&self, other: &Self) -> Ordering {
        if let (
            Repr::Inline { len: la, syms: 0, words: a },
            Repr::Inline { len: lb, syms: 0, words: b },
        ) = (&self.repr, &other.repr)
        {
            // All integers: signed word order, then length (the unused
            // words are zero on both sides, so compare only shared ones).
            let shared = (*la).min(*lb) as usize;
            return a[..shared]
                .iter()
                .map(|&w| w as i64)
                .cmp(b[..shared].iter().map(|&w| w as i64))
                .then(la.cmp(lb));
        }
        self.iter().cmp(other.iter())
    }
}

impl Hash for Tuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.repr {
            Repr::Inline { len, syms, words } => {
                state.write_u16(u16::from(*len) | u16::from(*syms) << 8);
                for &w in &words[..*len as usize] {
                    state.write_u64(w);
                }
            }
            Repr::Heap(h) => h.hash(state),
        }
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<&[Value]> for Tuple {
    fn from(values: &[Value]) -> Self {
        Tuple::new(values)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::from_vec(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple::from_vec(iter.into_iter().collect())
    }
}

/// Build an integer tuple quickly in tests and examples: `ituple![1, 2]`.
#[macro_export]
macro_rules! ituple {
    ($($x:expr),* $(,)?) => {
        $crate::Tuple::new(&[$($crate::Value::Int($x)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::hash_one;

    fn vals(n: usize) -> Vec<Value> {
        (0..n as i64).map(Value::Int).collect()
    }

    #[test]
    fn small_tuples_are_inline() {
        for n in 0..=INLINE_CAP {
            assert!(Tuple::new(&vals(n)).is_inline(), "arity {n}");
        }
        assert!(!Tuple::new(&vals(INLINE_CAP + 1)).is_inline());
    }

    #[test]
    fn equality_is_by_content_across_reprs() {
        // Force a heap repr of an inline-sized tuple via projection of a
        // wide tuple... projection keeps it inline, so compare same-content
        // tuples built both ways instead.
        let wide = Tuple::new(&vals(5));
        let narrow = wide.project(&[0, 1, 2, 3, 4]);
        assert_eq!(wide, narrow);
        assert_eq!(hash_one(&wide), hash_one(&narrow));
    }

    #[test]
    fn arity_and_get() {
        let t = ituple![10, 20, 30];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(1), Value::Int(20));
        assert_eq!(t.iter().collect::<Vec<_>>(), [10, 20, 30].map(Value::Int));
    }

    #[test]
    fn word_reads_and_from_parts_builds_the_row_as_stored() {
        let sym = Value::Sym(crate::SymbolId(5));
        let rows = [vec![], vec![Value::Int(-1)], vec![sym, Value::Int(5), sym], vec![Value::Int(5), sym, sym, Value::Int(i64::MIN)]];
        for row in rows {
            let t = Tuple::new(&row);
            let (mut syms, mut words) = (0xF8u8, [u64::MAX; INLINE_CAP]);
            for (k, v) in row.iter().enumerate() {
                assert_eq!(t.word(k), v.word());
                assert_eq!(Value::from_word(t.word(k).0, t.word(k).1), *v);
                if k < INLINE_CAP {
                    // Garbage in a `Sym`'s high half, as past `len`, is dropped.
                    words[k] = v.word().0 | u64::from(v.word().1) << 40;
                    syms |= u8::from(v.word().1) << k;
                }
            }
            if row.len() <= INLINE_CAP {
                let built = Tuple::from_parts(row.len(), syms, words);
                assert_eq!((&built, hash_one(&built)), (&t, hash_one(&t)));
            }
        }
    }

    #[test]
    fn unit_tuple() {
        let t = Tuple::unit();
        assert_eq!(t.arity(), 0);
        assert_eq!(t, ituple![]);
    }

    #[test]
    fn project_reorders_and_repeats() {
        let t = ituple![1, 2, 3];
        assert_eq!(t.project(&[2, 0]), ituple![3, 1]);
        assert_eq!(t.project(&[1, 1, 1]), ituple![2, 2, 2]);
        assert_eq!(t.project(&[]), Tuple::unit());
    }

    #[test]
    fn project_wide_output() {
        let t = Tuple::new(&vals(6));
        let p = t.project(&[0, 1, 2, 3, 4]);
        assert_eq!(p.arity(), 5);
        assert_eq!(p.get(4), Value::Int(4));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(ituple![1, 2] < ituple![1, 3]);
        assert!(ituple![1] < ituple![1, 0]);
        assert!(ituple![2] > ituple![1, 9]);
    }

    #[test]
    fn from_vec_and_iterator() {
        let t: Tuple = (0..4).map(Value::Int).collect();
        assert_eq!(t.arity(), 4);
        assert_eq!(Tuple::from_vec(vals(2)), ituple![0, 1]);
    }

    #[test]
    fn try_from_values_is_new_or_none() {
        for n in 0..=INLINE_CAP + 2 {
            let mut values: Vec<Value> = vals(n);
            if n > 1 {
                values[1] = Value::Sym(crate::SymbolId(7));
            }
            assert_eq!(Tuple::try_from_values(values.iter().copied().map(Some)), Some(Tuple::new(&values)), "arity {n}");
            for hole in 0..n {
                let with_hole = (0..n).map(|k| (k != hole).then(|| values[k]));
                assert_eq!(Tuple::try_from_values(with_hole), None, "arity {n}, hole {hole}");
            }
        }
    }

    #[test]
    fn display_renders_values() {
        let interner = Interner::new();
        let t = ituple![1, 2];
        assert_eq!(t.display(&interner), "(1, 2)");
    }

    #[test]
    fn clone_of_wide_tuple_is_shallow() {
        let t = Tuple::new(&vals(10));
        let c = t.clone();
        assert_eq!(t, c);
        match (&t.repr, &c.repr) {
            (Repr::Heap(a), Repr::Heap(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected heap reprs"),
        }
    }
}
