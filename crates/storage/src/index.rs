//! Hash indexes over relations, as row-id postings into the row arena.
//!
//! The semi-naive join executor probes base and derived relations on the
//! columns bound by earlier subgoals. A [`HashIndex`] maps the projection
//! of each tuple onto a fixed column set to the list of matching **row
//! ids** in the source [`Relation`]'s arena — no tuple is cloned into the
//! index, neither as a key nor as a posting. Keys exist only as hashes:
//! equality on probe is verified against the projected columns of the
//! bucket's first row, so probing needs the source relation but never
//! allocates a key tuple. A key is probed as words ([`Tuple::word`]): the
//! hash is of the key columns' untagged words, so a row's projection, a
//! `Value` key and the join's word key hash alike and no type tag is read;
//! the type bit is compared when the representative row is.
//!
//! Because rows only append and the index ingests them in row order, each
//! bucket's posting list is sorted ascending. A caller that wants only
//! the rows of a sub-range of the arena — the `Old` view `rows[..k]` or
//! the delta `rows[k..]` — slices the postings with a binary search
//! instead of consulting a separate index or membership set.
//!
//! An index records the relation generation it has ingested
//! ([`HashIndex::built_at`]); since a relation's generation *is* its row
//! count, [`HashIndex::sync`] knows exactly which row range is missing
//! and catches up incrementally.

use std::hash::Hasher;

use gst_common::value::gather;
use gst_common::{FxHasher, Tuple, Value, Word};

use crate::relation::Relation;

/// One bucket: the key's hash plus the rows whose projection matches.
/// A bucket with no rows is vacant (occupied buckets always hold ≥ 1).
#[derive(Debug, Clone, Default)]
struct Bucket {
    hash: u64,
    rows: Vec<u32>,
}

/// A hash index on a fixed set of key columns.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_columns: Vec<usize>,
    buckets: Box<[Bucket]>,
    /// Occupied buckets (distinct keys).
    keys: usize,
    /// Rows indexed across all buckets.
    entries: usize,
    /// Generation (= row count) of the source relation last ingested.
    built_at: u64,
}

/// Hash a key's untagged words; an `Int` and the `Sym` sharing its word
/// collide here and are told apart when the bucket's row is verified.
#[inline]
fn hash_words(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = FxHasher::default();
    words.for_each(|w| h.write_u64(w));
    h.finish()
}

impl HashIndex {
    /// Create an empty index keyed on `key_columns`.
    pub fn new(key_columns: &[usize]) -> Self {
        HashIndex {
            key_columns: key_columns.to_vec(),
            buckets: Box::default(),
            keys: 0,
            entries: 0,
            built_at: 0,
        }
    }

    /// Build an index of `relation` keyed on `key_columns`.
    ///
    /// # Panics
    /// Panics if a key column is out of range for the relation's arity
    /// (a programming error in plan compilation, not a data error).
    pub fn build(relation: &Relation, key_columns: &[usize]) -> Self {
        let mut idx = HashIndex::new(key_columns);
        idx.sync(relation);
        idx
    }

    /// The key columns this index is on.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// Row ids whose projection equals `key`, ascending. Missing keys
    /// yield `&[]`. `relation` must be the indexed relation: it supplies
    /// the representative tuple that verifies key equality. The values are
    /// probed as their [`Value::word`]s, gathered on the stack.
    pub fn probe<'a>(&'a self, relation: &Relation, key: &[Value]) -> &'a [u32] {
        gather(key.len(), |k| key[k].word(), |words| self.probe_words(relation, words))
    }

    /// [`HashIndex::probe`] for a key given as [`Value::word`] pairs, as
    /// the join holds it: hashed and compared without building a `Value`.
    #[inline]
    pub fn probe_words<'a>(&'a self, relation: &Relation, key: &[Word]) -> &'a [u32] {
        debug_assert_eq!(key.len(), self.key_columns.len());
        if self.buckets.is_empty() {
            return &[];
        }
        let hash = hash_words(key.iter().map(|k| k.0));
        let is_key = |rep: &Tuple| self.key_columns.iter().zip(key).all(|(&c, k)| rep.word(c) == *k);
        &self.buckets[self.slot(relation, hash, is_key)].rows
    }

    /// The bucket a key is filed in — occupied, its hash `hash` and its
    /// representative row one `is_key` holds of — or else the vacant one
    /// that ends the key's probe chain.
    #[inline]
    fn slot(&self, relation: &Relation, hash: u64, is_key: impl Fn(&Tuple) -> bool) -> usize {
        let mask = self.buckets.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let b = &self.buckets[i];
            if b.rows.is_empty() || (b.hash == hash && is_key(relation.row(b.rows[0]))) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The generation stamp of the relation when the index was last
    /// synced; compare against [`Relation::generation`] for staleness.
    pub fn built_at(&self) -> u64 {
        self.built_at
    }

    /// True if `relation` has changed since this index last ingested it.
    pub fn is_stale(&self, relation: &Relation) -> bool {
        relation.generation() != self.built_at
    }

    /// Bring the index up to date by ingesting the arena rows appended
    /// since the last sync — incremental, so keeping an index current
    /// across a fixpoint is O(total tuples), not O(rounds × tuples).
    ///
    /// If the relation was replaced wholesale (fewer rows than already
    /// ingested — never on the fixpoint hot path), the index rebuilds.
    pub fn sync(&mut self, relation: &Relation) {
        let mut start = self.built_at as usize;
        if start > relation.len() {
            self.buckets = Box::default();
            self.keys = 0;
            self.entries = 0;
            start = 0;
        }
        for row in start..relation.len() {
            // Tombstoned rows stay out of posting lists. A row that dies
            // *after* being ingested is filtered at probe-consumption
            // time instead (deletions never happen mid-evaluation, and
            // the executor re-checks liveness anyway).
            if relation.is_live(row as u32) {
                self.insert_row(relation, row as u32);
            }
        }
        self.built_at = relation.generation();
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.keys
    }

    /// Number of rows indexed.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Append `row` to its key's posting list. Rows must be fed in
    /// ascending order (as [`HashIndex::sync`] does) to keep posting
    /// lists sorted.
    fn insert_row(&mut self, relation: &Relation, row: u32) {
        // 5/8 max load: linear-probe miss chains grow ~1/(1-α)², and
        // probes for absent keys are common in semi-naive rounds. The
        // dedup table fills to ¾ (relation.rs `within_ceiling`); this
        // index stays at ⅝: at ⅞ its peak RSS on `sg-general` stayed
        // inside the run-to-run spread (three runs, EXPERIMENTS.md P28),
        // so longer chains would buy nothing measured.
        if self.keys * 8 >= self.buckets.len() * 5 {
            self.grow_to((self.buckets.len() * 2).max(16));
        }
        let tuple = relation.row(row);
        let columns = &self.key_columns;
        let hash = hash_words(columns.iter().map(|&c| tuple.word(c).0));
        let i = self.slot(relation, hash, |rep| columns.iter().all(|&c| rep.word(c) == tuple.word(c)));
        let b = &mut self.buckets[i];
        if b.rows.is_empty() {
            b.hash = hash;
            self.keys += 1;
        }
        debug_assert!(b.rows.last().is_none_or(|&r| r < row));
        b.rows.push(row);
        self.entries += 1;
    }

    /// Resize to `cap` buckets (a power of two), repositioning posting
    /// lists by their stored hashes — moves, no tuple access.
    fn grow_to(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap > self.buckets.len());
        let old = std::mem::replace(&mut self.buckets, vec![Bucket::default(); cap].into_boxed_slice());
        let mask = cap - 1;
        for b in old.into_vec() {
            if b.rows.is_empty() {
                continue;
            }
            let mut i = (b.hash as usize) & mask;
            while !self.buckets[i].rows.is_empty() {
                i = (i + 1) & mask;
            }
            self.buckets[i] = b;
        }
    }
}

/// Restrict an ascending posting list to rows in `[start, end)` — how
/// callers realize the `Old` (`rows[..k]`) and delta (`rows[k..]`) views
/// of an arena from the single full-relation index.
pub fn postings_in_range(postings: &[u32], start: u32, end: u32) -> &[u32] {
    let lo = postings.partition_point(|&r| r < start);
    let hi = lo + postings[lo..].partition_point(|&r| r < end);
    &postings[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::ituple;

    fn sample() -> Relation {
        [
            ituple![1, 10],
            ituple![1, 11],
            ituple![2, 20],
            ituple![3, 30],
        ]
        .into_iter()
        .collect()
    }

    fn key(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    /// Resolve postings to sorted tuples for assertion convenience.
    fn hits(idx: &HashIndex, rel: &Relation, k: &[i64]) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = idx
            .probe(rel, &key(k))
            .iter()
            .map(|&r| rel.row(r).clone())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn probe_finds_all_matches() {
        let rel = sample();
        let idx = HashIndex::build(&rel, &[0]);
        assert_eq!(hits(&idx, &rel, &[1]), vec![ituple![1, 10], ituple![1, 11]]);
        assert_eq!(hits(&idx, &rel, &[2]), vec![ituple![2, 20]]);
    }

    #[test]
    fn probe_missing_key_is_empty() {
        let rel = sample();
        let idx = HashIndex::build(&rel, &[0]);
        assert!(idx.probe(&rel, &key(&[99])).is_empty());
    }

    #[test]
    fn index_on_second_column() {
        let rel = sample();
        let idx = HashIndex::build(&rel, &[1]);
        assert_eq!(hits(&idx, &rel, &[11]), vec![ituple![1, 11]]);
    }

    #[test]
    fn index_on_both_columns() {
        let rel = sample();
        let idx = HashIndex::build(&rel, &[1, 0]);
        assert_eq!(hits(&idx, &rel, &[10, 1]), vec![ituple![1, 10]]);
        assert!(idx.probe(&rel, &key(&[1, 10])).is_empty(), "key order matters");
    }

    #[test]
    fn empty_key_groups_everything() {
        let rel = sample();
        let idx = HashIndex::build(&rel, &[]);
        assert_eq!(idx.probe(&rel, &[]).len(), 4);
        assert_eq!(idx.key_count(), 1);
    }

    #[test]
    fn staleness_and_incremental_sync() {
        let mut rel = sample();
        let mut idx = HashIndex::build(&rel, &[0]);
        assert!(!idx.is_stale(&rel));
        rel.insert(ituple![1, 12]).unwrap();
        assert!(idx.is_stale(&rel));
        idx.sync(&rel);
        assert!(!idx.is_stale(&rel));
        assert_eq!(idx.probe(&rel, &key(&[1])).len(), 3);
        assert_eq!(idx.entry_count(), 5);
    }

    #[test]
    fn incremental_sync_matches_rebuild() {
        let mut rel = sample();
        let mut idx = HashIndex::build(&rel, &[0]);
        rel.insert(ituple![2, 21]).unwrap();
        idx.sync(&rel);
        let rebuilt = HashIndex::build(&rel, &[0]);
        assert_eq!(idx.probe(&rel, &key(&[2])), rebuilt.probe(&rel, &key(&[2])));
        assert_eq!(idx.entry_count(), rebuilt.entry_count());
        assert_eq!(idx.key_count(), rebuilt.key_count());
    }

    #[test]
    fn sync_on_fresh_index_is_noop() {
        let rel = sample();
        let mut idx = HashIndex::build(&rel, &[0]);
        let before = idx.built_at();
        idx.sync(&rel);
        assert_eq!(idx.built_at(), before);
    }

    #[test]
    fn sync_rebuilds_after_replacement() {
        let mut idx = HashIndex::build(&sample(), &[0]);
        let smaller: Relation = [ituple![7, 70]].into_iter().collect();
        idx.sync(&smaller);
        assert_eq!(idx.probe(&smaller, &key(&[7])), &[0]);
        assert!(idx.probe(&smaller, &key(&[1])).is_empty());
        assert_eq!(idx.entry_count(), 1);
    }

    #[test]
    fn postings_stay_sorted_through_growth() {
        let mut rel = Relation::new(2);
        for i in 0..5_000i64 {
            rel.insert(ituple![i % 13, i]).unwrap();
        }
        let idx = HashIndex::build(&rel, &[0]);
        for k0 in 0..13 {
            let postings = idx.probe(&rel, &key(&[k0]));
            assert!(postings.windows(2).all(|w| w[0] < w[1]));
            for &r in postings {
                assert_eq!(rel.row(r).get(0), Value::Int(k0));
            }
        }
        assert_eq!(idx.entry_count(), 5_000);
    }

    #[test]
    fn sync_skips_tombstoned_rows() {
        let mut rel = sample();
        rel.delete(&ituple![1, 11]);
        let idx = HashIndex::build(&rel, &[0]);
        assert_eq!(hits(&idx, &rel, &[1]), vec![ituple![1, 10]]);
        assert_eq!(idx.entry_count(), 3);
        // Incremental sync after delete + re-insert: the fresh arena row
        // is ingested, the dead one stays out.
        let mut idx2 = idx.clone();
        rel.delete(&ituple![2, 20]);
        rel.insert(ituple![2, 20]).unwrap();
        idx2.sync(&rel);
        // The old row 2 posting remains (it died after ingest — probe
        // consumers filter by liveness), and the fresh row is present.
        let postings = idx2.probe(&rel, &key(&[2]));
        assert!(postings.contains(&(rel.len() as u32 - 1)));
        let live_hits: Vec<_> = postings
            .iter()
            .copied()
            .filter(|&r| rel.is_live(r))
            .collect();
        assert_eq!(live_hits, vec![rel.len() as u32 - 1]);
    }

    #[test]
    fn postings_in_range_slices_views() {
        let postings = [2u32, 5, 9, 14];
        assert_eq!(postings_in_range(&postings, 0, u32::MAX), &postings);
        assert_eq!(postings_in_range(&postings, 0, 9), &[2, 5]);
        assert_eq!(postings_in_range(&postings, 5, 14), &[5, 9]);
        assert_eq!(postings_in_range(&postings, 15, 20), &[] as &[u32]);
    }
}
