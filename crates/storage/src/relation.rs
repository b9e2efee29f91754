//! A relation: a duplicate-free, insertion-ordered arena of same-arity
//! tuples.
//!
//! Tuples are stored exactly once, in arrival order, in a row arena
//! (`Vec<Tuple>`); a compact open-addressed table of `(hash, row-id)`
//! slots provides set semantics without a second copy of any tuple.
//! Row ids are dense `u32`s, so secondary structures (hash indexes,
//! delta windows) can reference tuples by id instead of cloning them,
//! and a contiguous row range — e.g. "everything inserted since row
//! `k`" — is a borrowable `&[Tuple]` slice that the runtime can encode
//! onto the wire without an intermediate buffer.
//!
//! Deletion is by **tombstone**: [`Relation::delete`] removes the tuple
//! from the dedup table (so a later insert of the same tuple lands in a
//! *fresh* arena row, i.e. gets a fresh generation) and marks the old
//! row dead in a side bitmap. The arena never compacts, so row ids,
//! delta watermarks, and index `built_at` stamps all stay valid; readers
//! that enumerate rows ([`Relation::iter`], scans, index postings) skip
//! dead rows via [`Relation::is_live`]. `len()`/`generation()` remain
//! the *arena* row count — callers that want the set cardinality use
//! [`Relation::live_len`].

use std::sync::OnceLock;

use gst_common::{fxhash::hash_one, Error, Interner, Result, Tuple};

/// Sentinel marking a vacant dedup slot; real row ids stay below it.
const VACANT: u32 = u32::MAX;

/// One slot of the dedup table: a folded 32-bit hash plus the row id.
///
/// Eight bytes per slot — half a `(u64, u32)` layout — doubles the
/// slots per cache line, and dedup probes are memory-latency bound.
/// The bucket position is derived from the *stored* fold, so growth
/// stays rehash-free; a fold collision between distinct tuples merely
/// costs one extra `eq` call (~2⁻³² per probe step).
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    row: u32,
}

/// Fold a 64-bit hash to the 32 bits the table keys on: the high half of
/// a Fibonacci multiply. The bucket is the fold's low bits, and FxHash
/// ends in an odd multiply that leaves its low bits weak; XOR-ing the
/// halves kept them weak and the probe chains long (EXPERIMENTS.md P31).
#[inline]
fn fold(hash: u64) -> u32 {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// Open-addressed `(hash, row)` set with linear probing.
///
/// The table never looks at tuples itself: callers supply an equality
/// closure over row ids, which keeps the arena and the table in
/// separate fields that the borrow checker can split.
#[derive(Debug, Clone, Default)]
struct RowTable {
    slots: Box<[Slot]>,
    len: usize,
}

impl RowTable {
    fn with_capacity(rows: usize) -> Self {
        let mut t = RowTable::default();
        if rows > 0 {
            t.grow_to(slots_for(rows));
        }
        t
    }

    /// The table of an arena whose live rows are pairwise distinct: every
    /// live row is hashed once and put in the first vacant slot of its
    /// chain — no probe for equality, no growth.
    fn of_rows(rows: &[Tuple], dead: &[u64]) -> Self {
        let mut t = RowTable::with_capacity(rows.len());
        for (row, tuple) in rows.iter().enumerate().filter(|&(row, _)| live(dead, row)) {
            let hash = fold(hash_one(tuple));
            if let Err(slot) = t.probe(hash, |_| false) {
                t.occupy(slot, hash, row as u32);
            }
        }
        t
    }

    /// Find the row whose hash matches and for which `eq` holds.
    fn find(&self, hash: u32, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash, eq).ok()
    }

    /// Walk the probe chain once: `Ok(row)` when the tuple is present,
    /// `Err(slot)` of the vacant slot ending the chain otherwise — the
    /// insert position, valid until the next growth.
    fn probe(&self, hash: u32, mut eq: impl FnMut(u32) -> bool) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let s = self.slots[i];
            if s.row == VACANT {
                return Err(i);
            }
            if s.hash == hash && eq(s.row) {
                return Ok(s.row);
            }
            i = (i + 1) & mask;
        }
    }

    /// Grow if another insert would put the table past [`within_ceiling`].
    fn reserve_one(&mut self) {
        if !within_ceiling(self.len + 1, self.slots.len()) {
            self.grow_to((self.slots.len() * 2).max(16));
        }
    }

    /// Pull the bucket line for `hash` into cache. Batch inserts call
    /// this a few tuples ahead of the probe so the (almost always
    /// out-of-cache) slot loads overlap instead of serializing — dedup
    /// is memory-latency bound, not compute bound. `black_box` keeps the
    /// otherwise-dead load from being optimized away.
    #[inline]
    fn touch(&self, hash: u32) {
        if !self.slots.is_empty() {
            let i = (hash as usize) & (self.slots.len() - 1);
            std::hint::black_box(self.slots[i].row);
        }
    }

    /// Remove the entry whose hash matches and for which `eq` holds,
    /// returning its row id. Uses backward-shift deletion: the probe
    /// chain after the removed slot is compacted in place (each entry
    /// moves back iff the hole lies on its probe path), so no tombstone
    /// markers accumulate in the table and probe chains never lengthen
    /// from deletions. Home buckets are recomputed from the *stored*
    /// folds, so no tuple is hashed or touched.
    fn remove(&mut self, hash: u32, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut hole = {
            let mut i = (hash as usize) & mask;
            loop {
                let s = self.slots[i];
                if s.row == VACANT {
                    return None;
                }
                if s.hash == hash && eq(s.row) {
                    break i;
                }
                i = (i + 1) & mask;
            }
        };
        let removed = self.slots[hole].row;
        let mut j = (hole + 1) & mask;
        loop {
            let s = self.slots[j];
            if s.row == VACANT {
                break;
            }
            // `s` may fill the hole iff the hole lies cyclically within
            // [home, j) — i.e. vacating slot j does not strand `s` past
            // a gap in its own probe chain.
            let home = (s.hash as usize) & mask;
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.slots[hole] = Slot { hash: 0, row: VACANT };
        self.len -= 1;
        Some(removed)
    }

    /// Fill a vacant slot returned by [`RowTable::probe`].
    fn occupy(&mut self, slot: usize, hash: u32, row: u32) {
        debug_assert_eq!(self.slots[slot].row, VACANT);
        self.slots[slot] = Slot { hash, row };
        self.len += 1;
        self.debug_check_ceiling();
    }

    /// Grow so that `rows` entries fit under [`within_ceiling`] without
    /// any further growth — callers that insert a whole batch hoist the
    /// capacity check out of the per-tuple loop this way.
    fn reserve_rows(&mut self, rows: usize) {
        let needed = slots_for(rows);
        if needed > self.slots.len() {
            self.grow_to(needed);
        }
    }

    /// Resize to `cap` slots (a power of two), repositioning entries by
    /// their stored hashes — no tuple access needed.
    fn grow_to(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap > self.slots.len());
        let old = std::mem::replace(
            &mut self.slots,
            vec![Slot { hash: 0, row: VACANT }; cap].into_boxed_slice(),
        );
        let mask = cap - 1;
        for s in old.iter().filter(|s| s.row != VACANT) {
            let mut i = (s.hash as usize) & mask;
            while self.slots[i].row != VACANT {
                i = (i + 1) & mask;
            }
            self.slots[i] = *s;
        }
        self.debug_check_ceiling();
    }

    /// Debug builds: the table is within [`within_ceiling`], so a quarter
    /// of its slots are vacant and every probe loop ends.
    fn debug_check_ceiling(&self) {
        debug_assert!(
            within_ceiling(self.len, self.slots.len()),
            "dedup table past its load ceiling: {} rows in {} slots",
            self.len,
            self.slots.len()
        );
    }
}

/// The dedup table's load ceiling: `rows` entries fit in `slots` slots
/// iff `rows ≤ ¾ · slots`. Linear probing's chains lengthen with the
/// load α (a miss walks ~½(1 + 1/(1-α)²) slots); measured over whole
/// closure runs at W = 2, slots visited per dedup probe average 1.9–2.5
/// at a ⅝ ceiling, 2.4–3.6 at ¾ and 4.0–6.7 at ⅞ (EXPERIMENTS.md P28).
/// ¾ lets a table hold a fifth more rows before it doubles, for about one
/// more slot per probe; ⅞ saved no further memory on the closure cells.
#[inline]
fn within_ceiling(rows: usize, slots: usize) -> bool {
    rows * 4 <= slots * 3
}

/// The smallest slot count (a power of two, at least 16) holding `rows`
/// entries within [`within_ceiling`].
fn slots_for(rows: usize) -> usize {
    let mut slots = 16;
    while !within_ceiling(rows, slots) {
        slots *= 2;
    }
    slots
}

/// True unless bit `row` of the tombstone bitmap `dead` is set.
#[inline]
fn live(dead: &[u64], row: usize) -> bool {
    dead.get(row / 64).is_none_or(|word| word & (1u64 << (row % 64)) == 0)
}

/// The typed error of a union across arities.
fn arity_mismatch(a: usize, b: usize) -> Error {
    Error::Storage(format!("arity mismatch in union: {a} vs {b}"))
}

/// Row ids are `u32`s below [`VACANT`]: an arena of `rows` rows must fit.
fn check_row_ids(rows: usize) -> Result<()> {
    if rows >= VACANT as usize {
        return Err(Error::Storage(format!("{rows} rows exceed the u32 row-id space")));
    }
    Ok(())
}

/// A set of tuples of a fixed arity, stored once in insertion order.
///
/// Inserts are idempotent (set semantics) and report whether the tuple
/// was new — the signal semi-naive evaluation and duplicate-elimination
/// on receive (paper §3, step 4) are built on. Because rows only append,
/// the row count doubles as a monotone `generation` stamp that index
/// caches use both to detect staleness and to know exactly which row
/// range they still have to ingest.
#[derive(Debug, Clone)]
pub struct Relation {
    arity: usize,
    rows: Vec<Tuple>,
    /// The dedup table: set at construction and kept in step by every
    /// insert and delete. Only [`Relation::append_disjoint`] unsets it; the
    /// first probe or mutation after that rebuilds it from the arena, once
    /// (through `&self` too, hence the `OnceLock`: a relation stays `Sync`).
    table: OnceLock<RowTable>,
    /// Tombstone bitmap over arena rows: bit set ⇒ row is dead. Bits
    /// past the vector's end are implicitly live, so appends never have
    /// to grow it — the (overwhelmingly common) delete-free relation
    /// carries an empty `Vec` and pays nothing.
    dead: Vec<u64>,
    /// Number of set bits in `dead` (so `live_len` is O(1)).
    dead_count: usize,
}

impl Relation {
    /// Create an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            rows: Vec::new(),
            table: OnceLock::from(RowTable::default()),
            dead: Vec::new(),
            dead_count: 0,
        }
    }

    /// A relation over `rows`, pairwise distinct and of arity `arity` —
    /// the caller's word, checked in debug builds. No row is hashed: as
    /// after [`Relation::append_disjoint`], whoever first probes or mutates
    /// the relation builds its dedup table, once.
    ///
    /// # Errors
    /// An arena outgrowing the `u32` row-id space.
    pub fn from_distinct(arity: usize, rows: Vec<Tuple>) -> Result<Self> {
        check_row_ids(rows.len())?;
        debug_assert!(rows.iter().all(|t| t.arity() == arity), "from_distinct: a row of another arity");
        debug_assert_eq!(rows.iter().collect::<gst_common::FxHashSet<_>>().len(), rows.len(), "from_distinct: a row repeats");
        Ok(Relation { arity, rows, table: OnceLock::new(), dead: Vec::new(), dead_count: 0 })
    }

    /// Create an empty relation with room for `capacity` tuples.
    pub fn with_capacity(arity: usize, capacity: usize) -> Self {
        Relation {
            arity,
            rows: Vec::with_capacity(capacity),
            table: OnceLock::from(RowTable::with_capacity(capacity)),
            dead: Vec::new(),
            dead_count: 0,
        }
    }

    /// The arity every tuple must have.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of **arena rows**, dead rows included. This is the bound
    /// for row ids, delta watermarks and index ranges; use
    /// [`Relation::live_len`] for the set cardinality.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Number of live tuples (arena rows minus tombstones).
    pub fn live_len(&self) -> usize {
        self.rows.len() - self.dead_count
    }

    /// Number of tombstoned rows.
    pub fn dead_count(&self) -> usize {
        self.dead_count
    }

    /// True when the relation holds no live tuples.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// True unless `row` has been tombstoned by [`Relation::delete`].
    /// Rows past the bitmap's end are live by construction.
    #[inline]
    pub fn is_live(&self, row: u32) -> bool {
        live(&self.dead, row as usize)
    }

    /// The dedup table for a probe, rebuilt first (once, whoever asks) if
    /// [`Relation::append_disjoint`] discarded it.
    fn table(&self) -> &RowTable {
        self.table.get_or_init(|| RowTable::of_rows(&self.rows, &self.dead))
    }

    /// … and for a mutation. Takes the fields, not `self`, so the caller
    /// may go on reading and pushing `rows`.
    fn table_mut<'a>(table: &'a mut OnceLock<RowTable>, rows: &[Tuple], dead: &[u64]) -> &'a mut RowTable {
        table.get_or_init(|| RowTable::of_rows(rows, dead));
        table.get_mut().expect("initialised above")
    }

    /// Monotone stamp bumped on every successful insert.
    ///
    /// Equal to the row count: rows are append-only, so "how many rows"
    /// and "how often did this change" are the same number, and an index
    /// stamped `built_at = g` knows rows `g..` are the ones it missed.
    ///
    /// Tombstoning a row does **not** bump the generation — the arena is
    /// unchanged. A reader that caches row ids across deletions must
    /// re-check [`Relation::is_live`] (the plan executor does); within
    /// one evaluation run no deletions occur, so fixpoint hot paths
    /// never pay that check's slow path.
    pub fn generation(&self) -> u64 {
        self.rows.len() as u64
    }

    /// The row arena in insertion order. Row ids index into this slice.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// The tuple stored at `row`.
    pub fn row(&self, row: u32) -> &Tuple {
        &self.rows[row as usize]
    }

    /// Insert a tuple; returns `true` if it was not already present.
    ///
    /// # Errors
    /// Arity mismatches are storage errors, not panics: they indicate a
    /// malformed program or corrupted channel message.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        if tuple.arity() != self.arity {
            return Err(Error::Storage(format!(
                "arity mismatch: relation has arity {}, tuple has {}",
                self.arity,
                tuple.arity()
            )));
        }
        Ok(self.insert_unchecked(tuple))
    }

    /// Insert without arity checking; used on hot paths where the caller
    /// constructed the tuple against this relation's schema.
    pub fn insert_unchecked(&mut self, tuple: Tuple) -> bool {
        debug_assert_eq!(tuple.arity(), self.arity);
        let hash = fold(hash_one(&tuple));
        let table = Self::table_mut(&mut self.table, &self.rows, &self.dead);
        // Grow *before* probing so the vacant slot the probe lands on is
        // still the right insert position afterwards.
        table.reserve_one();
        let rows = &self.rows;
        match table.probe(hash, |r| rows[r as usize] == tuple) {
            Ok(_) => false,
            Err(slot) => {
                let row = self.rows.len() as u32;
                debug_assert!(row < VACANT, "relation exceeds u32 row-id space");
                self.rows.push(tuple);
                table.occupy(slot, hash, row);
                true
            }
        }
    }

    /// Drain `pending` into the relation, returning how many tuples were
    /// new. Semantically `for t in pending.drain(..) { insert_unchecked(t) }`,
    /// but organized for the dedup-heavy bulk case that semi-naive
    /// `advance` hits every round: hashes are computed in one sequential
    /// pass, the table grows at most once up front (so bucket positions
    /// are stable for the whole batch), and each probe's bucket line is
    /// prefetched a few tuples ahead, overlapping the cache misses that
    /// dominate per-insert cost.
    pub fn insert_batch(&mut self, pending: &mut Vec<Tuple>) -> u64 {
        const LOOKAHEAD: usize = 8;
        if pending.is_empty() {
            return 0;
        }
        let before = self.rows.len();
        let table = Self::table_mut(&mut self.table, &self.rows, &self.dead);
        table.reserve_rows(before + pending.len());
        let mut hashes: Vec<u32> = Vec::with_capacity(pending.len());
        hashes.extend(pending.iter().map(|t| fold(hash_one(t))));
        for (i, t) in pending.drain(..).enumerate() {
            debug_assert_eq!(t.arity(), self.arity);
            if let Some(&ahead) = hashes.get(i + LOOKAHEAD) {
                table.touch(ahead);
            }
            let hash = hashes[i];
            let rows = &self.rows;
            if let Err(slot) = table.probe(hash, |r| rows[r as usize] == t) {
                let row = self.rows.len() as u32;
                debug_assert!(row < VACANT, "relation exceeds u32 row-id space");
                self.rows.push(t);
                table.occupy(slot, hash, row);
            }
        }
        (self.rows.len() - before) as u64
    }

    /// Insert `rows`, returning how many were new: what
    /// [`Relation::insert_batch`] of them does, arena order included — the
    /// first occurrence of each row stays, in the order given. An empty
    /// relation takes `rows` itself as its arena and removes the repeats in
    /// place, probing each row once against the rows kept before it in a
    /// table sized once for all of them, so no row is copied to a second
    /// vector.
    pub fn insert_owned(&mut self, mut rows: Vec<Tuple>) -> u64 {
        if !self.rows.is_empty() {
            return self.insert_batch(&mut rows);
        }
        if rows.is_empty() {
            return 0;
        }
        debug_assert!(rows.len() < VACANT as usize, "relation exceeds u32 row-id space");
        let mut table = RowTable::with_capacity(rows.len());
        let mut kept = 0;
        for next in 0..rows.len() {
            debug_assert_eq!(rows[next].arity(), self.arity);
            let hash = fold(hash_one(&rows[next]));
            if let Err(slot) = table.probe(hash, |r| rows[r as usize] == rows[next]) {
                rows.swap(kept, next);
                table.occupy(slot, hash, kept as u32);
                kept += 1;
            }
        }
        rows.truncate(kept);
        self.rows = rows;
        self.table = OnceLock::from(table);
        kept as u64
    }

    /// Tombstone a tuple: remove it from the dedup table and mark its
    /// arena row dead. Returns `true` if the tuple was live. The arena
    /// is untouched — row ids and the generation stamp are unaffected —
    /// but the tuple no longer satisfies [`Relation::contains`], is
    /// skipped by [`Relation::iter`] and scans, and a subsequent insert
    /// of the same tuple appends a **fresh** arena row (fresh
    /// generation), which is what lets delta watermarks treat a
    /// re-inserted tuple as new.
    pub fn delete(&mut self, tuple: &Tuple) -> bool {
        if tuple.arity() != self.arity {
            return false;
        }
        let rows = &self.rows;
        let hash = fold(hash_one(tuple));
        let table = Self::table_mut(&mut self.table, rows, &self.dead);
        match table.remove(hash, |r| &rows[r as usize] == tuple) {
            Some(row) => {
                let word = row as usize / 64;
                if word >= self.dead.len() {
                    self.dead.resize(word + 1, 0);
                }
                debug_assert_eq!(self.dead[word] & (1u64 << (row % 64)), 0);
                self.dead[word] |= 1u64 << (row % 64);
                self.dead_count += 1;
                true
            }
            None => false,
        }
    }

    /// Membership test (dead rows are absent: deletion removed their
    /// table entry).
    pub fn contains(&self, tuple: &Tuple) -> bool {
        let rows = &self.rows;
        self.table()
            .find(fold(hash_one(tuple)), |r| &rows[r as usize] == tuple)
            .is_some()
    }

    /// Iterate over the live tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows
            .iter()
            .enumerate()
            .filter(move |(row, _)| self.dead_count == 0 || self.is_live(*row as u32))
            .map(|(_, t)| t)
    }

    /// All live tuples, sorted — deterministic order for tests and
    /// reports.
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = if self.dead_count == 0 {
            self.rows.clone()
        } else {
            self.iter().cloned().collect()
        };
        v.sort();
        v
    }

    /// Set-equality against another relation (insertion order and dead
    /// rows ignored).
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.live_len() == other.live_len()
            && self.iter().all(|t| other.contains(t))
    }

    /// Absorb all tuples of `other`; returns how many were new.
    pub fn absorb(&mut self, other: &Relation) -> Result<usize> {
        if other.arity != self.arity {
            return Err(arity_mismatch(self.arity, other.arity));
        }
        let mut added = 0;
        for t in other.iter() {
            if self.insert_unchecked(t.clone()) {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Absorb all tuples of `other`, consuming it; returns how many were
    /// new. The moved-from arena feeds [`Relation::insert_batch`], so
    /// final pooling of worker results pays no per-tuple clone and gets
    /// the pipelined dedup probe.
    ///
    /// # Errors
    /// Arity mismatch, as for [`Relation::absorb`].
    pub fn absorb_owned(&mut self, other: Relation) -> Result<usize> {
        if other.arity != self.arity {
            return Err(arity_mismatch(self.arity, other.arity));
        }
        let mut rows = if other.dead_count == 0 {
            other.rows
        } else {
            // Dead rows must not be resurrected by the union.
            let dead = &other.dead;
            other.rows.into_iter().enumerate().filter(|&(row, _)| live(dead, row)).map(|(_, t)| t).collect()
        };
        Ok(self.insert_batch(&mut rows) as usize)
    }

    /// Append the rows of `other`, none of which `self` holds — the
    /// caller's word, checked in debug builds (final pooling of a hash
    /// partition: every row has one home). Both dedup tables are
    /// *discarded* before the arena grows, by exactly `other`'s rows: no
    /// row is hashed or probed, no table is alive during the copy, and
    /// whoever first probes or mutates the relation rebuilds it, once.
    /// Returns how many rows were appended. A shard carrying tombstones
    /// goes through [`Relation::absorb_owned`] instead.
    ///
    /// # Errors
    /// Arity mismatch, or an arena outgrowing the `u32` row-id space.
    pub fn append_disjoint(&mut self, other: Relation) -> Result<usize> {
        if other.dead_count != 0 {
            return self.absorb_owned(other);
        }
        if other.arity != self.arity {
            return Err(arity_mismatch(self.arity, other.arity));
        }
        check_row_ids(self.rows.len() + other.rows.len())?;
        debug_assert!(other.rows.iter().all(|t| !self.contains(t)), "append_disjoint: a row is already present");
        let Relation { rows, table, .. } = other;
        let added = rows.len();
        drop(table);
        self.table = OnceLock::new();
        self.rows.reserve_exact(added);
        self.rows.extend(rows);
        Ok(added)
    }

    /// Render the relation as sorted, one-tuple-per-line text.
    pub fn display(&self, interner: &Interner) -> String {
        self.sorted()
            .iter()
            .map(|t| t.display(interner))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl FromIterator<Tuple> for Relation {
    /// Collect tuples into a relation; arity is taken from the first
    /// tuple (or 0 when empty) and later mismatches panic — use
    /// [`Relation::insert`] when the input is untrusted.
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut it = iter.into_iter().peekable();
        let arity = it.peek().map(|t| t.arity()).unwrap_or(0);
        let mut rel = Relation::new(arity);
        for t in it {
            assert_eq!(t.arity(), arity, "mixed arity in FromIterator<Tuple>");
            rel.insert_unchecked(t);
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::ituple;

    #[test]
    fn insert_reports_freshness() {
        let mut r = Relation::new(2);
        assert!(r.insert(ituple![1, 2]).unwrap());
        assert!(!r.insert(ituple![1, 2]).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn arity_mismatch_is_error() {
        let mut r = Relation::new(2);
        assert!(r.insert(ituple![1]).is_err());
        assert!(r.insert(ituple![1, 2, 3]).is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn generation_bumps_only_on_fresh_insert() {
        let mut r = Relation::new(1);
        assert_eq!(r.generation(), 0);
        r.insert(ituple![1]).unwrap();
        assert_eq!(r.generation(), 1);
        r.insert(ituple![1]).unwrap();
        assert_eq!(r.generation(), 1);
        r.insert(ituple![2]).unwrap();
        assert_eq!(r.generation(), 2);
    }

    #[test]
    fn rows_preserve_insertion_order() {
        let mut r = Relation::new(2);
        for (a, b) in [(3, 1), (1, 2), (3, 1), (2, 9)] {
            r.insert(ituple![a, b]).unwrap();
        }
        assert_eq!(r.rows(), &[ituple![3, 1], ituple![1, 2], ituple![2, 9]]);
        assert_eq!(r.row(1), &ituple![1, 2]);
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut r = Relation::new(2);
        for (a, b) in [(3, 1), (1, 2), (2, 9), (1, 1)] {
            r.insert(ituple![a, b]).unwrap();
        }
        assert_eq!(
            r.sorted(),
            vec![ituple![1, 1], ituple![1, 2], ituple![2, 9], ituple![3, 1]]
        );
    }

    #[test]
    fn set_eq_ignores_insertion_order() {
        let a: Relation = [ituple![1, 2], ituple![3, 4]].into_iter().collect();
        let b: Relation = [ituple![3, 4], ituple![1, 2]].into_iter().collect();
        assert!(a.set_eq(&b));
        let c: Relation = [ituple![1, 2]].into_iter().collect();
        assert!(!a.set_eq(&c));
    }

    #[test]
    fn absorb_unions_and_counts() {
        let mut a: Relation = [ituple![1, 2], ituple![3, 4]].into_iter().collect();
        let b: Relation = [ituple![3, 4], ituple![5, 6]].into_iter().collect();
        assert_eq!(a.absorb(&b).unwrap(), 1);
        assert_eq!(a.len(), 3);
        let wrong = Relation::new(1);
        assert!(wrong.arity() == 1 && a.absorb(&wrong).is_err());
    }

    #[test]
    fn display_renders_sorted_lines() {
        let interner = Interner::new();
        let r: Relation = [ituple![2, 1], ituple![1, 1]].into_iter().collect();
        assert_eq!(r.display(&interner), "(1, 1)\n(2, 1)");
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut r = Relation::with_capacity(2, 100);
        assert_eq!(r.arity(), 2);
        r.insert(ituple![1, 2]).unwrap();
        assert_eq!(r.len(), 1);
    }

    /// Row by row, the table fills to ¾ before it doubles: 768 rows in
    /// 1 024 slots, and row 769 doubles it.
    #[test]
    fn dedup_survives_table_growth() {
        let mut r = Relation::new(1);
        for i in 0..10_000 {
            assert!(r.insert(ituple![i]).unwrap());
            match i {
                767 => assert_eq!((r.table().len, r.table().slots.len()), (768, 1_024)),
                768 => assert_eq!((r.table().len, r.table().slots.len()), (769, 2_048)),
                _ => {}
            }
        }
        for i in 0..10_000 {
            assert!(!r.insert(ituple![i]).unwrap());
            assert!(r.contains(&ituple![i]));
        }
        assert!(!r.contains(&ituple![10_000]));
        assert_eq!(r.len(), 10_000);
    }

    /// A stream inserted part by part sizes the dedup table for the rows
    /// it keeps, plus one batch (a batch reserves as if every row in it
    /// were fresh): 72 000 rows, two thirds of them duplicates, in batches
    /// of 4 096 end at `slots_for(24 000 + 4 096)` = 65 536 slots; one
    /// batch of them all ends at `slots_for(72 000)` = 131 072, four times
    /// the 32 768 that the 24 000 rows kept need.
    #[test]
    fn batches_size_the_table_for_the_rows_they_keep() {
        let stream: Vec<Tuple> = (0..72_000i64).map(|k| ituple![k * 7_919 % 24_000]).collect();
        let mut parts = Relation::new(1);
        for batch in stream.chunks(4_096) {
            parts.insert_batch(&mut batch.to_vec());
        }
        let mut whole = Relation::new(1);
        whole.insert_batch(&mut stream.clone());
        assert_eq!((parts.live_len(), whole.live_len()), (24_000, 24_000));
        assert_eq!(parts.table().slots.len(), slots_for(24_000 + 4_096));
        assert_eq!(whole.table().slots.len(), slots_for(72_000));
        // The ceiling is ¾ for a batch too: 700 000 rows fit 2²⁰ slots,
        // where ⅝ took 2²¹, and ¾ · 2²⁰ = 786 432 is the last that does.
        let sizes = [0, 12, 13, 24_000, 24_000 + 4_096, 72_000, 700_000, 786_432, 786_433].map(slots_for);
        assert_eq!(sizes, [16, 16, 32, 32_768, 65_536, 131_072, 1 << 20, 1 << 20, 1 << 21]);
    }

    #[test]
    fn delete_tombstones_without_moving_rows() {
        let mut r = Relation::new(2);
        r.insert(ituple![1, 2]).unwrap();
        r.insert(ituple![3, 4]).unwrap();
        r.insert(ituple![5, 6]).unwrap();
        assert!(r.delete(&ituple![3, 4]));
        assert!(!r.delete(&ituple![3, 4]), "second delete is a no-op");
        assert!(!r.delete(&ituple![9, 9]), "absent tuple");
        assert!(!r.delete(&ituple![1]), "wrong arity");
        // Arena untouched; liveness and set views updated.
        assert_eq!(r.len(), 3);
        assert_eq!(r.live_len(), 2);
        assert_eq!(r.dead_count(), 1);
        assert_eq!(r.generation(), 3);
        assert!(r.is_live(0) && !r.is_live(1) && r.is_live(2));
        assert!(!r.contains(&ituple![3, 4]));
        assert_eq!(r.row(1), &ituple![3, 4], "dead row still addressable");
        assert_eq!(r.sorted(), vec![ituple![1, 2], ituple![5, 6]]);
        assert_eq!(r.iter().count(), 2);
    }

    #[test]
    fn reinsert_after_delete_gets_fresh_row() {
        let mut r = Relation::new(1);
        r.insert(ituple![7]).unwrap();
        assert!(r.delete(&ituple![7]));
        let g = r.generation();
        assert!(r.insert(ituple![7]).unwrap(), "re-insert is fresh");
        assert_eq!(r.generation(), g + 1, "fresh arena row, fresh generation");
        assert!(r.is_live(1) && !r.is_live(0));
        assert_eq!(r.live_len(), 1);
        // The delta suffix above the old generation holds exactly the
        // re-inserted tuple — a downstream watermark at `g` ships it.
        assert_eq!(&r.rows()[g as usize..], &[ituple![7]]);
    }

    #[test]
    fn set_eq_and_is_empty_ignore_dead_rows() {
        let mut a = Relation::new(1);
        a.insert(ituple![1]).unwrap();
        a.insert(ituple![2]).unwrap();
        a.delete(&ituple![2]);
        let b: Relation = [ituple![1]].into_iter().collect();
        assert!(a.set_eq(&b) && b.set_eq(&a));
        a.delete(&ituple![1]);
        assert!(a.is_empty());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn absorb_owned_skips_dead_rows() {
        let mut src = Relation::new(1);
        src.insert(ituple![1]).unwrap();
        src.insert(ituple![2]).unwrap();
        src.insert(ituple![3]).unwrap();
        src.delete(&ituple![2]);
        let mut dst = Relation::new(1);
        assert_eq!(dst.absorb_owned(src).unwrap(), 2);
        assert_eq!(dst.sorted(), vec![ituple![1], ituple![3]]);

        let mut src2 = Relation::new(1);
        src2.insert(ituple![4]).unwrap();
        src2.delete(&ituple![4]);
        let mut dst2 = Relation::new(1);
        dst2.insert(ituple![4]).unwrap();
        assert_eq!(dst2.absorb_owned(src2).unwrap(), 0);
        assert!(dst2.contains(&ituple![4]), "dead source row cannot delete");
    }

    /// `0..n` as unary rows, built by inserts (the eager state).
    fn upto(range: std::ops::Range<i64>) -> Relation {
        range.map(|k| ituple![k]).collect()
    }

    /// `0..4` then `4..8`, appended: the table-less state.
    fn appended() -> Relation {
        let mut r = upto(0..4);
        assert_eq!(r.append_disjoint(upto(4..8)).unwrap(), 4);
        assert!(r.table.get().is_none(), "append_disjoint discards the table");
        r
    }

    #[test]
    fn append_disjoint_extends_the_arena_in_order_and_probes_rebuild_the_table_once() {
        let (r, built) = (appended(), upto(0..8));
        assert_eq!((r.rows(), r.len(), r.live_len()), (built.rows(), 8, 8));
        assert!(r.clone().table.get().is_none(), "a clone stays table-less");
        assert!(r.contains(&ituple![6]) && !r.contains(&ituple![8]));
        let first = r.table.get().expect("the probe built it") as *const RowTable;
        assert!(r.contains(&ituple![0]) && std::ptr::eq(first, r.table.get().unwrap()), "and only once");
        assert!(appended().set_eq(&built) && built.set_eq(&appended()), "set_eq, either side table-less");
        assert!(!appended().set_eq(&upto(0..7)) && !upto(1..9).set_eq(&appended()));
    }

    #[test]
    fn mutations_after_append_disjoint_agree_with_a_relation_built_by_inserts() {
        let mut r = appended();
        assert!(!r.insert_unchecked(ituple![5]) && r.insert_unchecked(ituple![8]));
        assert_eq!(r.rows(), upto(0..9).rows());

        let mut r = appended();
        assert_eq!(r.insert_batch(&mut vec![ituple![7], ituple![9], ituple![0], ituple![9]]), 1);
        assert_eq!(r.sorted(), [upto(0..8).sorted(), vec![ituple![9]]].concat());

        let mut r = appended();
        assert!(r.delete(&ituple![6]) && !r.delete(&ituple![6]) && !r.contains(&ituple![6]));
        assert!((r.len(), r.live_len()) == (8, 7) && r.insert_unchecked(ituple![6]) && r.is_live(8));

        let (mut r, mut into) = (appended(), upto(6..10));
        assert_eq!((r.absorb(&upto(6..10)).unwrap(), into.absorb(&appended()).unwrap()), (2, 6));
        assert!(r.set_eq(&upto(0..10)) && into.set_eq(&r));
        assert_eq!(upto(6..10).absorb_owned(appended()).unwrap(), 6);

        // Appending twice, and appending to a relation holding tombstones:
        // the rebuilt table leaves the dead row out.
        let mut r = appended();
        r.delete(&ituple![1]);
        r.append_disjoint(upto(8..12)).unwrap();
        assert!(r.contains(&ituple![11]) && !r.contains(&ituple![1]) && r.insert_unchecked(ituple![1]));
        assert_eq!((r.len(), r.live_len()), (13, 12));
    }

    #[test]
    fn append_disjoint_unions_a_tombstoned_shard_and_types_its_errors() {
        let mut shard = upto(2..6);
        shard.delete(&ituple![4]);
        let mut r = upto(0..3);
        assert_eq!(r.append_disjoint(shard).unwrap(), 2, "2 is held, 4 is dead: the absorb_owned path");
        assert!(r.table.get().is_some() && r.sorted() == [upto(0..4).sorted(), vec![ituple![5]]].concat());
        let err = r.append_disjoint(Relation::new(2)).unwrap_err();
        assert!(matches!(&err, Error::Storage(m) if m.contains("arity mismatch")), "{err}");
        // Row ids stop short of the vacant-slot sentinel; one past is an error.
        assert!(check_row_ids(u32::MAX as usize - 1).is_ok());
        let err = check_row_ids(u32::MAX as usize).unwrap_err();
        assert!(matches!(&err, Error::Storage(m) if m.contains("row-id space")), "{err}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already present")]
    fn append_disjoint_checks_the_callers_word_in_debug_builds() {
        upto(0..4).append_disjoint(upto(3..6)).unwrap();
    }

    /// Tiny deterministic PRNG (xorshift64*) so the property tests below
    /// are seeded and reproducible without external crates.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move |bound| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 33) % bound
        }
    }

    /// Property: under any interleaving of insert / delete / re-insert,
    /// the relation behaves exactly like a `BTreeSet` oracle, every
    /// re-inserted tuple lands above the pre-insert watermark, the dedup
    /// table never resurrects a dead row, and the arena suffix above any
    /// watermark contains only rows appended after it (the delta-shipping
    /// invariant: dead rows are always *below* a watermark taken at
    /// delete time, so they can never enter a ship range).
    #[test]
    fn tombstone_arena_matches_set_oracle_under_random_interleaving() {
        use std::collections::BTreeSet;
        for seed in 0..40u64 {
            let mut next = rng(seed + 1);
            let mut r = Relation::new(2);
            let mut oracle: BTreeSet<Tuple> = BTreeSet::new();
            for _step in 0..400 {
                let a = next(12) as i64;
                let b = next(12) as i64;
                let t = ituple![a, b];
                match next(3) {
                    0 | 1 => {
                        let watermark = r.len();
                        let fresh = r.insert(t.clone()).unwrap();
                        assert_eq!(fresh, oracle.insert(t.clone()), "seed {seed}");
                        if fresh {
                            // Fresh tuples (first inserts AND re-inserts)
                            // appear in the arena suffix above the
                            // pre-insert watermark.
                            assert!(r.rows()[watermark..].contains(&t), "seed {seed}");
                            assert!(r.is_live((r.len() - 1) as u32));
                        } else {
                            assert_eq!(r.len(), watermark, "dup must not append");
                        }
                    }
                    _ => {
                        assert_eq!(r.delete(&t), oracle.remove(&t), "seed {seed}");
                        assert!(!r.contains(&t));
                    }
                }
                assert_eq!(r.live_len(), oracle.len(), "seed {seed}");
                assert_eq!(r.len(), r.live_len() + r.dead_count(), "seed {seed}");
            }
            // Final views agree with the oracle.
            let expect: Vec<Tuple> = oracle.iter().cloned().collect();
            assert_eq!(r.sorted(), expect, "seed {seed}");
            for t in &expect {
                assert!(r.contains(t), "seed {seed}");
            }
            // Every live row is in the table exactly once (via contains),
            // every dead row is absent, and liveness partitions the arena.
            let live_rows = (0..r.len() as u32).filter(|&row| r.is_live(row)).count();
            assert_eq!(live_rows, r.live_len(), "seed {seed}");
        }
    }

    /// Property: posting lists built over a tombstoned arena contain
    /// only live rows, and dedup probing stays correct after heavy
    /// backward-shift churn concentrated in few buckets (stress for the
    /// chain-compaction path in `RowTable::remove`) — with 512 keys in
    /// 1 024 slots, and with 760, just under the ¾ ceiling, where the
    /// chains that deletion compacts are longest.
    #[test]
    fn dedup_table_survives_backward_shift_churn() {
        for keys in [512u64, 760] {
            for seed in 0..10u64 {
                let mut next = rng(seed ^ 0xDEAD);
                let mut r = Relation::new(1);
                // Load up, then delete-and-reinsert in waves so probe chains
                // repeatedly form, break, and compact.
                for i in 0..keys as i64 {
                    r.insert(ituple![i]).unwrap();
                }
                assert_eq!(r.table().slots.len(), 1_024, "keys {keys}");
                for _wave in 0..6 {
                    for _ in 0..200 {
                        let v = next(keys) as i64;
                        r.delete(&ituple![v]);
                    }
                    for _ in 0..200 {
                        let v = next(keys) as i64;
                        r.insert(ituple![v]).unwrap();
                    }
                    // The table and the bitmap must agree exactly.
                    for v in 0..keys as i64 {
                        let t = ituple![v];
                        let live_somewhere = (0..r.len() as u32)
                            .any(|row| r.is_live(row) && r.row(row) == &t);
                        assert_eq!(r.contains(&t), live_somewhere, "keys {keys} seed {seed} v {v}");
                    }
                }
                assert_eq!(r.table().slots.len(), 1_024, "churn never grows the table: keys {keys}");
            }
        }
    }
}
