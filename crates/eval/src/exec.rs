//! Plan execution.
//!
//! The executor walks a [`RulePlan`]'s steps depth-first, maintaining one
//! binding slot per rule variable. Scans read a prepared [`Access`]: a
//! row range of a relation's arena, or an index probe whose postings are
//! restricted to a row range. Because a [`Relation`] is insertion-ordered
//! and append-only, the semi-naive views are all contiguous ranges of the
//! same arena — `Full` is `rows[..]`, `Old` (`T_{i-1}`) is rows below the
//! delta watermark, and the delta is the suffix above it — so no minus
//! set is materialized or probed, and one index per (relation, columns)
//! serves all three views.
//!
//! The caller prepares one `Access` per scan step (the two-phase split
//! keeps index syncing, which needs `&mut`, out of the immutable
//! execution pass) and receives every successful ground substitution via
//! the `emit` callback; the return value is the firing count that the
//! paper's non-redundancy theorems (2 and 6) are stated over.
//!
//! The join works on what a row stores (DESIGN.md §8): a binding slot is
//! a column's [`Word`] — its untagged word and its is-`Sym` bit
//! ([`Value::word`]) — selections compare such pairs, a probe key and a
//! filter's arguments are [`gather`]ed on the stack — the key hashed as
//! words, the arguments handed to [`Constraint::holds`] — and a head of
//! arity ≤ 3 is assembled from its parts. A [`Value`] is rebuilt only for
//! the columns of a wider (heap) head and by a comparison.

use gst_common::tuple::INLINE_CAP;
use gst_common::value::gather;
use gst_common::{Tuple, Value, Word};
use gst_frontend::Constraint;
use gst_storage::{postings_in_range, HashIndex, Relation};

use crate::plan::{HeadTerm, KeySource, PlanStep, RulePlan, ScanStep};

/// How a scan step reads its relation this round.
#[derive(Debug, Clone, Copy)]
pub enum Access<'a> {
    /// Iterate arena rows `[start, end)`.
    Scan {
        /// The relation whose arena is scanned.
        rel: &'a Relation,
        /// First row (inclusive).
        start: u32,
        /// One past the last row.
        end: u32,
    },
    /// Probe a hash index on exactly the step's probe columns, keeping
    /// postings whose row id falls in `[start, end)`.
    Probe {
        /// The index over `rel`'s arena.
        index: &'a HashIndex,
        /// The indexed relation (verifies keys, resolves row ids).
        rel: &'a Relation,
        /// First row (inclusive).
        start: u32,
        /// One past the last row.
        end: u32,
    },
    /// The relation holds no tuples (or does not exist yet).
    Empty,
}

impl<'a> Access<'a> {
    /// Scan every row of `rel`.
    pub fn scan_all(rel: &'a Relation) -> Self {
        Access::Scan {
            rel,
            start: 0,
            end: rel.len() as u32,
        }
    }

    /// Scan rows `[start, end)` of `rel`.
    pub fn scan_range(rel: &'a Relation, start: u32, end: u32) -> Self {
        Access::Scan { rel, start, end }
    }

    /// Probe `index` over all of `rel`.
    pub fn probe_all(index: &'a HashIndex, rel: &'a Relation) -> Self {
        Access::Probe {
            index,
            rel,
            start: 0,
            end: rel.len() as u32,
        }
    }

    /// Probe `index`, keeping rows in `[start, end)` of `rel`.
    pub fn probe_range(index: &'a HashIndex, rel: &'a Relation, start: u32, end: u32) -> Self {
        Access::Probe {
            index,
            rel,
            start,
            end,
        }
    }
}

/// Run `plan` with one prepared access per step (`None` for filter steps),
/// invoking `emit` for each successful ground substitution's head tuple.
/// Returns the number of firings.
pub fn run_plan(
    plan: &RulePlan,
    accesses: &[Option<Access<'_>>],
    emit: &mut impl FnMut(Tuple),
) -> u64 {
    debug_assert_eq!(accesses.len(), plan.steps.len());
    let mut run = Run { plan, accesses, slots: vec![(0, false); plan.slot_count], firings: 0, emit };
    run.step(0);
    run.firings
}

/// One execution of a plan: the binding slots and the firing count.
struct Run<'p, 'a, F> {
    plan: &'p RulePlan,
    accesses: &'p [Option<Access<'a>>],
    /// One word pair per rule variable.
    slots: Vec<Word>,
    firings: u64,
    emit: &'p mut F,
}

impl<'p, F: FnMut(Tuple)> Run<'p, '_, F> {
    /// `constraint` on the words bound in `slots`.
    #[inline]
    fn holds(&self, constraint: &dyn Constraint, slots: &[usize]) -> bool {
        gather(slots.len(), |k| self.slots[slots[k]], |bound| constraint.holds(bound))
    }

    #[inline]
    fn resolve(&self, src: &KeySource) -> Word {
        match *src {
            KeySource::Slot(s) => self.slots[s],
            KeySource::Const(c) => c.word(),
        }
    }

    /// On to step `step_index` — or, past the last one, fire. (Deciding
    /// here, in the caller's loop, spares a call per firing.)
    #[inline]
    fn step(&mut self, step_index: usize) {
        if step_index == self.plan.steps.len() {
            self.fire();
        } else {
            self.descend(step_index);
        }
    }

    fn descend(&mut self, step_index: usize) {
        let plan: &'p RulePlan = self.plan;
        match &plan.steps[step_index] {
            PlanStep::Filter { constraint, slots } => {
                if self.holds(constraint.as_ref(), slots) {
                    self.step(step_index + 1);
                }
            }
            PlanStep::Implied { constraint, slots } => {
                debug_assert!(self.holds(constraint.as_ref(), slots), "an implied condition fails: a row reached an inbox its key does not name");
                self.step(step_index + 1);
            }
            PlanStep::Scan(scan) => {
                let access = self.accesses[step_index].expect("scan step must have a prepared access");
                match access {
                    Access::Empty => {}
                    Access::Probe { index, rel, start, end } => {
                        let sources = &scan.probe_values;
                        let mut postings =
                            gather(sources.len(), |k| self.resolve(&sources[k]), |key| index.probe_words(rel, key));
                        // Every EDB probe reads the whole arena: nothing to slice.
                        if start != 0 || end as usize != rel.len() {
                            postings = postings_in_range(postings, start, end);
                        }
                        let has_dead = rel.dead_count() != 0;
                        for &row in postings {
                            // Rows tombstoned after the index ingested them.
                            if has_dead && !rel.is_live(row) {
                                continue;
                            }
                            self.candidate(step_index, scan, rel.row(row), false);
                        }
                    }
                    Access::Scan { rel, start, end } => {
                        if rel.dead_count() == 0 {
                            // Hot path: delete-free arena, plain slice walk.
                            for t in &rel.rows()[start as usize..end as usize] {
                                self.candidate(step_index, scan, t, true);
                            }
                        } else {
                            for row in (start..end).filter(|&row| rel.is_live(row)) {
                                self.candidate(step_index, scan, rel.row(row), true);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Test `tuple` against the step's selections, bind its fresh columns
    /// and go on to the next step.
    #[inline]
    fn candidate(&mut self, step_index: usize, scan: &ScanStep, tuple: &Tuple, check_probe: bool) {
        // Raw scans must verify probe columns that an index would have
        // guaranteed.
        let probed = |(col, src): (&usize, &KeySource)| tuple.word(*col) == self.resolve(src);
        if check_probe && !scan.probe_columns.iter().zip(&scan.probe_values).all(probed) {
            return;
        }
        if !scan.intra_checks.iter().all(|&(col, earlier)| tuple.word(col) == tuple.word(earlier)) {
            return;
        }
        for &(col, slot) in &scan.bindings {
            self.slots[slot] = tuple.word(col);
        }
        self.step(step_index + 1);
    }

    /// A successful ground substitution: count it and emit its head.
    #[inline]
    fn fire(&mut self) {
        self.firings += 1;
        let terms = &self.plan.head_terms;
        let word = |term: &HeadTerm| match *term {
            HeadTerm::Slot(s) => self.slots[s],
            HeadTerm::Const(c) => c.word(),
        };
        let head = if terms.len() <= INLINE_CAP {
            let (mut syms, mut words) = (0u8, [0u64; INLINE_CAP]);
            for (k, term) in terms.iter().enumerate() {
                let (w, sym) = word(term);
                words[k] = w;
                syms |= u8::from(sym) << k;
            }
            Tuple::from_parts(terms.len(), syms, words)
        } else {
            let value = |term| {
                let (w, sym) = word(term);
                Value::from_word(w, sym)
            };
            terms.iter().map(value).collect()
        };
        (self.emit)(head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile_rule;
    use gst_common::ituple;
    use gst_frontend::parse_program;

    fn edges() -> Relation {
        [ituple![1, 2], ituple![2, 3], ituple![3, 4], ituple![2, 5]]
            .into_iter()
            .collect()
    }

    fn collect(plan: &RulePlan, accesses: &[Option<Access<'_>>]) -> (u64, Vec<Tuple>) {
        let mut out = Vec::new();
        let n = run_plan(plan, accesses, &mut |t| out.push(t));
        out.sort();
        (n, out)
    }

    #[test]
    fn single_scan_copies_relation() {
        let p = parse_program("t(X,Y) :- e(X,Y).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let e = edges();
        let (n, out) = collect(&plan, &[Some(Access::scan_all(&e))]);
        assert_eq!(n, 4);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn two_way_join_with_index() {
        // t(X,Z) :- e(X,Y), e(Y,Z): paths of length 2.
        let p = parse_program("t(X,Z) :- e(X,Y), e(Y,Z).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let e = edges();
        let idx = HashIndex::build(&e, &[0]);
        let (n, out) = collect(
            &plan,
            &[Some(Access::scan_all(&e)), Some(Access::probe_all(&idx, &e))],
        );
        assert_eq!(n, 3); // 1→2→3, 1→2→5, 2→3→4
        assert_eq!(out, vec![ituple![1, 3], ituple![1, 5], ituple![2, 4]]);
    }

    #[test]
    fn join_without_index_matches_index_join() {
        let p = parse_program("t(X,Z) :- e(X,Y), e(Y,Z).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let e = edges();
        let idx = HashIndex::build(&e, &[0]);
        let (_, with_idx) = collect(
            &plan,
            &[Some(Access::scan_all(&e)), Some(Access::probe_all(&idx, &e))],
        );
        let (_, without) = collect(
            &plan,
            &[Some(Access::scan_all(&e)), Some(Access::scan_all(&e))],
        );
        assert_eq!(with_idx, without);
    }

    #[test]
    fn constant_probe_filters() {
        let p = parse_program("t(Y) :- e(2, Y).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let e = edges();
        let (n, out) = collect(&plan, &[Some(Access::scan_all(&e))]);
        assert_eq!(n, 2);
        assert_eq!(out, vec![ituple![3], ituple![5]]);
    }

    #[test]
    fn intra_check_selects_loops() {
        let p = parse_program("t(X) :- e(X, X).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let mut e = edges();
        e.insert(ituple![7, 7]).unwrap();
        let (n, out) = collect(&plan, &[Some(Access::scan_all(&e))]);
        assert_eq!(n, 1);
        assert_eq!(out, vec![ituple![7]]);
    }

    #[test]
    fn row_ranges_realize_old_and_delta_views() {
        // Arena order is insertion order: rows 0..2 are the "old" view,
        // rows 2..4 the "delta" — no minus set needed.
        let p = parse_program("t(X,Y) :- e(X,Y).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let e = edges(); // rows: (1,2) (2,3) (3,4) (2,5)
        let (n, out) = collect(&plan, &[Some(Access::scan_range(&e, 2, 4))]);
        assert_eq!(n, 2);
        assert_eq!(out, vec![ituple![2, 5], ituple![3, 4]]);

        // Indexed variant: probe e(2, Y) restricted to the old rows
        // finds only (2,3); the full probe also finds (2,5).
        let p2 = parse_program("t(Y) :- e(2, Y).").unwrap().program;
        let plan2 = compile_rule(&p2.rules[0], 0, &|_| false, None).unwrap();
        let idx = HashIndex::build(&e, &[0]);
        let (n_old, out_old) = collect(&plan2, &[Some(Access::probe_range(&idx, &e, 0, 2))]);
        assert_eq!(n_old, 1);
        assert_eq!(out_old, vec![ituple![3]]);
        let (n_all, _) = collect(&plan2, &[Some(Access::probe_all(&idx, &e))]);
        assert_eq!(n_all, 2);
    }

    #[test]
    fn empty_access_yields_nothing() {
        let p = parse_program("t(X,Y) :- e(X,Y).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let (n, out) = collect(&plan, &[Some(Access::Empty)]);
        assert_eq!(n, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn cartesian_product_when_no_shared_vars() {
        let p = parse_program("t(X,Y) :- a(X), b(Y).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let a: Relation = [ituple![1], ituple![2]].into_iter().collect();
        let b: Relation = [ituple![10], ituple![20], ituple![30]].into_iter().collect();
        let (n, _) = collect(
            &plan,
            &[Some(Access::scan_all(&a)), Some(Access::scan_all(&b))],
        );
        assert_eq!(n, 6);
    }

    #[test]
    fn head_constants_are_materialized() {
        let p = parse_program("t(X, 99) :- a(X).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let a: Relation = [ituple![1]].into_iter().collect();
        let (_, out) = collect(&plan, &[Some(Access::scan_all(&a))]);
        assert_eq!(out, vec![ituple![1, 99]]);
    }

    #[test]
    fn scans_and_probes_skip_tombstoned_rows() {
        let p = parse_program("t(X,Z) :- e(X,Y), e(Y,Z).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let mut e = edges();
        // Index first, then tombstone: postings still hold the dead row,
        // so both the scan arm and the probe arm must filter it.
        let idx = HashIndex::build(&e, &[0]);
        e.delete(&ituple![2, 3]);
        let (_, with_idx) = collect(
            &plan,
            &[Some(Access::scan_all(&e)), Some(Access::probe_all(&idx, &e))],
        );
        assert_eq!(with_idx, vec![ituple![1, 5]]); // 1→2→3 and 2→3→4 are gone
        let (_, without) = collect(
            &plan,
            &[Some(Access::scan_all(&e)), Some(Access::scan_all(&e))],
        );
        assert_eq!(with_idx, without);
    }

    #[test]
    fn nested_probes_keep_their_own_keys() {
        // Three-way join forces probe-inside-probe recursion; an inner
        // probe's key must not corrupt the outer probe's postings walk.
        let p = parse_program("t(X,W) :- e(X,Y), e(Y,Z), e(Z,W).")
            .unwrap()
            .program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let e = edges();
        let idx = HashIndex::build(&e, &[0]);
        let (n, out) = collect(
            &plan,
            &[
                Some(Access::scan_all(&e)),
                Some(Access::probe_all(&idx, &e)),
                Some(Access::probe_all(&idx, &e)),
            ],
        );
        assert_eq!(n, 1); // only 1→2→3→4 completes three hops
        assert_eq!(out, vec![ituple![1, 4]]);
    }
}
