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
//! a column's untagged word and its is-`Sym` bit ([`Value::word`]),
//! selections compare such pairs, a probe key is gathered on the stack
//! and hashed as words, and a head of arity ≤ 3 is assembled from its
//! parts. A [`Value`] is rebuilt only for an opaque constraint's
//! arguments and for the columns of a wider (heap) head.

use std::sync::{Arc, Condvar, Mutex};

use gst_common::tuple::INLINE_CAP;
use gst_common::{Tuple, Value};
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

/// Configuration of the morsel-parallel executor (ROADMAP item 4b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselConfig {
    /// Scoped worker threads to fan morsels across; `1` disables the
    /// parallel path entirely.
    pub threads: usize,
    /// Rows per morsel.
    pub chunk_rows: usize,
    /// Minimum leading-scan row count before chunking engages — below
    /// this, thread spawn overhead beats the parallelism.
    pub min_rows: usize,
}

impl Default for MorselConfig {
    fn default() -> Self {
        MorselConfig {
            threads: 1,
            chunk_rows: 256,
            min_rows: 512,
        }
    }
}

impl MorselConfig {
    /// The default thresholds with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        MorselConfig {
            threads: threads.max(1),
            ..MorselConfig::default()
        }
    }

    /// Whether the parallel path can ever engage.
    pub fn enabled(&self) -> bool {
        self.threads > 1
    }
}

/// A persistent pool of parked helper threads for the morsel executor.
///
/// Spawning OS threads per `run_plan_morsels` call (`thread::scope`)
/// costs on the order of 100µs per round — more than the join work of a
/// typical medium delta, which made `--morsels` a net loss on every
/// workload small enough to finish in milliseconds. The pool spawns its
/// helpers once per engine lifetime; between jobs they park on a condvar,
/// so an engaged morsel run pays only a mutex handoff.
///
/// The job is published as a type-erased pointer to the caller's borrowed
/// closure. [`MorselPool::run`] does not return until every helper has
/// finished the job, so the borrow outlives all uses — the same guarantee
/// `thread::scope` provides, enforced here by the `active` counter.
pub struct MorselPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals helpers: a new generation was published (or `quit`).
    start: Condvar,
    /// Signals the caller: a helper finished (active decremented).
    done: Condvar,
}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per published job so a helper never runs the same job
    /// twice and never misses one (condvar wakeups are advisory).
    generation: u64,
    /// Helpers still working on the current generation.
    active: usize,
    /// A helper caught a panic in the job; reported to the caller.
    poisoned: bool,
    quit: bool,
}

/// Type-erased pointer to the caller's borrowed job closure. Only
/// dereferenced by helpers between publication and the `active == 0`
/// handshake, during which [`MorselPool::run`] keeps the referent alive
/// by blocking.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (required by `run`'s signature) and its
// lifetime spans every dereference (see `Job` docs), so sharing the
// pointer with helper threads is sound.
unsafe impl Send for Job {}

impl MorselPool {
    /// Pool for `threads` total participants. The caller of
    /// [`MorselPool::run`] is one of them, so `threads - 1` helper
    /// threads are spawned.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                generation: 0,
                active: 0,
                poisoned: false,
                quit: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("morsel".into())
                    .spawn(move || helper_loop(&shared))
                    .expect("spawn morsel helper")
            })
            .collect();
        MorselPool { shared, handles }
    }

    /// Helper threads parked in this pool.
    pub fn helpers(&self) -> usize {
        self.handles.len()
    }

    /// Total participants (helpers plus the calling thread).
    pub fn participants(&self) -> usize {
        self.handles.len() + 1
    }

    /// Run `f` once on the calling thread and once on every helper,
    /// returning after all of them have finished. `f` is expected to
    /// claim work items from shared state (e.g. an atomic counter) so
    /// the participants cooperate rather than duplicate.
    ///
    /// # Panics
    /// Propagates (as a fresh panic) any panic a helper caught while
    /// running `f`, mirroring `thread::scope`'s join behavior.
    pub fn run(&self, f: &(dyn Fn() + Sync)) {
        if self.handles.is_empty() {
            f();
            return;
        }
        // Erase the borrow: `Job`'s safety contract is discharged by the
        // `active == 0` wait below, which keeps `f` alive past the last
        // helper dereference.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(f)
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert!(st.job.is_none() && st.active == 0, "pool re-entered");
            st.job = Some(job);
            st.generation += 1;
            st.active = self.handles.len();
        }
        self.shared.start.notify_all();
        f(); // the caller is a participant, not just a coordinator
        let mut st = self.shared.state.lock().unwrap();
        while st.active > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
        if st.poisoned {
            st.poisoned = false;
            drop(st);
            panic!("morsel helper panicked");
        }
    }
}

impl Drop for MorselPool {
    fn drop(&mut self) {
        if let Ok(mut st) = self.shared.state.lock() {
            st.quit = true;
        }
        self.shared.start.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn helper_loop(shared: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.quit {
                    return;
                }
                if st.generation != seen {
                    // A new generation implies a live job: `run` clears
                    // `job` only after every helper decremented `active`,
                    // which this helper has not yet done.
                    seen = st.generation;
                    break st.job.expect("published generation carries a job");
                }
                st = shared.start.wait(st).unwrap();
            }
        };
        // SAFETY: `run` blocks until `active == 0`, so the closure behind
        // the pointer is alive for the duration of this call.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            (*job.0)()
        }));
        let mut st = shared.state.lock().unwrap();
        st.active -= 1;
        if outcome.is_err() {
            st.poisoned = true;
        }
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// Run `plan` with its leading scan chunked into fixed-size morsels fanned
/// across `pool` (or a one-shot scoped spawn when no pool is supplied), or
/// return `None` when the plan's shape does not admit chunking (no leading
/// arena scan, or one smaller than `cfg.min_rows`) — the caller then falls
/// back to [`run_plan`].
///
/// Determinism argument: the leading access iterates arena rows
/// `[start, end)` in row order, and every deeper step is a pure function
/// of the outer row, so the sequence of emissions under row `r` is
/// independent of what other rows emitted. Chunking `[start, end)` into
/// consecutive ranges and concatenating the per-chunk emission buffers in
/// chunk order therefore reproduces the sequential emission order
/// *bit-identically* — same tuples, same order, same firing count — which
/// keeps downstream arena insertion order, dedup tables, and semi-naive
/// deltas byte-equal to the single-threaded path. Returns
/// `(firings, morsels_executed)`.
pub fn run_plan_morsels(
    plan: &RulePlan,
    accesses: &[Option<Access<'_>>],
    cfg: &MorselConfig,
    pool: Option<&MorselPool>,
    emit: &mut impl FnMut(Tuple),
) -> Option<(u64, u64)> {
    run_plan_morsels_profiled(plan, accesses, cfg, pool, None, emit)
}

/// [`run_plan_morsels`] with per-chunk service-time collection. When
/// `chunk_times` is supplied, each executed chunk appends one
/// `(wall_micros, tuples_emitted)` pair, in chunk order — the profiler
/// records whichever component matches its time mode (micros under wall
/// clocks, the deterministic tuple count under virtual ticks). Timing is
/// only measured when the collector is present, so the unprofiled path
/// pays nothing.
pub fn run_plan_morsels_profiled(
    plan: &RulePlan,
    accesses: &[Option<Access<'_>>],
    cfg: &MorselConfig,
    pool: Option<&MorselPool>,
    chunk_times: Option<&mut Vec<(u64, u64)>>,
    emit: &mut impl FnMut(Tuple),
) -> Option<(u64, u64)> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    if !cfg.enabled() {
        return None;
    }
    if !matches!(plan.steps.first(), Some(PlanStep::Scan(_))) {
        return None;
    }
    let Some(Access::Scan { rel, start, end }) = accesses[0] else {
        return None;
    };
    let rows = end.saturating_sub(start) as usize;
    if rows < cfg.min_rows.max(2) {
        return None;
    }
    let chunk = (cfg.chunk_rows.max(1)) as u32;
    let nchunks = rows.div_ceil(chunk as usize);
    if nchunks < 2 {
        return None;
    }
    let threads = cfg.threads.min(nchunks);

    let timed = chunk_times.is_some();
    let next = AtomicUsize::new(0);
    #[allow(clippy::type_complexity)]
    let results: Mutex<Vec<(usize, u64, u64, Vec<Tuple>)>> =
        Mutex::new(Vec::with_capacity(nchunks));
    let work = || {
        let mut local: Vec<(usize, u64, u64, Vec<Tuple>)> = Vec::new();
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= nchunks {
                break;
            }
            let lo = start + (c as u32) * chunk;
            let hi = (lo + chunk).min(end);
            let mut sub = accesses.to_vec();
            sub[0] = Some(Access::Scan {
                rel,
                start: lo,
                end: hi,
            });
            let mut tuples = Vec::new();
            let t0 = timed.then(std::time::Instant::now);
            let firings = run_plan(plan, &sub, &mut |t| tuples.push(t));
            let micros = t0.map_or(0, |t| t.elapsed().as_micros() as u64);
            local.push((c, firings, micros, tuples));
        }
        if !local.is_empty() {
            results.lock().unwrap().append(&mut local);
        }
    };
    match pool {
        Some(pool) if pool.helpers() > 0 => pool.run(&work),
        _ => std::thread::scope(|s| {
            let work = &work;
            let handles: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
            work();
            for h in handles {
                h.join().expect("morsel worker panicked");
            }
        }),
    }
    // Chunk-order concatenation = sequential row order (see above).
    let mut per_chunk = results.into_inner().unwrap();
    per_chunk.sort_unstable_by_key(|&(c, _, _, _)| c);
    let mut firings = 0u64;
    let mut collector = chunk_times;
    for (_, f, micros, tuples) in per_chunk {
        firings += f;
        if let Some(times) = collector.as_deref_mut() {
            times.push((micros, tuples.len() as u64));
        }
        for t in tuples {
            emit(t);
        }
    }
    Some((firings, nchunks as u64))
}

/// A bound value as the join holds it: [`Value::word`]'s pair.
type Word = (u64, bool);

/// Probe keys and filter arguments up to this long are gathered on the
/// stack.
const STACK_KEY: usize = 4;

/// `f` on the items `item(0..n)`: in a stack buffer (of `zero`s) when they
/// fit — this runs once per candidate, and a heap buffer would cost more
/// than the probe it keys — and in a `Vec` otherwise.
#[inline]
fn gather<T: Copy, R>(n: usize, zero: T, item: impl Fn(usize) -> T, f: impl FnOnce(&[T]) -> R) -> R {
    let mut stack = [zero; STACK_KEY];
    match stack.get_mut(..n) {
        Some(buf) => {
            buf.iter_mut().enumerate().for_each(|(k, slot)| *slot = item(k));
            f(buf)
        }
        None => f(&(0..n).map(item).collect::<Vec<T>>()),
    }
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
                // An opaque constraint reads `Value`s: rebuild its arguments.
                let value = |k: usize| {
                    let (word, sym) = self.slots[slots[k]];
                    Value::from_word(word, sym)
                };
                if gather(slots.len(), Value::Int(0), value, |bound| constraint.holds(bound)) {
                    self.step(step_index + 1);
                }
            }
            PlanStep::Scan(scan) => {
                let access = self.accesses[step_index].expect("scan step must have a prepared access");
                match access {
                    Access::Empty => {}
                    Access::Probe { index, rel, start, end } => {
                        let sources = &scan.probe_values;
                        let mut postings =
                            gather(sources.len(), (0, false), |k| self.resolve(&sources[k]), |key| index.probe_words(rel, key));
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
    fn morsels_match_sequential_bit_for_bit() {
        // Join large enough to split: t(X,Z) :- e(X,Y), e(Y,Z) on a chain.
        let p = parse_program("t(X,Z) :- e(X,Y), e(Y,Z).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let e: Relation = (0..500i64).map(|k| ituple![k, k + 1]).collect();
        let idx = HashIndex::build(&e, &[0]);
        let accesses = [Some(Access::scan_all(&e)), Some(Access::probe_all(&idx, &e))];
        let mut seq = Vec::new();
        let seq_firings = run_plan(&plan, &accesses, &mut |t| seq.push(t));
        for (threads, chunk) in [(2, 1), (3, 7), (4, 64), (2, 4096)] {
            let cfg = MorselConfig {
                threads,
                chunk_rows: chunk,
                min_rows: 2,
            };
            // Both fan-out mechanisms — one-shot scoped spawn and the
            // persistent pool, reused across geometries — must agree.
            let pool = MorselPool::new(threads);
            for pool in [None, Some(&pool)] {
                let mut par = Vec::new();
                match run_plan_morsels(&plan, &accesses, &cfg, pool, &mut |t| par.push(t)) {
                    Some((firings, morsels)) => {
                        assert_eq!(firings, seq_firings, "threads={threads} chunk={chunk}");
                        assert_eq!(par, seq, "emission order must be identical");
                        assert!(morsels >= 2);
                    }
                    None => {
                        // chunk ≥ rows leaves a single morsel: fallback is
                        // the correct answer, not an error.
                        assert_eq!(chunk, 4096);
                    }
                }
            }
        }
    }

    #[test]
    fn morsels_decline_unsplittable_shapes() {
        let p = parse_program("t(Y) :- e(2, Y).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let e = edges();
        let idx = HashIndex::build(&e, &[0]);
        let cfg = MorselConfig {
            threads: 4,
            chunk_rows: 1,
            min_rows: 2,
        };
        let mut out = Vec::new();
        // Probe access at step 0: no row range to chunk.
        assert!(run_plan_morsels(
            &plan,
            &[Some(Access::probe_all(&idx, &e))],
            &cfg,
            None,
            &mut |t| out.push(t)
        )
        .is_none());
        // Disabled config never engages.
        assert!(run_plan_morsels(
            &plan,
            &[Some(Access::scan_all(&e))],
            &MorselConfig::default(),
            None,
            &mut |t| out.push(t)
        )
        .is_none());
        // Below the row threshold the sequential path wins.
        let small = MorselConfig {
            threads: 4,
            chunk_rows: 1,
            min_rows: 100,
        };
        assert!(run_plan_morsels(
            &plan,
            &[Some(Access::scan_all(&e))],
            &small,
            None,
            &mut |t| out.push(t)
        )
        .is_none());
    }

    #[test]
    fn morsel_pool_is_reusable_across_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Many back-to-back jobs through one pool: every participant must
        // run every job exactly once, and Drop must join cleanly.
        let pool = MorselPool::new(4);
        assert_eq!(pool.helpers(), 3);
        assert_eq!(pool.participants(), 4);
        let hits = AtomicUsize::new(0);
        for round in 1..=50usize {
            pool.run(&|| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 4 * round);
        }
        // A single-participant pool degenerates to a plain call.
        let solo = MorselPool::new(1);
        assert_eq!(solo.helpers(), 0);
        let ran = AtomicUsize::new(0);
        solo.run(&|| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn morsels_respect_tombstones() {
        let p = parse_program("t(X,Y) :- e(X,Y).").unwrap().program;
        let plan = compile_rule(&p.rules[0], 0, &|_| false, None).unwrap();
        let mut e: Relation = (0..300i64).map(|k| ituple![k, k + 1]).collect();
        for k in (0..300i64).step_by(3) {
            e.delete(&ituple![k, k + 1]);
        }
        let accesses = [Some(Access::scan_all(&e))];
        let mut seq = Vec::new();
        let seq_firings = run_plan(&plan, &accesses, &mut |t| seq.push(t));
        let cfg = MorselConfig {
            threads: 3,
            chunk_rows: 16,
            min_rows: 2,
        };
        let mut par = Vec::new();
        let pool = MorselPool::new(cfg.threads);
        let (firings, _) =
            run_plan_morsels(&plan, &accesses, &cfg, Some(&pool), &mut |t| par.push(t)).unwrap();
        assert_eq!(firings, seq_firings);
        assert_eq!(par, seq);
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
