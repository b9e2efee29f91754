//! Wall-clock throughput harness for the parallel runtime.
//!
//! The paper's own experiments stop at firing and tuple counts; this
//! binary measures what the ROADMAP's "as fast as the hardware allows"
//! goal is actually stated over — wall-clock fixpoint time, tuples per
//! second, per-round latency, and wire bytes shipped — across the
//! transitive-closure workload matrix:
//!
//! * graphs: chain, grid, random digraph, layered DAG, star, zipf
//!   (power-law out-degree — the skew stressor);
//! * processors: N ∈ {1, 2, 4, 8};
//! * schemes: §4 Example 1 (zero-communication), §3 Q_i (Example 3 hash
//!   partition), §4 Example 2 (broadcast); on the skewed workloads also
//!   `skew-hash` (hot keys split, §6 R_i).
//!
//! The chain/random/zipf workloads additionally run two demand-driven
//! point-query cells (DESIGN.md §15): `rl-full` computes the whole
//! closure of the right-linear TC under the Q_i hash partition, and
//! `magic-point` answers one bound-first goal over the same EDB via the
//! magic rewrite on the demand-aware partition. The `magic-point` row
//! carries a `demand_ratio` field — its firings divided by the
//! `rl-full` cell's — so the fraction of full-closure work a point
//! query pays is visible per cell.
//!
//! Every row records a `worker_firings` array (per-processor processing
//! firings in processor order) so per-cell load skew is visible in the
//! JSON, not just the aggregate.
//!
//! ```text
//! cargo run --release -p gst-bench --bin bench_throughput                  # full matrix
//! cargo run --release -p gst-bench --bin bench_throughput -- --smoke      # CI-sized subset
//! cargo run --release -p gst-bench --bin bench_throughput -- --out X.json # report path
//! cargo run --release -p gst-bench --bin bench_throughput -- \
//!     --guard BENCH_wire_guard.json                                        # wire regression guard
//! ```
//!
//! `--guard` is the CI wire-format regression check: it re-measures two
//! fixed full-size cells (grid/qi-hash/N=4 and chain/ex2-broadcast/N=4),
//! asserts oracle correctness and that every firing was a processing
//! firing (`firings == Σ worker_firings` — the sending step is a route
//! table, not rules), and fails unless `bytes_shipped` is at least 2×
//! smaller than the committed row-format reference. Each cell is measured
//! twice: on the threaded transport and over the TCP multi-process
//! transport (loopback sockets via `NetCoordinator`), so the framed wire
//! protocol is held to the same byte envelope. The reference file
//! (`BENCH_wire_guard.json`) is a frozen snapshot of the pre-columnar
//! baseline and is intentionally *not* regenerated with
//! `BENCH_throughput_baseline.json` — regenerating it would make the guard
//! compare the codec against itself. (Its `firings` column still counts
//! the sending rules the workers of that time executed, so it is a bytes
//! reference only.)
//!
//! `--batch-baseline FILE` (only with `--guard`) additionally pins the
//! guarded cells against the *current* columnar baseline: the processing
//! firings (`Σ worker_firings`) and `comm_tuples` must be bit-identical
//! and `bytes_shipped` must not regress. This is the semantics
//! fingerprint, and the update-session isolation check — incremental
//! maintenance promotes base predicates to `local_idb` only inside a
//! session, so ordinary batch compilation must produce exactly the
//! plans, firings, and wire bytes it produced before the session layer
//! existed.
//!
//! A full or `--smoke` run also fails unless every `n = 1` row fired and
//! inserted exactly what the sequential engine does on the program the
//! row runs (`firings == seq_firings`, `derived == seq_derived`): one
//! processor pays no rewrite tax in firings, and stores every tuple once.
//!
//! Every row is checked against the sequential semi-naive oracle (same
//! least model) before its timing is trusted, and the report records the
//! firing counts so a storage-engine change that silently alters
//! semantics fails loudly. Results land in `BENCH_throughput.json`.

use std::time::Instant;

use gst_bench::json::{count, num, s, Json};
use gst_bench::table::Table;
use gst_common::Value;
use gst_core::prelude::{
    compile_demand, example1_wolfson, example2_valduriez, example3_hash_partition,
    skew_aware_hash_partition, SkewPolicy,
};
use gst_core::schemes::CompiledScheme;
use gst_eval::seminaive_eval;
use gst_frontend::magic::magic_rewrite;
use gst_frontend::{Atom, LinearSirup, Term, Variable};
use gst_runtime::{RuntimeConfig, Transport};
use gst_storage::{round_robin_fragment, Relation};
use gst_workloads::{
    chain, grid, layered, linear_ancestor, random_digraph, right_linear_ancestor, star,
    zipf_digraph,
};

/// One measured configuration.
struct Row {
    workload: &'static str,
    scheme: &'static str,
    n: usize,
    /// Best-of-reps wall time of the parallel section, milliseconds.
    wall_ms: f64,
    /// Distinct tuples in the pooled answer.
    tuples: u64,
    /// `tuples / wall` — fixpoint throughput.
    tuples_per_sec: f64,
    /// Engine rounds of the slowest worker.
    rounds: u64,
    /// `wall / rounds` — mean round latency, milliseconds.
    round_ms: f64,
    /// Wire bytes shipped between distinct processors.
    bytes_shipped: u64,
    /// Tuples shipped between distinct processors.
    comm_tuples: u64,
    /// Total rule firings across workers (semantics fingerprint).
    firings: u64,
    /// Distinct tuples inserted across workers' derived relations.
    derived: u64,
    /// What the sequential engine fires and inserts on the program this
    /// row runs (filled in by [`Row::against`]).
    seq_firings: u64,
    seq_derived: u64,
    /// Processing firings per worker, in processor order — the per-cell
    /// load-skew record.
    worker_firings: Vec<u64>,
    /// Merged phase-attributed time across workers, microseconds, in
    /// `[compute, encode, decode, replay, idle]` order (all zeros when
    /// the run was not profiled, e.g. under `--guard`).
    phase_us: [u64; 5],
    /// Model equals the sequential oracle.
    correct: bool,
    /// Point-query cells only: this row's firings over the matching
    /// `rl-full` full-closure cell's firings. `None` everywhere else.
    demand_ratio: Option<f64>,
}

impl Row {
    /// This row beside the sequential run of the same program.
    fn against(self, seq: &gst_eval::EvalStats) -> Row {
        Row { seq_firings: seq.firings, seq_derived: seq.derived, ..self }
    }
}

fn measure(
    label: (&'static str, &'static str),
    n: usize,
    scheme: &CompiledScheme,
    oracle: &Relation,
    anc: (gst_common::SymbolId, usize),
    reps: usize,
    config: &RuntimeConfig,
) -> Row {
    let mut best_ms = f64::INFINITY;
    let mut kept = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let outcome = scheme.execute(config).expect("benchmark run failed");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if wall_ms < best_ms {
            best_ms = wall_ms;
            kept = Some(outcome);
        }
    }
    let outcome = kept.expect("at least one rep");
    let rounds = outcome
        .stats
        .workers
        .iter()
        .map(|w| w.eval.rounds)
        .max()
        .unwrap_or(0);
    let answer = outcome.relation(anc);
    let tuples = answer.len() as u64;
    let mut by_worker: Vec<(usize, u64)> = outcome
        .stats
        .workers
        .iter()
        .map(|w| (w.processor, w.processing_firings))
        .collect();
    by_worker.sort_by_key(|(p, _)| *p);
    let worker_firings = by_worker.into_iter().map(|(_, f)| f).collect();
    let mut phase_us = [0u64; 5];
    for w in &outcome.stats.workers {
        if let Some(p) = &w.profile {
            for (total, v) in phase_us.iter_mut().zip(p.phases.as_array()) {
                *total += v;
            }
        }
    }
    Row {
        workload: label.0,
        scheme: label.1,
        n,
        wall_ms: best_ms,
        tuples,
        tuples_per_sec: tuples as f64 / (best_ms / 1e3),
        rounds,
        round_ms: if rounds > 0 { best_ms / rounds as f64 } else { 0.0 },
        bytes_shipped: outcome.stats.total_bytes_sent(),
        comm_tuples: outcome.stats.total_tuples_sent(),
        firings: outcome.stats.total_firings(),
        derived: outcome.stats.workers.iter().map(|w| w.eval.derived).sum(),
        seq_firings: 0,
        seq_derived: 0,
        worker_firings,
        phase_us,
        correct: answer.set_eq(oracle),
        demand_ratio: None,
    }
}

/// The bound-first query constant a workload's point-query cells use,
/// if it runs any. Fixed non-hub nodes that exist at both smoke and
/// full sizes, so smoke and full reports stay comparable.
fn point_constant(workload: &str) -> Option<i64> {
    match workload {
        "chain" => Some(3),
        "random" => Some(77),
        "zipf" => Some(3),
        _ => None,
    }
}

/// Find the reference row for `(workload, scheme, n)` in a parsed
/// `bench_throughput` report.
fn baseline_row<'a>(base: &'a Json, workload: &str, scheme: &str, n: usize) -> Option<&'a Json> {
    base.get("rows")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("scheme").and_then(Json::as_str) == Some(scheme)
            && r.get("n").and_then(Json::as_num) == Some(n as f64)
    })
}

/// The `--guard` mode: measure the two fixed wire-guard cells and compare
/// them against the frozen row-format reference — plus, when
/// `batch_baseline` is given, against the current columnar baseline
/// (bit-identical firings, no byte regression). Returns the process exit
/// code (0 = guard holds).
fn run_guard(baseline_path: &str, batch_baseline: Option<&str>) -> i32 {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read guard baseline {baseline_path}: {e}"));
    let base = Json::parse(&text)
        .unwrap_or_else(|e| panic!("cannot parse guard baseline {baseline_path}: {e}"));
    let current = batch_baseline.map(|p| {
        let text = std::fs::read_to_string(p)
            .unwrap_or_else(|e| panic!("cannot read batch baseline {p}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse batch baseline {p}: {e}"))
    });

    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let anc = fx.output_id();
    let n = 4;

    // The guarded cells: one hash-partition scheme (a buffer per
    // destination) and one broadcast scheme (one buffer, multicast), both
    // at full workload size so the byte counts are load-bearing.
    let cells: Vec<(&'static str, Relation, &'static str)> = vec![
        ("grid", grid(20, 20), "qi-hash"),
        ("chain", chain(192), "ex2-broadcast"),
    ];

    let mut ok = true;
    for (wname, data, sname) in &cells {
        let db = fx.database(data);
        let oracle = seminaive_eval(&fx.program, &db).unwrap();
        let reference = oracle.relation(anc);
        let scheme = match *sname {
            "qi-hash" => example3_hash_partition(&sirup, n, &db).unwrap(),
            "ex2-broadcast" => {
                let frag = round_robin_fragment(data, n).unwrap();
                example2_valduriez(&sirup, frag, &db).unwrap()
            }
            other => panic!("unknown guard scheme {other}"),
        };
        let row = measure(
            (*wname, *sname),
            n,
            &scheme,
            &reference,
            anc,
            1,
            &RuntimeConfig::default(),
        );

        let Some(base_row) = baseline_row(&base, wname, sname, n) else {
            eprintln!("guard: {wname}/{sname}/n={n} missing from {baseline_path}");
            ok = false;
            continue;
        };
        let base_bytes = base_row
            .get("bytes_shipped")
            .and_then(Json::as_num)
            .expect("baseline row has bytes_shipped") as u64;

        let correct = row.correct;
        let shrink_ok = row.bytes_shipped * 2 <= base_bytes;
        let processing: u64 = row.worker_firings.iter().sum();
        let firings_ok = row.firings == processing;
        let ratio = base_bytes as f64 / row.bytes_shipped.max(1) as f64;
        println!(
            "guard {wname}/{sname}/n={n}: bytes {} -> {} ({ratio:.2}x), firings {} \
             (processing {processing}), correct={correct} shrink_ok={shrink_ok} \
             firings_ok={firings_ok}",
            base_bytes, row.bytes_shipped, row.firings,
        );
        if !correct {
            eprintln!("guard FAIL: {wname}/{sname}/n={n} diverged from the sequential oracle");
            ok = false;
        }
        if !shrink_ok {
            eprintln!(
                "guard FAIL: {wname}/{sname}/n={n} shipped {} bytes; \
                 needs <= {} (2x under the row-format reference {})",
                row.bytes_shipped,
                base_bytes / 2,
                base_bytes,
            );
            ok = false;
        }
        if !firings_ok {
            eprintln!(
                "guard FAIL: {wname}/{sname}/n={n} fired {} rules, {processing} of them \
                 processing rules (a sending step is being executed as rules)",
                row.firings,
            );
            ok = false;
        }

        // TCP-loopback pass: the same cell through the multi-process
        // transport (real loopback sockets, one length-prefixed frame
        // stream per worker) must stay inside the same frozen wire
        // envelope — the framing layer may not bloat shipments past the
        // 2x-under-row-format bar, and the least model must not change.
        let net = gst_runtime::NetCoordinator::new(
            std::sync::Arc::new(gst_runtime::InProcessLauncher {
                decoder: Some(gst_core::prelude::decode_constraint),
            }),
            gst_runtime::NetConfig::default(),
        );
        let net_outcome = net
            .execute(scheme.workers.clone(), &RuntimeConfig::default())
            .expect("tcp-loopback guard run failed");
        let net_bytes = net_outcome.stats.total_bytes_sent();
        let net_correct = net_outcome.relation(anc).set_eq(&reference);
        let net_shrink_ok = net_bytes * 2 <= base_bytes;
        println!(
            "guard {wname}/{sname}/n={n} (tcp loopback): bytes {} -> {} ({:.2}x), \
             correct={net_correct} shrink_ok={net_shrink_ok}",
            base_bytes,
            net_bytes,
            base_bytes as f64 / net_bytes.max(1) as f64,
        );
        if !net_correct {
            eprintln!(
                "guard FAIL: {wname}/{sname}/n={n} over TCP diverged from the sequential oracle"
            );
            ok = false;
        }
        if !net_shrink_ok {
            eprintln!(
                "guard FAIL: {wname}/{sname}/n={n} over TCP shipped {} bytes; \
                 needs <= {} (2x under the row-format reference {})",
                net_bytes,
                base_bytes / 2,
                base_bytes,
            );
            ok = false;
        }

        // Batch-mode invariance against the current columnar baseline:
        // the update-session layer must leave ordinary batch compilation
        // byte-for-byte alone.
        let Some(current) = &current else { continue };
        let Some(cur_row) = baseline_row(current, wname, sname, n) else {
            eprintln!("guard: {wname}/{sname}/n={n} missing from the batch baseline");
            ok = false;
            continue;
        };
        let field = |name: &str| {
            cur_row.get(name).and_then(Json::as_num).expect("batch baseline row field") as u64
        };
        let cur_bytes = field("bytes_shipped");
        let cur_comm = field("comm_tuples");
        let cur_processing: u64 = cur_row
            .get("worker_firings")
            .and_then(Json::as_arr)
            .expect("batch baseline row has worker_firings")
            .iter()
            .filter_map(Json::as_num)
            .sum::<f64>() as u64;
        println!(
            "guard {wname}/{sname}/n={n} (batch baseline): bytes {} -> {}, processing firings \
             {} -> {}, comm_tuples {} -> {}",
            cur_bytes, row.bytes_shipped, cur_processing, processing, cur_comm, row.comm_tuples,
        );
        if processing != cur_processing || row.comm_tuples != cur_comm {
            eprintln!(
                "guard FAIL: {wname}/{sname}/n={n} batch-mode semantics fingerprint changed \
                 (processing firings {processing} vs baseline {cur_processing}, comm_tuples \
                 {} vs {cur_comm}) — the session layer leaked into batch plans",
                row.comm_tuples,
            );
            ok = false;
        }
        // Byte counts on the threaded transport jitter by a few tenths
        // of a percent run to run (coalescing merges pending batches, so
        // the header count depends on thread scheduling); 1% headroom
        // absorbs that while still catching any systematic growth, e.g.
        // a retract flag leaking onto the batch wire.
        if row.bytes_shipped * 100 > cur_bytes * 101 {
            eprintln!(
                "guard FAIL: {wname}/{sname}/n={n} batch-mode bytes regressed \
                 ({} vs baseline {}, >1% growth)",
                row.bytes_shipped, cur_bytes,
            );
            ok = false;
        }
    }
    if ok {
        println!("wire guard holds: >=2x smaller shipments, processing firings only and identical");
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|k| args.get(k + 1).cloned())
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());
    if let Some(guard_path) = args
        .iter()
        .position(|a| a == "--guard")
        .and_then(|k| args.get(k + 1).cloned())
    {
        let batch_baseline = args
            .iter()
            .position(|a| a == "--batch-baseline")
            .and_then(|k| args.get(k + 1).cloned());
        std::process::exit(run_guard(&guard_path, batch_baseline.as_deref()));
    }

    if cfg!(debug_assertions) {
        eprintln!("warning: debug build — timings are not meaningful; use --release");
    }

    // The TC workload matrix. Sizes are chosen so the full matrix finishes
    // in a few minutes while each cell runs long enough to time reliably.
    let workloads: Vec<(&'static str, Relation)> = if smoke {
        vec![
            ("chain", chain(64)),
            ("random", random_digraph(120, 360, 42)),
            ("zipf", zipf_digraph(300, 240, 30, 42)),
        ]
    } else {
        vec![
            ("chain", chain(192)),
            ("grid", grid(20, 20)),
            ("random", random_digraph(280, 840, 42)),
            ("layered", layered(6, 90, 3, 99)),
            ("star", star(256)),
            ("zipf", zipf_digraph(6000, 4800, 30, 42)),
        ]
    };
    let ns: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let reps = if smoke { 1 } else { 3 };

    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let anc = fx.output_id();

    let mut rows: Vec<Row> = Vec::new();
    let mut seq_json = Vec::new();
    for (wname, data) in &workloads {
        let db = fx.database(data);

        // Sequential semi-naive oracle + wall-clock baseline.
        let mut seq_ms = f64::INFINITY;
        let mut oracle = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = seminaive_eval(&fx.program, &db).unwrap();
            seq_ms = seq_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            oracle = Some(r);
        }
        let oracle = oracle.unwrap();
        let reference = oracle.relation(anc);
        println!(
            "== {wname}: {} edges, |anc| = {}, sequential {seq_ms:.1} ms, {:.0} tuples/s",
            data.len(),
            reference.len(),
            reference.len() as f64 / (seq_ms / 1e3),
        );
        seq_json.push(Json::obj(vec![
            ("workload", s(*wname)),
            ("edges", count(data.len() as u64)),
            ("closure", count(reference.len() as u64)),
            ("seq_wall_ms", num(seq_ms)),
            ("seq_firings", count(oracle.stats.firings)),
        ]));

        for &n in ns {
            let frag = round_robin_fragment(data, n).unwrap();
            // Phase timers stay on for the measured matrix (one Instant
            // read per phase per round — noise, not signal, at these cell
            // sizes); the wire guard keeps its plain default config.
            let mut plain = RuntimeConfig::default();
            plain.worker.profile = true;
            let mut schemes: Vec<(&'static str, CompiledScheme)> = vec![
                ("ex1-zerocomm", example1_wolfson(&sirup, n, &db).unwrap()),
                ("qi-hash", example3_hash_partition(&sirup, n, &db).unwrap()),
                ("ex2-broadcast", example2_valduriez(&sirup, frag, &db).unwrap()),
            ];
            // The skewed workloads additionally run the skew-aware
            // partition — the acceptance cells for hot-key splitting.
            if matches!(*wname, "star" | "zipf") {
                let skew = SkewPolicy::default();
                schemes.push((
                    "skew-hash",
                    skew_aware_hash_partition(&sirup, n, &db, &skew).unwrap(),
                ));
            }
            for (sname, scheme) in &schemes {
                let row = measure((wname, sname), n, scheme, &reference, anc, reps, &plain);
                rows.push(row.against(&oracle.stats));
            }

            // Demand-driven point-query cells (DESIGN.md §15): the same
            // TC written right-linear, queried at one bound-first
            // constant. `rl-full` is the full closure under the Q_i hash
            // partition; `magic-point` runs the magic rewrite under the
            // demand-aware partition and records what fraction of the
            // full-closure firings the point query paid.
            if let Some(c) = point_constant(wname) {
                let rlfx = right_linear_ancestor();
                let rl_db = rlfx.database(data);
                let rl_sirup = LinearSirup::from_program(&rlfx.program).unwrap();
                let full = measure(
                    (wname, "rl-full"),
                    n,
                    &example3_hash_partition(&rl_sirup, n, &rl_db).unwrap(),
                    &reference,
                    rlfx.output_id(),
                    reps,
                    &plain,
                );
                let full = full.against(&seminaive_eval(&rlfx.program, &rl_db).unwrap().stats);
                let goal = Atom::new(
                    rlfx.output_id().0,
                    vec![
                        Term::Const(Value::Int(c)),
                        Term::Var(Variable(rlfx.program.interner.intern("QY"))),
                    ],
                );
                let rw = magic_rewrite(&rlfx.program, &goal).unwrap();
                let mut filtered = Relation::new(rw.answer.arity);
                for t in reference.iter() {
                    if rw.answer_matches(t) {
                        filtered.insert(t.clone()).unwrap();
                    }
                }
                let mut seeded = rl_db.clone();
                let seed = (rw.seed_predicate.name, rw.seed_predicate.arity);
                seeded.insert(seed, rw.seed_fact.clone()).unwrap();
                let magic = measure(
                    (wname, "magic-point"),
                    n,
                    &compile_demand(&rw, &rl_db, n).unwrap(),
                    &filtered,
                    (rw.answer.name, rw.answer.arity),
                    reps,
                    &plain,
                );
                let mut magic = magic.against(&seminaive_eval(&rw.program, &seeded).unwrap().stats);
                magic.demand_ratio = Some(magic.firings as f64 / full.firings.max(1) as f64);
                rows.push(full);
                rows.push(magic);
            }
        }
    }

    let mut t = Table::new(vec![
        "workload", "scheme", "n", "wall ms", "ktuples/s", "rounds", "round ms", "KiB shipped",
        "skew", "compute ms", "comm ms", "idle ms", "d-ratio", "ok",
    ]);
    for r in &rows {
        let max = r.worker_firings.iter().copied().max().unwrap_or(0);
        let mean =
            r.worker_firings.iter().sum::<u64>() as f64 / r.worker_firings.len().max(1) as f64;
        let skew = if mean > 0.0 { max as f64 / mean } else { 0.0 };
        let [compute, encode, decode, replay, idle] = r.phase_us;
        t.row(vec![
            r.workload.to_string(),
            r.scheme.to_string(),
            r.n.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.0}", r.tuples_per_sec / 1e3),
            r.rounds.to_string(),
            format!("{:.3}", r.round_ms),
            format!("{:.1}", r.bytes_shipped as f64 / 1024.0),
            format!("{skew:.2}"),
            format!("{:.1}", compute as f64 / 1e3),
            format!("{:.1}", (encode + decode + replay) as f64 / 1e3),
            format!("{:.1}", idle as f64 / 1e3),
            r.demand_ratio.map_or_else(|| "-".to_string(), |d| format!("{d:.4}")),
            r.correct.to_string(),
        ]);
    }
    println!("{}", t.render());

    let all_correct = rows.iter().all(|r| r.correct);
    println!(
        "all {} configurations matched the sequential least model: {all_correct}",
        rows.len()
    );
    let level = |r: &&Row| (r.firings, r.derived) == (r.seq_firings, r.seq_derived);
    let astray: Vec<&Row> = rows.iter().filter(|r| r.n == 1 && !level(r)).collect();
    for Row { workload, scheme, firings, derived, seq_firings, seq_derived, .. } in &astray {
        eprintln!(
            "FAIL: {workload}/{scheme}/n=1 fired {firings} rules and inserted {derived} tuples, \
             sequential {seq_firings} and {seq_derived}"
        );
    }
    let n1_ok = astray.is_empty();
    println!("every n=1 row fires and inserts exactly what the sequential engine does: {n1_ok}");

    let report = Json::obj(vec![
        ("bench", s("throughput")),
        ("smoke", Json::Bool(smoke)),
        ("reps", count(reps as u64)),
        ("sequential", Json::Arr(seq_json)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        let mut fields = vec![
                            ("workload", s(r.workload)),
                            ("scheme", s(r.scheme)),
                            ("n", count(r.n as u64)),
                            ("wall_ms", num(r.wall_ms)),
                            ("tuples", count(r.tuples)),
                            ("tuples_per_sec", num(r.tuples_per_sec)),
                            ("rounds", count(r.rounds)),
                            ("round_ms", num(r.round_ms)),
                            ("bytes_shipped", count(r.bytes_shipped)),
                            ("comm_tuples", count(r.comm_tuples)),
                            ("firings", count(r.firings)),
                            ("seq_firings", count(r.seq_firings)),
                            ("derived", count(r.derived)),
                            ("seq_derived", count(r.seq_derived)),
                            (
                                "worker_firings",
                                Json::Arr(r.worker_firings.iter().map(|&f| count(f)).collect()),
                            ),
                            ("phase_compute_us", count(r.phase_us[0])),
                            ("phase_encode_us", count(r.phase_us[1])),
                            ("phase_decode_us", count(r.phase_us[2])),
                            ("phase_replay_us", count(r.phase_us[3])),
                            ("phase_idle_us", count(r.phase_us[4])),
                            ("correct", Json::Bool(r.correct)),
                        ];
                        if let Some(d) = r.demand_ratio {
                            fields.push(("demand_ratio", num(d)));
                        }
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        ("all_correct", Json::Bool(all_correct)),
    ]);
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("cannot create report directory");
        }
    }
    std::fs::write(&out_path, report.render()).expect("cannot write report");
    eprintln!("wrote {out_path}");

    if !all_correct || !n1_ok {
        std::process::exit(1);
    }
}
