//! The traced run: in this process, call the public entry point of each
//! layer between "sequential engine" and "N TCP processes" on the
//! workload's own program and data, each call inside a span, and read
//! the counters those calls already return. One rung per layer, so each
//! layer's tax is one subtraction:
//!
//! ```text
//! eval.seq_ms  →  core.n1_silent_ms  →  runtime.n1_full_ms  →  runtime.wall_ms  →  net.wall_ms
//! (engine)        (+ rewrite, N=1)      (+ threads, codec,     (+ W workers,       (+ TCP framing,
//!                                          replay, Safra)         real traffic)       relay)
//! ```
//!
//! Every rung's answer is `set_eq`-checked against the oracle, and
//! Theorems 2/6 (`processing_firings ≤ sequential firings`) are asserted.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gst_common::{FxHashMap, Tuple};
use gst_core::prelude::{
    compile_demand, decode_constraint, CompiledScheme, UpdateBatch, UpdateSession,
};
use gst_eval::plan::RelationId;
use gst_eval::seminaive_eval;
use gst_frontend::magic::{magic_rewrite, MagicRewrite};
use gst_frontend::Program;
use gst_runtime::codec::{decode_batch_into, encode_batch, row_format_bytes};
use gst_runtime::{
    ExecutionOutcome, FaultPlan, InProcessLauncher, NetConfig, NetCoordinator, RuntimeConfig,
    ThreadedTransport, Transport,
};
use gst_storage::{Database, HashIndex, Relation};

use crate::e2e::{self, Env, Oracle, Prepared, Tally};
use crate::gen::{self, Kind};
use crate::metrics::PER_LAYER;
use crate::model::{self, LineSet};
use crate::span::{self_times_us, Tracer};
use crate::stats::{median, percentile};

/// Goals of `point-query` the ladder runs (a prefix of the goal list).
const LADDER_GOALS: usize = 20;
/// `magic_rewrite` calls per pass (it takes microseconds).
const REWRITES: usize = 32;
/// Tuples per codec batch.
const BATCH: usize = 4096;

/// One program + database the ladder evaluates at every rung. Closure
/// workloads have one cell (the source program); `point-query` has one
/// per goal (the magic-rewritten program with its seed loaded), and the
/// ladder reports totals over them.
struct Cell {
    program: Program,
    db: Database,
    answer: RelationId,
    /// What the answer relation must equal.
    expect: Relation,
    magic: Option<MagicRewrite>,
}

impl Cell {
    /// The scheme `pdatalog run` compiles for this cell at `n` workers.
    fn scheme(&self, scheme: &str, n: usize) -> Result<CompiledScheme, String> {
        match &self.magic {
            Some(rw) => compile_demand(rw, &self.db, n),
            None => model::build_scheme(scheme, &self.program, &self.db, n),
        }
        .map_err(|e| e.to_string())
    }

    /// Does `relations` hold exactly the expected answer? (The adorned
    /// answer relation of a magic program also holds answers to
    /// transitively demanded goals; those are filtered out first, as the
    /// CLI does before printing.)
    fn check(&self, relations: &FxHashMap<RelationId, Relation>) -> bool {
        let empty = Relation::new(self.answer.1);
        let got = relations.get(&self.answer).unwrap_or(&empty);
        match &self.magic {
            None => got.set_eq(&self.expect),
            Some(rw) => {
                let filtered: Relation = got
                    .iter()
                    .filter(|t| rw.answer_matches(t))
                    .cloned()
                    .collect();
                filtered.set_eq(&self.expect)
            }
        }
    }
}

fn cells(prep: &Prepared, oracle: &Oracle) -> Result<Vec<Cell>, String> {
    let w = prep.workload;
    let program = &oracle.loaded.program;
    let answer = model::rel_id(program, w.answer);
    if w.kind != Kind::PointQuery {
        return Ok(vec![Cell {
            program: program.clone(),
            db: oracle.loaded.db.clone(),
            answer,
            expect: oracle.closure.clone(),
            magic: None,
        }]);
    }
    prep.inputs
        .goals
        .iter()
        .take(LADDER_GOALS)
        .map(|&c| {
            let rw = magic_rewrite(program, &model::goal(program, w.answer, c))
                .map_err(|e| e.to_string())?;
            let mut db = oracle.loaded.db.clone();
            db.insert(
                (rw.seed_predicate.name, rw.seed_predicate.arity),
                rw.seed_fact.clone(),
            )
            .map_err(|e| e.to_string())?;
            let expect = oracle
                .closure
                .iter()
                .filter(|t| rw.answer_matches(t))
                .cloned()
                .collect();
            Ok(Cell {
                program: rw.program.clone(),
                db,
                answer: (rw.answer.name, rw.answer.arity),
                expect,
                magic: Some(rw),
            })
        })
        .collect()
}

/// Resident set of this process, bytes (`VmRSS` of `/proc/self/status`).
fn vm_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

/// The values one ladder pass measured, plus whether every check held.
struct Pass {
    values: Vec<(&'static str, f64)>,
    correct: bool,
}

impl Pass {
    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "undeclared metric {name}"
        );
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|v| v.0 == name)
            .map_or(f64::NAN, |v| v.1)
    }

    fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("pdbench: CHECK FAILED: {what}");
            self.correct = false;
        }
    }
}

/// Totals over the cells of one in-process rung.
struct Rung {
    ms: f64,
    outcomes: Vec<ExecutionOutcome>,
}

/// Run `exec` on every cell's scheme inside a span per cell; check every
/// answer against the oracle.
fn rung(
    t: &mut Tracer,
    pass: &mut Pass,
    name: &'static str,
    cells: &[Cell],
    schemes: &[CompiledScheme],
    exec: impl Fn(&CompiledScheme) -> gst_common::Result<ExecutionOutcome>,
) -> Result<Rung, String> {
    let mut out = Rung {
        ms: 0.0,
        outcomes: Vec::with_capacity(cells.len()),
    };
    for (cell, scheme) in cells.iter().zip(schemes) {
        let (outcome, ms) = t.span(name, |_| exec(scheme));
        let outcome = outcome.map_err(|e| format!("{name}: {e}"))?;
        pass.require(
            cell.check(&outcome.relations),
            &format!("{name} answer equals the oracle"),
        );
        out.ms += ms;
        out.outcomes.push(outcome);
    }
    Ok(out)
}

fn sum(outcomes: &[ExecutionOutcome], f: impl Fn(&ExecutionOutcome) -> u64) -> f64 {
    outcomes.iter().map(f).sum::<u64>() as f64
}

fn max_rounds(o: &ExecutionOutcome) -> u64 {
    o.stats
        .workers
        .iter()
        .map(|w| w.eval.rounds)
        .max()
        .unwrap_or(0)
}

/// Everything a traced run produced.
pub struct Traced {
    /// Every per-layer metric, in `BENCHMARK.json` order: the median over
    /// ladder passes.
    pub metrics: Vec<(&'static str, f64)>,
    pub correct: bool,
    pub tally: Tally,
    pub tracer: Tracer,
}

/// What every ladder pass of one traced run works on.
struct Ladder<'a> {
    env: &'a Env,
    prep: &'a Prepared,
    oracle: Oracle,
    /// What the CLI rung's children must print.
    expect: Vec<LineSet>,
    cells: Vec<Cell>,
    /// The update stream the session rung replays: the workload's own
    /// for `tc-updates`; elsewhere (where that layer is not on the path)
    /// `tc-updates`' CI-sized input, so that every run reports every layer.
    session_inputs: gen::Inputs,
    seed: u64,
}

/// Run ladder passes for at most `seconds` (but at least one).
pub fn trace(env: &Env, prep: &Prepared, seed: u64, seconds: f64) -> Result<Traced, String> {
    let w = prep.workload;
    let oracle = e2e::oracle_of(w, &prep.files.program)?;
    let ladder = Ladder {
        env,
        prep,
        expect: e2e::expectations(prep, &oracle)?,
        cells: cells(prep, &oracle)?,
        session_inputs: match w.kind {
            Kind::Updates => prep.inputs.clone(),
            _ => gen::generate(gen::by_name("tc-updates").expect("declared"), seed, true),
        },
        oracle,
        seed,
    };
    let mut tracer = Tracer::new(w.name);
    let mut tally = Tally::default();
    let mut passes: Vec<Pass> = Vec::new();
    let t0 = Instant::now();
    let mut longest_pass = 0.0f64;
    // Another pass only while it is expected to fit in `seconds`.
    while passes.is_empty() || (!env.smoke && t0.elapsed().as_secs_f64() + longest_pass <= seconds)
    {
        let pass_start = Instant::now();
        let mut pass = Pass {
            values: Vec::new(),
            correct: true,
        };
        let before = tracer.spans().len();
        let (result, _) = tracer.span("ladder.pass", |t| ladder.pass(t, &mut pass, &mut tally));
        result?;
        // Self time of the pass span: what the benchmark itself spent
        // between layer calls (answer checks, bookkeeping).
        let self_us = self_times_us(tracer.spans())[before];
        pass.put("trace.bench_self_ms", self_us / 1e3);
        passes.push(pass);
        longest_pass = longest_pass.max(pass_start.elapsed().as_secs_f64());
    }
    let correct = passes.iter().all(|p| p.correct);
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, _, _) in PER_LAYER {
        let value = if name == "trace.ladder_passes" {
            passes.len() as f64
        } else {
            median(&passes.iter().map(|p| p.get(name)).collect::<Vec<_>>())
        };
        if value.is_nan() {
            return Err(format!("the ladder did not measure {name}"));
        }
        metrics.push((name, value));
    }
    Ok(Traced {
        metrics,
        correct,
        tally,
        tracer,
    })
}

impl Ladder<'_> {
    /// One pass up the ladder, bottom rung first.
    fn pass(&self, t: &mut Tracer, pass: &mut Pass, tally: &mut Tally) -> Result<(), String> {
        let Ladder {
            env,
            prep,
            oracle,
            expect,
            cells,
            seed,
            ..
        } = self;
        let (env, prep, seed) = (*env, *prep, *seed);
        let w = prep.workload;
        let workers = env.workers;
        let program = &oracle.loaded.program;
        let closure = &oracle.closure;
        let tuples = closure.len() as f64;

        // ---- frontend: parse + load, as `pdatalog run` starts every run -----
        let (loaded, parse_ms) = t.span("frontend.parse_program", |_| model::load(&oracle.text));
        let loaded = loaded.map_err(|e| e.to_string())?;
        pass.put("frontend.parse_ms", parse_ms);
        pass.put(
            "frontend.facts_per_s",
            loaded.facts as f64 / (parse_ms / 1e3),
        );
        drop(loaded);
        let goal_constant = match prep.inputs.goals.first() {
            Some(&c) => c,
            None => closure
                .rows()
                .first()
                .and_then(|t| t.get(0).as_int())
                .unwrap_or(0),
        };
        let goal = model::goal(program, w.answer, goal_constant);
        let mut rewrite_us = Vec::with_capacity(REWRITES);
        for _ in 0..REWRITES {
            let (rw, ms) = t.span("frontend.magic_rewrite", |_| magic_rewrite(program, &goal));
            black_box(rw.map_err(|e| e.to_string())?);
            rewrite_us.push(ms * 1e3);
        }
        pass.put("frontend.magic_rewrite_us", median(&rewrite_us));

        // ---- storage: the arena, its dedup table and the hash index ---------
        let rss_before = vm_rss_bytes();
        let mut rel = Relation::new(2);
        let (_, insert_ms) = t.span("storage.insert_unchecked", |_| {
            for tuple in closure.iter() {
                rel.insert_unchecked(tuple.clone());
            }
        });
        let rss_after = vm_rss_bytes();
        let (fresh, dup_ms) = t.span("storage.insert_unchecked_dup", |_| {
            closure
                .iter()
                .filter(|tuple| rel.insert_unchecked((*tuple).clone()))
                .count()
        });
        pass.require(
            rel.len() == closure.len() && fresh == 0,
            "storage dedups re-inserted tuples",
        );
        pass.put("storage.insert_mtps", tuples / (insert_ms * 1e3));
        pass.put("storage.dup_insert_mtps", tuples / (dup_ms * 1e3));
        pass.put(
            "storage.bytes_per_tuple",
            (rss_after - rss_before).max(0.0) / tuples,
        );
        let (index, build_ms) = t.span("storage.index_build", |_| HashIndex::build(&rel, &[0]));
        let (hits, probe_ms) = t.span("storage.index_probe", |_| {
            rel.iter()
                .map(|tuple| index.probe(&rel, &[tuple.get(0)]).len())
                .sum::<usize>()
        });
        pass.require(hits >= rel.len(), "every indexed key probes to its own row");
        pass.put("storage.index_build_ms", build_ms);
        pass.put("storage.probe_mops", tuples / (probe_ms * 1e3));
        drop(index);
        drop(rel);

        // ---- codec: the wire format over the answer, in 4 096-tuple batches --
        let rows = closure.rows();
        let (payloads, encode_ms) = t.span("codec.encode_batch", |_| {
            rows.chunks(BATCH)
                .map(|chunk| encode_batch(2, chunk))
                .collect::<Result<Vec<_>, _>>()
        });
        let payloads = payloads.map_err(|e| e.to_string())?;
        let mut decoded: Vec<Tuple> = Vec::with_capacity(rows.len());
        let (result, decode_ms) = t.span("codec.decode_batch_into", |_| {
            payloads
                .iter()
                .try_for_each(|p| decode_batch_into(p, &mut decoded).map(|_| ()))
        });
        result.map_err(|e| e.to_string())?;
        pass.require(decoded.as_slice() == rows, "codec round-trips the answer");
        let bytes: usize = payloads.iter().map(|p| p.len()).sum();
        let row_bytes: u64 = rows
            .chunks(BATCH)
            .map(|c| row_format_bytes(2, c.len()))
            .sum();
        pass.put("codec.encode_mtps", tuples / (encode_ms * 1e3));
        pass.put("codec.decode_mtps", tuples / (decode_ms * 1e3));
        pass.put("codec.bytes_per_tuple", bytes as f64 / tuples);
        pass.put("codec.ratio_vs_row", row_bytes as f64 / bytes as f64);
        drop(decoded);
        drop(payloads);

        // ---- eval: the sequential engine on each cell's program --------------
        let (mut seq_ms, mut seq_firings, mut seq_rounds, mut seq_dups) = (0.0, 0u64, 0u64, 0u64);
        for cell in cells {
            let (result, ms) = t.span("eval.seminaive_eval", |_| {
                seminaive_eval(&cell.program, &cell.db)
            });
            let result = result.map_err(|e| e.to_string())?;
            pass.require(
                cell.check(&result.idb),
                "seminaive_eval answer equals the oracle",
            );
            seq_ms += ms;
            seq_firings += result.stats.firings;
            seq_rounds += result.stats.rounds;
            seq_dups += result.stats.duplicates;
        }
        pass.put("eval.seq_ms", seq_ms);
        pass.put("eval.seq_firings", seq_firings as f64);
        pass.put("eval.seq_rounds", seq_rounds as f64);
        pass.put(
            "eval.seq_dup_ratio",
            seq_dups as f64 / seq_firings.max(1) as f64,
        );
        pass.put("eval.firings_per_s", seq_firings as f64 / (seq_ms / 1e3));

        // ---- core: compile the rewriting; run it at N=1 on the silent path ---
        let compile = |t: &mut Tracer, n: usize| -> Result<(Vec<CompiledScheme>, f64), String> {
            let mut total_ms = 0.0;
            let mut schemes = Vec::with_capacity(cells.len());
            for cell in cells {
                let (scheme, ms) = t.span("core.compile", |_| cell.scheme(w.scheme, n));
                schemes.push(scheme?);
                total_ms += ms;
            }
            Ok((schemes, total_ms))
        };
        let (schemes_w, compile_ms) = compile(t, workers)?;
        let (schemes_1, _) = compile(t, 1)?;
        pass.put("core.compile_ms", compile_ms);
        let plain = RuntimeConfig::default();
        let mut profiled = RuntimeConfig::default();
        profiled.worker.profile = true;

        let silent = rung(t, pass, "core.n1_silent", cells, &schemes_1, |s| {
            s.execute(&plain)
        })?;
        let n1_firings = sum(&silent.outcomes, |o| o.stats.total_firings());
        pass.put("core.n1_silent_ms", silent.ms);
        pass.put("core.n1_firings", n1_firings);
        pass.put(
            "core.firing_overhead",
            n1_firings / seq_firings.max(1) as f64,
        );
        pass.put("core.rewrite_tax", silent.ms / seq_ms);
        drop(silent);

        // ---- runtime: N=1 with the full machinery forced on (profiling keeps
        // a silent network off the inline fast path), then W workers ----------
        let full = rung(t, pass, "runtime.n1_full", cells, &schemes_1, |s| {
            s.execute(&profiled)
        })?;
        pass.put("runtime.n1_full_ms", full.ms);
        pass.put(
            "runtime.machinery_tax",
            full.ms / pass.get("core.n1_silent_ms"),
        );
        drop(full);
        drop(schemes_1);

        let run = rung(t, pass, "runtime.execute", cells, &schemes_w, |s| {
            s.execute(&plain)
        })?;
        let processing = sum(&run.outcomes, |o| o.stats.total_processing_firings());
        pass.require(
            processing <= seq_firings as f64,
            "Theorems 2/6: processing firings do not exceed sequential firings",
        );
        pass.put("core.processing_firings", processing);
        pass.put("runtime.wall_ms", run.ms);
        pass.put("runtime.rounds", sum(&run.outcomes, max_rounds));
        pass.put(
            "runtime.messages",
            sum(&run.outcomes, |o| o.stats.total_messages()),
        );
        pass.put(
            "runtime.comm_tuples",
            sum(&run.outcomes, |o| o.stats.total_tuples_sent()),
        );
        pass.put(
            "runtime.bytes_shipped",
            sum(&run.outcomes, |o| o.stats.total_bytes_sent()),
        );
        let mut per_worker = vec![0u64; workers];
        let (mut busy_s, mut utilization) = (0.0, 0.0);
        for o in &run.outcomes {
            for wr in &o.stats.workers {
                per_worker[wr.processor] += wr.processing_firings;
                busy_s += wr.busy.as_secs_f64();
            }
            utilization += o.stats.utilization() / run.outcomes.len() as f64;
        }
        let mean = per_worker.iter().sum::<u64>() as f64 / workers as f64;
        let max = per_worker.iter().copied().max().unwrap_or(0) as f64;
        pass.put(
            "runtime.firing_skew",
            if mean > 0.0 { max / mean } else { 1.0 },
        );
        pass.put("runtime.utilization", utilization);
        pass.put(
            "runtime.busy_share",
            busy_s / (workers as f64 * run.ms / 1e3),
        );
        drop(run);

        let prof = rung(
            t,
            pass,
            "runtime.execute_profiled",
            cells,
            &schemes_w,
            |s| s.execute(&profiled),
        )?;
        let mut phases = [0u64; 5];
        let mut attributed_ms = 0.0;
        for o in &prof.outcomes {
            let mut slowest = 0u64;
            for p in o.stats.workers.iter().filter_map(|wr| wr.profile.as_ref()) {
                for (total, v) in phases.iter_mut().zip(p.phases.as_array()) {
                    *total += v;
                }
                slowest = slowest.max(p.phases.total());
            }
            attributed_ms += slowest as f64 / 1e3;
        }
        let [compute, encode, decode, replay, idle] = phases.map(|us| us as f64 / 1e3);
        pass.put("runtime.phase_compute_ms", compute);
        pass.put("runtime.phase_encode_ms", encode);
        pass.put("runtime.phase_decode_ms", decode);
        pass.put("runtime.phase_idle_ms", idle);
        pass.put(
            "runtime.idle_share",
            idle / (compute + encode + decode + replay + idle).max(1e-9),
        );
        pass.put("runtime.unattributed_ms", prof.ms - attributed_ms);
        pass.put(
            "runtime.profile_overhead",
            prof.ms / pass.get("runtime.wall_ms"),
        );
        drop(prof);

        // ---- sim: the deterministic transport; counts that repeat exactly ----
        let sim = rung(t, pass, "sim.run_simulated", cells, &schemes_w, |s| {
            s.run_simulated(seed, FaultPlan::none())
        })?;
        pass.put("sim.rounds", sum(&sim.outcomes, max_rounds));
        pass.put(
            "sim.firings",
            sum(&sim.outcomes, |o| o.stats.total_firings()),
        );
        pass.put(
            "sim.bytes_shipped",
            sum(&sim.outcomes, |o| o.stats.total_bytes_sent()),
        );
        pass.put(
            "sim.messages",
            sum(&sim.outcomes, |o| o.stats.total_messages()),
        );
        pass.put("sim.wall_ms", sim.ms);
        drop(sim);

        // ---- net: the same workers over loopback TCP, as threads. Heartbeats
        // are pushed out of the run: at the default 1 s the coordinator's ping
        // intermittently fails once a run outlives the first one (README, "What
        // sizing turned up"), and a failed rung would void the whole traced run.
        let coordinator = NetCoordinator::new(
            Arc::new(InProcessLauncher {
                decoder: Some(decode_constraint),
            }),
            NetConfig {
                heartbeat_interval: Duration::from_secs(60),
                ..NetConfig::default()
            },
        );
        let net = rung(t, pass, "net.execute", cells, &schemes_w, |s| {
            coordinator.execute(s.workers.clone(), &plain)
        })?;
        pass.put("net.wall_ms", net.ms);
        pass.put(
            "net.relay_bytes",
            sum(&net.outcomes, |o| o.stats.relay_bytes),
        );
        pass.put("net.reconnects", sum(&net.outcomes, |o| o.stats.reconnects));
        pass.put("net.tax", net.ms / pass.get("runtime.wall_ms"));
        drop(net);
        drop(schemes_w);

        let session_ms = session_rung(env, &self.session_inputs, t, pass)?;

        // ---- cli: the same cell as one `pdatalog run` process ----------------
        let mut cli =
            |t: &mut Tracer, name: &'static str, ops: &[e2e::Op]| -> Result<f64, String> {
                let (runs, _) = t.span(name, |_| tally.run_all(env, ops));
                runs.map(|runs| runs.iter().map(|r| r.wall_s).sum::<f64>() * 1e3)
                    .ok_or_else(|| "a traced pdatalog run failed".to_string())
            };
        let plan = e2e::plan(prep, expect, workers, LADDER_GOALS)?;
        let wall_ms = cli(t, "cli.pdatalog_run", &plan.par)?;
        let seq_wall_ms = cli(t, "cli.pdatalog_run_seq", &plan.seq)?;
        let n1_wall_ms = if workers == 1 {
            wall_ms
        } else {
            cli(
                t,
                "cli.pdatalog_run_n1",
                &e2e::plan(prep, expect, 1, LADDER_GOALS)?.par,
            )?
        };
        pass.put("cli.wall_ms", wall_ms);
        pass.put("cli.seq_wall_ms", seq_wall_ms);
        pass.put("cli.n1_wall_ms", n1_wall_ms);
        // What one process adds to the same cell run in-process: exec, page
        // faults on a cold heap, printing, exit.
        let executed_ms = if w.kind == Kind::Updates {
            session_ms
        } else {
            pass.get("runtime.wall_ms")
        };
        let in_process =
            pass.get("frontend.parse_ms") * cells.len() as f64 + compile_ms + executed_ms;
        pass.put("cli.overhead_ms", wall_ms - in_process);
        pass.put("cli.speedup_vs_seq", seq_wall_ms / wall_ms);
        // Smallest measured N (1 or W) that beats the sequential command;
        // 0 reads "none".
        let break_even = if n1_wall_ms < seq_wall_ms {
            1
        } else if wall_ms < seq_wall_ms {
            workers
        } else {
            0
        };
        pass.put("cli.break_even_n", break_even as f64);
        let answered: usize = cells.iter().map(|c| c.expect.len()).sum();
        pass.put("cli.tuples_per_s", answered as f64 / (wall_ms / 1e3));
        Ok(())
    }
}

/// `UpdateSession` over an update stream: initial fixpoint, then one
/// `apply` per commit, against `seminaive_eval` on each post-commit
/// database. Returns the session's total time (initialize + every apply).
fn session_rung(
    env: &Env,
    inputs: &gen::Inputs,
    t: &mut Tracer,
    pass: &mut Pass,
) -> Result<f64, String> {
    let w = gen::by_name("tc-updates").expect("declared");
    let err = |e: gst_common::Error| e.to_string();
    let loaded = model::load(&gen::program_text(w.rules, &inputs.relations)).map_err(err)?;
    let par = model::rel_id(&loaded.program, w.base);
    let answer = model::rel_id(&loaded.program, w.answer);
    let scheme =
        model::build_scheme(w.scheme, &loaded.program, &loaded.db, env.workers).map_err(err)?;
    let config = RuntimeConfig::default();
    let mut session = UpdateSession::new(&scheme, &loaded.program, &loaded.db).map_err(err)?;
    let (result, init_ms) = t.span("session.initialize", |_| {
        session.initialize(&ThreadedTransport, &config).map(|_| ())
    });
    result.map_err(err)?;
    let (mut batch_ms, mut recompute_ms) = (Vec::new(), Vec::new());
    let (mut overdeleted, mut rederived) = (0u64, 0u64);
    for (k, commit) in inputs.commits.iter().enumerate() {
        let fact = |&(a, b): &(i64, i64)| (par, gst_common::ituple![a, b]);
        let batch = UpdateBatch {
            inserts: commit.inserts.iter().map(fact).collect(),
            deletes: commit.deletes.iter().map(fact).collect(),
        };
        let (report, ms) = t.span("session.apply", |_| {
            session
                .apply(&batch, &ThreadedTransport, &config)
                .map(|r| (r.overdeleted, r.rederive_seeds))
        });
        let (over, seeds) = report.map_err(err)?;
        batch_ms.push(ms);
        overdeleted += over;
        rederived += seeds;
        // Recompute from scratch on the same post-commit database.
        let mut db = Database::new(loaded.program.interner.clone());
        db.put_relation(par, gen::edges_after(inputs, k + 1))
            .map_err(err)?;
        let (model, ms) = t.span("session.recompute", |_| {
            seminaive_eval(&loaded.program, &db)
        });
        recompute_ms.push(ms);
        let model = model.map_err(err)?;
        pass.require(
            session.answer(answer).set_eq(&model.relation(answer)),
            "the maintained view equals a from-scratch evaluation after every commit",
        );
    }
    pass.put("session.init_ms", init_ms);
    pass.put("session.batch_p50_ms", median(&batch_ms));
    pass.put("session.batch_max_ms", percentile(&batch_ms, 100.0));
    pass.put("session.overdeleted", overdeleted as f64);
    pass.put("session.rederived", rederived as f64);
    pass.put(
        "session.vs_recompute",
        median(&batch_ms) / median(&recompute_ms),
    );
    Ok(init_ms + batch_ms.iter().sum::<f64>())
}
