//! `pdatalog` — command-line front end for the parallel-datalog library.
//!
//! ```text
//! pdatalog run <file.dl> [--workers N] [--scheme S]
//!                        [--query ["goal(…)"] [--explain-rewrite]]
//!                        [--print PRED/ARITY] [--stats]
//!                        [--max-restarts N]
//!                        [--trace] [--trace-out FILE]
//!                        [--profile] [--profile-json FILE]
//!                        [--updates FILE]
//!                        [--sim [--seed N] [--faults PLAN]]
//!                        [--net [--net-faults PLAN] [--net-kill W@N]]
//! pdatalog net-worker --connect IP:PORT --index I ...
//! pdatalog analyze <file.dl>
//! pdatalog network <file.dl> [--linear c1,c2,...]
//! ```
//!
//! Schemes for `run`: `seq` (semi-naive, default), `example1`
//! (zero communication), `example2` (fragmented + broadcast), `example3`
//! (hash partition), `nocomm` (redundant zero-comm: §6's `R_i` with
//! `h_i(x) = i`), `general` (§7, works for any program; the compiler
//! chooses each rule's `v(r_k)` — a variable its derived body atoms bind,
//! so nothing is broadcast that can be routed — and `analyze` prints the
//! choice; a ground-body rule takes `⟨⟩`).
//!
//! `--query` turns the run into a demand-driven *point query*: the goal
//! (inline, or the file's `?- anc("ann", Y).` line) is rewritten with
//! magic sets (DESIGN.md §15) — adornments mark which arguments the
//! goal binds, magic predicates carry the demand tuples, and only the
//! part of the closure the query can reach is computed. The rewritten
//! program is ordinary Datalog, so it runs on every transport; under a
//! parallel scheme each generated rule discriminates on its magic
//! guard's columns, co-locating demand with the matching base-relation
//! fragments; a goal whose only demand is its own constants runs on one
//! processor, `--workers` being a ceiling (`--stats` prints
//! `processors=1 of 4 (one demand key)`). Only the goal's answers
//! print, under the original predicate name. A goal the rewrite refuses
//! — on a base relation, or binding no argument — runs the program as
//! `run` does and prints the goal's relation filtered by the goal.
//! `--explain-rewrite` prints the rewritten program
//! (with provenance comments) instead of running it; `--stats` adds
//! `demand_ratio` — magic firings over a full-closure run's firings —
//! plus the firings/bytes avoided; `--profile` labels magic/adorned
//! rules in the hot-rule table (e.g. `anc^bf [magic r1]`).
//!
//! `--trace` prints the unified event journal (rounds, sends, receives,
//! deliveries, idles, recoveries, termination) on stderr for any parallel run — threaded
//! or simulated. `--trace-out FILE` writes the same journal as Chrome
//! trace-event JSON, loadable in Perfetto or `chrome://tracing` (one
//! track per worker, rounds as spans). See DESIGN.md §9.
//!
//! `--profile` turns on per-phase time accounting in every worker
//! (compute, encode, decode, replay, idle) and prints a report on
//! stderr: per-worker phase totals and hot rules by time. `--profile-json
//! FILE` writes the same report as deterministic JSON (validated by
//! `trace_check --profile`). Per-round and per-batch distributions are
//! read from the `--trace-out` journal. Threaded and `--net` profiles count
//! wall-clock microseconds; `--sim` profiles count deterministic work
//! proxies (virtual ticks) so same-seed reruns produce bit-identical
//! JSON. See DESIGN.md §14.
//!
//! `--updates FILE` turns a parallel run into a live, incrementally
//! maintained view (DRed; see DESIGN.md §11). After the initial fixpoint
//! the file is replayed as a stream of base-fact updates, one directive
//! per line:
//!
//! ```text
//! +edge(4, 9).        % insert a base fact
//! -edge(1, 2).        % delete a base fact (absent facts are no-ops)
//! commit.             % apply everything since the last commit as one batch
//! ```
//!
//! `%` starts a comment, the trailing `.` is optional, and a final
//! uncommitted group is applied implicitly. Each batch is maintained
//! incrementally — deletion cones are retracted and rederived rather
//! than recomputing from scratch — and the relations printed at the end
//! are the maintained view after the last batch. With `--workers 1` the
//! whole stream is maintained in-process by the single-worker fast
//! path; with `--sim` every update round runs under the deterministic
//! simulation transport (faults included).
//!
//! `--net` replaces the OS threads with one OS **process** per worker:
//! the coordinator binds a loopback TCP listener, re-executes this binary
//! with the `net-worker` subcommand once per processor, and relays all
//! worker-to-worker traffic (DESIGN.md §12). A worker process that dies —
//! crash, SIGKILL, or a socket fault injected with `--net-faults
//! W:kind@BYTES[!]` (kinds `delay`, `disconnect`, `truncate`, `garbage`)
//! or `--net-kill W@BYTES` — is restarted under a bumped recovery epoch
//! and peers replay their logged traffic, up to `--max-restarts` total.
//!
//! `--max-restarts` caps recoverable restarts fleet-wide on every parallel
//! transport (default 1). A worker passive for 30 s without termination
//! aborts the run (the backstop behind a lost peer).
//!
//! `--sim` replaces the OS threads with the deterministic simulation
//! transport: one virtual clock, a seeded scheduler, and (via `--faults`)
//! injected delay/reorder/duplication/drop/stall/crash faults. The same
//! `--seed` and `--faults` always replay the identical schedule (and,
//! with `--trace`, a bit-identical journal). Fault plans are a preset
//! (`none`, `jitter`, `chaos`) optionally refined with `key=value` pairs,
//! e.g. `--faults chaos,dup=0.5,crash=1@40`. Appending the bare `recover`
//! flag (`--faults chaos,crash=1@40,recover`) makes the crash survivable:
//! the supervisor restarts the worker (up to `--max-restarts`, default 1),
//! peers replay their logged traffic, and the run still computes the exact
//! least model, reporting `restarts`/`replayed` in `--stats`.
//!
//! Every allocation of 2 MiB or more is served on transparent huge pages
//! (`huge_pages`, the one module allowed `unsafe`); the `--stats` footer
//! ends with the process's minor page faults and resident high-water
//! mark, `minflt=N hwm=X.XMiB`, where `/proc` has them.

#![deny(unsafe_code)]

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
#[path = "pdatalog/huge_pages.rs"]
mod huge_pages;

use std::process::ExitCode;
use std::sync::Arc;

use parallel_datalog::core::dataflow::{zero_comm_choice, DataflowGraph};
use parallel_datalog::frontend::parser::parse_atom_with;
use parallel_datalog::frontend::pretty;
use parallel_datalog::prelude::*;
use parallel_datalog::runtime::{shard_kinds, FaultPlan, Shards, SimTransport};
use parallel_datalog::storage::round_robin_fragment;

fn main() -> ExitCode {
    // Exit quietly when stdout closes early (`pdatalog run … | head`):
    // without a libc dependency the portable way is to intercept the
    // broken-pipe print panic.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.contains("Broken pipe"))
            .unwrap_or(false);
        if broken_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pdatalog: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> std::result::Result<(), String> {
    let mut it = args.into_iter();
    let command = it.next().ok_or_else(usage)?;
    match command.as_str() {
        "run" => cmd_run(it.collect()),
        "net-worker" => cmd_net_worker(it.collect()),
        "analyze" => cmd_analyze(it.collect()),
        "network" => cmd_network(it.collect()),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  pdatalog run <file.dl> [--workers N] [--scheme seq|example1|example2|example3|nocomm|general] [--query [\"goal(…)\"] [--explain-rewrite]] [--print PRED/ARITY] [--stats] [--max-restarts N] [--trace] [--trace-out FILE] [--profile] [--profile-json FILE] [--updates FILE] [--sim [--seed N] [--faults none|jitter|chaos[,k=v...][,crash=W@T[,recover]]]] [--net [--net-faults W:kind@BYTES[!][;...]] [--net-kill W@BYTES]]\n  pdatalog net-worker --connect IP:PORT --index I [--incarnation K] [--connect-timeout-ms MS] [--net-fault F]\n  pdatalog analyze <file.dl>\n  pdatalog network <file.dl> [--linear c1,c2,...]\n\n--workers is at most 1024; --max-restarts defaults to 1.\n--net runs one OS process per worker over loopback TCP (net-worker is the\nworker mode the coordinator re-executes); faults: delay|disconnect|truncate|garbage.\n\npoint queries (--query): magic-sets rewrite of the program toward the goal's\nbound arguments (constants), evaluated demand-first; `--query` alone takes the\ngoal from the file's `?- goal.` line, `--explain-rewrite` prints the rewritten\nprogram instead of running it, and `--stats` adds demand_ratio (magic firings /\nfull-closure firings). Schemes: seq or general (demand-partitioned). A goal the\nrewrite refuses (a base relation, no bound argument) runs the whole program and\nprints the goal's matching tuples.\n\nupdate files (--updates): one `+fact(…).`, `-fact(…).`, or `commit.` per line;\neach commit applies the group as one incrementally maintained batch.".into()
}

/// Parse `PRED/ARITY`, e.g. `anc/2`.
fn parse_pred_spec(spec: &str) -> std::result::Result<(String, usize), String> {
    let (name, arity) = spec
        .rsplit_once('/')
        .ok_or_else(|| format!("bad predicate spec `{spec}` (want name/arity)"))?;
    let arity: usize = arity
        .parse()
        .map_err(|_| format!("bad arity in `{spec}`"))?;
    Ok((name.to_string(), arity))
}

fn load(path: &str) -> std::result::Result<(Program, Database, Vec<Atom>), String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let unit = parse_program(&source).map_err(|e| e.to_string())?;
    let mut db = Database::new(unit.program.interner.clone());
    db.load_facts(unit.facts).map_err(|e| e.to_string())?;
    Ok((unit.program, db, unit.queries))
}

fn cmd_run(args: Vec<String>) -> std::result::Result<(), String> {
    let mut file = None;
    let mut workers = 4usize;
    let mut scheme_name = "seq".to_string();
    let mut print_pred: Option<(String, usize)> = None;
    let mut show_stats = false;
    let mut sim = false;
    let mut seed = 0u64;
    let mut faults = "none".to_string();
    let mut show_trace = false;
    let mut trace_out: Option<String> = None;
    let mut max_restarts: Option<u32> = None;
    let mut updates: Option<String> = None;
    let mut net = false;
    let mut net_faults: Option<String> = None;
    let mut net_kill: Option<String> = None;
    let mut show_profile = false;
    let mut profile_json: Option<String> = None;
    // `None` = full closure; `Some(None)` = point query from the file's
    // `?- goal.` line; `Some(Some(src))` = inline goal text.
    let mut query: Option<Option<String>> = None;
    let mut explain_rewrite = false;

    /// The flag's value, parsed, or `message`.
    fn parsed<T: std::str::FromStr>(
        it: &mut impl Iterator<Item = String>,
        message: &str,
    ) -> std::result::Result<T, String> {
        it.next().and_then(|v| v.parse().ok()).ok_or_else(|| message.to_string())
    }

    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => workers = parsed(&mut it, "--workers needs a positive integer")?,
            "--scheme" => {
                scheme_name = it.next().ok_or("--scheme needs a name")?;
            }
            "--print" => {
                let spec = it.next().ok_or("--print needs PRED/ARITY")?;
                print_pred = Some(parse_pred_spec(&spec)?);
            }
            "--stats" => show_stats = true,
            "--query" => {
                // The goal is optional (`--query` alone uses the file's
                // `?- goal.` line); a goal always contains `(`, which no
                // flag or file path does, so peek before consuming.
                let goal = match it.peek() {
                    Some(next) if next.contains('(') => it.next(),
                    _ => None,
                };
                query = Some(goal);
            }
            "--explain-rewrite" => explain_rewrite = true,
            "--sim" => sim = true,
            "--seed" => seed = parsed(&mut it, "--seed needs an unsigned integer")?,
            "--faults" => {
                faults = it.next().ok_or("--faults needs a plan (none|jitter|chaos)")?;
            }
            "--trace" => show_trace = true,
            "--trace-out" => {
                trace_out = Some(it.next().ok_or("--trace-out needs a file path")?);
            }
            "--profile" => show_profile = true,
            "--profile-json" => {
                profile_json = Some(it.next().ok_or("--profile-json needs a file path")?);
            }
            "--max-restarts" => max_restarts = Some(parsed(&mut it, "--max-restarts needs an unsigned integer")?),
            "--updates" => {
                updates = Some(it.next().ok_or("--updates needs a file path")?);
            }
            "--net" => net = true,
            "--net-faults" => {
                net_faults = Some(it.next().ok_or("--net-faults needs W:kind@BYTES[!][;...]")?);
            }
            "--net-kill" => {
                net_kill = Some(it.next().ok_or("--net-kill needs W@BYTES")?);
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let file = file.ok_or("missing input file")?;
    let sequential = scheme_name == "seq";
    let tracing = show_trace || trace_out.is_some();
    let profiling = show_profile || profile_json.is_some();
    // The usage rules, in the order they are checked: when one is broken,
    // and what the user is told.
    let usage = [
        (workers == 0, "--workers must be at least 1"),
        // N workers keep 2·N² per-link counters and start N threads or processes.
        (workers > 1024, "--workers must be at most 1024"),
        (sim && sequential, "--sim needs a parallel scheme (try --scheme example3)"),
        ((seed != 0 || faults != "none") && !sim, "--seed/--faults only make sense with --sim"),
        (tracing && sequential, "--trace/--trace-out need a parallel scheme (the journal records worker events)"),
        (profiling && sequential, "--profile/--profile-json need a parallel scheme (phase timers live in the workers)"),
        (
            max_restarts.is_some() && sequential,
            "--max-restarts needs a parallel scheme (it sizes the supervisor's restart budget)",
        ),
        (net && sim, "--net and --sim are exclusive: pick OS processes or the simulator"),
        (net && sequential, "--net needs a parallel scheme (try --scheme example3)"),
        (!net && (net_faults.is_some() || net_kill.is_some()), "--net-faults/--net-kill only make sense with --net"),
        (
            updates.is_some() && sequential,
            "--updates needs a parallel scheme (the maintained view lives in the workers; \
             use --scheme general --workers 1 for a single-process session)",
        ),
        (updates.is_some() && tracing, "--trace covers a single fixpoint; it does not compose with --updates"),
        (updates.is_some() && profiling, "--profile covers a single fixpoint; it does not compose with --updates"),
        (explain_rewrite && query.is_none(), "--explain-rewrite needs --query (it prints the magic-sets rewrite)"),
        (
            query.is_some() && print_pred.is_some(),
            "--query prints only the goal's answers; it does not compose with --print",
        ),
        (
            query.is_some() && updates.is_some(),
            "--query runs one demand-bounded fixpoint; it does not compose with --updates \
             (apply updates through the library's UpdateSession instead)",
        ),
        (
            query.is_some() && !sequential && scheme_name != "general",
            "query mode supports --scheme seq or general (the magic program runs \
             under the demand-partitioned §7 scheme)",
        ),
    ];
    if let Some((_, message)) = usage.iter().find(|(broken, _)| *broken) {
        return Err(message.to_string());
    }
    let (program, mut db, file_queries) = load(&file)?;
    let interner = program.interner.clone();

    let goal = match &query {
        None => None,
        Some(Some(src)) => Some(parse_goal(src, &program)?),
        Some(None) => Some(
            file_queries
                .first()
                .cloned()
                .ok_or("--query with no goal needs a `?- goal.` line in the program file")?,
        ),
    };
    // `--query`: magic-sets rewrite (DESIGN.md §15). The rewritten
    // program is plain Datalog, so everything downstream — schemes,
    // transports, recovery, profiling — runs it unchanged; only the
    // partitioning choice (demand keys) and the printed relation differ.
    // A goal the rewrite refuses — a base relation, or no bound argument —
    // runs the program as a plain `run` does, and its relation is
    // filtered by the goal below.
    let query_ctx = match &goal {
        None => None,
        Some(goal) => match parallel_datalog::frontend::magic_rewrite(&program, goal) {
            Ok(rw) if explain_rewrite => {
                print!("{}", rw.explain());
                return Ok(());
            }
            Ok(rw) => Some(rw),
            Err(e) if explain_rewrite => return Err(e.to_string()),
            Err(_) => None,
        },
    };
    let print_pred = match (&goal, &query_ctx) {
        (Some(goal), None) => Some((interner.resolve(goal.predicate).to_string(), goal.terms.len())),
        _ => print_pred,
    };

    // In query mode the executed program is the magic program. Its demand
    // seed goes where the program runs — into `db` for `seq`, into
    // the workers' fragments by `compile_demand` — so `program` and `db`
    // stay the originals a `--stats` full-closure baseline runs on.
    let executed = query_ctx.as_ref().map_or(&program, |rw| &rw.program);

    // Resolve what to print: the query's answer relation (under the
    // original predicate name), else explicit --print, else every
    // derived pred.
    let print_ids: Vec<(String, (gst_common::SymbolId, usize))> = match (&query_ctx, &print_pred)
    {
        (Some(rw), _) => {
            let name = interner.resolve(rw.query.predicate);
            vec![(
                format!("{name}/{}", rw.query.terms.len()),
                (rw.answer.name, rw.answer.arity),
            )]
        }
        (None, Some((name, arity))) => {
            // Every arity the name is used with, in rules or in facts.
            let sym = interner.get(name);
            let known: Vec<(gst_common::SymbolId, usize)> = program
                .predicates()
                .iter()
                .map(|p| (p.name, p.arity))
                .chain(db.iter().map(|(id, _)| *id))
                .filter(|(s, _)| Some(*s) == sym)
                .collect();
            match known.iter().find(|(_, a)| a == arity) {
                Some(&id) => vec![(format!("{name}/{arity}"), id)],
                None if known.is_empty() => return Err(format!("unknown predicate `{name}`")),
                None => {
                    return Err(format!(
                        "{name}/{arity}: `{name}` has arity {}",
                        known[0].1
                    ))
                }
            }
        }
        (None, None) => program
            .derived_predicates()
            .iter()
            .map(|p| (p.display(&interner), (p.name, p.arity)))
            .collect(),
    };

    let started = std::time::Instant::now();
    let (relations, stats_line, stats_tables): (Vec<(String, Relation)>, String, String) = match scheme_name
        .as_str()
    {
        "seq" => {
            // Query mode: the work the rewrite avoided, against a
            // full-closure run of the original program.
            let full = match (&query_ctx, show_stats) {
                (Some(_), true) => Some(seminaive_eval(&program, &db).map_err(|e| e.to_string())?),
                _ => None,
            };
            if let Some(rw) = &query_ctx {
                let seed = (rw.seed_predicate.name, rw.seed_predicate.arity);
                db.insert(seed, rw.seed_fact.clone()).map_err(|e| e.to_string())?;
            }
            let mut result = seminaive_eval(executed, &db).map_err(|e| e.to_string())?;
            let rels = take_printed(&print_ids, &mut result.idb);
            let mut line = format!(
                "rounds={} firings={} derived={} duplicates={}",
                result.stats.rounds,
                result.stats.firings,
                result.stats.derived,
                result.stats.duplicates
            );
            if let Some(full) = full {
                let ratio = if full.stats.firings > 0 {
                    result.stats.firings as f64 / full.stats.firings as f64
                } else {
                    0.0
                };
                line.push_str(&format!(
                    " demand_ratio={ratio:.4} firings_full={}",
                    full.stats.firings
                ));
            }
            (rels, line, String::new())
        }
        parallel => {
            let scheme = match &query_ctx {
                // Demand-keyed partitioning: every magic/adorned rule
                // discriminates on its magic guard's columns, so demand
                // tuples route to the worker owning the matching data.
                Some(rw) => compile_demand(rw, &db, workers).map_err(|e| e.to_string())?,
                None => build_scheme(parallel, &program, &db, workers)?,
            };
            let mut config = RuntimeConfig::default();
            config.worker.profile = profiling;
            if let Some(budget) = max_restarts {
                config.supervisor.max_restarts = budget;
            }
            config.trace = tracing;
            // The one place the transport is chosen; the batch path and
            // the `--updates` path both run on it.
            let sim_transport = if sim {
                let plan = FaultPlan::parse(&faults).map_err(|e| e.to_string())?;
                Some(SimTransport::with_faults(seed, plan))
            } else {
                None
            };
            let net_transport = if net {
                Some(build_net_coordinator(
                    net_faults.as_deref(),
                    net_kill.as_deref(),
                )?)
            } else {
                None
            };
            let transport: &dyn Transport = match (&sim_transport, &net_transport) {
                (Some(sim), _) => sim,
                (None, Some(net)) => net,
                (None, None) => &ThreadedTransport,
            };
            if let Some(upath) = &updates {
                let stream = std::fs::read_to_string(upath)
                    .map_err(|e| format!("cannot read {upath}: {e}"))?;
                let batches = parse_updates(&stream, &program)?;
                let mut session =
                    UpdateSession::new(&scheme, &program, &db).map_err(|e| e.to_string())?;
                session
                    .initialize(transport, &config)
                    .map_err(|e| e.to_string())?;
                for batch in &batches {
                    let report = session
                        .apply(batch, transport, &config)
                        .map_err(|e| e.to_string())?;
                    if show_stats {
                        eprintln!(
                            "% round {}: +{} -{} overdeleted={} rederived={}",
                            report.round,
                            report.inserted_base,
                            report.deleted_base,
                            report.overdeleted,
                            report.rederive_seeds
                        );
                    }
                }
                let (mut sent, mut retracts, mut messages) = (0u64, 0u64, 0u64);
                let (mut restarts, mut reconnects) = (0u64, 0u64);
                for report in session.reports() {
                    for phase in report.phase_a.iter().chain(report.phase_b.iter()) {
                        sent += phase.total_tuples_sent();
                        retracts += phase.total_retract_tuples_sent();
                        messages += phase.total_messages();
                        restarts += phase.restarts;
                        reconnects += phase.reconnects;
                    }
                }
                let mode = if sim {
                    format!(" sim seed={seed} faults={faults}")
                } else if net {
                    format!(" net reconnects={reconnects}")
                } else {
                    String::new()
                };
                let recovery = if restarts > 0 {
                    format!(" restarts={restarts}")
                } else {
                    String::new()
                };
                let rels = print_ids
                    .iter()
                    .map(|(label, id)| (label.clone(), session.answer(*id)))
                    .collect();
                return finish_run(
                    rels,
                    format!(
                        "processors={} update_rounds={} tuples_sent={} retract_tuples_sent={} messages={}{recovery}{mode}",
                        scheme.processors(),
                        session.rounds().saturating_sub(1),
                        sent,
                        retracts,
                        messages
                    ),
                    String::new(),
                    &interner,
                    &scheme_name,
                    show_stats,
                    started,
                );
            }
            let mut outcome = match &sim_transport {
                // A failed simulated run still has a journal, and it shows
                // the fault that killed it.
                Some(sim) if config.trace => {
                    let (result, journal) = sim.run_traced(scheme.workers.clone(), &config);
                    result.map_err(|e| {
                        eprint!("{journal}");
                        e.to_string()
                    })?
                }
                _ => transport
                    .execute(scheme.workers.clone(), &config)
                    .map_err(|e| e.to_string())?,
            };
            if show_trace {
                eprint!("{}", outcome.journal);
            }
            if let Some(path) = &trace_out {
                write_text(path, &outcome.journal.chrome_trace())?;
            }
            if profiling {
                use parallel_datalog::runtime::{ProfileReport, TimeBase};
                // Sim profiles count deterministic work proxies (virtual
                // ticks); threaded and net profiles count wall micros.
                let base = if sim { TimeBase::VirtualTicks } else { TimeBase::WallMicros };
                match ProfileReport::build(&outcome.stats, base) {
                    Some(report) => {
                        // Magic/adorned rules keep their source indices in
                        // the processor program, so the rewrite's
                        // provenance labels line up.
                        let report = match &query_ctx {
                            Some(rw) => report.with_rule_labels(
                                rw.rules.iter().map(|info| info.label()).collect(),
                            ),
                            None => report,
                        };
                        if show_profile {
                            for line in report.render_human().lines() {
                                eprintln!("% {line}");
                            }
                        }
                        if let Some(path) = &profile_json {
                            write_text(path, &report.to_json())?;
                        }
                    }
                    None => eprintln!("% profile: no worker reported phase timers"),
                }
            }
            let mode = if sim {
                format!(" sim seed={seed} faults={faults}")
            } else if net {
                format!(
                    " net reconnects={} relay_bytes={}",
                    outcome.stats.reconnects, outcome.stats.relay_bytes
                )
            } else {
                String::new()
            };
            let recovery = if outcome.stats.restarts > 0 {
                format!(
                    " restarts={} replayed={} stale_dropped={}",
                    outcome.stats.restarts,
                    outcome.stats.total_replayed_batches(),
                    outcome.stats.total_stale_dropped()
                )
            } else {
                String::new()
            };
            // Per-worker firing balance (max/mean), plus the plan `general`
            // ran.
            let extra = {
                let mut s = format!(
                    " firing_skew={:.2} utilization={:.2}",
                    outcome.stats.firing_skew(),
                    outcome.stats.utilization()
                );
                if parallel == "general" && query_ctx.is_none() {
                    // Which plan this was: the sequences `build_scheme` keyed
                    // the rules on (a pure function of the program).
                    let v: Vec<String> = choose_sequences(&program).iter().map(|v| sequence(v, &interner)).collect();
                    s.push_str(&format!(" v={}", v.join(",")));
                }
                s
            };
            // Query mode: quantify the work and traffic the rewrite
            // avoided against a full-closure parallel run (threaded §7
            // scheme on the original program, same worker count).
            let extra = match (&query_ctx, show_stats) {
                (Some(_), true) => {
                    let full = build_scheme("general", &program, &db, workers)?
                        .run()
                        .map_err(|e| e.to_string())?;
                    let (mf, ff) =
                        (outcome.stats.total_firings(), full.stats.total_firings());
                    let (mb, fb) =
                        (outcome.stats.total_bytes_sent(), full.stats.total_bytes_sent());
                    let ratio = if ff > 0 { mf as f64 / ff as f64 } else { 0.0 };
                    format!(
                        "{extra} demand_ratio={ratio:.4} firings={mf}/{ff} bytes={mb}/{fb}"
                    )
                }
                _ => extra,
            };
            // What final pooling did with each answer predicate's shards:
            // the lookup `pool_into` itself acted on.
            let kinds = shard_kinds(&scheme.workers).map_err(|e| e.to_string())?;
            let pooled: Vec<String> = scheme
                .answers
                .iter()
                .map(|answer| {
                    let how = match kinds.get(answer) {
                        Some(Shards::Partition) if scheme.processors() > 1 => "append",
                        Some(Shards::Overlap) if scheme.processors() > 1 => "union",
                        _ => "move",
                    };
                    format!("{}/{}:{how}", program.interner.resolve(answer.0), answer.1)
                })
                .collect();
            let rels = take_printed(&print_ids, &mut outcome.relations);
            let tables = if show_stats {
                format!(
                    "{}{}{}",
                    render_channel_matrix(&outcome.stats.channel_matrix),
                    render_wire_table(&outcome.stats),
                    render_busy_table(&outcome.stats)
                )
            } else {
                String::new()
            };
            // `compile_demand` lowers N only for a one-key demand plan.
            let processors = match scheme.processors() {
                n if n < workers => format!("{n} of {workers} (one demand key)"),
                n => n.to_string(),
            };
            (
                rels,
                format!(
                    "processors={processors} tuples_sent={} messages={} processing_firings={} wall={:?} pooling={:?} pooled={}{extra}{recovery}{mode}",
                    outcome.stats.total_tuples_sent(),
                    outcome.stats.total_messages(),
                    outcome.stats.total_processing_firings(),
                    outcome.stats.wall_time,
                    outcome.stats.pooling_time,
                    pooled.join(",")
                ),
                tables,
            )
        }
    };
    // Keep exactly the tuples matching the goal: the adorned relation also
    // holds answers for transitively demanded bindings, and a refused goal
    // printed its whole relation. A base relation's tuples are its facts.
    let relations = match &goal {
        Some(goal) => relations
            .into_iter()
            .map(|(label, rel)| {
                let rel = match db.relation((goal.predicate, goal.terms.len())) {
                    Some(facts) if !program.is_derived(goal.pred()) => facts,
                    _ => &rel,
                };
                let answers = rel.iter().filter(|t| goal.matches(t)).cloned().collect();
                Ok((label, Relation::from_distinct(rel.arity(), answers)?))
            })
            .collect::<Result<_>>()
            .map_err(|e| e.to_string())?,
        None => relations,
    };
    finish_run(
        relations,
        stats_line,
        stats_tables,
        &interner,
        &scheme_name,
        show_stats,
        started,
    )
}

/// Parse a goal atom like `anc(1, X)` against a program's interner, so
/// its constants unify with the program's symbols. A goal is one atom: a
/// conjunction, a comparison or a further clause is refused.
fn parse_goal(goal_src: &str, program: &Program) -> std::result::Result<Atom, String> {
    parse_atom_with(goal_src, &program.interner).map_err(|e| format!("bad goal `{goal_src}` (a goal is one atom): {e}"))
}

/// Build the TCP coordinator behind `--net`: this very binary re-executed
/// in `net-worker` mode, one process per worker, over loopback.
fn build_net_coordinator(
    net_faults: Option<&str>,
    net_kill: Option<&str>,
) -> std::result::Result<parallel_datalog::runtime::NetCoordinator, String> {
    use parallel_datalog::runtime::{KillSpec, NetConfig, NetCoordinator, NetFaultPlan, ProcessLauncher};
    let program = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable for worker spawns: {e}"))?;
    let launcher = ProcessLauncher { program, prefix: vec!["net-worker".into()] };
    let mut coordinator = NetCoordinator::new(Arc::new(launcher), NetConfig::default());
    if let Some(plan) = net_faults {
        coordinator =
            coordinator.with_faults(NetFaultPlan::parse(plan).map_err(|e| e.to_string())?);
    }
    if let Some(spec) = net_kill {
        coordinator = coordinator.with_kill(KillSpec::parse(spec).map_err(|e| e.to_string())?);
    }
    Ok(coordinator)
}

/// `pdatalog net-worker --connect IP:PORT --index I ...` — the worker
/// mode `--net` coordinators spawn. Connects back, receives its job over
/// the socket, runs the fixpoint, and ships its pooled slice; never
/// invoked by hand except to debug the handshake.
fn cmd_net_worker(args: Vec<String>) -> std::result::Result<(), String> {
    let parsed = parallel_datalog::runtime::NetWorkerArgs::parse(&args)
        .map_err(|e| format!("{e}\n{}", usage()))?;
    parallel_datalog::runtime::run_net_worker(
        &parsed,
        Some(parallel_datalog::core::prelude::decode_constraint),
    )
    .map_err(|e| e.to_string())
}

/// Move the relations to print out of a finished run's answer (empty
/// where nothing was derived) — the answer is not copied to be printed.
fn take_printed(
    print_ids: &[(String, (gst_common::SymbolId, usize))],
    relations: &mut gst_common::FxHashMap<(gst_common::SymbolId, usize), Relation>,
) -> Vec<(String, Relation)> {
    let take = |(label, id): &(String, _)| (label.clone(), relations.remove(id).unwrap_or_else(|| Relation::new(id.1)));
    print_ids.iter().map(take).collect()
}

/// Shared tail of `cmd_run`: print the relations and the stats footer.
#[allow(clippy::too_many_arguments)]
fn finish_run(
    relations: Vec<(String, Relation)>,
    stats_line: String,
    stats_tables: String,
    interner: &Interner,
    scheme_name: &str,
    show_stats: bool,
    started: std::time::Instant,
) -> std::result::Result<(), String> {
    let elapsed = started.elapsed();
    // A reader that closes the pipe early (`… --print anc/2 | head -1`)
    // ends the printing, not the run: the footer still goes to stderr
    // and the exit status stays 0.
    match print_relations(&relations, interner) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => return Err(format!("cannot write the answer: {e}")),
        _ => {}
    }
    if show_stats {
        eprintln!("% scheme={scheme_name} {stats_line} total={elapsed:?}{}", memory_fields());
        eprint!("{stats_tables}");
    }
    Ok(())
}

/// ` minflt=N hwm=X.XMiB`: the minor page faults this process has taken
/// and its resident high-water mark, read from `/proc/self`; empty where
/// `/proc` does not have them.
fn memory_fields() -> String {
    let read = |file| std::fs::read_to_string(format!("/proc/self/{file}")).ok();
    // Field 10 of `stat`; the command name before it is parenthesised
    // and may hold spaces.
    let minflt = read("stat").and_then(|s| s.rsplit_once(')')?.1.split_whitespace().nth(7)?.parse::<u64>().ok());
    let hwm_kib = read("status").and_then(|s| {
        let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
        line.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
    });
    match (minflt, hwm_kib) {
        (Some(faults), Some(kib)) => format!(" minflt={faults} hwm={:.1}MiB", kib as f64 / 1024.0),
        _ => String::new(),
    }
}

/// Write `% pred/arity: N tuples` and the sorted facts of each relation
/// through one buffer over the locked stdout, flushed once — a lock and,
/// into a pipe, a `write(2)` per line cost more than evaluating. A fact is
/// written byte by byte and an integer by [`write_int`], not by `write!`,
/// which took two thirds of printing a point query's answer (EXPERIMENTS.md
/// P33).
fn print_relations(relations: &[(String, Relation)], interner: &Interner) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::with_capacity(1 << 16, std::io::stdout().lock());
    for (label, rel) in relations {
        writeln!(out, "% {label}: {} tuples", rel.len())?;
        let name = label.split('/').next().unwrap_or(label);
        let mut rows: Vec<&gst_common::Tuple> = rel.iter().collect();
        rows.sort_unstable();
        for t in rows {
            out.write_all(name.as_bytes())?;
            out.write_all(b"(")?;
            for (k, v) in t.iter().enumerate() {
                if k > 0 {
                    out.write_all(b", ")?;
                }
                match v {
                    Value::Int(n) => write_int(&mut out, n)?,
                    Value::Sym(s) => out.write_all(pretty::symbol(&interner.resolve(s)).as_bytes())?,
                }
            }
            out.write_all(b").\n")?;
        }
    }
    out.flush()
}

/// Write `n` in decimal, the bytes `{n}` formats to.
fn write_int(out: &mut impl std::io::Write, n: i64) -> std::io::Result<()> {
    // `i64::MIN` is a sign and 19 digits; the sign is the byte before the
    // first digit written.
    let (mut digits, mut at, mut rest) = ([b'-'; 20], 20, n.unsigned_abs());
    while at == 20 || rest > 0 {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    out.write_all(&digits[at - usize::from(n < 0)..])
}

/// Parse an `--updates` stream: one `+fact(…).`, `-fact(…).`, or
/// `commit.` directive per line (`%` and `//` comments, trailing `.`
/// optional). A directive is read by the program's lexer and parser, so a
/// `%` inside a quoted string is part of the string. Each `commit` closes
/// one [`UpdateBatch`]; a trailing uncommitted group becomes a final
/// implicit batch.
fn parse_updates(
    src: &str,
    program: &Program,
) -> std::result::Result<Vec<UpdateBatch>, String> {
    use parallel_datalog::frontend::lexer::{tokenize, TokenKind};
    let mut batches = Vec::new();
    let mut current = UpdateBatch::default();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_start();
        let (insert, fact_src) = match line.as_bytes().first() {
            Some(b'+') => (true, &line[1..]),
            Some(b'-') => (false, &line[1..]),
            // Anything else is blank, a comment, or `commit`.
            _ => {
                let kinds: Vec<TokenKind> = tokenize(line).map_or_else(|_| Vec::new(), |ts| ts.iter().map(|t| t.kind).collect());
                match kinds.as_slice() {
                    [TokenKind::Eof] => {}
                    [TokenKind::Ident("commit"), TokenKind::Eof] | [TokenKind::Ident("commit"), TokenKind::Dot, TokenKind::Eof] => {
                        if !current.is_empty() {
                            batches.push(std::mem::take(&mut current));
                        }
                    }
                    _ => {
                        return Err(format!(
                            "updates line {lineno}: expected `+fact(…)`, `-fact(…)`, or `commit`, got `{raw}`"
                        ))
                    }
                }
                continue;
            }
        };
        // The fact parses alone over the program's interner, so its
        // constants unify with the program's symbols.
        let atom = parse_atom_with(fact_src, &program.interner).map_err(|e| format!("updates line {lineno}: {e}"))?;
        let tuple = Tuple::try_from_values(atom.terms.iter().map(Term::as_const));
        let tuple = tuple.ok_or_else(|| format!("updates line {lineno}: a fact must be ground, got `{}`", fact_src.trim()))?;
        let batch = if insert { &mut current.inserts } else { &mut current.deletes };
        batch.push(((atom.predicate, atom.terms.len()), tuple));
    }
    if !current.is_empty() {
        batches.push(current);
    }
    Ok(batches)
}

/// Write a text artifact (trace JSON, profile JSON, metrics), creating
/// parent directories as needed.
fn write_text(path: &str, text: &str) -> std::result::Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Per-worker wall-clock busy time (time spent inside `step`, measured
/// identically on every transport) against the slowest worker.
fn render_busy_table(stats: &parallel_datalog::runtime::ParallelStats) -> String {
    use std::fmt::Write;
    let max = stats.workers.iter().map(|w| w.busy).max().unwrap_or_default();
    if max.is_zero() {
        return String::new();
    }
    let mut out = String::from("% worker busy (wall time inside step; 100% = slowest worker):\n");
    for w in &stats.workers {
        let pct = 100.0 * w.busy.as_secs_f64() / max.as_secs_f64();
        let _ = writeln!(
            out,
            "% {:>6} {:>12?} {:>5.1}%",
            format!("w{}", w.processor),
            w.busy,
            pct
        );
    }
    let _ = writeln!(
        out,
        "% {:>6} utilization={:.2} (mean busy / max busy)",
        "total",
        stats.utilization()
    );
    out
}

/// The `channel_matrix[i][j]` table: rows are senders, columns receivers.
fn render_channel_matrix(matrix: &[Vec<u64>]) -> String {
    use std::fmt::Write;
    let mut out = String::from("% channel matrix (tuples sender -> receiver):\n");
    let width = matrix
        .iter()
        .flatten()
        .map(|v| v.to_string().len())
        .max()
        .unwrap_or(1)
        .max(format!("->w{}", matrix.len().saturating_sub(1)).len());
    let _ = write!(out, "% {:>6}", "");
    for j in 0..matrix.len() {
        let _ = write!(out, " {:>width$}", format!("->w{j}"));
    }
    out.push('\n');
    for (i, row) in matrix.iter().enumerate() {
        let _ = write!(out, "% {:>6}", format!("w{i}"));
        for &v in row {
            let _ = write!(out, " {v:>width$}");
        }
        out.push('\n');
    }
    out
}

/// Per-worker wire-codec effectiveness: how many times each worker ran
/// the columnar encoder (one per shared channel per round, not one
/// per destination), the encoded bytes it shipped, and the compression
/// ratio versus the row-format wire cost of the same tuples.
fn render_wire_table(stats: &parallel_datalog::runtime::ParallelStats) -> String {
    use std::fmt::Write;
    if stats.total_encode_calls() == 0 {
        return String::new();
    }
    let mut out =
        String::from("% wire codec (encodes = one per shared channel, ratio = row-format/encoded):\n");
    let _ = writeln!(
        out,
        "% {:>6} {:>8} {:>12} {:>12} {:>7}",
        "", "encodes", "bytes", "raw bytes", "ratio"
    );
    for w in &stats.workers {
        let ratio = if w.encoded_bytes > 0 {
            w.encoded_raw_bytes as f64 / w.encoded_bytes as f64
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "% {:>6} {:>8} {:>12} {:>12} {:>6.2}x",
            format!("w{}", w.processor),
            w.encode_calls,
            w.encoded_bytes,
            w.encoded_raw_bytes,
            ratio
        );
    }
    let _ = writeln!(
        out,
        "% {:>6} {:>8} {:>12} {:>12} {:>6.2}x",
        "total",
        stats.total_encode_calls(),
        stats.total_encoded_bytes(),
        stats.workers.iter().map(|w| w.encoded_raw_bytes).sum::<u64>(),
        stats.compression_ratio()
    );
    out
}

fn build_scheme(
    name: &str,
    program: &Program,
    db: &Database,
    workers: usize,
) -> std::result::Result<parallel_datalog::core::schemes::CompiledScheme, String> {
    use parallel_datalog::core::schemes::BaseDistribution;
    let err = |e: Error| e.to_string();
    let sirup = || LinearSirup::from_program(program).map_err(err);
    match name {
        "example1" => example1_wolfson(&sirup()?, workers, db).map_err(err),
        "example2" => {
            let sirup = sirup()?;
            let source = sirup.source;
            let base = db
                .relation((source.name, source.arity))
                .ok_or("example2 needs facts for the base relation")?;
            let frag = round_robin_fragment(base, workers).map_err(err)?;
            example2_valduriez(&sirup, frag, db).map_err(err)
        }
        "example3" => example3_hash_partition(&sirup()?, workers, db).map_err(err),
        "nocomm" => {
            let sirup = sirup()?;
            // Split the exit substitutions on the first exit-body variable.
            let cfg = NoCommConfig {
                v_e: first_body_variable(sirup.exit_rule()),
                h_prime: Arc::new(HashMod::new(workers, 0xC11)),
            };
            rewrite_no_comm(&sirup, &cfg, db).map_err(err)
        }
        "general" => {
            let h: DiscriminatorRef = Arc::new(HashMod::new(workers, 0xC17));
            let choice = |v| RuleChoice { v, h: h.clone() };
            let choices: Vec<RuleChoice> = choose_sequences(program).into_iter().map(choice).collect();
            rewrite_general(program, &choices, db, BaseDistribution::Shared).map_err(err)
        }
        other => Err(format!("unknown scheme `{other}`")),
    }
}

/// `⟨X, Y⟩`.
fn sequence(v: &[Variable], interner: &Interner) -> String {
    let names: Vec<String> = v.iter().map(|v| v.name(interner)).collect();
    format!("⟨{}⟩", names.join(", "))
}

fn cmd_analyze(args: Vec<String>) -> std::result::Result<(), String> {
    let mut file = None;
    for arg in args {
        match arg {
            arg if !arg.starts_with('-') && file.is_none() => file = Some(arg),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let (program, db, _queries) = load(&file.ok_or("missing input file")?)?;
    let interner = program.interner.clone();

    println!("rules: {}", program.rules.len());
    println!("facts: {} tuples across {} relations", db.total_tuples(), db.relation_count());

    let analysis = ProgramAnalysis::new(&program).map_err(|e| e.to_string())?;
    println!(
        "base predicates:    {}",
        analysis
            .base()
            .iter()
            .map(|p| p.display(&interner))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "derived predicates: {}",
        analysis
            .derived()
            .iter()
            .map(|p| p.display(&interner))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for (k, rule) in program.rules.iter().enumerate() {
        println!(
            "rule {k}: {} [{}]",
            pretty::rule(rule, &interner),
            if analysis.is_recursive_rule(k) {
                "recursive"
            } else {
                "non-recursive"
            }
        );
    }

    // What `--scheme general` runs, and what its routes will do with the
    // rows each rule produces (§5's closing claim, for any program), read
    // off the placement table the rewrite builds. Which conditions the
    // placement implies depends on neither the processor count nor the
    // hash, only on `h` being one and shared.
    let chosen = choose_sequences(&program);
    let placement = placement(&program, &chosen);
    println!("discriminating sequences chosen for --scheme general:");
    for (k, v) in chosen.iter().enumerate() {
        let condition = match placement.implied(k) {
            Some((atom, columns)) => {
                let columns: Vec<String> = columns.iter().map(usize::to_string).collect();
                let (name, key) = (interner.resolve(atom.predicate), sequence(v, &interner));
                let plural = if columns.len() == 1 { "" } else { "s" };
                format!("condition implied by {name}_in (key {key} at column{plural} {})", columns.join(", "))
            }
            None => "filtered".into(),
        };
        println!("  v(r{k}) = {}: {condition}", sequence(v, &interner));
    }
    for pair in placement.pairs() {
        println!(
            "  r{} → {} in r{}: {}",
            pair.producer,
            pretty::atom(pair.atom, &interner),
            pair.consumer,
            format!("{:?}", pair.flow).to_lowercase()
        );
    }

    match LinearSirup::from_program(&program) {
        Err(e) => println!("linear sirup: no ({e})"),
        Ok(sirup) => {
            println!(
                "linear sirup: yes — t = {}, s = {}",
                sirup.target.display(&interner),
                sirup.source.display(&interner)
            );
            let graph = DataflowGraph::of(&sirup);
            println!("dataflow graph (Def. 2): {}", graph.display());
            match zero_comm_choice(&sirup) {
                Ok(choice) => println!(
                    "Theorem 3: communication-free with v(r) = {}, v(e) = {}",
                    sequence(&choice.v_r, &interner),
                    sequence(&choice.v_e, &interner)
                ),
                Err(_) => println!(
                    "Theorem 3: dataflow graph is acyclic — every discriminating choice \
                     may communicate"
                ),
            }
        }
    }
    Ok(())
}

fn cmd_network(args: Vec<String>) -> std::result::Result<(), String> {
    let mut file = None;
    let mut linear_coeffs: Option<Vec<i64>> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--linear" => {
                let spec = it.next().ok_or("--linear needs c1,c2,...")?;
                let coeffs: std::result::Result<Vec<i64>, _> =
                    spec.split(',').map(|c| c.trim().parse()).collect();
                linear_coeffs = Some(coeffs.map_err(|_| "bad --linear coefficients")?);
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let file = file.ok_or("missing input file")?;
    let (program, _db, _queries) = load(&file)?;
    let sirup = LinearSirup::from_program(&program).map_err(|e| e.to_string())?;

    // v(r) = variables of Ȳ; v(e) = variables of the exit head, by
    // position — the §5 examples' convention.
    let v_r: Vec<Variable> = sirup
        .recursive_args
        .iter()
        .filter_map(Term::as_var)
        .collect();
    let v_e: Vec<Variable> = sirup.exit_head.iter().filter_map(Term::as_var).collect();
    if v_r.len() != sirup.recursive_args.len() || v_e.len() != sirup.exit_head.len() {
        return Err("network derivation needs all-variable t-atoms".into());
    }

    let net = match linear_coeffs {
        Some(coeffs) => {
            if coeffs.len() != v_r.len() {
                return Err(format!(
                    "--linear needs exactly {} coefficients (the arity of v(r))",
                    v_r.len()
                ));
            }
            let h = Linear::new(BitFn::new(1), coeffs);
            println!(
                "linear function {}; P = {:?}",
                h.describe(),
                h.processor_values()
            );
            derive_network(&sirup, &v_r, &v_e, &h).map_err(|e| e.to_string())?
        }
        None => {
            let h = BitVector::new(BitFn::new(1), v_r.len());
            println!("bit-vector function {}; {} processors", h.describe(), {
                let d: &dyn Discriminator = &h;
                d.processors()
            });
            derive_network(&sirup, &v_r, &v_e, &h).map_err(|e| e.to_string())?
        }
    };
    let (have, possible) = net.density();
    println!("minimal network graph ({have} of {possible} channels):");
    println!("{}", net.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    /// The digit writer writes what `{n}` formats, at every digit count
    /// and both extremes.
    #[test]
    fn write_int_matches_display() {
        let powers = (0..19).map(|k| 10i64.pow(k));
        let near = powers.flat_map(|p| [p - 1, p, p + 1, -p - 1, -p, -p + 1]);
        for n in near.chain([i64::MIN, i64::MIN + 1, i64::MAX, 0, -1]) {
            let mut out = Vec::new();
            super::write_int(&mut out, n).unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), n.to_string());
        }
    }
}
