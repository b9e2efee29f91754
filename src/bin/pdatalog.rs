//! `pdatalog` — command-line front end for the parallel-datalog library.
//!
//! ```text
//! pdatalog run <file.dl> [--workers N] [--scheme S] [--skew-aware] [--morsels T]
//!                        [--query ["goal(…)"] [--explain-rewrite]]
//!                        [--print PRED/ARITY] [--stats]
//!                        [--max-restarts N] [--watchdog-ms MS] [--restart-backoff-ms MS]
//!                        [--trace] [--trace-out FILE]
//!                        [--profile] [--profile-json FILE] [--metrics-out FILE]
//!                        [--updates FILE]
//!                        [--sim [--seed N] [--faults PLAN]]
//!                        [--net [--net-faults PLAN] [--net-kill W@N] ...]
//! pdatalog net-worker --connect HOST:PORT --index I ...
//! pdatalog analyze <file.dl>
//! pdatalog network <file.dl> [--bits | --linear c1,c2,...]
//! ```
//!
//! Schemes for `run`: `seq` (semi-naive, default), `naive`, `example1`
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
//! fragments. Only the goal's answers print, under the original
//! predicate name. `--explain-rewrite` prints the rewritten program
//! (with provenance comments) instead of running it; `--stats` adds
//! `demand_ratio` — magic firings over a full-closure run's firings —
//! plus the firings/bytes avoided; `--profile` labels magic/adorned
//! rules in the hot-rule table (e.g. `anc^bf [magic r1]`).
//!
//! `--skew-aware` (with `--scheme example3`) samples EDB key frequencies
//! at compile time and splits hot keys across processors under the §6
//! `R_i` replication trade-off; `--morsels T` lets each worker fan large
//! semi-naive deltas across `T` threads (bit-identical results; see
//! DESIGN.md §13). `--stats` then also reports `hot_keys_split`,
//! `firing_skew` (max/mean per-worker firings) and morsel counters.
//!
//! `--trace` prints the unified event journal (rounds, sends, receives,
//! tokens, idles, recoveries) on stderr for any parallel run — threaded
//! or simulated. `--trace-out FILE` writes the same journal as Chrome
//! trace-event JSON, loadable in Perfetto or `chrome://tracing` (one
//! track per worker, rounds as spans). See DESIGN.md §9.
//!
//! `--profile` turns on per-phase time accounting in every worker
//! (compute, encode, decode, replay, idle) and prints a report on
//! stderr: per-worker phase totals, latency histograms, hot rules by
//! time, the per-round critical path (which worker was the straggler
//! and in which phase), and the largest idle gaps. `--profile-json
//! FILE` writes the same report as deterministic JSON (validated by
//! `trace_check --profile`); `--metrics-out FILE` writes
//! Prometheus-style text metrics. Threaded and `--net` profiles count
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
//! Timing knobs: `--heartbeat-ms` (ping cadence, default 1000),
//! `--heartbeat-timeout-ms` (silence before a link is declared dead,
//! default 20000), `--connect-timeout-ms` (total connect budget, default
//! 10000), `--connect-backoff-ms` (initial reconnect pause, doubled per
//! failure, default 50).
//!
//! Supervision knobs shared by every parallel transport: `--watchdog-ms`
//! aborts a worker passive that long without termination (default 30000 —
//! the backstop behind a lost peer), `--max-restarts` caps recoverable
//! restarts fleet-wide (default 1), and `--restart-backoff-ms` scales the
//! pause before each restart by the worker's restart count (default 10).
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

use std::process::ExitCode;
use std::sync::Arc;

use parallel_datalog::core::dataflow::{zero_comm_choice, DataflowGraph};
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
        "query" => cmd_query(it.collect()),
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
    "usage:\n  pdatalog run <file.dl> [--workers N] [--scheme seq|naive|example1|example2|example3|nocomm|general] [--query [\"goal(…)\"] [--explain-rewrite]] [--skew-aware] [--morsels T] [--print PRED/ARITY] [--stats] [--max-restarts N] [--watchdog-ms MS] [--restart-backoff-ms MS] [--trace] [--trace-out FILE] [--profile] [--profile-json FILE] [--metrics-out FILE] [--updates FILE] [--sim [--seed N] [--faults none|jitter|chaos[,k=v...][,crash=W@T[,recover]]]] [--net [--net-faults W:kind@BYTES[!][;...]] [--net-kill W@BYTES] [--heartbeat-ms MS] [--heartbeat-timeout-ms MS] [--connect-timeout-ms MS] [--connect-backoff-ms MS]]\n  pdatalog net-worker --connect HOST:PORT --index I [--incarnation K] [timing flags]\n  pdatalog query <file.dl> \"anc(1, X)\"\n  pdatalog analyze <file.dl>\n  pdatalog network <file.dl> [--bits | --linear c1,c2,...]\n\nsupervision defaults: --watchdog-ms 30000, --max-restarts 1, --restart-backoff-ms 10.\n--net runs one OS process per worker over loopback TCP (net-worker is the\nworker mode the coordinator re-executes); faults: delay|disconnect|truncate|garbage.\n\npoint queries (--query): magic-sets rewrite of the program toward the goal's\nbound arguments (constants), evaluated demand-first; `--query` alone takes the\ngoal from the file's `?- goal.` line, `--explain-rewrite` prints the rewritten\nprogram instead of running it, and `--stats` adds demand_ratio (magic firings /\nfull-closure firings). Schemes: seq, naive, or general (demand-partitioned).\n\nupdate files (--updates): one `+fact(…).`, `-fact(…).`, or `commit.` per line;\neach commit applies the group as one incrementally maintained batch.".into()
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
    let mut net_config = parallel_datalog::runtime::NetConfig::default();
    let mut watchdog: Option<std::time::Duration> = None;
    let mut restart_backoff: Option<std::time::Duration> = None;
    let mut skew_aware = false;
    let mut morsels = 1usize;
    let mut show_profile = false;
    let mut profile_json: Option<String> = None;
    let mut metrics_out: Option<String> = None;
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
    let next_ms = |flag: &str, it: &mut std::iter::Peekable<std::vec::IntoIter<String>>| {
        parsed(it, &format!("{flag} needs a duration in milliseconds")).map(std::time::Duration::from_millis)
    };

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
            "--skew-aware" => skew_aware = true,
            "--morsels" => {
                morsels = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t| t >= 1)
                    .ok_or("--morsels needs a thread count of at least 1")?;
            }
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
            "--metrics-out" => {
                metrics_out = Some(it.next().ok_or("--metrics-out needs a file path")?);
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
            "--heartbeat-ms" => net_config.heartbeat_interval = next_ms("--heartbeat-ms", &mut it)?,
            "--heartbeat-timeout-ms" => {
                net_config.heartbeat_timeout = next_ms("--heartbeat-timeout-ms", &mut it)?;
            }
            "--connect-timeout-ms" => {
                net_config.connect_timeout = next_ms("--connect-timeout-ms", &mut it)?;
            }
            "--connect-backoff-ms" => {
                net_config.connect_backoff = next_ms("--connect-backoff-ms", &mut it)?;
            }
            "--watchdog-ms" => watchdog = Some(next_ms("--watchdog-ms", &mut it)?),
            "--restart-backoff-ms" => restart_backoff = Some(next_ms("--restart-backoff-ms", &mut it)?),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let file = file.ok_or("missing input file")?;
    let sequential = matches!(scheme_name.as_str(), "seq" | "naive");
    let tracing = show_trace || trace_out.is_some();
    let profiling = show_profile || profile_json.is_some() || metrics_out.is_some();
    // The usage rules, in the order they are checked: when one is broken,
    // and what the user is told.
    let usage = [
        (workers == 0, "--workers must be at least 1"),
        (sim && sequential, "--sim needs a parallel scheme (try --scheme example3)"),
        ((seed != 0 || faults != "none") && !sim, "--seed/--faults only make sense with --sim"),
        (tracing && sequential, "--trace/--trace-out need a parallel scheme (the journal records worker events)"),
        (
            profiling && sequential,
            "--profile/--profile-json/--metrics-out need a parallel scheme (phase timers live in the workers)",
        ),
        (
            max_restarts.is_some() && sequential,
            "--max-restarts needs a parallel scheme (it sizes the supervisor's restart budget)",
        ),
        (
            (watchdog.is_some() || restart_backoff.is_some()) && sequential,
            "--watchdog-ms/--restart-backoff-ms need a parallel scheme (they tune the supervisor)",
        ),
        (skew_aware && scheme_name != "example3", "--skew-aware replaces example3's hash partition; use --scheme example3"),
        (morsels > 1 && sequential, "--morsels needs a parallel scheme (it threads each worker's engine)"),
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
            query.is_some() && skew_aware,
            "--skew-aware tunes example3's full-closure partition; query mode already \
             partitions on the demand key",
        ),
        (
            query.is_some() && !sequential && scheme_name != "general",
            "query mode supports --scheme seq, naive, or general (the magic program runs \
             under the demand-partitioned §7 scheme)",
        ),
    ];
    if let Some((_, message)) = usage.iter().find(|(broken, _)| *broken) {
        return Err(message.to_string());
    }
    let (program, mut db, file_queries) = load(&file)?;
    let interner = program.interner.clone();

    // `--query`: magic-sets rewrite (DESIGN.md §15). The rewritten
    // program is plain Datalog, so everything downstream — schemes,
    // transports, recovery, profiling — runs it unchanged; only the
    // partitioning choice (demand keys) and the printed relation differ.
    let query_ctx = match &query {
        None => None,
        Some(goal_src) => {
            let goal = match goal_src {
                Some(src) => parse_goal(src, &program)?,
                None => file_queries.first().cloned().ok_or(
                    "--query with no goal needs a `?- goal.` line in the program file",
                )?,
            };
            Some(
                parallel_datalog::frontend::magic_rewrite(&program, &goal)
                    .map_err(|e| e.to_string())?,
            )
        }
    };
    if let Some(rw) = &query_ctx {
        if explain_rewrite {
            print!("{}", rw.explain());
            return Ok(());
        }
    }

    // In query mode the executed program is the magic program. Its demand
    // seed goes where the program runs — into `db` for `seq`/`naive`, into
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
                        "--print {name}/{arity}: `{name}` has arity {}",
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
        "seq" | "naive" => {
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
            let mut result = if scheme_name == "seq" {
                seminaive_eval(executed, &db)
            } else {
                naive_eval(executed, &db)
            }
            .map_err(|e| e.to_string())?;
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
                None => build_scheme(parallel, &program, &db, workers, skew_aware)?,
            };
            let mut config = RuntimeConfig::default();
            config.worker.morsel_threads = morsels;
            config.worker.profile = profiling;
            if let Some(budget) = max_restarts {
                config.supervisor.max_restarts = budget;
            }
            if let Some(d) = watchdog {
                config.worker.idle_watchdog = d;
            }
            if let Some(d) = restart_backoff {
                config.supervisor.restart_backoff = d;
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
                    net_config,
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
                        if let Some(path) = &metrics_out {
                            write_text(path, &report.to_prometheus())?;
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
            // Per-worker firing balance (max/mean), plus the skew/morsel
            // counters when those features are engaged: hot_keys_split
            // comes from compile time, the morsel counters from the
            // workers' engines.
            let extra = {
                let firings: Vec<u64> = outcome
                    .stats
                    .workers
                    .iter()
                    .map(|w| w.processing_firings)
                    .collect();
                let max = firings.iter().copied().max().unwrap_or(0);
                let mean = firings.iter().sum::<u64>() as f64 / firings.len().max(1) as f64;
                let skew = if mean > 0.0 { max as f64 / mean } else { 0.0 };
                let mut s = format!(
                    " firing_skew={skew:.2} utilization={:.2}",
                    outcome.stats.utilization()
                );
                if skew_aware {
                    s.push_str(&format!(" hot_keys_split={}", scheme.hot_keys_split));
                } else if parallel == "general" && query_ctx.is_none() {
                    // Which plan this was: the sequences `build_scheme` keyed
                    // the rules on (a pure function of the program).
                    let v: Vec<String> = choose_sequences(&program).iter().map(|v| sequence(v, &interner)).collect();
                    s.push_str(&format!(" v={}", v.join(",")));
                }
                if morsels > 1 {
                    let runs: u64 =
                        outcome.stats.workers.iter().map(|w| w.eval.morsel_runs).sum();
                    let chunks: u64 =
                        outcome.stats.workers.iter().map(|w| w.eval.morsel_chunks).sum();
                    s.push_str(&format!(" morsel_runs={runs} morsel_chunks={chunks}"));
                }
                s
            };
            // Query mode: quantify the work and traffic the rewrite
            // avoided against a full-closure parallel run (threaded §7
            // scheme on the original program, same worker count).
            let extra = match (&query_ctx, show_stats) {
                (Some(_), true) => {
                    let full = build_scheme("general", &program, &db, workers, false)?
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
                        Some(Shards::Partition) if workers > 1 => "append",
                        Some(Shards::Overlap) if workers > 1 => "union",
                        _ => "move",
                    };
                    format!("{}/{}:{how}", program.interner.resolve(answer.0), answer.1)
                })
                .collect();
            let rels = take_printed(&print_ids, &mut outcome.relations);
            let tables = if show_stats {
                format!(
                    "{}{}{}{}",
                    render_channel_matrix(&outcome.stats.channel_matrix),
                    render_wire_table(&outcome.stats),
                    render_round_table(&outcome.stats),
                    render_busy_table(&outcome.stats)
                )
            } else {
                String::new()
            };
            (
                rels,
                format!(
                    "processors={} tuples_sent={} messages={} processing_firings={} wall={:?} pooling={:?} pooled={}{extra}{recovery}{mode}",
                    scheme.processors(),
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
    // The adorned relation also holds answers for transitively demanded
    // bindings; keep exactly the tuples matching the query's constants.
    let relations = match &query_ctx {
        Some(rw) => relations
            .into_iter()
            .map(|(label, rel)| {
                let answers = rel.iter().filter(|t| rw.answer_matches(t)).cloned().collect();
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

/// Parse a goal atom like `anc(1, X)` against a program's interner, by
/// wrapping it in a throwaway rule (so constants unify with the
/// program's symbols).
fn parse_goal(goal_src: &str, program: &Program) -> std::result::Result<Atom, String> {
    let wrapped = format!("goal__ :- {goal_src}.");
    let unit =
        parallel_datalog::frontend::parser::parse_program_with(&wrapped, &program.interner)
            .map_err(|e| format!("bad goal `{goal_src}`: {e}"))?;
    let goal = unit.program.rules[0].body_atoms().next().cloned();
    goal.ok_or_else(|| format!("bad goal `{goal_src}`: no atom"))
}

/// Build the TCP coordinator behind `--net`: this very binary re-executed
/// in `net-worker` mode, one process per worker, over loopback.
fn build_net_coordinator(
    net_config: parallel_datalog::runtime::NetConfig,
    net_faults: Option<&str>,
    net_kill: Option<&str>,
) -> std::result::Result<parallel_datalog::runtime::NetCoordinator, String> {
    use parallel_datalog::runtime::{KillSpec, NetCoordinator, NetFaultPlan, ProcessLauncher};
    let program = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable for worker spawns: {e}"))?;
    let launcher = ProcessLauncher { program, prefix: vec!["net-worker".into()] };
    let mut coordinator = NetCoordinator::new(Arc::new(launcher), net_config);
    if let Some(plan) = net_faults {
        coordinator =
            coordinator.with_faults(NetFaultPlan::parse(plan).map_err(|e| e.to_string())?);
    }
    if let Some(spec) = net_kill {
        coordinator = coordinator.with_kill(KillSpec::parse(spec).map_err(|e| e.to_string())?);
    }
    Ok(coordinator)
}

/// `pdatalog net-worker --connect HOST:PORT --index I ...` — the worker
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
        eprintln!("% scheme={scheme_name} {stats_line} total={elapsed:?}");
        eprint!("{stats_tables}");
    }
    Ok(())
}

/// Write `% pred/arity: N tuples` and the sorted facts of each relation
/// through one buffer over the locked stdout, flushed once — a lock and,
/// into a pipe, a `write(2)` per line cost more than evaluating.
fn print_relations(relations: &[(String, Relation)], interner: &Interner) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::with_capacity(1 << 16, std::io::stdout().lock());
    for (label, rel) in relations {
        writeln!(out, "% {label}: {} tuples", rel.len())?;
        let name = label.split('/').next().unwrap_or(label);
        let mut rows: Vec<&gst_common::Tuple> = rel.iter().collect();
        rows.sort();
        for t in rows {
            write!(out, "{name}(")?;
            for (k, v) in t.iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                match v {
                    Value::Int(n) => write!(out, "{sep}{n}")?,
                    Value::Sym(s) => write!(out, "{sep}{}", pretty::symbol(&interner.resolve(s)))?,
                }
            }
            out.write_all(b").\n")?;
        }
    }
    out.flush()
}

/// Parse an `--updates` stream: one `+fact(…).`, `-fact(…).`, or
/// `commit.` directive per line (`%` comments, trailing `.` optional).
/// Each `commit` closes one [`UpdateBatch`]; a trailing uncommitted
/// group becomes a final implicit batch.
fn parse_updates(
    src: &str,
    program: &Program,
) -> std::result::Result<Vec<UpdateBatch>, String> {
    let mut batches = Vec::new();
    let mut current = UpdateBatch::default();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('%').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let line = line.strip_suffix('.').unwrap_or(line).trim();
        if line == "commit" {
            if !current.is_empty() {
                batches.push(std::mem::take(&mut current));
            }
            continue;
        }
        let (insert, fact_src) = match line.chars().next() {
            Some('+') => (true, line[1..].trim()),
            Some('-') => (false, line[1..].trim()),
            _ => {
                return Err(format!(
                    "updates line {lineno}: expected `+fact(…)`, `-fact(…)`, or `commit`, got `{raw}`"
                ))
            }
        };
        // The fact parses alone over the program's interner, so its
        // constants unify with the program's symbols.
        let unit = parallel_datalog::frontend::parser::parse_program_with(&format!("{fact_src}."), &program.interner)
            .map_err(|e| format!("updates line {lineno}: {e}"))?;
        let [(pred, tuple)] = <[_; 1]>::try_from(unit.facts)
            .map_err(|_| format!("updates line {lineno}: expected one fact, got `{fact_src}`"))?;
        let batch = if insert { &mut current.inserts } else { &mut current.deletes };
        batch.push((pred.into(), tuple));
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

/// Per-round delta sizes: fresh tuples per worker per semi-naive round,
/// plus the channel tuples shipped that round (the §6 trade-off as a
/// time series).
fn render_round_table(stats: &parallel_datalog::runtime::ParallelStats) -> String {
    use std::fmt::Write;
    let rounds = stats
        .workers
        .iter()
        .map(|w| w.eval.per_round.len())
        .max()
        .unwrap_or(0);
    if rounds == 0 {
        return String::new();
    }
    let mut out = String::from("% per-round deltas (fresh tuples per worker, sent = shipped that round):\n");
    let _ = write!(out, "% {:>6}", "round");
    for w in &stats.workers {
        let _ = write!(out, " {:>8}", format!("w{}", w.processor));
    }
    let _ = writeln!(out, " {:>8}", "sent");
    for r in 0..rounds {
        let _ = write!(out, "% {r:>6}");
        let mut sent = 0u64;
        for w in &stats.workers {
            match w.eval.per_round.get(r) {
                Some(sample) => {
                    let _ = write!(out, " {:>8}", sample.fresh);
                }
                None => {
                    let _ = write!(out, " {:>8}", "-");
                }
            }
            sent += w
                .sent_per_round
                .iter()
                .filter(|(round, _)| *round == r as u64)
                .map(|(_, t)| t)
                .sum::<u64>();
        }
        let _ = writeln!(out, " {sent:>8}");
    }
    out
}

fn build_scheme(
    name: &str,
    program: &Program,
    db: &Database,
    workers: usize,
    skew_aware: bool,
) -> std::result::Result<parallel_datalog::core::schemes::CompiledScheme, String> {
    use parallel_datalog::core::schemes::BaseDistribution;
    let err = |e: Error| e.to_string();
    let sirup = || LinearSirup::from_program(program).map_err(err);
    if skew_aware {
        // Same discriminating choice as example3, but with EDB key
        // frequencies sampled at compile time and hot keys split across
        // processors (§6 R_i; DESIGN.md §13).
        return skew_aware_hash_partition(&sirup()?, workers, db, &SkewPolicy::default())
            .map_err(err);
    }
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

/// `pdatalog query file.dl "anc(1, X)"`: evaluate, then print the
/// bindings of the goal's variables (and `true`/`false` for ground
/// goals).
fn cmd_query(args: Vec<String>) -> std::result::Result<(), String> {
    let mut it = args.into_iter().filter(|a| !a.starts_with('-'));
    let file = it.next().ok_or("missing input file")?;
    let goal_src = it.next().ok_or("missing goal, e.g. \"anc(1, X)\"")?;
    let (program, db, _queries) = load(&file)?;
    let goal = parse_goal(&goal_src, &program)?;
    let goal_id = (goal.predicate, goal.terms.len());

    let result = seminaive_eval(&program, &db).map_err(|e| e.to_string())?;
    // The goal may name a base relation too.
    let relation = if result.idb.contains_key(&goal_id) {
        result.relation(goal_id)
    } else {
        db.relation(goal_id)
            .cloned()
            .ok_or_else(|| format!("unknown predicate in goal: {goal_src}"))?
    };

    // One column per distinct variable of the goal, at its first position.
    let mut columns: Vec<(usize, Variable)> = Vec::new();
    for (col, term) in goal.terms.iter().enumerate() {
        if let Term::Var(v) = term {
            if columns.iter().all(|(_, seen)| seen != v) {
                columns.push((col, *v));
            }
        }
    }
    let bindings_header: Vec<String> = columns.iter().map(|(_, v)| v.name(&program.interner)).collect();
    let answers: Vec<Vec<String>> = relation
        .sorted()
        .iter()
        .filter(|t| goal.matches(t))
        .map(|t| columns.iter().map(|&(col, _)| t.get(col).display(&program.interner)).collect())
        .collect();

    if bindings_header.is_empty() {
        println!("{}", if answers.is_empty() { "false" } else { "true" });
    } else if answers.is_empty() {
        println!("no answers");
    } else {
        println!("% {}", bindings_header.join(", "));
        for row in &answers {
            println!("{}", row.join(", "));
        }
        eprintln!("% {} answer(s)", answers.len());
    }
    Ok(())
}

fn cmd_analyze(args: Vec<String>) -> std::result::Result<(), String> {
    let file = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or("missing input file")?;
    let (program, db, _queries) = load(file)?;
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
    // rows each rule produces (§5's closing claim, for any program).
    let chosen = choose_sequences(&program);
    println!("discriminating sequences chosen for --scheme general:");
    for (k, v) in chosen.iter().enumerate() {
        println!("  v(r{k}) = {}", sequence(v, &interner));
    }
    for pair in predict(&program, &chosen) {
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
            "--bits" => linear_coeffs = None,
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
