//! `pdbench` — the benchmark behind `benchmark/run.sh` (see README.md).
//!
//! ```text
//! pdbench --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON result line
//! pdbench all        [--seed N] [--seconds S]                every workload, both modes, tables
//! pdbench selfcheck  [--seed N] [--seconds S]                two full sets, medians and gaps
//! ```
//!
//! `--smoke` (sizes ÷ 10, one repetition) and `--workers N` apply to all
//! three. The working directory must be the repository root.
//!
//! `all` and `selfcheck` run every (workload, mode) as a child `pdbench`
//! of the first form, and the end-to-end run in turn gets the answers it
//! checks against from a helper child (`pdbench expect`): the process
//! that forks the measured `pdatalog` children has to stay small, because
//! Linux seeds a child's `ru_maxrss` with its parent's resident set.
//! `pdbench reference` is the third helper: the fixed piece of work whose
//! duration every reported time is scaled by (see `reference.rs`).

mod child;
mod e2e;
mod gen;
mod json;
mod ladder;
mod metrics;
mod model;
mod reference;
mod span;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use e2e::Env;
use gen::{Workload, WORKLOADS};
use json::Json;
use metrics::{END_TO_END, EXACT, PER_LAYER};
use model::LineSet;

struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    workers: Option<usize>,
}

#[derive(PartialEq)]
enum Mode {
    /// The driver's contract: one workload, one result line.
    One,
    All,
    Selfcheck,
    /// Helper of the end-to-end run: print what each operation must print.
    Expect,
    /// Helper of the end-to-end run: the reference kernel, once.
    Reference,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::All,
        workload: None,
        seed: 42,
        seconds: 27.0,
        trace: false,
        smoke: false,
        workers: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "all" => args.mode = Mode::All,
            "selfcheck" => args.mode = Mode::Selfcheck,
            "expect" => args.mode = Mode::Expect,
            "reference" => args.mode = Mode::Reference,
            "--workload" => {
                args.workload = Some(value("a workload name")?);
                if args.mode == Mode::All {
                    args.mode = Mode::One;
                }
            }
            "--seed" => args.seed = value("an integer")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|_| "bad --seconds")?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--workers" => {
                let n: usize = value("a count")?.parse().map_err(|_| "bad --workers")?;
                args.workers = Some(n.max(1));
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn env(args: &Args) -> Result<Env, String> {
    if !std::path::Path::new("benchmark/Cargo.toml").exists() {
        return Err("run from the repository root (use benchmark/run.sh)".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let pdatalog = exe.with_file_name("pdatalog");
    if !pdatalog.exists() {
        return Err(format!(
            "{} not found: build both packages into one target directory (use benchmark/run.sh)",
            pdatalog.display()
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    Ok(Env {
        pdatalog,
        out,
        nproc,
        workers: args.workers.unwrap_or(nproc.min(4)),
        smoke: args.smoke,
    })
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    gen::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })
}

/// This executable again, with the flags every mode shares.
fn pdbench(args: &Args, env: &Env, mode: &[&str], w: &Workload) -> Result<Command, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(mode)
        .args(["--workload", w.name, "--seed", &args.seed.to_string()]);
    cmd.args(["--workers", &env.workers.to_string()]);
    if env.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

fn stdout_of(mut cmd: Command) -> Result<String, String> {
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{cmd:?} failed"));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// `pdbench expect`: one `count sum` line per content-checked operation.
fn run_expect(env: &Env, args: &Args) -> Result<bool, String> {
    let w = workload(args.workload.as_deref().ok_or("expect needs --workload")?)?;
    let prep = e2e::prepare(env, w, args.seed)?;
    let oracle = e2e::oracle_of(w, &prep.files.program)?;
    for set in e2e::expectations(&prep, &oracle)? {
        println!("{} {}", set.count, set.sum);
    }
    Ok(true)
}

fn expectations_from_helper(env: &Env, args: &Args, w: &Workload) -> Result<Vec<LineSet>, String> {
    stdout_of(pdbench(args, env, &["expect"], w)?)?
        .lines()
        .map(|line| {
            let (count, sum) = line.split_once(' ').ok_or("malformed expectation line")?;
            Ok(LineSet {
                count: count.parse().map_err(|_| "malformed expectation count")?,
                sum: sum.parse().map_err(|_| "malformed expectation sum")?,
            })
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

fn range(values: &[f64]) -> Json {
    Json::obj(vec![
        ("n", Json::Int(values.len() as i64)),
        (
            "median",
            if values.is_empty() {
                Json::Null
            } else {
                Json::Num(stats::median(values))
            },
        ),
        (
            "min",
            Json::Num(values.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        (
            "max",
            Json::Num(values.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
        ),
    ])
}

/// The driver's contract: the last line of stdout is one JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`. The line before
/// it says what was measured on (sizes, sample counts and ranges).
fn run_one(env: &Env, args: &Args) -> Result<bool, String> {
    let w = workload(args.workload.as_deref().expect("set with the mode"))?;
    let (values, correct, tally, samples, prep) = if args.trace {
        let prep = e2e::prepare(env, w, args.seed)?;
        let run = ladder::trace(env, &prep, args.seed, args.seconds)?;
        let spans = Json::obj(vec![("spans", run.tracer.to_json())]);
        let path = env.out.join("trace.json");
        std::fs::write(&path, spans.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        // A speed-up measured with more workers than cores is a statement
        // about the scheduler: refuse to make it (the counts stay).
        let refused = |name: &str| {
            env.workers > env.nproc && matches!(name, "cli.speedup_vs_seq" | "cli.break_even_n")
        };
        let values = run
            .metrics
            .into_iter()
            .filter(|(n, _)| !refused(n))
            .collect();
        (values, run.correct, run.tally, Json::Null, prep)
    } else {
        let prep = e2e::set_up(env, w, args.seed)?;
        let expect = expectations_from_helper(env, args, w)?;
        let run = e2e::measure(env, &prep, &expect, args.seconds)?;
        let values = run
            .metrics(&prep.setup_samples)
            .ok_or("no operation succeeded, so there is nothing to report")?;
        let samples = Json::obj(vec![
            ("setup_s", range(&prep.setup_samples)),
            ("wall_s", range(&run.wall_s)),
            ("seq_wall_s", range(&run.seq_wall_s)),
            ("cpu_s", range(&run.cpu_s)),
            ("peak_rss_mb", range(&run.peak_rss_mb)),
            ("op_p50_ms", range(&run.op_p50_ms)),
            ("op_p95_ms", range(&run.op_p95_ms)),
            // As measured, before scaling: what the host was doing.
            ("reference_kernel_s", range(&run.kernel_s)),
            ("unscaled_wall_s", range(&run.raw_wall_s)),
            ("unscaled_seq_wall_s", range(&run.raw_seq_wall_s)),
        ]);
        (values, true, run.tally, samples, prep)
    };
    let context = Json::obj(vec![
        ("workload", Json::str(w.name)),
        ("sizes", Json::str(prep.inputs.sizes.clone())),
        ("samples", samples),
    ]);
    println!("{}", context.render());
    let metrics = values
        .iter()
        .map(|&(name, value)| {
            let entry = Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(unit_of(name))),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct && tally.failed == 0)),
        ("attempted", Json::Int(tally.attempted.max(1) as i64)),
        ("failed", Json::Int(tally.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(true)
}

/// One child run read back: its result line and the context line before.
struct Outcome {
    result: Json,
    context: Json,
}

impl Outcome {
    fn value(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn count(&self, key: &str) -> f64 {
        self.result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Json::Bool(true))
    }

    fn fail_share(&self) -> f64 {
        self.count("failed") / self.count("attempted").max(1.0)
    }
}

fn run_child(env: &Env, args: &Args, w: &Workload, trace: bool) -> Result<Outcome, String> {
    let mut cmd = pdbench(args, env, &[], w)?;
    cmd.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    let stdout = stdout_of(cmd)?;
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().ok_or("a run printed nothing")?)?;
    let context = Json::parse(lines.next().ok_or("a run printed no context line")?)?;
    Ok(Outcome { result, context })
}

/// Both modes of every workload — one "set" — plus the spans recorded.
struct Set {
    rows: Vec<(&'static Workload, Outcome, Outcome)>,
    spans: Vec<Json>,
}

fn run_set(env: &Env, args: &Args) -> Result<Set, String> {
    let mut set = Set {
        rows: Vec::new(),
        spans: Vec::new(),
    };
    for w in &WORKLOADS {
        eprintln!("pdbench: {} …", w.name);
        let e = run_child(env, args, w, false)?;
        let t = run_child(env, args, w, true)?;
        // Each traced child leaves its own spans in out/trace.json.
        let path = env.out.join("trace.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(Json::Arr(spans)) = Json::parse(&text)?.get("spans") {
            set.spans.extend(spans.iter().cloned());
        }
        set.rows.push((w, e, t));
    }
    Ok(set)
}

fn set_ok(set: &Set) -> bool {
    set.rows.iter().all(|(_, e, t)| e.correct() && t.correct())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where, on what and with which inputs the numbers were taken.
fn provenance(env: &Env, args: &Args, set: &Set) -> Json {
    let per_workload = |key: &str| {
        Json::Obj(
            set.rows
                .iter()
                .map(|(w, e, _)| {
                    (
                        w.name.to_string(),
                        e.context.get(key).cloned().unwrap_or(Json::Null),
                    )
                })
                .collect(),
        )
    };
    Json::obj(vec![
        ("nproc", Json::Int(env.nproc as i64)),
        ("W", Json::Int(env.workers as i64)),
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("seed", Json::Int(args.seed as i64)),
        ("run_seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(env.smoke)),
        (
            "bootstrap_build_s",
            std::env::var("PDBENCH_BOOT_S")
                .ok()
                .and_then(|s| s.parse().ok())
                .map_or(Json::Null, Json::Num),
        ),
        ("sizes", per_workload("sizes")),
        // Repetitions behind each median: n, min and max per metric.
        ("reps", per_workload("samples")),
    ])
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

fn print_set(env: &Env, set: &Set) {
    println!("== end to end (tracing off; medians, see results.json for n, min and max) ==");
    for (w, e, _) in &set.rows {
        println!("{}", w.name);
        for (name, unit, _, _) in END_TO_END {
            println!(
                "  {name:<14} {:>12.4} {unit}",
                e.value(name).unwrap_or(f64::NAN)
            );
        }
        println!(
            "  {:<14} {:>12.4} ratio  ({} of {} runs failed)",
            "fail_share",
            e.fail_share(),
            e.count("failed"),
            e.count("attempted")
        );
    }
    println!("\n== per layer (traced run, in-process spans; medians over ladder passes) ==");
    print!("{:<28} {:<9}", "metric", "unit");
    for (w, _, _) in &set.rows {
        print!(" {:>13}", w.name);
    }
    println!();
    for (name, unit, _) in PER_LAYER {
        print!("{name:<28} {unit:<9}");
        for (_, _, t) in &set.rows {
            match t.value(name) {
                Some(v) if name == "cli.break_even_n" && v == 0.0 => print!(" {:>13}", "none"),
                Some(v) => print!(" {:>13}", format_value(v)),
                None => print!(" {:>13}", "refused"),
            }
        }
        println!();
    }
    if env.workers > env.nproc {
        println!(
            "\nW = {} > nproc = {}: cli.speedup_vs_seq and cli.break_even_n are refused (counts only).",
            env.workers, env.nproc
        );
    }
}

fn run_all(env: &Env, args: &Args) -> Result<bool, String> {
    let set = run_set(env, args)?;
    print_set(env, &set);
    let results = set
        .rows
        .iter()
        .map(|(w, e, t)| {
            Json::obj(vec![
                ("workload", Json::str(w.name)),
                (
                    "end_to_end",
                    e.result.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                ("fail_share", Json::Num(e.fail_share())),
                ("attempted", Json::Num(e.count("attempted"))),
                ("failed", Json::Num(e.count("failed"))),
                (
                    "per_layer",
                    t.result.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                ("traced_correct", Json::Bool(t.correct())),
            ])
        })
        .collect();
    let report = Json::obj(vec![
        ("provenance", provenance(env, args, &set)),
        ("results", Json::Arr(results)),
    ]);
    let write = |file: &str, json: &Json| {
        let path = env.out.join(file);
        std::fs::write(&path, json.pretty()).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("results.json", &report)?;
    write(
        "trace.json",
        &Json::obj(vec![("spans", Json::Arr(set.spans.clone()))]),
    )?;
    println!("\nwrote benchmark/out/results.json and benchmark/out/trace.json");
    Ok(set_ok(&set))
}

/// Two full sets of one build on one seed: per metric × workload both
/// medians and their relative gap. Fails if an end-to-end gap exceeds the
/// metric's bound, if an exact counter differs, or if anything was wrong.
fn run_selfcheck(env: &Env, args: &Args) -> Result<bool, String> {
    let first = run_set(env, args)?;
    let second = run_set(env, args)?;
    println!("{}", provenance(env, args, &first).pretty());
    let mut ok = set_ok(&first) && set_ok(&second);
    println!(
        "{:<13} {:<28} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "first", "second", "gap"
    );
    let gap = |a: f64, b: f64| {
        if a == b {
            0.0
        } else {
            (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
        }
    };
    for ((w, e1, t1), (_, e2, t2)) in first.rows.iter().zip(&second.rows) {
        let row = |name: &str, a: f64, b: f64, verdict: String| {
            println!(
                "{:<13} {name:<28} {:>14} {:>14} {:>7.1}%  {verdict}",
                w.name,
                format_value(a),
                format_value(b),
                gap(a, b) * 100.0
            );
        };
        for (name, _, _, bound) in END_TO_END {
            let (a, b) = (
                e1.value(name).unwrap_or(f64::NAN),
                e2.value(name).unwrap_or(f64::NAN),
            );
            let within = gap(a, b) <= bound;
            ok &= within;
            row(
                name,
                a,
                b,
                format!(
                    "{} {:.0}%",
                    if within { "within" } else { "EXCEEDS" },
                    bound * 100.0
                ),
            );
        }
        let failures =
            e1.count("failed") + e2.count("failed") + t1.count("failed") + t2.count("failed");
        let verdict = if failures == 0.0 {
            "none failed"
        } else {
            "FAILURES"
        };
        row(
            "fail_share",
            e1.fail_share(),
            e2.fail_share(),
            verdict.into(),
        );
        for (name, _, _) in PER_LAYER {
            let (Some(a), Some(b)) = (t1.value(name), t2.value(name)) else {
                continue;
            };
            let verdict = if !EXACT.contains(&name) {
                "not gated"
            } else if a == b {
                "exact"
            } else {
                ok = false;
                "DIFFERS"
            };
            row(name, a, b, verdict.into());
        }
    }
    println!("\nselfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.mode {
        // The kernel needs no environment, and starts as fast as it can.
        Mode::Reference => {
            println!("{}", reference::kernel());
            Ok(true)
        }
        Mode::One => run_one(&env(&args)?, &args),
        Mode::Expect => run_expect(&env(&args)?, &args),
        Mode::All => run_all(&env(&args)?, &args),
        Mode::Selfcheck => run_selfcheck(&env(&args)?, &args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("pdbench: a run failed, timed out or produced a wrong answer");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("pdbench: {message}");
            ExitCode::FAILURE
        }
    }
}
