//! The end-to-end set: spawn the release `pdatalog` binary once per
//! operation, closed loop, one child at a time, tracing off; read wall,
//! CPU and peak RSS from `wait4`; verify what it printed.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use gst_eval::seminaive_eval;
use gst_storage::Relation;

use crate::child::{self, ChildRun};
use crate::gen::{self, Files, Inputs, Kind, Workload};
use crate::model::{self, LineSet, Loaded};
use crate::reference::Clock;
use crate::stats::{median, percentile};

/// Where things are and how wide the host is. The working directory is
/// the repository root (`run.sh` guarantees it).
pub struct Env {
    /// The release `pdatalog` binary (sibling of this executable: both
    /// are built into one target directory).
    pub pdatalog: PathBuf,
    /// `benchmark/out/`: generated inputs and result files.
    pub out: PathBuf,
    pub nproc: usize,
    /// Worker count of every parallel command: `min(nproc, 4)`.
    pub workers: usize,
    /// Sizes ÷ 10 and a single repetition of everything.
    pub smoke: bool,
}

/// Set-up is repeated this many times per run and its median reported, so
/// one cold `cargo` start does not decide `setup_s` (a no-op `cargo build`
/// takes 20–45 ms from one call to the next).
pub const SETUPS: usize = 15;
/// Timed operation groups per run, at least (see [`Plan`]).
pub const MIN_GROUPS: usize = 3;

/// One workload, set up: inputs generated, files written.
pub struct Prepared {
    pub workload: &'static Workload,
    pub inputs: Inputs,
    pub files: Files,
    /// Seconds each set-up took, scaled by the reference kernel.
    pub setup_samples: Vec<f64>,
}

fn cargo_build(manifest: &str, bin: &str) -> Result<(), String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            manifest,
            "--bin",
            bin,
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build of {manifest} failed"))
    }
}

/// Generate a workload's inputs and write them under `benchmark/out/`.
pub fn prepare(env: &Env, w: &'static Workload, seed: u64) -> Result<Prepared, String> {
    let inputs = gen::generate(w, seed, env.smoke);
    let files = gen::write_files(w, &inputs, &env.out.join("inputs"))
        .map_err(|e| format!("cannot write inputs: {e}"))?;
    Ok(Prepared {
        workload: w,
        inputs,
        files,
        setup_samples: Vec::new(),
    })
}

/// What a user does before the first run: build `pdatalog` (and this
/// benchmark) in release mode, and have inputs on disk. Both builds are
/// no-ops when the target directory is fresh, which is the steady state
/// the median reports; work a later change moves into build scripts,
/// code generation or input preparation shows up here.
pub fn set_up(env: &Env, w: &'static Workload, seed: u64) -> Result<Prepared, String> {
    let mut clock = Clock::start()?;
    let mut samples = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..if env.smoke { 1 } else { SETUPS } {
        let interval = clock.interval()?;
        let t0 = Instant::now();
        cargo_build("Cargo.toml", "pdatalog")?;
        cargo_build("benchmark/Cargo.toml", "pdbench")?;
        last = Some(prepare(env, w, seed)?);
        samples.push((t0.elapsed().as_secs_f64(), interval));
    }
    clock.tick()?;
    let mut prep = last.expect("at least one set-up");
    prep.setup_samples = samples
        .iter()
        .map(|&(seconds, interval)| seconds * clock.scale(interval))
        .collect();
    Ok(prep)
}

/// The generated program as `pdatalog` loads it, and the model
/// `seminaive_eval` computes for its answer predicate in this process.
pub struct Oracle {
    pub text: String,
    pub loaded: Loaded,
    pub closure: Relation,
}

pub fn oracle_of(w: &Workload, file: &Path) -> Result<Oracle, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let loaded = model::load(&text).map_err(|e| e.to_string())?;
    let mut result = seminaive_eval(&loaded.program, &loaded.db).map_err(|e| e.to_string())?;
    let closure = result
        .idb
        .remove(&model::rel_id(&loaded.program, w.answer))
        .ok_or("the oracle derived no answer relation")?;
    Ok(Oracle {
        text,
        loaded,
        closure,
    })
}

/// One `pdatalog` invocation and the fact lines it must print.
pub struct Op {
    pub args: Vec<String>,
    pub want: LineSet,
}

/// What one *operation group* of a workload runs: every parallel
/// operation, then every sequential-reference operation. A closure
/// workload has one of each; `point-query` one per goal; `tc-updates`
/// one stream against one recompute per commit. `wall_s`, `cpu_s` and
/// `seq_wall_s` are sums over a group; `peak_rss_mb` is its largest
/// process.
pub struct Plan {
    /// Untimed warm-up that prints and verifies the full answer (closure
    /// workloads; the others verify every timed operation).
    pub verify: Option<Op>,
    pub par: Vec<Op>,
    pub seq: Vec<Op>,
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

fn args(base: &[String], extra: &[&str]) -> Vec<String> {
    base.iter()
        .cloned()
        .chain(extra.iter().map(|s| s.to_string()))
        .collect()
}

/// The fact lines the content-checked operations of a workload must
/// print, computed from the in-process model: the whole answer (closure
/// workloads), one answer per goal (`point-query`), or the maintained
/// view after the last commit (`tc-updates`) — which must equal a
/// from-scratch evaluation over the final base facts.
pub fn expectations(prep: &Prepared, oracle: &Oracle) -> Result<Vec<LineSet>, String> {
    let w = prep.workload;
    Ok(match w.kind {
        Kind::Closure => vec![LineSet::of_relation(w.answer, &oracle.closure)],
        Kind::PointQuery => prep
            .inputs
            .goals
            .iter()
            .map(|&c| {
                let mut want = LineSet::default();
                for t in oracle
                    .closure
                    .iter()
                    .filter(|t| t.get(0).as_int() == Some(c))
                {
                    want.add(gen::fact_line(w.answer, t).as_bytes());
                }
                want
            })
            .collect(),
        Kind::Updates => {
            let last = prep
                .files
                .post_commit
                .last()
                .ok_or("update workload without commits")?;
            vec![LineSet::of_relation(w.answer, &oracle_of(w, last)?.closure)]
        }
    })
}

/// The exact `pdatalog` command lines of a workload at `workers`
/// processors, paired with what each must print (`expect` comes from
/// [`expectations`]). `max_goals` truncates the `point-query` goal list
/// (the traced run uses a prefix).
pub fn plan(
    prep: &Prepared,
    expect: &[LineSet],
    workers: usize,
    max_goals: usize,
) -> Result<Plan, String> {
    let w = prep.workload;
    let file = path_arg(&prep.files.program);
    let workers = workers.to_string();
    let mut par = args(
        &[],
        &["run", &file, "--scheme", w.scheme, "--workers", &workers],
    );
    if w.net {
        par.push("--net".into());
    }
    let seq_on = |file: &str| args(&[], &["run", file, "--scheme", "seq"]);
    let seq = seq_on(&file);
    let print_base = format!("{}/2", w.base);
    let print_answer = format!("{}/2", w.answer);
    // `--print` of a base predicate prints its header and no tuples (only
    // derived relations are materialised for printing): those runs are
    // checked by exit status alone.
    let nothing = LineSet::default();
    let expected = |k: usize| {
        expect
            .get(k)
            .copied()
            .ok_or("too few expectations for the plan")
    };

    Ok(match w.kind {
        // Timed runs print a base predicate, so formatting a
        // million-tuple answer is not what is measured; one untimed run
        // prints and checks the whole answer.
        Kind::Closure => Plan {
            verify: Some(Op {
                args: args(&par, &["--print", &print_answer]),
                want: expected(0)?,
            }),
            par: vec![Op {
                args: args(&par, &["--print", &print_base]),
                want: nothing,
            }],
            seq: vec![Op {
                args: args(&seq, &["--print", &print_base]),
                want: nothing,
            }],
        },
        // Every answer is small: every operation is checked.
        Kind::PointQuery => {
            let mut plan = Plan {
                verify: None,
                par: Vec::new(),
                seq: Vec::new(),
            };
            for (k, c) in prep.inputs.goals.iter().take(max_goals).enumerate() {
                let goal = format!("{}({c}, Y)", w.answer);
                plan.par.push(Op {
                    args: args(&par, &["--query", &goal]),
                    want: expected(k)?,
                });
                plan.seq.push(Op {
                    args: args(&seq, &["--query", &goal]),
                    want: expected(k)?,
                });
            }
            plan
        }
        // The final view is small enough to print and check on every run.
        // The sequential reference is recompute-from-scratch: one run per
        // post-commit database.
        Kind::Updates => {
            let stream = prep
                .files
                .updates
                .as_ref()
                .ok_or("update workload without a stream")?;
            Plan {
                verify: None,
                par: vec![Op {
                    args: args(
                        &par,
                        &["--updates", &path_arg(stream), "--print", &print_answer],
                    ),
                    want: expected(0)?,
                }],
                seq: prep
                    .files
                    .post_commit
                    .iter()
                    .map(|file| Op {
                        args: args(&seq_on(&path_arg(file)), &["--print", &print_base]),
                        want: nothing,
                    })
                    .collect(),
            }
        }
    })
}

/// Counts every child run, and the ones that failed.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Run one operation; count it failed unless it exited 0 in time and
    /// printed exactly the expected fact lines. (The output is dropped
    /// here: the measuring process must stay small.)
    pub fn run(&mut self, env: &Env, op: &Op) -> Option<ChildRun> {
        self.attempted += 1;
        let why = match child::run(&env.pdatalog, &op.args) {
            Ok((run, stdout)) if run.ok && LineSet::of_output(&stdout) == op.want => {
                return Some(run)
            }
            Ok((run, _)) if run.ok => "printed a wrong answer".to_string(),
            Ok(_) => "exited non-zero or timed out".to_string(),
            Err(e) => format!("could not be run: {e}"),
        };
        eprintln!("pdbench: FAILED ({why}): pdatalog {}", op.args.join(" "));
        self.failed += 1;
        None
    }

    /// Run every operation of a list; `None` unless all succeeded.
    pub fn run_all(&mut self, env: &Env, ops: &[Op]) -> Option<Vec<ChildRun>> {
        let runs: Vec<Option<ChildRun>> = ops.iter().map(|op| self.run(env, op)).collect();
        runs.into_iter().collect()
    }

    /// [`Tally::run_all`] with the reference kernel run in between
    /// whenever it is due: every run comes back with the interval of
    /// `clock` it fell in.
    fn run_all_timed(
        &mut self,
        env: &Env,
        ops: &[Op],
        clock: &mut Clock,
    ) -> Result<Option<Vec<Timed>>, String> {
        let mut runs = Vec::with_capacity(ops.len());
        for op in ops {
            let interval = clock.interval()?;
            runs.push(self.run(env, op).map(|run| Timed { run, interval }));
        }
        Ok(runs.into_iter().collect())
    }
}

/// A child run and the interval between two reference-kernel runs it
/// fell in.
struct Timed {
    run: ChildRun,
    interval: usize,
}

/// A group's runs on the reference clock: wall and CPU seconds scaled by
/// the kernel runs around each (peak RSS is not a time and stays as it is).
fn scaled(runs: &[Timed], clock: &Clock) -> Vec<ChildRun> {
    runs.iter()
        .map(|t| {
            let scale = clock.scale(t.interval);
            ChildRun {
                wall_s: t.run.wall_s * scale,
                cpu_s: t.run.cpu_s * scale,
                ..t.run
            }
        })
        .collect()
}

fn total(runs: &[ChildRun], f: impl Fn(&ChildRun) -> f64) -> f64 {
    runs.iter().map(f).sum()
}

/// Samples of one end-to-end run of one workload. Every time is scaled
/// by the reference kernel (see `reference.rs`).
#[derive(Default)]
pub struct E2e {
    /// Wall seconds of every reference-kernel run, and of the parallel
    /// and the sequential command per group, as measured: what the host
    /// was doing, for the reader of the context line.
    pub kernel_s: Vec<f64>,
    pub raw_wall_s: Vec<f64>,
    pub raw_seq_wall_s: Vec<f64>,
    /// Per operation group.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    pub seq_wall_s: Vec<f64>,
    /// Per group: median and 95th percentile (nearest rank) of the wall
    /// times of its parallel children, milliseconds.
    pub op_p50_ms: Vec<f64>,
    pub op_p95_ms: Vec<f64>,
    pub tally: Tally,
}

impl E2e {
    /// The seven timed end-to-end metrics, in `BENCHMARK.json` order
    /// (`fail_share` travels as `failed / attempted`). `None` when no
    /// group of some kind succeeded, so nothing can be reported.
    pub fn metrics(&self, setup_samples: &[f64]) -> Option<Vec<(&'static str, f64)>> {
        if self.wall_s.is_empty() || self.seq_wall_s.is_empty() {
            return None;
        }
        Some(vec![
            ("setup_s", median(setup_samples)),
            ("wall_s", median(&self.wall_s)),
            ("seq_wall_s", median(&self.seq_wall_s)),
            ("cpu_s", median(&self.cpu_s)),
            ("peak_rss_mb", median(&self.peak_rss_mb)),
            ("op_p50_ms", median(&self.op_p50_ms)),
            ("op_p95_ms", median(&self.op_p95_ms)),
        ])
    }
}

/// Measure one prepared workload for at most `seconds`: operation groups
/// repeat while another one is expected to fit, never fewer than
/// [`MIN_GROUPS`].
///
/// A group is every parallel operation once, then the sequential
/// reference repeated until it has been measured for half as long as the
/// parallel command was — so the two alternate (a slow stretch of the
/// host hits both), and the short sequential runs sample a third of the
/// run instead of a tenth, while the parallel command, whose thread
/// interleaving makes it the noisier of the two, keeps the larger share.
/// The reference kernel runs between operations whenever it is due, and
/// once the last one has been followed by a kernel run every wall and
/// CPU time is scaled by the two runs around it (`reference.rs`).
///
/// The caller must be a *small* process: Linux starts a child's
/// `ru_maxrss` at the resident set of the process that forked it, so a
/// parent holding a million-tuple oracle would report its own size as
/// every small child's peak. (`expect` therefore comes from a helper
/// process, see `pdbench expect`.)
pub fn measure(
    env: &Env,
    prep: &Prepared,
    expect: &[LineSet],
    seconds: f64,
) -> Result<E2e, String> {
    let plan = plan(prep, expect, env.workers, usize::MAX)?;
    let mut e2e = E2e::default();
    if let Some(op) = &plan.verify {
        e2e.tally.run(env, op);
    }
    // `--smoke` runs one group whatever `seconds` says.
    let (min_groups, seconds) = if env.smoke {
        (1, 0.0)
    } else {
        (MIN_GROUPS, seconds)
    };
    let mut clock = Clock::start()?;
    let mut par_groups: Vec<Vec<Timed>> = Vec::new();
    let mut seq_groups: Vec<Vec<Timed>> = Vec::new();
    let t0 = Instant::now();
    let mut groups = 0;
    let mut longest_group = 0.0f64;
    while groups < min_groups || t0.elapsed().as_secs_f64() + longest_group <= seconds {
        let group_start = Instant::now();
        let mut par_s = 0.0;
        if let Some(runs) = e2e.tally.run_all_timed(env, &plan.par, &mut clock)? {
            par_s = runs.iter().map(|t| t.run.wall_s).sum();
            par_groups.push(runs);
        }
        let mut seq_s = 0.0;
        while let Some(runs) = e2e.tally.run_all_timed(env, &plan.seq, &mut clock)? {
            seq_s += runs.iter().map(|t| t.run.wall_s).sum::<f64>();
            seq_groups.push(runs);
            if seq_s >= par_s / 2.0 || env.smoke {
                break;
            }
        }
        longest_group = longest_group.max(group_start.elapsed().as_secs_f64());
        groups += 1;
    }
    clock.tick()?;
    for group in &par_groups {
        e2e.raw_wall_s
            .push(group.iter().map(|t| t.run.wall_s).sum());
        let runs = scaled(group, &clock);
        e2e.wall_s.push(total(&runs, |r| r.wall_s));
        e2e.cpu_s.push(total(&runs, |r| r.cpu_s));
        e2e.peak_rss_mb
            .push(runs.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max));
        // Percentiles within the group, medians over groups: a stretch in
        // which the host stalls every tenth child lifts the tail of the
        // groups it hits, not of the whole run. (Where an operation is a
        // whole run a group has one child, and both repeat `wall_s`.)
        let op_ms: Vec<f64> = runs.iter().map(|r| r.wall_s * 1e3).collect();
        e2e.op_p50_ms.push(median(&op_ms));
        e2e.op_p95_ms.push(percentile(&op_ms, 95.0));
    }
    for group in &seq_groups {
        e2e.raw_seq_wall_s
            .push(group.iter().map(|t| t.run.wall_s).sum());
        e2e.seq_wall_s
            .push(total(&scaled(group, &clock), |r| r.wall_s));
    }
    e2e.kernel_s = clock.kernel_s;
    Ok(e2e)
}
