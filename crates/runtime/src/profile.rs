//! Phase-attributed profiling: where the time went, per worker.
//!
//! The paper's §6 trade-off is a *cost decomposition* — processing cost
//! against communication cost. This module splits every worker's run
//! into five phases:
//!
//! * `compute` — semi-naive rounds inside the local engine: bootstrap,
//!   rule firings (further split per rule by `EvalStats::time_by_rule`),
//!   the dedup that admits derived and received rows into the arenas, the
//!   `advance` that makes them the deltas and syncs the indexes, and
//!   self-channel loopback copies;
//! * `encode` — columnar wire encoding on the ship path;
//! * `decode` — wire decoding of the received batches;
//! * `replay` — crash-recovery retransmission from the replay logs;
//! * `idle` — gaps between steps while the worker was passive
//!   (termination/barrier wait).
//!
//! Times are stamped in the journal's [`TimeBase`]: wall-clock
//! microseconds on the threaded and TCP transports, and deterministic
//! *work proxies* under the simulator's virtual clock (firings plus
//! tuples submitted and looped back for compute, payload bytes for encode, tuples for decode, messages for
//! replay, virtual-tick gaps for idle) — so a simulated profile is
//! bit-identical across same-seed reruns while still ranking the same
//! hot spots. TCP workers ship their phase totals in the RESULT frame and
//! the coordinator merges, so `--net` runs report the same profile shape
//! as in-process ones.
//!
//! [`ProfileReport::build`] is the analyzer: the fleet's merged phases
//! and the top-k hot rules by time. A profile is totals, not a second
//! recording: it keeps no per-round or per-batch view. Workers fire
//! asynchronously, so round k on one worker and round k on another are
//! unrelated moments, and the journal's per-worker, timestamped
//! `RoundBegin`/`RoundEnd`/`BatchEncoded`/`BatchReceived` events are the
//! one per-round and per-batch record (DESIGN.md §9). Two renderers
//! export it: a human report and a machine schema (JSON).

use std::time::Instant;

use gst_common::json::Json;
use gst_eval::EvalStats;

use crate::obs::TimeBase;
use crate::stats::ParallelStats;

/// The five phases a worker's time is attributed to.
pub const PHASES: [&str; 5] = ["compute", "encode", "decode", "replay", "idle"];

/// Accumulated time per phase, in the run's [`TimeBase`] units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Semi-naive round processing: bootstrap, rule firings, admitting
    /// derived and received rows into the arenas, `advance`, loopback
    /// copies.
    pub compute: u64,
    /// Columnar wire encoding on the ship path.
    pub encode: u64,
    /// Wire decoding of the received batches.
    pub decode: u64,
    /// Crash-recovery retransmission from the replay logs.
    pub replay: u64,
    /// Inter-step gaps while passive (termination/barrier wait).
    pub idle: u64,
}

impl PhaseTotals {
    /// Element-wise sum.
    pub fn merge(&mut self, other: &PhaseTotals) {
        self.compute += other.compute;
        self.encode += other.encode;
        self.decode += other.decode;
        self.replay += other.replay;
        self.idle += other.idle;
    }

    /// All five phases, in [`PHASES`] order.
    pub fn as_array(&self) -> [u64; 5] {
        [self.compute, self.encode, self.decode, self.replay, self.idle]
    }

    /// Total attributed time across all phases.
    pub fn total(&self) -> u64 {
        self.as_array().iter().sum()
    }

    /// Busy time: everything except idle.
    pub fn busy(&self) -> u64 {
        self.total() - self.idle
    }
}

/// One worker's profile: its phase totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Whole-run phase totals.
    pub phases: PhaseTotals,
}

impl WorkerProfile {
    /// Fold `other` into `self`: phase totals add. Associative, so the
    /// coordinator may fold worker profiles in any arrival order and the
    /// canonical merge (processor order) produces the same result.
    pub fn merge(&mut self, other: &WorkerProfile) {
        self.phases.merge(&other.phases);
    }

    /// Accumulate `d` units of `phase`.
    fn add(&mut self, phase: usize, d: u64) {
        match phase {
            0 => self.phases.compute += d,
            1 => self.phases.encode += d,
            2 => self.phases.decode += d,
            3 => self.phases.replay += d,
            _ => self.phases.idle += d,
        }
    }
}

/// Phase indices for [`Profiler`] call sites (match [`PHASES`] order).
pub(crate) const PHASE_COMPUTE: usize = 0;
/// See [`PHASE_COMPUTE`].
pub(crate) const PHASE_ENCODE: usize = 1;
/// See [`PHASE_COMPUTE`].
pub(crate) const PHASE_DECODE: usize = 2;
/// See [`PHASE_COMPUTE`].
pub(crate) const PHASE_REPLAY: usize = 3;
/// See [`PHASE_COMPUTE`].
pub(crate) const PHASE_IDLE: usize = 4;

/// Timestamp of the previous step's end, in the profiler's clock.
#[derive(Debug, Clone)]
enum ProfStamp {
    Wall(Instant),
    Ticks(u64),
}

/// Per-worker phase accounting state. Owned by a `WorkerCore` as an
/// `Option<Box<Profiler>>`: when profiling is off every call site is one
/// `Option` branch, the same zero-overhead pattern as
/// [`crate::obs::TraceSink`].
#[derive(Debug, Clone)]
pub(crate) struct Profiler {
    /// The clock durations are stamped with: under wall time they are
    /// measured with `Instant` and recorded as microseconds; under
    /// virtual ticks they are the caller-supplied deterministic work
    /// proxies, and idle gaps are deltas of `now`.
    base: TimeBase,
    /// The simulator's virtual clock, pushed in via [`Profiler::set_now`].
    now: u64,
    /// The profile under construction.
    pub(crate) profile: WorkerProfile,
    /// When the previous step ended — the base of the next idle gap.
    last_step_end: Option<ProfStamp>,
}

impl Profiler {
    /// A profiler on `base`'s clock: wall microseconds (threaded and TCP
    /// transports) or virtual ticks (simulation).
    pub(crate) fn new(base: TimeBase) -> Self {
        Profiler { base, now: 0, profile: WorkerProfile::default(), last_step_end: None }
    }

    /// The clock this profiler stamps durations with.
    pub(crate) fn base(&self) -> TimeBase {
        self.base
    }

    /// Push the simulator's virtual clock (ignored under wall time).
    pub(crate) fn set_now(&mut self, t: u64) {
        self.now = t;
    }

    /// Begin timing a phase: captures `Instant::now()` under wall time,
    /// nothing under ticks (the proxy passed to [`Profiler::stop`] is the
    /// duration there).
    pub(crate) fn start(&self) -> Option<Instant> {
        match self.base {
            TimeBase::WallMicros => Some(Instant::now()),
            TimeBase::VirtualTicks => None,
        }
    }

    /// Finish timing: elapsed microseconds under wall time, the
    /// deterministic `proxy` under ticks.
    pub(crate) fn stop(&self, t0: Option<Instant>, proxy: u64) -> u64 {
        match self.base {
            TimeBase::WallMicros => t0.map_or(0, |t| t.elapsed().as_micros() as u64),
            TimeBase::VirtualTicks => proxy,
        }
    }

    /// Accumulate `d` units of `phase`.
    pub(crate) fn add(&mut self, phase: usize, d: u64) {
        self.profile.add(phase, d);
    }

    /// The previous step ended and this one starts while the worker was
    /// idle: the gap between them is barrier/termination wait.
    pub(crate) fn idle_gap(&mut self) {
        let gap = match &self.last_step_end {
            Some(ProfStamp::Wall(t)) => t.elapsed().as_micros() as u64,
            Some(ProfStamp::Ticks(t)) => self.now.saturating_sub(*t),
            None => 0,
        };
        if gap > 0 {
            self.profile.add(PHASE_IDLE, gap);
        }
    }

    /// Stamp the end of a step (the base of a possible idle gap).
    pub(crate) fn step_end(&mut self) {
        self.last_step_end = Some(match self.base {
            TimeBase::WallMicros => ProfStamp::Wall(Instant::now()),
            TimeBase::VirtualTicks => ProfStamp::Ticks(self.now),
        });
    }
}

/// One hot rule of the top-k ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotRule {
    /// Rule index in the rewritten processor program.
    pub rule: usize,
    /// Attributed time across all workers ([`TimeBase`] units).
    pub time: u64,
    /// Firings across all workers.
    pub firings: u64,
}

/// The analyzed profile of one run: per-worker profiles, the merged
/// fleet view and the hot rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// What a time unit means (microseconds or virtual-clock proxies).
    pub base: TimeBase,
    /// `(processor, profile)` in processor order.
    pub workers: Vec<(usize, WorkerProfile)>,
    /// All workers' profiles merged.
    pub merged: WorkerProfile,
    /// Per-rule time merged across workers (units follow `base`).
    pub time_by_rule: Vec<u64>,
    /// Per-rule firings merged across workers.
    pub firings_by_rule: Vec<u64>,
    /// Top rules by attributed time, descending (ties by rule index).
    pub hot_rules: Vec<HotRule>,
    /// Optional provenance labels indexed by rule (e.g. `anc^bf [magic r1]`
    /// for a magic-sets rewrite). Empty when the run has no provenance;
    /// rules past the end of the vector are simply unlabeled.
    pub rule_labels: Vec<String>,
}

/// How many hot rules the analyzer keeps.
const TOP_K: usize = 10;

impl ProfileReport {
    /// Analyze a finished run. Returns `None` when no worker carried a
    /// profile (profiling was off).
    pub fn build(stats: &ParallelStats, base: TimeBase) -> Option<ProfileReport> {
        let workers: Vec<(usize, WorkerProfile)> = stats
            .workers
            .iter()
            .filter_map(|w| w.profile.clone().map(|p| (w.processor, p)))
            .collect();
        if workers.is_empty() {
            return None;
        }
        let mut merged = WorkerProfile::default();
        for (_, p) in &workers {
            merged.merge(p);
        }

        let mut eval = EvalStats::default();
        for w in &stats.workers {
            eval.merge(&w.eval);
        }
        let EvalStats { time_by_rule, firings_by_rule, .. } = eval;

        let mut hot_rules: Vec<HotRule> = time_by_rule
            .iter()
            .enumerate()
            .filter(|(_, &t)| t > 0)
            .map(|(rule, &time)| HotRule {
                rule,
                time,
                firings: firings_by_rule.get(rule).copied().unwrap_or(0),
            })
            .collect();
        hot_rules.sort_by_key(|h| (std::cmp::Reverse(h.time), h.rule));
        hot_rules.truncate(TOP_K);

        Some(ProfileReport {
            base,
            workers,
            merged,
            time_by_rule,
            firings_by_rule,
            hot_rules,
            rule_labels: Vec::new(),
        })
    }

    /// Attach provenance labels (indexed by rule) to the report. Labeled
    /// rules render as `rule #k <label>` in the human report and carry a
    /// `"label"` key in the JSON hot-rule objects; unlabeled output is
    /// unchanged.
    pub fn with_rule_labels(mut self, labels: Vec<String>) -> Self {
        self.rule_labels = labels;
        self
    }

    fn rule_label(&self, rule: usize) -> Option<&str> {
        self.rule_labels
            .get(rule)
            .map(|s| s.as_str())
            .filter(|s| !s.is_empty())
    }

    /// The time unit's short name ("us" or "ticks").
    pub fn unit(&self) -> &'static str {
        match self.base {
            TimeBase::WallMicros => "us",
            TimeBase::VirtualTicks => "ticks",
        }
    }

    /// Human-readable report (the `--profile` output).
    pub fn render_human(&self) -> String {
        use std::fmt::Write;
        let unit = self.unit();
        let mut out = String::new();
        let _ = writeln!(out, "profile ({unit}; ticks = deterministic work proxies)");

        let _ = writeln!(
            out,
            "  {:<8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6}",
            "worker", "compute", "encode", "decode", "replay", "idle", "busy%"
        );
        let mut render_row = |label: &str, p: &PhaseTotals| {
            let total = p.total();
            let pct = if total == 0 {
                100.0
            } else {
                100.0 * p.busy() as f64 / total as f64
            };
            let _ = writeln!(
                out,
                "  {:<8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>5.1}%",
                label, p.compute, p.encode, p.decode, p.replay, p.idle, pct
            );
        };
        for (w, p) in &self.workers {
            render_row(&format!("w{w}"), &p.phases);
        }
        render_row("all", &self.merged.phases);

        if !self.hot_rules.is_empty() {
            let _ = writeln!(out, "  hot rules (by time):");
            for h in &self.hot_rules {
                let _ = write!(
                    out,
                    "    rule #{:<3} {:>12} {unit}  {:>12} firings",
                    h.rule, h.time, h.firings
                );
                if let Some(label) = self.rule_label(h.rule) {
                    let _ = write!(out, "  {label}");
                }
                out.push('\n');
            }
        }

        out
    }

    /// Machine-readable JSON (the `--profile-json` schema, validated by
    /// the bench `trace_check` tool). Deterministic: fixed key order,
    /// integers only, no floats — a virtual-tick profile is bit-identical
    /// across same-seed reruns. `Json` numbers are `f64`, exact for every
    /// count below 2^53.
    pub fn to_json(&self) -> String {
        let num = |x: u64| Json::Num(x as f64);
        let nums = |xs: &[u64]| Json::Arr(xs.iter().map(|&x| num(x)).collect());
        let profile = |p: &WorkerProfile| {
            let phases = PHASES.iter().zip(p.phases.as_array()).map(|(k, v)| (*k, num(v)));
            Json::obj(vec![("phases", Json::obj(phases.collect()))])
        };
        let workers = self
            .workers
            .iter()
            .map(|(w, p)| Json::obj(vec![("processor", num(*w as u64)), ("profile", profile(p))]));
        let hot_rules = self.hot_rules.iter().map(|h| {
            let mut rule =
                vec![("rule", num(h.rule as u64)), ("time", num(h.time)), ("firings", num(h.firings))];
            if let Some(label) = self.rule_label(h.rule) {
                rule.push(("label", Json::Str(label.to_string())));
            }
            Json::obj(rule)
        });
        let base = match self.base {
            TimeBase::WallMicros => "wall_micros",
            TimeBase::VirtualTicks => "virtual_ticks",
        };
        Json::obj(vec![
            ("time_base", Json::Str(base.to_string())),
            ("workers", Json::Arr(workers.collect())),
            ("merged", profile(&self.merged)),
            ("time_by_rule", nums(&self.time_by_rule)),
            ("firings_by_rule", nums(&self.firings_by_rule)),
            ("hot_rules", Json::Arr(hot_rules.collect())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_add_attributes_phases() {
        let mut p = WorkerProfile::default();
        p.add(PHASE_COMPUTE, 10);
        p.add(PHASE_ENCODE, 3);
        p.add(PHASE_COMPUTE, 5);
        p.add(PHASE_REPLAY, 2);
        p.add(PHASE_IDLE, 4);
        let want = PhaseTotals { compute: 15, encode: 3, decode: 0, replay: 2, idle: 4 };
        assert_eq!(p.phases, want);
        assert_eq!((p.phases.total(), p.phases.busy()), (24, 20));
    }

    #[test]
    fn profile_merge_is_order_independent() {
        let mut a = WorkerProfile::default();
        a.add(PHASE_COMPUTE, 4);
        a.add(PHASE_IDLE, 9);
        let mut b = WorkerProfile::default();
        b.add(PHASE_COMPUTE, 6);
        b.add(PHASE_DECODE, 2);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is order-independent");
        assert_eq!(ab.phases.compute, 10);
    }

    #[test]
    fn ticks_profiler_is_deterministic() {
        let build = || {
            let mut p = Profiler::new(TimeBase::VirtualTicks);
            p.set_now(10);
            let t0 = p.start();
            assert!(t0.is_none(), "ticks mode never reads the wall clock");
            let d = p.stop(t0, 42);
            p.add(PHASE_COMPUTE, d);
            p.step_end();
            p.set_now(25);
            p.idle_gap();
            p.profile
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.phases.compute, 42);
        assert_eq!(a.phases.idle, 15);
    }

    #[test]
    fn wall_profiler_measures_nonnegative_micros() {
        let mut p = Profiler::new(TimeBase::WallMicros);
        let t0 = p.start();
        assert!(t0.is_some());
        let d = p.stop(t0, 999);
        assert_ne!(d, 999, "wall mode ignores the proxy (elapsed ~0us)");
        p.add(PHASE_ENCODE, d);
        p.step_end();
        p.idle_gap(); // gap measured from step_end; tiny but valid
    }

    #[test]
    fn report_json_is_well_formed_and_deterministic() {
        let mut p0 = WorkerProfile::default();
        p0.add(PHASE_COMPUTE, 100);
        p0.add(PHASE_IDLE, 30);
        let mut p1 = WorkerProfile::default();
        p1.add(PHASE_COMPUTE, 40);
        p1.add(PHASE_ENCODE, 10);

        let report = ProfileReport {
            base: TimeBase::VirtualTicks,
            workers: vec![(0, p0.clone()), (1, p1.clone())],
            merged: {
                let mut m = p0.clone();
                m.merge(&p1);
                m
            },
            time_by_rule: vec![90, 50],
            firings_by_rule: vec![9, 5],
            hot_rules: vec![HotRule { rule: 0, time: 90, firings: 9 }],
            rule_labels: Vec::new(),
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b, "rendering is deterministic");
        assert!(a.starts_with("{\"time_base\":\"virtual_ticks\""));
        assert!(a.contains("\"workers\":[{\"processor\":0"));
        assert!(a.contains("\"hot_rules\":[{\"rule\":0,\"time\":90,\"firings\":9}]"));
        assert!(a.ends_with("\"firings_by_rule\":[9,5],\"hot_rules\":[{\"rule\":0,\"time\":90,\"firings\":9}]}"));
        assert!(a.contains(
            "{\"processor\":1,\"profile\":{\"phases\":{\"compute\":40,\"encode\":10,\"decode\":0,\"replay\":0,\"idle\":0}}}"
        ));
        assert!(a.contains(
            "\"merged\":{\"phases\":{\"compute\":140,\"encode\":10,\"decode\":0,\"replay\":0,\"idle\":30}}"
        ));
        let human = report.render_human();
        assert!(human.contains("w0"));
        assert!(human.contains("hot rules"));

        // Provenance labels are strictly additive: labeled rules gain a
        // "label" key and a human-report suffix, rules without a label
        // (index past the vector, or an empty string) render as before.
        let labeled = report
            .clone()
            .with_rule_labels(vec!["anc^bf [magic r1]".into()]);
        let lj = labeled.to_json();
        assert!(lj.contains(
            "\"hot_rules\":[{\"rule\":0,\"time\":90,\"firings\":9,\"label\":\"anc^bf [magic r1]\"}]"
        ));
        let lh = labeled.render_human();
        assert!(lh.contains("firings  anc^bf [magic r1]"));
        let unlabeled = labeled.with_rule_labels(vec![String::new()]);
        assert!(unlabeled
            .to_json()
            .contains("\"hot_rules\":[{\"rule\":0,\"time\":90,\"firings\":9}]"));
    }
}
