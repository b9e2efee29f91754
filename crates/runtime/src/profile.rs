//! Phase-attributed profiling: where the time went, per worker, per round.
//!
//! The paper's §6 trade-off is a *cost decomposition* — processing cost
//! against communication cost — but totals alone cannot say which worker
//! was the straggler in round 7 or whether the p99 round latency is
//! compute or barrier wait. This module splits every worker's run into
//! five phases:
//!
//! * `compute` — semi-naive rounds inside the local engine: bootstrap,
//!   rule firings (further split per rule by `EvalStats::time_by_rule`),
//!   the `advance` that dedups a round's derivations into the arenas and
//!   syncs the indexes, and self-channel loopback copies;
//! * `encode` — columnar wire encoding on the ship path;
//! * `decode` — coalesced batch decode-and-inject passes;
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
//! hot spots. Distribution shape is captured in mergeable log-bucketed
//! [`Histogram`]s (round latency, per-batch encode/decode time, batch
//! bytes); TCP workers ship their profile in
//! the RESULT frame and the coordinator merges, so `--net` runs report
//! the same profile shape as in-process ones.
//!
//! [`ProfileReport::build`] is the analyzer: per-round critical path
//! (straggler worker and its dominant phase), the §6 comm/compute
//! decomposition as a per-round curve, top-k hot rules by time, and
//! idle-gap detection. Renderers export a human report, a machine
//! schema (JSON), and a Prometheus-style text exposition.

use std::time::Instant;

use gst_common::json::Json;
pub use gst_common::{Histogram, HIST_BUCKETS};

use crate::obs::TimeBase;
use crate::stats::ParallelStats;

/// The five phases a worker's time is attributed to.
pub const PHASES: [&str; 5] = ["compute", "encode", "decode", "replay", "idle"];

/// Accumulated time per phase, in the run's [`TimeBase`] units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Semi-naive round processing: bootstrap, rule firings, the
    /// `advance` that dedups each round into the arenas, loopback copies.
    pub compute: u64,
    /// Columnar wire encoding on the ship path.
    pub encode: u64,
    /// Coalesced batch decode-and-inject passes.
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

    /// Communication-side time: encode + decode + replay (the §6
    /// communication cost as measured, idle excluded).
    pub fn comm(&self) -> u64 {
        self.encode + self.decode + self.replay
    }

    /// The largest phase and its value (first in [`PHASES`] order wins a
    /// tie, keeping the answer deterministic).
    pub fn dominant(&self) -> (&'static str, u64) {
        let values = self.as_array();
        let mut best = 0;
        for (i, &v) in values.iter().enumerate() {
            if v > values[best] {
                best = i;
            }
        }
        (PHASES[best], values[best])
    }
}

/// One worker's complete profile: phase totals, distribution histograms,
/// and the per-round phase breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Whole-run phase totals.
    pub phases: PhaseTotals,
    /// One sample per processed round: the round's compute time.
    pub round_latency: Histogram,
    /// One sample per wire encode (per channel per round).
    pub encode_time: Histogram,
    /// One sample per coalesced decode-and-inject pass.
    pub decode_time: Histogram,
    /// One sample per wire encode: the payload's size in bytes (always
    /// bytes, in every time base).
    pub batch_bytes: Histogram,
    /// Phase totals per engine round, keyed by round index. Sparse and
    /// strictly increasing in the round key.
    pub per_round: Vec<(u64, PhaseTotals)>,
}

impl WorkerProfile {
    /// Fold `other` into `self`: phase totals and histograms add,
    /// per-round entries combine by round key. Associative, so the
    /// coordinator may fold worker profiles in any arrival order and the
    /// canonical merge (processor order) produces the same result.
    pub fn merge(&mut self, other: &WorkerProfile) {
        self.phases.merge(&other.phases);
        self.round_latency.merge(&other.round_latency);
        self.encode_time.merge(&other.encode_time);
        self.decode_time.merge(&other.decode_time);
        self.batch_bytes.merge(&other.batch_bytes);
        for (round, totals) in &other.per_round {
            match self.per_round.binary_search_by_key(round, |(r, _)| *r) {
                Ok(i) => self.per_round[i].1.merge(totals),
                Err(i) => self.per_round.insert(i, (*round, *totals)),
            }
        }
    }

    /// Accumulate `d` units of `phase` against `round`.
    fn add(&mut self, phase: usize, round: u64, d: u64) {
        let slot = match self.per_round.last_mut() {
            Some((r, totals)) if *r == round => totals,
            Some((r, _)) if *r > round => {
                // Out-of-order attribution (e.g. a replay for an old
                // round): fold into the existing entry.
                match self.per_round.binary_search_by_key(&round, |(r, _)| *r) {
                    Ok(i) => &mut self.per_round[i].1,
                    Err(i) => {
                        self.per_round.insert(i, (round, PhaseTotals::default()));
                        &mut self.per_round[i].1
                    }
                }
            }
            _ => {
                self.per_round.push((round, PhaseTotals::default()));
                &mut self.per_round.last_mut().expect("just pushed").1
            }
        };
        match phase {
            0 => slot.compute += d,
            1 => slot.encode += d,
            2 => slot.decode += d,
            3 => slot.replay += d,
            _ => slot.idle += d,
        }
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

/// The clock a profiler stamps durations with.
#[derive(Debug, Clone)]
enum ProfClock {
    /// Wall time: durations are measured with `Instant` and recorded as
    /// microseconds.
    Wall,
    /// Virtual time: durations are the caller-supplied deterministic
    /// work proxies; idle gaps are virtual-tick deltas pushed in via
    /// [`Profiler::set_now`].
    Ticks { now: u64 },
}

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
    clock: ProfClock,
    /// The profile under construction.
    pub(crate) profile: WorkerProfile,
    /// When the previous step ended — the base of the next idle gap.
    last_step_end: Option<ProfStamp>,
}

impl Profiler {
    /// A wall-clock profiler (threaded and TCP transports): durations in
    /// microseconds.
    pub(crate) fn wall() -> Self {
        Profiler {
            clock: ProfClock::Wall,
            profile: WorkerProfile::default(),
            last_step_end: None,
        }
    }

    /// A virtual-clock profiler (simulation): durations are
    /// deterministic work proxies, idle gaps are tick deltas.
    pub(crate) fn ticks() -> Self {
        Profiler {
            clock: ProfClock::Ticks { now: 0 },
            profile: WorkerProfile::default(),
            last_step_end: None,
        }
    }

    /// Push the simulator's virtual clock (no-op under wall time).
    pub(crate) fn set_now(&mut self, t: u64) {
        if let ProfClock::Ticks { now } = &mut self.clock {
            *now = t;
        }
    }

    /// Begin timing a phase: captures `Instant::now()` under wall time,
    /// nothing under ticks (the proxy passed to [`Profiler::stop`] is the
    /// duration there).
    pub(crate) fn start(&self) -> Option<Instant> {
        match self.clock {
            ProfClock::Wall => Some(Instant::now()),
            ProfClock::Ticks { .. } => None,
        }
    }

    /// Finish timing: elapsed microseconds under wall time, the
    /// deterministic `proxy` under ticks.
    pub(crate) fn stop(&self, t0: Option<Instant>, proxy: u64) -> u64 {
        match self.clock {
            ProfClock::Wall => t0.map_or(0, |t| t.elapsed().as_micros() as u64),
            ProfClock::Ticks { .. } => proxy,
        }
    }

    /// Accumulate `d` units of `phase` against `round`.
    pub(crate) fn add(&mut self, phase: usize, round: u64, d: u64) {
        self.profile.add(phase, round, d);
    }

    /// The previous step ended and this one starts while the worker was
    /// idle: the gap between them is barrier/termination wait.
    pub(crate) fn idle_gap(&mut self, round: u64) {
        let gap = match (&self.clock, &self.last_step_end) {
            (ProfClock::Wall, Some(ProfStamp::Wall(t))) => t.elapsed().as_micros() as u64,
            (ProfClock::Ticks { now }, Some(ProfStamp::Ticks(t))) => now.saturating_sub(*t),
            _ => 0,
        };
        if gap > 0 {
            self.profile.add(PHASE_IDLE, round, gap);
        }
    }

    /// Stamp the end of a step (the base of a possible idle gap).
    pub(crate) fn step_end(&mut self) {
        self.last_step_end = Some(match self.clock {
            ProfClock::Wall => ProfStamp::Wall(Instant::now()),
            ProfClock::Ticks { now } => ProfStamp::Ticks(now),
        });
    }
}

/// One round of the critical-path analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundCost {
    /// Engine round index.
    pub round: u64,
    /// The straggler: the worker with the largest busy (non-idle) time
    /// this round — the §6 critical path runs through it.
    pub straggler: usize,
    /// The straggler's busy time this round.
    pub straggler_time: u64,
    /// The straggler's dominant phase this round.
    pub dominant_phase: &'static str,
    /// Compute time summed across workers (the §6 processing cost).
    pub compute: u64,
    /// Encode + decode + replay summed across workers (the §6
    /// communication cost as measured).
    pub comm: u64,
    /// Idle time summed across workers.
    pub idle: u64,
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

/// One detected idle gap: a worker that spent `idle` units waiting
/// within one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleGap {
    /// The waiting worker.
    pub worker: usize,
    /// The round it waited in.
    pub round: u64,
    /// How long it waited ([`TimeBase`] units).
    pub idle: u64,
}

/// The analyzed profile of one run: per-worker profiles, the merged
/// fleet view, the per-round critical path, hot rules and idle gaps.
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
    /// Per-round critical path and cost decomposition, in round order.
    pub rounds: Vec<RoundCost>,
    /// Top rules by attributed time, descending (ties by rule index).
    pub hot_rules: Vec<HotRule>,
    /// Largest per-(worker, round) idle gaps, descending (deterministic
    /// tie-break by round then worker).
    pub idle_gaps: Vec<IdleGap>,
    /// Optional provenance labels indexed by rule (e.g. `anc^bf [magic r1]`
    /// for a magic-sets rewrite). Empty when the run has no provenance;
    /// rules past the end of the vector are simply unlabeled.
    pub rule_labels: Vec<String>,
}

/// How many hot rules and idle gaps the analyzer keeps.
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

        let mut time_by_rule: Vec<u64> = Vec::new();
        let mut firings_by_rule: Vec<u64> = Vec::new();
        for w in &stats.workers {
            if time_by_rule.len() < w.eval.time_by_rule.len() {
                time_by_rule.resize(w.eval.time_by_rule.len(), 0);
            }
            for (i, &t) in w.eval.time_by_rule.iter().enumerate() {
                time_by_rule[i] += t;
            }
            if firings_by_rule.len() < w.eval.firings_by_rule.len() {
                firings_by_rule.resize(w.eval.firings_by_rule.len(), 0);
            }
            for (i, &f) in w.eval.firings_by_rule.iter().enumerate() {
                firings_by_rule[i] += f;
            }
        }

        // Per-round critical path: every round any worker attributed time
        // to, with the straggler = the worker with the most busy time.
        let mut round_keys: Vec<u64> = merged.per_round.iter().map(|(r, _)| *r).collect();
        round_keys.sort_unstable();
        round_keys.dedup();
        let mut rounds = Vec::with_capacity(round_keys.len());
        for round in round_keys {
            let mut straggler = 0usize;
            let mut straggler_totals = PhaseTotals::default();
            let mut compute = 0u64;
            let mut comm = 0u64;
            let mut idle = 0u64;
            for (w, p) in &workers {
                let Some(totals) = p
                    .per_round
                    .iter()
                    .find(|(r, _)| *r == round)
                    .map(|(_, t)| *t)
                else {
                    continue;
                };
                compute += totals.compute;
                comm += totals.comm();
                idle += totals.idle;
                if totals.busy() > straggler_totals.busy() {
                    straggler = *w;
                    straggler_totals = totals;
                }
            }
            let (dominant_phase, _) = PhaseTotals {
                idle: 0,
                ..straggler_totals
            }
            .dominant();
            rounds.push(RoundCost {
                round,
                straggler,
                straggler_time: straggler_totals.busy(),
                dominant_phase,
                compute,
                comm,
                idle,
            });
        }

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

        let mut idle_gaps: Vec<IdleGap> = workers
            .iter()
            .flat_map(|(w, p)| {
                p.per_round
                    .iter()
                    .filter(|(_, t)| t.idle > 0)
                    .map(|(round, t)| IdleGap {
                        worker: *w,
                        round: *round,
                        idle: t.idle,
                    })
            })
            .collect();
        idle_gaps.sort_by_key(|g| (std::cmp::Reverse(g.idle), g.round, g.worker));
        idle_gaps.truncate(TOP_K);

        Some(ProfileReport {
            base,
            workers,
            merged,
            time_by_rule,
            firings_by_rule,
            rounds,
            hot_rules,
            idle_gaps,
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

        let h = &self.merged.round_latency;
        let _ = writeln!(
            out,
            "  round latency ({unit}): n={} p50={} p95={} p99={} max={}",
            h.count,
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max
        );
        for (name, h) in [
            ("encode time", &self.merged.encode_time),
            ("decode time", &self.merged.decode_time),
        ] {
            if h.count > 0 {
                let _ = writeln!(
                    out,
                    "  {name} ({unit}): n={} p50={} p99={} max={}",
                    h.count,
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max
                );
            }
        }
        if self.merged.batch_bytes.count > 0 {
            let h = &self.merged.batch_bytes;
            let _ = writeln!(
                out,
                "  batch bytes: n={} p50={} p99={} max={}",
                h.count,
                h.quantile(0.50),
                h.quantile(0.99),
                h.max
            );
        }

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

        if !self.rounds.is_empty() {
            let _ = writeln!(out, "  critical path (per round):");
            let shown = self.rounds.len().min(12);
            for rc in &self.rounds[..shown] {
                let _ = writeln!(
                    out,
                    "    round {:<4} straggler w{} ({} {unit}, {})  compute={} comm={} idle={}",
                    rc.round,
                    rc.straggler,
                    rc.straggler_time,
                    rc.dominant_phase,
                    rc.compute,
                    rc.comm,
                    rc.idle
                );
            }
            if self.rounds.len() > shown {
                let _ = writeln!(out, "    ... {} more rounds", self.rounds.len() - shown);
            }
        }

        if !self.idle_gaps.is_empty() {
            let _ = writeln!(out, "  largest idle gaps:");
            for g in &self.idle_gaps {
                let _ = writeln!(
                    out,
                    "    w{} round {:<4} {:>12} {unit}",
                    g.worker, g.round, g.idle
                );
            }
        }
        out
    }

    /// Machine-readable JSON (the `--profile-json` schema, validated by
    /// the bench `trace_check` tool). Deterministic: fixed key order,
    /// integers only, no floats — a virtual-tick profile is bit-identical
    /// across same-seed reruns.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        fn hist_json(out: &mut String, h: &Histogram) {
            let _ = write!(
                out,
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99)
            );
            let mut first = true;
            for (i, n) in h.nonzero_buckets() {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{i},{n}]");
            }
            out.push_str("]}");
        }
        fn phases_json(out: &mut String, p: &PhaseTotals) {
            let _ = write!(
                out,
                "{{\"compute\":{},\"encode\":{},\"decode\":{},\"replay\":{},\"idle\":{}}}",
                p.compute, p.encode, p.decode, p.replay, p.idle
            );
        }
        fn profile_json(out: &mut String, p: &WorkerProfile) {
            out.push_str("{\"phases\":");
            phases_json(out, &p.phases);
            out.push_str(",\"round_latency\":");
            hist_json(out, &p.round_latency);
            out.push_str(",\"encode_time\":");
            hist_json(out, &p.encode_time);
            out.push_str(",\"decode_time\":");
            hist_json(out, &p.decode_time);
            out.push_str(",\"batch_bytes\":");
            hist_json(out, &p.batch_bytes);
            out.push_str(",\"per_round\":[");
            for (i, (round, totals)) in p.per_round.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"round\":{round},\"phases\":");
                phases_json(out, totals);
                out.push('}');
            }
            out.push_str("]}");
        }

        let mut out = String::with_capacity(4096);
        let base = match self.base {
            TimeBase::WallMicros => "wall_micros",
            TimeBase::VirtualTicks => "virtual_ticks",
        };
        let _ = write!(out, "{{\"time_base\":\"{base}\",\"workers\":[");
        for (i, (w, p)) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"processor\":{w},\"profile\":");
            profile_json(&mut out, p);
            out.push('}');
        }
        out.push_str("],\"merged\":");
        profile_json(&mut out, &self.merged);

        out.push_str(",\"time_by_rule\":[");
        for (i, t) in self.time_by_rule.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{t}");
        }
        out.push_str("],\"firings_by_rule\":[");
        for (i, f) in self.firings_by_rule.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{f}");
        }

        out.push_str("],\"rounds\":[");
        for (i, rc) in self.rounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"round\":{},\"straggler\":{},\"straggler_time\":{},\"dominant_phase\":\"{}\",\
                 \"compute\":{},\"comm\":{},\"idle\":{}}}",
                rc.round, rc.straggler, rc.straggler_time, rc.dominant_phase, rc.compute, rc.comm,
                rc.idle
            );
        }
        out.push_str("],\"hot_rules\":[");
        for (i, h) in self.hot_rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"rule\":{},\"time\":{},\"firings\":{}", h.rule, h.time, h.firings);
            if let Some(label) = self.rule_label(h.rule) {
                let _ = write!(out, ",\"label\":{}", Json::Str(label.to_string()).render());
            }
            out.push('}');
        }
        out.push_str("],\"idle_gaps\":[");
        for (i, g) in self.idle_gaps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"worker\":{},\"round\":{},\"idle\":{}}}",
                g.worker, g.round, g.idle
            );
        }
        out.push_str("]}");
        out
    }

    /// Prometheus-style text exposition (the `--metrics-out` format) —
    /// counters and summaries a scrape endpoint could serve as-is.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(2048);
        let unit = self.unit();
        let _ = writeln!(
            out,
            "# HELP pdatalog_phase_time_total Time per worker per phase ({unit})."
        );
        let _ = writeln!(out, "# TYPE pdatalog_phase_time_total counter");
        for (w, p) in &self.workers {
            for (name, v) in PHASES.iter().zip(p.phases.as_array()) {
                let _ = writeln!(
                    out,
                    "pdatalog_phase_time_total{{worker=\"{w}\",phase=\"{name}\"}} {v}"
                );
            }
        }
        for (label, h) in [
            ("round_latency", &self.merged.round_latency),
            ("encode_time", &self.merged.encode_time),
            ("decode_time", &self.merged.decode_time),
            ("batch_bytes", &self.merged.batch_bytes),
        ] {
            let _ = writeln!(out, "# TYPE pdatalog_{label} summary");
            for (q, ql) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "pdatalog_{label}{{quantile=\"{ql}\"}} {}",
                    h.quantile(q)
                );
            }
            let _ = writeln!(out, "pdatalog_{label}_sum {}", h.sum);
            let _ = writeln!(out, "pdatalog_{label}_count {}", h.count);
        }
        let _ = writeln!(out, "# TYPE pdatalog_rule_time_total counter");
        for (rule, &t) in self.time_by_rule.iter().enumerate() {
            let _ = writeln!(out, "pdatalog_rule_time_total{{rule=\"{rule}\"}} {t}");
        }
        let _ = writeln!(out, "# TYPE pdatalog_rule_firings_total counter");
        for (rule, &f) in self.firings_by_rule.iter().enumerate() {
            let _ = writeln!(out, "pdatalog_rule_firings_total{{rule=\"{rule}\"}} {f}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(compute: u64, encode: u64, decode: u64, replay: u64, idle: u64) -> PhaseTotals {
        PhaseTotals {
            compute,
            encode,
            decode,
            replay,
            idle,
        }
    }

    #[test]
    fn dominant_breaks_ties_deterministically() {
        assert_eq!(totals(5, 5, 0, 0, 0).dominant(), ("compute", 5));
        assert_eq!(totals(0, 0, 0, 0, 7).dominant(), ("idle", 7));
        assert_eq!(totals(0, 0, 0, 0, 0).dominant(), ("compute", 0));
    }

    #[test]
    fn profile_add_attributes_phases_per_round() {
        let mut p = WorkerProfile::default();
        p.add(PHASE_COMPUTE, 1, 10);
        p.add(PHASE_ENCODE, 1, 3);
        p.add(PHASE_COMPUTE, 2, 5);
        p.add(PHASE_REPLAY, 1, 2); // out-of-order: folds into round 1
        assert_eq!(p.phases.compute, 15);
        assert_eq!(p.phases.encode, 3);
        assert_eq!(p.phases.replay, 2);
        assert_eq!(p.per_round.len(), 2);
        assert_eq!(p.per_round[0], (1, totals(10, 3, 0, 2, 0)));
        assert_eq!(p.per_round[1], (2, totals(5, 0, 0, 0, 0)));
    }

    #[test]
    fn profile_merge_combines_rounds_by_key() {
        let mut a = WorkerProfile::default();
        a.add(PHASE_COMPUTE, 0, 4);
        a.add(PHASE_IDLE, 2, 9);
        a.round_latency.record(4);
        let mut b = WorkerProfile::default();
        b.add(PHASE_COMPUTE, 0, 6);
        b.add(PHASE_DECODE, 1, 2);
        b.round_latency.record(6);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is order-independent");
        assert_eq!(ab.phases.compute, 10);
        assert_eq!(ab.per_round.len(), 3);
        assert_eq!(ab.per_round[0].0, 0);
        assert_eq!(ab.per_round[1].0, 1);
        assert_eq!(ab.per_round[2].0, 2);
        assert_eq!(ab.round_latency.count, 2);
    }

    #[test]
    fn ticks_profiler_is_deterministic() {
        let build = || {
            let mut p = Profiler::ticks();
            p.set_now(10);
            let t0 = p.start();
            assert!(t0.is_none(), "ticks mode never reads the wall clock");
            let d = p.stop(t0, 42);
            p.add(PHASE_COMPUTE, 0, d);
            p.step_end();
            p.set_now(25);
            p.idle_gap(1);
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
        let mut p = Profiler::wall();
        let t0 = p.start();
        assert!(t0.is_some());
        let d = p.stop(t0, 999);
        assert_ne!(d, 999, "wall mode ignores the proxy (elapsed ~0us)");
        p.add(PHASE_ENCODE, 0, d);
        p.step_end();
        p.idle_gap(0); // gap measured from step_end; tiny but valid
    }

    #[test]
    fn report_json_is_well_formed_and_deterministic() {
        let mut p0 = WorkerProfile::default();
        p0.add(PHASE_COMPUTE, 0, 100);
        p0.add(PHASE_IDLE, 1, 30);
        p0.round_latency.record(100);
        p0.batch_bytes.record(64);
        let mut p1 = WorkerProfile::default();
        p1.add(PHASE_COMPUTE, 0, 40);
        p1.add(PHASE_ENCODE, 0, 10);
        p1.round_latency.record(40);

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
            rounds: Vec::new(),
            hot_rules: vec![HotRule { rule: 0, time: 90, firings: 9 }],
            idle_gaps: vec![IdleGap { worker: 0, round: 1, idle: 30 }],
            rule_labels: Vec::new(),
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b, "rendering is deterministic");
        assert!(a.starts_with("{\"time_base\":\"virtual_ticks\""));
        assert!(a.contains("\"workers\":[{\"processor\":0"));
        assert!(a.contains("\"hot_rules\":[{\"rule\":0,\"time\":90,\"firings\":9}]"));
        assert!(a.contains("\"idle_gaps\":[{\"worker\":0,\"round\":1,\"idle\":30}]"));
        let human = report.render_human();
        assert!(human.contains("w0"));
        assert!(human.contains("hot rules"));
        let prom = report.to_prometheus();
        assert!(prom.contains("pdatalog_phase_time_total{worker=\"0\",phase=\"compute\"} 100"));
        assert!(prom.contains("pdatalog_phase_time_total{worker=\"1\",phase=\"compute\"} 40"));
        assert!(prom.contains("pdatalog_round_latency_count 2"));

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
