//! The metric names, units and directions the benchmark reports — the
//! same lists `BENCHMARK.json` declares (a test holds the two together).

/// `(name, unit, better, bound)`. `fail_share` is not in this list: the
/// result line carries it as `failed / attempted`, because a metric that
/// is 0 at baseline cannot be bounded as a share of its median.
///
/// Every time is in seconds of the reference clock (`reference.rs`): as
/// measured, scaled by a fixed kernel timed next to it, because the
/// sizing host's speed drifts by 15–35 % over minutes. Ten runs on ten
/// seeds then spread (quartile distance over median) 1–5 % on most
/// metrics and 9 % on `tc-dense`'s `wall_s`, where the seed moves the
/// balance of the hash partition; the bounds leave the driver's check,
/// which wants a spread within a bound on a busier host, a factor of
/// three or more. Peak RSS repeats to 0.5 % on one input and moves 2–5 %
/// with the seed, for the same reason.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("seq_wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p95_ms", "ms", "lower", 0.25),
];

/// `(name, unit, better)`, prefix = crate or module measured.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    ("frontend.parse_ms", "ms", "lower"),
    ("frontend.facts_per_s", "1/s", "higher"),
    ("frontend.magic_rewrite_us", "us", "lower"),
    ("storage.insert_mtps", "Mtuple/s", "higher"),
    ("storage.dup_insert_mtps", "Mtuple/s", "higher"),
    ("storage.index_build_ms", "ms", "lower"),
    ("storage.probe_mops", "Mop/s", "higher"),
    ("storage.bytes_per_tuple", "B", "lower"),
    ("eval.seq_ms", "ms", "lower"),
    ("eval.seq_firings", "count", "lower"),
    ("eval.seq_rounds", "count", "lower"),
    ("eval.seq_dup_ratio", "ratio", "lower"),
    ("eval.firings_per_s", "1/s", "higher"),
    ("core.compile_ms", "ms", "lower"),
    ("core.n1_silent_ms", "ms", "lower"),
    ("core.n1_firings", "count", "lower"),
    ("core.processing_firings", "count", "lower"),
    ("core.firing_overhead", "ratio", "lower"),
    ("core.rewrite_tax", "ratio", "lower"),
    ("codec.encode_mtps", "Mtuple/s", "higher"),
    ("codec.decode_mtps", "Mtuple/s", "higher"),
    ("codec.bytes_per_tuple", "B", "lower"),
    ("codec.ratio_vs_row", "ratio", "higher"),
    ("runtime.n1_full_ms", "ms", "lower"),
    ("runtime.machinery_tax", "ratio", "lower"),
    ("runtime.wall_ms", "ms", "lower"),
    ("runtime.rounds", "count", "lower"),
    ("runtime.messages", "count", "lower"),
    ("runtime.comm_tuples", "count", "lower"),
    ("runtime.bytes_shipped", "B", "lower"),
    ("runtime.firing_skew", "ratio", "lower"),
    ("runtime.utilization", "ratio", "higher"),
    ("runtime.busy_share", "ratio", "higher"),
    ("runtime.phase_compute_ms", "ms", "lower"),
    ("runtime.phase_encode_ms", "ms", "lower"),
    ("runtime.phase_decode_ms", "ms", "lower"),
    ("runtime.phase_idle_ms", "ms", "lower"),
    ("runtime.idle_share", "ratio", "lower"),
    ("runtime.unattributed_ms", "ms", "lower"),
    ("runtime.profile_overhead", "ratio", "lower"),
    ("sim.rounds", "count", "lower"),
    ("sim.firings", "count", "lower"),
    ("sim.bytes_shipped", "B", "lower"),
    ("sim.messages", "count", "lower"),
    ("sim.wall_ms", "ms", "lower"),
    ("net.wall_ms", "ms", "lower"),
    ("net.relay_bytes", "B", "lower"),
    ("net.reconnects", "count", "lower"),
    ("net.tax", "ratio", "lower"),
    ("session.init_ms", "ms", "lower"),
    ("session.batch_p50_ms", "ms", "lower"),
    ("session.batch_max_ms", "ms", "lower"),
    ("session.overdeleted", "count", "lower"),
    ("session.rederived", "count", "lower"),
    ("session.vs_recompute", "ratio", "lower"),
    ("cli.wall_ms", "ms", "lower"),
    ("cli.seq_wall_ms", "ms", "lower"),
    ("cli.n1_wall_ms", "ms", "lower"),
    ("cli.overhead_ms", "ms", "lower"),
    ("cli.speedup_vs_seq", "ratio", "higher"),
    ("cli.break_even_n", "count", "lower"),
    ("cli.tuples_per_s", "1/s", "higher"),
    ("trace.ladder_passes", "count", "higher"),
    ("trace.bench_self_ms", "ms", "lower"),
];

/// Counters that must repeat exactly between two runs of one build on one
/// seed (`selfcheck` compares them; a later issue may cite them).
pub const EXACT: [&str; 6] = [
    "eval.seq_firings",
    "core.n1_firings",
    "sim.rounds",
    "sim.firings",
    "sim.bytes_shipped",
    "sim.messages",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and these tables must name the same metrics, with
    /// the same units and bounds; the workloads it names — the four the
    /// driver gates, of the six `run.sh` runs — must exist.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                r#"{{"name": "{name}", "unit": "{unit}", "better": "{better}", "bound": {bound}}}"#
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry = format!(r#"{{"name": "{name}", "unit": "{unit}", "better": "{better}"}}"#);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let gated: Vec<&str> = text
            .lines()
            .filter(|line| line.contains(r#""why": ""#))
            .filter_map(|line| line.split('"').nth(3))
            .collect();
        assert_eq!(gated, ["tc-dense", "tc-deep", "sg-general", "point-query"]);
        assert!(gated.iter().all(|name| crate::gen::by_name(name).is_some()));
        let declared = text.matches(r#"{"name": ""#).count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + gated.len());
    }

    #[test]
    fn names_are_unique_and_exact_counters_exist() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name}");
        }
    }
}
