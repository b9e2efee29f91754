//! Regenerate every figure and experiment of the paper.
//!
//! ```text
//! cargo run --release -p gst-bench --bin harness            # everything
//! cargo run --release -p gst-bench --bin harness -- f3 s1   # a subset
//! ```
//!
//! Experiment ids (see DESIGN.md §4): f1 f2 f3 f4 t1 t2 e4 e5 s1 s2 p2 p3 l1 r1.

use gst_common::json::{count, num, s, Json};
use gst_bench::table::Table;
use gst_bench::*;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--json <path>`: also write a machine-readable report.
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|k| {
            let path = args.get(k + 1).cloned().unwrap_or_else(|| {
                eprintln!("--json needs a path");
                std::process::exit(2);
            });
            args.drain(k..=k + 1);
            path
        });
    let mut report: Vec<(String, Json)> = Vec::new();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id || a == "all");

    for (id, fig) in [
        ("f1", want("f1").then(figure1)),
        ("f2", want("f2").then(figure2)),
        ("f3", want("f3").then(figure3)),
        ("f4", want("f4").then(figure4)),
    ] {
        if let Some(figure) = fig {
            print_figure(&figure);
            report.push((
                id.to_string(),
                Json::obj(vec![
                    ("title", s(figure.title.clone())),
                    ("matches_paper", Json::Bool(figure.matches_paper)),
                    ("body", s(figure.body.clone())),
                ]),
            ));
        }
    }

    if want("t1") {
        banner("T1 — Theorems 1/4/5: parallel ≡ sequential least model");
        // T1 is asserted exhaustively by `cargo test` (tests/correctness.rs);
        // here we run one spot check per scheme for the record.
        let cmp = compare_examples(40, 100, 4, 42);
        let ok = cmp.rows.iter().all(|r| r.correct);
        println!(
            "{} — every §4 scheme equals the sequential least model on\n{}\n",
            if ok { "HOLDS" } else { "VIOLATED" },
            cmp.workload
        );
    }

    if want("t2") {
        banner("T2 — Theorems 2/6: semi-naive non-redundancy");
        let rows = nonredundancy_table();
        let mut t = Table::new(vec!["program", "dataset", "n", "sequential", "parallel", "holds"]);
        for r in &rows {
            t.row(vec![
                r.program.clone(),
                r.dataset.clone(),
                r.n.to_string(),
                r.sequential.to_string(),
                r.parallel.to_string(),
                r.holds.to_string(),
            ]);
        }
        println!("{}\n", t.render());
        println!(
            "all {} rows satisfy parallel ≤ sequential: {}\n",
            rows.len(),
            rows.iter().all(|r| r.holds)
        );
        report.push((
            "t2".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("program", s(r.program.clone())),
                            ("dataset", s(r.dataset.clone())),
                            ("n", count(r.n as u64)),
                            ("sequential", count(r.sequential)),
                            ("parallel", count(r.parallel)),
                            ("holds", Json::Bool(r.holds)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if want("e4") {
        banner("E1/E2/E3 — §4: the three derived algorithms");
        let cmp = compare_examples(60, 150, 4, 42);
        println!("{}", cmp.workload);
        println!("sequential baseline: {} firings\n", cmp.sequential_firings);
        let mut t = Table::new(vec![
            "scheme",
            "comm tuples",
            "messages",
            "firings",
            "base tuples",
            "correct",
        ]);
        for r in &cmp.rows {
            t.row(vec![
                r.scheme.clone(),
                r.comm_tuples.to_string(),
                r.messages.to_string(),
                r.firings.to_string(),
                r.base_tuples.to_string(),
                r.correct.to_string(),
            ]);
        }
        println!("{}\n", t.render());
        println!(
            "paper §4.3 ordering (communication): Ex1 {} ≤ Ex3 {} ≤ Ex2 {}\n",
            cmp.rows[0].comm_tuples, cmp.rows[1].comm_tuples, cmp.rows[2].comm_tuples
        );
        report.push((
            "e4".into(),
            Json::Arr(
                cmp.rows
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("scheme", s(r.scheme.clone())),
                            ("comm_tuples", count(r.comm_tuples)),
                            ("firings", count(r.firings)),
                            ("base_tuples", count(r.base_tuples)),
                            ("correct", Json::Bool(r.correct)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if want("s1") {
        banner("S1 — §6: redundancy ↔ communication spectrum");
        let pts = tradeoff_sweep(8, 8, 4, &[0.0, 0.25, 0.5, 0.75, 1.0]);
        let mut t = Table::new(vec!["α", "comm tuples", "firings", "redundancy", "correct"]);
        for p in &pts {
            t.row(vec![
                format!("{:.2}", p.alpha),
                p.comm_tuples.to_string(),
                p.firings.to_string(),
                p.redundancy.to_string(),
                p.correct.to_string(),
            ]);
        }
        println!("{}\n", t.render());
        println!(
            "endpoints: α=0 non-redundant (§3); α=1 zero-communication ([Wolfson 88]); \
             constant-h_i check: communication-free = {}\n",
            generalized_constant_is_communication_free(4)
        );
        report.push((
            "s1".into(),
            Json::Arr(
                pts.iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("alpha", num(p.alpha)),
                            ("comm_tuples", count(p.comm_tuples)),
                            ("firings", count(p.firings)),
                            ("redundancy", count(p.redundancy)),
                            ("correct", Json::Bool(p.correct)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if want("s2") {
        banner("S2 — §7: the general scheme beyond linear sirups");
        let rows = general_scheme_experiments(4);
        let mut t = Table::new(vec!["program", "outputs", "comm tuples", "correct", "Thm 6"]);
        for r in &rows {
            let outputs = r
                .output_sizes
                .iter()
                .map(|(n, s)| format!("|{n}|={s}"))
                .collect::<Vec<_>>()
                .join(", ");
            t.row(vec![
                r.program.clone(),
                outputs,
                r.comm_tuples.to_string(),
                r.correct.to_string(),
                r.non_redundant.to_string(),
            ]);
        }
        println!("{}\n", t.render());
    }

    if want("e5") {
        banner("E5 — communication growth with answer size");
        let rows = communication_scaling(4, &[20, 40, 80, 160]);
        let mut t = Table::new(vec!["|par|", "|anc|", "Ex1 comm", "Ex3 comm", "Ex2 comm"]);
        for r in &rows {
            t.row(vec![
                r.edges.to_string(),
                r.closure.to_string(),
                r.comm.0.to_string(),
                r.comm.1.to_string(),
                r.comm.2.to_string(),
            ]);
        }
        println!("{}\n", t.render());
    }

    if want("p3") {
        banner("P3 — §8 quantified: predicted wall time per architecture");
        let rows = simulate_architectures(60, 150, 42, &[2, 4, 8]);
        let mut t = Table::new(vec![
            "scheme",
            "n",
            "shared-mem (ms)",
            "LAN (ms)",
            "WAN (ms)",
        ]);
        for r in &rows {
            t.row(vec![
                r.scheme.clone(),
                r.n.to_string(),
                format!("{:.2}", r.predicted_us.0 / 1e3),
                format!("{:.2}", r.predicted_us.1 / 1e3),
                format!("{:.2}", r.predicted_us.2 / 1e3),
            ]);
        }
        println!("{}\n", t.render());
        println!(
            "the journal of one fixed-seed simulated run per scheme, priced under\n\
             three machine models — what communication costs decides the ranking,\n\
             exactly §8's point. A model, not a measurement: see benchmark/.\n"
        );
    }

    if want("l1") {
        banner("L1 — load balance / processor utilization (§8 future work)");
        let rows = load_balance(4);
        let mut t = Table::new(vec![
            "scheme / workload",
            "per-worker firings",
            "skew (max/mean)",
            "bytes skew",
        ]);
        for r in &rows {
            t.row(vec![
                r.label.clone(),
                format!("{:?}", r.per_worker),
                format!("{:.2}", r.skew),
                if r.bytes_skew > 0.0 {
                    format!("{:.2}", r.bytes_skew)
                } else {
                    "-".into()
                },
            ]);
        }
        println!("{}\n", t.render());
        println!(
            "hash discrimination balances bushy workloads; degenerate choices (the\n\
             star's hub as v(e)) concentrate all firings on one processor; the\n\
             skew-aware partition splits hot keys to rebalance star/zipf.\n"
        );
    }

    if want("r1") {
        banner("R1 — crash recovery: restart + replay + ring repair (DESIGN.md §7)");
        let rows = recovery_experiment(40, 100, 4, 0..6);
        let mut t = Table::new(vec![
            "seed",
            "crashed",
            "restarts",
            "replayed",
            "stale dropped",
            "correct",
        ]);
        for r in &rows {
            t.row(vec![
                r.seed.to_string(),
                format!("w{}", r.crashed_worker),
                r.restarts.to_string(),
                r.replayed_batches.to_string(),
                r.stale_dropped.to_string(),
                r.correct.to_string(),
            ]);
        }
        println!("{}\n", t.render());
        let all_correct = rows.iter().all(|r| r.correct);
        let all_restarted = rows.iter().all(|r| r.restarts >= 1);
        println!(
            "every seed recovered ({all_restarted}) and matched the sequential \
             least model ({all_correct})\n"
        );
        report.push((
            "r1".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("seed", count(r.seed)),
                            ("crashed_worker", count(r.crashed_worker as u64)),
                            ("restarts", count(r.restarts)),
                            ("replayed_batches", count(r.replayed_batches)),
                            ("stale_dropped", count(r.stale_dropped)),
                            ("correct", Json::Bool(r.correct)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if want("p2") {
        banner("P2 — §8: architecture-dependent scheme selection");
        let (profiles, decisions) = strategy_decisions();
        let mut t = Table::new(vec!["candidate", "firings", "tuples sent", "base tuples"]);
        for p in &profiles {
            t.row(vec![
                p.name.clone(),
                p.firings.to_string(),
                p.tuples_sent.to_string(),
                p.base_tuples.to_string(),
            ]);
        }
        println!("{}\n", t.render());
        let mut t = Table::new(vec!["comm cost", "storage cost", "compiler picks"]);
        for (comm, storage, name) in &decisions {
            t.row(vec![comm.to_string(), storage.to_string(), name.clone()]);
        }
        println!("{}\n", t.render());
    }
    if let Some(path) = json_path {
        // Reports conventionally land under the gitignored `out/`
        // directory (`--json out/harness_report.json`); create it.
        if let Some(parent) = std::path::Path::new(&path).parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("cannot create {}: {e}", parent.display());
                    std::process::exit(2);
                }
            }
        }
        let body = Json::Obj(report).render();
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote JSON report to {path}");
    }
}

fn banner(title: &str) {
    println!("{}", "=".repeat(title.chars().count().min(78)));
    println!("{title}");
    println!("{}", "=".repeat(title.chars().count().min(78)));
}

fn print_figure(figure: &FigureResult) {
    banner(&figure.title);
    println!("{}", figure.body);
    println!(
        "matches the paper's figure: {}\n",
        if figure.matches_paper { "YES" } else { "NO" }
    );
}
