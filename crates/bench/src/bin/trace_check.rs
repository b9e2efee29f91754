//! CI validator for Chrome traces exported by `pdatalog --trace-out`
//! and profile JSON exported by `pdatalog --profile-json`.
//!
//! ```text
//! trace_check <trace.json> [--workers N] [--require-sends]
//! trace_check --profile <profile.json> [--workers N] [--require-idle]
//! ```
//!
//! Exits 0 and prints a one-line summary if the file is structurally
//! sound (see [`gst_bench::tracecheck`]); exits 1 with the violation
//! otherwise. For traces, `--workers N` additionally requires worker
//! tracks `0..N`, each with a termination marker, and `--require-sends`
//! fails traces with no communication events. For profiles, `--workers
//! N` requires exactly N worker profiles and `--require-idle` fails a
//! vacuous profile: one where some worker's five phases sum to zero
//! (its timers never ran) or where no worker ever waited — every run
//! ends in a termination probe the passive workers sit out, so a
//! parallel run with no idle time at all did not time its waits.

use gst_bench::tracecheck::{check_chrome_trace, check_profile_json};

fn main() {
    std::process::exit(match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("trace_check: {e}");
            1
        }
    });
}

fn run() -> Result<(), String> {
    const USAGE: &str = "usage: trace_check <trace.json> [--workers N] [--require-sends]\n   or: trace_check --profile <profile.json> [--workers N] [--require-idle]";
    let mut path = None;
    let mut profile_mode = false;
    let mut expect_workers = None;
    let mut require_sends = false;
    let mut require_idle = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => profile_mode = true,
            "--workers" => {
                let n = args.next().ok_or("--workers needs a count")?;
                expect_workers =
                    Some(n.parse::<usize>().map_err(|_| format!("bad worker count {n:?}"))?);
            }
            "--require-sends" => require_sends = true,
            "--require-idle" => require_idle = true,
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let path = path.ok_or(USAGE)?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if profile_mode {
        if require_sends {
            return Err("--require-sends applies to traces, not profiles".into());
        }
        let summary = check_profile_json(&text)?;
        if let Some(n) = expect_workers {
            if summary.workers != n {
                return Err(format!(
                    "{path}: expected {n} worker profiles, found {}",
                    summary.workers
                ));
            }
        }
        if require_idle && (summary.idle_total == 0 || summary.quietest_worker == 0) {
            return Err(format!(
                "{path}: vacuous profile (idle total {}, quietest worker's phase sum {})",
                summary.idle_total, summary.quietest_worker
            ));
        }
        println!(
            "{path}: ok ({} worker profiles, idle total {})",
            summary.workers, summary.idle_total
        );
        return Ok(());
    }
    if require_idle {
        return Err("--require-idle applies to profiles, not traces".into());
    }
    let summary = check_chrome_trace(&text, expect_workers, require_sends)?;
    println!(
        "{path}: ok ({} events, {} spans, {} worker tracks)",
        summary.events, summary.spans, summary.workers
    );
    Ok(())
}
