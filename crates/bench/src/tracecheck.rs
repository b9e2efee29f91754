//! Structural validation of exported Chrome trace-event JSON.
//!
//! The CI trace-smoke job runs a traced execution, exports the journal
//! with `--trace-out`, and feeds the file to the `trace_check` binary,
//! which calls [`check_chrome_trace`]. The checker enforces the
//! invariants the viewer silently tolerates but that indicate a broken
//! producer: per-track monotone timestamps, balanced begin/end span
//! pairing, and (optionally) that every expected worker track is present
//! and reached termination.

use gst_common::json::Json;

/// What a validated trace contained, for the checker's one-line report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total trace events (including metadata).
    pub events: usize,
    /// Completed `B`/`E` span pairs.
    pub spans: usize,
    /// Distinct worker tracks (`tid`s with at least one non-metadata event).
    pub workers: usize,
}

/// Validate Chrome trace-event JSON produced by `--trace-out`.
///
/// Checks, in order:
/// 1. the document parses and has a `traceEvents` array of objects;
/// 2. every non-metadata event carries numeric `ts`/`pid`/`tid` and a
///    `name`, and timestamps never go backwards within a `(pid, tid)`
///    track (array order is emission order);
/// 3. `B`/`E` events pair up stack-wise per track — every span that
///    opens closes, with matching names, and nothing closes twice;
/// 4. at least one `round` span exists (a run that derived nothing
///    still begins round 0 somewhere);
/// 5. with `expect_workers = Some(n)`: tracks `0..n` are all present and
///    each recorded a `terminated` instant;
/// 6. with `require_sends`: at least one `send` instant exists (used by
///    CI on schemes that are known to communicate).
pub fn check_chrome_trace(
    text: &str,
    expect_workers: Option<usize>,
    require_sends: bool,
) -> Result<TraceSummary, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;

    // Per-(pid, tid) track state: last timestamp and the open-span stack.
    let mut tracks: Vec<((i64, i64), f64, Vec<String>)> = Vec::new();
    let mut spans = 0usize;
    let mut rounds = 0usize;
    let mut sends = 0usize;
    let mut terminated: Vec<i64> = Vec::new();
    let mut worker_tids: Vec<i64> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i} ({name}): missing ts"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i} ({name}): missing pid"))? as i64;
        let tid = ev
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i} ({name}): missing tid"))? as i64;

        if !worker_tids.contains(&tid) {
            worker_tids.push(tid);
        }
        let track = match tracks.iter_mut().find(|(key, _, _)| *key == (pid, tid)) {
            Some(t) => t,
            None => {
                tracks.push(((pid, tid), f64::NEG_INFINITY, Vec::new()));
                tracks.last_mut().unwrap()
            }
        };
        if ts < track.1 {
            return Err(format!(
                "event {i} ({name}): ts {ts} goes backwards on track pid={pid} tid={tid} (prev {})",
                track.1
            ));
        }
        track.1 = ts;

        match ph {
            "B" => track.2.push(name.to_string()),
            "E" => match track.2.pop() {
                Some(open) if open == name => {
                    spans += 1;
                    if name == "round" {
                        rounds += 1;
                    }
                }
                Some(open) => {
                    return Err(format!(
                        "event {i}: span end {name:?} does not match open span {open:?} on tid={tid}"
                    ))
                }
                None => {
                    return Err(format!(
                        "event {i}: span end {name:?} with no open span on tid={tid}"
                    ))
                }
            },
            "i" => {
                if name == "send" {
                    sends += 1;
                }
                if name == "terminated" && !terminated.contains(&tid) {
                    terminated.push(tid);
                }
            }
            other => return Err(format!("event {i} ({name}): unsupported ph {other:?}")),
        }
    }

    for ((pid, tid), _, stack) in &tracks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "unclosed span {open:?} on track pid={pid} tid={tid}"
            ));
        }
    }
    if rounds == 0 {
        return Err("no completed round span in trace".into());
    }
    if let Some(n) = expect_workers {
        for tid in 0..n as i64 {
            if !worker_tids.contains(&tid) {
                return Err(format!("worker track tid={tid} missing (expected {n})"));
            }
            if !terminated.contains(&tid) {
                return Err(format!("worker tid={tid} never recorded termination"));
            }
        }
    }
    if require_sends && sends == 0 {
        return Err("no send events in trace (expected communication)".into());
    }

    Ok(TraceSummary {
        events: events.len(),
        spans,
        workers: worker_tids.len(),
    })
}

/// What a validated profile contained, for the checker's one-line report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Worker profiles present.
    pub workers: usize,
    /// Merged idle time across all workers (in the profile's time base).
    pub idle_total: u64,
    /// The smallest phase sum (all five phases) of any one worker: zero
    /// means some worker's timers recorded nothing at all.
    pub quietest_worker: u64,
}

/// The five phase names every profile must account, in emission order.
const PROFILE_PHASES: [&str; 5] = ["compute", "encode", "decode", "replay", "idle"];

/// A worker profile's five phase totals, in [`PROFILE_PHASES`] order.
fn check_worker_profile(v: &Json, at: &str) -> Result<[u64; 5], String> {
    let phases = v.get("phases").ok_or_else(|| format!("{at}: missing phases object"))?;
    let mut out = [0u64; 5];
    for (k, slot) in PROFILE_PHASES.iter().zip(out.iter_mut()) {
        *slot = phases
            .get(k)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{at}.phases: missing numeric phase {k:?}"))? as u64;
    }
    Ok(out)
}

/// Validate profile JSON produced by `pdatalog --profile-json`.
///
/// Checks, in order:
/// 1. the document parses, with `time_base` either `wall_micros` or
///    `virtual_ticks`;
/// 2. every worker entry and the merged profile carry all five phase
///    totals;
/// 3. the merged phase totals equal the sum over workers;
/// 4. `time_by_rule` and `firings_by_rule` are equal-length numeric
///    arrays;
/// 5. `hot_rules` entries are well-formed.
pub fn check_profile_json(text: &str) -> Result<ProfileSummary, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let base = doc
        .get("time_base")
        .and_then(Json::as_str)
        .ok_or("missing time_base")?;
    if base != "wall_micros" && base != "virtual_ticks" {
        return Err(format!("unknown time_base {base:?}"));
    }

    let workers = doc
        .get("workers")
        .and_then(Json::as_arr)
        .ok_or("missing workers array")?;
    if workers.is_empty() {
        return Err("no worker profiles".into());
    }
    let mut summed = [0u64; 5];
    let mut quietest_worker = u64::MAX;
    for (i, w) in workers.iter().enumerate() {
        w.get("processor")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("workers[{i}]: missing processor"))?;
        let profile = w
            .get("profile")
            .ok_or_else(|| format!("workers[{i}]: missing profile"))?;
        let phases = check_worker_profile(profile, &format!("workers[{i}].profile"))?;
        quietest_worker = quietest_worker.min(phases.iter().sum());
        for (total, v) in summed.iter_mut().zip(phases) {
            *total += v;
        }
    }
    let merged = doc.get("merged").ok_or("missing merged profile")?;
    let merged_phases = check_worker_profile(merged, "merged")?;
    if merged_phases != summed {
        return Err(format!(
            "merged phases {merged_phases:?} != sum over workers {summed:?}"
        ));
    }

    let time_by_rule = doc
        .get("time_by_rule")
        .and_then(Json::as_arr)
        .ok_or("missing time_by_rule array")?;
    let firings_by_rule = doc
        .get("firings_by_rule")
        .and_then(Json::as_arr)
        .ok_or("missing firings_by_rule array")?;
    if time_by_rule.len() != firings_by_rule.len() {
        return Err(format!(
            "time_by_rule has {} rules but firings_by_rule has {}",
            time_by_rule.len(),
            firings_by_rule.len()
        ));
    }
    for (k, arr) in [("time_by_rule", time_by_rule), ("firings_by_rule", firings_by_rule)] {
        for (i, v) in arr.iter().enumerate() {
            v.as_num().ok_or_else(|| format!("{k}[{i}]: not a number"))?;
        }
    }

    let hot_rules = doc
        .get("hot_rules")
        .and_then(Json::as_arr)
        .ok_or("missing hot_rules array")?;
    for (i, h) in hot_rules.iter().enumerate() {
        for k in ["rule", "time", "firings"] {
            h.get(k)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("hot_rules[{i}]: missing numeric field {k:?}"))?;
        }
    }
    Ok(ProfileSummary {
        workers: workers.len(),
        idle_total: merged_phases[4],
        quietest_worker,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrap(events: &str) -> String {
        format!("{{\"traceEvents\":[{events}],\"displayTimeUnit\":\"ms\"}}")
    }

    const GOOD: &str = r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"worker 0"}},
        {"name":"round","ph":"B","ts":1,"pid":0,"tid":0},
        {"name":"send","ph":"i","ts":2,"pid":0,"tid":0,"s":"t"},
        {"name":"round","ph":"E","ts":3,"pid":0,"tid":0},
        {"name":"terminated","ph":"i","ts":4,"pid":0,"tid":0,"s":"t"}"#;

    #[test]
    fn accepts_a_well_formed_trace() {
        let summary = check_chrome_trace(&wrap(GOOD), Some(1), true).unwrap();
        assert_eq!(summary, TraceSummary { events: 5, spans: 1, workers: 1 });
    }

    #[test]
    fn rejects_backward_timestamps() {
        let text = wrap(
            r#"{"name":"round","ph":"B","ts":5,"pid":0,"tid":0},
               {"name":"round","ph":"E","ts":4,"pid":0,"tid":0}"#,
        );
        let err = check_chrome_trace(&text, None, false).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
    }

    #[test]
    fn timestamps_are_monotone_per_track_not_globally() {
        let text = wrap(
            r#"{"name":"round","ph":"B","ts":10,"pid":0,"tid":0},
               {"name":"round","ph":"B","ts":1,"pid":0,"tid":1},
               {"name":"round","ph":"E","ts":11,"pid":0,"tid":0},
               {"name":"round","ph":"E","ts":2,"pid":0,"tid":1}"#,
        );
        assert!(check_chrome_trace(&text, None, false).is_ok());
    }

    #[test]
    fn rejects_unclosed_and_mismatched_spans() {
        let open = wrap(r#"{"name":"round","ph":"B","ts":1,"pid":0,"tid":0}"#);
        assert!(check_chrome_trace(&open, None, false)
            .unwrap_err()
            .contains("unclosed span"));

        let stray = wrap(r#"{"name":"round","ph":"E","ts":1,"pid":0,"tid":0}"#);
        assert!(check_chrome_trace(&stray, None, false)
            .unwrap_err()
            .contains("no open span"));
    }

    #[test]
    fn rejects_missing_worker_or_termination() {
        let err = check_chrome_trace(&wrap(GOOD), Some(2), false).unwrap_err();
        assert!(err.contains("tid=1 missing"), "{err}");
    }

    #[test]
    fn rejects_silent_traces_when_sends_required() {
        let text = wrap(
            r#"{"name":"round","ph":"B","ts":1,"pid":0,"tid":0},
               {"name":"round","ph":"E","ts":2,"pid":0,"tid":0}"#,
        );
        let err = check_chrome_trace(&text, None, true).unwrap_err();
        assert!(err.contains("no send events"), "{err}");
    }

    #[test]
    fn rejects_traces_without_rounds() {
        let text = wrap(r#"{"name":"idle","ph":"i","ts":1,"pid":0,"tid":0,"s":"t"}"#);
        let err = check_chrome_trace(&text, None, false).unwrap_err();
        assert!(err.contains("no completed round"), "{err}");
    }

    /// A minimal well-formed profile: one worker, merged = that worker.
    fn profile_doc(compute: u64, idle: u64) -> String {
        let profile = format!(
            "{{\"phases\":{{\"compute\":{compute},\"encode\":0,\"decode\":0,\"replay\":0,\"idle\":{idle}}}}}"
        );
        format!(
            "{{\"time_base\":\"virtual_ticks\",\"workers\":[{{\"processor\":0,\"profile\":{profile}}}],\
             \"merged\":{profile},\"time_by_rule\":[{compute}],\"firings_by_rule\":[4],\
             \"hot_rules\":[{{\"rule\":0,\"time\":{compute},\"firings\":4}}]}}"
        )
    }

    #[test]
    fn accepts_a_well_formed_profile() {
        let summary = check_profile_json(&profile_doc(100, 7)).unwrap();
        assert_eq!(
            summary,
            ProfileSummary { workers: 1, idle_total: 7, quietest_worker: 107 }
        );
    }

    #[test]
    fn rejects_profile_whose_merged_phases_do_not_resum() {
        let text = profile_doc(100, 7)
            .replace("\"merged\":{\"phases\":{\"compute\":100", "\"merged\":{\"phases\":{\"compute\":101");
        let err = check_profile_json(&text).unwrap_err();
        assert!(err.contains("!= sum over workers"), "{err}");
    }

    #[test]
    fn rejects_profile_with_unknown_phase_or_base() {
        let bad_phase = profile_doc(100, 7).replacen("\"replay\":0", "\"gc\":0", 1);
        assert!(check_profile_json(&bad_phase).unwrap_err().contains("missing numeric phase \"replay\""));

        let bad_base = profile_doc(100, 7).replace("virtual_ticks", "nanoseconds");
        assert!(check_profile_json(&bad_base).unwrap_err().contains("unknown time_base"));
    }

    #[test]
    fn real_exporter_output_passes_the_checker() {
        // Feed the runtime exporter's actual to_json() output through the
        // checker: this pins the checker to the producer's key set, so a
        // schema drift on either side fails here rather than in CI.
        use gst_runtime::{PhaseTotals, ProfileReport, TimeBase, WorkerProfile};

        let profile_for = |w: u64| WorkerProfile {
            phases: PhaseTotals { compute: 100 + w, encode: 5, decode: 3, replay: 0, idle: 40 },
        };
        let mut workers = Vec::new();
        for w in 0..2usize {
            let mut report = gst_runtime::WorkerReport {
                processing_firings: 10,
                profile: Some(profile_for(w as u64)),
                ..gst_runtime::WorkerReport::new(w, 2)
            };
            report.eval.time_by_rule = vec![90, 10 + w as u64];
            report.eval.firings_by_rule = vec![7, 3];
            workers.push(report);
        }
        let stats = gst_runtime::ParallelStats {
            workers,
            channel_matrix: vec![vec![0, 0], vec![0, 0]],
            restarts: 0,
            reconnects: 0,
            relay_bytes: 0,
            wall_time: std::time::Duration::ZERO,
            pooling_time: std::time::Duration::ZERO,
        };
        let report = ProfileReport::build(&stats, TimeBase::VirtualTicks)
            .expect("profiles present");
        let summary = check_profile_json(&report.to_json()).unwrap();
        assert_eq!(summary.workers, 2);
        assert_eq!(summary.idle_total, 80);
        assert_eq!(summary.quietest_worker, 100 + 5 + 3 + 40);
    }
}
