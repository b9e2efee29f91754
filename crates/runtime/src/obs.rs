//! Unified tracing and metrics: the per-worker event journal.
//!
//! The paper's claims are *dynamic* — Theorem 2's non-redundancy is a
//! property of every round, Example 1/Theorem 3's zero communication is a
//! property of every send that never happens, and the §6 trade-off is a
//! curve traced out round by round. End-of-run aggregates
//! ([`crate::stats::ParallelStats`]) can verify the totals; this module
//! records *when* things happened, so stragglers, skewed channels, replay
//! storms and idle gaps become visible.
//!
//! The design is one event model with two producers and three consumers:
//!
//! * **Producers** — every [`crate::worker::WorkerCore`] owns a
//!   [`TraceSink`] (a plain event buffer, disabled by default: one branch
//!   per emission when off) and stamps events against either a wall clock
//!   (threaded transport, microseconds since the run started) or the
//!   virtual clock (simulation, ticks). The transports add their own
//!   events — deliveries, stalls, crashes, restarts — straight into the
//!   same [`Journal`], so the simulator's schedule and the worker's view
//!   are one recording.
//! * **Consumers** — a human-readable listing (`Display`), a Chrome trace-event JSON
//!   export ([`Journal::chrome_trace`], loadable in Perfetto or
//!   `chrome://tracing`: one track per worker, rounds as spans, everything
//!   else as instants), and the validators the test suite and the CI
//!   checker run ([`Journal::validate`]).
//!
//! Determinism: a simulated journal contains only virtual times and
//! counters — two runs with the same seed, specs and fault plan produce
//! bit-identical journals, which `tests/trace.rs` asserts.

use std::time::Instant;

use crate::message::MessageKind;

/// What the timestamps of a [`Journal`] mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeBase {
    /// Microseconds since the run's shared wall-clock origin
    /// (threaded transport).
    #[default]
    WallMicros,
    /// Virtual ticks of the simulation clock (deterministic).
    VirtualTicks,
}

/// One journal entry: when, who, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Timestamp in the journal's [`TimeBase`].
    pub time: u64,
    /// The processor the event belongs to (the receiving side for
    /// deliveries).
    pub worker: usize,
    /// What happened.
    pub kind: ObsKind,
}

/// The span and event taxonomy (DESIGN.md §9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsKind {
    /// A semi-naive round produced fresh tuples and its processing step
    /// begins. Always paired with a [`ObsKind::RoundEnd`] of the same
    /// round on the same worker.
    RoundBegin {
        /// Engine round index (count of completed advances).
        round: u64,
    },
    /// The round's processing step finished.
    RoundEnd {
        /// Engine round index, matching the open [`ObsKind::RoundBegin`].
        round: u64,
        /// Fresh tuples the round's advance admitted (the delta size).
        fresh: u64,
        /// Rule firings the processing step performed.
        firings: u64,
    },
    /// The rows one round routed to an outlet were encoded for the wire —
    /// once, however many destinations share the payload `Arc`
    /// (single-encode multicast).
    BatchEncoded {
        /// The predicate symbol (raw interner id) of the inbox the batch
        /// is addressed to (at its first destination).
        channel: u32,
        /// Tuples in the batch.
        tuples: u64,
        /// Wire bytes of the columnar encoding.
        bytes: u64,
        /// Bytes the row-oriented format would have spent on the same
        /// batch — the reference of the compression ratio.
        raw_bytes: u64,
    },
    /// A batch of channel tuples left for another processor.
    BatchSent {
        /// Destination processor.
        to: usize,
        /// Tuples in the batch.
        tuples: u64,
        /// Wire bytes of the encoded batch.
        bytes: u64,
        /// Link sequence number.
        seq: u64,
    },
    /// A batch was decoded and injected into an inbox predicate.
    BatchReceived {
        /// Sending processor.
        from: usize,
        /// Tuples in the batch.
        tuples: u64,
        /// Wire bytes of the encoded batch.
        bytes: u64,
        /// Link sequence number.
        seq: u64,
        /// True when the link sequence number was already absorbed
        /// (transport duplicate; injected but not counted).
        duplicate: bool,
    },
    /// A compacted replay-log snapshot was absorbed during recovery.
    SnapshotReceived {
        /// Sending processor.
        from: usize,
        /// Per-inbox payloads in the snapshot.
        payloads: u64,
        /// Sequence watermark the snapshot stands in for.
        upto: u64,
    },
    /// Replay-log retransmission toward a recovering peer.
    ReplaySent {
        /// The recovering processor.
        to: usize,
        /// Messages retransmitted (snapshot plus retained batches).
        messages: u64,
    },
    /// The worker repaired into a new recovery epoch.
    EpochRepair {
        /// The epoch entered.
        epoch: u64,
    },
    /// The worker went passive with an empty queue (emitted once per
    /// transition, not per poll).
    IdleWait,
    /// The worker accepted the global termination decision.
    Terminated,
    /// Transport: an envelope reached the worker's queue.
    Delivered {
        /// Sending processor.
        from: usize,
        /// Message kind delivered.
        kind: MessageKind,
        /// Link sequence number.
        seq: u64,
        /// True for a fault-injected duplicate copy.
        duplicate: bool,
    },
    /// Transport: the fault plan stalled the worker.
    Stalled {
        /// Virtual time at which it resumes.
        until: u64,
    },
    /// Transport: the worker (incarnation) died.
    Crashed,
    /// Transport: the supervisor restarted the worker.
    Restarted {
        /// The recovery epoch the fleet moves to.
        epoch: u64,
    },
}

impl ObsKind {
    /// The Chrome trace-event name for this kind (also the stable label
    /// the CI checker greps for).
    fn name(&self) -> &'static str {
        match self {
            ObsKind::RoundBegin { .. } | ObsKind::RoundEnd { .. } => "round",
            ObsKind::BatchEncoded { .. } => "encode",
            ObsKind::BatchSent { .. } => "send",
            ObsKind::BatchReceived { .. } => "recv",
            ObsKind::SnapshotReceived { .. } => "snapshot-recv",
            ObsKind::ReplaySent { .. } => "replay",
            ObsKind::EpochRepair { .. } => "repair",
            ObsKind::IdleWait => "idle",
            ObsKind::Terminated => "terminated",
            ObsKind::Delivered { .. } => "deliver",
            ObsKind::Stalled { .. } => "stall",
            ObsKind::Crashed => "crash",
            ObsKind::Restarted { .. } => "restart",
        }
    }
}

/// The clock a sink stamps events with.
#[derive(Debug, Clone)]
enum Clock {
    /// Microseconds elapsed since a shared origin.
    Wall(Instant),
    /// The simulation's virtual time, pushed in before every step.
    Virtual(u64),
}

#[derive(Debug, Clone)]
struct SinkInner {
    worker: usize,
    clock: Clock,
    events: Vec<ObsEvent>,
}

/// A per-worker event buffer. Disabled by default: [`TraceSink::emit`] is
/// a single `Option` branch, so an untraced run pays near nothing.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Option<Box<SinkInner>>);

impl TraceSink {
    /// A sink that records nothing (the default).
    pub fn disabled() -> Self {
        TraceSink(None)
    }

    /// A recording sink stamping wall-clock microseconds since `origin`
    /// (shared by the whole fleet so tracks align).
    pub fn wall(worker: usize, origin: Instant) -> Self {
        TraceSink(Some(Box::new(SinkInner {
            worker,
            clock: Clock::Wall(origin),
            events: Vec::new(),
        })))
    }

    /// A recording sink stamping the simulation's virtual clock; the
    /// event loop pushes the current tick in via
    /// [`TraceSink::set_virtual_now`] before each step.
    pub fn virtual_clock(worker: usize) -> Self {
        TraceSink(Some(Box::new(SinkInner {
            worker,
            clock: Clock::Virtual(0),
            events: Vec::new(),
        })))
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Advance a virtual-clock sink to `now`. No-op for disabled or
    /// wall-clock sinks.
    #[inline]
    pub fn set_virtual_now(&mut self, now: u64) {
        if let Some(inner) = &mut self.0 {
            if let Clock::Virtual(t) = &mut inner.clock {
                *t = now;
            }
        }
    }

    /// Record one event at the current time. No-op when disabled.
    #[inline]
    pub fn emit(&mut self, kind: ObsKind) {
        if let Some(inner) = &mut self.0 {
            let time = match inner.clock {
                Clock::Wall(origin) => origin.elapsed().as_micros() as u64,
                Clock::Virtual(t) => t,
            };
            inner.events.push(ObsEvent {
                time,
                worker: inner.worker,
                kind,
            });
        }
    }

    /// Drain the recorded events (empty for a disabled sink).
    pub fn take_events(&mut self) -> Vec<ObsEvent> {
        match &mut self.0 {
            Some(inner) => std::mem::take(&mut inner.events),
            None => Vec::new(),
        }
    }
}

/// The merged event journal of one run — every worker's sink plus the
/// transport's own events, in global time order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Journal {
    /// What the timestamps mean.
    pub base: TimeBase,
    /// Events sorted by time (stable: equal-time events keep producer
    /// order — transport first, then workers by processor index).
    pub events: Vec<ObsEvent>,
}

impl Journal {
    /// Merge the transport's events and each worker's buffer into one
    /// time-ordered journal. The concatenation order (transport, then
    /// buffers in the order given) breaks timestamp ties deterministically.
    pub fn assemble(
        base: TimeBase,
        transport_events: Vec<ObsEvent>,
        worker_buffers: Vec<Vec<ObsEvent>>,
    ) -> Journal {
        let mut events = transport_events;
        for buffer in worker_buffers {
            events.extend(buffer);
        }
        events.sort_by_key(|e| e.time);
        Journal { base, events }
    }

    /// True when nothing was recorded (tracing disabled).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events belonging to `worker`, in journal order.
    pub fn worker_events(&self, worker: usize) -> impl Iterator<Item = &ObsEvent> {
        self.events.iter().filter(move |e| e.worker == worker)
    }

    /// Well-formedness: timestamps globally non-decreasing, and on every
    /// worker each `RoundBegin` is closed by the matching `RoundEnd`
    /// before the next round opens, with none left open at the end.
    ///
    /// Crash-aware: a `Crashed` event force-closes whatever round its
    /// worker had open — the incarnation died mid-round and its buffered
    /// `RoundEnd` died with it, so the dangling span is the *expected*
    /// shape of a crash, not a malformed journal. The replacement
    /// incarnation restarts its round numbering, so the round after a
    /// `Restarted` may legally repeat an index the dead incarnation
    /// already used.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let mut last_time = 0u64;
        for e in &self.events {
            if e.time < last_time {
                return Err(format!(
                    "time went backwards: {} after {last_time} (w{})",
                    e.time, e.worker
                ));
            }
            last_time = e.time;
        }
        let workers: std::collections::BTreeSet<usize> =
            self.events.iter().map(|e| e.worker).collect();
        for w in workers {
            let mut open: Option<u64> = None;
            for e in self.worker_events(w) {
                match &e.kind {
                    ObsKind::RoundBegin { round } => {
                        if let Some(prev) = open {
                            return Err(format!(
                                "w{w}: round {round} opened while round {prev} is open"
                            ));
                        }
                        open = Some(*round);
                    }
                    ObsKind::RoundEnd { round, .. } => match open.take() {
                        Some(prev) if prev == *round => {}
                        Some(prev) => {
                            return Err(format!(
                                "w{w}: round {round} closed while round {prev} is open"
                            ));
                        }
                        None => {
                            return Err(format!("w{w}: round {round} closed but never opened"));
                        }
                    },
                    ObsKind::Crashed => {
                        // The crash tore the incarnation down mid-round;
                        // its span is implicitly closed here.
                        open = None;
                    }
                    _ => {}
                }
            }
            if let Some(round) = open {
                return Err(format!("w{w}: round {round} never closed"));
            }
        }
        Ok(())
    }

    /// Export as Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// format Perfetto and `chrome://tracing` load). One process, one
    /// thread (track) per worker; rounds become `B`/`E` spans, everything
    /// else thread-scoped `i` instants. Timestamps are exported as
    /// microseconds; a virtual-tick journal maps one tick to one
    /// microsecond.
    pub fn chrome_trace(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"pdatalog\"}}",
        );
        let workers: std::collections::BTreeSet<usize> =
            self.events.iter().map(|e| e.worker).collect();
        for w in &workers {
            let _ = write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{w},\
                 \"args\":{{\"name\":\"worker {w}\"}}}}"
            );
        }
        // Open round span per worker: a `Crashed` event must close its
        // worker's span (the incarnation's own `RoundEnd` died with it),
        // or the viewer misnests every later span on that track.
        let mut open_round: std::collections::BTreeMap<usize, u64> = Default::default();
        for e in &self.events {
            if matches!(e.kind, ObsKind::Crashed) {
                if let Some(round) = open_round.remove(&e.worker) {
                    let _ = write!(
                        out,
                        ",{{\"name\":\"round\",\"ph\":\"E\",\"ts\":{},\"pid\":0,\
                         \"tid\":{},\"args\":{{\"round\":{round},\"aborted\":true}}}}",
                        e.time, e.worker
                    );
                }
            }
            let name = e.kind.name();
            let (ph, args) = match &e.kind {
                ObsKind::RoundBegin { round } => {
                    open_round.insert(e.worker, *round);
                    ("B", format!("\"round\":{round}"))
                }
                ObsKind::RoundEnd { round, fresh, firings } => {
                    open_round.remove(&e.worker);
                    (
                        "E",
                        format!("\"round\":{round},\"fresh\":{fresh},\"firings\":{firings}"),
                    )
                }
                ObsKind::BatchEncoded { channel, tuples, bytes, raw_bytes } => (
                    "i",
                    format!(
                        "\"channel\":{channel},\"tuples\":{tuples},\"bytes\":{bytes},\
                         \"raw_bytes\":{raw_bytes}"
                    ),
                ),
                ObsKind::BatchSent { to, tuples, bytes, seq } => (
                    "i",
                    format!("\"to\":{to},\"tuples\":{tuples},\"bytes\":{bytes},\"seq\":{seq}"),
                ),
                ObsKind::BatchReceived { from, tuples, bytes, seq, duplicate } => (
                    "i",
                    format!(
                        "\"from\":{from},\"tuples\":{tuples},\"bytes\":{bytes},\
                         \"seq\":{seq},\"duplicate\":{duplicate}"
                    ),
                ),
                ObsKind::SnapshotReceived { from, payloads, upto } => (
                    "i",
                    format!("\"from\":{from},\"payloads\":{payloads},\"upto\":{upto}"),
                ),
                ObsKind::ReplaySent { to, messages } => {
                    ("i", format!("\"to\":{to},\"messages\":{messages}"))
                }
                ObsKind::EpochRepair { epoch } => ("i", format!("\"epoch\":{epoch}")),
                ObsKind::IdleWait => ("i", String::new()),
                ObsKind::Terminated => ("i", String::new()),
                ObsKind::Delivered { from, kind, seq, duplicate } => (
                    "i",
                    format!(
                        "\"from\":{from},\"kind\":\"{kind}\",\"seq\":{seq},\
                         \"duplicate\":{duplicate}"
                    ),
                ),
                ObsKind::Stalled { until } => ("i", format!("\"until\":{until}")),
                ObsKind::Crashed => ("i", String::new()),
                ObsKind::Restarted { epoch } => ("i", format!("\"epoch\":{epoch}")),
            };
            let scope = if ph == "i" { ",\"s\":\"t\"" } else { "" };
            let _ = write!(
                out,
                ",{{\"name\":\"{name}\",\"ph\":\"{ph}\"{scope},\"ts\":{},\"pid\":0,\
                 \"tid\":{},\"args\":{{{args}}}}}",
                e.time, e.worker
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

impl std::fmt::Display for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let unit = match self.base {
            TimeBase::WallMicros => "µs",
            TimeBase::VirtualTicks => "ticks",
        };
        for e in &self.events {
            write!(f, "[{:>8}] w{} ", e.time, e.worker)?;
            match &e.kind {
                ObsKind::RoundBegin { round } => writeln!(f, "round {round} begin"),
                ObsKind::RoundEnd { round, fresh, firings } => {
                    writeln!(f, "round {round} end (+{fresh} fresh, {firings} firings)")
                }
                ObsKind::BatchEncoded { channel, tuples, bytes, raw_bytes } => {
                    writeln!(f, "encode  ch{channel} {tuples} tuples {bytes} B (raw {raw_bytes} B)")
                }
                ObsKind::BatchSent { to, tuples, bytes, seq } => {
                    writeln!(f, "send    -> w{to} {tuples} tuples {bytes} B #{seq}")
                }
                ObsKind::BatchReceived { from, tuples, bytes, seq, duplicate } => {
                    let marker = if *duplicate { " (dup)" } else { "" };
                    writeln!(f, "recv    <- w{from} {tuples} tuples {bytes} B #{seq}{marker}")
                }
                ObsKind::SnapshotReceived { from, payloads, upto } => {
                    writeln!(f, "snapshot <- w{from} {payloads} payloads upto #{upto}")
                }
                ObsKind::ReplaySent { to, messages } => {
                    writeln!(f, "replay  -> w{to} {messages} messages")
                }
                ObsKind::EpochRepair { epoch } => writeln!(f, "repair into epoch {epoch}"),
                ObsKind::IdleWait => writeln!(f, "idle"),
                ObsKind::Terminated => writeln!(f, "terminated"),
                ObsKind::Delivered { from, kind, seq, duplicate } => {
                    let marker = if *duplicate { " (dup)" } else { "" };
                    writeln!(f, "deliver <- w{from} {kind} #{seq}{marker}")
                }
                ObsKind::Stalled { until } => writeln!(f, "stalled until {until}"),
                ObsKind::Crashed => writeln!(f, "crashed"),
                ObsKind::Restarted { epoch } => writeln!(f, "restarted (epoch {epoch})"),
            }?;
        }
        writeln!(f, "[{:>8}] end of journal ({} events, {unit})",
            self.events.last().map_or(0, |e| e.time),
            self.events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, worker: usize, kind: ObsKind) -> ObsEvent {
        ObsEvent { time, worker, kind }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::disabled();
        assert!(!sink.enabled());
        sink.emit(ObsKind::IdleWait);
        sink.set_virtual_now(99);
        sink.emit(ObsKind::Terminated);
        assert!(sink.take_events().is_empty());
    }

    #[test]
    fn virtual_sink_stamps_the_pushed_clock() {
        let mut sink = TraceSink::virtual_clock(3);
        sink.emit(ObsKind::RoundBegin { round: 1 });
        sink.set_virtual_now(42);
        sink.emit(ObsKind::RoundEnd { round: 1, fresh: 5, firings: 7 });
        let events = sink.take_events();
        assert_eq!(events[0].time, 0);
        assert_eq!(events[1].time, 42);
        assert!(events.iter().all(|e| e.worker == 3));
        assert!(sink.take_events().is_empty(), "take drains");
    }

    #[test]
    fn assemble_merges_sorted_with_stable_ties() {
        let transport = vec![ev(5, 1, ObsKind::Crashed)];
        let w0 = vec![
            ev(1, 0, ObsKind::RoundBegin { round: 1 }),
            ev(5, 0, ObsKind::RoundEnd { round: 1, fresh: 1, firings: 1 }),
        ];
        let journal = Journal::assemble(TimeBase::VirtualTicks, transport, vec![w0]);
        assert_eq!(journal.events.len(), 3);
        assert_eq!(journal.events[0].time, 1);
        // Stable sort: the transport event precedes the equal-time worker
        // event because it was concatenated first.
        assert!(matches!(journal.events[1].kind, ObsKind::Crashed));
        journal.validate().expect("well-formed");
    }

    #[test]
    fn validate_rejects_unclosed_round() {
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![ev(1, 0, ObsKind::RoundBegin { round: 1 })],
        };
        let err = journal.validate().unwrap_err();
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn validate_rejects_mismatched_round_pairing() {
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![
                ev(1, 0, ObsKind::RoundBegin { round: 1 }),
                ev(2, 0, ObsKind::RoundEnd { round: 2, fresh: 0, firings: 0 }),
            ],
        };
        assert!(journal.validate().is_err());
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![ev(1, 0, ObsKind::RoundEnd { round: 1, fresh: 0, firings: 0 })],
        };
        let err = journal.validate().unwrap_err();
        assert!(err.contains("never opened"), "{err}");
    }

    #[test]
    fn validate_rejects_backward_time() {
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![ev(5, 0, ObsKind::IdleWait), ev(4, 1, ObsKind::IdleWait)],
        };
        let err = journal.validate().unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn round_pairing_is_per_worker() {
        // Worker 0's round may stay open across worker 1's whole round.
        let journal = Journal::assemble(
            TimeBase::VirtualTicks,
            Vec::new(),
            vec![
                vec![
                    ev(1, 0, ObsKind::RoundBegin { round: 1 }),
                    ev(9, 0, ObsKind::RoundEnd { round: 1, fresh: 2, firings: 2 }),
                ],
                vec![
                    ev(2, 1, ObsKind::RoundBegin { round: 1 }),
                    ev(3, 1, ObsKind::RoundEnd { round: 1, fresh: 1, firings: 1 }),
                ],
            ],
        );
        journal.validate().expect("interleaved per-worker rounds are fine");
    }

    #[test]
    fn validate_accepts_crash_mid_round() {
        // The incarnation died between RoundBegin and RoundEnd: its
        // buffered end event is gone, the supervisor's Crashed marker
        // stands in for it. The replacement restarts round numbering.
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![
                ev(1, 0, ObsKind::RoundBegin { round: 3 }),
                ev(2, 0, ObsKind::Crashed),
                ev(2, 0, ObsKind::Restarted { epoch: 1 }),
                ev(4, 0, ObsKind::RoundBegin { round: 0 }),
                ev(5, 0, ObsKind::RoundEnd { round: 0, fresh: 1, firings: 1 }),
            ],
        };
        journal.validate().expect("crash closes the dangling span");
    }

    #[test]
    fn validate_still_rejects_dangling_round_without_crash() {
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![
                ev(1, 0, ObsKind::RoundBegin { round: 3 }),
                ev(2, 0, ObsKind::Restarted { epoch: 1 }),
            ],
        };
        let err = journal.validate().unwrap_err();
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn chrome_trace_closes_span_on_crash() {
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![
                ev(1, 0, ObsKind::RoundBegin { round: 3 }),
                ev(2, 0, ObsKind::Crashed),
                ev(3, 0, ObsKind::RoundBegin { round: 0 }),
                ev(4, 0, ObsKind::RoundEnd { round: 0, fresh: 1, firings: 1 }),
            ],
        };
        let json = journal.chrome_trace();
        assert!(json.contains("\"aborted\":true"), "{json}");
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count(),
            "crash-closed span keeps B/E balanced"
        );
    }

    #[test]
    fn chrome_trace_has_tracks_spans_and_metadata() {
        let journal = Journal::assemble(
            TimeBase::WallMicros,
            Vec::new(),
            vec![vec![
                ev(1, 0, ObsKind::RoundBegin { round: 1 }),
                ev(4, 0, ObsKind::RoundEnd { round: 1, fresh: 3, firings: 3 }),
                ev(5, 0, ObsKind::BatchSent { to: 1, tuples: 3, bytes: 60, seq: 0 }),
                ev(6, 0, ObsKind::Terminated),
            ]],
        );
        let json = journal.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"worker 0\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"send\""));
        assert!(json.contains("\"name\":\"terminated\""));
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count(),
            "every span opened is closed"
        );
    }

    #[test]
    fn display_lists_every_event() {
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![
                ev(1, 0, ObsKind::RoundBegin { round: 1 }),
                ev(2, 0, ObsKind::RoundEnd { round: 1, fresh: 1, firings: 1 }),
                ev(3, 0, ObsKind::ReplaySent { to: 1, messages: 2 }),
                ev(4, 0, ObsKind::Terminated),
            ],
        };
        let text = journal.to_string();
        assert!(text.contains("round 1 begin"));
        assert!(text.contains("replay  -> w1 2 messages"));
        assert!(text.contains("terminated"));
        assert!(text.contains("end of journal (4 events, ticks)"));
    }
}
