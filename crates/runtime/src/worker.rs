//! The per-processor worker, as a transport-agnostic state machine.
//!
//! Implements the paper's §3 execution skeleton:
//!
//! ```text
//! evaluate initialization rule
//! repeat
//!     evaluate processing rules
//!     evaluate sending rules
//!     evaluate receiving rules
//! until "termination"
//! ```
//!
//! Initialization and processing rules run inside the local
//! [`FixpointEngine`]; the *sending* rules are its route table — a row
//! goes, where it is emitted, into the local inbox or the per-destination
//! buffer its key names (a source without a home inbox is routed when
//! `advance` admits its fresh rows to `t_out^i`), and this worker encodes
//! and ships the buffers; the *receiving* rules are
//! realized by injecting arriving batches into the inbox predicates; and
//! the asynchrony the paper insists on ("processor i does not wait for
//! data from processor j") falls out of absorbing whatever has arrived
//! before each engine round, never blocking for more. The loop body is
//! one [`WorkerCore::step`]: receive (absorb and inject what arrived,
//! batch by batch), close the previous round (`advance`: what the round
//! and the arrivals admitted to the arenas becomes the deltas), **send**
//! the buffers the round filled — also when nothing fresh stayed here —
//! then process one round, fired in the parts the sequential engine
//! fires it in — [`gst_eval::CHUNK_ROWS`] leading delta rows each — and
//! **send** between two parts every buffer holding at least a part's
//! worth of rows. Sending while a round runs — not once at the local
//! fixpoint, nor only between rounds — is what lets processor `j` start
//! on `i`'s frontier while `i` is still deriving it; a worker that ships
//! only when it has nothing left to do makes the fleet compute in
//! alternation, and one that ships only between rounds makes a peer wait
//! out its longest round.
//!
//! The worker is deliberately **re-entrant**: it owns no channel handles
//! and no event loop. [`WorkerCore::step`] performs exactly one scheduling
//! quantum — absorb pending envelopes, then run one engine round (shipping
//! its input first, and its output as it goes) or, passive, report its
//! link watermarks to the supervisor — and says whether it worked, went
//! idle, or terminated. Arrivals wait for the next step: a round's
//! `Old`/delta boundary does not move while it runs. How
//! steps are driven is the transport's business:
//! [`crate::transport::ThreadedTransport`] wraps the core in an OS thread
//! with a blocking queue, while [`crate::sim::SimTransport`] interleaves
//! many cores under a virtual clock, one `step` at a time, in whatever
//! adversarial order its seeded scheduler picks.

use std::collections::VecDeque;
use std::time::Duration;

use gst_common::{Error, FxHashSet, Result};
use gst_eval::plan::RelationId;
use gst_eval::{FixpointEngine, CHUNK_ROWS};

use crate::message::{Envelope, Message, Payload};
use crate::obs::{ObsEvent, ObsKind, TimeBase, TraceSink};
use crate::profile::{Profiler, PHASE_COMPUTE, PHASE_DECODE, PHASE_ENCODE, PHASE_REPLAY};
use crate::supervisor::PassiveReport;
use crate::spec::{ProcessorProgram, Shards, WorkerSpec};
use crate::stats::WorkerReport;

/// Runtime knobs shared by all workers.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Give up if passive this long with no arrival — batch or control
    /// message — on the queue the worker blocks on (a peer died).
    pub idle_watchdog: Duration,
    /// Phase-attributed profiling: account every step's time to
    /// compute/encode/decode/replay/idle, and every rule's firing time.
    /// Off (the default) costs one `Option` branch per phase site.
    pub profile: bool,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            idle_watchdog: Duration::from_secs(30),
            profile: false,
        }
    }
}

/// Where a worker's outbound envelopes and reports go. The only seam
/// between a worker and its transport: threads send over channels, the
/// simulator schedules deliveries on its virtual clock.
pub(crate) trait Outbox {
    /// Hand `env` to the transport for delivery to processor `to`.
    fn send(&mut self, to: usize, env: Envelope) -> Result<()>;
    /// Hand the supervisor this worker's report on going passive.
    fn report(&mut self, report: PassiveReport) -> Result<()>;
}

/// What one scheduling quantum accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Progress was made (an engine round, or absorbed envelopes);
    /// schedule another step.
    Worked,
    /// Locally quiescent with nothing pending: the worker needs no more
    /// steps until a message arrives.
    Idle,
    /// Globally terminated.
    Done,
}

/// Sender-side retention of one link's batch history, enabling crash
/// recovery by replay.
///
/// The tail holds individual batches not yet acknowledged by the
/// receiver. When the receiver's piggybacked cumulative ack advances, the
/// acked prefix is *compacted*: its `(inbox, payload)` pairs move, still
/// encoded, onto the snapshot list and lose their per-batch sequence
/// numbers. No decode, no hashing — an ack costs a pointer move per batch
/// and the retained data stays at wire size. A row of a source with a
/// home inbox ships as its rule emits it, with no sender-side dedup, so
/// memory is bounded by the number of *firings* whose head row routes onto
/// the link (a source without a home inbox ships each fresh row of
/// `t_out^i` once: distinct tuples). Replay for a receiver whose watermark
/// predates the tail ships the snapshot (as one logical message standing
/// in for sequence numbers `< base`) followed by the tail.
#[derive(Default)]
struct ReplayLog {
    /// Every batch with sequence number `< base` has been compacted into
    /// `snapshot`.
    base: u64,
    /// The compacted prefix: the acked batches' payloads in ship order,
    /// each with the inbox it addresses.
    snapshot: Vec<(RelationId, Payload)>,
    /// Retained batches, contiguous sequence numbers starting at `base`,
    /// each tagged with the recovery epoch it was shipped in and the inbox
    /// it addresses (the payload itself is destination-independent).
    /// Replay retransmits only batches from *earlier* epochs: a batch
    /// shipped in the current epoch reaches a receiver that is already in
    /// that epoch, so its epoch filter keeps it and a second copy would
    /// only be a duplicate.
    /// Each entry also keeps the batch's retract flag so a replayed
    /// envelope is bit-identical to the original send.
    tail: VecDeque<(u64, u64, RelationId, Payload, bool)>,
}

impl ReplayLog {
    /// Move every batch with sequence number `< acked` onto the snapshot.
    /// Acks piggyback on every envelope, so the common call finds nothing
    /// newly acknowledged and does nothing.
    fn truncate_to(&mut self, acked: u64) {
        while self.tail.front().is_some_and(|(seq, ..)| *seq < acked) {
            let (_, _, inbox, payload, _) = self.tail.pop_front().expect("front checked");
            self.snapshot.push((inbox, payload));
        }
        self.base = self.base.max(acked);
    }

    fn clear(&mut self) {
        self.snapshot.clear();
        self.tail.clear();
    }
}

/// The per-processor state machine: fixpoint engine, pending message
/// queue, link watermarks and traffic counters. Contains no I/O.
pub(crate) struct WorkerCore {
    id: usize,
    n: usize,
    engine: FixpointEngine,
    spec: WorkerSpec,
    terminated: bool,
    bootstrapped: bool,
    pending: VecDeque<Envelope>,
    /// Recovery epoch this incarnation runs in. Envelopes from earlier
    /// epochs are dropped uncounted; replay re-delivers their content.
    epoch: u64,
    /// True once this incarnation has processed the `Recover` broadcast
    /// of its own epoch (guards against processing it twice).
    recover_handled: bool,
    /// Next *batch* sequence number per destination link — a dense space,
    /// so the receiver can maintain a contiguous watermark.
    batch_seq: Vec<u64>,
    /// Next control-message sequence number per destination link (traces
    /// and diagnostics only).
    ctrl_seq: Vec<u64>,
    /// Per-source contiguous receive watermark: every batch sequence
    /// number `< recv_floor[p]` from `p` has been absorbed. Piggybacked on
    /// outgoing envelopes as the cumulative ack.
    recv_floor: Vec<u64>,
    /// Batch sequence numbers `≥ recv_floor[p]` already absorbed, per
    /// source — transport duplicates are recognized here and move no
    /// watermark; entries below the floor are pruned as it advances,
    /// bounding memory by the reorder window.
    seen_above: Vec<FxHashSet<u64>>,
    /// The last report sent to the supervisor: a passive step reports
    /// again only when the epoch or a watermark moved.
    reported: Option<PassiveReport>,
    /// Sender-side replay log per destination link.
    replay: Vec<ReplayLog>,
    /// Batches accepted since the last drain, grouped per inbox (same
    /// order as `spec.program.inboxes`): absorbing reads only headers, the
    /// next engine step decodes and injects them one by one.
    stash: Vec<Vec<Payload>>,
    /// Total payloads currently stashed (fast emptiness check).
    stash_count: usize,
    /// The report this worker will hand back, counted into as it runs:
    /// traffic, codec, recovery and busy-time counters. The engine's side
    /// (`eval`, `processing_firings`), the profile and the pooled count
    /// are filled in by [`finish_core`].
    report: WorkerReport,
    /// Event journal buffer; disabled (free) unless tracing is on.
    sink: TraceSink,
    /// Phase-attributed profiler; `None` (free) unless profiling is on.
    prof: Option<Box<Profiler>>,
    /// True while the previous step reported `Idle`: the gap before the
    /// next step is then the profiler's idle time.
    was_idle: bool,
}

impl WorkerCore {
    /// A core in recovery epoch `epoch`: 0 for a fresh fleet, higher when a
    /// supervisor rebuilds a crashed processor from its retained spec.
    pub(crate) fn with_epoch(spec: WorkerSpec, n: usize, epoch: u64) -> Result<Self> {
        let id = spec.program.processor;
        let stash = vec![Vec::new(); spec.program.inboxes.len()];
        // One construction path for cold starts and crash restarts: the
        // spec (including any update-session seed) fully determines the
        // engine's starting state, which is what makes epoch recovery
        // mid-update-round exact.
        let engine = spec.build_engine()?;
        Ok(WorkerCore {
            id,
            n,
            engine,
            spec,
            terminated: false,
            bootstrapped: false,
            pending: VecDeque::new(),
            epoch,
            recover_handled: false,
            batch_seq: vec![0; n],
            ctrl_seq: vec![0; n],
            recv_floor: vec![0; n],
            seen_above: vec![FxHashSet::default(); n],
            reported: None,
            replay: (0..n).map(|_| ReplayLog::default()).collect(),
            stash,
            stash_count: 0,
            report: WorkerReport::new(id, n),
            sink: TraceSink::disabled(),
            prof: None,
            was_idle: false,
        })
    }

    /// Install an event sink (tracing on). The transport decides the
    /// clock: wall-origin for threads, virtual for the simulator.
    pub(crate) fn set_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// Install a phase profiler (profiling on) on `base`'s clock. The
    /// transport decides it, exactly as for [`set_sink`]: wall time for
    /// threads and TCP, virtual ticks for the simulator. The engine's
    /// per-rule time accounting follows the same clock.
    ///
    /// [`set_sink`]: WorkerCore::set_sink
    pub(crate) fn set_profiler(&mut self, base: TimeBase) {
        self.engine.set_time_mode(match base {
            TimeBase::WallMicros => gst_eval::TimeMode::Wall,
            TimeBase::VirtualTicks => gst_eval::TimeMode::Ticks,
        });
        self.prof = Some(Box::new(Profiler::new(base)));
    }

    /// Push the simulator's virtual clock into the sink and profiler
    /// (no-op for disabled or wall-clock sinks).
    pub(crate) fn set_trace_now(&mut self, now: u64) {
        self.sink.set_virtual_now(now);
        if let Some(p) = self.prof.as_mut() {
            p.set_now(now);
        }
    }

    /// Drain this incarnation's journal buffer.
    pub(crate) fn take_trace_events(&mut self) -> Vec<ObsEvent> {
        self.sink.take_events()
    }

    pub(crate) fn id(&self) -> usize {
        self.id
    }

    pub(crate) fn terminated(&self) -> bool {
        self.terminated
    }

    /// Queue a delivered envelope; it is absorbed on the next [`step`].
    ///
    /// [`step`]: WorkerCore::step
    pub(crate) fn enqueue(&mut self, env: Envelope) {
        self.pending.push_back(env);
    }

    /// One scheduling quantum: absorb everything pending, then do at most
    /// one unit of work (an engine round, or a report when passive).
    pub(crate) fn step(&mut self, out: &mut dyn Outbox) -> Result<Step> {
        if let Some(p) = self.prof.as_mut() {
            if self.was_idle {
                // The gap since the previous step's end was spent waiting
                // for messages or the termination decision: idle time.
                p.idle_gap();
            }
        }
        let t0 = std::time::Instant::now();
        let result = self.step_inner(out);
        self.report.busy += t0.elapsed();
        if let Some(p) = self.prof.as_mut() {
            p.step_end();
        }
        // Every transport parks an idle worker until its next arrival, so
        // one `Idle` result is one wait.
        self.was_idle = matches!(result, Ok(Step::Idle));
        if self.was_idle {
            self.sink.emit(ObsKind::IdleWait);
        }
        result
    }

    /// Start a phase timer; `None` when profiling is off.
    fn phase_start(&self) -> Option<Option<std::time::Instant>> {
        self.prof.as_ref().map(|p| p.start())
    }

    /// Charge the time since `t0` — or, on the simulator's clock, `proxy`
    /// ticks of work — to `phase`.
    fn phase_stop(&mut self, t0: Option<Option<std::time::Instant>>, phase: usize, proxy: u64) {
        if let (Some(t0), Some(p)) = (t0, self.prof.as_mut()) {
            let d = p.stop(t0, proxy);
            p.add(phase, d);
        }
    }

    fn step_inner(&mut self, out: &mut dyn Outbox) -> Result<Step> {
        if self.terminated {
            return Ok(Step::Done);
        }
        if !self.bootstrapped {
            self.bootstrapped = true;
            let t0 = self.phase_start();
            self.engine.bootstrap()?;
            self.phase_stop(t0, PHASE_COMPUTE, self.engine.stats().firings);
        }

        // Receiving step: absorb what the transport delivered.
        let absorbed = !self.pending.is_empty();
        while let Some(env) = self.pending.pop_front() {
            self.absorb(env, out)?;
            if self.terminated {
                return Ok(Step::Done);
            }
        }

        // Receive everything stashed since the last engine step, payload
        // by payload. Decoding is the codec's time; admitting the rows is
        // storage work, compute — on the simulator's clock it is the
        // tuples submitted, charged with the advance below.
        if self.stash_count > 0 {
            let t0 = self.phase_start();
            let decoding = self.drain_stash()?;
            if let (Some(t0), Some(p)) = (t0, self.prof.as_mut()) {
                // On the simulator's clock `stop` is the proxy itself.
                let admitting = p.stop(t0, decoding).saturating_sub(decoding);
                p.add(PHASE_DECODE, decoding);
                p.add(PHASE_COMPUTE, admitting);
            }
        }

        // Close the previous round: admit what is left, make what the round
        // and the arrivals admitted the deltas, route the fresh rows and
        // bring the indexes up to date. Compute time; the tick proxy is
        // the tuples submitted since the last advance — the storage work
        // of the round's parts and of the arrivals too: what the engine's
        // advance accounting (`derived + duplicates`) grew by.
        let submitted = |s: &gst_eval::EvalStats| s.derived + s.duplicates;
        let (t0, before) = (self.phase_start(), submitted(self.engine.stats()));
        let fresh = self.engine.advance()?;
        self.phase_stop(t0, PHASE_COMPUTE, submitted(self.engine.stats()) - before);
        // Sending step, after every advance: peers start on these rows
        // while this worker is still processing its own — and a round
        // whose whole output left this processor ships before it goes
        // passive, with nothing fresh here.
        self.ship_outlets(1, out)?;
        if fresh > 0 {
            // Processing step: one engine round, fired in chunks of
            // `CHUNK_ROWS` leading delta rows. After each chunk an outlet
            // holding a chunk's worth of rows ships, so a peer starts on
            // them while this worker derives the rest; what is left ships
            // after the next advance. The ship is encode time, not the
            // round's: compute is its chunks'.
            // `advance` already counted the round it opened: its index is
            // `rounds - 1`.
            let round = self.engine.stats().rounds - 1;
            let firings_before = self.engine.stats().firings;
            self.sink.emit(ObsKind::RoundBegin { round });
            loop {
                let (t0, before) = (self.phase_start(), self.engine.stats().firings);
                let done = self.engine.process_chunk(CHUNK_ROWS);
                let firings = self.engine.stats().firings - before;
                self.phase_stop(t0, PHASE_COMPUTE, firings);
                if done {
                    break;
                }
                self.ship_outlets(CHUNK_ROWS, out)?;
            }
            let firings = self.engine.stats().firings - firings_before;
            self.sink.emit(ObsKind::RoundEnd { round, fresh, firings });
            return Ok(Step::Worked);
        }

        // Local fixpoint: nothing fresh, and everything routed has shipped.
        debug_assert!(self.engine.quiescent());
        debug_assert!(self.engine.outlets().iter().all(|o| o.rows.is_empty()), "passive with queued rows");

        // Passive: tell the supervisor what this worker has sent and
        // absorbed, unless it already knows (DESIGN.md §7).
        let report = PassiveReport {
            epoch: self.epoch,
            batch_seq: self.batch_seq.clone(),
            recv_floor: self.recv_floor.clone(),
        };
        if self.reported.as_ref() != Some(&report) {
            out.report(report.clone())?;
            self.reported = Some(report);
        }
        Ok(if absorbed { Step::Worked } else { Step::Idle })
    }

    /// Absorb one envelope: inject batches, honor terminate, run the
    /// recovery handshakes.
    ///
    /// Epoch discipline: a `Recover` may *raise* our epoch; any other
    /// envelope from an earlier epoch is dropped uncounted — the sender's
    /// replay (triggered by our post-recovery `AckSync`) re-delivers its
    /// content inside the new epoch.
    fn absorb(&mut self, env: Envelope, out: &mut dyn Outbox) -> Result<()> {
        if let Message::Recover { epoch, restarted } = env.message {
            return self.on_recover(epoch, restarted, out);
        }
        if env.epoch < self.epoch {
            self.report.stale_dropped += 1;
            return Ok(());
        }
        debug_assert!(
            env.epoch == self.epoch,
            "recovery broadcasts its epoch before any traffic of that epoch"
        );
        // Piggybacked cumulative ack: compact the replay log for the link
        // *to* this sender.
        self.replay[env.from].truncate_to(env.ack);
        match env.message {
            Message::Batch { inbox, payload, retract } => {
                self.accept_batch(env.from, env.seq, inbox, payload, retract)
            }
            Message::Terminate => {
                self.terminated = true;
                // Global termination: replay logs are no longer needed.
                self.replay.iter_mut().for_each(ReplayLog::clear);
                self.sink.emit(ObsKind::Terminated);
                Ok(())
            }
            Message::AckSync { acked } => self.replay_link(env.from, acked, out),
            Message::Snapshot { payloads, upto } => {
                self.accept_snapshot(env.from, payloads, upto)
            }
            Message::Abort { reason } => Err(Error::Runtime(format!(
                "aborted: processor {} failed: {reason}",
                env.from
            ))),
            Message::Recover { .. } => unreachable!("handled above"),
        }
    }

    /// Recovery (see DESIGN.md §7). Entering epoch `epoch`: receive-state
    /// for the restarted link is forgotten (its new incarnation restarts
    /// at sequence 0), above-floor dedup state is cleared for every link
    /// (replay sends those batches again), and an `AckSync` with our
    /// watermark goes to every peer: it is what asks the peer to replay.
    /// The next report carries the new epoch.
    fn on_recover(&mut self, epoch: u64, restarted: usize, out: &mut dyn Outbox) -> Result<()> {
        if epoch < self.epoch || (epoch == self.epoch && self.recover_handled) {
            self.report.stale_dropped += 1;
            return Ok(());
        }
        self.epoch = epoch;
        self.recover_handled = true;
        self.sink.emit(ObsKind::EpochRepair { epoch });
        if restarted != self.id {
            // The restarted peer's new incarnation numbers its batches
            // from 0 again; stale receive-state would misclassify them as
            // duplicates.
            self.recv_floor[restarted] = 0;
            // Our own outgoing sequence space toward it continues — the
            // fresh incarnation's floor starts at 0 and our replay covers
            // the full history.
        }
        for seen in self.seen_above.iter_mut() {
            seen.clear();
        }
        for peer in 0..self.n {
            if peer != self.id {
                let ack = self.recv_floor[peer];
                self.send_ctrl(peer, Message::AckSync { acked: ack }, out)?;
            }
        }
        Ok(())
    }

    /// Recovery replay: peer `to` declared contiguous watermark `acked`
    /// for our link. Everything at or above it that was shipped *before*
    /// the current epoch is retransmitted — the compacted snapshot first
    /// if the watermark predates the tail, then the retained pre-epoch
    /// batches. Replay reuses the batches' sequence numbers, so it moves
    /// no counter: the receiver's watermark reaches our `batch_seq` once it
    /// has them all. Batches already shipped in the current epoch are
    /// skipped: the transport delivers those.
    fn replay_link(&mut self, to: usize, acked: u64, out: &mut dyn Outbox) -> Result<()> {
        let t0 = self.phase_start();
        self.replay[to].truncate_to(acked);
        let replayed_before = self.report.replayed_batches;
        let base = self.replay[to].base;
        if acked < base {
            let payloads = self.replay[to].snapshot.clone();
            self.report.replayed_batches += 1;
            self.send_ctrl(to, Message::Snapshot { payloads, upto: base }, out)?;
        }
        let resend: Vec<(u64, RelationId, Payload, bool)> = self
            .replay[to]
            .tail
            .iter()
            .filter(|(_, shipped_in, ..)| *shipped_in < self.epoch)
            .map(|(seq, _, inbox, payload, retract)| {
                (*seq, *inbox, payload.clone(), *retract)
            })
            .collect();
        for (seq, inbox, payload, retract) in resend {
            self.report.replayed_batches += 1;
            let env = Envelope {
                from: self.id,
                seq,
                epoch: self.epoch,
                ack: self.recv_floor[to],
                message: Message::Batch { inbox, payload, retract },
            };
            out.send(to, env)?;
        }
        let messages = self.report.replayed_batches - replayed_before;
        if messages > 0 {
            self.sink.emit(ObsKind::ReplaySent { to, messages });
            self.phase_stop(t0, PHASE_REPLAY, messages);
        }
        Ok(())
    }

    /// Absorb a compacted replay-log prefix: stash every payload for the
    /// next engine step and advance the watermark to `upto` (the
    /// sequence range the snapshot stands in for).
    fn accept_snapshot(
        &mut self,
        from: usize,
        payloads: Vec<(RelationId, Payload)>,
        upto: u64,
    ) -> Result<()> {
        self.sink.emit(ObsKind::SnapshotReceived {
            from,
            payloads: payloads.len() as u64,
            upto,
        });
        for (inbox, payload) in payloads {
            let (_, count) = crate::codec::peek_batch(&payload)?;
            self.report.received_bytes += payload.len() as u64;
            self.report.received_tuples += count as u64;
            self.stash_payload(inbox, payload)?;
        }
        if upto > self.recv_floor[from] {
            self.recv_floor[from] = upto;
            self.seen_above[from].retain(|&seq| seq >= upto);
        }
        self.advance_floor(from);
        Ok(())
    }

    /// Accept an incoming batch (the receive step: the decoded tuples
    /// realize `t_in^i(W̄) :- t_ji(W̄)`). Only the header is read here —
    /// the payload is stashed and decoded on the next engine step.
    ///
    /// A transport-level duplicate (same link sequence number) moves no
    /// watermark and no traffic counter, but its payload is still stashed:
    /// under set semantics re-deriving a tuple is a no-op, which is exactly
    /// the idempotence the simulation tests exercise.
    fn accept_batch(
        &mut self,
        from: usize,
        seq: u64,
        inbox: RelationId,
        payload: Payload,
        retract: bool,
    ) -> Result<()> {
        let first_delivery =
            seq >= self.recv_floor[from] && self.seen_above[from].insert(seq);
        let (_, count) = crate::codec::peek_batch(&payload)?;
        self.sink.emit(ObsKind::BatchReceived {
            from,
            tuples: count as u64,
            bytes: payload.len() as u64,
            seq,
            duplicate: !first_delivery,
        });
        if first_delivery {
            self.report.received_bytes += payload.len() as u64;
            self.report.received_tuples += count as u64;
            if retract {
                self.report.retract_tuples_received += count as u64;
            }
            self.advance_floor(from);
        } else {
            self.report.duplicate_batches += 1;
        }
        self.stash_payload(inbox, payload)
    }

    /// Queue a payload for the next engine step's receive. Spec validation
    /// admits no route into an inbox its destination does not declare, so
    /// an envelope naming one is corrupt.
    fn stash_payload(&mut self, inbox: RelationId, payload: Payload) -> Result<()> {
        let idx = self.spec.program.inboxes.iter().position(|p| *p == inbox).ok_or_else(|| {
            Error::Runtime(format!("processor {}: batch for undeclared inbox {inbox:?}", self.id))
        })?;
        self.stash[idx].push(payload);
        self.stash_count += 1;
        Ok(())
    }

    /// Receiving step: decode and inject the stashed payloads one at a
    /// time, so the engine's pool never holds more than one batch — each
    /// is admitted before the next is decoded. Returns the profiler's
    /// decode charge: the micros spent in the codec under wall time, the
    /// tuples decoded otherwise (the simulator's deterministic proxy).
    fn drain_stash(&mut self) -> Result<u64> {
        self.stash_count = 0;
        let wall = self.prof.as_ref().is_some_and(|p| p.base() == TimeBase::WallMicros);
        let (mut tuples, mut spent) = (0, Duration::ZERO);
        for (batches, &inbox) in self.stash.iter_mut().zip(&self.spec.program.inboxes) {
            for payload in batches.drain(..) {
                self.engine.inject_with(inbox, |out| {
                    let t0 = wall.then(std::time::Instant::now);
                    tuples += crate::codec::decode_batch_into(&payload, out)? as u64;
                    spent += t0.map_or(Duration::ZERO, |t| t.elapsed());
                    Ok(())
                })?;
            }
        }
        Ok(if wall { spent.as_micros() as u64 } else { tuples })
    }

    /// Slide the contiguous watermark for `from` over any absorbed
    /// sequence numbers, pruning them from the above-floor set.
    fn advance_floor(&mut self, from: usize) {
        while self.seen_above[from].remove(&self.recv_floor[from]) {
            self.recv_floor[from] += 1;
        }
    }

    /// Ship what was routed to other processors since the last shipment
    /// (paper: sending step): every outlet holding at least `min_rows`
    /// rows — after an advance, all the rows the last round's rules
    /// emitted and the advance that opened `round` admitted; between two
    /// chunks of a round, what those chunks emitted. Empty outlets ship
    /// nothing.
    ///
    /// Each outlet's rows are encoded straight onto the wire; the only
    /// retained copy is the payload the replay log needs anyway. A
    /// broadcast is one outlet addressed to every remote destination: it
    /// is encoded exactly once and every destination's envelope clones
    /// the payload `Arc` — single-encode multicast.
    fn ship_outlets(&mut self, min_rows: usize, out: &mut dyn Outbox) -> Result<()> {
        for k in 0..self.engine.outlets().len() {
            let outlet = &self.engine.outlets()[k];
            let Some(arity) = outlet.rows.first().map(|t| t.arity()) else { continue };
            if outlet.rows.len() < min_rows {
                continue;
            }
            let t0 = self.phase_start();
            let (count, retract) = (outlet.rows.len() as u64, outlet.retract);
            let label = outlet.dests.first().map_or(0, |(_, inbox)| inbox.0 .0);
            let payload = crate::codec::encode_batch(arity, &outlet.rows)?;
            let bytes = payload.len() as u64;
            let raw_bytes = crate::codec::row_format_bytes(arity, count as usize);
            self.report.encode_calls += 1;
            self.report.encoded_bytes += bytes;
            self.report.encoded_raw_bytes += raw_bytes;
            self.sink.emit(ObsKind::BatchEncoded { channel: label, tuples: count, bytes, raw_bytes });
            self.phase_stop(t0, PHASE_ENCODE, bytes);
            for d in 0..self.engine.outlets()[k].dests.len() {
                let (dest, inbox) = self.engine.outlets()[k].dests[d];
                // A retract route's batch carries DRed retractions.
                // Routing and replay are identical — only the envelope
                // flag and traffic attribution differ.
                if retract {
                    self.report.retract_tuples_sent += count;
                }
                self.report.sent_tuples_to[dest] += count;
                self.report.sent_bytes_to[dest] += bytes;
                self.report.sent_messages += 1;
                let seq = self.next_batch_seq(dest);
                self.sink.emit(ObsKind::BatchSent { to: dest, tuples: count, bytes, seq });
                // Retain for crash-recovery replay until the receiver acks
                // it (compaction) or the run terminates.
                self.replay[dest]
                    .tail
                    .push_back((seq, self.epoch, inbox, payload.clone(), retract));
                out.send(
                    dest,
                    Envelope {
                        from: self.id,
                        seq,
                        epoch: self.epoch,
                        ack: self.recv_floor[dest],
                        message: Message::Batch { inbox, payload: payload.clone(), retract },
                    },
                )?;
            }
            self.engine.clear_outlet(k);
        }
        Ok(())
    }

    /// Send a control message (`AckSync`, a replay `Snapshot`) with the
    /// piggybacked cumulative ack for the destination's link.
    fn send_ctrl(&mut self, dest: usize, message: Message, out: &mut dyn Outbox) -> Result<()> {
        let seq = self.next_ctrl_seq(dest);
        out.send(
            dest,
            Envelope {
                from: self.id,
                seq,
                epoch: self.epoch,
                ack: self.recv_floor[dest],
                message,
            },
        )
    }

    fn next_batch_seq(&mut self, dest: usize) -> u64 {
        let seq = self.batch_seq[dest];
        self.batch_seq[dest] += 1;
        seq
    }

    fn next_ctrl_seq(&mut self, dest: usize) -> u64 {
        let seq = self.ctrl_seq[dest];
        self.ctrl_seq[dest] += 1;
        seq
    }
}

/// Move the pooled relations out of the engine (final pooling, §3
/// step 5) — a move, not a clone. Every pair names a relation the engine
/// holds ([`ProcessorProgram::check_pooling`], checked before any worker
/// starts). Of a [`Shards::Replica`] only processor 0's copy is taken:
/// the others are the same rows, neither moved nor shipped.
pub(crate) fn take_pooled(engine: &mut FixpointEngine, program: &ProcessorProgram) -> PooledRelations {
    let pairs = program.pooling.iter().filter(|pair| pair.2 != Shards::Replica || program.processor == 0);
    pairs.filter_map(|&(local, global, _)| Some((global, engine.take_relation(local)?))).collect()
}

/// `(global predicate, relation)` pairs a worker pools into the answer;
/// how they go in is the coordinator's to look up
/// ([`crate::transport::shard_kinds`]), not the worker's to say.
pub(crate) type PooledRelations = Vec<(RelationId, gst_storage::Relation)>;

/// Finish a terminated core: pool, drain the journal buffer and build the
/// report. The core is left to its caller, who hands this result on
/// *before* dropping it: freeing the engine's arenas and indexes and the
/// replay logs then overlaps final pooling instead of delaying it.
pub(crate) fn finish_core(core: &mut WorkerCore) -> (WorkerReport, PooledRelations, Vec<ObsEvent>) {
    let pooled = take_pooled(&mut core.engine, &core.spec.program);
    let mut report = std::mem::replace(&mut core.report, WorkerReport::new(core.id, core.n));
    report.set_eval(core.engine.stats(), &core.spec.program.processing_rules);
    report.profile = core.prof.take().map(|p| p.profile);
    report.pooled_tuples = pooled.iter().map(|(_, r)| r.len() as u64).sum();
    (report, pooled, core.take_trace_events())
}

/// The watchdog error every transport reports when a worker starves while
/// others should still be running — a crashed or wedged peer.
pub(crate) fn watchdog_error(id: usize, idle_for: impl std::fmt::Debug) -> Error {
    Error::Runtime(format!(
        "processor {id} idle for {idle_for:?} without termination — a peer likely failed"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::{ituple, Interner};
    use gst_storage::Database;
    use std::sync::Arc;

    /// Outbox that records sends and reports for inspection.
    type Recorder = crate::sim::SimOutbox;

    /// Compaction keeps the acked batches exactly as they were shipped:
    /// the same `Arc`s, in ship order, never decoded — the payloads here
    /// are not even decodable, and `truncate_to` has no error to return.
    #[test]
    fn acked_batches_are_retained_encoded() {
        let interner = Interner::new();
        let inbox = (interner.intern("t@in"), 2);
        let mut log = ReplayLog::default();
        let shipped: Vec<Payload> = (0..3u8).map(|k| Arc::new(vec![0xFF, k])).collect();
        for (seq, payload) in shipped.iter().enumerate() {
            log.tail.push_back((seq as u64, 0, inbox, payload.clone(), false));
        }
        let retained = |log: &ReplayLog, k: usize| {
            log.snapshot.len() == k
                && log.snapshot.iter().zip(&shipped).all(|((to, kept), sent)| {
                    *to == inbox && Arc::ptr_eq(kept, sent)
                })
        };

        log.truncate_to(2);
        assert!(retained(&log, 2), "the two acked batches, by pointer");
        assert_eq!((log.base, log.tail.len()), (2, 1));

        log.truncate_to(1); // a stale ack moves nothing, not even `base`
        assert!(retained(&log, 2));
        assert_eq!((log.base, log.tail.len()), (2, 1));

        log.truncate_to(3);
        assert!(retained(&log, 3));
        assert_eq!((log.base, log.tail.len()), (3, 0));
    }

    /// Processor `processor` of `n`: closes a 4-edge chain over four rounds
    /// (4, 3, 2 then 1 new `t` rows) and routes every `t` row to `inbox/2`
    /// at each processor in `dests`; accepts batches on `inbox/2`.
    fn chain_core(processor: usize, dests: &[usize], n: usize) -> WorkerCore {
        let interner = Interner::new();
        // A worker that routes to itself reads its rows back from the inbox.
        let frontier = if dests.contains(&processor) { "inbox" } else { "t" };
        let source = format!("t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), {frontier}(Z,Y).");
        let unit = gst_frontend::parser::parse_program_with(&source, &interner).unwrap();
        let e = (interner.intern("e"), 2);
        let t = (interner.get("t").unwrap(), 2);
        let inbox = (interner.intern("inbox"), 2);
        let mut db = Database::new(interner.clone());
        for k in 0..4i64 {
            db.insert(e, ituple![k, k + 1]).unwrap();
        }
        let dests = dests.iter().map(|&dest| (dest, inbox)).collect();
        let routes = vec![crate::spec::Route::broadcast(t, &interner, dests)];
        let spec = crate::fixtures::spec(processor, unit.program, routes, vec![inbox], vec![], db);
        WorkerCore::with_epoch(spec, n, 0).unwrap()
    }

    /// The payloads of the batches in `sent` addressed to `dest`.
    fn batches_to(sent: &[(usize, Envelope)], dest: usize) -> Vec<Payload> {
        sent.iter()
            .filter(|(to, _)| *to == dest)
            .filter_map(|(_, env)| match &env.message {
                Message::Batch { payload, .. } => Some(payload.clone()),
                _ => None,
            })
            .collect()
    }

    /// An envelope from `from` whose only content is its piggybacked ack:
    /// an `AckSync` stating the same watermark, which replays nothing while
    /// no batch predates the epoch.
    fn ack_from(from: usize, epoch: u64, ack: u64) -> Envelope {
        Envelope { from, seq: 0, epoch, ack, message: Message::AckSync { acked: ack } }
    }

    /// The sending step runs every round: a round that admitted routed
    /// rows ships them in the same step that goes on to process them —
    /// the engine is mid-fixpoint when the batch leaves — and the step
    /// that finds the fixpoint has nothing left to flush.
    #[test]
    fn routed_rows_ship_with_their_round_not_at_the_fixpoint() {
        let mut core = chain_core(0, &[1], 2);
        let mut out = Recorder::default();
        let mut sizes = Vec::new();
        loop {
            let before = batches_to(&out.sends, 1).len();
            let step = core.step(&mut out).unwrap();
            let new = &batches_to(&out.sends, 1)[before..];
            for payload in new {
                assert!(
                    !core.engine.quiescent(),
                    "a batch left at the fixpoint instead of with its round"
                );
                sizes.push(crate::codec::decode_batch(payload).unwrap().len());
            }
            if step == Step::Idle {
                assert!(core.engine.quiescent() && new.is_empty());
                break;
            }
        }
        assert_eq!(sizes, vec![4, 3, 2, 1], "one batch per productive round");
    }

    /// Under the simulator's clock the storage work is visible as compute
    /// ticks: every tuple submitted to an `advance` — to a rule head, or
    /// to the local inbox it hashes home to — is one tick on top of the
    /// firings.
    #[test]
    fn advance_and_local_routing_ticks_land_in_compute() {
        let mut core = chain_core(0, &[0], 1);
        core.set_profiler(TimeBase::VirtualTicks);
        let mut out = Recorder::default();
        while !matches!(core.step(&mut out).unwrap(), Step::Idle | Step::Done) {
            let sent = std::mem::take(&mut out.sends);
            sent.into_iter().for_each(|(_, env)| core.enqueue(env));
        }
        let stats = core.engine.stats();
        let (firings, submitted) = (stats.firings, stats.derived + stats.duplicates);
        // 10 `t` rows, each a home row: submitted once, to the inbox.
        assert_eq!((firings, submitted), (10, 10));
        let phases = core.prof.as_ref().unwrap().profile.phases;
        assert_eq!(phases.compute, firings + submitted);
        assert_eq!(phases.encode + phases.decode + phases.replay, 0);
    }

    /// A core reports to its supervisor once per passive transition —
    /// when it goes passive with an epoch or a watermark that moved — and
    /// never while an outlet or the stash holds rows: a report follows the
    /// shipment of everything the core routed away.
    #[test]
    fn a_core_reports_once_per_passive_transition() {
        let mut core = chain_core(0, &[1], 2);
        let inbox = core.spec.program.inboxes[0];
        let mut out = Recorder::default();
        let run = |core: &mut WorkerCore, out: &mut Recorder| {
            let mut worked = 0;
            loop {
                let before = out.reports.len();
                let step = core.step(out).unwrap();
                if out.reports.len() > before {
                    assert!(core.engine.outlets().iter().all(|o| o.rows.is_empty()), "rows left to ship");
                    assert_eq!(core.stash_count, 0, "rows left to inject");
                }
                match step {
                    Step::Worked => worked += 1,
                    Step::Idle => return worked,
                    Step::Done => panic!("no terminate was sent"),
                }
            }
        };
        assert!(run(&mut core, &mut out) > 2, "the chain workload takes multiple rounds");
        let shipped = batches_to(&out.sends, 1).len() as u64;
        let first = PassiveReport { epoch: 0, batch_seq: vec![0, shipped], recv_floor: vec![0, 0] };
        assert_eq!(out.reports, vec![first.clone()], "one report, after all four batches left");
        run(&mut core, &mut out);
        assert_eq!(out.reports.len(), 1, "still passive, nothing moved: no second report");

        // A batch from processor 1 wakes the core; going passive again is
        // the second transition. A duplicate of it moves nothing.
        let payload = crate::codec::encode_batch(inbox.1, &[ituple![7, 8]]).unwrap();
        let message = Message::Batch { inbox, payload, retract: false };
        let batch = Envelope { from: 1, seq: 0, epoch: 0, ack: 4, message };
        core.enqueue(batch.clone());
        run(&mut core, &mut out);
        let second = PassiveReport { recv_floor: vec![0, 1], ..first };
        assert_eq!(out.reports.last(), Some(&second));
        core.enqueue(batch);
        run(&mut core, &mut out);
        assert_eq!(out.reports.len(), 2, "a duplicate moves no watermark");
    }

    /// A transport-duplicated batch (same link sequence number) is
    /// absorbed — set semantics make the re-injection a no-op — but not
    /// double-counted by the termination detector or the traffic stats.
    #[test]
    fn duplicate_batch_is_injected_but_not_double_counted() {
        let mut core = chain_core(1, &[], 2);
        let inbox = core.spec.program.inboxes[0];
        let mut out = Recorder::default();

        let payload = crate::codec::encode_batch(inbox.1, &[ituple![7, 8]]).unwrap();
        let env = Envelope {
            from: 0,
            seq: 0,
            epoch: 0,
            ack: 0,
            message: Message::Batch { inbox, payload, retract: false },
        };
        core.enqueue(env.clone());
        core.enqueue(env);
        while core.step(&mut out).unwrap() == Step::Worked {}

        assert_eq!(core.report.received_tuples, 1, "duplicate not counted");
        assert_eq!(core.report.duplicate_batches, 1);
        assert_eq!(
            core.engine.relation(inbox).map(|r| r.len()),
            Some(1),
            "set semantics: the duplicate adds nothing new"
        );
        // One receive moved the watermark; the duplicate did not.
        assert_eq!(core.recv_floor[0], 1);
    }

    /// Replay-log memory stays bounded: a shipped batch is retained in
    /// the sender's tail only until *any* envelope from the receiver
    /// carries a piggybacked cumulative ack past it, at which point the
    /// acked prefix — however many batches — moves out of the tail onto
    /// the snapshot list, still encoded.
    #[test]
    fn piggybacked_acks_drain_the_replay_tail() {
        let mut core = chain_core(0, &[1], 2);
        let mut out = Recorder::default();
        while core.step(&mut out).unwrap() == Step::Worked {}
        let shipped = batches_to(&out.sends, 1);
        assert_eq!(shipped.len(), 4, "one batch per round of the chain");
        assert_eq!(core.replay[1].tail.len(), 4, "shipped batches are retained for replay");

        // The receiver absorbed seqs 0..3, so its watermark for our link
        // is 3; any envelope it sends back piggybacks that as the
        // cumulative ack.
        core.enqueue(ack_from(1, 0, 3));
        core.step(&mut out).unwrap();
        assert_eq!(core.replay[1].tail.len(), 1, "acked prefix is compacted out of the tail");
        core.enqueue(ack_from(1, 0, 4));
        core.step(&mut out).unwrap();
        assert_eq!(core.replay[1].tail.len(), 0);
        let kept = &core.replay[1].snapshot;
        assert!(
            kept.len() == 4 && kept.iter().zip(&shipped).all(|((_, k), s)| Arc::ptr_eq(k, s)),
            "the snapshot is the shipped payloads themselves, in ship order"
        );
    }

    /// The link-level recovery contract behind the TCP transport's
    /// reconnect: acks that arrived *before* a crash compact the sender's
    /// replay log, and the compacted prefix is **not** re-replayed after
    /// the epoch bump — a surviving peer whose watermark already covers
    /// it receives nothing, while a fresh incarnation (watermark 0) gets
    /// the full pre-epoch history: the compacted prefix as one snapshot,
    /// then the unacked tail batch by batch.
    #[test]
    fn acked_prefix_is_not_replayed_after_epoch_bump() {
        let mut core = chain_core(0, &[1, 2], 3);
        let mut out = Recorder::default();
        while core.step(&mut out).unwrap() == Step::Worked {}
        let shipped = batches_to(&out.sends, 2);
        assert_eq!(core.replay[1].tail.len(), 4, "four batches retained per destination");
        assert_eq!(core.replay[2].tail.len(), 4);

        // Before anything crashes, peer 1 acks everything and peer 2 the
        // first two batches: those prefixes leave the tails.
        core.enqueue(ack_from(1, 0, 4));
        core.step(&mut out).unwrap();
        core.enqueue(ack_from(2, 0, 2));
        core.step(&mut out).unwrap();
        assert_eq!(core.replay[1].tail.len(), 0, "pre-crash ack compacts the tail");
        assert_eq!(core.replay[2].tail.len(), 2);

        // Peer 2 crashes; the supervisor bumps the epoch. The core must
        // answer with an `AckSync` to every peer so replay can begin.
        core.enqueue(Envelope {
            from: 2,
            seq: 0,
            epoch: 1,
            ack: 0,
            message: Message::Recover { epoch: 1, restarted: 2 },
        });
        core.step(&mut out).unwrap();
        let acksyncs = out
            .sends
            .iter()
            .filter(|(_, env)| matches!(env.message, Message::AckSync { .. }))
            .map(|(to, _)| *to)
            .collect::<Vec<_>>();
        assert_eq!(acksyncs, vec![1, 2], "recovery handshake reaches every peer");
        let mark = out.sends.len();

        // The surviving peer's watermark already covers the compacted
        // prefix: its `AckSync` must trigger no retransmission at all.
        core.enqueue(Envelope {
            from: 1,
            seq: 1,
            epoch: 1,
            ack: 4,
            message: Message::AckSync { acked: 4 },
        });
        core.step(&mut out).unwrap();
        assert_eq!(
            out.sends.len(),
            mark,
            "an acked prefix is never re-replayed after the epoch bump"
        );
        assert_eq!(core.report.replayed_batches, 0);

        // The crashed peer's fresh incarnation starts at watermark 0 and
        // gets the whole history back, the acked half still by pointer.
        core.enqueue(Envelope {
            from: 2,
            seq: 0,
            epoch: 1,
            ack: 0,
            message: Message::AckSync { acked: 0 },
        });
        core.step(&mut out).unwrap();
        let replayed = &out.sends[mark..];
        match &replayed[0].1.message {
            Message::Snapshot { payloads, upto: 2 } => assert!(
                payloads.len() == 2
                    && payloads.iter().zip(&shipped).all(|((_, p), s)| Arc::ptr_eq(p, s)),
                "the snapshot replays the two acked payloads as shipped"
            ),
            other => panic!("expected the compacted prefix first, got {other:?}"),
        }
        let tail = batches_to(replayed, 2);
        assert!(
            tail.len() == 2 && tail.iter().zip(&shipped[2..]).all(|(p, s)| Arc::ptr_eq(p, s)),
            "then the unacked tail"
        );
        assert_eq!(core.report.replayed_batches, 3, "one snapshot and two batches");
    }

    /// A broadcast route is one outlet addressed to every destination,
    /// encoded exactly once per round: every
    /// destination's envelope shares the same payload `Arc`, and the
    /// journal records one `encode` event for the two `send`s.
    #[test]
    fn broadcast_is_encoded_once_and_shared() {
        let mut core = chain_core(0, &[1, 2], 3);
        core.set_sink(TraceSink::virtual_clock(0));
        let mut out = Recorder::default();
        while core.step(&mut out).unwrap() == Step::Worked {}

        let (to_1, to_2) = (batches_to(&out.sends, 1), batches_to(&out.sends, 2));
        assert_eq!((to_1.len(), to_2.len()), (4, 4), "one batch per round per destination");
        assert!(
            to_1.iter().zip(&to_2).all(|(a, b)| Arc::ptr_eq(a, b)),
            "both destinations share each round's single encoding"
        );
        let events = core.take_trace_events();
        let count = |pick: fn(&ObsKind) -> bool| events.iter().filter(|e| pick(&e.kind)).count();
        let encodes = count(|k| matches!(k, ObsKind::BatchEncoded { .. }));
        let sends = count(|k| matches!(k, ObsKind::BatchSent { .. }));
        assert_eq!(encodes, 4, "one encode per (round, outlet)");
        assert_eq!(sends, 8, "but one send per destination");
    }

    /// The route key `X ≥ 10 000`: a row of `t` whose first column is at
    /// least 10 000 goes to processor 1, any other stays here.
    struct Split(Vec<gst_frontend::Variable>);

    impl gst_frontend::Constraint for Split {
        fn variables(&self) -> &[gst_frontend::Variable] {
            &self.0
        }
        fn holds(&self, _: &[gst_common::Word]) -> bool {
            true
        }
        fn describe(&self, _: &Interner) -> String {
            "X >= 10000".into()
        }
        fn partition(&self, bound: &[gst_common::Word]) -> Option<usize> {
            let (word, sym) = bound[0];
            (!sym).then_some(usize::from(word as i64 >= 10_000))
        }
    }

    /// A round that routes more than three chunks of rows to a peer ships
    /// them while it runs: a batch per chunk inside the one `step` that
    /// fires the round, between its `RoundBegin` and `RoundEnd`, and the
    /// rest after the next advance. In ship order, those batches are the
    /// rows the round fired whole puts in the outlet.
    #[test]
    fn a_round_ships_its_rows_while_it_runs() {
        let rows = 3 * CHUNK_ROWS as i64 + 100;
        let interner = Interner::new();
        let src = "t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), inbox(Z,Y).";
        let program = gst_frontend::parser::parse_program_with(src, &interner).unwrap().program;
        let (e, t, inbox) = ((interner.intern("e"), 2), (interner.intern("t"), 2), (interner.intern("inbox"), 2));
        let mut db = Database::new(interner.clone());
        for k in 0..rows {
            // `t(k, 5000 + k)` stays here and is the round's delta; the edge
            // into `k` routes each delta row's firing to processor 1.
            db.insert(e, ituple![k, 5_000 + k]).unwrap();
            db.insert(e, ituple![10_000 + k, k]).unwrap();
        }
        let var = |name: &str| gst_frontend::Variable(interner.intern(name));
        let route = crate::spec::Route {
            source: gst_frontend::Atom::new(t.0, vec![gst_frontend::Term::Var(var("A")), gst_frontend::Term::Var(var("B"))]),
            key: Some(Arc::new(Split(vec![var("A")]))),
            dests: vec![(0, inbox), (1, inbox)],
            retract: false,
        };
        let spec = crate::fixtures::spec(0, program, vec![route], vec![inbox], vec![], db);

        let mut engine = spec.build_engine().unwrap();
        engine.bootstrap().unwrap();
        engine.advance().unwrap();
        engine.clear_outlets();
        engine.process_round();
        let whole = engine.outlets()[0].rows.clone();
        assert_eq!(whole.len(), rows as usize);

        let mut core = WorkerCore::with_epoch(spec, 2, 0).unwrap();
        core.set_sink(TraceSink::virtual_clock(0));
        let mut out = Recorder::default();
        assert_eq!(core.step(&mut out).unwrap(), Step::Worked);
        let events = core.take_trace_events();
        let at = |pick: fn(&ObsKind) -> bool| events.iter().position(|e| pick(&e.kind)).expect("one round");
        let (begin, end) = (at(|k| matches!(k, ObsKind::RoundBegin { .. })), at(|k| matches!(k, ObsKind::RoundEnd { .. })));
        let inside = events[begin..end].iter().filter(|e| matches!(e.kind, ObsKind::BatchSent { .. })).count();
        assert_eq!(inside, 3, "one batch per full chunk, inside the round");
        assert_eq!(batches_to(&out.sends, 1).len(), 1 + inside, "the bootstrap's rows left before the round");

        while core.step(&mut out).unwrap() == Step::Worked {}
        let sent = batches_to(&out.sends, 1);
        assert_eq!(sent.len(), 2 + inside, "the last part of the round ships after the next advance");
        let shipped: Vec<_> = sent[1..].iter().flat_map(|p| crate::codec::decode_batch(p).unwrap()).collect();
        assert_eq!(shipped, whole);
    }

    /// Terminate wins over queued work: once absorbed, the core reports
    /// Done and stops stepping.
    #[test]
    fn terminate_short_circuits_pending_work() {
        let mut core = chain_core(1, &[], 2);
        let mut out = Recorder::default();
        core.enqueue(Envelope {
            from: 0,
            seq: 0,
            epoch: 0,
            ack: 0,
            message: Message::Terminate,
        });
        assert_eq!(core.step(&mut out).unwrap(), Step::Done);
        assert!(core.terminated());
        assert_eq!(core.step(&mut out).unwrap(), Step::Done, "Done is sticky");
    }
}
