//! The multi-process transport: one OS process per processor over TCP.
//!
//! The paper's architecture (§3) is agnostic about what a "processor" is;
//! [`crate::transport::ThreadedTransport`] realizes it as OS threads and
//! [`crate::sim::SimTransport`] as simulated interleavings. This module
//! cuts the same [`crate::worker::WorkerCore`] state machine at a *real
//! network boundary*: a [`NetCoordinator`] binds a TCP listener, launches
//! one worker per processor (a separate OS process under
//! [`ProcessLauncher`], or a thread speaking real loopback TCP under
//! [`InProcessLauncher`] for tests and benchmarks), ships each worker its
//! [`WorkerSpec`] over the framed wire protocol ([`crate::wire`]), relays
//! worker-to-worker envelopes by destination, hands the workers' passive
//! reports and deaths to the run's supervisor (`supervisor.rs`), and pools
//! the answer.
//!
//! ## Topology and protocol
//!
//! The fleet is a star: every worker holds exactly one TCP connection, to
//! the coordinator, which relays envelopes between workers without
//! re-encoding them: the destination leads the frame body, the relay
//! validates the envelope (corruption dies at the *sender's* link, never
//! inside an innocent receiver) and forwards the original bytes
//! verbatim. A (re)connecting
//! worker sends `Hello{index, incarnation}`; the coordinator answers with
//! the full `Job` (config, symbol table, program, EDB, session seed) so a
//! worker process is stateless across restarts — SIGKILL loses nothing
//! that the Job and the sender-side replay logs cannot rebuild.
//!
//! ## Crash recovery
//!
//! A worker death — process exit, socket EOF or reset, corrupt frame,
//! heartbeat timeout — is *recoverable*; a typed [`wire::FRAME_ERROR`]
//! marked fatal (arity bugs, watchdog expiry) is not. The supervisor
//! decides what follows (`DESIGN.md` §7); the relay carries it out. A
//! restart sends `Recover` to the survivors (who replay from their
//! per-link replay logs) and launches a fresh incarnation, which receives
//! the Job again plus the same `Recover` so it repairs into the current
//! epoch.
//!
//! ## Fault injection
//!
//! [`NetFaultPlan`] arms deterministic *socket-level* faults on a worker's
//! write path — delay before connecting, abrupt disconnect after N bytes,
//! truncation mid-frame at byte N, garbage injection — so the recovery
//! machinery is testable in CI without flaky timing. [`KillSpec`] makes
//! the coordinator SIGKILL a live worker process after receiving N bytes
//! from it: a real `kill -9` mid-fixpoint, byte-counted for determinism.

use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gst_common::{Error, FxHashMap, Interner, Result};
use gst_frontend::ast::ConstraintRef;

use crate::coordinator::RuntimeConfig;
use crate::message::Envelope;
use crate::obs::{ObsEvent, ObsKind, TimeBase};
use crate::spec::WorkerSpec;
use crate::stats::ExecutionOutcome;
use crate::supervisor::{Action, PassiveReport, Supervisor};
use crate::transport::{validate_specs, Transport};
use crate::wire;
use crate::worker::{finish_core, watchdog_error, Outbox, Step, WorkerCore};

/// A decoder for constraint literals that travel inside a job frame —
/// typically `gst_core::prelude::decode_constraint`. The runtime cannot
/// depend on `gst-core`, so whoever embeds a net worker injects it.
pub type ConstraintDecoderFn = fn(&[u8]) -> Result<ConstraintRef>;

/// A link silent this long (no frames, no pongs) is declared dead; also
/// the socket read/write timeout on both ends, so a wedged peer becomes an
/// error instead of a hang.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(20);
/// Initial pause between a worker's connect attempts; doubles per failure
/// up to [`CONNECT_BACKOFF_CAP`].
const CONNECT_BACKOFF: Duration = Duration::from_millis(50);
/// Cap on the exponential connect backoff.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Timing knobs for the TCP transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Address the coordinator binds its listener on. Port 0 picks a free
    /// ephemeral port. Default `127.0.0.1:0`.
    pub bind: SocketAddr,
    /// How often the coordinator pings every live link. Default 1s.
    pub heartbeat_interval: Duration,
    /// Total budget a worker spends trying to connect (and the
    /// coordinator spends waiting for a launched worker's Hello) before
    /// the attempt counts as a death. Default 10s.
    pub connect_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            bind: SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0),
            heartbeat_interval: Duration::from_secs(1),
            connect_timeout: Duration::from_secs(10),
        }
    }
}

/// One deterministic socket-level fault, armed on a worker's write path.
///
/// Byte thresholds count the worker's cumulative bytes written on its
/// link (Hello included), so a fault fires at the same point in the
/// protocol on every run — no timing races.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Sleep this many milliseconds before the first connect attempt.
    Delay(u64),
    /// Once this many bytes are written, abruptly close the socket
    /// between writes (the peer sees EOF, possibly mid-frame).
    Disconnect(u64),
    /// Write exactly this many bytes — cutting the current frame short —
    /// then close: the peer sees EOF *inside* a frame.
    Truncate(u64),
    /// At this many bytes, write garbage over the stream and close: the
    /// peer must reject the corruption cleanly, never panic or hang.
    Garbage(u64),
}

impl NetFault {
    /// Parse `kind@N` — e.g. `disconnect@2048`, `delay@500` (ms).
    pub fn parse(s: &str) -> Result<NetFault> {
        let (kind, at) = s
            .split_once('@')
            .ok_or_else(|| Error::Runtime(format!("fault `{s}` is not `kind@N`")))?;
        let at: u64 = at
            .parse()
            .map_err(|_| Error::Runtime(format!("fault `{s}`: `{at}` is not a number")))?;
        match kind {
            "delay" => Ok(NetFault::Delay(at)),
            "disconnect" => Ok(NetFault::Disconnect(at)),
            "truncate" => Ok(NetFault::Truncate(at)),
            "garbage" => Ok(NetFault::Garbage(at)),
            _ => Err(Error::Runtime(format!(
                "unknown fault kind `{kind}` (delay, disconnect, truncate, garbage)"
            ))),
        }
    }

    /// The `kind@N` form [`NetFault::parse`] accepts.
    pub fn render(&self) -> String {
        match self {
            NetFault::Delay(n) => format!("delay@{n}"),
            NetFault::Disconnect(n) => format!("disconnect@{n}"),
            NetFault::Truncate(n) => format!("truncate@{n}"),
            NetFault::Garbage(n) => format!("garbage@{n}"),
        }
    }
}

/// One worker's armed fault and whether it survives restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEntry {
    /// The worker whose link carries the fault.
    pub worker: usize,
    /// The fault itself.
    pub fault: NetFault,
    /// Persistent faults re-arm on every incarnation (driving the fleet
    /// into its restart budget); one-shot faults arm only the very first
    /// spawn of the worker, so the restarted incarnation runs clean.
    pub persistent: bool,
}

/// A deterministic socket-fault schedule for the fleet.
///
/// Grammar: comma-separated `W:kind@N` entries, `!` suffix for
/// persistent — e.g. `1:disconnect@2048,0:delay@500` or `1:garbage@150!`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// The armed faults, at most one consulted per worker (first match).
    pub faults: Vec<FaultEntry>,
}

impl NetFaultPlan {
    /// Parse the `W:kind@N[!],...` grammar. Empty input is an empty plan.
    pub fn parse(s: &str) -> Result<NetFaultPlan> {
        let mut faults = Vec::new();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let part = part.trim();
            let (spec, persistent) = match part.strip_suffix('!') {
                Some(spec) => (spec, true),
                None => (part, false),
            };
            let (worker, fault) = spec
                .split_once(':')
                .ok_or_else(|| Error::Runtime(format!("fault `{part}` is not `W:kind@N`")))?;
            let worker: usize = worker
                .parse()
                .map_err(|_| Error::Runtime(format!("fault `{part}`: bad worker index")))?;
            faults.push(FaultEntry { worker, fault: NetFault::parse(fault)?, persistent });
        }
        Ok(NetFaultPlan { faults })
    }

    /// The fault to arm on `worker`'s next spawn, if any. One-shot faults
    /// apply only when this is the worker's first spawn ever (across
    /// every `execute` call of the coordinator's lifetime).
    pub fn fault_for(&self, worker: usize, first_spawn: bool) -> Option<NetFault> {
        self.faults
            .iter()
            .find(|e| e.worker == worker && (e.persistent || first_spawn))
            .map(|e| e.fault)
    }
}

/// Make the coordinator SIGKILL worker `worker`'s live process once it
/// has received `after_bytes` cumulative frame bytes from it — counted
/// across `execute` calls (so the kill can land mid-update-batch), firing
/// exactly once per coordinator. Grammar: `W@N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The worker whose process gets killed.
    pub worker: usize,
    /// Cumulative received bytes that trigger the kill.
    pub after_bytes: u64,
}

impl KillSpec {
    /// Parse `W@N`, e.g. `1@4096`.
    pub fn parse(s: &str) -> Result<KillSpec> {
        let (worker, after) = s
            .split_once('@')
            .ok_or_else(|| Error::Runtime(format!("kill spec `{s}` is not `W@N`")))?;
        let worker = worker
            .parse()
            .map_err(|_| Error::Runtime(format!("kill spec `{s}`: bad worker index")))?;
        let after_bytes = after
            .parse()
            .map_err(|_| Error::Runtime(format!("kill spec `{s}`: bad byte count")))?;
        Ok(KillSpec { worker, after_bytes })
    }
}

/// Everything a worker needs to join a fleet, in both directions: the
/// coordinator renders it to a canonical argument vector for process
/// launchers, and a worker binary parses that vector back.
#[derive(Debug, Clone)]
pub struct NetWorkerArgs {
    /// Coordinator address to connect to, `ip:port` (never a host name).
    pub connect: SocketAddr,
    /// Processor index this worker runs.
    pub index: usize,
    /// Incarnation number (0 for the first spawn; bumps per restart).
    pub incarnation: u64,
    /// Total budget for connecting to the coordinator
    /// ([`NetConfig::connect_timeout`]).
    pub connect_timeout: Duration,
    /// Socket fault armed on this incarnation's write path.
    pub fault: Option<NetFault>,
}

impl NetWorkerArgs {
    /// Render the canonical `--flag value` vector [`NetWorkerArgs::parse`]
    /// accepts.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--connect".into(),
            self.connect.to_string(),
            "--index".into(),
            self.index.to_string(),
            "--incarnation".into(),
            self.incarnation.to_string(),
            "--connect-timeout-ms".into(),
            self.connect_timeout.as_millis().to_string(),
        ];
        if let Some(fault) = &self.fault {
            args.push("--net-fault".into());
            args.push(fault.render());
        }
        args
    }

    /// Parse the vector [`NetWorkerArgs::to_args`] renders.
    pub fn parse(args: &[String]) -> Result<NetWorkerArgs> {
        let mut out = NetWorkerArgs {
            connect: SocketAddr::from(([0; 4], 0)),
            index: usize::MAX,
            incarnation: 0,
            connect_timeout: NetConfig::default().connect_timeout,
            fault: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| Error::Runtime(format!("flag {flag} needs a value")))?;
            let bad = |what: &str| Error::Runtime(format!("{flag}: `{value}` is not {what}"));
            let ms = || value.parse().map(Duration::from_millis).map_err(|_| bad("a number"));
            match flag.as_str() {
                "--connect" => out.connect = value.parse().map_err(|_| bad("an ip:port address"))?,
                "--index" => out.index = value.parse().map_err(|_| bad("a number"))?,
                "--incarnation" => out.incarnation = value.parse().map_err(|_| bad("a number"))?,
                "--connect-timeout-ms" => out.connect_timeout = ms()?,
                "--net-fault" => out.fault = Some(NetFault::parse(value)?),
                _ => return Err(Error::Runtime(format!("unknown worker flag {flag}"))),
            }
        }
        if out.connect.port() == 0 {
            return Err(Error::Runtime("worker needs --connect".into()));
        }
        if out.index == usize::MAX {
            return Err(Error::Runtime("worker needs --index".into()));
        }
        Ok(out)
    }
}

/// A launched worker, as the coordinator holds it.
pub trait WorkerHandle: Send {
    /// Terminate the incarnation with prejudice (SIGKILL for processes;
    /// a no-op for in-process threads, whose sockets die with the
    /// coordinator). Must also reap, so no zombies outlive the run.
    fn kill(&mut self);
}

/// How worker incarnations come into being. The coordinator calls this
/// for every spawn — initial fleet and every restart.
pub trait Launcher: Send + Sync {
    /// Start one worker incarnation that will connect to
    /// `args.connect` and send `Hello{args.index, args.incarnation}`.
    fn spawn_worker(&self, args: &NetWorkerArgs) -> Result<Box<dyn WorkerHandle>>;
}

/// Spawn each worker as a separate OS process: `program prefix... args...`
/// with `args` in the canonical [`NetWorkerArgs::to_args`] grammar. The
/// binary is typically `std::env::current_exe()` re-executed with a
/// worker-mode prefix (the `pdatalog net-worker` subcommand).
#[derive(Debug, Clone)]
pub struct ProcessLauncher {
    /// The worker executable.
    pub program: std::path::PathBuf,
    /// Arguments placed before the generated worker args (mode selector).
    pub prefix: Vec<String>,
}

struct ChildHandle {
    child: Child,
}

impl WorkerHandle for ChildHandle {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildHandle {
    fn drop(&mut self) {
        // Kill-and-reap on every path: no stray worker processes, no
        // zombies, even when the coordinator errors out.
        self.kill();
    }
}

impl Launcher for ProcessLauncher {
    fn spawn_worker(&self, args: &NetWorkerArgs) -> Result<Box<dyn WorkerHandle>> {
        let child = Command::new(&self.program)
            .args(&self.prefix)
            .args(args.to_args())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| {
                Error::Runtime(format!("spawning worker {}: {e}", args.index))
            })?;
        Ok(Box::new(ChildHandle { child }))
    }
}

struct ThreadHandle;

impl WorkerHandle for ThreadHandle {
    fn kill(&mut self) {}
}

/// Run each worker as a thread in this process — but over *real* TCP
/// loopback, exercising the full wire protocol, reconnect and fault
/// machinery without process-spawn cost. The test and benchmark launcher;
/// [`KillSpec`] needs real processes and is not supported here.
#[derive(Debug, Clone, Default)]
pub struct InProcessLauncher {
    /// Constraint decoder injected into the worker threads.
    pub decoder: Option<ConstraintDecoderFn>,
}

impl Launcher for InProcessLauncher {
    fn spawn_worker(&self, args: &NetWorkerArgs) -> Result<Box<dyn WorkerHandle>> {
        let args = args.clone();
        let decoder = self.decoder;
        std::thread::Builder::new()
            .name(format!("net-worker-{}", args.index))
            .spawn(move || {
                let _ = run_net_worker(&args, decoder);
            })
            .map_err(|e| Error::Runtime(format!("spawning worker thread: {e}")))?;
        Ok(Box::new(ThreadHandle))
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// The write half of a worker's link, with an optional armed fault.
/// Every byte the worker sends flows through here, so byte-counted
/// faults are deterministic with respect to the protocol.
struct FaultGate {
    stream: TcpStream,
    written: u64,
    fault: Option<NetFault>,
}

impl FaultGate {
    fn trip(&mut self, what: &str) -> std::io::Result<usize> {
        self.fault = None;
        let _ = self.stream.shutdown(Shutdown::Both);
        Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            format!("injected {what}"),
        ))
    }
}

impl std::io::Write for FaultGate {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let pass = |gate: &mut FaultGate, buf: &[u8]| {
            let n = gate.stream.write(buf)?;
            gate.written += n as u64;
            Ok(n)
        };
        match self.fault {
            None | Some(NetFault::Delay(_)) => pass(self, buf),
            Some(NetFault::Disconnect(at)) => {
                if self.written >= at {
                    self.trip("disconnect")
                } else {
                    pass(self, buf)
                }
            }
            Some(NetFault::Truncate(at)) => {
                let budget = at.saturating_sub(self.written) as usize;
                if budget == 0 {
                    self.trip("truncation")
                } else if buf.len() < budget {
                    pass(self, buf)
                } else {
                    // Cut the stream at exactly `at` bytes — mid-frame.
                    let _ = self.stream.write_all(&buf[..budget]);
                    self.written = at;
                    self.trip("truncation")
                }
            }
            Some(NetFault::Garbage(at)) => {
                let budget = at.saturating_sub(self.written) as usize;
                if budget == 0 {
                    let _ = self.stream.write_all(&[0xFF; 16]);
                    self.trip("garbage")
                } else if buf.len() < budget {
                    pass(self, buf)
                } else {
                    let _ = self.stream.write_all(&buf[..budget]);
                    self.written = at;
                    let _ = self.stream.write_all(&[0xFF; 16]);
                    self.trip("garbage")
                }
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

type SharedGate = Arc<Mutex<FaultGate>>;

fn lock_gate(gate: &SharedGate) -> MutexGuard<'_, FaultGate> {
    gate.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Worker outbox: every envelope becomes one framed write on the link,
/// destination first so the coordinator can relay without re-encoding;
/// a report is a frame for the coordinator itself.
struct NetOutbox {
    gate: SharedGate,
}

impl Outbox for NetOutbox {
    fn send(&mut self, to: usize, env: Envelope) -> Result<()> {
        let body = wire::encode_envelope(to, &env);
        wire::write_frame(&mut *lock_gate(&self.gate), wire::FRAME_ENVELOPE, &body)
    }

    fn report(&mut self, report: PassiveReport) -> Result<()> {
        let body = wire::encode_report(&report);
        wire::write_frame(&mut *lock_gate(&self.gate), wire::FRAME_REPORT, &body)
    }
}

enum RxEv {
    Env(Envelope),
    Shutdown,
    Lost(Error),
}

/// Connect to the coordinator with capped exponential backoff.
fn connect_with_backoff(args: &NetWorkerArgs) -> Result<TcpStream> {
    let deadline = Instant::now() + args.connect_timeout;
    let mut backoff = CONNECT_BACKOFF;
    loop {
        match TcpStream::connect(args.connect) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() + backoff > deadline {
                    return Err(Error::Runtime(format!(
                        "worker {}: could not reach coordinator at {} within {:?}: {e}",
                        args.index, args.connect, args.connect_timeout
                    )));
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(CONNECT_BACKOFF_CAP);
            }
        }
    }
}

fn report_fatal(gate: &SharedGate, error: &Error) {
    // Best effort: if the link is already dead the coordinator will see
    // EOF and classify the death as recoverable instead.
    let body = wire::encode_error(true, &error.to_string());
    let _ = wire::write_frame(&mut *lock_gate(gate), wire::FRAME_ERROR, &body);
}

/// Run one worker incarnation to completion: connect (with backoff),
/// handshake, receive the job, run the fixpoint against the coordinator's
/// relay, send the result. `Ok` means a clean finish or an orderly
/// shutdown; `Err` means this incarnation died (the coordinator decides
/// whether that is recoverable).
pub fn run_net_worker(args: &NetWorkerArgs, decoder: Option<ConstraintDecoderFn>) -> Result<()> {
    if let Some(NetFault::Delay(ms)) = args.fault {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let stream = connect_with_backoff(args)?;
    let _ = stream.set_nodelay(true);
    let io_err = |e: std::io::Error| Error::Runtime(format!("worker link setup: {e}"));
    stream
        .set_read_timeout(Some(HEARTBEAT_TIMEOUT))
        .map_err(io_err)?;
    stream
        .set_write_timeout(Some(HEARTBEAT_TIMEOUT))
        .map_err(io_err)?;
    let mut reader = stream.try_clone().map_err(io_err)?;
    let gate: SharedGate = Arc::new(Mutex::new(FaultGate {
        stream,
        written: 0,
        fault: args.fault,
    }));

    let hello = wire::encode_hello(args.index, args.incarnation);
    wire::write_frame(&mut *lock_gate(&gate), wire::FRAME_HELLO, &hello)?;

    // The job arrives before anything else; answer heartbeats meanwhile.
    let mut stashed: Vec<Vec<u8>> = Vec::new();
    let job = loop {
        match wire::read_frame(&mut reader)? {
            Some((wire::FRAME_JOB, body)) => break body,
            Some((wire::FRAME_PING, body)) => {
                wire::write_frame(&mut *lock_gate(&gate), wire::FRAME_PONG, &body)?;
            }
            Some((wire::FRAME_ENVELOPE, body)) => stashed.push(body),
            Some((wire::FRAME_SHUTDOWN, _)) => return Ok(()),
            Some((kind, _)) => {
                return Err(Error::Runtime(format!(
                    "worker {}: unexpected frame kind {kind} before job",
                    args.index
                )))
            }
            None => {
                return Err(Error::Runtime(format!(
                    "worker {}: coordinator closed the link before sending a job",
                    args.index
                )))
            }
        }
    };
    let decode: wire::ConstraintDecode = match &decoder {
        Some(f) => Some(f as &(dyn Fn(&[u8]) -> Result<ConstraintRef> + Send + Sync)),
        None => None,
    };
    let job = wire::decode_job(&job, decode)?;
    let worker_cfg = job.worker.clone();
    let interner = job.spec.program.program.interner.clone();
    let mut core = match WorkerCore::with_epoch(job.spec, job.n, job.epoch) {
        Ok(core) => core,
        Err(e) => {
            report_fatal(&gate, &e);
            return Err(e);
        }
    };
    if worker_cfg.profile {
        // Per-process wall clock: the profile carries durations only, so
        // worker-local origins are fine — the coordinator merges the
        // shipped profiles, never compares absolute stamps.
        core.set_profiler(TimeBase::WallMicros);
    }
    if let Some(recover) = job.recover {
        // Absorbed before any engine step (and before any stashed
        // traffic): the epoch repair must precede every send this
        // incarnation counts.
        core.enqueue(recover);
    }
    for body in stashed {
        let (_, env) = wire::decode_envelope(&body, &interner)?;
        core.enqueue(env);
    }

    // Reader thread: decode envelopes, answer pings immediately (even
    // while the main loop is deep in a fixpoint round), surface link
    // death as an event.
    let (tx, rx) = channel::<RxEv>();
    let pong_gate = gate.clone();
    let reader_interner = interner.clone();
    let reader_thread = std::thread::Builder::new()
        .name(format!("net-worker-{}-rx", args.index))
        .spawn(move || loop {
            match wire::read_frame(&mut reader) {
                Ok(Some((wire::FRAME_ENVELOPE, body))) => {
                    match wire::decode_envelope(&body, &reader_interner) {
                        Ok((_, env)) => {
                            if tx.send(RxEv::Env(env)).is_err() {
                                return;
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(RxEv::Lost(e));
                            return;
                        }
                    }
                }
                Ok(Some((wire::FRAME_PING, body))) => {
                    if wire::write_frame(&mut *lock_gate(&pong_gate), wire::FRAME_PONG, &body)
                        .is_err()
                    {
                        let _ = tx.send(RxEv::Lost(Error::Runtime(
                            "link died answering a heartbeat".into(),
                        )));
                        return;
                    }
                }
                Ok(Some((wire::FRAME_SHUTDOWN, _))) => {
                    let _ = tx.send(RxEv::Shutdown);
                    return;
                }
                Ok(Some((kind, _))) => {
                    let _ = tx.send(RxEv::Lost(Error::Runtime(format!(
                        "unexpected frame kind {kind} from coordinator"
                    ))));
                    return;
                }
                Ok(None) => {
                    let _ = tx.send(RxEv::Lost(Error::Runtime(
                        "coordinator closed the link".into(),
                    )));
                    return;
                }
                Err(e) => {
                    let _ = tx.send(RxEv::Lost(e));
                    return;
                }
            }
        })
        .map_err(|e| Error::Runtime(format!("spawning reader thread: {e}")))?;
    // The reader owns its socket clone; it exits when the link dies.
    drop(reader_thread);

    let mut out = NetOutbox { gate: gate.clone() };
    let mut idle_since: Option<Instant> = None;
    loop {
        loop {
            match rx.try_recv() {
                Ok(RxEv::Env(env)) => core.enqueue(env),
                Ok(RxEv::Shutdown) => return Ok(()),
                Ok(RxEv::Lost(e)) => return Err(e),
                Err(_) => break,
            }
        }
        match core.step(&mut out) {
            Err(e) => {
                report_fatal(&gate, &e);
                return Err(e);
            }
            Ok(Step::Done) => break,
            Ok(Step::Worked) => idle_since = None,
            Ok(Step::Idle) => {
                let since = *idle_since.get_or_insert_with(Instant::now);
                let left = worker_cfg.idle_watchdog.saturating_sub(since.elapsed());
                if left.is_zero() {
                    let e = watchdog_error(core.id(), since.elapsed());
                    report_fatal(&gate, &e);
                    return Err(e);
                }
                match rx.recv_timeout(left) {
                    Ok(RxEv::Env(env)) => core.enqueue(env),
                    Ok(RxEv::Shutdown) => return Ok(()),
                    Ok(RxEv::Lost(e)) => return Err(e),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(Error::Runtime(format!(
                            "worker {}: reader thread gone",
                            args.index
                        )))
                    }
                }
            }
        }
    }
    // `core` is dropped after the RESULT frame is written: the coordinator
    // pools while this process frees its arenas.
    let (report, pooled, _events) = finish_core(&mut core);
    let body = wire::encode_result(&report, &pooled)?;
    let mut guard = lock_gate(&gate);
    wire::write_frame(&mut *guard, wire::FRAME_RESULT, &body)
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

/// Byte counters and kill bookkeeping that outlive a single `execute`
/// call, so a [`KillSpec`] threshold can accumulate across the rounds of
/// an update session and still fire exactly once.
#[derive(Default)]
struct Persist {
    rx_bytes: FxHashMap<usize, u64>,
    spawns: FxHashMap<usize, u64>,
    kill_fired: bool,
}

/// The TCP transport: launches one worker per processor via its
/// [`Launcher`], distributes [`WorkerSpec`]s over the framed wire
/// protocol, relays worker-to-worker envelopes, supervises crashes with
/// restart + replay, detects termination, and pools the answer.
pub struct NetCoordinator {
    launcher: Arc<dyn Launcher>,
    net: NetConfig,
    faults: NetFaultPlan,
    kill: Option<KillSpec>,
    persist: Mutex<Persist>,
}

impl NetCoordinator {
    /// A coordinator over `launcher` with the given timing knobs.
    pub fn new(launcher: Arc<dyn Launcher>, net: NetConfig) -> Self {
        NetCoordinator {
            launcher,
            net,
            faults: NetFaultPlan::default(),
            kill: None,
            persist: Mutex::new(Persist::default()),
        }
    }

    /// Arm a socket-fault schedule (worker-side write faults).
    pub fn with_faults(mut self, faults: NetFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Arm a byte-counted SIGKILL of one live worker process.
    pub fn with_kill(mut self, kill: KillSpec) -> Self {
        self.kill = Some(kill);
        self
    }
}

impl Transport for NetCoordinator {
    fn execute(&self, specs: Vec<WorkerSpec>, config: &RuntimeConfig) -> Result<ExecutionOutcome> {
        let kinds = validate_specs(&specs)?;
        let listener = TcpListener::bind(self.net.bind)
            .map_err(|e| Error::Runtime(format!("binding {}: {e}", self.net.bind)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Runtime(format!("listener address: {e}")))?;

        let (ev_tx, ev_rx) = channel::<Ev>();
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let tx = ev_tx.clone();
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || accept_loop(listener, tx, stop))
                .map_err(|e| Error::Runtime(format!("spawning accept thread: {e}")))?
        };

        let mut relay = Relay {
            specs: &specs,
            config,
            net: &self.net,
            launcher: self.launcher.as_ref(),
            faults: &self.faults,
            kill: self.kill,
            persist: &self.persist,
            addr,
            ev_rx,
            _ev_tx: ev_tx,
            interner: specs[0].program.program.interner.clone(),
            links: (0..specs.len()).map(|_| None).collect(),
            handles: (0..specs.len()).map(|_| None).collect(),
            incarnations: vec![0; specs.len()],
            awaiting: vec![None; specs.len()],
            supervisor: Supervisor::new(specs.len(), &config.supervisor),
            pending_recover: vec![None; specs.len()],
            parked: vec![Vec::new(); specs.len()],
            transport_events: Vec::new(),
            started: Instant::now(),
            reconnects: 0,
            relay_bytes: 0,
            nonce: 0,
            last_ping: Instant::now(),
        };
        relay.run();
        let wall = relay.started.elapsed();

        // Teardown: orderly shutdown for survivors, hard kill (and reap)
        // for the rest, and unblock the accept loop so it can exit.
        for link in relay.links.iter_mut().flatten() {
            let _ = wire::write_frame(&mut link.stream, wire::FRAME_SHUTDOWN, &[]);
        }
        relay.links.iter_mut().for_each(|l| *l = None);
        for handle in relay.handles.iter_mut().flatten() {
            handle.kill();
        }
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        let _ = accept_thread.join();

        let Relay { supervisor, transport_events, reconnects, relay_bytes, .. } = relay;
        let mut outcome = supervisor.outcome(&kinds, wall, TimeBase::WallMicros, transport_events)?;
        outcome.stats.reconnects = reconnects;
        outcome.stats.relay_bytes = relay_bytes;
        Ok(outcome)
    }
}

fn accept_loop(listener: TcpListener, tx: Sender<Ev>, stop: Arc<AtomicBool>) {
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_read_timeout(Some(HEARTBEAT_TIMEOUT)).is_err()
                    || stream.set_write_timeout(Some(HEARTBEAT_TIMEOUT)).is_err()
                {
                    continue;
                }
                // Handshake here (bounded by the read timeout) so only
                // identified links reach the supervisor.
                if let Ok(Some((wire::FRAME_HELLO, body))) = wire::read_frame(&mut stream) {
                    if let Ok((index, incarnation)) = wire::decode_hello(&body) {
                        if tx.send(Ev::Conn { index, incarnation, stream }).is_err() {
                            return;
                        }
                    }
                }
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

enum Ev {
    Conn { index: usize, incarnation: u64, stream: TcpStream },
    Frame { index: usize, incarnation: u64, kind: u8, body: Vec<u8> },
    Down { index: usize, incarnation: u64, error: Error },
}

struct Link {
    stream: TcpStream,
    incarnation: u64,
    last_heard: Instant,
    /// A heartbeat write failed: stop pinging. Not a verdict — see
    /// [`Relay::tick`].
    write_dead: bool,
}

/// The coordinator's side of a run: links, launches and the relay between
/// workers. What a death or a report leads to, the supervisor decides.
struct Relay<'a> {
    specs: &'a [WorkerSpec],
    config: &'a RuntimeConfig,
    net: &'a NetConfig,
    launcher: &'a dyn Launcher,
    faults: &'a NetFaultPlan,
    kill: Option<KillSpec>,
    persist: &'a Mutex<Persist>,
    addr: SocketAddr,
    ev_rx: Receiver<Ev>,
    /// Keeps the event channel alive even if every reader thread and the
    /// accept loop are momentarily gone.
    _ev_tx: Sender<Ev>,
    interner: Interner,
    links: Vec<Option<Link>>,
    handles: Vec<Option<Box<dyn WorkerHandle>>>,
    incarnations: Vec<u64>,
    awaiting: Vec<Option<Instant>>,
    supervisor: Supervisor,
    pending_recover: Vec<Option<Envelope>>,
    /// Envelope frames relayed toward a worker that has no live link
    /// *right now* — not yet connected, or restarting. The threaded
    /// transport's queues outlive a crash; these buffers are their wire
    /// equivalent, flushed in order once the destination (re)connects.
    /// Pre-crash entries are dropped by the receiver's epoch filter, so
    /// parking never delivers stale state. Dropping them instead would
    /// lose batches shipped in the current epoch, which no replay resends:
    /// the link would never balance and the run would end in the watchdog.
    parked: Vec<Vec<Vec<u8>>>,
    transport_events: Vec<ObsEvent>,
    started: Instant,
    reconnects: u64,
    relay_bytes: u64,
    nonce: u64,
    last_ping: Instant,
}

impl Relay<'_> {
    fn run(&mut self) {
        for index in 0..self.specs.len() {
            if let Err(e) = self.spawn(index) {
                self.fail(index, e);
                break;
            }
        }
        let tick = self
            .net
            .heartbeat_interval
            .min(Duration::from_millis(100));
        while !self.supervisor.settled() {
            match self.ev_rx.recv_timeout(tick) {
                Ok(Ev::Conn { index, incarnation, stream }) => {
                    self.on_conn(index, incarnation, stream);
                }
                Ok(Ev::Frame { index, incarnation, kind, body }) => {
                    self.on_frame(index, incarnation, kind, body);
                }
                Ok(Ev::Down { index, incarnation, error }) => {
                    if self.links[index]
                        .as_ref()
                        .is_some_and(|l| l.incarnation == incarnation)
                        && !self.supervisor.finished(index)
                    {
                        self.die(index, error);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("supervisor holds a sender"),
            }
            self.tick();
        }
    }

    fn spawn(&mut self, index: usize) -> Result<()> {
        let first_spawn = {
            let mut persist = self
                .persist
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let spawns = persist.spawns.entry(index).or_insert(0);
            let first = *spawns == 0;
            *spawns += 1;
            first
        };
        let args = NetWorkerArgs {
            connect: self.addr,
            index,
            incarnation: self.incarnations[index],
            connect_timeout: self.net.connect_timeout,
            fault: self.faults.fault_for(index, first_spawn),
        };
        self.handles[index] = Some(self.launcher.spawn_worker(&args)?);
        self.awaiting[index] = Some(Instant::now());
        Ok(())
    }

    fn on_conn(&mut self, index: usize, incarnation: u64, stream: TcpStream) {
        if index >= self.specs.len()
            || incarnation != self.incarnations[index]
            || self.links[index].is_some()
            || self.supervisor.finished(index)
        {
            // Stale incarnation (a zombie reconnecting after its
            // replacement was spawned), duplicate hello, or a link for a
            // worker that no longer needs one: reject by dropping.
            return;
        }
        let mut link = Link { stream, incarnation, last_heard: Instant::now(), write_dead: false };
        // The pending Recover travels inside the job frame: the
        // incarnation absorbs it before its first engine step, exactly
        // like the threaded supervisor's broadcast-before-spawn. A
        // separate envelope frame would race the reader thread against
        // the fixpoint loop, and a Recover absorbed after a current-epoch
        // batch forgets that batch's place above the watermark — no replay
        // resends it, so the link never balances (DESIGN.md §12).
        let job = match wire::encode_job(
            self.supervisor.epoch(),
            self.specs.len(),
            &self.config.worker,
            &self.specs[index],
            self.pending_recover[index].take().as_ref(),
        ) {
            Ok(job) => job,
            Err(e) => {
                self.fail(index, e);
                return;
            }
        };
        if wire::write_frame(&mut link.stream, wire::FRAME_JOB, &job).is_err() {
            // Died during the handshake; the reader below was never
            // spawned, so classify the death here.
            self.die(index, Error::Runtime(format!("worker {index}: link died during job send")));
            return;
        }
        // Everything relayed here while the link was down, in arrival
        // order: survivors' replays (current epoch) and any pre-crash
        // leftovers (dropped by the worker's epoch filter).
        for body in std::mem::take(&mut self.parked[index]) {
            if wire::write_frame(&mut link.stream, wire::FRAME_ENVELOPE, &body).is_err() {
                self.die(index, Error::Runtime(format!("worker {index}: link died during parked flush")));
                return;
            }
        }
        let reader = match link.stream.try_clone() {
            Ok(reader) => reader,
            Err(e) => {
                self.die(index, Error::Runtime(format!("worker {index}: cloning link: {e}")));
                return;
            }
        };
        let tx = self._ev_tx.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("net-link-{index}"))
            .spawn(move || link_reader(index, incarnation, reader, tx));
        if let Err(e) = spawned {
            self.fail(index, Error::Runtime(format!("spawning link reader: {e}")));
            return;
        }
        if incarnation > 0 {
            self.reconnects += 1;
        }
        self.awaiting[index] = None;
        self.links[index] = Some(link);
    }

    fn on_frame(&mut self, index: usize, incarnation: u64, kind: u8, body: Vec<u8>) {
        let Some(link) = self.links[index].as_mut() else { return };
        if link.incarnation != incarnation {
            return; // A zombie incarnation's leftover traffic.
        }
        link.last_heard = Instant::now();
        if let Some(kill) = self.kill.filter(|k| k.worker == index) {
            let fire = {
                let mut persist = self
                    .persist
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                let seen = {
                    let seen = persist.rx_bytes.entry(index).or_insert(0);
                    *seen += body.len() as u64 + 5;
                    *seen
                };
                let fire = !persist.kill_fired && seen >= kill.after_bytes;
                if fire {
                    persist.kill_fired = true;
                }
                fire
            };
            if fire {
                // A real `kill -9`, mid-protocol, at a deterministic
                // byte offset. The EOF it causes drives the normal
                // death-and-restart path.
                if let Some(handle) = self.handles[index].as_mut() {
                    handle.kill();
                }
            }
        }
        match kind {
            // The relay is the fleet's trust boundary: a frame can be
            // structurally complete yet carry a corrupted body (the
            // garbage fault cuts exactly this shape), so the envelope is
            // fully validated *before* forwarding — corruption kills the
            // sender's link (recoverable), never an innocent receiver.
            // The validated frame is still relayed verbatim, no
            // re-encode.
            wire::FRAME_ENVELOPE => match wire::decode_envelope(&body, &self.interner) {
                Ok((dest, _)) if dest < self.specs.len() => {
                    self.relay_bytes += body.len() as u64 + 5;
                    let delivered = match self.links[dest].as_mut() {
                        None => {
                            // No live link right now: park until the
                            // destination (re)connects. Only a *finished*
                            // destination discards — it has already
                            // terminated and sent its result.
                            if !self.supervisor.finished(dest) {
                                self.parked[dest].push(body);
                            }
                            true
                        }
                        Some(link) => {
                            wire::write_frame(&mut link.stream, wire::FRAME_ENVELOPE, &body)
                                .is_ok()
                        }
                    };
                    if !delivered && !self.supervisor.finished(dest) {
                        self.die(
                            dest,
                            Error::Runtime(format!("worker {dest}: link died during relay write")),
                        );
                    }
                }
                _ => self.die(index, Error::Runtime(format!(
                    "worker {index}: corrupt envelope destination"
                ))),
            },
            wire::FRAME_RESULT => match wire::decode_result(&body, &self.interner) {
                Ok((report, pooled)) => self.supervisor.on_exit(index, (report, pooled, Vec::new())),
                Err(e) => self.die(index, e),
            },
            wire::FRAME_ERROR => match wire::decode_error(&body) {
                Ok((true, message)) => self.fail(index, Error::Runtime(message)),
                Ok((false, message)) => self.die(index, Error::Runtime(message)),
                Err(e) => self.die(index, e),
            },
            wire::FRAME_REPORT => match wire::decode_report(&body, self.specs.len()) {
                Ok(report) => self.decide(|s| s.on_report(index, report)),
                Err(e) => self.die(index, e),
            },
            wire::FRAME_PONG => {
                // last_heard is already refreshed; just insist the reply
                // is well-formed.
                if wire::decode_nonce(&body).is_err() {
                    self.die(index, Error::Runtime(format!("worker {index}: corrupt pong")));
                }
            }
            _ => self.die(index, Error::Runtime(format!(
                "worker {index}: unexpected frame kind {kind}"
            ))),
        }
    }

    /// A recoverable death: hard-kill the incarnation, then do what the
    /// supervisor decides.
    fn die(&mut self, index: usize, error: Error) {
        self.links[index] = None;
        if let Some(handle) = self.handles[index].as_mut() {
            handle.kill();
        }
        self.handles[index] = None;
        self.awaiting[index] = None;
        self.decide(|s| s.on_death(index, error, true));
    }

    /// A fatal death, which aborts the run.
    fn fail(&mut self, index: usize, error: Error) {
        self.decide(|s| s.on_death(index, error, false));
    }

    /// Tell the supervisor something, and carry out what it decides.
    fn decide(&mut self, tell: impl FnOnce(&mut Supervisor) -> Option<Action>) {
        match tell(&mut self.supervisor) {
            None => {}
            // A `Terminate`, or an `Abort` that tears the fleet down fast
            // (workers error out on it) instead of letting survivors idle
            // into their watchdogs; the hard kill in teardown handles
            // whoever misses it.
            Some(Action::Broadcast(env)) => self.broadcast(&env),
            Some(Action::Restart { worker, epoch, backoff, recover }) => {
                if self.config.trace {
                    let now = self.started.elapsed().as_micros() as u64;
                    for kind in [ObsKind::Crashed, ObsKind::Restarted { epoch }] {
                        self.transport_events.push(ObsEvent { time: now, worker, kind });
                    }
                }
                // Survivors repair now. A worker with no link — the
                // replacement, and any peer that has not connected for the
                // first time yet — starts in this epoch and repairs right
                // after its job arrives (see `on_conn`): without the
                // handshake it would drop what its peers shipped it before
                // the bump as stale and never ask for the replay.
                let mut failed = Vec::new();
                for (peer, slot) in self.links.iter_mut().enumerate() {
                    if let Some(link) = slot {
                        let body = wire::encode_envelope(peer, &recover);
                        if wire::write_frame(&mut link.stream, wire::FRAME_ENVELOPE, &body).is_err() {
                            failed.push(peer);
                        }
                    } else {
                        self.pending_recover[peer] = Some(recover.clone());
                    }
                }
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                self.incarnations[worker] += 1;
                if let Err(e) = self.spawn(worker) {
                    self.fail(worker, e);
                    return;
                }
                for peer in failed {
                    self.die(peer, Error::Runtime(format!("worker {peer}: recover send failed")));
                }
            }
        }
    }

    /// Write `env` to every live link. A failed write is left to the
    /// link's reader, which reports the death.
    fn broadcast(&mut self, env: &Envelope) {
        for (peer, slot) in self.links.iter_mut().enumerate() {
            if let Some(link) = slot {
                let body = wire::encode_envelope(peer, env);
                let _ = wire::write_frame(&mut link.stream, wire::FRAME_ENVELOPE, &body);
            }
        }
    }

    /// Periodic duties: heartbeat pings, silence detection, and connect
    /// deadlines for launched-but-never-connected incarnations.
    fn tick(&mut self) {
        if self.last_ping.elapsed() >= self.net.heartbeat_interval {
            self.last_ping = Instant::now();
            self.nonce += 1;
            let body = wire::encode_nonce(self.nonce);
            for link in self.links.iter_mut().flatten() {
                // A failed ping is not a death. A worker that has written
                // its RESULT and exited fails this write while the RESULT
                // is still queued behind other events; only the read side
                // knows which it is — RESULT finishes the link, EOF
                // without one kills it, silence runs into the timeout
                // below.
                if !link.write_dead
                    && wire::write_frame(&mut link.stream, wire::FRAME_PING, &body).is_err()
                {
                    link.write_dead = true;
                }
            }
        }
        let mut silent = Vec::new();
        for (peer, slot) in self.links.iter().enumerate() {
            if let Some(link) = slot {
                if link.last_heard.elapsed() > HEARTBEAT_TIMEOUT {
                    silent.push(peer);
                }
            }
        }
        for peer in silent {
            if !self.supervisor.finished(peer) {
                self.die(peer, Error::Runtime(format!("worker {peer}: heartbeat timeout")));
            } else {
                self.links[peer] = None;
            }
        }
        let deadline = self.net.connect_timeout;
        let overdue: Vec<usize> = self
            .awaiting
            .iter()
            .enumerate()
            .filter_map(|(peer, since)| {
                since
                    .filter(|s| s.elapsed() > deadline && self.links[peer].is_none())
                    .map(|_| peer)
            })
            .collect();
        for peer in overdue {
            self.die(
                peer,
                Error::Runtime(format!(
                    "worker {peer}: incarnation {} never connected within {deadline:?}",
                    self.incarnations[peer]
                )),
            );
        }
    }
}

fn link_reader(index: usize, incarnation: u64, mut stream: TcpStream, tx: Sender<Ev>) {
    loop {
        match wire::read_frame(&mut stream) {
            Ok(Some((kind, body))) => {
                if tx.send(Ev::Frame { index, incarnation, kind, body }).is_err() {
                    return;
                }
            }
            Ok(None) => {
                // Clean EOF. If the worker's Result already arrived this
                // is the normal end of a finished link; otherwise the
                // supervisor classifies it as a (recoverable) death.
                let _ = tx.send(Ev::Down {
                    index,
                    incarnation,
                    error: Error::Runtime(format!("worker {index}: link closed")),
                });
                return;
            }
            Err(error) => {
                let _ = tx.send(Ev::Down { index, incarnation, error });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::chain_fleet;
    use crate::transport::ThreadedTransport;

    fn coordinator(launcher: InProcessLauncher) -> NetCoordinator {
        // Short connect budget so failure paths stay fast in CI; the
        // heartbeat machinery keeps its defaults (it never fires on a
        // healthy loopback run).
        let net = NetConfig {
            connect_timeout: Duration::from_secs(5),
            ..NetConfig::default()
        };
        NetCoordinator::new(Arc::new(launcher), net)
    }

    #[test]
    fn fault_and_kill_grammars_round_trip() {
        for spec in ["delay@500", "disconnect@2048", "truncate@77", "garbage@0"] {
            assert_eq!(NetFault::parse(spec).unwrap().render(), spec);
        }
        assert!(NetFault::parse("explode@3").is_err());
        assert!(NetFault::parse("disconnect@many").is_err());
        assert!(NetFault::parse("disconnect").is_err());

        let plan = NetFaultPlan::parse("1:disconnect@2048,0:delay@500!").unwrap();
        assert_eq!(
            plan.faults,
            vec![
                FaultEntry { worker: 1, fault: NetFault::Disconnect(2048), persistent: false },
                FaultEntry { worker: 0, fault: NetFault::Delay(500), persistent: true },
            ]
        );
        assert_eq!(plan.fault_for(1, true), Some(NetFault::Disconnect(2048)));
        assert_eq!(plan.fault_for(1, false), None, "one-shot: first spawn only");
        assert_eq!(plan.fault_for(0, false), Some(NetFault::Delay(500)), "persistent");
        assert_eq!(plan.fault_for(2, true), None);
        assert!(NetFaultPlan::parse("").unwrap().faults.is_empty());
        assert!(NetFaultPlan::parse("nope").is_err());

        let kill = KillSpec::parse("1@4096").unwrap();
        assert_eq!(kill, KillSpec { worker: 1, after_bytes: 4096 });
        assert!(KillSpec::parse("1").is_err());
        assert!(KillSpec::parse("x@9").is_err());
    }

    #[test]
    fn worker_args_round_trip_through_the_cli_grammar() {
        let args = NetWorkerArgs {
            connect: SocketAddr::from(([127, 0, 0, 1], 4545)),
            index: 3,
            incarnation: 2,
            connect_timeout: Duration::from_millis(777),
            fault: Some(NetFault::Garbage(64)),
        };
        let parsed = NetWorkerArgs::parse(&args.to_args()).unwrap();
        assert_eq!(parsed.connect, args.connect);
        assert_eq!(parsed.index, 3);
        assert_eq!(parsed.incarnation, 2);
        assert_eq!(parsed.connect_timeout, Duration::from_millis(777));
        assert_eq!(parsed.fault, Some(NetFault::Garbage(64)));
        assert!(NetWorkerArgs::parse(&["--index".into(), "0".into()]).is_err());
        assert!(NetWorkerArgs::parse(&["--connect".into()]).is_err());
        let host = ["--connect", "localhost:4545", "--index", "0"].map(String::from);
        assert!(NetWorkerArgs::parse(&host).unwrap_err().to_string().contains("--connect: `localhost"));
        assert!(NetWorkerArgs::parse(&["--bogus".into(), "1".into()]).is_err());
    }

    /// The TCP transport computes the same least model as the threaded
    /// one on a communicating fleet, and its relay actually carried the
    /// traffic (bytes on the wire, reconnect-free).
    #[test]
    fn tcp_loopback_matches_threaded_transport() {
        let (specs, answer) = chain_fleet(2, 12);
        let config = RuntimeConfig::default();
        let baseline = ThreadedTransport.execute(specs.clone(), &config).unwrap();
        let outcome = coordinator(InProcessLauncher::default())
            .execute(specs, &config)
            .unwrap();
        assert!(outcome.relation(answer).set_eq(&baseline.relation(answer)));
        assert_eq!(outcome.relation(answer).len(), (12 * 13 / 2) as usize);
        assert_eq!(outcome.stats.restarts, 0);
        assert_eq!(outcome.stats.reconnects, 0);
        assert!(outcome.stats.relay_bytes > 0, "envelopes crossed the relay");
        assert!(outcome.stats.total_tuples_sent() > 0);
        assert_eq!(outcome.stats.workers.len(), 2);
    }

    /// Every write-side fault kind — abrupt disconnect, mid-frame
    /// truncation, garbage injection — is detected as a recoverable link
    /// death; the restarted incarnation replays and the fleet still
    /// reaches the exact least model.
    #[test]
    fn socket_faults_recover_to_the_exact_least_model() {
        let (specs, answer) = chain_fleet(2, 12);
        let config = RuntimeConfig::default();
        let baseline = ThreadedTransport.execute(specs.clone(), &config).unwrap();
        for fault in ["1:disconnect@150", "1:truncate@150", "1:garbage@150"] {
            let coord = coordinator(InProcessLauncher::default())
                .with_faults(NetFaultPlan::parse(fault).unwrap());
            let outcome = coord.execute(specs.clone(), &config).unwrap();
            assert!(
                outcome.relation(answer).set_eq(&baseline.relation(answer)),
                "{fault}: recovery must reach the exact least model"
            );
            assert_eq!(outcome.stats.restarts, 1, "{fault}: exactly one restart");
            assert_eq!(outcome.stats.reconnects, 1, "{fault}: replacement reconnected");
            assert!(
                outcome.stats.total_replayed_batches() > 0,
                "{fault}: survivors replayed from their logs"
            );
        }
    }

    /// A persistent fault kills every incarnation: the restart budget
    /// runs out and the run fails fast with a typed error — no hang, no
    /// panic.
    #[test]
    fn persistent_fault_exhausts_the_budget_cleanly() {
        let (specs, _) = chain_fleet(2, 12);
        let mut config = RuntimeConfig::default();
        config.worker.idle_watchdog = Duration::from_secs(300);
        let coord = coordinator(InProcessLauncher::default())
            .with_faults(NetFaultPlan::parse("1:disconnect@150!").unwrap());
        let started = Instant::now();
        let err = coord.execute(specs, &config).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "budget exhaustion must fail fast, not hang"
        );
        let message = err.to_string();
        assert!(
            message.contains("link") || message.contains("frame") || message.contains("EOF"),
            "the link-level cause must surface: {message}"
        );
    }

    /// A connect-phase delay exercises the worker's retry/backoff loop
    /// (the coordinator keeps listening); the run converges with no
    /// restart at all.
    #[test]
    fn delayed_connect_is_absorbed_by_backoff() {
        let (specs, answer) = chain_fleet(2, 6);
        let config = RuntimeConfig::default();
        let coord = coordinator(InProcessLauncher::default())
            .with_faults(NetFaultPlan::parse("0:delay@150").unwrap());
        let outcome = coord.execute(specs, &config).unwrap();
        assert_eq!(outcome.stats.restarts, 0);
        assert_eq!(outcome.relation(answer).len(), 6 * 7 / 2);
    }

    /// A worker that computes its single-processor job and then hangs up
    /// at once, the way a worker *process* does by exiting (the in-process
    /// worker's reader thread keeps its socket open until teardown). It
    /// queues a backlog of well-formed frames ahead of its RESULT, so the
    /// coordinator — one event, then one tick, per loop turn — is still
    /// working through the backlog when its pings start failing against
    /// the closed socket. Backlog and RESULT leave in one write, one
    /// loopback segment: the close that follows may reset the connection
    /// (there are unread pings), which discards only what is still unsent.
    struct HangUpLauncher;

    struct Joined(Option<std::thread::JoinHandle<()>>);

    impl WorkerHandle for Joined {
        fn kill(&mut self) {
            if let Some(thread) = self.0.take() {
                thread.join().expect("scripted worker panicked");
            }
        }
    }

    impl Launcher for HangUpLauncher {
        fn spawn_worker(&self, args: &NetWorkerArgs) -> Result<Box<dyn WorkerHandle>> {
            let args = args.clone();
            let thread = std::thread::spawn(move || {
                let mut stream = TcpStream::connect(args.connect).unwrap();
                let hello = wire::encode_hello(args.index, args.incarnation);
                wire::write_frame(&mut stream, wire::FRAME_HELLO, &hello).unwrap();
                let job = loop {
                    match wire::read_frame(&mut stream).unwrap() {
                        Some((wire::FRAME_JOB, body)) => break body,
                        Some(_) => {}
                        None => return,
                    }
                };
                let job = wire::decode_job(&job, None).unwrap();
                let interner = job.spec.program.program.interner.clone();
                let mut core = WorkerCore::with_epoch(job.spec, job.n, job.epoch).unwrap();
                // A fleet of one sends nothing: run to the fixpoint, report
                // passive, and wait for the coordinator's Terminate.
                let mut out = crate::sim::SimOutbox::default();
                while core.step(&mut out).unwrap() == Step::Worked {}
                let body = wire::encode_report(&out.reports.pop().unwrap());
                wire::write_frame(&mut stream, wire::FRAME_REPORT, &body).unwrap();
                while core.step(&mut out).unwrap() != Step::Done {
                    match wire::read_frame(&mut stream).unwrap() {
                        Some((wire::FRAME_ENVELOPE, body)) => {
                            core.enqueue(wire::decode_envelope(&body, &interner).unwrap().1)
                        }
                        Some(_) => {}
                        None => return,
                    }
                }
                let (report, pooled, _) = finish_core(&mut core);
                let mut frames = Vec::new();
                for nonce in 0..64 {
                    let body = wire::encode_nonce(nonce);
                    wire::write_frame(&mut frames, wire::FRAME_PONG, &body).unwrap();
                }
                let body = wire::encode_result(&report, &pooled).unwrap();
                wire::write_frame(&mut frames, wire::FRAME_RESULT, &body).unwrap();
                std::io::Write::write_all(&mut stream, &frames).unwrap();
            });
            Ok(Box::new(Joined(Some(thread))))
        }
    }

    /// The end-of-run heartbeat race: a ping written to a worker that has
    /// already sent its RESULT and closed must not declare it dead. With a
    /// zero heartbeat interval every loop turn pings, so each of the 50
    /// runs fails ping writes with the RESULT still queued.
    #[test]
    fn failed_ping_to_a_finished_worker_is_not_a_death() {
        // Worker 0 of the chain fleet on its own: its three edges, no peer.
        let (mut specs, answer) = chain_fleet(2, 6);
        specs.truncate(1);
        specs[0].program.routes.clear();
        let net = NetConfig { heartbeat_interval: Duration::ZERO, ..NetConfig::default() };
        for run in 0..50 {
            let outcome = NetCoordinator::new(Arc::new(HangUpLauncher), net.clone())
                .execute(specs.clone(), &RuntimeConfig::default())
                .unwrap_or_else(|e| panic!("run {run}: {e}"));
            assert_eq!(outcome.stats.restarts, 0, "run {run}: nobody died");
            assert_eq!(outcome.relation(answer).len(), 3);
        }
    }

    /// A worker that connects for the first time after a recovery already
    /// bumped the epoch runs the `Recover` handshake too. Worker 0 connects
    /// 200 ms late; worker 2 dies inside its first shipment, so the rows
    /// worker 1 shipped to 0 before the bump are parked, arrive stale —
    /// and must be asked for again, or a third of the closure is lost.
    #[test]
    fn a_late_first_connection_after_a_recovery_gets_its_replay() {
        let (specs, answer) = chain_fleet(4, 16);
        let coord = coordinator(InProcessLauncher::default())
            .with_faults(NetFaultPlan::parse("2:disconnect@100,0:delay@200").unwrap());
        let outcome = coord.execute(specs, &RuntimeConfig::default()).unwrap();
        assert_eq!(outcome.stats.restarts, 1);
        assert_eq!(outcome.relation(answer).len(), 16 * 17 / 2);
    }

    /// Tracing a recovered run records the transport-level crash and
    /// restart lifecycle events.
    #[test]
    fn traced_recovery_journals_crash_and_restart() {
        let (specs, _) = chain_fleet(2, 12);
        let config = RuntimeConfig { trace: true, ..RuntimeConfig::default() };
        let coord = coordinator(InProcessLauncher::default())
            .with_faults(NetFaultPlan::parse("1:disconnect@150").unwrap());
        let outcome = coord.execute(specs, &config).unwrap();
        outcome.journal.validate().expect("a traced TCP run's journal is well-formed");
        let kinds: Vec<_> = outcome
            .journal
            .events
            .iter()
            .filter(|e| matches!(e.kind, ObsKind::Crashed | ObsKind::Restarted { .. }))
            .map(|e| (e.worker, e.kind.clone()))
            .collect();
        assert!(
            kinds.contains(&(1, ObsKind::Crashed)),
            "journal must record the crash: {kinds:?}"
        );
        assert!(
            kinds.iter().any(|(w, k)| *w == 1 && matches!(k, ObsKind::Restarted { .. })),
            "journal must record the restart: {kinds:?}"
        );
    }
}
