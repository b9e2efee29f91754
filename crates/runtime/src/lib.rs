//! The parallel runtime: the paper's abstract architecture made concrete.
//!
//! Section 3 of the paper assumes a set `P` of processors where "a
//! processor i in P may communicate with every other processor j" through
//! reliable channels `ij`, with **asynchronous receives** ("processor i
//! does not wait for data from processor j") and termination when "all
//! processors are idle and all channels are empty", detected by "standard
//! algorithms of Distributed Computing" (the paper cites Dijkstra–Scholten
//! and Chandy–Misra).
//!
//! Here each processor is a transport-agnostic state machine
//! ([`worker::WorkerCore`]) running a [`gst_eval::FixpointEngine`] over its
//! rewritten program. Each transport has one supervisor, and every
//! decision it takes — termination, read off the per-link watermarks each
//! worker reports when it goes passive, restart and abort — is made by one
//! unit-tested state machine in `supervisor.rs`; the transports only
//! deliver its broadcasts and spawn what it restarts.
//! How the machines are driven is the [`transport::Transport`]'s choice,
//! and `Transport::execute` is the only way to run a fleet:
//!
//! * [`transport::ThreadedTransport`] — one OS thread per processor,
//!   blocking queues, real parallelism (a fleet whose compiled network is
//!   silent skips the queues, codec and termination detection altogether);
//! * [`sim::SimTransport`] — every processor interleaved on one thread
//!   under a virtual clock with a seeded scheduler and [`fault::FaultPlan`]
//!   injection: deterministic, replayable, adversarial. [`explore`] sweeps
//!   seed ranges and shrinks failures to minimal fault plans;
//! * [`net::NetCoordinator`] — one OS process per processor over loopback
//!   TCP, relayed and supervised by the coordinator.
//!
//! There is no separate bulk-synchronous mode: the paper's phased
//! `repeat … until` loop is one fair schedule among those the simulator
//! explores, and a fixed-seed simulated run is the deterministic reference
//! (same model, firings and channel matrix on every rerun). Every
//! transport records the same [`obs::Journal`] when `config.trace` is set;
//! it is the only trace model.
//!
//! The runtime is scheme-agnostic: it executes any [`ProcessorProgram`] —
//! the rewriting schemes in `gst-core` produce them — and reports the
//! pooled result plus per-worker and per-channel statistics (tuples sent
//! on every channel `i→j`, firings split by rule class) that the
//! experiments use to verify the paper's communication and non-redundancy
//! claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod coordinator;
pub mod explore;
pub mod fault;
#[cfg(test)]
pub(crate) mod fixtures;
pub mod message;
pub mod net;
pub mod obs;
pub mod profile;
pub mod sim;
pub mod spec;
pub mod stats;
pub(crate) mod supervisor;
pub mod transport;
pub(crate) mod wire;
pub mod worker;

pub use coordinator::{FailPoint, RuntimeConfig, SupervisorConfig};
pub use explore::{shrink_failure, sweep_seeds, ExpectedModel, Shrunk, SweepReport};
pub use fault::{CrashSpec, FaultPlan};
pub use net::{
    run_net_worker, ConstraintDecoderFn, InProcessLauncher, KillSpec, Launcher, NetConfig,
    NetCoordinator, NetFault, NetFaultPlan, NetWorkerArgs, ProcessLauncher,
};
pub use obs::{Journal, ObsEvent, ObsKind, TimeBase, TraceSink};
pub use profile::{HotRule, PhaseTotals, ProfileReport, WorkerProfile, PHASES};
pub use sim::SimTransport;
pub use spec::{ProcessorProgram, Route, SessionSeed, Shards, WorkerSpec};
pub use stats::{ExecutionOutcome, ParallelStats, WorkerReport};
pub use transport::{shard_kinds, ShardKinds, ThreadedTransport, Transport};
