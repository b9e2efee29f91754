//! Fault plans: what the simulated network is allowed to do to traffic.
//!
//! The paper assumes reliable FIFO-less channels ("a processor i ... may
//! communicate with every other processor j"); real clusters approximate
//! that with retransmitting transports whose *observable* misbehaviors are
//! delay, reordering, duplication and (transient) loss. A [`FaultPlan`]
//! describes a distribution over exactly those misbehaviors for
//! [`crate::sim::SimTransport`] to draw from — below the reliable-channel
//! abstraction the algorithm reasons about, so the least model and the
//! termination decision must come out identical under any plan.
//!
//! Two invariants keep the plans *faults*, not *bugs*:
//!
//! * duplication and loss apply to **data batches only**. Batches carry
//!   the link sequence numbers a receiver dedups by and the termination
//!   detector compares; control messages (the recovery handshake and its
//!   snapshots) carry none, and a real transport keeps them reliable with
//!   acknowledgements — the simulator simply exempts them. `Recover` and
//!   `Terminate` come from the supervisor on a reliable path anyway.
//! * loss is modeled as **delayed redelivery** (`drop_redeliver_after`
//!   added to the latency draw), matching a retransmitting transport.
//!   Silent unbounded loss would falsify the paper's channel model and
//!   trivially hang any algorithm built on it.
//!
//! Worker-side faults: `stall_prob` freezes a worker between steps
//! (GC pause, noisy neighbor); [`CrashSpec`] kills one worker at a virtual
//! time, and the run must end in an error or the least model, never hang.

use gst_common::{Error, Result};

/// When (and whom) to crash. Without `recover` the death goes unobserved,
/// so the idle watchdog fails the run; with `recover` the supervisor
/// observes it and decides what follows (`supervisor.rs`, `DESIGN.md` §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Processor index to kill.
    pub worker: usize,
    /// Virtual time (ticks) at which it dies.
    pub at_time: u64,
    /// Report the death to the supervisor, like a thread's panic, instead
    /// of leaving the worker silently dead.
    pub recover: bool,
}

/// A distribution over transport and scheduling misbehaviors.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Minimum delivery latency in virtual ticks.
    pub min_delay: u64,
    /// Maximum delivery latency. A spread (`max > min`) makes deliveries
    /// race, i.e. **reorders** messages between and within links.
    pub max_delay: u64,
    /// Probability a batch is delivered twice (second copy at an
    /// independent latency draw).
    pub dup_prob: f64,
    /// Probability a batch's first transmission is lost. The retransmit
    /// arrives `drop_redeliver_after` ticks after the original draw.
    pub drop_prob: f64,
    /// Extra latency a dropped batch pays before its redelivery.
    pub drop_redeliver_after: u64,
    /// Probability a worker stalls after a step.
    pub stall_prob: f64,
    /// How long a stall lasts, in ticks.
    pub stall_ticks: u64,
    /// Optional hard crash of one worker.
    pub crash: Option<CrashSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A perfect network: unit latency, no reordering, no duplication, no
    /// loss, no stalls.
    pub fn none() -> Self {
        FaultPlan {
            min_delay: 1,
            max_delay: 1,
            dup_prob: 0.0,
            drop_prob: 0.0,
            drop_redeliver_after: 0,
            stall_prob: 0.0,
            stall_ticks: 0,
            crash: None,
        }
    }

    /// Latency jitter only: deliveries race and reorder, nothing is
    /// duplicated or lost.
    pub fn jitter() -> Self {
        FaultPlan {
            min_delay: 1,
            max_delay: 40,
            ..FaultPlan::none()
        }
    }

    /// The kitchen sink (minus crashes): heavy jitter, duplication, drops
    /// with redelivery, and worker stalls.
    pub fn chaos() -> Self {
        FaultPlan {
            min_delay: 1,
            max_delay: 60,
            dup_prob: 0.25,
            drop_prob: 0.15,
            drop_redeliver_after: 80,
            stall_prob: 0.10,
            stall_ticks: 50,
            crash: None,
        }
    }

    /// `chaos` plus a fatal (non-recovering) crash of `worker` at tick
    /// `at_time`.
    pub fn with_crash(worker: usize, at_time: u64) -> Self {
        FaultPlan {
            crash: Some(CrashSpec { worker, at_time, recover: false }),
            ..FaultPlan::chaos()
        }
    }

    /// `chaos` plus a crash of `worker` at tick `at_time` that the
    /// supervisor observes (restart + replay within the budget).
    pub fn with_recovering_crash(worker: usize, at_time: u64) -> Self {
        FaultPlan {
            crash: Some(CrashSpec { worker, at_time, recover: true }),
            ..FaultPlan::chaos()
        }
    }

    /// True when the plan can never produce anything but fixed-latency
    /// delivery (the degenerate, deterministic-network case).
    pub fn is_benign(&self) -> bool {
        self.max_delay == self.min_delay
            && self.dup_prob == 0.0
            && self.drop_prob == 0.0
            && self.stall_prob == 0.0
            && self.crash.is_none()
    }

    /// Parse a CLI fault description.
    ///
    /// Accepts a preset name (`none`, `jitter`, `chaos`) or a preset
    /// refined by comma-separated `key=value` overrides, e.g.
    /// `chaos,dup=0.5,crash=1@200`. Keys: `min`, `max` (ticks), `dup`,
    /// `drop`, `stall` (probabilities), `redeliver`, `stall-ticks`
    /// (ticks), `crash=<worker>@<tick>`. The bare flag `recover` (no
    /// value) turns a configured crash into a recoverable one, e.g.
    /// `chaos,crash=1@200,recover`.
    pub fn parse(text: &str) -> Result<Self> {
        let bad = |what: &str| Error::Runtime(format!("bad fault plan: {what}"));
        let mut parts = text.split(',');
        let preset = parts.next().expect("split yields at least one part").trim();
        let mut plan = match preset {
            "none" | "" => FaultPlan::none(),
            "jitter" => FaultPlan::jitter(),
            "chaos" => FaultPlan::chaos(),
            other => return Err(bad(&format!(
                "unknown preset {other:?} (expected none, jitter or chaos)"
            ))),
        };
        let mut recover = false;
        for part in parts {
            if part.trim() == "recover" {
                recover = true;
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| bad(&format!("expected key=value, got {part:?}")))?;
            let key = key.trim();
            let value = value.trim();
            let ticks = || value.parse::<u64>().map_err(|_| bad(&format!("{key}={value}")));
            let prob = || {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| bad(&format!("{key}={value} (want probability in [0,1])")))
            };
            match key {
                "min" => plan.min_delay = ticks()?,
                "max" => plan.max_delay = ticks()?,
                "redeliver" => plan.drop_redeliver_after = ticks()?,
                "stall-ticks" => plan.stall_ticks = ticks()?,
                "dup" => plan.dup_prob = prob()?,
                "drop" => plan.drop_prob = prob()?,
                "stall" => plan.stall_prob = prob()?,
                "crash" => {
                    let (worker, at) = value
                        .split_once('@')
                        .ok_or_else(|| bad("crash wants <worker>@<tick>"))?;
                    plan.crash = Some(CrashSpec {
                        worker: worker.parse().map_err(|_| bad("crash worker index"))?,
                        at_time: at.parse().map_err(|_| bad("crash tick"))?,
                        recover: false,
                    });
                }
                other => return Err(bad(&format!("unknown key {other:?}"))),
            }
        }
        if recover {
            match plan.crash.as_mut() {
                Some(crash) => crash.recover = true,
                None => return Err(bad("recover without a crash=<worker>@<tick>")),
            }
        }
        if plan.max_delay < plan.min_delay {
            return Err(bad("max delay below min delay"));
        }
        if plan.min_delay == 0 {
            return Err(bad("zero latency would deliver into the sending step"));
        }
        Ok(plan)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "delay {}..={}, dup {}, drop {} (redeliver +{}), stall {} ({} ticks)",
            self.min_delay,
            self.max_delay,
            self.dup_prob,
            self.drop_prob,
            self.drop_redeliver_after,
            self.stall_prob,
            self.stall_ticks,
        )?;
        if let Some(c) = self.crash {
            write!(f, ", crash {}@{}", c.worker, c.at_time)?;
            if c.recover {
                write!(f, " (recover)")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse() {
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("jitter").unwrap(), FaultPlan::jitter());
        assert_eq!(FaultPlan::parse("chaos").unwrap(), FaultPlan::chaos());
        assert!(FaultPlan::none().is_benign());
        assert!(!FaultPlan::jitter().is_benign());
    }

    #[test]
    fn overrides_refine_presets() {
        let plan = FaultPlan::parse("jitter,dup=0.5,max=10,crash=2@300").unwrap();
        assert_eq!(plan.dup_prob, 0.5);
        assert_eq!(plan.max_delay, 10);
        assert_eq!(plan.min_delay, FaultPlan::jitter().min_delay);
        assert_eq!(
            plan.crash,
            Some(CrashSpec { worker: 2, at_time: 300, recover: false })
        );
    }

    #[test]
    fn recover_flag_marks_the_crash() {
        let plan = FaultPlan::parse("chaos,crash=1@200,recover").unwrap();
        assert_eq!(
            plan.crash,
            Some(CrashSpec { worker: 1, at_time: 200, recover: true })
        );
        assert!(plan.to_string().contains("crash 1@200 (recover)"));
        assert!(
            FaultPlan::parse("chaos,recover").is_err(),
            "recover without a crash is meaningless"
        );
    }

    #[test]
    fn bad_plans_are_rejected() {
        for text in [
            "warp",              // unknown preset
            "none,zap=1",        // unknown key
            "none,dup",          // missing value
            "none,dup=1.5",      // probability out of range
            "none,min=5,max=2",  // inverted delays
            "none,min=0",        // zero latency
            "none,crash=3",      // malformed crash
        ] {
            assert!(FaultPlan::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn display_mentions_crash() {
        let plan = FaultPlan::with_crash(1, 50);
        let text = plan.to_string();
        assert!(text.contains("crash 1@50"));
    }
}
