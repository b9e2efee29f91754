//! The host's speed, measured next to every operation.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by 15–35 % over minutes (neighbours on the same cores and memory
//! bus). Raw seconds of two runs of the same code then differ by more
//! than any bound worth having, and a longer run does not help, because
//! the drift is slower than a run. So a fixed piece of work — the
//! *reference kernel* below, which belongs to the benchmark and never
//! changes with the program — is timed as a child process between the
//! operations, and every time the benchmark reports is scaled to a host
//! on which the kernel takes [`NOMINAL_S`]:
//!
//! ```text
//! reported = measured × NOMINAL_S / mean(kernel before, kernel after)
//! ```
//!
//! The kernel does what `pdatalog` does most, in miniature and in one
//! thread: it faults in 32 MiB of fresh zeroed memory, fills it as an
//! open-addressing table with a million random keys (a cache miss each),
//! and probes every key again. On the sizing host it follows the drift of
//! both the sequential and the two-worker command: over twelve minutes
//! in which 30-second medians of raw wall time spread 17–20 %, the scaled
//! ones spread 2.5–4 %. (Timed next to it, a loop of multiplications
//! followed the drift worst, page faults and small allocations in
//! between: what the neighbours take away is the memory system.)

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::child;

/// What the kernel usually takes on the host the sizes were chosen on,
/// seconds (45 ms when that host is quiet, 80 ms and more when it is
/// not). Only a unit: it makes a scaled second about a second there.
pub const NOMINAL_S: f64 = 0.06;

/// An operation is preceded by a kernel run when the last one ended
/// longer ago than this.
const EVERY: Duration = Duration::from_millis(250);

const SLOTS: usize = 1 << 22;
const KEYS: usize = 1 << 20;

/// The reference kernel (`pdbench reference` runs it and exits).
pub fn kernel() -> u64 {
    let mask = SLOTS - 1;
    let mut table = vec![0u64; SLOTS];
    let mut hits = 0u64;
    // First pass: every key is new. Second pass: every key is found.
    for _ in 0..2 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..KEYS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut slot = (x as usize) & mask;
            while table[slot] != 0 && table[slot] != x {
                slot = (slot + 1) & mask;
            }
            hits += u64::from(table[slot] == x);
            table[slot] = x;
        }
    }
    black_box(&table);
    hits
}

/// Kernel runs interleaved with the operations of one measurement, and
/// the scale they give each operation.
pub struct Clock {
    exe: PathBuf,
    /// Wall time of every kernel run so far, seconds.
    pub kernel_s: Vec<f64>,
    last: Instant,
}

impl Clock {
    /// Starts with a kernel run.
    pub fn start() -> Result<Clock, String> {
        let mut clock = Clock {
            exe: std::env::current_exe().map_err(|e| e.to_string())?,
            kernel_s: Vec::new(),
            last: Instant::now(),
        };
        clock.tick()?;
        Ok(clock)
    }

    /// Run the kernel once, in a child: spawn to reaped, as operations
    /// are timed, and on a heap of its own (the measuring process stays
    /// small, see `e2e::measure`).
    pub fn tick(&mut self) -> Result<(), String> {
        match child::run(&self.exe, &["reference".to_string()]) {
            Ok((run, _)) if run.ok => {
                self.kernel_s.push(run.wall_s);
                self.last = Instant::now();
                Ok(())
            }
            Ok(_) => Err("the reference kernel failed".into()),
            Err(e) => Err(format!("cannot run the reference kernel: {e}")),
        }
    }

    /// Call before an operation: runs the kernel if one is due, and
    /// returns the interval the operation falls in (for [`Clock::scale`]).
    pub fn interval(&mut self) -> Result<usize, String> {
        if self.last.elapsed() >= EVERY {
            self.tick()?;
        }
        Ok(self.kernel_s.len())
    }

    /// The factor that scales a time measured in `interval` — between
    /// kernel run `interval - 1` and the next one. The last operation
    /// must have been followed by a [`Clock::tick`].
    pub fn scale(&self, interval: usize) -> f64 {
        let after = self.kernel_s.get(interval).or(self.kernel_s.last());
        let around = (self.kernel_s[interval - 1] + after.expect("started with a run")) / 2.0;
        NOMINAL_S / around
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_finds_every_key_again() {
        assert_eq!(kernel(), KEYS as u64);
    }

    #[test]
    fn scale_uses_the_runs_around_an_interval() {
        let clock = Clock {
            exe: PathBuf::new(),
            kernel_s: vec![NOMINAL_S, 2.0 * NOMINAL_S, 4.0 * NOMINAL_S],
            last: Instant::now(),
        };
        assert!((clock.scale(1) - 1.0 / 1.5).abs() < 1e-12);
        assert!((clock.scale(2) - 1.0 / 3.0).abs() < 1e-12);
        // No run after the last interval yet: the last run stands in.
        assert!((clock.scale(3) - 1.0 / 4.0).abs() < 1e-12);
    }
}
