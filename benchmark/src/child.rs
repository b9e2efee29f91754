//! Spawn one `pdatalog` child, wait for it with `wait4`, and read its
//! wall time, CPU time and peak resident set from the kernel's accounting.
//!
//! `std` exposes neither `wait4` nor `rusage`, and the benchmark takes no
//! third-party crates, so the two libc entry points are declared here
//! (libc itself is already linked by `std`). Linux, 64-bit only.

use std::io::Read;
use std::os::unix::process::CommandExt;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A child that runs longer than this is killed and counted as failed.
pub const TIMEOUT: Duration = Duration::from_secs(60);

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as Linux lays it out on LP64 targets: two timevals and
/// fourteen longs, of which only `ru_maxrss` (kilobytes) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// What one child run cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildRun {
    /// Spawn to reaped, seconds.
    pub wall_s: f64,
    /// `ru_utime + ru_stime` of the child and every descendant it waited
    /// for (the `--net` worker processes), seconds.
    pub cpu_s: f64,
    /// `ru_maxrss` of the largest process in the child's tree, MiB.
    pub peak_rss_mb: f64,
    /// Exited with status 0 before the timeout.
    pub ok: bool,
}

/// Run `program args…` to completion; returns what it cost and what it
/// printed on stdout (stderr is inherited so a failing child explains
/// itself).
pub fn run(program: &std::path::Path, args: &[String]) -> std::io::Result<(ChildRun, Vec<u8>)> {
    let started = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        // Own process group, so a timeout can kill `--net` worker
        // processes together with their coordinator.
        .process_group(0)
        .spawn()?;
    let pid = child.id() as i32;
    let reaped = AtomicBool::new(false);
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut stdout = Vec::new();
    let mut status = 0i32;
    let mut usage = Rusage::default();
    let mut pipe = child.stdout.take().expect("stdout was piped");

    let reaped = &reaped;
    let (wall_s, waited) = std::thread::scope(|scope| {
        scope.spawn(move || {
            // Disconnection (the sender dropped after the reap) is the
            // normal wake-up; only a real timeout kills.
            let timed_out = matches!(
                done_rx.recv_timeout(TIMEOUT),
                Err(mpsc::RecvTimeoutError::Timeout)
            );
            if timed_out && !reaped.load(Ordering::SeqCst) {
                // SAFETY: `kill` takes plain integers; `-pid` addresses the
                // process group created above. The group leader has not
                // been reaped (checked just above; a zombie keeps its pid
                // reserved), so the id cannot name an unrelated process.
                unsafe { kill(-pid, SIGKILL) };
            }
        });
        let _ = pipe.read_to_end(&mut stdout);
        // SAFETY: `status` and `usage` are valid, writable, properly
        // aligned locals that outlive the call, and `Rusage` matches the
        // kernel's LP64 `struct rusage` layout (144 bytes).
        let waited = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        let wall_s = started.elapsed().as_secs_f64();
        reaped.store(true, Ordering::SeqCst);
        drop(done_tx);
        (wall_s, waited)
    });
    if waited != pid {
        return Err(std::io::Error::last_os_error());
    }
    let tv = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    // WIFEXITED && WEXITSTATUS == 0.
    let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    let run = ChildRun {
        wall_s,
        cpu_s: tv(&usage.ru_utime) + tv(&usage.ru_stime),
        peak_rss_mb: usage.ru_maxrss as f64 / 1024.0,
        ok,
    };
    Ok((run, stdout))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_status_output_and_usage() {
        let sh = std::path::Path::new("/bin/sh");
        let (ok, stdout) = run(sh, &["-c".into(), "echo hi".into()]).unwrap();
        assert!(ok.ok);
        assert_eq!(stdout, b"hi\n");
        assert!(ok.wall_s > 0.0 && ok.peak_rss_mb > 0.0 && ok.cpu_s >= 0.0);
        let (bad, _) = run(sh, &["-c".into(), "exit 3".into()]).unwrap();
        assert!(!bad.ok);
        assert!(run(std::path::Path::new("/nonexistent/pdatalog"), &[]).is_err());
    }
}
