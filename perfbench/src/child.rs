//! Child processes measured the way a user pays for them: wall time
//! from spawn to exit, and the kernel's peak resident set (VmHWM) of
//! that one process, read from `wait4`'s resource usage as it is
//! reaped.

use std::io::{self, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::trace::now;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

const WNOHANG: i32 = 1;

/// How a reaped child ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set of the process, KiB.
    pub max_rss_kib: u64,
    /// When it was seen to have exited.
    pub at: Instant,
}

impl Exit {
    /// Peak resident set in MB (2^20 bytes).
    #[allow(clippy::cast_precision_loss)]
    pub fn peak_rss_mb(&self) -> f64 {
        self.max_rss_kib as f64 / 1024.0
    }
}

/// One `wait4` call on `pid`; `Ok(None)` when `nohang` and the child
/// still runs.
fn wait4_once(pid: i32, nohang: bool) -> io::Result<Option<Exit>> {
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // `pid` names a child of this process that no other code reaps.
        // SAFETY: `status` and `usage` are live, exclusively borrowed locals
        // of the C layouts `wait4` writes (`int`, 64-bit Linux `struct rusage`).
        let r = unsafe {
            wait4(
                pid,
                &mut status,
                if nohang { WNOHANG } else { 0 },
                &mut usage,
            )
        };
        if r == pid {
            let at = now();
            let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
            return Ok(Some(Exit {
                code,
                max_rss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
                at,
            }));
        }
        if r == 0 {
            return Ok(None);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Reaps `child`, polling so a hung child is killed after `timeout`.
/// Polls start at 50 µs and back off to 2 ms, so short children are
/// timed to well under a millisecond.
pub fn reap(child: &mut Child, timeout: Duration) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let start = now();
    let mut pause = Duration::from_micros(50);
    loop {
        if let Some(exit) = wait4_once(pid, true)? {
            return Ok(exit);
        }
        if start.elapsed() > timeout {
            // The child is still unreaped here, so the pid is still ours.
            child.kill()?;
            return wait4_once(pid, false)?
                .ok_or_else(|| io::Error::other("child vanished after kill"));
        }
        std::thread::sleep(pause);
        pause = (pause * 2).min(Duration::from_millis(2));
    }
}

/// A finished child: its stdout and how it ended.
pub struct Captured {
    /// Seconds from spawn to exit.
    pub wall_s: f64,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
    /// Exit status and peak memory.
    pub exit: Exit,
}

/// Runs `program args…` to completion with stdout captured, stderr
/// discarded and stdin empty.
pub fn run(program: &Path, args: &[&str], timeout: Duration) -> io::Result<Captured> {
    let start = now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut pipe = child
        .stdout
        .take()
        .ok_or_else(|| io::Error::other("child stdout not piped"))?;
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut out = Vec::new();
            pipe.read_to_end(&mut out).map(|_| out)
        });
        let exit = reap(&mut child, timeout);
        let stdout = reader
            .join()
            .map_err(|_| io::Error::other("stdout reader panicked"))?;
        let exit = exit?;
        Ok(Captured {
            wall_s: exit.at.duration_since(start).as_secs_f64(),
            stdout: stdout?,
            exit,
        })
    })
}

/// Peak resident set of this process so far (VmHWM), MB.
#[allow(clippy::cast_precision_loss)]
pub fn own_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_captures_stdout_exit_code_and_memory() {
        let got = run(
            Path::new("sh"),
            &["-c", "echo hi; exit 3"],
            Duration::from_secs(10),
        )
        .expect("sh runs");
        assert_eq!(got.stdout, b"hi\n");
        assert_eq!(got.exit.code, Some(3));
        assert!(got.exit.max_rss_kib > 0);
        assert!(got.wall_s > 0.0);
    }

    #[test]
    fn hung_child_is_killed_at_the_timeout() {
        let got = run(Path::new("sleep"), &["30"], Duration::from_millis(100)).expect("sleep runs");
        assert_eq!(got.exit.code, None);
        assert!(got.wall_s < 10.0);
    }

    #[test]
    fn own_peak_rss_is_read() {
        assert!(own_peak_rss_mb() > 0.0);
    }
}
