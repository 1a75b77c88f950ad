//! The benchmark's open-loop load generator.
//!
//! Arrivals follow a Poisson schedule drawn from the seed and are sent
//! when due whatever the server is doing, by at most `nproc` threads
//! (each holding at most one connection, and yielding its core while it
//! waits for the next due time). Each request's latency is
//! counted from when it was *due*, so a stall that delays later sends
//! is charged to them, and how late each send left is reported.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use scan_rng::ScanRng;

use crate::trace::now;

/// Due times (seconds after the start) of a Poisson stream at `rate`
/// requests per second, up to `seconds`.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = ScanRng::seed_from_u64(seed);
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push(t);
    }
}

/// One request as the generator saw it.
#[derive(Debug)]
pub struct Sample<R> {
    /// Index into the schedule.
    pub index: usize,
    /// When it was due.
    pub due: Instant,
    /// When it was actually sent.
    pub sent: Instant,
    /// When its reply was complete.
    pub done: Instant,
    /// What `send` returned.
    pub reply: R,
}

impl<R> Sample<R> {
    /// Seconds from due to done.
    pub fn latency_s(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64()
    }

    /// Seconds the send left after it was due.
    pub fn late_s(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64()
    }
}

/// Sends every scheduled request with `send(index)` from `threads`
/// threads, each taking the next due request when it is free. Returns
/// the samples in schedule order and the elapsed seconds from the
/// start to the last completion.
pub fn run<R, F>(schedule: &[f64], threads: usize, send: F) -> (Vec<Sample<R>>, f64)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = now();
    let worker = || {
        let mut mine = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(&offset) = schedule.get(index) else {
                break;
            };
            let due = start + Duration::from_secs_f64(offset);
            // Yield until due instead of sleeping: a sleeping sender and
            // an idle core each pay the host's wake-up latency, which on
            // a small virtual machine is larger and far noisier than the
            // daemon's own service time. Yielding keeps the cores awake
            // and gives them at once to any runnable daemon thread.
            while now() < due {
                std::thread::yield_now();
            }
            let sent = now();
            let reply = send(index);
            let done = now();
            mine.push(Sample {
                index,
                due,
                sent,
                done,
                reply,
            });
        }
        samples.lock().expect("sample list lock").extend(mine);
    };
    std::thread::scope(|scope| {
        let extra: Vec<_> = (1..threads.max(1)).map(|_| scope.spawn(worker)).collect();
        worker();
        for handle in extra {
            handle.join().expect("load generator thread panicked");
        }
    });
    let mut samples = samples.into_inner().expect("sample list lock");
    samples.sort_by_key(|s| s.index);
    let end = samples.iter().map(|s| s.done).max().unwrap_or(start);
    (samples, end.duration_since(start).as_secs_f64())
}

/// How an HTTP exchange went wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Broken {
    /// The connection could not be made.
    Connect,
    /// The request could not be written or the reply read.
    Io,
    /// The reply ended before its head or its `Content-Length`.
    Truncated,
}

/// One HTTP reply.
#[derive(Debug)]
pub struct Reply {
    /// Status code (0 when broken).
    pub status: u16,
    /// The `X-Queue-Depth` header.
    pub queue_depth: Option<u64>,
    /// The body.
    pub body: String,
    /// Set when the exchange failed.
    pub broken: Option<Broken>,
}

impl Reply {
    fn broken(kind: Broken) -> Reply {
        Reply {
            status: 0,
            queue_depth: None,
            body: String::new(),
            broken: Some(kind),
        }
    }
}

const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// `POST path` with `body` on a fresh connection (the daemon closes
/// every connection after its reply).
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Reply {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, IO_TIMEOUT) else {
        return Reply::broken(Broken::Connect);
    };
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
    {
        return Reply::broken(Broken::Io);
    }
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    if stream.write_all(request.as_bytes()).is_err() {
        return Reply::broken(Broken::Io);
    }
    let mut raw = Vec::new();
    if stream.read_to_end(&mut raw).is_err() {
        return Reply::broken(Broken::Io);
    }
    parse_reply(&raw)
}

/// Parses a complete `Connection: close` reply.
pub fn parse_reply(raw: &[u8]) -> Reply {
    let Some(split) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Reply::broken(Broken::Truncated);
    };
    let head = String::from_utf8_lossy(&raw[..split]);
    let body = &raw[split + 4..];
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok());
    let Some(status) = status else {
        return Reply::broken(Broken::Truncated);
    };
    let mut length = None;
    let mut queue_depth = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("x-queue-depth") {
            queue_depth = value.parse::<u64>().ok();
        }
    }
    if length.is_some_and(|n| body.len() < n) {
        return Reply {
            status,
            queue_depth,
            body: String::new(),
            broken: Some(Broken::Truncated),
        };
    }
    Reply {
        status,
        queue_depth,
        body: String::from_utf8_lossy(body).into_owned(),
        broken: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_poisson() {
        let a = poisson_schedule(1000.0, 2.0, 7);
        assert_eq!(a, poisson_schedule(1000.0, 2.0, 7));
        assert_ne!(a, poisson_schedule(1000.0, 2.0, 8));
        // 2000 expected arrivals; a Poisson count is within 5 sigma.
        assert!((1776..=2224).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn latency_is_timed_from_the_due_time_through_a_stall() {
        // Four requests due 1 ms apart, one sender; the first stalls
        // 50 ms. The later ones leave late, and their latency includes
        // the wait the stall imposed on them.
        let schedule = [0.0, 0.001, 0.002, 0.003];
        let (samples, elapsed) = run(&schedule, 1, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
            i
        });
        assert_eq!(samples.len(), 4);
        assert!(elapsed >= 0.050);
        for s in &samples[1..] {
            let waited = 0.050 - schedule[s.index];
            assert!(
                s.late_s() >= waited - 1e-4,
                "late {} < {waited}",
                s.late_s()
            );
            assert!(
                s.latency_s() >= waited - 1e-4,
                "latency {} < {waited}",
                s.latency_s()
            );
            // Timed from the send instead, the request would look instant.
            assert!(s.done.duration_since(s.sent).as_secs_f64() < 0.010);
        }
    }

    #[test]
    fn replies_are_parsed_and_truncation_is_caught() {
        let ok =
            parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nX-Queue-Depth: 4\r\n\r\nabc");
        assert_eq!(ok.status, 200);
        assert_eq!(ok.queue_depth, Some(4));
        assert_eq!(ok.body, "abc");
        assert_eq!(ok.broken, None);
        let cut = parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc");
        assert_eq!(cut.broken, Some(Broken::Truncated));
        assert_eq!(parse_reply(b"HTTP/1.1 200").broken, Some(Broken::Truncated));
        assert_eq!(parse_reply(b"").broken, Some(Broken::Truncated));
    }
}
