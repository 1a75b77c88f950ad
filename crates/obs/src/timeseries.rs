//! In-memory time series behind the sharded registry.
//!
//! The registry aggregates counters and histograms over a whole
//! session; this module adds the *time* axis so a live scraper (the
//! [`crate::serve`] endpoint) or a post-mortem dashboard (`scanbist
//! report`) can see how those aggregates evolved. A background
//! [`Sampler`] thread takes registry snapshots on a fixed interval and
//! appends one point per metric to a fixed-capacity [`Ring`] inside a
//! shared [`TimeSeriesStore`]; when a ring is full the oldest point is
//! dropped, bounding memory for arbitrarily long campaigns.
//!
//! Timestamps are monotonic offsets from the observability epoch
//! (`registry::epoch_elapsed_ns`), the same timebase span events use —
//! no wall clock enters the core (lint L003 stays clean) and samples
//! line up with spans in the merged NDJSON stream.
//!
//! Per histogram, each sample records the running count plus windowed
//! p50/p95/p99 estimates ([`hist_quantile`]); per counter, the running
//! total. [`TimeSeriesStore::rollups`] reduces each series over the
//! points currently in its ring to a last/min/max/rate summary for the
//! Prometheus exposition.
//!
//! The sampler sees what [`crate::registry::snapshot`] sees: data
//! already folded into the global state (worker threads fold on exit
//! or at an explicit `flush_thread`). Live foreign-thread shards are
//! invisible until they fold — totals are therefore *monotone* across
//! samples, never torn (pinned by the concurrent-snapshot property
//! test in `tests/properties.rs`).

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::registry::{self, Histogram, Snapshot};

/// Interval between two ticks of the session's sampler.
pub const DEFAULT_INTERVAL_MS: u64 = 50;
/// Per-series ring capacity of the session's time-series store.
pub const DEFAULT_CAPACITY: usize = 240;

/// One sampled point: monotonic offset from the obs epoch, value.
pub type Sample = (u64, u64);

/// A fixed-capacity sample ring; pushing past capacity drops the
/// oldest sample.
#[derive(Clone, Debug)]
pub struct Ring {
    capacity: usize,
    samples: VecDeque<Sample>,
}

impl Ring {
    /// An empty ring holding at most `capacity` samples.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Ring {
            capacity: capacity.max(2),
            samples: VecDeque::new(),
        }
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, offset_ns: u64, value: u64) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back((offset_ns, value));
    }

    /// The samples currently held, oldest first.
    #[must_use]
    pub fn samples(&self) -> Vec<Sample> {
        self.samples.iter().copied().collect()
    }

    /// Number of samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Windowed reduction of one series over the samples in its ring.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesRollup {
    /// Series name (counter name, or `hist#p95`-style derived series).
    pub name: String,
    /// Most recent sampled value.
    pub last: u64,
    /// Smallest value in the window.
    pub min: u64,
    /// Largest value in the window.
    pub max: u64,
    /// First-to-last delta over the window, per second. Meaningful for
    /// monotone (counter/count) series; may be negative for derived
    /// quantile series whose estimates move both ways.
    pub rate_per_sec: f64,
    /// Samples in the window.
    pub samples: usize,
    /// Window width: last offset minus first offset, nanoseconds.
    pub window_ns: u64,
}

/// Shared store of per-metric sample rings, appended to by the
/// [`Sampler`] thread and read by the `/metrics` endpoint and the
/// exporters.
pub struct TimeSeriesStore {
    inner: Mutex<BTreeMap<String, Ring>>,
    capacity: usize,
}

impl TimeSeriesStore {
    /// A store whose rings hold `capacity` samples each.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TimeSeriesStore {
            inner: Mutex::new(BTreeMap::new()),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Ring>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends one point per metric in `snapshot`, timestamped
    /// `offset_ns`: every counter's running total, and per histogram
    /// the running count plus p50/p95/p99 estimates as derived
    /// `name#q` series.
    pub fn sample(&self, snapshot: &Snapshot, offset_ns: u64) {
        let mut rings = self.lock();
        let capacity = self.capacity;
        let mut push = |name: String, value: u64| {
            rings
                .entry(name)
                .or_insert_with(|| Ring::new(capacity))
                .push(offset_ns, value);
        };
        for (name, value) in &snapshot.counters {
            push(name.clone(), *value);
        }
        for (name, hist) in &snapshot.histograms {
            push(format!("{name}#count"), hist.total);
            push(format!("{name}#p50"), hist_quantile(hist, 0.50));
            push(format!("{name}#p95"), hist_quantile(hist, 0.95));
            push(format!("{name}#p99"), hist_quantile(hist, 0.99));
        }
    }

    /// A copy of every series, oldest sample first.
    #[must_use]
    pub fn series(&self) -> BTreeMap<String, Vec<Sample>> {
        self.lock()
            .iter()
            .map(|(name, ring)| (name.clone(), ring.samples()))
            .collect()
    }

    /// Windowed rollups of every non-empty series.
    #[must_use]
    pub fn rollups(&self) -> Vec<SeriesRollup> {
        self.lock()
            .iter()
            .filter(|(_, ring)| !ring.is_empty())
            .map(|(name, ring)| {
                let samples = ring.samples();
                let (first_t, first_v) = samples[0];
                let (last_t, last_v) = samples[samples.len() - 1];
                let window_ns = last_t.saturating_sub(first_t);
                let rate_per_sec = if window_ns == 0 {
                    0.0
                } else {
                    (last_v as f64 - first_v as f64) * 1e9 / window_ns as f64
                };
                SeriesRollup {
                    name: name.clone(),
                    last: last_v,
                    min: samples.iter().map(|&(_, v)| v).min().unwrap_or(0),
                    max: samples.iter().map(|&(_, v)| v).max().unwrap_or(0),
                    rate_per_sec,
                    samples: samples.len(),
                    window_ns,
                }
            })
            .collect()
    }
}

/// Rate per second of `samples` over the trailing `window_ns` window.
///
/// Only samples whose offset lies within `window_ns` of the newest
/// sample participate. The rate is the first-to-last delta of that
/// subset divided by its *observed* span — when fewer samples than the
/// window exist the span is clamped to what was actually seen, never
/// extrapolated to the nominal window width. Zero when the subset
/// holds fewer than two samples or spans zero time.
#[must_use]
pub fn windowed_rate(samples: &[Sample], window_ns: u64) -> f64 {
    let Some(&(last_t, last_v)) = samples.last() else {
        return 0.0;
    };
    let cutoff = last_t.saturating_sub(window_ns);
    let start = samples.partition_point(|&(t, _)| t < cutoff);
    // lint:allow(L012): `partition_point` returns `start <= len`
    let window = &samples[start..];
    let Some(&(first_t, first_v)) = window.first() else {
        return 0.0;
    };
    let span_ns = last_t.saturating_sub(first_t);
    if window.len() < 2 || span_ns == 0 {
        return 0.0;
    }
    (last_v as f64 - first_v as f64) * 1e9 / span_ns as f64
}

/// Nearest-rank quantile estimate from a fixed-bucket histogram: the
/// inclusive upper edge of the bucket containing the `q`-quantile
/// observation (the last finite edge for overflow-bucket hits). Exact
/// to bucket resolution, which is what a sparkline needs.
#[must_use]
pub fn hist_quantile(hist: &Histogram, q: f64) -> u64 {
    if hist.total == 0 {
        return 0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    // bounded by `total` via the clamp; q is a small positive fraction
    let rank = ((q * hist.total as f64).ceil() as u64).clamp(1, hist.total);
    let mut seen = 0u64;
    for (i, count) in hist.counts.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return hist.edges.get(i).or(hist.edges.last()).copied().unwrap_or(0);
        }
    }
    hist.edges.last().copied().unwrap_or(0)
}

// ---- the process-wide active store (set while a sampler runs, read
// ---- by the exporters and the /metrics endpoint) ----

static ACTIVE: Mutex<Option<Arc<TimeSeriesStore>>> = Mutex::new(None);

fn lock_active() -> std::sync::MutexGuard<'static, Option<Arc<TimeSeriesStore>>> {
    ACTIVE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs `store` as the process-wide active time-series store.
pub fn set_active(store: Arc<TimeSeriesStore>) {
    *lock_active() = Some(store);
}

/// The active store, if a sampler session installed one.
#[must_use]
pub fn active() -> Option<Arc<TimeSeriesStore>> {
    lock_active().clone()
}

/// Uninstalls the active store. Called by [`crate::reset`].
pub fn clear_active() {
    *lock_active() = None;
}

/// The background snapshotter: one thread that samples the registry
/// into a [`TimeSeriesStore`] on a fixed interval until stopped.
pub struct Sampler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
    store: Arc<TimeSeriesStore>,
}

impl Sampler {
    /// Starts the sampler thread, ticking every [`DEFAULT_INTERVAL_MS`].
    /// Takes an immediate first sample so even sessions shorter than one
    /// interval record a point. If the OS refuses to spawn the thread
    /// the sampler degrades to a synchronous one-shot (the immediate
    /// sample plus the final one on stop) and logs the failure to
    /// stderr — observability must never take the host process down
    /// (lint L010).
    #[must_use]
    pub fn start(store: Arc<TimeSeriesStore>) -> Sampler {
        let interval = Duration::from_millis(DEFAULT_INTERVAL_MS);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let thread_store = Arc::clone(&store);
        let handle = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || {
                sample_once(&thread_store);
                let (flag, cv) = &*thread_stop;
                let mut stopped = flag.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                loop {
                    let (guard, timeout) = cv
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    stopped = guard;
                    if *stopped {
                        break;
                    }
                    if timeout.timed_out() {
                        sample_once(&thread_store);
                    }
                }
            });
        let handle = match handle {
            Ok(handle) => Some(handle),
            Err(err) => {
                eprintln!("obs: cannot spawn obs-sampler thread ({err}); sampling degraded");
                sample_once(&store);
                None
            }
        };
        Sampler {
            stop,
            handle,
            store,
        }
    }

    /// Stops and joins the sampler thread, then takes one final sample
    /// so the series include the session's end state.
    pub fn stop(mut self) {
        self.signal_stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        sample_once(&self.store);
    }

    fn signal_stop(&self) {
        let (flag, cv) = &*self.stop;
        *flag.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cv.notify_all();
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.signal_stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn sample_once(store: &TimeSeriesStore) {
    let snapshot = registry::snapshot();
    let now_ns = registry::epoch_elapsed_ns();
    store.sample(&snapshot, now_ns);
    crate::slo::evaluate_tick(store, now_ns);
    crate::recorder::record_tick(&snapshot, now_ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let mut ring = Ring::new(3);
        for i in 0..5u64 {
            ring.push(i * 10, i);
        }
        assert_eq!(ring.samples(), vec![(20, 2), (30, 3), (40, 4)]);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn rollups_report_window_rate() {
        let store = TimeSeriesStore::new(8);
        let mut snap = Snapshot::default();
        snap.counters.insert("work.items".into(), 100);
        store.sample(&snap, 1_000_000_000);
        snap.counters.insert("work.items".into(), 400);
        store.sample(&snap, 4_000_000_000);
        let rollups = store.rollups();
        assert_eq!(rollups.len(), 1);
        let r = &rollups[0];
        assert_eq!(r.name, "work.items");
        assert_eq!((r.last, r.min, r.max), (400, 100, 400));
        assert_eq!(r.samples, 2);
        assert_eq!(r.window_ns, 3_000_000_000);
        assert!((r.rate_per_sec - 100.0).abs() < 1e-9, "{}", r.rate_per_sec);
    }

    #[test]
    fn windowed_rate_clamps_to_observed_span() {
        // 0 samples: no rate.
        assert!((windowed_rate(&[], 1_000) - 0.0).abs() < f64::EPSILON);
        // 1 sample: no span to rate over.
        assert!((windowed_rate(&[(500, 10)], 1_000) - 0.0).abs() < f64::EPSILON);
        // window-1 samples (window would hold 4 at the 1s cadence, we
        // have 3 spanning 2s): the rate must use the observed 2s span,
        // not extrapolate over the nominal 4s window.
        let samples = [(1_000_000_000, 0), (2_000_000_000, 100), (3_000_000_000, 200)];
        let rate = windowed_rate(&samples, 4_000_000_000);
        assert!((rate - 100.0).abs() < 1e-9, "{rate}");
        // Samples older than the window are excluded before rating.
        let long = [
            (0, 0),
            (1_000_000_000, 1_000_000),
            (9_000_000_000, 1_000_000),
            (10_000_000_000, 1_000_000),
        ];
        let rate = windowed_rate(&long, 2_000_000_000);
        assert!((rate - 0.0).abs() < 1e-9, "{rate}");
        // Coincident timestamps cannot produce an infinite rate.
        assert!((windowed_rate(&[(5, 1), (5, 9)], 100) - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn hist_quantiles_hit_bucket_edges() {
        let mut hist = Histogram {
            edges: vec![1, 2, 4, 8],
            counts: vec![0; 5],
            total: 0,
            sum: 0,
        };
        // 10 values in bucket <=2, 90 in bucket <=8.
        hist.counts[1] = 10;
        hist.counts[3] = 90;
        hist.total = 100;
        hist.sum = 0;
        assert_eq!(hist_quantile(&hist, 0.05), 2);
        assert_eq!(hist_quantile(&hist, 0.50), 8);
        assert_eq!(hist_quantile(&hist, 0.99), 8);
        let empty = Histogram {
            edges: vec![1],
            counts: vec![0, 0],
            total: 0,
            sum: 0,
        };
        assert_eq!(hist_quantile(&empty, 0.5), 0);
    }

    #[test]
    fn store_samples_histogram_derived_series() {
        let store = TimeSeriesStore::new(4);
        let mut snap = Snapshot::default();
        let mut hist = Histogram {
            edges: vec![1, 2],
            counts: vec![0, 0, 0],
            total: 0,
            sum: 0,
        };
        hist.counts[0] = 3;
        hist.total = 3;
        snap.histograms.insert("lat".into(), hist);
        store.sample(&snap, 5);
        let series = store.series();
        let names: Vec<&str> = series.keys().map(String::as_str).collect();
        assert_eq!(names, vec!["lat#count", "lat#p50", "lat#p95", "lat#p99"]);
        assert_eq!(series["lat#count"], vec![(5, 3)]);
    }
}
