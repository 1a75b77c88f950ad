//! Integration tests for `scan-obs`: span nesting and timing, histogram
//! bucket edges, NDJSON round-trips, and concurrent recording from
//! `std::thread::scope` workers.
//!
//! Observability state is process-global, so every test takes the
//! [`LOCK`] and starts from [`scan_obs::init`] / ends with
//! [`scan_obs::reset`] to stay isolated from its neighbours.

use std::collections::BTreeMap;
use std::sync::Mutex;

use scan_obs::json::{parse, Value};
use scan_obs::{export, metrics, progress, schema, span, ObsConfig, TraceContext};

static LOCK: Mutex<()> = Mutex::new(());

fn trace_config() -> ObsConfig {
    ObsConfig {
        trace: true,
        metrics: true,
        ..ObsConfig::disabled()
    }
}

/// Serializes a test body against the process-global obs state.
fn with_obs<R>(config: &ObsConfig, body: impl FnOnce() -> R) -> R {
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    scan_obs::init(config);
    let result = body();
    scan_obs::reset();
    result
}

#[test]
fn disabled_mode_records_nothing() {
    with_obs(&ObsConfig::disabled(), || {
        assert!(!scan_obs::enabled());
        let _span = span::enter("ghost");
        metrics::incr("ghost.counter");
        metrics::record_pow2("ghost.hist", 3);
        progress::tick("ghost", 1, 2);
        let snapshot = scan_obs::snapshot();
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.histograms.is_empty());
        assert!(snapshot.span_stats.is_empty());
        assert!(snapshot.events.is_empty());
    });
}

#[test]
fn spans_nest_and_time_monotonically() {
    with_obs(&trace_config(), || {
        {
            let _outer = span::enter("outer");
            {
                let _inner = span::enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _inner = scan_obs::span!("inner");
            }
            let _named = scan_obs::span!("core[{}]", 7);
        }
        let snapshot = scan_obs::snapshot();
        let outer = snapshot.span_stats["outer"];
        let inner = snapshot.span_stats["outer/inner"];
        let named = snapshot.span_stats["outer/core[7]"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert_eq!(named.count, 1);
        // The parent's total covers its children; self excludes them.
        assert!(outer.total_ns >= inner.total_ns + named.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
        assert!(inner.max_ns <= inner.total_ns);
        assert!(inner.total_ns >= 2_000_000, "slept 2ms inside");
        // Events carry monotone, nested timestamps.
        for event in &snapshot.events {
            assert!(event.start_ns <= event.end_ns);
        }
        let outer_event = snapshot
            .events
            .iter()
            .find(|e| e.path == "outer")
            .expect("outer event");
        let inner_events: Vec<_> = snapshot
            .events
            .iter()
            .filter(|e| e.path == "outer/inner")
            .collect();
        assert_eq!(inner_events.len(), 2);
        for e in inner_events {
            assert!(e.start_ns >= outer_event.start_ns);
            assert!(e.end_ns <= outer_event.end_ns);
        }
    });
}

#[test]
fn histogram_buckets_split_on_inclusive_edges() {
    with_obs(&trace_config(), || {
        let edges = [10, 20, 30];
        // Bucket semantics: counts[i] tallies edges[i-1] < v <= edges[i].
        for value in [0, 10, 11, 20, 21, 30, 31, 1000] {
            metrics::record("t.hist", &edges, value);
        }
        let snapshot = scan_obs::snapshot();
        let hist = &snapshot.histograms["t.hist"];
        assert_eq!(hist.edges, vec![10, 20, 30]);
        assert_eq!(hist.counts, vec![2, 2, 2, 2]);
        assert_eq!(hist.total, 8);
        assert_eq!(hist.sum, 10 + 11 + 20 + 21 + 30 + 31 + 1000);
    });
}

#[test]
fn counters_accumulate_and_export() {
    with_obs(&trace_config(), || {
        metrics::incr("a.ticks");
        metrics::add("a.ticks", 4);
        metrics::add_fmt(|| format!("worker{}.cases", 3), 7);
        let snapshot = scan_obs::snapshot();
        assert_eq!(snapshot.counters["a.ticks"], 5);
        assert_eq!(snapshot.counters["worker3.cases"], 7);
        let text = export::tree_summary(&snapshot);
        assert!(text.contains("a.ticks"));
    });
}

#[test]
fn concurrent_scoped_workers_record_without_loss() {
    const WORKERS: usize = 8;
    const TICKS: u64 = 1000;
    with_obs(&trace_config(), || {
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                scope.spawn(move || {
                    {
                        let _span = span::enter("worker");
                        for i in 0..TICKS {
                            metrics::incr("workers.cases");
                            metrics::record_pow2("workers.values", i);
                        }
                        metrics::add_fmt(|| format!("parallel.worker{w}.cases"), TICKS);
                    }
                    // Explicit fold: the automatic TLS-drop merge can run
                    // after the scope join unblocks, racing the snapshot
                    // below.
                    scan_obs::flush_thread();
                });
            }
        });
        let snapshot = scan_obs::snapshot();
        assert_eq!(snapshot.counters["workers.cases"], WORKERS as u64 * TICKS);
        assert_eq!(snapshot.histograms["workers.values"].total, WORKERS as u64 * TICKS);
        assert_eq!(snapshot.span_stats["worker"].count, WORKERS as u64);
        for w in 0..WORKERS {
            assert_eq!(snapshot.counters[&format!("parallel.worker{w}.cases")], TICKS);
        }
        // Worker spans come from distinct registered threads.
        let mut threads: Vec<u32> = snapshot
            .events
            .iter()
            .filter(|e| e.path == "worker")
            .map(|e| e.thread)
            .collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), WORKERS);
    });
}

/// Property: a snapshot taken while workers are actively recording
/// never tears. Workers record a *pair* of counters and only then
/// fold their shard (`flush_thread`), so the published totals must
/// move in lockstep: every snapshot sees `pair.alpha == pair.beta`,
/// totals are monotone across successive snapshots, and after the
/// scope joins the totals are exact — no shard is lost and no batch
/// is half-visible.
#[test]
fn snapshots_during_recording_never_tear() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    scan_rng::testkit::Runner::new(12).run("obs.snapshot_no_tearing", |g| {
        let workers = g.usize("workers", 2, 6);
        let batches = g.u64("batches", 8, 48);
        let per_batch = g.u64("per_batch", 1, 32);
        with_obs(&trace_config(), || {
            let done = AtomicUsize::new(0);
            let mut observed = Vec::new();
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let done = &done;
                    scope.spawn(move || {
                        for _ in 0..batches {
                            // Record the whole pair before folding: the
                            // fold is the publication point, so readers
                            // must never see a half-recorded batch.
                            metrics::add("pair.alpha", per_batch);
                            metrics::add("pair.beta", per_batch);
                            metrics::add_fmt(|| format!("pair.worker{w}"), per_batch);
                            scan_obs::flush_thread();
                        }
                        done.fetch_add(1, Ordering::Release);
                    });
                }
                // Main thread races snapshots against the recording
                // workers; `snapshot()` folds only the calling thread's
                // (empty) shard, so it observes exactly the published
                // batches.
                while done.load(Ordering::Acquire) < workers {
                    let snap = scan_obs::snapshot();
                    let alpha = snap.counters.get("pair.alpha").copied().unwrap_or(0);
                    let beta = snap.counters.get("pair.beta").copied().unwrap_or(0);
                    assert_eq!(alpha, beta, "snapshot tore a published pair");
                    observed.push(alpha);
                    std::thread::yield_now();
                }
            });
            observed.push(u64::MAX); // sentinel: final check below dominates
            assert!(
                observed.windows(2).all(|w| w[0] <= w[1]),
                "published totals regressed across snapshots: {observed:?}"
            );
            let expected = workers as u64 * batches * per_batch;
            let snap = scan_obs::snapshot();
            assert_eq!(snap.counters["pair.alpha"], expected, "lost alpha shard");
            assert_eq!(snap.counters["pair.beta"], expected, "lost beta shard");
            for w in 0..workers {
                assert_eq!(
                    snap.counters[&format!("pair.worker{w}")],
                    batches * per_batch,
                    "worker {w}'s shard was lost or double-folded"
                );
            }
        });
    });
}

#[test]
fn ndjson_round_trips_through_the_json_reader() {
    with_obs(&trace_config(), || {
        {
            let _prepare = span::enter("prepare");
            let _fsim = span::enter("fault_sim");
            metrics::add("fault_sim.error_maps", 42);
            metrics::record_pow2("diagnosis.candidates_per_fault", 9);
        }
        let snapshot = scan_obs::snapshot();
        // The session stream's full record set: trace events, a time
        // series, and a trace context, every line stamped.
        let ctx = TraceContext::new_root("properties");
        let series = BTreeMap::from([("work.items".to_owned(), vec![(0, 0), (100, 5)])]);
        let stream = export::stamp_ndjson(
            &format!(
                "{}{}{}\n",
                export::ndjson(&snapshot),
                export::ts_lines(&series),
                export::context_line(&ctx)
            ),
            &ctx.trace_id,
        );
        let records = schema::check_stream(&stream).expect("stream matches the schema");
        let of = |kind: &'static str| {
            records
                .iter()
                .filter(move |r| r.get("type").and_then(Value::as_str) == Some(kind))
        };
        let spans: Vec<&str> = of("span")
            .filter_map(|r| r.get("path").and_then(Value::as_str))
            .collect();
        assert_eq!(spans, ["prepare", "prepare/fault_sim"]);
        assert!(of("counter").any(|r| {
            r.get("name").and_then(Value::as_str) == Some("fault_sim.error_maps")
                && r.get("value").and_then(Value::as_f64) == Some(42.0)
        }));
        let hists: Vec<&Value> = of("hist").filter_map(|r| r.get("hist")).collect();
        assert_eq!(hists.len(), 1);
        let len = |member| {
            hists[0]
                .get(member)
                .and_then(Value::as_array)
                .map(<[Value]>::len)
        };
        assert_eq!(len("counts"), len("edges").map(|n| n + 1));
        for kind in ["meta", "ts", "context"] {
            assert_eq!(of(kind).count(), 1, "{kind}");
        }

        // And the metrics snapshot document has the documented shape.
        let doc = parse(&export::metrics_json(&snapshot)).expect("snapshot parses");
        schema::METRICS.check(&doc).unwrap();
        assert_eq!(
            doc.get("spans")
                .and_then(|s| s.get("prepare/fault_sim"))
                .and_then(|s| s.get("count"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
    });
}

#[test]
fn finish_writes_export_files() {
    let dir = std::env::temp_dir().join(format!("scan-obs-test-{}", std::process::id()));
    let trace_path = dir.join("trace.ndjson");
    let metrics_path = dir.join("metrics.json");
    let config = ObsConfig {
        trace: true,
        metrics: true,
        trace_path: Some(trace_path.clone()),
        metrics_path: Some(metrics_path.clone()),
        ..ObsConfig::disabled()
    };
    with_obs(&config, || {
        {
            let _span = span::enter("campaign");
            metrics::incr("campaign.runs");
        }
        scan_obs::finish(&config).expect("export writes");
        let stream = std::fs::read_to_string(&trace_path).expect("trace file");
        assert!(stream.lines().count() >= 3, "meta + span + counter");
        for line in stream.lines() {
            parse(line).expect("trace line parses");
        }
        let doc = parse(&std::fs::read_to_string(&metrics_path).expect("metrics file"))
            .expect("metrics parse");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("campaign.runs"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn progress_only_prints_when_enabled() {
    // `tick` writes to stderr, which tests cannot capture portably;
    // this only checks the disabled path is inert and the enabled path
    // does not panic or deadlock under threads.
    let config = ObsConfig {
        progress: true,
        ..ObsConfig::disabled()
    };
    with_obs(&config, || {
        std::thread::scope(|scope| {
            for w in 0..4 {
                scope.spawn(move || {
                    for i in 0..50 {
                        progress::tick_worker(w, i + 1, 50);
                    }
                });
            }
        });
    });
}
