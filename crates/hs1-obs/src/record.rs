//! The in-memory recorder and its export formats.
//!
//! [`RecordingObserver`] buffers the trace in emission order and keeps
//! counters/gauges/histograms in `BTreeMap`s keyed by
//! `(actor, name, idx)`, so every export walks a deterministic order —
//! no HashMap iteration order can leak into a file that tests compare
//! byte-for-byte.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

use crate::event::TraceEvent;
use crate::Observer;

/// Number of log2 buckets: bucket `b` holds samples whose value has `b`
/// significant bits (0 → value 0, 1 → 1, 2 → 2..=3, …, 64 → ≥ 2^63).
const LOG2_BUCKETS: usize = 65;

/// A fixed-bucket log2 latency histogram (nanosecond samples).
#[derive(Clone)]
pub struct Histogram {
    counts: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { counts: [0; LOG2_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    fn bucket(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// The upper edge of the bucket holding the `q`-quantile sample
    /// (`q` in 0..=1). Log2 buckets bound the answer within 2x — enough
    /// for attribution ("is the p99 fsync 1ms or 30ms"), cheap enough to
    /// record on every sample.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket `b`: 2^b - 1; the top bucket
                // (b = 64) has no finite doubled edge, so it covers
                // everything up to u64::MAX.
                return if b == 0 {
                    0
                } else {
                    (1u64 << (b - 1)).checked_mul(2).map_or(u64::MAX, |hi| hi - 1)
                };
            }
        }
        self.max
    }
}

/// One metrics-snapshot row, already flattened for formatting.
#[derive(Clone, Debug)]
pub struct MetricRow {
    pub actor: u32,
    /// `"counter"`, `"gauge"`, or `"hist"`.
    pub kind: &'static str,
    pub name: String,
    pub idx: u32,
    /// Counter/gauge value; histogram sample count.
    pub value: u64,
    /// Histogram-only summary fields (zero for counters/gauges).
    pub sum: u64,
    pub p50: u64,
    pub p99: u64,
    pub max: u64,
}

/// A point-in-time export of all counters, gauges, and histograms, in
/// deterministic row order. One schema serves the simulator reports, the
/// chaos replay tool, and the TCP bins.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub rows: Vec<MetricRow>,
}

impl MetricsSnapshot {
    /// The CSV header matching [`MetricsSnapshot::to_csv`].
    pub(crate) fn csv_header() -> &'static str {
        "actor,kind,name,idx,value,sum,p50,p99,max"
    }

    /// The snapshot as CSV (header + one line per row).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::csv_header());
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                r.actor, r.kind, r.name, r.idx, r.value, r.sum, r.p50, r.p99, r.max
            ));
        }
        out
    }

    /// A human-readable aligned table (the TCP bins' summary format).
    /// Histogram durations render in milliseconds.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let label = if r.idx == 0 {
                format!("{}/{}", r.actor, r.name)
            } else {
                format!("{}/{}[{}]", r.actor, r.name, r.idx)
            };
            match r.kind {
                "hist" => {
                    let mean_ms =
                        if r.value == 0 { 0.0 } else { r.sum as f64 / r.value as f64 / 1e6 };
                    out.push_str(&format!(
                        "  {label:<32} n={:<8} mean={:.3}ms p50<{:.3}ms p99<{:.3}ms max={:.3}ms\n",
                        r.value,
                        mean_ms,
                        r.p50 as f64 / 1e6,
                        r.p99 as f64 / 1e6,
                        r.max as f64 / 1e6,
                    ));
                }
                _ => out.push_str(&format!("  {label:<32} {}\n", r.value)),
            }
        }
        out
    }

    /// Sum of a counter across actors and indices (tests, quick checks).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.rows.iter().filter(|r| r.kind == "counter" && r.name == name).map(|r| r.value).sum()
    }

    /// The snapshot in Prometheus text exposition format (version 0.0.4,
    /// what the `/metrics` introspection endpoint serves). Counters get a
    /// `hs1_` prefix and the conventional `_total` suffix; histograms are
    /// exposed as summaries with p50/p99 quantile samples (quantile edges
    /// are log2-bucket upper bounds, like everywhere else in this crate).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last: Option<(&str, &str)> = None;
        for r in &self.rows {
            let metric = match r.kind {
                "counter" => format!("hs1_{}_total", r.name),
                _ => format!("hs1_{}", r.name),
            };
            let labels = format!("{{actor=\"{}\",idx=\"{}\"}}", r.actor, r.idx);
            if last != Some((r.kind, r.name.as_str())) {
                let ptype = match r.kind {
                    "counter" => "counter",
                    "gauge" => "gauge",
                    _ => "summary",
                };
                out.push_str(&format!("# TYPE {metric} {ptype}\n"));
                last = Some((r.kind, r.name.as_str()));
            }
            match r.kind {
                "hist" => {
                    let l = format!("actor=\"{}\",idx=\"{}\"", r.actor, r.idx);
                    out.push_str(&format!(
                        "{metric}{{{l},quantile=\"0.5\"}} {}\n{metric}{{{l},quantile=\"0.99\"}} {}\n\
                         {metric}_sum{{{l}}} {}\n{metric}_count{{{l}}} {}\n",
                        r.p50, r.p99, r.sum, r.value
                    ));
                }
                _ => out.push_str(&format!("{metric}{labels} {}\n", r.value)),
            }
        }
        out
    }
}

type MetricKey = (u32, &'static str, u32);

/// Buffers everything in memory; exports JSONL + metrics snapshots.
#[derive(Default)]
pub struct RecordingObserver {
    trace: Vec<TraceEvent>,
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, u64>,
    hists: BTreeMap<(u32, &'static str), Histogram>,
    /// When set, [`Observer::flush`] writes the JSONL trace here.
    trace_path: Option<PathBuf>,
}

impl RecordingObserver {
    pub(crate) fn new() -> RecordingObserver {
        RecordingObserver::default()
    }

    /// Arrange for [`Observer::flush`] to write the trace to `path` —
    /// harnesses set this up-front so even an invariant-violation exit
    /// leaves the trace on disk.
    pub fn set_trace_path(&mut self, path: PathBuf) {
        self.trace_path = Some(path);
    }

    /// The buffered trace, in emission order.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Fallible variant of [`Observer::flush`]: write the trace to the
    /// configured path, surfacing I/O errors to the caller.
    pub fn flush_to_path(&mut self) -> std::io::Result<()> {
        let Some(path) = &self.trace_path else { return Ok(()) };
        let mut f = std::fs::File::create(path)?;
        self.write_jsonl(&mut f)?;
        f.flush()
    }

    /// Write the trace as JSONL.
    pub(crate) fn write_jsonl(&self, w: &mut dyn Write) -> std::io::Result<()> {
        for ev in &self.trace {
            writeln!(w, "{}", ev.to_json())?;
        }
        Ok(())
    }

    /// The trace as one JSONL string (byte-comparable across runs).
    pub fn jsonl_string(&self) -> String {
        let mut s = String::new();
        for ev in &self.trace {
            s.push_str(&ev.to_json());
            s.push('\n');
        }
        s
    }

    /// Flatten counters, gauges, and histograms into a snapshot. Row
    /// order is the `BTreeMap` key order: counters, then gauges, then
    /// histograms, each sorted by (actor, name, idx).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut rows = Vec::new();
        for (&(actor, name, idx), &value) in &self.counters {
            rows.push(MetricRow {
                actor,
                kind: "counter",
                name: name.to_string(),
                idx,
                value,
                sum: 0,
                p50: 0,
                p99: 0,
                max: 0,
            });
        }
        for (&(actor, name, idx), &value) in &self.gauges {
            rows.push(MetricRow {
                actor,
                kind: "gauge",
                name: name.to_string(),
                idx,
                value,
                sum: 0,
                p50: 0,
                p99: 0,
                max: 0,
            });
        }
        for (&(actor, name), h) in &self.hists {
            rows.push(MetricRow {
                actor,
                kind: "hist",
                name: name.to_string(),
                idx: 0,
                value: h.count(),
                sum: h.sum(),
                p50: h.quantile(0.50),
                p99: h.quantile(0.99),
                max: h.max(),
            });
        }
        MetricsSnapshot { rows }
    }
}

impl Observer for RecordingObserver {
    fn on_event(&mut self, ev: TraceEvent) {
        self.trace.push(ev);
    }

    fn add_counter(&mut self, actor: u32, name: &'static str, idx: u32, delta: u64) {
        *self.counters.entry((actor, name, idx)).or_insert(0) += delta;
    }

    fn set_gauge(&mut self, actor: u32, name: &'static str, idx: u32, value: u64) {
        self.gauges.insert((actor, name, idx), value);
    }

    fn observe(&mut self, actor: u32, name: &'static str, nanos: u64) {
        self.hists.entry((actor, name)).or_default().record(nanos);
    }

    fn flush(&mut self) {
        if let Some(path) = &self.trace_path {
            if let Ok(mut f) = std::fs::File::create(path) {
                let _ = self.write_jsonl(&mut f);
                let _ = f.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Stage};

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.sum(), 1_001_006);
        assert_eq!(h.quantile(0.0), 0);
        // p50 of six samples is the 3rd (value 2, bucket upper edge 3).
        assert_eq!(h.quantile(0.5), 3);
        // p99 lands in the top bucket; the edge must cover the sample.
        assert!(h.quantile(0.99) >= 1_000_000);
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.99), 0);
    }

    #[test]
    fn histogram_log2_bucket_edges() {
        // Bucket index is the number of significant bits: 0 is its own
        // bucket, each power of two opens the next one.
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        for k in 1..64 {
            assert_eq!(Histogram::bucket(1u64 << k), k + 1, "2^{k} opens bucket {}", k + 1);
            assert_eq!(Histogram::bucket((1u64 << k) - 1), k, "2^{k}-1 stays in bucket {k}");
        }
        assert_eq!(Histogram::bucket(u64::MAX), LOG2_BUCKETS - 1, "top bucket is in range");
    }

    #[test]
    fn histogram_handles_extreme_samples() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.quantile(0.01), 0, "the smallest sample sits in bucket 0");
        assert_eq!(h.quantile(1.0), u64::MAX, "top bucket edge covers the largest sample");
    }

    #[test]
    fn counters_are_monotone_under_interleaved_observers() {
        // Counters only ever accumulate non-negative deltas — a sequence
        // of re-attachments (as chaos crash-restart does with storage)
        // must observe a non-decreasing series.
        let mut r = RecordingObserver::new();
        let mut last = 0;
        for delta in [5u64, 0, 17, 3, 0, 1] {
            r.add_counter(0, "journal_bytes", 0, delta);
            let now = r.snapshot().counter_total("journal_bytes");
            assert!(now >= last, "counter went backwards: {last} -> {now}");
            last = now;
        }
        assert_eq!(last, 26);
    }

    #[test]
    fn snapshot_rows_are_deterministically_ordered() {
        let mut r = RecordingObserver::new();
        r.add_counter(2, "sent", 1, 5);
        r.add_counter(0, "sent", 3, 2);
        r.add_counter(0, "sent", 3, 1);
        r.set_gauge(1, "queue", 0, 9);
        r.observe(0, "fsync_ns", 1500);
        let snap = r.snapshot();
        let kinds: Vec<_> = snap.rows.iter().map(|r| (r.kind, r.actor, r.idx)).collect();
        assert_eq!(
            kinds,
            vec![("counter", 0, 3), ("counter", 2, 1), ("gauge", 1, 0), ("hist", 0, 0)]
        );
        assert_eq!(snap.rows[0].value, 3, "counter deltas accumulate");
        assert_eq!(snap.counter_total("sent"), 8);
        // CSV round-trips the same order.
        let csv = snap.to_csv();
        assert!(csv.starts_with(MetricsSnapshot::csv_header()));
        assert_eq!(csv.lines().count(), 5);
        assert!(!snap.to_table().is_empty());
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let mut r = RecordingObserver::new();
        r.add_counter(0, "net_tx_frames", 0, 7);
        r.add_counter(1, "net_tx_frames", 0, 9);
        r.set_gauge(0, "net_out_queue_frames", 2, 5);
        r.observe(0, "fsync_ns", 1500);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE hs1_net_tx_frames_total counter\n"));
        assert!(text.contains("hs1_net_tx_frames_total{actor=\"0\",idx=\"0\"} 7\n"));
        assert!(text.contains("hs1_net_tx_frames_total{actor=\"1\",idx=\"0\"} 9\n"));
        // The TYPE line appears once per metric, not once per sample.
        assert_eq!(text.matches("# TYPE hs1_net_tx_frames_total").count(), 1);
        assert!(text.contains("# TYPE hs1_net_out_queue_frames gauge\n"));
        assert!(text.contains("hs1_net_out_queue_frames{actor=\"0\",idx=\"2\"} 5\n"));
        assert!(text.contains("# TYPE hs1_fsync_ns summary\n"));
        assert!(text.contains("hs1_fsync_ns{actor=\"0\",idx=\"0\",quantile=\"0.5\"}"));
        assert!(text.contains("hs1_fsync_ns_count{actor=\"0\",idx=\"0\"} 1\n"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn jsonl_string_is_stable() {
        let mut r = RecordingObserver::new();
        r.on_event(TraceEvent {
            at: 1,
            actor: 0,
            kind: EventKind::Stage { stage: Stage::Proposed, block: 4 },
        });
        r.on_event(TraceEvent {
            at: 2,
            actor: 1,
            kind: EventKind::Point { name: "p", key: 4, value: 8 },
        });
        let a = r.jsonl_string();
        let b = r.jsonl_string();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 2);
    }

    #[test]
    fn flush_writes_trace_to_path() {
        let dir = std::env::temp_dir().join(format!("hs1-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let mut r = RecordingObserver::new();
        r.set_trace_path(path.clone());
        r.on_event(TraceEvent {
            at: 3,
            actor: 0,
            kind: EventKind::SpanEnd { name: "view", key: 1 },
        });
        r.flush();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, r.jsonl_string());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
