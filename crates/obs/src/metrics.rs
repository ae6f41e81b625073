//! Counters, gauges, and fixed-bucket histograms.
//!
//! All state lives behind one `Mutex` per metric kind; the hot path is
//! a map lookup plus an integer add, far below the cost of the pipeline
//! work being measured, and only a name's first use allocates. Names
//! are free-form dotted strings.

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Default histogram buckets: log2 ladder `2^0 .. 2^26`, sized for
/// latencies recorded in microseconds — one ladder spans sub-µs
/// observations (first bucket) through multi-second serve-path spans
/// (`2^26 µs ≈ 67 s`) without saturating, at a constant ~7% relative
/// resolution per octave. The previous linear 1-2-5 ladder topped out
/// at 20 ms and piled every serve-path latency into the overflow
/// bucket.
const DEFAULT_BOUNDS: [f64; 27] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0, 32768.0, 65536.0, 131072.0, 262144.0, 524288.0, 1048576.0, 2097152.0, 4194304.0,
    8388608.0, 16777216.0, 33554432.0, 67108864.0,
];

/// Accumulates all metrics for one [`Obs`](crate::Obs) handle.
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Adds to a monotonic counter, creating it at zero on first use.
    pub fn counter_add(&self, name: &str, n: u64) {
        let mut counters = self.counters.lock().expect("counters not poisoned");
        // Look up before inserting: only a new name allocates its key.
        match counters.get_mut(name) {
            Some(count) => *count += n,
            None => {
                counters.insert(name.to_string(), n);
            }
        }
    }

    /// Sets a gauge to its latest value.
    pub fn gauge_set(&self, name: &str, v: f64) {
        let mut gauges = self.gauges.lock().expect("gauges not poisoned");
        match gauges.get_mut(name) {
            Some(gauge) => *gauge = v,
            None => {
                gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Registers a histogram with explicit ascending bucket bounds
    /// (no-op when it already exists).
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        let mut hists = self.histograms.lock().expect("histograms not poisoned");
        hists
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Records one observation, creating the histogram with default
    /// buckets on first use.
    pub fn histogram_observe(&self, name: &str, v: f64) {
        let mut hists = self.histograms.lock().expect("histograms not poisoned");
        match hists.get_mut(name) {
            Some(hist) => hist.observe(v),
            None => {
                let mut hist = Histogram::new(&DEFAULT_BOUNDS);
                hist.observe(v);
                hists.insert(name.to_string(), hist);
            }
        }
    }

    /// Like [`histogram_observe`](Self::histogram_observe) for
    /// already-owned names (span latency paths).
    pub fn histogram_observe_dynamic(&self, name: String, v: f64) {
        let mut hists = self.histograms.lock().expect("histograms not poisoned");
        hists
            .entry(name)
            .or_insert_with(|| Histogram::new(&DEFAULT_BOUNDS))
            .observe(v);
    }

    /// A point-in-time copy of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.lock().expect("counters not poisoned").clone(),
            gauges: self.gauges.lock().expect("gauges not poisoned").clone(),
            histograms: self
                .histograms
                .lock()
                .expect("histograms not poisoned")
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

/// Fixed-bucket histogram: `counts[i]` tallies observations `<=
/// bounds[i]`, with one overflow bucket at the end.
#[derive(Debug, Clone)]
struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, v: f64) {
        // First bound >= v, by binary search (bounds ascend); NaN and
        // anything above the last bound land in the overflow bucket.
        let idx = if v.is_nan() {
            self.bounds.len()
        } else {
            self.bounds.partition_point(|&b| b < v)
        };
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            sum: self.sum,
            count: self.count,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }
}

/// Serializable copy of one histogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Ascending upper bucket bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket tallies; last entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`q` in `[0, 1]`) from
    /// the bucket tallies: the upper bound of the first bucket whose
    /// cumulative count reaches `q·count`, clamped to the observed
    /// `max` (an overflow-bucket quantile has no finite bound). Returns
    /// 0 when empty. Bucket-resolution precision — one octave under the
    /// default log2 ladder — which is what a latency report needs.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match self.bounds.get(i) {
                    Some(&b) => b.min(self.max),
                    None => self.max,
                };
            }
        }
        self.max
    }
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("bounds".to_string(), self.bounds.to_value()),
            ("counts".to_string(), self.counts.to_value()),
            ("sum".to_string(), Value::F64(self.sum)),
            ("count".to_string(), Value::U64(self.count)),
            ("min".to_string(), Value::F64(self.min)),
            ("max".to_string(), Value::F64(self.max)),
        ])
    }
}

/// Serializable copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Latest gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Convenience: counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters whose name starts with `prefix`, in name order —
    /// the shape subsystem reports want ("every `net.` counter",
    /// "every `engine.shard3.` counter") without each caller rescanning
    /// the whole map.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(&str, u64)> {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(name, &v)| (name.as_str(), v))
            .collect()
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_sum_with_prefix(&self, prefix: &str) -> u64 {
        self.counters_with_prefix(prefix)
            .iter()
            .map(|(_, v)| v)
            .sum()
    }
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::U64(*v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::F64(*v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        Value::Map(vec![
            ("counters".to_string(), Value::Map(counters)),
            ("gauges".to_string(), Value::Map(gauges)),
            ("histograms".to_string(), Value::Map(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let m = MetricsRegistry::new();
        m.counter_add("c", 2);
        m.counter_add("c", 3);
        m.gauge_set("g", 1.5);
        m.gauge_set("g", -2.5);
        let snap = m.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauges["g"], -2.5);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let m = MetricsRegistry::new();
        m.register_histogram("h", &[1.0, 2.0, 5.0]);
        // Exactly on a bound lands in that bucket; above the last bound
        // lands in overflow.
        for v in [0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 5.1, 100.0] {
            m.histogram_observe("h", v);
        }
        let h = &m.snapshot().histograms["h"];
        assert_eq!(h.counts, vec![2, 2, 2, 2]);
        assert_eq!(h.count, 8);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 100.0);
        assert!((h.mean() - 120.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_scoped_counters_select_and_sum() {
        let m = MetricsRegistry::new();
        m.counter_add("net.frames_rx", 4);
        m.counter_add("net.frames_tx", 5);
        m.counter_add("netx.other", 7); // shares a string prefix, not a namespace
        m.counter_add("engine.samples_routed", 9);
        let snap = m.snapshot();
        assert_eq!(
            snap.counters_with_prefix("net."),
            vec![("net.frames_rx", 4), ("net.frames_tx", 5)]
        );
        assert_eq!(snap.counter_sum_with_prefix("net."), 9);
        assert!(snap.counters_with_prefix("missing.").is_empty());
        assert_eq!(snap.counter_sum_with_prefix(""), 25);
    }

    #[test]
    fn unregistered_histogram_gets_default_buckets() {
        let m = MetricsRegistry::new();
        m.histogram_observe("lat", 3.0);
        let h = &m.snapshot().histograms["lat"];
        assert_eq!(h.bounds.len() + 1, h.counts.len());
        assert_eq!(h.count, 1);
    }

    /// Regression for the serve-path saturation bug: the old linear
    /// 1-2-5 default ladder ended at 20 000 µs, so every multi-second
    /// span (and its neighbors) collapsed into one overflow bucket. The
    /// log2 ladder must keep sub-µs and multi-second samples in
    /// *distinct, non-overflow* buckets.
    #[test]
    fn log2_default_buckets_resolve_sub_us_through_multi_second() {
        let m = MetricsRegistry::new();
        // 0.25 µs (sub-µs), 3 µs, 900 µs, 40 ms, 2.5 s, 40 s — each an
        // order of magnitude apart, all plausible span durations.
        let samples = [0.25, 3.0, 900.0, 40_000.0, 2_500_000.0, 40_000_000.0];
        for v in samples {
            m.histogram_observe("span.us", v);
        }
        let h = &m.snapshot().histograms["span.us"];
        assert_eq!(h.count, samples.len() as u64);
        // Nothing saturated into the overflow bucket...
        assert_eq!(
            *h.counts.last().unwrap(),
            0,
            "overflow bucket must stay empty"
        );
        // ...and every sample landed in its own bucket.
        let occupied = h.counts.iter().filter(|&&c| c > 0).count();
        assert_eq!(occupied, samples.len(), "each decade resolves distinctly");
        // The ladder is exact powers of two over the µs–s span range.
        assert_eq!(h.bounds.first().copied(), Some(1.0));
        assert_eq!(h.bounds.last().copied(), Some(67_108_864.0));
        for w in h.bounds.windows(2) {
            assert_eq!(w[1], 2.0 * w[0], "bounds must double");
        }
        // Quantiles come from the tallies: the median of six ascending
        // samples is bucket-resolution-close to the fourth value.
        assert_eq!(h.quantile(0.0), 1.0);
        assert!(h.quantile(0.5) >= 900.0 && h.quantile(0.5) <= 65_536.0);
        assert_eq!(h.quantile(1.0), h.max);
    }

    #[test]
    fn nan_observations_land_in_overflow_not_bucket_zero() {
        let m = MetricsRegistry::new();
        m.register_histogram("h", &[1.0, 2.0]);
        m.histogram_observe("h", f64::NAN);
        m.histogram_observe("h", 0.5);
        let h = &m.snapshot().histograms["h"];
        assert_eq!(h.counts, vec![1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn non_ascending_bounds_are_rejected() {
        let m = MetricsRegistry::new();
        m.register_histogram("bad", &[2.0, 1.0]);
    }
}
