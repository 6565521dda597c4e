//! Throughput/latency counters for the batching server, kept on
//! `scissor_obs` handles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use scissor_obs::{Counter, Histogram, HistogramValue, Registry};

/// Smoothing factor of the per-replica service-time EWMA, in percent
/// (`20` ⇒ α = 0.2: each new batch contributes a fifth of the estimate —
/// responsive to drift, robust to one-off stalls).
pub const DEFAULT_EWMA_ALPHA_PCT: u8 = 20;

/// An exponentially-weighted moving average: `v' = α·x + (1−α)·v`, with
/// `α` fixed at construction as a percentage in `[1, 100]`.
///
/// The estimator the latency-aware router routes on. Its two contracts
/// (property-tested in `tests/ewma_prop.rs`):
///
/// * the estimate always lies within the closed min/max envelope of the
///   observations so far (α = 100 degenerates to "latest sample");
/// * on constant input it converges monotonically toward that constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha_pct: u8,
    value: Option<f64>,
}

impl Ewma {
    /// A fresh estimator with smoothing `alpha_pct` clamped to `[1, 100]`.
    pub fn new(alpha_pct: u8) -> Self {
        Self { alpha_pct: alpha_pct.clamp(1, 100), value: None }
    }

    /// Folds one observation in and returns the updated estimate. The
    /// first observation seeds the estimate exactly.
    pub fn update(&mut self, x: f64) -> f64 {
        let alpha = f64::from(self.alpha_pct) / 100.0;
        let v = match self.value {
            None => x,
            Some(v) => alpha * x + (1.0 - alpha) * v,
        };
        self.value = Some(v);
        v
    }

    /// The current estimate; `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// A model's cumulative serve counters, as shared `scissor_obs` handles.
///
/// `scissor_router` registers one set per model
/// ([`ServeMetrics::registered`]) and starts every replica of the model
/// with a clone, so the counters outlive any one replica: a scale-down
/// loses nothing and needs no merge. A replica started without a set
/// keeps a private, unregistered one (`ServeMetrics::default()`).
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    /// Submit→delivery latency in ns; its count is the number of
    /// delivered requests (= samples carried by forward passes).
    latency_ns: Histogram,
    batches: Counter,
    full_batches: Counter,
    shed: Counter,
    infer_ns: Counter,
}

impl ServeMetrics {
    /// Handles registered in `registry` as the histogram
    /// `<prefix>.latency_ns` and the counters `<prefix>.batches`,
    /// `<prefix>.full_batches`, `<prefix>.shed` and `<prefix>.infer_ns`.
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        let counter = |key: &str| registry.counter(&format!("{prefix}.{key}"));
        Self {
            latency_ns: registry.histogram(&format!("{prefix}.latency_ns")),
            batches: counter("batches"),
            full_batches: counter("full_batches"),
            shed: counter("shed"),
            infer_ns: counter("infer_ns"),
        }
    }

    /// A reading of the counters. The per-replica gauges `queue_depth`
    /// and `ewma_service_ns` read 0: no shared handle holds them.
    pub fn snapshot(&self) -> ServeStats {
        // Handles are read one by one (no global lock), so a snapshot
        // taken mid-batch can tear — e.g. observe a batch's
        // `full_batches` increment but not its `batches` increment.
        // Reading `full_batches` first (the reverse of `record_batch`'s
        // order) makes that unlikely, but relaxed atomics guarantee
        // nothing across cells: `timeout_batches` saturates, which is the
        // actual guard.
        let full_batches = self.full_batches.get();
        let batches = self.batches.get();
        let latency = self.latency_ns.value();
        ServeStats {
            requests: latency.count,
            batches,
            samples: latency.count,
            full_batches,
            shed: self.shed.get(),
            queue_depth: 0,
            infer_time: Duration::from_nanos(self.infer_ns.get()),
            latency,
            ewma_service_ns: 0,
        }
    }
}

/// One replica's stats: the (possibly shared) counter handles plus the
/// two routing signals that stay per replica.
#[derive(Default)]
pub(crate) struct StatsInner {
    metrics: ServeMetrics,
    queue_depth: AtomicU64,
    /// Per-sample service-time EWMA as f64 bits; `0` = no batch yet (a
    /// genuine 0.0 estimate is stored as `-0.0` bits, numerically equal).
    ewma_service_bits: AtomicU64,
}

impl StatsInner {
    pub(crate) fn new(metrics: ServeMetrics) -> Self {
        Self { metrics, ..Self::default() }
    }

    pub(crate) fn record_request(&self, latency_ns: u64) {
        self.metrics.latency_ns.record(latency_ns);
    }

    pub(crate) fn record_batch(&self, size: u64, full: bool, infer_ns: u64) {
        self.metrics.batches.inc();
        if full {
            self.metrics.full_batches.inc();
        }
        self.metrics.infer_ns.add(infer_ns);
        if size > 0 {
            self.record_service(infer_ns as f64 / size as f64);
        }
    }

    /// Folds one per-sample service-time observation into the EWMA with a
    /// CAS loop (several batcher threads may land batches concurrently).
    // ordering: Relaxed — the CAS loop only needs atomicity of the
    // single u64 cell (lost-update prevention); the EWMA value is
    // self-contained and readers take any recent estimate.
    fn record_service(&self, per_sample_ns: f64) {
        let _ = self.ewma_service_bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            let mut e = Ewma {
                alpha_pct: DEFAULT_EWMA_ALPHA_PCT,
                value: if bits == 0 { None } else { Some(f64::from_bits(bits)) },
            };
            let v = e.update(per_sample_ns);
            Some(if v == 0.0 { (-0.0f64).to_bits() } else { v.to_bits() })
        });
    }

    /// Current per-sample service-time EWMA in nanoseconds (rounded);
    /// `0` until the first batch lands. Lock-free.
    // ordering: Relaxed — self-contained estimate; see `record_service`.
    pub(crate) fn ewma_service_ns(&self) -> u64 {
        let bits = self.ewma_service_bits.load(Ordering::Relaxed);
        if bits == 0 {
            0
        } else {
            f64::from_bits(bits).round().max(0.0) as u64
        }
    }

    /// Clears the service-time EWMA so the estimator re-learns from
    /// scratch (a rebalance actuation: stale estimates should not keep
    /// steering traffic after conditions changed).
    // ordering: Relaxed — see `record_service`: the cell is
    // self-contained; a racing CAS may legitimately land after the reset.
    pub(crate) fn reset_ewma(&self) {
        self.ewma_service_bits.store(0, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.metrics.shed.inc();
    }

    /// Sets the queue-depth gauge; called while the queue lock is held so
    /// the gauge tracks the queue exactly at mutation points.
    // ordering: Relaxed — writers are serialized by the queue lock; the
    // lock-free readers (routing heuristics) accept any recent depth.
    pub(crate) fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Current queue-depth gauge (cheap, lock-free read).
    // ordering: Relaxed — see `set_queue_depth`; advisory gauge read.
    pub(crate) fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    pub(crate) fn snapshot(&self) -> ServeStats {
        ServeStats {
            queue_depth: self.queue_depth(),
            ewma_service_ns: self.ewma_service_ns(),
            ..self.metrics.snapshot()
        }
    }
}

/// A point-in-time snapshot of a server's counters.
///
/// Counters are cumulative over the life of the [`ServeMetrics`] handles
/// they were read from — under `scissor_router`, a model's handles, which
/// outlive its replicas. The snapshot is taken handle by handle without a
/// global lock, so totals may be a few in-flight requests apart from each
/// other under load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests whose logits have been delivered.
    pub requests: u64,
    /// Forward passes executed.
    pub batches: u64,
    /// Samples carried across all forward passes (= delivered requests).
    pub samples: u64,
    /// Batches flushed because they reached `max_batch` (the rest flushed
    /// on the `max_wait` timeout or shutdown drain).
    pub full_batches: u64,
    /// Submissions rejected because the bounded queue was at capacity.
    pub shed: u64,
    /// Queue depth (pending, not-yet-drained requests) at snapshot time —
    /// a gauge, not a cumulative counter.
    pub queue_depth: u64,
    /// Time spent inside `CompiledNet::infer_into`.
    pub infer_time: Duration,
    /// Submit→delivery latency distribution in nanoseconds: log₂ buckets
    /// with true bounds, plus the exact count, sum and max.
    pub latency: HistogramValue,
    /// Per-sample service-time EWMA in nanoseconds (`infer_time` of each
    /// batch divided by its size, exponentially smoothed) — the signal
    /// latency-aware routing scores replicas by. `0` until the first
    /// batch lands; a gauge, not a cumulative counter.
    pub ewma_service_ns: u64,
}

impl ServeStats {
    /// Mean realized batch size.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.samples as f64 / self.batches as f64
        }
    }

    /// Mean submit→delivery latency (zero when nothing was delivered).
    pub fn mean_latency(&self) -> Duration {
        Duration::from_nanos(self.latency.sum.checked_div(self.latency.count).unwrap_or(0))
    }

    /// Worst single-request submit→delivery latency.
    pub fn max_latency(&self) -> Duration {
        Duration::from_nanos(self.latency.max)
    }

    /// The latency quantile `q ∈ [0, 1]` read off the histogram
    /// ([`HistogramValue::quantile`]): the containing bucket's upper bound
    /// clamped to [`ServeStats::max_latency`] — with log₂ buckets the
    /// true quantile is at most 2× smaller. Returns `Duration::ZERO` when
    /// no request has been recorded.
    pub fn latency_percentile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.latency.quantile(q))
    }

    /// Median submit→delivery latency (histogram bucket upper bound).
    pub fn p50_latency(&self) -> Duration {
        self.latency_percentile(0.50)
    }

    /// 95th-percentile submit→delivery latency.
    pub fn p95_latency(&self) -> Duration {
        self.latency_percentile(0.95)
    }

    /// 99th-percentile submit→delivery latency.
    pub fn p99_latency(&self) -> Duration {
        self.latency_percentile(0.99)
    }

    /// 99.9th-percentile submit→delivery latency — the tail the
    /// observability snapshot reports (at ≥1000 requests it resolves
    /// beyond p99; below that it reads as the max-ish tail).
    pub fn p999_latency(&self) -> Duration {
        self.latency_percentile(0.999)
    }

    /// Batches flushed by the `max_wait` timer (or the shutdown drain)
    /// rather than by filling up.
    pub fn timeout_batches(&self) -> u64 {
        self.batches.saturating_sub(self.full_batches)
    }

    /// Delivered samples per second of inference time (the compute-bound
    /// throughput ceiling; end-to-end throughput also includes queueing).
    pub fn infer_throughput(&self) -> f64 {
        let secs = self.infer_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.samples as f64 / secs
        }
    }

    /// Merges another snapshot into this one (counters and latency
    /// histograms add; gauges add — the merged `queue_depth` is the
    /// combined backlog; `ewma_service_ns` takes the max: the merged view
    /// reports the *slowest* replica's estimate).
    pub fn merge(&mut self, other: &ServeStats) {
        self.ewma_service_ns = self.ewma_service_ns.max(other.ewma_service_ns);
        self.requests += other.requests;
        self.batches += other.batches;
        self.samples += other.samples;
        self.full_batches += other.full_batches;
        self.shed += other.shed;
        self.queue_depth += other.queue_depth;
        self.infer_time += other.infer_time;
        self.latency.merge(&other.latency);
    }

    /// An all-zero snapshot (the identity for [`ServeStats::merge`]).
    pub fn zero() -> Self {
        ServeStats {
            requests: 0,
            batches: 0,
            samples: 0,
            full_batches: 0,
            shed: 0,
            queue_depth: 0,
            infer_time: Duration::ZERO,
            latency: HistogramValue::zero(),
            ewma_service_ns: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_events() {
        let inner = StatsInner::default();
        inner.record_request(1_000);
        inner.record_request(3_000);
        inner.record_batch(2, true, 500);
        inner.record_batch(1, false, 250);
        inner.record_request(2_000);
        let s = inner.snapshot();
        assert_eq!(s.requests, 3);
        assert_eq!(s.batches, 2);
        assert_eq!(s.samples, 3);
        assert_eq!(s.full_batches, 1);
        assert_eq!(s.shed, 0);
        assert_eq!(s.timeout_batches(), 1);
        assert_eq!(s.max_latency(), Duration::from_nanos(3_000));
        assert_eq!(s.mean_latency(), Duration::from_nanos(2_000));
        assert!((s.mean_batch_size() - 1.5).abs() < 1e-12);
        assert!(s.infer_throughput() > 0.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = StatsInner::default().snapshot();
        assert_eq!(s.mean_batch_size(), 0.0);
        assert_eq!(s.mean_latency(), Duration::ZERO);
        assert_eq!(s.infer_throughput(), 0.0);
        assert_eq!(s.latency_percentile(0.5), Duration::ZERO);
        assert_eq!(s, ServeStats::zero());
    }

    #[test]
    fn shed_and_depth_counters() {
        let inner = StatsInner::default();
        inner.record_shed();
        inner.record_shed();
        inner.set_queue_depth(7);
        let s = inner.snapshot();
        assert_eq!(s.shed, 2);
        assert_eq!(s.queue_depth, 7);
        assert_eq!(inner.queue_depth(), 7);
    }

    #[test]
    fn percentiles_read_off_the_histogram() {
        let inner = StatsInner::default();
        // 90 fast requests (~1 µs), 9 at ~1 ms, 1 at ~1 s.
        for _ in 0..90 {
            inner.record_request(1_000);
        }
        for _ in 0..9 {
            inner.record_request(1_000_000);
        }
        inner.record_request(1_000_000_000);
        let s = inner.snapshot();
        // Bucket upper bounds: the p50/p90 land in the ~1 µs bucket
        // ([512, 1024) ns → upper 1024), p95 in the ~1 ms bucket, p100 in
        // the ~1 s bucket.
        assert_eq!(s.p50_latency(), Duration::from_nanos(1024));
        assert_eq!(s.latency_percentile(0.90), Duration::from_nanos(1024));
        assert_eq!(s.p95_latency(), Duration::from_nanos(1 << 20));
        assert_eq!(s.p99_latency(), Duration::from_nanos(1 << 20));
        // The top quantile's bucket bound (2^30 ns) exceeds the recorded
        // max, so it clamps to the max — no percentile ever reads above it.
        assert_eq!(s.latency_percentile(1.0), Duration::from_nanos(1_000_000_000));
        assert!(s.p50_latency() <= s.p95_latency());
        assert!(s.p95_latency() <= s.p99_latency());
        assert!(s.p99_latency() <= s.p999_latency());
    }

    #[test]
    fn p999_resolves_a_one_in_a_thousand_tail() {
        let inner = StatsInner::default();
        // 900 fast requests and exactly one slow one (rank ceil(0.999·901)
        // = 901): p99 stays in the fast bucket, p99.9 must reach the slow
        // one.
        for _ in 0..900 {
            inner.record_request(1_000);
        }
        inner.record_request(1_000_000);
        let s = inner.snapshot();
        assert_eq!(s.p99_latency(), Duration::from_nanos(1024));
        // Bucket upper 2^20 ns clamps to the observed max (1 ms).
        assert_eq!(s.p999_latency(), Duration::from_nanos(1_000_000));
    }

    #[test]
    fn top_bucket_quantiles_report_max_not_a_fabricated_bound() {
        let inner = StatsInner::default();
        // A ~17.5 min latency lies past 2^39 ns ≈ 9.2 min. Its quantile
        // reports the observed max, not a fabricated bucket bound.
        let slow_ns = 1_050_000_000_000u64; // > 2^39
        for _ in 0..9 {
            inner.record_request(1_000);
        }
        inner.record_request(slow_ns);
        let s = inner.snapshot();
        assert_eq!(s.latency_percentile(1.0), Duration::from_nanos(slow_ns));
        assert_eq!(s.p999_latency(), Duration::from_nanos(slow_ns));
        assert!(s.latency_percentile(1.0) > Duration::from_nanos(1u64 << 39));
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        let mut e = Ewma::new(20);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(100.0), 100.0, "first observation seeds exactly");
        // 0.2·200 + 0.8·100 = 120.
        assert!((e.update(200.0) - 120.0).abs() < 1e-9);
        let latest_only = Ewma::new(100).value;
        assert_eq!(latest_only, None);
        let mut latest = Ewma::new(100);
        latest.update(5.0);
        assert_eq!(latest.update(9.0), 9.0, "alpha=100% degenerates to the latest sample");
        // Out-of-range alphas clamp instead of dividing by zero / freezing.
        let mut z = Ewma::new(0);
        z.update(3.0);
        assert!((z.update(7.0) - (3.0 + 0.01 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn service_ewma_tracks_batches_and_resets() {
        let inner = StatsInner::default();
        assert_eq!(inner.ewma_service_ns(), 0, "no batch yet");
        inner.record_batch(2, false, 2_000); // 1000 ns/sample seeds
        assert_eq!(inner.ewma_service_ns(), 1_000);
        inner.record_batch(1, false, 2_000); // 0.2·2000 + 0.8·1000 = 1200
        assert_eq!(inner.ewma_service_ns(), 1_200);
        assert_eq!(inner.snapshot().ewma_service_ns, 1_200);
        inner.reset_ewma();
        assert_eq!(inner.ewma_service_ns(), 0);
        // A genuine zero-duration batch (virtual-clock runs) still counts
        // as "seen": the gauge distinguishes it from "no data".
        inner.record_batch(4, true, 0);
        assert_eq!(inner.ewma_service_ns(), 0);
        assert_ne!(inner.ewma_service_bits.load(Ordering::Relaxed), 0);
        inner.record_batch(1, false, 1_000_000);
        // Seeded at 0.0, so the million-ns batch pulls the EWMA up by α.
        assert_eq!(inner.ewma_service_ns(), 200_000);
    }

    #[test]
    fn merge_adds_counters_and_maxes_latency() {
        let a = StatsInner::default();
        a.record_request(1_000);
        a.record_batch(1, true, 100);
        a.set_queue_depth(2);
        let b = StatsInner::default();
        b.record_request(5_000);
        b.record_request(3_000);
        b.record_batch(2, false, 300);
        b.record_shed();
        b.set_queue_depth(1);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.requests, 3);
        assert_eq!(m.batches, 2);
        assert_eq!(m.samples, 3);
        assert_eq!(m.shed, 1);
        assert_eq!(m.queue_depth, 3);
        assert_eq!(m.max_latency(), Duration::from_nanos(5_000));
        assert_eq!(m.latency.sum, 9_000);
        assert_eq!(m.latency.buckets.iter().sum::<u64>(), 3);
    }
}
