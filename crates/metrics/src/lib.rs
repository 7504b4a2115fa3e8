//! Zero-allocation observability for the emergency-landing stack.
//!
//! The paper's runtime monitor lives on a hard real-time budget, so the
//! instrumentation that watches it must never perturb it: every recording
//! primitive here is a fixed set of preallocated atomics — no heap
//! allocation, no locks, no syscalls on the hot path. Recording is gated
//! by a single process-wide flag ([`set_enabled`], default **off**) read
//! with one relaxed load, and a disabled [`Stopwatch`] skips the clock
//! read entirely, so un-instrumented behaviour is preserved to the
//! nanosecond that matters: a property test in the workspace proves
//! decisions, trials, and scenario fingerprints are bit-identical with
//! metrics on vs off.
//!
//! Latency is tracked in [`Histogram`]s with power-of-two bucket bounds
//! (bucket `i ≥ 1` spans `[2^(i-1), 2^i)` nanoseconds), which cost one
//! `leading_zeros` plus one atomic add per sample. Exact sums and counts
//! are kept alongside the buckets, so callers that need finer resolution
//! than a power of two (the pipeline bench trend check, for instance) can
//! difference `sum_ns`/`count` across [`MetricsRegistry::reset`] calls.
//!
//! The global [`MetricsRegistry`] ([`registry`]) names every metric the
//! stack records; [`MetricsRegistry::snapshot`] freezes it into plain
//! serializable structs for JSON reporting. See `docs/observability.md`
//! for the metric catalogue and schema.

#![warn(missing_docs)]

pub mod fingerprint;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use serde::Serialize;

pub use fingerprint::Fingerprint;

/// Number of histogram buckets. Bucket 0 holds exact zeros; bucket
/// `i ≥ 1` spans `[2^(i-1), 2^i)` ns; the last bucket absorbs everything
/// from `2^(BUCKETS-2)` ns (≈ 2.3 minutes) upward.
pub const BUCKETS: usize = 38;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns global metrics recording on or off (default: off).
///
/// The flag is advisory and relaxed: toggling it concurrently with
/// in-flight recordings may record or drop a handful of samples either
/// way, but never blocks or corrupts a recorder.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether global metrics recording is currently on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing event counter.
///
/// `const`-constructible so registries can live in `static`s without lazy
/// initialization. All operations are relaxed atomics: counts are exact
/// under concurrency, but cross-metric snapshots are only loosely
/// consistent (good enough for reporting, never authoritative for
/// control flow).
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` if metrics are enabled; a single relaxed load otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if is_enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds `n` unconditionally (ignores the global enable flag).
    ///
    /// For standalone counters owned by tests or tools; instrumented
    /// production paths use [`Counter::add`].
    #[inline]
    pub fn add_always(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A started (or suppressed) latency measurement.
///
/// [`Stopwatch::start`] reads the clock only when metrics are enabled;
/// when disabled the stopwatch is inert and recording it is a no-op, so
/// the cost on a disabled hot path is one relaxed load and a branch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts a measurement if metrics are enabled.
    #[inline]
    pub fn start() -> Self {
        if is_enabled() {
            Stopwatch(Some(Instant::now()))
        } else {
            Stopwatch(None)
        }
    }

    /// A stopwatch that never records (for explicit suppression).
    #[inline]
    pub fn disabled() -> Self {
        Stopwatch(None)
    }

    /// Nanoseconds elapsed since start, if the stopwatch is live.
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0.map(|t0| {
            let ns = t0.elapsed().as_nanos();
            u64::try_from(ns).unwrap_or(u64::MAX)
        })
    }
}

/// A fixed-bucket latency histogram with power-of-two bounds.
///
/// All storage is preallocated atomics: recording is one `leading_zeros`,
/// three relaxed `fetch_add`s and two relaxed min/max updates — no
/// allocation, no locks. `count == Σ bucket counts` holds exactly at any
/// quiescent point (each recording touches count and its bucket with
/// separate atomics, so a mid-flight reader may observe them one apart).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// Bucket index for a nanosecond value: 0 for 0, else `bit_width(ns)`
/// clamped to the top bucket (so bucket `i ≥ 1` spans `[2^(i-1), 2^i)`).
#[inline]
fn bucket_index(ns: u64) -> usize {
    let width = (u64::BITS - ns.leading_zeros()) as usize;
    width.min(BUCKETS - 1)
}

/// Inclusive lower bound of bucket `i`, in nanoseconds.
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Exclusive upper bound of bucket `i`, in nanoseconds (`u64::MAX` for
/// the open-ended top bucket).
fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        1
    } else if i == BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records a nanosecond sample unconditionally (ignores the global
    /// enable flag; gating happens in [`Stopwatch::start`]).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records the elapsed time of a live stopwatch; no-op for an inert
    /// one. This is the hot-path recording entry point.
    #[inline]
    pub fn record(&self, sw: Stopwatch) {
        if let Some(ns) = sw.elapsed_ns() {
            self.record_ns(ns);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Clears all buckets and aggregates.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }

    /// Freezes the histogram into a plain serializable summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        let min = self.min_ns.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // Midpoint of the bucket's span: a bounded estimate,
                    // never off by more than the power-of-two resolution.
                    let hi = if i == BUCKETS - 1 {
                        self.max_ns.load(Ordering::Relaxed)
                    } else {
                        bucket_hi(i)
                    };
                    return bucket_lo(i) + (hi.saturating_sub(bucket_lo(i))) / 2;
                }
            }
            self.max_ns.load(Ordering::Relaxed)
        };
        let nonempty: Vec<BucketSnapshot> = buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| BucketSnapshot {
                lo_ns: bucket_lo(i),
                hi_ns: bucket_hi(i),
                count: c,
            })
            .collect();
        HistogramSnapshot {
            count,
            sum_ns,
            min_ns: if count == 0 { 0 } else { min },
            max_ns: self.max_ns.load(Ordering::Relaxed),
            mean_ns: if count == 0 {
                0.0
            } else {
                sum_ns as f64 / count as f64
            },
            p50_ns: quantile(0.50),
            p90_ns: quantile(0.90),
            p99_ns: quantile(0.99),
            buckets: nonempty,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One occupied histogram bucket in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BucketSnapshot {
    /// Inclusive lower bound, ns.
    pub lo_ns: u64,
    /// Exclusive upper bound, ns (`u64::MAX` for the top bucket).
    pub hi_ns: u64,
    /// Samples in this bucket.
    pub count: u64,
}

/// A frozen summary of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Exact sum of all samples, ns.
    pub sum_ns: u64,
    /// Smallest recorded sample, ns (0 when empty).
    pub min_ns: u64,
    /// Largest recorded sample, ns.
    pub max_ns: u64,
    /// Exact mean (`sum_ns / count`), ns.
    pub mean_ns: f64,
    /// Median estimate (bucket-midpoint, power-of-two resolution), ns.
    pub p50_ns: u64,
    /// 90th-percentile estimate, ns.
    pub p90_ns: u64,
    /// 99th-percentile estimate, ns.
    pub p99_ns: u64,
    /// Occupied buckets only, in ascending bound order.
    pub buckets: Vec<BucketSnapshot>,
}

/// Number of hazard-event counters (mirrors
/// `HazardCategory::ALL.len()` in `el-uavsim`; the one campaign runner,
/// `Scenario::run_with`, indexes these by that array's order).
pub const HAZARD_SLOTS: usize = 6;

/// Every metric the emergency-landing stack records, preallocated.
///
/// Lives behind [`registry`] as a process-wide static; see
/// `docs/observability.md` for what each field measures and where it is
/// recorded from.
#[derive(Debug)]
pub struct MetricsRegistry {
    // -- monitor engine --------------------------------------------------
    /// `Monitor::verify` wall time, one sample per crop.
    pub verify_latency: Histogram,
    /// Verification-batch wall time (`Monitor::verify_batch` or the
    /// `el-core` verify stage), one sample per batch.
    pub verify_batch_latency: Histogram,
    /// One Monte-Carlo task of the block pass (one row band of a crop or
    /// audit tile: prefix GEMMs, every sample's suffix, softmax and
    /// Welford fold, and the in-place write of mean and `σ`), recorded
    /// once per task. Samples interleave per block, so the count is the
    /// number of tasks, not of samples; the sum is the pass's whole
    /// Monte-Carlo time.
    pub sample_fold: Histogram,
    /// Monte-Carlo samples executed.
    pub samples_run: Counter,
    /// One `gemm_bias` kernel invocation, recorded in `el-kernels`.
    pub gemm: Histogram,
    // -- tiled audit -----------------------------------------------------
    /// Cost of verifying one audit tile.
    pub tile_cost: Histogram,
    /// Tiles refused admission by the predictive budget check (counts
    /// every tile left unverified when the check fires).
    pub tile_refusals: Counter,
    /// Tiles the audit pass planned to verify.
    pub tiles_planned: Counter,
    /// Tiles actually verified before the budget expired.
    pub tiles_verified: Counter,
    // -- pipeline stages -------------------------------------------------
    /// `ElPipeline::run` propose stage (segmentation + zone proposal).
    pub stage_propose: Histogram,
    /// `ElPipeline::run` verify stage (batched monitor verification).
    pub stage_verify: Histogram,
    /// `ElPipeline::run` decide stage (sequential decision replay).
    pub stage_decide: Histogram,
    /// `ElPipeline::run` audit stage (budgeted tiled audit).
    pub stage_audit: Histogram,
    /// Completed `ElPipeline::run` invocations.
    pub pipeline_runs: Counter,
    /// Monitor trials replayed by the decision stage.
    pub verify_trials: Counter,
    // -- campaign --------------------------------------------------------
    /// Wall time of one simulated mission.
    pub mission_wall: Histogram,
    /// Missions executed.
    pub missions_run: Counter,
    /// Hazard events observed across missions, indexed by
    /// `HazardCategory::ALL` order.
    pub hazard_events: [Counter; HAZARD_SLOTS],
    // -- multi-stream service --------------------------------------------
    /// `ElService::tick` wall time (one coalesced cross-stream batch).
    pub serve_tick: Histogram,
    /// Crops per coalesced verify batch (a count distribution — the
    /// histogram's ns buckets double as plain power-of-two count bins).
    pub serve_batch_crops: Histogram,
    /// Frames pending at tick start (same count-distribution convention).
    pub serve_queue_depth: Histogram,
    /// Frames fully processed by the service (admitted and decided).
    pub serve_frames: Counter,
    /// Frames refused admission by the predictive cost model.
    pub serve_refusals: Counter,
    /// Sessions opened over the service's lifetime.
    pub serve_sessions: Counter,
    // -- fleet risk map --------------------------------------------------
    /// `RiskMap::ingest_batch` wall time, one sample per tick batch.
    pub riskmap_ingest: Histogram,
    /// Cells at or above the veto threshold after each tick's ingestion
    /// (count distribution — the ns buckets double as count bins).
    pub riskmap_cells_hot: Histogram,
    /// Eager decay sweeps executed over the whole grid.
    pub riskmap_decay_sweeps: Counter,
    /// Zone candidates vetoed by the risk screen before verification.
    pub riskmap_vetoes: Counter,
    /// Zone candidates deprioritised (kept, moved behind clear ones).
    pub riskmap_deprioritized: Counter,
    /// Anomalous regions accepted into the grid.
    pub riskmap_regions: Counter,
    /// Regions rejected at ingestion (non-finite score).
    pub riskmap_rejects: Counter,
}

impl MetricsRegistry {
    /// A zeroed registry.
    pub const fn new() -> Self {
        MetricsRegistry {
            verify_latency: Histogram::new(),
            verify_batch_latency: Histogram::new(),
            sample_fold: Histogram::new(),
            samples_run: Counter::new(),
            gemm: Histogram::new(),
            tile_cost: Histogram::new(),
            tile_refusals: Counter::new(),
            tiles_planned: Counter::new(),
            tiles_verified: Counter::new(),
            stage_propose: Histogram::new(),
            stage_verify: Histogram::new(),
            stage_decide: Histogram::new(),
            stage_audit: Histogram::new(),
            pipeline_runs: Counter::new(),
            verify_trials: Counter::new(),
            mission_wall: Histogram::new(),
            missions_run: Counter::new(),
            hazard_events: [const { Counter::new() }; HAZARD_SLOTS],
            serve_tick: Histogram::new(),
            serve_batch_crops: Histogram::new(),
            serve_queue_depth: Histogram::new(),
            serve_frames: Counter::new(),
            serve_refusals: Counter::new(),
            serve_sessions: Counter::new(),
            riskmap_ingest: Histogram::new(),
            riskmap_cells_hot: Histogram::new(),
            riskmap_decay_sweeps: Counter::new(),
            riskmap_vetoes: Counter::new(),
            riskmap_deprioritized: Counter::new(),
            riskmap_regions: Counter::new(),
            riskmap_rejects: Counter::new(),
        }
    }

    /// Clears every metric.
    pub fn reset(&self) {
        self.verify_latency.reset();
        self.verify_batch_latency.reset();
        self.sample_fold.reset();
        self.samples_run.reset();
        self.gemm.reset();
        self.tile_cost.reset();
        self.tile_refusals.reset();
        self.tiles_planned.reset();
        self.tiles_verified.reset();
        self.stage_propose.reset();
        self.stage_verify.reset();
        self.stage_decide.reset();
        self.stage_audit.reset();
        self.pipeline_runs.reset();
        self.verify_trials.reset();
        self.mission_wall.reset();
        self.missions_run.reset();
        for c in &self.hazard_events {
            c.reset();
        }
        self.serve_tick.reset();
        self.serve_batch_crops.reset();
        self.serve_queue_depth.reset();
        self.serve_frames.reset();
        self.serve_refusals.reset();
        self.serve_sessions.reset();
        self.riskmap_ingest.reset();
        self.riskmap_cells_hot.reset();
        self.riskmap_decay_sweeps.reset();
        self.riskmap_vetoes.reset();
        self.riskmap_deprioritized.reset();
        self.riskmap_regions.reset();
        self.riskmap_rejects.reset();
    }

    /// Freezes the whole registry into plain serializable structs.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let planned = self.tiles_planned.get();
        let verified = self.tiles_verified.get();
        MetricsSnapshot {
            enabled: is_enabled(),
            monitor: MonitorMetrics {
                verify: self.verify_latency.snapshot(),
                verify_batch: self.verify_batch_latency.snapshot(),
                sample_fold: self.sample_fold.snapshot(),
                gemm: self.gemm.snapshot(),
                samples_run: self.samples_run.get(),
            },
            audit: AuditMetrics {
                tile_cost: self.tile_cost.snapshot(),
                refusals: self.tile_refusals.get(),
                planned,
                verified,
                coverage: if planned == 0 {
                    1.0
                } else {
                    verified as f64 / planned as f64
                },
            },
            pipeline: PipelineMetrics {
                propose: self.stage_propose.snapshot(),
                verify: self.stage_verify.snapshot(),
                decide: self.stage_decide.snapshot(),
                audit: self.stage_audit.snapshot(),
                runs: self.pipeline_runs.get(),
                trials: self.verify_trials.get(),
            },
            campaign: CampaignMetrics {
                mission_wall: self.mission_wall.snapshot(),
                missions: self.missions_run.get(),
                hazard_events: self.hazard_events.iter().map(Counter::get).collect(),
            },
            serve: ServeMetrics {
                tick: self.serve_tick.snapshot(),
                batch_crops: self.serve_batch_crops.snapshot(),
                queue_depth: self.serve_queue_depth.snapshot(),
                frames: self.serve_frames.get(),
                refusals: self.serve_refusals.get(),
                sessions: self.serve_sessions.get(),
            },
            riskmap: RiskmapMetrics {
                ingest: self.riskmap_ingest.snapshot(),
                cells_hot: self.riskmap_cells_hot.snapshot(),
                decay_sweeps: self.riskmap_decay_sweeps.get(),
                vetoes: self.riskmap_vetoes.get(),
                deprioritized: self.riskmap_deprioritized.get(),
                regions: self.riskmap_regions.get(),
                rejects: self.riskmap_rejects.get(),
            },
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

static REGISTRY: MetricsRegistry = MetricsRegistry::new();

/// The process-wide metrics registry.
#[inline]
pub fn registry() -> &'static MetricsRegistry {
    &REGISTRY
}

/// Monitor-engine metrics, frozen.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MonitorMetrics {
    /// Per-crop `Monitor::verify` latency.
    pub verify: HistogramSnapshot,
    /// Per-batch `Monitor::verify_batch` latency.
    pub verify_batch: HistogramSnapshot,
    /// Per-task Monte-Carlo block-pass latency.
    pub sample_fold: HistogramSnapshot,
    /// Per-call GEMM kernel latency.
    pub gemm: HistogramSnapshot,
    /// Monte-Carlo samples executed.
    pub samples_run: u64,
}

/// Tiled-audit metrics, frozen.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AuditMetrics {
    /// Per-tile verification cost.
    pub tile_cost: HistogramSnapshot,
    /// Tiles refused admission on budget grounds.
    pub refusals: u64,
    /// Tiles planned across all audit passes.
    pub planned: u64,
    /// Tiles verified across all audit passes.
    pub verified: u64,
    /// `verified / planned` (1.0 when nothing was planned).
    pub coverage: f64,
}

/// Pipeline-stage metrics, frozen.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineMetrics {
    /// Propose-stage latency.
    pub propose: HistogramSnapshot,
    /// Verify-stage latency.
    pub verify: HistogramSnapshot,
    /// Decide-stage latency.
    pub decide: HistogramSnapshot,
    /// Audit-stage latency.
    pub audit: HistogramSnapshot,
    /// Completed pipeline runs.
    pub runs: u64,
    /// Monitor trials replayed.
    pub trials: u64,
}

/// Scenario campaign-runner metrics, frozen.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignMetrics {
    /// Per-mission wall time.
    pub mission_wall: HistogramSnapshot,
    /// Missions executed.
    pub missions: u64,
    /// Hazard events by `HazardCategory::ALL` index.
    pub hazard_events: Vec<u64>,
}

/// Multi-stream service metrics, frozen.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeMetrics {
    /// Per-tick latency (one coalesced cross-stream batch).
    pub tick: HistogramSnapshot,
    /// Crops per coalesced verify batch (count distribution).
    pub batch_crops: HistogramSnapshot,
    /// Frames pending at tick start (count distribution).
    pub queue_depth: HistogramSnapshot,
    /// Frames fully processed.
    pub frames: u64,
    /// Frames refused admission.
    pub refusals: u64,
    /// Sessions opened.
    pub sessions: u64,
}

/// Fleet risk-map metrics, frozen.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RiskmapMetrics {
    /// Per-tick batch ingestion latency.
    pub ingest: HistogramSnapshot,
    /// Cells at/above the veto threshold per tick (count distribution).
    pub cells_hot: HistogramSnapshot,
    /// Eager decay sweeps executed.
    pub decay_sweeps: u64,
    /// Candidates vetoed before verification.
    pub vetoes: u64,
    /// Candidates deprioritised before verification.
    pub deprioritized: u64,
    /// Regions accepted into the grid.
    pub regions: u64,
    /// Regions rejected at ingestion (non-finite score).
    pub rejects: u64,
}

/// The whole registry, frozen for JSON reporting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Whether recording was enabled at snapshot time.
    pub enabled: bool,
    /// Monitor-engine metrics.
    pub monitor: MonitorMetrics,
    /// Tiled-audit metrics.
    pub audit: AuditMetrics,
    /// Pipeline-stage metrics.
    pub pipeline: PipelineMetrics,
    /// Scenario campaign-runner metrics.
    pub campaign: CampaignMetrics,
    /// Multi-stream service metrics.
    pub serve: ServeMetrics,
    /// Fleet risk-map metrics.
    pub riskmap: RiskmapMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The enable flag is process-global; tests that touch it serialize
    // through this lock so cargo's parallel test threads don't race.
    static FLAG: Mutex<()> = Mutex::new(());

    #[test]
    fn bucket_bounds_partition_the_line() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        for i in 0..BUCKETS {
            let lo = bucket_lo(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            if i < BUCKETS - 1 {
                assert_eq!(bucket_index(bucket_hi(i) - 1), i);
                assert_eq!(bucket_index(bucket_hi(i)), i + 1);
            }
        }
    }

    #[test]
    fn histogram_aggregates_are_exact() {
        let h = Histogram::new();
        for ns in [0u64, 1, 7, 8, 1023, 1024, 5_000_000] {
            h.record_ns(ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum_ns, 5_002_063);
        assert_eq!(snap.min_ns, 0);
        assert_eq!(snap.max_ns, 5_000_000);
        let bucket_total: u64 = snap.buckets.iter().map(|b| b.count).sum();
        assert_eq!(bucket_total, snap.count);
        // 0 and 1 land in distinct buckets; 1023 and 1024 too.
        assert!(snap.buckets.len() >= 5);
    }

    #[test]
    fn quantiles_stay_within_bucket_resolution() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_ns(100);
        }
        for _ in 0..10 {
            h.record_ns(10_000);
        }
        let snap = h.snapshot();
        // p50 must fall in 100's bucket [64, 128).
        assert!((64..128).contains(&snap.p50_ns), "p50 {}", snap.p50_ns);
        // p99 must fall in 10_000's bucket [8192, 16384).
        assert!((8192..16384).contains(&snap.p99_ns), "p99 {}", snap.p99_ns);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 4;
        let per_thread = 10_000u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    h.record_ns(t as u64 * 1000 + i % 257);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, threads as u64 * per_thread);
        let bucket_total: u64 = snap.buckets.iter().map(|b| b.count).sum();
        assert_eq!(bucket_total, snap.count);
    }

    #[test]
    fn disabled_stopwatch_and_counter_record_nothing() {
        let _guard = FLAG.lock().unwrap();
        set_enabled(false);
        let c = Counter::new();
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = Histogram::new();
        h.record(Stopwatch::start());
        assert_eq!(h.count(), 0);
        set_enabled(true);
        c.add(5);
        assert_eq!(c.get(), 5);
        h.record(Stopwatch::start());
        assert_eq!(h.count(), 1);
        set_enabled(false);
    }

    #[test]
    fn serve_group_snapshots_and_resets() {
        let reg = MetricsRegistry::new();
        reg.serve_tick.record_ns(2_000);
        reg.serve_batch_crops.record_ns(6);
        reg.serve_queue_depth.record_ns(3);
        reg.serve_frames.add_always(8);
        reg.serve_refusals.add_always(2);
        reg.serve_sessions.add_always(4);
        let snap = reg.snapshot();
        assert_eq!(snap.serve.tick.count, 1);
        assert_eq!(snap.serve.batch_crops.sum_ns, 6);
        assert_eq!(snap.serve.queue_depth.max_ns, 3);
        assert_eq!(snap.serve.frames, 8);
        assert_eq!(snap.serve.refusals, 2);
        assert_eq!(snap.serve.sessions, 4);
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        assert!(json.contains("\"serve\""));
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.serve.tick.count, 0);
        assert_eq!(snap.serve.frames, 0);
    }

    #[test]
    fn riskmap_group_snapshots_and_resets() {
        let reg = MetricsRegistry::new();
        reg.riskmap_ingest.record_ns(900);
        reg.riskmap_cells_hot.record_ns(5);
        reg.riskmap_decay_sweeps.add_always(2);
        reg.riskmap_vetoes.add_always(3);
        reg.riskmap_deprioritized.add_always(1);
        reg.riskmap_regions.add_always(7);
        reg.riskmap_rejects.add_always(1);
        let snap = reg.snapshot();
        assert_eq!(snap.riskmap.ingest.count, 1);
        assert_eq!(snap.riskmap.cells_hot.max_ns, 5);
        assert_eq!(snap.riskmap.decay_sweeps, 2);
        assert_eq!(snap.riskmap.vetoes, 3);
        assert_eq!(snap.riskmap.deprioritized, 1);
        assert_eq!(snap.riskmap.regions, 7);
        assert_eq!(snap.riskmap.rejects, 1);
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        assert!(json.contains("\"riskmap\""));
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.riskmap.ingest.count, 0);
        assert_eq!(snap.riskmap.vetoes, 0);
    }

    #[test]
    fn registry_snapshot_serializes() {
        let _guard = FLAG.lock().unwrap();
        let reg = MetricsRegistry::new();
        reg.stage_propose.record_ns(1500);
        reg.pipeline_runs.add_always(1);
        let snap = reg.snapshot();
        assert_eq!(snap.pipeline.propose.count, 1);
        assert_eq!(snap.pipeline.runs, 1);
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        assert!(json.contains("\"pipeline\""));
        assert!(json.contains("\"sum_ns\":1500"));
        reg.reset();
        assert_eq!(reg.snapshot().pipeline.propose.count, 0);
        assert_eq!(reg.snapshot().pipeline.runs, 0);
    }
}
