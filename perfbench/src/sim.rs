//! Aggregation of simulator reports, and keeper sessions split into
//! plan / build / event-loop time from the outside through probe hooks.

use crate::spans::Spans;
use flash_sim::probe::{CmdIssue, KeeperDecision};
use flash_sim::{IoRequest, LatencyStats, PhaseReport, Probe, SimArena, SimReport};
use ssdkeeper::features::TENANTS;
use ssdkeeper::learner::{split_indices, LabelledDataset};
use ssdkeeper::{
    ChannelAllocator, DecisionScratch, FeatureVector, Keeper, RunMode, RunOutcome, RunSpec,
    Strategy,
};
use std::time::Instant;

/// Sums over every simulator report a workload iteration produced.
#[derive(Debug, Clone, Default)]
pub struct SimTotals {
    /// Reports added.
    pub runs: u64,
    /// Σ `events_processed`.
    pub events: u64,
    /// Requests submitted.
    pub requests: u64,
    /// Requests that completed (read + write latency samples).
    pub completed: u64,
    /// Σ host pages written.
    pub host_pages: u64,
    /// Σ pages moved by GC.
    pub gc_pages_moved: u64,
    /// Σ GC passes.
    pub gc_passes: u64,
    /// Fewest GC passes of any single run (`u64::MAX` before the first).
    pub gc_passes_min_run: u64,
    /// Σ pages seeded for reads of never-written LPNs.
    pub seeded_pages: u64,
    /// Merged phase histograms.
    pub phases: PhaseReport,
    /// Σ finite per-run bus imbalance ratios, and their number.
    pub imbalance_sum: f64,
    /// Runs whose imbalance was finite.
    pub imbalance_runs: u64,
}

impl SimTotals {
    /// Adds one report of a run over `requests` requests.
    pub fn add(&mut self, report: &SimReport, requests: usize) {
        if self.runs == 0 {
            self.gc_passes_min_run = u64::MAX;
        }
        self.runs += 1;
        self.events += report.events_processed;
        self.requests += requests as u64;
        self.completed += report.read.count + report.write.count;
        self.host_pages += report.ftl.host_pages_written;
        self.gc_pages_moved += report.ftl.gc_pages_moved;
        self.gc_passes += report.ftl.gc_invocations;
        self.gc_passes_min_run = self.gc_passes_min_run.min(report.ftl.gc_invocations);
        self.seeded_pages += report.ftl.seeded_pages;
        self.phases.merge(&report.phases);
        let imbalance = report.bus_imbalance();
        if imbalance.is_finite() {
            self.imbalance_sum += imbalance;
            self.imbalance_runs += 1;
        }
    }

    /// Adds every run of `other`.
    pub fn merge(&mut self, other: &SimTotals) {
        if other.runs == 0 {
            return;
        }
        self.gc_passes_min_run = if self.runs == 0 {
            other.gc_min()
        } else {
            self.gc_min().min(other.gc_min())
        };
        self.runs += other.runs;
        self.events += other.events;
        self.requests += other.requests;
        self.completed += other.completed;
        self.host_pages += other.host_pages;
        self.gc_pages_moved += other.gc_pages_moved;
        self.gc_passes += other.gc_passes;
        self.seeded_pages += other.seeded_pages;
        self.phases.merge(&other.phases);
        self.imbalance_sum += other.imbalance_sum;
        self.imbalance_runs += other.imbalance_runs;
    }

    /// Write amplification over every run: (host + GC) / host pages.
    pub fn write_amplification(&self) -> f64 {
        if self.host_pages == 0 {
            1.0
        } else {
            (self.host_pages + self.gc_pages_moved) as f64 / self.host_pages as f64
        }
    }

    /// Fewest GC passes of any run (0 when there was none).
    pub fn gc_min(&self) -> u64 {
        if self.runs == 0 {
            0
        } else {
            self.gc_passes_min_run
        }
    }

    /// Mean finite bus imbalance (max / min channel utilization).
    pub fn bus_imbalance(&self) -> f64 {
        if self.imbalance_runs == 0 {
            0.0
        } else {
            self.imbalance_sum / self.imbalance_runs as f64
        }
    }
}

/// The §III-B metric over merged latency statistics: mean read + mean
/// write latency (µs).
pub fn latency_metric_us(read: &LatencyStats, write: &LatencyStats) -> f64 {
    read.mean_us() + write.mean_us()
}

/// p99 of `stats` in µs, interpolated linearly inside the log₂ bucket
/// that holds it.
///
/// `LatencyStats::percentile_ns` returns the bucket's upper edge, a value
/// that jumps 2× when the quantile crosses an edge. The bucket counts are
/// recovered from it (the `k`-th smallest sample lies in the bucket whose
/// edge `percentile_ns((k - 0.5) / n)` returns), then the p99 position is
/// placed linearly between the bucket's edges.
pub fn p99_us(stats: &LatencyStats) -> f64 {
    let n = stats.count;
    if n == 0 {
        return 0.0;
    }
    let edge_of = |k: u64| stats.percentile_ns((k as f64 - 0.5) / n as f64);
    let target = 0.99 * n as f64;
    let k = (target.ceil() as u64).clamp(1, n);
    let hi = edge_of(k);
    if hi == 0 {
        return 0.0;
    }
    // First and last rank inside the bucket holding rank `k`.
    let first = partition_point(1, k, |r| edge_of(r) < hi);
    let last = partition_point(k, n + 1, |r| edge_of(r) <= hi) - 1;
    // The bucket spans (hi/2, hi], narrowed to the observed extremes.
    let top = hi.min(stats.max_ns) as f64;
    let bottom = ((hi / 2) as f64).max(stats.min_ns as f64).min(top);
    let frac = (target - (first as f64 - 1.0)) / (last - first + 1) as f64;
    (bottom + frac.clamp(0.0, 1.0) * (top - bottom)) / 1e3
}

/// Smallest `r` in `[lo, hi)` with `!pred(r)` (`hi` if none), for a
/// predicate that is true on a prefix.
fn partition_point(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The committed dataset `exp --bin fig4` trained the committed model on.
const DATASET: &str = "artifacts/dataset.txt";
/// `exp --bin fig4`'s default seed, which split that dataset 7:3.
const DATASET_SPLIT_SEED: u64 = 1;

/// The committed dataset's 30 % test split: the held-out set every
/// workload scores its model on.
pub struct HeldOut {
    rows: Vec<FeatureVector>,
    labels: Vec<usize>,
}

impl HeldOut {
    /// Reads the committed dataset and keeps its test split.
    pub fn load() -> Result<Self, String> {
        let text =
            std::fs::read_to_string(DATASET).map_err(|e| format!("reading {DATASET}: {e}"))?;
        let dataset = LabelledDataset::from_text(&text).ok_or("malformed committed dataset")?;
        let (_, test) = split_indices(dataset.samples.len(), DATASET_SPLIT_SEED);
        let (rows, labels) = test
            .iter()
            .map(|&i| {
                (
                    dataset.samples[i].features.clone(),
                    dataset.samples[i].label,
                )
            })
            .unzip();
        Ok(Self { rows, labels })
    }

    /// Class accuracy of `allocator` on the split.
    pub fn accuracy(&self, allocator: &ChannelAllocator) -> f64 {
        let predicted = allocator.predict_batch(&self.rows);
        let hits = predicted
            .iter()
            .zip(&self.labels)
            .filter(|(p, &label)| p.index(TENANTS) == label)
            .count();
        hits as f64 / self.labels.len().max(1) as f64
    }
}

/// Host cost of one batched decision row: `predict_batch_into` over
/// `rows`, repeated for at least 50 ms.
pub fn decide_ns_per_row(allocator: &ChannelAllocator, rows: &[FeatureVector]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let mut scratch = DecisionScratch::new();
    let mut out = Vec::new();
    let mut reps = 0u64;
    let t = Instant::now();
    while reps == 0 || t.elapsed().as_millis() < 50 {
        allocator.predict_batch_into(std::hint::black_box(rows), &mut scratch, &mut out);
        std::hint::black_box(&out);
        reps += 1;
    }
    t.elapsed().as_nanos() as f64 / (reps * rows.len() as u64) as f64
}

/// FNV-1a over `bytes`, folded into `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV0: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of everything a report says about the simulated run.
pub fn report_digest(h: u64, report: &SimReport) -> u64 {
    fnv(h, format!("{report:?}").as_bytes())
}

/// Records the host time of the first engine hook and of the last keeper
/// decision, which split a keeper session into planning, simulator build
/// and event loop without touching the library.
#[derive(Debug, Default)]
struct HookClock {
    last_decision: Option<Instant>,
    first_issue: Option<Instant>,
}

impl Probe for HookClock {
    fn on_cmd_issue(&mut self, _ev: &CmdIssue) {
        if self.first_issue.is_none() {
            self.first_issue = Some(Instant::now());
        }
    }

    fn on_keeper_decision(&mut self, _ev: &KeeperDecision) {
        self.last_decision = Some(Instant::now());
    }
}

/// Runs one keeper session over `trace` in `mode`, with a metrics
/// summary when `metrics` is set. With spans on, a hook clock rides the
/// session and the call is recorded as `keeper.run` with children
/// `keeper.plan` (start to last decision), `flash_sim.build` (to the
/// first command issue) and `flash_sim.run` (the event loop). The
/// session's reported decisions are counted as `keeper.decisions`, and
/// those that moved the channels off the layout in effect (`Shared`
/// first) as `keeper.reallocations`.
pub fn run_keeper(
    keeper: &Keeper,
    (trace, lpn_spaces): (&[IoRequest], &[u64]),
    mode: RunMode,
    metrics: bool,
    arena: &mut SimArena,
    spans: &mut Spans,
) -> Result<RunOutcome, String> {
    // Built per call: the probe borrow must not outlive this function.
    fn spec<'a>(
        trace: &'a [IoRequest],
        spaces: &'a [u64],
        mode: RunMode,
        metrics: bool,
    ) -> RunSpec<'a> {
        RunSpec {
            mode,
            collect_metrics: metrics,
            ..RunSpec::adapt_once(trace, spaces)
        }
    }
    if !spans.enabled() {
        return keeper
            .run_with_arena(spec(trace, lpn_spaces, mode, metrics), arena)
            .map_err(|e| format!("keeper run failed: {e}"));
    }
    spans.span("keeper.run", |spans| {
        let mut clock = HookClock::default();
        let start = Instant::now();
        let spec = spec(trace, lpn_spaces, mode, metrics);
        let out = keeper.run_with_arena(spec.with_probe(&mut clock), arena);
        let end = Instant::now();
        let out = out.map_err(|e| format!("keeper run failed: {e}"))?;
        let planned = clock.last_decision.unwrap_or(start);
        let issued = clock.first_issue.unwrap_or(end);
        if clock.last_decision.is_some() {
            spans.record("keeper.plan", (planned - start).as_nanos() as u64);
        }
        spans.record("flash_sim.build", (issued - planned).as_nanos() as u64);
        spans.record("flash_sim.run", (end - issued).as_nanos() as u64);
        spans.count("flash_sim.events", out.report.events_processed as f64);
        spans.count("keeper.decisions", out.decisions.len() as f64);
        let mut current = Strategy::Shared;
        let mut moved = 0u32;
        for d in &out.decisions {
            if d.strategy != current {
                moved += 1;
                current = d.strategy;
            }
        }
        spans.count("keeper.reallocations", f64::from(moved));
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_interpolated_inside_the_bucket() {
        let mut s = LatencyStats::new();
        for v in 1..=10_000u64 {
            s.record(v * 1_000);
        }
        // Exact p99 is 9 900 µs; the bucket edge alone would say 16 777 µs.
        let p = p99_us(&s);
        assert!((p - 9_900.0).abs() < 10.0, "{p}");
        assert_eq!(p99_us(&LatencyStats::new()), 0.0);
        let mut one = LatencyStats::new();
        one.record(5_000);
        assert_eq!(p99_us(&one), 5.0);
    }
}
