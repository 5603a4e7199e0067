//! The repository benchmark: end-to-end and per-layer metrics of the
//! SSDKeeper reproduction on two workloads, the offline and the online
//! side of SSDKeeper.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline_quick|online --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (both workloads read `artifacts/`).
//! `--trace 0` times the workload through the library's own entry points
//! and prints the end-to-end metrics; the simulated ones come from an
//! untimed replay of the same work. `--trace
//! 1` runs the replay untraced and traced in turn for `--seconds`, writes
//! the last traced replay's spans as folded stacks under `perfbench/out/`
//! and prints the per-layer metrics.
//! The last stdout line is one JSON object; see `perfbench/README.md` for
//! every metric.

mod aged;
mod fleet_1k;
mod online;
mod pipeline;
mod sim;
mod spans;

use parallel::PoolConfig;
use spans::Spans;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions per timed run: after every timed iteration the
/// set-up runs again until all set-ups add up to `SETUP_SHARE` of the
/// time measured so far, and at least `SETUP_MIN_REPEATS` times in all.
/// Spread over the run like the iterations, they meet the same host
/// load; `setup_s` is their median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_SHARE: f64 = 0.05;

/// Where traced runs leave their folded stacks.
const OUT_DIR: &str = "perfbench/out";

/// Quality numbers of one iteration, all simulated (exactly repeatable).
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    /// Mean read + mean write latency over the SSDKeeper runs (µs).
    pub latency_us: f64,
    /// p99 request latency over the SSDKeeper runs (µs).
    pub p99_us: f64,
    /// SSDKeeper / Shared latency metric, averaged: 1 − the gain over
    /// Shared.
    pub latency_vs_shared: f64,
    /// Write amplification over the iteration's runs.
    pub write_amplification: f64,
    /// Held-out accuracy of the model that made the decisions.
    pub model_accuracy: f64,
}

/// What one iteration of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct IterOut {
    /// Digest of every simulated output; must repeat exactly, and be the
    /// same whether the library or the benchmark's replay drove the work.
    pub digest: u64,
    /// Whether the simulator numbers below are complete. Only a replay
    /// sees every report; a library entry point may hide some of them.
    pub replayed: bool,
    /// Σ over the iteration's simulator reports.
    pub sim: sim::SimTotals,
    /// Simulated end-to-end numbers.
    pub quality: Quality,
    /// Simulated events of the iteration (the `sim_events_per_s`
    /// numerator).
    pub events: u64,
}

/// A benchmark workload: inputs built once, then timed iterations.
pub trait Workload: Sized {
    /// Loads models and synthesizes the inputs for `seed` (timed as
    /// `setup_s`).
    fn setup(seed: u64) -> Result<Self, String>;
    /// Untimed warm-up before the first measured iteration.
    fn warm_up(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// One unit of timed work at one worker, through the library's own
    /// entry points.
    fn iterate(&mut self) -> Result<IterOut, String>;
    /// The same work driven step by step from the benchmark over the
    /// library's public pieces, recording spans when they are on. Its
    /// digest must equal [`Workload::iterate`]'s, and its output is
    /// `replayed`.
    fn replay(&mut self, spans: &mut Spans) -> Result<IterOut, String>;
    /// Untimed output checks on a replayed iteration; may complete `out`
    /// with numbers that need extra untimed runs. Runs at most `nproc`
    /// workers.
    fn check(&mut self, out: &mut IterOut, nproc: usize) -> Result<(), String>;
    /// Per-layer numbers that need runs of their own (scaling, decision
    /// cost, input synthesis), measured after the traced replay, or that
    /// hold over only part of the workload's runs; may record further
    /// spans.
    fn layers(
        &mut self,
        out: &IterOut,
        spans: &mut Spans,
        nproc: usize,
    ) -> Result<Vec<(&'static str, f64)>, String>;
}

/// A pool of `workers` threads, refused beyond the machine's `nproc`.
pub fn pool(workers: usize, nproc: usize) -> Result<PoolConfig, String> {
    if workers == 0 || workers > nproc {
        return Err(format!(
            "refusing a pool of {workers} workers on a machine with nproc = {nproc}"
        ));
    }
    Ok(PoolConfig::with_workers(workers))
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: std::num::ParseIntError| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.to_string(),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => opts.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(opts)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The result line: counts plus `(name, value, unit)` metrics.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One timed set-up; the inputs it built are dropped untimed.
fn time_setup<W: Workload>(seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    let w = W::setup(seed)?;
    let s = t.elapsed().as_secs_f64();
    drop(w);
    Ok(s)
}

/// Whether another round of `last_s` still ends within `seconds` of
/// `start`. Runs stop before the deadline instead of overshooting it by
/// up to one iteration.
fn fits(start: Instant, last_s: f64, seconds: u64) -> bool {
    start.elapsed().as_secs_f64() + last_s <= seconds as f64
}

/// Counts of requests submitted/lost plus checks made/failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn sims(&mut self, out: &IterOut) {
        self.attempted += out.sim.requests;
        self.failed += out.sim.requests - out.sim.completed.min(out.sim.requests);
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// `out` itself when it is replayed; otherwise an untimed replay of the
/// same work, which must reproduce its digest.
fn replayed<W: Workload>(w: &mut W, out: IterOut, tally: &mut Tally) -> Result<IterOut, String> {
    if out.replayed {
        return Ok(out);
    }
    let r = w.replay(&mut Spans::off())?;
    tally.check(r.digest == out.digest);
    if r.digest != out.digest {
        return Err(format!(
            "the benchmark's replay digest {:#018x} differs from the library's {:#018x}",
            r.digest, out.digest
        ));
    }
    Ok(r)
}

/// `--trace 0`: time iterations, with set-ups between them, for at most
/// `seconds`; check; emit end-to-end metrics.
fn timed<W: Workload>(opts: &Opts, nproc: usize, tally: &mut Tally) -> Result<Report, String> {
    let t = Instant::now();
    let mut w = W::setup(opts.seed)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    w.warm_up()?;
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut first = None;
    let mut rss = None;
    let start = Instant::now();
    loop {
        let round = Instant::now();
        let out = w.iterate()?;
        walls.push(round.elapsed().as_secs_f64());
        digests.push(out.digest);
        first.get_or_insert(out);
        // Before the repeated set-ups, whose inputs briefly sit beside
        // the workload's own.
        if rss.is_none() {
            rss = Some(peak_rss_mb()?);
        }
        while setups.len() < SETUP_MIN_REPEATS
            || setups.iter().sum::<f64>() < SETUP_SHARE * start.elapsed().as_secs_f64()
        {
            setups.push(time_setup::<W>(opts.seed)?);
        }
        if !fits(start, round.elapsed().as_secs_f64(), opts.seconds) {
            break;
        }
    }
    let setup_s = median(&setups);
    let rss = rss.expect("at least one iteration");
    eprintln!(
        "perfbench: {} seed {} nproc {nproc} timed_workers 1 check_workers {nproc} setups {} iterations {} walls_s {:?}",
        opts.workload,
        opts.seed,
        setups.len(),
        walls.len(),
        walls
    );
    let first = first.expect("at least one iteration");
    for &d in &digests[1..] {
        tally.check(d == first.digest);
    }
    let mut full = replayed(&mut w, first, tally)?;
    let checked = w.check(&mut full, nproc);
    tally.check(checked.is_ok());
    checked?;
    tally.sims(&full);
    let wall_s = median(&walls);
    let q = full.quality;
    let success = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("wall_s", wall_s, "s"),
            ("sim_events_per_s", full.events as f64 / wall_s, "1/s"),
            ("peak_rss_mb", rss, "MiB"),
            ("sim_latency_us", q.latency_us, "us"),
            ("sim_p99_us", q.p99_us, "us"),
            ("latency_vs_shared", q.latency_vs_shared, "ratio"),
            ("write_amplification", q.write_amplification, "ratio"),
            ("model_accuracy", q.model_accuracy, "frac"),
            ("success_frac", success, "frac"),
        ],
    })
}

/// `--trace 1`: one library iteration, then pairs of untraced and traced
/// replays, the per-layer extras, folded stacks written out, per-layer
/// metrics emitted.
fn traced<W: Workload>(opts: &Opts, nproc: usize, tally: &mut Tally) -> Result<Report, String> {
    let mut w = W::setup(opts.seed)?;
    w.warm_up()?;
    let library = w.iterate()?;
    // Untraced and traced replays alternate while another pair fits in
    // `seconds`; the spans of the last traced replay are kept.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let (mut out, mut spans) = loop {
        let pair = Instant::now();
        let plain = w.replay(&mut Spans::off())?;
        untraced.push(pair.elapsed().as_secs_f64());
        let mut spans = Spans::on();
        let t = Instant::now();
        let out = w.replay(&mut spans)?;
        traced.push(t.elapsed().as_secs_f64());
        tally.check(plain.digest == library.digest);
        tally.check(out.digest == library.digest);
        if !fits(start, pair.elapsed().as_secs_f64(), opts.seconds) {
            break (out, spans);
        }
    };
    let checked = w.check(&mut out, nproc);
    tally.check(checked.is_ok());
    checked?;
    tally.sims(&out);
    let extra = w.layers(&out, &mut spans, nproc)?;

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{}-seed{}.folded", opts.workload, opts.seed);
    std::fs::write(&path, spans.folded()).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "perfbench: {} seed {} nproc {nproc} timed_workers 1 replay_pairs {} spans {path}",
        opts.workload,
        opts.seed,
        traced.len()
    );

    let ms = |name: &str| spans.total_s(name) * 1e3;
    let builds: Vec<f64> = spans
        .durations("flash_sim.build")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let events = spans.counted("flash_sim.events");
    let run_ms = ms("flash_sim.run");
    let per_call = |name: &str, scale: f64| {
        let n = spans.calls(name);
        if n == 0 {
            0.0
        } else {
            spans.total_s(name) * scale / n as f64
        }
    };
    let lookup = |key: &str| extra.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
    let ph = &out.sim.phases;
    let mut metrics: Vec<(&'static str, f64, &'static str)> = vec![
        ("flash_sim.build_ms", ms("flash_sim.build"), "ms"),
        ("flash_sim.build_calls", builds.len() as f64, "count"),
        ("flash_sim.build_ms_p50", quantile(&builds, 0.5), "ms"),
        ("flash_sim.build_ms_p99", quantile(&builds, 0.99), "ms"),
        ("flash_sim.run_ms", run_ms, "ms"),
        (
            "flash_sim.ns_per_event",
            if events > 0.0 {
                run_ms * 1e6 / events
            } else {
                0.0
            },
            "ns",
        ),
        ("flash_sim.events", events, "count"),
        ("ftl.gc_passes", out.sim.gc_passes as f64, "count"),
        (
            "ftl.gc_passes_min_run",
            lookup("ftl.gc_passes_min_run").unwrap_or(out.sim.gc_min() as f64),
            "count",
        ),
        ("ftl.gc_pages_moved", out.sim.gc_pages_moved as f64, "count"),
        ("ftl.seeded_pages", out.sim.seeded_pages as f64, "count"),
        ("scheduler.gc_exec_us_mean", ph.gc_exec.mean() / 1e3, "us"),
        ("scheduler.wait_bus_us_mean", ph.wait_bus.mean() / 1e3, "us"),
        (
            "scheduler.wait_unit_us_mean",
            ph.wait_unit.mean() / 1e3,
            "us",
        ),
        ("scheduler.bus_imbalance", out.sim.bus_imbalance(), "ratio"),
        (
            "scheduler.queue_depth_p99",
            ph.queue_depth.percentile(0.99) as f64,
            "count",
        ),
        ("workloads.synth_ms", ms("workloads.synth"), "ms"),
        (
            "features.extract_us",
            per_call("features.extract", 1e6),
            "us",
        ),
        ("label.sweep_ms", per_call("label.sweep", 1e3), "ms"),
        ("ann.train_ms", ms("ann.train"), "ms"),
        (
            "keeper.decisions",
            spans.counted("keeper.decisions"),
            "count",
        ),
        (
            "keeper.reallocations",
            spans.counted("keeper.reallocations"),
            "count",
        ),
        ("placement.place_ms", ms("placement.place"), "ms"),
        (
            "fleet.replacements",
            spans.counted("fleet.replacements"),
            "count",
        ),
    ];
    for (span, name) in [
        ("exp.traces", "exp.traces_s"),
        ("exp.conflict", "exp.conflict_s"),
        ("exp.fig2", "exp.fig2_s"),
        ("exp.label", "exp.label_s"),
        ("exp.fig4", "exp.fig4_s"),
        ("exp.fig5", "exp.fig5_s"),
        ("exp.fig6", "exp.fig6_s"),
    ] {
        metrics.push((name, spans.total_s(span), "s"));
    }
    for (name, unit) in [
        ("allocator.decide_ns_per_row", "ns"),
        ("parallel.fleet_speedup", "ratio"),
        ("parallel.label_speedup", "ratio"),
    ] {
        metrics.push((name, lookup(name).unwrap_or(0.0), unit));
    }
    // The replay with spans on against the same replay with spans off.
    metrics.push((
        "obs.trace_overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
        "frac",
    ));
    metrics.push(("host.nproc", nproc as f64, "count"));
    metrics.push(("host.timed_workers", 1.0, "count"));
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn run<W: Workload>(opts: &Opts, nproc: usize) -> (Result<Report, String>, Tally) {
    let mut tally = Tally::default();
    let report = if opts.trace {
        traced::<W>(opts, nproc, &mut tally)
    } else {
        timed::<W>(opts, nproc, &mut tally)
    };
    (report, tally)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (report, tally) = match opts.workload.as_str() {
        "pipeline_quick" => run::<pipeline::Pipeline>(&opts, nproc),
        "online" => run::<online::Online>(&opts, nproc),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (pipeline_quick, online)");
            return ExitCode::from(2);
        }
    };
    match report {
        Ok(r) if r.metrics.iter().all(|m| m.1.is_finite()) => {
            println!("{}", r.json());
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(r) => {
            eprintln!("perfbench: non-finite metric in {:?}", r.metrics);
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            let failed = Report {
                correct: false,
                attempted: tally.attempted.max(1),
                failed: tally.failed.max(1),
                metrics: Vec::new(),
            };
            println!("{}", failed.json());
            ExitCode::FAILURE
        }
    }
}
