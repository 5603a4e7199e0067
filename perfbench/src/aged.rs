//! The aged-session half of the `online` workload: the four Table V
//! mixes on the Table I topology with GC running, each as a Shared
//! baseline and an Algorithm 2 periodic session with hybrid allocation,
//! through `Keeper::run_with_arena`.

use crate::sim::{
    decide_ns_per_row, fnv, latency_metric_us, p99_us, report_digest, run_keeper, HeldOut,
    SimTotals, FNV0,
};
use crate::spans::Spans;
use crate::{IterOut, Quality, Workload};
use exp::fig5::{build_mix, Fig5Config};
use flash_sim::{IoRequest, LatencyStats, SimArena, SsdConfig};
use ssdkeeper::model_io::load_allocator;
use ssdkeeper::{ChannelAllocator, FeatureVector, Keeper, KeeperConfig, RunMode, Strategy};
use workloads::msr::paper_mix_profiles;

/// The committed allocator model.
const MODEL: &str = "artifacts/model.txt";

/// Requests per mix: long enough that one iteration lasts seconds.
const REQUESTS: usize = 200_000;
/// Logical pages per tenant: 4 × 24 000 of the 131 072 physical pages
/// keeps GC running on every mix.
const LPN_SPACE: u64 = 24_000;
/// Table I with 16 blocks per plane (8 ch × 2 chips × 4 planes).
const BLOCKS_PER_PLANE: usize = 16;
/// Algorithm 2 observation / re-decision window.
const WINDOW_NS: u64 = 50_000_000;

pub struct Aged {
    cfg: Fig5Config,
    mixes: Vec<(&'static str, Vec<IoRequest>)>,
    allocator: ChannelAllocator,
    arena: SimArena,
    model_accuracy: f64,
    /// Feature vectors of the last iteration's keeper decisions.
    rows: Vec<FeatureVector>,
}

impl Aged {
    fn keeper(&self, hybrid: bool) -> Keeper {
        Keeper::new(
            KeeperConfig {
                ssd: self.cfg.ssd.clone(),
                observe_window_ns: WINDOW_NS,
                hybrid,
            },
            self.allocator.clone(),
        )
    }
}

impl Workload for Aged {
    /// Loads the committed model and synthesizes the four mix traces.
    fn setup(seed: u64) -> Result<Self, String> {
        let allocator = load_allocator(MODEL).map_err(|e| format!("loading {MODEL}: {e}"))?;
        let cfg = Fig5Config {
            requests: REQUESTS,
            lpn_space: LPN_SPACE,
            ssd: SsdConfig {
                blocks_per_plane: BLOCKS_PER_PLANE,
                ..SsdConfig::paper_table1()
            },
            observe_window_ns: WINDOW_NS,
            seed,
            ..Fig5Config::default()
        };
        let mixes = paper_mix_profiles()
            .iter()
            .map(|p| (p.name, build_mix(p, &cfg)))
            .collect();
        Ok(Self {
            model_accuracy: HeldOut::load()?.accuracy(&allocator),
            cfg,
            mixes,
            allocator,
            arena: SimArena::new(),
            rows: Vec::new(),
        })
    }

    /// Every session already goes through `Keeper::run_with_arena`, so the
    /// library iteration is the replay with spans off.
    fn iterate(&mut self) -> Result<IterOut, String> {
        self.replay(&mut Spans::off())
    }

    fn replay(&mut self, spans: &mut Spans) -> Result<IterOut, String> {
        self.rows.clear();
        let baseline = self.keeper(false);
        let adaptive = self.keeper(true);
        let spaces = [LPN_SPACE; 4];
        let mut totals = SimTotals::default();
        let mut digest = FNV0;
        let mut keeper_total = LatencyStats::new();
        let mut keeper_ftl = SimTotals::default();
        let (mut latency, mut vs_shared) = (0.0, 0.0);
        for (name, trace) in &self.mixes {
            let inputs = (trace.as_slice(), spaces.as_slice());
            let shared = run_keeper(
                &baseline,
                inputs,
                RunMode::Fixed(Strategy::Shared),
                false,
                &mut self.arena,
                spans,
            )?;
            let periodic = RunMode::Periodic {
                window_ns: WINDOW_NS,
            };
            let session = run_keeper(&adaptive, inputs, periodic, false, &mut self.arena, spans)?;
            for report in [&shared.report, &session.report] {
                totals.add(report, trace.len());
                digest = report_digest(digest, report);
            }
            let decisions: Vec<(u64, Strategy)> = session
                .decisions
                .iter()
                .map(|d| (d.at_ns, d.strategy))
                .collect();
            digest = fnv(digest, format!("{name}{decisions:?}").as_bytes());
            self.rows
                .extend(session.decisions.iter().map(|d| d.features.clone()));
            keeper_ftl.add(&session.report, trace.len());
            keeper_total.merge(&session.report.total);
            let keeper_us = latency_metric_us(&session.report.read, &session.report.write);
            latency += keeper_us;
            vs_shared += keeper_us / shared.report.total_latency_metric_us();
            self.arena.recycle_report(shared.report);
            self.arena.recycle_report(session.report);
        }
        let n = self.mixes.len() as f64;
        Ok(IterOut {
            digest,
            replayed: true,
            events: totals.events,
            sim: totals,
            quality: Quality {
                latency_us: latency / n,
                p99_us: p99_us(&keeper_total),
                latency_vs_shared: vs_shared / n,
                write_amplification: keeper_ftl.write_amplification(),
                model_accuracy: self.model_accuracy,
            },
        })
    }

    /// Every request completed (counted into `failed` otherwise) and the
    /// decisions repeated (the digest comparison across iterations); the
    /// aged device must also have collected garbage in every run.
    fn check(&mut self, out: &mut IterOut, _nproc: usize) -> Result<(), String> {
        if out.sim.completed != out.sim.requests {
            return Err(format!(
                "{} of {} requests never completed",
                out.sim.requests - out.sim.completed,
                out.sim.requests
            ));
        }
        if out.sim.gc_min() == 0 {
            return Err("a session ran without garbage collection".into());
        }
        Ok(())
    }

    /// Mix synthesis (done in set-up, timed again here) and the batched
    /// decision cost over the feature vectors of the keeper's decisions.
    fn layers(
        &mut self,
        _out: &IterOut,
        spans: &mut Spans,
        _nproc: usize,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        spans.span("workloads.synth", |_| {
            for p in paper_mix_profiles() {
                std::hint::black_box(build_mix(&p, &self.cfg));
            }
        });
        Ok(vec![(
            "allocator.decide_ns_per_row",
            decide_ns_per_row(&self.allocator, &self.rows),
        )])
    }
}
