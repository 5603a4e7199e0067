//! The fleet half of the `online` workload:
//! `fleet::run_fleet(FleetConfig::scenario_1k(seed))` at one worker —
//! 1000 tenants over 64 shards.
//!
//! The timed iterations call `run_fleet`. It exposes only merged
//! summaries, so the untimed check and the traced runs replay the same
//! fleet from the crate's public pieces: the seed rule, `TenantLoad`,
//! `FleetPlacer` and per-shard `Keeper::run_with_arena`. The replay's
//! merged digest must equal `run_fleet`'s; its simulator reports give
//! completions, events and spans around placement, synthesis and every
//! shard. The fleet's keepers decide with an untrained, seed-derived
//! network, so its simulated latencies say nothing about SSDKeeper and
//! are left out of the workload's quality numbers.

use crate::sim::{run_keeper, SimTotals};
use crate::spans::Spans;
use crate::{pool, IterOut, Workload};
use ann::{Activation, Network};
use flash_sim::{IoRequest, LatencyStats, MetricsSummary, SimArena};
use fleet::seed::{derive, DOMAIN_MODEL, DOMAIN_PROFILE, DOMAIN_STREAM};
use fleet::{run_fleet, FleetConfig, FleetSummary, ShardSummary};
use simrng::{Rng, SimRng};
use ssdkeeper::{
    ChannelAllocator, FleetPlacer, Keeper, KeeperConfig, Placement, RunMode, Strategy, TenantLoad,
};
use std::time::Instant;
use workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

pub struct Fleet {
    cfg: FleetConfig,
    keeper: Keeper,
    /// Wall time of the last one-worker `run_fleet`.
    library_s: f64,
    /// Wall time of the check's `nproc`-worker `run_fleet`.
    wide_s: f64,
}

/// One tenant's stream, drawn from the seed rule exactly as `fleet` does.
fn tenant_stream(cfg: &FleetConfig, tenant: usize) -> Vec<IoRequest> {
    let mut rng = SimRng::seed_from_u64(derive(cfg.fleet_seed, DOMAIN_PROFILE, tenant as u64));
    let write_ratio = rng.gen_range(0.05f64..0.95);
    let iops = rng.gen_range(5_000.0f64..40_000.0);
    let spec = TenantSpec::synthetic(
        format!("t{tenant}"),
        write_ratio,
        iops,
        cfg.lpn_space_per_tenant,
    );
    generate_tenant_stream(
        &spec,
        0,
        cfg.requests_per_tenant,
        derive(cfg.fleet_seed, DOMAIN_STREAM, tenant as u64),
    )
}

/// One device's trace: slot streams LPN-offset per co-located tenant and
/// merged chronologically, as `fleet` builds them.
fn shard_inputs(cfg: &FleetConfig, slots: &[Vec<usize>]) -> (Vec<IoRequest>, Vec<u64>) {
    let mut slot_streams = Vec::with_capacity(slots.len());
    let mut spaces = Vec::with_capacity(slots.len());
    for tenants in slots {
        let mut merged: Vec<IoRequest> = Vec::new();
        for (pos, &t) in tenants.iter().enumerate() {
            let base = pos as u64 * cfg.lpn_space_per_tenant;
            merged.extend(tenant_stream(cfg, t).into_iter().map(|r| IoRequest {
                lpn: r.lpn + base,
                ..r
            }));
        }
        merged.sort_by_key(|r| r.arrival_ns);
        slot_streams.push(merged);
        spaces.push(tenants.len() as u64 * cfg.lpn_space_per_tenant);
    }
    let total = slot_streams.iter().map(Vec::len).sum();
    (mix_chronological(&slot_streams, total), spaces)
}

/// A shard's p99 over all host commands, `fleet`'s re-placement signal.
fn shard_tail_ns(shard: &ShardSummary) -> u64 {
    let mut all = LatencyStats::new();
    for t in &shard.metrics.tenants {
        all.merge(&t.read);
        all.merge(&t.write);
    }
    all.percentile_ns(0.99)
}

impl Fleet {
    /// One shard's adapt-once keeper session, with its metrics summary.
    fn shard(
        &self,
        device: usize,
        placement: &Placement,
        arena: &mut SimArena,
        totals: &mut SimTotals,
        spans: &mut Spans,
    ) -> Result<ShardSummary, String> {
        let slots = placement.device_slots(device);
        if slots.is_empty() {
            return Ok(ShardSummary {
                device,
                strategy: Strategy::Shared,
                slot_tenants: slots,
                metrics: MetricsSummary::default(),
                events_processed: 0,
                makespan_ns: 0,
            });
        }
        let (trace, spaces) = spans.span("workloads.synth", |_| shard_inputs(&self.cfg, &slots));
        let inputs = (trace.as_slice(), spaces.as_slice());
        let out = run_keeper(&self.keeper, inputs, RunMode::AdaptOnce, true, arena, spans)?;
        totals.add(&out.report, trace.len());
        let summary = ShardSummary {
            device,
            strategy: out.strategy,
            slot_tenants: slots,
            metrics: out.metrics.ok_or("with_metrics() returned no summary")?,
            events_processed: out.report.events_processed,
            makespan_ns: out.report.makespan_ns,
        };
        arena.recycle_report(out.report);
        Ok(summary)
    }
}

impl Workload for Fleet {
    /// The scenario at one worker and its keeper.
    fn setup(seed: u64) -> Result<Self, String> {
        let cfg = FleetConfig {
            pool: parallel::PoolConfig::with_workers(1),
            ..FleetConfig::scenario_1k(seed)
        };
        cfg.validate().map_err(|e| e.to_string())?;
        let network = Network::paper_topology(
            Activation::Logistic,
            derive(cfg.fleet_seed, DOMAIN_MODEL, 0),
        );
        let keeper = Keeper::new(
            KeeperConfig {
                ssd: cfg.ssd.clone(),
                observe_window_ns: cfg.observe_window_ns,
                hybrid: false,
            },
            ChannelAllocator::new(network, cfg.max_total_iops),
        );
        Ok(Self {
            cfg,
            keeper,
            library_s: 0.0,
            wide_s: 0.0,
        })
    }

    /// One smoke-scale fleet run, so allocator pools and code are warm
    /// before timing.
    fn warm_up(&mut self) -> Result<(), String> {
        let warm = FleetConfig {
            pool: self.cfg.pool,
            ..FleetConfig::smoke(self.cfg.fleet_seed)
        };
        run_fleet(&warm).map_err(|e| format!("warm-up fleet failed: {e}"))?;
        Ok(())
    }

    /// `run_fleet` itself; its simulator totals come from the replay.
    fn iterate(&mut self) -> Result<IterOut, String> {
        let t = Instant::now();
        let out = run_fleet(&self.cfg).map_err(|e| format!("run_fleet failed: {e}"))?;
        self.library_s = t.elapsed().as_secs_f64();
        Ok(IterOut {
            digest: out.summary.digest(),
            events: out.summary.total_events(),
            ..IterOut::default()
        })
    }

    /// `run_fleet` step by step: tier-1 observation and LPT placement,
    /// every shard's adapt-once session, tail-drift re-placement, merge.
    fn replay(&mut self, spans: &mut Spans) -> Result<IterOut, String> {
        let cfg = self.cfg.clone();
        let mut loads = Vec::with_capacity(cfg.tenants);
        for t in 0..cfg.tenants {
            let stream = spans.span("workloads.synth", |_| tenant_stream(&cfg, t));
            loads.push(spans.span("placement.place", |_| {
                TenantLoad::observe(t, &stream, cfg.observe_window_ns)
            }));
        }
        let placer = FleetPlacer::new(cfg.devices);
        let mut placement = spans.span("placement.place", |_| placer.place(&loads));
        let mut totals = SimTotals::default();
        let mut arena = SimArena::new();
        let mut shards = Vec::with_capacity(cfg.devices);
        for d in 0..cfg.devices {
            shards.push(self.shard(d, &placement, &mut arena, &mut totals, spans)?);
        }
        for _ in 0..cfg.max_replacements {
            let tails: Vec<u64> = shards.iter().map(shard_tail_ns).collect();
            let Some((next, _, from, to)) = spans.span("placement.place", |_| {
                placer.replace_hottest(&placement, &loads, &tails, cfg.tail_threshold)
            }) else {
                break;
            };
            spans.count("fleet.replacements", 1.0);
            placement = next;
            for d in [from, to] {
                shards[d] = self.shard(d, &placement, &mut arena, &mut totals, spans)?;
            }
        }
        let summary = FleetSummary::from_shards(shards, cfg.ssd.channels);
        Ok(IterOut {
            digest: summary.digest(),
            replayed: true,
            events: summary.total_events(),
            sim: totals,
            ..IterOut::default()
        })
    }

    /// The merged digest is the same at `nproc` workers.
    fn check(&mut self, out: &mut IterOut, nproc: usize) -> Result<(), String> {
        let wide = FleetConfig {
            pool: pool(nproc, nproc)?,
            ..self.cfg.clone()
        };
        let t = Instant::now();
        let wide = run_fleet(&wide).map_err(|e| format!("run_fleet failed: {e}"))?;
        self.wide_s = t.elapsed().as_secs_f64();
        if wide.summary.digest() != out.digest {
            return Err(format!(
                "merged digest at {nproc} workers {:#018x} differs from one worker's {:#018x}",
                wide.summary.digest(),
                out.digest
            ));
        }
        Ok(())
    }

    /// Fleet scaling: the one-worker `run_fleet` against the check's
    /// `nproc`-worker run.
    fn layers(
        &mut self,
        _out: &IterOut,
        _spans: &mut Spans,
        _nproc: usize,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(vec![(
            "parallel.fleet_speedup",
            self.library_s / self.wide_s,
        )])
    }
}
