//! `pipeline_quick`: the `run_all --quick` stage sequence at one worker.
//!
//! Stages run through `exp::{traces, conflict, fig2, fig4, fig5, fig6}::run`
//! at `run_all --quick` sizes; the timed iterations label through
//! `Learner::generate_dataset`. The replay drives Algorithm 1 from here
//! instead, over the library's public per-strategy calls in
//! `Learner::generate_dataset`'s sample order and seed rule, so that
//! simulator build and event loop can be timed apart and events, p99 and
//! write amplification read from every report. Its dataset enters the
//! iteration digest, which must equal the library iteration's; on the
//! default seed that digest is also pinned.

use crate::sim::{decide_ns_per_row, fnv, p99_us, report_digest, HeldOut, SimTotals, FNV0};
use crate::spans::Spans;
use crate::{pool, IterOut, Quality, Workload};
use exp::{conflict, fig2, fig4, fig5, fig6, traces};
use flash_sim::{SimArena, SimBuilder, TenantLayout};
use ssdkeeper::features::TENANTS;
use ssdkeeper::label::{best_strategy_with_tolerance, StrategyEval};
use ssdkeeper::learner::{DatasetSpec, LabelledDataset, LabelledSample, Learner};
use ssdkeeper::{hybrid, ChannelAllocator, FeatureVector, Strategy};
use std::time::Instant;
use workloads::ObservedFeatures;

/// `run_all --quick` sizes.
const SAMPLES: usize = 96;
const REQUESTS_PER_SAMPLE: usize = 1_200;
const EPOCHS: usize = 60;
const STAGE_REQUESTS: usize = 4_000;
const FIG5_REQUESTS: usize = 20_000;
const FIG6_SAMPLES_PER_LEVEL: usize = 60;

/// The seed at which every stage seed equals `run_all --quick`'s.
const DEFAULT_SEED: u64 = 1;

/// `Learner::generate_dataset(1)` at quick sizes: FNV-1a of
/// `LabelledDataset::to_text`, and fig5's chosen strategies.
const PINNED_DATASET_DIGEST: u64 = 0x99fc_144c_a4f3_071b;
const PINNED_FIG5_CHOSEN: &str = "Mix1=Shared,Mix2=Shared,Mix3=Shared,Mix4=Shared";

/// Stage seed: `run_all`'s constant at the default seed, shifted by the
/// distance of `seed` from it otherwise.
fn stage_seed(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_sub(DEFAULT_SEED))
}

fn dataset_digest(d: &LabelledDataset) -> u64 {
    fnv(FNV0, d.to_text().as_bytes())
}

pub struct Pipeline {
    seed: u64,
    learner: Learner,
    held_out: HeldOut,
    /// Products of the last iteration, kept for the untimed checks.
    dataset: Option<LabelledDataset>,
    allocator: Option<ChannelAllocator>,
    chosen: String,
    /// Wall time of the last library labelling (one worker).
    label_s: f64,
}

impl Pipeline {
    fn spec() -> DatasetSpec {
        let mut spec = DatasetSpec::quick(SAMPLES);
        spec.requests_per_sample = REQUESTS_PER_SAMPLE;
        spec.eval.pool = parallel::PoolConfig::with_workers(1);
        spec
    }

    /// Labels one mixed workload: every strategy built and run on a
    /// caller-owned arena (`Learner::label_workload`'s sequential sweep).
    /// The labelled strategy's p99 request latency is pushed to `labelled_p99`.
    fn label_sample(
        &self,
        trace: &[flash_sim::IoRequest],
        arena: &mut SimArena,
        totals: &mut SimTotals,
        labelled_p99: &mut Vec<f64>,
        spans: &mut Spans,
    ) -> Result<LabelledSample, String> {
        let spec = self.learner.spec();
        let eval = &spec.eval;
        let obs = ObservedFeatures::collect(trace, TENANTS, u64::MAX);
        let rw_chars: Vec<u8> = (0..TENANTS).map(|t| obs.rw_characteristic(t)).collect();
        let policies = hybrid::policies(&rw_chars, eval.hybrid);
        let mut evals = Vec::new();
        let mut latencies = Vec::new();
        spans.span("label.sweep", |spans| -> Result<(), String> {
            for strategy in Strategy::all_for_tenants(TENANTS) {
                let lists = strategy.assign_channels(&rw_chars, &eval.ssd);
                let mut layout = TenantLayout::from_channel_lists(&lists, &eval.ssd)
                    .ok_or_else(|| format!("strategy {strategy:?} gave invalid lists {lists:?}"))?;
                for (t, &policy) in policies.iter().enumerate() {
                    layout = layout
                        .with_lpn_space(t, spec.lpn_space)
                        .with_policy(t, policy);
                }
                let builder = SimBuilder::new(eval.ssd.clone(), layout);
                let sim = spans
                    .span("flash_sim.build", |_| builder.build_with_arena(arena))
                    .map_err(|e| format!("build failed: {e}"))?;
                let report = spans
                    .span("flash_sim.run", |_| sim.run_reclaim(trace, arena))
                    .map_err(|e| format!("label run failed: {e}"))?;
                spans.count("flash_sim.events", report.events_processed as f64);
                totals.add(&report, trace.len());
                latencies.push(report.total.clone());
                evals.push(StrategyEval {
                    strategy,
                    read_us: report.read.mean_us(),
                    write_us: report.write.mean_us(),
                    metric_us: report.total_latency_metric_us(),
                });
                arena.recycle_report(report);
            }
            Ok(())
        })?;
        let best = best_strategy_with_tolerance(&evals, spec.label_tolerance);
        labelled_p99.push(p99_us(&latencies[best.strategy.index(TENANTS)]));
        let features = spans.span("features.extract", |_| {
            FeatureVector::from_trace(trace, TENANTS, spec.max_total_iops)
        });
        Ok(LabelledSample {
            features,
            label: best.strategy.index(TENANTS),
            best: best.strategy,
            best_metric_us: best.metric_us,
            metrics_us: evals.iter().map(|e| e.metric_us).collect(),
        })
    }

    /// Algorithm 1 over the whole dataset, one fresh arena per sample as
    /// `Learner::generate_dataset` does.
    fn label(
        &self,
        totals: &mut SimTotals,
        labelled_p99: &mut Vec<f64>,
        spans: &mut Spans,
    ) -> Result<LabelledDataset, String> {
        let mut rng = simrng::SimRng::seed_from_u64(self.seed);
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let (trace, _) = spans.span("workloads.synth", |_| {
                self.learner.sample_mixed_workload(&mut rng)
            });
            let arena = &mut SimArena::new();
            samples.push(self.label_sample(&trace, arena, totals, labelled_p99, spans)?);
        }
        Ok(LabelledDataset {
            samples,
            max_total_iops: self.learner.spec().max_total_iops,
        })
    }

    /// The stage sequence, labelling through `Learner::generate_dataset`
    /// or, when `replay` is set, through [`Pipeline::label`].
    fn run(&mut self, spans: &mut Spans, replay: bool) -> Result<IterOut, String> {
        let seed = self.seed;
        let mut totals = SimTotals::default();
        let rows = spans.span("exp.traces", |_| {
            traces::run(STAGE_REQUESTS, 2_000.0, stage_seed(2, seed))
        });
        let crows = spans.span("exp.conflict", |_| {
            conflict::run(&conflict::ConflictConfig {
                requests: STAGE_REQUESTS,
                seed: stage_seed(33, seed),
                ..conflict::ConflictConfig::default()
            })
        });
        let points = spans.span("exp.fig2", |_| {
            fig2::run(&fig2::Fig2Config {
                requests: STAGE_REQUESTS,
                pool: parallel::PoolConfig::with_workers(1),
                seed: stage_seed(2020, seed),
                ..fig2::Fig2Config::default()
            })
        });
        let mut labelled_p99 = Vec::with_capacity(SAMPLES);
        let t = Instant::now();
        let dataset = spans.span("exp.label", |spans| {
            if replay {
                self.label(&mut totals, &mut labelled_p99, spans)
            } else {
                Ok(self.learner.generate_dataset(seed))
            }
        })?;
        if !replay {
            self.label_s = t.elapsed().as_secs_f64();
        }
        let (best_acc, allocator) = spans.span("exp.fig4", |spans| {
            let results = spans.span("ann.train", |_| fig4::run(&dataset, EPOCHS, seed));
            let best = fig4::best(&results, &dataset);
            (
                best.model.history.final_accuracy() as f64,
                best.model.allocator(),
            )
        });
        let mixes = spans.span("exp.fig5", |_| {
            fig5::run(
                &fig5::Fig5Config {
                    requests: FIG5_REQUESTS,
                    seed: stage_seed(4242, seed),
                    ..fig5::Fig5Config::default()
                },
                &allocator,
            )
        });
        let map = spans.span("exp.fig6", |_| {
            fig6::run(&allocator, FIG6_SAMPLES_PER_LEVEL, stage_seed(6, seed))
        });

        let mut digest = fnv(FNV0, format!("{rows:?}{crows:?}{points:?}").as_bytes());
        digest = fnv(digest, &dataset_digest(&dataset).to_le_bytes());
        digest = fnv(digest, format!("{best_acc}{:?}", map.cells).as_bytes());
        for m in &mixes {
            for r in [
                &m.shared,
                &m.isolated,
                &m.keeper,
                &m.keeper_hybrid,
                &m.keeper_online,
            ] {
                totals.add(r, FIG5_REQUESTS);
                digest = report_digest(digest, r);
            }
        }
        self.chosen = mixes
            .iter()
            .map(|m| format!("{}={:?}", m.name, m.chosen))
            .collect::<Vec<_>>()
            .join(",");
        // Simulated quality comes from the labelled strategy of every
        // Algorithm 1 sample, averaged per sample: fig5's four keeper runs
        // hinge on the picks of a model trained on 96 samples. The p99 and
        // the labelling runs' write amplification need the replay.
        let shared = Strategy::Shared.index(TENANTS);
        let mean = |v: &mut dyn Iterator<Item = f64>| v.sum::<f64>() / SAMPLES as f64;
        let quality = Quality {
            latency_us: mean(&mut dataset.samples.iter().map(|s| s.best_metric_us)),
            p99_us: mean(&mut labelled_p99.iter().copied()),
            latency_vs_shared: mean(
                &mut dataset
                    .samples
                    .iter()
                    .map(|s| s.best_metric_us / s.metrics_us[shared]),
            ),
            write_amplification: totals.write_amplification(),
            // Scored on the committed dataset by the untimed check: the
            // model's own 29-sample test split moves by ±0.15 with the seed.
            model_accuracy: f64::NAN,
        };
        self.dataset = Some(dataset);
        self.allocator = Some(allocator);
        Ok(IterOut {
            digest,
            replayed: replay,
            events: totals.events,
            sim: totals,
            quality,
        })
    }
}

impl Workload for Pipeline {
    /// Stage configuration and the committed dataset's test split.
    fn setup(seed: u64) -> Result<Self, String> {
        Ok(Self {
            seed,
            learner: Learner::new(Self::spec()),
            held_out: HeldOut::load()?,
            dataset: None,
            allocator: None,
            chosen: String::new(),
            label_s: 0.0,
        })
    }

    /// One sample labelled under all 42 strategies, so allocator pools
    /// and code are warm before timing.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut rng = simrng::SimRng::seed_from_u64(self.seed ^ 0x5eed_5eed);
        let (trace, _) = self.learner.sample_mixed_workload(&mut rng);
        std::hint::black_box(self.learner.label_workload(&trace));
        Ok(())
    }

    fn iterate(&mut self) -> Result<IterOut, String> {
        self.run(&mut Spans::off(), false)
    }

    fn replay(&mut self, spans: &mut Spans) -> Result<IterOut, String> {
        self.run(spans, true)
    }

    /// The dataset and fig5's picks against the pinned default-seed
    /// reference; also scores the trained model on the held-out set.
    fn check(&mut self, out: &mut IterOut, _nproc: usize) -> Result<(), String> {
        let dataset = self.dataset.as_ref().ok_or("no iteration ran")?;
        let allocator = self.allocator.as_ref().ok_or("no iteration ran")?;
        out.quality.model_accuracy = self.held_out.accuracy(allocator);
        if dataset.samples.len() != SAMPLES {
            return Err(format!("dataset has {} samples", dataset.samples.len()));
        }
        let digest = dataset_digest(dataset);
        eprintln!(
            "perfbench: pipeline_quick dataset digest {digest:#018x} fig5 chosen {}",
            self.chosen
        );
        if self.seed == DEFAULT_SEED
            && (digest != PINNED_DATASET_DIGEST || self.chosen != PINNED_FIG5_CHOSEN)
        {
            return Err(format!(
                "default-seed outputs differ from the pinned reference: dataset {digest:#018x} \
                 (pinned {PINNED_DATASET_DIGEST:#018x}), fig5 chosen {} (pinned {PINNED_FIG5_CHOSEN})",
                self.chosen
            ));
        }
        Ok(())
    }

    /// Label-farm scaling: the library iteration's one-worker
    /// `Learner::generate_dataset` against the same call with its
    /// strategy sweep at `nproc` workers, whose dataset must be the same.
    fn layers(
        &mut self,
        _out: &IterOut,
        _spans: &mut Spans,
        nproc: usize,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let dataset = self.dataset.as_ref().ok_or("no iteration ran")?;
        let mut spec = Self::spec();
        spec.eval.pool = pool(nproc, nproc)?;
        let t = Instant::now();
        let wide = Learner::new(spec).generate_dataset(self.seed);
        let wide_s = t.elapsed().as_secs_f64();
        if dataset_digest(&wide) != dataset_digest(dataset) {
            return Err(format!(
                "Learner::generate_dataset at {nproc} workers gives another dataset"
            ));
        }
        let allocator = self.allocator.as_ref().ok_or("no iteration ran")?;
        let rows: Vec<FeatureVector> = dataset.samples.iter().map(|s| s.features.clone()).collect();
        Ok(vec![
            ("parallel.label_speedup", self.label_s / wide_s),
            (
                "allocator.decide_ns_per_row",
                decide_ns_per_row(allocator, &rows),
            ),
        ])
    }
}
