//! Label generation (Algorithm 1, lines 3–8).
//!
//! For a mixed workload, score every strategy in the space by its total
//! response latency (mean read + mean write, the §III-B metric) and select
//! the lowest as the training label.
//!
//! # Component composition
//!
//! A strategy splits the tenants into *channel components*: tenants whose
//! channel sets intersect, joined transitively. Two components share no
//! channel, hence no bus, die, plane, GC or wear state, and every host
//! queue belongs to one tenant. A component's requests therefore see the
//! same latencies on their own as in the full run, and a strategy's
//! read/write [`LatencyStats`] are the exact (integer) merge of its
//! components' stats.
//!
//! The sweep simulates each component on its tenants' requests, filtered
//! from the trace, under the strategy's full [`TenantLayout`]. Components
//! repeat across strategies (one tenant alone on three channels appears in
//! many four-part splits), so each is keyed by its tenant set plus every
//! member's channel list shifted down by the component's lowest channel,
//! and each distinct key is simulated once: the device is
//! channel-homogeneous, and static striping and the dynamic allocator's
//! tie-breaks depend only on positions within a tenant's list. Distinct
//! sub-runs fan out over [`parallel::par_map_init`] when the pool has more
//! than one worker. DESIGN.md §6d gives the full argument, and
//! `tests/label_components.rs` checks it bit for bit against full runs.

use crate::hybrid;
use crate::strategy::Strategy;
use flash_sim::{
    IoRequest, LatencyStats, SimArena, SimBuilder, SimError, SimReport, SsdConfig, TenantLayout,
};
use parallel::PoolConfig;
use std::borrow::Cow;
use std::collections::HashMap;
use workloads::ObservedFeatures;

/// Domain tag for per-sample RNG seeding in the parallel label farm
/// ([`crate::learner::Learner::generate_dataset_parallel`]). Shares the
/// [`simrng::derive_seed`] triple rule with `fleet::seed`, whose domains
/// 1–3 are stream/profile/model — domain separation means the farm can
/// never collide with fleet-derived seeds.
pub const DOMAIN_LABEL_SAMPLE: u64 = 4;

/// Configuration shared by every labelling run.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Device model under test.
    pub ssd: SsdConfig,
    /// Whether the hybrid page allocator is active.
    pub hybrid: bool,
    /// Thread pool for fanning a sweep's simulations out.
    pub pool: PoolConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            ssd: SsdConfig::scaled_for_sweeps(),
            hybrid: false,
            pool: PoolConfig::auto(),
        }
    }
}

impl EvalConfig {
    /// This config with the strategy sweep pinned to one worker — for
    /// use inside an outer fan-out (the label farm parallelizes across
    /// samples; nesting a second pool per sample would oversubscribe).
    pub fn sequential(&self) -> EvalConfig {
        EvalConfig {
            pool: PoolConfig::with_workers(1),
            ..self.clone()
        }
    }
}

/// Result of evaluating one strategy on one mixed workload.
#[derive(Debug, Clone)]
pub struct StrategyEval {
    /// The strategy evaluated.
    pub strategy: Strategy,
    /// Mean read latency (µs).
    pub read_us: f64,
    /// Mean write latency (µs).
    pub write_us: f64,
    /// The selection metric: `read_us + write_us`.
    pub metric_us: f64,
}

/// The device layout `strategy` gives the tenants: their channel lists,
/// logical spaces and (under `eval.hybrid`) page-allocation policies.
fn strategy_layout(
    strategy: Strategy,
    rw_chars: &[u8],
    lpn_spaces: &[u64],
    eval: &EvalConfig,
) -> Result<TenantLayout, SimError> {
    assert_eq!(
        rw_chars.len(),
        lpn_spaces.len(),
        "one char and space per tenant"
    );
    let lists = strategy.assign_channels(rw_chars, &eval.ssd);
    let mut layout =
        TenantLayout::from_channel_lists(&lists, &eval.ssd).ok_or_else(|| SimError::BadLayout {
            reason: format!("strategy {strategy:?} produced invalid channel lists {lists:?}"),
        })?;
    let policies = hybrid::policies(rw_chars, eval.hybrid);
    for (t, (&space, &policy)) in lpn_spaces.iter().zip(policies.iter()).enumerate() {
        layout = layout.with_lpn_space(t, space).with_policy(t, policy);
    }
    Ok(layout)
}

/// Runs `trace` on a device partitioned by `strategy` — one full run.
///
/// `rw_chars` are the tenants' observed characteristics (for two-part
/// grouping and the hybrid allocator); `lpn_spaces` bound each tenant's
/// logical footprint.
pub fn run_under_strategy(
    trace: &[IoRequest],
    strategy: Strategy,
    rw_chars: &[u8],
    lpn_spaces: &[u64],
    eval: &EvalConfig,
) -> Result<SimReport, SimError> {
    let layout = strategy_layout(strategy, rw_chars, lpn_spaces, eval)?;
    SimBuilder::new(eval.ssd.clone(), layout)
        .build()?
        .run(trace)
}

/// The tenants' read/write characteristics over the whole trace, exactly
/// as the offline label generator would observe them.
fn observed_rw_chars(trace: &[IoRequest], tenants: usize) -> Vec<u8> {
    let obs = ObservedFeatures::collect(trace, tenants, u64::MAX);
    (0..tenants).map(|t| obs.rw_characteristic(t)).collect()
}

/// Tenant bitmasks of `layout`'s channel components, in order of each
/// component's lowest tenant: tenants whose channel sets intersect,
/// joined transitively.
fn channel_components(layout: &TenantLayout) -> Vec<u64> {
    let n = layout.tenant_count();
    let mut comp: Vec<usize> = (0..n).collect();
    for a in 0..n {
        for b in a + 1..n {
            let (ca, cb) = (comp[a], comp[b]);
            let shares_channel = layout
                .tenant(a)
                .channels
                .channels()
                .iter()
                .any(|&ch| layout.tenant(b).channels.contains(ch as usize));
            if ca != cb && shares_channel {
                // Relabel b's whole component, not just b: joining is
                // transitive.
                for c in comp.iter_mut().filter(|c| **c == cb) {
                    *c = ca;
                }
            }
        }
    }
    let mut masks: Vec<(usize, u64)> = Vec::new();
    for (t, &c) in comp.iter().enumerate() {
        match masks.iter_mut().find(|(label, _)| *label == c) {
            Some((_, mask)) => *mask |= 1 << t,
            None => masks.push((c, 1 << t)),
        }
    }
    masks.into_iter().map(|(_, mask)| mask).collect()
}

/// What makes two components simulate identically: the member tenants,
/// and each member's channel list relative to the component's lowest
/// channel.
#[derive(Debug, PartialEq, Eq, Hash)]
struct ComponentKey {
    tenants: u64,
    channels: Vec<Vec<u16>>,
}

impl ComponentKey {
    fn of(layout: &TenantLayout, tenants: u64) -> Self {
        let members = || (0..layout.tenant_count()).filter(move |t| tenants >> t & 1 == 1);
        let base = members()
            .flat_map(|t| layout.tenant(t).channels.channels().iter().copied())
            .min()
            .unwrap_or(0);
        let channels = members()
            .map(|t| {
                let list = layout.tenant(t).channels.channels();
                list.iter().map(|&ch| ch - base).collect()
            })
            .collect();
        Self { tenants, channels }
    }
}

/// One distinct component to simulate.
struct SubRun {
    /// Index of the first strategy with this component; the sub-run uses
    /// that strategy's layout.
    strategy: usize,
    /// Index into the sweep's per-tenant-set sub-traces.
    trace: usize,
}

/// Evaluates every strategy in the `tenants`-tenant space on `trace`.
///
/// The tenants' read/write characteristics are taken from the whole
/// trace, exactly as the offline label generator would observe them.
/// Same rows as [`evaluate_all_with`], with a fresh arena.
pub fn evaluate_all(
    trace: &[IoRequest],
    tenants: usize,
    lpn_spaces: &[u64],
    eval: &EvalConfig,
) -> Result<Vec<StrategyEval>, SimError> {
    evaluate_all_with(trace, tenants, lpn_spaces, eval, &mut SimArena::new())
}

/// [`evaluate_all`] by component composition (see the module docs): each
/// distinct channel component runs once, on a caller-owned [`SimArena`]
/// for a one-worker pool or on per-worker arenas otherwise, and every
/// strategy's row is merged from its components' latency stats. Rows are
/// bit-identical to one full [`run_under_strategy`] per strategy, at any
/// worker count.
pub fn evaluate_all_with(
    trace: &[IoRequest],
    tenants: usize,
    lpn_spaces: &[u64],
    eval: &EvalConfig,
    arena: &mut SimArena,
) -> Result<Vec<StrategyEval>, SimError> {
    // Filtering by tenant set would silently drop requests of unknown
    // tenants; a full run rejects them, and so does the sweep.
    flash_sim::validate_trace(trace, tenants)?;
    let rw_chars = observed_rw_chars(trace, tenants);
    let strategies = Strategy::all_for_tenants(tenants);
    let layouts = strategies
        .iter()
        .map(|&s| strategy_layout(s, &rw_chars, lpn_spaces, eval))
        .collect::<Result<Vec<_>, _>>()?;

    // Plan: every strategy's live components, deduplicated into sub-runs,
    // and one sub-trace per tenant set.
    let mut keys: HashMap<ComponentKey, Option<usize>> = HashMap::new();
    let mut subruns: Vec<SubRun> = Vec::new();
    let mut subtraces: Vec<(u64, Cow<[IoRequest]>)> = Vec::new();
    let parts: Vec<Vec<usize>> = layouts
        .iter()
        .enumerate()
        .map(|(s, layout)| {
            channel_components(layout)
                .into_iter()
                .filter_map(|mask| {
                    *keys
                        .entry(ComponentKey::of(layout, mask))
                        .or_insert_with(|| {
                            let known = subtraces.iter().position(|(m, _)| *m == mask);
                            let sub_trace = known.unwrap_or_else(|| {
                                subtraces.push((mask, tenant_subtrace(trace, tenants, mask)));
                                subtraces.len() - 1
                            });
                            // An idle component's latencies are empty: it
                            // is never simulated.
                            if subtraces[sub_trace].1.is_empty() {
                                return None;
                            }
                            subruns.push(SubRun {
                                strategy: s,
                                trace: sub_trace,
                            });
                            Some(subruns.len() - 1)
                        })
                })
                .collect()
        })
        .collect();

    if obs::ENABLED {
        let requests: usize = subruns.iter().map(|sub| subtraces[sub.trace].1.len()).sum();
        obs::counter_add!("label.strategies", strategies.len() as u64);
        obs::counter_add!("label.subruns", subruns.len() as u64);
        obs::counter_add!("label.subrun_requests", requests as u64);
    }
    let simulate = |arena: &mut SimArena, sub: &SubRun| -> Result<[LatencyStats; 2], SimError> {
        let report = SimBuilder::new(eval.ssd.clone(), layouts[sub.strategy].clone())
            .build_with_arena(arena)?
            .run_reclaim(&subtraces[sub.trace].1, arena)?;
        let stats = [report.read.clone(), report.write.clone()];
        arena.recycle_report(report);
        Ok(stats)
    };
    let stats: Vec<[LatencyStats; 2]> = if eval.pool.worker_count() > 1 {
        parallel::par_map_init(&eval.pool, &subruns, SimArena::new, |arena, _, sub| {
            simulate(arena, sub)
        })
        .into_iter()
        .collect::<Result<_, _>>()?
    } else {
        subruns
            .iter()
            .map(|sub| simulate(arena, sub))
            .collect::<Result<_, _>>()?
    };

    Ok(strategies
        .iter()
        .zip(&parts)
        .map(|(&strategy, parts)| {
            let (mut read, mut write) = (LatencyStats::new(), LatencyStats::new());
            for [r, w] in parts.iter().map(|&i| &stats[i]) {
                read.merge(r);
                write.merge(w);
            }
            // The same sum `SimReport::total_latency_metric_us` takes.
            StrategyEval {
                strategy,
                read_us: read.mean_us(),
                write_us: write.mean_us(),
                metric_us: read.mean_us() + write.mean_us(),
            }
        })
        .collect())
}

/// The requests of the tenants in `mask`, in trace order; the trace
/// itself when `mask` holds every tenant.
fn tenant_subtrace(trace: &[IoRequest], tenants: usize, mask: u64) -> Cow<'_, [IoRequest]> {
    if mask.count_ones() as usize == tenants {
        Cow::Borrowed(trace)
    } else {
        Cow::Owned(
            trace
                .iter()
                .filter(|r| mask >> r.tenant & 1 == 1)
                .copied()
                .collect(),
        )
    }
}

/// The argmin-latency strategy (ties go to the earlier index, i.e. the
/// simpler strategy).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn best_strategy(evals: &[StrategyEval]) -> &StrategyEval {
    best_strategy_with_tolerance(evals, 0.0)
}

/// The earliest-index strategy whose metric is within `rel_tol` of the
/// true minimum.
///
/// Label generation uses a small tolerance (2 % by default): simulated
/// latencies of near-equivalent strategies differ by sampling noise, so a
/// strict argmin turns ties into label noise the model cannot learn.
/// Collapsing near-ties onto the earliest (simplest) strategy gives clean
/// labels, and predicting any strategy inside the tolerance band costs at
/// most `rel_tol` of latency.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn best_strategy_with_tolerance(evals: &[StrategyEval], rel_tol: f64) -> &StrategyEval {
    let min = evals
        .iter()
        .map(|e| e.metric_us)
        .fold(f64::INFINITY, f64::min);
    let bound = min * (1.0 + rel_tol.max(0.0));
    evals
        .iter()
        .find(|e| e.metric_us <= bound)
        .expect("at least one strategy evaluated")
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

    fn small_eval() -> EvalConfig {
        EvalConfig {
            ssd: SsdConfig {
                blocks_per_plane: 64,
                pages_per_block: 32,
                ..SsdConfig::paper_table1()
            },
            hybrid: false,
            pool: PoolConfig::with_workers(1),
        }
    }

    fn two_tenant_trace(write_iops: f64, read_iops: f64, n: usize) -> Vec<IoRequest> {
        let w = generate_tenant_stream(
            &TenantSpec::synthetic("w", 1.0, write_iops, 1 << 12),
            0,
            n,
            11,
        );
        let r = generate_tenant_stream(
            &TenantSpec::synthetic("r", 0.0, read_iops, 1 << 12),
            1,
            n,
            22,
        );
        mix_chronological(&[w, r], usize::MAX)
    }

    #[test]
    fn run_under_strategy_produces_report() {
        let trace = two_tenant_trace(5_000.0, 5_000.0, 200);
        let eval = small_eval();
        let report = run_under_strategy(
            &trace,
            Strategy::Shared,
            &[0, 1],
            &[1 << 12, 1 << 12],
            &eval,
        )
        .unwrap();
        assert_eq!(report.total.count as usize, trace.len());
    }

    #[test]
    fn evaluate_all_covers_the_two_tenant_space() {
        let trace = two_tenant_trace(8_000.0, 8_000.0, 150);
        let evals = evaluate_all(&trace, 2, &[1 << 12, 1 << 12], &small_eval()).unwrap();
        assert_eq!(evals.len(), 8);
        assert!(evals.iter().all(|e| e.metric_us > 0.0));
        // Metric is consistent with its parts.
        for e in &evals {
            assert!((e.metric_us - (e.read_us + e.write_us)).abs() < 1e-9);
        }
    }

    #[test]
    fn best_strategy_is_argmin() {
        let trace = two_tenant_trace(8_000.0, 8_000.0, 150);
        let evals = evaluate_all(&trace, 2, &[1 << 12, 1 << 12], &small_eval()).unwrap();
        let best = best_strategy(&evals);
        assert!(evals.iter().all(|e| best.metric_us <= e.metric_us));
    }

    #[test]
    fn heavily_read_skewed_mix_prefers_read_channels() {
        // Reads arrive far above one channel's ~49k IOPS service capacity:
        // 7:1 (reader squeezed onto one channel) must lose badly to 1:7.
        let trace = two_tenant_trace(4_000.0, 90_000.0, 600);
        let evals = evaluate_all(&trace, 2, &[1 << 12, 1 << 12], &small_eval()).unwrap();
        let metric = |s: Strategy| {
            evals
                .iter()
                .find(|e| e.strategy == s)
                .map(|e| e.metric_us)
                .unwrap()
        };
        assert!(
            metric(Strategy::TwoPart { write_channels: 1 })
                < metric(Strategy::TwoPart { write_channels: 7 }),
            "1:7 should beat 7:1 on a read-heavy mix"
        );
    }

    #[test]
    fn hybrid_flag_changes_policies_not_correctness() {
        let trace = two_tenant_trace(6_000.0, 6_000.0, 150);
        let mut eval = small_eval();
        let base = run_under_strategy(
            &trace,
            Strategy::Isolated,
            &[0, 1],
            &[1 << 12, 1 << 12],
            &eval,
        )
        .unwrap();
        eval.hybrid = true;
        let hybrid = run_under_strategy(
            &trace,
            Strategy::Isolated,
            &[0, 1],
            &[1 << 12, 1 << 12],
            &eval,
        )
        .unwrap();
        assert_eq!(base.total.count, hybrid.total.count);
    }

    #[test]
    #[should_panic(expected = "one char and space per tenant")]
    fn mismatched_tenant_vectors_panic() {
        let trace = two_tenant_trace(1_000.0, 1_000.0, 10);
        let _ = run_under_strategy(&trace, Strategy::Shared, &[0, 1], &[64], &small_eval());
    }

    fn layout_of(lists: &[Vec<usize>]) -> TenantLayout {
        TenantLayout::from_channel_lists(lists, &small_eval().ssd).unwrap()
    }

    #[test]
    fn components_join_overlapping_channel_sets_transitively() {
        // 0–2 and 1–2 overlap, 0–1 do not; 2 is joined to both in turn,
        // so all three form one component. Tenant 3 stands alone.
        let layout = layout_of(&[vec![0, 1], vec![2, 3], vec![1, 2], vec![5]]);
        assert_eq!(channel_components(&layout), vec![0b0111, 0b1000]);
        // The chain closes only through the last pair: 1–3 and 0–2
        // overlap, then 2–3 joins the two halves.
        let layout = layout_of(&[vec![0], vec![4], vec![0, 6], vec![4, 6]]);
        assert_eq!(channel_components(&layout), vec![0b1111]);
    }

    #[test]
    fn strategy_components_follow_the_channel_split() {
        let eval = small_eval();
        let comps = |s: Strategy, chars: &[u8]| {
            let spaces = vec![1 << 10; chars.len()];
            channel_components(&strategy_layout(s, chars, &spaces, &eval).unwrap())
        };
        assert_eq!(comps(Strategy::Shared, &[0, 1, 0, 1]), vec![0b1111]);
        assert_eq!(
            comps(Strategy::Isolated, &[0, 1, 0, 1]),
            vec![0b0001, 0b0010, 0b0100, 0b1000]
        );
        // Write group {0, 2}, read group {1, 3}.
        assert_eq!(
            comps(Strategy::TwoPart { write_channels: 3 }, &[0, 1, 0, 1]),
            vec![0b0101, 0b1010]
        );
        // Every tenant write-dominated: one group on three channels.
        assert_eq!(
            comps(Strategy::TwoPart { write_channels: 3 }, &[0, 0, 0, 0]),
            vec![0b1111]
        );
    }

    #[test]
    fn component_keys_are_shift_invariant_but_keep_the_tenant_set() {
        let a = layout_of(&[vec![0, 1], vec![2, 3, 4, 5, 6, 7]]);
        let b = layout_of(&[vec![0, 1, 2, 3, 4, 5], vec![6, 7]]);
        // Tenant 0 on two channels at 0–1 and tenant 1 on two at 6–7:
        // same shifted lists, different tenants.
        assert_ne!(ComponentKey::of(&a, 0b01), ComponentKey::of(&b, 0b10));
        let c = layout_of(&[vec![4, 5], vec![0, 1, 2, 3]]);
        assert_eq!(ComponentKey::of(&a, 0b01), ComponentKey::of(&c, 0b01));
        assert_eq!(ComponentKey::of(&c, 0b01).channels, vec![vec![0, 1]]);
    }

    #[test]
    fn unknown_tenants_are_rejected_not_filtered_away() {
        let mut trace = two_tenant_trace(1_000.0, 1_000.0, 10);
        trace[3].tenant = 2;
        let err = evaluate_all(&trace, 2, &[64, 64], &small_eval()).unwrap_err();
        assert!(matches!(err, SimError::UnknownTenant { .. }), "{err}");
    }
}
