//! Differential check of the composed strategy sweep.
//!
//! `label::evaluate_all` simulates each distinct channel component once
//! and merges the components' latency stats per strategy. Every row must
//! equal one full `run_under_strategy` run of that strategy, bit for bit,
//! on `read_us`, `write_us` and `metric_us` — on both strategy spaces,
//! with the hybrid allocator on and off, under host queueing with
//! read-priority scheduling and die-level units, on a geometry where GC
//! and wear leveling run, and at one and two workers.

use flash_sim::scheduler::SchedPolicy;
use flash_sim::{IoRequest, SimArena, SsdConfig};
use parallel::PoolConfig;
use ssdkeeper::label::{evaluate_all, evaluate_all_with, run_under_strategy, EvalConfig};
use ssdkeeper::learner::{DatasetSpec, Learner};
use ssdkeeper::Strategy;
use workloads::{generate_tenant_stream, mix_chronological, ObservedFeatures, TenantSpec};

/// One device setting under test.
struct Case {
    name: &'static str,
    ssd: SsdConfig,
    hybrid: bool,
    lpn_space: u64,
}

fn cases() -> Vec<Case> {
    let sweeps = SsdConfig::scaled_for_sweeps();
    vec![
        Case {
            name: "sweeps",
            ssd: sweeps.clone(),
            hybrid: false,
            lpn_space: 1 << 12,
        },
        Case {
            name: "sweeps+hybrid",
            ssd: sweeps.clone(),
            hybrid: true,
            lpn_space: 1 << 12,
        },
        Case {
            name: "qd4+read-priority+die-units",
            ssd: SsdConfig {
                host_queue_depth: 4,
                sched_policy: SchedPolicy::ReadPriority { max_bypass: 3 },
                plane_parallelism: false,
                ..sweeps.clone()
            },
            hybrid: true,
            lpn_space: 1 << 12,
        },
        Case {
            name: "gc+wear-leveling",
            ssd: gc_geometry(),
            hybrid: true,
            lpn_space: 200,
        },
    ]
}

/// Table I topology with 16 blocks of 8 pages per plane: a single channel
/// holds 1 024 pages, so write-heavy tenants on narrow splits force GC,
/// and a spread of 2 erases triggers static wear leveling.
fn gc_geometry() -> SsdConfig {
    SsdConfig {
        blocks_per_plane: 16,
        pages_per_block: 8,
        wear_leveling_threshold: 2,
        ..SsdConfig::scaled_for_sweeps()
    }
}

/// Four-tenant labelling mixes, drawn as the learner draws them.
fn four_tenant_traces(lpn_space: u64) -> Vec<Vec<IoRequest>> {
    let mut spec = DatasetSpec::quick(1);
    spec.requests_per_sample = 1_200;
    spec.lpn_space = lpn_space;
    let learner = Learner::new(spec);
    let mut traces: Vec<Vec<IoRequest>> = [1u64, 2, 3, 5, 8, 13]
        .iter()
        .map(|&seed| {
            let mut rng = simrng::SimRng::seed_from_u64(seed);
            learner.sample_mixed_workload(&mut rng).0
        })
        .collect();
    // Every tenant write-dominated: two-part splits leave the read group
    // empty and put all four tenants in one component.
    let writers: Vec<Vec<IoRequest>> = (0..4u16)
        .map(|t| {
            let spec = TenantSpec::synthetic("w", 0.9, 9_000.0, lpn_space);
            generate_tenant_stream(&spec, t, 300, 40 + t as u64)
        })
        .collect();
    traces.push(mix_chronological(&writers, usize::MAX));
    traces
}

/// Two-tenant Figure 2 style mixes (one writer, one reader) plus a longer
/// one with both tenants write-dominated, which GCs on narrow splits.
fn two_tenant_traces(lpn_space: u64) -> Vec<Vec<IoRequest>> {
    let mut traces = Vec::new();
    for (write_pct, seed) in [(20.0, 7u64), (50.0, 11), (80.0, 2020)] {
        let total = 60_000.0;
        let p = write_pct / 100.0;
        let w = TenantSpec::synthetic("writer", 1.0, total * p, lpn_space);
        let r = TenantSpec::synthetic("reader", 0.0, total * (1.0 - p), lpn_space);
        traces.push(mix_chronological(
            &[
                generate_tenant_stream(&w, 0, (1_000.0 * p) as usize, seed),
                generate_tenant_stream(&r, 1, (1_000.0 * (1.0 - p)) as usize, seed + 100),
            ],
            usize::MAX,
        ));
    }
    let a = TenantSpec::synthetic("a", 0.95, 20_000.0, lpn_space);
    let b = TenantSpec::synthetic("b", 0.8, 10_000.0, lpn_space);
    traces.push(mix_chronological(
        &[
            generate_tenant_stream(&a, 0, 2_000, 3),
            generate_tenant_stream(&b, 1, 1_000, 4),
        ],
        usize::MAX,
    ));
    traces
}

/// Asserts that the composed sweep equals full runs on every trace, at
/// one worker (one arena reused across traces) and at two; returns the
/// GC passes the full runs made.
fn assert_composed_sweep_is_exact(case: &Case, tenants: usize, traces: &[Vec<IoRequest>]) -> u64 {
    let lpn_spaces = vec![case.lpn_space; tenants];
    let eval = |workers| EvalConfig {
        ssd: case.ssd.clone(),
        hybrid: case.hybrid,
        pool: PoolConfig::with_workers(workers),
    };
    let (one, two) = (eval(1), eval(2));
    let mut arena = SimArena::new();
    let mut gc_passes = 0;
    for (i, trace) in traces.iter().enumerate() {
        let obs = ObservedFeatures::collect(trace, tenants, u64::MAX);
        let rw_chars: Vec<u8> = (0..tenants).map(|t| obs.rw_characteristic(t)).collect();
        let sequential = evaluate_all_with(trace, tenants, &lpn_spaces, &one, &mut arena).unwrap();
        let parallel = evaluate_all(trace, tenants, &lpn_spaces, &two).unwrap();
        let strategies = Strategy::all_for_tenants(tenants);
        assert_eq!(sequential.len(), strategies.len());
        assert_eq!(parallel.len(), strategies.len());
        for ((strategy, seq), par) in strategies.iter().zip(&sequential).zip(&parallel) {
            let full = run_under_strategy(trace, *strategy, &rw_chars, &lpn_spaces, &one).unwrap();
            gc_passes += full.ftl.gc_invocations;
            let want = [
                full.read.mean_us(),
                full.write.mean_us(),
                full.total_latency_metric_us(),
            ];
            for (workers, row) in [(1, seq), (2, par)] {
                assert_eq!(row.strategy, *strategy);
                let got = [row.read_us, row.write_us, row.metric_us];
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{} trace {i} {strategy} at {workers} worker(s): composed \
                     [read, write, metric] {got:?} != full run {want:?}",
                    case.name,
                );
            }
        }
    }
    gc_passes
}

#[test]
fn four_tenant_sweep_equals_full_runs() {
    for case in cases() {
        let gc = assert_composed_sweep_is_exact(&case, 4, &four_tenant_traces(case.lpn_space));
        if case.name == "gc+wear-leveling" {
            assert!(gc > 0, "the GC geometry must garbage-collect");
        }
    }
}

#[test]
fn two_tenant_sweep_equals_full_runs() {
    for case in cases() {
        let gc = assert_composed_sweep_is_exact(&case, 2, &two_tenant_traces(case.lpn_space));
        if case.name == "gc+wear-leveling" {
            assert!(gc > 0, "the GC geometry must garbage-collect");
        }
    }
}
