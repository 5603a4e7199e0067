//! Arena-reuse contract: building a simulator out of a recycled
//! [`SimArena`] must be *observationally invisible*. For every workload
//! shape and seed, a warm rebuild (arena dirtied by a previous run) must
//! produce a byte-identical [`flash_sim::SimReport`] and a byte-identical
//! SSDP probe capture versus a fresh build — and error contracts like
//! command-slot exhaustion must hold on reused arenas too.

use flash_sim::{
    EventRecorder, IoRequest, Op, SimArena, SimBuilder, SimError, SimReport, SsdConfig,
    TenantLayout,
};
use simrng::{Rng, SimRng};

fn small_cfg() -> SsdConfig {
    let mut cfg = SsdConfig::small_test();
    cfg.channels = 4;
    cfg
}

/// One arena-reuse input: a device, its tenants, precondition fills and
/// a trace. Every fixture keeps `small_cfg`'s dimensions, so a warm build
/// resets the previous run's FTL in place instead of rebuilding it.
struct Fixture {
    cfg: SsdConfig,
    layout: TenantLayout,
    fills: Vec<f64>,
    trace: Vec<IoRequest>,
}

/// Write-dominated traffic hammering a tight logical space on a nearly
/// full device: remaps dominate, so GC runs throughout.
fn gc_heavy_trace(seed: u64) -> Fixture {
    let cfg = small_cfg();
    let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(48);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut trace = Vec::new();
    for i in 0..600u64 {
        let tenant = (i % 2) as u16;
        let op = if rng.gen_bool(0.9) {
            Op::Write
        } else {
            Op::Read
        };
        let lpn = rng.gen_range(0u64..48);
        trace.push(IoRequest::new(i, tenant, op, lpn, 1, i * 2_000));
    }
    Fixture {
        cfg,
        layout,
        fills: vec![0.9, 0.9],
        trace,
    }
}

/// Read-dominated traffic over a wider space with light preconditioning.
fn read_mostly_trace(seed: u64) -> Fixture {
    let cfg = small_cfg();
    let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(128);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut trace = Vec::new();
    for i in 0..600u64 {
        let tenant = (i % 2) as u16;
        let op = if rng.gen_bool(0.85) {
            Op::Read
        } else {
            Op::Write
        };
        let lpn = rng.gen_range(0u64..128);
        let pages = 1 + rng.gen_range(0u32..3);
        trace.push(IoRequest::new(i, tenant, op, lpn, pages, i * 3_000));
    }
    Fixture {
        cfg,
        layout,
        fills: vec![0.3, 0.3],
        trace,
    }
}

/// GC-heavy with static wear leveling on: a fully preconditioned cold
/// region that greedy GC never picks, next to a small hot set that is
/// overwritten continuously. Erase counts spread past the threshold, so
/// wear-leveling victims are taken, and the next build must restore the
/// erase histogram and its min/max cursors along with the counts.
fn wear_leveling_trace(seed: u64) -> Fixture {
    let cfg = SsdConfig {
        wear_leveling_threshold: 2,
        ..small_cfg()
    };
    let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(160);
    let mut rng = SimRng::seed_from_u64(seed);
    let trace = (0..900u64)
        .map(|i| {
            let lpn = rng.gen_range(0u64..8);
            IoRequest::new(i, (i % 2) as u16, Op::Write, lpn, 1, i * 2_000)
        })
        .collect();
    Fixture {
        cfg,
        layout,
        fills: vec![1.0, 1.0],
        trace,
    }
}

/// Three tenants with unequal logical spaces, unlike every other
/// fixture's two tenants: a warm build after any of them must resize the
/// mapping tables and per-tenant queues, not just clear them.
fn three_tenant_trace(seed: u64) -> Fixture {
    let cfg = small_cfg();
    let layout = TenantLayout::shared(3, &cfg)
        .with_lpn_space(0, 96)
        .with_lpn_space(1, 20)
        .with_lpn_space(2, 60);
    let mut rng = SimRng::seed_from_u64(seed);
    let trace = (0..600u64)
        .map(|i| {
            let tenant = (i % 3) as u16;
            let op = if rng.gen_bool(0.6) {
                Op::Write
            } else {
                Op::Read
            };
            let lpn = rng.gen_range(0u64..96);
            IoRequest::new(i, tenant, op, lpn, 1, i * 2_500)
        })
        .collect();
    Fixture {
        cfg,
        layout,
        fills: vec![0.5, 0.9, 0.2],
        trace,
    }
}

/// Runs a workload with a recorder attached out of the given arena (a
/// fresh one for a cold run), returning the report and the SSDP capture
/// bytes.
fn run_captured(f: &Fixture, arena: &mut SimArena) -> (SimReport, Vec<u8>) {
    let mut rec = EventRecorder::with_capacity(1 << 14);
    let sim = SimBuilder::new(f.cfg.clone(), f.layout.clone())
        .precondition(&f.fills)
        .probe(&mut rec)
        .build_with_arena(arena)
        .expect("valid device");
    let report = sim.run_reclaim(&f.trace, arena).expect("run succeeds");
    (report, rec.encode())
}

type MakeFixture = fn(u64) -> Fixture;

const FIXTURES: [(&str, MakeFixture); 4] = [
    ("gc_heavy", gc_heavy_trace),
    ("read_mostly", read_mostly_trace),
    ("wear_leveling", wear_leveling_trace),
    ("three_tenants", three_tenant_trace),
];

#[test]
fn warm_arena_runs_are_byte_identical_to_fresh_runs() {
    for (name, make) in FIXTURES {
        for seed in [1u64, 42, 9001] {
            let f = make(seed);
            let (fresh_report, fresh_ssdp) = run_captured(&f, &mut SimArena::new());

            // Dirty one arena with every *other* workload shape
            // (different GC pressure, wear spread, tenant count and
            // logical spaces), then run warm: the run just before the
            // measured one always had a different shape.
            let mut arena = SimArena::new();
            for (other, dirty) in FIXTURES {
                if other != name {
                    let (report, _) = run_captured(&dirty(7), &mut arena);
                    arena.recycle_report(report);
                }
            }
            let (warm_report, warm_ssdp) = run_captured(&f, &mut arena);

            assert_eq!(
                fresh_report, warm_report,
                "{name}/seed {seed}: warm report diverged"
            );
            assert_eq!(
                fresh_ssdp, warm_ssdp,
                "{name}/seed {seed}: warm SSDP capture diverged"
            );
            assert!(
                !fresh_ssdp.is_empty(),
                "{name}/seed {seed}: capture must not be trivially empty"
            );
        }
    }
}

#[test]
fn gc_heavy_fixture_actually_garbage_collects() {
    let (report, _) = run_captured(&gc_heavy_trace(1), &mut SimArena::new());
    assert!(
        report.ftl.gc_invocations > 0,
        "fixture must exercise the GC path"
    );
}

#[test]
fn wear_leveling_fixture_takes_wear_victims() {
    // The same trace with static wear leveling off must pick different
    // victims and leave a wider erase spread: proof that the fixture
    // reaches the wear-leveling path, not just greedy GC.
    let wl = wear_leveling_trace(1);
    let greedy = Fixture {
        cfg: SsdConfig {
            wear_leveling_threshold: 0,
            ..wl.cfg.clone()
        },
        ..wear_leveling_trace(1)
    };
    let (with_wl, _) = run_captured(&wl, &mut SimArena::new());
    let (without, _) = run_captured(&greedy, &mut SimArena::new());
    assert!(with_wl.ftl.gc_invocations > 0, "fixture must GC");
    assert!(
        with_wl.wear.spread() < without.wear.spread(),
        "wear leveling must narrow the erase spread ({} vs greedy {})",
        with_wl.wear.spread(),
        without.wear.spread()
    );
    assert!(with_wl.wear.spread() > 0, "erase counts must spread");
}

#[test]
fn cmd_slot_exhaustion_fires_on_a_reused_arena() {
    let f = read_mostly_trace(3);
    let mut arena = SimArena::new();
    // A successful run leaves the arena warm...
    let (report, _) = run_captured(&f, &mut arena);
    arena.recycle_report(report);
    // ...and a slot-limited rebuild from that same arena must still hit
    // the exhaustion error, not inherit the previous run's open limit.
    let sim = SimBuilder::new(f.cfg.clone(), f.layout.clone())
        .precondition(&f.fills)
        .cmd_slot_limit(1)
        .build_with_arena(&mut arena)
        .expect("valid device");
    let err = sim.run_reclaim(&f.trace, &mut arena).unwrap_err();
    assert!(
        matches!(err, SimError::CmdIdsExhausted { limit: 1 }),
        "expected CmdIdsExhausted, got {err:?}"
    );
    // The arena survives the failed run and still produces correct
    // results afterwards.
    let (again, _) = run_captured(&f, &mut arena);
    let (fresh, _) = run_captured(&f, &mut SimArena::new());
    assert_eq!(again, fresh, "arena must recover after an errored run");
}
