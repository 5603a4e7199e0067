//! Differential oracle for the flash translation layer.
//!
//! The real [`Ftl`] keeps indexed state: a lazy victim heap per valid
//! count, an erase-count histogram with min/max cursors, fused GC
//! migration and flat per-device block tables. A reference model with
//! none of that — one enum per page, nested per-block vectors and
//! linear-scan victim selection, written straight from the policy's
//! definition — runs the same seeded op streams in lockstep through the
//! public API (`new`, `write`, `translate_read`, `stats`,
//! `plane_free_pages`, `plane_free_blocks`, `wear_summary`). Every op
//! must return the same [`WriteOutcome`] (address and [`GcCharge`],
//! victim included) or read address, and the run must end with the same
//! counters, free space, mapping and wear distribution.

use flash_sim::ftl::gc::GcCharge;
use flash_sim::ftl::wear::{wear_summary, WearSummary};
use flash_sim::ftl::{Ftl, FtlError, FtlStats, WriteOutcome};
use flash_sim::{Geometry, PhysAddr, SsdConfig, TenantLayout};
use simrng::{Rng, SimRng};

/// Per-page state of the reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    Free,
    Valid { tenant: u16, lpn: u64 },
    Invalid,
}

struct RefBlock {
    pages: Vec<PageState>,
    next_page: usize,
    erase_count: u32,
}

impl RefBlock {
    fn valid(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| matches!(p, PageState::Valid { .. }))
            .count()
    }
}

struct RefPlane {
    blocks: Vec<RefBlock>,
    active: Option<usize>,
    free_blocks: Vec<usize>,
}

/// The naive FTL: the same policy as [`Ftl`], no indexes.
struct RefFtl {
    geo: Geometry,
    pages_per_block: usize,
    gc_trigger_blocks: usize,
    wear_threshold: u32,
    read_ns: u64,
    write_ns: u64,
    erase_ns: u64,
    planes: Vec<RefPlane>,
    /// `maps[tenant][lpn]` = `(plane, block, page)`.
    maps: Vec<Vec<Option<(usize, usize, usize)>>>,
    stats: FtlStats,
    /// GC passes whose victim came from static wear leveling.
    wear_picks: u64,
}

impl RefFtl {
    fn new(cfg: &SsdConfig, layout: &TenantLayout) -> Self {
        let geo = Geometry::new(cfg);
        let planes = (0..geo.total_planes())
            .map(|_| RefPlane {
                blocks: (0..cfg.blocks_per_plane)
                    .map(|_| RefBlock {
                        pages: vec![PageState::Free; cfg.pages_per_block],
                        next_page: 0,
                        erase_count: 0,
                    })
                    .collect(),
                active: None,
                // Popped from the back: block 0 opens first.
                free_blocks: (0..cfg.blocks_per_plane).rev().collect(),
            })
            .collect();
        Self {
            geo,
            pages_per_block: cfg.pages_per_block,
            gc_trigger_blocks: ((cfg.blocks_per_plane as f64 * cfg.gc_free_block_threshold).ceil()
                as usize)
                .max(2),
            wear_threshold: cfg.wear_leveling_threshold,
            read_ns: cfg.read_latency_ns,
            write_ns: cfg.write_latency_ns,
            erase_ns: cfg.erase_latency_ns,
            planes,
            maps: layout
                .iter()
                .map(|t| vec![None; t.lpn_space as usize])
                .collect(),
            stats: FtlStats::default(),
            wear_picks: 0,
        }
    }

    fn free_pages(&self, plane: usize) -> u64 {
        self.planes[plane]
            .blocks
            .iter()
            .flat_map(|b| &b.pages)
            .filter(|p| **p == PageState::Free)
            .count() as u64
    }

    fn free_blocks(&self, plane: usize) -> usize {
        let p = &self.planes[plane];
        p.free_blocks.len() + usize::from(p.active.is_some())
    }

    fn write(&mut self, tenant: u16, lpn: u64, plane: usize) -> Result<WriteOutcome, FtlError> {
        let map = self
            .maps
            .get(tenant as usize)
            .ok_or(FtlError::UnknownTenant(tenant))?;
        let lpn = lpn % map.len() as u64;
        self.write_inner(tenant, lpn, plane)
    }

    fn translate_read(
        &mut self,
        tenant: u16,
        lpn: u64,
        layout: &TenantLayout,
    ) -> Result<PhysAddr, FtlError> {
        let map = self
            .maps
            .get(tenant as usize)
            .ok_or(FtlError::UnknownTenant(tenant))?;
        let lpn = lpn % map.len() as u64;
        if let Some((p, b, pg)) = map[lpn as usize] {
            return Ok(self.geo.addr_at(p, b as u32, pg as u32));
        }
        // Seeding: place the never-written page by static striping
        // (channel-first, then die within channel, then plane in die),
        // free of timing.
        let chans = layout.tenant(tenant as usize).channels.channels();
        let n = chans.len() as u64;
        let dpc = self.geo.dies_per_channel() as u64;
        let channel = chans[(lpn % n) as usize] as usize;
        let die = self.geo.die_index_of(channel, ((lpn / n) % dpc) as usize);
        let plane = self.geo.plane_index_of(
            die,
            ((lpn / (n * dpc)) % self.geo.planes_per_die() as u64) as usize,
        );
        let out = self.write_inner(tenant, lpn, plane)?;
        self.stats.seeded_pages += 1;
        self.stats.host_pages_written -= 1;
        Ok(out.addr)
    }

    fn write_inner(
        &mut self,
        tenant: u16,
        lpn: u64,
        plane: usize,
    ) -> Result<WriteOutcome, FtlError> {
        if let Some((p, b, pg)) = self.maps[tenant as usize][lpn as usize] {
            let page = &mut self.planes[p].blocks[b].pages[pg];
            assert_eq!(*page, PageState::Valid { tenant, lpn });
            *page = PageState::Invalid;
        }
        let (b, pg) = self.append(plane, tenant, lpn)?;
        self.maps[tenant as usize][lpn as usize] = Some((plane, b, pg));
        self.stats.host_pages_written += 1;
        let gc = if self.free_blocks(plane) < self.gc_trigger_blocks {
            self.collect(plane)
        } else {
            None
        };
        Ok(WriteOutcome {
            addr: self.geo.addr_at(plane, b as u32, pg as u32),
            gc,
        })
    }

    fn active_is_full(&self, plane: usize) -> bool {
        let p = &self.planes[plane];
        p.active
            .is_none_or(|b| p.blocks[b].next_page >= self.pages_per_block)
    }

    fn append(&mut self, plane: usize, tenant: u16, lpn: u64) -> Result<(usize, usize), FtlError> {
        if self.active_is_full(plane) {
            let p = &mut self.planes[plane];
            p.active = Some(p.free_blocks.pop().ok_or(FtlError::PlaneFull { plane })?);
        }
        let p = &mut self.planes[plane];
        let b = p.active.expect("an open block");
        let block = &mut p.blocks[b];
        let pg = block.next_page;
        assert_eq!(block.pages[pg], PageState::Free);
        block.pages[pg] = PageState::Valid { tenant, lpn };
        block.next_page += 1;
        Ok((b, pg))
    }

    /// Full blocks other than the open one: the only GC candidates.
    fn candidates(&self, plane: usize) -> impl Iterator<Item = (usize, &RefBlock)> {
        let p = &self.planes[plane];
        p.blocks
            .iter()
            .enumerate()
            .filter(move |&(i, b)| b.next_page >= self.pages_per_block && p.active != Some(i))
    }

    fn collect(&mut self, plane: usize) -> Option<GcCharge> {
        let wear = if self.wear_threshold == 0 {
            None
        } else {
            let erases = self.planes[plane].blocks.iter().map(|b| b.erase_count);
            let spread = erases.clone().max().unwrap() - erases.min().unwrap();
            if spread > self.wear_threshold {
                self.candidates(plane)
                    .map(|(i, b)| (b.erase_count, b.valid(), i))
                    .min()
                    .map(|(_, _, i)| i)
            } else {
                None
            }
        };
        if wear.is_some() {
            self.wear_picks += 1;
        }
        let victim = wear.or_else(|| {
            self.candidates(plane)
                .filter(|(_, b)| b.valid() < self.pages_per_block)
                .map(|(i, b)| (b.valid(), b.erase_count, i))
                .min()
                .map(|(_, _, i)| i)
        })?;

        let mut live = Vec::new();
        for page in &mut self.planes[plane].blocks[victim].pages {
            if let PageState::Valid { tenant, lpn } = *page {
                live.push((tenant, lpn));
            }
            *page = PageState::Invalid;
        }
        let mut victim_erased = false;
        for &(tenant, lpn) in &live {
            if self.active_is_full(plane) && self.planes[plane].free_blocks.is_empty() {
                self.erase(plane, victim);
                victim_erased = true;
            }
            let (b, pg) = self.append(plane, tenant, lpn).expect("GC has room");
            self.maps[tenant as usize][lpn as usize] = Some((plane, b, pg));
        }
        if !victim_erased {
            self.erase(plane, victim);
        }
        let moved = live.len() as u32;
        self.stats.gc_pages_moved += moved as u64;
        self.stats.gc_blocks_erased += 1;
        self.stats.gc_invocations += 1;
        Some(GcCharge {
            plane,
            victim_block: victim as u32,
            duration_ns: moved as u64 * (self.read_ns + self.write_ns) + self.erase_ns,
            moved_pages: moved,
            erased_blocks: 1,
        })
    }

    fn erase(&mut self, plane: usize, block: usize) {
        let p = &mut self.planes[plane];
        let b = &mut p.blocks[block];
        assert_eq!(b.valid(), 0, "erasing live data");
        b.pages.fill(PageState::Free);
        b.next_page = 0;
        b.erase_count += 1;
        p.free_blocks.push(block);
    }

    /// Two passes in plane-major block order, the order the real summary
    /// promises, so the floating-point fields must match exactly.
    fn wear(&self) -> WearSummary {
        let counts = || {
            self.planes
                .iter()
                .flat_map(|p| p.blocks.iter().map(|b| b.erase_count))
        };
        let n = counts().count() as f64;
        let total: u64 = counts().map(u64::from).sum();
        let mean = total as f64 / n;
        let mut sq_sum = 0.0f64;
        for c in counts() {
            let d = c as f64 - mean;
            sq_sum += d * d;
        }
        WearSummary {
            total_erases: total,
            min: counts().min().unwrap(),
            max: counts().max().unwrap(),
            mean,
            std_dev: (sq_sum / n).sqrt(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Write { tenant: u16, lpn: u64, plane: usize },
    Read { tenant: u16, lpn: u64 },
}

/// What a lockstep run ended with, for the scenario's coverage asserts.
struct Ran {
    stats: FtlStats,
    wear: WearSummary,
    wear_picks: u64,
    plane_full: bool,
}

/// Drives the real FTL and the reference side by side, asserting equal
/// observations after every op. A `PlaneFull` error ends the stream: the
/// engine treats it as fatal and never writes to the device again.
fn lockstep(name: &str, cfg: &SsdConfig, layout: &TenantLayout, ops: &[Op]) -> Ran {
    let mut real = Ftl::new(cfg, layout);
    let mut oracle = RefFtl::new(cfg, layout);
    let planes = real.geometry().total_planes();
    let mut plane_full = false;
    for (i, &op) in ops.iter().enumerate() {
        let err = match op {
            Op::Write { tenant, lpn, plane } => {
                let got = real.write(tenant, lpn, plane);
                let want = oracle.write(tenant, lpn, plane);
                assert_eq!(got, want, "{name}: op {i} {op:?}");
                got.err()
            }
            Op::Read { tenant, lpn } => {
                let got = real.translate_read(tenant, lpn, layout);
                let want = oracle.translate_read(tenant, lpn, layout);
                assert_eq!(got, want, "{name}: op {i} {op:?}");
                got.err()
            }
        };
        for p in 0..planes {
            assert_eq!(
                (real.plane_free_pages(p), real.plane_free_blocks(p)),
                (oracle.free_pages(p), oracle.free_blocks(p)),
                "{name}: op {i} plane {p} free space"
            );
        }
        if let Some(FtlError::PlaneFull { .. }) = err {
            plane_full = true;
            break;
        }
    }
    assert_eq!(real.stats(), oracle.stats, "{name}: stats");
    let wear = wear_summary(&real);
    assert_eq!(wear, oracle.wear(), "{name}: wear summary");
    if !plane_full {
        real.check_invariants();
        // Reads of every LPN compare the whole mapping (and seed the
        // rest identically on both sides).
        for (t, state) in layout.iter().enumerate() {
            for lpn in 0..state.lpn_space {
                let got = real.translate_read(t as u16, lpn, layout);
                assert_eq!(
                    got,
                    oracle.translate_read(t as u16, lpn, layout),
                    "{name}: final read t{t} lpn {lpn}"
                );
            }
        }
        assert_eq!(real.stats(), oracle.stats, "{name}: stats after reads");
    }
    Ran {
        stats: real.stats(),
        wear,
        wear_picks: oracle.wear_picks,
        plane_full,
    }
}

fn small(channels: usize) -> SsdConfig {
    SsdConfig {
        channels,
        ..SsdConfig::small_test()
    }
}

/// One plane pair on one die, with block sizes that are not a multiple
/// of 64 pages as well as ones that are.
fn odd_blocks(pages_per_block: usize, wear_leveling_threshold: u32) -> SsdConfig {
    SsdConfig {
        channels: 1,
        planes_per_die: 2,
        blocks_per_plane: 6,
        pages_per_block,
        wear_leveling_threshold,
        ..SsdConfig::small_test()
    }
}

/// Hot-set overwrites across random planes: most writes hit a small hot
/// set, the rest stay cold, so blocks hold a mix and GC must migrate.
fn hot_overwrite_ops(rng: &mut SimRng, layout: &TenantLayout, planes: usize, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let tenant = rng.gen_range(0..layout.tenant_count()) as u16;
            let space = layout.tenant(tenant as usize).lpn_space;
            let lpn = if rng.gen_bool(0.8) {
                rng.gen_range(0..space / 4)
            } else {
                rng.gen_range(0..space)
            };
            Op::Write {
                tenant,
                lpn,
                plane: rng.gen_range(0..planes),
            }
        })
        .collect()
}

/// Cold data written once per plane, then a hot set hammered on the same
/// plane: greedy GC never touches the cold blocks, so their erase counts
/// fall behind and static wear leveling (when on) must pull them back.
fn cold_then_hot_ops(rng: &mut SimRng, planes: usize, cold: u64, hot: u64, n: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for plane in 0..planes {
        let base = plane as u64 * (cold + hot);
        for lpn in base + hot..base + hot + cold {
            ops.push(Op::Write {
                tenant: 0,
                lpn,
                plane,
            });
        }
    }
    for _ in 0..n {
        let plane = rng.gen_range(0..planes);
        ops.push(Op::Write {
            tenant: 0,
            lpn: plane as u64 * (cold + hot) + rng.gen_range(0..hot),
            plane,
        });
    }
    ops
}

#[test]
fn hot_overwrites_match_the_reference_through_gc() {
    for seed in 1..=6u64 {
        for (label, cfg) in [
            ("small_4ch", small(4)),
            ("ppb64", odd_blocks(64, 0)),
            ("ppb72", odd_blocks(72, 0)),
            ("ppb128", odd_blocks(128, 0)),
        ] {
            let geo = Geometry::new(&cfg);
            let planes = geo.total_planes();
            // A third of the device's pages of logical space, in two
            // tenants: enough live data that victims are rarely empty.
            let space = (geo.total_pages() / 6).max(8);
            let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(space);
            let mut rng = SimRng::seed_from_u64(seed);
            let ops = hot_overwrite_ops(&mut rng, &layout, planes, 3_000);
            let ran = lockstep(&format!("{label}/seed {seed}"), &cfg, &layout, &ops);
            assert!(ran.stats.gc_invocations > 0, "{label}/seed {seed}: no GC");
            assert!(
                ran.stats.gc_pages_moved > 0,
                "{label}/seed {seed}: GC never migrated a live page"
            );
        }
    }
}

#[test]
fn static_wear_leveling_matches_the_reference() {
    for seed in 1..=4u64 {
        for (label, cfg) in [("small", small(2)), ("ppb72", odd_blocks(72, 0))] {
            let planes = Geometry::new(&cfg).total_planes();
            let per_plane = (cfg.blocks_per_plane * cfg.pages_per_block) as u64;
            let (cold, hot) = (per_plane / 4, per_plane / 4);
            let layout =
                TenantLayout::shared(1, &cfg).with_lpn_space_all(planes as u64 * per_plane);
            let mut rng = SimRng::seed_from_u64(seed);
            let ops = cold_then_hot_ops(&mut rng, planes, cold, hot, 6_000);
            for threshold in [0u32, 3] {
                let cfg = SsdConfig {
                    wear_leveling_threshold: threshold,
                    ..cfg.clone()
                };
                let name = format!("{label}/wl {threshold}/seed {seed}");
                let ran = lockstep(&name, &cfg, &layout, &ops);
                assert!(!ran.plane_full, "{name}: plane filled");
                if threshold == 0 {
                    assert_eq!(ran.wear_picks, 0, "{name}: wear leveling must stay off");
                } else {
                    assert!(ran.wear_picks > 0, "{name}: wear leveling never fired");
                    assert!(ran.wear.max > ran.wear.min, "{name}: no erase spread");
                }
            }
        }
    }
}

#[test]
fn seeded_reads_and_multiple_tenants_match_the_reference() {
    let cfg = small(4);
    let planes = Geometry::new(&cfg).total_planes();
    // Three tenants on different channel sets and logical spaces.
    let layout = TenantLayout::from_channel_lists(&[vec![0], vec![1, 2], vec![3, 0]], &cfg)
        .unwrap()
        .with_lpn_space(0, 40)
        .with_lpn_space(1, 64)
        .with_lpn_space(2, 24);
    for seed in 1..=6u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let ops: Vec<Op> = (0..4_000)
            .map(|_| {
                // Tenant 3 is outside the layout: both sides must reject
                // it without touching state.
                let tenant = if rng.gen_bool(0.02) {
                    3
                } else {
                    rng.gen_range(0..3u16)
                };
                // LPNs beyond the tenant's space wrap.
                let lpn = rng.gen_range(0..128u64);
                if rng.gen_bool(0.4) {
                    Op::Read { tenant, lpn }
                } else {
                    Op::Write {
                        tenant,
                        lpn,
                        plane: rng.gen_range(0..planes),
                    }
                }
            })
            .collect();
        let ran = lockstep(&format!("tenants/seed {seed}"), &cfg, &layout, &ops);
        assert!(ran.stats.seeded_pages > 0, "seed {seed}: no read seeded");
        assert!(ran.stats.gc_invocations > 0, "seed {seed}: no GC");
        assert!(!ran.plane_full, "seed {seed}: plane filled");
    }
}

#[test]
fn plane_full_exhaustion_matches_the_reference() {
    for (label, base) in [("small", small(2)), ("ppb72", odd_blocks(72, 0))] {
        let cfg = SsdConfig {
            gc_free_block_threshold: 0.0,
            ..base
        };
        let planes = Geometry::new(&cfg).total_planes();
        let per_plane = (cfg.blocks_per_plane * cfg.pages_per_block) as u64;
        for seed in 1..=4u64 {
            let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(10 * per_plane);
            let mut rng = SimRng::seed_from_u64(seed);
            // Mostly fresh pages onto two planes, with some overwrites
            // and seeding reads: GC runs but finds too little garbage,
            // and a plane eventually fills.
            let ops: Vec<Op> = (0..4 * per_plane)
                .map(|i| {
                    let tenant = (i % 2) as u16;
                    if rng.gen_bool(0.1) {
                        Op::Read {
                            tenant,
                            lpn: rng.gen_range(0..10 * per_plane),
                        }
                    } else {
                        let lpn = if rng.gen_bool(0.1) {
                            rng.gen_range(0..8)
                        } else {
                            i
                        };
                        Op::Write {
                            tenant,
                            lpn,
                            plane: rng.gen_range(0..2.min(planes)),
                        }
                    }
                })
                .collect();
            let ran = lockstep(&format!("{label}/full/seed {seed}"), &cfg, &layout, &ops);
            assert!(ran.plane_full, "{label}/seed {seed}: never hit PlaneFull");
        }
    }
}
