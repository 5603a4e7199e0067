//! Flash translation layer: mapping, page allocation, garbage collection,
//! and wear accounting.
//!
//! Structure:
//! * [`mapping`] — per-tenant logical-to-physical page tables;
//! * [`alloc`] — static/dynamic plane selection (the paper's two page
//!   allocation modes, combined by SSDKeeper's hybrid page allocator);
//! * [`gc`] — greedy per-plane garbage collection;
//! * [`wear`] — erase-count accounting.
//!
//! Block and page state lives here, in one device-wide struct-of-arrays
//! with a page-validity bitset (`BlockTable`), so resetting the device
//! for the next run costs time linear in blocks, not pages.
//!
//! The FTL here is *logically synchronous*: the bookkeeping effect of a
//! write or a GC pass is applied immediately, while its **timing** cost is
//! returned to the engine as a charge ([`gc::GcCharge`]) that occupies the
//! die in simulated time. This keeps the data structures simple and
//! deterministic without losing the performance interference GC causes.

pub mod alloc;
pub mod gc;
pub mod mapping;
pub mod wear;

use crate::config::SsdConfig;
use crate::geometry::{Geometry, PhysAddr};
use crate::tenant::TenantLayout;
use gc::GcCharge;
use mapping::TenantMap;

/// Packs a page owner `(tenant, lpn)` into one word: the tenant in the
/// top 16 bits, the LPN below. Mapping tables are dense (4 bytes per
/// LPN), so every LPN the FTL sees is far below 2^48.
#[inline]
fn pack_owner(tenant: u16, lpn: u64) -> u64 {
    debug_assert!(lpn < 1 << 48, "LPN exceeds the owner word");
    (tenant as u64) << 48 | lpn
}

/// Inverse of [`pack_owner`].
#[inline]
fn unpack_owner(owner: u64) -> (u16, u64) {
    ((owner >> 48) as u16, owner & ((1 << 48) - 1))
}

/// Block and page state for the whole device, as flat arrays.
///
/// Blocks are numbered device-wide in plane-major order: block `b` of
/// flat plane `p` is `p * blocks_per_plane + b`, so page `i` of block `g`
/// is page `g * pages_per_block + i`, which is exactly its packed page id
/// ([`Geometry::packed_at`]). A page's state is implied, not stored:
///
/// * **free** — at or above its block's write pointer (`next_page`);
/// * **valid** — below the pointer with its validity bit set;
/// * **invalid** — below the pointer with the bit clear.
///
/// `owner` is read only for pages whose bit is set, so neither an erase
/// nor [`Ftl::reset`] has to touch it: a reset rewrites 12 bytes of
/// header plus `pages_per_block.div_ceil(64)` bitset words per block.
#[derive(Debug)]
struct BlockTable {
    pages_per_block: usize,
    /// Bitset words per block; every geometry takes the same word path.
    words_per_block: usize,
    /// Write pointer per block: next page to program, `== pages_per_block`
    /// when full.
    next_page: Vec<u32>,
    /// Set validity bits per block.
    valid_count: Vec<u32>,
    /// Lifetime erases per block.
    erase_count: Vec<u32>,
    /// Page validity: bit `i % 64` of word `g * words_per_block + i / 64`
    /// is page `i` of block `g`. Never set at or above a write pointer.
    valid_bits: Vec<u64>,
    /// [`pack_owner`] of each page's `(tenant, lpn)`; stale unless the
    /// page's validity bit is set.
    owner: Vec<u64>,
}

impl BlockTable {
    fn new(cfg: &SsdConfig, total_blocks: usize) -> Self {
        let words_per_block = cfg.pages_per_block.div_ceil(64);
        Self {
            pages_per_block: cfg.pages_per_block,
            words_per_block,
            next_page: vec![0; total_blocks],
            valid_count: vec![0; total_blocks],
            erase_count: vec![0; total_blocks],
            valid_bits: vec![0; total_blocks * words_per_block],
            owner: vec![0; total_blocks * cfg.pages_per_block],
        }
    }

    /// Factory-fresh state for the same dimensions. `owner` keeps its
    /// stale words: no bit points at them.
    fn reset(&mut self) {
        self.next_page.fill(0);
        self.valid_count.fill(0);
        self.erase_count.fill(0);
        self.valid_bits.fill(0);
    }

    #[inline]
    fn is_full(&self, block: usize) -> bool {
        self.next_page[block] as usize >= self.pages_per_block
    }

    /// Packed page id of page `page` of device-wide block `block`.
    #[inline]
    fn packed(&self, block: usize, page: u32) -> u32 {
        (block * self.pages_per_block) as u32 + page
    }

    #[inline]
    fn bit(&self, block: usize, page: u32) -> (usize, u64) {
        let page = page as usize;
        (block * self.words_per_block + page / 64, 1 << (page % 64))
    }

    #[inline]
    fn is_valid(&self, block: usize, page: u32) -> bool {
        let (word, mask) = self.bit(block, page);
        self.valid_bits[word] & mask != 0
    }

    /// Programs the next free page of `block` with live data for `owner`
    /// and returns its index within the block.
    #[inline]
    fn program(&mut self, block: usize, owner: u64) -> u32 {
        let page = self.next_page[block];
        debug_assert!((page as usize) < self.pages_per_block, "block is full");
        let (word, mask) = self.bit(block, page);
        self.valid_bits[word] |= mask;
        self.owner[block * self.pages_per_block + page as usize] = owner;
        self.next_page[block] = page + 1;
        self.valid_count[block] += 1;
        page
    }

    /// Marks one valid page invalid.
    #[inline]
    fn invalidate(&mut self, block: usize, page: u32) {
        let (word, mask) = self.bit(block, page);
        debug_assert!(self.valid_bits[word] & mask != 0, "page is not valid");
        self.valid_bits[word] &= !mask;
        self.valid_count[block] -= 1;
    }

    /// Invalidates every page of `block`, appending the owners of the
    /// live ones to `live` in page order.
    fn drain_live(&mut self, block: usize, live: &mut Vec<u64>) {
        let words =
            &mut self.valid_bits[block * self.words_per_block..(block + 1) * self.words_per_block];
        let owners = &self.owner[block * self.pages_per_block..(block + 1) * self.pages_per_block];
        for (w, word) in words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                live.push(owners[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        self.valid_count[block] = 0;
    }
}

/// One plane: the unit of page allocation and garbage collection. Its
/// blocks' headers and pages live in the device-wide [`BlockTable`],
/// starting at block `base`; block indices here are plane-local.
#[derive(Debug)]
pub(crate) struct PlaneState {
    /// Device-wide index of the plane's block 0.
    base: usize,
    /// Block currently receiving writes, if any.
    active_block: Option<usize>,
    /// Fully erased blocks available to become active.
    free_blocks: Vec<u32>,
    /// Count of free pages across the plane (fast full-check).
    free_pages: u64,
    /// GC victim index: bucket `v` holds candidate entries for **full,
    /// non-active** blocks with `valid_count == v` as a lazy min-heap of
    /// `(erase_count << 32) | block_idx` keys, so the greedy victim — min
    /// by `(valid, erase, idx)` — is the live top of the first non-empty
    /// bucket. Entries are pushed on every transition into a bucket and
    /// never removed eagerly: a stale entry (its block moved on, got
    /// erased, or became active) is detected by comparing the key against
    /// the block's current state and popped at query time. Each push is
    /// popped at most once, so maintenance is O(log bucket) per
    /// invalidation with no per-node allocation — unlike the ordered-set
    /// variant this replaces, whose rebalancing dominated the GC-heavy
    /// write path.
    full_blocks: Vec<std::collections::BinaryHeap<std::cmp::Reverse<u64>>>,
    /// `erase_hist[c]` = blocks with `erase_count == c`; with the min/max
    /// cursors below it answers the wear-leveling spread check in O(1).
    erase_hist: Vec<u32>,
    /// Smallest erase count present in the plane.
    min_erase: u32,
    /// Largest erase count present in the plane.
    max_erase: u32,
}

impl PlaneState {
    fn new(cfg: &SsdConfig, base: usize) -> Self {
        Self {
            base,
            active_block: None,
            free_blocks: (0..cfg.blocks_per_plane as u32).rev().collect(),
            free_pages: (cfg.blocks_per_plane * cfg.pages_per_block) as u64,
            full_blocks: vec![std::collections::BinaryHeap::new(); cfg.pages_per_block + 1],
            erase_hist: vec![cfg.blocks_per_plane as u32],
            min_erase: 0,
            max_erase: 0,
        }
    }

    /// Packs a victim-index entry; `Reverse` turns the max-heap into the
    /// min-heap the `(erase, idx)` order needs.
    #[inline]
    fn victim_key(erase: u32, block: u32) -> std::cmp::Reverse<u64> {
        std::cmp::Reverse((erase as u64) << 32 | block as u64)
    }

    /// Whether a bucket entry still describes its block: the block must be
    /// full, non-active, in this bucket, and not erased since the push
    /// (each erase bumps `erase_count`, so a block never re-enters a
    /// bucket under a key it already used).
    #[inline]
    fn entry_is_current(&self, blocks: &BlockTable, bucket: usize, key: u64) -> bool {
        let idx = key as u32 as usize;
        let g = self.base + idx;
        blocks.is_full(g)
            && self.active_block != Some(idx)
            && blocks.valid_count[g] as usize == bucket
            && blocks.erase_count[g] == (key >> 32) as u32
    }

    /// Adds `block` (full, non-active) to the bucket of its current valid
    /// count. Stale entries from earlier states are left behind for the
    /// query-time cleanup.
    fn index_insert(&mut self, blocks: &BlockTable, block: usize) {
        let g = self.base + block;
        self.full_blocks[blocks.valid_count[g] as usize]
            .push(Self::victim_key(blocks.erase_count[g], block as u32));
    }

    /// Pops stale entries off a bucket and returns its live minimum
    /// `(erase, idx)` key, if any.
    fn bucket_top(&mut self, blocks: &BlockTable, bucket: usize) -> Option<u64> {
        while let Some(&std::cmp::Reverse(key)) = self.full_blocks[bucket].peek() {
            if self.entry_is_current(blocks, bucket, key) {
                return Some(key);
            }
            self.full_blocks[bucket].pop();
        }
        None
    }

    /// Greedy victim: the full, non-active block minimizing
    /// `(valid_count, erase_count, idx)`, excluding fully-valid blocks
    /// (nothing reclaimable). Exactly the order of the old linear scan.
    fn greedy_victim(&mut self, blocks: &BlockTable) -> Option<usize> {
        let fully_valid = self.full_blocks.len() - 1;
        (0..fully_valid).find_map(|v| self.bucket_top(blocks, v).map(|key| key as u32 as usize))
    }

    /// Wear victim: the full, non-active block minimizing
    /// `(erase_count, valid_count, idx)` — fully-valid blocks included,
    /// since cold data is exactly what static wear leveling must move.
    /// Each bucket's live top is its min by `(erase, idx)`, so one
    /// candidate per bucket finds the global min in O(pages_per_block).
    fn wear_victim(&mut self, blocks: &BlockTable) -> Option<usize> {
        (0..self.full_blocks.len())
            .filter_map(|valid| {
                self.bucket_top(blocks, valid).map(|key| {
                    let idx = key as u32;
                    let erase = (key >> 32) as u32;
                    (erase, valid as u32, idx)
                })
            })
            .min()
            .map(|(_, _, idx)| idx as usize)
    }

    /// Records that a block went from `old_count` to `old_count + 1`
    /// erases, keeping the histogram and min/max cursors exact.
    fn note_erase(&mut self, old_count: u32) {
        self.erase_hist[old_count as usize] -= 1;
        if old_count as usize + 1 == self.erase_hist.len() {
            self.erase_hist.push(0);
        }
        self.erase_hist[old_count as usize + 1] += 1;
        self.max_erase = self.max_erase.max(old_count + 1);
        while self.erase_hist[self.min_erase as usize] == 0 {
            self.min_erase += 1;
        }
    }

    /// `max - min` erase count over all blocks, in O(1).
    fn erase_spread(&self) -> u32 {
        self.max_erase - self.min_erase
    }

    /// Restores the factory-fresh [`PlaneState::new`] state in place,
    /// keeping the free-list, victim-bucket and histogram allocations.
    /// The plane's shape must be unchanged — [`Ftl::reset`] guarantees it
    /// via the geometry check.
    fn reset(&mut self, blocks_per_plane: usize) {
        self.active_block = None;
        self.free_blocks.clear();
        self.free_blocks.extend((0..blocks_per_plane as u32).rev());
        self.free_pages = (blocks_per_plane * (self.full_blocks.len() - 1)) as u64;
        for bucket in &mut self.full_blocks {
            bucket.clear();
        }
        self.erase_hist.clear();
        self.erase_hist.push(blocks_per_plane as u32);
        self.min_erase = 0;
        self.max_erase = 0;
    }
}

/// Outcome of a logical page write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Physical page the data landed on.
    pub addr: PhysAddr,
    /// Timing charge for a GC pass the write triggered, if any.
    pub gc: Option<GcCharge>,
}

/// FTL errors surfaced to the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtlError {
    /// A plane ran out of free pages and GC could not reclaim any.
    PlaneFull {
        /// Flat plane index that filled up.
        plane: usize,
    },
    /// A request addressed a tenant not present in the layout.
    UnknownTenant(u16),
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::PlaneFull { plane } => {
                write!(f, "plane {plane} is full and GC reclaimed nothing")
            }
            FtlError::UnknownTenant(t) => write!(f, "tenant {t} not in layout"),
        }
    }
}

impl std::error::Error for FtlError {}

/// Aggregate FTL counters reported at end of run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host pages written.
    pub host_pages_written: u64,
    /// Pages moved by garbage collection.
    pub gc_pages_moved: u64,
    /// Blocks erased by garbage collection.
    pub gc_blocks_erased: u64,
    /// GC passes triggered by host writes (timing charged).
    pub gc_invocations: u64,
    /// Pages silently seeded to satisfy reads of never-written LPNs.
    pub seeded_pages: u64,
}

impl FtlStats {
    /// Write amplification factor: (host + GC writes) / host writes.
    pub fn write_amplification(&self) -> f64 {
        if self.host_pages_written == 0 {
            1.0
        } else {
            (self.host_pages_written + self.gc_pages_moved) as f64 / self.host_pages_written as f64
        }
    }
}

/// The flash translation layer.
#[derive(Debug)]
pub struct Ftl {
    geo: Geometry,
    gc_trigger_blocks: usize,
    wear_leveling_threshold: u32,
    read_ns: u64,
    write_ns: u64,
    erase_ns: u64,
    blocks: BlockTable,
    planes: Vec<PlaneState>,
    maps: Vec<TenantMap>,
    stats: FtlStats,
    /// Reusable buffer for a GC pass's live page owners, so the
    /// steady-state hot path allocates nothing per collection.
    gc_scratch: Vec<u64>,
}

/// Spare-block count below which a write triggers GC. Floor of 2: the
/// active block counts toward the spare pool, so a trigger of 1 would
/// only fire after the last block is already full — too late for the
/// write that needs it. Two guarantees GC runs while one whole spare
/// block still exists.
fn gc_trigger_blocks(cfg: &SsdConfig) -> usize {
    ((cfg.blocks_per_plane as f64 * cfg.gc_free_block_threshold).ceil() as usize).max(2)
}

impl Ftl {
    /// Builds the FTL for a device/layout pair.
    pub fn new(cfg: &SsdConfig, layout: &TenantLayout) -> Self {
        let geo = Geometry::new(cfg);
        Self {
            blocks: BlockTable::new(cfg, geo.total_planes() * cfg.blocks_per_plane),
            planes: (0..geo.total_planes())
                .map(|p| PlaneState::new(cfg, p * cfg.blocks_per_plane))
                .collect(),
            maps: layout.iter().map(|t| TenantMap::new(t.lpn_space)).collect(),
            geo,
            gc_trigger_blocks: gc_trigger_blocks(cfg),
            wear_leveling_threshold: cfg.wear_leveling_threshold,
            read_ns: cfg.read_latency_ns,
            write_ns: cfg.write_latency_ns,
            erase_ns: cfg.erase_latency_ns,
            stats: FtlStats::default(),
            gc_scratch: Vec::new(),
        }
    }

    /// Resets the FTL in place to the state [`Ftl::new`] would produce
    /// for `(cfg, layout)`, keeping every allocation — mapping tables,
    /// block table, free lists, victim buckets — provided the device
    /// dimensions match the ones this FTL was built with. Returns `false`
    /// (leaving the instance valid for its old shape) when the dimensions
    /// differ and the caller must build fresh.
    ///
    /// The cost is linear in blocks, not pages: per block it rewrites the
    /// three `u32` headers, the validity words and one free-list slot,
    /// and never the per-page owner array.
    pub(crate) fn reset(&mut self, cfg: &SsdConfig, layout: &TenantLayout) -> bool {
        if !self.geo.matches(cfg) {
            return false;
        }
        // Same dimensions, but the non-dimensional knobs may differ.
        self.gc_trigger_blocks = gc_trigger_blocks(cfg);
        self.wear_leveling_threshold = cfg.wear_leveling_threshold;
        self.read_ns = cfg.read_latency_ns;
        self.write_ns = cfg.write_latency_ns;
        self.erase_ns = cfg.erase_latency_ns;
        self.blocks.reset();
        for plane in &mut self.planes {
            plane.reset(cfg.blocks_per_plane);
        }
        let old = self.maps.len();
        for (i, t) in layout.iter().enumerate() {
            if i < old {
                self.maps[i].reset(t.lpn_space);
            } else {
                self.maps.push(TenantMap::new(t.lpn_space));
            }
        }
        self.maps.truncate(layout.tenant_count());
        self.stats = FtlStats::default();
        self.gc_scratch.clear();
        true
    }

    /// The geometry the FTL was built with.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Free pages remaining in a flat plane.
    pub fn plane_free_pages(&self, plane: usize) -> u64 {
        self.planes[plane].free_pages
    }

    /// Number of erased spare blocks in a flat plane.
    pub fn plane_free_blocks(&self, plane: usize) -> usize {
        self.planes[plane].free_blocks.len()
            + usize::from(self.planes[plane].active_block.is_some())
    }

    /// Looks up the physical location of `(tenant, lpn)` for a read.
    ///
    /// LPNs that were never written are **seeded**: a physical page is
    /// allocated via the static policy (so pre-existing data is striped the
    /// way a freshly formatted device would hold it) with no timing cost,
    /// modelling data that was already on flash before the trace began.
    pub fn translate_read(
        &mut self,
        tenant: u16,
        lpn: u64,
        layout: &TenantLayout,
    ) -> Result<PhysAddr, FtlError> {
        let map = self
            .maps
            .get(tenant as usize)
            .ok_or(FtlError::UnknownTenant(tenant))?;
        let lpn = lpn % map.lpn_space();
        if let Some(packed) = self.maps[tenant as usize].get(lpn) {
            return Ok(self.geo.unpack_page(packed));
        }
        // Seed: allocate statically, discard the GC charge (no time passes).
        let state = layout.tenant(tenant as usize);
        let plane = alloc::static_plane(&self.geo, state, lpn);
        let outcome = self.write_inner(tenant, lpn, plane)?;
        self.stats.seeded_pages += 1;
        self.stats.host_pages_written -= 1; // seeding is not a host write
        Ok(outcome.addr)
    }

    /// Writes `(tenant, lpn)` to `plane` (flat index), invalidating any
    /// previous copy and possibly triggering GC on that plane.
    pub fn write(&mut self, tenant: u16, lpn: u64, plane: usize) -> Result<WriteOutcome, FtlError> {
        let map = self
            .maps
            .get(tenant as usize)
            .ok_or(FtlError::UnknownTenant(tenant))?;
        let lpn = lpn % map.lpn_space();
        self.write_inner(tenant, lpn, plane)
    }

    /// [`Ftl::write`] for an LPN already reduced modulo the tenant's
    /// logical space. The admit path computes `lpn % lpn_space` once for
    /// plane selection and reuses it here, skipping a second 64-bit
    /// modulo per written page.
    pub(crate) fn write_in_space(
        &mut self,
        tenant: u16,
        lpn: u64,
        plane: usize,
    ) -> Result<WriteOutcome, FtlError> {
        if self.maps.len() <= tenant as usize {
            return Err(FtlError::UnknownTenant(tenant));
        }
        debug_assert!(
            lpn < self.maps[tenant as usize].lpn_space(),
            "caller must pre-reduce the LPN"
        );
        self.write_inner(tenant, lpn, plane)
    }

    fn write_inner(
        &mut self,
        tenant: u16,
        lpn: u64,
        plane: usize,
    ) -> Result<WriteOutcome, FtlError> {
        // Invalidate the previous copy, if any.
        if let Some(old_packed) = self.maps[tenant as usize].get(lpn) {
            self.invalidate_packed(old_packed);
        }

        // Land the page on the plane's active block.
        let block = self.open_block(plane)?;
        let page = self.blocks.program(block, pack_owner(tenant, lpn));
        self.planes[plane].free_pages -= 1;
        self.maps[tenant as usize].set(lpn, self.blocks.packed(block, page));
        self.stats.host_pages_written += 1;
        let local = (block - self.planes[plane].base) as u32;
        let addr = self.geo.addr_at(plane, local, page);

        // Trigger GC when spare blocks run low.
        let gc = if self.plane_free_blocks(plane) < self.gc_trigger_blocks {
            gc::collect_plane(self, plane)
        } else {
            None
        };
        Ok(WriteOutcome { addr, gc })
    }

    /// Clears the validity bit of the page behind a packed id, relocating
    /// its block between victim-index buckets when it is indexed (full
    /// and non-active). Works on the packed form directly so the hot
    /// write path never materializes a [`PhysAddr`] for the dying copy.
    fn invalidate_packed(&mut self, packed: u32) {
        let (plane, bi, page) = self.geo.split_packed(packed);
        let bi = bi as usize;
        let state = &mut self.planes[plane];
        let g = state.base + bi;
        self.blocks.invalidate(g, page);
        // Re-index under the new valid count; the entry left in the old
        // bucket goes stale and is popped lazily at victim selection.
        if self.blocks.is_full(g) && state.active_block != Some(bi) {
            state.index_insert(&self.blocks, bi);
        }
    }

    /// The plane's active block as a device-wide index, rotating in a
    /// spare block when the active one is full (or none is open yet).
    /// The outgoing block leaves rotation and becomes victim material.
    #[inline]
    fn open_block(&mut self, plane: usize) -> Result<usize, FtlError> {
        let state = &mut self.planes[plane];
        match state.active_block {
            Some(b) if !self.blocks.is_full(state.base + b) => Ok(state.base + b),
            _ => {
                let b = state
                    .free_blocks
                    .pop()
                    .ok_or(FtlError::PlaneFull { plane })? as usize;
                // Insert only on success: on the PlaneFull path the full
                // block stays active.
                if let Some(old) = state.active_block {
                    state.index_insert(&self.blocks, old);
                }
                state.active_block = Some(b);
                Ok(state.base + b)
            }
        }
    }

    // ---- internals shared with the gc module ----

    /// Greedy GC victim of `plane` (see [`PlaneState::greedy_victim`]).
    pub(crate) fn greedy_victim(&mut self, plane: usize) -> Option<usize> {
        self.planes[plane].greedy_victim(&self.blocks)
    }

    /// Static wear-leveling victim of `plane`, when the plane's erase
    /// spread exceeds the threshold (see [`PlaneState::wear_victim`]).
    pub(crate) fn wear_victim(&mut self, plane: usize) -> Option<usize> {
        let threshold = self.wear_leveling_threshold;
        let state = &mut self.planes[plane];
        // O(1) spread check via the plane's erase histogram.
        if threshold == 0 || state.erase_spread() <= threshold {
            return None;
        }
        state.wear_victim(&self.blocks)
    }

    /// Per-block erase counts of the whole device, plane-major.
    pub(crate) fn erase_counts(&self) -> &[u32] {
        &self.blocks.erase_count
    }

    pub(crate) fn timings(&self) -> (u64, u64, u64) {
        (self.read_ns, self.write_ns, self.erase_ns)
    }

    pub(crate) fn stats_mut(&mut self) -> &mut FtlStats {
        &mut self.stats
    }

    /// Erases `block` in `plane`: all pages become free, the spare pool
    /// grows, wear accounting advances. The block holds no valid page,
    /// so its validity words are already clear.
    pub(crate) fn erase_block_internal(&mut self, plane: usize, block: usize) {
        let state = &mut self.planes[plane];
        let g = state.base + block;
        debug_assert_eq!(
            self.blocks.valid_count[g], 0,
            "erasing a block with live data"
        );
        self.blocks.next_page[g] = 0;
        let old_erase = self.blocks.erase_count[g];
        self.blocks.erase_count[g] += 1;
        state.free_pages += self.blocks.pages_per_block as u64;
        state.free_blocks.push(block as u32);
        state.note_erase(old_erase);
    }

    /// GC inner loop: drains the victim's live pages (walking the set
    /// bits of its validity words) and re-appends them to the plane's
    /// active block(s), remapping each as it lands. This body executes
    /// once per live page of every victim, the hottest FTL path under
    /// write pressure.
    ///
    /// Returns `(pages_moved, victim_erased)`. `victim_erased` is set
    /// when the spare pool ran dry mid-migration and the victim had to be
    /// erased early to supply the destination block for its own remaining
    /// live pages.
    pub(crate) fn migrate_for_gc(&mut self, plane: usize, victim: usize) -> (u32, bool) {
        obs::span!("gc_migrate");
        let mut live = std::mem::take(&mut self.gc_scratch);
        live.clear();
        // Collect the live pages and invalidate the whole victim in one
        // pass over its words. The victim is full, so it can never be the
        // active block the moves land on.
        let base = self.planes[plane].base;
        debug_assert!(self.blocks.is_full(base + victim));
        self.blocks.drain_live(base + victim, &mut live);

        let mut victim_erased = false;
        for &owner in &live {
            let state = &self.planes[plane];
            let must_rotate = state
                .active_block
                .is_none_or(|b| self.blocks.is_full(base + b));
            if must_rotate && state.free_blocks.is_empty() {
                // Spare pool dry: free the victim now and continue into
                // the block it just vacated.
                self.erase_block_internal(plane, victim);
                victim_erased = true;
            }
            let g = self
                .open_block(plane)
                .expect("erased victim provides a spare block");
            let page = self.blocks.program(g, owner);
            self.planes[plane].free_pages -= 1;
            let (tenant, lpn) = unpack_owner(owner);
            self.maps[tenant as usize].set(lpn, self.blocks.packed(g, page));
        }
        let moved = live.len() as u32;
        self.gc_scratch = live;
        (moved, victim_erased)
    }

    /// Validates internal invariants; used by tests. Cross-checks the
    /// validity bitset against the write pointers and valid counts, the
    /// free-space counters, the victim index and erase histogram, and the
    /// owner array against the forward maps (a bijection between mapped
    /// LPNs and valid pages).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let b = &self.blocks;
        let ppb = b.pages_per_block;
        let mut total_valid = 0u64;
        for (pi, plane) in self.planes.iter().enumerate() {
            let blocks = plane.base..plane.base + self.geo.blocks_per_plane();
            let mut free_pages = 0u64;
            for g in blocks.clone() {
                let next = b.next_page[g] as usize;
                assert!(
                    next <= ppb,
                    "plane {pi} block {g}: write pointer past the end"
                );
                let mut valid = 0u32;
                for page in 0..b.words_per_block * 64 {
                    let (word, mask) = b.bit(g, page as u32);
                    if b.valid_bits[word] & mask != 0 {
                        assert!(
                            page < next,
                            "plane {pi} block {g}: valid bit above write pointer"
                        );
                        valid += 1;
                    }
                }
                assert_eq!(valid, b.valid_count[g], "plane {pi} valid_count mismatch");
                total_valid += valid as u64;
                free_pages += (ppb - next) as u64;
            }
            assert_eq!(
                free_pages, plane.free_pages,
                "plane {pi} free_pages mismatch"
            );
            // The victim index must cover exactly the full, non-active
            // blocks: after discarding stale entries, each bucket's live
            // keys are the `(erase, idx)` pairs of its blocks.
            let mut expect = vec![std::collections::BTreeSet::new(); ppb + 1];
            for g in blocks.clone() {
                let bi = g - plane.base;
                if b.is_full(g) && plane.active_block != Some(bi) {
                    expect[b.valid_count[g] as usize]
                        .insert((b.erase_count[g] as u64) << 32 | bi as u64);
                }
            }
            let live: Vec<std::collections::BTreeSet<u64>> = plane
                .full_blocks
                .iter()
                .enumerate()
                .map(|(v, bucket)| {
                    bucket
                        .iter()
                        .map(|&std::cmp::Reverse(key)| key)
                        .filter(|&key| plane.entry_is_current(b, v, key))
                        .collect()
                })
                .collect();
            assert_eq!(expect, live, "plane {pi} victim index stale");
            // The erase histogram and its cursors must match the blocks.
            let erases = &b.erase_count[blocks];
            let mut hist = vec![0u32; plane.erase_hist.len()];
            for &c in erases {
                hist[c as usize] += 1;
            }
            assert_eq!(hist, plane.erase_hist, "plane {pi} erase histogram stale");
            let min = *erases.iter().min().unwrap();
            let max = *erases.iter().max().unwrap();
            assert_eq!((min, max), (plane.min_erase, plane.max_erase));
        }
        // Every mapping must point at a valid page owned by the same
        // `(tenant, lpn)`. Distinct LPNs then hold distinct pages, so
        // equal counts make the map a bijection onto the valid pages.
        let mut mapped = 0u64;
        for (t, map) in self.maps.iter().enumerate() {
            for (lpn, packed) in map.iter_mapped() {
                let (plane, bi, page) = self.geo.split_packed(packed);
                let g = self.planes[plane].base + bi as usize;
                assert!(
                    b.is_valid(g, page),
                    "t{t} lpn {lpn} maps to a non-valid page"
                );
                assert_eq!(
                    unpack_owner(b.owner[packed as usize]),
                    (t as u16, lpn),
                    "page owner disagrees with the map"
                );
                mapped += 1;
            }
        }
        assert_eq!(mapped, total_valid, "valid pages not referenced by any map");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantLayout;

    fn small() -> (SsdConfig, TenantLayout) {
        let cfg = SsdConfig::small_test();
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(64);
        (cfg, layout)
    }

    #[test]
    fn write_then_read_round_trips() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        let out = ftl.write(0, 5, 0).unwrap();
        let addr = ftl.translate_read(0, 5, &layout).unwrap();
        assert_eq!(addr, out.addr);
        ftl.check_invariants();
    }

    #[test]
    fn overwrite_invalidates_old_copy() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        let first = ftl.write(0, 5, 0).unwrap().addr;
        let second = ftl.write(0, 5, 0).unwrap().addr;
        assert_ne!(
            first, second,
            "log-structured writes never overwrite in place"
        );
        let read = ftl.translate_read(0, 5, &layout).unwrap();
        assert_eq!(read, second);
        ftl.check_invariants();
    }

    #[test]
    fn read_of_unwritten_lpn_seeds_statically() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        let a1 = ftl.translate_read(0, 9, &layout).unwrap();
        let a2 = ftl.translate_read(0, 9, &layout).unwrap();
        assert_eq!(a1, a2, "seeding is stable");
        assert_eq!(ftl.stats().seeded_pages, 1);
        assert_eq!(ftl.stats().host_pages_written, 0);
        ftl.check_invariants();
    }

    #[test]
    fn lpns_wrap_at_tenant_space() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        let a = ftl.write(0, 3, 0).unwrap().addr;
        // 3 + 64 wraps to 3: reading it must hit the same page.
        let b = ftl.translate_read(0, 3 + 64, &layout).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_tenant_is_an_error() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        assert_eq!(ftl.write(7, 0, 0).unwrap_err(), FtlError::UnknownTenant(7));
        assert!(matches!(
            ftl.translate_read(7, 0, &layout),
            Err(FtlError::UnknownTenant(7))
        ));
    }

    #[test]
    fn filling_a_plane_without_invalid_pages_errors() {
        let cfg = SsdConfig {
            gc_free_block_threshold: 0.0,
            ..SsdConfig::small_test()
        };
        // lpn space larger than one plane so every write is a fresh page.
        let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(10_000);
        let mut ftl = Ftl::new(&cfg, &layout);
        let plane_pages = (cfg.blocks_per_plane * cfg.pages_per_block) as u64;
        for lpn in 0..plane_pages {
            ftl.write(0, lpn, 0).unwrap();
        }
        assert!(matches!(
            ftl.write(0, plane_pages, 0),
            Err(FtlError::PlaneFull { plane: 0 })
        ));
    }

    #[test]
    fn overwrites_trigger_gc_and_reclaim_space() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        // Hammer a small working set confined to plane 0 far beyond its
        // capacity; GC must keep reclaiming.
        let plane_pages = (cfg.blocks_per_plane * cfg.pages_per_block) as u64; // 64
        for i in 0..(plane_pages * 8) {
            let lpn = i % 16; // small hot set
            ftl.write(0, lpn, 0).unwrap();
        }
        let stats = ftl.stats();
        assert!(stats.gc_blocks_erased > 0, "GC must have run");
        assert!(stats.write_amplification() >= 1.0);
        ftl.check_invariants();
    }

    #[test]
    fn write_amplification_default_is_one() {
        assert_eq!(FtlStats::default().write_amplification(), 1.0);
    }

    #[test]
    fn plane_free_counters_consistent() {
        let (cfg, layout) = small();
        let mut ftl = Ftl::new(&cfg, &layout);
        let before = ftl.plane_free_pages(0);
        ftl.write(0, 0, 0).unwrap();
        assert_eq!(ftl.plane_free_pages(0), before - 1);
        assert!(ftl.plane_free_blocks(0) <= cfg.blocks_per_plane);
    }
}
