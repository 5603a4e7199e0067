//! Real-I/O replay: executes the trace against a file or raw device.
//!
//! Where [`super::SimBackend`] owns *modeled* time, this backend owns
//! *measured* time: every read/write page command is issued as one
//! `pread`/`pwrite` and its completion is stamped with wall-clock
//! nanoseconds from a run-local [`Instant`]. The probe hook stream has
//! the same shape as the simulator's — `CmdIssue` → `BusAcquire` →
//! `BusRelease` → `CmdComplete` per page — so `MetricsProbe`, SSDP
//! captures, and `ssdtrace summarize/diff` consume measured runs
//! unchanged.
//!
//! Address mapping: each tenant owns a contiguous byte span of the
//! target sized `lpn_space × page_size`; LPNs wrap into the span the
//! same way the simulator masks them. Channel/unit attribution uses
//! static striping over the tenant's *current* channel set (scheduled
//! reallocations re-shape attribution mid-run, mirroring the keeper's
//! layout changes), so per-channel rollups remain meaningful even
//! though a real device hides its internal parallelism.
//!
//! Replay is closed-loop and as-fast-as-possible: trace arrival times
//! order requests and trigger reallocations but do not pace the I/O.
//! Latencies are therefore pure service times, which is what a
//! simulated-vs-measured distribution diff wants to compare. Pages are
//! issued one at a time (queue depth 1), so each command's latency is
//! exactly one syscall's service time.

use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::time::Instant;

use super::Backend;
use crate::config::SsdConfig;
use crate::event::CmdId;
use crate::ftl::alloc::{static_plane, PageAllocPolicy};
use crate::geometry::Geometry;
use crate::probe::{BusAcquire, BusRelease, CmdComplete, CmdIssue, Probe, ReallocApply};
use crate::request::{IoRequest, Op};
use crate::scheduler::CmdClass;
use crate::sim::{validate_reallocation, validate_trace, Reallocation, SimError};
use crate::stats::{LatencyBreakdown, LatencyStats, SimReport, TenantReport};
use crate::tenant::{ChannelSet, TenantLayout};

/// The real-I/O backend. Construct via
/// [`crate::SimBuilder::build_backend`] with
/// [`super::BackendKind::File`].
pub struct FileBackend {
    cfg: SsdConfig,
    geo: Geometry,
    layout: TenantLayout,
    path: PathBuf,
    reallocs: Vec<Reallocation>,
}

impl FileBackend {
    /// Validates the config. Preconditioning fills and command-slot
    /// limits from the builder do not apply to real I/O and are ignored.
    pub(crate) fn new(
        cfg: SsdConfig,
        layout: TenantLayout,
        path: PathBuf,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let geo = Geometry::new(&cfg);
        Ok(Self {
            cfg,
            geo,
            layout,
            path,
            reallocs: Vec::new(),
        })
    }

    /// Byte offset of `lpn` (already reduced into the tenant's space)
    /// within tenant `t`'s span, given per-tenant base offsets.
    fn offset_of(&self, bases: &[u64], t: usize, lpn: u64) -> u64 {
        bases[t] + lpn * self.cfg.page_size as u64
    }
}

impl Backend for FileBackend {
    fn name(&self) -> &'static str {
        "file"
    }

    fn schedule_reallocation(&mut self, realloc: Reallocation) -> Result<(), SimError> {
        validate_reallocation(
            &realloc,
            self.reallocs.last().map(|r| r.at_ns),
            self.layout.tenant_count(),
            self.cfg.channels,
        )?;
        self.reallocs.push(realloc);
        Ok(())
    }

    fn run(
        mut self: Box<Self>,
        trace: &[IoRequest],
        probe: &mut dyn Probe,
    ) -> Result<SimReport, SimError> {
        obs::span!("backend_file");
        validate_trace(trace, self.layout.tenant_count())?;
        let page = self.cfg.page_size;

        // Per-tenant contiguous spans; the target must hold all of them.
        let mut bases = Vec::with_capacity(self.layout.tenant_count());
        let mut total: u64 = 0;
        for t in 0..self.layout.tenant_count() {
            bases.push(total);
            total += self.layout.tenant(t).lpn_space * page as u64;
        }
        let io_err = |op: &'static str, e: std::io::Error| SimError::Io {
            op,
            reason: e.to_string(),
        };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.path)
            .map_err(|e| io_err("open", e))?;
        let meta = file.metadata().map_err(|e| io_err("stat", e))?;
        if meta.file_type().is_file() && meta.len() < total {
            file.set_len(total).map_err(|e| io_err("set_len", e))?;
        }

        let mut buf = vec![0u8; page];

        let clock = Instant::now();
        let now_ns = |c: &Instant| c.elapsed().as_nanos() as u64;

        let mut tenants = vec![TenantReport::default(); self.layout.tenant_count()];
        let mut read = LatencyStats::new();
        let mut write = LatencyStats::new();
        let mut total_stats = LatencyStats::new();
        let mut read_breakdown = LatencyBreakdown::default();
        let mut write_breakdown = LatencyBreakdown::default();
        let mut bus_busy_ns = vec![0u64; self.geo.channels()];
        let mut phases = crate::stats::PhaseReport::default();
        let mut commands: u64 = 0;
        let mut next_cmd: u64 = 0;
        let mut next_realloc = 0usize;

        for req in trace {
            // Reallocations keyed to trace time re-shape attribution the
            // moment the first request at/after their deadline replays.
            while next_realloc < self.reallocs.len()
                && self.reallocs[next_realloc].at_ns <= req.arrival_ns
            {
                let realloc = &self.reallocs[next_realloc];
                let at_ns = now_ns(&clock);
                for (tenant, channels, policy) in realloc.entries() {
                    let state = self.layout.tenant_mut(tenant);
                    state.channels = ChannelSet::new(channels, self.cfg.channels)
                        .expect("validated in schedule_reallocation");
                    if let Some(p) = policy {
                        state.policy = p;
                    }
                    let mut channel_mask = 0u64;
                    for &ch in state.channels.channels() {
                        channel_mask |= 1u64 << ch;
                    }
                    probe.on_realloc(&ReallocApply {
                        at_ns,
                        tenant: tenant as u16,
                        policy: match policy {
                            None => 0,
                            Some(PageAllocPolicy::Static) => 1,
                            Some(PageAllocPolicy::Dynamic) => 2,
                        },
                        channel_mask,
                    });
                }
                next_realloc += 1;
            }

            let t = req.tenant as usize;
            let state = self.layout.tenant(t);
            let space = state.lpn_space;
            let class = match req.op {
                Op::Read => CmdClass::Read,
                Op::Write => CmdClass::Write,
            };
            let req_start = now_ns(&clock);
            let mut req_done = req_start;

            for lpn in req.pages() {
                let lpn = lpn % space;
                let offset = self.offset_of(&bases, t, lpn);
                let plane = static_plane(&self.geo, state, lpn);
                let unit = if self.cfg.plane_parallelism {
                    plane as u32
                } else {
                    self.geo.die_of_plane(plane) as u32
                };
                let channel = self.geo.channel_of_plane(plane) as u16;
                let cmd = next_cmd as CmdId;
                next_cmd = next_cmd.wrapping_add(1);
                let issue_ns = now_ns(&clock);
                probe.on_cmd_issue(&CmdIssue {
                    at_ns: issue_ns,
                    cmd,
                    tenant: req.tenant,
                    class,
                    gc: false,
                    unit,
                    channel,
                    queue_depth: 1,
                });
                probe.on_bus_acquire(&BusAcquire {
                    at_ns: issue_ns,
                    cmd,
                    channel,
                    waited_ns: 0,
                });

                match req.op {
                    Op::Read => file
                        .read_exact_at(&mut buf, offset)
                        .map_err(|e| io_err("read", e))?,
                    Op::Write => {
                        // Deterministic page image so replays are
                        // reproducible and reads have known content.
                        buf.fill((lpn as u8) ^ (req.tenant as u8).wrapping_mul(31));
                        file.write_all_at(&buf, offset)
                            .map_err(|e| io_err("write", e))?;
                    }
                }

                let done_ns = now_ns(&clock);
                req_done = done_ns;
                let latency = done_ns.saturating_sub(issue_ns);
                probe.on_bus_release(&BusRelease {
                    at_ns: done_ns,
                    cmd,
                    channel,
                    held_ns: latency,
                });
                probe.on_cmd_complete(&CmdComplete {
                    at_ns: done_ns,
                    cmd,
                    tenant: req.tenant,
                    class,
                    gc: false,
                    unit,
                    channel,
                    latency_ns: latency,
                });
                bus_busy_ns[channel as usize] += latency;
                phases.transfer.record(latency);
                phases.queue_depth.record(1);
                let breakdown = match class {
                    CmdClass::Read => &mut read_breakdown,
                    CmdClass::Write => &mut write_breakdown,
                };
                breakdown.transfer_ns += latency;
                breakdown.cmds += 1;
                commands += 1;
            }

            let req_latency = req_done.saturating_sub(req_start);
            match req.op {
                Op::Read => {
                    tenants[t].read.record(req_latency);
                    read.record(req_latency);
                }
                Op::Write => {
                    tenants[t].write.record(req_latency);
                    write.record(req_latency);
                }
            }
            total_stats.record(req_latency);
        }

        Ok(SimReport {
            tenants,
            read,
            write,
            total: total_stats,
            ftl: Default::default(),
            wear: Default::default(),
            makespan_ns: now_ns(&clock),
            events_processed: commands,
            bus_busy_ns,
            read_breakdown,
            write_breakdown,
            gc_busy_ns: 0,
            phases,
        })
    }
}
