//! `online`: the Algorithm 2 side of SSDKeeper in one iteration — the
//! aged keeper sessions ([`Aged`]) and then the 1000-tenant fleet
//! ([`Fleet`]), each through the library's own entry points.
//!
//! The two halves stress different layers: the aged sessions long event
//! loops, bus contention and GC; the fleet placement, batched decisions
//! and the metrics probe. Timing them as one unit of work halves the
//! number of benchmark runs, so each run can measure longer. The simulated
//! quality numbers are the aged sessions': they are the paper's Table V
//! comparison, while the fleet's keepers decide with an untrained network.

use crate::aged::Aged;
use crate::fleet_1k::Fleet;
use crate::sim::fnv;
use crate::spans::Spans;
use crate::{IterOut, Workload};

pub struct Online {
    aged: Aged,
    fleet: Fleet,
    /// The halves of the last replay, kept for the checks and the
    /// per-layer numbers.
    parts: Option<(IterOut, IterOut)>,
}

/// One iteration out of its two halves.
fn join(aged: &IterOut, fleet: &IterOut) -> IterOut {
    let mut sim = aged.sim.clone();
    sim.merge(&fleet.sim);
    IterOut {
        digest: fnv(aged.digest, &fleet.digest.to_le_bytes()),
        replayed: aged.replayed && fleet.replayed,
        sim,
        quality: aged.quality,
        events: aged.events + fleet.events,
    }
}

impl Workload for Online {
    fn setup(seed: u64) -> Result<Self, String> {
        Ok(Self {
            aged: Aged::setup(seed)?,
            fleet: Fleet::setup(seed)?,
            parts: None,
        })
    }

    fn warm_up(&mut self) -> Result<(), String> {
        self.aged.warm_up()?;
        self.fleet.warm_up()
    }

    fn iterate(&mut self) -> Result<IterOut, String> {
        let aged = self.aged.iterate()?;
        let fleet = self.fleet.iterate()?;
        Ok(join(&aged, &fleet))
    }

    fn replay(&mut self, spans: &mut Spans) -> Result<IterOut, String> {
        let aged = self.aged.replay(spans)?;
        let fleet = self.fleet.replay(spans)?;
        let out = join(&aged, &fleet);
        self.parts = Some((aged, fleet));
        Ok(out)
    }

    /// Each half's checks on its own replay.
    fn check(&mut self, out: &mut IterOut, nproc: usize) -> Result<(), String> {
        let (mut aged, mut fleet) = self.parts.take().ok_or("no replay ran")?;
        self.aged.check(&mut aged, nproc)?;
        self.fleet.check(&mut fleet, nproc)?;
        *out = join(&aged, &fleet);
        self.parts = Some((aged, fleet));
        Ok(())
    }

    /// Both halves' numbers, and the fewest GC passes of any aged session:
    /// the fleet's small devices never collect garbage.
    fn layers(
        &mut self,
        _out: &IterOut,
        spans: &mut Spans,
        nproc: usize,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let (aged, fleet) = self.parts.as_ref().ok_or("no replay ran")?;
        let gc_min = aged.sim.gc_min() as f64;
        let mut layers = self.aged.layers(aged, spans, nproc)?;
        layers.extend(self.fleet.layers(fleet, spans, nproc)?);
        layers.push(("ftl.gc_passes_min_run", gc_min));
        Ok(layers)
    }
}
