//! `replay` — runs one four-tenant mix through BOTH execution backends
//! (simulated timing, then real I/O against a file) under the same
//! adapt-once keeper session, writes an SSDP v2 capture per backend,
//! and prints the two latency distributions side by side.
//!
//! This is the validation loop SimpleSSD/EagleTree argue a simulator
//! needs: the same workload, the same policy engine, the same probe
//! stream — one run with modeled time, one with measured time — and
//! `ssdtrace diff` comparing the summaries.
//!
//! ```text
//! cargo run --release -p exp --bin replay -- --smoke
//! cargo run --release -p exp --bin replay -- --backend file:/dev/nvme0n1 --requests 50000
//! ```
//!
//! Flags: `--seed N`, `--requests N`, `--json`, `--smoke` (small
//! preset), `--backend file:<path>` (replay target; without it the
//! target comes from `SSDKEEPER_REPLAY_PATH` or a tmpfile that is
//! removed on exit), `--capture-sim <path>` / `--capture-file <path>`
//! (SSDP capture outputs, default under `artifacts/`), `--keep`
//! (keep an auto-created tmpfile target).
//!
//! Exit codes: 0 success, 2 any failure.

use exp::args::Args;
use exp::artifact_path;
use exp::session::ObsSession;
use flash_sim::{BackendKind, EventRecorder, SimReport, SsdConfig};
use ssdkeeper::keeper::{Keeper, KeeperConfig, RunOutcome, RunSpec};
use ssdkeeper::ChannelAllocator;
use std::path::PathBuf;
use workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

/// Per-tenant logical space: 1024 pages × 16 KiB × 4 tenants = 64 MiB
/// replay target, small enough for a tmpfile smoke run.
const LPN_SPACE: u64 = 1 << 10;

fn fail(msg: &str) -> ! {
    eprintln!("replay: {msg}");
    std::process::exit(2);
}

/// The keeper-test style mix: two read-dominant and two write-dominant
/// tenants at staggered intensities, deterministic in `seed`.
fn build_trace(requests: usize, seed: u64) -> Vec<flash_sim::IoRequest> {
    let specs = [
        TenantSpec::synthetic("a", 0.9, 8_000.0, LPN_SPACE),
        TenantSpec::synthetic("b", 0.1, 12_000.0, LPN_SPACE),
        TenantSpec::synthetic("c", 0.85, 4_000.0, LPN_SPACE),
        TenantSpec::synthetic("d", 0.05, 6_000.0, LPN_SPACE),
    ];
    let streams: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(t, s)| generate_tenant_stream(s, t as u16, requests / 4, seed + t as u64))
        .collect();
    mix_chronological(&streams, requests)
}

fn run_backend(
    keeper: &Keeper,
    trace: &[flash_sim::IoRequest],
    backend: BackendKind,
    capture_path: &std::path::Path,
) -> RunOutcome {
    let mut rec = EventRecorder::with_capacity(1 << 16);
    let out = keeper
        .run(
            RunSpec::adapt_once(trace, &[LPN_SPACE; 4])
                .with_probe(&mut rec)
                .with_metrics()
                .with_backend(backend.clone()),
        )
        .unwrap_or_else(|e| fail(&format!("{backend} run failed: {e}")));
    std::fs::write(capture_path, rec.encode())
        .unwrap_or_else(|e| fail(&format!("write capture {}: {e}", capture_path.display())));
    out
}

fn tenant_row(report: &SimReport, t: usize) -> (f64, u64, u64) {
    let all = report.tenants[t].combined();
    (
        all.mean_us(),
        all.percentile_ns(0.5),
        all.percentile_ns(0.99),
    )
}

fn main() {
    let args = Args::from_env();
    let common = args.common(11);
    let session = ObsSession::start(&args);
    let requests = if args.has("smoke") {
        args.get("requests", 2_000usize)
    } else {
        args.get("requests", 20_000usize)
    };

    // Resolve the replay target: --backend file:<path> wins, then
    // SSDKEEPER_REPLAY_PATH, then an auto-removed tmpfile.
    let (target, auto_target) = match &common.backend {
        BackendKind::File { path } => (path.clone(), false),
        BackendKind::Sim => match std::env::var("SSDKEEPER_REPLAY_PATH") {
            Ok(p) if !p.is_empty() => (PathBuf::from(p), false),
            _ => (
                std::env::temp_dir().join(format!("ssdkeeper-replay-{}.img", std::process::id())),
                true,
            ),
        },
    };

    let cfg = KeeperConfig {
        ssd: SsdConfig {
            blocks_per_plane: 64,
            pages_per_block: 32,
            ..SsdConfig::paper_table1()
        },
        observe_window_ns: 10_000_000,
        hybrid: true,
    };
    let keeper = Keeper::new(
        cfg,
        ChannelAllocator::new(
            ann::Network::paper_topology(ann::Activation::Logistic, common.seed),
            120_000.0,
        ),
    );
    let trace = build_trace(requests, common.seed);

    let sim_capture = args
        .get_opt("capture-sim")
        .map(PathBuf::from)
        .unwrap_or_else(|| artifact_path("replay_sim.ssdp"));
    let file_capture = args
        .get_opt("capture-file")
        .map(PathBuf::from)
        .unwrap_or_else(|| artifact_path("replay_file.ssdp"));

    let sim_out = run_backend(&keeper, &trace, BackendKind::Sim, &sim_capture);
    let file_backend = BackendKind::File {
        path: target.clone(),
    };
    let file_out = run_backend(&keeper, &trace, file_backend, &file_capture);
    if auto_target && !args.has("keep") {
        let _ = std::fs::remove_file(&target);
    }
    session.finish();

    // The file backend's only engine; kept in the output so captures
    // name how their measured time was taken.
    let engine = "pread";
    if common.json {
        let mut rows = String::new();
        for t in 0..4 {
            let (sm, sp50, sp99) = tenant_row(&sim_out.report, t);
            let (fm, fp50, fp99) = tenant_row(&file_out.report, t);
            rows.push_str(&format!(
                "{}{{\"tenant\":{t},\"sim\":{{\"mean_us\":{sm:.3},\"p50_ns\":{sp50},\"p99_ns\":{sp99}}},\
                 \"file\":{{\"mean_us\":{fm:.3},\"p50_ns\":{fp50},\"p99_ns\":{fp99}}}}}",
                if t == 0 { "" } else { "," }
            ));
        }
        println!(
            "{{\"requests\":{requests},\"seed\":{},\"engine\":\"{engine}\",\"target\":\"{}\",\
             \"strategy\":\"{}\",\"tenants\":[{rows}]}}",
            common.seed,
            target.display(),
            sim_out.strategy,
        );
    } else {
        println!(
            "replay: {requests} requests, seed {}, target {} ({engine})",
            common.seed,
            target.display()
        );
        println!(
            "  strategy: sim={} file={} (same decision on both backends)",
            sim_out.strategy, file_out.strategy
        );
        println!("  tenant        sim mean       p50       p99  |  file mean       p50       p99");
        for t in 0..4 {
            let (sm, sp50, sp99) = tenant_row(&sim_out.report, t);
            let (fm, fp50, fp99) = tenant_row(&file_out.report, t);
            println!(
                "  {t:>6}  {sm:>11.1}us {sp50:>8}ns {sp99:>8}ns  | {fm:>9.1}us {fp50:>8}ns {fp99:>8}ns"
            );
        }
        println!(
            "  captures: {} (modeled) vs {} (measured)",
            sim_capture.display(),
            file_capture.display()
        );
        println!("  compare: ssdtrace diff <(summarize --json) of the two captures");
    }

    // The decision layer is backend-agnostic: both runs observed the
    // same trace prefix, so they must pick the same strategy.
    if sim_out.strategy != file_out.strategy {
        fail("backends disagreed on the keeper decision");
    }
}
