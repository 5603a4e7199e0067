//! Figure 2's structural claim, pinned at smoke scale: among the two-part
//! splits 1:7 … 7:1 and Isolated (4:4), the write-channel count with the
//! lowest total latency never falls as the write proportion rises from
//! 10 % to 90 %, and it does rise across the sweep (EXPERIMENTS.md,
//! "Figure 2", verdict (b)).

use exp::fig2::{self, Fig2Config, Fig2Point};
use parallel::PoolConfig;
use ssdkeeper::Strategy;

/// Write channels of the best split at each write proportion.
fn best_write_channels(points: &[Fig2Point]) -> Vec<(u32, u8)> {
    points
        .iter()
        .map(|p| {
            let best = p
                .evals
                .iter()
                .filter_map(|e| match e.strategy {
                    Strategy::TwoPart { write_channels } => Some((write_channels, e.metric_us)),
                    Strategy::Isolated => Some((4, e.metric_us)),
                    _ => None,
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("the two-tenant space has splits");
            (p.write_pct, best.0)
        })
        .collect()
}

#[test]
fn best_write_channel_count_is_non_decreasing_in_write_share() {
    for (requests, seed) in [(4_000, 2020), (4_000, 7), (4_000, 11), (2_000, 2020)] {
        let points = fig2::run(&Fig2Config {
            requests,
            seed,
            pool: PoolConfig::with_workers(1),
            ..Fig2Config::default()
        });
        let best = best_write_channels(&points);
        assert_eq!(best.len(), 9);
        assert!(
            best.windows(2).all(|w| w[0].1 <= w[1].1),
            "{requests} requests, seed {seed}: best (write %, write channels) {best:?} \
             is not non-decreasing"
        );
        assert!(
            best[0].1 < best[8].1,
            "{requests} requests, seed {seed}: the best split {best:?} never moves"
        );
    }
}
