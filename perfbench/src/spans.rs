//! In-memory spans recorded by the benchmark around its calls into the
//! library crates.
//!
//! Spans nest through [`Spans::span`]; each closed span adds its duration
//! to its `;`-joined call path (the folded-stack format `ssdtrace flame`
//! and flamegraph.pl read) and to a per-name list of call durations, from
//! which the per-layer metrics are derived. Counts are recorded at the
//! same boundaries. A disabled recorder runs the closures untouched, so
//! an untraced replay runs the traced replay's code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Span and count recorder. Single-threaded: the traced run drives every
/// instrumented call from the benchmark's main thread.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    stack: Vec<&'static str>,
    folded: BTreeMap<String, u64>,
    calls: BTreeMap<&'static str, Vec<u64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// A recorder that records nothing (the untraced replays).
    pub fn off() -> Self {
        Self::default()
    }

    /// A recorder that keeps every span in memory.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span called `name`, nested under the open spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.stack.push(name);
        let start = Instant::now();
        let out = f(self);
        let ns = start.elapsed().as_nanos() as u64;
        self.close(ns);
        out
    }

    /// Records a child span of the open span whose duration was measured
    /// elsewhere, e.g. between two probe hooks inside one library call.
    pub fn record(&mut self, name: &'static str, ns: u64) {
        if self.enabled {
            self.stack.push(name);
            self.close(ns);
        }
    }

    /// Adds `v` to the count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += v;
        }
    }

    fn close(&mut self, ns: u64) {
        let path = self.stack.join(";");
        *self.folded.entry(path).or_default() += ns;
        let name = self.stack.pop().expect("close follows a push");
        self.calls.entry(name).or_default().push(ns);
    }

    /// Durations (ns) of every call of the span `name`, in call order.
    pub fn durations(&self, name: &str) -> &[u64] {
        self.calls.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Summed duration of every call of the span `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Number of calls of the span `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.durations(name).len()
    }

    /// The count `name` (0 when never recorded).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The spans as folded stacks: one `path total_ns` line per call path.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, ns) in &self.folded {
            writeln!(out, "{path} {ns}").expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_fold_into_paths() {
        let mut s = Spans::on();
        s.span("a", |s| {
            s.span("b", |_| ());
            s.record("c", 5);
        });
        s.span("a", |_| ());
        assert_eq!(s.calls("a"), 2);
        assert_eq!(s.durations("c"), &[5]);
        let folded = s.folded();
        let paths: Vec<&str> = folded
            .lines()
            .map(|l| l.rsplit_once(' ').expect("path value").0)
            .collect();
        assert_eq!(paths, ["a", "a;b", "a;c"]);
    }

    #[test]
    fn disabled_recorder_runs_closures_and_records_nothing() {
        let mut s = Spans::off();
        let v = s.span("a", |s| {
            s.count("n", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert_eq!(s.calls("a"), 0);
        assert_eq!(s.counted("n"), 0.0);
        assert!(s.folded().is_empty());
    }
}
