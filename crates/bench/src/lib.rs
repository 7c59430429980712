//! Benchmark and experiment-regeneration harness for the `eclectic`
//! workspace. See `benches/` for the timing targets (one per experiment in
//! EXPERIMENTS.md) and `src/bin/harness.rs` for the artifact checker that
//! regenerates every paper artifact as a pass/fail table.
//!
//! The workspace builds fully offline, so instead of Criterion this crate
//! carries a small self-contained timing framework: warmup, fixed sample
//! count, median/mean over `std::time::Instant`, and `std::hint::black_box`
//! to defeat dead-code elimination. Bench targets keep `harness = false`
//! and drive [`Runner`] from `main`.

#![forbid(unsafe_code)]

use std::hint::black_box as bb;
use std::time::Instant;

/// One measured benchmark: label plus timing summary in nanoseconds.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark id, e.g. `"cold_query_paper/100"`.
    pub label: String,
    /// Samples actually taken.
    pub samples: usize,
    /// Median time per iteration (ns).
    pub median_ns: f64,
    /// Mean time per iteration (ns).
    pub mean_ns: f64,
    /// Fastest sample (ns).
    pub min_ns: f64,
}

/// A fixed-sample benchmark runner (the offline stand-in for Criterion).
#[derive(Debug)]
pub struct Runner {
    group: String,
    warmup: usize,
    samples: usize,
    /// All measurements taken, in run order.
    pub results: Vec<Measurement>,
}

impl Runner {
    /// Creates a runner for a named group with default sizing
    /// (3 warmup runs, 15 samples).
    #[must_use]
    pub fn new(group: impl Into<String>) -> Self {
        Runner {
            group: group.into(),
            warmup: 3,
            samples: 15,
            results: Vec::new(),
        }
    }

    /// Overrides the number of measured samples.
    #[must_use]
    pub fn sample_size(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Overrides the number of warmup runs.
    #[must_use]
    pub fn warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Times `f`, printing one summary line and recording the measurement.
    /// Each sample is one call of `f`; the closure's return value is passed
    /// through `black_box` so its computation cannot be optimised away.
    pub fn bench<T>(&mut self, label: impl Into<String>, mut f: impl FnMut() -> T) -> &Measurement {
        let label = label.into();
        for _ in 0..self.warmup {
            bb(f());
        }
        let mut times: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            bb(f());
            times.push(t0.elapsed().as_nanos() as f64);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        let median_ns = times[times.len() / 2];
        let mean_ns = times.iter().sum::<f64>() / times.len() as f64;
        let m = Measurement {
            label: format!("{}/{label}", self.group),
            samples: times.len(),
            median_ns,
            mean_ns,
            min_ns: times[0],
        };
        println!(
            "{:<56} median {:>12} mean {:>12} min {:>12}",
            m.label,
            fmt_ns(m.median_ns),
            fmt_ns(m.mean_ns),
            fmt_ns(m.min_ns),
        );
        self.results.push(m);
        self.results.last().expect("just pushed")
    }

    /// Prints the closing line of the group, plus the starved-host
    /// warning when there is one (see [`starved_host_warning`]).
    pub fn finish(&self) {
        if let Some(w) = starved_host_warning() {
            println!("WARN: {w}");
        }
        println!(
            "group `{}`: {} benchmark(s) done",
            self.group,
            self.results.len()
        );
    }
}

/// A human-readable warning when the host has a single available core —
/// every thread-scaling measurement in that environment reflects the
/// container, not the code. Bench binaries embed this as a top-level
/// `"warning"` field in their JSON artifacts (see [`warning_json`]) so a
/// reader of a committed artifact can tell a starved run from a real one,
/// and [`Runner::finish`] prints it.
#[must_use]
pub fn starved_host_warning() -> Option<String> {
    (host_cores() == 1).then(|| {
        "host reports a single available core; thread-scaling rows measure \
         the container, not the code"
            .to_string()
    })
}

/// The starved-host warning as a top-level JSON field fragment:
/// `"warning": "..."` on a single-core host, `"warning": null` otherwise.
#[must_use]
pub fn warning_json() -> String {
    match starved_host_warning() {
        Some(w) => format!("\"warning\": \"{w}\""),
        None => "\"warning\": null".to_string(),
    }
}

/// The host's actual parallelism (`std::thread::available_parallelism`,
/// clamped to 1 on error). Bench JSON must record this so flat scaling rows
/// on starved containers are attributable to the host, not the code.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Formats a nanosecond count with a human unit.
#[must_use]
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_measures_and_records() {
        let mut r = Runner::new("smoke").sample_size(5).warmup(1);
        let m = r.bench("sum", || (0..1000u64).sum::<u64>());
        assert_eq!(m.samples, 5);
        assert!(m.median_ns >= 0.0);
        assert!(m.min_ns <= m.median_ns);
        assert_eq!(r.results.len(), 1);
        r.finish();
    }

    #[test]
    fn warning_field_tracks_host_cores() {
        let j = warning_json();
        if host_cores() == 1 {
            assert!(j.starts_with("\"warning\": \"host reports"));
            assert!(starved_host_warning().is_some());
        } else {
            assert_eq!(j, "\"warning\": null");
            assert!(starved_host_warning().is_none());
        }
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1_500.0), "1.500 µs");
        assert_eq!(fmt_ns(2_000_000.0), "2.000 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.000 s");
    }
}
