//! Consolidated environment configuration for the kernel.
//!
//! Every tunable the workspace reads from the process environment parses
//! here, through one warn-once discipline: each variable is read once per
//! process (`OnceLock`), an unparseable value falls back to the documented
//! default and emits a single stderr warning naming the bad value —
//! silently ignoring a typo'd tunable is a miserable thing to debug.
//!
//! | variable                           | values                               | default        |
//! |------------------------------------|--------------------------------------|----------------|
//! | `ECLECTIC_THREADS`                 | count, `0`/`auto`                    | 1 (serial)     |
//! | `ECLECTIC_REL_BACKEND`             | `dense`/`sparse`/`compressed`/`auto` | auto crossover |
//! | `ECLECTIC_REL_COMPRESSED_MIN_DIM`  | non-negative integer                 | 65536          |
//! | `ECLECTIC_MAX_REL_BYTES`           | byte count (estimated)               | unlimited      |
//!
//! `ECLECTIC_THREADS` is read at the top only, by `spec::verify` and
//! `fuzz::run_corpus` (see [`env_threads`]); every sweep below them takes
//! its worker count as an argument.
//!
//! `ECLECTIC_MAX_REL_BYTES` also accepts its historical spelling
//! `ECLECTIC_MAX_REL_ENTRIES` (the unit changed from entries to estimated
//! bytes when the relation-memory axis became backend-spanning, but the
//! name was kept for a release). The legacy name still works and warns
//! once; the documented spelling wins when both are set.
//!
//! The parse functions are split from the environment reads so the full
//! parse tables are unit-testable without touching the process
//! environment (see the parse-table tests at the bottom).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// ECLECTIC_THREADS
// ---------------------------------------------------------------------------

/// How one `ECLECTIC_THREADS` value parses. Split out of [`env_threads`] so
/// the full parse table is unit-testable without touching the process
/// environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ThreadsSpec {
    /// Variable unset: serial, the safe default for unit tests.
    Unset,
    /// `0` or `auto`: use [`std::thread::available_parallelism`].
    Auto,
    /// An explicit positive count.
    Count(usize),
    /// Unparseable (e.g. `"abc"`, `"-2"`): fall back to serial, but warn.
    Invalid,
}

pub(crate) fn parse_threads(value: Option<&str>) -> ThreadsSpec {
    let Some(raw) = value else {
        return ThreadsSpec::Unset;
    };
    let s = raw.trim();
    if s == "0" || s.eq_ignore_ascii_case("auto") {
        return ThreadsSpec::Auto;
    }
    match s.parse::<usize>() {
        Ok(n) => ThreadsSpec::Count(n.max(1)),
        Err(_) => ThreadsSpec::Invalid,
    }
}

/// The worker-thread count selected by the `ECLECTIC_THREADS` environment
/// variable: unset means `1` (serial — the safe default for the many small
/// explorations in unit tests), `0` or `auto` means
/// [`std::thread::available_parallelism`], and any other `N` means `N`.
///
/// An unparseable value (e.g. `"abc"`, `"-2"`) also falls back to `1`, but
/// emits a one-time warning on stderr naming the bad value.
///
/// Only the top-level entry points call this: `spec::verify` (the CLI's and
/// the examples' entry) and the fuzzer's `fuzz::run_corpus`. Every sweep
/// below them takes its worker count from its caller, or runs at one worker
/// when it takes none, so an explicit worker count is never overridden by
/// the environment. `just lint` rejects any other library call site.
#[must_use]
pub fn env_threads() -> usize {
    let value = std::env::var("ECLECTIC_THREADS").ok();
    match parse_threads(value.as_deref()) {
        ThreadsSpec::Unset => 1,
        ThreadsSpec::Auto => {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
        ThreadsSpec::Count(n) => n,
        ThreadsSpec::Invalid => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "eclectic: unparseable ECLECTIC_THREADS={:?}; expected a count, `0` or \
                     `auto` — falling back to 1 worker (serial)",
                    value.as_deref().unwrap_or_default()
                );
            });
            1
        }
    }
}

/// Process-global worker-cap override installed by [`force_worker_cap`]:
/// `0` means "no override, cap at host parallelism".
static WORKER_CAP: AtomicUsize = AtomicUsize::new(0);

/// Serializes holders of [`force_worker_cap`] guards — the override is
/// process-global, so concurrent forced-cap tests must exclude each other.
static WORKER_CAP_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard for a forced worker cap; restores the host-parallelism cap
/// on drop. Holding it excludes every other forced-cap section in the
/// process.
pub struct WorkerCapGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for WorkerCapGuard {
    fn drop(&mut self) {
        WORKER_CAP.store(0, Ordering::SeqCst);
    }
}

/// Forces [`effective_workers`] to cap at `cap` instead of the host's
/// available parallelism for the lifetime of the returned guard.
///
/// Intended for determinism tests and scheduler benches that must spawn a
/// specific worker count even on hosts with fewer cores (a single-core CI
/// runner would otherwise silently serialize every "8-thread" case and
/// test nothing). `usize::MAX` means "never cap".
#[must_use]
pub fn force_worker_cap(cap: usize) -> WorkerCapGuard {
    let lock = WORKER_CAP_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    WORKER_CAP.store(cap.max(1), Ordering::SeqCst);
    WorkerCapGuard { _lock: lock }
}

/// Caps a requested worker count at the host's available parallelism (or
/// at a [`force_worker_cap`] override when one is installed).
///
/// Every parallel sweep in this workspace is bit-identical across worker
/// counts (the merges replay serial order), so shrinking the worker pool
/// can never change a result — it only avoids oversubscription: extra
/// workers on a saturated host add spawn cost and split the per-worker
/// memo for zero concurrency.
#[must_use]
pub fn effective_workers(requested: usize) -> usize {
    let cap = match WORKER_CAP.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        forced => forced,
    };
    requested.min(cap).max(1)
}

// ---------------------------------------------------------------------------
// ECLECTIC_REL_COMPRESSED_MIN_DIM
// ---------------------------------------------------------------------------

/// Default minimum dimension at which the `auto` policy prefers the
/// compressed chunk-container backend over plain sorted adjacency: one
/// full 2¹⁶ chunk. Below this every row fits one chunk and the sparse
/// backend's flat `u32` rows have less per-row overhead; at and above it
/// closures of block-structured transition relations compress entries
/// into runs (see `BENCH_rel.json` for the measured capstone).
pub(crate) const REL_COMPRESSED_MIN_DIM_DEFAULT: usize = 1 << 16;

/// How one `ECLECTIC_REL_COMPRESSED_MIN_DIM` value parses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CompressedMinDimSpec {
    /// Variable unset: use [`REL_COMPRESSED_MIN_DIM_DEFAULT`].
    Unset,
    /// A parsed dimension floor (0 means "always prefer compressed over
    /// sparse").
    Dim(usize),
    /// Unparseable: fall back to the default, but warn.
    Invalid,
}

pub(crate) fn parse_rel_compressed_min_dim(value: Option<&str>) -> CompressedMinDimSpec {
    let Some(raw) = value else {
        return CompressedMinDimSpec::Unset;
    };
    match raw.trim().parse::<usize>() {
        Ok(d) => CompressedMinDimSpec::Dim(d),
        Err(_) => CompressedMinDimSpec::Invalid,
    }
}

/// The effective compressed-crossover floor for the `auto` relation
/// policy: `ECLECTIC_REL_COMPRESSED_MIN_DIM` if set and parseable, else
/// [`REL_COMPRESSED_MIN_DIM_DEFAULT`].
pub(crate) fn rel_compressed_min_dim() -> usize {
    static DIM: OnceLock<usize> = OnceLock::new();
    *DIM.get_or_init(|| {
        let value = std::env::var("ECLECTIC_REL_COMPRESSED_MIN_DIM").ok();
        match parse_rel_compressed_min_dim(value.as_deref()) {
            CompressedMinDimSpec::Unset => REL_COMPRESSED_MIN_DIM_DEFAULT,
            CompressedMinDimSpec::Dim(d) => d,
            CompressedMinDimSpec::Invalid => {
                eprintln!(
                    "eclectic: unparseable ECLECTIC_REL_COMPRESSED_MIN_DIM={:?}; expected a \
                     non-negative integer — falling back to {REL_COMPRESSED_MIN_DIM_DEFAULT}",
                    value.as_deref().unwrap_or_default()
                );
                REL_COMPRESSED_MIN_DIM_DEFAULT
            }
        }
    })
}

// ---------------------------------------------------------------------------
// ECLECTIC_REL_BACKEND
// ---------------------------------------------------------------------------

/// How one `ECLECTIC_REL_BACKEND` value parses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BackendSpec {
    /// Variable unset: the automatic crossover policy.
    Unset,
    /// `auto`: the automatic crossover policy, explicitly.
    Auto,
    /// `dense`: every relation on the bit-matrix backend.
    Dense,
    /// `sparse`: every relation on the adjacency backend.
    Sparse,
    /// `compressed`: every relation on the chunk-container backend.
    Compressed,
    /// Unparseable: fall back to `auto`, but warn.
    Invalid,
}

pub(crate) fn parse_rel_backend(value: Option<&str>) -> BackendSpec {
    let Some(raw) = value else {
        return BackendSpec::Unset;
    };
    let s = raw.trim();
    if s.eq_ignore_ascii_case("auto") {
        BackendSpec::Auto
    } else if s.eq_ignore_ascii_case("dense") {
        BackendSpec::Dense
    } else if s.eq_ignore_ascii_case("sparse") {
        BackendSpec::Sparse
    } else if s.eq_ignore_ascii_case("compressed") {
        BackendSpec::Compressed
    } else {
        BackendSpec::Invalid
    }
}

/// The environment-selected relation backend policy, read once per process
/// (relations are constructed on hot paths; `std::env::var` takes a lock).
pub(crate) fn env_rel_backend() -> BackendSpec {
    static SPEC: OnceLock<BackendSpec> = OnceLock::new();
    *SPEC.get_or_init(|| {
        let value = std::env::var("ECLECTIC_REL_BACKEND").ok();
        let spec = parse_rel_backend(value.as_deref());
        if spec == BackendSpec::Invalid {
            eprintln!(
                "eclectic: unparseable ECLECTIC_REL_BACKEND={:?}; expected `dense`, `sparse`, \
                 `compressed` or `auto` — falling back to the automatic crossover",
                value.as_deref().unwrap_or_default()
            );
        }
        spec
    })
}

// ---------------------------------------------------------------------------
// ECLECTIC_MAX_REL_BYTES (legacy spelling: ECLECTIC_MAX_REL_ENTRIES)
// ---------------------------------------------------------------------------

/// How the pair of relation-memory variables parses. The documented
/// spelling `ECLECTIC_MAX_REL_BYTES` wins over the legacy
/// `ECLECTIC_MAX_REL_ENTRIES` when both are set; the legacy name alone
/// still works (and the env reader warns once about the rename).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RelBytesSpec {
    /// Neither variable set: the axis stays unlimited.
    Unset,
    /// A byte cap from the documented `ECLECTIC_MAX_REL_BYTES` spelling.
    Bytes(usize),
    /// A byte cap from the legacy `ECLECTIC_MAX_REL_ENTRIES` spelling
    /// (the unit is bytes there too — PR 9 changed the unit but kept the
    /// name; only the spelling is deprecated).
    LegacyBytes(usize),
    /// The winning variable is set but unparseable: leave the axis
    /// unlimited, but warn.
    Invalid,
}

pub(crate) fn parse_max_rel_bytes(
    primary: Option<&str>,
    legacy: Option<&str>,
) -> RelBytesSpec {
    if let Some(raw) = primary {
        return match raw.trim().parse::<usize>() {
            Ok(n) => RelBytesSpec::Bytes(n),
            Err(_) => RelBytesSpec::Invalid,
        };
    }
    match legacy {
        None => RelBytesSpec::Unset,
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) => RelBytesSpec::LegacyBytes(n),
            Err(_) => RelBytesSpec::Invalid,
        },
    }
}

/// The environment-selected relation-memory cap in estimated bytes, if
/// any: `ECLECTIC_MAX_REL_BYTES`, falling back to the legacy
/// `ECLECTIC_MAX_REL_ENTRIES` spelling with a one-time deprecation
/// warning. Read once per process.
pub(crate) fn env_max_rel_bytes() -> Option<usize> {
    static CAP: OnceLock<Option<usize>> = OnceLock::new();
    *CAP.get_or_init(|| {
        let primary = std::env::var("ECLECTIC_MAX_REL_BYTES").ok();
        let legacy = std::env::var("ECLECTIC_MAX_REL_ENTRIES").ok();
        match parse_max_rel_bytes(primary.as_deref(), legacy.as_deref()) {
            RelBytesSpec::Unset => None,
            RelBytesSpec::Bytes(n) => Some(n),
            RelBytesSpec::LegacyBytes(n) => {
                eprintln!(
                    "eclectic: ECLECTIC_MAX_REL_ENTRIES is a legacy spelling — the cap \
                     measures estimated bytes, and the documented name is \
                     ECLECTIC_MAX_REL_BYTES (honouring the legacy name this time)"
                );
                Some(n)
            }
            RelBytesSpec::Invalid => {
                let (name, value) = if primary.is_some() {
                    ("ECLECTIC_MAX_REL_BYTES", primary)
                } else {
                    ("ECLECTIC_MAX_REL_ENTRIES", legacy)
                };
                eprintln!(
                    "eclectic: unparseable {name}={:?}; expected a non-negative byte count — \
                     leaving the relation-memory axis unlimited",
                    value.as_deref().unwrap_or_default()
                );
                None
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_parse_table() {
        assert_eq!(parse_threads(None), ThreadsSpec::Unset);

        assert_eq!(parse_threads(Some("0")), ThreadsSpec::Auto);
        assert_eq!(parse_threads(Some("auto")), ThreadsSpec::Auto);
        assert_eq!(parse_threads(Some(" AUTO ")), ThreadsSpec::Auto);

        assert_eq!(parse_threads(Some("1")), ThreadsSpec::Count(1));
        assert_eq!(parse_threads(Some(" 8 ")), ThreadsSpec::Count(8));

        assert_eq!(parse_threads(Some("abc")), ThreadsSpec::Invalid);
        assert_eq!(parse_threads(Some("-2")), ThreadsSpec::Invalid);
        assert_eq!(parse_threads(Some("")), ThreadsSpec::Invalid);
        assert_eq!(parse_threads(Some("3.5")), ThreadsSpec::Invalid);

        // Huge counts parse; they are capped at the host by
        // `effective_workers` at spawn time (asserted in
        // `worker_cap_guard_overrides_and_restores`, which serializes on
        // the override lock).
        assert_eq!(parse_threads(Some("100000")), ThreadsSpec::Count(100_000));
    }

    #[test]
    fn rel_backend_parse_table() {
        assert_eq!(parse_rel_backend(None), BackendSpec::Unset);
        assert_eq!(parse_rel_backend(Some("auto")), BackendSpec::Auto);
        assert_eq!(parse_rel_backend(Some(" DENSE ")), BackendSpec::Dense);
        assert_eq!(parse_rel_backend(Some("sparse")), BackendSpec::Sparse);
        assert_eq!(
            parse_rel_backend(Some(" Compressed ")),
            BackendSpec::Compressed
        );
        assert_eq!(parse_rel_backend(Some("roaring")), BackendSpec::Invalid);
        assert_eq!(parse_rel_backend(Some("btree")), BackendSpec::Invalid);
        assert_eq!(parse_rel_backend(Some("")), BackendSpec::Invalid);
    }

    #[test]
    fn rel_compressed_min_dim_parse_table() {
        assert_eq!(
            parse_rel_compressed_min_dim(None),
            CompressedMinDimSpec::Unset
        );
        assert_eq!(
            parse_rel_compressed_min_dim(Some("0")),
            CompressedMinDimSpec::Dim(0)
        );
        assert_eq!(
            parse_rel_compressed_min_dim(Some(" 131072 ")),
            CompressedMinDimSpec::Dim(131_072)
        );
        assert_eq!(
            parse_rel_compressed_min_dim(Some("abc")),
            CompressedMinDimSpec::Invalid
        );
        assert_eq!(
            parse_rel_compressed_min_dim(Some("-1")),
            CompressedMinDimSpec::Invalid
        );
        assert_eq!(
            parse_rel_compressed_min_dim(Some("")),
            CompressedMinDimSpec::Invalid
        );
    }

    #[test]
    fn max_rel_bytes_parse_table() {
        // Neither spelling set.
        assert_eq!(parse_max_rel_bytes(None, None), RelBytesSpec::Unset);
        // The documented spelling alone.
        assert_eq!(
            parse_max_rel_bytes(Some("67108864"), None),
            RelBytesSpec::Bytes(67_108_864)
        );
        assert_eq!(
            parse_max_rel_bytes(Some(" 1024 "), None),
            RelBytesSpec::Bytes(1024)
        );
        // The legacy spelling alone is honoured (as bytes) but flagged.
        assert_eq!(
            parse_max_rel_bytes(None, Some("4096")),
            RelBytesSpec::LegacyBytes(4096)
        );
        // The documented spelling wins when both are set.
        assert_eq!(
            parse_max_rel_bytes(Some("10"), Some("20")),
            RelBytesSpec::Bytes(10)
        );
        // Unparseable winning values leave the axis unlimited (with a warn).
        assert_eq!(parse_max_rel_bytes(Some("abc"), None), RelBytesSpec::Invalid);
        assert_eq!(parse_max_rel_bytes(Some(""), Some("64")), RelBytesSpec::Invalid);
        assert_eq!(parse_max_rel_bytes(None, Some("-5")), RelBytesSpec::Invalid);
        assert_eq!(parse_max_rel_bytes(Some("3.5"), None), RelBytesSpec::Invalid);
    }

    #[test]
    fn worker_cap_guard_overrides_and_restores() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        {
            let _g = force_worker_cap(usize::MAX);
            assert_eq!(effective_workers(8), 8);
            assert_eq!(effective_workers(0), 1);
        }
        {
            let _g = force_worker_cap(2);
            assert_eq!(effective_workers(8), 2);
        }
        // With no guard held the host cap applies again. Hold the lock so
        // a concurrently running forced-cap test can't interleave.
        let _serialize = force_worker_cap(cores);
        assert_eq!(effective_workers(100_000), cores);
        assert_eq!(effective_workers(0), 1);
    }
}
