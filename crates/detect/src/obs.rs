//! Detection-pass metrics, reported into the process-wide [`ecfd_obs`]
//! registry.
//!
//! Every full or incremental detection pass calls [`record_pass`] once when
//! it finishes — a handful of atomic operations per *pass* (not per row), so
//! the instrumentation cost is unmeasurable next to the scan itself (the
//! `obs_overhead` benchmark guards this).

use std::time::Duration;

/// Records one finished detection pass.
///
/// * `detect.pass.ns{backend=…}` — wall-clock duration histogram, labelled
///   `semantic`, `sql`, or `incremental`;
/// * `detect.rows.scanned` — rows the pass examined (for incremental passes:
///   `IncrementalStats::rows_examined`);
/// * `detect.groups.merged` — enforcement groups materialised or touched;
/// * `detect.violations` — flagged violations the pass reported (full passes
///   only; incremental passes maintain flags in place and pass 0).
pub(crate) fn record_pass(
    backend: &'static str,
    rows: u64,
    groups: u64,
    violations: u64,
    elapsed: Duration,
) {
    let registry = ecfd_obs::registry();
    registry
        .histogram_with("detect.pass.ns", &[("backend", backend)])
        .record_duration(elapsed);
    registry.counter("detect.rows.scanned").add(rows);
    registry.counter("detect.groups.merged").add(groups);
    registry.counter("detect.violations").add(violations);
}

/// Adds `n` to an exact work counter — the counters a gate on "the work
/// does not depend on the table's size" reads:
///
/// * `detect.incremental.rows.examined` — rows whose codes or flags an
///   incremental pass read;
/// * `detect.incremental.chunks.copied` — column and symbol-table chunks it
///   copied because a frozen epoch still shared them;
/// * `detect.incremental.seeds` — incremental states seeded by a full pass;
/// * `detect.detectors.compiled` — `SemanticDetector` compiles (clones share
///   one);
/// * `relation.rows.encoded` — rows or tuples turned into codes: full passes,
///   freezes, seeds, BATCHDETECT's read-back, repair keys, and every tuple a
///   delta inserts or looks up.
pub(crate) fn count(counter: &'static str, n: u64) {
    ecfd_obs::registry().counter(counter).add(n);
}
