//! Correctness accounting. Every operation the benchmark issues is counted
//! as attempted; one whose output fails its check — or that the system
//! refused — is counted as failed and named on stderr. A run with any
//! failure prints `"correct": false` and exits non-zero.
//!
//! What is checked, and when (always outside timed spans):
//!
//! * every round: `detect_batch` == the base report; `detect_fresh` (sharded:
//!   `merged_fresh`) == the published report; after the cycle's inverses and
//!   after the bulk batch `(rows, sv, mv)` == base; after `Δ2` the published
//!   report differs from the one at rest and flags the corrupted row; the
//!   writer reported no apply error (`rounds.rs`);
//! * one set-up and the warm-up rounds after it (a gating run's last set-up,
//!   so that the oracle is not resident while the peak is measured; a traced
//!   run's only one): byte-identical, ids included, to an unsharded oracle
//!   session applying the same deltas in lockstep;
//! * every 10th measured round, after `Δ2`: byte-identical to `compose` — the
//!   served rows re-encoded and re-detected by one fresh detector;
//! * durable workloads, at the end: drop the hub, `bootstrap_durable` again
//!   on the same directory — the recovered report must be byte-identical to
//!   the pre-restart one and the `wal.recovery.deltas{shard=N}` gauges must
//!   sum to every acknowledged sub-delta ([`restart_check`]).

use crate::served::Served;
use crate::workload::{Inputs, Serving};
use crate::Fallible;
use ecfd_detect::DetectionReport;
use ecfd_serve::report_hash;
use std::path::Path;
use std::time::Instant;

/// Operations attempted and failed, as the result line reports them.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records `count` operations that share one check (the bulk batch's 8
    /// deltas are verified by one read).
    pub fn ops(&mut self, count: u64, what: &str, ok: bool) {
        self.attempted += count;
        if !ok {
            self.failed += count;
            eprintln!("FAILED: {what}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// A report reduced to what can be kept across timed spans without keeping
/// the snapshot alive: its counts, and a hash equal iff the reports are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// `(total_rows, num_sv, num_mv)`.
    pub counts: (usize, usize, usize),
    hash: u64,
}

/// `(total_rows, num_sv, num_mv)`: what the cycle must restore.
pub fn counts(report: &DetectionReport) -> (usize, usize, usize) {
    (report.total_rows, report.num_sv(), report.num_mv())
}

impl Fingerprint {
    pub fn of(report: &DetectionReport) -> Self {
        Fingerprint {
            counts: counts(report),
            hash: report_hash(report),
        }
    }
}

/// What the restart cost, for `serve.recover_ms_per_delta`.
pub struct Restart {
    pub recover_ms: f64,
    pub sub_deltas: u64,
}

/// The durable restart check: drops the served stack, bootstraps a fresh one
/// from the base session on the same WAL directory, and compares. Returns
/// `None` for workloads that are not durable.
pub fn restart_check(
    served: Served,
    inputs: &Inputs,
    wal_dir: &Path,
    acked_sub_deltas: u64,
    tally: &mut Tally,
) -> Fallible<Option<Restart>> {
    let Serving::DurableSharded(shards) = inputs.spec.serving else {
        return Ok(None);
    };
    let before = Fingerprint::of(served.read()?.report());
    drop(served);

    let session = inputs.session()?;
    let started = Instant::now();
    let recovered = Served::bootstrap(session, inputs.spec.serving, wal_dir)?;
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;

    let replayed: i64 = (0..shards)
        .map(|s| {
            ecfd_obs::registry()
                .gauge_with("wal.recovery.deltas", &[("shard", &s.to_string())])
                .get()
        })
        .sum();
    let after = Fingerprint::of(recovered.read()?.report());
    tally.ops(
        1,
        "restart: recovered report == pre-restart report, every ACKed delta replayed",
        after == before
            && replayed == acked_sub_deltas as i64
            && Fingerprint::of(&recovered.fresh()?) == after,
    );
    Ok(Some(Restart {
        recover_ms,
        sub_deltas: acked_sub_deltas,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::RowId;

    #[test]
    fn tally_counts_shared_checks_per_operation() {
        let mut tally = Tally::default();
        tally.ops(1, "fine", true);
        tally.ops(8, "bulk", true);
        assert!(tally.correct());
        tally.ops(8, "bulk gone wrong", false);
        assert_eq!((tally.attempted, tally.failed), (17, 8));
        assert!(!tally.correct());
    }

    #[test]
    fn fingerprints_tell_ids_apart_not_only_counts() {
        let mut a = DetectionReport {
            total_rows: 10,
            ..Default::default()
        };
        a.mv_rows.insert(RowId(3));
        let mut b = a.clone();
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
        b.mv_rows.clear();
        b.mv_rows.insert(RowId(4));
        assert_eq!(Fingerprint::of(&a).counts, Fingerprint::of(&b).counts);
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&b));
    }
}
