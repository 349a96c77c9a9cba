//! # ecfd-session
//!
//! One stateful object for the whole eCFD lifecycle. The paper's systems
//! pitch is that detection is a *fixed-query service* sitting on top of a
//! database: constraints are encoded once, and the per-query work is
//! independent of how many eCFDs are checked. [`Session`] is that service as
//! an API — it owns the [`Catalog`](ecfd_relation::Catalog), a registry of
//! compiled [`ConstraintSet`](ecfd_core::ConstraintSet)s, and the detector
//! backends per set, so callers stop hand-wiring
//! `SemanticDetector` / `BatchDetector` / `IncrementalDetector` /
//! `RepairEngine` object graphs. A registration compiles its set into one
//! `SemanticDetector`, and every native consumer — the native backend, each
//! INCDETECT seed, the repair engine and every [`Snapshot`] — shares that
//! compile and its dictionary. (Those types remain exported from their
//! crates as the low-level layer.)
//!
//! ## Lifecycle state machine
//!
//! Each relation managed by a session moves through four stages
//! ([`Stage`]):
//!
//! ```text
//!             load                 register              detect / apply
//!  (empty) ─────────▶ Loaded ─────────────▶ Registered ───────────────▶ Detected
//!                       ▲                      ▲    ▲                      │
//!                       │ load (re-load data)  │    │                      │ repair
//!                       └──────────────────────┘    │                      ▼
//!                                                   └──────────────── Repaired
//! ```
//!
//! * **Loaded** — [`Session::load`] put the relation into the catalog; no
//!   constraints yet.
//! * **Registered** — [`Session::register`] compiled constraints for it
//!   with [`ecfd_core::ConstraintSet::compile`] (validate → merge → dedupe
//!   → split → drop subsumed, no options); both backends are built from the
//!   one compiled set.
//! * **Detected** — a detection result (flags + evidence) is cached and
//!   describes the current table contents. [`Session::detect`],
//!   [`Session::explain`] and [`Session::apply`] land here.
//! * **Repaired** — [`Session::repair`] ran the verified repair loop; the
//!   cached result is the (verified clean) final report.
//!
//! ## What invalidates what
//!
//! | operation                  | cached report/evidence | native state (Cold / Encoded / Warm) |
//! |----------------------------|------------------------|--------------------------------------|
//! | `load` (same name again)   | dropped                | dropped                              |
//! | `register` (more rules)    | dropped                | dropped                              |
//! | `detect` (cache present)   | served, nothing runs   | kept                                 |
//! | `detect_with(Semantic)`    | replaced               | scanned as held; Cold → Encoded      |
//! | `detect_with(Incremental)` | replaced               | re-seeded from what is held → Warm   |
//! | `detect_with(Sql)`         | replaced               | kept                                 |
//! | `apply` via incremental    | replaced               | folded (seeded from what is held first) → Warm |
//! | `apply` via semantic       | replaced               | dropped, the new version encoded and seeded → Warm |
//! | `apply` via SQL            | replaced               | kept, stale once the rows moved      |
//! | `apply` refused (a tuple that does not fit) | kept  | kept                                 |
//! | `apply` failing mid-delta  | dropped (table may be partially mutated) | dropped            |
//! | `repair`, applied or refused | replaced (clean) / kept | driven in place → Warm            |
//! | `catalog_mut` / `invalidate` | dropped              | dropped                              |
//! | `snapshot`                 | served or replaced     | frozen as held; Cold → Encoded       |
//! | `with_policy` (new [`Parallelism`]) | kept          | kept (fan-out retrofitted)           |
//! | `with_cost_model`          | retired (version bump) | kept                                 |
//!
//! The *native state* is the one slot of the entry's `NativeBackend`:
//! nothing (Cold), the dictionary codes of the table version the last full
//! pass read (Encoded), or the INCDETECT state, whose maintained view is
//! those codes (Warm). Every row change moves the table's content stamp
//! ([`Relation::stamp`](ecfd_relation::Relation::stamp)), and the slot is
//! read only while the stamp it was built at is current; a stale slot is
//! dropped before anything is encoded (so "Cold → Encoded" covers a stale
//! slot too). The state is therefore reused if and only if the rows did
//! not change, whoever changed them, `catalog_mut` included. A full pass over an unchanged table therefore
//! encodes nothing, and a cold set-up (register → detect → snapshot → first
//! small delta) encodes the table once.
//!
//! The `SV` / `MV` flags live in the cached report, never in the catalog: a
//! full detection pass leaves the stored table exactly as loaded (the SQL
//! backend runs the paper's statements on a scratch copy), so a Warm state
//! stays valid across `detect_with` whichever backend ran. Updates applied
//! through the SQL backend *do* move rows, so the stamp retires the state
//! they leave behind; a semantic apply's full pass seeds a new one. A delta with an insertion that does not fit the
//! loaded schema is refused before any backend sees it, so it costs nothing.
//!
//! Beyond the explicit drops in the table, every cached result carries the
//! session version it was produced at, and is served (by `detect`,
//! [`Session::report`], [`Session::last_backend`], snapshots) only while
//! that stamp equals the current version. Any operation that bumps the
//! version — including ones that deliberately *keep* cache fields, like a
//! cost-model swap — therefore retires stale results by construction rather
//! than by each code path remembering to clear them.
//!
//! ## Backend routing and parallelism
//!
//! Every detection-shaped call can name a [`BackendKind`] explicitly
//! (`detect_with`, `apply_with`); otherwise one fixed rule decides. Full
//! passes run on the native semantic detector — the fast path: one
//! shared-scan program over the dictionary-encoded columns, the
//! `ScanProgram` an `ecfd_plan::Plan` holds and renders for `EXPLAIN PLAN`.
//! Update batches are routed by the delta-size threshold of the paper's
//! Fig. 7(a): a batch of at most a quarter of the table goes to incremental
//! maintenance, which runs each touched tuple through the same program's
//! per-row step, a larger one to a fresh semantic pass. The SQL batch
//! detector remains the paper-faithful reference (its role is fidelity, not
//! speed), reached per call only.
//!
//! The session's [`RoutingPolicy`] carries the [`Parallelism`] of the
//! detection scans:
//! `Auto` (every available core, the default) or `Fixed(n)`. It is applied
//! to the backends at registration time; replacing the policy with
//! [`Session::with_policy`](session::Session::with_policy) retrofits the new
//! fan-out onto already-registered backends. The constants of each
//! attribute's value classes are pre-resolved to dictionary codes once at
//! `register` time, so per-scan match tests are a class lookup and a bit
//! test regardless of the fan-out.
//!
//! ## Example
//!
//! ```
//! use ecfd_session::Session;
//! use ecfd_relation::{DataType, Relation, Schema, Tuple};
//!
//! let schema = Schema::builder("cust")
//!     .attr("CT", DataType::Str)
//!     .attr("AC", DataType::Str)
//!     .build();
//! let data = Relation::with_tuples(schema, [
//!     Tuple::from_iter(["Albany", "718"]), // wrong area code
//!     Tuple::from_iter(["NYC", "212"]),
//! ]).unwrap();
//!
//! let mut session = Session::new();
//! session.load(data).unwrap();
//! session.register_text("cust: [CT] -> [AC] | [], { {Albany} || {518} }").unwrap();
//!
//! let report = session.detect().unwrap();
//! assert_eq!(report.num_sv(), 1);
//!
//! let outcome = session.repair().unwrap();
//! assert!(outcome.final_report.is_clean());
//! assert!(session.detect().unwrap().is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod policy;
mod session;
pub mod snapshot;

pub use error::{Result, SessionError};
pub use policy::RoutingPolicy;
pub use session::{Session, Stage};
pub use snapshot::Snapshot;

// The kinds a policy routes between — and the worker fan-out it carries —
// are part of this crate's vocabulary.
pub use ecfd_detect::backend::BackendKind;
pub use ecfd_detect::Parallelism;
pub use ecfd_detect::{OpenGroup, ShardPartial};

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_core::ECfdBuilder;
    use ecfd_detect::DetectorBackend;
    use ecfd_relation::{AttrId, DataType, Delta, Relation, Schema, Tuple, Value};
    use ecfd_repair::{RepairMode, RepairOptions};

    fn schema() -> Schema {
        Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build()
    }

    fn dirty() -> Relation {
        Relation::with_tuples(
            schema(),
            [
                Tuple::from_iter(["Albany", "718"]),
                Tuple::from_iter(["Albany", "518"]),
                Tuple::from_iter(["NYC", "212"]),
            ],
        )
        .unwrap()
    }

    const PHI: &str = "cust: [CT] -> [AC] | [], { {Albany} || {518} }";

    fn ready_session() -> Session {
        let mut session = Session::new();
        session.load(dirty()).unwrap();
        session.register_text(PHI).unwrap();
        session
    }

    #[test]
    fn lifecycle_stages_progress() {
        let mut session = Session::new();
        assert_eq!(session.stage(), None);
        session.load(dirty()).unwrap();
        assert_eq!(session.stage(), Some(Stage::Loaded));
        session.register_text(PHI).unwrap();
        assert_eq!(session.stage(), Some(Stage::Registered));
        session.detect().unwrap();
        assert_eq!(session.stage(), Some(Stage::Detected));
        session.repair().unwrap();
        assert_eq!(session.stage(), Some(Stage::Repaired));
        // Re-loading data rewinds to Registered (constraints are kept).
        session.load(dirty()).unwrap();
        assert_eq!(session.stage(), Some(Stage::Registered));
        assert_eq!(session.constraints("cust").unwrap().len(), 1);
    }

    #[test]
    fn detect_serves_the_cache_and_explicit_backends_replace_it() {
        let mut session = ready_session();
        let first = session.detect().unwrap();
        assert_eq!(first.num_sv(), 1);
        assert_eq!(first.num_mv(), 2, "the two Albany rows conflict");
        assert_eq!(session.last_backend(), Some(BackendKind::Semantic));

        // Cached: same result, no backend switch.
        let again = session.detect().unwrap();
        assert_eq!(again, first);

        for kind in BackendKind::ALL {
            let report = session.detect_with(kind).unwrap();
            assert_eq!(report, first, "{kind} disagrees");
            assert_eq!(session.last_backend(), Some(kind));
        }
    }

    #[test]
    fn apply_routes_by_delta_size() {
        let mut session = ready_session();
        session.detect().unwrap();

        // 1 update against 3 rows is under the default 25% threshold? No:
        // 1 > 0.75 → large. Make the table bigger first.
        let filler = Delta::insert_only(
            (0..37)
                .map(|i| Tuple::from_iter(["NYC", &format!("2{i:02}")]))
                .collect(),
        );
        session.apply_with(BackendKind::Sql, &filler).unwrap();

        let small = Delta::insert_only(vec![Tuple::from_iter(["Troy", "518"])]);
        session.apply(&small).unwrap();
        assert_eq!(session.last_backend(), Some(BackendKind::Incremental));

        let large = Delta::insert_only(
            (0..30)
                .map(|i| Tuple::from_iter(["LI", &format!("5{i:02}")]))
                .collect(),
        );
        session.apply(&large).unwrap();
        assert_eq!(session.last_backend(), Some(BackendKind::Semantic));
    }

    #[test]
    fn apply_keeps_flags_consistent_with_a_fresh_detect() {
        let mut session = ready_session();
        session.detect().unwrap();
        let delta = Delta {
            insertions: vec![Tuple::from_iter(["Albany", "519"])],
            deletions: vec![Tuple::from_iter(["NYC", "212"])],
        };
        let after = session
            .apply_with(BackendKind::Incremental, &delta)
            .unwrap();
        let scratch = session.detect_with(BackendKind::Semantic).unwrap();
        assert_eq!(after, scratch);
        assert_eq!(after.total_rows, 3);
    }

    #[test]
    fn repair_uses_session_evidence_and_lands_clean() {
        let mut session = ready_session();
        let before = session.detect().unwrap();
        assert!(!before.is_clean());
        let outcome = session
            .repair_with(RepairOptions {
                mode: RepairMode::DeleteOnly,
            })
            .unwrap();
        assert!(outcome.final_report.is_clean());
        assert!(outcome.num_deletions() >= 1);
        assert_eq!(session.stage(), Some(Stage::Repaired));
        // The cached state reflects the clean table without a re-scan…
        assert!(session.report().unwrap().is_clean());
        // …and an explicit re-detect agrees.
        assert!(session
            .detect_with(BackendKind::Semantic)
            .unwrap()
            .is_clean());
    }

    #[test]
    fn register_extends_and_dedupes() {
        let mut session = ready_session();
        // Registering the same constraint again changes nothing compiled.
        session.register_text(PHI).unwrap();
        let set = session.constraints("cust").unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.num_patterns(), 1);
        assert_eq!(set.source().len(), 2);
        // A genuinely new constraint extends the compiled set.
        session
            .register_text("cust: [CT] -> [] | [AC], { {NYC} || {212, 718} }")
            .unwrap();
        assert_eq!(session.constraints("cust").unwrap().len(), 2);
        assert_eq!(session.stage(), Some(Stage::Registered));
    }

    #[test]
    fn a_registered_minimal_cover_shrinks_the_set() {
        // Minimization is an analysis, not a registration switch: the caller
        // registers the cover, and the session compiles what it is given.
        let mut session = Session::new();
        session.load(dirty()).unwrap();
        let strong = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.in_set("CT", ["Albany", "Troy"]).constant("AC", "518"))
            .build()
            .unwrap();
        let weak = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.in_set("CT", ["Albany"]).constant("AC", "518"))
            .build()
            .unwrap();
        let cover =
            ecfd_core::implication::minimal_cover(&schema(), &[strong.clone(), weak]).unwrap();
        assert_eq!(cover, vec![strong], "the weak rule is implied");
        session.register(&cover).unwrap();
        let set = session.constraints("cust").unwrap();
        assert_eq!(set.num_patterns(), 1);
        assert_eq!(set.source(), &cover[..]);
    }

    #[test]
    fn errors_name_the_missing_piece() {
        let mut session = Session::new();
        assert!(matches!(session.detect(), Err(SessionError::NotLoaded(_))));
        assert!(matches!(
            session.register_text(PHI),
            Err(SessionError::NotLoaded(name)) if name == "cust"
        ));
        session.load(dirty()).unwrap();
        assert!(matches!(
            session.detect(),
            Err(SessionError::NoConstraints(name)) if name == "cust"
        ));
        session.register_text(PHI).unwrap();
        assert!(matches!(
            session.detect_on("orders"),
            Err(SessionError::NotLoaded(name)) if name == "orders"
        ));
    }

    #[test]
    fn multi_relation_sessions_need_explicit_names() {
        let mut session = Session::new();
        session.load(dirty()).unwrap();
        let orders_schema = Schema::builder("orders")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build();
        session
            .load(
                Relation::with_tuples(orders_schema, [Tuple::from_iter(["Albany", "999"])])
                    .unwrap(),
            )
            .unwrap();
        session.register_text(PHI).unwrap();
        session
            .register_text("orders: [CT] -> [AC] | [], { {Albany} || {518} }")
            .unwrap();
        assert!(matches!(
            session.detect(),
            Err(SessionError::AmbiguousRelation(names)) if names.len() == 2
        ));
        // Two distinct violating rows: Albany/718 (SV and MV) and Albany/518
        // (MV only).
        assert_eq!(session.detect_on("cust").unwrap().num_violations(), 2);
        assert_eq!(session.detect_on("orders").unwrap().num_sv(), 1);
    }

    #[test]
    fn sql_backend_unavailability_is_reported_per_call() {
        let schema = Schema::builder("t")
            .attr("A", DataType::Int)
            .attr("B", DataType::Str)
            .build();
        let phi = ECfdBuilder::new("t")
            .lhs(["A"])
            .fd_rhs(["B"])
            .pattern(|p| p)
            .build()
            .unwrap();
        let mut session = Session::new();
        session
            .load(
                Relation::with_tuples(
                    schema,
                    [
                        Tuple::new(vec![Value::Int(1), Value::str("x")]),
                        Tuple::new(vec![Value::Int(1), Value::str("y")]),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        session.register(&[phi]).unwrap();
        // The semantic path serves the int-typed schema fine…
        assert_eq!(
            session.detect_with(BackendKind::Semantic).unwrap().num_mv(),
            2
        );
        // …and only an explicit SQL request errors.
        assert!(matches!(
            session.detect_with(BackendKind::Sql),
            Err(SessionError::BackendUnavailable {
                kind: BackendKind::Sql,
                ..
            })
        ));
    }

    #[test]
    fn failing_reload_leaves_the_session_untouched() {
        let mut session = ready_session();
        let before = session.detect().unwrap();
        // A relation reusing the name but lacking the constrained attributes:
        // recompilation fails, and nothing — catalog, registry, cache — moves.
        let incompatible = Relation::with_tuples(
            Schema::builder("cust").attr("OTHER", DataType::Str).build(),
            [Tuple::from_iter(["x"])],
        )
        .unwrap();
        assert!(session.load(incompatible).is_err());
        assert_eq!(session.report(), Some(&before));
        assert_eq!(session.data("cust").unwrap(), &dirty());
        assert_eq!(session.detect().unwrap(), before);
    }

    #[test]
    fn failing_registration_is_atomic_across_relations() {
        let mut session = ready_session();
        let set_before = session.constraints("cust").unwrap().clone();
        let for_cust = ecfd_core::parse_ecfd(PHI).unwrap();
        let for_unloaded =
            ecfd_core::parse_ecfd("orders: [CT] -> [AC] | [], { {Albany} || {518} }").unwrap();
        // `orders` is not loaded, so the whole batch must be rejected —
        // including the valid cust constraint sorted before it.
        assert!(matches!(
            session.register(&[for_cust, for_unloaded]),
            Err(SessionError::NotLoaded(name)) if name == "orders"
        ));
        assert_eq!(session.constraints("cust").unwrap(), &set_before);
    }

    #[test]
    fn cost_model_changes_reach_already_registered_relations() {
        struct DeleteNothing;
        impl ecfd_repair::CostModel for DeleteNothing {
            fn deletion_cost(&self, _t: &Tuple) -> f64 {
                1_000.0
            }
            fn change_cost(&self, _a: &str, _o: &Value, _n: &Value) -> f64 {
                1.0
            }
        }
        // Register first, swap the cost model afterwards: the deletion side
        // must see the new weights (greedy is weight-aware).
        let mut session = ready_session().with_cost_model(DeleteNothing);
        let outcome = session.repair().unwrap();
        assert!(outcome.final_report.is_clean());
        let cost: f64 = outcome
            .rounds
            .iter()
            .flat_map(|r| &r.repair.deletions)
            .map(|d| d.cost)
            .sum();
        assert!(
            outcome.num_deletions() == 0 || cost >= 1_000.0,
            "deletions must be costed by the post-registration model"
        );
    }

    #[test]
    fn repair_reuses_and_returns_warm_incremental_state() {
        let mut session = ready_session();
        session.detect().unwrap();
        // Warm the incremental state, then repair: the loop starts from it
        // and hands it back, so the next incremental apply needs no seeding.
        let warmup = Delta::insert_only(vec![Tuple::from_iter(["Troy", "518"])]);
        session
            .apply_with(BackendKind::Incremental, &warmup)
            .unwrap();
        let outcome = session.repair().unwrap();
        assert!(outcome.final_report.is_clean());

        let delta = Delta::insert_only(vec![Tuple::from_iter(["Albany", "999"])]);
        let after = session
            .apply_with(BackendKind::Incremental, &delta)
            .unwrap();
        let scratch = session.detect_with(BackendKind::Semantic).unwrap();
        assert_eq!(after, scratch);
        assert_eq!(after.num_sv(), 1, "the fresh 999 row violates φ");
    }

    #[test]
    fn snapshots_are_epoch_stamped_and_isolated() {
        let mut session = ready_session();
        let v0 = session.version();
        let snap = session.snapshot().unwrap();
        assert_eq!(snap.epoch(), v0, "detect does not mutate state");
        assert_eq!(snap.table(), "cust");
        assert_eq!(snap.num_rows(), 3);
        assert_eq!(snap.report().num_sv(), 1);
        assert_eq!(snap.report().num_mv(), 2);
        // The fresh re-scan over the frozen view agrees byte-for-byte.
        assert_eq!(&snap.detect_fresh().unwrap(), snap.report());
        let (report, evidence) = snap.detect_fresh_with_evidence().unwrap();
        assert_eq!(&report, snap.report());
        assert_eq!(&evidence, snap.evidence());

        // Mutate the session: the old snapshot must not move.
        let delta = Delta::insert_only(vec![Tuple::from_iter(["Albany", "999"])]);
        session.apply(&delta).unwrap();
        assert!(session.version() > v0, "apply bumps the version");
        let newer = session.snapshot().unwrap();
        assert!(newer.epoch() > snap.epoch());
        assert_eq!(newer.num_rows(), 4);
        assert_eq!(snap.num_rows(), 3, "old snapshot is frozen");
        assert_eq!(&snap.detect_fresh().unwrap(), snap.report());
        assert_eq!(&newer.detect_fresh().unwrap(), newer.report());
        // Same epoch ⇒ identical snapshot (served from the same state).
        let again = session.snapshot().unwrap();
        assert_eq!(again.epoch(), newer.epoch());
        assert_eq!(again.report(), newer.report());
    }

    #[test]
    fn snapshot_freezes_from_warm_incremental_state() {
        let mut session = ready_session();
        session.detect().unwrap();
        let delta = Delta {
            insertions: vec![Tuple::from_iter(["Troy", "518"])],
            deletions: vec![Tuple::from_iter(["NYC", "212"])],
        };
        session
            .apply_with(BackendKind::Incremental, &delta)
            .unwrap();
        let snap = session.snapshot().unwrap();
        assert_eq!(snap.num_rows(), 3);
        assert_eq!(&snap.detect_fresh().unwrap(), snap.report());
        // The frozen rows are the base attributes under live row ids.
        let rows = snap.frozen().decode_rows();
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .all(|(_, values)| values.len() == schema().arity()));
        for row in snap.report().violating_rows() {
            assert!(
                rows.iter().any(|(id, _)| *id == row),
                "{row} must be frozen"
            );
        }
    }

    #[test]
    fn failed_apply_invalidates_stale_state() {
        let mut session = ready_session();
        session.detect().unwrap();
        let version_before = session.version();
        // A tuple that does not fit the schema is refused before anything
        // moves, but a scheduled row id that clashes with a stored row fails
        // the batch only after the (valid) deletion landed: the table has
        // mutated, so every cache must go.
        let delta = Delta {
            deletions: vec![Tuple::from_iter(["NYC", "212"])],
            insertions: vec![Tuple::from_iter(["Troy", "518"])],
        };
        let taken = session.catalog().get("cust").unwrap().row_ids()[0];
        assert!(session
            .apply_scheduled_on("cust", &delta, &[taken])
            .is_err());
        assert!(session.version() > version_before, "table mutated");
        assert!(session.report().is_none(), "stale cache must be dropped");
        let report = session.detect().unwrap();
        assert_eq!(report.total_rows, 2, "the deletion did land");
        assert_eq!(
            report,
            session.detect_with(BackendKind::Semantic).unwrap(),
            "post-error detection describes the actual table"
        );
    }

    /// What a scheduled apply removed comes back as rows, whichever backend
    /// the delta was routed to — every duplicate a victim matched, in
    /// removal order, and nothing for a victim that matched no row. The
    /// four-tuple delta is above a quarter of the three-row table (a
    /// semantic pass) and within a quarter of it padded to 23 rows
    /// (incremental maintenance).
    #[test]
    fn a_scheduled_apply_returns_the_rows_it_removed() {
        use ecfd_relation::RowId;
        let albany = Tuple::from_iter(["Albany", "718"]);
        let base = |t: &Tuple| t.values()[..2].to_vec();
        for (padding, kind) in [(0, BackendKind::Semantic), (20, BackendKind::Incremental)] {
            let mut data = dirty();
            for i in 0..padding {
                data.insert(Tuple::from_iter([format!("Town{i}"), "518".into()]))
                    .unwrap();
            }
            let mut session = Session::new();
            session.load(data).unwrap();
            session.register_text(PHI).unwrap();
            session.detect().unwrap();
            let delta = Delta {
                deletions: vec![albany.clone(), Tuple::from_iter(["Nowhere", "000"])],
                insertions: vec![albany.clone(), albany.clone()],
            };
            let removed = session
                .apply_scheduled_on("cust", &delta, &[RowId(107), RowId(109)])
                .unwrap();
            assert_eq!(session.last_backend(), Some(kind));
            let ids: Vec<RowId> = removed.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, [RowId(0)], "{kind}");
            assert_eq!(base(&removed[0].1), albany.values(), "{kind}");

            let removed = session
                .apply_scheduled_on("cust", &Delta::delete_only(vec![albany.clone()]), &[])
                .unwrap();
            let ids: Vec<RowId> = removed.iter().map(|(id, _)| *id).collect();
            assert_eq!(
                ids,
                [RowId(107), RowId(109)],
                "{kind}: both scheduled rows go"
            );
            assert_eq!(session.data("cust").unwrap().len(), 2 + padding, "{kind}");
        }
    }

    #[test]
    fn snapshot_repair_plan_is_read_only() {
        let mut session = ready_session();
        let snap = session.snapshot().unwrap();
        let plan = snap
            .repair_plan(RepairOptions {
                mode: RepairMode::DeleteOnly,
            })
            .unwrap();
        assert!(!plan.is_empty(), "the dirty instance needs repairs");
        assert!(plan.num_deletions() >= 1);
        // Planning on the snapshot left the session untouched.
        assert_eq!(session.version(), snap.epoch());
        assert_eq!(session.detect().unwrap().num_violations(), 2);
    }

    #[test]
    fn catalog_mut_invalidates_cached_state() {
        let mut session = ready_session();
        session.detect().unwrap();
        assert!(session.report().is_some());
        session
            .catalog_mut()
            .get_mut("cust")
            .unwrap()
            .delete_matching(&[Tuple::from_iter(["NYC", "212"])]);
        assert!(session.report().is_none(), "cache must be dropped");
        let report = session.detect().unwrap();
        assert_eq!(report.total_rows, 2);
    }

    /// A full pass rescans the encoding its last pass kept only while the
    /// table's stamp is unchanged: an edit made behind the session's back,
    /// through `catalog_mut`, is seen by the next pass.
    #[test]
    fn a_full_pass_sees_an_edit_made_through_catalog_mut() {
        let mut session = ready_session();
        let before = session.detect_with(BackendKind::Semantic).unwrap();
        assert_eq!((before.num_sv(), before.num_mv()), (1, 2));
        let albany_718 = session.data("cust").unwrap().row_ids()[0];
        session
            .catalog_mut()
            .get_mut("cust")
            .unwrap()
            .update_value(albany_718, AttrId(1), Value::str("518"))
            .unwrap();
        let after = session.detect_with(BackendKind::Semantic).unwrap();
        assert!(
            after.is_clean(),
            "the edit repaired both violations: {after:?}"
        );
        assert_eq!(after, session.detect_with(BackendKind::Sql).unwrap());
    }

    #[test]
    fn explain_and_conflict_graph_come_from_the_cache() {
        let mut session = ready_session();
        let evidence = session.explain().unwrap();
        assert_eq!(evidence.num_sv_records(), 1);
        assert_eq!(evidence.num_groups(), 1);
        assert_eq!(
            evidence.detection_report(),
            *session.report().expect("explain caches detection")
        );
        let graph = session.conflict_graph().unwrap();
        assert!(graph.num_nodes() >= 2);
        // data() is the stored relation, which kept its loaded schema.
        let base = session.data("cust").unwrap();
        assert_eq!(base.schema(), &schema());
    }

    /// Detector state never leaks into the catalog: whichever backend runs
    /// every call, after a detect, a mixed delta and a repair the catalog
    /// holds the loaded relation alone, with its loaded schema — no `SV` /
    /// `MV` columns, no SQL encoding or auxiliary tables.
    #[test]
    fn detector_state_never_leaks_into_the_catalog() {
        for kind in BackendKind::ALL {
            let mut session = Session::new();
            session.load(dirty()).unwrap();
            session.register_text(PHI).unwrap();
            session.detect_with(kind).unwrap();
            let delta = Delta {
                insertions: vec![Tuple::from_iter(["Albany", "519"])],
                deletions: vec![Tuple::from_iter(["NYC", "212"])],
            };
            session.apply_with(kind, &delta).unwrap();
            assert_eq!(session.last_backend(), Some(kind));
            assert!(session.repair().unwrap().final_report.is_clean(), "{kind}");
            let catalog = session.catalog();
            assert_eq!(catalog.table_names(), ["cust"], "{kind}");
            assert_eq!(catalog.get("cust").unwrap().schema(), &schema(), "{kind}");
        }
    }

    #[test]
    fn backends_stay_swappable_behind_the_trait_object() {
        // The session holds its backends by concrete type; callers that pick
        // one at run time hold a `Box<dyn DetectorBackend>`. Double-check the
        // trait stays object-safe, the public constructors compose, and
        // INCDETECT's seed agrees with both full passes.
        let set = ecfd_core::ConstraintSet::parse(&schema(), PHI).unwrap();
        let mut backends: Vec<Box<dyn DetectorBackend>> = vec![
            Box::new(ecfd_detect::NativeBackend::from_set(&set)),
            Box::new(ecfd_detect::SqlBackend::from_set(&set).unwrap()),
        ];
        let mut catalog = ecfd_relation::Catalog::new();
        catalog.create(dirty()).unwrap();
        let mut reports = Vec::new();
        for backend in &mut backends {
            reports.push(backend.detect(&mut catalog).unwrap().0);
        }
        let mut native = ecfd_detect::NativeBackend::from_set(&set);
        reports.push(native.reseed(&catalog).unwrap().0);
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[1], reports[2]);
    }

    #[test]
    fn version_stamped_caches_go_stale_after_a_cost_model_swap() {
        // `with_cost_model` keeps every entry's cache field but bumps the
        // session version; the stamp must retire the cached result anyway,
        // so nothing (report accessor, detect, snapshots) reuses a result
        // produced under pre-swap state.
        let mut session = ready_session();
        session.detect().unwrap();
        assert!(session.report().is_some());
        let mut session = session.with_cost_model(ecfd_repair::ConstantCost::default());
        assert!(
            session.report().is_none(),
            "cache predates the version bump"
        );
        assert!(session.last_backend().is_none());
        // A plain detect() refreshes rather than serving the stale entry,
        // and the fresh result is immediately servable again.
        let report = session.detect().unwrap();
        assert_eq!(session.report(), Some(&report));
        assert_eq!(session.last_backend(), Some(BackendKind::Semantic));
        let snap = session.snapshot().unwrap();
        assert_eq!(snap.epoch(), session.version());
        assert_eq!(snap.report(), &report);
    }

    #[test]
    fn reports_survive_backend_switches_only_while_current() {
        // Regression: a result cached by one backend must not be revived
        // after a mutation routed through another backend, and the
        // post-mutation cache must be stamped with the *post*-mutation
        // version so it stays servable.
        let mut session = ready_session();
        let first = session.detect_with(BackendKind::Sql).unwrap();
        assert_eq!(session.last_backend(), Some(BackendKind::Sql));
        assert_eq!(session.report(), Some(&first));

        let delta = Delta::insert_only(vec![Tuple::from_iter(["Albany", "999"])]);
        let after = session.apply_with(BackendKind::Semantic, &delta).unwrap();
        assert_ne!(first, after);
        assert_eq!(
            session.report(),
            Some(&after),
            "post-apply cache is current"
        );
        assert_eq!(session.last_backend(), Some(BackendKind::Semantic));
        // detect() serves the post-apply result — neither a rescan nor the
        // pre-apply SQL-backend report.
        assert_eq!(session.detect().unwrap(), after);
    }
}
