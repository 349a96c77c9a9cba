//! The [`Session`] type: one stateful object for the whole constraint
//! lifecycle. See the crate docs for the lifecycle state machine and the
//! cache-invalidation rules.

use crate::error::{Result, SessionError};
use crate::policy::{route_delta, RoutingPolicy};
use crate::snapshot::Snapshot;
use ecfd_core::{ConstraintSet, ECfd};
use ecfd_detect::backend::{BackendKind, DetectorBackend, NativeBackend, ReadOut, SqlBackend};
use ecfd_detect::{DetectionReport, EvidenceReport, SemanticDetector};
use ecfd_relation::{Catalog, Delta, Relation, RowId, Schema, Tuple};
use ecfd_repair::{
    repair_verified_with, ConflictGraph, CostModel, RepairEngine, RepairOptions, VerifiedRepair,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where a relation sits in the session lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Data loaded, no constraints registered yet.
    Loaded,
    /// Constraints compiled and registered; no current detection result.
    Registered,
    /// A detection result (flags + evidence) is cached and current.
    Detected,
    /// The last mutation was a verified repair; the cached result is clean.
    Repaired,
}

/// A cached detection outcome: which backend produced it, the flag-level
/// report, the attributing evidence, and the session version it describes.
///
/// The stamp is what makes cache-serving safe by construction: a cached
/// result is served only while `at_version` equals the session's mutation
/// counter, so *any* operation that bumps the version — including ones that
/// do not touch this entry's cache field, like a cost-model swap or a
/// mutation routed through a different entry's backend — automatically
/// retires it instead of relying on every such code path to remember to
/// clear it.
///
/// Report and evidence are held by reference count: INCDETECT hands over
/// the pair it maintains and a snapshot takes the same pair on,
/// so neither caching nor publishing a result copies it.
#[derive(Debug, Clone)]
struct Cached {
    kind: BackendKind,
    report: Arc<DetectionReport>,
    evidence: Arc<EvidenceReport>,
    at_version: u64,
}

/// Everything the session holds for one registered relation. The native
/// backend holds the entry's one encoding of the table, and only of its
/// current contents (see [`NativeBackend`]).
struct Entry {
    /// Shared with every snapshot taken of the relation.
    set: Arc<ConstraintSet>,
    native: NativeBackend,
    /// The SQL backend, or the reason it cannot serve this set (non-string
    /// constrained attributes are outside the SQL encoding's envelope).
    sql: std::result::Result<SqlBackend, String>,
    repair: RepairEngine,
    cache: Option<Cached>,
    stage: Stage,
}

impl Entry {
    fn sql(&mut self) -> Result<&mut SqlBackend> {
        self.sql
            .as_mut()
            .map_err(|reason| SessionError::BackendUnavailable {
                kind: BackendKind::Sql,
                reason: reason.clone(),
            })
    }

    /// A full detection pass through `kind`.
    fn detect(&mut self, kind: BackendKind, catalog: &mut Catalog) -> Result<ReadOut> {
        Ok(match kind {
            BackendKind::Semantic => self.native.detect(catalog)?,
            BackendKind::Incremental => self.native.reseed(catalog)?,
            BackendKind::Sql => self.sql()?.detect(catalog)?,
        })
    }

    /// Applies `delta` through `kind`.
    fn apply(
        &mut self,
        kind: BackendKind,
        catalog: &mut Catalog,
        delta: &Delta,
    ) -> Result<ReadOut> {
        Ok(match kind {
            BackendKind::Incremental => self.native.fold(catalog, delta)?,
            BackendKind::Semantic => self.native.apply(catalog, delta)?,
            BackendKind::Sql => self.sql()?.apply(catalog, delta)?,
        })
    }

    /// Drops the cached answer and the native state.
    fn reset(&mut self) {
        self.cache = None;
        self.native.clear();
        if self.stage > Stage::Registered {
            self.stage = Stage::Registered;
        }
    }
}

/// A long-lived constraint-management session: owns the catalog, a registry
/// of compiled constraint sets, and the detector backends per set, with
/// detection/evidence state cached and invalidated on mutation.
///
/// See the crate-level docs for the lifecycle and invalidation rules; see
/// [`RoutingPolicy`] for how backends are picked when a call does not name
/// one.
pub struct Session {
    catalog: Catalog,
    policy: RoutingPolicy,
    cost: Arc<dyn CostModel + Send + Sync>,
    /// Base schema of every loaded relation, keyed by relation name: what
    /// constraints compile against, and what the stored table keeps (no
    /// backend adds a column).
    loaded: BTreeMap<String, Schema>,
    tables: BTreeMap<String, Entry>,
    /// Mutation counter: bumped by every operation that can change what a
    /// detection-state snapshot would contain (data, constraints, cost
    /// model). Snapshots are stamped with it as their epoch.
    version: u64,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// An empty session with the default [`RoutingPolicy`] and the constant
    /// cost model.
    pub fn new() -> Self {
        Session {
            catalog: Catalog::new(),
            policy: RoutingPolicy::default(),
            cost: Arc::new(ecfd_repair::ConstantCost::default()),
            loaded: BTreeMap::new(),
            tables: BTreeMap::new(),
            version: 0,
        }
    }

    /// An empty session with this one's routing policy and repair cost
    /// model.
    pub fn empty_like(&self) -> Self {
        Session {
            policy: self.policy,
            cost: self.cost.clone(),
            ..Session::new()
        }
    }

    /// Replaces the routing policy, retrofitting its [`Parallelism`] onto
    /// every already-registered backend.
    ///
    /// [`Parallelism`]: ecfd_detect::Parallelism
    pub fn with_policy(mut self, policy: RoutingPolicy) -> Self {
        self.policy = policy;
        for entry in self.tables.values_mut() {
            entry.native.set_parallelism(policy.parallelism);
            entry.repair.set_parallelism(policy.parallelism);
        }
        self
    }

    /// Replaces the repair cost model, for already-registered relations as
    /// well as future registrations.
    pub fn with_cost_model(mut self, cost: impl CostModel + Send + Sync + 'static) -> Self {
        self.cost = Arc::new(cost);
        for entry in self.tables.values_mut() {
            entry.repair.set_cost_model(self.cost.clone());
        }
        self.version += 1;
        self
    }

    // ── lifecycle: load ────────────────────────────────────────────────────

    /// Loads a relation into the session (replacing any previous relation of
    /// the same name). If constraints are already registered for the name
    /// they are kept and recompiled when the schema changed; all cached
    /// detection state for the relation is dropped.
    pub fn load(&mut self, relation: Relation) -> Result<()> {
        let name = relation.name().to_string();
        let schema = relation.schema().clone();
        // Recompile (when the schema changed) *before* touching any session
        // state, so a failing compile leaves catalog, registry and caches
        // exactly as they were.
        let rebuilt = match self.tables.get(&name) {
            Some(entry) if entry.set.schema() != &schema => {
                let source = entry.set.source().to_vec();
                Some(self.build_entry(&schema, &source)?)
            }
            _ => None,
        };
        self.catalog.create_or_replace(relation);
        self.loaded.insert(name.clone(), schema);
        self.version += 1;
        if let Some(rebuilt) = rebuilt {
            self.tables.insert(name, rebuilt);
        } else if let Some(entry) = self.tables.get_mut(&name) {
            entry.reset();
        }
        Ok(())
    }

    // ── lifecycle: register ────────────────────────────────────────────────

    /// Registers constraints, compiling them once into the session's
    /// [`ConstraintSet`] registry. Constraints are grouped by the relation
    /// they name (which must already be loaded); registering more constraints
    /// for a relation extends its set, and the union is recompiled with
    /// [`ConstraintSet::compile`] (validate → merge → dedupe → split → drop
    /// subsumed) so duplicates collapse.
    /// Invalidates cached detection state for every touched relation.
    /// Registration is atomic: if any constraint fails to compile, no
    /// relation's set changes.
    pub fn register(&mut self, constraints: &[ECfd]) -> Result<()> {
        let mut groups: BTreeMap<String, Vec<ECfd>> = BTreeMap::new();
        for constraint in constraints {
            groups
                .entry(constraint.relation().to_string())
                .or_default()
                .push(constraint.clone());
        }
        // Stage every recompiled entry first; commit only when all succeed.
        let mut staged: Vec<(String, Entry)> = Vec::with_capacity(groups.len());
        for (name, group) in groups {
            let schema = self
                .loaded
                .get(&name)
                .ok_or_else(|| SessionError::NotLoaded(name.clone()))?
                .clone();
            let mut source: Vec<ECfd> = self
                .tables
                .get(&name)
                .map(|entry| entry.set.source().to_vec())
                .unwrap_or_default();
            source.extend(group);
            let entry = self.build_entry(&schema, &source)?;
            staged.push((name, entry));
        }
        for (name, entry) in staged {
            self.tables.insert(name, entry);
        }
        self.version += 1;
        Ok(())
    }

    /// Parses the textual constraint syntax and registers the result.
    pub fn register_text(&mut self, text: &str) -> Result<()> {
        let constraints = ecfd_core::parse_ecfds(text)?;
        self.register(&constraints)
    }

    fn build_entry(&self, schema: &Schema, source: &[ECfd]) -> Result<Entry> {
        let set = Arc::new(ConstraintSet::compile(schema, source)?);
        let sql = SqlBackend::from_set(&set).map_err(|e| e.to_string());
        // The registration's one compile: every native consumer — the
        // backend, each seed, the repair engine, each snapshot — holds a
        // clone sharing its program and dictionary.
        let detector = SemanticDetector::from_set(&set).with_parallelism(self.policy.parallelism);
        let mut repair = RepairEngine::from_detector(detector.clone());
        repair.set_cost_model(self.cost.clone());
        Ok(Entry {
            native: NativeBackend::new(detector),
            repair,
            sql,
            set,
            cache: None,
            stage: Stage::Registered,
        })
    }

    // ── lifecycle: detect / explain ────────────────────────────────────────

    /// Detects violations on the session's sole registered relation, serving
    /// the cached result when one is current. The backend is
    /// [`BackendKind::Semantic`] — use [`Session::detect_with`] to force
    /// another.
    pub fn detect(&mut self) -> Result<DetectionReport> {
        self.detect_impl(None, None)
    }

    /// [`Session::detect`] against a named relation.
    pub fn detect_on(&mut self, table: &str) -> Result<DetectionReport> {
        self.detect_impl(Some(table), None)
    }

    /// Runs detection with an explicitly chosen backend, bypassing the cache
    /// (the fresh result replaces it).
    pub fn detect_with(&mut self, kind: BackendKind) -> Result<DetectionReport> {
        self.detect_impl(None, Some(kind))
    }

    /// [`Session::detect_with`] against a named relation.
    pub fn detect_on_with(&mut self, table: &str, kind: BackendKind) -> Result<DetectionReport> {
        self.detect_impl(Some(table), Some(kind))
    }

    fn detect_impl(
        &mut self,
        table: Option<&str>,
        kind: Option<BackendKind>,
    ) -> Result<DetectionReport> {
        let name = self.resolve(table)?;
        let version = self.version;
        let entry = self.tables.get_mut(&name).expect("resolved");
        if kind.is_none() {
            // Serve the cache only when it was produced at the current
            // version: a stamp mismatch means some later mutation (possibly
            // through another entry or a policy/cost change) could have
            // changed what a fresh pass would report.
            if let Some(cached) = entry.cache.as_ref().filter(|c| c.at_version == version) {
                ecfd_obs::registry()
                    .counter("session.detect.cache.hits")
                    .inc();
                return Ok(DetectionReport::clone(&cached.report));
            }
        }
        let kind = kind.unwrap_or(BackendKind::Semantic);
        ecfd_obs::registry()
            .counter_with("session.detect.passes", &[("backend", kind.as_str())])
            .inc();
        let (report, evidence) = entry.detect(kind, &mut self.catalog)?;
        let owned = DetectionReport::clone(&report);
        entry.cache = Some(Cached {
            kind,
            report,
            evidence,
            at_version: version,
        });
        entry.stage = Stage::Detected;
        Ok(owned)
    }

    /// The evidence behind the current detection result — which constraint
    /// and pattern tuple every flagged row violates, and the offending
    /// enforcement groups. Runs detection first when nothing is cached.
    pub fn explain(&mut self) -> Result<EvidenceReport> {
        self.explain_on_impl(None)
    }

    /// [`Session::explain`] against a named relation.
    pub fn explain_on(&mut self, table: &str) -> Result<EvidenceReport> {
        self.explain_on_impl(Some(table))
    }

    fn explain_on_impl(&mut self, table: Option<&str>) -> Result<EvidenceReport> {
        let name = self.resolve(table)?;
        self.detect_impl(Some(&name), None)?;
        let entry = self.tables.get(&name).expect("resolved");
        let cached = entry.cache.as_ref().expect("just detected");
        Ok(EvidenceReport::clone(&cached.evidence))
    }

    /// The conflict graph of the current violations (who conflicts with whom,
    /// and what a deletion repair is up against). Runs detection first when
    /// nothing is cached.
    pub fn conflict_graph(&mut self) -> Result<ConflictGraph> {
        let name = self.resolve(None)?;
        let evidence = self.explain_on_impl(Some(&name))?;
        let entry = self.tables.get(&name).expect("resolved");
        entry
            .repair
            .conflict_graph(self.catalog.get(&name)?, &evidence)
            .map_err(Into::into)
    }

    // ── lifecycle: apply ───────────────────────────────────────────────────

    /// Applies a batch of base-schema updates to the sole registered
    /// relation, keeping flags, caches and auxiliary state current. The
    /// backend is chosen by the delta-size threshold of the paper's Fig. 7a:
    /// incremental maintenance when `|ΔD| ≤ 0.25 · |D|`, a fresh semantic
    /// pass otherwise.
    pub fn apply(&mut self, delta: &Delta) -> Result<DetectionReport> {
        self.apply_impl(None, None, delta).map(owned)
    }

    /// [`Session::apply`] against a named relation.
    pub fn apply_on(&mut self, table: &str, delta: &Delta) -> Result<DetectionReport> {
        self.apply_impl(Some(table), None, delta).map(owned)
    }

    /// Applies updates through an explicitly chosen backend.
    pub fn apply_with(&mut self, kind: BackendKind, delta: &Delta) -> Result<DetectionReport> {
        self.apply_impl(None, Some(kind), delta).map(owned)
    }

    /// [`Session::apply_on`] with globally pre-assigned row ids for the
    /// delta's insertions: the k-th insertion receives `insert_ids[k]`
    /// instead of the relation's own sequential counter (extra insertions
    /// beyond the schedule fall back to it). A sharded serving layer uses
    /// this so a partition hands out the same ids a single-owner session
    /// would — the invariant that makes merged reports byte-identical to the
    /// unsharded oracle. The schedule is cleared afterwards whether the
    /// apply succeeded or not.
    ///
    /// Returns every row the delta's deletions removed, as `(id, stored
    /// tuple)` in removal order — the stored tuple is the victim it matched.
    /// Together with `insert_ids` zipped with the delta's insertions this is
    /// exactly how the rows changed, whichever backend the delta was routed
    /// to: the shard writer folds both into the cross-shard merge state, and
    /// recovery replay ignores them. The current report stays available
    /// through [`Session::report`].
    pub fn apply_scheduled_on(
        &mut self,
        table: &str,
        delta: &Delta,
        insert_ids: &[RowId],
    ) -> Result<Vec<(RowId, Tuple)>> {
        let name = self.resolve(Some(table))?;
        {
            // Direct catalog access on purpose: scheduling ids and recording
            // deletions change no observable contents, so no cache needs
            // invalidating.
            let relation = self.catalog.get_mut(&name)?;
            relation.clear_scheduled_row_ids();
            relation.schedule_row_ids(insert_ids.iter().copied());
            relation.record_deletions();
        }
        let result = self.apply_impl(Some(&name), None, delta);
        let removed = match self.catalog.get_mut(&name) {
            Ok(relation) => {
                relation.clear_scheduled_row_ids();
                relation.take_deleted()
            }
            Err(_) => Vec::new(),
        };
        result.map(|_| removed)
    }

    /// Applies `delta` and caches the post-apply answer, returning the
    /// cached report (callers that want their own copy clone it).
    fn apply_impl(
        &mut self,
        table: Option<&str>,
        kind: Option<BackendKind>,
        delta: &Delta,
    ) -> Result<Arc<DetectionReport>> {
        let name = self.resolve(table)?;
        let table_len = self.catalog.get(&name)?.len();
        let entry = self.tables.get_mut(&name).expect("resolved");
        // A delta that does not fit is refused here, before routing: the
        // table, the cache and the native state all stay valid.
        for ins in &delta.insertions {
            entry.set.schema().validate(ins)?;
        }
        let kind = kind.unwrap_or_else(|| route_delta(delta.len(), table_len));
        ecfd_obs::registry()
            .counter_with("session.apply.routed", &[("backend", kind.as_str())])
            .inc();
        let (report, evidence) = match entry.apply(kind, &mut self.catalog, delta) {
            Ok(out) => out,
            Err(e) => {
                // Only a failure that strikes mid-delta gets here — e.g. a
                // scheduled row id that clashes with a stored one, after the
                // deletions landed. Nothing cached may describe the table
                // any more: drop it all so the next detect rebuilds from the
                // actual contents.
                entry.reset();
                self.version += 1;
                return Err(e);
            }
        };
        // Bump *before* stamping: the fresh result describes the post-apply
        // contents, so it must carry the post-apply version to stay servable.
        self.version += 1;
        entry.cache = Some(Cached {
            kind,
            report: Arc::clone(&report),
            evidence,
            at_version: self.version,
        });
        entry.stage = Stage::Detected;
        Ok(report)
    }

    // ── lifecycle: repair ──────────────────────────────────────────────────

    /// Repairs the sole registered relation until it verifies clean, driving
    /// the repair engine from the entry's INCDETECT state: a warm state is
    /// driven in place (no seeding re-scan at all), and every round plans
    /// from the evidence that state maintains. Uses default
    /// [`RepairOptions`].
    pub fn repair(&mut self) -> Result<VerifiedRepair> {
        self.repair_impl(None, RepairOptions::default())
    }

    /// [`Session::repair`] with explicit options.
    pub fn repair_with(&mut self, options: RepairOptions) -> Result<VerifiedRepair> {
        self.repair_impl(None, options)
    }

    /// [`Session::repair_with`] against a named relation.
    pub fn repair_on(&mut self, table: &str, options: RepairOptions) -> Result<VerifiedRepair> {
        self.repair_impl(Some(table), options)
    }

    fn repair_impl(
        &mut self,
        table: Option<&str>,
        options: RepairOptions,
    ) -> Result<VerifiedRepair> {
        let name = self.resolve(table)?;
        self.detect_impl(Some(&name), None)?;
        let entry = self.tables.get_mut(&name).expect("resolved");
        entry.repair.set_options(options);
        // The loop drives the entry's INCDETECT state in place — a warm one
        // needs no seeding pass — and leaves it warm, refused or not.
        let inc = entry.native.warm(&self.catalog)?;
        let outcome = repair_verified_with(&entry.repair, &mut self.catalog, inc)?;
        // Bump *before* stamping, as in `apply_impl`: the clean report
        // describes the repaired contents.
        self.version += 1;
        entry.cache = Some(Cached {
            kind: BackendKind::Semantic,
            report: Arc::new(outcome.final_report.clone()),
            evidence: Arc::new(EvidenceReport {
                total_rows: outcome.final_report.total_rows,
                ..Default::default()
            }),
            at_version: self.version,
        });
        entry.stage = Stage::Repaired;
        Ok(outcome)
    }

    // ── state & accessors ──────────────────────────────────────────────────

    /// Lifecycle stage of a relation: `None` when the name was never loaded,
    /// [`Stage::Loaded`] when loaded but without registered constraints.
    pub fn stage_of(&self, table: &str) -> Option<Stage> {
        match self.tables.get(table) {
            Some(entry) => Some(entry.stage),
            None => self.loaded.contains_key(table).then_some(Stage::Loaded),
        }
    }

    /// Lifecycle stage of the session's sole relation (registered if any,
    /// otherwise the sole loaded one).
    pub fn stage(&self) -> Option<Stage> {
        if let Ok(name) = self.resolve(None) {
            return self.stage_of(&name);
        }
        if self.tables.is_empty() && self.loaded.len() == 1 {
            return Some(Stage::Loaded);
        }
        None
    }

    /// The backend that produced the current cached detection result, or
    /// `None` when the cache is stale (produced at an earlier session
    /// version) or absent.
    pub fn last_backend(&self) -> Option<BackendKind> {
        self.current_cache().map(|c| c.kind)
    }

    /// The cached detection report, if current — `None` when the cache is
    /// stale (produced at an earlier session version) or absent.
    pub fn report(&self) -> Option<&DetectionReport> {
        self.current_cache().map(|c| &*c.report)
    }

    /// The sole relation's cache, only if stamped at the current version.
    fn current_cache(&self) -> Option<&Cached> {
        let name = self.resolve(None).ok()?;
        self.tables
            .get(&name)?
            .cache
            .as_ref()
            .filter(|c| c.at_version == self.version)
    }

    // ── snapshots ──────────────────────────────────────────────────────────

    /// The session's mutation counter: bumped by every operation that can
    /// change what a [`Snapshot`] would contain (loading data, registering
    /// constraints, applying deltas, repairing, recompiling, invalidating).
    /// Serving layers use it as the epoch stamp — equal versions mean a
    /// published snapshot is still current.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Extracts an immutable, epoch-stamped [`Snapshot`] of the sole
    /// registered relation: the frozen base-attribute columns and symbol
    /// table, the compiled constraint set with a lineage-matched detector,
    /// and the current report/evidence (running detection first when nothing
    /// is cached). The snapshot is self-contained — cloning it is cheap,
    /// every query on it is read-only, and later session mutations never
    /// affect it.
    ///
    /// Nothing is encoded or copied unless the table changed since its last
    /// encoding: the frozen view *shares* the chunks of the entry's one
    /// encoding — the warm INCDETECT state's maintained view (the state a
    /// served session is in after its first delta), else the columns the
    /// last full pass read — and the set, report and evidence travel by
    /// reference count, so a snapshot costs the same at every table size.
    pub fn snapshot(&mut self) -> Result<Snapshot> {
        let name = self.resolve(None)?;
        self.snapshot_of(&name)
    }

    /// [`Session::snapshot`] against a named relation.
    pub fn snapshot_of(&mut self, table: &str) -> Result<Snapshot> {
        let name = self.resolve(Some(table))?;
        // Make sure a report/evidence pair describing the current contents is
        // cached (served from the cache when already current).
        self.detect_impl(Some(&name), None)?;
        let entry = self.tables.get_mut(&name).expect("resolved");
        let frozen = entry.native.freeze(self.catalog.get(&name)?)?;
        let cached = entry.cache.as_ref().expect("just detected");
        Ok(Snapshot {
            epoch: self.version,
            set: entry.set.clone(),
            // The detector whose dictionary issued the frozen codes.
            detector: entry.native.detector().clone(),
            cost: self.cost.clone(),
            frozen,
            report: cached.report.clone(),
            evidence: cached.evidence.clone(),
        })
    }

    /// The compiled constraint set registered for a relation.
    pub fn constraints(&self, table: &str) -> Result<&ConstraintSet> {
        self.tables
            .get(table)
            .map(|entry| &*entry.set)
            .ok_or_else(|| self.missing(table))
    }

    /// The current contents of a relation, with its loaded schema and live
    /// row ids.
    pub fn data(&self, table: &str) -> Result<&Relation> {
        if !self.loaded.contains_key(table) {
            return Err(SessionError::NotLoaded(table.to_string()));
        }
        Ok(self.catalog.get(table)?)
    }

    /// Read access to the owned catalog: exactly the loaded relations, with
    /// their loaded schemas. Flags live in the reports, and the SQL backend
    /// runs on a scratch copy, so no backend adds a column or a table here.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Write access to the owned catalog. Mutating data behind the session's
    /// back would desynchronise every cache, so this drops all cached
    /// detection state first — prefer [`Session::apply`] for updates.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        self.invalidate();
        &mut self.catalog
    }

    /// Drops all cached detection state and auxiliary backend state, for
    /// every relation. The next `detect` / `apply` rebuilds from the current
    /// table contents.
    pub fn invalidate(&mut self) {
        self.version += 1;
        for entry in self.tables.values_mut() {
            entry.reset();
        }
    }

    /// Names of every loaded relation.
    pub fn loaded_tables(&self) -> Vec<&str> {
        self.loaded.keys().map(String::as_str).collect()
    }

    /// Names of every relation with registered constraints.
    pub fn registered_tables(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    // ── internals ──────────────────────────────────────────────────────────

    fn resolve(&self, table: Option<&str>) -> Result<String> {
        match table {
            Some(name) => {
                if self.tables.contains_key(name) {
                    Ok(name.to_string())
                } else {
                    Err(self.missing(name))
                }
            }
            None => {
                let mut names = self.tables.keys();
                match (names.next(), names.next()) {
                    (Some(name), None) => Ok(name.clone()),
                    (Some(_), Some(_)) => Err(SessionError::AmbiguousRelation(
                        self.registered_tables()
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                    )),
                    (None, _) => Err(match self.loaded.keys().next() {
                        Some(name) => SessionError::NoConstraints(name.clone()),
                        None => SessionError::NotLoaded("<none>".to_string()),
                    }),
                }
            }
        }
    }

    fn missing(&self, table: &str) -> SessionError {
        if self.loaded.contains_key(table) {
            SessionError::NoConstraints(table.to_string())
        } else {
            SessionError::NotLoaded(table.to_string())
        }
    }
}

/// The one copy an `apply` makes: the caller's own report.
fn owned(report: Arc<DetectionReport>) -> DetectionReport {
    DetectionReport::clone(&report)
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("loaded", &self.loaded.keys().collect::<Vec<_>>())
            .field("registered", &self.tables.keys().collect::<Vec<_>>())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_detect::Parallelism;
    use ecfd_relation::{DataType, Value};

    /// A session over a two-column `cust (CT, AC)` table holding `rows`, with
    /// `rule` registered.
    fn two_column_session(rows: &[[&str; 2]], rule: &str) -> Session {
        let schema = Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build();
        let tuples = rows.iter().map(|row| Tuple::from_iter(*row));
        let data = Relation::with_tuples(schema, tuples).unwrap();
        let mut session = Session::new();
        session.load(data).unwrap();
        session.register_text(rule).unwrap();
        session
    }

    const ALBANY_518: &str = "cust: [CT] -> [AC] | [], { {Albany} || {518} }";

    /// A delta whose insertion does not fit the loaded schema is refused
    /// before routing, so nothing it could have touched moves: the version,
    /// the cached answer and its backend stay, and the incremental state
    /// stays warm — the next delta pays no seeding pass.
    #[test]
    fn a_refused_delta_keeps_the_warm_state() {
        let rows = [["Albany", "718"], ["Albany", "518"], ["NYC", "212"]];
        let mut session = two_column_session(&rows, ALBANY_518);
        session.detect().unwrap();
        let warmup = Delta::insert_only(vec![Tuple::from_iter(["Troy", "518"])]);
        session
            .apply_with(BackendKind::Incremental, &warmup)
            .unwrap();
        let is_warm = |session: &Session| session.tables["cust"].native.is_warm();
        assert!(is_warm(&session));
        let version = session.version();
        let report = session.report().cloned();
        let backend = session.last_backend();

        let refused = Delta {
            deletions: vec![Tuple::from_iter(["NYC", "212"])],
            insertions: vec![
                Tuple::from_iter(["Utica", "315"]),
                Tuple::new(vec![Value::str("Utica"), Value::Int(315)]),
            ],
        };
        assert!(session.apply(&refused).is_err());
        assert_eq!(session.version(), version);
        assert_eq!(session.report().cloned(), report);
        assert_eq!(session.last_backend(), backend);
        assert!(is_warm(&session));
        assert_eq!(session.data("cust").unwrap().len(), 4, "no row moved");

        let good = Delta {
            deletions: vec![Tuple::from_iter(["NYC", "212"])],
            insertions: vec![Tuple::from_iter(["Albany", "315"])],
        };
        let after = session.apply_with(BackendKind::Incremental, &good).unwrap();
        assert_eq!(after, session.detect_with(BackendKind::Semantic).unwrap());
    }

    /// `with_policy` retrofits its fan-out onto the entry's detector, and a
    /// snapshot of a warm entry ships that detector, not the one the warm
    /// state was seeded with.
    #[test]
    fn a_new_policy_reaches_the_snapshots_of_a_warm_entry() {
        let rows = [["Albany", "718"], ["Albany", "518"], ["NYC", "212"]];
        let mut session = two_column_session(&rows, ALBANY_518);
        let warmup = Delta::insert_only(vec![Tuple::from_iter(["Troy", "518"])]);
        session
            .apply_with(BackendKind::Incremental, &warmup)
            .unwrap();
        assert!(session.tables["cust"].native.is_warm());
        let fixed = Parallelism::Fixed(1);
        let mut session = session.with_policy(RoutingPolicy::default().with_parallelism(fixed));
        assert!(session.tables["cust"].native.is_warm());
        let snapshot = session.snapshot().unwrap();
        assert_eq!(snapshot.detector.parallelism(), fixed);
        assert_eq!(&snapshot.detect_fresh().unwrap(), snapshot.report());
    }

    /// A snapshot's repair plan is priced by the session's cost model, like
    /// `Session::repair`, not by the constant default.
    #[test]
    fn a_snapshot_plans_repairs_with_the_session_cost_model() {
        /// Changing a value to 519 is cheaper than to anything else.
        #[derive(Clone, Copy)]
        struct Prefer519;
        impl CostModel for Prefer519 {
            fn deletion_cost(&self, _tuple: &Tuple) -> f64 {
                10.0
            }
            fn change_cost(&self, _attr: &str, _old: &Value, new: &Value) -> f64 {
                if *new == Value::str("519") {
                    0.5
                } else {
                    1.0
                }
            }
        }
        let rows = [["Albany", "718"], ["NYC", "212"]];
        let rule = "cust: [CT] -> [AC] | [], { {Albany} || {518, 519} }";
        let session = two_column_session(&rows, rule);
        let mut session = session.with_cost_model(Prefer519);
        let plan = session
            .snapshot()
            .unwrap()
            .repair_plan(RepairOptions::default())
            .unwrap();

        let data = session.data("cust").unwrap().clone();
        let evidence = session.explain().unwrap();
        let set = session.constraints("cust").unwrap();
        let want = RepairEngine::from_set(set)
            .with_cost_model(Prefer519)
            .plan(&data, &evidence)
            .unwrap();
        assert_eq!(plan, want);
        // Under the constant model the tie goes to 518, the set's first value.
        assert_eq!(plan.modifications.len(), 1);
        assert_eq!(plan.modifications[0].new, Value::str("519"));
    }
}
