//! The repair engine: turns detection evidence into a [`Repair`] plan.
//!
//! Planning runs in two stages. First, single-tuple violations are — when the
//! mode allows — fixed by *value modification*: the offending right-hand-side
//! cells are rewritten to the cheapest admissible value from the pattern's
//! consequent set (`Y` / `Yp` cells with positive sets; complement-set cells
//! admit no canonical witness and fall back to deletion). Second, the
//! remaining violations — unrepairable SV rows plus the multi-tuple FD
//! conflicts — are resolved by *tuple deletion* over the
//! [`ConflictGraph`]. An exact cardinality repair is out of reach in general
//! (Livshits & Kimelfeld), so the instance size decides: a graph of at most
//! 12 nodes gets the exact cardinality repair, with the cost
//! model breaking cardinality ties, and a larger one the greedy weighted
//! vertex cover.

use crate::conflict::ConflictGraph;
use crate::cost::{ConstantCost, CostModel};
use crate::plan::{DeletionRepair, Repair, ValueRepair};
use crate::{RepairError, Result};
use ecfd_core::matching::BoundECfd;
use ecfd_core::{ECfd, PatternValue};
use ecfd_detect::evidence::{ConstraintRef, EvidenceReport};
use ecfd_detect::{Parallelism, SemanticDetector};
use ecfd_relation::{AttrId, Relation, RowId, Schema, Tuple};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// What kinds of repair operations the planner may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairMode {
    /// Cardinality repair by tuple deletion only.
    DeleteOnly,
    /// Fix single-tuple violations by value modification where possible, then
    /// delete what remains.
    #[default]
    ModifyThenDelete,
}

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RepairOptions {
    /// Allowed repair operations.
    pub mode: RepairMode,
}

/// The repair engine for one constraint set, on the schema its detector was
/// compiled against.
#[derive(Debug)]
pub struct RepairEngine {
    detector: SemanticDetector,
    cost: Arc<dyn CostModel + Send + Sync>,
    options: RepairOptions,
}

impl RepairEngine {
    /// Creates an engine with the default cost model ([`ConstantCost`]) and
    /// default [`RepairOptions`].
    pub fn new(schema: &Schema, ecfds: &[ECfd]) -> Result<Self> {
        Ok(Self::from_detector(SemanticDetector::new(schema, ecfds)?))
    }

    /// Creates an engine from an already-compiled
    /// [`ecfd_core::ConstraintSet`], reusing its validation and split instead
    /// of re-compiling the constraints. Evidence consumed by this engine must
    /// index the set's *compiled* constraints (which is exactly what the
    /// detector backends built from the same set produce).
    pub fn from_set(set: &ecfd_core::ConstraintSet) -> Self {
        Self::from_detector(SemanticDetector::from_set(set))
    }

    /// Creates an engine driving an already-compiled detector, which binds
    /// the constraints the evidence indexes.
    pub fn from_detector(detector: SemanticDetector) -> Self {
        RepairEngine {
            detector,
            cost: Arc::new(ConstantCost::default()),
            options: RepairOptions::default(),
        }
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost: impl CostModel + Send + Sync + 'static) -> Self {
        self.set_cost_model(Arc::new(cost));
        self
    }

    /// Replaces the cost model in place with an already-shared one (the
    /// session layer holds the model once and shares it across its engines).
    pub fn set_cost_model(&mut self, cost: Arc<dyn CostModel + Send + Sync>) {
        self.cost = cost;
    }

    /// Replaces the planner options.
    pub fn with_options(mut self, options: RepairOptions) -> Self {
        self.options = options;
        self
    }

    /// Updates the planner options in place.
    pub fn set_options(&mut self, options: RepairOptions) {
        self.options = options;
    }

    /// Sets the worker fan-out of the engine's detection passes.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.detector.set_parallelism(parallelism);
    }

    /// The planner options.
    pub fn options(&self) -> &RepairOptions {
        &self.options
    }

    /// The engine's semantic detector, which carries the schema and the
    /// constraints it repairs against — the verified repair loop seeds by it.
    pub fn detector(&self) -> &SemanticDetector {
        &self.detector
    }

    /// Explains the violations of `relation`: runs the semantic detector and
    /// returns the per-constraint evidence.
    pub fn explain(&self, relation: &Relation) -> Result<EvidenceReport> {
        let (_, evidence) = self.detector.detect_with_evidence(relation)?;
        Ok(evidence)
    }

    /// Builds the conflict graph for `evidence` (all SV rows as must-delete —
    /// the deletion-only view).
    pub fn conflict_graph(
        &self,
        relation: &Relation,
        evidence: &EvidenceReport,
    ) -> Result<ConflictGraph> {
        let must_delete: BTreeSet<RowId> = evidence.sv.iter().map(|e| e.row).collect();
        ConflictGraph::build(
            &self.detector,
            relation,
            evidence,
            &must_delete,
            &HashMap::new(),
            &*self.cost,
        )
    }

    /// Plans a repair for `evidence` using the configured mode.
    pub fn plan(&self, relation: &Relation, evidence: &EvidenceReport) -> Result<Repair> {
        self.plan_with_mode(relation, evidence, self.options.mode)
    }

    /// Plans a repair with an explicit mode (overriding the configured one).
    pub fn plan_with_mode(
        &self,
        relation: &Relation,
        evidence: &EvidenceReport,
        mode: RepairMode,
    ) -> Result<Repair> {
        let sv_rows: BTreeSet<RowId> = evidence.sv.iter().map(|e| e.row).collect();
        let mut modifications: Vec<ValueRepair> = Vec::new();
        let mut patched: HashMap<RowId, Tuple> = HashMap::new();
        let mut must_delete: BTreeSet<RowId> = BTreeSet::new();

        match mode {
            RepairMode::DeleteOnly => must_delete = sv_rows,
            RepairMode::ModifyThenDelete => {
                let bounds = self.detector.bind(relation.schema())?;
                for &row in &sv_rows {
                    let tuple = relation.get(row).ok_or(RepairError::UnknownRow(row))?;
                    match value_fix(&bounds, self.detector.provenance(), tuple, &*self.cost) {
                        Some((fixed, changes)) => {
                            for (attr_id, source) in changes {
                                let attr = relation
                                    .schema()
                                    .attribute(attr_id)
                                    .expect("change targets a bound attribute")
                                    .name
                                    .clone();
                                let old = tuple.value(attr_id).clone();
                                let new = fixed.value(attr_id).clone();
                                let cost = self.cost.change_cost(&attr, &old, &new);
                                modifications.push(ValueRepair {
                                    row,
                                    attr,
                                    old,
                                    new,
                                    cost,
                                    source,
                                });
                            }
                            patched.insert(row, fixed);
                        }
                        None => {
                            must_delete.insert(row);
                        }
                    }
                }
            }
        }

        let graph = ConflictGraph::build(
            &self.detector,
            relation,
            evidence,
            &must_delete,
            &patched,
            &*self.cost,
        )?;
        // The exact cover, when the graph is small enough for it, minimises
        // cardinality and knows nothing of weights; the greedy cover is
        // weight-aware but may over-delete. Keep the exact cover's cardinality
        // win, and on ties let the cost model arbitrate.
        let greedy = graph.greedy_deletions();
        let weight_of =
            |cover: &[usize]| -> f64 { cover.iter().map(|&i| graph.nodes()[i].weight).sum() };
        let deleted = match graph.exact_deletions() {
            Some(exact)
                if exact.len() < greedy.len()
                    || (exact.len() == greedy.len() && weight_of(&exact) <= weight_of(&greedy)) =>
            {
                exact
            }
            _ => greedy,
        };
        let deletions: Vec<DeletionRepair> = deleted
            .iter()
            .map(|&i| {
                let node = &graph.nodes()[i];
                DeletionRepair {
                    row: node.row,
                    tuple: node.tuple.clone(),
                    cost: node.weight,
                }
            })
            .collect();
        // A value-modified row that the cover deletes anyway is just deleted.
        let deleted_rows: BTreeSet<RowId> = deletions.iter().map(|d| d.row).collect();
        modifications.retain(|m| !deleted_rows.contains(&m.row));
        Ok(Repair {
            deletions,
            modifications,
        })
    }
}

/// Tries to fix every single-tuple violation of `tuple` by rewriting failing
/// right-hand-side cells to the cheapest value of their positive pattern set.
/// Returns the fixed tuple plus which attributes changed (and for which
/// constraint), or `None` when no admissible modification exists — a failing
/// complement-set or otherwise unfixable cell, or a fix cycle between
/// constraints.
fn value_fix(
    bounds: &[BoundECfd<'_>],
    provenance: &[(usize, usize)],
    tuple: &Tuple,
    cost: &dyn CostModel,
) -> Option<(Tuple, BTreeMap<AttrId, ConstraintRef>)> {
    let mut work = tuple.clone();
    let mut changed: BTreeMap<AttrId, ConstraintRef> = BTreeMap::new();
    // Fixing one constraint can surface another; each pass handles the first
    // still-failing constraint, and `bounds.len() + 1` passes suffice to
    // detect a cycle.
    for _ in 0..=bounds.len() {
        let failing = bounds
            .iter()
            .position(|b| b.lhs_matches(&work, 0) && !b.rhs_matches(&work, 0));
        let Some(ci) = failing else {
            break;
        };
        let bound = &bounds[ci];
        let ecfd = bound.ecfd();
        let tp = &ecfd.tableau()[0];
        let source = ConstraintRef::new(provenance[ci].0, provenance[ci].1);
        for ((&attr_id, cell), attr_name) in
            bound.rhs_ids().iter().zip(&tp.rhs).zip(ecfd.rhs_attrs())
        {
            let current = work.value(attr_id).clone();
            if cell.matches(&current) {
                continue;
            }
            // Only a positive set names admissible replacement values; a
            // failing wildcard is impossible and a failing complement set has
            // no canonical witness.
            let PatternValue::In(set) = cell else {
                return None;
            };
            let new = set
                .iter()
                .min_by(|a, b| {
                    cost.change_cost(attr_name, &current, a)
                        .partial_cmp(&cost.change_cost(attr_name, &current, b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.cmp(b))
                })?
                .clone();
            work.set(attr_id, new);
            changed.insert(attr_id, source);
        }
    }
    // The fixes must have converged — and must not themselves violate any
    // constraint the tuple now matches.
    if bounds
        .iter()
        .any(|b| b.lhs_matches(&work, 0) && !b.rhs_matches(&work, 0))
    {
        return None;
    }
    // Report only attributes whose final value actually differs.
    changed.retain(|attr_id, _| work.value(*attr_id) != tuple.value(*attr_id));
    Some((work, changed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EditDistanceCost;
    use ecfd_core::ECfdBuilder;
    use ecfd_relation::{DataType, Value};

    fn schema() -> Schema {
        Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build()
    }

    fn phi_albany() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.in_set("CT", ["Albany"]).in_set("AC", ["518", "519"]))
            .build()
            .unwrap()
    }

    fn phi_not_999() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| p.constant("CT", "NYC").not_in("AC", ["999"]))
            .build()
            .unwrap()
    }

    #[test]
    fn sv_rows_with_positive_sets_are_value_repaired() {
        let data = Relation::with_tuples(
            schema(),
            [
                Tuple::from_iter(["Albany", "718"]),
                Tuple::from_iter(["NYC", "212"]),
            ],
        )
        .unwrap();
        let engine = RepairEngine::new(&schema(), &[phi_albany()])
            .unwrap()
            .with_cost_model(EditDistanceCost::default());
        let evidence = engine.explain(&data).unwrap();
        assert_eq!(evidence.num_sv_records(), 1);
        let plan = engine.plan(&data, &evidence).unwrap();
        assert!(plan.deletions.is_empty());
        assert_eq!(plan.num_modifications(), 1);
        let m = &plan.modifications[0];
        assert_eq!(m.attr, "AC");
        // 718 → 519 costs 2 edits; 718 → 518 costs 1: the model picks 518.
        assert_eq!(m.new, Value::str("518"));
        assert_eq!(m.source, ConstraintRef::new(0, 0));

        let mut repaired = data.clone();
        plan.to_delta(&data).unwrap().apply(&mut repaired).unwrap();
        assert!(engine.explain(&repaired).unwrap().is_clean());
    }

    #[test]
    fn complement_set_violations_fall_back_to_deletion() {
        let data = Relation::with_tuples(
            schema(),
            [
                Tuple::from_iter(["NYC", "999"]),
                Tuple::from_iter(["NYC", "212"]),
            ],
        )
        .unwrap();
        let engine = RepairEngine::new(&schema(), &[phi_not_999()]).unwrap();
        let evidence = engine.explain(&data).unwrap();
        let plan = engine.plan(&data, &evidence).unwrap();
        assert!(plan.modifications.is_empty(), "no admissible replacement");
        assert_eq!(plan.num_deletions(), 1);
        assert_eq!(plan.deletions[0].tuple, Tuple::from_iter(["NYC", "999"]));
    }

    #[test]
    fn delete_only_mode_never_modifies() {
        let data = Relation::with_tuples(schema(), [Tuple::from_iter(["Albany", "718"])]).unwrap();
        let engine = RepairEngine::new(&schema(), &[phi_albany()])
            .unwrap()
            .with_options(RepairOptions {
                mode: RepairMode::DeleteOnly,
            });
        let evidence = engine.explain(&data).unwrap();
        let plan = engine.plan(&data, &evidence).unwrap();
        assert!(plan.modifications.is_empty());
        assert_eq!(plan.num_deletions(), 1);
    }

    #[test]
    fn value_modification_can_dissolve_fd_conflicts() {
        // The SV fix rewrites 718 → 518/519; picking 518 merges the row into
        // the surviving Y class, so no deletion is needed at all.
        let data = Relation::with_tuples(
            schema(),
            [
                Tuple::from_iter(["Albany", "518"]),
                Tuple::from_iter(["Albany", "718"]),
            ],
        )
        .unwrap();
        let engine = RepairEngine::new(&schema(), &[phi_albany()]).unwrap();
        let evidence = engine.explain(&data).unwrap();
        assert_eq!(evidence.num_groups(), 1, "the FD part conflicts too");
        let plan = engine.plan(&data, &evidence).unwrap();
        assert_eq!(plan.num_modifications(), 1);
        // The patched Y classes may still conflict (518 vs the fixed row's
        // choice) — but 518 is the cheapest candidate under the constant
        // model's tie-break (set order), so the group dissolves.
        assert!(plan.deletions.is_empty());

        let mut repaired = data.clone();
        plan.to_delta(&data).unwrap().apply(&mut repaired).unwrap();
        assert!(engine.explain(&repaired).unwrap().is_clean());
    }

    #[test]
    fn auto_solver_respects_weights_on_cardinality_ties() {
        // Two conflicting rows, either cover is minimum-cardinality; the
        // cost model must decide which one goes even on the exact path.
        struct Biased;
        impl crate::CostModel for Biased {
            fn deletion_cost(&self, tuple: &Tuple) -> f64 {
                if tuple.values()[1] == Value::str("718") {
                    10.0
                } else {
                    1.0
                }
            }
            fn change_cost(&self, _a: &str, _o: &Value, _n: &Value) -> f64 {
                1.0
            }
        }
        let data = Relation::with_tuples(
            schema(),
            [
                Tuple::from_iter(["Albany", "518"]),
                Tuple::from_iter(["Albany", "718"]),
            ],
        )
        .unwrap();
        let fd = ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p)
            .build()
            .unwrap();
        let engine = RepairEngine::new(&schema(), &[fd])
            .unwrap()
            .with_cost_model(Biased)
            .with_options(RepairOptions {
                mode: RepairMode::DeleteOnly,
            });
        let evidence = engine.explain(&data).unwrap();
        let plan = engine.plan(&data, &evidence).unwrap();
        assert_eq!(plan.num_deletions(), 1);
        assert_eq!(
            plan.deletions[0].tuple,
            Tuple::from_iter(["Albany", "518"]),
            "the expensive 718 row must survive"
        );
    }
}
