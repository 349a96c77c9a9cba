//! [`PlanBackend`]: a compiled plan behind the ordinary [`DetectorBackend`]
//! trait — the native backend, running the plan's scans instead of the
//! default program.

use crate::mir::Plan;
use crate::Result;
use ecfd_core::ConstraintSet;
use ecfd_detect::{BackendKind, DetectorBackend, NativeBackend, Parallelism, ReadOut};
use ecfd_relation::{Catalog, Delta};

/// A [`NativeBackend`] that executes a compiled [`Plan`]'s scans: the same
/// detector and kernel, with the program chosen by the plan (fused or
/// unfused) rather than defaulted.
///
/// For the fused plan this computes exactly what `NativeBackend::from_set`
/// does; the unfused plan is the contrast arm that keeps the shared-scan win
/// measurable. Passes are recorded by the detector, under
/// `detect.pass.ns{backend="semantic"}`, once.
#[derive(Debug, Clone)]
pub struct PlanBackend {
    plan: Plan,
    backend: NativeBackend,
}

impl PlanBackend {
    /// Builds the backend on the optimized (shared-scan) plan.
    pub fn from_set(set: &ConstraintSet) -> Result<Self> {
        Ok(Self::from_plan(Plan::compile(set)?))
    }

    /// Builds the backend on the *unfused* baseline plan (one scan per
    /// constraint) — the contrast arm of the shared-scan benchmark.
    pub fn from_set_unfused(set: &ConstraintSet) -> Result<Self> {
        Ok(Self::from_plan(Plan::compile_unfused(set)?))
    }

    fn from_plan(plan: Plan) -> Self {
        let backend = NativeBackend::from_set(plan.set()).with_program(plan.program().clone());
        PlanBackend { plan, backend }
    }

    /// The compiled plan this backend executes (render with
    /// [`Plan::render`] for `EXPLAIN PLAN`).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Sets the worker fan-out of subsequent executions.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.backend.set_parallelism(parallelism);
    }
}

impl DetectorBackend for PlanBackend {
    fn kind(&self) -> BackendKind {
        self.backend.kind()
    }

    fn table(&self) -> &str {
        self.backend.table()
    }

    fn detect(&mut self, catalog: &mut Catalog) -> Result<ReadOut> {
        self.backend.detect(catalog)
    }

    fn apply(&mut self, catalog: &mut Catalog, delta: &Delta) -> Result<ReadOut> {
        self.backend.apply(catalog, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::{DataType, Relation, Schema, Tuple};

    fn schema() -> Schema {
        Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build()
    }

    fn set() -> ConstraintSet {
        ConstraintSet::parse(
            &schema(),
            "cust: [CT] -> [AC] | [], { {Albany} || {518} ; {Troy} || {518} }\n\
             cust: [AC] -> [] | [CT], { {212} || {NYC} }",
        )
        .unwrap()
    }

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog
            .create(
                Relation::with_tuples(
                    schema(),
                    [
                        Tuple::from_iter(["Albany", "718"]), // SV of c0.p0
                        Tuple::from_iter(["Troy", "518"]),
                        Tuple::from_iter(["NYC", "212"]),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        catalog
    }

    #[test]
    fn every_driver_agrees_with_the_semantic_backend() {
        let set = set();
        let mut reference = ecfd_detect::NativeBackend::from_set(&set);
        let mut reference_catalog = catalog();
        let (want_report, want_evidence) = reference.detect(&mut reference_catalog).unwrap();

        let backends: Vec<PlanBackend> = vec![
            PlanBackend::from_set(&set).unwrap(),
            PlanBackend::from_set_unfused(&set).unwrap(),
        ];
        for mut backend in backends {
            assert_eq!(backend.kind(), BackendKind::Semantic);
            assert_eq!(backend.table(), "cust");
            let mut cat = catalog();
            let (report, evidence) = backend.detect(&mut cat).unwrap();
            let fused = backend.plan().is_fused();
            assert_eq!(report, want_report, "fused={fused}");
            assert_eq!(evidence, want_evidence, "fused={fused}");
            // Flags live in the report only: both catalogs are as loaded.
            assert_eq!(cat.get("cust").unwrap(), catalog().get("cust").unwrap());
            assert_eq!(reference_catalog.get("cust"), cat.get("cust"));
        }
    }

    #[test]
    fn apply_routes_base_deltas_and_redetects() {
        let set = set();
        let mut backend = PlanBackend::from_set(&set).unwrap();
        let mut cat = catalog();
        backend.detect(&mut cat).unwrap();
        let delta = Delta {
            insertions: vec![Tuple::from_iter(["Albany", "999"])],
            deletions: vec![Tuple::from_iter(["NYC", "212"])],
        };
        let (report, _) = backend.apply(&mut cat, &delta).unwrap();
        // Two Albany rows now disagree on AC: a multi-tuple violation, on
        // top of the original single-tuple one.
        assert_eq!(report.num_mv(), 2);
        assert_eq!(cat.get("cust").unwrap().len(), 3);

        let mut reference = ecfd_detect::NativeBackend::from_set(&set);
        let mut reference_catalog = catalog();
        reference.detect(&mut reference_catalog).unwrap();
        let (want, _) = reference.apply(&mut reference_catalog, &delta).unwrap();
        assert_eq!(report, want);
    }

    #[test]
    fn parallelism_does_not_change_the_answer() {
        let set = set();
        let mut one = PlanBackend::from_set(&set).unwrap();
        one.set_parallelism(Parallelism::Fixed(1));
        let mut four = PlanBackend::from_set(&set).unwrap();
        four.set_parallelism(Parallelism::Fixed(4));
        let mut cat1 = catalog();
        let mut cat4 = catalog();
        assert_eq!(
            one.detect(&mut cat1).unwrap(),
            four.detect(&mut cat4).unwrap()
        );
    }
}
