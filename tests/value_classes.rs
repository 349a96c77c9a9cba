//! Value classes are the one alphabet of compile and detection: a compiled
//! set stores every single's cells as sets of per-attribute value classes,
//! subsumption is inclusion of those sets, and the scan matches a row by its
//! values' classes.
//!
//! * The compile results of the `cust` workloads are pinned: how many singles
//!   survive and exactly which ones are dropped as subsumed, each with its
//!   recorded subsumer. The digests are those of the lists the syntactic
//!   rule the class sets replaced produced on the same inputs.
//! * A declared finite domain does not narrow the detection alphabet. A
//!   schema checks types only, so a stored row may hold NULL or a value
//!   outside a finite domain; over the declared domain `{a, b}` the cells
//!   `{b}` and `!{a}` accept the same values, yet only `!{a}` accepts the
//!   rest. A rule that called them equivalent and kept `{b}` would lose the
//!   flags of those rows.

use ecfd::core::PatternIndex;
use ecfd::datagen::constraints::{workload_constraints, workload_with_scaled_constraint};
use ecfd::datagen::cust_schema;
use ecfd::prelude::*;
use std::collections::BTreeSet;

/// A digest of a `subsumed()` list, order included.
fn digest(subsumed: &[(PatternIndex, PatternIndex)]) -> u64 {
    (subsumed.iter())
        .flat_map(|&((a, b), (c, d))| [a, b, c, d])
        .fold(0u64, |h, x| h.wrapping_mul(1_000_003) ^ x as u64)
}

#[test]
fn the_workload_compiles_pin_singles_and_subsumed_patterns() {
    let set = ConstraintSet::compile(&cust_schema(), &workload_constraints()).unwrap();
    assert_eq!(set.singles().len(), 11);
    assert!(set.subsumed().is_empty());

    let want = [
        (10, 12, 6, 0x528d_43ed_b010_1ba2),
        (40, 13, 25, 0xd1d7_d058_70e1_1241),
        (160, 33, 92, 0x0191_0e20_e693_bc8d),
        (640, 86, 340, 0x226e_0335_4339_db17),
    ];
    for (size, singles, subsumed, hash) in want {
        let sigma = workload_with_scaled_constraint(size, 42);
        let set = ConstraintSet::compile(&cust_schema(), &sigma).unwrap();
        let got = (
            set.singles().len(),
            set.subsumed().len(),
            digest(set.subsumed()),
        );
        assert_eq!(got, (singles, subsumed, hash), "|Tp| = {size}");
        assert_eq!(set.cells().len(), set.singles().len());
    }
}

#[test]
fn a_declared_finite_domain_does_not_shrink_the_detection_alphabet() {
    let schema = Schema::builder("r")
        .finite_attr("X", DataType::Str, [Value::str("a"), Value::str("b")])
        .attr("Y", DataType::Str)
        .build();
    let sigma = parse_ecfds("r: [X] -> [] | [Y], { {b} || {1} ; !{a} || {1} }").unwrap();
    let set = ConstraintSet::compile(&schema, &sigma).unwrap();
    assert_eq!(
        set.subsumed(),
        &[((0, 0), (0, 1))],
        "{{b}} is dropped for !{{a}}"
    );

    let rows = [
        Tuple::from_iter(["c", "2"]),
        Tuple::new(vec![Value::Null, Value::str("2")]),
        Tuple::from_iter(["b", "2"]),
        Tuple::from_iter(["a", "2"]),
    ];
    let data = Relation::with_tuples(schema.clone(), rows).unwrap();
    let ids = data.row_ids();
    let want: BTreeSet<RowId> = [ids[0], ids[1], ids[2]].into_iter().collect();
    let reference = check_all(&data, &sigma).unwrap();
    assert_eq!(reference.violations().sv_rows(), &want);

    let mut session = Session::new();
    session.load(data).unwrap();
    session.register(&sigma).unwrap();
    for kind in BackendKind::ALL {
        let report = session.detect_with(kind).unwrap();
        assert_eq!(report.sv_rows, want, "{kind:?}");
        assert!(report.mv_rows.is_empty(), "{kind:?}");
    }
}
