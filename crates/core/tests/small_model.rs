//! Model-based property test of the three static analyses of Sections III
//! and IV: random constraint sets `Σ` of one to three eCFDs plus a candidate
//! `φ` over the three-attribute `ecfd_oracle::abc` schema, some cases with a
//! finite domain on one attribute, against `ecfd_oracle::brute`, which
//! enumerates every instance of at most two tuples over explicit small
//! domains (enough, by the small model property).
//!
//! `check_satisfiability` must find a model exactly when one exists,
//! `check_implication` must report `φ` implied exactly when no instance of
//! `Σ` violates it, and `max_satisfiable` must keep the largest number of
//! constraints of `Σ` one tuple satisfies, with no limit on the size of the
//! instance. Every witness must satisfy `Σ` (or its reported subset), and
//! every counterexample must satisfy `Σ` and violate `φ`. Section IV's
//! reduction is checked alongside: whenever `f(Σ)` is small enough for
//! MAXGSAT's exhaustive solver, its optimum is that same number.
//!
//! The same brute force confirms every single `ConstraintSet::compile` drops
//! as subsumed: on every instance of at most two tuples the dropped single
//! flags no row its recorded subsumer does not, and the compiled singles flag
//! exactly the rows every pattern of `Σ` flags. Detection reads stored rows,
//! and a schema checks types only, so here a finite-domain attribute also
//! takes NULL and one value outside its declared domain, and `Σ` pairs a set
//! with the complement of the rest of that domain (`abc::domain_pairs`): a
//! drop that only holds over the declared domain loses flags on such rows.

use ecfd_core::implication::{check_implication, ImplicationOutcome};
use ecfd_core::maxss::{max_satisfiable, SatisfiabilityVerdict};
use ecfd_core::satisfaction;
use ecfd_core::satisfiability::{check_satisfiability, single_tuple_satisfies};
use ecfd_core::{ConstraintSet, ECfd, ViolationKind};
use ecfd_oracle::abc::{arb_ecfd, arb_sigma_with_comparable_copy, domain_pairs, schema};
use ecfd_oracle::brute::{all_tuples, has_counterexample, instance};
use ecfd_oracle::{MaxGSatInstance, MaxSsEncoding};
use ecfd_relation::{Relation, RowId, Tuple};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_static_analyses_match_a_brute_force(
        sigma in proptest::collection::vec(arb_ecfd(), 1..=3),
        phi in arb_ecfd(),
        finite in (0usize..6, 1usize..16),
    ) {
        let schema = schema(finite);
        let tuples = all_tuples(&schema, false);
        // Per tuple, which constraints of Σ the one-tuple instance satisfies.
        let kept: Vec<Vec<bool>> = (tuples.iter())
            .map(|t| {
                let db = instance(&schema, &[t]);
                sigma.iter().map(|e| satisfaction::check(&db, e).unwrap().is_satisfied()).collect()
            })
            .collect();
        let models: Vec<&Tuple> = (tuples.iter().zip(&kept))
            .filter(|(_, kept)| kept.iter().all(|k| *k))
            .map(|(t, _)| t)
            .collect();

        let sat = check_satisfiability(&schema, &sigma).unwrap();
        prop_assert_eq!(sat.is_satisfiable(), !models.is_empty(), "Σ = {:?}", sigma);
        if let Some(witness) = sat.witness() {
            prop_assert!(single_tuple_satisfies(&schema, &sigma, witness).unwrap());
        }

        let outcome = check_implication(&schema, &sigma, &phi).unwrap();
        prop_assert_eq!(
            outcome.is_implied(),
            !has_counterexample(&schema, &models, &sigma, &phi),
            "Σ = {:?}, φ = {}, schema = {:?}",
            sigma.iter().map(ToString::to_string).collect::<Vec<_>>(),
            phi,
            schema
        );
        if let ImplicationOutcome::NotImplied(tuples) = &outcome {
            prop_assert!((1..=2).contains(&tuples.len()));
            let db = Relation::with_tuples(schema.clone(), tuples.iter().cloned()).unwrap();
            prop_assert!(satisfaction::satisfies_all(&db, &sigma).unwrap());
            prop_assert!(!satisfaction::check(&db, &phi).unwrap().is_satisfied());
        }

        let most = kept.iter().map(|k| k.iter().filter(|k| **k).count()).max().unwrap_or(0);
        let maxss = max_satisfiable(&schema, &sigma).unwrap();
        prop_assert_eq!(maxss.satisfiable_subset.len(), most, "Σ = {:?}", sigma);
        let subset: Vec<ECfd> = maxss.satisfiable_subset.iter().map(|&i| sigma[i].clone()).collect();
        prop_assert!(single_tuple_satisfies(&schema, &subset, &maxss.witness).unwrap());
        let verdict = if models.is_empty() {
            SatisfiabilityVerdict::Unsatisfiable
        } else {
            SatisfiabilityVerdict::Satisfiable
        };
        prop_assert_eq!(maxss.verdict, verdict);
        // Repeating a constraint's pattern tuples changes no satisfaction, so
        // not the optimum either: a constraint breaks once, however many of
        // its pattern tuples fail.
        for which in 0..sigma.len() {
            let (mut repeated, e) = (sigma.clone(), &sigma[which]);
            let tableau = e.tableau().iter().cycle().take(3 * e.tableau_size()).cloned();
            repeated[which] = e.with_tableau(tableau.collect()).unwrap();
            let outcome = max_satisfiable(&schema, &repeated).unwrap();
            prop_assert_eq!(outcome.satisfiable_subset.len(), most, "Σ = {:?}", repeated);
        }

        // The reduction keeps the optimum: f(Σ)'s best assignment satisfies
        // as many formulas as the best tuple satisfies constraints.
        let encoding = MaxSsEncoding::build(&schema, &sigma).unwrap();
        if encoding.instance().num_vars() <= MaxGSatInstance::EXHAUSTIVE_MAX_VARS {
            let optimum = encoding.instance().solve_exhaustive().num_satisfied();
            prop_assert_eq!(optimum, most, "Σ = {:?}", sigma);
        }
    }
}

/// Cases of the subsumption property so far, and those where a single was
/// dropped as subsumed.
static CASES: AtomicUsize = AtomicUsize::new(0);
static FIRED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_dropped_single_flags_a_subset_of_its_subsumer(
        case in arb_sigma_with_comparable_copy(),
        finite in (0usize..6, 1usize..16),
        pair in (0usize..16, 0usize..2, 0usize..8),
    ) {
        let (mut sigma, copy_is_new) = case;
        let schema = schema(finite);
        // The copy is comparable to the pattern it was made from, so unless
        // dedupe removed it, a single was dropped. Asked before the domain
        // pairs join Σ, which are dropped whenever `f` is finite.
        let set = ConstraintSet::compile(&schema, &sigma).unwrap();
        prop_assert!(!copy_is_new || !set.subsumed().is_empty(), "Σ = {:?}", sigma);
        let dropped_any = usize::from(!set.subsumed().is_empty());
        let cases = CASES.fetch_add(1, Ordering::Relaxed) + 1;
        let fired = FIRED.fetch_add(dropped_any, Ordering::Relaxed) + dropped_any;
        prop_assert!(cases < 16 || fired * 2 >= cases, "{fired} of {cases} cases dropped a single");

        sigma.extend(domain_pairs(finite, pair));
        let set = ConstraintSet::compile(&schema, &sigma).unwrap();
        let compiled_at: BTreeSet<(usize, usize)> = set.provenance().into_iter().collect();
        let tuples = all_tuples(&schema, true);
        // Two tuples that agree on no constraint's `X`, of Σ or compiled,
        // share no group: their instance raises only the `SV` flags each
        // raises alone, which the one-tuple instances check.
        let xs: Vec<Vec<usize>> = (sigma.iter().chain(set.ecfds()))
            .map(|e| e.lhs().iter().map(|a| schema.attr_id(a).unwrap().index()).collect())
            .collect();
        let agree = |t: &Tuple, u: &Tuple| {
            (xs.iter()).any(|x| x.iter().all(|&a| t.values()[a] == u.values()[a]))
        };
        for i in 0..tuples.len() {
            for j in i..tuples.len() {
                if i != j && !agree(&tuples[i], &tuples[j]) {
                    continue;
                }
                let db = if i == j {
                    instance(&schema, &[&tuples[i]])
                } else {
                    instance(&schema, &[&tuples[i], &tuples[j]])
                };
                // `check_all` checks every pattern of every constraint on its
                // own, and each violation carries the (constraint, pattern)
                // of `ecfds()` that raised it: the indices `subsumed()` and
                // `provenance()` record.
                let all = satisfaction::check_all(&db, set.ecfds()).unwrap();
                let flags = |from: &dyn Fn(&(usize, usize)) -> bool| {
                    (all.violations().violations().iter())
                        .filter(|v| from(&(v.constraint, v.pattern)))
                        .map(|v| (v.row, v.kind))
                        .collect::<BTreeSet<(RowId, ViolationKind)>>()
                };
                for (dropped, kept) in set.subsumed() {
                    prop_assert!(
                        flags(&|at| at == dropped).is_subset(&flags(&|at| at == kept)),
                        "{:?} by {:?} in {:?}",
                        dropped,
                        kept,
                        set.ecfds().iter().map(ToString::to_string).collect::<Vec<_>>()
                    );
                }
                let compiled = flags(&|at| compiled_at.contains(at));
                let given = satisfaction::check_all(&db, &sigma).unwrap();
                let given = given.violations();
                let rows = |kind: ViolationKind| -> BTreeSet<RowId> {
                    compiled.iter().filter(|f| f.1 == kind).map(|f| f.0).collect()
                };
                prop_assert_eq!(
                    (rows(ViolationKind::SingleTuple), rows(ViolationKind::MultiTuple)),
                    (given.sv_rows().clone(), given.mv_rows().clone()),
                    "Σ = {:?}",
                    sigma
                );
            }
        }
    }
}
