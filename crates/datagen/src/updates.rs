//! Generation of update batches `ΔD⁺` / `ΔD⁻` for the incremental experiments.
//!
//! The paper's second experiment set fixes `|D|` and varies the update size:
//! `ΔD⁻` is a sample of existing tuples to delete, `ΔD⁺` is a batch of freshly
//! generated tuples (with the same noise rate as the base data), and the two
//! never overlap.

use crate::cust::{clean_tuple, cust_schema};
use crate::geo::GeoCatalog;
use crate::items;
use ecfd_relation::{Delta, Relation, Tuple};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration of an update batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateConfig {
    /// Number of tuples to insert (`|ΔD⁺|`).
    pub insertions: usize,
    /// Number of existing tuples to delete (`|ΔD⁻|`).
    pub deletions: usize,
    /// Percentage (0–100) of inserted tuples modified to violate an eCFD.
    pub noise_percent: f64,
    /// RNG seed.
    pub seed: u64,
    /// Number of extra generated towns (must match the base data's config so
    /// inserted tuples draw from the same catalog).
    pub extra_cities: usize,
    /// Size of the item catalog (ditto).
    pub num_items: usize,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        UpdateConfig {
            insertions: 100,
            deletions: 100,
            noise_percent: 5.0,
            seed: 7,
            extra_cities: 40,
            num_items: 300,
        }
    }
}

/// Generates a [`Delta`] against an existing instance `db`.
///
/// Deletions are sampled (without replacement) from the current contents of
/// `db`; insertions are fresh tuples, noised at `noise_percent`. The two sets
/// are disjoint by construction (fresh tuples carry fresh phone numbers).
pub fn generate_delta(db: &Relation, config: &UpdateConfig) -> Delta {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let geo = GeoCatalog::with_extra_cities(config.extra_cities);
    let item_catalog = items::item_catalog(config.num_items.max(3));
    let schema = cust_schema();
    let ac_idx = schema.attr_id("AC").expect("AC exists");
    let ct_idx = schema.attr_id("CT").expect("CT exists");

    // Deletions: a random sample of current rows (projected onto the base
    // schema in case a BATCHDETECT run added its SV/MV flag columns).
    let base_arity = schema.arity();
    let mut all_rows: Vec<Tuple> = db
        .tuples()
        .map(|t| Tuple::new(t.values()[..base_arity.min(t.arity())].to_vec()))
        .collect();
    all_rows.shuffle(&mut rng);
    let deletions: Vec<Tuple> = all_rows.into_iter().take(config.deletions).collect();

    // Insertions: fresh tuples with the configured noise rate.
    let mut insertions = Vec::with_capacity(config.insertions);
    let noisy_target = ((config.insertions as f64) * config.noise_percent / 100.0).round() as usize;
    for i in 0..config.insertions {
        let mut tuple = clean_tuple(&geo, &item_catalog, &mut rng);
        if i < noisy_target {
            // Corrupt the area code — the simplest right-hand-side corruption.
            let city_name = tuple
                .value(ct_idx)
                .as_str()
                .expect("CT is a string")
                .to_string();
            let city = geo.city(&city_name).expect("generated city exists");
            tuple.set(ac_idx, geo.wrong_area_code(city, &mut rng).into());
        }
        insertions.push(tuple);
    }
    let _ = rng.gen::<u64>();

    Delta {
        insertions,
        deletions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cust::{generate, CustConfig};

    fn base() -> Relation {
        generate(&CustConfig {
            size: 400,
            noise_percent: 5.0,
            ..CustConfig::default()
        })
        .0
    }

    #[test]
    fn delta_has_requested_sizes_and_no_overlap() {
        let db = base();
        let delta = generate_delta(
            &db,
            &UpdateConfig {
                insertions: 50,
                deletions: 80,
                ..UpdateConfig::default()
            },
        );
        assert_eq!(delta.insertions.len(), 50);
        assert_eq!(delta.deletions.len(), 80);
        assert!(!delta.overlaps(), "ΔD⁺ and ΔD⁻ must not overlap");
        // Deletions really are existing tuples.
        for d in &delta.deletions {
            assert!(db.tuples().any(|t| t == d));
        }
    }

    #[test]
    fn deletions_are_capped_by_the_database_size() {
        let db = generate(&CustConfig {
            size: 20,
            ..CustConfig::default()
        })
        .0;
        let delta = generate_delta(
            &db,
            &UpdateConfig {
                insertions: 0,
                deletions: 100,
                ..UpdateConfig::default()
            },
        );
        assert_eq!(delta.deletions.len(), 20);
    }

    #[test]
    fn delta_applies_cleanly_to_the_base_relation() {
        let mut db = base();
        let before = db.len();
        let delta = generate_delta(
            &db,
            &UpdateConfig {
                insertions: 30,
                deletions: 30,
                ..UpdateConfig::default()
            },
        );
        let (stats, _) = delta.apply(&mut db).unwrap();
        assert_eq!(stats.inserted, 30);
        assert!(
            stats.deleted >= 30,
            "duplicates may remove a few extra rows"
        );
        assert_eq!(stats.missed_deletions, 0);
        assert_eq!(db.len(), before + 30 - stats.deleted);
    }

    #[test]
    fn delta_generation_is_deterministic() {
        let db = base();
        let config = UpdateConfig::default();
        assert_eq!(generate_delta(&db, &config), generate_delta(&db, &config));
    }

    #[test]
    fn noisy_insertions_violate_constraints() {
        let db = base();
        let delta = generate_delta(
            &db,
            &UpdateConfig {
                insertions: 100,
                deletions: 0,
                noise_percent: 20.0,
                ..UpdateConfig::default()
            },
        );
        let constraints = crate::constraints::workload_constraints();
        let fresh = Relation::with_tuples(cust_schema(), delta.insertions.clone()).unwrap();
        let result = ecfd_core::satisfaction::check_all(&fresh, &constraints).unwrap();
        assert!(result.violations().num_violating_rows() >= 10);
    }
}
