//! The stationary delta cycle: update traffic that leaves the table where it
//! started.
//!
//! A benchmark that streams fresh deltas forever measures a moving target —
//! row count and violation density drift, and every latency with them. Here
//! each workload gets four forward deltas `Δ1..Δ4` (8 insertions + 8
//! deletions each, pairwise disjoint) and their inverses. `Δ1` and `Δ3` are
//! clean; `Δ2` and `Δ4` carry exactly one insertion with a corrupted area
//! code. Both sequences below end on the base table's contents, however
//! often they run:
//!
//! * the interactive cycle `[Δ1, Δ1⁻¹, Δ2, Δ2⁻¹]`, one delta at a time;
//! * the bulk batch `[Δ1, Δ2, Δ3, Δ4, Δ4⁻¹, Δ3⁻¹, Δ2⁻¹, Δ1⁻¹]`, queued back
//!   to back.
//!
//! `generate_delta` is O(table), so all of this is generated in set-up and
//! never inside a timed span.

use ecfd_datagen::{generate_delta, GeoCatalog, UpdateConfig};
use ecfd_relation::{Delta, Relation, Tuple};

/// Insertions (and deletions) per delta.
pub const TUPLES_PER_SIDE: usize = 8;
const FORWARD_DELTAS: usize = 4;
/// Position of `Δ2` in the interactive cycle — the delta whose corrupted
/// insertion must become visible.
pub const CORRUPT_POSITION: usize = 2;

/// `Δ1..Δ4` for one base table and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaCycle {
    forward: [Delta; FORWARD_DELTAS],
}

/// The delta that undoes `delta` on a table it was applied to.
pub fn inverse(delta: &Delta) -> Delta {
    Delta {
        insertions: delta.deletions.clone(),
        deletions: delta.insertions.clone(),
    }
}

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether a corrupted tuple pairs one generated town with another generated
/// town's area code. On clean data such a tuple flags exactly two city-sized
/// groups — its own city's through `CT → AC`, the code owner's through
/// `AC → CT` — whereas an arbitrary corruption flags anything from one row
/// (an NYC tuple) to two groups. Requiring the shape keeps the work of `Δ2`
/// the same from seed to seed.
fn is_town_pair(geo: &GeoCatalog, tuple: &Tuple) -> bool {
    let schema = ecfd_datagen::cust_schema();
    let field = |name: &str| {
        tuple
            .value(schema.attr_id(name).expect("cust attribute"))
            .as_str()
    };
    let (Some(city), Some(code)) = (field("CT"), field("AC")) else {
        return false;
    };
    let is_town = |name: &str| name.starts_with("Town");
    is_town(city)
        && geo
            .cities()
            .iter()
            .any(|c| is_town(&c.name) && c.name != city && c.area_codes == [code])
}

impl DeltaCycle {
    /// Generates the cycle against `base` (at least 32 rows). One
    /// `generate_delta` call yields all 32 deletions — disjoint because it
    /// samples without replacement — and 32 insertions of which exactly the
    /// first two are corrupted; sub-seeds are tried in order until both
    /// corrupted tuples have the town-pair shape.
    pub fn generate(base: &Relation, seed: u64) -> DeltaCycle {
        let total = FORWARD_DELTAS * TUPLES_PER_SIDE;
        assert!(base.len() >= total, "the cycle deletes {total} base rows");
        let geo = GeoCatalog::standard();
        let pool = (0u64..)
            .map(|attempt| {
                generate_delta(
                    base,
                    &UpdateConfig {
                        insertions: total,
                        deletions: total,
                        noise_percent: 100.0 * 2.0 / total as f64,
                        seed: mix(seed, attempt),
                        ..UpdateConfig::default()
                    },
                )
            })
            .find(|d| d.insertions[..2].iter().all(|t| is_town_pair(&geo, t)))
            .expect("unbounded search");

        let mut corrupted = pool.insertions[..2].iter();
        let mut clean = pool.insertions[2..].iter();
        let mut deletions = pool.deletions.chunks(TUPLES_PER_SIDE);
        let forward = std::array::from_fn(|k| {
            let head = if k % 2 == 1 { corrupted.next() } else { None };
            let insertions: Vec<Tuple> = head
                .into_iter()
                .chain(clean.by_ref())
                .take(TUPLES_PER_SIDE)
                .cloned()
                .collect();
            Delta {
                insertions,
                deletions: deletions.next().expect("32 deletions").to_vec(),
            }
        });
        DeltaCycle { forward }
    }

    /// `[Δ1, Δ1⁻¹, Δ2, Δ2⁻¹]`.
    pub fn interactive(&self) -> Vec<Delta> {
        let [d1, d2, ..] = &self.forward;
        vec![d1.clone(), inverse(d1), d2.clone(), inverse(d2)]
    }

    /// `[Δ1, Δ2, Δ3, Δ4, Δ4⁻¹, Δ3⁻¹, Δ2⁻¹, Δ1⁻¹]`.
    pub fn bulk(&self) -> Vec<Delta> {
        self.forward
            .iter()
            .cloned()
            .chain(self.forward.iter().rev().map(inverse))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_datagen::{generate, workload_constraints, CustConfig};
    use ecfd_relation::RowId;
    use ecfd_session::Session;

    fn base(noise_percent: f64) -> Relation {
        generate(&CustConfig {
            size: 200,
            noise_percent,
            seed: 11,
            ..CustConfig::default()
        })
        .0
    }

    fn session(data: &Relation) -> Session {
        let mut session = Session::new();
        session.load(data.clone()).unwrap();
        session.register(&workload_constraints()).unwrap();
        session
    }

    #[test]
    fn deltas_have_the_prescribed_shape() {
        let data = base(0.0);
        let cycle = DeltaCycle::generate(&data, 5);
        let geo = GeoCatalog::standard();
        let mut deleted = Vec::new();
        for (k, delta) in cycle.forward.iter().enumerate() {
            assert_eq!(delta.insertions.len(), TUPLES_PER_SIDE);
            assert_eq!(delta.deletions.len(), TUPLES_PER_SIDE);
            let corrupted = delta
                .insertions
                .iter()
                .filter(|t| is_town_pair(&geo, t))
                .count();
            assert_eq!(corrupted, k % 2, "Δ{} corrupted insertions", k + 1);
            for victim in &delta.deletions {
                assert!(data.tuples().any(|t| t == victim));
                assert!(!deleted.contains(victim), "deletions are disjoint");
                deleted.push(victim.clone());
            }
        }
        assert!(is_town_pair(&geo, &cycle.forward[1].insertions[0]));
        assert_eq!(cycle.interactive().len(), 4);
        assert_eq!(cycle.bulk().len(), 8);
        assert_eq!(inverse(&inverse(&cycle.forward[0])), cycle.forward[0]);
    }

    #[test]
    fn cycle_and_bulk_batch_restore_rows_and_violation_counts() {
        for noise in [0.0, 5.0] {
            let data = base(noise);
            let cycle = DeltaCycle::generate(&data, 5);
            let mut session = session(&data);
            let at_rest = session.detect().unwrap();
            let counts = |r: &ecfd_detect::DetectionReport| (r.total_rows, r.num_sv(), r.num_mv());
            for _ in 0..3 {
                let mut last = at_rest.clone();
                for delta in cycle.interactive() {
                    last = session.apply(&delta).unwrap();
                }
                assert_eq!(counts(&last), counts(&at_rest), "cycle, noise {noise}");
                for delta in cycle.bulk() {
                    last = session.apply(&delta).unwrap();
                }
                assert_eq!(counts(&last), counts(&at_rest), "bulk, noise {noise}");
            }
            let mut now = session.data("cust").unwrap().to_tuples();
            let mut then = data.to_tuples();
            now.sort();
            then.sort();
            assert_eq!(now, then, "contents equal the base table");
        }
    }

    #[test]
    fn delta_two_makes_the_corrupted_row_visible() {
        let data = base(0.0);
        let cycle = DeltaCycle::generate(&data, 5);
        let mut session = session(&data);
        let at_rest = session.detect().unwrap();
        assert!(at_rest.is_clean());
        let deltas = cycle.interactive();
        session.apply(&deltas[0]).unwrap();
        session.apply(&deltas[1]).unwrap();
        // Ids are handed out in insertion order: 200 base rows, then 8 per
        // delta; the corrupted tuple is Δ2's first insertion.
        let corrupted = RowId((200 + 2 * TUPLES_PER_SIDE) as u64);
        let report = session.apply(&deltas[CORRUPT_POSITION]).unwrap();
        assert_ne!(report, at_rest);
        assert!(report.mv_rows.contains(&corrupted), "{report:?}");
        assert!(session.apply(&deltas[3]).unwrap().is_clean());
    }

    #[test]
    fn seeds_select_the_deltas() {
        let data = base(5.0);
        assert_eq!(
            DeltaCycle::generate(&data, 5),
            DeltaCycle::generate(&data, 5)
        );
        assert_ne!(
            DeltaCycle::generate(&data, 5),
            DeltaCycle::generate(&data, 6)
        );
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
    }
}
