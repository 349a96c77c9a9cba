//! Model-based property test of [`ChunkedVec`]: random `push` /
//! `swap_remove` / `clone` sequences against a plain `Vec`, started at
//! lengths around the chunk size so that chunk creation, chunk removal and
//! writes into every chunk position are all exercised.
//!
//! Two properties: the chunked vector equals the model after every step, and
//! every clone taken along the way still equals the model *as of its clone*
//! when the sequence ends — copy-on-write isolation, the property every
//! published epoch of the serving layer rests on.

use ecfd_relation::columnar::CHUNK;
use ecfd_relation::ChunkedVec;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    /// Remove at this fraction (per mille) of the current length.
    SwapRemove(usize),
    Clone,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u32>().prop_map(Op::Push),
        any::<u32>().prop_map(Op::Push),
        (0usize..1000).prop_map(Op::SwapRemove),
        // The tail is where pushes and pops meet chunk boundaries.
        Just(Op::SwapRemove(999)),
        Just(Op::Clone),
    ]
}

fn assert_same(actual: &ChunkedVec<u32>, model: &[u32]) {
    assert_eq!(actual.len(), model.len());
    assert_eq!(actual.is_empty(), model.is_empty());
    assert!(actual.iter().eq(model.iter()));
    for probe in [0, model.len() / 2, model.len().saturating_sub(1)] {
        assert_eq!(actual.get(probe), model.get(probe));
    }
    assert_eq!(actual.get(model.len()), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn chunked_vec_matches_the_vec_model_and_clones_stay_frozen(
        start in prop_oneof![
            Just(0usize),
            Just(CHUNK - 1),
            Just(CHUNK),
            Just(CHUNK + 1),
            Just(3 * CHUNK),
        ],
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        let mut model: Vec<u32> = (0..start as u32).collect();
        let mut actual = ChunkedVec::new();
        for value in &model {
            actual.push(*value);
        }
        assert_same(&actual, &model);
        let mut frozen: Vec<(ChunkedVec<u32>, Vec<u32>)> = Vec::new();
        for op in ops {
            match op {
                Op::Push(value) => {
                    actual.push(value);
                    model.push(value);
                }
                Op::SwapRemove(per_mille) if !model.is_empty() => {
                    let index = per_mille * model.len() / 1000;
                    prop_assert_eq!(actual.swap_remove(index), model.swap_remove(index));
                }
                Op::SwapRemove(_) => {}
                Op::Clone => frozen.push((actual.clone(), model.clone())),
            }
            assert_same(&actual, &model);
        }
        for (clone, as_of_clone) in &frozen {
            assert_same(clone, as_of_clone);
        }
    }
}
