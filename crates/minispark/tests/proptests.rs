//! Property-based tests: every dataset operation must agree with its plain
//! `Vec`/`HashMap` reference implementation, for any data and any
//! partitioning.

use std::collections::HashMap;

use minispark::{Dataset, ExecContext};
use proptest::prelude::*;

fn ctx() -> ExecContext {
    ExecContext::with_threads(4)
}

proptest! {
    /// collect() preserves content and order through any partitioning.
    #[test]
    fn from_vec_collect_identity(
        data in prop::collection::vec(-1000i64..1000, 0..200),
        parts in 1usize..12
    ) {
        let d = Dataset::from_vec(data.clone(), parts).unwrap();
        prop_assert_eq!(d.try_collect(&ctx()).unwrap(), data);
    }

    /// map/filter/flat_map chains agree with iterator equivalents.
    #[test]
    fn narrow_ops_match_reference(
        data in prop::collection::vec(-1000i64..1000, 0..200),
        parts in 1usize..8
    ) {
        let d = Dataset::from_vec(data.clone(), parts).unwrap();
        let got = d
            .map(|x| x.wrapping_mul(3))
            .filter(|x| x % 2 == 0)
            .flat_map(|x| [x, x + 1])
            .try_collect(&ctx()).unwrap();
        let expected: Vec<i64> = data
            .iter()
            .map(|x| x.wrapping_mul(3))
            .filter(|x| x % 2 == 0)
            .flat_map(|x| [x, x + 1])
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// count agrees with len for any partitioning.
    #[test]
    fn count_and_fold_match(
        data in prop::collection::vec(-1000i64..1000, 0..200),
        parts in 1usize..8
    ) {
        let d = Dataset::from_vec(data.clone(), parts).unwrap();
        prop_assert_eq!(d.try_count(&ctx()).unwrap(), data.len());
    }

    /// reduce_by_key equals a HashMap fold.
    #[test]
    fn reduce_by_key_matches_hashmap(
        pairs in prop::collection::vec((0u8..16, -100i64..100), 0..200),
        parts in 1usize..8,
        out_parts in 1usize..8
    ) {
        let d = Dataset::from_vec(pairs.clone(), parts).unwrap();
        let got =
            d.reduce_by_key(out_parts, |a, b| a + b).unwrap().try_collect_map(&ctx()).unwrap();
        let mut expected: HashMap<u8, i64> = HashMap::new();
        for (k, v) in &pairs {
            *expected.entry(*k).or_insert(0) += v;
        }
        prop_assert_eq!(got, expected);
    }

    /// group_by_key gathers exactly the multiset of values per key.
    #[test]
    fn group_by_key_matches_reference(
        pairs in prop::collection::vec((0u8..8, -50i64..50), 0..150),
        parts in 1usize..6
    ) {
        let d = Dataset::from_vec(pairs.clone(), parts).unwrap();
        let mut got: HashMap<u8, Vec<i64>> =
            d.group_by_key(3).unwrap().try_collect_map(&ctx()).unwrap();
        for v in got.values_mut() {
            v.sort_unstable();
        }
        let mut expected: HashMap<u8, Vec<i64>> = HashMap::new();
        for (k, v) in &pairs {
            expected.entry(*k).or_default().push(*v);
        }
        for v in expected.values_mut() {
            v.sort_unstable();
        }
        prop_assert_eq!(got, expected);
    }

    /// reduce_by_key output order is a pure function of the data: fresh
    /// contexts with different thread counts produce the identical Vec.
    #[test]
    fn reduce_by_key_order_is_scheduling_independent(
        pairs in prop::collection::vec((0u8..16, -100i64..100), 0..200),
        parts in 1usize..8,
        out_parts in 1usize..8
    ) {
        let run = |threads: usize| {
            let c = ExecContext::with_threads(threads);
            Dataset::from_vec(pairs.clone(), parts)
                .unwrap()
                .reduce_by_key(out_parts, |a, b| a.wrapping_add(b))
                .unwrap()
                .try_collect(&c).unwrap()
        };
        let serial = run(1);
        prop_assert_eq!(&run(4), &serial);
        prop_assert_eq!(&run(7), &serial);
    }
}
