//! UApriori — expected support × level-wise (paper §3.1.1).

mod tests {
    use crate::brute::BruteForce;
    use crate::common::measure::{mine_level_wise, ExpectedSupport};
    use crate::registry::Algorithm;
    use ufim_core::examples::paper_table1;
    use ufim_core::prelude::*;

    #[test]
    fn example1_matches_paper() {
        let db = paper_table1();
        let r = Algorithm::UApriori.mine_expected_ratio(&db, 0.5).unwrap();
        assert_eq!(
            r.sorted_itemsets(),
            vec![Itemset::singleton(0), Itemset::singleton(2)]
        );
        let a = r.get(&Itemset::singleton(0)).unwrap();
        assert!((a.expected_support - 2.1).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_oracle_on_paper_db() {
        let db = paper_table1();
        for min_esup in [0.1, 0.25, 0.3, 0.5, 0.75, 1.0] {
            let fast = Algorithm::UApriori
                .mine_expected_ratio(&db, min_esup)
                .unwrap();
            let slow = BruteForce::new()
                .mine_expected_ratio(&db, min_esup)
                .unwrap();
            assert_eq!(
                fast.sorted_itemsets(),
                slow.sorted_itemsets(),
                "min_esup={min_esup}"
            );
        }
    }

    #[test]
    fn variance_mode_matches_reference_moments() {
        let db = paper_table1();
        let r = mine_level_wise(
            &db,
            ExpectedSupport::with_variance(1.0),
            EngineKind::Horizontal,
        );
        assert!(!r.is_empty());
        for fi in &r.itemsets {
            let (we, wv) = db.support_moments(fi.itemset.items());
            assert!((fi.expected_support - we).abs() < 1e-12);
            assert!((fi.variance.unwrap() - wv).abs() < 1e-12, "{}", fi.itemset);
        }
    }

    #[test]
    fn vertical_backend_agrees_with_horizontal_exactly() {
        let db = paper_table1();
        for min_esup in [0.1, 0.25, 0.3, 0.5, 0.75, 1.0] {
            let params = MiningParams::new(min_esup, 1.0).unwrap();
            let h = Algorithm::UApriori.mine_probabilistic(&db, params).unwrap();
            let v = Algorithm::UApriori
                .mine_probabilistic(&db, params.with_engine(EngineKind::Vertical))
                .unwrap();
            assert_eq!(h.sorted_itemsets(), v.sorted_itemsets(), "{min_esup}");
            for fi in &v.itemsets {
                let want = h.get(&fi.itemset).unwrap().expected_support;
                // Same multiplication and summation order: bitwise equal.
                assert_eq!(fi.expected_support, want, "{}", fi.itemset);
            }
        }
    }

    #[test]
    fn vertical_backend_pays_one_scan() {
        let db = paper_table1();
        let params = MiningParams::new(0.25, 1.0)
            .unwrap()
            .with_engine(EngineKind::Vertical);
        let r = Algorithm::UApriori.mine_probabilistic(&db, params).unwrap();
        // The index build, plus the scaffold's level-2 pair pass.
        assert_eq!(r.stats.scans, 2);
        assert!(r.stats.intersections > 0);
    }

    #[test]
    fn reports_scan_counters() {
        let db = paper_table1();
        let r = Algorithm::UApriori.mine_expected_ratio(&db, 0.25).unwrap();
        assert!(r.stats.scans >= 2, "one scan per evaluated level");
        assert!(r.stats.candidates_evaluated >= 6);
    }

    #[test]
    fn empty_db() {
        let db = UncertainDatabase::from_transactions(vec![]);
        assert!(Algorithm::UApriori
            .mine_expected_ratio(&db, 0.5)
            .unwrap()
            .is_empty());
    }
}
