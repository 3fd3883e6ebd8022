//! Property tests for the streaming quantile sketch: the DDSketch-style
//! relative-error guarantee must hold against exact sorted quantiles on
//! adversarial shapes (constant, bimodal, heavy-tailed), and merging must
//! be order-insensitive — associative and commutative — because the
//! snapshotter and `trace-diff` both assume sketches combine freely.
//!
//! The reference uses the same rank convention as the sketch
//! (nearest-rank: the `ceil(q * n)`-th smallest sample), so the only divergence
//! the bound has to absorb is bucket-midpoint rounding: at most `alpha`
//! relative error per value, plus float slop.

use isrl_obs::QuantileSketch;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The default sketch's relative-error budget, with a little float slack.
const ALPHA_BOUND: f64 = 0.0105;

/// Quantile grid every case is checked on (extremes included: p0 must hit
/// min, p100 must hit max thanks to clamping).
const QS: &[f64] = &[0.0, 0.25, 0.5, 0.9, 0.99, 1.0];

/// Exact `q`-quantile under the sketch's own rank convention.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Asserts the sketch agrees with the exact quantiles of `values` on the
/// whole grid, within relative error [`ALPHA_BOUND`].
fn assert_within_bound(values: &[f64]) -> Result<(), TestCaseError> {
    let mut sk = QuantileSketch::default_config();
    for &v in values {
        sk.record(v);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    for &q in QS {
        let exact = exact_quantile(&sorted, q);
        let est = sk.quantile(q);
        prop_assert!(
            (est - exact).abs() <= ALPHA_BOUND * exact + 1e-12,
            "q={q}: estimate {est} vs exact {exact} (n={})",
            values.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Constant distribution: every quantile IS the value; the estimate
    // may only deviate by the bucket-midpoint rounding.
    #[test]
    fn constant_distribution_stays_within_alpha(
        value in 0.01f64..1e4,
        n in 1usize..=300,
    ) {
        let values = vec![value; n];
        assert_within_bound(&values)?;
    }

    // Bimodal: two far-apart modes, the worst case for any sketch that
    // interpolates between adjacent samples (ours must not).
    #[test]
    fn bimodal_distribution_stays_within_alpha(
        lo in 0.01f64..1.0,
        hi in 100.0f64..1e4,
        n_lo in 1usize..=120,
        n_hi in 1usize..=120,
    ) {
        let mut values = vec![lo; n_lo];
        values.extend(std::iter::repeat(hi).take(n_hi));
        assert_within_bound(&values)?;
    }

    // Heavy-tailed: exponents spanning eight decades, the regime round
    // latencies actually live in (most rounds fast, a few pathological).
    #[test]
    fn heavy_tailed_distribution_stays_within_alpha(
        exponents in proptest::collection::vec(-2.0f64..6.0, 1..200),
    ) {
        let values: Vec<f64> = exponents.iter().map(|e| 10f64.powf(*e)).collect();
        assert_within_bound(&values)?;
    }

    // Merge must commute and associate exactly (bucket-count addition),
    // and the merged sketch must answer like one sketch fed everything.
    #[test]
    fn merge_is_associative_commutative_and_within_alpha(
        a in proptest::collection::vec(0.01f64..1e4, 0..80),
        b in proptest::collection::vec(0.01f64..1e4, 0..80),
        c in proptest::collection::vec(0.01f64..1e4, 1..80),
    ) {
        let sketch_of = |vals: &[f64]| {
            let mut s = QuantileSketch::default_config();
            for &v in vals {
                s.record(v);
            }
            s
        };
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));

        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut right = sb.clone();
        right.merge(&sc);
        let mut right_assoc = sa.clone();
        right_assoc.merge(&right);
        // c ⊕ b ⊕ a (commuted)
        let mut commuted = sc.clone();
        commuted.merge(&sb);
        commuted.merge(&sa);
        // One sketch over the pooled stream.
        let pooled: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        let direct = sketch_of(&pooled);

        for &q in QS {
            let l = left.quantile(q);
            prop_assert_eq!(l, right_assoc.quantile(q), "associativity at q={}", q);
            prop_assert_eq!(l, commuted.quantile(q), "commutativity at q={}", q);
            prop_assert_eq!(l, direct.quantile(q), "merge vs single stream at q={}", q);
        }
        prop_assert_eq!(left.count(), pooled.len() as u64);

        // And the merged answer still honors the error bound vs exact.
        let mut sorted = pooled;
        sorted.sort_by(f64::total_cmp);
        for &q in QS {
            let exact = exact_quantile(&sorted, q);
            let est = left.quantile(q);
            prop_assert!(
                (est - exact).abs() <= ALPHA_BOUND * exact + 1e-12,
                "merged q={}: estimate {} vs exact {}", q, est, exact
            );
        }
    }
}
