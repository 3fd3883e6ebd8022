//! AA's restricted action space (§IV-C, "MDP: Action").
//!
//! The ideal question's hyperplane halves the utility range; lacking exact
//! geometry, AA prefers hyperplanes passing close to the inner sphere's
//! center and keeps only pairs whose hyperplane genuinely cuts `R` on both
//! sides (Lemma 8, verified by the strict-feasibility LP).
//!
//! Candidate generation over all `O(n²)` pairs is infeasible at n = 10⁵; as
//! documented in DESIGN.md §2 we enumerate pairs among the top-K tuples by
//! utility w.r.t. the sphere center — exactly the tuples whose top-1 regions
//! surround the center, so their mutual hyperplanes pass nearby — plus a
//! band of random pairs for diversity, then rank by center distance and
//! LP-validate in order until `m_h` survive.

use crate::interaction::Question;
use isrl_data::Dataset;
use isrl_geometry::{Halfspace, Region, RegionLpCache};
use rand::Rng;

/// Tuning knobs for [`candidate_pairs`].
#[derive(Debug, Clone, Copy)]
pub struct PairGenConfig {
    /// Number of top-utility tuples whose mutual pairs are enumerated.
    pub top_k: usize,
    /// Extra random pairs mixed in for diversity.
    pub random_pairs: usize,
    /// Cap on LP validations per round (cost control).
    pub max_lp_checks: usize,
    /// Rank candidates by distance to the sphere center (the paper's
    /// heuristic). `false` shuffles candidates instead — the ablation knob
    /// that isolates what the inner-sphere ranking buys.
    pub rank_by_distance: bool,
}

impl Default for PairGenConfig {
    fn default() -> Self {
        Self {
            top_k: 20,
            random_pairs: 20,
            max_lp_checks: 24,
            rank_by_distance: true,
        }
    }
}

/// Builds up to `m_h` validated questions: hyperplanes near the sphere
/// center, both sides of each still strictly feasible within the region.
/// `asked` pairs (either orientation) are skipped. May return fewer than
/// `m_h` — possibly none, which signals that no available question can
/// narrow `R` any further.
///
/// `pool` is an optional set of utility vectors sampled from the region
/// (e.g. by hit-and-run from the sphere center); when non-empty it serves
/// as a cheap O(|pool|·d) pre-filter — a hyperplane that leaves the whole
/// pool on one side almost certainly fails the LP cut test, so the LP is
/// never run for it. This keeps the per-round LP count near `2·m_h` even
/// in high dimension.
///
/// `lp_cache`, when supplied, warm-starts the per-candidate cut-test LPs
/// from one candidate to the next (and across rounds) — the problems
/// differ by a single tail row, so the carried basis usually survives with
/// a pivot or two of repair.
#[allow(clippy::too_many_arguments)] // mirrors the paper's question-generation inputs
pub fn candidate_pairs<R: Rng + ?Sized>(
    data: &Dataset,
    region: &Region,
    center: &[f64],
    m_h: usize,
    asked: &[(usize, usize)],
    pool: &[Vec<f64>],
    cfg: PairGenConfig,
    rng: &mut R,
    mut lp_cache: Option<&mut RegionLpCache>,
) -> Vec<Question> {
    let n = data.len();
    if n < 2 || m_h == 0 {
        return Vec::new();
    }
    let normalized = |a: usize, b: usize| if a < b { (a, b) } else { (b, a) };

    // Top-K tuples by utility w.r.t. the center: one linear pass over the
    // point buffer for all scores, then an O(n) selection — versus the old
    // comparator that recomputed `d`-dot products per comparison.
    let k = cfg.top_k.min(n);
    let mut utils: Vec<f64> = Vec::new();
    data.utilities_into(center, &mut utils);
    let mut order: Vec<usize> = (0..n).collect();
    let by_desc = |&a: &usize, &b: &usize| utils[b].partial_cmp(&utils[a]).expect("NaN utility");
    if 0 < k && k < n {
        order.select_nth_unstable_by(k - 1, by_desc);
    }
    order[..k].sort_unstable_by(by_desc);
    let top = &order[..k];

    // Assemble unique unasked candidate pairs.
    let mut cands: Vec<(usize, usize)> = Vec::with_capacity(k * (k - 1) / 2 + cfg.random_pairs);
    for (ai, &a) in top.iter().enumerate() {
        for &b in &top[ai + 1..] {
            let key = normalized(a, b);
            if !asked.contains(&key) {
                cands.push(key);
            }
        }
    }
    for _ in 0..cfg.random_pairs {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let key = normalized(a, b);
            if !asked.contains(&key) && !cands.contains(&key) {
                cands.push(key);
            }
        }
    }

    // Rank by distance from the center to the pair's hyperplane (or
    // shuffle, in the ablation configuration).
    let mut scored: Vec<(f64, usize, usize)> = cands
        .into_iter()
        .filter_map(|(a, b)| {
            let h = Halfspace::preferring(data.point(a), data.point(b))?;
            Some((h.distance(center), a, b))
        })
        .collect();
    if cfg.rank_by_distance {
        scored.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("NaN distance"));
    } else {
        for i in (1..scored.len()).rev() {
            scored.swap(i, rng.gen_range(0..=i));
        }
    }

    // Pool pre-filter, then LP validation (Lemma 8's non-degeneracy
    // condition) in order, under a per-round LP budget.
    let splits_pool = |h: &Halfspace| {
        if pool.is_empty() {
            return true; // no pool: fall through to the LP
        }
        let mut pos = false;
        let mut neg = false;
        for u in pool {
            let v = h.eval(u);
            if v > 0.0 {
                pos = true;
            } else if v < 0.0 {
                neg = true;
            }
            if pos && neg {
                return true;
            }
        }
        false
    };
    let mut out = Vec::with_capacity(m_h);
    let mut lp_budget = cfg.max_lp_checks;
    for (_, a, b) in scored {
        if out.len() >= m_h || lp_budget == 0 {
            break;
        }
        let Some(h) = Halfspace::preferring(data.point(a), data.point(b)) else {
            continue;
        };
        if !splits_pool(&h) {
            continue;
        }
        lp_budget -= 1;
        let cuts = match lp_cache.as_deref_mut() {
            Some(cache) => region.is_cut_by_with(&h, cache),
            None => region.is_cut_by(&h),
        };
        if cuts {
            out.push(Question { i: a, j: b });
        }
    }
    out
}

/// Distance from `center` to the hyperplane of pair `(i, j)` — exposed for
/// tests and the ablation benches.
pub fn hyperplane_distance(data: &Dataset, q: Question, center: &[f64]) -> Option<f64> {
    Halfspace::preferring(data.point(q.i), data.point(q.j)).map(|h| h.distance(center))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn anti_chain() -> Dataset {
        Dataset::from_points(
            vec![
                vec![1.0, 0.05],
                vec![0.8, 0.45],
                vec![0.6, 0.65],
                vec![0.45, 0.8],
                vec![0.05, 1.0],
            ],
            2,
        )
    }

    #[test]
    fn pairs_cut_the_region() {
        let data = anti_chain();
        let region = Region::full(2);
        let center = vec![0.5, 0.5];
        let mut rng = StdRng::seed_from_u64(1);
        let qs = candidate_pairs(
            &data,
            &region,
            &center,
            3,
            &[],
            &[],
            PairGenConfig::default(),
            &mut rng,
            None,
        );
        assert!(!qs.is_empty());
        for q in &qs {
            let h = Halfspace::preferring(data.point(q.i), data.point(q.j)).unwrap();
            assert!(region.is_cut_by(&h), "pair {q:?} fails Lemma 8");
        }
    }

    #[test]
    fn respects_m_h_and_asked() {
        let data = anti_chain();
        let region = Region::full(2);
        let center = vec![0.5, 0.5];
        let mut rng = StdRng::seed_from_u64(2);
        let qs = candidate_pairs(
            &data,
            &region,
            &center,
            2,
            &[],
            &[],
            PairGenConfig::default(),
            &mut rng,
            None,
        );
        assert!(qs.len() <= 2);
        let asked: Vec<(usize, usize)> = qs.iter().map(|q| (q.i.min(q.j), q.i.max(q.j))).collect();
        let qs2 = candidate_pairs(
            &data,
            &region,
            &center,
            5,
            &asked,
            &[],
            PairGenConfig::default(),
            &mut rng,
            None,
        );
        for q in &qs2 {
            assert!(
                !asked.contains(&(q.i.min(q.j), q.i.max(q.j))),
                "re-asked {q:?}"
            );
        }
    }

    #[test]
    fn prefers_hyperplanes_near_the_center() {
        // The selected pairs' hyperplane distances should be no larger than
        // the median over all pairs (they were chosen smallest-first).
        let data = anti_chain();
        let region = Region::full(2);
        let center = vec![0.5, 0.5];
        let mut rng = StdRng::seed_from_u64(3);
        let qs = candidate_pairs(
            &data,
            &region,
            &center,
            2,
            &[],
            &[],
            PairGenConfig::default(),
            &mut rng,
            None,
        );
        let mut all: Vec<f64> = Vec::new();
        for a in 0..data.len() {
            for b in a + 1..data.len() {
                if let Some(d) = hyperplane_distance(&data, Question { i: a, j: b }, &center) {
                    all.push(d);
                }
            }
        }
        all.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let median = all[all.len() / 2];
        for q in &qs {
            let d = hyperplane_distance(&data, *q, &center).unwrap();
            assert!(
                d <= median + 1e-9,
                "selected pair too far: {d} > median {median}"
            );
        }
    }

    #[test]
    fn narrowed_region_eventually_yields_no_pairs() {
        // Once the region is a sliver, none of the dataset hyperplanes cut
        // it and candidate generation must come back empty (AA's dead-end
        // stop).
        let data = anti_chain();
        let mut region = Region::full(2);
        region.add(Halfspace::new(vec![0.52, -0.48])); // u0 ⪆ 0.48
        region.add(Halfspace::new(vec![-0.50, 0.50])); // u0 ≤ 0.5
        let center = region.feasible_point().unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let qs = candidate_pairs(
            &data,
            &region,
            &center,
            5,
            &[],
            &[],
            PairGenConfig::default(),
            &mut rng,
            None,
        );
        for q in &qs {
            let h = Halfspace::preferring(data.point(q.i), data.point(q.j)).unwrap();
            assert!(region.is_cut_by(&h));
        }
    }

    #[test]
    fn tiny_dataset_is_handled() {
        let data = Dataset::from_points(vec![vec![0.9, 0.1]], 2);
        let region = Region::full(2);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(candidate_pairs(
            &data,
            &region,
            &[0.5, 0.5],
            3,
            &[],
            &[],
            PairGenConfig::default(),
            &mut rng,
            None
        )
        .is_empty());
    }
}
