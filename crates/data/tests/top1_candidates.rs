//! Differential battery for the certified top-1 candidate mirror
//! (`Dataset::top1_mirror`, DESIGN.md §15): every `Dataset::top1_batch`
//! result must be **bit-exact** — index and value — with the scalar
//! reference scan over the *full* buffer, and `in_terminal_polyhedron`
//! (which loops over the mirror for eligible utilities) must return the
//! verdict of a loop over every point. Covers d = 1…7, skylined and raw
//! data, duplicate points, exact ties on a hull face, utilities on simplex
//! vertices and faces, positive rescalings, and ineligible utilities that
//! must take the full scan.

use isrl_core::ea::in_terminal_polyhedron;
use isrl_data::{skyline, Dataset};
use isrl_linalg::{top1_scalar, vector};
use proptest::prelude::*;

/// Asserts `top1_batch` equals the scalar reference over every point,
/// bit for bit, for every utility.
fn assert_bit_exact(data: &Dataset, utilities: &[Vec<f64>]) {
    let got = data.top1_batch(utilities);
    assert_eq!(got.len(), utilities.len(), "result count");
    for (k, (u, g)) in utilities.iter().zip(&got).enumerate() {
        let r = top1_scalar(u, data.as_flat(), data.dim());
        assert_eq!(g.index, r.index, "index diverged for utility {k} {u:?}");
        assert_eq!(
            g.value.to_bits(),
            r.value.to_bits(),
            "value diverged for utility {k}: {} vs {}",
            g.value,
            r.value
        );
    }
}

/// The Lemma 4 membership test over every point — the verdict the
/// mirror-backed `in_terminal_polyhedron` must reproduce.
fn terminal_reference(data: &Dataset, i: usize, u: &[f64], eps: f64) -> bool {
    let base = vector::dot(u, data.point(i));
    (0..data.len()).all(|j| j == i || base - (1.0 - eps) * vector::dot(u, data.point(j)) > 0.0)
}

/// Points in `(0, 1]` from raw draws, with `dups` rows copied to lower
/// indices (duplicates that tie exactly with a later copy).
fn dataset(dim: usize, raw: &[f64], dups: &[(usize, usize)], sky: bool) -> Dataset {
    let n = (raw.len() / dim).max(1);
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..dim).map(|k| raw[(i * dim + k) % raw.len()]).collect())
        .collect();
    for &(from, to) in dups {
        let (from, to) = (from % n, to % n);
        let (lo, hi) = (from.min(to), from.max(to));
        rows[lo] = rows[hi].clone();
    }
    let data = Dataset::from_points(rows, dim);
    if sky {
        skyline(&data)
    } else {
        data
    }
}

/// Utilities the mirror must serve: random nonnegative draws, the simplex
/// vertices, face points (zeroed components) and positive rescalings.
fn eligible_utilities(dim: usize, draws: &[Vec<f64>], zeros: &[usize]) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = (0..dim)
        .map(|k| {
            let mut e = vec![0.0; dim];
            e[k] = 1.0;
            e
        })
        .collect();
    for (t, raw) in draws.iter().enumerate() {
        let mut u: Vec<f64> = raw[..dim].to_vec();
        if dim > 1 {
            u[zeros[t % zeros.len()] % dim] = 0.0;
        }
        if u.iter().all(|&x| x == 0.0) {
            u[0] = 0.5;
        }
        for scale in [1.0, 1e-3, 3.0, 1024.0] {
            out.push(u.iter().map(|x| x * scale).collect());
        }
    }
    out
}

/// Utilities that must fall back to the full scan.
fn ineligible_utilities(dim: usize, draws: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut out = vec![vec![0.0; dim], vec![1e-300; dim]];
    for raw in draws {
        let mut u: Vec<f64> = raw[..dim].to_vec();
        u[0] = -u[0] - 0.1;
        out.push(u);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mirror_scans_match_the_scalar_reference(
        dim in 1usize..=7,
        raw in prop::collection::vec(0.001f64..1.0, 7..2100),
        dups in prop::collection::vec((0usize..300, 0usize..300), 0..6),
        sky in 0usize..2,
        draws in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 7), 1..6),
        zeros in prop::collection::vec(0usize..7, 1..4)
    ) {
        let data = dataset(dim, &raw, &dups, sky == 1);
        let eligible = eligible_utilities(dim, &draws, &zeros);
        let ineligible = ineligible_utilities(dim, &draws);
        if let Some(mirror) = data.top1_mirror() {
            prop_assert!(mirror.len() * 2 <= data.len(), "kept more than half");
            prop_assert!(mirror.ids().windows(2).all(|w| w[0] < w[1]), "ids ascending");
            for u in &eligible {
                prop_assert!(mirror.eligible(u), "{u:?} should scan the mirror");
            }
            for u in &ineligible {
                prop_assert!(!mirror.eligible(u), "{u:?} must fall back");
            }
        }
        assert_bit_exact(&data, &eligible);
        assert_bit_exact(&data, &ineligible);
        // Mixed batches split and merge back in order.
        let mixed: Vec<Vec<f64>> =
            eligible.iter().zip(ineligible.iter().cycle()).flat_map(|(a, b)| [b.clone(), a.clone()]).collect();
        assert_bit_exact(&data, &mixed);
    }

    #[test]
    fn terminal_verdicts_match_a_loop_over_every_point(
        dim in 1usize..=7,
        raw in prop::collection::vec(0.001f64..1.0, 7..1400),
        dups in prop::collection::vec((0usize..200, 0usize..200), 0..4),
        sky in 0usize..2,
        draws in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 7), 1..4),
        anchors in prop::collection::vec(0usize..200, 1..4),
        eps_draw in 0.0f64..1.0
    ) {
        let data = dataset(dim, &raw, &dups, sky == 1);
        let mut utilities = eligible_utilities(dim, &draws, &[0]);
        utilities.extend(ineligible_utilities(dim, &draws));
        for u in &utilities {
            // The anchor set: u's own top-1 (always terminal-ish), its
            // neighbours in index order, and arbitrary points — dropped
            // ones included.
            let top = top1_scalar(u, data.as_flat(), dim).index;
            let mut idx = vec![top, top.saturating_sub(1), (top + 1) % data.len()];
            idx.extend(anchors.iter().map(|a| a % data.len()));
            for &i in &idx {
                for eps in [0.0, 1e-9, 0.1, eps_draw, 1.0, -0.5, 1.5] {
                    prop_assert_eq!(
                        in_terminal_polyhedron(&data, i, u, eps),
                        terminal_reference(&data, i, u, eps),
                        "anchor {} eps {} u {:?}", i, eps, u
                    );
                }
            }
        }
    }
}

/// Square-grid points strictly inside the unit simplex's upper face.
fn interior(dim: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|t| {
            (0..dim)
                .map(|k| 0.05 + 0.3 * (((t * 7 + k * 3) % 11) as f64 / 11.0))
                .collect()
        })
        .collect()
}

#[test]
fn hull_face_midpoints_win_exact_ties_at_a_lower_index() {
    // d = 2: (0.5, 0.5) is the midpoint of the hull edge between
    // (0.25, 0.75) and (0.75, 0.25); under u = (1, 1) all three score
    // exactly 1.0, and the midpoint comes first.
    let mut rows = vec![vec![0.5, 0.5], vec![0.25, 0.75], vec![0.75, 0.25]];
    rows.extend(interior(2, 30));
    let data = Dataset::from_points(rows, 2);
    let mirror = data.top1_mirror().expect("the mirror pays here");
    assert!(
        mirror.ids().contains(&0),
        "a face midpoint can tie for top-1"
    );
    let got = data.top1_batch(&[vec![1.0, 1.0], vec![0.25, 0.25]]);
    assert_eq!(got[0].index, 0);
    assert_eq!(got[1].index, 0);
    assert_bit_exact(&data, &[vec![1.0, 1.0], vec![0.3, 0.3], vec![1.0, 0.0]]);

    // d = 3: the midpoint of an edge of the hull facet x + y + z = 1.
    let mut rows = vec![
        vec![0.5, 0.5, 0.0],
        vec![1.0, 0.0, 0.0],
        vec![0.0, 1.0, 0.0],
        vec![0.0, 0.0, 1.0],
    ];
    rows.extend(
        interior(3, 40)
            .into_iter()
            .map(|p| p.iter().map(|x| x * 0.9).collect()),
    );
    let data = Dataset::from_points(rows, 3);
    let mirror = data.top1_mirror().expect("the mirror pays here");
    assert!(mirror.ids().contains(&0));
    assert_eq!(data.top1_batch(&[vec![1.0, 1.0, 0.0]])[0].index, 0);
    assert_eq!(data.top1_batch(&[vec![1.0, 1.0, 1.0]])[0].index, 0);
}

#[test]
fn duplicates_of_a_hull_point_all_stay() {
    let mut rows = vec![vec![0.9, 0.2], vec![0.2, 0.9]];
    rows.extend(interior(2, 30));
    rows.push(vec![0.9, 0.2]);
    let data = Dataset::from_points(rows, 2);
    let mirror = data.top1_mirror().expect("the mirror pays here");
    assert!(mirror.ids().contains(&0) && mirror.ids().contains(&(data.len() - 1)));
    assert_eq!(data.top1_batch(&[vec![1.0, 0.0]])[0].index, 0);
}

#[test]
fn above_the_exact_geometry_cutoff_no_mirror_is_built() {
    let data = isrl_data::generate(2000, 8, isrl_data::Distribution::AntiCorrelated, 5);
    assert!(
        data.top1_mirror().is_none(),
        "d = 8 must not pay for a build"
    );
    assert!(data.top1_candidates(&[0.125; 8]).is_none());
    let draws: Vec<Vec<f64>> = (0..4)
        .map(|t| (0..8).map(|k| ((t * 8 + k) % 5) as f64 / 5.0).collect())
        .collect();
    assert_bit_exact(&data, &draws);
}

#[test]
fn serve_shaped_skyline_keeps_a_small_mirror() {
    // The anti-correlated skyline at d = 4, the shape `isrl serve` scans.
    let sky = skyline(&isrl_data::generate(
        20_000,
        4,
        isrl_data::Distribution::AntiCorrelated,
        1,
    ));
    let mirror = sky.top1_mirror().expect("the mirror pays at d = 4");
    assert!(
        mirror.len() * 10 <= sky.len() * 3,
        "kept {} of {}",
        mirror.len(),
        sky.len()
    );
    let utilities = isrl_core::runner::sample_users(4, 95, 3);
    assert_bit_exact(&sky, &utilities);
}

#[test]
fn negative_or_non_finite_data_builds_no_mirror() {
    let mut rows = interior(3, 30);
    rows.push(vec![-0.1, 0.5, 0.5]);
    assert!(Dataset::from_points(rows, 3).top1_mirror().is_none());
    let mut rows = interior(3, 30);
    rows.push(vec![f64::INFINITY, 0.5, 0.5]);
    assert!(Dataset::from_points(rows, 3).top1_mirror().is_none());
}
