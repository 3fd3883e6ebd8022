//! The certified top-1 candidate mirror behind `Dataset::top1_batch`.
//!
//! A linear utility `u ≥ 0` can only have its top-1 on the upper convex
//! hull of the data — the *convex skyline*. On the anti-correlated serve
//! dataset (3 090 skyline points at d = 4) only a few hundred points can
//! ever win, so a scan over the full buffer mostly reads points that can
//! never be returned. [`Top1Mirror`] keeps a column-major copy of the
//! points that may win, with their ascending original ids, and scans it
//! instead — returning the same index and value bits as the full scan.
//!
//! **What gets dropped.** A point `p` is dropped only with an *exclusion
//! certificate*: convex weights `λ` over kept points whose combination `c`
//! has `c_k ≥ p_k + δ` in every coordinate, with `δ = 2⁻³⁰ · max_coord`.
//! The weights come from the margin LP (`lp::margin_certificate`,
//! asked for `2δ`) and are re-checked in f64 here, so the LP's objective
//! is never trusted on its own. The mirror is built only over finite,
//! nonnegative data.
//!
//! **Which utilities use it.** A utility is *eligible* when every
//! component is finite and `≥ 0` and its sum `s` keeps `s · max_coord`
//! within `[1e-250, 1e250]` (no subnormal products, no overflow). For an
//! eligible `u` a dropped point trails the best kept point by at least
//! `δ·s` in exact arithmetic, orders of magnitude above the f64 error of
//! either dot product (`≈ d · 2⁻⁵³ · s · max_coord`), so it never wins or
//! ties the full scan. The full scan's winner is therefore kept, and the
//! mirror — the same SoA kernel over the same rows in the same ascending
//! order — returns the same first index and the same value bits. Any
//! other utility takes the full scan and is counted under
//! [`FALLBACK_COUNTER`].
//!
//! **Where it is built.** Only where it can pay, by a fixed rule: at
//! `d ≤` [`GeometryBackend::AUTO_EXACT_MAX_DIM`], and kept only when it
//! holds at most half the points. Above that dimension almost every point
//! is on the hull and the certificates cost more than they save.
//! DESIGN.md §15 has the full argument.

use crate::lp::{margin_certificate, Margin, MarginColumns};
use crate::GeometryBackend;
use isrl_linalg::{row_dots_soa, top1_soa, SoaBuffer, Top1};

/// Gauge holding the number of points the last-built mirror kept.
pub const MIRROR_POINTS_GAUGE: &str = "scan.top1_mirror_points";

/// Counter of utilities that took the full scan although a mirror exists
/// (ineligible: a negative, non-finite or vanishing component sum).
pub const FALLBACK_COUNTER: &str = "scan.top1_fallback_utilities";

/// The certificate margin `δ` relative to the largest coordinate.
const MARGIN_REL: f64 = 1.0 / (1u64 << 30) as f64;

/// Range of `Σu · max_coord` for an eligible utility.
const MIN_SCALED_SUM: f64 = 1e-250;
const MAX_SCALED_SUM: f64 = 1e250;

/// A column-major copy of the points that can be top-1 for a nonnegative
/// utility, with their original ids (ascending).
#[derive(Debug, Clone)]
pub struct Top1Mirror {
    soa: SoaBuffer,
    ids: Vec<usize>,
    /// Largest coordinate of the data.
    bound: f64,
}

impl Top1Mirror {
    /// Builds the mirror over a row-major buffer (`full` is its column
    /// mirror), or `None` where the build rule says it cannot pay: `dim`
    /// above [`GeometryBackend::AUTO_EXACT_MAX_DIM`], a non-finite,
    /// negative or all-zero coordinate set, or more than half the points
    /// kept. Runs inside a `top1_mirror` span and sets
    /// [`MIRROR_POINTS_GAUGE`].
    pub fn build(points: &[f64], dim: usize, full: &SoaBuffer) -> Option<Self> {
        if dim == 0 || dim > GeometryBackend::AUTO_EXACT_MAX_DIM || points.is_empty() {
            return None;
        }
        if !points.iter().all(|x| x.is_finite() && *x >= 0.0) {
            return None;
        }
        let bound = points.iter().copied().fold(0.0, f64::max);
        if !(MIN_SCALED_SUM..=MAX_SCALED_SUM).contains(&bound) {
            return None;
        }
        let _span = isrl_obs::span("top1_mirror");
        let ids = certified_candidates(points, dim, bound, full);
        if ids.len() * 2 > points.len() / dim {
            return None;
        }
        let mut kept = Vec::with_capacity(ids.len() * dim);
        for &i in &ids {
            kept.extend_from_slice(&points[i * dim..(i + 1) * dim]);
        }
        isrl_obs::gauge_set(MIRROR_POINTS_GAUGE, ids.len() as u64);
        Some(Self {
            soa: SoaBuffer::from_flat(&kept, dim),
            ids,
            bound,
        })
    }

    /// Number of kept points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` iff no point is kept (never, for a built mirror).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The kept points' original ids, ascending.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// `true` when `u` may scan the mirror: right length, every component
    /// finite and `≥ 0`, and `Σu · max_coord` in `[1e-250, 1e250]`.
    pub fn eligible(&self, u: &[f64]) -> bool {
        if u.len() != self.soa.dim() {
            return false;
        }
        let mut sum = 0.0;
        for &x in u {
            if !(x >= 0.0 && x.is_finite()) {
                return false;
            }
            sum += x;
        }
        (MIN_SCALED_SUM..=MAX_SCALED_SUM).contains(&(sum * self.bound))
    }

    /// The kept ids when `u` is eligible: then every other point scores
    /// strictly below (in f64, `vector::dot` order) some kept point, and
    /// every score is `≥ 0`.
    pub fn candidates(&self, u: &[f64]) -> Option<&[usize]> {
        self.eligible(u).then_some(&self.ids[..])
    }

    /// Top-1 per utility, bit-identical to [`top1_soa`] over `full` (the
    /// whole buffer's column mirror): eligible utilities scan the kept
    /// points and map back to original ids, the rest scan `full`.
    ///
    /// # Panics
    /// As [`top1_soa`].
    pub fn top1_batch<U: AsRef<[f64]>>(&self, utilities: &[U], full: &SoaBuffer) -> Vec<Top1> {
        if utilities.iter().all(|u| self.eligible(u.as_ref())) {
            // Adding 0 registers the counter, so a trace shows it at 0.
            isrl_obs::add(FALLBACK_COUNTER, 0);
            return self.scan(utilities);
        }
        let (on, off): (Vec<usize>, Vec<usize>) =
            (0..utilities.len()).partition(|&k| self.eligible(utilities[k].as_ref()));
        isrl_obs::add(FALLBACK_COUNTER, off.len() as u64);
        let pick = |ks: &[usize]| {
            ks.iter()
                .map(|&k| utilities[k].as_ref())
                .collect::<Vec<_>>()
        };
        let mut out = vec![
            Top1 {
                index: 0,
                value: f64::NEG_INFINITY
            };
            utilities.len()
        ];
        for (&k, t) in off.iter().zip(top1_soa(&pick(&off), full)) {
            out[k] = t;
        }
        if !on.is_empty() {
            for (&k, t) in on.iter().zip(self.scan(&pick(&on))) {
                out[k] = t;
            }
        }
        out
    }

    fn scan<U: AsRef<[f64]>>(&self, utilities: &[U]) -> Vec<Top1> {
        let mut out = top1_soa(utilities, &self.soa);
        for t in &mut out {
            t.index = self.ids[t.index];
        }
        out
    }
}

/// The points no exclusion certificate removes, ascending: the top-1s of
/// the unit vectors, every column the margin LP pulled in, and every
/// point whose LP came up short or whose weights failed the f64 re-check.
fn certified_candidates(points: &[f64], dim: usize, bound: f64, full: &SoaBuffer) -> Vec<usize> {
    let n = points.len() / dim;
    let delta = bound * MARGIN_REL;
    let mut scores = Vec::new();
    let mut best_row = |u: &[f64]| {
        row_dots_soa(full, u, &mut scores);
        let mut best = (0, f64::NEG_INFINITY);
        for (i, &v) in scores.iter().enumerate() {
            if v > best.1 {
                best = (i, v);
            }
        }
        best.0
    };
    let mut keep = vec![false; n];
    let mut columns = MarginColumns::new(dim);
    // Seed the working set with the unit vectors' top-1s; the margin LP
    // prices in the rest of the hull as it needs it.
    for k in 0..dim {
        let mut unit = vec![0.0; dim];
        unit[k] = 1.0;
        let j = best_row(&unit);
        if !keep[j] {
            keep[j] = true;
            columns.push(j, &points[j * dim..(j + 1) * dim]);
        }
    }
    for i in 0..n {
        if keep[i] {
            continue;
        }
        let p = &points[i * dim..(i + 1) * dim];
        let before = columns.ids().len();
        let verdict =
            margin_certificate(points, bound, p, 2.0 * delta, &mut columns, &mut best_row);
        for &j in &columns.ids()[before..] {
            keep[j] = true;
        }
        let dropped = matches!(&verdict, Margin::Certified(w) if clears(points, dim, w, p, delta));
        keep[i] |= !dropped;
    }
    (0..n).filter(|&i| keep[i]).collect()
}

/// The f64 re-check of a certificate: the weights, normalized to sum 1,
/// combine rows of `points` into `c` with `c_k − p_k ≥ delta` for every `k`.
fn clears(points: &[f64], dim: usize, weights: &[(usize, f64)], p: &[f64], delta: f64) -> bool {
    if weights.is_empty() || !weights.iter().all(|&(_, l)| l.is_finite() && l > 0.0) {
        return false;
    }
    let total: f64 = weights.iter().map(|&(_, l)| l).sum();
    (0..dim).all(|k| {
        let c: f64 = weights
            .iter()
            .map(|&(i, l)| l / total * points[i * dim + k])
            .sum();
        c - p[k] >= delta
    })
}
