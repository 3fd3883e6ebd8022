//! NaN-sentinel warning-counter parity: every backend must bump
//! `scan.top1_nan` exactly once per degenerate utility (all scores NaN or
//! `-inf`, at least one NaN) and never otherwise.
//!
//! Lives in its own integration-test binary (= its own process) because
//! the obs counters are process-global: enabling the sink here must not
//! race with the differential suite's kernels. Within this binary the two
//! tests diff the same global counter, so each holds [`counter_lock`] for
//! its whole body — under the parallel harness one test's bumps would
//! otherwise land in the other's before/after window.

use isrl_linalg::{
    scan::TOP1_NAN_COUNTER, top1_batch, top1_batch_simd, top1_scalar, top1_soa, top1_soa_f32,
    SoaBuffer, Top1,
};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this binary (they share `scan.top1_nan`).
fn counter_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

const BACKEND_NAMES: [&str; 5] = ["scalar", "batched", "batched-simd", "soa", "soa-f32"];

/// Runs exactly one backend (so counter deltas attribute cleanly).
fn run_backend(name: &str, utilities: &[Vec<f64>], points: &[f64], dim: usize) -> Vec<Top1> {
    match name {
        "scalar" => utilities
            .iter()
            .map(|u| top1_scalar(u, points, dim))
            .collect(),
        "batched" => top1_batch(utilities, points, dim),
        "batched-simd" => top1_batch_simd(utilities, points, dim),
        "soa" => top1_soa(utilities, &SoaBuffer::from_flat(points, dim)),
        "soa-f32" => top1_soa_f32(utilities, &SoaBuffer::from_flat(points, dim), points),
        _ => unreachable!(),
    }
}

#[test]
fn every_backend_bumps_the_warning_counter_once_per_degenerate_utility() {
    let _g = counter_lock();
    isrl_obs::set_enabled(true);
    let dim = 2;
    // Under u0 = [2, 2] every score is NaN: row 0 directly, row 1 via
    // 2·1e308 + 2·(-1e308) = inf + (-inf) — degenerate, counts once.
    // Under u1 = [0, 1] row 0 is NaN (0·NaN = NaN) but row 1 scores a
    // finite -1e308, so u1 has a winner and must not count.
    let points = vec![f64::NAN, f64::NAN, 1e308, -1e308];
    let u_degenerate = vec![2.0, 2.0];
    let u_fine = vec![0.0, 1.0];
    let utilities = vec![u_degenerate, u_fine];

    for name in BACKEND_NAMES {
        let before = isrl_obs::counter_value(TOP1_NAN_COUNTER);
        let out = run_backend(name, &utilities, &points, dim);
        let after = isrl_obs::counter_value(TOP1_NAN_COUNTER);
        assert_eq!(
            after - before,
            1,
            "{name}: exactly one degenerate utility must bump {TOP1_NAN_COUNTER}"
        );
        assert_eq!(out[0].index, 0, "{name}: sentinel index");
        assert_eq!(out[0].value, f64::NEG_INFINITY, "{name}: sentinel value");
        assert_eq!(out[1].index, 1, "{name}: finite row must win for u1");
        assert_eq!(out[1].value, -1e308, "{name}: winning value for u1");
    }
    isrl_obs::set_enabled(false);
}

#[test]
fn all_minus_inf_without_nan_returns_sentinel_without_warning() {
    let _g = counter_lock();
    isrl_obs::set_enabled(true);
    let dim = 2;
    // Scores are all exactly -inf (finite utility, -inf coordinates) but
    // contain no NaN: sentinel result, no warning.
    let points = vec![f64::NEG_INFINITY, 0.0, f64::NEG_INFINITY, 0.0];
    let utilities = vec![vec![1.0, 1.0]];
    for name in BACKEND_NAMES {
        let before = isrl_obs::counter_value(TOP1_NAN_COUNTER);
        let out = run_backend(name, &utilities, &points, dim);
        let after = isrl_obs::counter_value(TOP1_NAN_COUNTER);
        assert_eq!(after, before, "{name}: no NaN, no warning");
        assert_eq!(
            out[0],
            Top1 {
                index: 0,
                value: f64::NEG_INFINITY
            },
            "{name}: sentinel expected"
        );
    }
    isrl_obs::set_enabled(false);
}
