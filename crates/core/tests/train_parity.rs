//! Training-path regression pins.
//!
//! `serve_isolation` covers greedy serving only; nothing else fixes what a
//! *learning* episode does: ε-greedy picks from the DQN's own RNG, the
//! region sampling drawn from the agent RNG (which keeps running across
//! episodes), the transitions pushed into replay, and the gradient steps
//! they feed. These tests train EA (exact and sampled backends) and AA for
//! a few episodes on small seeded data and pin both the per-episode round
//! counts and a hash of the resulting checkpoint bytes, so any change to
//! the round loop that alters a draw, a transition, or an update shows up
//! here.

use isrl_core::prelude::*;
use isrl_data::synthetic::{generate, Distribution};
use isrl_geometry::GeometryBackend;

/// 64-bit FNV-1a — a stable, dependency-free digest of checkpoint bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Small minibatches so the replay fills within a few episodes and the
/// gradient steps actually run (and with them every pushed transition
/// reaches the checkpoint's weights).
const BATCH: usize = 8;
const EPISODES: usize = 8;

fn train_ea(backend: GeometryBackend) -> (Vec<usize>, u64) {
    let data = isrl_data::skyline(&generate(80, 3, Distribution::AntiCorrelated, 5));
    let mut cfg = EaConfig::paper_default().with_seed(17);
    cfg.geometry = backend;
    cfg.batch_size = BATCH;
    cfg.n_samples = 40;
    let mut agent = EaAgent::new(3, cfg);
    let report = agent.train(&data, &sample_users(3, EPISODES, 23), 0.1);
    (report.rounds_per_episode, fnv1a(&save_ea(&agent)))
}

#[test]
fn ea_exact_training_is_pinned() {
    let (rounds, hash) = train_ea(GeometryBackend::Exact);
    assert_eq!(rounds, [2, 4, 2, 4, 5, 7, 3, 4], "rounds per episode");
    assert_eq!(hash, 0xff50_11d0_4517_fc58, "checkpoint hash {hash:#x}");
}

#[test]
fn ea_sampled_training_is_pinned() {
    let (rounds, hash) = train_ea(GeometryBackend::Sampled);
    assert_eq!(rounds, [3, 3, 3, 5, 5, 5, 5, 5], "rounds per episode");
    assert_eq!(hash, 0xa3df_0252_458e_19ab, "checkpoint hash {hash:#x}");
}

#[test]
fn aa_training_is_pinned() {
    let data = isrl_data::skyline(&generate(80, 4, Distribution::AntiCorrelated, 7));
    let mut cfg = AaConfig::paper_default().with_seed(19);
    cfg.batch_size = BATCH;
    let mut agent = AaAgent::new(4, cfg);
    let report = agent.train(&data, &sample_users(4, EPISODES, 29), 0.1);
    let hash = fnv1a(&save_aa(&agent));
    assert_eq!(
        report.rounds_per_episode,
        [11, 12, 19, 13, 12, 11, 9, 8],
        "rounds per episode"
    );
    assert_eq!(hash, 0x3356_9c64_d3a9_cb7c, "checkpoint hash {hash:#x}");
}
