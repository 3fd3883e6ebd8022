#![warn(missing_docs)]
//! # Interactive Search with Reinforcement Learning
//!
//! A complete Rust implementation of *"Interactive Search with Reinforcement
//! Learning"* (ICDE 2025): the interactive regret query optimized for the
//! **whole** interaction process rather than round-by-round.
//!
//! The query: given a database of tuples normalized to `(0, 1]^d` and a
//! regret threshold ε, interact with a user through pairwise "which do you
//! prefer?" questions until a tuple whose regret ratio is below ε can be
//! returned — in as few questions as possible.
//!
//! ## The two contributions
//!
//! * [`ea::EaAgent`] — the **exact** algorithm: maintains the utility range
//!   as an explicit polytope, restricts actions to terminal-polyhedron
//!   anchor pairs, and returns a certified below-ε tuple (Lemmas 4–7,
//!   Theorem 1).
//! * [`aa::AaAgent`] — the **approximate** algorithm: half-space bookkeeping
//!   plus LP-computed inner-sphere/outer-rectangle summaries; scales to
//!   d = 25 with a `d²ε` worst-case (≤ ε empirical) regret bound (Lemmas
//!   8–10).
//!
//! Both train a DQN (experience replay, target network — `isrl-rl`) so that
//! question selection maximizes the discounted terminal reward, i.e.
//! minimizes the expected number of rounds.
//!
//! ## Everything around them
//!
//! * [`baselines`] — UH-Random, UH-Simplex (SIGMOD'19), SinglePass
//!   (KDD'23), UtilityApprox (SIGMOD'12), rebuilt from their papers;
//! * [`user`] — simulated (and noisy — the paper's future work) oracles;
//! * [`interaction`] — the round/trace/outcome framework;
//! * [`driver`] — the episode, training and step-wise session drivers EA
//!   and AA share over one round state machine;
//! * [`metrics`] / [`regret`] — the paper's §V measurements, including the
//!   per-round maximum regret ratio of Figures 7–8;
//! * [`runner`] — multi-user evaluation sweeps;
//! * [`serving`] — the multi-session serving core: shared-checkpoint
//!   sessions, cross-user scan batching, the line-JSON wire protocol, a
//!   blocking TCP server, and a protocol-level load generator.
//!
//! ## Quickstart
//!
//! ```
//! use isrl_core::prelude::*;
//!
//! // A tiny 2-d dataset (every point optimal for some preference).
//! let data = isrl_data::Dataset::from_points(
//!     vec![vec![1.0, 0.1], vec![0.7, 0.7], vec![0.1, 1.0]],
//!     2,
//! );
//! // Train the exact agent on a handful of simulated users.
//! let mut agent = EaAgent::new(2, EaConfig::paper_default());
//! let train_users = sample_users(2, 5, 42);
//! agent.train(&data, &train_users, 0.1);
//! // Interact with a fresh user.
//! let mut user = SimulatedUser::new(vec![0.6, 0.4]);
//! let outcome = agent.run(&data, &mut user, 0.1, TraceMode::Off);
//! let regret = regret_ratio_of_index(&data, outcome.point_index, user.ground_truth());
//! assert!(regret < 0.1);
//! ```

pub mod aa;
pub mod baselines;
pub mod checkpoint;
pub mod diagnostics;
pub mod driver;
pub mod ea;
pub mod interaction;
pub mod metrics;
pub mod regret;
mod round;
pub mod runner;
pub mod serving;
pub(crate) mod telemetry;
pub mod user;
pub mod watchdog;

/// One-stop imports for applications and benches.
pub mod prelude {
    pub use crate::aa::{AaAgent, AaConfig, AaSession};
    pub use crate::baselines::{
        SinglePass, SinglePassConfig, UhBaseline, UhConfig, UhStrategy, UtilityApprox,
        UtilityApproxConfig,
    };
    pub use crate::checkpoint::{load_aa, load_ea, save_aa, save_ea, CheckpointError};
    pub use crate::diagnostics::{analyze, DiagnosticReport, DiagnosticsConfig, VolumeMode};
    pub use crate::ea::{EaAgent, EaConfig, EaSession};
    pub use crate::interaction::{
        InteractionOutcome, InteractiveAlgorithm, Question, RoundTrace, TraceMode,
    };
    pub use crate::metrics::{max_regret_estimate, RunStats};
    pub use crate::regret::{regret_ratio, regret_ratio_of_index};
    pub use crate::runner::{evaluate, sample_users, Evaluation};
    pub use crate::serving::{
        run_loadgen, spawn_server, AlgoKind, LoadgenConfig, LoadgenReport, ServeError, ServePolicy,
        ServeSession, ServerConfig, ServerHandle, ServerStats, SessionRegistry,
    };
    pub use crate::user::{NoisyUser, SimulatedUser, User};
    pub use crate::watchdog::{Anomaly, AnomalyKind, TrainingWatchdog, WatchdogConfig};
}
