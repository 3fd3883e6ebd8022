//! An owned per-user interaction state machine with externally supplied
//! dataset scans.
//!
//! [`EaSession`](crate::ea::EaSession)/[`AaSession`](crate::aa::AaSession)
//! borrow their agent mutably and scan the dataset inline — one user at a
//! time. A [`ServeSession`] instead *owns* its round machine, RNG and DQN
//! scratch and shares the policy and dataset behind `Arc`s; the machine's
//! take/provide scan pair is exposed so the
//! [`SessionRegistry`](super::SessionRegistry) can batch scans across
//! users. All of them drive the same round machine, so given the same
//! seed a `ServeSession` asks byte-identical question sequences to the
//! borrowing sessions (pinned by `tests/serve_isolation.rs`).

use std::sync::Arc;

use crate::interaction::{Question, Stopwatch};
use crate::round::Round;
use crate::serving::ServePolicy;
use isrl_data::Dataset;
use isrl_linalg::Top1;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::AlgoKind;

/// Errors from the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The dataset has no points to recommend.
    EmptyDataset,
    /// The policy was trained for a different dimensionality.
    DimensionMismatch {
        /// The policy's dimensionality.
        policy: usize,
        /// The dataset's dimensionality.
        data: usize,
    },
    /// `eps` must be a finite positive number.
    BadEpsilon(f64),
    /// `answer` arrived while no question was pending.
    NoPendingQuestion,
    /// No policy of the requested algorithm is registered.
    UnsupportedAlgorithm(AlgoKind),
    /// The session id is not (or no longer) live.
    UnknownSession(u64),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::EmptyDataset => write!(f, "cannot serve an empty dataset"),
            ServeError::DimensionMismatch { policy, data } => {
                write!(f, "policy is {policy}-d but the dataset is {data}-d")
            }
            ServeError::BadEpsilon(e) => write!(f, "eps must be finite and positive, got {e}"),
            ServeError::NoPendingQuestion => write!(f, "no question is pending"),
            ServeError::UnsupportedAlgorithm(kind) => {
                write!(f, "no {} policy is registered", kind.as_str())
            }
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One live user interaction, decoupled from the dataset scan.
///
/// Lifecycle per round: the driver takes the pending utility vectors
/// ([`take_scan_utilities`](Self::take_scan_utilities)), computes their
/// dataset top-1s (typically batched with other sessions' scans), and
/// hands the results back ([`provide_scan`](Self::provide_scan)); EA on
/// the exact backend needs two such exchanges per round. The session then
/// either finishes or exposes [`current_question`](Self::current_question),
/// and [`answer`](Self::answer) starts the next round.
/// [`step_blocking`](Self::step_blocking) runs the exchanges inline for
/// unbatched callers (the stdin interview, differential tests).
pub struct ServeSession {
    policy: Arc<ServePolicy>,
    data: Arc<Dataset>,
    rng: StdRng,
    scratch: Vec<f64>,
    round: Round,
    sw: Stopwatch,
}

impl ServeSession {
    /// Opens a session. `seed` drives all per-session randomness (region
    /// sampling, action-space subsampling); the policy itself is never
    /// mutated. The session starts in the scan-pending state.
    pub fn new(
        policy: Arc<ServePolicy>,
        data: Arc<Dataset>,
        eps: f64,
        seed: u64,
    ) -> Result<Self, ServeError> {
        if data.is_empty() {
            return Err(ServeError::EmptyDataset);
        }
        if policy.dim() != data.dim() {
            return Err(ServeError::DimensionMismatch {
                policy: policy.dim(),
                data: data.dim(),
            });
        }
        if !(eps.is_finite() && eps > 0.0) {
            return Err(ServeError::BadEpsilon(eps));
        }
        let sw = Stopwatch::start();
        let mut rng = StdRng::seed_from_u64(seed);
        let round = match &*policy {
            ServePolicy::Ea(a) => Round::ea(a.config(), a.dim(), eps, &mut rng),
            ServePolicy::Aa(a) => Round::aa(a.config(), a.dim(), eps),
        };
        Ok(Self {
            policy,
            data,
            rng,
            scratch: Vec::new(),
            round,
            sw,
        })
    }

    /// The algorithm this session runs.
    pub fn algo(&self) -> AlgoKind {
        self.policy.algo()
    }

    /// Takes the pending scan's utility vectors (to be answered with
    /// [`provide_scan`](Self::provide_scan)), or `None` when no scan is
    /// pending.
    pub fn take_scan_utilities(&mut self) -> Option<Vec<Vec<f64>>> {
        self.round.take_scan_utilities()
    }

    /// Delivers the top-1 results for the taken utility vectors (`top1[k]`
    /// answers `utilities[k]`) and advances the round.
    ///
    /// # Panics
    /// Panics if no scan was taken or the lengths disagree — driver bugs,
    /// not user input.
    pub fn provide_scan(&mut self, utilities: &[Vec<f64>], top1: &[Top1]) {
        self.round
            .provide_scan(&self.data, utilities, top1, &mut self.rng);
        self.pick();
    }

    /// Greedy question selection against the shared Q-network.
    fn pick(&mut self) {
        if let Some(options) = self.round.choice() {
            let (idx, _) = self.policy.dqn().best_action_ref(
                &mut self.scratch,
                &options.state,
                &options.feats,
            );
            self.round.choose(idx);
        }
    }

    /// Delivers the user's choice (`true` = first point preferred) and
    /// starts the next round. Unlike the borrowing sessions this returns an
    /// error instead of panicking — in a server, a double answer is user
    /// input, not a bug.
    pub fn answer(&mut self, prefers_first: bool) -> Result<(), ServeError> {
        self.round
            .answer(&self.data, prefers_first)
            .map(drop)
            .ok_or(ServeError::NoPendingQuestion)
    }

    /// Runs any pending scans inline against the shared dataset — the
    /// unbatched path for single-session callers.
    pub fn step_blocking(&mut self) {
        self.round.scan_inline(&self.data, &mut self.rng);
        self.pick();
    }

    /// The pending question, or `None` while scanning or finished.
    pub fn current_question(&self) -> Option<Question> {
        self.round.question()
    }

    /// The two points of the pending question, for display.
    pub fn current_points(&self) -> Option<(&[f64], &[f64])> {
        self.current_question()
            .map(|q| (self.data.point(q.i), self.data.point(q.j)))
    }

    /// `true` once no further question will be asked.
    pub fn is_finished(&self) -> bool {
        self.round.end().is_some()
    }

    /// Questions answered so far.
    pub fn rounds(&self) -> usize {
        self.round.rounds
    }

    /// `true` when the session ended without certifying termination.
    pub fn truncated(&self) -> bool {
        self.round.truncated()
    }

    /// The current (or final) recommendation. `None` only before the very
    /// first scan completes.
    pub fn recommendation(&self) -> Option<usize> {
        self.round.recommendation
    }

    /// Elapsed wall-clock time since the session opened.
    pub fn elapsed(&self) -> std::time::Duration {
        self.sw.elapsed()
    }
}
