//! The drivers EA and AA share over the one round machine (DESIGN.md §14):
//! the episode loop behind `InteractiveAlgorithm::run` and `train`, and the
//! step-wise [`Session`] behind [`EaSession`](crate::ea::EaSession) and
//! [`AaSession`](crate::aa::AaSession). Both scan inline and draw region
//! randomness from the agent's RNG, so training keeps one stream running
//! across episodes and `reseed` pins it.

use crate::ea::TrainReport;
use crate::interaction::{
    InteractionOutcome, InteractiveAlgorithm, Question, RoundTrace, Stopwatch, TraceMode,
};
use crate::round::{End, Round};
use crate::telemetry::{emit_episode_event, emit_round_event, EpisodeProfile};
use crate::user::User;
use crate::watchdog::TrainingWatchdog;
use isrl_data::Dataset;
use isrl_geometry::Region;
use isrl_linalg::vector;
use isrl_rl::{NextState, Transition};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

pub(crate) use sealed::Learner;

/// An agent the shared drivers run: [`EaAgent`](crate::ea::EaAgent) or
/// [`AaAgent`](crate::aa::AaAgent). Sealed.
pub trait Agent: sealed::Sealed {}

impl<A: sealed::Sealed> Agent for A {}

impl<A: Agent> InteractiveAlgorithm for A {
    fn name(&self) -> &'static str {
        A::LABEL
    }

    fn run(
        &mut self,
        data: &Dataset,
        user: &mut dyn User,
        eps: f64,
        trace: TraceMode,
    ) -> InteractionOutcome {
        let mut answer = |p_i: &[f64], p_j: &[f64]| user.prefers(p_i, p_j);
        episode(self, data, &mut answer, eps, None, trace)
    }

    fn reseed(&mut self, seed: u64) {
        self.learner().rng = StdRng::seed_from_u64(seed);
    }
}

pub(crate) mod sealed {
    use crate::round::Round;
    use isrl_rl::{Dqn, EpsilonSchedule};
    use rand::rngs::StdRng;

    /// What the drivers need from an agent.
    pub trait Sealed {
        /// The telemetry spelling (`"EA"`/`"AA"`).
        const LABEL: &'static str;
        /// Opens a round machine, drawing from the agent RNG.
        fn open_round(&mut self, eps: f64) -> Round;
        /// The learning state.
        fn learner(&mut self) -> &mut Learner;
    }

    /// An agent's learning state: the Q-network, the RNG every round draws
    /// from, the training counters, and the training knobs of its config.
    #[derive(Debug)]
    pub struct Learner {
        pub(crate) dqn: Dqn,
        pub(crate) rng: StdRng,
        pub(crate) episodes_trained: u64,
        /// Mean TD loss over the most recent learning episode (`None` until
        /// the replay can fill a minibatch); feeds the `episode` events.
        pub(crate) last_episode_loss: Option<f64>,
        pub(crate) reward_c: f64,
        pub(crate) train_steps_per_round: usize,
        pub(crate) epsilon: EpsilonSchedule,
    }
}

/// Opens `agent`'s round machine over `data` and runs its opening scan.
fn open<A: Agent>(agent: &mut A, data: &Dataset, eps: f64) -> Round {
    let mut round = agent.open_round(eps);
    assert_eq!(data.dim(), round.geom.dim(), "dataset dimension mismatch");
    assert!(!data.is_empty(), "cannot interact over an empty dataset");
    round.scan_inline(data, &mut agent.learner().rng);
    assert!(
        round.recommendation.is_some(),
        "the full simplex is never empty"
    );
    round
}

/// Closes the phase window of the round just answered and emits its
/// `round` event; returns the phases, the support size and volume proxy.
fn close_round(
    label: &'static str,
    round: &mut Round,
    q: Question,
    sw: &Stopwatch,
    started: Duration,
    support_before: Option<usize>,
) -> (Vec<(&'static str, Duration)>, Option<usize>, Option<f64>) {
    let phases = isrl_obs::round_end();
    let support = round.geom.support_size();
    let volume = round.geom.volume_proxy();
    let round_ms = (sw.elapsed() - started).as_secs_f64() * 1e3;
    let (n, elapsed) = (round.rounds, sw.elapsed());
    emit_round_event(
        label,
        n,
        Some(q),
        elapsed,
        round_ms,
        support_before,
        support,
        volume,
        &phases,
    );
    (phases, support, volume)
}

/// Runs one interaction episode against the preference oracle `answer`.
/// `explore` is `Some(ε)` for a learning episode (ε-greedy picks, replay
/// writes, gradient steps) and `None` for greedy inference.
pub(crate) fn episode<A: Agent>(
    agent: &mut A,
    data: &Dataset,
    answer: &mut dyn FnMut(&[f64], &[f64]) -> bool,
    eps: f64,
    explore: Option<f64>,
    trace_mode: TraceMode,
) -> InteractionOutcome {
    let sw = Stopwatch::start();
    let mut profile = EpisodeProfile::begin(A::LABEL);
    let mut round = open(agent, data, eps);
    let learner = agent.learner();
    learner.last_episode_loss = None;
    let (mut loss_sum, mut loss_n) = (0.0, 0u64);
    let mut trace: Vec<RoundTrace> = Vec::new();

    while let Some(options) = round.choice() {
        // Phase timings are collected whenever the trace or the `round`
        // event stream consumes them.
        let record = trace_mode.should_trace(round.rounds + 1) || isrl_obs::enabled();
        if record {
            isrl_obs::round_begin();
        }
        let started = sw.elapsed();
        let idx = {
            let _nn = isrl_obs::span("nn");
            match explore {
                Some(e) => learner.dqn.select_action(&options.state, &options.feats, e),
                None => learner.dqn.best_action(&options.state, &options.feats).0,
            }
        };
        let q = round.choose(idx);
        let prefers_first = answer(data.point(q.i), data.point(q.j));
        let support_before = round.geom.support_size();
        let (asked, idx) = round
            .answer(data, prefers_first)
            .expect("a question is pending");
        profile.set_rounds(round.rounds);
        round.scan_inline(data, &mut learner.rng);
        if matches!(round.end(), Some(End::Collapsed)) {
            // Finish on the last known recommendation, without a transition.
            if record {
                isrl_obs::round_end();
            }
            break;
        }

        if explore.is_some() {
            // Reward `c` on reaching a certified region; no successor once
            // certified or out of questions.
            let (reward, next) = match round.end() {
                None => (0.0, round.choice()),
                Some(End::Capped(options)) => (0.0, Some(options)),
                Some(End::Certified) => (learner.reward_c, None),
                Some(_) => (0.0, None),
            };
            let mut feats = asked.feats;
            learner.dqn.push_transition(Transition {
                state: asked.state,
                action: feats.swap_remove(idx),
                reward,
                next: next.map(|o| NextState {
                    state: o.state.clone(),
                    actions: o.feats.clone(),
                }),
            });
            for _ in 0..learner.train_steps_per_round.max(1) {
                if let Some(loss) = learner.dqn.train_step() {
                    loss_sum += loss;
                    loss_n += 1;
                }
            }
            if loss_n > 0 {
                learner.last_episode_loss = Some(loss_sum / loss_n as f64);
            }
        }

        if record {
            let (phases, support, volume) =
                close_round(A::LABEL, &mut round, q, &sw, started, support_before);
            if trace_mode.should_trace(round.rounds) {
                let best = round.recommendation.expect("scanned");
                let region = round.geom.region().clone();
                let mut t = RoundTrace::new(round.rounds, sw.elapsed(), best, region);
                t.phases = phases;
                t.vertex_count = support;
                t.volume_proxy = volume;
                trace.push(t);
            }
        }
    }
    InteractionOutcome {
        point_index: round.recommendation.expect("scanned"),
        rounds: round.rounds,
        elapsed: sw.elapsed(),
        trace,
        truncated: round.truncated(),
    }
}

/// Trains `agent` on simulated users (Algorithms 1 and 3): one learning
/// episode per utility vector, ε-greedy per the configured schedule.
pub(crate) fn train<A: Agent>(
    agent: &mut A,
    data: &Dataset,
    utilities: &[Vec<f64>],
    eps: f64,
) -> TrainReport {
    let batch = agent.learner().dqn.config().batch_size;
    let mut watchdog = TrainingWatchdog::new(A::LABEL, batch);
    let mut rounds = Vec::with_capacity(utilities.len());
    for u in utilities {
        let learner = agent.learner();
        let explore = learner.epsilon.value(learner.episodes_trained);
        let mut answer = |p_i: &[f64], p_j: &[f64]| vector::dot(u, p_i) >= vector::dot(u, p_j);
        let outcome = episode(agent, data, &mut answer, eps, Some(explore), TraceMode::Off);
        let l = agent.learner();
        let (n, replay, loss) = (l.episodes_trained, l.dqn.replay_len(), l.last_episode_loss);
        let (rounds_used, truncated) = (outcome.rounds, outcome.truncated);
        let reward = if truncated { 0.0 } else { l.reward_c };
        emit_episode_event(
            A::LABEL,
            n,
            rounds_used,
            explore,
            reward,
            replay,
            truncated,
            loss,
        );
        watchdog.observe(n, explore, replay, loss);
        rounds.push(rounds_used);
        l.episodes_trained += 1;
    }
    agent.learner().dqn.sync_target();
    let mut report = TrainReport::from_rounds(rounds);
    report.anomalies = watchdog.anomalies().to_vec();
    report
}

/// An in-flight step-wise interaction over a borrowed agent — a state
/// machine for servers and GUIs instead of a `User` callback: ask
/// [`current_question`](Self::current_question), deliver the choice via
/// [`answer`](Self::answer), repeat until [`is_finished`](Self::is_finished),
/// then read [`recommendation`](Self::recommendation). Holds the agent
/// mutably (its Q-network scratch and RNG) and the dataset immutably.
pub struct Session<'a, A: Agent> {
    agent: &'a mut A,
    data: &'a Dataset,
    round: Round,
    sw: Stopwatch,
}

impl<'a, A: Agent> Session<'a, A> {
    /// Starts a session on `data` with threshold `eps`.
    ///
    /// # Panics
    /// Panics on dimension mismatch or an empty dataset.
    pub(crate) fn start(agent: &'a mut A, data: &'a Dataset, eps: f64) -> Self {
        let round = open(agent, data, eps);
        let sw = Stopwatch::start();
        let mut session = Self {
            agent,
            data,
            round,
            sw,
        };
        session.pick();
        session
    }

    /// Greedy question selection for the open choice, if any.
    fn pick(&mut self) {
        if let Some(options) = self.round.choice() {
            let dqn = &mut self.agent.learner().dqn;
            let (idx, _) = dqn.best_action(&options.state, &options.feats);
            self.round.choose(idx);
        }
    }

    /// The pending question, or `None` once the session is finished.
    pub fn current_question(&self) -> Option<Question> {
        self.round.question()
    }

    /// The two points of the pending question, for display.
    pub fn current_points(&self) -> Option<(&[f64], &[f64])> {
        self.current_question()
            .map(|q| (self.data.point(q.i), self.data.point(q.j)))
    }

    /// Delivers the user's choice for the pending question (`true` = the
    /// first point is preferred) and advances the interaction.
    ///
    /// # Panics
    /// Panics if the session is already finished.
    pub fn answer(&mut self, prefers_first: bool) {
        let q = self
            .round
            .question()
            .expect("session is finished; no pending question");
        let record = isrl_obs::enabled();
        if record {
            isrl_obs::round_begin();
        }
        let started = self.sw.elapsed();
        let support_before = self.round.geom.support_size();
        self.round.answer(self.data, prefers_first);
        self.round
            .scan_inline(self.data, &mut self.agent.learner().rng);
        self.pick();
        if record {
            close_round(
                A::LABEL,
                &mut self.round,
                q,
                &self.sw,
                started,
                support_before,
            );
        }
    }

    /// `true` once no further question will be asked.
    pub fn is_finished(&self) -> bool {
        self.round.question().is_none()
    }

    /// Questions answered so far.
    pub fn rounds(&self) -> usize {
        self.round.rounds
    }

    /// Elapsed wall-clock time since the session started.
    pub fn elapsed(&self) -> Duration {
        self.sw.elapsed()
    }

    /// `true` when the session ended without certifying its stop condition.
    pub fn truncated(&self) -> bool {
        self.round.truncated()
    }

    /// The current (or final) recommendation: EA's certified anchor, else
    /// the region centroid's top-1; AA's rectangle-midpoint top-1.
    pub fn recommendation(&self) -> usize {
        self.round.recommendation.expect("scanned at start")
    }

    /// The learned utility range so far (half-space view).
    pub fn region(&self) -> &Region {
        self.round.geom.region()
    }
}
