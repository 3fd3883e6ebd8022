//! Step-wise (inversion-of-control-free) interaction sessions for AA.
//!
//! [`crate::interaction::InteractiveAlgorithm::run`] drives a `User`
//! callback to completion — convenient for simulation, wrong for servers,
//! GUIs, or anything asynchronous. [`AaSession`] exposes the same
//! interaction as a state machine: ask [`Session::current_question`],
//! deliver the user's choice via [`Session::answer`], repeat until
//! [`Session::is_finished`], then read [`Session::recommendation`].

use super::AaAgent;
use crate::driver::Session;
use isrl_data::Dataset;

/// An in-flight AA interaction. Holds the agent mutably (Q-network
/// evaluation shares its scratch buffers) and the dataset immutably.
pub type AaSession<'a> = Session<'a, AaAgent>;

impl AaAgent {
    /// Starts a step-wise interaction on `data` with threshold `eps`.
    ///
    /// # Panics
    /// Panics on dimension mismatch or an empty dataset.
    pub fn start_session<'a>(&'a mut self, data: &'a Dataset, eps: f64) -> AaSession<'a> {
        Session::start(self, data, eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aa::AaConfig;
    use crate::interaction::{InteractiveAlgorithm, TraceMode};
    use crate::regret::regret_ratio_of_index;
    use crate::user::{SimulatedUser, User};
    use isrl_linalg::vector;

    fn data() -> Dataset {
        Dataset::from_points(
            vec![
                vec![1.0, 0.05],
                vec![0.85, 0.4],
                vec![0.6, 0.65],
                vec![0.4, 0.85],
                vec![0.05, 1.0],
            ],
            2,
        )
    }

    #[test]
    fn session_reaches_the_same_outcome_as_run() {
        let d = data();
        let truth = vec![0.35, 0.65];
        // Drive via the callback API…
        let mut agent1 = AaAgent::new(2, AaConfig::paper_default().with_seed(4));
        let mut user = SimulatedUser::new(truth.clone());
        let run_out = agent1.run(&d, &mut user, 0.1, TraceMode::Off);
        // …and via the step API with identical answers.
        let mut agent2 = AaAgent::new(2, AaConfig::paper_default().with_seed(4));
        let mut session = agent2.start_session(&d, 0.1);
        while let Some((p, q)) = session
            .current_points()
            .map(|(a, b)| (a.to_vec(), b.to_vec()))
        {
            session.answer(vector::dot(&truth, &p) >= vector::dot(&truth, &q));
        }
        assert!(session.is_finished());
        assert_eq!(session.rounds(), run_out.rounds);
        assert_eq!(session.recommendation(), run_out.point_index);
        assert_eq!(session.truncated(), run_out.truncated);
    }

    #[test]
    fn session_produces_a_valid_recommendation() {
        let d = data();
        let truth = vec![0.7, 0.3];
        let mut agent = AaAgent::new(2, AaConfig::paper_default().with_seed(5));
        let mut session = agent.start_session(&d, 0.1);
        let mut oracle = SimulatedUser::new(truth.clone());
        let mut guard = 0;
        while !session.is_finished() {
            let (p, q) = session
                .current_points()
                .map(|(a, b)| (a.to_vec(), b.to_vec()))
                .unwrap();
            session.answer(oracle.prefers(&p, &q));
            guard += 1;
            assert!(guard < 500, "session failed to finish");
        }
        let regret = regret_ratio_of_index(&d, session.recommendation(), &truth);
        assert!(regret <= 4.0 * 0.1 + 1e-9, "d²ε bound violated: {regret}");
        assert_eq!(session.region().len(), session.rounds());
    }

    #[test]
    #[should_panic(expected = "no pending question")]
    fn answering_a_finished_session_panics() {
        let d = Dataset::from_points(vec![vec![0.5, 0.5]], 2);
        let mut agent = AaAgent::new(2, AaConfig::paper_default().with_seed(6));
        let mut session = agent.start_session(&d, 0.5);
        assert!(session.is_finished(), "single point needs no questions");
        session.answer(true);
    }
}
