//! Step-wise interaction sessions for EA (see [`Session`] for the
//! motivation: servers and GUIs need a state machine, not a callback).

use super::EaAgent;
use crate::driver::Session;
use isrl_data::Dataset;

/// An in-flight EA interaction.
pub type EaSession<'a> = Session<'a, EaAgent>;

impl EaAgent {
    /// Starts a step-wise interaction on `data` with threshold `eps`,
    /// using the configured geometry backend (exact, sampled, or
    /// auto-by-dimension).
    ///
    /// # Panics
    /// Panics on dimension mismatch or an empty dataset.
    pub fn start_session<'a>(&'a mut self, data: &'a Dataset, eps: f64) -> EaSession<'a> {
        Session::start(self, data, eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ea::EaConfig;
    use crate::interaction::{InteractiveAlgorithm, TraceMode};
    use crate::regret::regret_ratio_of_index;
    use crate::user::SimulatedUser;
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
    fn session_matches_run_and_is_exact() {
        let d = data();
        let truth = vec![0.45, 0.55];
        let eps = 0.1;
        let mut agent1 = EaAgent::new(2, EaConfig::paper_default().with_seed(7));
        let mut user = SimulatedUser::new(truth.clone());
        let run_out = agent1.run(&d, &mut user, eps, TraceMode::Off);

        let mut agent2 = EaAgent::new(2, EaConfig::paper_default().with_seed(7));
        let mut session = agent2.start_session(&d, eps);
        while let Some((p, q)) = session
            .current_points()
            .map(|(a, b)| (a.to_vec(), b.to_vec()))
        {
            session.answer(vector::dot(&truth, &p) >= vector::dot(&truth, &q));
        }
        assert_eq!(session.rounds(), run_out.rounds);
        assert_eq!(session.recommendation(), run_out.point_index);
        let regret = regret_ratio_of_index(&d, session.recommendation(), &truth);
        assert!(regret < eps, "EA session must stay exact: {regret}");
        assert!(!session.truncated());
    }

    #[test]
    fn recommendation_is_available_mid_session() {
        let d = data();
        let mut agent = EaAgent::new(2, EaConfig::paper_default().with_seed(8));
        let session = agent.start_session(&d, 0.05);
        // Before any answer the recommendation is merely the centroid's
        // favorite — but it must be a valid index.
        assert!(session.recommendation() < d.len());
        assert_eq!(session.rounds(), 0);
        assert!(
            !session.is_finished(),
            "eps=0.05 needs at least one question here"
        );
    }
}
