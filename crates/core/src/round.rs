//! The one EA/AA round state machine (DESIGN.md §14).
//!
//! Every round of Algorithms 1–4 — observe the utility range, offer
//! candidate questions, take the answer, cut — runs through [`Round`]. It
//! owns the per-interaction state but no dataset, RNG or Q-network: its
//! drivers (the agents' episode loop, the borrowing sessions,
//! `ServeSession`) pass the dataset and their RNG stream into the steps
//! that need them and pick the question themselves. Each dataset scan is a
//! take/provide pair, so a batcher can coalesce many sessions' scans.
//!
//! RNG order is part of the contract: the sampled EA backend draws its
//! cloud seed at open, the exact EA backend draws its extra samples of `V`
//! only on non-terminal rounds, and AA draws its hit-and-run pool before
//! its candidate pairs.

use crate::aa::{candidate_pairs, AaConfig, AaSummary, PairGenConfig};
use crate::ea::{
    build_action_space, distinct, encode_question, terminal_anchor, EaConfig, EaStateEncoder,
};
use crate::interaction::Question;
use isrl_data::Dataset;
use isrl_geometry::{sampling, Halfspace, RegionGeometry, SampleCloud};
use isrl_linalg::{vector, Top1};
use rand::rngs::StdRng;
use rand::RngCore;

/// The algorithm-specific rules, copied out of the agent's configuration.
enum Rules {
    Ea {
        encoder: EaStateEncoder,
        n_samples: usize,
    },
    Aa {
        pair_gen: PairGenConfig,
    },
}

/// The candidate questions of an open round, with their DQN inputs.
pub(crate) struct Options {
    pub(crate) state: Vec<f64>,
    pub(crate) questions: Vec<Question>,
    pub(crate) feats: Vec<Vec<f64>>,
}

/// Why the machine stopped asking.
pub(crate) enum End {
    /// EA's Lemma 6 terminal region, or AA's Lemma 9 rectangle bound.
    Certified,
    /// No candidate question is left.
    Exhausted,
    /// The `max_rounds` cap fired with these questions still on offer.
    Capped(Options),
    /// A cut left the region numerically empty.
    Collapsed,
}

enum Stage {
    /// A scan is pending; `utilities` is `Some` until the driver takes them.
    Scan {
        utilities: Option<Vec<Vec<f64>>>,
        state: Vec<f64>,
        next: Scanned,
    },
    /// Waiting for the driver to pick.
    Choose(Options),
    /// `options.questions[idx]` is pending with the user.
    Ask {
        options: Options,
        idx: usize,
    },
    Done(End),
}

/// What a pending scan's top-1s decide.
enum Scanned {
    /// EA's region points then their centroid: the Lemma 6 verdict.
    EaPoints,
    /// Exact-backend EA's extra samples of `V`; the vertex argmaxes follow
    /// theirs in `P_R`.
    EaSamples { points_top1: Vec<usize> },
    /// AA's rectangle midpoint. AA knows its stop verdict before any scan;
    /// the sphere center anchors the question search.
    AaMidpoint { stop: bool, center: Vec<f64> },
}

/// One EA or AA interaction, round by round. Nominally `pub` because the
/// sealed agent trait returns it; this module is private to the crate.
pub struct Round {
    rules: Rules,
    m_h: usize,
    max_rounds: usize,
    eps: f64,
    /// The learned utility range.
    pub(crate) geom: RegionGeometry,
    asked: Vec<(usize, usize)>,
    /// Questions answered so far.
    pub(crate) rounds: usize,
    /// The current (or final) recommendation: `None` only before the
    /// first scan, kept across a collapse.
    pub(crate) recommendation: Option<usize>,
    stage: Stage,
}

impl Round {
    /// Opens an EA interaction; only the sampled backend draws (its cloud
    /// seed) at open.
    pub(crate) fn ea(cfg: &EaConfig, dim: usize, eps: f64, rng: &mut StdRng) -> Self {
        let geom = if cfg.geometry.resolves_to_sampled(dim) {
            RegionGeometry::sampled(dim, cfg.walk, rng.next_u64())
        } else {
            RegionGeometry::exact(dim)
        };
        let rules = Rules::Ea {
            encoder: EaStateEncoder::with_variant(dim, cfg.m_e, cfg.d_eps, cfg.state_variant),
            n_samples: cfg.n_samples,
        };
        Self::open(rules, cfg.m_h, cfg.max_rounds, eps, geom)
    }

    /// Opens an AA interaction on a summary-only geometry (cuts stay O(1)).
    pub(crate) fn aa(cfg: &AaConfig, dim: usize, eps: f64) -> Self {
        let mut geom = RegionGeometry::summary_only(dim);
        geom.set_warm_lp(cfg.warm_lp);
        let rules = Rules::Aa {
            pair_gen: cfg.pair_gen,
        };
        Self::open(rules, cfg.m_h, cfg.max_rounds, eps, geom)
    }

    fn open(rules: Rules, m_h: usize, max_rounds: usize, eps: f64, geom: RegionGeometry) -> Self {
        let mut round = Self {
            rules,
            m_h,
            max_rounds,
            eps,
            geom,
            asked: Vec::new(),
            rounds: 0,
            recommendation: None,
            stage: Stage::Done(End::Collapsed),
        };
        round.plan();
        round
    }

    /// Opens the next round: the state encoding (and AA's LP summary and
    /// stop verdict) plus the utilities to scan. No dataset access, no RNG.
    fn plan(&mut self) {
        let planned = match &self.rules {
            Rules::Ea { encoder, .. } => region_points(&self.geom).map(|mut utilities| {
                let state = encoder.encode_points(&utilities);
                utilities.push(vector::mean(&utilities));
                (utilities, state, Scanned::EaPoints)
            }),
            Rules::Aa { .. } => AaSummary::from_geometry(&mut self.geom).map(|summary| {
                let next = Scanned::AaMidpoint {
                    stop: summary.meets_stop_condition(self.eps),
                    center: summary.sphere.center().to_vec(),
                };
                (vec![summary.midpoint()], summary.encode(), next)
            }),
        };
        self.stage = match planned {
            None => Stage::Done(End::Collapsed),
            Some((utilities, state, next)) => Stage::Scan {
                utilities: Some(utilities),
                state,
                next,
            },
        };
    }

    /// Takes the pending scan's utility vectors, if a scan is pending.
    pub(crate) fn take_scan_utilities(&mut self) -> Option<Vec<Vec<f64>>> {
        match &mut self.stage {
            Stage::Scan { utilities, .. } => utilities.take(),
            _ => None,
        }
    }

    /// Delivers the top-1s of the taken utilities (`top1[k]` answers
    /// `utilities[k]`) and advances to the next scan, the choice, or the end.
    ///
    /// # Panics
    /// Panics if no scan was taken or the lengths disagree (driver bugs).
    pub(crate) fn provide_scan(
        &mut self,
        data: &Dataset,
        utilities: &[Vec<f64>],
        top1: &[Top1],
        rng: &mut StdRng,
    ) {
        assert_eq!(utilities.len(), top1.len(), "scan result length mismatch");
        let Stage::Scan {
            utilities: None,
            state,
            next,
        } = std::mem::replace(&mut self.stage, Stage::Done(End::Collapsed))
        else {
            panic!("no scan was taken");
        };
        match next {
            Scanned::EaPoints => self.ea_verdict(data, utilities, top1, state, rng),
            Scanned::EaSamples { points_top1 } => {
                let p_r = distinct(top1.iter().map(|t| t.index).chain(points_top1));
                self.ea_questions(data, state, &p_r, rng);
            }
            Scanned::AaMidpoint { stop, center } => {
                // The midpoint's top-1 is both the certified return and the
                // fallback (Algorithm 4, line 11).
                self.recommendation = Some(top1[0].index);
                if stop {
                    self.stage = Stage::Done(End::Certified);
                } else {
                    self.aa_questions(data, state, &center, rng);
                }
            }
        }
    }

    /// Runs the pending scans against `data` inline (the unbatched path).
    pub(crate) fn scan_inline(&mut self, data: &Dataset, rng: &mut StdRng) {
        while let Some(utilities) = self.take_scan_utilities() {
            let top1 = {
                let _t = isrl_obs::span("top1");
                data.top1_batch(&utilities)
            };
            self.provide_scan(data, &utilities, &top1, rng);
        }
    }

    /// EA's Lemma 6 check over the region points' argmaxes; the centroid's
    /// top-1 stands in until the region is certified. Non-terminal, the
    /// sampled cloud already is `V`, so `P_R` is the anchor set; the exact
    /// backend draws its extra samples of `V` now and queues their scans.
    fn ea_verdict(
        &mut self,
        data: &Dataset,
        utilities: &[Vec<f64>],
        top1: &[Top1],
        state: Vec<f64>,
        rng: &mut StdRng,
    ) {
        let Rules::Ea { n_samples, .. } = self.rules else {
            unreachable!("EA scan on an AA round");
        };
        let points = &utilities[..utilities.len() - 1];
        let points_top1: Vec<usize> = top1[..points.len()].iter().map(|t| t.index).collect();
        let anchors = distinct(points_top1.iter().copied());
        let terminal = {
            let _t = isrl_obs::span("terminal_check");
            terminal_anchor(data, points, &anchors, self.eps)
        };
        self.recommendation = Some(terminal.unwrap_or(top1[points.len()].index));
        if terminal.is_some() {
            self.stage = Stage::Done(End::Certified);
        } else if self.geom.is_sampled() {
            self.ea_questions(data, state, &anchors, rng);
        } else {
            // Rejection samples of R, topped up from the vertex mixture on
            // underfill (Lemma 5/6).
            let mut samples = {
                let _s = isrl_obs::span("sampling");
                let halfspaces = self.geom.region().halfspaces();
                let dim = self.geom.dim();
                sampling::sample_region_rejection(dim, halfspaces, n_samples, n_samples * 10, rng)
            };
            if samples.len() < n_samples {
                isrl_obs::add("ea.sample_fallbacks", 1);
                let _s = isrl_obs::span("sampling");
                let need = n_samples - samples.len();
                samples.extend(sampling::sample_vertex_mixture(points, need, rng));
            }
            self.stage = Stage::Scan {
                utilities: Some(samples),
                state,
                next: Scanned::EaSamples { points_top1 },
            };
        }
    }

    /// EA's action space over `P_R`: unasked anchor pairs, or repeats once
    /// every pair is exhausted (the DQN picks the most informative one).
    fn ea_questions(&mut self, data: &Dataset, state: Vec<f64>, p_r: &[usize], rng: &mut StdRng) {
        let mut questions = build_action_space(p_r, self.m_h, &self.asked, rng);
        if questions.is_empty() && p_r.len() >= 2 {
            questions = build_action_space(p_r, self.m_h, &[], rng);
        }
        self.offer(data, state, questions);
    }

    /// AA's questions: a short hit-and-run walk from the sphere center
    /// pre-filters the candidate hyperplanes, keeping the per-round LP count
    /// near `2·m_h` even at d = 25 (DESIGN.md §2).
    fn aa_questions(&mut self, data: &Dataset, state: Vec<f64>, center: &[f64], rng: &mut StdRng) {
        let Rules::Aa { pair_gen } = self.rules else {
            unreachable!("AA scan on an EA round");
        };
        let pool = {
            let _s = isrl_obs::span("sampling");
            let halfspaces = self.geom.region().halfspaces();
            sampling::hit_and_run(self.geom.dim(), halfspaces, center, 48, 2, rng)
        };
        let (region, lp_cache) = self.geom.region_and_lp_cache();
        let questions = candidate_pairs(
            data,
            region,
            center,
            self.m_h,
            &self.asked,
            &pool,
            pair_gen,
            rng,
            lp_cache,
        );
        self.offer(data, state, questions);
    }

    /// Opens the choice, unless no question is left or the cap is reached.
    fn offer(&mut self, data: &Dataset, state: Vec<f64>, questions: Vec<Question>) {
        let feats = questions
            .iter()
            .map(|&q| encode_question(data, q))
            .collect();
        let options = Options {
            state,
            questions,
            feats,
        };
        self.stage = if options.questions.is_empty() {
            Stage::Done(End::Exhausted)
        } else if self.rounds >= self.max_rounds {
            Stage::Done(End::Capped(options))
        } else {
            Stage::Choose(options)
        };
    }

    /// The open choice, while the driver has to pick a question.
    pub(crate) fn choice(&self) -> Option<&Options> {
        match &self.stage {
            Stage::Choose(options) => Some(options),
            _ => None,
        }
    }

    /// Puts `options.questions[idx]` of the open choice to the user.
    ///
    /// # Panics
    /// Panics when no choice is open.
    pub(crate) fn choose(&mut self, idx: usize) -> Question {
        let Stage::Choose(options) =
            std::mem::replace(&mut self.stage, Stage::Done(End::Collapsed))
        else {
            panic!("no choice is open");
        };
        let question = options.questions[idx];
        self.stage = Stage::Ask { options, idx };
        question
    }

    /// The question pending with the user.
    pub(crate) fn question(&self) -> Option<Question> {
        match &self.stage {
            Stage::Ask { options, idx } => Some(options.questions[*idx]),
            _ => None,
        }
    }

    /// Delivers the user's choice (`true` = first point preferred), cuts
    /// the region with it, and plans the next round. Returns the answered
    /// options and the chosen index, or `None` when nothing was pending.
    pub(crate) fn answer(
        &mut self,
        data: &Dataset,
        prefers_first: bool,
    ) -> Option<(Options, usize)> {
        let (options, idx) = match std::mem::replace(&mut self.stage, Stage::Done(End::Collapsed)) {
            Stage::Ask { options, idx } => (options, idx),
            other => {
                self.stage = other;
                return None;
            }
        };
        let q = options.questions[idx];
        let (win, lose) = if prefers_first {
            (q.i, q.j)
        } else {
            (q.j, q.i)
        };
        self.asked.push((q.i.min(q.j), q.i.max(q.j)));
        self.rounds += 1;
        if let Some(h) = Halfspace::preferring(data.point(win), data.point(lose)) {
            self.geom.add(h);
        }
        self.plan();
        Some((options, idx))
    }

    /// Why the machine stopped, once it has.
    pub(crate) fn end(&self) -> Option<&End> {
        match &self.stage {
            Stage::Done(end) => Some(end),
            _ => None,
        }
    }

    /// `true` when the interaction ended without certifying its stop
    /// condition.
    pub(crate) fn truncated(&self) -> bool {
        matches!(self.end(), Some(e) if !matches!(e, End::Certified))
    }
}

/// The point set standing for an EA region: the maintained vertex set, or
/// the sampled cloud with its anchor vertices first — the axis-extent LP
/// optimizers, which a uniform interior sample misses. `None` once empty.
fn region_points(geom: &RegionGeometry) -> Option<Vec<Vec<f64>>> {
    if geom.is_sampled() {
        geom.sample_cloud().map(SampleCloud::all_points)
    } else {
        geom.polytope().map(|p| p.vertices().to_vec())
    }
}
