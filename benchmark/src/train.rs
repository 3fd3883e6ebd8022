//! The `train-aa-d20` workload — the researcher's throughput — and the
//! training-layer split shared with the serve workloads' set-up.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use isrl_core::aa::{AaAgent, AaConfig};
use isrl_core::checkpoint;
use isrl_core::runner::sample_users;
use isrl_data::real::player_like;
use isrl_data::Dataset;

use crate::report::{digest, mean, median, percentile, Report};
use crate::workload::{derive, Stream, EPS};
use crate::Args;

/// Episodes in one timed training pass; every pass starts from a fresh
/// agent, so all passes of a run do identical work.
pub const EPISODES: usize = 16;
/// Episodes in the untimed pass that judges termination and counts
/// questions; its first [`EPISODES`] episodes are the timed passes'.
const VERDICT_EPISODES: usize = 48;
const DIM: usize = 20;
/// The `player` table is one fixed dataset, as the paper's real Player
/// table is: the same generator seed as `isrl --builtin player`. The
/// workload seed drives the users and the agent. (Across generator seeds
/// the share of truncated episodes ranges from 0% to 44%, which would
/// drown every other change in `certified_share`.)
const PLAYER_SEED: u64 = 7;
const SETUP_REPEATS: usize = 9;

/// The training layers reported as `train.self_ms_per_episode.<leaf>`:
/// self time summed over every span path ending in that leaf name.
pub const LAYERS: &[(&str, &str)] = &[
    ("lp", "train.self_ms_per_episode.lp"),
    ("dqn_train", "train.self_ms_per_episode.dqn_train"),
    ("top1", "train.self_ms_per_episode.top1"),
    ("sampling", "train.self_ms_per_episode.sampling"),
    ("nn", "train.self_ms_per_episode.nn"),
    ("geom_update", "train.self_ms_per_episode.geom_update"),
];

/// Splits a profiled training run's wall time across [`LAYERS`] and
/// reports each per episode. Spans outside [`LAYERS`] get their own row in
/// the budget line; time under no span is
/// `train.unattributed_ms_per_episode`, so the line sums to the wall time.
pub fn report_layers(
    report: &mut Report,
    pairs: &[(String, u64, Duration)],
    wall: Duration,
    episodes: usize,
) {
    let mut by_leaf: BTreeMap<String, f64> = BTreeMap::new();
    let mut calls: BTreeMap<String, u64> = BTreeMap::new();
    for (path, stat) in isrl_obs::profile::tree_stats(pairs) {
        let leaf = path.rsplit('/').next().unwrap_or(&path).to_string();
        *by_leaf.entry(leaf.clone()).or_default() += stat.self_ms;
        *calls.entry(leaf).or_default() += stat.count;
    }
    let per = |ms: f64| ms / episodes.max(1) as f64;
    let wall_ms = wall.as_secs_f64() * 1e3;
    let spanned: f64 = by_leaf.values().sum();
    let mut line = format!("train wall {:.3} ms/episode =", per(wall_ms));
    for &(leaf, metric) in LAYERS {
        let ms = by_leaf.remove(leaf).unwrap_or(0.0);
        report.set(metric, per(ms), episodes);
        line.push_str(&format!(" {leaf} {:.3} +", per(ms)));
    }
    for (leaf, ms) in &by_leaf {
        line.push_str(&format!(" {leaf} {:.3} +", per(*ms)));
    }
    let unattributed = per(wall_ms - spanned);
    report.set("train.unattributed_ms_per_episode", unattributed, episodes);
    line.push_str(&format!(" unattributed {unattributed:.3}"));
    report.budget(line);
    report.budget(format!(
        "train span calls per episode:{}",
        calls
            .iter()
            .map(|(leaf, n)| format!(" {leaf}={:.2}", *n as f64 / episodes.max(1) as f64))
            .collect::<String>()
    ));
}

/// Warm-start hit rate of the geometry LPs, from the telemetry counters a
/// sink-on run left behind.
pub fn report_warm_lp(report: &mut Report) {
    let attempts = isrl_obs::counter_value("lp.warm.attempts");
    let hits = isrl_obs::counter_value("lp.warm.hits");
    let rate = if attempts == 0 {
        0.0
    } else {
        hits as f64 / attempts as f64
    };
    report.set("geometry.lp.warm_hit_rate", rate, attempts as usize);
}

/// One pass's observations.
struct Pass {
    wall: Duration,
    /// Per episode: (wall, rounds, anomalies flagged).
    episodes: Vec<(Duration, usize, usize)>,
    blob: Vec<u8>,
    updates: u64,
}

struct Inputs {
    data: Dataset,
    users: Vec<Vec<f64>>,
    cfg: AaConfig,
}

fn inputs(seed: u64) -> Inputs {
    Inputs {
        data: player_like(PLAYER_SEED),
        users: sample_users(DIM, VERDICT_EPISODES, derive(seed, Stream::TrainUsers, 0)),
        cfg: AaConfig::paper_default().with_seed(derive(seed, Stream::TrainAgent, 0)),
    }
}

/// Trains a fresh agent on the first `episodes` users, one `train` call
/// per episode so each episode is timed from outside.
fn pass(inp: &Inputs, episodes: usize) -> Pass {
    let mut agent = AaAgent::new(DIM, inp.cfg.clone());
    let started = Instant::now();
    let episodes = inp.users[..episodes]
        .iter()
        .map(|u| {
            let t = Instant::now();
            let r = agent.train(&inp.data, std::slice::from_ref(u), EPS);
            (t.elapsed(), r.rounds_per_episode[0], r.anomalies.len())
        })
        .collect();
    Pass {
        wall: started.elapsed(),
        episodes,
        blob: checkpoint::save_aa(&agent),
        updates: agent.dqn().updates(),
    }
}

fn rounds(p: &Pass) -> Vec<usize> {
    p.episodes.iter().map(|e| e.1).collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut inp = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let built = inputs(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        inp = Some(built);
    }
    let inp = inp.expect("at least one set-up");
    report.note(format!(
        "train-aa-d20: player {}x{}, {EPISODES} episodes per timed pass, {VERDICT_EPISODES} judged, eps {EPS}",
        inp.data.len(),
        inp.data.dim()
    ));

    let mut passes: Vec<Pass> = Vec::new();
    if !args.trace {
        let started = Instant::now();
        while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
            passes.push(pass(&inp, EPISODES));
        }
    } else {
        // Untraced pass: the baseline for the tracing overhead.
        passes.push(pass(&inp, EPISODES));
        // Profiled pass with the sink off: per-episode profile scopes only
        // open with the sink on, so this outer scope sees every span.
        isrl_obs::profile_begin();
        let profiled = pass(&inp, EPISODES);
        let pairs = isrl_obs::profile_end();
        report_layers(&mut report, &pairs, profiled.wall, EPISODES);
        report.set(
            "rl.updates_per_episode",
            profiled.updates as f64 / EPISODES as f64,
            EPISODES,
        );
        let base = passes[0].wall.as_secs_f64();
        report.set(
            "obs.trace_overhead_pct",
            (profiled.wall.as_secs_f64() - base) / base * 100.0,
            2,
        );
        passes.push(profiled);
    }
    // A sink-on pass, untimed: the episode events say which episodes ended
    // without certifying termination (the timed passes cannot see it), and
    // the counters give the LP warm-start hit rate.
    isrl_obs::reset();
    isrl_obs::set_enabled(true);
    let verdicts = pass(&inp, VERDICT_EPISODES);
    isrl_obs::set_enabled(false);
    report_warm_lp(&mut report);
    let truncated = isrl_obs::snapshot()
        .events
        .iter()
        .filter(|e| e.name == "episode")
        .filter(|e| {
            e.fields
                .iter()
                .any(|(k, v)| *k == "truncated" && v.as_bool() == Some(true))
        })
        .count();

    // Every timed pass must do identical work — same questions, same
    // checkpoint — and the judged pass must open with the same questions.
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        if rounds(p) != rounds(first) || p.blob != first.blob {
            report.fail(format!("training pass {i} differs from pass 0"));
        }
    }
    let counts = rounds(&verdicts);
    if counts[..EPISODES] != rounds(first) {
        report.fail("the sink-on pass asked different questions than the timed passes".into());
    }
    report.note(format!("questions digest {}", digest(&counts)));

    let all = || {
        passes
            .iter()
            .chain(std::iter::once(&verdicts))
            .flat_map(|p| &p.episodes)
    };
    let episodes = all().count() as u64;
    let failed = all().filter(|e| e.2 > 0).count() as u64;
    report.attempted = episodes;
    report.failed = failed;
    if failed > 0 {
        report.fail(format!("{failed} episodes tripped the training watchdog"));
    }

    // Per-round training time of each timed episode, as the median over
    // passes (which repeat identical work), so the percentiles describe the
    // episodes rather than the machine's noise.
    let per_round_ms: Vec<f64> = (0..EPISODES)
        .filter(|&i| first.episodes[i].1 > 0)
        .map(|i| {
            let ms: Vec<f64> = passes
                .iter()
                .map(|p| p.episodes[i].0.as_secs_f64() * 1e3 / p.episodes[i].1 as f64)
                .collect();
            median(&ms)
        })
        .collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| EPISODES as f64 / p.wall.as_secs_f64())
        .collect();
    let n = per_round_ms.len() * passes.len();
    report.set("setup_s", median(&setup_s), setup_s.len());
    report.set("round_p50_ms", percentile(&per_round_ms, 0.5), n);
    report.set("round_p99_ms", percentile(&per_round_ms, 0.99), n);
    report.set("sessions_per_s", median(&rates), rates.len());
    report.set(
        "questions_mean",
        mean(&counts.iter().map(|&r| r as f64).collect::<Vec<_>>()),
        counts.len(),
    );
    report.set(
        "certified_share",
        (VERDICT_EPISODES - truncated) as f64 / VERDICT_EPISODES as f64,
        VERDICT_EPISODES,
    );
    report.set(
        "ok_share",
        (episodes - failed) as f64 / episodes as f64,
        episodes as usize,
    );
    Ok(report)
}
