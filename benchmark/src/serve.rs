//! The serve workloads, `interactive` and `mixed-peak`: the real TCP server
//! (`spawn_server`) on the workload's dataset, driven by the in-process
//! load generator in [`crate::wire`].

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use isrl_core::regret::regret_ratio_of_index;
use isrl_core::serving::protocol::{ClientFrame, ServerFrame};
use isrl_core::serving::{AlgoKind, ServerStats};
use isrl_data::Dataset;

use crate::replay::{self, AlgoOps, Ending};
use crate::report::{digest, mean, median, percentile, Report};
use crate::train::{report_layers, report_warm_lp};
use crate::wire::{self, LoopResult};
use crate::workload::{bind, serve_inputs, unit, SessionSpec, Stream, EPS, SERVE_D};
use crate::Args;

/// Sessions in the `interactive` population; the closed loop cycles
/// through them and always completes one full pass.
const INTERACTIVE_SESSIONS: usize = 48;

/// `mixed-peak` offered load, sessions per second, pinned on the commit
/// that defined the benchmark, where the core thread is about a third busy
/// at this rate. Half busy (95/s) and 60/s left the latency percentiles
/// swinging by more than any bound on the shared machine (WORKLOADS.md).
pub const MIXED_RATE: f64 = 40.0;
const MIXED_CONNS: usize = 2;

const SETUP_REPEATS: usize = 5;
/// The in-process replay repeats its sessions for at least this long.
const REPLAY_MIN_S: f64 = 1.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Interactive,
    MixedPeak,
}

/// The sessions a run serves and, for the open loop, when each arrives.
struct Plan {
    specs: Vec<SessionSpec>,
    arrivals: Vec<Duration>,
}

fn plan(traffic: Traffic, seed: u64, seconds: f64) -> Plan {
    match traffic {
        Traffic::Interactive => Plan {
            specs: (0..INTERACTIVE_SESSIONS as u64)
                .map(|k| SessionSpec::new(seed, k, SERVE_D, false))
                .collect(),
            arrivals: Vec::new(),
        },
        Traffic::MixedPeak => {
            // A Poisson process conditioned on its count: n arrivals at
            // sorted uniform times over the run, so every seed offers
            // exactly MIXED_RATE sessions per second.
            let n = (MIXED_RATE * seconds).round().max(1.0) as u64;
            let mut at: Vec<f64> = (0..n)
                .map(|k| unit(seed, Stream::Arrivals, k) * seconds)
                .collect();
            at.sort_by(f64::total_cmp);
            Plan {
                specs: (0..n)
                    .map(|k| SessionSpec::new(seed, k, SERVE_D, true))
                    .collect(),
                arrivals: at.into_iter().map(Duration::from_secs_f64).collect(),
            }
        }
    }
}

fn drive(
    traffic: Traffic,
    addr: std::net::SocketAddr,
    plan: &Plan,
    seconds: f64,
) -> Result<LoopResult, String> {
    match traffic {
        Traffic::Interactive => wire::closed_loop(addr, &plan.specs, seconds),
        Traffic::MixedPeak => wire::open_loop(addr, &plan.specs, &plan.arrivals, MIXED_CONNS),
    }
}

/// What the correctness checks made of one load-generation run.
struct Checked {
    attempted: u64,
    failed: u64,
    completed: usize,
    certified: usize,
    /// How each spec's first completion ended, by spec index.
    endings: Vec<Option<Ending>>,
}

/// Checks every session of `run`: no error, no timeout, and a right
/// answer for the simulated user's true utility — for EA regret below ε on
/// a certified session, for AA at most d²ε. Sessions served more than once
/// must end the same way each time.
fn check(
    report: &mut Report,
    data: &Dataset,
    plan: &Plan,
    run: &LoopResult,
    label: &str,
) -> Checked {
    let mut c = Checked {
        attempted: run.sessions.len() as u64,
        failed: 0,
        completed: 0,
        certified: 0,
        endings: vec![None; plan.specs.len()],
    };
    let d2eps = (SERVE_D * SERVE_D) as f64 * EPS;
    let mut wrong = Vec::new();
    for s in &run.sessions {
        if let Some(e) = &s.error {
            c.failed += 1;
            wrong.push(format!("session {}: {e}", s.k));
            continue;
        }
        let spec = &plan.specs[s.k];
        let regret = regret_ratio_of_index(data, s.index, &spec.utility);
        let bad = match spec.algo {
            AlgoKind::Ea => !s.truncated && regret >= EPS,
            AlgoKind::Aa => regret > d2eps,
        };
        if bad {
            c.failed += 1;
            wrong.push(format!(
                "session {} ({}): regret {regret:.4} for the true utility",
                s.k,
                spec.algo.as_str()
            ));
            continue;
        }
        c.completed += 1;
        c.certified += usize::from(!s.truncated);
        let ending = (s.rounds, s.truncated, s.index);
        match c.endings[s.k] {
            None => c.endings[s.k] = Some(ending),
            Some(first) if first != ending => wrong.push(format!(
                "session {} ended as {ending:?}, earlier as {first:?}",
                s.k
            )),
            Some(_) => {}
        }
    }
    for w in wrong.iter().take(5) {
        report.fail(format!("{label}: {w}"));
    }
    if wrong.len() > 5 {
        report.fail(format!("{label}: … and {} more", wrong.len() - 5));
    }
    report.attempted += c.attempted;
    report.failed += c.failed;
    c
}

fn digest_of(c: &Checked) -> String {
    let counts: Vec<usize> = c
        .endings
        .iter()
        .map(|e| e.map_or(usize::MAX, |(rounds, _, _)| rounds))
        .collect();
    digest(&counts)
}

pub fn run(traffic: Traffic, args: &Args) -> Result<Report, String> {
    let mixed = traffic == Traffic::MixedPeak;
    let mut report = Report::default();
    if args.trace {
        // The traced run serves the load twice (untraced, then traced),
        // each for half the run.
        let seconds = args.seconds / 2.0;
        let plan = plan(traffic, args.seed, seconds);
        traced(traffic, args.seed, seconds, &plan, &mut report)?;
        return Ok(report);
    }
    let plan = plan(traffic, args.seed, args.seconds);

    // Set-up, repeated: dataset + skyline, checkpoint training and
    // round-trip, server bind. Every repeat must train identical bytes.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut first_blobs: Option<Vec<Vec<u8>>> = None;
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let inputs = serve_inputs(args.seed, mixed, &mut |train| train())?;
        let server = bind(&inputs)?;
        setup_s.push(t.elapsed().as_secs_f64());
        match &first_blobs {
            None => first_blobs = Some(inputs.blobs.clone()),
            Some(first) if *first != inputs.blobs => {
                report.fail("set-up trained different checkpoints from the same seed".into())
            }
            Some(_) => {}
        }
        if let Some((_, old)) = kept.replace((inputs, server)) {
            old.shutdown();
        }
    }
    let (inputs, server) = kept.expect("at least one set-up");
    note_inputs(&mut report, traffic, &inputs.data, &plan);

    let run = drive(traffic, server.addr(), &plan, args.seconds)?;
    server.shutdown();
    let c = check(&mut report, &inputs.data, &plan, &run, "run");
    report.note(format!("questions digest {}", digest_of(&c)));

    let served: Vec<f64> = c.endings.iter().flatten().map(|e| e.0 as f64).collect();
    let n = run.exchanges.len();
    report.set("setup_s", median(&setup_s), setup_s.len());
    report.set(
        "round_p50_ms",
        round_percentile(traffic, &run, args.seconds, 0.5),
        n,
    );
    report.set(
        "round_p99_ms",
        round_percentile(traffic, &run, args.seconds, 0.99),
        n,
    );
    report.set(
        "sessions_per_s",
        c.completed as f64 / run.elapsed_s,
        c.completed,
    );
    report.set("questions_mean", mean(&served), served.len());
    report.set(
        "certified_share",
        c.certified as f64 / c.completed.max(1) as f64,
        c.completed,
    );
    report.set(
        "ok_share",
        (c.attempted - c.failed) as f64 / c.attempted.max(1) as f64,
        c.attempted as usize,
    );
    Ok(report)
}

/// Segments of an open-loop run whose percentiles are combined by median.
const SEGMENTS: usize = 6;

/// Percentile `q` of the client-observed round latency. For the open loop
/// it is the median over [`SEGMENTS`] equal stretches of the run (by when
/// each request fell due) of each stretch's percentile: a burst of CPU
/// steal on the shared machine then moves one stretch, not the result,
/// while a slowdown of the server moves every stretch.
fn round_percentile(traffic: Traffic, run: &LoopResult, seconds: f64, q: f64) -> f64 {
    if traffic == Traffic::Interactive {
        let all: Vec<f64> = run.exchanges.iter().map(|e| e.client_ms).collect();
        return percentile(&all, q);
    }
    let mut parts = vec![Vec::new(); SEGMENTS];
    for e in &run.exchanges {
        let k = (e.due_s / seconds * SEGMENTS as f64) as usize;
        parts[k.min(SEGMENTS - 1)].push(e.client_ms);
    }
    let per_part: Vec<f64> = parts.iter().map(|p| percentile(p, q)).collect();
    median(&per_part)
}

fn note_inputs(report: &mut Report, traffic: Traffic, data: &Dataset, plan: &Plan) {
    let what = match traffic {
        Traffic::Interactive => format!(
            "interactive: closed loop, 1 connection, {} sessions per pass",
            plan.specs.len()
        ),
        Traffic::MixedPeak => format!(
            "mixed-peak: open loop at {MIXED_RATE} sessions/s, {MIXED_CONNS} connections, {} sessions ({} AA)",
            plan.specs.len(),
            plan.specs.iter().filter(|s| s.algo == AlgoKind::Aa).count()
        ),
    };
    report.note(format!(
        "{what}; dataset anti skyline {}x{}",
        data.len(),
        data.dim()
    ));
}

/// Server-side `(conn, req) → ms` from the `serve_round` events.
fn server_rounds(events: &[isrl_obs::Event]) -> BTreeMap<(u64, u64), f64> {
    let num = |e: &isrl_obs::Event, key: &str| {
        e.fields
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_f64())
    };
    events
        .iter()
        .filter(|e| e.name == "serve_round")
        .filter_map(|e| {
            Some((
                (num(e, "conn")? as u64, num(e, "req")? as u64),
                num(e, "ms")?,
            ))
        })
        .collect()
}

/// Mean µs per call of `f` over `items`, repeated until 20 ms are spent.
fn time_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || started.elapsed() < Duration::from_millis(20) {
        for item in items {
            f(item);
        }
        calls += items.len();
    }
    started.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Reports one algorithm's replay samples under `names`: open, answer,
/// provide-scan, top-1 scan, and utilities per round, in that order.
fn set_algo_ops(report: &mut Report, ops: &AlgoOps, names: [&'static str; 5]) {
    let samples = [
        &ops.open_us,
        &ops.answer_us,
        &ops.provide_us,
        &ops.scan_us,
        &ops.utilities,
    ];
    for (name, values) in names.into_iter().zip(samples) {
        report.set(name, mean(values), values.len());
    }
}

/// The traced run: the TCP run untraced and then again with the telemetry
/// sink on, an in-process replay of the same sessions, and a profile of the
/// set-up's checkpoint training.
fn traced(
    traffic: Traffic,
    seed: u64,
    seconds: f64,
    plan: &Plan,
    report: &mut Report,
) -> Result<(), String> {
    // Set-up once, with the checkpoint training under a profile scope (the
    // sink stays off, so the agents' per-episode scopes stay closed).
    let mut profile = (Vec::new(), Duration::ZERO);
    let inputs = serve_inputs(seed, traffic == Traffic::MixedPeak, &mut |train| {
        let t = Instant::now();
        isrl_obs::profile_begin();
        train();
        profile = (isrl_obs::profile_end(), t.elapsed());
    })?;
    report_layers(report, &profile.0, profile.1, inputs.train_episodes);
    report.set(
        "rl.updates_per_episode",
        inputs.updates as f64 / inputs.train_episodes as f64,
        inputs.train_episodes,
    );
    note_inputs(report, traffic, &inputs.data, plan);

    // 1. The TCP run with telemetry off, as in the end-to-end run.
    let server = bind(&inputs)?;
    let untraced = drive(traffic, server.addr(), plan, seconds)?;
    let stats: ServerStats = server.shutdown();
    let cu = check(report, &inputs.data, plan, &untraced, "untraced run");

    // 2. The same TCP run with the server's telemetry sink on.
    isrl_obs::reset();
    isrl_obs::set_enabled(true);
    let server = bind(&inputs)?;
    let traced = drive(traffic, server.addr(), plan, seconds);
    server.shutdown();
    let snapshot = isrl_obs::snapshot();
    let core_busy_ms: f64 = snapshot
        .spans
        .iter()
        .filter(|(path, _)| path == "serve_batch")
        .map(|(_, s)| s.total.as_secs_f64() * 1e3)
        .sum();
    let dropped = isrl_obs::counter_value(isrl_obs::DROPPED_COUNTER);

    // 3. The in-process replay, sink still on as in the traced server.
    let group = (stats.batch.sessions_scanned as f64 / stats.batch.calls.max(1) as f64)
        .round()
        .max(1.0) as usize;
    let served: Vec<SessionSpec> = plan
        .specs
        .iter()
        .zip(&cu.endings)
        .filter(|(_, r)| r.is_some())
        .map(|(s, _)| s.clone())
        .collect();
    let replayed = replay::sessions(&inputs.data, &inputs.policies, &served, REPLAY_MIN_S);
    let pumped = replay::pump(&inputs.data, &inputs.policies, &served, group);
    // A sink-on set-up: the LP warm-start counters of checkpoint training,
    // and proof that tracing leaves the trained bytes unchanged.
    isrl_obs::reset();
    let retrained = serve_inputs(seed, traffic == Traffic::MixedPeak, &mut |train| train());
    isrl_obs::set_enabled(false);
    report_warm_lp(report);
    let traced = traced?;
    let replayed = replayed?;
    let (pump_us, scans) = pumped?;
    if retrained?.blobs != inputs.blobs {
        report.fail("tracing changed the trained checkpoints".into());
    }

    let ct = check(report, &inputs.data, plan, &traced, "traced run");
    if dropped != 0 {
        report.fail(format!("the traced run dropped {dropped} telemetry events"));
    }
    // All three views of the same sessions must ask the same questions.
    if ct.endings != cu.endings {
        report.fail("traced and untraced runs ended their sessions differently".into());
    }
    let replay_endings: Vec<_> = cu.endings.iter().flatten().copied().collect();
    if replayed.endings != replay_endings {
        report.fail(
            "the in-process replay asked different questions than the TCP run; \
             its per-layer numbers would describe another program"
                .into(),
        );
    }
    report.note(format!("questions digest {}", digest_of(&cu)));

    // Wire residual: client time minus server-side time, per (conn, req).
    let server_ms = server_rounds(&snapshot.events);
    let mut residual = Vec::new();
    let (mut sum_client, mut sum_server) = (0.0, 0.0);
    for e in &traced.exchanges {
        match server_ms.get(&(e.conn, e.req)) {
            Some(&s) if e.client_ms.is_finite() => {
                residual.push(e.client_ms - s);
                sum_client += e.client_ms;
                sum_server += s;
            }
            _ => residual.push(f64::INFINITY),
        }
    }
    let server_all: Vec<f64> = server_ms.values().copied().collect();
    let client_t: Vec<f64> = traced.exchanges.iter().map(|e| e.client_ms).collect();
    let client_u: Vec<f64> = untraced.exchanges.iter().map(|e| e.client_ms).collect();
    let joined = residual.iter().filter(|r| r.is_finite()).count();
    if joined == 0 {
        report.fail("no client request joined a serve_round event".into());
    }
    let server_p50 = percentile(&server_all, 0.5);
    let compute_p50 = percentile(&replayed.compute_ms, 0.5);
    report.set(
        "serving.wire.residual_p50_ms",
        percentile(&residual, 0.5),
        residual.len(),
    );
    report.set(
        "serving.wire.residual_p99_ms",
        percentile(&residual, 0.99),
        residual.len(),
    );
    report.set("serving.server.round_p50_ms", server_p50, server_all.len());
    report.set(
        "serving.server.round_p99_ms",
        percentile(&server_all, 0.99),
        server_all.len(),
    );
    report.set(
        "serving.server.unattributed_p50_ms",
        server_p50 - compute_p50,
        server_all.len(),
    );
    let n = joined.max(1) as f64;
    report.budget(format!(
        "per request (mean of {joined} joined): client {:.4} ms = server {:.4} ms + wire residual {:.4} ms",
        sum_client / n,
        sum_server / n,
        (sum_client - sum_server) / n
    ));
    report.budget(format!(
        "p50: client {:.4} ms, server {server_p50:.4} ms, wire residual {:.4} ms (p50 of per-request residuals)",
        percentile(&client_t, 0.5),
        percentile(&residual, 0.5)
    ));
    report.budget(format!(
        "p50: server {server_p50:.4} ms = replay compute {compute_p50:.4} ms + unattributed {:.4} ms \
         (batch window, channel, encode, write)",
        server_p50 - compute_p50
    ));

    // Protocol layer, over the run's own frames.
    let server_frames: Vec<ServerFrame> = traced
        .server_lines
        .iter()
        .filter_map(|l| ServerFrame::parse(l).ok())
        .collect();
    let encode_us = time_per_item(&server_frames, |f| {
        std::hint::black_box(f.to_line());
    });
    let parse_us = time_per_item(&traced.client_lines, |l| {
        let _ = std::hint::black_box(ClientFrame::parse(l));
    });
    report.set("serving.protocol.encode_us", encode_us, server_frames.len());
    report.set(
        "serving.protocol.parse_us",
        parse_us,
        traced.client_lines.len(),
    );

    // Registry / batcher.
    let calls = stats.batch.calls.max(1) as f64;
    report.set(
        "serving.batch.sessions_per_call",
        stats.batch.sessions_scanned as f64 / calls,
        stats.batch.calls as usize,
    );
    report.set(
        "serving.batch.coalesced_share",
        stats.batch.coalesced as f64 / calls,
        stats.batch.calls as usize,
    );
    report.set("core.registry.pump_us_per_session", pump_us, scans);
    report.budget(format!(
        "registry replay in lockstep groups of {group} (observed sessions per call)"
    ));
    report.budget(format!(
        "core thread busy in serve_batch {:.1}% of the traced run ({} requests)",
        core_busy_ms / (traced.elapsed_s * 1e3) * 100.0,
        traced.exchanges.len()
    ));
    set_algo_ops(
        report,
        &replayed.ea,
        [
            "core.session.open_us.ea",
            "core.session.answer_us.ea",
            "core.session.provide_scan_us.ea",
            "data.top1_batch_us.ea",
            "data.top1_batch.utilities_per_round.ea",
        ],
    );
    set_algo_ops(
        report,
        &replayed.aa,
        [
            "core.session.open_us.aa",
            "core.session.answer_us.aa",
            "core.session.provide_scan_us.aa",
            "data.top1_batch_us.aa",
            "data.top1_batch.utilities_per_round.aa",
        ],
    );

    report.set(
        "loadgen.late_p99_ms",
        percentile(&untraced.late_ms, 0.99),
        untraced.late_ms.len(),
    );
    let base = percentile(&client_u, 0.5);
    report.set(
        "obs.trace_overhead_pct",
        (percentile(&client_t, 0.5) - base) / base * 100.0,
        client_t.len(),
    );
    Ok(())
}
