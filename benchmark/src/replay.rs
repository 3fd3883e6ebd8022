//! In-process replay of the TCP run's sessions, timing each layer the
//! server's core thread calls into: `ServeSession::new`/`answer`/
//! `provide_scan`, `Dataset::top1_batch`, and `SessionRegistry::pump_all`.
//!
//! The replay asks the same users the same questions (same session seeds,
//! same oracle), so its question counts must equal the TCP run's; if they
//! do not, its numbers describe a different program and the run fails.

use std::sync::Arc;
use std::time::{Duration, Instant};

use isrl_core::serving::{AlgoKind, ServePolicy, ServeSession, SessionRegistry};
use isrl_data::Dataset;

use crate::workload::{SessionSpec, EPS};

/// Per-algorithm samples, one per call or per request as noted.
#[derive(Default)]
pub struct AlgoOps {
    /// `ServeSession::new`, per session.
    pub open_us: Vec<f64>,
    /// `ServeSession::answer`, per answer.
    pub answer_us: Vec<f64>,
    /// `provide_scan` calls, summed per request.
    pub provide_us: Vec<f64>,
    /// `Dataset::top1_batch` calls, summed per request.
    pub scan_us: Vec<f64>,
    /// Utility vectors scanned, per request.
    pub utilities: Vec<f64>,
}

/// How a replayed session ended: `(rounds, truncated, recommendation)`.
pub type Ending = (usize, bool, usize);

#[derive(Default)]
pub struct Replay {
    pub ea: AlgoOps,
    pub aa: AlgoOps,
    /// Compute per request (open or answer, plus scans and provides).
    pub compute_ms: Vec<f64>,
    /// One ending per session, in `specs` order (first pass).
    pub endings: Vec<Ending>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn policy_for(policies: &[Arc<ServePolicy>], algo: AlgoKind) -> Result<Arc<ServePolicy>, String> {
    policies
        .iter()
        .find(|p| p.algo() == algo)
        .cloned()
        .ok_or_else(|| format!("no {} policy", algo.as_str()))
}

/// Replays every session of `specs` in order, repeating passes until at
/// least `min_secs` have been spent, and checks every pass ends each
/// session the same way.
pub fn sessions(
    data: &Arc<Dataset>,
    policies: &[Arc<ServePolicy>],
    specs: &[SessionSpec],
    min_secs: f64,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let started = Instant::now();
    for pass in 0.. {
        if pass > 0 && started.elapsed().as_secs_f64() >= min_secs {
            break;
        }
        for (k, spec) in specs.iter().enumerate() {
            let ending = session(data, policies, spec, &mut out)?;
            if pass == 0 {
                out.endings.push(ending);
            } else if out.endings[k] != ending {
                return Err(format!(
                    "replay pass {pass} ended session {k} as {ending:?}, pass 0 as {:?}",
                    out.endings[k]
                ));
            }
        }
    }
    Ok(out)
}

fn session(
    data: &Arc<Dataset>,
    policies: &[Arc<ServePolicy>],
    spec: &SessionSpec,
    out: &mut Replay,
) -> Result<Ending, String> {
    let policy = policy_for(policies, spec.algo)?;
    let ops = match spec.algo {
        AlgoKind::Ea => &mut out.ea,
        AlgoKind::Aa => &mut out.aa,
    };
    let t = Instant::now();
    let mut s = ServeSession::new(policy, Arc::clone(data), EPS, spec.seed)
        .map_err(|e| format!("ServeSession::new: {e}"))?;
    let mut compute = t.elapsed();
    ops.open_us.push(us(compute));
    loop {
        let (mut scan, mut provide, mut n) = (Duration::ZERO, Duration::ZERO, 0usize);
        while let Some(utilities) = s.take_scan_utilities() {
            let t = Instant::now();
            let top1 = {
                // The same span the registry's scan runs under, so span
                // injection reaches the replay as it reaches the server.
                let _t = isrl_obs::span("top1");
                data.top1_batch(&utilities)
            };
            scan += t.elapsed();
            let t = Instant::now();
            s.provide_scan(&utilities, &top1);
            provide += t.elapsed();
            n += utilities.len();
        }
        ops.scan_us.push(us(scan));
        ops.provide_us.push(us(provide));
        ops.utilities.push(n as f64);
        out.compute_ms
            .push((compute + scan + provide).as_secs_f64() * 1e3);
        if s.is_finished() {
            break;
        }
        let (p, q) = s
            .current_points()
            .ok_or("an unfinished session after its scans has no question")?;
        let choice = spec.prefers(p, q);
        let t = Instant::now();
        s.answer(choice).map_err(|e| format!("answer: {e}"))?;
        compute = t.elapsed();
        ops.answer_us.push(us(compute));
    }
    let index = s
        .recommendation()
        .ok_or("a finished session has no recommendation")?;
    Ok((s.rounds(), s.truncated(), index))
}

/// Serves `specs` through one [`SessionRegistry`] in lockstep groups of
/// `group` sessions — the batch size the server was observed to run — and
/// returns µs of `pump_all` per session-scan it served.
pub fn pump(
    data: &Arc<Dataset>,
    policies: &[Arc<ServePolicy>],
    specs: &[SessionSpec],
    group: usize,
) -> Result<(f64, usize), String> {
    let mut registry = SessionRegistry::new(Arc::clone(data));
    for p in policies {
        registry.register(Arc::clone(p));
    }
    let (mut spent, mut scans) = (Duration::ZERO, 0usize);
    for chunk in specs.chunks(group.max(1)) {
        let mut open: Vec<(u64, &SessionSpec)> = Vec::with_capacity(chunk.len());
        for spec in chunk {
            let id = registry
                .open(spec.algo, EPS, spec.seed)
                .map_err(|e| format!("registry open: {e}"))?;
            open.push((id, spec));
        }
        while !open.is_empty() {
            let t = Instant::now();
            scans += registry.pump_all();
            spent += t.elapsed();
            let mut still = Vec::with_capacity(open.len());
            for (id, spec) in open {
                let session = registry.session(id).ok_or("registry lost a session")?;
                if session.is_finished() {
                    registry.close(id);
                    continue;
                }
                let (p, q) = session
                    .current_points()
                    .ok_or("a pumped session has no question")?;
                let choice = spec.prefers(p, q);
                registry
                    .answer(id, choice)
                    .map_err(|e| format!("registry answer: {e}"))?;
                still.push((id, spec));
            }
            open = still;
        }
    }
    Ok((us(spent) / scans.max(1) as f64, scans))
}
