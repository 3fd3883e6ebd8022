//! The session table and the cross-user scan batcher.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::serving::{AlgoKind, ServeError, ServePolicy, ServeSession};
use isrl_data::Dataset;

/// Counters of the cross-user batcher's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// `top1_batch` calls issued.
    pub calls: u64,
    /// Calls that coalesced scans from two or more sessions — the whole
    /// point of the batcher; the CI smoke test asserts this is nonzero
    /// under concurrent load.
    pub coalesced: u64,
    /// Session-scans served (one session's pending scan, any size).
    pub sessions_scanned: u64,
    /// Individual utility vectors scanned.
    pub utilities: u64,
}

/// Holds the live [`ServeSession`]s behind one shared dataset and policy
/// set, and pumps their pending dataset scans as coalesced
/// [`Dataset::top1_batch`] calls.
///
/// Batching is behavior-preserving because the scan is exact and
/// per-utility independent: each session receives exactly the top-1
/// results it would have computed alone, so question sequences are
/// independent of who else is being served (the session-isolation
/// differential test pins this).
pub struct SessionRegistry {
    data: Arc<Dataset>,
    policies: Vec<Arc<ServePolicy>>,
    sessions: BTreeMap<u64, ServeSession>,
    next_id: u64,
    batching: bool,
    stats: BatchStats,
}

impl SessionRegistry {
    /// An empty registry over `data`, with batching enabled.
    pub fn new(data: Arc<Dataset>) -> Self {
        Self {
            data,
            policies: Vec::new(),
            sessions: BTreeMap::new(),
            next_id: 1,
            batching: true,
            stats: BatchStats::default(),
        }
    }

    /// Disables (or re-enables) scan coalescing; sessions then scan one by
    /// one. Exists for the differential tests — batched and unbatched
    /// serving must be indistinguishable to every session.
    pub fn set_batching(&mut self, on: bool) {
        self.batching = on;
    }

    /// The shared dataset.
    pub fn data(&self) -> &Arc<Dataset> {
        &self.data
    }

    /// Registers a policy, replacing any previous one of the same
    /// algorithm.
    ///
    /// # Panics
    /// Panics on a policy/dataset dimension mismatch — a deployment error
    /// caught at startup, not per-session.
    pub fn register(&mut self, policy: Arc<ServePolicy>) {
        assert_eq!(
            policy.dim(),
            self.data.dim(),
            "policy/dataset dimension mismatch"
        );
        self.policies.retain(|p| p.algo() != policy.algo());
        self.policies.push(policy);
    }

    /// The registered policy for `algo`, if any.
    pub fn policy(&self, algo: AlgoKind) -> Option<&Arc<ServePolicy>> {
        self.policies.iter().find(|p| p.algo() == algo)
    }

    /// Opens a session on the registered `algo` policy and returns its id.
    /// The new session has a scan pending — it yields its first question
    /// (or finishes) on the next [`pump`](Self::pump).
    pub fn open(&mut self, algo: AlgoKind, eps: f64, seed: u64) -> Result<u64, ServeError> {
        let policy = self
            .policies
            .iter()
            .find(|p| p.algo() == algo)
            .cloned()
            .ok_or(ServeError::UnsupportedAlgorithm(algo))?;
        let session = ServeSession::new(policy, Arc::clone(&self.data), eps, seed)?;
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(id, session);
        isrl_obs::gauge_set("serve.active_sessions", self.sessions.len() as u64);
        Ok(id)
    }

    /// The session behind `id`, if live.
    pub fn session(&self, id: u64) -> Option<&ServeSession> {
        self.sessions.get(&id)
    }

    /// Delivers a user's answer to session `id`.
    pub fn answer(&mut self, id: u64, prefers_first: bool) -> Result<(), ServeError> {
        self.sessions
            .get_mut(&id)
            .ok_or(ServeError::UnknownSession(id))?
            .answer(prefers_first)
    }

    /// Removes and returns session `id` (typically once finished).
    pub fn close(&mut self, id: u64) -> Option<ServeSession> {
        let removed = self.sessions.remove(&id);
        if removed.is_some() {
            isrl_obs::gauge_set("serve.active_sessions", self.sessions.len() as u64);
        }
        removed
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no session is live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Cumulative batcher counters.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Serves every pending scan once: takes all waiting utility vectors
    /// (in session-id order), answers them — coalesced into a single
    /// `top1_batch` call when batching is on — and hands each session its
    /// slice. Returns the number of sessions scanned; EA sessions on the
    /// exact backend need two pumps per round, so drivers loop via
    /// [`pump_all`](Self::pump_all).
    pub fn pump(&mut self) -> usize {
        let mut pending: Vec<(u64, Vec<Vec<f64>>)> = Vec::new();
        for (&id, session) in self.sessions.iter_mut() {
            if let Some(utilities) = session.take_scan_utilities() {
                pending.push((id, utilities));
            }
        }
        if pending.is_empty() {
            return 0;
        }
        // Unbatched, every session's scan is a call of its own.
        let group = if self.batching { pending.len() } else { 1 };
        for chunk in pending.chunks(group) {
            let flat: Vec<&Vec<f64>> = chunk.iter().flat_map(|(_, u)| u.iter()).collect();
            let top1 = {
                let _t = isrl_obs::span("top1");
                self.data.top1_batch(&flat)
            };
            self.record_call(chunk.len(), flat.len());
            let mut offset = 0;
            for (id, utilities) in chunk {
                let slice = &top1[offset..offset + utilities.len()];
                offset += utilities.len();
                self.sessions
                    .get_mut(id)
                    .expect("pending session vanished mid-pump")
                    .provide_scan(utilities, slice);
            }
        }
        pending.len()
    }

    /// Pumps until no scan is pending (at most two iterations deep per
    /// round — EA's exact backend). Returns the total session-scans
    /// served.
    pub fn pump_all(&mut self) -> usize {
        let mut total = 0;
        loop {
            let n = self.pump();
            if n == 0 {
                return total;
            }
            total += n;
        }
    }

    fn record_call(&mut self, sessions: usize, utilities: usize) {
        self.stats.calls += 1;
        self.stats.sessions_scanned += sessions as u64;
        self.stats.utilities += utilities as u64;
        isrl_obs::add("serve.batch.calls", 1);
        isrl_obs::add("serve.batch.sessions", sessions as u64);
        isrl_obs::add("serve.batch.utilities", utilities as u64);
        // Live gauge: how many sessions shared this scan call — the
        // snapshotter's timeseries shows coalescing *during* a run, not
        // just in the shutdown stats.
        isrl_obs::gauge_set("serve.batch.window_occupancy", sessions as u64);
        if sessions >= 2 {
            self.stats.coalesced += 1;
            isrl_obs::add("serve.batch.coalesced", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ea::{EaAgent, EaConfig};
    use isrl_linalg::vector;

    fn data() -> Arc<Dataset> {
        Arc::new(Dataset::from_points(
            vec![
                vec![1.0, 0.05],
                vec![0.85, 0.4],
                vec![0.6, 0.65],
                vec![0.4, 0.85],
                vec![0.05, 1.0],
            ],
            2,
        ))
    }

    #[test]
    fn registry_serves_concurrent_sessions_to_completion() {
        let data = data();
        let mut registry = SessionRegistry::new(Arc::clone(&data));
        registry.register(Arc::new(ServePolicy::Ea(EaAgent::new(
            2,
            EaConfig::paper_default().with_seed(3),
        ))));
        let truths = [vec![0.3, 0.7], vec![0.55, 0.45], vec![0.8, 0.2]];
        let ids: Vec<u64> = (0..truths.len())
            .map(|u| registry.open(AlgoKind::Ea, 0.1, 40 + u as u64).unwrap())
            .collect();

        let mut done = 0;
        while done < ids.len() {
            registry.pump_all();
            done = 0;
            for (id, truth) in ids.iter().zip(&truths) {
                let session = registry.session(*id).unwrap();
                if session.is_finished() {
                    done += 1;
                } else if let Some((p, q)) = session
                    .current_points()
                    .map(|(a, b)| (a.to_vec(), b.to_vec()))
                {
                    let prefers = vector::dot(truth, &p) >= vector::dot(truth, &q);
                    registry.answer(*id, prefers).unwrap();
                }
            }
        }
        let stats = registry.stats();
        assert!(
            stats.coalesced > 0,
            "three in-lockstep sessions must coalesce: {stats:?}"
        );
        assert!(stats.utilities > stats.sessions_scanned);
        for id in ids {
            let s = registry.close(id).unwrap();
            assert!(s.recommendation().is_some());
            assert!(!s.truncated());
        }
        assert!(registry.is_empty());
    }

    #[test]
    fn open_rejects_missing_policy_and_bad_eps() {
        let mut registry = SessionRegistry::new(data());
        assert_eq!(
            registry.open(AlgoKind::Aa, 0.1, 1),
            Err(ServeError::UnsupportedAlgorithm(AlgoKind::Aa))
        );
        registry.register(Arc::new(ServePolicy::Ea(EaAgent::new(
            2,
            EaConfig::paper_default(),
        ))));
        assert_eq!(
            registry.open(AlgoKind::Ea, 0.0, 1),
            Err(ServeError::BadEpsilon(0.0))
        );
        assert_eq!(
            registry.answer(99, true),
            Err(ServeError::UnknownSession(99))
        );
    }
}
