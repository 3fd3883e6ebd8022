//! Metric names, units, summary statistics, and the result line.

use std::collections::BTreeMap;

use isrl_obs::json::Json;

/// End-to-end metrics, `(name, unit)`: what a user of the system sees.
/// Printed by every `--trace 0` run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("round_p50_ms", "ms"),
    ("round_p99_ms", "ms"),
    ("sessions_per_s", "1/s"),
    ("questions_mean", "count"),
    ("certified_share", "share"),
    ("ok_share", "share"),
];

/// Per-layer metrics, `(name, unit)`, printed by every `--trace 1` run. A
/// layer a workload does not pass through reads 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serving.wire.residual_p50_ms", "ms"),
    ("serving.wire.residual_p99_ms", "ms"),
    ("serving.server.round_p50_ms", "ms"),
    ("serving.server.round_p99_ms", "ms"),
    ("serving.server.unattributed_p50_ms", "ms"),
    ("serving.protocol.encode_us", "us"),
    ("serving.protocol.parse_us", "us"),
    ("serving.batch.sessions_per_call", "count"),
    ("serving.batch.coalesced_share", "share"),
    ("core.registry.pump_us_per_session", "us"),
    ("core.session.open_us.ea", "us"),
    ("core.session.open_us.aa", "us"),
    ("core.session.answer_us.ea", "us"),
    ("core.session.answer_us.aa", "us"),
    ("core.session.provide_scan_us.ea", "us"),
    ("core.session.provide_scan_us.aa", "us"),
    ("data.top1_batch_us.ea", "us"),
    ("data.top1_batch_us.aa", "us"),
    ("data.top1_batch.utilities_per_round.ea", "count"),
    ("data.top1_batch.utilities_per_round.aa", "count"),
    ("train.self_ms_per_episode.lp", "ms"),
    ("train.self_ms_per_episode.dqn_train", "ms"),
    ("train.self_ms_per_episode.top1", "ms"),
    ("train.self_ms_per_episode.sampling", "ms"),
    ("train.self_ms_per_episode.nn", "ms"),
    ("train.self_ms_per_episode.geom_update", "ms"),
    ("train.unattributed_ms_per_episode", "ms"),
    ("rl.updates_per_episode", "count"),
    ("geometry.lp.warm_hit_rate", "share"),
    ("loadgen.late_p99_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`). Infinite values
/// — failed or timed-out requests — sort above every finite one, so they
/// count as beyond every percentile.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (the nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a digest of a sequence of per-session question counts.
pub fn digest(counts: &[usize]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in counts {
        for b in (c as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Metric name → (value, sample count).
    metrics: BTreeMap<&'static str, (f64, usize)>,
    /// Reconciliation and residual rows, printed as they are.
    budget: Vec<String>,
    /// Informational lines (digests, pinned parameters).
    notes: Vec<String>,
    /// Failed correctness checks.
    failures: Vec<String>,
    /// Sessions (or episodes) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a metric; `name` must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, (value, samples));
    }

    /// Adds a budget/reconciliation row.
    pub fn budget(&mut self, line: String) {
        self.budget.push(line);
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// `true` when every check passed and at least one session ran.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// Prints the human-readable table, then the result object as the last
    /// line. A listed metric the run did not record reads 0 with n = 0.
    pub fn print(&self, trace: bool) {
        let listed = if trace { PER_LAYER } else { END_TO_END };
        for line in &self.notes {
            println!("# {line}");
        }
        println!(
            "{:<42} {:>14} {:<6} {:>8}",
            "metric", "value", "unit", "samples"
        );
        let mut fields = Vec::with_capacity(listed.len());
        for &(name, unit) in listed {
            let (value, n) = self.metrics.get(name).copied().unwrap_or((0.0, 0));
            let value = if value.is_finite() { value } else { f64::MAX };
            println!("{name:<42} {value:>14.4} {unit:<6} {n:>8}");
            fields.push((
                name.to_string(),
                Json::obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), unit.into()),
                ]),
            ));
        }
        if trace {
            for line in &self.budget {
                println!("budget  {line}");
            }
        }
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let result = Json::obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), self.attempted.into()),
            ("failed".into(), self.failed.into()),
            ("metrics".into(), Json::Obj(fields)),
        ]);
        println!("{result}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric under `key` in `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = isrl_obs::json::parse(&text).expect("BENCHMARK.json is JSON");
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn failed_requests_sort_beyond_every_percentile() {
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(f64::INFINITY);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), f64::INFINITY);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_depends_on_order_and_counts() {
        assert_eq!(digest(&[3, 4]), digest(&[3, 4]));
        assert_ne!(digest(&[3, 4]), digest(&[4, 3]));
        assert_ne!(digest(&[3, 4]), digest(&[3, 4, 0]));
    }
}
