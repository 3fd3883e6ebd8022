//! End-to-end checks of the benchmark binary: determinism, clean failure,
//! and the attribution drills.
//!
//! The drills slow one span with `ISRL_SLOW_SPAN=<leaf>:<ms>` (a busy-wait
//! that pads every live span of that name to at least `<ms>`) and require
//! the traced run to charge the slowdown to the right layer and no other.
//! Run them with an optimized build:
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::process::{Command, Output};
use std::sync::Mutex;

use isrl_obs::json::{self, Json};

/// The runs time real work on a small machine: one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

struct Run {
    code: Option<i32>,
    stdout: String,
    metrics: BTreeMap<String, f64>,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        *self
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("no metric {name} in:\n{}", self.stdout))
    }

    /// The first line starting with `prefix`.
    fn line(&self, prefix: &str) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no line {prefix:?} in:\n{}", self.stdout))
    }
}

/// Runs the benchmark binary, one run at a time, with `ISRL_SLOW_SPAN`
/// set to `slow` if given.
fn bench(workload: &str, seed: &str, seconds: &str, trace: &str, slow: Option<&str>) -> Run {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_isrl-benchmark"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        seconds,
        "--trace",
        trace,
    ])
    .env_remove("ISRL_SLOW_SPAN");
    if let Some(spec) = slow {
        cmd.env("ISRL_SLOW_SPAN", spec);
    }
    let Output { status, stdout, .. } = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8(stdout).expect("utf-8 output");
    let mut metrics = BTreeMap::new();
    if let Some(Ok(doc)) = stdout.lines().last().map(json::parse) {
        if let Some(Json::Obj(fields)) = doc.get("metrics") {
            for (name, m) in fields {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                metrics.insert(name.clone(), value);
            }
        }
    }
    Run {
        code: status.code(),
        stdout,
        metrics,
    }
}

/// [`bench`], which must succeed.
fn run(workload: &str, seed: &str, seconds: &str, trace: &str, slow: Option<&str>) -> Run {
    let r = bench(workload, seed, seconds, trace, slow);
    assert_eq!(r.code, Some(0), "run failed:\n{}", r.stdout);
    r
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let r = bench("nope", "1", "1", "0", None);
    assert_ne!(r.code, Some(0));
    assert!(r.metrics.is_empty(), "printed a result:\n{}", r.stdout);
}

#[test]
fn same_seed_asks_the_same_questions() {
    let a = run("mixed-peak", "4", "2", "0", None);
    let b = run("mixed-peak", "4", "2", "0", None);
    assert_eq!(a.line("# questions digest"), b.line("# questions digest"));
    let c = run("mixed-peak", "5", "2", "0", None);
    assert_ne!(a.line("# questions digest"), c.line("# questions digest"));
}

/// Slowing `lp` must raise `train.self_ms_per_episode.lp` to about the
/// padded duration of every `lp` span, while the other layers hold.
#[test]
fn lp_slowdown_is_charged_to_lp() {
    const PAD_MS: f64 = 0.1;
    let base = run("train-aa-d20", "3", "1", "1", None);
    let slow = run("train-aa-d20", "3", "1", "1", Some("lp:0.1"));
    let calls: f64 = base
        .line("budget  train span calls per episode:")
        .split_whitespace()
        .find_map(|w| w.strip_prefix("lp="))
        .and_then(|v| v.parse().ok())
        .expect("lp call count");
    let expected = calls * PAD_MS;
    let lp = slow.metric("train.self_ms_per_episode.lp");
    assert!(
        lp > 0.9 * expected && lp < expected + base.metric("train.self_ms_per_episode.lp") * 1.5,
        "lp self time {lp:.2} ms/episode, expected about {expected:.2} ({calls} calls × {PAD_MS} ms)"
    );
    for layer in ["dqn_train", "top1", "sampling"] {
        let name = format!("train.self_ms_per_episode.{layer}");
        let (b, s) = (base.metric(&name), slow.metric(&name));
        assert!(
            (s - b).abs() < 0.5 * b.max(1.0),
            "{name} moved from {b:.3} to {s:.3} ms/episode under an lp slowdown"
        );
    }
}

/// Slowing `top1` must raise the server-side round time, and the scan in
/// the replay, but leave the wire residual alone.
#[test]
fn top1_slowdown_is_charged_to_the_server_not_the_wire() {
    let base = run("interactive", "3", "2", "1", None);
    let slow = run("interactive", "3", "2", "1", Some("top1:5"));
    let server = |r: &Run| r.metric("serving.server.round_p50_ms");
    let wire = |r: &Run| r.metric("serving.wire.residual_p50_ms");
    let scan = |r: &Run| r.metric("data.top1_batch_us.ea");
    assert!(
        server(&slow) > server(&base) + 4.0,
        "server p50 {:.3} → {:.3} ms",
        server(&base),
        server(&slow)
    );
    assert!(
        (wire(&slow) - wire(&base)).abs() < 2.0,
        "wire residual p50 {:.3} → {:.3} ms",
        wire(&base),
        wire(&slow)
    );
    assert!(
        scan(&slow) > scan(&base) + 4000.0,
        "replay scan {:.1} → {:.1} us per request",
        scan(&base),
        scan(&slow)
    );
}
