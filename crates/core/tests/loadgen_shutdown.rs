//! `run_loadgen` with `send_shutdown` must stop the server even when a
//! user fails: a caller blocked on the server (`isrl serve`, a CI job)
//! would otherwise wait forever.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use isrl_core::prelude::*;
use isrl_data::synthetic::{generate, Distribution};

#[test]
fn failed_user_still_shuts_the_server_down() {
    // The server holds only an EA policy, so an AA `hello` is rejected
    // with `UnsupportedAlgorithm` and the user fails.
    let data = Arc::new(generate(100, 3, Distribution::AntiCorrelated, 5));
    let policy = Arc::new(ServePolicy::Ea(EaAgent::new(
        3,
        EaConfig::paper_default().with_seed(3),
    )));
    let server = spawn_server(data, vec![policy], ServerConfig::default()).unwrap();

    let result = run_loadgen(&LoadgenConfig {
        addr: server.addr().to_string(),
        users: 1,
        concurrency: 1,
        algo: AlgoKind::Aa,
        send_shutdown: true,
        ..LoadgenConfig::default()
    });
    let err = result.expect_err("an AA user against an EA-only server must fail");
    assert!(err.contains("no aa policy"), "unexpected error: {err}");

    // Join on a helper thread so a server left running fails the test
    // instead of hanging it.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the server is still running 10 s after loadgen returned");
}
