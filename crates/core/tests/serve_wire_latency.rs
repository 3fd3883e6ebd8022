//! Wire-latency regression test for the TCP serve tier (DESIGN.md §14).
//!
//! A closed-loop client — one connection with `TCP_NODELAY`, every frame
//! in one write — plays one AA session of at least [`MIN_ROUNDS`] rounds
//! against [`spawn_server`] on loopback and times each request → reply
//! exchange. A round costs the server a few milliseconds of compute even
//! in a debug build, so the median exchange must stay under
//! [`MEDIAN_BOUND_MS`]: half of Linux's 40 ms minimum delayed-ACK timeout.
//! A server whose replies wait on the client's delayed ACK (a frame split
//! across two writes on a socket without `TCP_NODELAY`) pays ≥ 40 ms a
//! round and fails here.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use isrl_core::prelude::*;
use isrl_core::serving::protocol::{write_frame, ClientFrame, ServerFrame};
use isrl_data::synthetic::{generate, Distribution};
use isrl_linalg::vector;

/// Exchanges the session must take, so the median lies past the
/// connection's first few (Linux quick-ACKs those).
const MIN_ROUNDS: usize = 20;

/// Half of Linux's 40 ms minimum delayed-ACK timeout.
const MEDIAN_BOUND_MS: f64 = 20.0;

#[test]
fn closed_loop_round_is_not_held_by_the_wire() {
    // An untrained AA policy at a tight ε: 33 questions, each a small
    // scan over 100 points, so the round is nearly all wire.
    let data = Arc::new(generate(100, 4, Distribution::AntiCorrelated, 5));
    let agent = AaAgent::new(4, AaConfig::paper_default().with_seed(3));
    let policy = Arc::new(ServePolicy::from_checkpoint(&save_aa(&agent)).unwrap());
    let server = spawn_server(data, vec![policy], ServerConfig::default()).unwrap();

    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let truth = [1.0, 2.0, 3.0, 4.0];
    let mut frame = ClientFrame::Hello {
        algo: AlgoKind::Aa,
        eps: 0.001,
        seed: 3,
    };
    let mut round_ms = Vec::new();
    loop {
        let sent = Instant::now();
        write_frame(&mut writer, frame.to_line()).unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        round_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        match ServerFrame::parse(line.trim_end()).unwrap() {
            ServerFrame::Question {
                session,
                round,
                req,
                option1,
                option2,
                ..
            } => {
                frame = ClientFrame::Answer {
                    session,
                    round,
                    choice: vector::dot(&truth, &option1) >= vector::dot(&truth, &option2),
                    req: Some(req),
                };
            }
            ServerFrame::Done { .. } => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    write_frame(&mut writer, ClientFrame::Shutdown.to_line()).unwrap();
    server.join();

    assert!(
        round_ms.len() >= MIN_ROUNDS,
        "the session took only {} rounds; the median needs {MIN_ROUNDS}",
        round_ms.len()
    );
    round_ms.sort_by(f64::total_cmp);
    let median = round_ms[round_ms.len() / 2];
    assert!(
        median < MEDIAN_BOUND_MS,
        "median round {median:.2} ms over {} rounds (want < {MEDIAN_BOUND_MS} ms): {round_ms:?}",
        round_ms.len()
    );
}
