//! The load generator: a well-behaved protocol client.
//!
//! Its latency should be the server's, so the client sets `TCP_NODELAY`,
//! sends every frame with a single write, and echoes `req`. (`isrl
//! loadgen` writes each frame in two pieces, which let Nagle's algorithm
//! and delayed ACKs double the measured stall from ~44 ms to ~88 ms.)
//! Sessions share connections: frames carry `session`, and the replies to
//! one connection's `hello`s arrive in the order the `hello`s were sent.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use isrl_core::serving::protocol::{ClientFrame, ServerFrame};

use crate::workload::{SessionSpec, EPS};

/// A request with no reply after this long fails the session.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Frames kept per run for the protocol-layer timing.
const FRAME_SAMPLE: usize = 4096;

/// One request/reply exchange.
#[derive(Clone, Copy, Debug)]
pub struct Exchange {
    /// Connection and request ids from the reply frame (0 when none came).
    pub conn: u64,
    pub req: u64,
    /// When the request fell due, in seconds from the start of the run.
    pub due_s: f64,
    /// Reply time minus the time the request was due; infinite when the
    /// request failed or timed out.
    pub client_ms: f64,
}

/// How one session ended.
#[derive(Clone, Debug)]
pub struct SessionResult {
    /// Index of the session's [`SessionSpec`].
    pub k: usize,
    pub rounds: usize,
    pub truncated: bool,
    /// Dataset index of the recommended tuple.
    pub index: usize,
    /// Why the session failed (error frame, disconnect, timeout).
    pub error: Option<String>,
}

/// Everything one load-generation run observed.
#[derive(Default)]
pub struct LoopResult {
    pub exchanges: Vec<Exchange>,
    /// How late each request was written after it fell due.
    pub late_ms: Vec<f64>,
    pub sessions: Vec<SessionResult>,
    /// From the first send to the last completion.
    pub elapsed_s: f64,
    /// Samples of the run's own frames, for the protocol-layer timing.
    pub client_lines: Vec<String>,
    pub server_lines: Vec<String>,
}

impl LoopResult {
    fn merge(&mut self, other: LoopResult) {
        self.exchanges.extend(other.exchanges);
        self.late_ms.extend(other.late_ms);
        self.sessions.extend(other.sessions);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        let room = FRAME_SAMPLE.saturating_sub(self.client_lines.len());
        self.client_lines
            .extend(other.client_lines.into_iter().take(room));
        let room = FRAME_SAMPLE.saturating_sub(self.server_lines.len());
        self.server_lines
            .extend(other.server_lines.into_iter().take(room));
    }

    fn keep_frames(&mut self, client: Option<&str>, server: Option<&str>) {
        if let Some(line) = client.filter(|_| self.client_lines.len() < FRAME_SAMPLE) {
            self.client_lines.push(line.to_string());
        }
        if let Some(line) = server.filter(|_| self.server_lines.len() < FRAME_SAMPLE) {
            self.server_lines.push(line.to_string());
        }
    }
}

/// A client connection with its own line buffer, so a read timeout never
/// loses a partial line.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one frame as one write; returns the line (without newline).
    fn send(&mut self, frame: &ClientFrame) -> Result<String, String> {
        let mut line = frame.to_line();
        line.push('\n');
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        line.pop();
        Ok(line)
    }

    /// The next complete line, or `None` once `deadline` passes first.
    fn recv_line(&mut self, deadline: Instant) -> Result<Option<String>, String> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop();
                return String::from_utf8(line)
                    .map(Some)
                    .map_err(|_| "server sent invalid UTF-8".to_string());
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some((deadline - now).max(Duration::from_micros(50))))
                .map_err(|e| format!("set_read_timeout: {e}"))?;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

fn hello(spec: &SessionSpec) -> ClientFrame {
    ClientFrame::Hello {
        algo: spec.algo,
        eps: EPS,
        seed: spec.seed,
    }
}

fn failed(k: usize, why: String) -> SessionResult {
    SessionResult {
        k,
        rounds: 0,
        truncated: false,
        index: 0,
        error: Some(why),
    }
}

/// What a reply frame means for its session.
enum Step {
    /// Answer this question next.
    Answer(ClientFrame),
    /// The session ended.
    End(SessionResult),
}

/// Handles one reply for session `k`: the answer to send back, or how the
/// session ended. Returns the reply's `(conn, req)` too.
fn step(spec: &SessionSpec, k: usize, frame: ServerFrame) -> ((u64, u64), Step) {
    match frame {
        ServerFrame::Question {
            conn,
            session,
            round,
            req,
            option1,
            option2,
        } => (
            (conn, req),
            Step::Answer(ClientFrame::Answer {
                session,
                round,
                choice: spec.prefers(&option1, &option2),
                req: Some(req),
            }),
        ),
        ServerFrame::Done {
            conn,
            req,
            rounds,
            index,
            truncated,
            ..
        } => (
            (conn, req),
            Step::End(SessionResult {
                k,
                rounds: rounds as usize,
                truncated,
                index: index as usize,
                error: None,
            }),
        ),
        ServerFrame::Error {
            conn,
            code,
            message,
            ..
        } => (
            (conn, 0),
            Step::End(failed(k, format!("error frame [{code}]: {message}"))),
        ),
        ServerFrame::Stats { .. } => ((0, 0), Step::End(failed(k, "stray stats frame".into()))),
    }
}

/// Closed loop over one connection: one session at a time, each question
/// answered at once, the next `hello` only after `done`. Cycles through
/// `specs` in passes until `seconds` have elapsed, always finishing the
/// first pass. A timeout ends the run (the connection's state is unknown).
pub fn closed_loop(
    addr: SocketAddr,
    specs: &[SessionSpec],
    seconds: f64,
) -> Result<LoopResult, String> {
    let mut conn = Conn::connect(addr)?;
    let mut out = LoopResult::default();
    let started = Instant::now();
    'passes: for pass in 0.. {
        for (k, spec) in specs.iter().enumerate() {
            if pass > 0 && started.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            let mut due = Instant::now();
            let mut line = conn.send(&hello(spec))?;
            out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            loop {
                let Some(reply) = conn.recv_line(due + REQUEST_TIMEOUT)? else {
                    out.exchanges.push(Exchange {
                        conn: 0,
                        req: 0,
                        due_s: due.duration_since(started).as_secs_f64(),
                        client_ms: f64::INFINITY,
                    });
                    out.sessions.push(failed(k, "request timed out".into()));
                    break 'passes;
                };
                let received = Instant::now();
                out.keep_frames(Some(&line), Some(&reply));
                let frame =
                    ServerFrame::parse(&reply).map_err(|e| format!("bad server frame: {e}"))?;
                let ((c, req), next) = step(spec, k, frame);
                out.exchanges.push(Exchange {
                    conn: c,
                    req,
                    due_s: due.duration_since(started).as_secs_f64(),
                    client_ms: match &next {
                        Step::End(r) if r.error.is_some() => f64::INFINITY,
                        _ => received.duration_since(due).as_secs_f64() * 1e3,
                    },
                });
                match next {
                    Step::Answer(answer) => {
                        due = received;
                        line = conn.send(&answer)?;
                        out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                    }
                    Step::End(result) => {
                        out.sessions.push(result);
                        break;
                    }
                }
            }
        }
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    Ok(out)
}

/// A session in flight on an open-loop connection.
struct Live {
    k: usize,
    /// When the session's outstanding request fell due.
    due: Instant,
}

/// Open loop: session `k` says `hello` at `start + arrivals[k]`, whatever
/// the server's state. Connection `c` of `conns` owns the arrivals
/// `k ≡ c (mod conns)` and waits on its socket with a read timeout set to
/// its next due send. Every reply is timed from when its request was due.
pub fn open_loop(
    addr: SocketAddr,
    specs: &[SessionSpec],
    arrivals: &[Duration],
    conns: usize,
) -> Result<LoopResult, String> {
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<LoopResult, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<usize> = (c..specs.len()).step_by(conns).collect();
                scope.spawn(move || open_conn(addr, specs, arrivals, &mine, start))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut out = LoopResult::default();
    for r in results {
        out.merge(r?);
    }
    out.sessions.sort_by_key(|s| s.k);
    Ok(out)
}

fn open_conn(
    addr: SocketAddr,
    specs: &[SessionSpec],
    arrivals: &[Duration],
    mine: &[usize],
    start: Instant,
) -> Result<LoopResult, String> {
    let mut conn = Conn::connect(addr)?;
    let mut out = LoopResult::default();
    let mut next = 0usize;
    // Sessions whose `hello` awaits its first reply, in send order.
    let mut opening: VecDeque<Live> = VecDeque::new();
    let mut live: BTreeMap<u64, Live> = BTreeMap::new();
    let mut last_done = start;
    loop {
        let now = Instant::now();
        while next < mine.len() && start + arrivals[mine[next]] <= now {
            let k = mine[next];
            let due = start + arrivals[k];
            let line = conn.send(&hello(&specs[k]))?;
            out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            out.keep_frames(Some(&line), None);
            opening.push_back(Live { k, due });
            next += 1;
        }
        if next == mine.len() && opening.is_empty() && live.is_empty() {
            break;
        }
        // A request overdue past the timeout means the server stalled:
        // every session still open on this connection fails.
        let oldest = opening.iter().chain(live.values()).map(|l| l.due).min();
        if oldest.is_some_and(|d| now.duration_since(d) > REQUEST_TIMEOUT) {
            for l in opening
                .drain(..)
                .chain(std::mem::take(&mut live).into_values())
            {
                out.sessions.push(failed(l.k, "request timed out".into()));
                out.exchanges.push(Exchange {
                    conn: 0,
                    req: 0,
                    due_s: l.due.duration_since(start).as_secs_f64(),
                    client_ms: f64::INFINITY,
                });
            }
            for &k in &mine[next..] {
                out.sessions
                    .push(failed(k, "not sent: the server stalled".into()));
            }
            break;
        }
        let deadline = match mine.get(next) {
            Some(&k) => start + arrivals[k],
            None => oldest.map_or(now, |d| d + REQUEST_TIMEOUT),
        };
        let Some(reply) = conn.recv_line(deadline)? else {
            continue;
        };
        let received = Instant::now();
        out.keep_frames(None, Some(&reply));
        let frame = ServerFrame::parse(&reply).map_err(|e| format!("bad server frame: {e}"))?;
        let session = match &frame {
            ServerFrame::Question { session, .. } | ServerFrame::Done { session, .. } => {
                Some(*session)
            }
            ServerFrame::Error { session, .. } => *session,
            ServerFrame::Stats { .. } => None,
        };
        // A session's first reply answers the oldest outstanding `hello`.
        let (sid, l) = match session.and_then(|s| live.remove(&s).map(|l| (s, l))) {
            Some(found) => found,
            None => {
                let l = opening
                    .pop_front()
                    .ok_or_else(|| format!("reply for no outstanding session: {reply}"))?;
                (session.unwrap_or(0), l)
            }
        };
        let ((c, req), next_step) = step(&specs[l.k], l.k, frame);
        out.exchanges.push(Exchange {
            conn: c,
            req,
            due_s: l.due.duration_since(start).as_secs_f64(),
            client_ms: match &next_step {
                Step::End(r) if r.error.is_some() => f64::INFINITY,
                _ => received.duration_since(l.due).as_secs_f64() * 1e3,
            },
        });
        match next_step {
            Step::Answer(answer) => {
                let line = conn.send(&answer)?;
                out.late_ms.push(received.elapsed().as_secs_f64() * 1e3);
                out.keep_frames(Some(&line), None);
                live.insert(
                    sid,
                    Live {
                        k: l.k,
                        due: received,
                    },
                );
            }
            Step::End(result) => {
                last_done = received;
                out.sessions.push(result);
            }
        }
    }
    out.elapsed_s = last_done.duration_since(start).as_secs_f64();
    Ok(out)
}
