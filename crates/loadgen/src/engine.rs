//! The load generator's client engine: every connection of every run is
//! driven by a reactor loop.
//!
//! Each of `client_threads` threads owns its share of the connections on
//! its own [`Reactor`], drives them non-blocking through the [`Conn`]
//! state machine, and keeps up to `window` requests in flight per
//! connection. The load shapes are parameters of the one loop:
//!
//! * **closed loop** — window 1: a connection's next request leaves when
//!   the reply to its previous one lands;
//! * **pipelined** — window `w`;
//! * **open loop** — a [`Pacing`] schedule gives every request an
//!   intended-start time, and a request leaves no earlier than that (and
//!   only while its connection's window has room). Latency is measured
//!   from the *intended* start, not the actual send — the standard
//!   coordinated-omission correction: a client that falls behind schedule
//!   charges the queueing it caused to the requests that suffered it. The
//!   gap between actual and intended send is recorded as *send lag*.
//!
//! Without a schedule a request's intended start is its send time, so
//! latency is the plain send-to-reply time and no send lag is recorded.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;

use wmlp_core::conn::{Conn, ConnError};
use wmlp_core::instance::Request;
use wmlp_core::net::{Event, Interest, Reactor, Token};
use wmlp_core::wire::request_frame;

use crate::client::{ClientError, ConnOutcome, PutValues};
use crate::timing::Clock;

/// An open-loop arrival process shared by all `conns` connections of a
/// run: request `g` of the round-robin-interleaved trace is intended to
/// leave `g × interval_ns` after the clock's epoch, whichever connection
/// owns it — one global arrival process split across sockets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pacing {
    /// Nanoseconds between consecutive intended starts (1e9 / rate).
    pub(crate) interval_ns: f64,
    /// Connections the trace is dealt across.
    pub(crate) conns: usize,
}

impl Pacing {
    /// Intended start of request `j` on connection `c`, which is request
    /// `c + j × conns` of the interleaved trace.
    fn due(&self, c: usize, j: usize) -> u64 {
        ((c + j * self.conns) as f64 * self.interval_ns) as u64
    }
}

/// One connection: its socket, protocol state, progress through its
/// request slice, and the intended starts of in-flight requests (replies
/// arrive in request order, so a FIFO pairs them up).
struct EngineConn<'a> {
    /// Index of this connection in the run (its position in the trace
    /// interleaving).
    index: usize,
    stream: TcpStream,
    conn: Conn,
    reqs: &'a [Request],
    sent: usize,
    received: usize,
    intended: VecDeque<u64>,
    interest: Interest,
    outcome: ConnOutcome,
    failed: Option<ClientError>,
}

impl<'a> EngineConn<'a> {
    fn done(&self) -> bool {
        self.failed.is_some() || self.received >= self.reqs.len()
    }

    fn window_open(&self, window: usize) -> bool {
        self.sent < self.reqs.len() && self.sent - self.received < window
    }

    /// Intended start of the next request, if the connection is paced
    /// and its window has room for it.
    fn next_due(&self, load: Load) -> Option<u64> {
        let pacing = load.pacing?;
        self.window_open(load.window)
            .then(|| pacing.due(self.index, self.sent))
    }

    /// Enqueue requests until the window fills, the slice ends, or (when
    /// paced) the next request is not yet due.
    fn top_up(&mut self, load: Load, value: &mut Vec<u8>) {
        let now = load.clock.now_nanos();
        while self.window_open(load.window) {
            let intended = match load.pacing {
                Some(p) => {
                    let due = p.due(self.index, self.sent);
                    if due > now {
                        break;
                    }
                    self.outcome.send_lag.record(now - due);
                    due
                }
                None => now,
            };
            let req = self.reqs[self.sent];
            if req.level == 1 {
                load.puts.fill(req.page, value);
            } else {
                value.clear();
            }
            self.intended.push_back(intended);
            self.conn.enqueue(&request_frame(req, value));
            self.sent += 1;
        }
    }

    /// Decode every buffered reply, timing and tallying each.
    fn drain_replies(&mut self, clock: Clock) {
        let now = clock.now_nanos();
        while self.received < self.sent {
            match self.conn.next_frame() {
                Ok(Some(frame)) => {
                    let intended = self.intended.pop_front().unwrap_or_default();
                    self.outcome.hist.record(now.saturating_sub(intended));
                    self.received += 1;
                    if let Err(e) = self.outcome.record_reply(frame) {
                        self.failed = Some(e);
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    self.failed = Some(ClientError::Conn(ConnError::from(e)));
                    return;
                }
            }
        }
    }

    /// Read until `EAGAIN`/EOF, decoding replies as they land.
    fn service_read(&mut self, clock: Clock) {
        loop {
            self.drain_replies(clock);
            if self.done() {
                return;
            }
            match self.stream.read(self.conn.recv_space()) {
                Ok(0) => {
                    self.drain_replies(clock);
                    if !self.done() {
                        self.failed = Some(ClientError::Conn(ConnError::Closed));
                    }
                    return;
                }
                Ok(n) => self.conn.recv_commit(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.failed = Some(ClientError::Io {
                        what: "read failed".into(),
                        source: e,
                    });
                    return;
                }
            }
        }
    }

    /// Write pending outbound bytes until `EAGAIN` or the buffer empties.
    fn flush(&mut self) {
        while self.failed.is_none() && self.conn.wants_write() {
            match self.stream.write(self.conn.pending()) {
                Ok(0) => {
                    self.failed = Some(ClientError::Conn(ConnError::Closed));
                }
                Ok(n) => self.conn.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.failed = Some(ClientError::Io {
                        what: "write failed".into(),
                        source: e,
                    });
                }
            }
        }
    }
}

/// The per-thread settings of a run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Load {
    /// Per-connection in-flight window (≥ 1; 1 = closed loop).
    pub(crate) window: usize,
    /// The open-loop schedule, or `None` to send as fast as the window
    /// allows.
    pub(crate) pacing: Option<Pacing>,
    /// PUT payloads for level-1 requests.
    pub(crate) puts: PutValues,
    /// The run's shared clock: schedules and latencies are on it.
    pub(crate) clock: Clock,
}

/// After a connection has been read or written: keep its pipeline full,
/// then either re-arm its interest or, once it is done, close it and
/// return its result.
fn settle(
    reactor: &Reactor,
    token: usize,
    slot: &mut Option<EngineConn<'_>>,
    load: Load,
    value: &mut Vec<u8>,
) -> Option<Result<ConnOutcome, ClientError>> {
    let ec = slot.as_mut()?;
    if !ec.done() {
        ec.top_up(load, value);
        ec.flush();
    }
    if !ec.done() {
        let desired = Interest {
            readable: true,
            writable: ec.conn.wants_write(),
        };
        if desired == ec.interest {
            return None;
        }
        match reactor.reregister(ec.stream.as_raw_fd(), Token(token as u64), desired) {
            Ok(()) => {
                ec.interest = desired;
                return None;
            }
            Err(e) => {
                ec.failed = Some(ClientError::Io {
                    what: "re-arm connection".into(),
                    source: e,
                });
            }
        }
    }
    let ec = slot.take()?;
    let _ = reactor.deregister(ec.stream.as_raw_fd());
    let _ = ec.stream.shutdown(Shutdown::Both);
    Some(match ec.failed {
        Some(e) => Err(e),
        None => Ok(ec.outcome),
    })
}

/// How long the reactor may sleep: until the earliest paced request is
/// due, forever when nothing is paced, and not at all when that due time
/// is under a millisecond away (epoll's timeout resolution), so paced
/// sends keep sub-millisecond precision by polling.
fn wait_timeout(conns: &[Option<EngineConn<'_>>], load: Load) -> i32 {
    if load.pacing.is_none() {
        return -1;
    }
    let next = conns
        .iter()
        .flatten()
        .filter_map(|ec| ec.next_due(load))
        .min();
    match next {
        None => -1,
        Some(due) => {
            let ahead = due.saturating_sub(load.clock.now_nanos());
            i32::try_from(ahead / 1_000_000).unwrap_or(i32::MAX)
        }
    }
}

/// Drive `slices` (`(connection index, requests)` pairs) against `addr`
/// from a single thread: connect everything, then multiplex sends and
/// reads over one reactor until every connection has all its replies (or
/// failed). Returns one outcome per slice, in slice order.
pub(crate) fn run_thread(
    addr: SocketAddr,
    slices: &[(usize, &[Request])],
    load: Load,
) -> Vec<Result<ConnOutcome, ClientError>> {
    let load = Load {
        window: load.window.max(1),
        ..load
    };
    let reactor = match Reactor::new() {
        Ok(r) => r,
        Err(e) => {
            let fail = |_: &(usize, &[Request])| {
                Err(ClientError::Io {
                    what: "create reactor".into(),
                    source: io::Error::new(e.kind(), e.to_string()),
                })
            };
            return slices.iter().map(fail).collect();
        }
    };
    let mut value = Vec::new();
    let mut conns: Vec<Option<EngineConn<'_>>> = Vec::with_capacity(slices.len());
    let mut results: Vec<Option<Result<ConnOutcome, ClientError>>> = Vec::new();
    results.resize_with(slices.len(), || None);
    let mut open = 0usize;
    for (i, &(index, reqs)) in slices.iter().enumerate() {
        conns.push(None);
        if reqs.is_empty() {
            results[i] = Some(Ok(ConnOutcome::default()));
            continue;
        }
        // Blocking connect (loopback/LAN handshakes are fast and this
        // happens once per connection), then non-blocking everything.
        let setup = TcpStream::connect(addr)
            .and_then(|s| s.set_nonblocking(true).map(|_| s))
            .and_then(|s| {
                reactor
                    .register(s.as_raw_fd(), Token(i as u64), Interest::READABLE)
                    .map(|_| s)
            })
            .map_err(|e| ClientError::Io {
                what: format!("connect {addr}"),
                source: e,
            });
        match setup {
            Ok(stream) => {
                conns[i] = Some(EngineConn {
                    index,
                    stream,
                    conn: Conn::new(),
                    reqs,
                    sent: 0,
                    received: 0,
                    intended: VecDeque::new(),
                    interest: Interest::READABLE,
                    outcome: ConnOutcome::default(),
                    failed: None,
                });
                open += 1;
                if let Some(r) = settle(&reactor, i, &mut conns[i], load, &mut value) {
                    results[i] = Some(r);
                    open -= 1;
                }
            }
            Err(e) => results[i] = Some(Err(e)),
        }
    }

    let mut events: Vec<Event> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    while open > 0 {
        if reactor
            .wait(&mut events, wait_timeout(&conns, load))
            .is_err()
        {
            break;
        }
        touched.clear();
        for ev in &events {
            let i = ev.token.0 as usize;
            let Some(ec) = conns.get_mut(i).and_then(Option::as_mut) else {
                continue;
            };
            if ev.writable {
                ec.flush();
            }
            if ev.readable {
                ec.service_read(load.clock);
            }
            touched.push(i);
        }
        if load.pacing.is_some() {
            // Any paced connection may have come due, event or not.
            touched.clear();
            touched.extend(0..conns.len());
        }
        for &i in &touched {
            if let Some(r) = settle(&reactor, i, &mut conns[i], load, &mut value) {
                results[i] = Some(r);
                open -= 1;
            }
        }
    }

    results
        .into_iter()
        .map(|r| {
            // Connections still open when the loop ends mean the reactor
            // itself died under us.
            r.unwrap_or_else(|| Err(ClientError::Protocol("client reactor failed".into())))
        })
        .collect()
}
