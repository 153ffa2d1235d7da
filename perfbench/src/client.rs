//! The load client: closed-loop and open-loop engines over the
//! benchmark's connections, checking every reply as it arrives.
//!
//! Closed loop runs one thread per connection, each keeping
//! [`WINDOW`] requests in flight over a blocking socket. Open loop runs
//! one sender thread that writes every connection's requests on a fixed
//! schedule and one receiver thread that waits on all sockets in an
//! epoll reactor, so a reply is timed when it lands, not when a sleeping
//! sender next looks. Open-loop latency runs from when each request was
//! due, so a stall is charged to every request it delays.

// lint:orderings(Relaxed): the per-connection reply counters only cap
// how far the sender runs ahead of the receiver, and the abort flag only
// stops the sender early; neither publishes other data.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use wmlp_core::conn::FrameBuf;
use wmlp_core::instance::Request;
use wmlp_core::net::{Interest, Reactor, Token};
use wmlp_core::storage::default_value;
use wmlp_core::wire::{encode, request_frame, Frame};
use wmlp_loadgen::timing::Clock;

use crate::workload::{Values, CONNS, MAX_INFLIGHT, PAGES, VALUE_SIZE, WINDOW};

/// A reply slower than this is the delayed-ACK signature (40 ms timer).
const STALL_NS: u64 = 30_000_000;
/// No reply for this long fails every request still outstanding.
const TIMEOUT_NS: u64 = 5_000_000_000;
/// Failure descriptions kept for the report.
const MAX_NOTES: usize = 8;

/// One benchmark connection.
pub struct ClientConn {
    stream: TcpStream,
    rx: FrameBuf,
    out: Vec<u8>,
    /// Index of the next request of this connection's stream.
    next: usize,
}

impl ClientConn {
    pub fn new(stream: TcpStream) -> Self {
        ClientConn {
            stream,
            rx: FrameBuf::new(),
            out: Vec::with_capacity(8192),
            next: 0,
        }
    }

    /// Blocking request/reply for control frames (STATS, SHUTDOWN), sent
    /// only when no load request is outstanding.
    pub fn call(&mut self, frame: &Frame) -> Result<Frame, String> {
        self.stream
            .set_nonblocking(false)
            .map_err(|e| format!("set blocking: {e}"))?;
        let mut bytes = Vec::new();
        encode(frame, &mut bytes);
        self.stream
            .write_all(&bytes)
            .map_err(|e| format!("write {frame:?}: {e}"))?;
        loop {
            if let Some(f) = self.rx.pop().map_err(|e| format!("decode: {e}"))? {
                return Ok(f);
            }
            let n = self
                .stream
                .read(self.rx.space())
                .map_err(|e| format!("read reply to {frame:?}: {e}"))?;
            if n == 0 {
                return Err(format!(
                    "server closed the connection before replying to {frame:?}"
                ));
            }
            self.rx.commit(n);
        }
    }
}

/// Counts and samples from one phase of load.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Replies that were served with a correct value.
    pub completed: u64,
    pub failed: u64,
    pub wrong_values: u64,
    pub puts: u64,
    /// Sum of the `cost` of every SERVED reply.
    pub cost: u64,
    pub lat_ns: Vec<u64>,
    /// Completion time of each `lat_ns` sample.
    pub at_ns: Vec<u64>,
    /// Open loop: how late each request left against its schedule.
    pub lag_ns: Vec<u64>,
    pub stalls: u64,
    pub notes: Vec<String>,
    /// Open loop: requests due but unanswered when the schedule ended.
    pub backlog_at_end: u64,
    /// Open loop: completion time of the last reply.
    pub last_reply_ns: u64,
}

impl Tally {
    pub fn merge(&mut self, mut o: Tally) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failed += o.failed;
        self.wrong_values += o.wrong_values;
        self.puts += o.puts;
        self.cost += o.cost;
        self.lat_ns.append(&mut o.lat_ns);
        self.at_ns.append(&mut o.at_ns);
        self.lag_ns.append(&mut o.lag_ns);
        self.stalls += o.stalls;
        self.backlog_at_end += o.backlog_at_end;
        self.last_reply_ns = self.last_reply_ns.max(o.last_reply_ns);
        for n in o.notes {
            self.note(n);
        }
    }

    /// Add `o`'s counters and notes, without its samples.
    pub fn merge_counts(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failed += o.failed;
        self.wrong_values += o.wrong_values;
        self.puts += o.puts;
        self.cost += o.cost;
        self.stalls += o.stalls;
        for n in &o.notes {
            self.note(n.clone());
        }
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(msg);
        }
    }

    fn fail(&mut self, count: u64, msg: String) {
        self.failed += count;
        self.note(msg);
    }
}

/// A seeded fault in the replies the checker sees: the self-test's proof
/// that the value checks catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutantKind {
    /// One GET value gets a corrupted byte.
    WrongValue,
    /// One GET of a page whose PUT this connection already saw
    /// acknowledged reads the page's cold default instead: a write that
    /// the server dropped.
    LostWrite,
}

/// Apply `kind` to the `at`-th (0-based) GET reply it can apply to.
#[derive(Debug, Clone, Copy)]
pub struct Mutant {
    pub kind: MutantKind,
    pub at: u64,
}

/// Checks every reply against the value oracle and records, per
/// connection, which pages had a PUT acknowledged.
#[derive(Clone)]
pub struct Checker {
    values: Values,
    scratch: Vec<u8>,
    /// Armed for the main window of a self-test run only.
    pub mutant: Option<Mutant>,
    /// GET replies the mutant could have applied to so far.
    candidates: u64,
    /// `acked[c][page]`: connection `c` has seen a PUT of `page`
    /// acknowledged. Replies on a connection come back in request order
    /// and every PUT of a page writes the same bytes, so any later GET of
    /// that page on `c` must read the PUT value.
    acked: Vec<Vec<bool>>,
}

impl Checker {
    pub fn new(values: Values) -> Self {
        Checker {
            values,
            scratch: Vec::with_capacity(64),
            mutant: None,
            candidates: 0,
            acked: vec![vec![false; PAGES]; CONNS],
        }
    }

    /// A copy for another client thread; only one of them may carry the
    /// mutant.
    pub fn fork(&self, with_mutant: bool) -> Checker {
        let mut c = self.clone();
        c.mutant = self.mutant.filter(|_| with_mutant);
        c.candidates = 0;
        c
    }

    /// Take in the acknowledged PUTs another copy saw.
    pub fn absorb(&mut self, other: &Checker) {
        for (mine, theirs) in self.acked.iter_mut().zip(&other.acked) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a |= *b;
            }
        }
    }

    /// Pages with an acknowledged PUT on any connection.
    pub fn put_pages(&self) -> Vec<bool> {
        (0..PAGES)
            .map(|p| self.acked.iter().any(|a| a[p]))
            .collect()
    }

    fn mutate(&mut self, page: u32, acked: bool, value: &mut Vec<u8>) {
        let Some(m) = self.mutant else {
            return;
        };
        if m.kind == MutantKind::LostWrite && !acked {
            return;
        }
        if self.candidates == m.at {
            match m.kind {
                MutantKind::WrongValue => match value.first_mut() {
                    Some(b) => *b ^= 0x5a,
                    None => value.push(0x5a),
                },
                MutantKind::LostWrite => {
                    value.clear();
                    default_value(page, VALUE_SIZE, value);
                }
            }
        }
        self.candidates += 1;
    }

    fn check(
        &mut self,
        conn: usize,
        req: Request,
        frame: Frame,
        lat_ns: u64,
        now: u64,
        t: &mut Tally,
    ) {
        match frame {
            Frame::Served {
                cost, mut value, ..
            } => {
                t.cost += cost;
                let is_put = req.level == 1;
                let acked = self.acked[conn][req.page as usize];
                if !is_put {
                    self.mutate(req.page, acked, &mut value);
                }
                let ok = if is_put {
                    value.is_empty()
                } else if acked {
                    self.values.put_ok(req.page, &value, &mut self.scratch)
                } else {
                    self.values.read_ok(req.page, &value, &mut self.scratch)
                };
                if !ok {
                    t.wrong_values += 1;
                    t.fail(
                        1,
                        format!(
                            "wrong value for {req:?} on connection {conn}{}: {} bytes {:02x?}…",
                            if acked { " after its PUT" } else { "" },
                            value.len(),
                            &value[..value.len().min(8)]
                        ),
                    );
                    return;
                }
                t.completed += 1;
                t.lat_ns.push(lat_ns);
                t.at_ns.push(now);
                if lat_ns > STALL_NS {
                    t.stalls += 1;
                }
                if is_put {
                    t.puts += 1;
                    self.acked[conn][req.page as usize] = true;
                }
            }
            Frame::Error { code, detail } => {
                t.fail(1, format!("{req:?}: error frame {code}: {detail}"))
            }
            other => t.fail(1, format!("{req:?}: unexpected reply {other:?}")),
        }
    }
}

/// Append the frame of `req` to `out`; a PUT carries the run's value for
/// its page.
pub fn push_request(out: &mut Vec<u8>, req: Request, values: &Values, scratch: &mut Vec<u8>) {
    if req.level == 1 {
        values.put_value(req.page, scratch);
    } else {
        scratch.clear();
    }
    encode(&request_frame(req, scratch), out);
}

/// Closed loop on one connection until `end_ns` on `clock`: keep
/// [`WINDOW`] requests in flight, time each from its send.
pub fn closed_phase(
    conn: &mut ClientConn,
    c: usize,
    reqs: &[Request],
    values: &Values,
    chk: &mut Checker,
    clock: &Clock,
    end_ns: u64,
) -> Tally {
    let mut t = Tally::default();
    if let Err(e) = conn.stream.set_nonblocking(false).and_then(|_| {
        conn.stream
            .set_read_timeout(Some(Duration::from_nanos(TIMEOUT_NS)))
    }) {
        t.fail(0, format!("socket setup: {e}"));
        return t;
    }
    let mut inflight: VecDeque<(Request, u64)> = VecDeque::with_capacity(WINDOW);
    let mut scratch = Vec::with_capacity(64);
    loop {
        let now = clock.now_nanos();
        if now < end_ns {
            while inflight.len() < WINDOW {
                let req = reqs[conn.next % reqs.len()];
                conn.next += 1;
                push_request(&mut conn.out, req, values, &mut scratch);
                inflight.push_back((req, now));
                t.attempted += 1;
            }
        }
        if !conn.out.is_empty() {
            if let Err(e) = conn.stream.write_all(&conn.out) {
                t.fail(inflight.len() as u64, format!("write: {e}"));
                return t;
            }
            conn.out.clear();
        }
        if inflight.is_empty() {
            return t;
        }
        let n = match conn.stream.read(conn.rx.space()) {
            Ok(0) => {
                t.fail(inflight.len() as u64, "server closed the connection".into());
                return t;
            }
            Ok(n) => n,
            Err(e) => {
                t.fail(inflight.len() as u64, format!("read: {e}"));
                return t;
            }
        };
        conn.rx.commit(n);
        let now = clock.now_nanos();
        loop {
            match conn.rx.pop() {
                Ok(Some(frame)) => match inflight.pop_front() {
                    Some((req, sent)) => chk.check(c, req, frame, now - sent, now, &mut t),
                    None => t.fail(1, format!("reply with nothing outstanding: {frame:?}")),
                },
                Ok(None) => break,
                Err(e) => {
                    t.fail(inflight.len() as u64, format!("decode: {e}"));
                    return t;
                }
            }
        }
    }
}

/// A fixed arrival schedule: connection `c` sends its `i`-th request at
/// `start + (i + c / CONNS) * interval`, interleaving the connections.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    pub interval_ns: f64,
    pub per_conn: u64,
}

impl Schedule {
    /// `rate` req/s in total for `secs` seconds, starting at `start_ns`.
    pub fn new(start_ns: u64, rate: f64, secs: f64) -> Self {
        let per_conn_rate = rate / CONNS as f64;
        Schedule {
            start_ns,
            interval_ns: 1e9 / per_conn_rate,
            per_conn: (per_conn_rate * secs).round().max(1.0) as u64,
        }
    }

    pub fn due(&self, c: usize, i: u64) -> u64 {
        self.start_ns + ((i as f64 + c as f64 / CONNS as f64) * self.interval_ns) as u64
    }

    pub fn end_ns(&self) -> u64 {
        self.due(CONNS - 1, self.per_conn - 1)
    }
}

/// Open loop over every connection on `sched`; returns the merged tally
/// of the sender (attempts, lag) and the receiver (replies).
pub fn open_phase(
    conns: &mut [ClientConn],
    streams: &[Vec<Request>],
    values: &Values,
    chk: &mut Checker,
    clock: &Clock,
    sched: Schedule,
) -> Tally {
    let mut t = Tally::default();
    for conn in conns.iter() {
        if let Err(e) = conn.stream.set_nonblocking(true) {
            t.fail(0, format!("socket setup: {e}"));
            return t;
        }
    }
    let acks: Vec<AtomicU64> = (0..conns.len()).map(|_| AtomicU64::new(0)).collect();
    let abort = AtomicBool::new(false);
    let bases: Vec<usize> = conns.iter().map(|c| c.next).collect();
    let mut outs: Vec<Vec<u8>> = conns
        .iter_mut()
        .map(|c| std::mem::take(&mut c.out))
        .collect();
    let mut rxs: Vec<FrameBuf> = conns
        .iter_mut()
        .map(|c| std::mem::take(&mut c.rx))
        .collect();
    let socks: Vec<&TcpStream> = conns.iter().map(|c| &c.stream).collect();
    let (sent, recv) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            send_on_schedule(
                &socks, &mut outs, streams, &bases, values, clock, sched, &acks, &abort,
            )
        });
        let recv = receive_all(
            &socks, &mut rxs, streams, &bases, chk, clock, sched, &acks, &abort,
        );
        abort.store(true, Ordering::Relaxed);
        let sent = sender.join().unwrap_or_else(|_| {
            let mut t = Tally::default();
            t.fail(0, "sender thread panicked".into());
            t
        });
        (sent, recv)
    });
    for (c, conn) in conns.iter_mut().enumerate() {
        conn.out = std::mem::take(&mut outs[c]);
        conn.rx = std::mem::take(&mut rxs[c]);
        conn.next = bases[c] + sched.per_conn as usize;
    }
    t.merge(sent);
    t.merge(recv);
    t
}

#[allow(clippy::too_many_arguments)]
fn send_on_schedule(
    socks: &[&TcpStream],
    outs: &mut [Vec<u8>],
    streams: &[Vec<Request>],
    bases: &[usize],
    values: &Values,
    clock: &Clock,
    sched: Schedule,
    acks: &[AtomicU64],
    abort: &AtomicBool,
) -> Tally {
    let mut t = Tally::default();
    let mut sent = vec![0u64; socks.len()];
    let mut scratch = Vec::with_capacity(64);
    t.lag_ns.reserve((sched.per_conn as usize) * socks.len());
    while !abort.load(Ordering::Relaxed) {
        let now = clock.now_nanos();
        let mut pending = false;
        for c in 0..socks.len() {
            let reqs = &streams[c];
            while sent[c] < sched.per_conn
                && sched.due(c, sent[c]) <= now
                && sent[c] - acks[c].load(Ordering::Relaxed) < MAX_INFLIGHT
            {
                let req = reqs[(bases[c] + sent[c] as usize) % reqs.len()];
                push_request(&mut outs[c], req, values, &mut scratch);
                t.lag_ns.push(now - sched.due(c, sent[c]));
                t.attempted += 1;
                sent[c] += 1;
            }
            if !outs[c].is_empty() {
                match { socks[c] }.write(&outs[c]) {
                    Ok(n) => {
                        outs[c].drain(..n);
                    }
                    Err(e)
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                    Err(e) => {
                        t.note(format!("write: {e}"));
                        abort.store(true, Ordering::Relaxed);
                        return t;
                    }
                }
            }
            pending |= sent[c] < sched.per_conn || !outs[c].is_empty();
        }
        if !pending {
            break;
        }
        let next_due = (0..socks.len())
            .filter(|&c| sent[c] < sched.per_conn)
            .map(|c| sched.due(c, sent[c]))
            .min();
        match next_due {
            Some(due) if due > now => clock.sleep_until(due),
            // Held back by the in-flight cap or a full socket buffer.
            _ => std::thread::sleep(Duration::from_micros(20)),
        }
    }
    t
}

#[allow(clippy::too_many_arguments)]
fn receive_all(
    socks: &[&TcpStream],
    rxs: &mut [FrameBuf],
    streams: &[Vec<Request>],
    bases: &[usize],
    chk: &mut Checker,
    clock: &Clock,
    sched: Schedule,
    acks: &[AtomicU64],
    abort: &AtomicBool,
) -> Tally {
    let mut t = Tally::default();
    let total = sched.per_conn * socks.len() as u64;
    t.lat_ns.reserve(total as usize);
    t.at_ns.reserve(total as usize);
    let reactor = match Reactor::new() {
        Ok(r) => r,
        Err(e) => {
            t.fail(total, format!("reactor: {e}"));
            return t;
        }
    };
    for (c, s) in socks.iter().enumerate() {
        if let Err(e) = reactor.register(s.as_raw_fd(), Token(c as u64), Interest::READABLE) {
            t.fail(total, format!("register: {e}"));
            return t;
        }
    }
    let mut recvd = vec![0u64; socks.len()];
    let mut done = 0u64;
    let mut last_progress = clock.now_nanos();
    let mut backlog_noted = false;
    let mut events = Vec::new();
    let fail_rest = |t: &mut Tally, done: u64, why: String| t.fail(total - done, why);
    while done < total {
        if let Err(e) = reactor.wait(&mut events, 10) {
            fail_rest(&mut t, done, format!("epoll: {e}"));
            return t;
        }
        let now = clock.now_nanos();
        if !backlog_noted && now >= sched.end_ns() {
            t.backlog_at_end = total - done;
            backlog_noted = true;
        }
        if events.is_empty() {
            if now.saturating_sub(last_progress) > TIMEOUT_NS || abort.load(Ordering::Relaxed) {
                fail_rest(&mut t, done, "timed out waiting for replies".into());
                return t;
            }
            continue;
        }
        for ev in &events {
            let c = ev.token.0 as usize;
            loop {
                match { socks[c] }.read(rxs[c].space()) {
                    Ok(0) => {
                        fail_rest(&mut t, done, "server closed the connection".into());
                        return t;
                    }
                    Ok(n) => rxs[c].commit(n),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        fail_rest(&mut t, done, format!("read: {e}"));
                        return t;
                    }
                }
            }
            let now = clock.now_nanos();
            loop {
                match rxs[c].pop() {
                    Ok(Some(frame)) => {
                        let i = recvd[c];
                        if i >= sched.per_conn {
                            t.fail(1, format!("reply beyond the schedule: {frame:?}"));
                            continue;
                        }
                        let reqs = &streams[c];
                        let req = reqs[(bases[c] + i as usize) % reqs.len()];
                        chk.check(
                            c,
                            req,
                            frame,
                            now.saturating_sub(sched.due(c, i)),
                            now,
                            &mut t,
                        );
                        recvd[c] = i + 1;
                        acks[c].store(i + 1, Ordering::Relaxed);
                        done += 1;
                        last_progress = now;
                        t.last_reply_ns = now;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        fail_rest(&mut t, done, format!("decode: {e}"));
                        return t;
                    }
                }
            }
        }
    }
    t
}
