//! The traced run: the workload's request streams replayed in-process
//! through each serving layer's public functions, in the order the
//! server applies them, with a span around every layer call.
//!
//! Each connection's stream is taken in chunks of [`WINDOW`] requests,
//! alternating between connections the way an event loop alternates
//! between ready sockets. A chunk crosses a real loopback socket
//! (`net.read`), is decoded by the connection state machine
//! (`codec.decode`), crosses the connection → router channel
//! (`router.hop`), is placed by the partitioner (`router.route`), handed
//! to the shard rings (`ring.handoff`), stepped through the policy
//! engine (`engine.step`) whose storage calls are spans of their own
//! (`store.*`), completed through the event loop's completion queue and
//! eventfd doorbell (`doorbell.push_drain`), reordered and encoded
//! (`codec.encode`), and written back over the socket (`net.write`).
//! Plan changes drain the rings first, as the server's router does.
//!
//! The router and shard steps here are a copy of `wmlp-serve`'s
//! `run_router` and `run_shard` reply path, which are private to that
//! crate; they keep its order of ring messages and must follow it when
//! it changes.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::{mpsc, Arc};

use wmlp_algos::PolicyRegistry;
use wmlp_core::conn::{Conn, FrameBuf};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::net::{EventFd, Interest, Reactor, Token};
use wmlp_core::policy::OnlinePolicy;
use wmlp_core::storage::{SimStorage, Storage, StorageError, StorageSnapshot};
use wmlp_core::types::{Level, PageId};
use wmlp_core::wire::{ErrorCode, Frame};
use wmlp_loadgen::timing::Clock;
use wmlp_router::{DrainGate, Partitioner, Route};
use wmlp_serve::notify::{CompletionQueue, Doorbell};
use wmlp_serve::reorder::Reorder;
use wmlp_serve::shard::{shard_instances, CompletionSink, FanoutAck, ReplyTo, ShardJob, ShardMsg};
use wmlp_serve::{spsc, ServeConfig};
use wmlp_sim::engine::{BatchLog, SimSession, StoreRequest};
use wmlp_store::{RecoverMode, SegmentStore, StoreOptions};

use crate::client::push_request;
use crate::tracer::{Layer, Tracer};
use crate::workload::{Values, Workload, CONNS, EPOCH_LEN, POLICY, SHARDS, VALUE_SIZE, WINDOW};

/// Keep the spans of one chunk in this many requests.
const SAMPLE_EVERY: u64 = 8192;
/// Shard ring capacity and batch limit (the server's defaults).
const RING: usize = 64;
/// Doorbell round trips timed for `doorbell.ring_to_wake_us`.
const PINGS: usize = 2000;

/// What the traced run measured.
#[derive(Default)]
pub struct ReplayOut {
    /// Client requests replayed.
    pub requests: u64,
    pub puts: u64,
    /// Shard copies sent for PUTs (a replicated PUT goes to every shard).
    pub put_sends: u64,
    /// Jobs that went through the rings, and `recv_batch` calls.
    pub ring_items: u64,
    pub ring_batches: u64,
    pub epochs: u64,
    pub adoptions: u64,
    /// Drain handshakes run (one per adopted plan change).
    pub drains: u64,
    /// Request and reply bytes on the sockets.
    pub wire_bytes: u64,
    pub writebacks: u64,
    pub wrong_values: u64,
    pub failed: u64,
    pub wall_ns: u64,
    pub notes: Vec<String>,
}

/// The event loop's completion sink: a completion queue whose doorbell
/// is an eventfd, as in the server's epoll plane.
struct Sink {
    queue: CompletionQueue<(u64, u64, Frame)>,
}

impl CompletionSink for Sink {
    fn complete(&self, conn: u64, seq: u64, frame: Frame) {
        self.queue.push((conn, seq, frame));
    }
}

struct Shard {
    inst: MlInstance,
    policy: Box<dyn OnlinePolicy>,
    session: SimSession,
    store: Box<dyn Storage>,
    tx: spsc::Sender<ShardMsg>,
    rx: spsc::Receiver<ShardMsg>,
    queued: usize,
    log: BatchLog,
}

/// A storage backend whose every call is a span; counts writebacks.
struct TracedStore<'a> {
    inner: &'a mut dyn Storage,
    tr: &'a mut Tracer,
    /// Request ids of the batch being stepped; each request ends with
    /// exactly one `get` or `put`, which advances `pos`.
    ids: &'a [u64],
    pos: usize,
    writebacks: u64,
}

impl TracedStore<'_> {
    fn id(&self) -> u64 {
        self.ids.get(self.pos).copied().unwrap_or(0)
    }
}

impl Storage for TracedStore<'_> {
    fn get(&mut self, page: PageId, out: &mut Vec<u8>) -> Result<Level, StorageError> {
        self.tr.enter(Layer::Get, self.id(), 1);
        let r = self.inner.get(page, out);
        self.tr.exit();
        self.pos += 1;
        r
    }

    fn put(&mut self, page: PageId, value: &[u8]) -> Result<(), StorageError> {
        self.tr.enter(Layer::Put, self.id(), 1);
        let r = self.inner.put(page, value);
        self.tr.exit();
        self.pos += 1;
        r
    }

    fn promote(&mut self, page: PageId, level: Level) -> Result<(), StorageError> {
        self.tr.enter(Layer::Promote, self.id(), 1);
        let r = self.inner.promote(page, level);
        self.tr.exit();
        r
    }

    fn flush(&mut self, page: PageId) -> Result<bool, StorageError> {
        self.tr.enter(Layer::Flush, self.id(), 1);
        let r = self.inner.flush(page);
        self.tr.exit();
        if let Ok(true) = r {
            self.writebacks += 1;
        }
        r
    }

    fn flush_all(&mut self) -> Result<u64, StorageError> {
        self.inner.flush_all()
    }

    fn snapshot(&self) -> StorageSnapshot {
        self.inner.snapshot()
    }
}

fn socket_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let client = TcpStream::connect(listener.local_addr()?)?;
    let (server, _) = listener.accept()?;
    Ok((client, server))
}

struct ServerConn {
    sock: TcpStream,
    conn: Conn,
    seq: u64,
    reorder: Reorder<Frame>,
}

/// Replay `streams` for about `secs` seconds or `max_requests` requests,
/// whichever ends first. On-disk workloads open a fresh segment store per
/// shard under `store_dir`.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    wl: &Workload,
    inst: &MlInstance,
    seed: u64,
    streams: &[Vec<Request>],
    values: &Values,
    secs: f64,
    max_requests: u64,
    store_dir: Option<&Path>,
) -> Result<(ReplayOut, Tracer), String> {
    let clock = Clock::start();
    let cfg = ServeConfig {
        shards: SHARDS,
        partition: wl.partition.to_string(),
        epoch_len: EPOCH_LEN,
        ..ServeConfig::default()
    };
    let mut part = Partitioner::new(cfg.partition_spec(SHARDS)?);
    let registry = PolicyRegistry::standard();
    let mut shards = Vec::with_capacity(SHARDS);
    for (s, si) in shard_instances(inst, SHARDS)?.into_iter().enumerate() {
        let policy = registry.build(POLICY, &si, seed.wrapping_add(s as u64))?;
        let store: Box<dyn Storage> = match store_dir {
            None => Box::new(SimStorage::new(si.n(), si.max_levels(), VALUE_SIZE)),
            Some(dir) => {
                let mut opts = StoreOptions::new(si.n(), si.max_levels());
                opts.value_size = VALUE_SIZE;
                opts.recover = RecoverMode::Warm;
                let path = dir.join(format!("shard-{s}"));
                Box::new(
                    SegmentStore::open(&path, opts)
                        .map_err(|e| format!("{}: {e}", path.display()))?,
                )
            }
        };
        let (tx, rx) = spsc::channel(RING);
        shards.push(Shard {
            session: SimSession::new(&si),
            inst: si,
            policy,
            store,
            tx,
            rx,
            queued: 0,
            log: BatchLog::new(),
        });
    }
    let bell = Arc::new(EventFd::new().map_err(|e| format!("eventfd: {e}"))?);
    let sink = Arc::new(Sink {
        queue: CompletionQueue::new(bell.clone() as Arc<dyn Doorbell>),
    });
    let (hop_tx, hop_rx) = mpsc::channel::<ShardJob>();
    let mut clients = Vec::with_capacity(CONNS);
    let mut servers = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let (c, s) = socket_pair().map_err(|e| format!("loopback pair: {e}"))?;
        clients.push((c, FrameBuf::new()));
        servers.push(ServerConn {
            sock: s,
            conn: Conn::new(),
            seq: 0,
            reorder: Reorder::new(),
        });
    }

    let mut tr = Tracer::new(clock, SAMPLE_EVERY);
    let mut out = ReplayOut::default();
    let end_ns = (secs * 1e9) as u64;
    let mut next = [0usize; CONNS];
    let mut bytes = Vec::with_capacity(WINDOW * 96);
    let mut scratch = Vec::new();
    let mut jobs: VecDeque<ShardJob> = VecDeque::with_capacity(WINDOW);
    let mut routed: Vec<(ShardJob, Route)> = Vec::with_capacity(WINDOW);
    let mut done: Vec<(u64, u64, Frame)> = Vec::with_capacity(2 * WINDOW);
    let mut acked = vec![vec![false; inst.n()]; CONNS];
    let mut chunk = 0usize;
    while clock.now_nanos() < end_ns && out.requests < max_requests {
        let c = chunk % CONNS;
        chunk += 1;
        let reqs = &streams[c];
        let sent: Vec<Request> = (0..WINDOW)
            .map(|i| reqs[(next[c] + i) % reqs.len()])
            .collect();
        next[c] += WINDOW;
        bytes.clear();
        for req in &sent {
            push_request(&mut bytes, *req, values, &mut scratch);
        }
        clients[c]
            .0
            .write_all(&bytes)
            .map_err(|e| format!("replay client write: {e}"))?;
        let id0 = out.requests;
        let sc = &mut servers[c];

        tr.enter(Layer::Chunk, id0, WINDOW as u64);
        tr.enter(Layer::NetRead, id0, WINDOW as u64);
        let mut got = 0;
        while got < bytes.len() {
            let n = sc
                .sock
                .read(sc.conn.recv_space())
                .map_err(|e| format!("replay server read: {e}"))?;
            if n == 0 {
                return Err("replay socket closed".into());
            }
            sc.conn.recv_commit(n);
            got += n;
        }
        tr.exit();

        tr.enter(Layer::Decode, id0, WINDOW as u64);
        let mut frames = Vec::with_capacity(WINDOW);
        while let Some(f) = sc
            .conn
            .next_frame()
            .map_err(|e| format!("replay decode: {e}"))?
        {
            frames.push(f);
        }
        tr.exit();

        let seq0 = sc.seq;
        let mut staged = Vec::with_capacity(WINDOW);
        for frame in frames {
            let (req, put) = match frame {
                Frame::Get { page, level } => (Request::new(page, level), None),
                Frame::Put { page, value } => (Request::new(page, 1), Some(value)),
                other => return Err(format!("replay decoded a non-request {other:?}")),
            };
            out.puts += u64::from(put.is_some());
            staged.push(ShardJob {
                req,
                put,
                seq: sc.seq,
                reply: ReplyTo::Sink {
                    sink: sink.clone(),
                    conn: c as u64,
                },
            });
            sc.seq += 1;
        }
        tr.enter(Layer::Hop, id0, staged.len() as u64);
        let mut hop_ok = true;
        for job in staged {
            hop_ok &= hop_tx.send(job).is_ok();
        }
        jobs.extend(hop_rx.try_iter());
        tr.exit();
        if !hop_ok {
            return Err("router hop closed".into());
        }

        // Route as the server's router (`run_router`) does: when an epoch
        // adopts a changed plan, a drain marker goes down every ring behind
        // the jobs routed under the old plan, the shards serve up to it,
        // and the gate opens before the next job is routed. Routing is
        // timed a segment at a time, with the segment's ring sends after
        // it; the rings get the same messages in the same order.
        while !jobs.is_empty() {
            let first = jobs.front().map_or(0, |j| id0 + j.seq - seq0);
            let mut drain = false;
            tr.enter(Layer::Route, first, 0);
            while let Some(job) = jobs.front() {
                if part.epoch_due() {
                    out.epochs += 1;
                    if part.advance_epoch().changed {
                        out.adoptions += 1;
                        drain = true;
                        break;
                    }
                }
                let route = part.route(job.req.page, job.put.is_some());
                if let Some(job) = jobs.pop_front() {
                    routed.push((job, route));
                }
            }
            tr.exit();
            tr.enter(Layer::Ring, first, routed.len() as u64);
            for (job, route) in routed.drain(..) {
                let is_put = job.put.is_some();
                match route {
                    Route::One(s) => {
                        out.put_sends += u64::from(is_put);
                        send(&mut shards[s], ShardMsg::Job(job), &mut out)?;
                    }
                    Route::Fanout { home } => {
                        let ack = FanoutAck::new(SHARDS, job.seq, job.reply);
                        for (s, shard) in shards.iter_mut().enumerate() {
                            out.put_sends += 1;
                            let copy = ShardJob {
                                req: job.req,
                                put: job.put.clone(),
                                seq: job.seq,
                                reply: ReplyTo::Fanout {
                                    ack: ack.clone(),
                                    home: s == home,
                                },
                            };
                            send(shard, ShardMsg::Job(copy), &mut out)?;
                        }
                    }
                }
            }
            let gate = drain.then(|| DrainGate::new(SHARDS));
            if let Some(gate) = &gate {
                out.drains += 1;
                for shard in shards.iter_mut() {
                    send(shard, ShardMsg::Drain(gate.clone()), &mut out)?;
                }
            }
            tr.exit();
            serve_rings(&mut shards, &mut tr, &mut out, id0, seq0)?;
            if let Some(gate) = gate {
                gate.wait_zero();
            }
        }

        tr.enter(Layer::Doorbell, id0, 0);
        bell.drain().map_err(|e| format!("doorbell drain: {e}"))?;
        sink.queue.drain_into(&mut done);
        tr.exit();

        tr.enter(Layer::Encode, id0, done.len() as u64);
        for (_, seq, frame) in done.drain(..) {
            sc.reorder.insert(seq, frame);
        }
        while let Some(frame) = sc.reorder.pop_next() {
            sc.conn.enqueue(&frame);
        }
        tr.exit();

        tr.enter(Layer::NetWrite, id0, WINDOW as u64);
        let reply_bytes = sc.conn.pending().len();
        let wrote = sc.sock.write_all(sc.conn.pending());
        sc.conn.advance(reply_bytes);
        tr.exit();
        tr.exit();
        wrote.map_err(|e| format!("replay server write: {e}"))?;

        out.wire_bytes += (bytes.len() + reply_bytes) as u64;
        out.requests += WINDOW as u64;
        check_replies(&mut clients[c], &sent, values, &mut acked[c], &mut out)?;
    }
    out.wall_ns = clock.now_nanos();
    for shard in shards.iter_mut() {
        shard
            .store
            .flush_all()
            .map_err(|e| format!("replay flush_all: {e}"))?;
    }
    Ok((out, tr))
}

/// Hand `msg` to a shard ring (the ring never fills: at most [`WINDOW`]
/// jobs, or fewer plus one drain marker, go on it before it is served).
fn send(shard: &mut Shard, msg: ShardMsg, out: &mut ReplayOut) -> Result<(), String> {
    shard.queued += 1;
    out.ring_items += 1;
    shard
        .tx
        .send(msg)
        .map_err(|_| "shard ring closed".to_string())
}

/// Receive each shard's queued messages in one batch and serve them.
fn serve_rings(
    shards: &mut [Shard],
    tr: &mut Tracer,
    out: &mut ReplayOut,
    id0: u64,
    seq0: u64,
) -> Result<(), String> {
    let mut msgs = Vec::with_capacity(RING + 1);
    let mut jobs = Vec::with_capacity(RING);
    for shard in shards.iter_mut() {
        while shard.queued > 0 {
            tr.enter(Layer::Ring, id0, 0);
            let n = shard.rx.recv_batch(&mut msgs, RING);
            tr.exit();
            if n == 0 {
                return Err("shard ring closed".into());
            }
            shard.queued -= n;
            out.ring_batches += 1;
            for msg in msgs.drain(..) {
                match msg {
                    ShardMsg::Job(job) => jobs.push(job),
                    ShardMsg::Drain(gate) => {
                        serve_batch(shard, &mut jobs, tr, out, id0, seq0);
                        gate.arrive();
                    }
                }
            }
            serve_batch(shard, &mut jobs, tr, out, id0, seq0);
        }
    }
    Ok(())
}

/// Step one batch through the engine and deliver its replies through
/// the completion path, as the shard worker does.
fn serve_batch(
    shard: &mut Shard,
    jobs: &mut Vec<ShardJob>,
    tr: &mut Tracer,
    out: &mut ReplayOut,
    id0: u64,
    seq0: u64,
) {
    if jobs.is_empty() {
        return;
    }
    let ids: Vec<u64> = jobs.iter().map(|j| id0 + j.seq - seq0).collect();
    let reqs: Vec<StoreRequest<'_>> = jobs
        .iter()
        .map(|j| StoreRequest {
            req: j.req,
            put: j.put.as_deref(),
        })
        .collect();
    tr.enter(Layer::Engine, ids[0], jobs.len() as u64);
    let mut store = TracedStore {
        inner: &mut *shard.store,
        tr,
        ids: &ids,
        pos: 0,
        writebacks: 0,
    };
    shard.session.step_batch_store(
        &shard.inst,
        shard.policy.as_mut(),
        &reqs,
        &mut store,
        &mut shard.log,
    );
    out.writebacks += store.writebacks;
    tr.exit();
    drop(reqs);
    let values = shard.log.take_values();
    tr.enter(Layer::Doorbell, ids[0], jobs.len() as u64);
    for ((job, outcome), value) in jobs.drain(..).zip(shard.log.outcomes()).zip(values) {
        let frame = match outcome {
            Ok(o) => Frame::Served {
                hit: o.hit,
                level: o.serve_level,
                cost: o.fetch_cost,
                value,
            },
            Err(e) => Frame::Error {
                code: ErrorCode::Internal,
                detail: e.to_string(),
            },
        };
        job.reply.deliver(job.seq, frame);
    }
    tr.exit();
}

/// Client side of the replay: read one chunk's replies and check them.
/// `acked` holds the pages whose PUT this connection saw acknowledged;
/// a later GET of one must read the PUT value.
fn check_replies(
    client: &mut (TcpStream, FrameBuf),
    sent: &[Request],
    values: &Values,
    acked: &mut [bool],
    out: &mut ReplayOut,
) -> Result<(), String> {
    let mut scratch = Vec::with_capacity(VALUE_SIZE);
    let mut i = 0;
    while i < sent.len() {
        let frame = match client
            .1
            .pop()
            .map_err(|e| format!("replay reply decode: {e}"))?
        {
            Some(f) => f,
            None => {
                let n = client
                    .0
                    .read(client.1.space())
                    .map_err(|e| format!("replay client read: {e}"))?;
                if n == 0 {
                    return Err("replay socket closed".into());
                }
                client.1.commit(n);
                continue;
            }
        };
        let req = sent[i];
        let page = req.page as usize;
        i += 1;
        let ok = match &frame {
            Frame::Served { value, .. } if req.level == 1 => value.is_empty(),
            Frame::Served { value, .. } if acked[page] => {
                values.put_ok(req.page, value, &mut scratch)
            }
            Frame::Served { value, .. } => values.read_ok(req.page, value, &mut scratch),
            _ => {
                out.failed += 1;
                if out.notes.len() < 8 {
                    out.notes.push(format!("replay {req:?}: {frame:?}"));
                }
                continue;
            }
        };
        if ok && req.level == 1 {
            acked[page] = true;
        }
        if !ok {
            out.wrong_values += 1;
            out.failed += 1;
            if out.notes.len() < 8 {
                out.notes.push(format!("replay {req:?}: wrong value"));
            }
        }
    }
    Ok(())
}

/// Median time from a completion push (which rings the eventfd) on one
/// thread to the waiting reactor's wake-up on another, in µs.
pub fn ring_to_wake_us() -> Result<f64, String> {
    let clock = Clock::start();
    let to_b = Arc::new(EventFd::new().map_err(|e| format!("eventfd: {e}"))?);
    let to_a = EventFd::new().map_err(|e| format!("eventfd: {e}"))?;
    let queue: CompletionQueue<u64> = CompletionQueue::new(to_b.clone() as Arc<dyn Doorbell>);
    let reactor_a = Reactor::new().map_err(|e| format!("reactor: {e}"))?;
    let reactor_b = Reactor::new().map_err(|e| format!("reactor: {e}"))?;
    reactor_a
        .register(to_a.fd(), Token(0), Interest::READABLE)
        .map_err(|e| format!("register: {e}"))?;
    reactor_b
        .register(to_b.fd(), Token(0), Interest::READABLE)
        .map_err(|e| format!("register: {e}"))?;
    let mut lat = std::thread::scope(|s| {
        let waker = s.spawn(|| {
            let mut lat = Vec::with_capacity(PINGS);
            let mut events = Vec::new();
            let mut got = Vec::new();
            while lat.len() < PINGS {
                if reactor_b.wait(&mut events, 1000).unwrap_or(0) == 0 {
                    break;
                }
                let now = clock.now_nanos();
                let _ = to_b.drain();
                queue.drain_into(&mut got);
                lat.extend(got.drain(..).map(|t| now.saturating_sub(t)));
                let _ = to_a.ring();
            }
            lat
        });
        let mut events = Vec::new();
        for _ in 0..PINGS {
            queue.push(clock.now_nanos());
            if reactor_a.wait(&mut events, 1000).unwrap_or(0) == 0 {
                break;
            }
            let _ = to_a.drain();
        }
        waker.join().unwrap_or_default()
    });
    if lat.len() < PINGS {
        return Err(format!(
            "doorbell ping-pong stalled after {} rounds",
            lat.len()
        ));
    }
    lat.sort_unstable();
    Ok(lat[lat.len() / 2] as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Load};
    use wmlp_workloads::LevelDist;

    #[test]
    fn replicated_replay_drains_once_per_adopted_plan() {
        // `paced`'s stream under the skew-aware replicate partition.
        let wl = Workload {
            name: "paced-replicate",
            alpha: 1.2,
            levels: LevelDist::Uniform,
            partition: "replicate",
            store: false,
            load: Load::Closed,
        };
        let inst = workload::instance().expect("instance");
        let streams = wl.streams(&inst, 1, 1 << 16);
        let values = Values::new(1);
        let (out, _) =
            replay(&wl, &inst, 1, &streams, &values, 120.0, 1 << 17, None).expect("replay runs");
        assert_eq!(out.requests, 1 << 17);
        assert!(out.adoptions > 0, "a plan is adopted");
        assert_eq!(out.drains, out.adoptions);
        // Known server defect: a GET of a newly replicated key is served
        // by a shard that never saw the key's earlier PUT and answers with
        // the page's cold default. When this fails, replicas hold the
        // key's value and `paced` can run `--partition replicate` again.
        assert!(out.wrong_values > 0, "lost writes no longer show");
    }
}
