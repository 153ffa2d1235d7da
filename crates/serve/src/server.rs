//! The TCP server: router, shard workers, event loops, and lifecycle.
//!
//! Thread topology (plain threads, no async runtime; every thread is
//! named via `wmlp_check::thread::spawn_named` — `io-{i}`, `shard-{i}` —
//! so panics and `/proc` identify the actor, and all synchronisation
//! goes through the `wmlp_check` shim so the same code runs under the
//! model checker):
//!
//! ```text
//! io-0 … io-{N-1}  event loops owning every client socket (loop 0 also
//!   │      ▲       owns the listener)
//!   │      └──── per-loop completion queue + eventfd doorbell ◀──┐
//!   ▼  ShardJob (global page ids), routed under one lock         │
//! Router (owns the Partitioner and every ring's sending end)     │
//!   └──SPSC ring per shard──▶ shard-0 … shard-{S-1} ─────────────┘
//! ```
//!
//! Connections are *pipelined*: a loop decodes and routes frames
//! continuously, tagging each with a per-connection sequence number, and
//! writes replies back in request order through a per-connection reorder
//! buffer — so many requests ride each connection concurrently and the
//! socket round-trip is amortized away. A bounded in-flight window
//! ([`ServeConfig::max_inflight`]) stops reading from a connection at the
//! cap, so a client that never drains responses cannot pin unbounded
//! server memory (see [`crate::event_loop`]). Loops take turns at the
//! one [`Router`], so the rings are SPSC with blocking backpressure, and
//! shards drain a batch of jobs per ring wakeup into
//! [`wmlp_sim::engine::SimSession::step_batch`].
//!
//! The [`Router`] owns the skew-aware [`Partitioner`] (`wmlp-router`):
//! under `--partition replicate|migrate` it feeds every routed page to
//! the hot-key detector, and at epoch boundaries (counted in routed
//! requests, never wall time) recomputes per-key overrides. When the
//! override set changes, the routing loop pushes a [`ShardMsg::Drain`]
//! marker down every ring and blocks (holding the router lock) on a
//! [`DrainGate`] until all shards have served everything routed under
//! the old plan — so a key's requests are never reordered by a
//! re-homing. Replicated PUTs fan out to every shard through a
//! [`FanoutAck`] that forwards the home shard's reply only after the
//! last replica has written.
//!
//! Graceful shutdown (a SHUTDOWN frame or [`ServerHandle::shutdown`])
//! sets a flag and rings every loop's doorbell; each loop then drops the
//! listener, half-closes its client sockets so reads drain to EOF, and
//! refuses connections accepted after the flag. Requests already queued
//! in shard rings are still served and answered — the last loop to exit
//! drops the router, closing the rings, which drain before the workers
//! exit — while requests arriving after the flag are refused with
//! [`ErrorCode::ShuttingDown`](wmlp_core::wire::ErrorCode).

// lint:orderings(SeqCst): the shutdown latch is a one-shot flag read by
// every event loop and the SHUTDOWN handler; it is
// set at most once per process and sits nowhere near a fast path, so the
// strongest ordering is the cheapest correct choice to reason about.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use wmlp_algos::PolicyRegistry;
use wmlp_check::sync::atomic::{AtomicBool, Ordering};
use wmlp_check::sync::Mutex;
use wmlp_check::thread::{spawn_named, JoinHandle};
use wmlp_core::instance::MlInstance;
use wmlp_core::net::{EventFd, Reactor};
use wmlp_core::storage::{SimStorage, Storage};
use wmlp_core::wire::WireStats;
use wmlp_router::{DrainGate, PartitionMode, PartitionSpec, Partitioner, Route};
use wmlp_store::{RecoverMode, SegmentStore, StoreOptions};

use crate::event_loop::{run_io_loop, LoopShared};
use crate::shard::{
    run_shard, shard_instances, FanoutAck, ReplyTo, ShardJob, ShardMsg, ShardStats,
};
use crate::spsc;

/// Everything the server needs besides the instance itself.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Number of shard workers (≥ 1).
    pub shards: usize,
    /// Per-shard ring capacity; a full ring blocks routing into it.
    pub queue_depth: usize,
    /// Policy spec, in [`PolicyRegistry`] syntax (e.g.
    /// `"landlord(eta=0.5)"`).
    pub policy: String,
    /// Policy seed; shard `s` gets `seed + s` so randomized policies
    /// don't move in lock-step.
    pub seed: u64,
    /// Max requests a shard drains per ring wakeup into one
    /// [`wmlp_sim::engine::SimSession::step_batch`] call (≥ 1).
    pub batch: usize,
    /// Per-connection cap on pipelined requests awaiting responses
    /// (≥ 1); a connection at the cap is not read until replies drain.
    pub max_inflight: usize,
    /// Directory for the tiered on-disk segment store; `None` keeps the
    /// levels simulated in memory ([`SimStorage`]). Each shard owns the
    /// `shard-{s}` subdirectory, so the same `--store` path reopened with
    /// the same shard count finds each shard's own log.
    pub store_dir: Option<String>,
    /// How an on-disk store treats the warm tier found in its segment
    /// logs at startup (ignored without [`ServeConfig::store_dir`]).
    pub recover: RecoverMode,
    /// Byte size of the default value synthesized for pages never
    /// written (≥ 1).
    pub value_size: usize,
    /// Partitioning strategy: `hash`, `replicate`, or `migrate` (the
    /// `--partition` flag; parsed by [`PartitionMode::parse`]).
    pub partition: String,
    /// Counter budget for the hot-key detector (non-hash modes).
    pub detector_capacity: usize,
    /// Maximum number of per-key overrides per plan epoch.
    pub hot_k: usize,
    /// Routed requests per plan epoch; 0 freezes the plan at the hash
    /// baseline even in non-hash modes.
    pub epoch_len: u64,
    /// Number of event-loop threads owning the client sockets (≥ 1).
    /// Two loops saturate most NICs; the loops only shuffle bytes, the
    /// shards do the work.
    pub io_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 1,
            queue_depth: 64,
            policy: "lru".into(),
            seed: 0,
            batch: 64,
            max_inflight: 256,
            store_dir: None,
            recover: RecoverMode::Warm,
            value_size: 64,
            partition: "hash".into(),
            detector_capacity: 256,
            hot_k: 64,
            epoch_len: 4096,
            io_threads: 2,
        }
    }
}

impl ServeConfig {
    /// The partition spec this config describes for `shards` shards.
    pub fn partition_spec(&self, shards: usize) -> Result<PartitionSpec, String> {
        let mode = PartitionMode::parse(&self.partition)?;
        Ok(PartitionSpec {
            detector_capacity: self.detector_capacity.max(1),
            hot_k: self.hot_k,
            epoch_len: self.epoch_len,
            // sample_every stays at the spec default: sampling is a
            // router implementation detail, not a deployment knob.
            ..PartitionSpec::new(mode, shards)
        })
    }
}

/// Server startup/configuration failures.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure while binding or accepting.
    Io(std::io::Error),
    /// The instance cannot be split as requested.
    BadConfig(String),
    /// The policy spec was rejected by the registry.
    Policy(String),
    /// The on-disk segment store failed to open or recover.
    Store(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::BadConfig(m) => write!(f, "bad config: {m}"),
            ServeError::Policy(m) => write!(f, "bad policy: {m}"),
            ServeError::Store(m) => write!(f, "store error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// State shared between the handle, the event loops, and the SHUTDOWN
/// handler.
pub(crate) struct Inner {
    pub(crate) addr: SocketAddr,
    pub(crate) inst: Arc<MlInstance>,
    pub(crate) max_inflight: usize,
    pub(crate) shutdown: AtomicBool,
    pub(crate) stats: Vec<Arc<ShardStats>>,
    /// Warm pages rebuilt from segment logs at startup, summed over
    /// shards; always 0 for in-memory storage and cold recovery.
    pub(crate) warm_recovered: u64,
    /// Doorbells of the event loops, rung on shutdown so loops parked in
    /// `epoll_wait` observe the flag.
    pub(crate) bells: Vec<Arc<EventFd>>,
}

impl Inner {
    /// Flip the shutdown flag; on the first call, ring every event loop,
    /// which then stops accepting and half-closes its own connections.
    pub(crate) fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for bell in &self.bells {
            let _ = bell.ring();
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown_and_join`] (or have a client send SHUTDOWN
/// and then [`ServerHandle::join`]).
pub struct ServerHandle {
    inner: Arc<Inner>,
    /// The event loops: they own every client socket, and their exit
    /// means all connections have drained.
    io: Vec<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Aggregate stats across shards, racy but monotone.
    pub fn stats(&self) -> WireStats {
        ShardStats::aggregate(&self.inner.stats)
    }

    /// Warm pages recovered from on-disk segment logs at startup, summed
    /// over shards (0 for in-memory storage or cold recovery).
    pub fn warm_recovered(&self) -> u64 {
        self.inner.warm_recovered
    }

    /// Request shutdown without blocking; idempotent.
    pub fn shutdown(&self) {
        self.inner.trigger_shutdown();
    }

    /// Wait for the server to stop (a SHUTDOWN frame or a prior
    /// [`ServerHandle::shutdown`] call) and return the final aggregate
    /// stats after every shard has drained.
    pub fn join(mut self) -> WireStats {
        // An event loop exits only once its last connection has drained,
        // and the last loop's exit drops the router, closing the shard
        // rings; the shards drain and exit. This ordering is what
        // guarantees in-flight requests are served.
        for h in self.io.drain(..) {
            let _ = h.join();
        }
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
        ShardStats::aggregate(&self.inner.stats)
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
    pub fn shutdown_and_join(self) -> WireStats {
        self.shutdown();
        self.join()
    }
}

/// Bind, spawn the worker topology, and return a handle.
///
/// Fails fast — before binding — if the instance cannot be sharded or the
/// policy spec is invalid.
pub fn start(inst: Arc<MlInstance>, cfg: &ServeConfig) -> Result<ServerHandle, ServeError> {
    let shard_insts = shard_instances(&inst, cfg.shards).map_err(ServeError::BadConfig)?;
    let partition_spec = cfg
        .partition_spec(shard_insts.len())
        .map_err(ServeError::BadConfig)?;
    // Validate the spec against every shard instance up front (policies
    // are not Send, so the real builds happen inside the shard threads).
    let registry = PolicyRegistry::standard();
    for (s, si) in shard_insts.iter().enumerate() {
        registry
            .build(&cfg.policy, si, cfg.seed.wrapping_add(s as u64))
            .map_err(ServeError::Policy)?;
    }

    // Storage backends, one per shard, built before binding so a corrupt
    // or unopenable store fails fast instead of inside a worker thread.
    // Opening an on-disk store replays its segment logs here, so the warm
    // count is known before the first request arrives.
    let mut stores: Vec<Box<dyn Storage + Send>> = Vec::with_capacity(shard_insts.len());
    let mut warm_recovered = 0u64;
    for (s, si) in shard_insts.iter().enumerate() {
        match &cfg.store_dir {
            None => {
                stores.push(Box::new(SimStorage::new(
                    si.n(),
                    si.max_levels(),
                    cfg.value_size.max(1),
                )));
            }
            Some(dir) => {
                let path = std::path::Path::new(dir).join(format!("shard-{s}"));
                let mut opts = StoreOptions::new(si.n(), si.max_levels());
                opts.value_size = cfg.value_size.max(1);
                opts.recover = cfg.recover;
                let store = SegmentStore::open(&path, opts)
                    .map_err(|e| ServeError::Store(format!("{}: {e}", path.display())))?;
                warm_recovered += store.warm_len() as u64;
                stores.push(Box::new(store));
            }
        }
    }

    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    // The event loops' kernel resources (epoll instances and doorbell
    // eventfds) are created before any thread spawns, so an fd-limit
    // failure surfaces here instead of inside a worker.
    listener.set_nonblocking(true)?;
    let io_threads = cfg.io_threads.max(1);
    let mut io_shareds: Vec<Arc<LoopShared>> = Vec::with_capacity(io_threads);
    let mut reactors: Vec<Reactor> = Vec::with_capacity(io_threads);
    for _ in 0..io_threads {
        io_shareds.push(LoopShared::new()?);
        reactors.push(Reactor::new()?);
    }

    let stats: Vec<Arc<ShardStats>> = shard_insts
        .iter()
        .map(|_| Arc::new(ShardStats::default()))
        .collect();
    let inner = Arc::new(Inner {
        addr,
        inst,
        max_inflight: cfg.max_inflight.max(1),
        shutdown: AtomicBool::new(false),
        stats: stats.clone(),
        warm_recovered,
        bells: io_shareds.iter().map(|s| Arc::clone(&s.bell)).collect(),
    });

    // Shard workers, each on its own ring, each owning its storage.
    let mut rings = Vec::with_capacity(shard_insts.len());
    let mut shard_handles = Vec::with_capacity(shard_insts.len());
    for (s, ((si, st), mut store)) in shard_insts.into_iter().zip(stats).zip(stores).enumerate() {
        let (tx, rx) = spsc::channel(cfg.queue_depth.max(1));
        rings.push(tx);
        let spec = cfg.policy.clone();
        let seed = cfg.seed.wrapping_add(s as u64);
        let batch = cfg.batch.max(1);
        shard_handles.push(spawn_named(format!("shard-{s}"), move || {
            // Already validated above; a failure here would be a
            // non-deterministic registry, which none of the policies are.
            if let Ok(mut policy) = PolicyRegistry::standard().build(&spec, &si, seed) {
                run_shard(&si, policy.as_mut(), rx, &st, batch, store.as_mut());
            }
        }));
    }

    // The event loops hold every reference to the router: the last to
    // exit drops it, closing the shard rings once all requests are routed.
    let router = Arc::new(Mutex::new(Router::new(
        Partitioner::new(partition_spec),
        rings,
        inner.stats.clone(),
    )));
    let peers = Arc::new(io_shareds);
    let mut listener = Some(listener); // loop 0 owns it
    let io_handles: Vec<JoinHandle<()>> = reactors
        .into_iter()
        .enumerate()
        .map(|(i, reactor)| {
            let inner = Arc::clone(&inner);
            let peers = Arc::clone(&peers);
            let router = Arc::clone(&router);
            let listener = listener.take();
            spawn_named(format!("io-{i}"), move || {
                run_io_loop(inner, i, reactor, peers, listener, router);
            })
        })
        .collect();

    Ok(ServerHandle {
        inner,
        io: io_handles,
        shards: shard_handles,
    })
}

/// A shard ring was found closed: a shard worker died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardGone;

/// The skew-aware [`Partitioner`] plus every shard ring's sending end
/// and queue gauge. The event loops route under one lock around it, so
/// routing is one total order and each ring has one producer at a time.
/// Dropping the router closes the shard rings.
pub struct Router {
    partitioner: Partitioner,
    rings: Vec<spsc::Sender<ShardMsg>>,
    stats: Vec<Arc<ShardStats>>,
}

impl Router {
    /// A router feeding `rings`, with `stats[s]` the gauge of ring `s`.
    pub fn new(
        partitioner: Partitioner,
        rings: Vec<spsc::Sender<ShardMsg>>,
        stats: Vec<Arc<ShardStats>>,
    ) -> Router {
        Router {
            partitioner,
            rings,
            stats,
        }
    }

    /// Enqueue `job` on the ring(s) the plan picks, first draining every
    /// ring if the plan's override set is about to change. Blocks while a
    /// chosen ring is full or a drain is in progress. A closed ring is
    /// fatal: every ring is closed (the shards drain and exit) and this
    /// and every later call fail. Queue gauges stay balanced either way.
    pub fn dispatch(&mut self, job: ShardJob) -> Result<(), ShardGone> {
        if self.rings.is_empty() {
            return Err(ShardGone);
        }
        if self.partitioner.epoch_due() && self.partitioner.advance_epoch().changed {
            // The drain markers sit behind all old-plan jobs (rings are
            // FIFO), so the gate opening means no shard still holds
            // old-plan work and the new plan may re-home keys.
            let gate = DrainGate::new(self.rings.len());
            let mut dead = false;
            for ring in &self.rings {
                dead |= ring.send(ShardMsg::Drain(gate.clone())).is_err();
            }
            if dead {
                // A dead shard's marker never acks; waiting would hang.
                self.rings.clear();
                return Err(ShardGone);
            }
            gate.wait_zero();
        }
        match self.partitioner.route(job.req.page, job.put.is_some()) {
            Route::One(shard) => self.send(shard, job),
            Route::Fanout { home } => {
                // Replicated PUT: one copy per shard; the last completion
                // forwards the home shard's reply to the owning event
                // loop's completion queue.
                let ack = FanoutAck::new(self.rings.len(), job.seq, job.reply);
                for shard in 0..self.rings.len() {
                    let copy = ShardJob {
                        req: job.req,
                        put: job.put.clone(),
                        seq: job.seq,
                        reply: ReplyTo::Fanout {
                            ack: Arc::clone(&ack),
                            home: shard == home,
                        },
                    };
                    self.send(shard, copy)?;
                }
                Ok(())
            }
        }
    }

    /// Enqueue one job on `shard`'s ring, counting it in the gauge.
    fn send(&mut self, shard: usize, job: ShardJob) -> Result<(), ShardGone> {
        self.stats[shard].note_enqueued();
        if self.rings[shard].send(ShardMsg::Job(job)).is_err() {
            self.stats[shard].note_done();
            self.rings.clear();
            return Err(ShardGone);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_core::instance::Request;
    use wmlp_core::wire::Frame;
    use wmlp_router::Override;

    type Replies = Arc<std::sync::Mutex<Vec<(u64, u64, Frame)>>>;

    /// A job for `page` answered into `replies`; `put` makes it a PUT.
    fn job(page: u32, seq: u64, put: bool, replies: &Replies) -> ShardJob {
        ShardJob {
            req: Request::top(page),
            put: put.then(|| vec![7u8; 4]),
            seq,
            reply: ReplyTo::Sink {
                sink: replies.clone(),
                conn: 0,
            },
        }
    }

    /// A router over two rings with shard 1's receiver dropped; the
    /// returned receiver stands in for shard 0.
    fn router_with_dead_shard(
        partitioner: Partitioner,
    ) -> (Router, spsc::Receiver<ShardMsg>, Vec<Arc<ShardStats>>) {
        let (tx0, rx0) = spsc::channel::<ShardMsg>(4);
        let (tx1, _) = spsc::channel::<ShardMsg>(4);
        let stats: Vec<Arc<ShardStats>> = vec![Arc::default(), Arc::default()];
        let router = Router::new(partitioner, vec![tx0, tx1], stats.clone());
        (router, rx0, stats)
    }

    /// Take the next job off a shard's ring and count it answered.
    fn serve_one(rx: &spsc::Receiver<ShardMsg>, stats: &ShardStats) -> ShardJob {
        match rx.recv() {
            Some(ShardMsg::Job(job)) => {
                stats.note_done();
                job
            }
            _ => panic!("expected a queued job"),
        }
    }

    /// A closed ring stops the router: the request routed to it fails with
    /// its gauge balanced, every later request fails too, and the live
    /// shard's ring is closed behind the job it already holds.
    #[test]
    fn dispatch_fails_stop_once_a_shard_ring_is_closed() {
        let replies: Replies = Arc::default();
        let (mut router, rx0, stats) =
            router_with_dead_shard(Partitioner::new(PartitionSpec::hash(2)));
        assert_eq!(router.dispatch(job(0, 0, false, &replies)), Ok(()));
        assert_eq!(router.dispatch(job(1, 1, false, &replies)), Err(ShardGone));
        assert_eq!(
            stats[1].load().queue_depth,
            0,
            "the failed enqueue is undone"
        );
        assert_eq!(router.dispatch(job(0, 2, false, &replies)), Err(ShardGone));
        assert_eq!(serve_one(&rx0, &stats[0]).seq, 0);
        assert!(rx0.recv().is_none(), "the router closed the live ring");
        assert_eq!(stats[0].load().queue_depth, 0);
    }

    /// A replicated PUT whose second copy meets a dead shard: the router
    /// fails and stays failed, the dead shard's gauge is undone, and once
    /// the live shard serves its copy every gauge is back at zero. The
    /// countdown still waits for the lost copy, so no reply reaches the
    /// client.
    #[test]
    fn fanout_to_a_dead_shard_leaves_every_queue_gauge_balanced() {
        let mut partitioner = Partitioner::new(PartitionSpec {
            sample_every: 1,
            epoch_len: 2,
            ..PartitionSpec::new(PartitionMode::Replicate, 2)
        });
        partitioner.route(0, false);
        partitioner.route(0, false);
        assert!(partitioner.epoch_due() && partitioner.advance_epoch().changed);
        assert_eq!(
            partitioner.plan().overrides.get(&0),
            Some(&Override::Replicated)
        );

        let replies: Replies = Arc::default();
        let (mut router, rx0, stats) = router_with_dead_shard(partitioner);
        assert_eq!(router.dispatch(job(0, 0, true, &replies)), Err(ShardGone));
        assert_eq!(stats[0].load().queue_depth, 1, "the home copy is queued");
        assert_eq!(stats[1].load().queue_depth, 0, "the lost copy is undone");
        assert_eq!(stats[1].load().queue_hwm, 1);
        assert_eq!(router.dispatch(job(0, 1, false, &replies)), Err(ShardGone));

        let copy = serve_one(&rx0, &stats[0]);
        assert!(matches!(copy.reply, ReplyTo::Fanout { home: true, .. }));
        copy.reply.deliver(copy.seq, Frame::Bye);
        assert!(rx0.recv().is_none(), "the router closed the live ring");
        for s in &stats {
            assert_eq!(s.load().queue_depth, 0);
        }
        let delivered = match replies.lock() {
            Ok(g) => g.len(),
            Err(p) => p.into_inner().len(),
        };
        assert_eq!(delivered, 0, "the countdown never completes");
    }
}
