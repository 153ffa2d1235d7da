//! Model-checked properties of the serving stack's concurrency primitives.
//!
//! Every test runs the *real* production code (`spsc`, `run_shard`,
//! `Router`, `CompletionQueue`) under the `wmlp-check` exhaustive interleaving
//! explorer. The checked properties:
//!
//! 1. no lost wakeups   — every blocking handoff completes in every schedule
//! 2. no deadlock       — detected automatically by the explorer
//! 3. close drains all items
//! 4. `recv_batch` ≡ sequential `recv` × n
//! 5. shutdown never drops an accepted request (ring drain through the
//!    real `run_shard` worker)
//! 6. two event loops routing through the real `Router` under its lock,
//!    across an adopted plan change, with two real shard workers: the
//!    drain handshake (`DrainGate` markers) keeps per-key reply order
//!    equal to routing order in every schedule and never deadlocks —
//!    and the seeded mutant that advances the epoch *without* draining
//!    is caught by the checker
//! 7. the event loops' eventfd wakeup handshake: the real
//!    `CompletionQueue` over a model doorbell with eventfd *counting*
//!    semantics loses no wakeup in any schedule, a completion racing a
//!    shutdown ring is never stranded, a loop that drains its bell before
//!    reading the shutdown flag never misses the shutdown, and the seeded
//!    dropped-notify and flag-before-drain mutants are caught as
//!    deadlocks
//!
//! The per-connection in-flight cap needs no model: an event loop's read
//! gate runs on one thread, so a plain deterministic test covers it
//! (`event_loop`'s `read_gate_routes_at_most_max_inflight_per_connection`).
//!
//! Fixtures are deliberately tiny (ring capacities 1–2, ≤ 3 threads,
//! 2–4 items) — exhaustive exploration is exponential in yield points —
//! and each test also asserts determinism where the schedule count is part
//! of the contract.

// lint:orderings(SeqCst): the shutdown-race fixture publishes a flag
// before ringing its bell; the strongest ordering keeps the model's
// publish-then-ring story identical to production's.

use std::sync::Arc;

use wmlp_check::sync::atomic::AtomicBool;
use wmlp_check::sync::{Condvar, Mutex};
use wmlp_check::{explore, Config};
use wmlp_router::{PartitionMode, PartitionSpec, Partitioner, Route};
use wmlp_serve::notify::{CompletionQueue, Doorbell};
use wmlp_serve::server::Router;
use wmlp_serve::shard::{run_shard, ReplyTo, ShardJob, ShardMsg, ShardStats};
use wmlp_serve::spsc;

use wmlp_check::thread::spawn_named;
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::storage::SimStorage;
use wmlp_core::wire::Frame;

/// Completed `(conn, seq, frame)` triples, collected in delivery order by
/// the crate's `CompletionSink` for a plain vector. Its std mutex is
/// never held across a scheduling point, so it adds no interleavings.
type Replies = Arc<std::sync::Mutex<Vec<(u64, u64, Frame)>>>;

/// The sequence numbers delivered so far, in delivery order.
fn delivered(replies: &Replies) -> Vec<u64> {
    match replies.lock() {
        Ok(g) => g.iter().map(|(_, seq, _)| *seq).collect(),
        Err(p) => p.into_inner().iter().map(|(_, seq, _)| *seq).collect(),
    }
}

fn cfg() -> Config {
    Config::default()
}

/// Properties 1 + 2: a capacity-1 ring forces strict producer/consumer
/// alternation through both condvars; any lost wakeup or deadlock in the
/// notify protocol fails some schedule.
#[test]
fn spsc_capacity_one_handoff_never_loses_a_wakeup() {
    let report = explore(cfg(), || {
        let (tx, rx) = spsc::channel::<u32>(1);
        let producer = spawn_named("producer", move || {
            for i in 0..3u32 {
                assert!(tx.send(i).is_ok(), "receiver alive during send");
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2], "items in order, none lost");
        producer.join().expect("join producer");
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// Property 3: dropping the sender closes the ring, and the receiver still
/// sees every item that was accepted before the close.
#[test]
fn spsc_close_drains_all_accepted_items() {
    let report = explore(cfg(), || {
        let (tx, rx) = spsc::channel::<u32>(4);
        let producer = spawn_named("producer", move || {
            for i in 0..3u32 {
                assert!(tx.send(i).is_ok());
            }
            // tx drops here: the ring closes with items possibly queued.
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2], "close must drain, not drop");
        producer.join().expect("join producer");
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated);
}

/// Property 4: under every interleaving, draining via `recv_batch` yields
/// exactly the sequence sequential `recv` calls would — the batch API is
/// an amortization, not a semantic change.
#[test]
fn spsc_recv_batch_equals_sequential_recv() {
    let run = |batched: bool| {
        explore(cfg(), move || {
            let (tx, rx) = spsc::channel::<u32>(2);
            let producer = spawn_named("producer", move || {
                for i in 0..3u32 {
                    assert!(tx.send(i).is_ok());
                }
            });
            let mut got = Vec::new();
            if batched {
                let mut batch = Vec::new();
                loop {
                    batch.clear();
                    let n = rx.recv_batch(&mut batch, 2);
                    if n == 0 {
                        break;
                    }
                    assert!(n <= 2, "batch respects max");
                    got.extend_from_slice(&batch);
                }
            } else {
                while let Some(v) = rx.recv() {
                    got.push(v);
                }
            }
            assert_eq!(got, vec![0, 1, 2], "same drain order either way");
            producer.join().expect("join producer");
        })
    };
    let batched = run(true);
    let sequential = run(false);
    assert!(batched.failure.is_none(), "{}", batched.failure.unwrap());
    assert!(
        sequential.failure.is_none(),
        "{}",
        sequential.failure.unwrap()
    );
    assert!(!batched.truncated && !sequential.truncated);
}

/// Property 5: graceful shutdown through the *real* shard worker — every
/// job accepted into the ring before close is answered exactly once, and
/// the queue gauge returns to zero. `run_shard` runs as a checked virtual
/// thread (its engine work is pure compute; the reply sink never blocks).
#[test]
fn shutdown_never_drops_an_accepted_request() {
    let report = explore(cfg(), || {
        let inst =
            MlInstance::from_rows(2, (0..3).map(|p| vec![10 + p as u64]).collect()).expect("inst");
        let stats = Arc::new(ShardStats::default());
        let (tx, rx) = spsc::channel::<ShardMsg>(2);
        let replies: Replies = Arc::default();
        let st2 = Arc::clone(&stats);
        let inst2 = inst.clone();
        let worker = spawn_named("shard-0", move || {
            let mut policy = wmlp_algos::PolicyRegistry::standard()
                .build("lru", &inst2, 0)
                .expect("build lru");
            let mut store = SimStorage::new(inst2.n(), inst2.max_levels(), 8);
            run_shard(&inst2, policy.as_mut(), rx, &st2, 2, &mut store);
        });
        for (seq, page) in [0u32, 1, 0].into_iter().enumerate() {
            stats.note_enqueued();
            assert!(
                tx.send(ShardMsg::Job(ShardJob {
                    req: Request::top(page),
                    put: None,
                    seq: seq as u64,
                    reply: ReplyTo::Sink {
                        sink: replies.clone(),
                        conn: 0,
                    },
                }))
                .is_ok(),
                "worker alive during send"
            );
        }
        drop(tx); // close: the worker must drain, then exit
        worker.join().expect("join shard worker");
        assert_eq!(
            delivered(&replies),
            vec![0, 1, 2],
            "every accepted request answered once, in order"
        );
        assert_eq!(stats.load().queue_depth, 0, "queue gauge back to zero");
        assert_eq!(stats.snapshot().requests, 3);
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated);
}

/// How a virtual event loop routes one job: the real [`Router`] or the
/// seeded no-drain mutant.
trait Dispatch: Send + 'static {
    fn dispatch(&mut self, job: ShardJob);
}

impl Dispatch for Router {
    fn dispatch(&mut self, job: ShardJob) {
        assert!(Router::dispatch(self, job).is_ok(), "shards alive");
    }
}

/// The seeded mutant: [`Router::dispatch`] with the plan-change drain
/// left out — the epoch advances and the new plan routes at once.
struct NoDrainRouter {
    partitioner: Partitioner,
    rings: Vec<spsc::Sender<ShardMsg>>,
    stats: Vec<Arc<ShardStats>>,
}

impl Dispatch for NoDrainRouter {
    fn dispatch(&mut self, job: ShardJob) {
        if self.partitioner.epoch_due() {
            self.partitioner.advance_epoch();
        }
        let Route::One(shard) = self.partitioner.route(job.req.page, false) else {
            panic!("GETs never fan out");
        };
        self.stats[shard].note_enqueued();
        assert!(self.rings[shard].send(ShardMsg::Job(job)).is_ok());
    }
}

/// Sequence numbers in routing order; a std mutex, never held across a
/// scheduling point.
type Routed = Arc<std::sync::Mutex<Vec<u64>>>;

/// One event loop routing one GET of the fixture's page under sequence
/// number `seq`: dispatched under the router lock and logged in
/// `routed` before the lock is released, so the log is the routing
/// order.
fn route_one<R: Dispatch>(router: &Mutex<R>, routed: &Routed, replies: &Replies, seq: u64) {
    let mut r = match router.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    r.dispatch(ShardJob {
        req: Request::top(1),
        put: None,
        seq,
        reply: ReplyTo::Sink {
            sink: replies.clone(),
            conn: seq,
        },
    });
    match routed.lock() {
        Ok(mut g) => g.push(seq),
        Err(p) => p.into_inner().push(seq),
    }
}

/// The routing fixture: two event loops — the main thread and
/// `loop-b` — each route one GET of page 1 through one shared router
/// under its mutex, while two real `run_shard` workers serve. The
/// replicate spec samples every request with a 1-request epoch, so the
/// second GET to be routed always lands on an adopted plan change: the
/// first went to page 1's hash home (shard 1), the change replicates the
/// page, and the second is served round-robin by shard 0.
///
/// Asserts that the replies arrive in routing order and that the plan
/// change happened (each shard served one request).
fn routing_fixture<R: Dispatch>(
    router: impl FnOnce(Partitioner, Vec<spsc::Sender<ShardMsg>>, Vec<Arc<ShardStats>>) -> R,
) {
    let inst =
        MlInstance::from_rows(2, (0..3).map(|p| vec![10 + p as u64]).collect()).expect("inst");
    let replies: Replies = Arc::default();
    let mut rings = Vec::new();
    let mut workers = Vec::new();
    let mut stats = Vec::new();
    for s in 0..2 {
        let (tx, rx) = spsc::channel::<ShardMsg>(2);
        rings.push(tx);
        let st = Arc::new(ShardStats::default());
        stats.push(Arc::clone(&st));
        let inst2 = inst.clone();
        workers.push(spawn_named(format!("shard-{s}"), move || {
            let mut policy = wmlp_algos::PolicyRegistry::standard()
                .build("lru", &inst2, 0)
                .expect("build lru");
            let mut store = SimStorage::new(inst2.n(), inst2.max_levels(), 8);
            run_shard(&inst2, policy.as_mut(), rx, &st, 2, &mut store);
        }));
    }
    let spec = PartitionSpec {
        sample_every: 1,
        epoch_len: 1,
        ..PartitionSpec::new(PartitionMode::Replicate, 2)
    };
    let router = Arc::new(Mutex::new(router(
        Partitioner::new(spec),
        rings,
        stats.clone(),
    )));
    let routed: Routed = Arc::default();
    let loop_b = {
        let (router, routed, replies) = (router.clone(), routed.clone(), replies.clone());
        spawn_named("loop-b", move || route_one(&router, &routed, &replies, 1))
    };
    route_one(&router, &routed, &replies, 0);
    loop_b.join().expect("join loop-b");
    drop(router); // the last reference: closes the rings
    for w in workers {
        w.join().expect("join shard worker");
    }
    let routed = match routed.lock() {
        Ok(g) => g.clone(),
        Err(p) => p.into_inner().clone(),
    };
    assert_eq!(
        delivered(&replies),
        routed,
        "page 1's replies must arrive in routing order across the plan change"
    );
    for st in &stats {
        assert_eq!(st.snapshot().requests, 1, "the plan change re-homed a GET");
    }
}

/// Property 6 (correct protocol): two loops routing through the real
/// [`Router`] across an adopted plan change — per-key reply order
/// matches routing order in *every* schedule, and neither the router
/// lock nor the drain handshake ever deadlocks.
#[test]
fn router_drain_preserves_per_key_order_across_two_loops() {
    let report = explore(cfg(), || routing_fixture(Router::new));
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// Property 6 (seeded mutant): advancing the epoch *without* draining
/// lets shard 0 answer the re-homed GET before shard 1 answers the
/// old-plan one — the checker must find that schedule.
#[test]
fn plan_change_without_drain_is_caught() {
    let report = explore(cfg(), || {
        routing_fixture(|partitioner, rings, stats| NoDrainRouter {
            partitioner,
            rings,
            stats,
        })
    });
    assert!(
        report.failure.is_some(),
        "the undrained mutant must reorder page 1 in some schedule"
    );
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// A model doorbell with `eventfd` counting semantics: each ring bumps a
/// counter, and a wait blocks until the counter is nonzero then consumes
/// it whole — exactly what `epoll_wait` + `EventFd::drain` do in the
/// production event loop. With `drop_notify` it becomes the seeded
/// mutant: the count is still published, but the sleeping consumer is
/// never woken — the dropped-notification bug the counting contract is
/// supposed to make impossible.
struct ModelBell {
    count: Mutex<u64>,
    ready: Condvar,
    drop_notify: bool,
}

impl ModelBell {
    fn new(drop_notify: bool) -> Self {
        ModelBell {
            count: Mutex::new(0),
            ready: Condvar::new(),
            drop_notify,
        }
    }

    /// Block until at least one ring has landed, then consume all of
    /// them — the model analogue of one `epoll_wait` wakeup followed by
    /// `EventFd::drain`.
    fn wait(&self) {
        self.wait_ready();
        self.drain();
    }

    /// Block until at least one ring has landed, consuming nothing — the
    /// model analogue of `epoll_wait` reporting the bell readable.
    fn wait_ready(&self) {
        let mut g = match self.count.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        while *g == 0 {
            g = match self.ready.wait(g) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Consume every ring so far — the model analogue of
    /// `EventFd::drain`.
    fn drain(&self) {
        let mut g = match self.count.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        *g = 0;
    }
}

impl Doorbell for ModelBell {
    fn ring(&self) {
        let mut g = match self.count.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        *g += 1;
        if !self.drop_notify {
            self.ready.notify_one();
        }
    }
}

/// Property 7 (no lost wakeup): two shard workers push completions onto
/// the real [`CompletionQueue`] while the event loop waits on the model
/// bell. In every schedule the loop collects both completions — a ring
/// landing between the loop's drain and its next wait is accumulated by
/// the counter, never lost.
#[test]
fn eventfd_handshake_never_loses_a_wakeup() {
    let report = explore(cfg(), || {
        let bell = Arc::new(ModelBell::new(false));
        let q = Arc::new(CompletionQueue::<u64>::new(
            Arc::clone(&bell) as Arc<dyn Doorbell>
        ));
        let workers: Vec<_> = [0u64, 1]
            .into_iter()
            .map(|seq| {
                let q2 = Arc::clone(&q);
                spawn_named(format!("shard-{seq}"), move || q2.push(seq))
            })
            .collect();
        let mut got = Vec::new();
        while got.len() < 2 {
            bell.wait();
            q.drain_into(&mut got);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1], "every published completion surfaces");
        for w in workers {
            w.join().expect("join shard worker");
        }
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

/// Property 7 (concurrent close): a shard completion races
/// `trigger_shutdown`'s ring. The loop keeps waiting until it has seen
/// *both* the shutdown flag and the in-flight completion — mirroring the
/// production loop, which only exits once its connections have drained.
/// No schedule strands the completion in the queue or wedges the loop.
#[test]
fn completion_racing_a_shutdown_ring_is_never_stranded() {
    let report = explore(cfg(), || {
        let bell = Arc::new(ModelBell::new(false));
        let q = Arc::new(CompletionQueue::<u64>::new(
            Arc::clone(&bell) as Arc<dyn Doorbell>
        ));
        let shutdown = Arc::new(AtomicBool::new(false));
        let q2 = Arc::clone(&q);
        let worker = spawn_named("shard-0", move || q2.push(7));
        let (b2, s2) = (Arc::clone(&bell), Arc::clone(&shutdown));
        let closer = spawn_named("closer", move || {
            // trigger_shutdown's discipline: publish the flag, then ring.
            s2.store(true, std::sync::atomic::Ordering::SeqCst);
            b2.ring();
        });
        let mut got = Vec::new();
        while !shutdown.load(std::sync::atomic::Ordering::SeqCst) || got.is_empty() {
            bell.wait();
            q.drain_into(&mut got);
        }
        assert_eq!(got, vec![7], "the in-flight completion survives the race");
        worker.join().expect("join shard worker");
        closer.join().expect("join closer");
    });
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated);
}

/// One event-loop wake-up, in the order the production loop runs it: a
/// hand-off ring is already pending when `trigger_shutdown` (the
/// `closer`) publishes the flag and rings. The loop waits for the bell,
/// then drains it and reads the flag — or, with `flag_first`, the seeded
/// mutant reads the flag before draining, so a shutdown ring landing
/// between the two is consumed unobserved.
fn shutdown_observation_fixture(flag_first: bool) {
    let bell = Arc::new(ModelBell::new(false));
    let shutdown = Arc::new(AtomicBool::new(false));
    bell.ring(); // the hand-off ring that wakes the loop first
    let (b2, s2) = (Arc::clone(&bell), Arc::clone(&shutdown));
    let closer = spawn_named("closer", move || {
        s2.store(true, std::sync::atomic::Ordering::SeqCst);
        b2.ring();
    });
    loop {
        bell.wait_ready();
        let seen = if flag_first {
            let seen = shutdown.load(std::sync::atomic::Ordering::SeqCst);
            bell.drain();
            seen
        } else {
            bell.drain();
            shutdown.load(std::sync::atomic::Ordering::SeqCst)
        };
        if seen {
            break;
        }
    }
    closer.join().expect("join closer");
}

/// Property 7 (shutdown observation): draining the doorbell before
/// reading the flag, the loop sees the shutdown in every schedule.
#[test]
fn shutdown_flag_read_after_the_drain_is_never_missed() {
    let report = explore(cfg(), || shutdown_observation_fixture(false));
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated);
}

/// Property 7 (seeded mutant): reading the flag before the drain loses
/// the shutdown ring in some schedule, which parks the loop for good.
#[test]
fn flag_read_before_the_drain_mutant_is_caught() {
    let report = explore(cfg(), || shutdown_observation_fixture(true));
    assert!(
        report.failure.is_some(),
        "the flag-first mutant must park the loop in some schedule"
    );
}

/// Property 7 (seeded mutant): a bell that publishes its count but never
/// notifies. The checker must find the schedule where the loop parks on
/// the condvar *before* the worker rings — a consumer asleep with work
/// published and nobody left to wake it, reported as a deadlock.
#[test]
fn dropped_notify_mutant_is_caught() {
    let report = explore(cfg(), || {
        let bell = Arc::new(ModelBell::new(true));
        let q = Arc::new(CompletionQueue::<u64>::new(
            Arc::clone(&bell) as Arc<dyn Doorbell>
        ));
        let q2 = Arc::clone(&q);
        let worker = spawn_named("shard-0", move || q2.push(0));
        let mut got = Vec::new();
        while got.is_empty() {
            bell.wait();
            q.drain_into(&mut got);
        }
        worker.join().expect("join shard worker");
    });
    assert!(
        report.failure.is_some(),
        "the dropped-notify mutant must deadlock in some schedule"
    );
}

/// The explorer itself is deterministic on production code: the same
/// fixture and bounds give the same schedule and prune counts.
#[test]
fn exploration_of_production_code_is_deterministic() {
    let body = || {
        let (tx, rx) = spsc::channel::<u32>(1);
        let producer = spawn_named("producer", move || {
            for i in 0..2u32 {
                assert!(tx.send(i).is_ok());
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1]);
        producer.join().expect("join producer");
    };
    let r1 = explore(cfg(), body);
    let r2 = explore(cfg(), body);
    assert!(r1.failure.is_none(), "{}", r1.failure.unwrap());
    assert_eq!(
        (r1.schedules, r1.pruned, r1.truncated),
        (r2.schedules, r2.pruned, r2.truncated),
        "same bounds must reproduce the same exploration"
    );
}
