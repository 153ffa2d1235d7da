//! The end-to-end run against a real `wmlp-serve` process.
//!
//! Phases, in order, all on the same two connections:
//!
//! 1. set-up, repeated [`SETUPS`] times (start the server, connect every
//!    connection); the first `SETUPS - 1` servers are shut down again;
//! 2. warm-up, untimed, so the caches fill before measuring;
//! 3. the main window: closed loop, or open loop at the reference rate;
//! 4. (open-loop workloads) the sustained-rate ladder: open loop at each
//!    offered rate in turn, until one misses the latency limit or builds
//!    a backlog;
//! 5. STATS, peak RSS, SHUTDOWN, and (on-disk workloads) a reopen of the
//!    store with every acknowledged PUT read back.
//!
//! The load is quiesced around the main window so that the STATS
//! snapshots taken there cover exactly the requests answered inside it.

use std::path::{Path, PathBuf};

use wmlp_core::instance::Request;
use wmlp_core::storage::Storage;
use wmlp_core::wire::{Frame, StatsPayload, WireStats};
use wmlp_loadgen::timing::Clock;
use wmlp_serve::ShardMap;
use wmlp_store::{RecoverMode, SegmentStore, StoreOptions};

use crate::client::{closed_phase, open_phase, Checker, ClientConn, Mutant, Schedule, Tally};
use crate::server::{connect, dir_bytes, netstat, serve_args, vm_hwm_kb, ServerProc};
use crate::workload::{Load, Values, Workload, CONNS, LEVELS, PAGES, SHARDS, VALUE_SIZE};

/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// A ladder rung passes when its p99 stays within this limit.
const P99_LIMIT_NS: u64 = 1_000_000;
/// ... and when, as its schedule ends, no more than this much of its
/// arrivals is still unanswered (a backlog that outgrew the limit).
const BACKLOG_LIMIT_NS: u64 = 2 * P99_LIMIT_NS;
/// The ladder: `LADDER_STEPS` offered rates from the workload's base,
/// each `LADDER_RATIO` times the last.
const LADDER_STEPS: usize = 16;
const LADDER_RATIO: f64 = 1.15;
/// Slices are at least this long and hold at least this many samples
/// on average, so a slice's p99 has ten samples beyond it.
const MIN_SLICE_NS: u64 = 20_000_000;
const SLICE_SAMPLES: u64 = 1000;
/// Shares of the run's seconds spent warming up, in the main window,
/// and (open loop) on the ladder.
const WARM_SHARE: f64 = 0.1;
const LADDER_SHARE: f64 = 0.35;

/// One rung of the sustained-rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate: f64,
    /// Replies per second actually completed over the rung.
    pub achieved: f64,
    pub p99_ns: u64,
    pub backlog: u64,
    pub failed: u64,
    pub pass: bool,
}

#[derive(Default)]
pub struct LiveOut {
    pub setup_ns: Vec<u64>,
    pub connect_ns: Vec<u64>,
    pub main: Tally,
    /// The main window: when its load started and was due to end.
    pub main_start: u64,
    pub main_end: u64,
    /// Quiesced server counters around the main window.
    pub before: WireStats,
    pub after: WireStats,
    pub final_stats: StatsPayload,
    pub rungs: Vec<Rung>,
    /// Every phase's tally merged (attempts, failures, cost, stalls).
    pub all: Tally,
    pub rss_kb: u64,
    pub listen_overflows: u64,
    pub syn_retrans: u64,
    /// Segment bytes on disk after shutdown (on-disk workloads).
    pub store_bytes: u64,
    /// Time to reopen the store with warm recovery, and the PUT pages
    /// read back from it (checked, wrong).
    pub reopen_ns: u64,
    pub durable_checked: u64,
    pub durable_bad: u64,
    /// Pages with at least one acknowledged PUT.
    pub put_pages: Vec<bool>,
    /// Named output checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    pub notes: Vec<String>,
}

/// The highest rate that held the limit: the achieved rate of the last
/// passing rung, moved toward the first failing rung by how much of the
/// latency headroom was left, when that rung failed on latency alone.
pub fn sustained_rps(rungs: &[Rung]) -> f64 {
    let Some(k) = rungs.iter().position(|r| !r.pass) else {
        return rungs.last().map_or(0.0, |r| r.achieved);
    };
    if k == 0 {
        return 0.0;
    }
    let (lo, hi) = (&rungs[k - 1], &rungs[k]);
    let limit = P99_LIMIT_NS as f64;
    let latency_only = hi.failed == 0 && hi.p99_ns > P99_LIMIT_NS;
    if !latency_only || hi.p99_ns <= lo.p99_ns {
        return lo.achieved;
    }
    let frac = (limit - lo.p99_ns as f64) / (hi.p99_ns - lo.p99_ns) as f64;
    lo.achieved + frac.clamp(0.0, 1.0) * (hi.rate - lo.rate)
}

struct Setup {
    proc: ServerProc,
    conns: Vec<ClientConn>,
    store_dir: Option<PathBuf>,
}

fn setup(
    wl: &Workload,
    seed: u64,
    bin: &Path,
    out_dir: &Path,
    n: usize,
    clock: &Clock,
    out: &mut LiveOut,
) -> Result<Setup, String> {
    let store_dir = wl
        .store
        .then(|| out_dir.join(format!("{}-store-{}-{n}", wl.name, std::process::id())));
    if let Some(dir) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let args = serve_args(wl, seed, store_dir.as_deref());
    let t0 = clock.now_nanos();
    let proc = ServerProc::spawn(bin, &args)?;
    let mut conns = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let (stream, ns) = connect(proc.addr, clock)?;
        out.connect_ns.push(ns);
        conns.push(ClientConn::new(stream));
    }
    out.setup_ns.push(clock.now_nanos() - t0);
    Ok(Setup {
        proc,
        conns,
        store_dir,
    })
}

/// SHUTDOWN over the first connection, close all, wait for a clean exit.
fn shutdown(s: &mut Setup) -> Result<bool, String> {
    let bye = s.conns[0].call(&Frame::Shutdown)?;
    s.conns.clear();
    let clean = s.proc.wait_clean()?;
    Ok(matches!(bye, Frame::Bye) && clean)
}

fn stats(conns: &mut [ClientConn]) -> Result<StatsPayload, String> {
    match conns[0].call(&Frame::Stats)? {
        Frame::StatsReply(s) => Ok(s),
        other => Err(format!("unexpected STATS reply {other:?}")),
    }
}

/// Closed loop on every connection, one thread each, for `secs`.
fn closed(
    conns: &mut [ClientConn],
    streams: &[Vec<Request>],
    values: &Values,
    chk: &mut Checker,
    clock: &Clock,
    secs: f64,
) -> Tally {
    let end = clock.now_nanos() + (secs * 1e9) as u64;
    let results: Vec<(Tally, Checker)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(i, (conn, reqs))| {
                let mut c = chk.fork(i == 0);
                s.spawn(move || {
                    let t = closed_phase(conn, i, reqs, values, &mut c, clock, end);
                    (t, c)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut t = Tally::default();
                    t.failed += 1;
                    t.notes.push("client thread panicked".into());
                    (t, Checker::new(*values))
                })
            })
            .collect()
    });
    let mut total = Tally::default();
    for (t, c) in results {
        total.merge(t);
        chk.absorb(&c);
    }
    total
}

/// Open loop at `rate` for `secs`, starting shortly from now.
fn open(
    conns: &mut [ClientConn],
    streams: &[Vec<Request>],
    values: &Values,
    chk: &mut Checker,
    clock: &Clock,
    rate: f64,
    secs: f64,
) -> (Tally, Schedule) {
    let sched = Schedule::new(clock.now_nanos() + 1_000_000, rate, secs);
    (open_phase(conns, streams, values, chk, clock, sched), sched)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn p(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, q)
}

/// The `q`-quantile of `samples`, leaving them in their order.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    p(&mut samples.to_vec(), q)
}

/// The latency samples of `t`, split by completion time into equal
/// slices of `[start, end)`, each at least [`MIN_SLICE_NS`] long and
/// [`SLICE_SAMPLES`] samples strong on average; late completions go to
/// the last slice.
pub fn slices(t: &Tally, start: u64, end: u64) -> Vec<Vec<u64>> {
    let by_time = end.saturating_sub(start) / MIN_SLICE_NS;
    let by_samples = t.lat_ns.len() as u64 / SLICE_SAMPLES;
    let n = by_time.min(by_samples).max(1) as usize;
    let mut out = vec![Vec::new(); n];
    let span = u128::from(end.saturating_sub(start).max(1));
    for (&lat, &at) in t.lat_ns.iter().zip(&t.at_ns) {
        let i = u128::from(at.saturating_sub(start)) * n as u128 / span;
        out[(i as usize).min(n - 1)].push(lat);
    }
    out
}

/// The `over`-quantile over slices of each slice's `q`-quantile.
fn over_slices(slices: &mut [Vec<u64>], q: f64, over: f64) -> u64 {
    let mut per: Vec<u64> = slices
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| p(s, q))
        .collect();
    p(&mut per, over)
}

/// The median of a typical slice: the median over slices of each
/// slice's median. Whatever slows more than half of the slices moves it.
pub fn slice_p50(slices: &mut [Vec<u64>]) -> u64 {
    over_slices(slices, 0.5, 0.5)
}

/// The lower quartile over slices of each slice's p99: the tail of the
/// quarter of the run in which the server got the most of the host.
/// Only what slows more than three quarters of the slices moves it; the
/// median over slices, which sees more, spread beyond the benchmark's
/// bound between runs on a shared 2-vCPU host.
pub fn slice_p99(slices: &mut [Vec<u64>]) -> u64 {
    over_slices(slices, 0.99, 0.25)
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    wl: &Workload,
    seed: u64,
    secs: f64,
    bin: &Path,
    out_dir: &Path,
    streams: &[Vec<Request>],
    values: &Values,
    mutant: Option<Mutant>,
) -> Result<LiveOut, String> {
    let clock = Clock::start();
    let mut out = LiveOut {
        main_end: 1,
        ..LiveOut::default()
    };
    let net0 = netstat();
    let mut setups_clean = true;
    for n in 1..SETUPS {
        let mut s = setup(wl, seed, bin, out_dir, n, &clock, &mut out)?;
        setups_clean &= shutdown(&mut s)?;
        if let Some(dir) = &s.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let mut s = setup(wl, seed, bin, out_dir, 0, &clock, &mut out)?;
    let result = drive(wl, secs, &mut s, streams, values, mutant, &clock, &mut out);
    let clean = match result {
        Ok(()) => shutdown(&mut s)?,
        Err(e) => {
            out.notes.push(e);
            false
        }
    };
    let net1 = netstat();
    out.listen_overflows = net1.0.saturating_sub(net0.0);
    out.syn_retrans = net1.1.saturating_sub(net0.1);
    out.checks.push(("clean_shutdown", clean && setups_clean));
    out.notes.extend(out.all.notes.iter().cloned());

    let all = &out.all;
    let served = all.completed + all.wrong_values;
    let total = &out.final_stats.total;
    // Hash partitioning serves every request exactly once.
    let cost_ok = total.cost == all.cost && total.requests == served;
    if !cost_ok {
        out.notes.push(format!(
            "server counted {} requests / cost {}, client {} / {}",
            total.requests, total.cost, served, all.cost
        ));
    }
    out.checks.push(("values", all.wrong_values == 0));
    out.checks.push(("cost_agrees", cost_ok));
    out.checks.push(("no_failures", all.failed == 0));

    if let Some(dir) = s.store_dir.clone() {
        out.store_bytes = dir_bytes(&dir);
        let durable = clean && durability(&dir, values, &mut out, &clock);
        out.checks.push(("durability", durable));
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn drive(
    wl: &Workload,
    secs: f64,
    s: &mut Setup,
    streams: &[Vec<Request>],
    values: &Values,
    mutant: Option<Mutant>,
    clock: &Clock,
    out: &mut LiveOut,
) -> Result<(), String> {
    let mut chk = Checker::new(*values);
    let conns = &mut s.conns;
    let warm = match wl.load {
        Load::Closed => closed(conns, streams, values, &mut chk, clock, secs * WARM_SHARE),
        Load::Open { reference_rps, .. } => {
            open(
                conns,
                streams,
                values,
                &mut chk,
                clock,
                reference_rps,
                secs * WARM_SHARE,
            )
            .0
        }
    };
    out.all.merge_counts(&warm);
    out.before = stats(conns)?.total;

    // The main window checks through the seeded mutant, if any.
    chk.mutant = mutant;
    let t0 = clock.now_nanos();
    let (main, start, end) = match wl.load {
        Load::Closed => {
            let main_secs = secs * (1.0 - WARM_SHARE);
            let t = closed(conns, streams, values, &mut chk, clock, main_secs);
            (t, t0, t0 + (main_secs * 1e9) as u64)
        }
        Load::Open { reference_rps, .. } => {
            let main_secs = secs * (1.0 - WARM_SHARE - LADDER_SHARE);
            let (t, sched) = open(
                conns,
                streams,
                values,
                &mut chk,
                clock,
                reference_rps,
                main_secs,
            );
            (t, sched.start_ns, sched.end_ns())
        }
    };
    chk.mutant = None;
    out.main_start = start;
    out.main_end = end.max(start + 1);
    out.after = stats(conns)?.total;
    out.all.merge_counts(&main);
    out.main = main;

    let rates: Vec<f64> = match wl.load {
        Load::Closed => Vec::new(),
        Load::Open { ladder_base, .. } => (0..LADDER_STEPS)
            .map(|i| ladder_base * LADDER_RATIO.powi(i as i32))
            .collect(),
    };
    let rung_secs = secs * LADDER_SHARE / LADDER_STEPS as f64;
    for rate in rates {
        // A rung fails only if it fails twice: one burst of host noise
        // must not end the ladder.
        let mut best: Option<Rung> = None;
        for _ in 0..2 {
            let (t, sched) = open(conns, streams, values, &mut chk, clock, rate, rung_secs);
            out.all.merge_counts(&t);
            let p99_ns = slice_p99(&mut slices(&t, sched.start_ns, sched.end_ns()));
            // Replies delivered while the schedule ran, per second of it.
            let on_time = (sched.per_conn * CONNS as u64).saturating_sub(t.backlog_at_end);
            let span = sched.end_ns().saturating_sub(sched.start_ns).max(1);
            let rung = Rung {
                rate,
                achieved: on_time as f64 * 1e9 / span as f64,
                p99_ns,
                backlog: t.backlog_at_end,
                failed: t.failed,
                pass: t.failed == 0
                    && p99_ns <= P99_LIMIT_NS
                    && (t.backlog_at_end as f64) <= rate * BACKLOG_LIMIT_NS as f64 / 1e9,
            };
            if best.is_none_or(|b| rung.pass || rung.p99_ns < b.p99_ns) {
                best = Some(rung);
            }
            if rung.pass {
                break;
            }
        }
        let Some(rung) = best else { break };
        out.rungs.push(rung);
        if !rung.pass {
            break;
        }
    }
    out.final_stats = stats(conns)?;
    out.rss_kb = vm_hwm_kb(s.proc.pid()).unwrap_or(0);
    out.put_pages = chk.put_pages();
    Ok(())
}

/// Reopen the shut-down server's store with warm recovery and read back
/// every page that had a PUT acknowledged.
fn durability(dir: &Path, values: &Values, out: &mut LiveOut, clock: &Clock) -> bool {
    let map = ShardMap::new(SHARDS);
    let t0 = clock.now_nanos();
    let mut stores = Vec::with_capacity(SHARDS);
    for s in 0..SHARDS {
        let mut opts = StoreOptions::new(PAGES, LEVELS);
        opts.value_size = VALUE_SIZE;
        opts.recover = RecoverMode::Warm;
        match SegmentStore::open(&dir.join(format!("shard-{s}")), opts) {
            Ok(store) => stores.push(store),
            Err(e) => {
                out.notes.push(format!("reopen shard {s}: {e}"));
                return false;
            }
        }
    }
    out.reopen_ns = clock.now_nanos() - t0;
    let pages = std::mem::take(&mut out.put_pages);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (page, _) in pages.iter().enumerate().filter(|(_, put)| **put) {
        let page = page as u32;
        out.durable_checked += 1;
        got.clear();
        values.put_value(page, &mut want);
        let ok = stores[map.shard_of(page)].get(page, &mut got).is_ok() && got == want;
        if !ok {
            out.durable_bad += 1;
            if out.notes.len() < 16 {
                out.notes
                    .push(format!("page {page} did not read back its PUT value"));
            }
        }
    }
    out.durable_bad == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, p99_us: u64, pass: bool) -> Rung {
        Rung {
            rate,
            achieved: rate,
            p99_ns: p99_us * 1000,
            backlog: 0,
            failed: 0,
            pass,
        }
    }

    #[test]
    fn sustained_rate_interpolates_to_the_latency_limit() {
        let rungs = [rung(100.0, 400, true), rung(200.0, 1600, false)];
        assert_eq!(sustained_rps(&rungs), 150.0);
        assert_eq!(sustained_rps(&rungs[..1]), 100.0);
        assert_eq!(sustained_rps(&[rung(100.0, 1600, false)]), 0.0);
    }

    #[test]
    fn slice_figures_move_when_enough_slices_do() {
        // Slice p50 is 599 and p99 1089 unless stalled.
        let cases = [
            (3, 599, 1089),
            (5, 50_000_000, 1089),
            (7, 50_000_000, 50_000_000),
        ];
        for (spoiled, p50, p99) in cases {
            let mut t = Tally::default();
            for s in 0..8u64 {
                for i in 0..SLICE_SAMPLES {
                    t.lat_ns
                        .push(if s < spoiled { 50_000_000 } else { 100 + i });
                    t.at_ns.push(s * MIN_SLICE_NS + i);
                }
            }
            let mut sl = slices(&t, 0, 8 * MIN_SLICE_NS);
            assert_eq!(sl.len(), 8);
            assert_eq!(slice_p50(&mut sl), p50, "{spoiled} of 8 stalled");
            assert_eq!(slice_p99(&mut sl), p99, "{spoiled} of 8 stalled");
        }
    }
}
