//! `wmlp-perfbench` — the serving benchmark of `wmlp-serve`.
//!
//! ```text
//! wmlp-perfbench --serve-bin <wmlp-serve> --workload pipelined|paced|store-writeback \
//!                --seed N --seconds S --trace 0|1 [--out-dir DIR]
//! wmlp-perfbench --serve-bin <wmlp-serve> --self-test
//! ```
//!
//! Each run starts the server as its own process, drives it over
//! loopback TCP from two connections, checks every reply, and prints
//! every metric by name with its unit; the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced
//! run also replays the same request streams in-process through each
//! layer and writes the sampled spans to
//! `<out-dir>/trace-<workload>-seed<N>.jsonl`. Any failed check makes the
//! exit code nonzero.

mod client;
mod live;
mod replay;
mod server;
mod tracer;
mod workload;

use std::path::{Path, PathBuf};

use wmlp_core::instance::{MlInstance, Request};

use client::{Mutant, MutantKind};
use live::{p, quantile, slice_p50, slice_p99, slices, LiveOut};
use replay::ReplayOut;
use tracer::{Layer, Tracer, LAYERS};
use workload::{Load, Values, Workload, STREAM_LEN};

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Replies completed in the main window, per second of it.
fn throughput(live: &LiveOut) -> f64 {
    let (start, end) = (live.main_start, live.main_end);
    let done = live
        .main
        .at_ns
        .iter()
        .filter(|&&t| t >= start && t < end)
        .count();
    done as f64 * 1e9 / (end - start) as f64
}

/// The main window's latency samples in slices.
fn main_slices(live: &LiveOut) -> Vec<Vec<u64>> {
    slices(&live.main, live.main_start, live.main_end)
}

fn end_to_end(live: &LiveOut) -> Vec<Metric> {
    let served = live.main.completed + live.main.wrong_values;
    let mut lat = main_slices(live);
    vec![
        m("setup_s", quantile(&live.setup_ns, 0.5) as f64 / 1e9, "s"),
        m("throughput_rps", throughput(live), "req/s"),
        m("latency_p50_us", slice_p50(&mut lat) as f64 / 1e3, "us"),
        m("latency_p99_us", slice_p99(&mut lat) as f64 / 1e3, "us"),
        m(
            "cost_per_req",
            ratio(live.after.cost - live.before.cost, served),
            "weight/req",
        ),
        m("peak_rss_mb", live.rss_kb as f64 / 1024.0, "MB"),
    ]
}

fn per_layer(
    wl: &Workload,
    live: &mut LiveOut,
    rep: &ReplayOut,
    tr: &Tracer,
    wake_us: f64,
) -> Vec<Metric> {
    let t = |l: Layer| tr.total(l);
    let reqs = rep.requests;
    let per_req = |l: Layer| ratio(t(l).self_ns, reqs);
    let per_call = |l: Layer| ratio(t(l).self_ns, t(l).calls);
    let layer_sum_ns: u64 = LAYERS
        .iter()
        .filter(|l| **l != Layer::Chunk)
        .map(|l| t(*l).self_ns)
        .sum();
    let layer_sum_us = ratio(layer_sum_ns, reqs) / 1e3;
    let base_us = match wl.load {
        Load::Open { .. } => slice_p50(&mut main_slices(live)) as f64 / 1e3,
        Load::Closed => 1e6 / throughput(live),
    };
    let (before, after) = (&live.before, &live.after);
    let window_reqs = after.requests - before.requests;
    let shards = &live.final_stats.shards;
    let max_req = shards.iter().map(|s| s.requests).max().unwrap_or(0);
    let mean_req = ratio(shards.iter().map(|s| s.requests).sum(), shards.len() as u64);
    let lag_ns = p(&mut live.main.lag_ns, 0.99);
    vec![
        m("sustained_rps", live::sustained_rps(&live.rungs), "req/s"),
        m(
            "failed_frac",
            ratio(live.all.failed, live.all.attempted),
            "ratio",
        ),
        m(
            "codec.decode_ns",
            t(Layer::Decode).ns_per_item(),
            "ns/frame",
        ),
        m(
            "codec.encode_ns",
            t(Layer::Encode).ns_per_item(),
            "ns/frame",
        ),
        m("codec.bytes_per_req", ratio(rep.wire_bytes, reqs), "B/req"),
        m("router.hop_ns", per_req(Layer::Hop), "ns/req"),
        m("router.route_ns", per_req(Layer::Route), "ns/req"),
        m("router.epochs", rep.epochs as f64, "count"),
        m("router.plan_adoptions", rep.adoptions as f64, "count"),
        m(
            "router.fanout_per_put",
            ratio(rep.put_sends, rep.puts),
            "sends/put",
        ),
        m(
            "router.imbalance",
            if mean_req > 0.0 {
                max_req as f64 / mean_req
            } else {
                0.0
            },
            "max/mean",
        ),
        m(
            "ring.handoff_ns",
            ratio(t(Layer::Ring).self_ns, rep.ring_items),
            "ns/item",
        ),
        m(
            "ring.batch_mean",
            ratio(rep.ring_items, rep.ring_batches),
            "items/batch",
        ),
        m("engine.step_ns", t(Layer::Engine).ns_per_item(), "ns/step"),
        m(
            "engine.hit_ratio",
            ratio(after.hits - before.hits, window_reqs),
            "hits/req",
        ),
        m(
            "engine.fetches_per_req",
            ratio(after.fetches - before.fetches, window_reqs),
            "fetches/req",
        ),
        m(
            "engine.evictions_per_req",
            ratio(after.evictions - before.evictions, window_reqs),
            "evictions/req",
        ),
        m("store.promote_ns", per_call(Layer::Promote), "ns/call"),
        m("store.flush_ns", per_call(Layer::Flush), "ns/call"),
        m("store.put_ns", per_call(Layer::Put), "ns/call"),
        m("store.get_ns", per_call(Layer::Get), "ns/call"),
        m(
            "store.writebacks_per_req",
            ratio(rep.writebacks, reqs),
            "writebacks/req",
        ),
        m(
            "store.bytes_per_put_byte",
            ratio(
                live.store_bytes,
                live.all.puts * workload::VALUE_SIZE as u64,
            ),
            "B/B",
        ),
        m("store.open_s", live.reopen_ns as f64 / 1e9, "s"),
        m("doorbell.ring_to_wake_us", wake_us, "us"),
        m(
            "doorbell.push_drain_ns",
            t(Layer::Doorbell).ns_per_item(),
            "ns/reply",
        ),
        m("net.read_ns", per_req(Layer::NetRead), "ns/req"),
        m("net.write_ns", per_req(Layer::NetWrite), "ns/req"),
        m(
            "net.connect_ms_p99",
            p(&mut live.connect_ns, 0.99) as f64 / 1e6,
            "ms",
        ),
        m(
            "net.listen_overflows",
            live.listen_overflows as f64,
            "count",
        ),
        m("net.syn_retrans", live.syn_retrans as f64, "count"),
        m("net.stalls_over_30ms", live.all.stalls as f64, "count"),
        m(
            "shard.queue_hwm",
            shards.iter().map(|s| s.queue_hwm).max().unwrap_or(0) as f64,
            "count",
        ),
        m("gen.send_lag_p99_us", lag_ns as f64 / 1e3, "us"),
        m(
            "latency_p99_window_us",
            quantile(&live.main.lat_ns, 0.99) as f64 / 1e3,
            "us",
        ),
        m("trace.layer_sum_us", layer_sum_us, "us/req"),
        m(
            "trace.attributed_frac",
            if base_us > 0.0 {
                layer_sum_us / base_us
            } else {
                0.0
            },
            "ratio",
        ),
        m("trace.spans", tr.span_count() as f64, "count"),
    ]
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for x in metrics {
        println!("  {:<28} {:>16.4} {}", x.name, x.value, x.unit);
    }
}

/// Everything one invocation measured.
struct RunOut {
    correct: bool,
    attempted: u64,
    failed: u64,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    wrong_values: u64,
}

/// The human-readable part of the report: checks, whole-window
/// latency, the ladder.
fn print_live(live: &LiveOut) {
    println!("checks:");
    for (name, ok) in &live.checks {
        println!("  {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    for note in &live.notes {
        println!("note: {note}");
    }
    println!(
        "requests attempted {} failed {} (failed_frac {:.6}); main window: {} latency samples, {} over 30 ms",
        live.all.attempted,
        live.all.failed,
        ratio(live.all.failed, live.all.attempted),
        live.main.lat_ns.len(),
        live.main.stalls
    );
    let setup_ms: Vec<String> = live
        .setup_ns
        .iter()
        .map(|ns| format!("{:.1}", *ns as f64 / 1e6))
        .collect();
    println!("set-ups ms [{}]", setup_ms.join(" "));
    let connect_ms: Vec<String> = live
        .connect_ns
        .iter()
        .map(|ns| format!("{:.3}", *ns as f64 / 1e6))
        .collect();
    println!(
        "transport: connect ms [{}]; ListenOverflows +{}, TCPSynRetrans +{}; {} replies over 30 ms",
        connect_ms.join(" "),
        live.listen_overflows,
        live.syn_retrans,
        live.all.stalls
    );
    // Sorted copies: the samples stay aligned with their times.
    let q = |v: &[u64], x: f64| quantile(v, x) as f64 / 1e3;
    let (lat, lag) = (&live.main.lat_ns, &live.main.lag_ns);
    println!(
        "main-window latency us: p50 {:.1} p90 {:.1} p99 {:.1} p99.9 {:.1} max {:.1}; send lag p99 {:.1} max {:.1}",
        q(lat, 0.5),
        q(lat, 0.9),
        q(lat, 0.99),
        q(lat, 0.999),
        q(lat, 1.0),
        q(lag, 0.99),
        q(lag, 1.0)
    );
    let mut sl = main_slices(live);
    let mut p99s: Vec<u64> = sl.iter_mut().map(|v| p(v, 0.99)).collect();
    println!(
        "main-window: {} slices; their p99 us: p25 {:.1} p50 {:.1} p75 {:.1}",
        sl.len(),
        p(&mut p99s, 0.25) as f64 / 1e3,
        p(&mut p99s, 0.5) as f64 / 1e3,
        p(&mut p99s, 0.75) as f64 / 1e3
    );
    for r in &live.rungs {
        println!(
            "ladder {:>9.0} req/s offered: {:>10.1} achieved, p99 {:>9.1} us, backlog {}, failed {} -> {}",
            r.rate,
            r.achieved,
            r.p99_ns as f64 / 1e3,
            r.backlog,
            r.failed,
            if r.pass { "pass" } else { "FAIL" }
        );
    }
    if !live.rungs.is_empty() {
        println!(
            "sustained_rps {:.1} req/s",
            live::sustained_rps(&live.rungs)
        );
    }
    if live.reopen_ns > 0 {
        println!(
            "store reopened in {:.3} s: {} PUT pages read back, {} wrong; {} segment bytes",
            live.reopen_ns as f64 / 1e9,
            live.durable_checked,
            live.durable_bad,
            live.store_bytes
        );
    }
}

/// The traced replay (with its own fresh store for on-disk workloads),
/// the doorbell ping-pong, and the span file.
fn traced(
    wl: &Workload,
    inst: &MlInstance,
    seed: u64,
    streams: &[Vec<Request>],
    values: &Values,
    secs: f64,
    out_dir: &Path,
) -> Result<(ReplayOut, Tracer, f64), String> {
    let store_dir = wl
        .store
        .then(|| out_dir.join(format!("{}-replay-{}", wl.name, std::process::id())));
    if let Some(dir) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let replayed = replay::replay(
        wl,
        inst,
        seed,
        streams,
        values,
        secs,
        u64::MAX,
        store_dir.as_deref(),
    );
    if let Some(dir) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let (rep, tr) = replayed?;
    let wake_us = replay::ring_to_wake_us()?;
    let path = out_dir.join(format!("trace-{}-seed{seed}.jsonl", wl.name));
    tr.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "replay: {} requests in {:.3} s, {} plan adoptions, {} drains, {} spans written to {}",
        rep.requests,
        rep.wall_ns as f64 / 1e9,
        rep.adoptions,
        rep.drains,
        tr.span_count(),
        path.display()
    );
    for note in &rep.notes {
        println!("note: {note}");
    }
    for l in LAYERS {
        let t = tr.total(l);
        println!(
            "  self {:<20} {:>12.3} ms over {:>9} calls, {:>9} items",
            l.name(),
            t.self_ns as f64 / 1e6,
            t.calls,
            t.items
        );
    }
    Ok((rep, tr, wake_us))
}

fn run(
    wl: &Workload,
    seed: u64,
    secs: f64,
    trace: bool,
    bin: &Path,
    out_dir: &Path,
    mutant: Option<Mutant>,
) -> Result<RunOut, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let inst = workload::instance()?;
    let streams = wl.streams(&inst, seed, STREAM_LEN);
    let values = Values::new(seed);
    let mut live = live::run(wl, seed, secs, bin, out_dir, &streams, &values, mutant)?;
    println!("workload {} seed {seed} seconds {secs}", wl.name);
    print_live(&live);
    let e2e = end_to_end(&live);
    print_metrics("end_to_end", &e2e);
    let mut out = RunOut {
        correct: live.checks.iter().all(|(_, ok)| *ok),
        attempted: live.all.attempted,
        failed: live.all.failed,
        e2e,
        layers: Vec::new(),
        wrong_values: live.all.wrong_values,
    };
    if trace {
        let (rep, tr, wake_us) = traced(wl, &inst, seed, &streams, &values, secs / 4.0, out_dir)?;
        out.correct &= rep.failed == 0;
        out.failed += rep.failed;
        out.wrong_values += rep.wrong_values;
        out.layers = per_layer(wl, &mut live, &rep, &tr, wake_us);
        print_metrics("per_layer", &out.layers);
    }
    Ok(out)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name).ok_or(format!("missing {name}"))?;
    v.parse().map_err(|_| format!("bad {name} {v:?}"))
}

/// Tiny runs of every workload with every check, plus the seeded
/// wrong-value and lost-write mutants, which the value checks must catch.
fn self_test(bin: &Path, out_dir: &Path) -> Result<bool, String> {
    let mut ok = true;
    for wl in &workload::WORKLOADS {
        let r = run(wl, 1, 1.0, true, bin, out_dir, None)?;
        let pass = r.correct && r.failed == 0 && r.e2e.iter().all(|x| x.value > 0.0);
        println!(
            "self-test {}: {}",
            wl.name,
            if pass { "pass" } else { "FAIL" }
        );
        ok &= pass;
    }
    let seed = 3;
    let wl = &workload::WORKLOADS[0];
    for (kind, name) in [
        (MutantKind::WrongValue, "wrong-value"),
        (MutantKind::LostWrite, "lost-write"),
    ] {
        let mutant = Mutant {
            kind,
            at: seed * 37 % 101,
        };
        let r = run(wl, seed, 0.5, false, bin, out_dir, Some(mutant))?;
        let caught = !r.correct && r.wrong_values == 1;
        println!(
            "self-test {name} mutant: {}",
            if caught { "caught" } else { "NOT CAUGHT" }
        );
        ok &= caught;
    }
    Ok(ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match real_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wmlp-perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main(args: &[String]) -> Result<i32, String> {
    let bin = PathBuf::from(flag(args, "--serve-bin").ok_or("missing --serve-bin")?);
    let out_dir = PathBuf::from(flag(args, "--out-dir").unwrap_or(".bench_out"));
    if args.iter().any(|a| a == "--self-test") {
        return Ok(if self_test(&bin, &out_dir)? { 0 } else { 1 });
    }
    let name: String = required(args, "--workload")?;
    let wl = workload::find(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed: u64 = required(args, "--seed")?;
    let secs: f64 = required(args, "--seconds")?;
    if !(secs > 0.0 && secs <= 600.0) {
        return Err(format!("--seconds {secs} out of range"));
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let r = run(wl, seed, secs, trace, &bin, &out_dir, None)?;
    let metrics = if trace { &r.layers } else { &r.e2e };
    println!("{}", json(r.correct, r.attempted, r.failed, metrics));
    Ok(if r.correct { 0 } else { 1 })
}
