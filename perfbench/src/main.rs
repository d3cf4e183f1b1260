//! Wall-clock benchmark of the NetKernel datapath.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk|rpc|rpc-par|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics, untraced. With
//! `--trace 1` it alternates untraced and traced episodes, then drives the
//! per-layer rigs, and reports the per-layer metrics; the spans go to
//! `perfbench/out/`. Every run first plays one episode at the other
//! datapath thread count and checks it matches, then checks the payload
//! bytes, the failure counts and that every episode of the seed repeats the
//! same simulated results. It prints each metric with its unit, then one
//! JSON line, and exits 1 if a check failed (2 on bad usage).
//! See `perfbench/README.md` for the workloads and metrics.

mod rigs;
mod trace;
mod workloads;

use std::time::Instant;
use trace::{median, quantile_u32, Kind, Tracer};
use workloads::{Counts, Ctx, Live, Meter, Pattern, Workload, DT_NS};

/// Episodes measured per run at least, whatever `--seconds` says.
const MIN_EPISODES: usize = 3;
/// Steps of the two short episodes that check the thread-count
/// determinism contract before the measured ones.
const CHECK_STEPS: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// `Cluster::new` lets these variables override the configured thread
/// count and sharding; a benchmark run under them would not measure the
/// workload it names.
fn env_guard() -> Result<(), String> {
    for var in ["NK_CLUSTER_THREADS", "NK_CLUSTER_SHARD_WITHIN_HOSTS"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; it overrides the cluster configuration the workloads \
                 define, so the benchmark refuses to run (unset it)"
            ));
        }
    }
    Ok(())
}

/// One episode: a fresh cluster, set up, then a fixed number of steps.
struct Episode {
    setup_s: f64,
    loop_s: f64,
    step_ns: u64,
    steps: u64,
    threads: usize,
    m: Meter,
    /// Operation latency percentiles, µs, and their sample count (the
    /// samples themselves are dropped so they do not count in peak RSS).
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    samples: usize,
    /// Layer counters over the measured loop.
    counts: Counts,
    conns_peak: u64,
    stalled_peak: u64,
    /// Uplink frames sent but not received, at the end.
    link_dropped: u64,
    /// Every simulated result of the episode; must repeat exactly.
    fingerprint: String,
}

fn episode(
    w: Workload,
    threads: usize,
    steps: usize,
    pat: &Pattern,
    tr: &mut Tracer,
) -> Result<Episode, String> {
    let t_ep = tr.start();
    let ep_span = tr.open(Kind::Episode, w.name());
    let t0 = Instant::now();
    let t_setup = tr.start();
    let setup_span = tr.open(Kind::Setup, w.name());
    let mut live = Live::setup(w, threads, pat, tr).map_err(|e| format!("set-up failed: {e:?}"))?;
    tr.close(setup_span, Kind::Setup, t_setup);
    let setup_s = t0.elapsed().as_secs_f64();
    if live.cluster.threads() != threads {
        return Err(format!(
            "cluster runs {} datapath threads, the workload asks for {threads}",
            live.cluster.threads()
        ));
    }

    let before = Counts::read(&mut live.cluster, &live.eps);
    let mut m = Meter::default();
    let (mut step_ns, mut conns_peak, mut stalled_peak) = (0u64, 0u64, 0u64);
    let clock = Instant::now();
    for _ in 0..steps {
        let t_gen = tr.start();
        let gen_span = tr.open(Kind::Gen, "");
        live.pass(&mut Ctx {
            pat,
            tr,
            m: &mut m,
            clock,
        });
        tr.close(gen_span, Kind::Gen, t_gen);
        let t_step = tr.start();
        let s0 = Instant::now();
        live.cluster.step(DT_NS);
        step_ns += s0.elapsed().as_nanos() as u64;
        tr.leaf(Kind::Step, "", t_step, 0, 0);
        conns_peak = conns_peak.max(live.conns_open());
        stalled_peak = stalled_peak.max(live.stalled());
    }
    let loop_s = clock.elapsed().as_secs_f64();
    let after = Counts::read(&mut live.cluster, &live.eps);
    live.close_all(tr);
    tr.close(ep_span, Kind::Episode, t_ep);

    let counts = after.minus(before);
    let samples = m.lat_ns.len();
    let p50_us = quantile_u32(&mut m.lat_ns, 0.50) / 1e3;
    let p90_us = quantile_u32(&mut m.lat_ns, 0.90) / 1e3;
    let p99_us = quantile_u32(&mut m.lat_ns, 0.99) / 1e3;
    m.lat_ns = Vec::new();
    // Failures the datapath reports on its own: guest error events and
    // NQEs CoreEngine dropped.
    m.failed += counts.guest_errors + counts.vm_dropped;
    let fingerprint = format!(
        "digest={:#x} stats={:?} counts={after:?} ops={} attempted={} payload={} failed={} \
         conns_peak={conns_peak} stalled_peak={stalled_peak}",
        live.cluster.event_digest(),
        live.cluster.stats(),
        m.ops,
        m.attempted,
        m.payload,
        m.failed,
    );
    Ok(Episode {
        setup_s,
        loop_s,
        step_ns,
        steps: steps as u64,
        threads: live.cluster.threads(),
        m,
        p50_us,
        p90_us,
        p99_us,
        samples,
        counts,
        conns_peak,
        stalled_peak,
        link_dropped: after.uplink_tx.saturating_sub(after.uplink_rx),
        fingerprint,
    })
}

/// Episodes until the next would end after `seconds` (at least
/// [`MIN_EPISODES`]).
/// With a tracer, untraced and traced episodes alternate, so both see the
/// same machine conditions; returns (untraced, traced).
fn episodes(
    w: Workload,
    pat: &Pattern,
    seconds: f64,
    mut traced: Option<&mut Tracer>,
) -> Result<(Vec<Episode>, Vec<Episode>), String> {
    let t0 = Instant::now();
    let mut off = Tracer::new(false);
    let (mut plain, mut on) = (Vec::new(), Vec::new());
    let mut last = 0.0;
    while plain.len() < MIN_EPISODES || t0.elapsed().as_secs_f64() + last <= seconds {
        let t_round = Instant::now();
        let e = episode(w, w.threads(), w.steps(), pat, &mut off)?;
        eprintln!(
            "episode {}: {:.1} steps/s {:.1} ops/s p50 {:.1} us p90 {:.1} us setup {:.6} s",
            plain.len(),
            e.steps as f64 / e.loop_s,
            e.m.ops as f64 / e.loop_s,
            e.p50_us,
            e.p90_us,
            e.setup_s,
        );
        plain.push(e);
        if let Some(tr) = traced.as_deref_mut() {
            on.push(episode(w, w.threads(), w.steps(), pat, tr)?);
        }
        last = t_round.elapsed().as_secs_f64();
    }
    Ok((plain, on))
}

/// The median over episodes of `f`.
fn med(eps: &[Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    median(&mut eps.iter().map(f).collect::<Vec<_>>())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics as (name, value, unit), in report order.
type Report = Vec<(&'static str, f64, &'static str)>;

/// Rates over the whole run (total over total measured-loop time), so
/// every second measured counts once whatever its episode; set-up time is
/// the median over episodes.
fn end_to_end(r: &mut Report, eps: &[Episode]) {
    let secs: f64 = eps.iter().map(|e| e.loop_s).sum();
    let rate = |f: fn(&Episode) -> u64| eps.iter().map(f).sum::<u64>() as f64 / secs;
    r.push(("goodput_MBps", rate(|e| e.m.payload) / 1e6, "MB/s"));
    r.push(("ops_per_s", rate(|e| e.m.ops), "1/s"));
    r.push(("steps_per_s", rate(|e| e.steps), "1/s"));
    r.push(("setup_s", med(eps, |e| e.setup_s), "s"));
    r.push(("peak_rss_MB", peak_rss_mb(), "MB"));
}

fn per_layer(
    r: &mut Report,
    w: Workload,
    plain: &[Episode],
    traced: &[Episode],
    tr: &mut Tracer,
    rig: &rigs::Rigs,
) {
    // Simulated counts repeat exactly across episodes: read them from one.
    let e = &plain[0];
    let k = &e.counts;
    let ops = e.m.ops as f64;
    let per_op = |x: u64| ratio(x as f64, ops);
    let p50 = |tr: &mut Tracer, kind| quantile_u32(tr.durations(kind), 0.50);

    r.push(("guest.send_ns", p50(tr, Kind::Send), "ns"));
    r.push(("guest.recv_ns", p50(tr, Kind::Recv), "ns"));
    r.push(("guest.connect_ns", p50(tr, Kind::Connect), "ns"));
    r.push(("guest.close_ns", p50(tr, Kind::Close), "ns"));
    r.push((
        "guest.wouldblock_frac",
        ratio(tr.wouldblock as f64, tr.calls as f64),
        "fraction",
    ));
    r.push(("guest.nqes_per_op", per_op(k.guest_nqes), "nqe/op"));

    r.push(("shmem.copy_ns_64B", rig.copy_64, "ns"));
    r.push(("shmem.copy_ns_64KiB", rig.copy_64k, "ns"));
    r.push(("shmem.allocs_per_op", per_op(k.region_allocs), "allocs/op"));
    r.push(("shmem.failed_allocs", k.region_failed as f64, "count"));

    r.push(("queue.spsc_ns_per_item", rig.spsc, "ns"));

    let nqes_per_poll = ratio(k.engine_nqes as f64, k.engine_polls as f64);
    r.push(("engine.nqes_per_op", per_op(k.engine_nqes), "nqe/op"));
    r.push(("engine.nqes_per_poll", nqes_per_poll, "nqe/poll"));
    r.push((
        "engine.wakeups_per_op",
        per_op(k.engine_wakeups),
        "wakeups/op",
    ));
    r.push(("engine.stalled_nqes", e.stalled_peak as f64, "count"));
    r.push(("engine.ns_per_nqe_b1", rig.engine_b1, "ns"));
    r.push(("engine.ns_per_nqe_b256", rig.engine_b256, "ns"));
    r.push((
        "engine.batch_gain",
        ratio(rig.engine_b1, rig.engine_b256),
        "x",
    ));
    r.push(("engine.conns_peak", e.conns_peak as f64, "count"));

    r.push(("service.requests_per_op", per_op(k.svc_requests), "req/op"));
    r.push(("service.bytes_tx", k.svc_bytes_tx as f64, "B"));
    r.push(("service.bytes_rx", k.svc_bytes_rx as f64, "B"));
    r.push(("service.accepted", k.svc_accepted as f64, "count"));

    r.push(("netstack.ns_per_segment_64B", rig.seg_64, "ns"));
    r.push(("netstack.ns_per_segment_mss", rig.seg_mss, "ns"));
    r.push(("netstack.handshake_ns", rig.handshake, "ns"));

    r.push(("fabric.frames_per_op", per_op(k.uplink_tx), "frames/op"));
    r.push(("fabric.link_dropped", e.link_dropped as f64, "count"));
    r.push(("fabric.tor_ns_per_frame", rig.tor, "ns"));
    r.push(("fabric.vswitch_ns_per_frame", rig.vswitch, "ns"));

    let steps = k.steps as f64;
    r.push(("cluster.step_ns_p50", p50(tr, Kind::Step), "ns"));
    r.push((
        "cluster.step_ns_p99",
        quantile_u32(tr.durations(Kind::Step), 0.99),
        "ns",
    ));
    r.push((
        "cluster.rounds_per_step",
        ratio(k.rounds as f64, steps),
        "rounds/step",
    ));
    r.push((
        "cluster.work_per_step",
        ratio(k.work as f64, steps),
        "work/step",
    ));
    r.push((
        "cluster.ns_per_work",
        med(plain, |x| ratio(x.step_ns as f64, x.counts.work as f64)),
        "ns",
    ));
    r.push((
        "cluster.round_limit_hits",
        k.round_limit_hits as f64,
        "count",
    ));
    r.push(("cluster.threads", e.threads as f64, "count"));

    r.push((
        "gen.ns_per_step",
        med(plain, |x| {
            (x.loop_s * 1e9 - x.step_ns as f64) / x.steps as f64
        }),
        "ns",
    ));
    let plain_rate = med(plain, |x| x.steps as f64 / x.loop_s);
    let traced_rate = med(traced, |x| x.steps as f64 / x.loop_s);
    r.push((
        "trace.overhead_frac",
        ratio(plain_rate, traced_rate) - 1.0,
        "fraction",
    ));

    r.push((
        "sim_goodput_gbps",
        ratio(e.m.payload as f64 * 8.0, steps * DT_NS as f64),
        "Gbps",
    ));
    r.push((
        "failed_frac",
        ratio(e.m.failed as f64, e.m.attempted as f64),
        "fraction",
    ));
    r.push(("op_p50_us", med(plain, |x| x.p50_us), "us"));
    r.push(("op_p90_us", med(plain, |x| x.p90_us), "us"));
    r.push(("op_p99_us", med(plain, |x| x.p99_us), "us"));
    r.push(("op_latency_samples", e.samples as f64, "count"));

    // Rig-attributed shares of the measured loop's wall time: a rig's ns
    // per operation times the operations the run counted. Estimates, not
    // measurements of the layer inside the cluster.
    let loop_ns = med(plain, |x| x.loop_s * 1e9);
    let engine_ns = if nqes_per_poll < 16.0 {
        rig.engine_b1
    } else {
        rig.engine_b256
    };
    let (copy_ns, seg_ns) = if w.message_bytes() > 64 {
        (rig.copy_64k, rig.seg_mss)
    } else {
        (rig.copy_64, rig.seg_64)
    };
    let attr = |ns: f64| ratio(ns, loop_ns);
    r.push((
        "attr.engine_frac",
        attr(engine_ns * k.engine_nqes as f64),
        "fraction",
    ));
    r.push((
        "attr.queue_frac",
        attr(rig.spsc * 2.0 * k.engine_nqes as f64),
        "fraction",
    ));
    r.push((
        "attr.shmem_frac",
        attr(copy_ns * k.region_allocs as f64),
        "fraction",
    ));
    r.push((
        "attr.netstack_frac",
        attr(seg_ns * k.uplink_tx as f64 + rig.handshake * k.svc_accepted as f64),
        "fraction",
    ));
    r.push((
        "attr.fabric_frac",
        attr((rig.tor + 2.0 * rig.vswitch) * k.uplink_tx as f64),
        "fraction",
    ));
}

fn run(args: &Args) -> Result<bool, String> {
    env_guard()?;
    let w = args.workload;
    let pat = Pattern::new(args.seed);
    let mut checks: Vec<(String, bool)> = Vec::new();

    // The same short episode at both thread counts, untimed (they also warm
    // the allocator and caches before the measured episodes).
    let mut off = Tracer::new(false);
    let check = [
        episode(w, w.threads(), CHECK_STEPS, &pat, &mut off)?,
        episode(w, w.twin_threads(), CHECK_STEPS, &pat, &mut off)?,
    ];

    let mut tr = Tracer::new(true);
    let (plain, traced) = episodes(w, &pat, args.seconds, args.trace.then_some(&mut tr))?;

    let all = || check.iter().chain(&plain).chain(&traced);
    let first = &plain[0];
    checks.push((
        "every received byte matches the seeded payload; no operation failed".into(),
        all().all(|e| e.m.failed == 0),
    ));
    checks.push((
        "every episode completes operations".into(),
        all().all(|e| e.m.ops > 0),
    ));
    checks.push((
        format!(
            "results at {} thread(s) equal those at {} (stats, counters, bytes, digest)",
            w.twin_threads(),
            w.threads()
        ),
        check[0].fingerprint == check[1].fingerprint,
    ));
    checks.push((
        "every episode of the seed repeats the same simulated results".into(),
        plain
            .iter()
            .chain(&traced)
            .all(|e| e.fingerprint == first.fingerprint),
    ));

    let mut report = Report::new();
    if args.trace {
        let rig = rigs::run(&mut tr, w.message_bytes());
        per_layer(&mut report, w, &plain, &traced, &mut tr, &rig);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
        match tr.write(&path) {
            Ok(n) => println!("trace: {n} spans written to {}", path.display()),
            Err(e) => return Err(format!("writing {}: {e}", path.display())),
        }
    } else {
        end_to_end(&mut report, &plain);
    }

    let correct = checks.iter().all(|(_, ok)| *ok);
    let attempted: u64 = all().map(|e| e.m.attempted).sum();
    let failed: u64 = all().map(|e| e.m.failed).sum();
    println!(
        "workload {} seed {} threads {}: {} episodes of {} steps, {} latency samples per episode",
        w.name(),
        args.seed,
        w.threads(),
        plain.len() + traced.len(),
        w.steps(),
        first.samples
    );
    for (what, ok) in &checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    for (name, value, unit) in &report {
        println!("{name:<30} {value:>16.4} {unit}");
    }
    let metrics = report
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    );
    Ok(correct)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            2
        }
    };
    std::process::exit(code);
}
