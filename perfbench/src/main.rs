//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <mine_light|mine_heavy|mixed_rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the real TCP server (`mq_service::NetServer`) in this process,
//! drives it with seeded closed-loop `mine` connections (and, on
//! `mixed_rw`, an open-loop `append` connection), checks every reply
//! against `find_rules_seq`, and prints one JSON result as the last
//! line of standard output.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced replay and reports the per-layer metrics. See README.md.

mod check;
mod client;
mod layers;
mod load;
mod report;
mod spec;
mod stats;
mod trace;

use check::{AckObs, MineObs};
use layers::Metric;
use load::{AppendRun, MineRun};
use mq_service::{MqService, NetConfig, NetServer};
use report::{metric, Json};
use spec::Spec;
use stats::{median, Summary, Timed};
use std::collections::HashMap;
use std::ops::Range;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_MIN_REPS`, and more while their total stays under
/// `SETUP_BUDGET_S`, so a set-up of milliseconds is still a steady
/// median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 50;
const SETUP_BUDGET_S: f64 = 1.5;

/// Time slice of the host steal samples; the mine figures are taken
/// over the quiet ones (see `stats::quiet_slices`).
const SLICE: Duration = Duration::from_secs(1);

/// How long the append writer waits for missing replies at the end.
const APPEND_DRAIN: Duration = Duration::from_secs(20);

/// Where records and span logs go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or("--seconds: positive integer")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A running server over a freshly registered catalog.
struct Served {
    service: Arc<MqService>,
    server: NetServer,
}

/// What one set-up measured.
struct SetupStats {
    total_s: f64,
    register_s: f64,
    tuples: usize,
    rss_growth_mib: f64,
}

/// Generate the inputs, start the server, register every database and
/// warm up with one pass over the distinct requests.
fn setup(spec: &Spec, lines: &[String]) -> Result<(Served, SetupStats), String> {
    let t0 = Instant::now();
    let rss0 = load::rss_mib();
    let dbs: Vec<_> = spec.dbs.iter().map(|d| (d.name, d.build())).collect();
    let tuples = dbs.iter().map(|(_, db)| db.total_tuples()).sum();
    let service = Arc::new(MqService::new());
    let t_reg = Instant::now();
    for (name, db) in dbs {
        service
            .register(name, db)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    let register_s = t_reg.elapsed().as_secs_f64();
    let rss_growth_mib = load::rss_mib() - rss0;
    let server = NetServer::bind(Arc::clone(&service), NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut conn =
        client::Conn::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for line in lines {
        conn.mine(line)
            .map_err(|o| format!("warm-up `{line}` failed: {o:?}"))?;
    }
    drop(conn);
    Ok((
        Served { service, server },
        SetupStats {
            total_s: t0.elapsed().as_secs_f64(),
            register_s,
            tuples,
            rss_growth_mib,
        },
    ))
}

/// Everything one measured window produced.
struct Window {
    mines: Vec<MineRun>,
    appends: AppendRun,
    mine_phase: Duration,
    host: load::HostSamples,
}

impl Window {
    /// Completed mines, placed at their completion time.
    fn mine_timed(&self) -> Vec<Timed> {
        self.mines
            .iter()
            .flat_map(|r| {
                r.samples.iter().map(|s| Timed {
                    kind: s.req,
                    at: s.done,
                    ms: s.latency.as_secs_f64() * 1e3,
                })
            })
            .collect()
    }

    /// Acknowledged appends, placed at their scheduled send time.
    fn append_timed(&self) -> Vec<Timed> {
        self.appends
            .samples
            .iter()
            .filter_map(|s| {
                s.latency.map(|l| Timed {
                    kind: 0,
                    at: s.due,
                    ms: l.as_secs_f64() * 1e3,
                })
            })
            .collect()
    }

    /// The mean over request kinds of each kind's median latency.
    fn mine_p50_ms(&self) -> Option<f64> {
        stats::mean_of_medians(self.mine_timed().iter().map(|t| (t.kind, t.ms)))
    }

    /// Replies the server marked ` deduped` (coalesced searches).
    fn deduped(&self) -> usize {
        self.mines
            .iter()
            .map(|r| r.samples.iter().filter(|s| s.reply.shared).count())
            .sum()
    }

    fn max_late_ms(&self) -> f64 {
        self.appends
            .samples
            .iter()
            .map(|s| s.late.as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    }
}

/// Drive one window: `conns` closed-loop mine connections for
/// `mine_phase`, beside the open-loop appends of `batches` where the
/// workload has them. Peak RSS is sampled throughout.
fn measure(
    served: &Served,
    spec: &Spec,
    lines: &[String],
    conns: usize,
    mine_phase: Duration,
    batches: Range<usize>,
    tracer: Option<&trace::Tracer>,
) -> Window {
    let addr = served.server.local_addr();
    let appends: Vec<(usize, String)> = batches.map(|i| (i, spec.append(i).line(spec))).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let start = Instant::now();
        let stop = &stop;
        let host = s.spawn(move || load::sample_host(stop, start, SLICE));
        let mine_threads: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || load::closed_loop(addr, spec, lines, c, start, mine_phase, tracer))
            })
            .collect();
        let writer = spec.appends.map(|a| {
            let appends = &appends;
            s.spawn(move || load::open_loop(addr, appends, a.rate, start, APPEND_DRAIN))
        });
        let mines: Vec<MineRun> = mine_threads
            .into_iter()
            .map(|t| t.join().expect("mine generator panicked"))
            .collect();
        let appended = writer
            .map(|w| w.join().expect("append generator panicked"))
            .unwrap_or_default();
        stop.store(true, Ordering::Release);
        Window {
            mines,
            appends: appended,
            mine_phase,
            host: host.join().expect("host sampler panicked"),
        }
    })
}

fn observations(windows: &[&Window]) -> (Vec<MineObs>, Vec<AckObs>) {
    let mut mines = Vec::new();
    let mut acks = Vec::new();
    for w in windows {
        for r in &w.mines {
            mines.extend(r.samples.iter().map(|s| MineObs {
                req: s.req,
                version: s.reply.version,
                hash: s.reply.hash,
            }));
        }
        acks.extend(w.appends.samples.iter().filter_map(|s| {
            s.ack.as_ref().map(|ack| AckObs {
                batch: s.batch,
                ack: ack.clone(),
            })
        }));
    }
    (mines, acks)
}

fn tally(windows: &[&Window]) -> client::Tally {
    let mut t = client::Tally::default();
    for w in windows {
        for r in &w.mines {
            t.merge(&r.tally);
        }
        t.merge(&w.appends.tally);
    }
    t
}

fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("n", Json::Int(s.n as u64)),
        ("slices", Json::Int(s.slices as u64)),
        ("per_s", Json::Num(s.rate)),
        ("p50_ms", Json::Num(s.p50)),
        ("tail_pct", Json::Int(s.tail_pct.into())),
        ("tail_ms", Json::Num(s.tail)),
        ("tail_beyond", Json::Int(s.tail_beyond as u64)),
        (
            "rule_pct",
            s.rule_pct.map_or(Json::Null, |p| Json::Int(p.into())),
        ),
        ("under_sampled", Json::Bool(s.under_sampled())),
    ])
}

fn run(args: &Args) -> Result<Json, String> {
    let spec = Spec::new(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload `{}` (one of {})",
            args.workload,
            spec::WORKLOADS.join(", ")
        )
    })?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // At most `nproc` generator threads and connections.
    let conns = spec.mine_conns.min(nproc).max(1);
    let generators = conns + usize::from(spec.appends.is_some());
    let connections = generators;
    let fingerprint = report::fingerprint(nproc, generators, connections);
    if !report::mq_env().is_empty() {
        eprintln!("perfbench: MQ_* variables are set; this run does not measure the default configuration");
    }
    let lines: Vec<String> = spec.requests.iter().map(|r| r.line(&spec)).collect();
    let window = Duration::from_secs(args.seconds);

    let mut setups: Vec<SetupStats> = Vec::new();
    let mut served = None;
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS
            && setups.iter().map(|s| s.total_s).sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(mut old) = served.take() {
            shutdown(&mut old);
        }
        let (s, stats) = setup(&spec, &lines)?;
        setups.push(stats);
        served = Some(s);
    }
    let mut served = served.expect("at least one set-up");
    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()).expect("set-ups");

    let mut record = vec![
        ("workload", Json::str(spec.name)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", fingerprint),
        (
            "setup_s_each",
            Json::Arr(setups.iter().map(|s| Json::Num(s.total_s)).collect()),
        ),
    ];
    let mut metrics: Vec<(&'static str, Json)> = Vec::new();
    let windows: Vec<Window>;
    if !args.trace {
        let batches = 0..spec.appends_in(window);
        let w = measure(&served, &spec, &lines, conns, window, batches, None);
        shutdown(&mut served);
        let steal = &w.host.steal[..(w.mine_phase.as_millis() / SLICE.as_millis()) as usize];
        let quiet = stats::quiet_slices(steal);
        let mine = Summary::of(&w.mine_timed(), SLICE, &quiet, spec.mine_tail_pct)
            .ok_or("no mine completed in a quiet slice")?;
        let whole = Summary::of(
            &w.mine_timed(),
            SLICE,
            &vec![true; steal.len()],
            spec.mine_tail_pct,
        )
        .ok_or("no mine completed")?;
        let quiet_steal = steal
            .iter()
            .zip(&quiet)
            .filter(|(_, &q)| q)
            .map(|(s, _)| s)
            .sum::<f64>()
            / mine.slices as f64;
        if let Some(a) = spec.appends {
            let span = Duration::from_secs_f64(w.appends.samples.len() as f64 / a.rate);
            let append = Summary::of(&w.append_timed(), span, &[true], a.tail_pct)
                .ok_or("no append was acknowledged")?;
            record.push(("append", summary_json(&append)));
        }
        let t = tally(&[&w]);
        metrics = vec![
            ("setup_s", metric(setup_s, "s")),
            ("mine_p50_ms", metric(mine.p50, "ms")),
            ("mine_rps", metric(mine.rate, "1/s")),
            ("peak_rss_mb", metric(w.host.peak_rss_mib, "MiB")),
            ("ok_frac", metric(1.0 - t.error_frac(), "ratio")),
        ];
        record.extend([
            ("mine", summary_json(&mine)),
            ("mine_all_slices", summary_json(&whole)),
            ("quiet_steal_frac", Json::Num(quiet_steal)),
            ("error_frac", Json::Num(t.error_frac())),
            ("loadgen_append_late_max_ms", Json::Num(w.max_late_ms())),
            (
                "host_steal_frac",
                Json::Num(steal.iter().sum::<f64>() / steal.len() as f64),
            ),
            ("mine_deduped", Json::Int(w.deduped() as u64)),
        ]);
        windows = vec![w];
    } else {
        let (parts, per_layer) = traced_run(&served, &spec, &lines, conns, window, &setups)?;
        shutdown(&mut served);
        for (name, value, unit) in per_layer {
            metrics.push((name, metric(value, unit)));
        }
        windows = parts;
    }
    drop(served);

    let refs: Vec<&Window> = windows.iter().collect();
    let (mines, acks) = observations(&refs);
    let checked = check::check(&spec, &mines, &acks, nproc.min(2));
    let t = tally(&refs);
    for p in checked.problems.iter().take(10) {
        eprintln!("perfbench: check: {p}");
    }
    record.extend([
        (
            "check",
            Json::obj([
                ("replies", Json::Int(checked.replies as u64)),
                ("acks", Json::Int(acks.len() as u64)),
                ("pairs", Json::Int(checked.pairs as u64)),
                ("mismatches", Json::Int(checked.mismatches as u64)),
                ("problems", Json::Int(checked.problems.len() as u64)),
            ]),
        ),
        (
            "tally",
            Json::obj([
                ("attempted", Json::Int(t.attempted)),
                ("ok", Json::Int(t.ok)),
                ("err_replies", Json::Int(t.err_replies)),
                ("disconnects", Json::Int(t.disconnects)),
                ("refused", Json::Int(t.refused)),
            ]),
        ),
    ]);
    let result = Json::obj([
        ("correct", Json::Bool(checked.ok())),
        ("attempted", Json::Int(t.attempted)),
        ("failed", Json::Int(t.failed())),
        ("metrics", Json::obj(metrics)),
    ]);
    record.push(("result", result.clone()));
    let record = Json::obj(record);
    let name = format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::write(format!("{OUT_DIR}/record-{name}"), record.render()))
    {
        eprintln!("perfbench: cannot write the record: {e}");
    }
    println!("{}", record.render());
    Ok(result)
}

/// The traced run, in three parts of the window. A quarter replays the
/// request sequence on one connection, untraced, as the baseline; half
/// replays it again with the per-layer calls (one connection keeps a
/// request's layer calls from competing with another connection's
/// search, so their differences are the layers' own cost); a quarter
/// runs the workload's own load with the service registry diffed
/// around it. Appends join the replays only where they run beside the
/// mines (`mixed_rw`), so elsewhere the replays see the set-up data.
/// Engine, kernel and catalog probes follow. Returns the windows and
/// metrics.
fn traced_run(
    served: &Served,
    spec: &Spec,
    lines: &[String],
    conns: usize,
    window: Duration,
    setups: &[SetupStats],
) -> Result<(Vec<Window>, Vec<Metric>), String> {
    let quarter = window / 4;
    let half = window - 2 * quarter;
    let mut next_batch = 0;
    let mut batches = |part: Duration, with: bool| {
        let n = if with { spec.appends_in(part) } else { 0 };
        next_batch += n;
        next_batch - n..next_batch
    };
    let replay_appends = spec.appends.is_some();
    let untraced = measure(
        served,
        spec,
        lines,
        1,
        quarter,
        batches(quarter, replay_appends),
        None,
    );
    let tracer = trace::Tracer::new(Instant::now(), &served.service, spec);
    let traced = measure(
        served,
        spec,
        lines,
        1,
        half,
        batches(half, replay_appends),
        Some(&tracer),
    );
    let engine = layers::engine(&served.service, spec);
    let (db, a, b) = spec.kernel_input;
    let snapshot = served
        .service
        .catalog()
        .snapshot(spec.dbs[db].name)
        .map_err(|e| format!("snapshot: {e}"))?;
    let kernels = layers::kernels(snapshot.database(), a, b);
    drop(snapshot);
    let before = layers::RegistrySnap::take(&served.service, spec);
    let loaded = measure(
        served,
        spec,
        lines,
        conns,
        quarter,
        batches(quarter, true),
        None,
    );
    let after = layers::RegistrySnap::take(&served.service, spec);
    let next_batch = batches(Duration::ZERO, false).end;
    let spans: Vec<trace::Span> = traced
        .mines
        .iter()
        .flat_map(|r| r.spans.spans.iter().copied())
        .collect();
    let path =
        std::path::Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", spec.name, spec.seed));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| trace::write_spans(&path, &spans))
    {
        eprintln!("perfbench: cannot write spans: {e}");
    }

    // Layer self times: the mean over request kinds of the kind's mean,
    // so the layers add up to the mean latency of a request kind.
    let kinds: HashMap<u64, usize> = traced
        .mines
        .iter()
        .flat_map(|r| r.spans.kinds.iter().map(|(&k, &v)| (k, v)))
        .collect();
    let selfs = trace::self_times(&spans);
    let layer_mean = |name: &str| -> Result<f64, String> {
        let v = selfs
            .get(name)
            .ok_or_else(|| format!("no `{name}` spans"))?;
        Ok(
            stats::mean_of_means(v.iter().map(|&(req, ns)| (kinds[&req], ns as f64)))
                .expect("non-empty"),
        )
    };
    let untraced_p50 = untraced.mine_p50_ms().ok_or("no untraced mine completed")?;
    let traced_p50 = traced.mine_p50_ms().ok_or("no traced mine completed")?;
    let layer_ns = ["net", "protocol", "session", "parse", "engine"]
        .iter()
        .map(|n| layer_mean(n))
        .collect::<Result<Vec<f64>, String>>()?;
    let coverage = layer_ns.iter().sum::<f64>() / (traced_p50 * 1e6);
    let reply_bytes = stats::mean_of_medians(
        traced
            .mines
            .iter()
            .flat_map(|r| r.samples.iter().map(|s| (s.req, s.reply.bytes as f64))),
    )
    .expect("traced replies");

    let mut out: Vec<Metric> = vec![
        ("net.ping_us", layer_mean("net.ping")? / 1e3, "us"),
        ("net.self_us", layer_ns[0] / 1e3, "us"),
        ("protocol.self_us", layer_ns[1] / 1e3, "us"),
        ("protocol.reply_bytes", reply_bytes, "bytes"),
        ("session.self_us", layer_ns[2] / 1e3, "us"),
        ("parse.us", layer_ns[3] / 1e3, "us"),
        ("engine.find_rules_ms", layer_ns[4] / 1e6, "ms"),
    ];
    out.extend(engine);
    out.extend(layers::registry_layers(&before, &after));
    out.extend(kernels);
    let first = setups.first().expect("set-ups ran");
    out.push((
        "catalog.register_s",
        median(&setups.iter().map(|s| s.register_s).collect::<Vec<_>>()).expect("set-ups"),
        "s",
    ));
    out.push((
        "catalog.bytes_per_tuple",
        first.rss_growth_mib * 1024.0 * 1024.0 / first.tuples.max(1) as f64,
        "bytes",
    ));
    out.extend(layers::catalog(&served.service, spec, next_batch));
    // Chronological: the checker replays acknowledgements in order.
    let parts = vec![untraced, traced, loaded];
    out.extend([
        (
            "loadgen.append_late_ms",
            parts.iter().map(Window::max_late_ms).fold(0.0, f64::max),
            "ms",
        ),
        ("trace.untraced_mine_p50_ms", untraced_p50, "ms"),
        ("trace.mine_p50_ms", traced_p50, "ms"),
        ("trace.overhead_ms", traced_p50 - untraced_p50, "ms"),
        ("trace.coverage", coverage, "ratio"),
    ]);
    Ok((parts, out))
}

fn shutdown(served: &mut Served) {
    served.server.shutdown();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
