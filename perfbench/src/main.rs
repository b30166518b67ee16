//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds and starts `graphflow-serve`, drives one workload against it over loopback for
//! `--seconds`, checks every response, and prints one JSON result line last on stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. The line before it is a report with sample counts and ratio bases; both are
//! also written, with the trace's spans, under `.bench_out/` in the repository root.

use graphflow_rs::catalog::Catalogue;
use graphflow_rs::core::json::{quote, Json};
use graphflow_rs::exec::RuntimeStats;
use graphflow_rs::graph::{EdgeLabel, Graph, GraphView};
use graphflow_rs::query::parse_query;
use graphflow_rs::query::patterns::benchmark_query;
use graphflow_rs::GraphflowDB;
use perfbench::client::Conn;
use perfbench::inproc::{self, ReadOutcome};
use perfbench::metrics::{per_layer_metrics, END_TO_END, READ_CLASSES, SPEEDUP_KINDS};
use perfbench::serve::{self, ServerProc};
use perfbench::stats::{median, percentile};
use perfbench::trace::{self, Span, Tracer};
use perfbench::workload::*;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Servers an untraced run sets up, each from scratch. All of them serve the measured pass, so
/// the figures average over server processes (the speed of one process differs from the next by
/// up to a fifth); `setup_s` is the median of their set-ups.
const SERVERS: usize = 5;
/// `GET /healthz` round trips timed at the start of a traced pass.
const HEALTHZ_PROBES: usize = 100;
/// Acknowledged-write edges the durability check samples.
const DURABILITY_SAMPLE: usize = 500;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let usage = "usage: perfbench --workload <wco_count|join_count|serve_mixed> --seed <n> \
                 --seconds <s> --trace <0|1>";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What every pass and set-up of one run shares.
struct Ctx {
    w: Workload,
    seed: u64,
    seconds: f64,
    bin: PathBuf,
    /// Per-run scratch directory for data directories.
    scratch: PathBuf,
    /// Expected counts of the analytic kinds.
    oracle: BTreeMap<usize, u64>,
}

/// How long the phases of one set-up took.
#[derive(Debug, Clone, Copy)]
struct Timings {
    /// Generating the graph and writing it into a fresh data directory.
    generate_ms: f64,
    /// Starting the server over that directory until `/healthz` answers.
    open_ms: f64,
    /// The warm-up requests.
    warmup_ms: f64,
}

impl Timings {
    fn seconds(&self) -> f64 {
        (self.generate_ms + self.open_ms + self.warmup_ms) / 1e3
    }
}

/// One started server.
struct Setup {
    server: ServerProc,
    dir: PathBuf,
    graph: Arc<Graph>,
    timings: Timings,
}

/// The requests a set-up sends before measuring: each analytic kind once, or each hot read
/// of `serve_mixed` once (so the plan cache holds the hot set, as in a deployed service).
fn warm_texts(ctx: &Ctx) -> Vec<String> {
    if ctx.w.is_analytic() {
        ctx.w
            .kinds()
            .iter()
            .map(|&(j, _)| analytic_text(j))
            .collect()
    } else {
        let reads = ReadGen::new(ctx.seed);
        reads.hot_set().iter().map(|(_, t)| t.clone()).collect()
    }
}

fn setup(ctx: &Ctx, tag: &str) -> Result<Setup, String> {
    let dir = ctx.scratch.join(format!("server-{tag}"));
    let started = Instant::now();
    let graph = ctx.w.graph_at(ctx.w.scale());
    serve::write_data_dir(&graph, &dir)?;
    let generate_ms = ms(started.elapsed());

    let started = Instant::now();
    let server = ServerProc::start(&ctx.bin, &dir, NPROC)?;
    let open_ms = ms(started.elapsed());

    let started = Instant::now();
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    for text in warm_texts(ctx) {
        let r = conn
            .request("POST", "/query", &query_body(&text, ctx.w.threads()))
            .map_err(|e| format!("warm-up: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm-up {text:?}: status {}: {}", r.status, r.body));
        }
    }
    let warmup_ms = ms(started.elapsed());
    Ok(Setup {
        server,
        dir,
        graph,
        timings: Timings {
            generate_ms,
            open_ms,
            warmup_ms,
        },
    })
}

/// One measured request.
struct Sample {
    /// `txn` for a write; the read's class otherwise.
    class: &'static str,
    /// When the request was due (open loop) or sent (closed loop), from the start of the
    /// pass, in ms.
    offset_ms: f64,
    /// From due or send time to the response, in ms.
    latency_ms: f64,
    /// From send to the response, in µs.
    service_us: f64,
}

impl Sample {
    fn new(class: &'static str, t0: Instant, start: Instant, sent: Instant, done: Instant) -> Self {
        Sample {
            class,
            offset_ms: ms(start - t0),
            latency_ms: ms(done - start),
            service_us: us(done - sent),
        }
    }

    fn is_read(&self) -> bool {
        self.class != "txn"
    }
}

/// Everything one measured pass observed.
#[derive(Default)]
struct Pass {
    /// Every measured request, in send order per connection.
    samples: Vec<Sample>,
    /// How late the generator sent each request (open loop: after its due time; closed
    /// loop: after the previous response), in ms.
    lag_ms: Vec<f64>,
    /// Requests per second of each complete pass over an analytic mix.
    pass_qps: Vec<f64>,
    /// From the first due time to the last read's response, summed over open-loop segments.
    elapsed_s: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// `/metrics` counters, after minus before.
    metrics: HashMap<String, f64>,
    peak_rss_mb: f64,
    /// Traced passes only.
    spans: Vec<Span>,
    inproc: Vec<ReadOutcome>,
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(what);
        }
    }

    /// Latencies in ms of the reads (`reads`) or of the writes.
    fn latencies(&self, reads: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.is_read() == reads)
            .map(|s| s.latency_ms)
            .collect()
    }

    fn absorb(&mut self, other: Pass) {
        self.samples.extend(other.samples);
        self.lag_ms.extend(other.lag_ms);
        self.pass_qps.extend(other.pass_qps);
        self.elapsed_s += other.elapsed_s;
        self.inproc.extend(other.inproc);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 10 {
                self.errors.push(e);
            }
        }
        self.spans = trace::merge(vec![std::mem::take(&mut self.spans), other.spans]);
    }
}

/// The count of a `RETURN COUNT(*)` response body.
fn response_count(body: &str) -> Option<u64> {
    let json = Json::parse(body).ok()?;
    let rows = json.get("rows")?.as_array()?;
    let cell = rows.first()?.as_array()?.first()?.as_i64()?;
    u64::try_from(cell).ok()
}

/// Wait until `due`: sleep to within 200 µs of it, then spin, so the generator's own wake-up
/// delay stays out of the measured latencies.
fn sleep_until(due: Instant) {
    let spin = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + spin {
        std::thread::sleep(due - now - spin);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Closed loop over one connection at a time: passes of the analytic mix in seeded order, pass
/// `i` on `conns[i % conns.len()]`, each response checked against the oracle, until
/// `--seconds` have passed.
fn closed_loop(
    ctx: &Ctx,
    conns: &mut [Conn],
    mirror: Option<&GraphflowDB>,
    origin: Instant,
    p: &mut Pass,
) {
    let threads = ctx.w.threads();
    let texts: BTreeMap<usize, (String, String)> = ctx
        .w
        .kinds()
        .iter()
        .map(|&(j, _)| {
            let text = analytic_text(j);
            let body = query_body(&text, threads);
            (j, (text, body))
        })
        .collect();
    let mut tracer = Tracer::new(origin);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(ctx.seconds);
    let mut last_done = t0;
    let mut req = 0u64;
    'passes: for pass in 0.. {
        let order = pass_order(ctx.w, ctx.seed, pass);
        let conn = &mut conns[pass as usize % conns.len()];
        let started = Instant::now();
        for &j in &order {
            if Instant::now() >= deadline {
                break 'passes;
            }
            let class = QNAMES[j];
            let expect = ctx.oracle[&j];
            let (text, body) = &texts[&j];
            let root = tracer.open(req, "request", class, j, None);
            let sent = Instant::now();
            let response = conn.request("POST", "/query", body);
            let done = Instant::now();
            p.lag_ms.push(ms(sent - last_done));
            last_done = done;
            p.attempted += 1;
            p.samples.push(Sample::new(class, t0, sent, sent, done));
            let wire_ok = match response {
                Ok(r) if r.status == 200 && response_count(&r.body) == Some(expect) => true,
                Ok(r) => {
                    p.fail(format!("{class}: status {} body {}", r.status, r.body));
                    false
                }
                Err(e) => {
                    p.fail(format!("{class}: {e}"));
                    false
                }
            };
            if let Some(db) = mirror {
                tracer.record(root, "POST /query", sent, done);
                match inproc::traced_read(db, &mut tracer, root, text, threads, true) {
                    Ok(o) if o.count == Some(expect) => p.inproc.push(o),
                    Ok(o) if wire_ok => p.fail(format!("{class}: in-process count {:?}", o.count)),
                    Err(e) if wire_ok => p.fail(format!("{class}: in-process {e}")),
                    _ => {}
                }
                tracer.close(root);
            }
            req += 1;
        }
        p.pass_qps
            .push(order.len() as f64 / started.elapsed().as_secs_f64());
    }
    p.elapsed_s = (last_done - t0).as_secs_f64();
    if mirror.is_some() {
        p.spans = tracer.spans;
    }
}

/// Reads of `serve_mixed` at `READ_RATE` for `seconds` on this thread's connection, open loop.
fn read_loop(
    ctx: &Ctx,
    seconds: f64,
    conn: &mut Conn,
    mirror: Option<&GraphflowDB>,
    t0: Instant,
    origin: Instant,
    p: &mut Pass,
) {
    let n = (READ_RATE * seconds).round() as u64;
    let mut reads = ReadGen::new(ctx.seed);
    let mut tracer = Tracer::new(origin);
    let mut last_done = t0;
    for i in 0..n {
        let read = reads.next_read();
        let due = t0 + Duration::from_secs_f64(i as f64 / READ_RATE);
        sleep_until(due);
        let root = tracer.open(i, "request", read.class, read.shape, None);
        let body = query_body(&read.text, 1);
        let sent = Instant::now();
        let response = conn.request("POST", "/query", &body);
        let done = Instant::now();
        last_done = done;
        p.lag_ms.push(ms(sent - due));
        p.attempted += 1;
        p.samples.push(Sample::new(read.class, t0, due, sent, done));
        let wire_ok = match response {
            Ok(r) if r.status == 200 && response_count(&r.body).is_some() => true,
            Ok(r) => {
                p.fail(format!("read: status {} body {}", r.status, r.body));
                false
            }
            Err(e) => {
                p.fail(format!("read: {e}"));
                false
            }
        };
        if let Some(db) = mirror {
            tracer.record(root, "POST /query", sent, done);
            match inproc::traced_read(db, &mut tracer, root, &read.text, 1, false) {
                Ok(o) if o.count.is_some() => p.inproc.push(o),
                Ok(_) if wire_ok => p.fail("read: in-process result is not a count".into()),
                Err(e) if wire_ok => p.fail(format!("read: in-process {e}")),
                _ => {}
            }
            tracer.close(root);
        }
    }
    p.elapsed_s = (last_done - t0).as_secs_f64();
    if mirror.is_some() {
        p.spans = tracer.spans;
    }
}

/// Writes of `serve_mixed` at `WRITE_RATE` for `seconds` on this thread's connection, open
/// loop. Returns the edge-set model of the acknowledged batches, or `None` when a batch failed
/// and the server's state is unknown.
#[allow(clippy::too_many_arguments)]
fn write_loop(
    ctx: &Ctx,
    seconds: f64,
    graph: &Graph,
    conn: &mut Conn,
    mirror: Option<&GraphflowDB>,
    t0: Instant,
    origin: Instant,
    p: &mut Pass,
) -> Option<WriteGen> {
    let n = (WRITE_RATE * seconds).round() as u64;
    let mut model = WriteGen::new(graph, ctx.seed);
    let mut known = true;
    let mut tracer = Tracer::new(origin);
    for i in 0..n {
        let batch = model.next_batch();
        let due = t0 + Duration::from_secs_f64(i as f64 / WRITE_RATE);
        sleep_until(due);
        let root = tracer.open(1 << 40 | i, "request", "txn", 0, None);
        let sent = Instant::now();
        let response = conn.request("POST", "/txn", &txn_body(&batch));
        let done = Instant::now();
        p.lag_ms.push(ms(sent - due));
        p.attempted += 1;
        p.samples.push(Sample::new("txn", t0, due, sent, done));
        let applied = |body: &str| Json::parse(body).ok()?.get("applied")?.as_i64();
        match response {
            Ok(r) if r.status == 200 && applied(&r.body) == Some(batch.len() as i64) => {}
            Ok(r) => {
                known = false;
                p.fail(format!("txn: status {} body {}", r.status, r.body));
            }
            Err(e) => {
                known = false;
                p.fail(format!("txn: {e}"));
            }
        }
        if let Some(db) = mirror {
            tracer.record(root, "POST /txn", sent, done);
            match inproc::traced_txn(db, &mut tracer, root, &batch) {
                Ok(n) if n == batch.len() => {}
                Ok(n) => p.fail(format!("txn: in-process applied {n} of {}", batch.len())),
                Err(e) => p.fail(format!("txn: in-process {e}")),
            }
            tracer.close(root);
        }
    }
    if mirror.is_some() {
        p.spans = tracer.spans;
    }
    known.then_some(model)
}

/// Reopen a stopped server's data directory and count acknowledged writes it lost: the
/// edge-count difference plus sampled touched edges whose presence differs from the model.
fn lost_writes(dir: &std::path::Path, model: &WriteGen) -> Result<u64, String> {
    let db = GraphflowDB::open(dir).map_err(|e| format!("reopen {}: {e}", dir.display()))?;
    let snap = db.snapshot();
    let mut lost = (snap.num_edges() as i64 - model.edge_count() as i64).unsigned_abs();
    let step = (model.touched.len() / DURABILITY_SAMPLE).max(1);
    for &(s, d) in model.touched.iter().step_by(step) {
        if snap.has_edge(s, d, EdgeLabel(0)) != model.contains((s, d)) {
            lost += 1;
        }
    }
    Ok(lost)
}

/// One measured pass against started servers, ending in a graceful shutdown of each (and, on
/// `serve_mixed`, the durability check). Analytic passes of the mix go to the servers in turn;
/// `serve_mixed` gives each server an equal open-loop segment of `--seconds`, one after the
/// other. With `mirror` (one server), every request is followed by the same layer calls
/// in-process, inside spans.
fn run_pass(ctx: &Ctx, setups: Vec<Setup>, mirror: Option<&GraphflowDB>) -> Result<Pass, String> {
    let connect = |s: &Setup| Conn::connect(s.server.addr).map_err(|e| format!("connect: {e}"));
    let mut conns = setups.iter().map(connect).collect::<Result<Vec<_>, _>>()?;
    let before = conns
        .iter_mut()
        .map(serve::scrape)
        .collect::<Result<Vec<_>, _>>()?;
    let origin = Instant::now();
    let mut p = Pass::default();
    let mut probes = Tracer::new(origin);
    if mirror.is_some() {
        for i in 0..HEALTHZ_PROBES as u64 {
            let span = probes.open(1 << 41 | i, "GET /healthz", "healthz", 0, None);
            match conns[0].request("GET", "/healthz", "") {
                Ok(r) if r.status == 200 => {}
                other => return Err(format!("GET /healthz: {other:?}")),
            }
            probes.close(span);
        }
    }
    let mut models = Vec::new();
    if ctx.w.is_analytic() {
        closed_loop(ctx, &mut conns, mirror, origin, &mut p);
    } else {
        let seconds = ctx.seconds / setups.len() as f64;
        for (setup, conn) in setups.iter().zip(&mut conns) {
            let mut writer_conn = connect(setup)?;
            let t0 = Instant::now() + Duration::from_millis(20);
            let (mut r, mut w) = (Pass::default(), Pass::default());
            let model = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    write_loop(
                        ctx,
                        seconds,
                        &setup.graph,
                        &mut writer_conn,
                        mirror,
                        t0,
                        origin,
                        &mut w,
                    )
                });
                read_loop(ctx, seconds, conn, mirror, t0, origin, &mut r);
                writer.join().expect("the writer thread does not panic")
            });
            if model.is_none() {
                p.fail("durability: a write failed, so the server's state is unknown".into());
            }
            models.push(model);
            p.absorb(r);
            p.absorb(w);
        }
    }
    for (conn, before) in conns.iter_mut().zip(&before) {
        for (k, v) in serve::scrape(conn)? {
            *p.metrics.entry(k.clone()).or_insert(0.0) +=
                v - before.get(&k).copied().unwrap_or(0.0);
        }
    }
    p.spans = trace::merge(vec![probes.spans, std::mem::take(&mut p.spans)]);
    let rss = setups
        .iter()
        .map(|s| s.server.peak_rss_mb())
        .collect::<Option<Vec<_>>>()
        .ok_or("cannot read the server's VmHWM")?;
    p.peak_rss_mb = median(&rss).unwrap_or(0.0);
    drop(conns);
    for (i, setup) in setups.into_iter().enumerate() {
        if let Err(e) = setup.server.shutdown() {
            p.fail(e);
        }
        if let Some(Some(model)) = models.get(i) {
            let lost = lost_writes(&setup.dir, model)?;
            for _ in 0..lost {
                p.fail("durability: an acknowledged write is missing after restart".into());
            }
        }
        let _ = std::fs::remove_dir_all(&setup.dir);
    }
    Ok(p)
}

/// Named metric values, in insertion order of the names that matter.
type Values = BTreeMap<String, f64>;

fn end_to_end(ctx: &Ctx, setup_s: f64, p: &Pass) -> Values {
    let latencies = p.latencies(true);
    let throughput = if ctx.w.is_analytic() && !p.pass_qps.is_empty() {
        median(&p.pass_qps).unwrap_or(0.0)
    } else {
        latencies.len() as f64 / p.elapsed_s.max(1e-9)
    };
    let mut v = Values::new();
    v.insert("setup_s".into(), setup_s);
    v.insert("throughput_qps".into(), throughput);
    v.insert("query_p50_ms".into(), median(&latencies).unwrap_or(0.0));
    v.insert("peak_rss_mb".into(), p.peak_rss_mb);
    v
}

/// Medians of the traced in-process spans and the run's other layer figures.
struct Traced {
    pass: Pass,
    /// `(name, value)` pairs computed after the pass: exact counters, speed-ups, plan choice.
    extra: Values,
    /// Bases of ratios, for the report.
    bases: Values,
}

fn traced_run(ctx: &Ctx) -> Result<Traced, String> {
    let setup = setup(ctx, "traced")?;
    let graph = setup.graph.clone();
    let mirror = inproc::open_mirror(&graph, &ctx.scratch.join("mirror"))?;
    for text in warm_texts(ctx) {
        mirror
            .prepare(&text)
            .and_then(|p| p.execute(graphflow_rs::QueryOptions::new().threads(ctx.w.threads())))
            .map_err(|e| format!("in-process warm-up: {e}"))?;
    }
    let storage_before = mirror.metrics();
    let pass = run_pass(ctx, vec![setup], Some(&mirror))?;
    let storage_after = mirror.metrics();

    let mut extra = Values::new();
    let mut bases = Values::new();
    let started = Instant::now();
    let catalogue = Catalogue::with_defaults(graph.clone());
    let queries: Vec<_> = if ctx.w.is_analytic() {
        ctx.w
            .kinds()
            .iter()
            .map(|&(j, _)| benchmark_query(j))
            .collect()
    } else {
        ReadGen::new(ctx.seed)
            .hot_set()
            .iter()
            .map(|(_, t)| parse_query(t).expect("generated texts parse"))
            .collect()
    };
    catalogue.prepopulate(&queries);
    extra.insert("catalog.build_ms".into(), ms(started.elapsed()));

    // The executions whose work counters the run reports: one exact single-threaded run of
    // each analytic kind, or every traced `serve_mixed` read.
    let mut counted = Vec::new();
    for &(j, _) in ctx.w.kinds() {
        let s = inproc::exact_stats(&mirror, j).map_err(|e| e.to_string())?;
        for (name, value) in [
            ("icost", s.icost),
            ("intermediate_tuples", s.intermediate_tuples),
            ("hash_build_tuples", s.hash_build_tuples),
            ("hash_probe_tuples", s.hash_probe_tuples),
        ] {
            extra.insert(format!("exec.{name}.Q{j}"), value as f64);
        }
        counted.push(s);
    }
    if !ctx.w.is_analytic() {
        counted.extend(pass.inproc.iter().map(|r| r.stats.clone()));
    }
    let total = |f: fn(&RuntimeStats) -> u64| counted.iter().map(f).sum::<u64>() as f64;
    let lookups = total(|s| s.cache_hits + s.cache_misses);
    extra.insert(
        "exec.icache_hit_ratio".into(),
        total(|s| s.cache_hits) / lookups.max(1.0),
    );
    bases.insert("exec.icache_lookups".into(), lookups);
    extra.insert("exec.delta_merges".into(), total(|s| s.delta_merges));
    extra.insert("graph.intersect.merge".into(), total(|s| s.kernel_merge));
    extra.insert("graph.intersect.gallop".into(), total(|s| s.kernel_gallop));
    extra.insert("graph.intersect.block".into(), total(|s| s.kernel_block));
    if ctx.w == Workload::WcoCount {
        for j in SPEEDUP_KINDS {
            let t1 = inproc::exec_ms(&mirror, j, 1, 3).map_err(|e| e.to_string())?;
            let tn = inproc::exec_ms(&mirror, j, NPROC, 3).map_err(|e| e.to_string())?;
            extra.insert(format!("exec.speedup_nproc.Q{j}"), t1 / tn);
            bases.insert(format!("exec.threads1_ms.Q{j}"), t1);
        }
    }
    if ctx.w == Workload::JoinCount {
        for j in [2, 4] {
            let choice = inproc::plan_choice(&mirror, j)?;
            extra.insert(
                format!("plan.pick_over_best.Q{j}"),
                choice.pick_ms / choice.best_ms,
            );
            bases.insert(format!("plan.best_ms.Q{j}"), choice.best_ms);
            bases.insert(format!("plan.spectrum_plans.Q{j}"), choice.plans as f64);
        }
    }
    if !ctx.w.is_analytic() {
        let commits = (storage_after.txn_commits - storage_before.txn_commits) as f64;
        let wal = (storage_after.wal_bytes_written - storage_before.wal_bytes_written) as f64;
        let fsyncs = (storage_after.wal_fsyncs - storage_before.wal_fsyncs) as f64;
        let updates = commits * (INSERTS_PER_TXN + DELETES_PER_TXN) as f64;
        extra.insert(
            "storage.wal_bytes_per_update".into(),
            wal / updates.max(1.0),
        );
        extra.insert(
            "storage.fsyncs_per_commit".into(),
            fsyncs / commits.max(1.0),
        );
        extra.insert(
            "storage.checkpoints".into(),
            (storage_after.checkpoints - storage_before.checkpoints) as f64,
        );
        bases.insert("storage.commits".into(), commits);
    }
    drop(mirror);
    let _ = std::fs::remove_dir_all(ctx.scratch.join("mirror"));
    Ok(Traced { pass, extra, bases })
}

/// The per-layer values of a traced run. The per-class breakdown sets each class's median
/// wire span against the medians of its in-process layer spans, all from the traced pass, so
/// both sides see the same machine state; `wire` is the untraced pass of the same seed.
fn per_layer(ctx: &Ctx, setups: &[Timings], wire: &Pass, t: &Traced) -> (Values, Values) {
    let mut v = t.extra.clone();
    let mut bases = t.bases.clone();
    let spans = &t.pass.spans;
    let span_median = |name: &str, class: &dyn Fn(&Span) -> bool| {
        median(&trace::durations_us(spans, name, class))
    };
    let all = |_: &Span| true;
    if let Some(x) = span_median("GET /healthz", &all) {
        v.insert("server.healthz_rtt_us".into(), x);
    }
    let read_layers = [
        "GraphflowDB::prepare",
        "PreparedQuery::execute",
        "ResultSet::to_json",
    ];
    for c in READ_CLASSES {
        let Some(wire_p50) = span_median("POST /query", &|s: &Span| s.class == c) else {
            continue;
        };
        let layers: Option<Vec<f64>> = read_layers
            .iter()
            .map(|name| span_median(name, &|s: &Span| s.class == c))
            .collect();
        let Some(layers) = layers else {
            continue;
        };
        let overhead = wire_p50 - layers.iter().sum::<f64>();
        v.insert(format!("server.query_overhead_us.{c}"), overhead);
        v.insert(
            format!("trace.unattributed_pct.{c}"),
            100.0 * overhead / wire_p50,
        );
        bases.insert(format!("server.wire_p50_us.{c}"), wire_p50);
    }
    let txn = |s: &Span| s.class == "txn";
    if let Some(wire_p50) = span_median("POST /txn", &txn) {
        let layers: Option<Vec<f64>> = [
            "GraphflowDB::begin_write",
            "WriteTxn::apply_batch",
            "WriteTxn::commit",
        ]
        .iter()
        .map(|name| span_median(name, &txn))
        .collect();
        if let Some(layers) = layers {
            let overhead = wire_p50 - layers.iter().sum::<f64>();
            v.insert("server.txn_overhead_us".into(), overhead);
            v.insert(
                "trace.unattributed_pct.txn".into(),
                100.0 * overhead / wire_p50,
            );
            bases.insert("server.wire_p50_us.txn".into(), wire_p50);
        }
        let commits = trace::durations_us(spans, "WriteTxn::commit", txn);
        if let (Some(p50), Some(p99)) = (median(&commits), percentile(&commits, 99.0)) {
            v.insert("storage.commit_us.p50".into(), p50);
            v.insert("storage.commit_us.p99".into(), p99);
        }
        let txn_ms = wire.latencies(false);
        v.insert("txn_p50_ms".into(), median(&txn_ms).unwrap_or(0.0));
        v.insert(
            "txn_p99_ms".into(),
            percentile(&txn_ms, 99.0).unwrap_or(0.0),
        );
    }
    let m = &t.pass.metrics;
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    v.insert(
        "server.rejected_total".into(),
        get("graphflow_tenant_rejected_total"),
    );
    let hits = get("graphflow_plan_cache_hits_total");
    let lookups = hits + get("graphflow_plan_cache_misses_total");
    v.insert("core.plan_cache_hit_ratio".into(), hits / lookups.max(1.0));
    v.insert("core.plan_cache_lookups".into(), lookups);
    v.insert(
        "core.plan_cache_invalidations".into(),
        get("graphflow_plan_cache_invalidations_total"),
    );
    if let Some(x) = span_median("graphflow_query::parse_query", &all) {
        v.insert("query.parse_us".into(), x);
    }
    let hit_prepares: Vec<f64> = t
        .pass
        .inproc
        .iter()
        .filter(|r| r.cached)
        .map(|r| r.prepare_us)
        .collect();
    if let Some(x) = median(&hit_prepares) {
        v.insert("core.prepare_hit_us".into(), x);
    }
    if let Some(x) = span_median("ResultSet::to_json", &all) {
        v.insert("core.to_json_us".into(), x);
    }
    for j in 1..=13 {
        if let Some(x) = span_median("GraphflowDB::plan", &|s: &Span| s.shape == j) {
            v.insert(format!("plan.optimize_ms.Q{j}"), x / 1e3);
        }
    }
    if ctx.w.is_analytic() {
        for &(j, _) in ctx.w.kinds() {
            let class = QNAMES[j];
            if let Some(x) = span_median("PreparedQuery::execute", &|s: &Span| s.class == class) {
                v.insert(format!("exec.run_ms.Q{j}"), x / 1e3);
            }
        }
    }
    let field = |f: fn(&Timings) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    v.insert(
        "setup.generate_ms".into(),
        field(|s| s.generate_ms).unwrap_or(0.0),
    );
    v.insert("setup.open_ms".into(), field(|s| s.open_ms).unwrap_or(0.0));
    v.insert(
        "setup.warmup_ms".into(),
        field(|s| s.warmup_ms).unwrap_or(0.0),
    );
    v.insert(
        "loadgen.lag_p99_ms".into(),
        percentile(&wire.lag_ms, 99.0).unwrap_or(0.0),
    );
    // Tracing overhead: the traced pass's per-class median service times against the
    // untraced pass's, weighted by how many requests of each class the untraced pass sent.
    let (mut traced_sum, mut plain_sum) = (0.0, 0.0);
    for c in READ_CLASSES {
        let service = |p: &Pass| {
            let v: Vec<f64> = p
                .samples
                .iter()
                .filter(|s| s.class == c)
                .map(|s| s.service_us)
                .collect();
            median(&v).map(|m| (m, v.len() as f64))
        };
        if let (Some((traced, _)), Some((plain, n))) = (service(&t.pass), service(wire)) {
            traced_sum += traced * n;
            plain_sum += plain * n;
        }
    }
    if plain_sum > 0.0 {
        v.insert(
            "trace.overhead_pct".into(),
            100.0 * (traced_sum / plain_sum - 1.0),
        );
    }
    let latencies = wire.latencies(true);
    if let Some(x) = percentile(&latencies, 99.0) {
        v.insert("query_p99_ms".into(), x);
    }
    let attempted = (wire.attempted + t.pass.attempted) as f64;
    let failed = (wire.failed + t.pass.failed) as f64;
    v.insert("failed_ratio".into(), failed / attempted.max(1.0));
    bases.insert("attempted".into(), attempted);
    (v, bases)
}

fn json_metrics(values: &[(String, f64, &str)]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                num(*value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

/// A JSON number with all its digits (non-finite values, which JSON cannot carry, print 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

fn json_values(values: &Values) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), num(*v)))
        .collect();
    format!("{{{}}}", items.join(","))
}

fn run(args: &Args) -> Result<(), String> {
    let root = serve::repo_root();
    let bin = serve::build_server(&root)?;
    let out = root.join(".bench_out");
    let scratch = out.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = measure(args, bin, &out, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn measure(
    args: &Args,
    bin: PathBuf,
    out: &std::path::Path,
    scratch: &std::path::Path,
) -> Result<(), String> {
    let w = args.workload;
    let oracle = if w.is_analytic() {
        inproc::oracle(w, &w.graph_at(w.scale()))
    } else {
        BTreeMap::new()
    };
    let ctx = Ctx {
        w,
        seed: args.seed,
        seconds: args.seconds,
        bin,
        scratch: scratch.to_path_buf(),
        oracle,
    };

    let setups = (0..SERVERS)
        .map(|i| setup(&ctx, &i.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let timings: Vec<Timings> = setups.iter().map(|s| s.timings).collect();
    let setup_s =
        median(&timings.iter().map(Timings::seconds).collect::<Vec<_>>()).expect("SERVERS > 0");
    let wire = run_pass(&ctx, setups, None)?;

    let mut report = Values::new();
    report.insert("seed".into(), args.seed as f64);
    report.insert("seconds".into(), args.seconds);
    let txn_ms = wire.latencies(false);
    report.insert("reads".into(), wire.latencies(true).len() as f64);
    report.insert("txns".into(), txn_ms.len() as f64);
    report.insert("complete_passes".into(), wire.pass_qps.len() as f64);
    let latencies = wire.latencies(true);
    report.insert(
        "query_p99_ms".into(),
        percentile(&latencies, 99.0).unwrap_or(0.0),
    );
    report.insert(
        "failed_ratio".into(),
        wire.failed as f64 / wire.attempted.max(1) as f64,
    );
    if !txn_ms.is_empty() {
        report.insert("txn_p50_ms".into(), median(&txn_ms).unwrap_or(0.0));
        report.insert(
            "txn_p99_ms".into(),
            percentile(&txn_ms, 99.0).unwrap_or(0.0),
        );
    }
    report.insert("servers".into(), SERVERS as f64);

    let (values, attempted, failed, errors, not_applicable, spans) = if args.trace {
        let traced = traced_run(&ctx)?;
        let (values, bases) = per_layer(&ctx, &timings, &wire, &traced);
        report.extend(bases);
        let mut rows = Vec::new();
        let mut na = Vec::new();
        for (name, unit) in per_layer_metrics() {
            match values.get(&name) {
                Some(&x) => rows.push((name, x, unit)),
                None => {
                    na.push(name.clone());
                    rows.push((name, 0.0, unit));
                }
            }
        }
        let mut errors = wire.errors.clone();
        errors.extend(traced.pass.errors.iter().cloned());
        (
            rows,
            wire.attempted + traced.pass.attempted,
            wire.failed + traced.pass.failed,
            errors,
            na,
            Some(traced.pass.spans),
        )
    } else {
        let values = end_to_end(&ctx, setup_s, &wire);
        let rows = END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), values[name], unit))
            .collect();
        (
            rows,
            wire.attempted,
            wire.failed,
            wire.errors.clone(),
            Vec::new(),
            None,
        )
    };
    let correct = failed == 0;
    let stem = format!("{}-seed{}-trace{}", w.name(), args.seed, args.trace as u8);
    let report_line =
        format!(
        "{{\"report\":{{\"workload\":{},\"figures\":{},\"not_applicable\":[{}],\"errors\":[{}]}}}}",
        quote(w.name()),
        json_values(&report),
        not_applicable.iter().map(|n| quote(n)).collect::<Vec<_>>().join(","),
        errors.iter().map(|e| quote(e)).collect::<Vec<_>>().join(","),
    );
    let result_line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        json_metrics(&values)
    );
    let _ = std::fs::write(out.join(format!("{stem}.report.json")), &report_line);
    let mut log = String::from("kind,class,offset_ms,latency_ms\n");
    for s in &wire.samples {
        let kind = if s.is_read() { "read" } else { "txn" };
        log.push_str(&format!(
            "{kind},{},{:.3},{:.3}\n",
            s.class, s.offset_ms, s.latency_ms
        ));
    }
    let _ = std::fs::write(out.join(format!("{stem}.requests.csv")), log);
    if let Some(spans) = spans {
        let _ = std::fs::write(
            out.join(format!("{stem}.spans.jsonl")),
            trace::to_jsonl(&spans),
        );
    }
    println!("{report_line}");
    println!("{result_line}");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
