//! In-process calls into each layer's public functions, against a copy of the graph the
//! server serves: the traced run's per-layer timings, the output oracle, the exact work
//! counters and the plan-choice measurement.

use crate::trace::Tracer;
use crate::workload::{analytic_text, updates, EdgeOp, Workload};
use graphflow_rs::baselines::{backtracking_count, BacktrackOptions};
use graphflow_rs::exec::RuntimeStats;
use graphflow_rs::graph::Graph;
use graphflow_rs::plan::cost::CostModel;
use graphflow_rs::plan::spectrum::{enumerate_spectrum, SpectrumLimits};
use graphflow_rs::query::parse_query;
use graphflow_rs::query::patterns::benchmark_query;
use graphflow_rs::{Durability, Error, GraphflowDB, QueryOptions};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open the in-process copy: the same graph in its own fsync data directory, so commits pay
/// the same write-ahead logging the server's do.
pub fn open_mirror(graph: &Arc<Graph>, dir: &Path) -> Result<GraphflowDB, String> {
    let _ = std::fs::remove_dir_all(dir);
    GraphflowDB::builder(graph.clone())
        .data_dir(dir)
        .durability(Durability::Fsync)
        .open()
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// What one traced in-process read observed.
pub struct ReadOutcome {
    pub count: Option<u64>,
    pub stats: RuntimeStats,
    /// Whether the prepare was a plan-cache hit, and how long it took.
    pub cached: bool,
    pub prepare_us: f64,
}

/// The layer calls the server makes for one `POST /query` (parse, prepare through the plan
/// cache, execute the `RETURN` clause, serialize), each in a child span of `root`. The
/// optimizer is also called directly, bypassing the cache, when the prepare missed or
/// `optimize` is set, to time `GraphflowDB::plan` on its own.
pub fn traced_read(
    db: &GraphflowDB,
    tracer: &mut Tracer,
    root: usize,
    text: &str,
    threads: usize,
    optimize: bool,
) -> Result<ReadOutcome, Error> {
    tracer.child(root, "graphflow_query::parse_query", || parse_query(text))?;
    let prepared = tracer.child(root, "GraphflowDB::prepare", || db.prepare(text))?;
    let cached = prepared.was_cached();
    let prepare_us = tracer.spans.last().map_or(0.0, |s| s.micros());
    if optimize || !cached {
        tracer.child(root, "GraphflowDB::plan", || db.plan(prepared.query()))?;
    }
    let options = QueryOptions::new().threads(threads);
    let rs = tracer.child(root, "PreparedQuery::execute", || prepared.execute(options))?;
    let json = tracer.child(root, "ResultSet::to_json", || rs.to_json());
    std::hint::black_box(json);
    Ok(ReadOutcome {
        count: rs.scalar_count(),
        stats: rs.stats,
        cached,
        prepare_us,
    })
}

/// The layer calls the server makes for one `POST /txn`, each in a child span of `root`.
/// Returns how many updates changed the graph.
pub fn traced_txn(
    db: &GraphflowDB,
    tracer: &mut Tracer,
    root: usize,
    batch: &[EdgeOp],
) -> Result<usize, Error> {
    let updates = updates(batch);
    let mut txn = tracer.child(root, "GraphflowDB::begin_write", || db.begin_write());
    let applied = tracer.child(root, "WriteTxn::apply_batch", || txn.apply_batch(&updates));
    tracer.child(root, "WriteTxn::commit", || txn.try_commit())?;
    Ok(applied)
}

/// Expected `COUNT(*)` of each analytic kind, by the backtracking baseline: a path that never
/// touches the optimizer or the operator pipeline.
pub fn oracle(w: Workload, graph: &Graph) -> BTreeMap<usize, u64> {
    w.kinds()
        .iter()
        .map(|&(j, _)| {
            let q = benchmark_query(j);
            (
                j,
                backtracking_count(graph, &q, BacktrackOptions::default()),
            )
        })
        .collect()
}

/// Work counters of one single-threaded execution of `Qj RETURN COUNT(*)`. Every counter is
/// exact: a fixed graph and a fixed plan give the same numbers on every run.
pub fn exact_stats(db: &GraphflowDB, j: usize) -> Result<RuntimeStats, Error> {
    let prepared = db.prepare(&analytic_text(j))?;
    Ok(prepared.execute(QueryOptions::new().threads(1))?.stats)
}

/// Median wall time in milliseconds of `reps` executions of `Qj RETURN COUNT(*)`.
pub fn exec_ms(db: &GraphflowDB, j: usize, threads: usize, reps: usize) -> Result<f64, Error> {
    let prepared = db.prepare(&analytic_text(j))?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        std::hint::black_box(prepared.execute(QueryOptions::new().threads(threads))?);
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::stats::median(&times).unwrap_or(0.0))
}

/// The DP's plan for `Qj` against the measured best plan of its enumerated spectrum.
pub struct PlanChoice {
    pub pick_ms: f64,
    pub best_ms: f64,
    pub plans: usize,
}

/// Time the DP pick and every spectrum plan single-threaded. A spectrum plan runs with the
/// best time so far as its deadline, so a slower plan stops early: only the best needs a
/// complete run.
pub fn plan_choice(db: &GraphflowDB, j: usize) -> Result<PlanChoice, String> {
    let q = benchmark_query(j);
    let pick = db.plan(&q).map_err(|e| e.to_string())?;
    let time = |plan: &graphflow_rs::plan::Plan, deadline: Option<Duration>| {
        let mut options = QueryOptions::new().threads(1);
        if let Some(d) = deadline {
            options = options.timeout(d);
        }
        let started = Instant::now();
        match db.run_plan(plan, options) {
            Ok(r) => Ok(Some((started.elapsed(), r.count))),
            Err(Error::Timeout) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    };
    let (first, count) = time(&pick, None)?.expect("no deadline");
    let (second, _) = time(&pick, None)?.expect("no deadline");
    let pick_time = first.min(second);
    let catalogue = db.catalogue();
    let spectrum = enumerate_spectrum(
        &q,
        &catalogue,
        &CostModel::default(),
        SpectrumLimits {
            max_plans_per_subset: 16,
            max_plans_per_class: 12,
        },
    );
    let mut best = pick_time;
    for candidate in &spectrum {
        if let Some((t, c)) = time(&candidate.plan, Some(best))? {
            if c != count {
                return Err(format!(
                    "Q{j}: a spectrum plan counted {c}, the DP plan {count}"
                ));
            }
            best = best.min(t);
        }
    }
    Ok(PlanChoice {
        pick_ms: pick_time.as_secs_f64() * 1e3,
        best_ms: best.as_secs_f64() * 1e3,
        plans: spectrum.len(),
    })
}

/// Exact counters of a deterministic in-process replay of the start of a workload: each
/// analytic kind once, single-threaded; or the first `requests` reads of `serve_mixed`,
/// interleaved with its write batches in due-time order, against a copy of the graph in the
/// fsync data directory `dir`. Identical seeds must give identical counters.
pub fn replay_counters(
    w: Workload,
    seed: u64,
    graph: &Arc<Graph>,
    dir: &Path,
    requests: usize,
) -> Result<BTreeMap<String, u64>, String> {
    let db = open_mirror(graph, dir)?;
    let mut out = BTreeMap::new();
    let add = |out: &mut BTreeMap<String, u64>, key: String, stats: &RuntimeStats| {
        for (name, value) in [
            ("output", stats.output_count),
            ("icost", stats.icost),
            ("intermediate_tuples", stats.intermediate_tuples),
            ("hash_build_tuples", stats.hash_build_tuples),
            ("hash_probe_tuples", stats.hash_probe_tuples),
        ] {
            *out.entry(format!("{key}.{name}")).or_insert(0) += value;
        }
    };
    if w.is_analytic() {
        for &(j, _) in w.kinds() {
            let stats = exact_stats(&db, j).map_err(|e| e.to_string())?;
            add(&mut out, format!("Q{j}"), &stats);
        }
        return Ok(out);
    }
    let mut reads = crate::workload::ReadGen::new(seed);
    let mut writes = crate::workload::WriteGen::new(graph, seed);
    let per_read = crate::workload::WRITE_RATE / crate::workload::READ_RATE;
    let mut written = 0usize;
    for i in 0..requests {
        while (written as f64) <= i as f64 * per_read {
            let mut txn = db.begin_write();
            let applied = txn.apply_batch(&updates(&writes.next_batch()));
            txn.try_commit().map_err(|e| e.to_string())?;
            *out.entry("updates".to_string()).or_insert(0) += applied as u64;
            written += 1;
        }
        let read = reads.next_read();
        let rs = db
            .prepare(&read.text)
            .and_then(|p| p.execute(QueryOptions::new().threads(1)))
            .map_err(|e| e.to_string())?;
        add(&mut out, read.class.to_string(), &rs.stats);
    }
    out.insert("wal_bytes".to_string(), db.metrics().wal_bytes_written);
    Ok(out)
}
