//! The names and units of the metrics a run prints, in `BENCHMARK.json` order.

/// The end-to-end metrics in `BENCHMARK.json` order, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Request classes of the per-class layer breakdown.
pub const READ_CLASSES: [&str; 9] = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "hot", "fresh"];
/// Queries whose speed-up from 1 to `NPROC` threads is measured (`wco_count`).
pub const SPEEDUP_KINDS: [usize; 5] = [1, 3, 5, 6, 7];

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order. A traced run prints all
/// of them; one that does not apply to the workload prints 0 and is listed in the report.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("server.healthz_rtt_us".into(), "us");
    for c in READ_CLASSES {
        add(format!("server.query_overhead_us.{c}"), "us");
    }
    add("server.txn_overhead_us".into(), "us");
    add("server.rejected_total".into(), "count");
    add("query.parse_us".into(), "us");
    add("core.prepare_hit_us".into(), "us");
    add("core.plan_cache_hit_ratio".into(), "ratio");
    add("core.plan_cache_lookups".into(), "count");
    add("core.plan_cache_invalidations".into(), "count");
    add("core.to_json_us".into(), "us");
    for j in 1..=13 {
        add(format!("plan.optimize_ms.Q{j}"), "ms");
    }
    add("plan.pick_over_best.Q2".into(), "ratio");
    add("plan.pick_over_best.Q4".into(), "ratio");
    add("catalog.build_ms".into(), "ms");
    for j in 1..=7 {
        add(format!("exec.run_ms.Q{j}"), "ms");
        add(format!("exec.icost.Q{j}"), "count");
        add(format!("exec.intermediate_tuples.Q{j}"), "count");
        add(format!("exec.hash_build_tuples.Q{j}"), "count");
        add(format!("exec.hash_probe_tuples.Q{j}"), "count");
    }
    for j in SPEEDUP_KINDS {
        add(format!("exec.speedup_nproc.Q{j}"), "ratio");
    }
    add("exec.icache_hit_ratio".into(), "ratio");
    add("exec.delta_merges".into(), "count");
    for k in ["merge", "gallop", "block"] {
        add(format!("graph.intersect.{k}"), "count");
    }
    add("storage.commit_us.p50".into(), "us");
    add("storage.commit_us.p99".into(), "us");
    add("storage.wal_bytes_per_update".into(), "B");
    add("storage.fsyncs_per_commit".into(), "ratio");
    add("storage.checkpoints".into(), "count");
    add("query_p99_ms".into(), "ms");
    add("txn_p50_ms".into(), "ms");
    add("txn_p99_ms".into(), "ms");
    add("failed_ratio".into(), "ratio");
    add("setup.generate_ms".into(), "ms");
    add("setup.open_ms".into(), "ms");
    add("setup.warmup_ms".into(), "ms");
    add("loadgen.lag_p99_ms".into(), "ms");
    add("trace.overhead_pct".into(), "%");
    for c in READ_CLASSES.iter().chain(&["txn"]) {
        add(format!("trace.unattributed_pct.{c}"), "%");
    }
    m
}
