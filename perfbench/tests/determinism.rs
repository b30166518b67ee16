//! The benchmark's exact counters repeat for one seed, and the seed changes what
//! `serve_mixed` sends.

use perfbench::inproc::replay_counters;
use perfbench::workload::{ReadGen, Workload, WriteGen};

/// Smaller graphs than a benchmark run, so the test is quick in a debug build.
fn scale(w: Workload) -> f64 {
    match w {
        Workload::ServeMixed => 0.3,
        _ => 0.05,
    }
}

fn counters(w: Workload, seed: u64, tag: &str) -> std::collections::BTreeMap<String, u64> {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{tag}", w.name()));
    let graph = w.graph_at(scale(w));
    let out = replay_counters(w, seed, &graph, &dir, 200).expect("replay succeeds");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn one_seed_gives_identical_exact_counters() {
    for w in Workload::ALL {
        let first = counters(w, 7, "a");
        let second = counters(w, 7, "b");
        assert!(!first.is_empty());
        assert_eq!(first, second, "{}", w.name());
    }
}

#[test]
fn join_count_builds_hash_tables_and_wco_count_does_not() {
    let wco = counters(Workload::WcoCount, 1, "wco");
    let join = counters(Workload::JoinCount, 1, "join");
    assert!(
        wco.iter().all(|(k, &v)| !k.contains("hash") || v == 0),
        "{wco:?}"
    );
    assert!(join["Q2.hash_build_tuples"] > 0, "{join:?}");
}

#[test]
fn serve_mixed_writes_are_logged() {
    let c = counters(Workload::ServeMixed, 3, "wal");
    assert!(c["updates"] > 0 && c["wal_bytes"] > 0, "{c:?}");
}

#[test]
fn another_seed_changes_the_serve_mixed_requests() {
    let texts = |seed| {
        let mut reads = ReadGen::new(seed);
        (0..100).map(|_| reads.next_read().text).collect::<Vec<_>>()
    };
    assert_eq!(texts(1), texts(1));
    assert_ne!(texts(1), texts(2));

    let graph = Workload::ServeMixed.graph_at(0.3);
    let batches = |seed| {
        let mut writes = WriteGen::new(&graph, seed);
        (0..10).map(|_| writes.next_batch()).collect::<Vec<_>>()
    };
    assert_eq!(batches(1), batches(1));
    assert_ne!(batches(1), batches(2));
}

#[test]
fn fresh_reads_never_repeat_and_hot_reads_fit_the_plan_cache() {
    let mut reads = ReadGen::new(5);
    let hot: std::collections::HashSet<String> =
        reads.hot_set().iter().map(|(_, t)| t.clone()).collect();
    assert!(hot.len() < graphflow_rs::core::DEFAULT_PLAN_CACHE_CAPACITY);
    let mut fresh = std::collections::HashSet::new();
    for _ in 0..2000 {
        let read = reads.next_read();
        match read.class {
            "hot" => assert!(hot.contains(&read.text)),
            _ => assert!(!hot.contains(&read.text) && fresh.insert(read.text)),
        }
    }
    assert_eq!(fresh.len(), 100);
}
