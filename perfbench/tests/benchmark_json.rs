//! `BENCHMARK.json` names exactly the metrics a run prints, with the same units.

use graphflow_rs::core::json::Json;
use perfbench::metrics::{per_layer_metrics, END_TO_END};
use perfbench::workload::Workload;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn listed(key: &str) -> Vec<(String, String)> {
    manifest()
        .get(key)
        .and_then(Json::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn end_to_end_metrics_match() {
    let printed: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), printed);
}

#[test]
fn per_layer_metrics_match() {
    let printed: Vec<(String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), printed);
}

#[test]
fn workloads_match() {
    let names: Vec<String> = manifest()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("a workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let known: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, known);
}
