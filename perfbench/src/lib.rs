//! `perfbench` — the repository benchmark.
//!
//! One run starts the shipped `graphflow-serve` binary as a child process on loopback, loads it
//! from this process with a keep-alive HTTP client, checks every response, and prints one JSON
//! result line. See `README.md` in this directory for the workloads and the metrics.

pub mod client;
pub mod inproc;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
