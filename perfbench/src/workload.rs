//! The three workloads: their datasets, request mixes and seeded request generators.
//!
//! The seed drives only what the server is sent — request order, query labels and write
//! batches. The datasets are the repository's fixed-seed generator profiles.

use graphflow_rs::core::json::quote;
use graphflow_rs::datasets::Dataset;
use graphflow_rs::graph::{EdgeLabel, Graph, Update};
use graphflow_rs::query::patterns::{benchmark_query, label_query_vertices_randomly};
use graphflow_rs::query::QueryGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Executor threads a `wco_count` query asks for: `nproc` of the reference machine.
pub const NPROC: usize = 2;
/// Dataset scale of the LiveJournal-like graph of `wco_count` and `join_count`.
pub const LJ_SCALE: f64 = 0.1;
/// Dataset scale of the labelled Human-like graph of `serve_mixed`.
pub const HUMAN_SCALE: f64 = 1.0;
/// Vertex labels of the Human-like profile; query labels are drawn from the same range.
pub const HUMAN_LABELS: u16 = 44;
/// Distinct hot read texts of `serve_mixed`: an eighth of the server's 128-entry plan cache.
pub const HOT_SET: usize = 16;
/// Every `FRESH_EVERY`-th read of `serve_mixed` is a text never sent before (5%).
pub const FRESH_EVERY: usize = 20;
/// Open-loop read rate of `serve_mixed`, requests per second.
pub const READ_RATE: f64 = 100.0;
/// Open-loop write rate of `serve_mixed`, transactions per second.
pub const WRITE_RATE: f64 = 25.6;
/// Edge inserts, then edge deletes, in one `serve_mixed` write transaction.
pub const INSERTS_PER_TXN: usize = 4;
pub const DELETES_PER_TXN: usize = 4;

/// Class names of the benchmark queries, `QNAMES[j]` for `Qj`.
pub const QNAMES: [&str; 14] = [
    "Q0", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12", "Q13",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WcoCount,
    JoinCount,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WcoCount,
        Workload::JoinCount,
        Workload::ServeMixed,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WcoCount => "wco_count",
            Workload::JoinCount => "join_count",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn is_analytic(self) -> bool {
        self != Workload::ServeMixed
    }

    pub fn scale(self) -> f64 {
        match self {
            Workload::ServeMixed => HUMAN_SCALE,
            _ => LJ_SCALE,
        }
    }

    /// The workload's graph at `scale`.
    pub fn graph_at(self, scale: f64) -> Arc<Graph> {
        match self {
            Workload::ServeMixed => Dataset::Human.generate(scale),
            _ => Dataset::LiveJournal.generate(scale),
        }
    }

    /// Analytic kinds as `(j, repeats per pass)`. The repeats give each kind a roughly equal
    /// share of a pass's time at the reference scale (in-process `RETURN COUNT(*)` times at
    /// 2 threads: Q1 3.3 ms, Q3 4.5, Q5 4.0, Q6 29, Q7 170; at 1 thread: Q2 950 ms, Q4 55).
    pub fn kinds(self) -> &'static [(usize, usize)] {
        match self {
            Workload::WcoCount => &[(1, 52), (3, 38), (5, 42), (6, 6), (7, 1)],
            Workload::JoinCount => &[(2, 1), (4, 17)],
            Workload::ServeMixed => &[],
        }
    }

    /// The `"threads"` each query of the workload asks for.
    pub fn threads(self) -> usize {
        match self {
            Workload::WcoCount => NPROC,
            _ => 1,
        }
    }
}

/// The wire text of an analytic or labelled query.
pub fn count_text(q: &QueryGraph) -> String {
    format!("{q} RETURN COUNT(*)")
}

pub fn analytic_text(j: usize) -> String {
    count_text(&benchmark_query(j))
}

/// The `POST /query` body.
pub fn query_body(text: &str, threads: usize) -> String {
    format!("{{\"query\":{},\"threads\":{threads}}}", quote(text))
}

fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// The shuffled request order (query numbers) of pass `pass` of an analytic workload.
pub fn pass_order(w: Workload, seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = w
        .kinds()
        .iter()
        .flat_map(|&(j, reps)| std::iter::repeat_n(j, reps))
        .collect();
    order.shuffle(&mut rng(seed, 0x1000 + pass));
    order
}

/// One `serve_mixed` read.
#[derive(Debug, Clone, PartialEq)]
pub struct Read {
    /// `hot` or `fresh`.
    pub class: &'static str,
    /// Benchmark query number of the pattern.
    pub shape: usize,
    pub text: String,
}

/// The `serve_mixed` read stream: a hot set of `HOT_SET` labelled variants of Q1–Q13, with
/// every `FRESH_EVERY`-th read a labelled variant whose text was never sent before.
pub struct ReadGen {
    hot: Vec<(usize, String)>,
    rng: StdRng,
    sent: HashSet<String>,
    next: usize,
}

impl ReadGen {
    pub fn new(seed: u64) -> ReadGen {
        let mut gen = ReadGen {
            hot: Vec::with_capacity(HOT_SET),
            rng: rng(seed, 1),
            sent: HashSet::new(),
            next: 0,
        };
        while gen.hot.len() < HOT_SET {
            let j = 1 + gen.hot.len() % 13;
            let text = gen.new_text(j);
            gen.hot.push((j, text));
        }
        gen
    }

    /// A labelled variant of `Qj` whose text differs from every text made so far.
    fn new_text(&mut self, j: usize) -> String {
        loop {
            let label_seed = self.rng.next_u64();
            let q = label_query_vertices_randomly(&benchmark_query(j), HUMAN_LABELS, label_seed);
            let text = count_text(&q);
            if self.sent.insert(text.clone()) {
                return text;
            }
        }
    }

    pub fn hot_set(&self) -> &[(usize, String)] {
        &self.hot
    }

    pub fn next_read(&mut self) -> Read {
        self.next += 1;
        if self.next.is_multiple_of(FRESH_EVERY) {
            // Fresh shapes cycle through Q1..Q13, so every seed sends the same shape mix.
            let shape = 1 + (self.next / FRESH_EVERY - 1) % 13;
            let text = self.new_text(shape);
            return Read {
                class: "fresh",
                shape,
                text,
            };
        }
        let (shape, text) = self.hot[self.rng.gen_range(0..self.hot.len())].clone();
        Read {
            class: "hot",
            shape,
            text,
        }
    }
}

/// One edge update of a write batch (edge label 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    Insert(u32, u32),
    Delete(u32, u32),
}

/// The `serve_mixed` write stream. It keeps a model of the graph's edge set, so every insert
/// adds a missing edge and every delete removes a present one: no update is a no-op, and the
/// model is what a durable server must hold after the acknowledged batches.
pub struct WriteGen {
    rng: StdRng,
    vertices: u32,
    edges: Vec<(u32, u32)>,
    position: HashMap<(u32, u32), usize>,
    /// Every edge any batch touched, in order (sampled by the durability check).
    pub touched: Vec<(u32, u32)>,
}

impl WriteGen {
    pub fn new(graph: &Graph, seed: u64) -> WriteGen {
        let edges: Vec<(u32, u32)> = graph
            .edges()
            .iter()
            .filter(|e| e.2 == EdgeLabel(0))
            .map(|e| (e.0, e.1))
            .collect();
        let position = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        WriteGen {
            rng: rng(seed, 2),
            vertices: graph.num_vertices() as u32,
            edges,
            position,
            touched: Vec::new(),
        }
    }

    pub fn contains(&self, edge: (u32, u32)) -> bool {
        self.position.contains_key(&edge)
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The next batch; the model already reflects it.
    pub fn next_batch(&mut self) -> Vec<EdgeOp> {
        let mut batch = Vec::with_capacity(INSERTS_PER_TXN + DELETES_PER_TXN);
        while batch.len() < INSERTS_PER_TXN {
            let e = (
                self.rng.gen_range(0..self.vertices),
                self.rng.gen_range(0..self.vertices),
            );
            if e.0 != e.1 && !self.contains(e) {
                self.position.insert(e, self.edges.len());
                self.edges.push(e);
                self.touched.push(e);
                batch.push(EdgeOp::Insert(e.0, e.1));
            }
        }
        for _ in 0..DELETES_PER_TXN {
            let i = self.rng.gen_range(0..self.edges.len());
            let e = self.edges.swap_remove(i);
            self.position.remove(&e);
            if let Some(&moved) = self.edges.get(i) {
                self.position.insert(moved, i);
            }
            self.touched.push(e);
            batch.push(EdgeOp::Delete(e.0, e.1));
        }
        batch
    }
}

/// The `POST /txn` body of a batch.
pub fn txn_body(batch: &[EdgeOp]) -> String {
    let ops: Vec<String> = batch
        .iter()
        .map(|op| match *op {
            EdgeOp::Insert(s, d) => format!("{{\"op\":\"insert_edge\",\"src\":{s},\"dst\":{d}}}"),
            EdgeOp::Delete(s, d) => format!("{{\"op\":\"delete_edge\",\"src\":{s},\"dst\":{d}}}"),
        })
        .collect();
    format!("{{\"updates\":[{}]}}", ops.join(","))
}

/// The same batch as in-process updates.
pub fn updates(batch: &[EdgeOp]) -> Vec<Update> {
    batch
        .iter()
        .map(|op| match *op {
            EdgeOp::Insert(src, dst) => Update::InsertEdge {
                src,
                dst,
                label: EdgeLabel(0),
            },
            EdgeOp::Delete(src, dst) => Update::DeleteEdge {
                src,
                dst,
                label: EdgeLabel(0),
            },
        })
        .collect()
}
