//! End-to-end and per-layer benchmark of PolyMage-rs.
//!
//! One binary runs a named workload through the public APIs
//! (`polymage_core::{plan, instantiate, Session}`,
//! `polymage_vm::{Engine, RunRequest, RunHandle}`,
//! `polymage_apps::Benchmark`), checks every output, and prints each
//! metric by name with its unit. `BENCHMARK.json` at the repository root
//! is the single source of the metric names, units, directions and bounds;
//! it is compiled in, and a run that does not print exactly the metrics it
//! names fails. See `README.md` for why each workload exists and which
//! end-to-end metric each per-layer metric should move.

pub mod apps;
pub mod compare;
pub mod heap;
pub mod host;
pub mod json;
pub mod stats;
pub mod steal;
pub mod watchdog;
pub mod workload;

use json::Json;
use std::sync::OnceLock;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, hit ratios).
    Higher,
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The metric tables of `BENCHMARK.json`.
#[derive(Debug)]
pub struct Metrics {
    /// End-to-end metrics, reported by untraced runs.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics, reported by traced runs, in report order.
    pub per_layer: Vec<MetricDef>,
}

impl Metrics {
    /// Reads the metric tables from the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Metrics, String> {
        let doc = Json::parse(text)?;
        let table = |key: &str| -> Result<Vec<MetricDef>, String> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                return Err(format!("`{key}` is not an array"));
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or(format!("a `{key}` entry has no string `{f}`"))
                    };
                    let better = match field("better")? {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        b => return Err(format!("`better` is `{b}`")),
                    };
                    Ok(MetricDef {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        better,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Metrics {
            end_to_end: table("end_to_end")?,
            per_layer: table("per_layer")?,
        })
    }

    /// The metrics a run prints: per-layer when traced, else end-to-end.
    pub fn reported(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks any metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The metric tables of the repository's `BENCHMARK.json`.
pub fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        Metrics::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid")
    })
}
