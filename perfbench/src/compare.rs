//! Compare mode: two sets of results (the parent's and a change's), one
//! row per workload and metric, with a verdict by the rule of
//! choosing-metrics §8: at least ten pairs, the change winning at least
//! nine in ten of them (ties count for neither side), and medians further
//! apart than the parent's own interquartile spread.

use crate::host::HOST_KEYS;
use crate::json::Json;
use crate::stats::quartiles;
use crate::{metrics, Better};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fewest pairs a verdict may rest on.
pub const MIN_PAIRS: usize = 10;

/// Percentage points of median host steal between the two sides beyond
/// which the report warns that the host, not the code, may differ.
const STEAL_GAP: f64 = 5.0;

/// One result record, as appended to the results file by each run.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Whether this was a traced run.
    pub trace: bool,
    /// The provenance block.
    pub host: Json,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Host steal share over the measured time of the timed phase.
    pub steal_frac: f64,
}

impl Record {
    /// Reads a record from its JSON form.
    pub fn from_json(v: &Json) -> Result<Record, String> {
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without `workload`")?
            .to_string();
        let trace = v.get("trace").and_then(Json::as_f64).unwrap_or(0.0) != 0.0;
        let host = v.get("host").cloned().unwrap_or(Json::Null);
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(m)) = v.get("metrics") {
            for (k, mv) in m {
                if let Some(x) = mv.get("value").and_then(Json::as_f64) {
                    metrics.insert(k.clone(), x);
                }
            }
        }
        Ok(Record {
            workload,
            trace,
            host,
            metrics,
            steal_frac: v.get("steal_frac").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }
}

/// Reads every record of a results file (one JSON object per line).
pub fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            Json::parse(l)
                .and_then(|v| Record::from_json(&v))
                .map_err(|e| format!("{path}:{}: {e}", i + 1))
        })
        .collect()
}

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by the rule.
    Better,
    /// The parent is better by the same rule, mirrored.
    Worse,
    /// Neither side wins by the rule.
    Unresolved,
}

/// Applies the rule to paired values (`parent[i]` was measured next to
/// `change[i]`). Returns the verdict, the change's wins and the pairs used.
pub fn verdict(parent: &[f64], change: &[f64], better: Better) -> (Verdict, usize, usize) {
    let n = parent.len().min(change.len());
    let beats = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let wins = (0..n).filter(|&i| beats(change[i], parent[i])).count();
    let losses = (0..n).filter(|&i| beats(parent[i], change[i])).count();
    let (Some((p1, pm, p3)), Some((_, cm, _))) = (quartiles(&parent[..n]), quartiles(&change[..n]))
    else {
        return (Verdict::Unresolved, wins, n);
    };
    let apart = (cm - pm).abs() > p3 - p1;
    let v = if n < MIN_PAIRS || !apart {
        Verdict::Unresolved
    } else if wins * 10 >= 9 * n && beats(cm, pm) {
        Verdict::Better
    } else if losses * 10 >= 9 * n && beats(pm, cm) {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    };
    (v, wins, n)
}

/// Host fields that differ between the two sets (or within one).
fn host_differences(parent: &[Record], change: &[Record]) -> Vec<String> {
    let mut diffs = Vec::new();
    let all: Vec<&Record> = parent.iter().chain(change).collect();
    let Some(first) = all.first() else {
        return diffs;
    };
    for key in HOST_KEYS {
        let want = first.host.get(key);
        if let Some(other) = all.iter().find(|r| r.host.get(key) != want) {
            diffs.push(format!(
                "{key}: {} vs {}",
                want.map_or("-".into(), Json::render),
                other.host.get(key).map_or("-".into(), Json::render)
            ));
        }
    }
    diffs
}

/// The comparison table, one row per workload and metric, untraced runs
/// only (end-to-end metrics are measured with tracing off).
pub fn report(parent: &[Record], change: &[Record]) -> String {
    let mut out = String::new();
    let diffs = host_differences(parent, change);
    if !diffs.is_empty() {
        let _ = writeln!(
            out,
            "HOST MISMATCH — results come from different hosts; no verdicts: {}",
            diffs.join("; ")
        );
    }
    let _ = writeln!(
        out,
        "{:<13} {:<18} {:>30} {:>30} {:>6} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "wins",
        "delta",
        "bound"
    );
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for w in workloads {
        let side = |rs: &[Record]| -> Vec<Record> {
            rs.iter()
                .filter(|r| r.workload == w && !r.trace)
                .cloned()
                .collect()
        };
        let (p, c) = (side(parent), side(change));
        let steal = |rs: &[Record]| {
            let v: Vec<f64> = rs.iter().map(|r| r.steal_frac * 100.0).collect();
            crate::stats::median(&v).unwrap_or(0.0)
        };
        let (ps, cs) = (steal(&p), steal(&c));
        let _ = writeln!(
            out,
            "{w:<13} host steal over the measured time, median: parent {ps:.1}%, change {cs:.1}%{}",
            if (ps - cs).abs() > STEAL_GAP {
                " — the host was busier on one side; time verdicts may reflect it"
            } else {
                ""
            }
        );
        let mut names: Vec<&String> = p.iter().flat_map(|r| r.metrics.keys()).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let pv: Vec<f64> = p
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let cv: Vec<f64> = c
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let Some(def) = metrics().get(name) else {
                continue;
            };
            let (v, wins, n) = verdict(&pv, &cv, def.better);
            let v = if diffs.is_empty() {
                v
            } else {
                Verdict::Unresolved
            };
            let fmt_q = |vals: &[f64]| match quartiles(vals) {
                Some((q1, m, q3)) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
                None => "-".into(),
            };
            let delta = match (quartiles(&pv), quartiles(&cv)) {
                (Some((_, pm, _)), Some((_, cm, _))) if pm != 0.0 => {
                    format!("{:+.1}%", (cm - pm) / pm.abs() * 100.0)
                }
                _ => "-".into(),
            };
            let bound = def
                .bound
                .map_or("-".into(), |b| format!("{:.0}%", b * 100.0));
            let _ = writeln!(
                out,
                "{w:<13} {name:<18} {:>30} {:>30} {:>6} {delta:>8} {bound:>7}  {}",
                fmt_q(&pv),
                fmt_q(&cv),
                format!("{wins}/{n}"),
                match v {
                    Verdict::Better => "better",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i % 5)).collect()
    }

    #[test]
    fn clear_gain_is_better_and_mirror_is_worse() {
        let parent = series(100.0, 1.0); // 100..104, IQR ~3
        let change = series(90.0, 1.0);
        assert_eq!(verdict(&parent, &change, Better::Lower).0, Verdict::Better);
        assert_eq!(verdict(&change, &parent, Better::Lower).0, Verdict::Worse);
        assert_eq!(verdict(&parent, &change, Better::Higher).0, Verdict::Worse);
    }

    #[test]
    fn overlap_or_too_few_pairs_is_unresolved() {
        let parent = series(100.0, 4.0); // IQR ~ 12
        let change = series(95.0, 4.0); // median 5 lower: within the IQR
        assert_eq!(
            verdict(&parent, &change, Better::Lower).0,
            Verdict::Unresolved
        );
        let few = verdict(&parent[..9], &series(50.0, 1.0)[..9], Better::Lower);
        assert_eq!(few.0, Verdict::Unresolved);
        // Ties count for neither side.
        let same = verdict(&parent, &parent, Better::Lower);
        assert_eq!((same.0, same.1), (Verdict::Unresolved, 0));
    }

    #[test]
    fn different_hosts_are_flagged() {
        let rec = |nproc: f64, v: f64| Record {
            workload: "frames_small".into(),
            trace: false,
            host: Json::obj([("nproc", Json::Num(nproc))]),
            metrics: [("unsharp_ms".to_string(), v)].into_iter().collect(),
            steal_frac: 0.0,
        };
        let parent: Vec<Record> = (0..10).map(|i| rec(2.0, 100.0 + f64::from(i))).collect();
        let change: Vec<Record> = (0..10).map(|i| rec(4.0, 50.0 + f64::from(i))).collect();
        let text = report(&parent, &change);
        assert!(text.starts_with("HOST MISMATCH"), "{text}");
        assert!(text.contains("unresolved"), "{text}");
        let same: Vec<Record> = (0..10).map(|i| rec(2.0, 50.0 + f64::from(i))).collect();
        let text = report(&parent, &same);
        assert!(!text.contains("HOST MISMATCH"), "{text}");
        assert!(text.contains("better"), "{text}");
    }
}
