//! Runs one workload and prints its metrics, or compares two result sets.
//!
//! ```text
//! polymage-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! polymage-perfbench compare PARENT.jsonl CHANGE.jsonl
//! polymage-perfbench setup NAME
//! ```
//!
//! `setup` is the fresh process an untraced run measures `setup_s` in: it
//! prints the seconds of its fastest cold compile of the workload's
//! programs.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric of `BENCHMARK.json` untraced, every per-layer metric traced; a
//! run whose metrics differ from that list fails. Each run also appends
//! a full record (workload, seed, host block, metrics) to
//! `DIR/results.jsonl` (default `perfbench/out`), which compare mode reads;
//! a traced run writes its chrome trace next to it. A reference mismatch
//! exits with code 1.

use polymage_perfbench::json::Json;
use polymage_perfbench::workload::{self, Workload};
use polymage_perfbench::{compare, host, metrics};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(v).ok_or(format!(
                    "unknown workload `{v}` (one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

fn unit(name: &str) -> &'static str {
    metrics().get(name).map_or("", |m| m.unit.as_str())
}

fn metric_json(name: &str, value: f64) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit(name).into())),
    ])
}

/// Puts the measured metrics in the order `BENCHMARK.json` lists them, or
/// says which ones are missing or not listed there.
fn in_table_order(measured: &[(String, f64)], trace: bool) -> Result<Vec<(String, f64)>, String> {
    let table = metrics().reported(trace);
    let listed = |name: &str| table.iter().any(|m| m.name == name);
    let extra: Vec<&str> = measured
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| !listed(n))
        .collect();
    let missing: Vec<&str> = table
        .iter()
        .map(|m| m.name.as_str())
        .filter(|n| !measured.iter().any(|(name, _)| name == n))
        .collect();
    if !extra.is_empty() || !missing.is_empty() || measured.len() != table.len() {
        return Err(format!(
            "the run's metrics differ from BENCHMARK.json: missing {missing:?}, not listed {extra:?}"
        ));
    }
    Ok(table
        .iter()
        .filter_map(|m| measured.iter().find(|(n, _)| *n == m.name).cloned())
        .collect())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, parent, change] = &argv[..] else {
            eprintln!("usage: compare PARENT.jsonl CHANGE.jsonl");
            return ExitCode::from(2);
        };
        return match (compare::load(parent), compare::load(change)) {
            (Ok(p), Ok(c)) => {
                print!("{}", compare::report(&p, &c));
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    if argv.first().map(String::as_str) == Some("setup") {
        let time = argv
            .get(1)
            .and_then(|name| Workload::parse(name))
            .ok_or_else(|| "usage: setup WORKLOAD".to_string())
            .and_then(workload::setup_in_process);
        return match time {
            Ok(t) => {
                println!("{t}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match workload::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let measured = match in_table_order(&report.metrics, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    for m in &report.mismatches {
        eprintln!("reference mismatch: {m}");
    }
    for e in report.errors.iter().take(20) {
        eprintln!("failed operation: {e}");
    }
    let provenance = host::provenance(args.seed);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value) in &measured {
        println!("  {name:<36} {value:>14.4} {}", unit(name));
    }
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  hi_tail_ms is p{} of {} interactive samples; fail_frac {fail_frac:.6} ({} of {} operations failed)",
        report.hi_tail_pct, report.hi_samples, report.failed, report.attempted
    );
    println!(
        "  host steal: {:.1}% over the {:.1} s measured, {:.1}% over the whole {:.1} s timed phase",
        report.steal_frac * 100.0,
        report.measured_s,
        report.phase_steal_frac * 100.0,
        report.phase_s
    );
    println!("provenance {}", provenance.render());

    let metrics = Json::obj(
        measured
            .iter()
            .map(|(n, v)| (n.clone(), metric_json(n, *v))),
    );
    let result = Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics.clone()),
    ]);
    let record = Json::obj([
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ("host", provenance),
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("fail_frac", Json::Num(fail_frac)),
        ("hi_tail_pct", Json::Num(report.hi_tail_pct)),
        ("hi_samples", Json::Num(report.hi_samples as f64)),
        ("steal_frac", Json::Num(report.steal_frac)),
        ("phase_steal_frac", Json::Num(report.phase_steal_frac)),
        ("measured_s", Json::Num(report.measured_s)),
        ("phase_s", Json::Num(report.phase_s)),
        ("metrics", metrics),
    ]);
    if let Err(e) = save(&args, &record, report.trace_json.as_deref()) {
        eprintln!("warning: could not save the result record: {e}");
    }
    println!("{}", result.render());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: outputs do not match the reference");
        ExitCode::FAILURE
    }
}

fn save(args: &Args, record: &Json, trace: Option<&str>) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.out.join("results.jsonl"))?;
    f.write_all(format!("{}\n", record.render()).as_bytes())?;
    f.flush()?;
    if let Some(t) = trace {
        let name = format!("trace-{}-{}.json", args.workload.name(), args.seed);
        std::fs::write(args.out.join(name), t)?;
    }
    Ok(())
}
