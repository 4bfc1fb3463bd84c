//! Host and provenance block attached to every result, so results from
//! different machines are never compared silently.

use crate::json::Json;
use polymage_core::CacheModel;

/// Fields that identify the machine. Compare mode flags two result sets
/// whose host blocks differ in any of these.
pub const HOST_KEYS: [&str; 4] = ["nproc", "cpu", "cache", "simd"];

/// Describes the host, the source revision and the toolchain.
pub fn provenance(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cache = CacheModel::detect();
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu_model())),
        (
            "cache",
            Json::Str(format!(
                "l1={} l2={} line={}",
                cache.l1, cache.l2, cache.line
            )),
        ),
        ("simd", Json::Str(polymage_vm::detect_simd().to_string())),
        (
            "git",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("seed", Json::Num(seed as f64)),
    ])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, or `unknown` (for example
/// in a source tree that is not a git checkout).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}
