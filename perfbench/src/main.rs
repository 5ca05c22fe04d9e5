//! `perfbench` — the repository's benchmark: the advisor's serving path and its
//! operator path, timed end to end from a client and per layer from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists and which layer
//! metric should move which end-to-end metric):
//!
//! * `stream-mixed` — one long-lived loopback connection to a single-pack server:
//!   a closed loop (one request outstanding) then a pipelined window;
//! * `pack-build` — in process: calibrate → per-cell pack build → encode → decode.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the layer
//! measurements with spans and allocation counting and prints the per-layer
//! metrics.  The last stdout line is always one JSON object
//! `{"correct","attempted","failed","metrics"}`; the line before it records the
//! host, toolchain, commit and the run's correctness details.

#[global_allocator]
static ALLOC: tcp_obs::profile::CountingAlloc = tcp_obs::profile::CountingAlloc::new();

mod client;
mod gen;
mod layers;
mod pack_bench;
mod serve_bench;
mod spans;
mod stats;
mod tally;

use std::collections::BTreeMap;
use std::process::ExitCode;
use tally::Tally;

/// The seed whose outputs are pinned by the committed digests.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics (`--trace 0`), with units, printed for every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units, printed for every workload; a
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.parse.ns_per_op", "ns"),
    ("wire.parse.allocs_per_op", "count"),
    ("wire.render.ns_per_op", "ns"),
    ("wire.render.bytes_per_op", "B"),
    ("wire.render.allocs_per_op", "count"),
    ("wire.error.ns_per_op", "ns"),
    ("advisor.lookup.should-reuse.ns_per_op", "ns"),
    ("advisor.lookup.checkpoint-plan.ns_per_op", "ns"),
    ("advisor.lookup.expected-cost-makespan.ns_per_op", "ns"),
    ("advisor.lookup.best-policy.ns_per_op", "ns"),
    ("advisor.route.ns_per_op", "ns"),
    ("session.process.ns_per_line.batch1", "ns"),
    ("session.process.ns_per_line.batchmax", "ns"),
    ("session.process.allocs_per_line", "count"),
    ("serve.overhead_us", "us"),
    ("serve.allocs_per_req", "count"),
    ("serve.connect_us", "us"),
    ("serve.shed_ratio", "ratio"),
    ("serve.pipelined_qps", "1/s"),
    ("serve.rtt_p99_us", "us"),
    ("serve.session_p99_us", "us"),
    ("pack.build.cell.exponential_s", "s"),
    ("pack.build.cell.weibull_s", "s"),
    ("pack.build.cell.phased_s", "s"),
    ("pack.build.cell.bathtub_s", "s"),
    ("pack.build.cell.empirical_s", "s"),
    ("pack.build.pooled_s", "s"),
    ("pack.encode_ms", "ms"),
    ("pack.bytes", "B"),
    ("pack.decode_ms", "ms"),
    ("calibrate.fit_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one workload run produced.
#[derive(Default)]
pub struct Run {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Failed gates that are not per-line outcomes (digests, byte identity).
    pub errors: Vec<String>,
    /// Extra `"key": value` JSON fields for the record line.
    pub info: Vec<(String, String)>,
}

impl Run {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }
}

/// FNV-1a 64 over reply streams and pack bytes, for the committed digests.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn line(&mut self, line: &[u8]) {
        self.bytes(line);
        self.bytes(b"\n");
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// CPUs the process may run on when it starts, read once: the serving workload
/// later pins itself to one of them, which `available_parallelism` would see.
pub fn host_cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Process peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` jiffies of all CPUs from `/proc/stat`: the share
/// of time the hypervisor ran something else, recorded with every result.
fn cpu_steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

/// The commit of the checkout, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"\"".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload stream-mixed|pack-build \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    host_cpus();
    let steal_before = cpu_steal_jiffies();
    let outcome = match args.workload.as_str() {
        "stream-mixed" => serve_bench::stream_mixed(args.seed, args.seconds, args.trace),
        "pack-build" => pack_bench::pack_build(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut run = match outcome {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steal_after = cpu_steal_jiffies();
    let total = steal_after.1.saturating_sub(steal_before.1).max(1);
    run.info(
        "cpu_steal_pct",
        steal_after.0.saturating_sub(steal_before.0) as f64 * 100.0 / total as f64,
    );
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in declared {
        match run.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => run.errors.push(format!("metric {name} is not finite: {v}")),
            None if args.trace => {
                run.metrics.insert(name, 0.0);
            }
            None => run.errors.push(format!("metric {name} was not measured")),
        }
    }
    // A failed whole-run gate (digest, byte identity) counts as one failed check.
    for e in &run.errors {
        eprintln!("perfbench: correctness gate failed: {e}");
        run.tally.record(tally::Outcome::Mismatch);
    }
    let (attempted, failed) = (run.tally.attempted.max(1), run.tally.failed);
    let correct = failed == 0;

    let mut record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"rustc\":{},\"commit\":{},\"failed_ratio\":{},\"expected_errors\":{},\"missing\":{},\"mismatched\":{},\"overloaded\":{},\"refused\":{},\"gate_errors\":{}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cpus(),
        json_str(&rustc_version()),
        json_str(&git_commit()),
        run.tally.failed_ratio(),
        run.tally.expected_errors,
        run.tally.missing,
        run.tally.mismatched,
        run.tally.overloaded,
        run.tally.refused,
        run.errors.len(),
    );
    for (key, value) in &run.info {
        record.push_str(&format!(",{}:{value}", json_str(key)));
    }
    record.push('}');
    println!("{record}");

    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                run.metrics[name],
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists printed here and the ones declared in BENCHMARK.json
    /// must agree name for name and unit for unit.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let doc = serde_json::parse_value(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_seq())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.value(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.value(), 0xaf63_dc4c_8601_ec8c);
    }
}
