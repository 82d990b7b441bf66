//! Metric records, the host stamp, and the one-line JSON result.

use crate::driver::{Op, RunOutcome, Workload};
use crate::stats::{median, summarize, TAIL_Q};
use std::fmt::Write as _;

/// One reported metric; `n` is the sample count behind a percentile or
/// median, when there is one.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: Option<usize>) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Metrics with their sample counts, one per line, for the log.
pub fn metric_table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
        let _ = writeln!(out, "  {:<34} {:>14.6} {}{n}", m.name, m.value, m.unit);
    }
    out
}

/// Provenance of a result: source identity, host, toolchain, workload
/// seed and every knob the run set. `PERFBENCH_COMMIT`,
/// `PERFBENCH_RUSTC` and `PERFBENCH_TMP_FS` come from `run.py`.
pub fn host_stamp(workload: Workload, seed: u64, trace: bool) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut knobs: Vec<String> = [
        "TDF_SEGCACHE",
        "TDF_THREADS",
        "TDF_CORES",
        "TDF_OBS",
        "TDF_COMPACT_MIN",
        "TMPDIR",
    ]
    .iter()
    .map(|k| format!("{}: {}", json_str(k), json_str(&env(k))))
    .collect();
    let cfg = workload.server_config();
    knobs.push(format!("\"compact_min\": {}", cfg.compact_min));
    knobs.push(format!("\"rows\": {}", cfg.rows));
    knobs.push(format!("\"pir_records\": {}", cfg.pir_records));
    knobs.push(format!("\"pir_record_size\": {}", cfg.pir_record_size));
    knobs.push(format!(
        "\"pir_batch_window_ms\": {}",
        cfg.pir_batch_window_ms
    ));
    knobs.push(format!("\"pir_batch_max\": {}", cfg.pir_batch_max));
    knobs.push(format!("\"server_seed\": {}", cfg.seed));
    format!(
        "{{\"commit\": {}, \"source_digest\": {}, \"rustc\": {}, \"nproc\": {nproc}, \"measured_cores\": {}, \"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"journal_fs\": {}, \"knobs\": {{{}}}}}",
        json_str(&env("PERFBENCH_COMMIT")),
        json_str(&env("PERFBENCH_SOURCE_DIGEST")),
        json_str(&env("PERFBENCH_RUSTC")),
        par::measured_cores(),
        json_str(workload.name()),
        json_str(&env("PERFBENCH_TMP_FS")),
        knobs.join(", ")
    )
}

/// Ticks of CPU time the hypervisor stole from this machine, and all
/// ticks, since boot (`/proc/stat`). A run that lost a large share of its
/// CPU time measured the host as much as the program.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Op classes whose latencies are end-to-end metrics. The unsubscribe
/// round trip is two fsyncs deep: over ten identical runs on a shared
/// disk its p50 spread up to 0.23 and its tail 0.41 of their medians,
/// against a largest allowed bound of 0.25, so `e2e` logs it ungated.
pub const GATED_OPS: [Op; 3] = [Op::Query, Op::Pir, Op::Ingest];

/// Gated op classes whose tail and rate are end-to-end metrics too. The
/// ingest round trip is a chain of short calls from one connection, and
/// its windowed p90 rose with the share of CPU time the host stole: in
/// one ten-run set it read 0.46–0.50 ms at under 1 % steal and
/// 0.52–0.64 ms at 5–15 %, a spread of 0.24 of its median. Its median
/// stayed within 0.06, so only the median is gated; `e2e` logs the tail.
pub const TAILED_OPS: [Op; 2] = [Op::Query, Op::Pir];

/// The end-to-end metrics of one socket run, or the name of the first
/// one the run cannot support.
pub fn end_to_end(out: &RunOutcome) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();
    let setup = median(&out.setup_s).ok_or("setup_s: no server start")?;
    metrics.push(Metric::new("setup_s", setup, "s", Some(out.setup_s.len())));
    for op in GATED_OPS {
        let samples = out
            .ops
            .get(&op)
            .ok_or_else(|| format!("{}: no samples", op.name()))?;
        let s = summarize(&samples.latencies_ms);
        let p50 = s
            .p50
            .ok_or_else(|| format!("{}_p50_ms: n={}", op.name(), s.n))?;
        metrics.push(Metric::new(
            format!("{}_p50_ms", op.name()),
            p50,
            "ms",
            Some(s.n),
        ));
        if TAILED_OPS.contains(&op) {
            let tail_name = format!("{}_p{}_ms", op.name(), (TAIL_Q * 100.0).round());
            let tail = s.tail.ok_or_else(|| format!("{tail_name}: n={}", s.n))?;
            metrics.push(Metric::new(tail_name, tail, "ms", Some(s.n)));
            let rps = s.n as f64 / samples.elapsed_s;
            metrics.push(Metric::new(
                format!("{}_rps", op.name()),
                rps,
                "1/s",
                Some(s.n),
            ));
        }
    }
    let rss = out
        .peak_rss_mib
        .ok_or("peak_rss_mib: /proc/self/status has no VmHWM")?;
    metrics.push(Metric::new("peak_rss_mib", rss, "MiB", None));
    Ok(metrics)
}
