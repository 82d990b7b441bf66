//! The repository benchmark: three wire-level `tdf-serve` workloads
//! (`driver`), the arithmetic they are reported with (`stats`), and the
//! result format (`report`). `bin/e2e.rs` prints the end-to-end metrics;
//! `bin/layers.rs` is the traced run that prints the per-layer ones.

pub mod driver;
pub mod report;
pub mod stats;

/// The command line every benchmark binary takes:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: driver::Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    driver::Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Sets the workload's environment knobs. Call before any thread starts:
/// the program reads them once, at first use.
pub fn set_knobs(workload: driver::Workload) {
    for (k, v) in workload.env_knobs() {
        std::env::set_var(k, v);
    }
}

/// Writes `text` to `name` under `PERFBENCH_OUT`, when it is set.
pub fn write_artifact(name: &str, text: &str) -> std::io::Result<Option<std::path::PathBuf>> {
    let Ok(dir) = std::env::var("PERFBENCH_OUT") else {
        return Ok(None);
    };
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, text)?;
    Ok(Some(path))
}
