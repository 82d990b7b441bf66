//! Untraced end-to-end run: prints every end-to-end metric by name and
//! unit, then the one-line JSON result. Exits 1 on any failed check.

use perfbench::report::{cpu_steal_ticks, end_to_end, host_stamp, metric_table, result_line};
use perfbench::stats::{window_percentiles, TAIL_Q};
use perfbench::{driver, parse_args, set_knobs, write_artifact};

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    };
    set_knobs(args.workload);
    let stamp = host_stamp(args.workload, args.seed, false);
    println!("host: {stamp}");
    let ticks_before = cpu_steal_ticks();
    let out = driver::run(args.workload, args.seed, args.seconds, None);
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_steal_ticks()) {
        let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("  host steal   {share:.1} % of CPU time during the run");
    }
    for (op, samples) in &out.ops {
        let windows: Vec<String> = window_percentiles(&samples.latencies_ms, TAIL_Q)
            .iter()
            .map(|p| format!("{p:.3}"))
            .collect();
        println!(
            "  {:<12} n={:<6} over {:.2} s; median {:.4} ms; tail per window (ms): {}",
            op.name(),
            samples.latencies_ms.len(),
            samples.elapsed_s,
            perfbench::stats::median(&samples.latencies_ms).unwrap_or(f64::NAN),
            windows.join(" ")
        );
    }
    let metrics = end_to_end(&out);
    let mut failed = out.failed;
    for f in &out.failures {
        eprintln!("FAILED CHECK: {f}");
    }
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("FAILED: metric not supported by the run: {e}");
            failed += 1;
            Vec::new()
        }
    };
    println!(
        "{} seed={} attempted={} failed={failed}",
        args.workload.name(),
        args.seed,
        out.attempted
    );
    print!("{}", metric_table(&metrics));
    let line = result_line(failed == 0, out.attempted.max(1), failed, &metrics);
    let artifact = format!("{{\"host\": {stamp}, \"result\": {line}}}\n");
    let name = format!("e2e-{}-{}.json", args.workload.name(), args.seed);
    if let Err(e) = write_artifact(&name, &artifact) {
        eprintln!("e2e: could not write {name}: {e}");
    }
    println!("{line}");
    if failed > 0 {
        std::process::exit(1);
    }
}
