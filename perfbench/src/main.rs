//! `perfbench`: the end-to-end and per-layer benchmark of the served
//! robust sampler.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--corrupt-oracle]
//! ```
//!
//! Spawns the repository's `cluster_node` server(s) as separate
//! processes, drives one workload against them from this process (at most
//! two threads and two connections), checks every answer against an
//! offline reference, and prints one JSON result as the last line of
//! stdout. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! the same load with client spans on, replays its inputs in-process
//! through the server-side layers, and reports the per-layer metrics.
//! `--corrupt-oracle` drops the first element from the offline
//! references' input, so the reference checks must fail and the command
//! must exit nonzero. See `README.md`.

mod bench;
mod inputs;
mod layers;
mod node;
mod openloop;
mod pin;
mod stats;
mod steal;
mod trace;

use bench::Metric;
use std::io::Write;
use std::path::Path;

/// Where run history and span files go, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_oracle: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-oracle" {
            args.corrupt_oracle = true;
            continue;
        }
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("a duration in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if bench::spec(&args.workload).is_none() {
        let names: Vec<&str> = bench::SPECS.iter().map(|s| s.name).collect();
        return Err(format!(
            "--workload must be one of {names:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Machine and build stamp: a result is only comparable with results of
/// the same stamp.
fn stamp() -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = pin::cpus();
    format!(
        "nproc={nproc}; cpu={cpu}; kernel={}; rustc={}; profile={}; features=none (no count-alloc); pinning={}",
        read("/proc/sys/kernel/osrelease").trim(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        pin::describe(),
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Append this result to the run history and warn when the previous
/// result for the same workload was taken under a different stamp.
fn record_history(workload: &str, seed: u64, trace: bool, stamp: &str, metrics: &str) {
    let path = Path::new(OUT_DIR).join("history.jsonl");
    let key = format!(
        "\"workload\": \"{workload}\", \"trace\": {}",
        u8::from(trace)
    );
    let stamp_field = format!("\"stamp\": \"{}\"", stamp.replace('"', "'"));
    if let Ok(old) = std::fs::read_to_string(&path) {
        if let Some(prev) = old.lines().rev().find(|l| l.contains(&key)) {
            if !prev.contains(&stamp_field) {
                println!(
                    "WARNING: the previous {workload} result in {} has a different machine/build stamp; do not compare them",
                    path.display()
                );
            }
        }
    }
    let line = format!("{{{key}, \"seed\": {seed}, {stamp_field}, \"metrics\": {metrics}}}\n");
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|_| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(line.as_bytes())
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not append to {}: {e}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = bench::spec(&args.workload).expect("validated workload");
    pin::init();
    let stamp = stamp();
    println!("stamp: {stamp}");
    println!(
        "workload: {} (seed {}, {} s, trace {})",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (run, frames) = match bench::run(
        spec,
        args.seed,
        args.seconds,
        args.trace,
        args.corrupt_oracle,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", spec.name);
            std::process::exit(1);
        }
    };
    for (what, ok) in &run.checks {
        println!("oracle {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    if spec.saturation > 0.0 {
        println!(
            "open loop offered: {:.0} requests/s, {:.0} elem/s ({}% of the recorded saturation, {:.0} elem/s)",
            bench::offered_rate(spec, &frames),
            bench::OPEN_LOAD * spec.saturation,
            100.0 * bench::OPEN_LOAD,
            spec.saturation
        );
    }
    let (stolen, quiet, slices) = run.steal_summary();
    println!(
        "host steal: {:.1}% of CPU time; quiet slices (saturation, open loop, duel): {:?} of {slices}",
        100.0 * stolen,
        quiet
    );
    println!(
        "error_rate = {} ({} failed of {} attempted)",
        run.error_rate(),
        run.tally.failed,
        run.tally.attempted
    );
    let metrics = if args.trace {
        let spans = Path::new(OUT_DIR).join(format!("spans-{}-{}.csv", spec.name, args.seed));
        if let Err(e) = run.tracer.write_csv(&spans) {
            eprintln!("perfbench: could not write {}: {e}", spans.display());
        }
        layers::measure(spec, args.seed, &run, &frames)
    } else {
        run.end_to_end()
    };
    for m in &metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        for m in run.open_loop_tails() {
            println!("{:<36} {:>16.4} {} (not gated)", m.name, m.value, m.unit);
        }
    }
    let metrics_json = metrics_json(&metrics);
    record_history(spec.name, args.seed, args.trace, &stamp, &metrics_json);
    let correct = run.tally.failed == 0 && run.checks.iter().all(|c| c.1);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        run.tally.attempted, run.tally.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
