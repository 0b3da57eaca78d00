//! The dagscope benchmark's worker binary; `perfbench/run.py` drives it.
//!
//! ```text
//! perfbench prep --workload W --seed N --dir DIR --dagscope BIN [--scale full|smoke]
//! perfbench run  --workload W --dir DIR --dagscope BIN --seconds S --trace 0|1 [--spans FILE]
//! ```
//!
//! `prep` writes a workload's inputs and reference outputs; `run` is one
//! measured run in a fresh process and prints one JSON line.

mod characterize;
mod prep;
mod replay;
mod serve;
mod spans;
mod util;

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::time::Duration;

use spans::Tracer;
use util::{host_probe, json_str, median, Manifest, Outcome};

const WORKLOADS: [&str; 3] = ["characterize-2m", "serve-50k", "replay-8x4k"];

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn workload(flags: &HashMap<String, String>) -> Result<&str, String> {
    let w = flag(flags, "workload")?;
    if WORKLOADS.contains(&w) {
        Ok(w)
    } else {
        Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"))
    }
}

fn cmd_prep(flags: &HashMap<String, String>) -> Result<(), String> {
    let seed: u64 = flag(flags, "seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let scale = prep::scale(flags.get("scale").map_or("full", String::as_str))?;
    let dir = PathBuf::from(flag(flags, "dir")?);
    let bin = PathBuf::from(flag(flags, "dagscope")?);
    let _threads = dagscope_par::ParScope::new(prep::THREADS);
    prep::prepare(workload(flags)?, seed, scale, &dir, &bin)?;
    Ok(())
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let name = workload(flags)?;
    let dir = PathBuf::from(flag(flags, "dir")?);
    let bin = PathBuf::from(flag(flags, "dagscope")?);
    let seconds: f64 = flag(flags, "seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    let traced = match flag(flags, "trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let m = Manifest::load(&dir.join("manifest.txt"))?;
    if m.get("workload")? != name {
        return Err(format!(
            "{} was prepared for another workload",
            dir.display()
        ));
    }
    let _threads = dagscope_par::ParScope::new(prep::THREADS);
    let window = Duration::from_secs_f64(seconds);
    let mut t = Tracer::new(traced, m.num("seed")?);

    let probe_before = host_probe();
    let mut out = match name {
        "characterize-2m" => characterize::run(&dir, &m, window, &mut t)?,
        "serve-50k" => serve::run(&dir, &m, window, &mut t, &bin)?,
        "replay-8x4k" => replay::run(&dir, window, &mut t)?,
        _ => unreachable!("workload names are validated"),
    };
    let probe_after = host_probe();
    for (i, tier) in ["l2", "llc", "dram", "alu"].iter().enumerate() {
        out.info(format!("host.probe_{tier}_before_s"), probe_before[i], "s");
        out.info(format!("host.probe_{tier}_after_s"), probe_after[i], "s");
    }
    let probe = (probe_before.iter().sum::<f64>() + probe_after.iter().sum::<f64>()) / 2.0;
    out.info("host.probe_s", probe, "s");

    if traced {
        layer_metrics(&mut out, &t, &m, probe);
        if let Some(path) = flags.get("spans") {
            std::fs::write(path, t.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
        }
        eprint!("{name}: {}", t.breakdown());
    }
    let mut hashes: Vec<String> =
        m.0.iter()
            .filter(|(k, _)| k.starts_with("hash."))
            .map(|(k, v)| format!("{}:{}", json_str(&k["hash.".len()..]), json_str(v)))
            .collect();
    hashes.sort();
    println!(
        "{}",
        out.to_json(&[
            ("workload", json_str(name)),
            ("seed", m.get("seed")?.to_string()),
            ("scale", json_str(m.get("scale")?)),
            ("hashes", format!("{{{}}}", hashes.join(","))),
        ])
    );
    Ok(())
}

/// Complete the traced run's per-layer metrics: each layer span's median
/// duration as `<span>_s`, work counters known from the manifest, host
/// diagnostics and tracing coverage. `run.py` reports the ones
/// `BENCHMARK.json` lists, and 0 for a layer this workload leaves idle.
fn layer_metrics(out: &mut Outcome, t: &Tracer, m: &Manifest, probe: f64) {
    let names: BTreeSet<&str> = t
        .spans()
        .iter()
        .filter(|s| spans::LAYERS.contains(&s.layer()))
        .map(|s| s.name.as_str())
        .collect();
    for span in names {
        out.layer(format!("{span}_s"), median(&t.durations(span)), "s");
    }
    let scans = t.durations("trace.scan");
    if !scans.is_empty() {
        if let (Ok(bytes), Ok(rows)) = (m.num::<f64>("bytes"), m.num::<f64>("rows")) {
            out.layer("trace.scan_mb_per_s", bytes / 1e6 / median(&scans), "MB/s");
            out.layer("trace.rows", rows, "count");
        }
    }
    let coverage = t.coverage();
    out.layer("host.probe_s", probe, "s");
    out.layer(
        "host.parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        "count",
    );
    out.layer("par.threads", dagscope_par::parallelism() as f64, "count");
    out.layer("tracing.coverage_pct", 100.0 * coverage, "%");
    out.layer("tracing.spans", t.spans().len() as f64, "count");
    out.layer("tracing.timed_wall_s", t.timed_wall_s(), "s");
    out.check(coverage >= 0.9, || {
        format!(
            "layer spans cover {:.1} % of the timed wall time",
            100.0 * coverage
        )
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("prep") => parse_flags(&args[1..]).and_then(|f| cmd_prep(&f)),
        Some("run") => parse_flags(&args[1..]).and_then(|f| cmd_run(&f)),
        _ => Err("usage: perfbench prep|run --workload W ...".to_string()),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
