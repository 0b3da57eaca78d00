//! Input preparation: a pure function of (workload, seed, scale).
//!
//! Runs in its own process before any measured run and is never timed.
//! Each workload's directory ends up holding its inputs, the reference
//! outputs the measured run is checked against (taken from the `dagscope`
//! CLI or from in-process `ServeIndex` answers), and a `manifest.txt` with
//! the workload's sizes and the content hash of every input.

use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::Command;

use dagscope_core::IndexSnapshot;
use dagscope_serve::ServeIndex;
use dagscope_trace::csv;
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope_trace::Job;

use crate::util::{hash_file, Hasher, Manifest, Rng};

/// Worker threads for every `dagscope` call and in-process stage. The
/// same on every commit; at most the reference host's two CPUs.
pub const THREADS: usize = 2;

/// Bad-row allowance of the quarantining reader (above every corruption
/// count the benchmark injects).
pub const MAX_BAD_ROWS: usize = 1_000;

/// Sizes of every workload at one scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    pub char_jobs: usize,
    pub char_sample: usize,
    pub char_corrupt: usize,
    pub serve_trace_jobs: usize,
    pub serve_sample: usize,
    pub serve_holdout_jobs: usize,
    pub serve_pool: usize,
    pub replay_jobs: usize,
}

const FULL: Scale = Scale {
    name: "full",
    char_jobs: 2_000_000,
    char_sample: 50_000,
    char_corrupt: 100,
    serve_trace_jobs: 1_000_000,
    serve_sample: 50_000,
    serve_holdout_jobs: 20_000,
    serve_pool: 4_096,
    replay_jobs: 4_000,
};

/// Small sizes for the benchmark's own tests.
const SMOKE: Scale = Scale {
    name: "smoke",
    char_jobs: 20_000,
    char_sample: 2_000,
    char_corrupt: 10,
    serve_trace_jobs: 20_000,
    serve_sample: 2_000,
    serve_holdout_jobs: 1_000,
    serve_pool: 256,
    replay_jobs: 1_000,
};

pub fn scale(name: &str) -> Result<Scale, String> {
    match name {
        "full" => Ok(FULL),
        "smoke" => Ok(SMOKE),
        other => Err(format!("unknown scale {other:?} (full or smoke)")),
    }
}

/// Share of trace rows deferred a few rows down the file, which turns
/// them into out-of-order stragglers of an already-closed job.
const STRAGGLER_RATE: f64 = 0.001;
const STRAGGLER_MAX_SHIFT: u64 = 64;
/// Whole jobs written after the next [`LATE_JOB_SHIFT`] jobs, so they
/// arrive out of name order, as jobs do in a real trace. The generator
/// names jobs in file order; left to chance, the stragglers put an
/// eligible job out of name order in about a third of the seeds, and
/// `StreamedTrace::scan` then costs 1.1–1.5 s more (its final sort of
/// the eligible jobs by name). A fixed number of late jobs gives every
/// seed that cost, so `setup_s` does not flip with the seed.
const LATE_JOBS: usize = 32;
const LATE_JOB_SHIFT: usize = 8;

/// Seed tags: one workload's inputs never share a stream with another's.
const CHAR_TAG: u64 = 0xC4A2_0000_0000_0001;
const SERVE_TAG: u64 = 0x5E2F_0000_0000_0002;
const HOLDOUT_TAG: u64 = 0x401D_0000_0000_0003;
const REPLAY_TAG: u64 = 0x2E91_0000_0000_0004;

/// Stream-write a generated `batch_task.csv` without holding the trace in
/// memory. `corrupt` lists job indices whose first row is cut short (a
/// quarantined row); with `stragglers`, rows are deferred at
/// [`STRAGGLER_RATE`] and [`LATE_JOBS`] jobs are written late. Returns
/// (rows written, bytes written).
fn write_trace(
    path: &Path,
    cfg: GeneratorConfig,
    corrupt: &std::collections::BTreeSet<usize>,
    stragglers: Option<&mut Rng>,
) -> Result<(u64, u64), String> {
    let jobs = cfg.jobs;
    let generator = TraceGenerator::new(cfg);
    let file = fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = BufWriter::with_capacity(1 << 20, file);
    let mut rows = 0u64;
    let mut bytes = 0u64;
    // (row number to emit after, line) of deferred rows, in emit order.
    let mut deferred: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut rng = stragglers;
    // Late job -> the job after whose rows its rows are written.
    let mut late = std::collections::BTreeMap::new();
    if let Some(r) = rng.as_deref_mut() {
        let count = LATE_JOBS.min(jobs / (4 * LATE_JOB_SHIFT));
        while late.len() < count {
            let i = r.below((jobs - LATE_JOB_SHIFT) as u64) as usize;
            if !corrupt.contains(&i) {
                late.insert(i, i + LATE_JOB_SHIFT);
            }
        }
    }
    // Job index -> rows of late jobs to write after that job's rows.
    let mut held: std::collections::BTreeMap<usize, Vec<Vec<u8>>> = Default::default();
    let mut emit = |line: &[u8], w: &mut BufWriter<fs::File>| -> Result<(), String> {
        bytes += line.len() as u64;
        w.write_all(line).map_err(|e| format!("write trace: {e}"))
    };
    for i in 0..jobs {
        let (tasks, _) = generator.generate_job(i);
        let late_after = late.get(&i).copied();
        for (t, task) in tasks.iter().enumerate() {
            let mut line = Vec::with_capacity(96);
            csv::push_task_line(&mut line, task);
            if t == 0 && corrupt.contains(&i) {
                // Keep the first four fields (so the row still names its
                // job) and drop the rest: a short row the reader
                // quarantines.
                let cut = line
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b',')
                    .nth(3)
                    .map_or(line.len() - 1, |(p, _)| p);
                line.truncate(cut);
                line.push(b'\n');
            }
            rows += 1;
            if let Some(after) = late_after {
                held.entry(after).or_default().push(line);
                continue;
            }
            let shift = rng.as_deref_mut().and_then(|r| {
                (r.unit() < STRAGGLER_RATE).then(|| 1 + r.below(STRAGGLER_MAX_SHIFT))
            });
            match shift {
                Some(s) => {
                    let at = rows + s;
                    let pos = deferred.partition_point(|(a, _)| *a <= at);
                    deferred.insert(pos, (at, line));
                }
                None => emit(&line, &mut w)?,
            }
            while deferred.first().is_some_and(|(a, _)| *a <= rows) {
                let (_, l) = deferred.remove(0);
                emit(&l, &mut w)?;
            }
        }
        for l in held.remove(&i).unwrap_or_default() {
            emit(&l, &mut w)?;
        }
    }
    for (_, l) in deferred.drain(..) {
        emit(&l, &mut w)?;
    }
    w.flush().map_err(|e| format!("flush trace: {e}"))?;
    Ok((rows, bytes))
}

/// Run the `dagscope` CLI and return its stdout.
fn dagscope(bin: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "dagscope {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8(out.stdout).map_err(|_| "dagscope printed non-UTF-8".to_string())
}

fn hash_input(m: &mut Manifest, key: &str, path: &Path) -> Result<(), String> {
    let h = hash_file(path).map_err(|e| format!("hash {}: {e}", path.display()))?;
    m.set(&format!("hash.{key}"), format!("{h:016x}"));
    Ok(())
}

/// Prepare `workload` for `seed` into `dir` (replacing its contents).
pub fn prepare(
    workload: &str,
    seed: u64,
    scale: Scale,
    dir: &Path,
    bin: &Path,
) -> Result<Manifest, String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    fs::create_dir_all(dir.join("trace")).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut m = Manifest::default();
    m.set("workload", workload);
    m.set("seed", seed);
    m.set("scale", scale.name);
    m.set("threads", THREADS);
    let threads = THREADS.to_string();
    let trace_dir = dir.join("trace");
    let trace_arg = trace_dir.to_str().ok_or("non-UTF-8 path")?.to_string();
    let csv_path = trace_dir.join("batch_task.csv");
    match workload {
        "characterize-2m" => {
            let mut rng = Rng::new(seed ^ CHAR_TAG);
            let mut corrupt = std::collections::BTreeSet::new();
            while corrupt.len() < scale.char_corrupt {
                corrupt.insert(rng.below(scale.char_jobs as u64) as usize);
            }
            let cfg = GeneratorConfig {
                jobs: scale.char_jobs,
                seed,
                ..GeneratorConfig::default()
            };
            let (rows, bytes) = write_trace(&csv_path, cfg, &corrupt, Some(&mut rng))?;
            m.set("rows", rows);
            m.set("bytes", bytes);
            m.set("corrupted_rows", corrupt.len());
            m.set("sample", scale.char_sample);
            hash_input(&mut m, "trace", &csv_path)?;
            let summary = dagscope(
                bin,
                &[
                    "summary",
                    "--trace",
                    &trace_arg,
                    "--stream",
                    "--max-bad-rows",
                    &MAX_BAD_ROWS.to_string(),
                    "--sample",
                    &scale.char_sample.to_string(),
                    "--seed",
                    &seed.to_string(),
                    "--cluster-engine",
                    "collapsed",
                    "--threads",
                    &threads,
                ],
            )?;
            write(&dir.join("summary.txt"), summary.as_bytes())?;
        }
        "serve-50k" => {
            let index_seed = seed ^ SERVE_TAG;
            let cfg = GeneratorConfig {
                jobs: scale.serve_trace_jobs,
                seed: index_seed,
                ..GeneratorConfig::default()
            };
            write_trace(&csv_path, cfg, &Default::default(), None)?;
            hash_input(&mut m, "snapshot_trace", &csv_path)?;
            let snap = dir.join("snapshot");
            dagscope(
                bin,
                &[
                    "snapshot",
                    "--trace",
                    &trace_arg,
                    "--stream",
                    "--sample",
                    &scale.serve_sample.to_string(),
                    "--seed",
                    &index_seed.to_string(),
                    "--cluster-engine",
                    "collapsed",
                    "--threads",
                    &threads,
                    "--out",
                    snap.to_str().ok_or("non-UTF-8 path")?,
                ],
            )?;
            // The trace only feeds the snapshot; its hash stays recorded.
            fs::remove_file(&csv_path).map_err(|e| format!("remove trace: {e}"))?;
            let mut snap_hash = Hasher::default();
            let mut snap_bytes = 0u64;
            for entry in sorted_files(&snap)? {
                let data = fs::read(&entry).map_err(|e| format!("read snapshot: {e}"))?;
                snap_bytes += data.len() as u64;
                snap_hash.update(entry.file_name().expect("file").as_encoded_bytes());
                snap_hash.update(&data);
            }
            m.set("hash.snapshot", format!("{:016x}", snap_hash.finish()));
            m.set("snapshot_bytes", snap_bytes);
            prepare_requests(&mut m, seed, scale, dir, &snap)?;
        }
        "replay-8x4k" => {
            let (mut rows, mut bytes) = (0, 0);
            // Independent sub-seeds: no two seeds share a trace.
            let mut sub_seeds = Rng::new(seed ^ REPLAY_TAG);
            for k in 0..crate::replay::TRACES {
                let trace_dir = dir.join(format!("trace-{k}"));
                fs::create_dir_all(&trace_dir).map_err(|e| format!("create trace dir: {e}"))?;
                let csv_path = trace_dir.join("batch_task.csv");
                let cfg = GeneratorConfig {
                    jobs: scale.replay_jobs,
                    seed: sub_seeds.next_u64(),
                    ..GeneratorConfig::default()
                };
                let (r, b) = write_trace(&csv_path, cfg, &Default::default(), None)?;
                rows += r;
                bytes += b;
                hash_input(&mut m, &format!("trace-{k}"), &csv_path)?;
                let table = dagscope(
                    bin,
                    &[
                        "sched-replay",
                        "--trace",
                        trace_dir.to_str().ok_or("non-UTF-8 path")?,
                        "--stream",
                        "--machines",
                        &crate::replay::MACHINES.to_string(),
                        "--compression",
                        &crate::replay::COMPRESSION.to_string(),
                        "--policy",
                        "fifo,group-sjf",
                        "--threads",
                        &threads,
                    ],
                )?;
                write(&dir.join(format!("replay-{k}.txt")), table.as_bytes())?;
            }
            fs::remove_dir(dir.join("trace")).map_err(|e| format!("remove trace dir: {e}"))?;
            m.set("rows", rows);
            m.set("bytes", bytes);
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    // Flush every input to disk now, so no write-back of prepared files
    // runs during a measured run.
    sync_tree(dir)?;
    let text = m.render();
    write(&dir.join("manifest.txt"), text.as_bytes())?;
    Ok(m)
}

fn sync_tree(dir: &Path) -> Result<(), String> {
    for entry in fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            fs::File::open(&path)
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("sync {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

fn sorted_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    Ok(files)
}

/// One request of the serve pool.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Classify(String),
    Advise(String),
    Similar(String),
    Jobs(String),
}

impl Request {
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::Classify(_) => "classify",
            Request::Advise(_) => "advise",
            Request::Similar(_) => "similar",
            Request::Jobs(_) => "jobs",
        }
    }

    /// The full HTTP/1.1 request bytes.
    pub fn http(&self) -> Vec<u8> {
        let (method, path, body) = match self {
            Request::Classify(b) => ("POST", "/v1/classify".to_string(), b.as_str()),
            Request::Advise(b) => ("POST", "/v1/advise".to_string(), b.as_str()),
            Request::Similar(n) => ("GET", format!("/v1/similar/{n}?k={SIMILAR_K}"), ""),
            Request::Jobs(n) => ("GET", format!("/v1/jobs/{n}"), ""),
        };
        format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    fn line(&self) -> String {
        match self {
            Request::Classify(b) => format!("classify {b}"),
            Request::Advise(b) => format!("advise {b}"),
            Request::Similar(n) => format!("similar {n}"),
            Request::Jobs(n) => format!("jobs {n}"),
        }
    }

    pub fn parse(line: &str) -> Result<Request, String> {
        let (kind, rest) = line.split_once(' ').ok_or("malformed pool line")?;
        let rest = rest.to_string();
        Ok(match kind {
            "classify" => Request::Classify(rest),
            "advise" => Request::Advise(rest),
            "similar" => Request::Similar(rest),
            "jobs" => Request::Jobs(rest),
            other => return Err(format!("unknown request kind {other:?}")),
        })
    }
}

/// Neighbours asked of `/v1/similar`.
pub const SIMILAR_K: usize = 10;

/// Share of pool requests whose answers are checked against the
/// in-process index.
const CHECKED_SHARE: f64 = 0.125;

fn probe_body(job: &Job) -> String {
    let rows: Vec<String> = job
        .tasks
        .iter()
        .map(|t| format!("\"{}\"", csv::format_task_line(t).trim_end()))
        .collect();
    format!(
        "{{\"job_name\":\"{}\",\"tasks\":[{}]}}",
        job.name,
        rows.join(",")
    )
}

/// The expected answer of one checked request, as text: classify and
/// advise give `cluster label confidence-bits`, similar gives
/// `name:score-bits:label` per neighbour.
fn expected_answer(index: &ServeIndex, req: &Request, probes: &ProbeLookup) -> Option<String> {
    match req {
        Request::Classify(body) | Request::Advise(body) => {
            let job = probes.get(body)?;
            let c = index.classify(job).ok()?;
            Some(format!(
                "{} {} {:016x}",
                c.classification.cluster,
                c.group,
                c.classification.confidence.to_bits()
            ))
        }
        Request::Similar(name) => {
            let i = index.find(name)?;
            let n: Vec<String> = index
                .similar(i, SIMILAR_K)
                .iter()
                .map(|n| format!("{}:{:016x}:{}", n.name, n.score.to_bits(), n.group))
                .collect();
            Some(n.join(","))
        }
        Request::Jobs(_) => None,
    }
}

/// Probe jobs by their request body.
type ProbeLookup = std::collections::HashMap<String, Job>;

/// Held-out probe jobs: eligible jobs of a trace generated from another
/// seed than the snapshot's, so the WL probe meets unseen labels.
fn holdout_probes(seed: u64, scale: Scale) -> Vec<Job> {
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs: scale.serve_holdout_jobs,
        seed: seed ^ HOLDOUT_TAG,
        ..GeneratorConfig::default()
    })
    .generate();
    let set = trace.job_set();
    SampleCriteria::default()
        .filter(&set)
        .into_iter()
        .cloned()
        .collect()
}

fn prepare_requests(
    m: &mut Manifest,
    seed: u64,
    scale: Scale,
    dir: &Path,
    snap: &Path,
) -> Result<(), String> {
    let probes = holdout_probes(seed, scale);
    if probes.is_empty() {
        return Err("held-out trace has no eligible job".to_string());
    }
    let snapshot = IndexSnapshot::load(snap).map_err(|e| e.to_string())?;
    let names: Vec<String> = snapshot.jobs.iter().map(|j| j.name.clone()).collect();
    let index = ServeIndex::build(snapshot)?;
    let mut rng = Rng::new(seed ^ HOLDOUT_TAG);
    let mut lookup = ProbeLookup::new();
    let mut pool = String::new();
    let mut expect = String::new();
    for r in 0..scale.serve_pool {
        let u = rng.unit();
        let req = if u < 0.7 {
            let job = &probes[rng.below(probes.len() as u64) as usize];
            let body = probe_body(job);
            lookup.entry(body.clone()).or_insert_with(|| job.clone());
            if u < 0.4 {
                Request::Classify(body)
            } else {
                Request::Advise(body)
            }
        } else {
            let name = names[rng.below(names.len() as u64) as usize].clone();
            if u < 0.9 {
                Request::Similar(name)
            } else {
                Request::Jobs(name)
            }
        };
        if rng.unit() < CHECKED_SHARE {
            if let Some(answer) = expected_answer(&index, &req, &lookup) {
                expect.push_str(&format!("{r} {answer}\n"));
            }
        }
        pool.push_str(&req.line());
        pool.push('\n');
    }
    write(&dir.join("pool.txt"), pool.as_bytes())?;
    write(&dir.join("expect.txt"), expect.as_bytes())?;
    hash_input(m, "pool", &dir.join("pool.txt"))?;
    m.set("pool", scale.serve_pool);
    m.set("sample", scale.serve_sample);
    Ok(())
}
