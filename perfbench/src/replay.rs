//! `replay-8x4k`: the scheduler simulator replaying eight 4,000-job traces
//! under `fifo` (no predictor) and `group-sjf` (a predictor lookup per
//! job).
//!
//! Set-up is everything `dagscope sched-replay` does before the first
//! policy replays, in the same order; it is short, so it is repeated and
//! its median reported. Then `THREADS` workers replay the traces in turn,
//! each replay one trace under both policies as `sched-replay` does it,
//! until the window ends; every replay's table must equal the CLI's. The
//! workers run on different cores, so a run samples the speed of each
//! (on a shared host one core can be slow for seconds while the other is
//! not). The traced run replays on one thread instead; see
//! [`traced_rounds`].

use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dagscope_cluster::GroupModel;
use dagscope_core::{Pipeline, PipelineConfig, Report};
use dagscope_graph::conflate::conflate;
use dagscope_sched::{
    replay, workload_from_stream, ClusterConfig, GroupPredictor, JobHint, Policy, ProfileBuilder,
    ProfileTable, ReplayReport, SimConfig, SimJob,
};
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::stream::StreamedTrace;
use dagscope_trace::ReadPolicy;
use dagscope_wl::KernelCache;

use crate::prep::THREADS;
use crate::spans::Tracer;
use crate::util::{median, quantile_sorted, Outcome};

pub const MACHINES: usize = 24;
pub const COMPRESSION: f64 = 2_000.0;
/// Set-up repeats at least this often and for at least this long.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(3_000);
/// Independent traces per run, each generated from its own sub-seed. The
/// replay's cost depends strongly on one trace's backlog (4,000-job traces
/// from different seeds cost up to 1.5x each other), so a run replays
/// several, each about equally often.
pub const TRACES: usize = 8;
/// Rounds of the traced run even when the window is already over.
const MIN_ROUNDS: usize = 2;
/// Replays per worker even when the window is already over.
const MIN_UNITS: usize = 2;

/// What the set-up hands to the replay.
struct Prepared {
    jobs: Vec<SimJob>,
    skipped: usize,
    predictor: Arc<GroupPredictor>,
    profiles: ProfileTable,
}

fn sim_config() -> SimConfig {
    SimConfig {
        cluster: ClusterConfig {
            machines: MACHINES,
            cpu_per_machine: 9_600.0,
            mem_per_machine: 48.0,
        },
        arrival_compression: COMPRESSION,
        online_load: None,
        evict_for_online: false,
    }
}

/// `sched-replay`'s set-up: scan, pipeline fit, group model, kernel cache,
/// profiles, workload and per-job hints.
fn setup(path: &Path, t: &mut Tracer) -> Result<Prepared, String> {
    let mut streamed = t.span("trace.scan", |_| {
        let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        StreamedTrace::scan(file, &ReadPolicy::Strict, &SampleCriteria::default())
            .map_err(|e| e.to_string())
    })?;
    let report: Report = t.span("core.pipeline", |_| {
        Pipeline::new(PipelineConfig::default()).run_streamed(&mut streamed)
    })?;
    let k = report.groups.group_count();
    let model = t.span("cluster.model_fit", |_| {
        GroupModel::fit(&report.groups.assignments, k, &report.wl_features)
    });
    let cache = t.span("wl.cache_build", |_| {
        KernelCache::from_dags(report.config.wl_iterations, report.kernel_dags())
    });
    let profiles = t.span("sched.profile", |_| {
        let mut labels = vec!['?'; k];
        for g in &report.groups.groups {
            labels[g.cluster] = g.label;
        }
        let mut builder = ProfileBuilder::new(k);
        for (i, dag) in report.raw_dags.iter().enumerate() {
            let sim = SimJob::from_dag(dag.name.clone(), 0, dag.clone());
            builder.observe(report.groups.assignments[i], &sim);
        }
        builder.finish(&labels)
    });
    let workload = t.span("sched.workload", |_| {
        workload_from_stream(&mut streamed, usize::MAX)
    })?;
    let predictor = t.span("sched.hints", |_| {
        let hints: Vec<JobHint> = dagscope_par::par_map(&workload.jobs, |job| {
            let probe = if report.config.conflate {
                cache.embed(&conflate(&job.dag))
            } else {
                cache.embed(&job.dag)
            };
            let c = model.classify(&probe);
            JobHint {
                cluster: c.cluster,
                confidence: c.confidence,
            }
        });
        let mut predictor = GroupPredictor::new(profiles.clone());
        for (job, hint) in workload.jobs.iter().zip(hints) {
            predictor.insert_hint(job.name.as_str(), hint);
        }
        Arc::new(predictor)
    });
    Ok(Prepared {
        jobs: workload.jobs,
        skipped: workload.skipped,
        predictor,
        profiles,
    })
}

/// The `sched-replay` report text for `result`.
fn render(p: &Prepared, result: &ReplayReport) -> String {
    let mut out = format!(
        "replaying {} jobs on {} machines (compression {}x)\n",
        p.jobs.len(),
        MACHINES,
        COMPRESSION
    );
    if p.skipped > 0 {
        out.push_str(&format!(
            "(skipped {} jobs with malformed DAGs)\n",
            p.skipped
        ));
    }
    out.push('\n');
    out.push_str(&p.profiles.render());
    out.push('\n');
    out.push_str(&result.render_table());
    out
}

pub fn run(dir: &Path, window: Duration, t: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let paths: Vec<_> = (0..TRACES)
        .map(|k| dir.join(format!("trace-{k}")).join("batch_task.csv"))
        .collect();
    let references = (0..TRACES)
        .map(|k| std::fs::read_to_string(dir.join(format!("replay-{k}.txt"))))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("read reference replay: {e}"))?;

    let mut setups = Vec::new();
    let mut prepared = Vec::new();
    let started = Instant::now();
    while setups.len() < MIN_SETUPS || started.elapsed() < SETUP_BUDGET {
        prepared.clear();
        let clock = Instant::now();
        for path in &paths {
            prepared.push(t.span("op.setup", |t| setup(path, t))?);
        }
        setups.push(clock.elapsed().as_secs_f64());
        for p in &prepared {
            out.check(!p.jobs.is_empty(), || {
                "replay workload is empty".to_string()
            });
        }
    }
    // Per trace: fifo, then group-sjf with that trace's predictor.
    let policies: Vec<[Policy; 2]> = prepared
        .iter()
        .map(|p| {
            [
                Policy::Fifo,
                Policy::GroupSjf {
                    predictor: Arc::clone(&p.predictor),
                },
            ]
        })
        .collect();
    let cfg = sim_config();
    let jobs: usize = prepared.iter().map(|p| p.jobs.len()).sum();
    let instances: u64 = prepared.iter().map(|p| instances(&p.jobs)).sum();
    out.metric("setup_s", median(&setups), "s");
    out.info("setup_samples", setups.len() as f64, "count");
    out.setups_s = setups;

    if t.is_on() {
        traced_rounds(&mut out, &prepared, &policies, &references, window, t);
        out.layer("trace.materialized_jobs", jobs as f64, "count");
        out.layer("sched.instances", instances as f64, "count");
        for policy in &policies[0] {
            let label = policy.label();
            let secs = median(&t.durations(&format!("sched.replay.{label}")));
            out.layer(format!("sched.replay_s.{label}"), secs, "s");
            out.layer(
                format!("sched.instances_per_s.{label}"),
                instances as f64 / secs,
                "1/s",
            );
        }
        return Ok(out);
    }

    // Every worker takes the traces in turn, each a `replay()` of both
    // policies, until the window ends; it finishes the replay it is in.
    let next = AtomicUsize::new(0);
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut w = Worker::default();
                    // One untimed (but checked) replay warms the worker up.
                    let k = next.fetch_add(1, Ordering::Relaxed) % TRACES;
                    w.warmup = Some((k, replay(&cfg, &prepared[k].jobs, &policies[k])));
                    let start = Instant::now();
                    while w.units.len() < MIN_UNITS || start.elapsed() < window {
                        let k = next.fetch_add(1, Ordering::Relaxed) % TRACES;
                        let clock = Instant::now();
                        let result = replay(&cfg, &prepared[k].jobs, &policies[k]);
                        w.units.push((k, clock.elapsed().as_secs_f64(), result));
                        w.jobs += 2 * prepared[k].jobs.len();
                    }
                    w.busy_s = start.elapsed().as_secs_f64();
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let rss = crate::util::peak_rss_bytes(None).ok_or("cannot read VmHWM")?;

    let mut units = Vec::new();
    let mut jobs_per_s = 0.0;
    for w in workers {
        jobs_per_s += w.jobs as f64 / w.busy_s;
        if let Some((k, result)) = w.warmup {
            check_replay(&mut out, &prepared[k], result, &references[k]);
        }
        for (k, secs, result) in w.units {
            check_replay(&mut out, &prepared[k], result, &references[k]);
            units.push(secs);
        }
    }
    let mut sorted = units.clone();
    sorted.sort_by(f64::total_cmp);
    out.metric("jobs_per_s", jobs_per_s, "1/s");
    out.metric("latency_p50_ms", 1e3 * median(&units), "ms");
    out.metric("latency_p90_ms", 1e3 * quantile_sorted(&sorted, 0.90), "ms");
    out.metric("peak_rss_mb", rss as f64 / 1e6, "MB");
    out.info("latency_samples", units.len() as f64, "count");
    out.info("replay_threads", THREADS as f64, "count");
    out.units_s = units;
    Ok(out)
}

/// One replay worker's warm-up replay, its timed units (trace, seconds,
/// result), the jobs they replayed and its time from the end of the
/// warm-up to the end of its last unit.
#[derive(Default)]
struct Worker {
    warmup: Option<(usize, Result<ReplayReport, String>)>,
    units: Vec<(usize, f64, Result<ReplayReport, String>)>,
    jobs: usize,
    busy_s: f64,
}

/// The traced run, on one thread: rounds over every trace until the
/// window ends, each replayed once untraced and once one policy at a
/// time inside its `sched.replay.<policy>` span, so the difference is
/// the tracing overhead.
fn traced_rounds(
    out: &mut Outcome,
    prepared: &[Prepared],
    policies: &[[Policy; 2]],
    references: &[String],
    window: Duration,
    t: &mut Tracer,
) {
    let cfg = sim_config();
    let (mut rounds, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < window {
        let clock = Instant::now();
        let results: Vec<_> = prepared
            .iter()
            .zip(policies)
            .map(|(p, pol)| replay(&cfg, &p.jobs, pol))
            .collect();
        rounds.push(clock.elapsed().as_secs_f64());
        for ((p, result), reference) in prepared.iter().zip(results).zip(references) {
            check_replay(out, p, result, reference);
        }
        let clock = Instant::now();
        let results = t.span("op.replay", |t| {
            let mut outcomes = vec![Vec::new(); TRACES];
            for i in 0..2 {
                let label = policies[0][i].label();
                t.span(format!("sched.replay.{label}"), |_| {
                    for (k, p) in prepared.iter().enumerate() {
                        let one = replay(&cfg, &p.jobs, &policies[k][i..=i])?;
                        outcomes[k].extend(one.outcomes);
                    }
                    Ok::<_, String>(())
                })?;
            }
            Ok::<_, String>(outcomes)
        });
        traced.push(clock.elapsed().as_secs_f64());
        match results {
            Ok(all) => {
                for ((p, outcomes), reference) in prepared.iter().zip(all).zip(references) {
                    check_replay(out, p, Ok(ReplayReport { outcomes }), reference);
                }
            }
            Err(e) => out.check(false, || format!("replay failed: {e}")),
        }
    }
    out.layer(
        "tracing.overhead_pct",
        100.0 * (median(&traced) / median(&rounds) - 1.0),
        "%",
    );
}

fn check_replay(
    out: &mut Outcome,
    p: &Prepared,
    result: Result<ReplayReport, String>,
    reference: &str,
) {
    match result {
        Ok(result) => out.check(render(p, &result) == reference, || {
            "replay table differs from `dagscope sched-replay`".to_string()
        }),
        Err(e) => out.check(false, || format!("replay failed: {e}")),
    }
}

/// Task instances the simulator places per replay of one policy.
fn instances(jobs: &[SimJob]) -> u64 {
    jobs.iter()
        .flat_map(|j| j.tasks.iter())
        .map(|t| u64::from(t.instances))
        .sum()
}
