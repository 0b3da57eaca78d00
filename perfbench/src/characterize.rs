//! `characterize-2m`: the paper's own job. Quarantining streamed scans of
//! a 2M-job trace, each followed by replicate analyses at the next sample
//! seeds, until the window ends. Interleaving the scans with the analyses
//! spreads both samples over the whole window, so a short slow phase of
//! the host cannot fall on every scan of a run.
//!
//! The traced run calls the layers one by one in
//! `Pipeline::run_streamed`'s order and checks that its assignments,
//! eigenvalue bits and summary equal `run_streamed`'s, so the breakdown
//! measures the same computation.

use std::fs::File;
use std::path::Path;
use std::time::{Duration, Instant};

use dagscope_cluster::{expand_assignments, spectral_cluster_collapsed, SpectralConfig};
use dagscope_core::{
    ClusterEngine, EngineKind, GroupAnalysis, Pipeline, PipelineConfig, Report, Similarity,
    StageTimings,
};
use dagscope_graph::conflate;
use dagscope_graph::metrics::JobFeatures;
use dagscope_graph::JobDag;
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::stream::StreamedTrace;
use dagscope_trace::ReadPolicy;
use dagscope_wl::{
    normalize_unique_sparse, unique_gram_sparse, ShapeDedup, SparseVec, WlVectorizer,
};

use crate::prep::MAX_BAD_ROWS;
use crate::spans::Tracer;
use crate::util::{median, quantile_sorted, Manifest, Outcome};

/// Scans run even when the window is already over; their median is
/// `setup_s`.
const MIN_SCANS: usize = 5;
/// Replicate analyses after each scan, on that scan's trace.
const PASSES_PER_SCAN: usize = 3;

fn scan(path: &Path) -> Result<StreamedTrace<File>, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    StreamedTrace::scan(
        file,
        &ReadPolicy::Quarantine {
            max_bad: MAX_BAD_ROWS,
        },
        &SampleCriteria::default(),
    )
    .map_err(|e| e.to_string())
}

fn config(sample: usize, seed: u64) -> PipelineConfig {
    PipelineConfig {
        sample,
        seed,
        cluster_engine: ClusterEngine::Collapsed,
        ..PipelineConfig::default()
    }
}

pub fn run(dir: &Path, m: &Manifest, window: Duration, t: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let path = dir.join("trace").join("batch_task.csv");
    let corrupted: usize = m.num("corrupted_rows")?;
    let sample: usize = m.num("sample")?;
    let seed: u64 = m.num("seed")?;
    let reference = std::fs::read_to_string(dir.join("summary.txt"))
        .map_err(|e| format!("read reference summary: {e}"))?;

    let mut scans = Vec::new();
    let mut passes = Vec::new();
    let mut traced_passes = Vec::new();
    let mut first_traced = None;
    let mut peak_rss = None;
    let mut streamed = None;
    let mut r = 0u64;
    let start = Instant::now();
    while scans.len() < MIN_SCANS || start.elapsed() < window {
        drop(streamed.take());
        let clock = Instant::now();
        let s = t.span("op.scan", |t| t.span("trace.scan", |_| scan(&path)))?;
        scans.push(clock.elapsed().as_secs_f64());
        let quarantined = s.quarantine().rows_quarantined();
        out.check(quarantined == corrupted, || {
            format!("scan quarantined {quarantined} rows, {corrupted} were corrupted")
        });
        let streamed = streamed.insert(s);
        for _ in 0..PASSES_PER_SCAN {
            let pipeline = Pipeline::new(config(sample, seed.wrapping_add(r)));
            let clock = Instant::now();
            let report = pipeline.run_streamed(streamed);
            passes.push(clock.elapsed().as_secs_f64());
            // VmHWM after one scan and one analysis: the same work in every
            // run. The end-of-run VmHWM is kept beside it as a diagnostic.
            if passes.len() == 1 {
                peak_rss = crate::util::peak_rss_bytes(None);
            }
            let report = match report {
                Ok(report) => report,
                Err(e) => {
                    out.check(false, || format!("replicate {r}: {e}"));
                    r += 1;
                    continue;
                }
            };
            let ok = report.groups.assignments.len() == report.sample_names.len()
                && report.groups.group_count() > 0;
            out.check(ok, || format!("replicate {r}: malformed report"));
            if r == 0 {
                let summary = report.summary();
                out.check(summary == reference, || {
                    "replicate 0 summary differs from `dagscope summary --stream`".to_string()
                });
            }
            if t.is_on() {
                let clock = Instant::now();
                let traced = t.span("op.replicate", |t| traced_pass(&pipeline, streamed, t))?;
                traced_passes.push(clock.elapsed().as_secs_f64());
                let same = traced.groups.assignments == report.groups.assignments
                    && bits(&traced.laplacian_eigenvalues) == bits(&report.laplacian_eigenvalues)
                    && traced.summary() == report.summary();
                out.check(same, || {
                    format!("replicate {r}: traced pass differs from run_streamed")
                });
                first_traced.get_or_insert(traced);
            }
            r += 1;
        }
    }
    let streamed = streamed.expect("at least one scan");

    let mut sorted = passes.clone();
    sorted.sort_by(f64::total_cmp);
    let pass_s = median(&passes);
    out.metric("setup_s", median(&scans), "s");
    out.metric("jobs_per_s", sample as f64 / pass_s, "1/s");
    out.metric("latency_p50_ms", 1e3 * pass_s, "ms");
    out.metric("latency_p90_ms", 1e3 * quantile_sorted(&sorted, 0.90), "ms");
    out.info("latency_samples", passes.len() as f64, "count");
    out.info("setup_samples", scans.len() as f64, "count");
    out.units_s = passes;
    out.setups_s = scans;
    let rss = peak_rss.ok_or("cannot read VmHWM")?;
    out.metric("peak_rss_mb", rss as f64 / 1e6, "MB");
    let rss_end = crate::util::peak_rss_bytes(None).ok_or("cannot read VmHWM")?;
    out.info("peak_rss_end_mb", rss_end as f64 / 1e6, "MB");

    if t.is_on() {
        out.layer(
            "trace.quarantined_rows",
            streamed.quarantine().rows_quarantined() as f64,
            "count",
        );
        out.layer("trace.materialized_jobs", sample as f64, "count");
        if let Some(first) = &first_traced {
            let tasks: usize = first.raw_dags.iter().map(|d| d.len()).sum();
            out.layer("graph.tasks", tasks as f64, "count");
            let g = first.gram.expect("collapsed engine reports Gram stats");
            out.layer("wl.unique_shapes", g.unique_shapes as f64, "count");
            out.layer("wl.dot_products", g.dot_products as f64, "count");
        }
        out.layer(
            "tracing.overhead_pct",
            100.0 * (median(&traced_passes) / pass_s - 1.0),
            "%",
        );
    }
    Ok(out)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `Pipeline::run_streamed` with the collapsed engine, one layer call at
/// a time, each inside its span.
fn traced_pass(
    pipeline: &Pipeline,
    streamed: &mut StreamedTrace<File>,
    t: &mut Tracer,
) -> Result<Report, String> {
    let cfg = pipeline.config().clone();
    let stats = t.span("trace.stats", |_| streamed.stats());
    let sample = t.span("trace.materialize", |_| {
        let picked = streamed.sample_eligible(cfg.sample, cfg.seed);
        picked
            .into_iter()
            .map(|pos| {
                streamed
                    .materialize_eligible(pos)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let raw_dags: Vec<JobDag> = t.span("graph.build", |_| {
        dagscope_par::par_map(&sample, |job| {
            JobDag::from_job(job).expect("filtered job must build")
        })
    });
    let conflated: Vec<JobDag> = t.span("graph.conflate", |_| {
        dagscope_par::par_map(&raw_dags, conflate::conflate)
    });
    let (features_raw, features_conflated) = t.span("graph.features", |_| {
        (
            dagscope_par::par_map(&raw_dags, JobFeatures::extract),
            dagscope_par::par_map(&conflated, JobFeatures::extract),
        )
    });
    let wl_features = t.span("wl.embed", |_| {
        WlVectorizer::new(cfg.wl_iterations).transform_all(&conflated)
    });
    let dedup = t.span("wl.dedup", |_| ShapeDedup::from_features(&wl_features));
    let (unique, gram_stats) = t.span("wl.gram", |_| {
        let reps: Vec<&SparseVec> = dedup
            .representatives()
            .iter()
            .map(|&i| &wl_features[i])
            .collect();
        let (gram, mut stats) = unique_gram_sparse(&reps);
        stats.jobs = wl_features.len();
        stats.unique_shapes = dedup.unique_count();
        (normalize_unique_sparse(&gram), stats)
    });
    let weights = dedup.weights();
    let spectral_cfg = SpectralConfig {
        k: cfg.clusters,
        seed: cfg.seed,
        n_init: 10,
    };
    let spectral = t.span("cluster.spectral", |_| {
        spectral_cluster_collapsed(&unique, &weights, &spectral_cfg).map(|mut s| {
            s.assignments = expand_assignments(dedup.shape_of(), &s.assignments);
            s
        })
    })?;
    let groups = t.span("core.groups", |_| {
        GroupAnalysis::build_collapsed(
            &spectral.assignments,
            spectral.k,
            &raw_dags,
            &features_raw,
            &unique,
            dedup.shape_of(),
            &weights,
        )
    });
    Ok(Report {
        config: cfg,
        stats,
        sample_names: sample.iter().map(|j| j.name.clone()).collect(),
        raw_dags,
        conflated_dags: conflated,
        features_raw,
        features_conflated,
        wl_features,
        similarity: Similarity::Collapsed {
            unique,
            shape_of: dedup.shape_of().to_vec(),
        },
        engine: EngineKind::Collapsed,
        laplacian_eigenvalues: spectral.eigenvalues,
        groups,
        gram: Some(gram_stats),
        timings: StageTimings::default(),
    })
}
