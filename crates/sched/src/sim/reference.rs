//! The reference simulator: the dispatch loop the rank/tree pass
//! replaced, kept to check it. Every event walks the whole ready queue in
//! dispatch order (newcomers sorted and merged in), skipping demands that
//! dominate one already failed this pass; eviction bookkeeping uses hash
//! maps and a linear scan. Slow on large backlogs, and obviously the
//! dispatch rule. The test below compares it with [`Simulator`] field for
//! field over seeded random workloads.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use super::{instance_record, Counters, Finish, Simulator, TaskState};
use crate::cluster::Cluster;
use crate::metrics::SimMetrics;
use crate::policy::FrozenKeys;
use crate::workload::SimJob;
use dagscope_trace::InstanceRecord;

/// A ready task reference in the dispatch queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadyTask {
    job: usize,
    node: usize,
}

impl Simulator {
    /// [`run_with_trace`](Simulator::run_with_trace) by the full
    /// backlog walk.
    pub(super) fn run_reference(
        &self,
        jobs: &[SimJob],
    ) -> Result<(SimMetrics, Vec<InstanceRecord>), String> {
        self.check_capacity(jobs)?;
        if jobs.is_empty() {
            return Ok((SimMetrics::default(), Vec::new()));
        }
        let cluster_cfg = &self.cfg.cluster;
        let mut cluster = Cluster::new(cluster_cfg.clone());
        let mut job_state = self.job_states(jobs);

        let FrozenKeys { keys, unknown_jobs } = self.policy.freeze(jobs);
        let downstream: Vec<Vec<i64>> = jobs.iter().map(|j| j.downstream_critical_path()).collect();
        // Dispatch order: (job key, job index, deeper downstream critical
        // path first). Total and strict over distinct (job, node) pairs.
        let dispatch_order = |a: &ReadyTask, b: &ReadyTask| {
            keys[a.job]
                .partial_cmp(&keys[b.job])
                .unwrap()
                .then(a.job.cmp(&b.job))
                .then(downstream[b.job][b.node].cmp(&downstream[a.job][a.node]))
                .then(a.node.cmp(&b.node))
        };

        let mut task_state: Vec<Vec<TaskState>> = jobs
            .iter()
            .map(|j| {
                (0..j.dag.len())
                    .map(|node| TaskState {
                        pending_parents: j.dag.in_degree(node),
                        waiting_instances: j.tasks[node].instances,
                        running_instances: 0,
                    })
                    .collect()
            })
            .collect();

        // Event queues.
        let mut arrivals: Vec<usize> = (0..jobs.len()).collect();
        arrivals.sort_by_key(|&i| (job_state[i].arrival, i));
        let mut next_arrival = 0usize;
        let mut finishes: BinaryHeap<Finish> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut trace_rows: Vec<InstanceRecord> = Vec::new();
        // Eviction bookkeeping: live instances per machine (youngest last)
        // and tombstones for killed-but-still-queued finish events.
        let mut live_on_machine: Vec<Vec<u64>> = vec![Vec::new(); cluster_cfg.machines];
        let mut live_info: HashMap<u64, (usize, usize)> = HashMap::new();
        let mut tombstones: HashSet<u64> = HashSet::new();
        let mut counters = Counters {
            unknown_jobs,
            ..Counters::default()
        };

        // `ready` holds tasks in dispatch order; tasks becoming ready land
        // in `fresh` and are merged in before each pass.
        let mut ready: Vec<ReadyTask> = Vec::new();
        let mut fresh: Vec<ReadyTask> = Vec::new();
        let mut still_ready: Vec<ReadyTask> = Vec::new();
        let mut busy_cpu = 0.0f64;
        let mut util_area = 0.0f64;
        let mut last_time = 0i64;
        let mut now;
        let mut reserved = vec![0.0f64; cluster_cfg.machines];
        let mut next_reconfig: Option<i64> = self.cfg.online_load.map(|_| 0i64);

        loop {
            let t_arr = arrivals.get(next_arrival).map(|&i| job_state[i].arrival);
            let t_fin = finishes.peek().map(|Reverse((t, ..))| *t);
            let work_remains = next_arrival < arrivals.len()
                || !finishes.is_empty()
                || !ready.is_empty()
                || !fresh.is_empty();
            let t_cfg = if work_remains { next_reconfig } else { None };
            now = match [t_arr, t_fin, t_cfg].into_iter().flatten().min() {
                Some(t) => t,
                None => break,
            };
            counters.events += 1;
            util_area += busy_cpu * (now - last_time) as f64;
            last_time = now;

            while next_arrival < arrivals.len() && job_state[arrivals[next_arrival]].arrival == now
            {
                let j = arrivals[next_arrival];
                next_arrival += 1;
                for (node, st) in task_state[j].iter().enumerate() {
                    if st.pending_parents == 0 {
                        fresh.push(ReadyTask { job: j, node });
                    }
                }
            }

            while let Some(Reverse((t, sq, j, node, machine, started))) = finishes.peek().copied() {
                if t != now {
                    break;
                }
                finishes.pop();
                if tombstones.remove(&sq) {
                    continue;
                }
                live_info.remove(&sq);
                if let Some(pos) = live_on_machine[machine].iter().position(|&x| x == sq) {
                    live_on_machine[machine].swap_remove(pos);
                }
                let task = &jobs[j].tasks[node];
                trace_rows.push(instance_record(&jobs[j], node, sq, machine, started, t));
                cluster.release(machine, task.cpu, task.mem);
                busy_cpu -= task.cpu;
                let st = &mut task_state[j][node];
                st.running_instances -= 1;
                if st.running_instances == 0 && st.waiting_instances == 0 {
                    job_state[j].finished_tasks += 1;
                    if job_state[j].finished_tasks == jobs[j].dag.len() {
                        job_state[j].finish_time = Some(now);
                    }
                    for &c in jobs[j].dag.children(node) {
                        let cs = &mut task_state[j][c as usize];
                        cs.pending_parents -= 1;
                        if cs.pending_parents == 0 {
                            fresh.push(ReadyTask {
                                job: j,
                                node: c as usize,
                            });
                        }
                    }
                }
            }

            if let (Some(load), Some(tc)) = (self.cfg.online_load, next_reconfig) {
                if tc == now {
                    let target = load.fraction_at(now) * cluster_cfg.cpu_per_machine;
                    for (m, r) in reserved.iter_mut().enumerate() {
                        let delta = target - *r;
                        if delta > 0.0 {
                            *r += cluster.reserve_cpu(m, delta);
                            while self.cfg.evict_for_online && target - *r > 1e-9 {
                                let Some(victim) = live_on_machine[m].pop() else {
                                    break;
                                };
                                let (vj, vnode) = live_info.remove(&victim).expect("live victim");
                                let vtask = &jobs[vj].tasks[vnode];
                                cluster.release(m, vtask.cpu, vtask.mem);
                                busy_cpu -= vtask.cpu;
                                tombstones.insert(victim);
                                counters.evictions += 1;
                                let vst = &mut task_state[vj][vnode];
                                vst.running_instances -= 1;
                                vst.waiting_instances += 1;
                                let rt = ReadyTask {
                                    job: vj,
                                    node: vnode,
                                };
                                if !ready.contains(&rt) && !fresh.contains(&rt) {
                                    fresh.push(rt);
                                }
                                *r += cluster.reserve_cpu(m, target - *r);
                            }
                        } else if delta < 0.0 {
                            cluster.unreserve_cpu(m, -delta);
                            *r = target;
                        }
                    }
                    next_reconfig = Some(now + 3_600);
                }
            }

            // Merge newcomers into the sorted queue, then walk all of it;
            // within one pass capacity only shrinks, so a demand dominating
            // an already-failed (cpu, mem) pair is skipped.
            if !fresh.is_empty() {
                fresh.sort_by(dispatch_order);
                let mut merged = Vec::with_capacity(ready.len() + fresh.len());
                let (mut i, mut j) = (0usize, 0usize);
                while i < ready.len() && j < fresh.len() {
                    if dispatch_order(&ready[i], &fresh[j]) != std::cmp::Ordering::Greater {
                        merged.push(ready[i]);
                        i += 1;
                    } else {
                        merged.push(fresh[j]);
                        j += 1;
                    }
                }
                merged.extend_from_slice(&ready[i..]);
                merged.extend_from_slice(&fresh[j..]);
                ready = merged;
                fresh.clear();
            }
            still_ready.clear();
            let mut failed: Vec<(f64, f64)> = Vec::new();
            for rt in ready.drain(..) {
                let task = &jobs[rt.job].tasks[rt.node];
                if failed.iter().any(|&(c, m)| task.cpu >= c && task.mem >= m) {
                    still_ready.push(rt);
                    continue;
                }
                let st = &mut task_state[rt.job][rt.node];
                while st.waiting_instances > 0 {
                    match cluster.place(task.cpu, task.mem) {
                        Some(machine) => {
                            st.waiting_instances -= 1;
                            st.running_instances += 1;
                            busy_cpu += task.cpu;
                            seq += 1;
                            live_on_machine[machine].push(seq);
                            live_info.insert(seq, (rt.job, rt.node));
                            finishes.push(Reverse((
                                now + task.duration.max(1),
                                seq,
                                rt.job,
                                rt.node,
                                machine,
                                now,
                            )));
                        }
                        None => break,
                    }
                }
                if st.waiting_instances > 0 {
                    failed.retain(|&(c, m)| !(c >= task.cpu && m >= task.mem));
                    failed.push((task.cpu, task.mem));
                    still_ready.push(rt);
                }
            }
            std::mem::swap(&mut ready, &mut still_ready);
        }

        let metrics = self.metrics(jobs, &job_state, util_area, counters)?;
        Ok((metrics, trace_rows))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::policy::{Policy, Predictions, DEFAULT_MIN_CONFIDENCE};
    use crate::profile::{GroupPredictor, JobHint, ProfileBuilder};
    use crate::sim::{OnlineLoad, SimConfig};
    use crate::workload::SimTask;
    use dagscope_graph::JobDag;
    use dagscope_trace::gen::{build_shape, ShapeKind};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Seeded workloads compared per seed; each runs every policy on
    /// several cluster shapes.
    const CASES: u64 = 64;
    const CPU: f64 = 400.0;
    const MEM: f64 = 4.0;
    /// Per-instance demands: several sizes, memory up to near a machine's
    /// capacity so memory binds as often as CPU does.
    const CPUS: [f64; 6] = [25.0, 50.0, 100.0, 150.0, 250.0, 350.0];
    const MEMS: [f64; 7] = [0.1, 0.25, 0.5, 1.0, 2.0, 3.5, 3.9];

    fn workload(rng: &mut StdRng) -> Vec<SimJob> {
        let jobs = rng.random_range(1..40usize);
        // Long instances now and then, so some run across the online
        // load's hourly re-evaluations and get evicted. They stay shorter
        // than the daily low-load window: an instance that outlasts it is
        // evicted every day and the run never ends.
        let long = rng.random_bool(0.5);
        (0..jobs)
            .map(|i| {
                let shape = ShapeKind::ALL[rng.random_range(0..ShapeKind::ALL.len())];
                let n = rng.random_range(1..=8usize);
                let dag = JobDag::from_plan(&format!("j_{i}"), &build_shape(rng, shape, n));
                let tasks = (0..dag.len())
                    .map(|node| SimTask {
                        node,
                        instances: rng.random_range(1..=6),
                        cpu: CPUS[rng.random_range(0..CPUS.len())],
                        mem: MEMS[rng.random_range(0..MEMS.len())],
                        duration: if long && rng.random_bool(0.2) {
                            rng.random_range(3_000..12_000)
                        } else {
                            rng.random_range(0..400)
                        },
                    })
                    .collect();
                SimJob {
                    name: dag.name.clone(),
                    arrival: rng.random_range(0..6_000),
                    dag,
                    tasks,
                }
            })
            .collect()
    }

    /// All seven policies. Predictions and hints cover only some jobs, so
    /// the unknown-job fallbacks are exercised too.
    fn policies(rng: &mut StdRng, jobs: &[SimJob]) -> Vec<Policy> {
        let mut predictions = Predictions::new();
        let mut builder = ProfileBuilder::new(3);
        for (i, job) in jobs.iter().enumerate() {
            if rng.random_bool(0.7) {
                predictions.insert(job.name.as_str(), rng.random_range(0..5) as f64 * 1e4);
            }
            builder.observe(i % 3, job);
        }
        let mut predictor = GroupPredictor::new(builder.finish(&['A', 'B', 'C']));
        for job in jobs {
            if rng.random_bool(0.8) {
                let hint = JobHint {
                    cluster: rng.random_range(0..3),
                    confidence: rng.random_range(0.0..1.0),
                };
                predictor.insert_hint(job.name.as_str(), hint);
            }
        }
        let predictor = Arc::new(predictor);
        vec![
            Policy::Fifo,
            Policy::SjfOracle,
            Policy::CriticalPathOracle,
            Policy::PredictedSjf { predictions },
            Policy::GroupSjf {
                predictor: Arc::clone(&predictor),
            },
            Policy::GroupCriticalPath {
                predictor: Arc::clone(&predictor),
            },
            Policy::GroupHybrid {
                predictor,
                min_confidence: DEFAULT_MIN_CONFIDENCE,
            },
        ]
    }

    /// Run every seeded workload under every policy on `1 + seed % 6`
    /// machines, by both simulators, and panic on the first difference
    /// with the seed and the workload (the test has no shrinking, so the
    /// seed is what reproduces a failure). Returns the number of runs that
    /// evicted.
    fn compare(online_load: Option<OnlineLoad>, evict_for_online: bool) -> usize {
        let mut evicting_runs = 0;
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let jobs = workload(&mut rng);
            let cfg = SimConfig {
                cluster: ClusterConfig {
                    machines: 1 + seed as usize % 6,
                    cpu_per_machine: CPU,
                    mem_per_machine: MEM,
                },
                arrival_compression: 1.0,
                online_load,
                evict_for_online,
            };
            for policy in policies(&mut rng, &jobs) {
                let sim = Simulator::new(cfg.clone(), policy);
                let want = sim.run_reference(&jobs);
                let got = sim.run_with_trace(&jobs);
                let plain = sim.run(&jobs);
                let plain_agrees = match (&plain, &want) {
                    (Ok(p), Ok((w, _))) => p == w,
                    (Err(p), Err(w)) => p == w,
                    _ => false,
                };
                if got == want && plain_agrees {
                    evicting_runs += usize::from(want.is_ok_and(|(m, _)| m.evictions > 0));
                    continue;
                }
                let difference = match (&got, &want) {
                    (Ok((gm, gr)), Ok((wm, wr))) => {
                        match gr.iter().zip(wr).position(|(g, w)| g != w) {
                            _ if gm != wm => format!("metrics {gm:?}\nreference {wm:?}"),
                            Some(i) => format!("row {i}: {:?}\nreference {:?}", gr[i], wr[i]),
                            None if gr.len() != wr.len() => {
                                format!("{} rows, reference {}", gr.len(), wr.len())
                            }
                            None => format!("run() gave {plain:?}"),
                        }
                    }
                    _ => format!(
                        "{:?}\nreference {:?}",
                        got.map(|(m, _)| m),
                        want.map(|(m, _)| m)
                    ),
                };
                panic!(
                    "simulators disagree at seed {seed}, policy {}, {cfg:?}: {difference}\nworkload: {jobs:#?}",
                    sim.policy.label()
                );
            }
        }
        evicting_runs
    }

    const ONLINE: OnlineLoad = OnlineLoad {
        trough: 0.05,
        peak: 0.35,
    };

    #[test]
    fn rank_tree_dispatch_matches_the_backlog_walk() {
        compare(None, false);
    }

    #[test]
    fn rank_tree_dispatch_matches_under_online_load() {
        compare(Some(ONLINE), false);
    }

    #[test]
    fn rank_tree_dispatch_matches_with_eviction() {
        let evicting_runs = compare(Some(ONLINE), true);
        assert!(
            evicting_runs > CASES as usize,
            "eviction barely exercised: {evicting_runs} runs"
        );
    }
}
