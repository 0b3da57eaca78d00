//! The discrete-event simulation loop.
//!
//! # Dispatch
//!
//! Every event (arrivals, finishes, an online-load reconfiguration) ends
//! with one dispatch pass: in frozen policy order, place every instance
//! of every ready task that fits somewhere, next-fit from the cluster's
//! cursor. The pass visits only tasks that can fit, and still places
//! exactly what a walk over the whole backlog would:
//!
//! * **Static rank.** Policy keys are frozen at admission, so the
//!   dispatch order `(job key, job index, downstream critical path
//!   descending, node)` over all `(job, node)` pairs never changes. It is
//!   sorted once; the ready set is a set of ranks.
//! * **Capacity only shrinks within a pass**, so a task that cannot fit
//!   when the pass reaches it cannot fit later in the same pass.
//! * **A failed [`Cluster::place`] leaves the cursor unchanged**, so
//!   skipping a task that cannot fit is indistinguishable from trying it.
//!
//! The pass is therefore: in rank order, place every instance that fits
//! and leave every task that cannot fit untouched. Ready tasks sit in a
//! segment tree over ranks (`ReadyTree`) whose nodes hold the least CPU
//! and the least memory any ready task below them asks for. A staircase
//! of the machines' free `(cpu, mem)` vectors answers "does this fit
//! anywhere?" with the same `>=` tests `place` makes, so the pass
//! repeatedly takes the leftmost ready rank after the last one visited,
//! skipping every subtree whose `(min cpu, min mem)` fits no machine, and
//! runs the next-fit loop on it. It ends when the root does not fit.
//!
//! Cost per pass: O((placed tasks + pruned misses) · log T) tree steps
//! for T tasks, each a binary search of the staircase — independent of
//! the backlog of ready tasks that cannot fit, which a linear walk paid
//! for on every event. A `#[cfg(test)]` reference simulator keeps that
//! walk and a seeded test compares the two field for field.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cluster::{Cluster, ClusterConfig, Staircase};
use crate::metrics::SimMetrics;
use crate::policy::{FrozenKeys, Policy};
use crate::workload::SimJob;
use dagscope_trace::InstanceRecord;

#[cfg(test)]
mod reference;

/// Diurnal online-service load co-located with the batch workload
/// (Section II: online jobs outrank batch, which backfills what is left).
///
/// The reserved CPU fraction on every machine follows a sinusoid between
/// `trough` and `peak` with a 24 h period (peak in the early evening),
/// re-evaluated hourly. Running batch instances are never evicted; the
/// reservation claims freed capacity first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineLoad {
    /// Minimum reserved CPU fraction (deep night).
    pub trough: f64,
    /// Maximum reserved CPU fraction (evening peak).
    pub peak: f64,
}

impl OnlineLoad {
    /// Target reserved fraction at simulation time `t` (seconds).
    pub fn fraction_at(&self, t: i64) -> f64 {
        let day = (t.rem_euclid(86_400)) as f64 / 86_400.0;
        let mid = 0.5 * (self.peak + self.trough);
        let amp = 0.5 * (self.peak - self.trough);
        (mid + amp * (std::f64::consts::TAU * (day - 0.55)).sin()).clamp(0.0, 0.95)
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cluster shape.
    pub cluster: ClusterConfig,
    /// Divide all arrival offsets by this factor (> 1 compresses an 8-day
    /// trace so a small cluster actually experiences contention).
    pub arrival_compression: f64,
    /// Co-located online load stealing capacity from batch, if any.
    pub online_load: Option<OnlineLoad>,
    /// When the online reservation cannot be satisfied from free capacity,
    /// kill the youngest running batch instances on the machine and requeue
    /// them (Section II-B: "the running batch jobs may be suspended or
    /// killed … they are then rescheduled"). Work done by an evicted
    /// instance is lost; it restarts from scratch elsewhere.
    pub evict_for_online: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cluster: ClusterConfig::default(),
            arrival_compression: 1.0,
            online_load: None,
            evict_for_online: false,
        }
    }
}

/// Per-task runtime state.
#[derive(Debug, Clone)]
struct TaskState {
    /// Unsatisfied dependencies.
    pending_parents: usize,
    /// Instances not yet placed.
    waiting_instances: u32,
    /// Instances placed but not finished.
    running_instances: u32,
}

/// Per-job runtime state.
#[derive(Debug, Clone)]
struct JobState {
    arrival: i64,
    finished_tasks: usize,
    finish_time: Option<i64>,
}

/// A queued finish event:
/// `(finish_time, seq, job, node, machine, start_time)`.
type Finish = Reverse<(i64, u64, usize, usize, usize, i64)>;

/// Ready tasks keyed by static dispatch rank: a segment tree whose every
/// node holds the least CPU and the least memory demand among the ready
/// tasks below it (`+inf` where none is ready). The two minima may come
/// from different tasks, so a fitting node only *may* hold a fitting task;
/// a node that does not fit holds none.
#[derive(Debug)]
struct ReadyTree {
    /// Leaf count, a power of two; node 1 is the root, node `i` has
    /// children `2i` and `2i + 1`, rank `r` is leaf `leaves + r`.
    leaves: usize,
    min: Vec<[f64; 2]>,
    len: usize,
}

impl ReadyTree {
    const EMPTY: [f64; 2] = [f64::INFINITY; 2];

    fn new(ranks: usize) -> ReadyTree {
        let leaves = ranks.next_power_of_two();
        ReadyTree {
            leaves,
            min: vec![Self::EMPTY; 2 * leaves],
            len: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn insert(&mut self, rank: usize, cpu: f64, mem: f64) {
        self.len += 1;
        self.set(rank, [cpu, mem]);
    }

    fn remove(&mut self, rank: usize) {
        self.len -= 1;
        self.set(rank, Self::EMPTY);
    }

    fn set(&mut self, rank: usize, demand: [f64; 2]) {
        let mut i = self.leaves + rank;
        self.min[i] = demand;
        while i > 1 {
            i /= 2;
            let (l, r) = (self.min[2 * i], self.min[2 * i + 1]);
            self.min[i] = [l[0].min(r[0]), l[1].min(r[1])];
        }
    }

    /// The leftmost ready rank `>= from` whose demand `fits`.
    fn next_fit(&self, from: usize, fits: &impl Fn(f64, f64) -> bool) -> Option<usize> {
        self.find(1, 0, self.leaves, from, fits)
    }

    fn find(
        &self,
        node: usize,
        lo: usize,
        width: usize,
        from: usize,
        fits: &impl Fn(f64, f64) -> bool,
    ) -> Option<usize> {
        let [cpu, mem] = self.min[node];
        if lo + width <= from || !fits(cpu, mem) {
            return None;
        }
        if width == 1 {
            return Some(lo);
        }
        let half = width / 2;
        self.find(2 * node, lo, half, from, fits)
            .or_else(|| self.find(2 * node + 1, lo + half, half, from, fits))
    }
}

/// Eviction bookkeeping, kept only when eviction is on. Each machine
/// lists its live instance seqs, youngest pushed last; a finish
/// `swap_remove`s its entry and an eviction pops the last one, so the
/// list order (and with it every victim choice) is part of the schedule.
/// Per instance seq: its `(job, node)` and its slot in that list, or
/// `EVICTED` — the tombstone its still-queued finish event is dropped by.
#[derive(Debug)]
struct LiveSet {
    on_machine: Vec<Vec<u64>>,
    task: Vec<(u32, u32)>,
    slot: Vec<u32>,
}

impl LiveSet {
    const EVICTED: u32 = u32::MAX;

    fn new(machines: usize) -> LiveSet {
        // Seqs start at 1; entry 0 is a placeholder.
        LiveSet {
            on_machine: vec![Vec::new(); machines],
            task: vec![(0, 0)],
            slot: vec![Self::EVICTED],
        }
    }

    fn start(&mut self, seq: u64, machine: usize, job: usize, node: usize) {
        debug_assert_eq!(seq as usize, self.task.len());
        let list = &mut self.on_machine[machine];
        self.slot.push(list.len() as u32);
        self.task.push((job as u32, node as u32));
        list.push(seq);
    }

    /// Retire a finished instance; `false` when it was evicted earlier
    /// (its capacity is already back).
    fn finish(&mut self, seq: u64, machine: usize) -> bool {
        let pos = self.slot[seq as usize];
        if pos == Self::EVICTED {
            return false;
        }
        let list = &mut self.on_machine[machine];
        list.swap_remove(pos as usize);
        if let Some(&moved) = list.get(pos as usize) {
            self.slot[moved as usize] = pos;
        }
        true
    }

    /// Kill the youngest live instance on `machine`: its `(job, node)`.
    fn evict_youngest(&mut self, machine: usize) -> Option<(usize, usize)> {
        let victim = self.on_machine[machine].pop()? as usize;
        self.slot[victim] = Self::EVICTED;
        let (job, node) = self.task[victim];
        Some((job as usize, node as usize))
    }
}

/// The simulator. Deterministic: identical inputs produce identical
/// schedules regardless of platform.
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
    policy: Policy,
}

impl Simulator {
    /// Create a simulator with the given configuration and policy.
    pub fn new(cfg: SimConfig, policy: Policy) -> Simulator {
        Simulator { cfg, policy }
    }

    /// Run the workload to completion and return the metrics.
    ///
    /// Errors if any instance could never fit an empty machine (the
    /// workload would deadlock).
    pub fn run(&self, jobs: &[SimJob]) -> Result<SimMetrics, String> {
        self.run_impl(jobs, false).map(|(m, _)| m)
    }

    /// Like [`run`](Self::run), but also emit a `batch_instance`-schema
    /// record per placed instance — the simulated counterpart of the
    /// trace's instance file, consumable by
    /// `dagscope_trace::placement::PlacementStats`.
    pub fn run_with_trace(
        &self,
        jobs: &[SimJob],
    ) -> Result<(SimMetrics, Vec<InstanceRecord>), String> {
        self.run_impl(jobs, true)
    }

    /// Reject instances that could never fit an empty machine: with online
    /// load, an instance must fit in the most-free hour of the day, or the
    /// workload can never finish.
    fn check_capacity(&self, jobs: &[SimJob]) -> Result<(), String> {
        let cluster_cfg = &self.cfg.cluster;
        let min_reserved_frac = self.cfg.online_load.map_or(0.0, |load| {
            (0..24)
                .map(|h| load.fraction_at(h * 3_600))
                .fold(f64::INFINITY, f64::min)
        });
        let usable_cpu = (1.0 - min_reserved_frac) * cluster_cfg.cpu_per_machine;
        for job in jobs {
            for t in &job.tasks {
                if t.cpu > usable_cpu || t.mem > cluster_cfg.mem_per_machine {
                    return Err(format!(
                        "job {} task {} instance ({} cpu, {} mem) exceeds machine capacity",
                        job.name, t.node, t.cpu, t.mem
                    ));
                }
            }
        }
        Ok(())
    }

    /// Initial job states, arrivals compressed and shifted so the first
    /// arrival is at time zero.
    fn job_states(&self, jobs: &[SimJob]) -> Vec<JobState> {
        let min_arrival = jobs.iter().map(|j| j.arrival).min().unwrap_or(0);
        jobs.iter()
            .map(|j| JobState {
                arrival: ((j.arrival - min_arrival) as f64 / self.cfg.arrival_compression.max(1e-9))
                    as i64,
                finished_tasks: 0,
                finish_time: None,
            })
            .collect()
    }

    /// Metrics of a finished run; errors when some job never completed.
    fn metrics(
        &self,
        jobs: &[SimJob],
        job_state: &[JobState],
        util_area: f64,
        counters: Counters,
    ) -> Result<SimMetrics, String> {
        if let Some(stuck) = job_state.iter().position(|s| s.finish_time.is_none()) {
            return Err(format!(
                "job {} never completed (scheduler stuck)",
                jobs[stuck].name
            ));
        }
        let jcts: Vec<i64> = job_state
            .iter()
            .map(|s| s.finish_time.unwrap() - s.arrival)
            .collect();
        let makespan = job_state
            .iter()
            .map(|s| s.finish_time.unwrap())
            .max()
            .unwrap_or(0);
        let total_cpu = self.cfg.cluster.cpu_per_machine * self.cfg.cluster.machines as f64;
        let mean_util = if makespan > 0 {
            util_area / (makespan as f64 * total_cpu)
        } else {
            0.0
        };
        let mut metrics = SimMetrics::from_jcts(self.policy.label(), jcts, makespan, mean_util);
        metrics.evictions = counters.evictions;
        metrics.unknown_jobs = counters.unknown_jobs;
        metrics.events = counters.events;
        Ok(metrics)
    }

    fn run_impl(
        &self,
        jobs: &[SimJob],
        record_trace: bool,
    ) -> Result<(SimMetrics, Vec<InstanceRecord>), String> {
        self.check_capacity(jobs)?;
        if jobs.is_empty() {
            return Ok((SimMetrics::default(), Vec::new()));
        }
        let cluster_cfg = &self.cfg.cluster;
        let mut cluster = Cluster::new(cluster_cfg.clone());
        let mut job_state = self.job_states(jobs);

        // Job-level policy keys, frozen at admission; the policy reports
        // how many jobs it had no usable prediction for.
        let FrozenKeys { keys, unknown_jobs } = self.policy.freeze(jobs);
        let downstream: Vec<Vec<i64>> = jobs.iter().map(|j| j.downstream_critical_path()).collect();

        // Tasks are numbered flat: job `j`'s node `n` is `base[j] + n`.
        let mut base = Vec::with_capacity(jobs.len() + 1);
        base.push(0usize);
        for job in jobs {
            base.push(base[base.len() - 1] + job.dag.len());
        }
        let task_count = base[jobs.len()];
        assert!(
            jobs.len() <= u32::MAX as usize && task_count <= u32::MAX as usize,
            "workload too large for u32 task ids"
        );

        // Static dispatch rank: (job key, job index, deeper downstream
        // critical path first, node). Total and strict over distinct
        // (job, node) pairs.
        let mut by_rank: Vec<(u32, u32)> = jobs
            .iter()
            .enumerate()
            .flat_map(|(j, job)| (0..job.dag.len() as u32).map(move |n| (j as u32, n)))
            .collect();
        by_rank.sort_by(|&(ja, na), &(jb, nb)| {
            let (ja, na, jb, nb) = (ja as usize, na as usize, jb as usize, nb as usize);
            keys[ja]
                .partial_cmp(&keys[jb])
                .unwrap()
                .then(ja.cmp(&jb))
                .then(downstream[jb][nb].cmp(&downstream[ja][na]))
                .then(na.cmp(&nb))
        });
        let mut rank_of = vec![0u32; task_count];
        for (rank, &(j, n)) in by_rank.iter().enumerate() {
            rank_of[base[j as usize] + n as usize] = rank as u32;
        }

        let mut task_state: Vec<TaskState> = jobs
            .iter()
            .flat_map(|j| {
                (0..j.dag.len()).map(|node| TaskState {
                    pending_parents: j.dag.in_degree(node),
                    waiting_instances: j.tasks[node].instances,
                    running_instances: 0,
                })
            })
            .collect();
        let mut ready = ReadyTree::new(task_count);
        // A task enters the ready tree when it has no pending parent and
        // an instance waiting, and leaves when its last one is placed.
        let mark_ready = |ready: &mut ReadyTree, j: usize, node: usize, st: &TaskState| {
            if st.waiting_instances > 0 {
                let task = &jobs[j].tasks[node];
                ready.insert(rank_of[base[j] + node] as usize, task.cpu, task.mem);
            }
        };
        let mut stairs = Staircase::default();

        // Event queues.
        let mut arrivals: Vec<usize> = (0..jobs.len()).collect();
        arrivals.sort_by_key(|&i| (job_state[i].arrival, i));
        let mut next_arrival = 0usize;
        let mut finishes: BinaryHeap<Finish> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut trace_rows: Vec<InstanceRecord> = Vec::new();
        let mut live = self
            .cfg
            .evict_for_online
            .then(|| LiveSet::new(cluster_cfg.machines));
        let mut counters = Counters {
            unknown_jobs,
            ..Counters::default()
        };

        let mut busy_cpu = 0.0f64;
        let mut util_area = 0.0f64;
        let mut last_time = 0i64;
        let mut now;
        // Online-load reservation state: hourly reconfiguration events.
        let mut reserved = vec![0.0f64; cluster_cfg.machines];
        let mut next_reconfig: Option<i64> = self.cfg.online_load.map(|_| 0i64);

        loop {
            // Next event time: arrival, finish, or (while work remains) a
            // reservation reconfiguration.
            let t_arr = arrivals.get(next_arrival).map(|&i| job_state[i].arrival);
            let t_fin = finishes.peek().map(|Reverse((t, ..))| *t);
            let work_remains =
                next_arrival < arrivals.len() || !finishes.is_empty() || !ready.is_empty();
            let t_cfg = if work_remains { next_reconfig } else { None };
            now = match [t_arr, t_fin, t_cfg].into_iter().flatten().min() {
                Some(t) => t,
                None => break,
            };
            counters.events += 1;
            util_area += busy_cpu * (now - last_time) as f64;
            last_time = now;

            // Process arrivals at `now`.
            while next_arrival < arrivals.len() && job_state[arrivals[next_arrival]].arrival == now
            {
                let j = arrivals[next_arrival];
                next_arrival += 1;
                for node in 0..jobs[j].dag.len() {
                    let st = &task_state[base[j] + node];
                    if st.pending_parents == 0 {
                        mark_ready(&mut ready, j, node, st);
                    }
                }
            }

            // Process finishes at `now`.
            while let Some(Reverse((t, sq, j, node, machine, started))) = finishes.peek().copied() {
                if t != now {
                    break;
                }
                finishes.pop();
                if let Some(live) = &mut live {
                    if !live.finish(sq, machine) {
                        continue; // evicted earlier; capacity already returned
                    }
                }
                let task = &jobs[j].tasks[node];
                if record_trace {
                    trace_rows.push(instance_record(&jobs[j], node, sq, machine, started, t));
                }
                cluster.release(machine, task.cpu, task.mem);
                busy_cpu -= task.cpu;
                let st = &mut task_state[base[j] + node];
                st.running_instances -= 1;
                if st.running_instances == 0 && st.waiting_instances == 0 {
                    // Task complete.
                    job_state[j].finished_tasks += 1;
                    if job_state[j].finished_tasks == jobs[j].dag.len() {
                        job_state[j].finish_time = Some(now);
                    }
                    for &c in jobs[j].dag.children(node) {
                        let cs = &mut task_state[base[j] + c as usize];
                        cs.pending_parents -= 1;
                        if cs.pending_parents == 0 {
                            mark_ready(&mut ready, j, c as usize, cs);
                        }
                    }
                }
            }

            // Re-evaluate the online reservation *after* finishes free
            // capacity and *before* batch dispatch — online load has
            // priority over batch (Section II).
            if let (Some(load), Some(tc)) = (self.cfg.online_load, next_reconfig) {
                if tc == now {
                    let target = load.fraction_at(now) * cluster_cfg.cpu_per_machine;
                    for (m, r) in reserved.iter_mut().enumerate() {
                        let delta = target - *r;
                        if delta > 0.0 {
                            *r += cluster.reserve_cpu(m, delta);
                            // Shortfall: online load outranks batch — evict
                            // youngest batch instances until satisfied.
                            while self.cfg.evict_for_online && target - *r > 1e-9 {
                                let Some((vj, vnode)) =
                                    live.as_mut().and_then(|live| live.evict_youngest(m))
                                else {
                                    break;
                                };
                                let vtask = &jobs[vj].tasks[vnode];
                                cluster.release(m, vtask.cpu, vtask.mem);
                                busy_cpu -= vtask.cpu;
                                counters.evictions += 1;
                                let vst = &mut task_state[base[vj] + vnode];
                                vst.running_instances -= 1;
                                vst.waiting_instances += 1;
                                // Already queued unless nothing was waiting.
                                if vst.waiting_instances == 1 {
                                    mark_ready(&mut ready, vj, vnode, vst);
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

            // Dispatch: every ready task that fits somewhere, in rank
            // order (see the module docs for why this is the full pass).
            if ready.is_empty() {
                continue;
            }
            stairs.rebuild(&cluster);
            let mut from = 0;
            while let Some(rank) = ready.next_fit(from, &|c, m| stairs.fits(c, m)) {
                from = rank + 1;
                let (j, node) = (by_rank[rank].0 as usize, by_rank[rank].1 as usize);
                let task = &jobs[j].tasks[node];
                let st = &mut task_state[base[j] + node];
                while st.waiting_instances > 0 {
                    match cluster.place(task.cpu, task.mem) {
                        Some(machine) => {
                            st.waiting_instances -= 1;
                            st.running_instances += 1;
                            busy_cpu += task.cpu;
                            seq += 1;
                            if let Some(live) = &mut live {
                                live.start(seq, machine, j, node);
                            }
                            finishes.push(Reverse((
                                now + task.duration.max(1),
                                seq,
                                j,
                                node,
                                machine,
                                now,
                            )));
                        }
                        None => break,
                    }
                }
                if st.waiting_instances == 0 {
                    ready.remove(rank);
                }
                stairs.rebuild(&cluster);
            }
        }

        let metrics = self.metrics(jobs, &job_state, util_area, counters)?;
        Ok((metrics, trace_rows))
    }
}

/// Run-wide counters that end up in [`SimMetrics`].
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    evictions: u64,
    unknown_jobs: u64,
    events: u64,
}

/// The `batch_instance` row of one finished instance.
fn instance_record(
    job: &SimJob,
    node: usize,
    seq: u64,
    machine: usize,
    started: i64,
    ended: i64,
) -> InstanceRecord {
    let task = &job.tasks[node];
    InstanceRecord {
        instance_name: format!("{}_{}_{}", job.name, node, seq),
        task_name: job.dag.task_name(node).to_string(),
        job_name: job.name.clone(),
        task_type: "1".into(),
        status: dagscope_trace::Status::Terminated,
        start_time: started,
        end_time: ended,
        machine_id: format!("m_{}", machine + 1).into(),
        seq_no: 1,
        total_seq_no: 1,
        cpu_avg: task.cpu * 0.7,
        cpu_max: task.cpu,
        mem_avg: task.mem * 0.7,
        mem_max: task.mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagscope_trace::{Job, Status, TaskRecord};

    fn record(job: &str, name: &str, instances: u32, start: i64, dur: i64) -> TaskRecord {
        TaskRecord {
            task_name: name.into(),
            instance_num: instances,
            job_name: job.into(),
            task_type: "1".into(),
            status: Status::Terminated,
            start_time: start.max(1),
            end_time: start.max(1) + dur,
            plan_cpu: 100.0,
            plan_mem: 0.5,
        }
    }

    fn sim_job(name: &str, arrival: i64, specs: &[(&str, u32, i64)]) -> SimJob {
        SimJob::from_trace_job(&Job {
            name: name.into(),
            tasks: specs
                .iter()
                .map(|(n, i, d)| record(name, n, *i, arrival, *d))
                .collect(),
        })
        .unwrap()
    }

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            cluster: ClusterConfig {
                machines: 2,
                cpu_per_machine: 200.0,
                mem_per_machine: 2.0,
            },
            arrival_compression: 1.0,
            online_load: None,
            evict_for_online: false,
        }
    }

    #[test]
    fn single_chain_takes_critical_path() {
        // Uncontended: JCT equals the weighted critical path.
        let job = sim_job("j_1", 100, &[("M1", 1, 30), ("R2_1", 1, 50)]);
        let m = Simulator::new(tiny_cfg(), Policy::Fifo)
            .run(&[job])
            .unwrap();
        assert_eq!(m.jobs, 1);
        assert_eq!(m.mean_jct, 80.0);
        assert_eq!(m.makespan, 80);
    }

    #[test]
    fn parallel_instances_run_concurrently() {
        // 4 instances of 100 cpu on 2×200 machines: all fit at once.
        let job = sim_job("j_1", 0, &[("M1", 4, 10)]);
        let m = Simulator::new(tiny_cfg(), Policy::Fifo)
            .run(&[job])
            .unwrap();
        assert_eq!(m.mean_jct, 10.0);
    }

    #[test]
    fn capacity_forces_waves() {
        // 8 instances, only 4 fit at a time → two waves of 10 s.
        let job = sim_job("j_1", 0, &[("M1", 8, 10)]);
        let m = Simulator::new(tiny_cfg(), Policy::Fifo)
            .run(&[job])
            .unwrap();
        assert_eq!(m.mean_jct, 20.0);
    }

    #[test]
    fn dependencies_respected() {
        // Diamond: M1 then two parallel R, then sink. CP = 10+20+5.
        let job = sim_job(
            "j_1",
            0,
            &[
                ("M1", 1, 10),
                ("R2_1", 1, 20),
                ("R3_1", 1, 20),
                ("R4_3_2", 1, 5),
            ],
        );
        let m = Simulator::new(tiny_cfg(), Policy::Fifo)
            .run(&[job])
            .unwrap();
        assert_eq!(m.mean_jct, 35.0);
    }

    #[test]
    fn sjf_beats_fifo_on_mean_jct_under_contention() {
        // A long job arrives just before many short ones on a tight
        // cluster. FIFO makes the short jobs wait; SJF does not.
        let mut jobs = vec![sim_job("j_long", 0, &[("M1", 4, 1_000)])];
        for i in 0..6 {
            jobs.push(sim_job(&format!("j_s{i}"), 1, &[("M1", 4, 10)]));
        }
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines: 1,
                cpu_per_machine: 400.0,
                mem_per_machine: 4.0,
            },
            arrival_compression: 1.0,
            online_load: None,
            evict_for_online: false,
        };
        let fifo = Simulator::new(cfg.clone(), Policy::Fifo)
            .run(&jobs)
            .unwrap();
        let sjf = Simulator::new(cfg, Policy::SjfOracle).run(&jobs).unwrap();
        assert!(
            sjf.mean_jct < fifo.mean_jct / 2.0,
            "sjf {} vs fifo {}",
            sjf.mean_jct,
            fifo.mean_jct
        );
        // Work conservation: the makespan is identical.
        assert_eq!(sjf.makespan, fifo.makespan);
    }

    #[test]
    fn predicted_sjf_between_fifo_and_oracle() {
        use crate::policy::Predictions;
        let mut jobs = vec![sim_job("j_long", 0, &[("M1", 4, 800)])];
        for i in 0..5 {
            jobs.push(sim_job(
                &format!("j_s{i}"),
                1,
                &[("M1", 2, 10), ("R2_1", 1, 10)],
            ));
        }
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines: 1,
                cpu_per_machine: 400.0,
                mem_per_machine: 4.0,
            },
            arrival_compression: 1.0,
            online_load: None,
            evict_for_online: false,
        };
        // Perfect predictions → same as oracle SJF on these jobs.
        let mut predictions = Predictions::new();
        for j in &jobs {
            predictions.insert(j.name.as_str(), j.total_work());
        }
        let fifo = Simulator::new(cfg.clone(), Policy::Fifo)
            .run(&jobs)
            .unwrap();
        let pred = Simulator::new(cfg.clone(), Policy::PredictedSjf { predictions })
            .run(&jobs)
            .unwrap();
        let oracle = Simulator::new(cfg, Policy::SjfOracle).run(&jobs).unwrap();
        assert!(pred.mean_jct <= fifo.mean_jct);
        assert!((pred.mean_jct - oracle.mean_jct).abs() < 1e-9);
    }

    #[test]
    fn oversized_instance_rejected() {
        let job = sim_job("j_1", 0, &[("M1", 1, 10)]);
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines: 1,
                cpu_per_machine: 50.0,
                mem_per_machine: 1.0,
            },
            arrival_compression: 1.0,
            online_load: None,
            evict_for_online: false,
        };
        let err = Simulator::new(cfg, Policy::Fifo).run(&[job]).unwrap_err();
        assert!(err.contains("exceeds machine capacity"));
    }

    #[test]
    fn empty_workload() {
        let m = Simulator::new(tiny_cfg(), Policy::Fifo).run(&[]).unwrap();
        assert_eq!(m.jobs, 0);
        assert_eq!(m.makespan, 0);
    }

    #[test]
    fn arrival_compression_shifts_contention() {
        let jobs: Vec<SimJob> = (0..4)
            .map(|i| sim_job(&format!("j_{i}"), i * 10_000, &[("M1", 4, 100)]))
            .collect();
        let spread = Simulator::new(tiny_cfg(), Policy::Fifo).run(&jobs).unwrap();
        let cfg = SimConfig {
            arrival_compression: 10_000.0,
            ..tiny_cfg()
        };
        let squeezed = Simulator::new(cfg, Policy::Fifo).run(&jobs).unwrap();
        // Compressed arrivals → queueing → higher mean JCT.
        assert!(squeezed.mean_jct > spread.mean_jct);
        assert!(squeezed.makespan < spread.makespan);
    }

    #[test]
    fn run_with_trace_emits_every_instance() {
        let job = sim_job("j_1", 0, &[("M1", 4, 10), ("R2_1", 2, 20)]);
        let (m, rows) = Simulator::new(tiny_cfg(), Policy::Fifo)
            .run_with_trace(&[job])
            .unwrap();
        assert_eq!(m.jobs, 1);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.end_time >= r.start_time);
            assert!(r.machine_id.starts_with("m_"));
            assert!(r.cpu_max >= r.cpu_avg);
        }
        // The emitted rows feed the placement analysis directly.
        let stats = dagscope_trace::placement::PlacementStats::compute(&rows);
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.instances, 6);
        // Plain run() matches run_with_trace metrics.
        let job2 = sim_job("j_1", 0, &[("M1", 4, 10), ("R2_1", 2, 20)]);
        let only = Simulator::new(tiny_cfg(), Policy::Fifo)
            .run(&[job2])
            .unwrap();
        assert_eq!(only, m);
    }

    #[test]
    fn online_load_fraction_bounds() {
        let load = OnlineLoad {
            trough: 0.2,
            peak: 0.7,
        };
        for h in 0..24 {
            let f = load.fraction_at(h * 3_600);
            assert!((0.15..=0.75).contains(&f), "hour {h}: {f}");
        }
        // Period is 24 h.
        assert_eq!(load.fraction_at(3_600), load.fraction_at(3_600 + 86_400));
        // Degenerate flat load.
        let flat = OnlineLoad {
            trough: 0.5,
            peak: 0.5,
        };
        assert!((flat.fraction_at(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn online_load_slows_batch() {
        // A steady stream of jobs on a small cluster; reserving half the
        // CPU for online services must raise batch completion times.
        let jobs: Vec<SimJob> = (0..20)
            .map(|i| {
                sim_job(
                    &format!("j_{i}"),
                    i * 50,
                    &[("M1", 6, 400), ("R2_1", 2, 200)],
                )
            })
            .collect();
        let base = SimConfig {
            cluster: ClusterConfig {
                machines: 2,
                cpu_per_machine: 400.0,
                mem_per_machine: 8.0,
            },
            arrival_compression: 1.0,
            online_load: None,
            evict_for_online: false,
        };
        let colocated = SimConfig {
            online_load: Some(OnlineLoad {
                trough: 0.4,
                peak: 0.6,
            }),
            ..base.clone()
        };
        let free = Simulator::new(base, Policy::Fifo).run(&jobs).unwrap();
        let shared = Simulator::new(colocated, Policy::Fifo).run(&jobs).unwrap();
        assert!(
            shared.mean_jct > free.mean_jct,
            "shared {} !> free {}",
            shared.mean_jct,
            free.mean_jct
        );
        assert_eq!(shared.jobs, jobs.len(), "all jobs still complete");
    }

    #[test]
    fn eviction_kills_and_reschedules() {
        // Long-running instances saturate the machine; when the online
        // reservation ramps up, eviction must fire — and every job must
        // still finish (rescheduled, with lost work).
        // Day-long instances guarantee they are still running when the
        // online load climbs toward its evening peak.
        let jobs: Vec<SimJob> = (0..4)
            .map(|i| sim_job(&format!("j_{i}"), i, &[("M1", 2, 40_000)]))
            .collect();
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines: 2,
                cpu_per_machine: 400.0,
                mem_per_machine: 8.0,
            },
            arrival_compression: 1.0,
            online_load: Some(OnlineLoad {
                trough: 0.05,
                peak: 0.85,
            }),
            evict_for_online: true,
        };
        let evicting = Simulator::new(cfg.clone(), Policy::Fifo)
            .run(&jobs)
            .unwrap();
        assert_eq!(evicting.jobs, 4, "all jobs complete despite evictions");
        assert!(evicting.evictions > 0, "no eviction happened");

        // Without the flag, the same scenario completes with zero kills.
        let gentle = SimConfig {
            evict_for_online: false,
            ..cfg
        };
        let no_evict = Simulator::new(gentle, Policy::Fifo).run(&jobs).unwrap();
        assert_eq!(no_evict.evictions, 0);
        // Eviction loses work, so it cannot finish earlier overall.
        assert!(evicting.makespan >= no_evict.makespan);
    }

    #[test]
    fn online_load_validation_tightens() {
        // 300-cpu instances fit an empty 400-cpu machine but not one with
        // a permanent 50 % reservation.
        let job = sim_job("j_1", 0, &[("M1", 1, 10)]); // 100 cpu — fine
        let big = {
            let mut j = sim_job("j_big", 0, &[("M1", 1, 10)]);
            j.tasks[0].cpu = 300.0;
            j
        };
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines: 1,
                cpu_per_machine: 400.0,
                mem_per_machine: 4.0,
            },
            arrival_compression: 1.0,
            online_load: Some(OnlineLoad {
                trough: 0.5,
                peak: 0.5,
            }),
            evict_for_online: false,
        };
        assert!(Simulator::new(cfg.clone(), Policy::Fifo)
            .run(&[job])
            .is_ok());
        let err = Simulator::new(cfg, Policy::Fifo).run(&[big]).unwrap_err();
        assert!(err.contains("exceeds machine capacity"));
    }

    #[test]
    fn deterministic() {
        let jobs: Vec<SimJob> = (0..10)
            .map(|i| {
                sim_job(
                    &format!("j_{i}"),
                    i * 7,
                    &[("M1", (i % 3 + 1) as u32, 20), ("R2_1", 1, 30)],
                )
            })
            .collect();
        let a = Simulator::new(tiny_cfg(), Policy::SjfOracle)
            .run(&jobs)
            .unwrap();
        let b = Simulator::new(tiny_cfg(), Policy::SjfOracle)
            .run(&jobs)
            .unwrap();
        assert_eq!(a, b);
    }
}
