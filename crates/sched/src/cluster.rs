//! The machine pool: capacity tracking and first-fit placement.

use serde::{Deserialize, Serialize};

/// Cluster shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of machines.
    pub machines: usize,
    /// CPU capacity per machine, v2018 units (9600 = 96 cores).
    pub cpu_per_machine: f64,
    /// Memory capacity per machine, normalized units.
    pub mem_per_machine: f64,
}

impl Default for ClusterConfig {
    /// A small slice of the paper's ~4000-machine cluster: 64 machines of
    /// 96 cores each, memory normalized so ~100 average instances fit.
    fn default() -> Self {
        ClusterConfig {
            machines: 64,
            cpu_per_machine: 9_600.0,
            mem_per_machine: 48.0,
        }
    }
}

/// Mutable machine pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    cfg: ClusterConfig,
    cpu_free: Vec<f64>,
    mem_free: Vec<f64>,
    /// Next machine index to try (round-robin start point, avoids packing
    /// everything on machine 0 and keeps placement O(1) amortized).
    cursor: usize,
}

impl Cluster {
    /// A fresh, empty cluster.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        Cluster {
            cpu_free: vec![cfg.cpu_per_machine; cfg.machines],
            mem_free: vec![cfg.mem_per_machine; cfg.machines],
            cursor: 0,
            cfg,
        }
    }

    /// Shape.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Total CPU capacity across machines.
    pub fn total_cpu(&self) -> f64 {
        self.cfg.cpu_per_machine * self.cfg.machines as f64
    }

    /// Currently free CPU across machines.
    pub fn free_cpu(&self) -> f64 {
        self.cpu_free.iter().sum()
    }

    /// Utilized CPU fraction.
    pub fn cpu_utilization(&self) -> f64 {
        1.0 - self.free_cpu() / self.total_cpu()
    }

    /// Try to place one instance of `(cpu, mem)`; returns the machine
    /// index, or `None` when nothing fits. Next-fit with wraparound.
    pub fn place(&mut self, cpu: f64, mem: f64) -> Option<usize> {
        let n = self.cfg.machines;
        for off in 0..n {
            let m = (self.cursor + off) % n;
            if self.cpu_free[m] >= cpu && self.mem_free[m] >= mem {
                self.cpu_free[m] -= cpu;
                self.mem_free[m] -= mem;
                self.cursor = m;
                return Some(m);
            }
        }
        None
    }

    /// Release a previously placed instance.
    pub fn release(&mut self, machine: usize, cpu: f64, mem: f64) {
        self.cpu_free[machine] += cpu;
        self.mem_free[machine] += mem;
        debug_assert!(self.cpu_free[machine] <= self.cfg.cpu_per_machine + 1e-6);
        debug_assert!(self.mem_free[machine] <= self.cfg.mem_per_machine + 1e-6);
    }

    /// Grab up to `want` CPU units on `machine` for a non-batch reservation
    /// (co-located online load). Returns how much was actually taken —
    /// running batch instances are never evicted, so the reservation only
    /// claims currently free capacity.
    pub fn reserve_cpu(&mut self, machine: usize, want: f64) -> f64 {
        let taken = want.min(self.cpu_free[machine]).max(0.0);
        self.cpu_free[machine] -= taken;
        taken
    }

    /// Return previously reserved CPU.
    pub fn unreserve_cpu(&mut self, machine: usize, amount: f64) {
        self.cpu_free[machine] += amount;
        debug_assert!(self.cpu_free[machine] <= self.cfg.cpu_per_machine + 1e-6);
    }
}

/// The Pareto front of the machines' free `(cpu, mem)` vectors: steps in
/// strictly decreasing CPU and strictly increasing memory. It answers
/// "would [`Cluster::place`] find a machine for `(cpu, mem)`?" with the
/// same `>=` comparisons on the same values, without scanning machines.
#[derive(Debug, Default)]
pub(crate) struct Staircase {
    steps: Vec<(f64, f64)>,
}

impl Staircase {
    /// Recompute the front from the cluster's current free capacity, by
    /// insertion (machine counts are small; no sort).
    pub(crate) fn rebuild(&mut self, cluster: &Cluster) {
        self.steps.clear();
        for (&c, &m) in cluster.cpu_free.iter().zip(&cluster.mem_free) {
            // Steps before `at` have more CPU than the newcomer, which is
            // dominated if the last of them, or a step with equal CPU, has
            // at least its memory.
            let at = self.steps.partition_point(|&(sc, _)| sc > c);
            if self
                .steps
                .get(at)
                .is_some_and(|&(sc, sm)| sc >= c && sm >= m)
                || (at > 0 && self.steps[at - 1].1 >= m)
            {
                continue; // dominated
            }
            // The newcomer dominates the steps right of it whose memory
            // does not exceed its own.
            let end = at + self.steps[at..].partition_point(|&(_, sm)| sm <= m);
            self.steps.splice(at..end, [(c, m)]);
        }
    }

    /// True when some machine has `cpu_free >= cpu && mem_free >= mem`.
    pub(crate) fn fits(&self, cpu: f64, mem: f64) -> bool {
        // Steps with enough CPU form a prefix; its last holds the most memory.
        let k = self.steps.partition_point(|&(sc, _)| sc >= cpu);
        k > 0 && self.steps[k - 1].1 >= mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cluster {
        Cluster::new(ClusterConfig {
            machines: 2,
            cpu_per_machine: 100.0,
            mem_per_machine: 1.0,
        })
    }

    #[test]
    fn place_and_release() {
        let mut c = tiny();
        let m1 = c.place(60.0, 0.5).unwrap();
        let m2 = c.place(60.0, 0.5).unwrap();
        assert_ne!(m1, m2, "second instance must spill to the other machine");
        // Both machines now hold 60: a 50-unit ask fails, 40 fits.
        assert!(c.place(50.0, 0.1).is_none());
        assert!(c.place(40.0, 0.1).is_some());
        c.release(m1, 60.0, 0.5);
        assert!(c.place(50.0, 0.1).is_some());
    }

    #[test]
    fn memory_binds_too() {
        let mut c = tiny();
        assert!(c.place(1.0, 0.9).is_some());
        // CPU is plentiful but memory on that machine is not; spills.
        let second = c.place(1.0, 0.9).unwrap();
        assert!(c.place(1.0, 0.9).is_none());
        c.release(second, 1.0, 0.9);
        assert!(c.place(1.0, 0.9).is_some());
    }

    #[test]
    fn utilization_accounting() {
        let mut c = tiny();
        assert_eq!(c.cpu_utilization(), 0.0);
        c.place(100.0, 0.1).unwrap();
        assert!((c.cpu_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(c.total_cpu(), 200.0);
        assert_eq!(c.free_cpu(), 100.0);
    }

    #[test]
    fn staircase_fits_agrees_with_place() {
        // Free vectors from a small grid so ties and duplicate machines
        // are common; queries cover the grid values and points between.
        let cpus = [0.0, 25.0, 50.0, 75.0, 100.0];
        let mems = [0.0, 0.25, 0.5, 0.75, 1.0];
        let mut state = 7u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let mut stairs = Staircase::default();
        for _ in 0..300 {
            let machines = 1 + next(8);
            let mut c = Cluster::new(ClusterConfig {
                machines,
                cpu_per_machine: 100.0,
                mem_per_machine: 1.0,
            });
            for m in 0..machines {
                c.cpu_free[m] = cpus[next(cpus.len())];
                c.mem_free[m] = mems[next(mems.len())];
            }
            stairs.rebuild(&c);
            for pair in stairs.steps.windows(2) {
                assert!(
                    pair[0].0 > pair[1].0 && pair[0].1 < pair[1].1,
                    "{:?}",
                    stairs.steps
                );
            }
            for cpu in cpus.iter().flat_map(|&v| [v, v + 12.5]) {
                for mem in mems.iter().flat_map(|&v| [v, v + 0.125]) {
                    let placed = c.clone().place(cpu, mem).is_some();
                    assert_eq!(stairs.fits(cpu, mem), placed, "({cpu}, {mem}) on {c:?}");
                }
            }
        }
    }

    #[test]
    fn oversized_ask_never_fits() {
        let mut c = tiny();
        assert!(c.place(101.0, 0.1).is_none());
        assert!(c.place(1.0, 1.5).is_none());
    }
}
