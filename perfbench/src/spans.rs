//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer. A
//! span's layer is its name up to the first `.`; spans named `op.*` mark
//! one timed unit of work (a scan, a replicate, a replay) and belong to
//! no layer. A span's self time is its duration minus the time its child
//! spans cover. With tracing off, [`Tracer::span`] just calls through.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layers named after the crates whose public calls the benchmark times.
pub const LAYERS: [&str; 7] = ["trace", "graph", "wl", "cluster", "core", "serve", "sched"];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Time covered by direct children.
    pub child_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    run_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, run_id: u64) -> Tracer {
        Tracer {
            on,
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            child_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        if let Some(p) = self.spans[id].parent {
            self.spans[p].child_ns += end_ns - start_ns;
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called exactly `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// Self time per layer, in seconds.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for s in &self.spans {
            if let Some(slot) = LAYERS.iter().find(|&&l| l == s.layer()) {
                *out.get_mut(slot).expect("every layer has a slot") += s.self_ns() as f64 / 1e9;
            }
        }
        out
    }

    /// Total duration of the top-level `op.*` spans: the timed wall time.
    pub fn timed_wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.layer() == "op")
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Share of the timed wall time covered by named-layer self time.
    pub fn coverage(&self) -> f64 {
        let wall = self.timed_wall_s();
        if wall <= 0.0 {
            return 0.0;
        }
        self.layer_self_s().values().sum::<f64>() / wall
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (id, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                s,
                "{{\"run\":{},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                self.run_id,
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.self_ns()
            )
            .expect("write to String");
        }
        s
    }

    /// A readable per-layer breakdown for stderr.
    pub fn breakdown(&self) -> String {
        let wall = self.timed_wall_s();
        let mut s = format!("timed wall {wall:.3} s; layer self time:\n");
        for (layer, secs) in self.layer_self_s() {
            let share = if wall > 0.0 { 100.0 * secs / wall } else { 0.0 };
            writeln!(s, "  {layer:<8} {secs:>9.3} s  {share:>5.1} %").expect("write to String");
        }
        writeln!(s, "  coverage {:.1} %", 100.0 * self.coverage()).expect("write to String");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, 1);
        t.span("op.unit", |t| {
            t.span("core.outer", |t| {
                t.span("wl.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(20))
                });
            });
        });
        let outer = &t.spans()[1];
        let inner = &t.spans()[2];
        assert_eq!(outer.parent, Some(0));
        assert_eq!(outer.child_ns, inner.duration_ns());
        assert!(outer.self_ns() < inner.duration_ns());
        assert!(t.coverage() > 0.9 && t.coverage() <= 1.0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, 1);
        assert_eq!(t.span("op.unit", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
