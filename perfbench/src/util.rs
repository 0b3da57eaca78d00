//! Small shared helpers: seeded randomness, content hashes, order
//! statistics, process memory, the host-speed probe and the key=value
//! manifest the preparation step leaves for the measured run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Read;
use std::path::Path;
use std::time::Instant;

/// SplitMix64: the benchmark's own seeded stream, independent of the
/// program's `rand` so input choices cannot drift with it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 64-bit content hash of a byte stream, eight bytes per step.
#[derive(Debug, Clone)]
pub struct Hasher {
    h: u64,
    len: u64,
    tail: Vec<u8>,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher {
            h: 0xCBF2_9CE4_8422_2325,
            len: 0,
            tail: Vec::with_capacity(8),
        }
    }
}

impl Hasher {
    fn mix(&mut self, w: u64) {
        self.h = (self.h ^ w)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if !self.tail.is_empty() {
            let take = (8 - self.tail.len()).min(bytes.len());
            self.tail.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.tail.len() < 8 {
                return;
            }
            let w = u64::from_le_bytes(self.tail[..8].try_into().expect("eight bytes"));
            self.tail.clear();
            self.mix(w);
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("eight bytes")));
        }
        self.tail.extend_from_slice(chunks.remainder());
    }

    pub fn finish(mut self) -> u64 {
        let mut last = [0u8; 8];
        last[..self.tail.len()].copy_from_slice(&self.tail);
        self.mix(u64::from_le_bytes(last));
        let len = self.len;
        self.mix(len);
        self.h ^ (self.h >> 32)
    }
}

pub fn hash_file(path: &Path) -> std::io::Result<u64> {
    let mut f = std::fs::File::open(path)?;
    let mut h = Hasher::default();
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            return Ok(h.finish());
        }
        h.update(&buf[..n]);
    }
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quantile `q` in `[0, 1]` of an ascending-sorted sample, interpolated
/// linearly between the two nearest order statistics, so a high quantile
/// of a few dozen units is not just the slowest one.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match sorted.get(lo + 1) {
        Some(hi) => sorted[lo] + frac * (hi - sorted[lo]),
        None => sorted[lo],
    }
}

/// `VmHWM` of process `pid` (or of this process for `None`), in bytes.
pub fn peak_rss_bytes(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The host-speed probe: fixed, deterministic loops that run no program
/// code, timed in seconds. The first three walk dependent loads and stores
/// over tables sized for the L2 cache (256 KiB), the last-level cache
/// (4 MiB) and DRAM (32 MiB); the fourth runs independent multiply-add
/// chains, which a busy sibling hyperthread slows. A slow probe marks a
/// slow host phase, not a slow program.
pub fn host_probe() -> [f64; 4] {
    let walk = |log_words: u32, steps: u64| {
        let words = 1usize << log_words;
        let mut rng = Rng::new(0x5EED);
        let mut table: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
        let start = Instant::now();
        let (mut at, mut acc) = (0usize, 0u64);
        for step in 0..steps {
            let v = table[at];
            acc = acc
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(v ^ step);
            table[at] = acc;
            at = (v ^ acc) as usize & (words - 1);
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    };
    let alu = || {
        let start = Instant::now();
        let mut x = [1u64, 2, 3, 4];
        for i in 0..(25u64 << 20) {
            for (k, v) in x.iter_mut().enumerate() {
                *v = v
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(i ^ k as u64);
            }
        }
        std::hint::black_box(x);
        start.elapsed().as_secs_f64()
    };
    [
        walk(15, 4 << 20),
        walk(19, 2 << 20),
        walk(22, 1 << 20),
        alu(),
    ]
}

/// A flat `key=value` file: the preparation manifest.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Manifest(pub BTreeMap<String, String>);

impl Manifest {
    pub fn set(&mut self, key: &str, value: impl ToString) {
        self.0.insert(key.to_string(), value.to_string());
    }

    pub fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("manifest has no {key:?}"))
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("manifest {key:?} is not a number"))
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.0 {
            writeln!(s, "{k}={v}").expect("write to String");
        }
        s
    }

    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut m = Manifest::default();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('=') {
                m.set(k, v);
            }
        }
        Ok(m)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The measured run's result, printed as one JSON line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced run only); a layer left idle has none.
    pub layers: Vec<Metric>,
    /// Diagnostics logged beside the metrics, never compared.
    pub info: Vec<Metric>,
    /// Seconds of every timed unit behind `latency_*`, in run order.
    pub units_s: Vec<f64>,
    /// Seconds of every set-up behind `setup_s`, in run order.
    pub setups_s: Vec<f64>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Count one operation; a failed check is recorded with its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// One JSON line: the verdict, the end-to-end and per-layer metrics,
    /// the diagnostics and `extra` pre-encoded fields. `run.py` picks the
    /// metrics `BENCHMARK.json` names from it.
    pub fn to_json(&self, extra: &[(&str, String)]) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{}",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (key, list) in [
            ("metrics", &self.metrics),
            ("layers", &self.layers),
            ("info", &self.info),
        ] {
            write!(s, ",\"{key}\":{{").expect("write to String");
            for (i, m) in list.iter().enumerate() {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                if i > 0 {
                    s.push(',');
                }
                write!(
                    s,
                    "{}:{{\"value\":{value:?},\"unit\":\"{}\"}}",
                    json_str(&m.name),
                    m.unit
                )
                .expect("write to String");
            }
            s.push('}');
        }
        for (k, v) in extra {
            write!(s, ",\"{k}\":{v}").expect("write to String");
        }
        for (key, list) in [("units_s", &self.units_s), ("setups_s", &self.setups_s)] {
            let items: Vec<String> = list.iter().map(|u| format!("{u:?}")).collect();
            write!(s, ",\"{key}\":[{}]", items.join(",")).expect("write to String");
        }
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        write!(s, ",\"problems\":[{}]}}", problems.join(",")).expect("write to String");
        s
    }
}

/// `text` as a JSON string literal.
pub fn json_str(text: &str) -> String {
    let mut s = String::with_capacity(text.len() + 2);
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(s, "\\u{:04x}", c as u32).expect("write to String"),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = Hasher::default();
        h.update(bytes);
        h.finish()
    }

    #[test]
    fn hash_is_independent_of_chunking() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = hash_bytes(&data);
        let mut h = Hasher::default();
        for c in data.chunks(13) {
            h.update(c);
        }
        assert_eq!(h.finish(), whole);
        assert_ne!(hash_bytes(&data[..999]), whole);
    }

    #[test]
    fn quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50.5);
        assert!((quantile_sorted(&s, 0.9) - 90.1).abs() < 1e-9);
        assert_eq!(quantile_sorted(&s, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[4.0], 0.9), 4.0);
    }
}
