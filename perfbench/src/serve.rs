//! `serve-50k`: a `dagscope serve` child on a 50,000-job snapshot under a
//! closed loop of keep-alive connections, each sending its next request
//! only after the reply.
//!
//! Set-up is spawning the server up to the first `/healthz` 200 (snapshot
//! load plus index build), repeated for its median. After the window the
//! benchmark reads `/metrics` once. The traced run also loads the
//! snapshot in-process and times each public `ServeIndex` call the
//! request pool makes.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dagscope_core::IndexSnapshot;
use dagscope_serve::{Json, ServeIndex};
use dagscope_trace::{csv, Job};

use crate::prep::{Request, SIMILAR_K, THREADS};
use crate::spans::Tracer;
use crate::util::{median, peak_rss_bytes, quantile_sorted, Manifest, Outcome};

/// Server spawns per run; their median is `setup_s`.
const SPAWNS: usize = 5;
/// Closed-loop client connections.
const CONNECTIONS: usize = 2;
const STARTUP_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `dagscope serve` child, killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawn the server and wait for its first `/healthz` 200; returns the
    /// server and the seconds that took.
    fn start(bin: &Path, snapshot: &Path) -> Result<(Server, f64), String> {
        let clock = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--snapshot"])
            .arg(snapshot)
            .args(["--addr", "127.0.0.1:0", "--threads", &THREADS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut server = Server {
            child,
            addr: String::new(),
            drain: None,
        };
        // The liveness line names the bound address: "... on http://ADDR with".
        let mut line = String::new();
        loop {
            line.clear();
            let n = stderr
                .read_line(&mut line)
                .map_err(|e| format!("read server stderr: {e}"))?;
            if n == 0 {
                return Err("server exited before it was serving".to_string());
            }
            if let Some(rest) = line.split("http://").nth(1) {
                server.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                break;
            }
        }
        server.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        }));
        loop {
            if let Ok(mut conn) = Conn::open(&server.addr) {
                if let Ok((200, _)) = conn.send(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n") {
                    break;
                }
            }
            if clock.elapsed() > STARTUP_TIMEOUT {
                return Err("server never answered /healthz".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok((server, clock.elapsed().as_secs_f64()))
    }

    fn peak_rss_bytes(&self) -> Option<u64> {
        peak_rss_bytes(Some(self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One keep-alive HTTP/1.1 connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 << 10),
        })
    }

    /// Send one request and read its whole response: (status, body).
    fn send(&mut self, request: &[u8]) -> Result<(u16, Vec<u8>), String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        let mut chunk = [0u8; 16 << 10];
        let header_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..header_end]).map_err(|_| "non-UTF-8 head")?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("malformed status line")?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or("response has no Content-Length")?;
        while self.buf.len() < header_end + length {
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok((status, self.buf[header_end..header_end + length].to_vec()))
    }
}

/// The checked fields of a response, in the format of the prepared
/// expectations.
fn answer_of(req: &Request, body: &[u8]) -> Option<String> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    match req {
        Request::Classify(_) | Request::Advise(_) => Some(format!(
            "{} {} {:016x}",
            doc.get("cluster")?.as_num()? as usize,
            doc.get("group")?.as_str()?,
            doc.get("confidence")?.as_num()?.to_bits()
        )),
        Request::Similar(_) => {
            let n: Option<Vec<String>> = doc
                .get("neighbours")?
                .as_arr()?
                .iter()
                .map(|n| {
                    Some(format!(
                        "{}:{:016x}:{}",
                        n.get("name")?.as_str()?,
                        n.get("score")?.as_num()?.to_bits(),
                        n.get("group")?.as_str()?
                    ))
                })
                .collect();
            Some(n?.join(","))
        }
        Request::Jobs(_) => None,
    }
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    latencies_us: Vec<f64>,
    ok: u64,
    failed: u64,
    problems: Vec<String>,
}

fn client(
    addr: &str,
    pool: &[(Request, Vec<u8>)],
    expect: &HashMap<usize, String>,
    offset: usize,
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            log.failed += 1;
            log.problems.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut i = offset;
    while Instant::now() < deadline {
        let (req, bytes) = &pool[i];
        let sent = Instant::now();
        let result = conn.send(bytes);
        log.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
        let problem = match result {
            Ok((200, body)) => match expect.get(&i) {
                Some(want) if answer_of(req, &body).as_ref() != Some(want) => Some(format!(
                    "request {i}: answer differs from the in-process index"
                )),
                _ => None,
            },
            Ok((status, _)) => Some(format!("request {i}: status {status}")),
            Err(e) => {
                // Reconnect so one transport error costs one operation.
                if let Ok(c) = Conn::open(addr) {
                    conn = c;
                }
                Some(format!("request {i}: {e}"))
            }
        };
        match problem {
            None => log.ok += 1,
            Some(p) => {
                log.failed += 1;
                if log.problems.len() < 5 {
                    log.problems.push(p);
                }
            }
        }
        i = (i + 1) % pool.len();
    }
    log
}

/// Pool requests with their encoded bytes, and the expected answers by
/// pool index.
type Pool = (Vec<(Request, Vec<u8>)>, HashMap<usize, String>);

fn load_pool(dir: &Path) -> Result<Pool, String> {
    let text = std::fs::read_to_string(dir.join("pool.txt"))
        .map_err(|e| format!("read request pool: {e}"))?;
    let pool = text
        .lines()
        .map(|l| Request::parse(l).map(|r| (r.clone(), r.http())))
        .collect::<Result<Vec<_>, _>>()?;
    let text = std::fs::read_to_string(dir.join("expect.txt"))
        .map_err(|e| format!("read expected answers: {e}"))?;
    let mut expect = HashMap::new();
    for line in text.lines() {
        let (i, answer) = line.split_once(' ').ok_or("malformed expectation")?;
        let i: usize = i.parse().map_err(|_| "malformed expectation index")?;
        expect.insert(i, answer.to_string());
    }
    if pool.is_empty() {
        return Err("empty request pool".to_string());
    }
    Ok((pool, expect))
}

pub fn run(
    dir: &Path,
    m: &Manifest,
    window: Duration,
    t: &mut Tracer,
    bin: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let snapshot = dir.join("snapshot");
    let (pool, expect) = load_pool(dir)?;

    let mut setups = Vec::with_capacity(SPAWNS);
    let mut server = None;
    for _ in 0..SPAWNS {
        drop(server.take());
        let (s, secs) = Server::start(bin, &snapshot)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one spawn");

    let start = Instant::now();
    let deadline = start + window;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (pool, expect, addr) = (&pool, &expect, server.addr.as_str());
                let offset = c * pool.len() / CONNECTIONS;
                scope.spawn(move || client(addr, pool, expect, offset, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latencies_us.iter().copied())
        .collect();
    let served: u64 = logs.iter().map(|l| l.ok).sum();
    for log in &logs {
        out.attempted += log.ok + log.failed;
        out.failed += log.failed;
        out.problems.extend(log.problems.iter().cloned());
    }

    let scrape = Conn::open(&server.addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.send(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n"));
    let metrics = match scrape {
        Ok((200, body)) => std::str::from_utf8(&body)
            .ok()
            .and_then(|s| Json::parse(s).ok()),
        _ => None,
    };
    out.check(metrics.is_some(), || "GET /metrics failed".to_string());
    let rss = server
        .peak_rss_bytes()
        .ok_or("cannot read the server's VmHWM")?;
    drop(server);

    latencies.sort_by(f64::total_cmp);
    if latencies.is_empty() {
        return Err("no request completed".to_string());
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric("jobs_per_s", served as f64 / elapsed, "1/s");
    out.metric(
        "latency_p50_ms",
        quantile_sorted(&latencies, 0.50) / 1e3,
        "ms",
    );
    out.metric(
        "latency_p90_ms",
        quantile_sorted(&latencies, 0.90) / 1e3,
        "ms",
    );
    out.metric("peak_rss_mb", rss as f64 / 1e6, "MB");
    out.info("latency_samples", latencies.len() as f64, "count");
    out.setups_s = setups;

    if let Some(doc) = &metrics {
        let telemetry = scrape_telemetry(doc);
        let errors = telemetry
            .iter()
            .find(|(n, _)| n == "serve.transport_errors")
            .map_or(0.0, |(_, v)| *v);
        out.check(errors == 0.0, || {
            format!("server counted {errors} transport errors")
        });
        for (name, value) in telemetry {
            let unit = if name.ends_with("_us") || name.contains("_us.") {
                "us"
            } else {
                "count"
            };
            out.info(name.clone(), value, unit);
            out.layer(name, value, unit);
        }
    }
    if t.is_on() {
        in_process(&snapshot, m, &pool, t, &mut out)?;
    }
    Ok(out)
}

/// Per-layer numbers from the server's own `/metrics`.
fn scrape_telemetry(doc: &Json) -> Vec<(String, f64)> {
    let num = |path: &[&str]| -> f64 {
        let mut v = doc;
        for key in path {
            match v.get(key) {
                Some(next) => v = next,
                None => return 0.0,
            }
        }
        v.as_num().unwrap_or(0.0)
    };
    let mut out = Vec::new();
    for e in ["classify", "advise", "similar", "jobs"] {
        out.push((
            format!("serve.server_p50_us.{e}"),
            num(&["endpoints", e, "p50_us"]),
        ));
    }
    let batches = num(&["reactor", "batch_size", "batches"]);
    let items = num(&["reactor", "batch_size", "items"]);
    out.push((
        "serve.batch_items_mean".to_string(),
        if batches > 0.0 { items / batches } else { 0.0 },
    ));
    out.push((
        "serve.loop_lag_p99_us".to_string(),
        num(&["reactor", "epoll_loop_lag_us", "p99_us"]),
    ));
    let transport: f64 = [
        "shed_total",
        "timeouts_total",
        "request_timeouts_total",
        "resets_total",
        "io_errors_total",
    ]
    .iter()
    .map(|k| num(&["transport", k]))
    .sum();
    out.push(("serve.transport_errors".to_string(), transport));
    out
}

/// A pool request decoded for an in-process call.
enum Call {
    Classify(Job),
    Advise(Job),
    Similar(usize),
    Jobs(String),
}

fn decode_job(body: &str) -> Result<Job, String> {
    let doc = Json::parse(body)?;
    let rows = doc
        .get("tasks")
        .and_then(Json::as_arr)
        .ok_or("probe has no tasks")?;
    let tasks = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            csv::parse_task_line(i + 1, r.as_str().unwrap_or("")).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let name = doc
        .get("job_name")
        .and_then(Json::as_str)
        .ok_or("probe has no job_name")?
        .to_string();
    Ok(Job { name, tasks })
}

fn call(index: &ServeIndex, c: &Call) -> u64 {
    match c {
        Call::Classify(job) => index
            .classify(job)
            .map_or(0, |o| o.classification.cluster as u64),
        Call::Advise(job) => index.advise(job).map_or(0, |o| o.fallback as u64),
        Call::Similar(i) => index.similar_with_stats(*i, SIMILAR_K).1.pruned,
        Call::Jobs(name) => index
            .find(name)
            .map_or(0, |i| index.features(i).size as u64),
    }
}

/// The traced run's in-process half: snapshot load, index build, then
/// every pool request as a direct `ServeIndex` call, once without and
/// once with spans (their difference is the tracing overhead).
fn in_process(
    snapshot: &Path,
    m: &Manifest,
    pool: &[(Request, Vec<u8>)],
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let index = t.span("op.load", |t| {
        let snap = t
            .span("core.snapshot_load", |_| IndexSnapshot::load(snapshot))
            .map_err(|e| e.to_string())?;
        t.span("serve.index_build", |_| ServeIndex::build(snap))
    })?;
    let calls = pool
        .iter()
        .map(|(req, _)| {
            Ok(match req {
                Request::Classify(b) => Call::Classify(decode_job(b)?),
                Request::Advise(b) => Call::Advise(decode_job(b)?),
                Request::Similar(n) => {
                    Call::Similar(index.find(n).ok_or_else(|| format!("unknown job {n}"))?)
                }
                Request::Jobs(n) => Call::Jobs(n.clone()),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let clock = Instant::now();
    let mut sink = 0u64;
    for c in &calls {
        sink = sink.wrapping_add(call(&index, c));
    }
    let untraced = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    t.span("op.calls", |t| {
        for ((req, _), c) in pool.iter().zip(&calls) {
            let v = t.span(format!("serve.{}", req.endpoint()), |_| call(&index, c));
            sink = sink.wrapping_add(v);
        }
    });
    let traced = clock.elapsed().as_secs_f64();
    std::hint::black_box(sink);

    let (mut candidates, mut pruned) = (0u64, 0u64);
    for c in &calls {
        if let Call::Similar(i) = c {
            let stats = index.similar_with_stats(*i, SIMILAR_K).1;
            candidates += stats.candidates;
            pruned += stats.pruned;
        }
    }
    for e in ["classify", "advise", "similar", "jobs"] {
        let mut us: Vec<f64> = t
            .durations(&format!("serve.{e}"))
            .iter()
            .map(|s| s * 1e6)
            .collect();
        us.sort_by(f64::total_cmp);
        let (p50, p99) = if us.is_empty() {
            (0.0, 0.0)
        } else {
            (quantile_sorted(&us, 0.5), quantile_sorted(&us, 0.99))
        };
        out.layer(format!("serve.{e}_us_p50"), p50, "us");
        if e != "jobs" {
            out.layer(format!("serve.{e}_us_p99"), p99, "us");
        }
    }
    out.layer(
        "serve.similar_pruned_ratio",
        if candidates > 0 {
            pruned as f64 / candidates as f64
        } else {
            0.0
        },
        "ratio",
    );
    let bytes: f64 = m.num("snapshot_bytes")?;
    let load_s = median(&t.durations("core.snapshot_load"));
    out.layer("core.snapshot_mb_per_s", bytes / 1e6 / load_s, "MB/s");
    out.layer(
        "tracing.overhead_pct",
        100.0 * (traced / untraced - 1.0),
        "%",
    );
    Ok(())
}
