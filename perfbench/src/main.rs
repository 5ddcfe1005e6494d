//! MemFS end-to-end benchmark over real loopback TCP.
//!
//! ```text
//! python3 perfbench/run.py --workload <stream-32m|meta-4k|random-4k|montage-1x1>
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Spawns four `KvServer`s in this process, mounts them with
//! `MemFs::connect` (`pool_connections: 1`, other settings default) and
//! runs the workload as a closed loop of two caller threads sharing the
//! mount. Set-up (servers, mount, staged inputs, warm-up) is timed as
//! `setup_s`; a discarded warm-up phase and the measured phase follow.
//! `run.py` runs several of these processes and reports the median of
//! their values.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` measures the
//! same phase untraced and then again on a traced mount (every
//! `KvClient` wrapped in a timing client, every file-system call timed
//! from the callers), and prints the per-layer metrics, with the tracing
//! overhead as the ratio of the two phases' op rates. The last line of
//! standard output is one JSON object; every other line is the report.

mod caller;
mod cluster;
mod content;
mod procfs;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use memfs_core::{MemFs, ServerIoSnapshot};
use memfs_memkv::stats::StatsSnapshot;
use memfs_memkv::{audit, ReactorStatsSnapshot, ServerStatsSnapshot};

use caller::{Op, Rec};
use cluster::{Cluster, SERVERS};
use procfs::{TaskSample, Usage};
use stats::{median, Dist};
use trace::Tracer;
use workloads::{Meta, Montage, PhaseOut, Random, Stream, Workload};

/// Caller threads sharing the mount (MTC tasks each wait on their own
/// I/O, so the loop is closed).
const CALLERS: usize = 2;
/// Length of the discarded warm-up phase as a share of the measured one.
const WARMUP_SHARE: f64 = 0.125;
/// Spans written to the dump file at most (all are analysed).
const DUMP_SPANS: usize = 200_000;

const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        let num = || value.parse::<u64>().map_err(|e| bad(&e));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(5.0),
        trace,
    })
}

/// A measured phase: what the callers saw plus process-level deltas.
struct Measured {
    out: PhaseOut,
    wall_s: f64,
    cpu_s: f64,
    minor_faults: u64,
    /// Per thread group (see [`procfs::GROUPS`]): usage and thread count.
    groups: Vec<(&'static str, Usage, usize)>,
}

impl Measured {
    fn recs(&self) -> &[Rec] {
        &self.out.recs
    }

    fn sum(&self, f: impl Fn(&Rec) -> u64) -> u64 {
        self.recs().iter().map(f).sum()
    }

    fn ops(&self) -> u64 {
        self.sum(|r| r.attempted)
    }

    fn failed(&self) -> u64 {
        self.sum(|r| r.failed)
    }

    fn payload(&self) -> u64 {
        self.sum(|r| r.bytes_read + r.bytes_written)
    }

    fn lat(&self, op: Op) -> Dist {
        Dist::new(
            self.recs()
                .iter()
                .flat_map(|r| r.lat_us[op as usize].iter().copied())
                .collect(),
        )
    }

    fn meta_lat(&self) -> Dist {
        Dist::new(
            Op::ALL
                .iter()
                .filter(|op| op.is_meta())
                .flat_map(|&op| {
                    self.recs()
                        .iter()
                        .flat_map(move |r| r.lat_us[op as usize].clone())
                })
                .collect(),
        )
    }

    fn group(&self, name: &str) -> Usage {
        let mut u = self
            .groups
            .iter()
            .find(|(g, _, _)| *g == name)
            .map_or(Usage::default(), |(_, u, _)| *u);
        if name == "callers" {
            for r in self.recs() {
                u.add(r.usage);
            }
        }
        u
    }
}

/// Aggregate bandwidth in MiB/s: each caller's bytes over its own time
/// in that kind of transfer, summed over callers.
fn bandwidth(recs: &[Rec], bytes: impl Fn(&Rec) -> u64, secs: impl Fn(&Rec) -> f64) -> f64 {
    recs.iter()
        .filter(|r| secs(r) > 0.0)
        .map(|r| bytes(r) as f64 / secs(r) / MIB)
        .sum()
}

fn measure<W: Workload>(
    w: &W,
    fs: &MemFs,
    seed: u64,
    states: &mut [W::State],
    length: Duration,
    tracer: &Option<std::sync::Arc<Tracer>>,
) -> Measured {
    let before = TaskSample::take();
    let cpu0 = procfs::process_cpu_s();
    let faults0 = procfs::process_minor_faults();
    let start = Instant::now();
    let out = w.phase(fs, seed, states, start + length, tracer);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = procfs::process_cpu_s() - cpu0;
    let minor_faults = procfs::process_minor_faults() - faults0;
    let after = TaskSample::take();
    Measured {
        out,
        wall_s,
        cpu_s,
        minor_faults,
        groups: after.groups_since(&before),
    }
}

/// One metric line of the result.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.note(name, value, unit, String::new());
    }

    fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        self.0.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            note,
        });
    }

    /// `name.p50` and `name.tail` of `d`, with the tail's percentile.
    fn dist(&mut self, name: &str, d: &Dist, unit: &'static str) {
        self.add(format!("{name}.p50"), d.p50(), unit);
        self.tail(&format!("{name}.tail"), d, unit);
    }

    fn tail(&mut self, name: &str, d: &Dist, unit: &'static str) {
        let t = d.tail();
        self.note(
            name,
            t.value,
            unit,
            format!("p{} of {} samples", t.pct, t.n),
        );
    }
}

/// Ratio that reads 0 when the base is 0 (no such work in the phase).
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every metric the measured phase yields: the end-to-end ones (0 where
/// the phase had no such work) followed by the workload-specific ones.
fn phase_metrics(m: &Measured) -> Metrics {
    let mut e = Metrics::default();
    e.add("ops_per_s", m.ops() as f64 / m.wall_s, "1/s");
    e.add(
        "read_MiBps",
        bandwidth(m.recs(), |r| r.bytes_read, |r| r.read_s),
        "MiB/s",
    );
    e.add(
        "write_MiBps",
        bandwidth(m.recs(), |r| r.bytes_written, |r| r.write_s),
        "MiB/s",
    );
    let read_at = m.lat(Op::ReadAt);
    e.add("read_at_p50_us", read_at.p50(), "us");
    e.tail("read_at_tail_us", &read_at, "us");
    e.add(
        "cpu_s_per_GiB",
        per(m.cpu_s, m.payload() as f64 / GIB),
        "s/GiB",
    );

    let fw = Dist::new(
        m.recs()
            .iter()
            .flat_map(|r| r.file_write_ms.clone())
            .collect(),
    );
    let fr = Dist::new(
        m.recs()
            .iter()
            .flat_map(|r| r.file_read_ms.clone())
            .collect(),
    );
    e.tail("file_write_tail_ms", &fw, "ms");
    e.tail("file_read_tail_ms", &fr, "ms");
    let meta = m.meta_lat();
    e.add("meta_ops_per_s", meta.len() as f64 / m.wall_s, "1/s");
    e.add("meta_op_p50_us", meta.p50(), "us");
    e.tail("meta_op_tail_us", &meta, "us");
    e.add(
        "cpu_us_per_meta_op",
        per(m.cpu_s * 1e6, meta.len() as f64),
        "us",
    );
    e.add("makespan_s", median(&m.out.makespans), "s");
    e
}

/// The end-to-end metrics the result line carries, in output order.
/// They are defined on every workload and repeat within a few percent
/// from run to run; `write_MiBps`, `read_at_tail_us` and `rss_peak_MiB`
/// spread too widely between runs on a shared 2-core machine to gate on
/// and are reported only.
const E2E: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "read_MiBps",
    "read_at_p50_us",
    "cpu_s_per_GiB",
];

/// End-to-end metrics every workload reports besides [`E2E`].
const REPORTED: [&str; 3] = ["write_MiBps", "read_at_tail_us", "rss_peak_MiB"];

/// The end-to-end metrics (identical names on every workload) of the
/// measured phase, and the workload-specific report lines named in
/// `report`.
fn end_to_end(
    m: &Measured,
    setup_s: f64,
    setup_recs: &[Rec],
    report: &[&str],
) -> (Metrics, Metrics) {
    let mut all = Metrics::default();
    all.add("setup_s", setup_s, "s");
    all.0.extend(phase_metrics(m).0);
    if m.sum(|r| r.bytes_written) == 0 {
        // No writes in the measured loop (random-4k): the pre-write of
        // the staged files.
        let w = all.0.iter_mut().find(|m| m.name == "write_MiBps");
        let w = w.expect("write_MiBps is a phase metric");
        w.value = bandwidth(setup_recs, |r| r.bytes_written, |r| r.write_s);
        w.note = "staged pre-write in set-up".to_string();
    }
    all.add("rss_peak_MiB", procfs::rss_peak_mib(), "MiB");
    let (mut e, mut x) = (Metrics::default(), Metrics::default());
    for name in E2E {
        let i = all
            .0
            .iter()
            .position(|m| m.name == name)
            .expect("every e2e metric is computed");
        e.0.push(all.0.remove(i));
    }
    x.0 = all
        .0
        .into_iter()
        .filter(|m| REPORTED.contains(&m.name.as_str()) || report.contains(&m.name.as_str()))
        .collect();
    x.add(
        "failed_ops_ratio",
        per(m.failed() as f64, m.ops() as f64),
        "ratio",
    );
    (e, x)
}

/// Counters the layers export, read before and after the traced phase.
struct Counters {
    server: Vec<ServerStatsSnapshot>,
    store: Vec<StatsSnapshot>,
    pool: Vec<ServerIoSnapshot>,
    reactor: Vec<ReactorStatsSnapshot>,
    staged: u64,
    rx_copied: u64,
    read_locks: u64,
    write_locks: u64,
}

impl Counters {
    fn take(cluster: &Cluster, fs: &MemFs) -> Counters {
        Counters {
            server: cluster.servers.iter().map(|s| s.server_stats()).collect(),
            store: cluster
                .servers
                .iter()
                .map(|s| s.store().stats().snapshot())
                .collect(),
            pool: fs.pool().stats().snapshot(),
            reactor: fs.pool().reactor_stats(),
            staged: audit::staged_bytes(),
            rx_copied: audit::rx_copied_bytes(),
            read_locks: audit::store_read_locks(),
            write_locks: audit::store_write_locks(),
        }
    }
}

fn delta<T>(a: &[T], b: &[T], f: impl Fn(&T) -> u64) -> u64 {
    b.iter().map(&f).sum::<u64>() - a.iter().map(&f).sum::<u64>()
}

/// Samples the servers' request-queue depth and stored bytes while the
/// traced phase runs.
struct Sampler {
    queue_depth_max: AtomicU64,
    stored_max: AtomicU64,
    stop: AtomicBool,
}

impl Sampler {
    fn run(&self, cluster: &Cluster) {
        while !self.stop.load(Ordering::Relaxed) {
            let mut stored = 0;
            for s in &cluster.servers {
                let st = s.server_stats();
                self.queue_depth_max
                    .fetch_max(st.queue_depth, Ordering::Relaxed);
                stored += s.store().bytes_used();
            }
            self.stored_max.fetch_max(stored, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// The per-layer metrics of the traced phase `t` (names identical on
/// every workload; 0 where a layer saw no such work).
#[allow(clippy::too_many_arguments)]
fn per_layer(
    t: &Measured,
    untraced_rate: f64,
    spans: &[trace::Span],
    a: &Counters,
    b: &Counters,
    sampler: &Sampler,
    live_bytes: u64,
) -> Metrics {
    let mut p = Metrics::default();
    let ops = t.ops() as f64;
    let gib = t.payload() as f64 / GIB;
    let read = t.sum(|r| r.bytes_read) as f64;
    let written = t.sum(|r| r.bytes_written) as f64;
    let attr = trace::attribute(spans, SERVERS);
    let fs_calls = |k: &str| attr.fs_calls.get(k).copied().unwrap_or(0) as f64;
    let kv_calls = |k: &str| attr.kv_calls.get(k).copied().unwrap_or(0) as f64;

    // memfs_core::fs
    for op in [Op::Create, Op::Open, Op::Stat, Op::Readdir, Op::Unlink] {
        p.dist(&format!("fs.{}_us", op.name()), &t.lat(op), "us");
    }
    let n_fs: f64 = attr.fs_calls.values().sum::<u64>() as f64;
    p.add(
        "fs.self_us_per_op",
        per(attr.self_ns as f64 / 1e3, n_fs),
        "us",
    );

    // memfs_core::meta
    p.add(
        "meta.kv_calls_per_create",
        per(kv_calls("create") + kv_calls("close"), fs_calls("create")),
        "count",
    );
    for op in ["open", "stat", "unlink"] {
        p.add(
            format!("meta.kv_calls_per_{op}"),
            per(kv_calls(op), fs_calls(op)),
            "count",
        );
    }
    p.add(
        "meta.dir_log_bytes",
        per(attr.dir_log_bytes as f64, attr.dir_log_fetches as f64),
        "bytes",
    );

    // memfs_core::bufwrite
    let write_ms: f64 = t.lat(Op::Write).sum() / 1e3;
    p.add(
        "bufwrite.write_block_ms_per_GiB",
        per(write_ms, written / GIB),
        "ms/GiB",
    );
    let close_ms = Dist::new(t.lat(Op::Close).values().iter().map(|v| v / 1e3).collect());
    p.dist("bufwrite.close_ms", &close_ms, "ms");

    // memfs_core::prefetch
    let rx = delta(&a.reactor, &b.reactor, |r| r.bytes_rx) as f64;
    let tx = delta(&a.reactor, &b.reactor, |r| r.bytes_tx) as f64;
    p.add("prefetch.read_amplification", per(rx, read), "ratio");
    p.add(
        "prefetch.store_gets_per_stripe_used",
        per(
            attr.stripe_keys_fetched as f64,
            t.sum(|r| r.stripe_visits) as f64,
        ),
        "ratio",
    );
    p.dist("prefetch.read_at_stall_us", &t.lat(Op::ReadAt), "us");

    // memfs_core::pool
    let batches = delta(&a.pool, &b.pool, |s| s.batches) as f64;
    let keys = delta(&a.pool, &b.pool, |s| s.keys) as f64;
    p.add("pool.batches_per_op", per(batches, ops), "count");
    p.add("pool.keys_per_batch", per(keys, batches), "count");
    let per_server: Vec<f64> = (0..SERVERS)
        .map(|i| (b.pool[i].keys - a.pool[i].keys) as f64)
        .collect();
    let max = per_server.iter().copied().fold(0.0, f64::max);
    let min = per_server.iter().copied().fold(f64::INFINITY, f64::min);
    p.add("pool.server_key_imbalance", per(max, min), "ratio");
    let in_flight = b.pool.iter().map(|s| s.max_in_flight).max().unwrap_or(0);
    p.add("pool.max_in_flight", in_flight as f64, "count");
    p.add(
        "pool.fallbacks",
        delta(&a.pool, &b.pool, |s| s.fallbacks) as f64,
        "count",
    );
    let all_rtt = Dist::new(attr.batch_rtt_us.iter().flatten().copied().collect());
    p.dist("pool.batch_rtt_us", &all_rtt, "us");
    for (i, v) in attr.batch_rtt_us.iter().enumerate() {
        p.add(
            format!("pool.batch_rtt_us.p50.s{i}"),
            Dist::new(v.clone()).p50(),
            "us",
        );
    }
    p.add(
        "pool.kv_wait_share",
        per(attr.covered_ns as f64, attr.fs_ns as f64),
        "ratio",
    );

    // memfs_core::threadpool
    let io = t.group("io_engine");
    p.add("io_engine.cpu_s_per_GiB", per(io.cpu_s, gib), "s/GiB");
    p.add("io_engine.vcsw_per_op", per(io.vcsw as f64, ops), "count");

    // memfs_memkv::reactor and net
    let re = t.group("reactor");
    p.add("reactor.cpu_s_per_GiB", per(re.cpu_s, gib), "s/GiB");
    p.add("reactor.cpu_us_per_op", per(re.cpu_s * 1e6, ops), "us");
    let wakeups = delta(&a.reactor, &b.reactor, |r| r.wakeups) as f64;
    p.add("reactor.wakeups_per_op", per(wakeups, ops), "count");
    p.add(
        "reactor.batching_factor",
        per(
            delta(&a.reactor, &b.reactor, |r| r.completions) as f64,
            delta(&a.reactor, &b.reactor, |r| r.completion_batches) as f64,
        ),
        "ratio",
    );
    p.add("reactor.vcsw_per_op", per(re.vcsw as f64, ops), "count");
    p.add(
        "reactor.timeouts",
        delta(&a.reactor, &b.reactor, |r| r.timeouts) as f64,
        "count",
    );
    p.add(
        "reactor.reconnects",
        delta(&a.reactor, &b.reactor, |r| r.reconnects) as f64,
        "count",
    );
    let payload = read + written;
    p.add("wire.tx_bytes_per_payload_byte", per(tx, payload), "ratio");
    p.add("wire.rx_bytes_per_payload_byte", per(rx, payload), "ratio");
    p.add(
        "copy.staged_bytes_per_byte",
        per((b.staged - a.staged) as f64, written),
        "ratio",
    );
    p.add(
        "copy.rx_copied_bytes_per_byte",
        per((b.rx_copied - a.rx_copied) as f64, read),
        "ratio",
    );

    // memfs_memkv::server
    let lp = t.group("srv_loop");
    let wk = t.group("srv_wkr");
    p.add("server.loop_cpu_s_per_GiB", per(lp.cpu_s, gib), "s/GiB");
    p.add("server.loop_cpu_us_per_op", per(lp.cpu_s * 1e6, ops), "us");
    p.add("server.worker_cpu_s_per_GiB", per(wk.cpu_s, gib), "s/GiB");
    p.add("server.loop_vcsw_per_op", per(lp.vcsw as f64, ops), "count");
    p.add(
        "server.worker_vcsw_per_op",
        per(wk.vcsw as f64, ops),
        "count",
    );
    p.add(
        "server.ops_per_client_op",
        per(delta(&a.server, &b.server, |s| s.ops) as f64, ops),
        "count",
    );
    p.add(
        "server.queue_depth_max",
        sampler.queue_depth_max.load(Ordering::Relaxed) as f64,
        "count",
    );
    p.add(
        "server.rejected_connections",
        delta(&a.server, &b.server, |s| s.rejected_connections) as f64,
        "count",
    );

    // memfs_memkv::store
    p.add(
        "store.hit_rate",
        per(
            delta(&a.store, &b.store, |s| s.get_hits) as f64,
            delta(&a.store, &b.store, |s| s.get_ops) as f64,
        ),
        "ratio",
    );
    type Field = fn(&StatsSnapshot) -> u64;
    let store_ops: [(&str, Field); 6] = [
        ("get", |s| s.get_ops),
        ("mget", |s| s.mget_ops),
        ("set", |s| s.set_ops),
        ("add", |s| s.add_ops),
        ("append", |s| s.append_ops),
        ("delete", |s| s.delete_ops),
    ];
    for (name, f) in store_ops {
        p.add(
            format!("store.{name}_per_op"),
            per(delta(&a.store, &b.store, f) as f64, ops),
            "count",
        );
    }
    p.add(
        "store.read_locks_per_op",
        per((b.read_locks - a.read_locks) as f64, ops),
        "count",
    );
    p.add(
        "store.write_locks_per_op",
        per((b.write_locks - a.write_locks) as f64, ops),
        "count",
    );
    p.add(
        "store.evictions",
        delta(&a.store, &b.store, |s| s.evictions) as f64,
        "count",
    );
    let stored: u64 = b.store.iter().map(|s| s.bytes_used).sum();
    p.add(
        "store.stored_bytes_per_user_byte",
        per(stored as f64, live_bytes as f64),
        "ratio",
    );
    p.add(
        "store.peak_stored_MiB",
        sampler.stored_max.load(Ordering::Relaxed) as f64 / MIB,
        "MiB",
    );

    // The benchmark's own callers (content generation and checks).
    let callers = t.group("callers");
    p.add("callers.cpu_s_per_GiB", per(callers.cpu_s, gib), "s/GiB");

    // Pages the process newly touched per MiB moved. On stream-32m this
    // varies from process to process with the allocator's adaptive
    // mmap and trim thresholds, and the op rate moves with it.
    p.add(
        "process.minor_faults_per_MiB",
        per(t.minor_faults as f64, t.payload() as f64 / MIB),
        "count",
    );

    // Tracing overhead: untraced vs traced op rate of the same loop.
    let traced_rate = t.ops() as f64 / t.wall_s;
    p.add(
        "trace.overhead",
        per(untraced_rate, traced_rate) - 1.0,
        "ratio",
    );
    p.add("trace.spans_per_op", per(spans.len() as f64, ops), "count");
    p
}

/// The cluster, mount and workload state the measured phases use.
/// Field order is drop order: the mount goes before its servers.
struct Live<S> {
    fs: MemFs,
    cluster: Cluster,
    states: Vec<S>,
}

struct Outcome {
    report: String,
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn drive<W: Workload>(w: &W, args: &Args) -> std::io::Result<Outcome> {
    let start = Instant::now();
    let cluster = Cluster::start()?;
    let fs = cluster.mount()?;
    let (states, setup_recs) = w.setup(&fs, args.seed, CALLERS);
    let setup_s = start.elapsed().as_secs_f64();
    let mut live = Live {
        fs,
        cluster,
        states,
    };

    let length = Duration::from_secs_f64(args.seconds);
    // A shorter phase first, discarded: it settles allocator, socket and
    // cache state the set-ups leave cold.
    let warmup = measure(
        w,
        &live.fs,
        args.seed,
        &mut live.states,
        length.mul_f64(WARMUP_SHARE),
        &None,
    );
    let measured = measure(w, &live.fs, args.seed, &mut live.states, length, &None);
    let (e2e, extra) = end_to_end(&measured, setup_s, &setup_recs, w.report());
    let untraced_rate = measured.ops() as f64 / measured.wall_s;

    let mut attempted = setup_recs.iter().map(|r| r.attempted).sum::<u64>();
    let mut failed = setup_recs.iter().map(|r| r.failed).sum::<u64>();
    let mut errors: Vec<String> = setup_recs.iter().flat_map(|r| r.errors.clone()).collect();
    for m in [&warmup, &measured] {
        attempted += m.ops();
        failed += m.failed();
        errors.extend(m.recs().iter().flat_map(|r| r.errors.clone()));
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {} seed {} seconds {} callers {CALLERS} servers {SERVERS} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let _ = writeln!(
        report,
        "end-to-end (untraced; warm-up {:.0}/s over {:.2} s discarded; measured {:.2} s):",
        warmup.ops() as f64 / warmup.wall_s,
        warmup.wall_s,
        measured.wall_s,
    );
    render(&mut report, &e2e);
    let _ = writeln!(report, "reported only:");
    render(&mut report, &extra);

    let metrics = if args.trace {
        let tracer = Tracer::new();
        // Replace the untraced mount so only the traced one's threads run.
        let Live {
            fs,
            cluster,
            mut states,
        } = live;
        drop(fs);
        let (tfs, reactors) = cluster.mount_traced(&tracer)?;
        let sampler = Sampler {
            queue_depth_max: AtomicU64::new(0),
            stored_max: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        };
        let a = Counters::take(&cluster, &tfs);
        let traced = std::thread::scope(|scope| {
            let sampler_thread = scope.spawn(|| sampler.run(&cluster));
            let traced = measure(
                w,
                &tfs,
                args.seed,
                &mut states,
                Duration::from_secs_f64(args.seconds),
                &Some(std::sync::Arc::clone(&tracer)),
            );
            sampler.stop.store(true, Ordering::Relaxed);
            sampler_thread.join().expect("sampler thread panicked");
            traced
        });
        let b = Counters::take(&cluster, &tfs);
        let spans = tracer.take();
        let dump = PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.tsv",
            args.workload, args.seed
        ));
        if let Err(e) = Tracer::dump(&spans[..spans.len().min(DUMP_SPANS)], &dump) {
            eprintln!("span dump {}: {e}", dump.display());
        }
        let p = per_layer(
            &traced,
            untraced_rate,
            &spans,
            &a,
            &b,
            &sampler,
            w.live_bytes(&states),
        );
        attempted += traced.ops();
        failed += traced.failed();
        errors.extend(traced.recs().iter().flat_map(|r| r.errors.clone()));
        let _ = writeln!(
            report,
            "per-layer (traced, {:.2} s measured, {} spans, the first {} in {}):",
            traced.wall_s,
            spans.len(),
            spans.len().min(DUMP_SPANS),
            dump.display()
        );
        for (g, _, n) in &traced.groups {
            let u = traced.group(g);
            let n = if *g == "callers" { CALLERS } else { *n };
            let _ = writeln!(
                report,
                "  threads {g:<10} {n:>2}: {:.2} cpu-s, {} voluntary and {} involuntary switches",
                u.cpu_s, u.vcsw, u.ivcsw
            );
        }
        render(&mut report, &p);
        drop(tfs);
        drop(reactors);
        drop(cluster);
        p
    } else {
        e2e
    };
    Ok(Outcome {
        report,
        metrics,
        attempted,
        failed,
        errors,
    })
}

fn render(out: &mut String, m: &Metrics) {
    for x in &m.0 {
        let _ = writeln!(
            out,
            "  {:<40} {:>14.4} {:<7} {}",
            x.name, x.value, x.unit, x.note
        );
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <stream-32m|meta-4k|random-4k|montage-1x1> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "stream-32m" => drive(&Stream, &args),
        "meta-4k" => drive(&Meta, &args),
        "random-4k" => drive(&Random, &args),
        "montage-1x1" => drive(&Montage::new(), &args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", outcome.report);
    for e in &outcome.errors {
        println!("error: {e}");
    }
    println!("{}", result_line(&outcome));
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
