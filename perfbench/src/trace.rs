//! Outside-in tracing for the traced run: a [`KvClient`] wrapper that
//! times every call into the KV layer, and spans the callers record
//! around every call into the file-system layer. Nothing inside the
//! program is instrumented.
//!
//! Spans of one request share an identifier. A KV call made on a caller
//! thread inside a file-system call takes that call's id as its parent
//! and request id. A batch issued on a background thread (`memfs-io`
//! drains and prefetches) has no parent; its request id is the file it
//! serves, parsed from its keys with [`KeySchema::parse`].

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use memfs_hashring::schema::{KeySchema, ParsedKey};
use memfs_memkv::client::ServerHealth;
use memfs_memkv::{Deferred, KvClient, KvError, ReactorStatsSnapshot};

use crate::content::path_hash;

type KvResult<T> = Result<T, KvError>;

/// Which layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A call into `MemFs` / `WriteHandle` / `ReadHandle`.
    Fs,
    /// A call into a `KvClient` (one server).
    Kv,
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Boundary the call crossed.
    pub layer: Layer,
    /// Operation name (`create`, `start_get_many`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End (for deferred KV batches: completion), same clock.
    pub end_ns: u64,
    /// This span's id (file-system spans; 0 for KV spans).
    pub id: u64,
    /// The file-system span that caused this one (0: none).
    pub parent: u64,
    /// Request id shared by the spans of one request.
    pub req: u64,
    /// Hash of the file path the call concerns (0: none).
    pub file: u64,
    /// Server index (KV spans).
    pub server: u32,
    /// Keys carried (KV spans).
    pub keys: u32,
    /// Stripe keys among them.
    pub stripe_keys: u32,
    /// Value bytes sent.
    pub tx_bytes: u64,
    /// Value bytes received.
    pub rx_bytes: u64,
    /// Caller index + 1, or 0 for any other thread.
    pub thread: u32,
}

thread_local! {
    /// (current file-system span id, caller index + 1) of this thread.
    static CONTEXT: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

/// Span sink shared by the wrapper and the callers. Spans stay in
/// memory until [`Tracer::dump`].
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Run `f` as file-system call `name` on `path` from caller `caller`,
    /// recording its span and making it the parent of the KV calls it
    /// makes on this thread.
    pub fn fs_call<T>(
        &self,
        name: &'static str,
        path: &str,
        caller: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let saved = CONTEXT.with(|c| c.replace((id, caller + 1)));
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        CONTEXT.with(|c| c.set(saved));
        self.push(Span {
            layer: Layer::Fs,
            name,
            start_ns,
            end_ns,
            id,
            parent: 0,
            req: id,
            file: path_hash(path),
            server: 0,
            keys: 0,
            stripe_keys: 0,
            tx_bytes: 0,
            rx_bytes: 0,
            thread: caller + 1,
        });
        out
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }

    /// Write `spans` as tab-separated lines to `path`.
    pub fn dump(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "layer\tname\tstart_ns\tend_ns\tid\tparent\treq\tfile\tserver\tkeys\tstripe_keys\ttx_bytes\trx_bytes\tthread"
        )?;
        for s in spans {
            writeln!(
                out,
                "{:?}\t{}\t{}\t{}\t{}\t{}\t{}\t{:x}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                s.id,
                s.parent,
                s.req,
                s.file,
                s.server,
                s.keys,
                s.stripe_keys,
                s.tx_bytes,
                s.rx_bytes,
                s.thread
            )?;
        }
        out.flush()
    }
}

/// The file a raw key belongs to, and whether it is a stripe.
fn key_file(key: &[u8]) -> (u64, bool) {
    match KeySchema::parse(key) {
        ParsedKey::Stripe { path, .. } => (path_hash(path), true),
        ParsedKey::FileMeta { path } | ParsedKey::DirMeta { path } => (path_hash(path), false),
        ParsedKey::Foreign => (0, false),
    }
}

/// Payload size of a per-key result, for received-byte accounting.
trait Payload {
    fn payload(&self) -> usize;
}

impl Payload for Bytes {
    fn payload(&self) -> usize {
        self.len()
    }
}

impl Payload for () {
    fn payload(&self) -> usize {
        0
    }
}

fn rx_of<T: Payload>(r: &KvResult<Vec<KvResult<T>>>) -> u64 {
    match r {
        Ok(v) => v.iter().flatten().map(|x| x.payload() as u64).sum(),
        Err(_) => 0,
    }
}

/// A span under construction: everything but the end time and the
/// received bytes.
struct Open {
    tracer: Arc<Tracer>,
    span: Span,
}

impl Open {
    fn finish(mut self, end_ns: u64, rx_bytes: u64) {
        self.span.end_ns = end_ns;
        self.span.rx_bytes = rx_bytes;
        self.tracer.push(self.span);
    }
}

/// Times every [`KvClient`] call into one server and forwards it
/// unchanged — including [`KvClient::supports_submit`] and the
/// `start_*` split, so a mount over wrapped clients takes the same
/// evented dispatch path as one over bare [`memfs_memkv::TcpClient`]s.
pub struct TimingClient {
    inner: Arc<dyn KvClient>,
    server: u32,
    tracer: Arc<Tracer>,
}

impl TimingClient {
    /// Wrap `inner`, the client of server `server`.
    pub fn new(inner: Arc<dyn KvClient>, server: u32, tracer: Arc<Tracer>) -> TimingClient {
        TimingClient {
            inner,
            server,
            tracer,
        }
    }

    fn open<'a>(
        &self,
        name: &'static str,
        keys: impl Iterator<Item = &'a [u8]>,
        tx_bytes: u64,
    ) -> Open {
        let (parent, thread) = CONTEXT.with(Cell::get);
        let mut file = 0;
        let mut n = 0u32;
        let mut stripes = 0u32;
        for k in keys {
            let (f, stripe) = key_file(k);
            if n == 0 {
                file = f;
            }
            n += 1;
            stripes += u32::from(stripe);
        }
        Open {
            tracer: Arc::clone(&self.tracer),
            span: Span {
                layer: Layer::Kv,
                name,
                start_ns: self.tracer.now(),
                end_ns: 0,
                id: 0,
                parent,
                // Background batches carry the file as their request id.
                req: if parent != 0 { parent } else { file },
                file,
                server: self.server,
                keys: n,
                stripe_keys: stripes,
                tx_bytes,
                rx_bytes: 0,
                thread,
            },
        }
    }

    fn timed<T: Payload>(&self, open: Open, f: impl FnOnce() -> KvResult<T>) -> KvResult<T> {
        let r = f();
        let rx = r.as_ref().map_or(0, |v| v.payload() as u64);
        open.finish(self.tracer.now(), rx);
        r
    }

    fn timed_many<T: Payload>(
        &self,
        open: Open,
        f: impl FnOnce() -> KvResult<Vec<KvResult<T>>>,
    ) -> KvResult<Vec<KvResult<T>>> {
        let r = f();
        open.finish(self.tracer.now(), rx_of(&r));
        r
    }

    /// Wrap a deferred batch so its completion time is recorded: the
    /// first time the readiness probe answers true, or else when the
    /// result is taken. Readiness probing is kept.
    fn deferred<T: Payload + Send + 'static>(&self, open: Open, d: Deferred<T>) -> Deferred<T> {
        match d {
            Deferred::Ready(r) => {
                open.finish(self.tracer.now(), rx_of(&r));
                Deferred::Ready(r)
            }
            Deferred::Pending(finish) => Deferred::Pending(Box::new(move || {
                let r = finish();
                let end = open.tracer.now();
                let rx = rx_of(&r);
                open.finish(end, rx);
                r
            })),
            Deferred::Polled { ready, finish } => {
                let done_at = Arc::new(AtomicU64::new(0));
                let probe_done = Arc::clone(&done_at);
                let tracer = Arc::clone(&open.tracer);
                Deferred::Polled {
                    ready: Box::new(move || {
                        let r = ready();
                        if r && probe_done.load(Ordering::Relaxed) == 0 {
                            probe_done.store(tracer.now().max(1), Ordering::Relaxed);
                        }
                        r
                    }),
                    finish: Box::new(move || {
                        let r = finish();
                        let end = match done_at.load(Ordering::Relaxed) {
                            0 => open.tracer.now(),
                            t => t,
                        };
                        let rx = rx_of(&r);
                        open.finish(end, rx);
                        r
                    }),
                }
            }
        }
    }
}

fn item_keys(items: &[(Bytes, Bytes)]) -> impl Iterator<Item = &[u8]> {
    items.iter().map(|(k, _)| &k[..])
}

fn item_bytes(items: &[(Bytes, Bytes)]) -> u64 {
    items.iter().map(|(_, v)| v.len() as u64).sum()
}

impl KvClient for TimingClient {
    fn set(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        let open = self.open("set", std::iter::once(key), value.len() as u64);
        self.timed(open, || self.inner.set(key, value))
    }
    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        let open = self.open("add", std::iter::once(key), value.len() as u64);
        self.timed(open, || self.inner.add(key, value))
    }
    fn get(&self, key: &[u8]) -> KvResult<Bytes> {
        let open = self.open("get", std::iter::once(key), 0);
        self.timed(open, || self.inner.get(key))
    }
    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        let open = self.open("append", std::iter::once(key), suffix.len() as u64);
        self.timed(open, || self.inner.append(key, suffix))
    }
    fn delete(&self, key: &[u8]) -> KvResult<()> {
        let open = self.open("delete", std::iter::once(key), 0);
        self.timed(open, || self.inner.delete(key))
    }
    fn get_many(&self, keys: &[Bytes]) -> KvResult<Vec<KvResult<Bytes>>> {
        let open = self.open("get_many", keys.iter().map(|k| &k[..]), 0);
        self.timed_many(open, || self.inner.get_many(keys))
    }
    fn set_many(&self, items: &[(Bytes, Bytes)]) -> KvResult<Vec<KvResult<()>>> {
        let open = self.open("set_many", item_keys(items), item_bytes(items));
        self.timed_many(open, || self.inner.set_many(items))
    }
    fn delete_many(&self, keys: &[Bytes]) -> KvResult<Vec<KvResult<()>>> {
        let open = self.open("delete_many", keys.iter().map(|k| &k[..]), 0);
        self.timed_many(open, || self.inner.delete_many(keys))
    }
    fn contains(&self, key: &[u8]) -> bool {
        let open = self.open("contains", std::iter::once(key), 0);
        let r = self.inner.contains(key);
        open.finish(self.tracer.now(), 0);
        r
    }
    fn supports_submit(&self) -> bool {
        self.inner.supports_submit()
    }
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
        let open = self.open("start_get_many", keys.iter().map(|k| &k[..]), 0);
        let d = self.inner.start_get_many(keys);
        self.deferred(open, d)
    }
    fn start_set_many(&self, items: &[(Bytes, Bytes)]) -> Deferred<()> {
        let open = self.open("start_set_many", item_keys(items), item_bytes(items));
        let d = self.inner.start_set_many(items);
        self.deferred(open, d)
    }
    fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
        let open = self.open("start_delete_many", keys.iter().map(|k| &k[..]), 0);
        let d = self.inner.start_delete_many(keys);
        self.deferred(open, d)
    }
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        let open = self.open("scan_keys", std::iter::empty(), 0);
        let r = self.inner.scan_keys();
        open.finish(self.tracer.now(), 0);
        r
    }
    fn reactor_stats(&self) -> Option<ReactorStatsSnapshot> {
        self.inner.reactor_stats()
    }
    fn health(&self) -> ServerHealth {
        self.inner.health()
    }
}

/// What the analysis derives from one traced phase's spans.
#[derive(Debug, Default)]
pub struct Attribution {
    /// KV calls caused by each file-system call kind, summed.
    pub kv_calls: HashMap<&'static str, u64>,
    /// File-system calls of each kind.
    pub fs_calls: HashMap<&'static str, u64>,
    /// Σ over file-system calls of (duration − time covered by their
    /// own thread's KV spans), in ns.
    pub self_ns: u64,
    /// Σ of file-system call durations, in ns.
    pub fs_ns: u64,
    /// Σ of the KV-covered parts of those durations, in ns.
    pub covered_ns: u64,
    /// Batch round trips (submit → completion) per server, in µs.
    pub batch_rtt_us: Vec<Vec<f64>>,
    /// Value bytes of the directory logs `readdir` fetched, and how many.
    pub dir_log_bytes: u64,
    /// `readdir` directory-log fetches.
    pub dir_log_fetches: u64,
    /// Stripe keys fetched by gets of any form.
    pub stripe_keys_fetched: u64,
}

/// Attribute `spans` (one traced phase) to the file-system calls that
/// caused them.
pub fn attribute(spans: &[Span], n_servers: usize) -> Attribution {
    let mut a = Attribution {
        batch_rtt_us: vec![Vec::new(); n_servers],
        ..Attribution::default()
    };
    let mut kind_of: HashMap<u64, &'static str> = HashMap::new();
    // Caller-thread KV intervals per parent, and background KV starts
    // per file.
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut background: HashMap<u64, Vec<u64>> = HashMap::new();
    for s in spans {
        match s.layer {
            Layer::Fs => {
                kind_of.insert(s.id, s.name);
            }
            Layer::Kv => {
                if s.parent != 0 {
                    children
                        .entry(s.parent)
                        .or_default()
                        .push((s.start_ns, s.end_ns));
                } else if s.file != 0 {
                    background.entry(s.file).or_default().push(s.start_ns);
                }
                if s.name.ends_with("_many") {
                    if let Some(v) = a.batch_rtt_us.get_mut(s.server as usize) {
                        v.push(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3);
                    }
                }
                if s.name.contains("get") {
                    a.stripe_keys_fetched += u64::from(s.stripe_keys);
                }
            }
        }
    }
    for v in background.values_mut() {
        v.sort_unstable();
    }
    for s in spans
        .iter()
        .filter(|s| s.layer == Layer::Kv && s.parent != 0)
    {
        if kind_of.get(&s.parent) == Some(&"readdir") && s.name == "get" {
            a.dir_log_bytes += s.rx_bytes;
            a.dir_log_fetches += 1;
        }
    }
    for s in spans.iter().filter(|s| s.layer == Layer::Fs) {
        let mut own = children.remove(&s.id).unwrap_or_default();
        let bg = background.get(&s.file).map_or(0, |starts| {
            let lo = starts.partition_point(|&t| t < s.start_ns);
            let hi = starts.partition_point(|&t| t <= s.end_ns);
            hi - lo
        });
        *a.kv_calls.entry(s.name).or_default() += (own.len() + bg) as u64;
        *a.fs_calls.entry(s.name).or_default() += 1;
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = covered(&mut own, s.start_ns, s.end_ns);
        a.fs_ns += dur;
        a.covered_ns += covered;
        a.self_ns += dur - covered.min(dur);
    }
    a
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_and_clips() {
        let mut v = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered(&mut v, 1, 25), 2 + 7 + 5);
        assert_eq!(covered(&mut [], 0, 10), 0);
    }

    #[test]
    fn attribution_links_caller_and_background_spans() {
        let fs = |id, name, start, end, file| Span {
            layer: Layer::Fs,
            name,
            start_ns: start,
            end_ns: end,
            id,
            parent: 0,
            req: id,
            file,
            server: 0,
            keys: 0,
            stripe_keys: 0,
            tx_bytes: 0,
            rx_bytes: 0,
            thread: 1,
        };
        let kv = |parent, name, start, end, file| Span {
            layer: Layer::Kv,
            id: 0,
            parent,
            req: if parent != 0 { parent } else { file },
            thread: u32::from(parent != 0),
            keys: 1,
            stripe_keys: 1,
            ..fs(0, name, start, end, file)
        };
        let spans = vec![
            fs(1, "close", 100, 200, 7),
            kv(1, "set", 150, 190, 7),
            kv(0, "set_many", 110, 140, 7),
            kv(0, "set_many", 300, 310, 7),
            fs(2, "readdir", 400, 500, 9),
            kv(2, "get", 410, 450, 9),
        ];
        let a = attribute(&spans, 1);
        assert_eq!(a.kv_calls["close"], 2);
        assert_eq!(a.kv_calls["readdir"], 1);
        assert_eq!(a.fs_calls["close"], 1);
        assert_eq!(a.covered_ns, 40 + 40);
        assert_eq!(a.self_ns, 60 + 60);
        assert_eq!(a.batch_rtt_us[0].len(), 2);
        assert_eq!(a.dir_log_fetches, 1);
        assert_eq!(a.stripe_keys_fetched, 1);
    }
}
