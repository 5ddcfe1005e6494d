//! The four workloads. Each stages its inputs in `setup` (timed as
//! set-up) and then runs its callers as a closed loop until a deadline.
//! Every read is checked against the content oracle, every `stat` size
//! and `readdir` listing against the namespace model.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Instant;

use bytes::Bytes;
use memfs_core::{MemFs, ReadHandle};
use memfs_mtc::workflow::Workflow;

use crate::caller::{run_callers, Op, Rec};
use crate::content::{self, Namespace, Rng};
use crate::trace::Tracer;

/// `read_at` record size for sequential reads: the MTC envelope's
/// iozone record size.
pub const RECORD: usize = 128 << 10;
/// MemFS stripe size at the default configuration.
const STRIPE: u64 = 512 << 10;

/// What a measured phase produced.
pub struct PhaseOut {
    /// One record per caller.
    pub recs: Vec<Rec>,
    /// Completed DAG replays' makespans in seconds (`montage-1x1`).
    pub makespans: Vec<f64>,
}

/// A workload: staged inputs, then a closed loop.
pub trait Workload: Sync {
    /// Per-caller state carried from set-up into the measured phases.
    type State: Send;
    /// Stage inputs and warm up on a fresh mount.
    fn setup(&self, fs: &MemFs, seed: u64, callers: usize) -> (Vec<Self::State>, Vec<Rec>);
    /// Run the closed loop until `deadline` (units of work in progress
    /// at the deadline complete).
    fn phase(
        &self,
        fs: &MemFs,
        seed: u64,
        states: &mut [Self::State],
        deadline: Instant,
        tracer: &Option<Arc<Tracer>>,
    ) -> PhaseOut;
    /// Payload bytes the namespace holds between phases.
    fn live_bytes(&self, states: &[Self::State]) -> u64;
    /// The workload-specific report lines that apply to it.
    fn report(&self) -> &'static [&'static str];
}

/// Create, fill and close `path` with its oracle content.
fn write_file(rec: &mut Rec, fs: &MemFs, seed: u64, path: &str, size: usize) -> bool {
    let data = content::generate(content::file_key(seed, path), size);
    write_data(rec, fs, path, data)
}

/// Create `path`, write `data` to it in one call and close it.
fn write_data(rec: &mut Rec, fs: &MemFs, path: &str, data: Bytes) -> bool {
    let size = data.len();
    let start = Instant::now();
    let Some(mut h) = rec.call(Op::Create, path, || fs.create(path)) else {
        return false;
    };
    let wrote = size == 0 || rec.call(Op::Write, path, || h.write_bytes(data)).is_some();
    let closed = rec.call(Op::Close, path, || h.close()).is_some();
    if !(wrote && closed) {
        return false;
    }
    let dt = start.elapsed().as_secs_f64();
    rec.bytes_written += size as u64;
    rec.write_s += dt;
    rec.file_write_ms.push(dt * 1e3);
    true
}

/// `read_at` `len` bytes at `offset` through `h` and check them.
fn read_range(rec: &mut Rec, h: &ReadHandle, key: u64, offset: u64, buf: &mut [u8]) -> bool {
    let len = buf.len();
    let Some(n) = rec.call(Op::ReadAt, h.path(), || h.read_at(offset, buf)) else {
        return false;
    };
    let ok = n == len && content::verify(key, offset, buf);
    rec.check(ok, || {
        format!("read_at {} @{offset}: wrong bytes", h.path())
    });
    rec.bytes_read += n as u64;
    ok
}

/// Open `path` and read it whole in `record`-byte `read_at` calls,
/// checking its size and every byte against the content keyed `key`.
fn read_file(
    rec: &mut Rec,
    fs: &MemFs,
    key: u64,
    path: &str,
    size: u64,
    buf: &mut Vec<u8>,
) -> bool {
    let start = Instant::now();
    let Some(h) = rec.call(Op::Open, path, || fs.open(path)) else {
        return false;
    };
    let size_ok = h.size() == size;
    rec.check(size_ok, || {
        format!("open {path}: size {} != {size}", h.size())
    });
    buf.resize(RECORD, 0);
    let mut ok = size_ok;
    let mut offset = 0u64;
    let mut last = None;
    while offset < size {
        let n = RECORD.min((size - offset) as usize);
        visit(rec, &mut last, offset, n);
        ok &= read_range(rec, &h, key, offset, &mut buf[..n]);
        offset += n as u64;
    }
    let dt = start.elapsed().as_secs_f64();
    rec.read_s += dt;
    rec.file_read_ms.push(dt * 1e3);
    ok
}

/// Count the stripes a read of `len` bytes at `offset` moves onto:
/// those other than the stripe the handle's previous read ended in.
fn visit(rec: &mut Rec, last: &mut Option<u64>, offset: u64, len: usize) {
    let (first, end) = (offset / STRIPE, (offset + len as u64 - 1) / STRIPE);
    rec.stripe_visits += (first..=end).filter(|&s| Some(s) != *last).count() as u64;
    *last = Some(end);
}

fn mkdir(rec: &mut Rec, fs: &MemFs, ns: &mut Namespace, dir: &str) -> bool {
    let ok = rec.call(Op::Mkdir, dir, || fs.mkdir(dir)).is_some();
    ns.mkdir(dir);
    ok
}

fn unlink(rec: &mut Rec, fs: &MemFs, ns: &mut Namespace, path: &str) {
    rec.call(Op::Unlink, path, || fs.unlink(path));
    ns.remove_file(path);
}

fn readdir_check(rec: &mut Rec, fs: &MemFs, ns: &Namespace, dir: &str) {
    if let Some(list) = rec.call(Op::Readdir, dir, || fs.readdir(dir)) {
        let names: Vec<String> = list.into_iter().map(|e| e.name).collect();
        let ok = ns.listing_matches(dir, &names);
        rec.check(ok, || {
            format!("readdir {dir}: listing differs from the model")
        });
    }
}

/// Make the shared top directory (once, from caller 0's record).
fn top_dir(fs: &MemFs, rec: &mut Rec, dir: &str) {
    rec.call(Op::Mkdir, dir, || fs.mkdir(dir));
}

/// Run set-up for `callers` callers: caller `i` gets `make(i)` as its
/// state and then runs `body` once.
fn setup_callers<S: Send>(
    fs: &MemFs,
    top: &str,
    callers: usize,
    make: impl Fn(usize) -> S,
    body: impl Fn(&mut Rec, &mut S) + Sync,
) -> (Vec<S>, Vec<Rec>) {
    let mut first = Rec::new(0, None);
    top_dir(fs, &mut first, top);
    let mut states: Vec<S> = (0..callers).map(make).collect();
    let mut recs = run_callers(&mut states, &None, body);
    recs.push(first);
    (states, recs)
}

/// `stream-32m`: whole 32 MiB files written, then read back in 128 KiB
/// records, then unlinked, the callers in lockstep.
pub struct Stream;

/// One `stream-32m` caller.
pub struct StreamState {
    caller: usize,
    next: u64,
    ns: Namespace,
    buf: Vec<u8>,
    /// File contents generated in set-up, used in turn, with their keys:
    /// the loop then spends no caller time or page faults making 32 MiB
    /// per file, and consecutive files still differ.
    contents: Vec<(u64, Bytes)>,
}

/// Distinct contents each `stream-32m` caller cycles through.
const STREAM_CONTENTS: u64 = 2;

const STREAM_FILE: usize = 32 << 20;
/// Files per directory before a caller moves to a fresh one, so the
/// directory log a create appends to stays short.
const STREAM_FILES_PER_DIR: u64 = 64;

impl StreamState {
    fn dir(&self) -> String {
        format!(
            "/stream/c{}/d{}",
            self.caller,
            self.next / STREAM_FILES_PER_DIR
        )
    }

    /// One file: every caller writes its file, then (after `sync`)
    /// every caller reads its file back and unlinks it. Writing and
    /// reading in lockstep is the envelope's write-then-read shape, and
    /// keeps each bandwidth from depending on how the callers' phases
    /// happened to overlap.
    fn cycle(&mut self, rec: &mut Rec, fs: &MemFs, sync: &Barrier) {
        if self.next.is_multiple_of(STREAM_FILES_PER_DIR) {
            let dir = self.dir();
            mkdir(rec, fs, &mut self.ns, &dir);
        }
        let path = format!("{}/f{}", self.dir(), self.next);
        let (key, data) = self.contents[(self.next % STREAM_CONTENTS) as usize].clone();
        self.next += 1;
        let written = write_data(rec, fs, &path, data);
        sync.wait();
        if written {
            self.ns.add_file(&path, STREAM_FILE as u64);
            read_file(rec, fs, key, &path, STREAM_FILE as u64, &mut self.buf);
        }
        unlink(rec, fs, &mut self.ns, &path);
    }
}

impl Workload for Stream {
    type State = StreamState;

    fn report(&self) -> &'static [&'static str] {
        &["file_write_tail_ms", "file_read_tail_ms"]
    }

    fn live_bytes(&self, _: &[StreamState]) -> u64 {
        0
    }

    fn setup(&self, fs: &MemFs, seed: u64, callers: usize) -> (Vec<StreamState>, Vec<Rec>) {
        let make = |caller| StreamState {
            caller,
            next: 0,
            ns: Namespace::default(),
            buf: Vec::new(),
            contents: (0..STREAM_CONTENTS)
                .map(|i| {
                    let key = content::file_key(seed, &format!("/stream/c{caller}/content{i}"));
                    (key, content::generate(key, STREAM_FILE))
                })
                .collect(),
        };
        let sync = Barrier::new(callers);
        setup_callers(fs, "/stream", callers, make, |rec, s| {
            let dir = format!("/stream/c{}", s.caller);
            mkdir(rec, fs, &mut s.ns, &dir);
            // Warm-up: one file each, so first-touch of store memory is
            // paid in set-up.
            s.cycle(rec, fs, &sync);
        })
    }

    fn phase(
        &self,
        fs: &MemFs,
        _seed: u64,
        states: &mut [StreamState],
        deadline: Instant,
        tracer: &Option<Arc<Tracer>>,
    ) -> PhaseOut {
        let sync = Barrier::new(states.len());
        let go = AtomicBool::new(true);
        let recs = run_callers(states, tracer, |rec, s| loop {
            // One caller decides for all whether another cycle starts.
            if sync.wait().is_leader() {
                go.store(Instant::now() < deadline, Ordering::SeqCst);
            }
            sync.wait();
            if !go.load(Ordering::SeqCst) {
                break;
            }
            s.cycle(rec, fs, &sync);
        });
        PhaseOut {
            recs,
            makespans: Vec::new(),
        }
    }
}

/// `meta-4k`: create+write 4 KiB+close, open+read, stat; a `readdir`
/// every [`META_READDIR_EVERY`] files, and unlink of files older than
/// [`META_WINDOW`], in fresh directories of bounded size.
pub struct Meta;

/// One `meta-4k` caller.
pub struct MetaState {
    caller: usize,
    next: u64,
    live: VecDeque<String>,
    ns: Namespace,
    buf: Vec<u8>,
}

const META_FILE: usize = 4 << 10;
const META_FILES_PER_DIR: u64 = 256;
const META_WINDOW: usize = 32;
const META_READDIR_EVERY: u64 = 16;

impl MetaState {
    fn dir(&self) -> String {
        format!("/meta/c{}/d{}", self.caller, self.next / META_FILES_PER_DIR)
    }

    fn cycle(&mut self, rec: &mut Rec, fs: &MemFs, seed: u64) {
        if self.next.is_multiple_of(META_FILES_PER_DIR) {
            // Retire the previous directory's files, then start afresh:
            // directory logs never compact, so a bounded directory keeps
            // per-op cost from drifting with run length.
            while let Some(old) = self.live.pop_front() {
                unlink(rec, fs, &mut self.ns, &old);
            }
            let dir = self.dir();
            mkdir(rec, fs, &mut self.ns, &dir);
        }
        let dir = self.dir();
        let path = format!("{dir}/f{}", self.next);
        self.next += 1;
        if write_file(rec, fs, seed, &path, META_FILE) {
            self.ns.add_file(&path, META_FILE as u64);
            let key = content::file_key(seed, &path);
            read_file(rec, fs, key, &path, META_FILE as u64, &mut self.buf);
            if let Some(st) = rec.call(Op::Stat, &path, || fs.stat(&path)) {
                let ok = Some(st.size) == self.ns.size(&path) && st.finalized;
                rec.check(ok, || format!("stat {path}: {st:?}"));
            }
            self.live.push_back(path);
        }
        if self.live.len() > META_WINDOW {
            let old = self.live.pop_front().expect("window is non-empty");
            unlink(rec, fs, &mut self.ns, &old);
        }
        if self.next.is_multiple_of(META_READDIR_EVERY) {
            readdir_check(rec, fs, &self.ns, &dir);
        }
    }
}

/// `meta-4k` warm-up cycles per caller in set-up.
const META_WARMUP: usize = 64;

impl Workload for Meta {
    type State = MetaState;

    fn report(&self) -> &'static [&'static str] {
        &[
            "meta_ops_per_s",
            "meta_op_p50_us",
            "meta_op_tail_us",
            "cpu_us_per_meta_op",
        ]
    }

    fn live_bytes(&self, states: &[MetaState]) -> u64 {
        states.iter().map(|s| s.live.len() as u64).sum::<u64>() * META_FILE as u64
    }

    fn setup(&self, fs: &MemFs, seed: u64, callers: usize) -> (Vec<MetaState>, Vec<Rec>) {
        let make = |caller| MetaState {
            caller,
            next: 0,
            live: VecDeque::new(),
            ns: Namespace::default(),
            buf: Vec::new(),
        };
        setup_callers(fs, "/meta", callers, make, |rec, s| {
            let dir = format!("/meta/c{}", s.caller);
            mkdir(rec, fs, &mut s.ns, &dir);
            for _ in 0..META_WARMUP {
                s.cycle(rec, fs, seed);
            }
        })
    }

    fn phase(
        &self,
        fs: &MemFs,
        seed: u64,
        states: &mut [MetaState],
        deadline: Instant,
        tracer: &Option<Arc<Tracer>>,
    ) -> PhaseOut {
        let recs = run_callers(states, tracer, |rec, s| {
            while Instant::now() < deadline {
                s.cycle(rec, fs, seed);
            }
        });
        PhaseOut {
            recs,
            makespans: Vec::new(),
        }
    }
}

/// `random-4k`: seeded uniform 4 KiB `read_at`s over each caller's own
/// pre-written 64 MiB file, through one open handle.
pub struct Random;

/// One `random-4k` caller.
pub struct RandomState {
    caller: usize,
    path: String,
    phases: u64,
}

const RANDOM_FILE: u64 = 64 << 20;
const RANDOM_READ: usize = 4 << 10;
const RANDOM_WARMUP: usize = 256;

impl RandomState {
    fn reads(&mut self, rec: &mut Rec, fs: &MemFs, seed: u64, until: impl Fn(usize) -> bool) {
        let path = self.path.clone();
        let Some(h) = rec.call(Op::Open, &path, || fs.open(&path)) else {
            return;
        };
        let size_ok = h.size() == RANDOM_FILE;
        rec.check(size_ok, || format!("open {path}: size {}", h.size()));
        // A fresh offset stream per phase, fixed by the seed.
        let mut rng = Rng::new(seed, (self.caller as u64) << 32 | self.phases);
        self.phases += 1;
        let key = content::file_key(seed, &path);
        let mut buf = vec![0u8; RANDOM_READ];
        let mut i = 0;
        let mut last = None;
        while !until(i) {
            let offset = rng.below(RANDOM_FILE / RANDOM_READ as u64) * RANDOM_READ as u64;
            let start = Instant::now();
            visit(rec, &mut last, offset, RANDOM_READ);
            read_range(rec, &h, key, offset, &mut buf);
            rec.read_s += start.elapsed().as_secs_f64();
            i += 1;
        }
    }
}

impl Workload for Random {
    type State = RandomState;

    fn report(&self) -> &'static [&'static str] {
        &[]
    }

    fn live_bytes(&self, states: &[RandomState]) -> u64 {
        states.len() as u64 * RANDOM_FILE
    }

    fn setup(&self, fs: &MemFs, seed: u64, callers: usize) -> (Vec<RandomState>, Vec<Rec>) {
        let make = |caller| RandomState {
            caller,
            path: format!("/random/c{caller}.dat"),
            phases: 0,
        };
        setup_callers(fs, "/random", callers, make, |rec, s| {
            let path = s.path.clone();
            write_file(rec, fs, seed, &path, RANDOM_FILE as usize);
            s.reads(rec, fs, seed, |i| i >= RANDOM_WARMUP);
        })
    }

    fn phase(
        &self,
        fs: &MemFs,
        seed: u64,
        states: &mut [RandomState],
        deadline: Instant,
        tracer: &Option<Arc<Tracer>>,
    ) -> PhaseOut {
        let recs = run_callers(states, tracer, |rec, s| {
            s.reads(rec, fs, seed, |_| Instant::now() >= deadline);
        });
        PhaseOut {
            recs,
            makespans: Vec::new(),
        }
    }
}

/// `montage-1x1`: the Montage 1×1 DAG replayed in dependency order on
/// the callers, skipping the tasks' CPU time. Replays repeat under
/// fresh `/r<n>` prefixes until the deadline; staged inputs stay.
pub struct Montage {
    wf: Workflow,
    /// Consumer tasks of each file.
    consumers: Vec<Vec<usize>>,
    /// Per replay-relative directory, the names it must list at the end
    /// of a replay.
    listings: BTreeMap<String, Vec<String>>,
    /// Replays started on the current cluster; each gets its own prefix.
    replays: AtomicU32,
}

impl Montage {
    /// The DAG of `memfs_mtc::montage::montage(1, 0)`.
    pub fn new() -> Montage {
        let wf = memfs_mtc::montage::montage(1, 0);
        let mut consumers = vec![Vec::new(); wf.files.len()];
        for (t, task) in wf.tasks.iter().enumerate() {
            for f in &task.inputs {
                consumers[f.0].push(t);
            }
        }
        let mut listings: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for f in wf.files.iter().filter(|f| f.producer.is_some()) {
            let (dir, name) = f.name.rsplit_once('/').expect("montage paths are absolute");
            listings
                .entry(dir.to_string())
                .or_default()
                .push(name.to_string());
        }
        Montage {
            wf,
            consumers,
            listings,
            replays: AtomicU32::new(0),
        }
    }

    /// Path of file `f` in replay `r`: staged inputs are shared, every
    /// produced file lives under the replay's prefix.
    fn path(&self, r: u32, f: usize) -> String {
        let spec = &self.wf.files[f];
        match spec.producer {
            None => spec.name.clone(),
            Some(_) => format!("/r{r}{}", spec.name),
        }
    }

    fn run_task(&self, rec: &mut Rec, fs: &MemFs, seed: u64, r: u32, t: usize, buf: &mut Vec<u8>) {
        let task = &self.wf.tasks[t];
        for f in &task.inputs {
            let size = self.wf.files[f.0].size;
            let path = self.path(r, f.0);
            read_file(rec, fs, content::file_key(seed, &path), &path, size, buf);
        }
        for f in &task.outputs {
            let size = self.wf.files[f.0].size as usize;
            write_file(rec, fs, seed, &self.path(r, f.0), size);
        }
    }

    /// Make the replay's directories.
    fn start_replay(&self, rec: &mut Rec, fs: &MemFs, r: u32) {
        let mut ns = Namespace::default();
        mkdir(rec, fs, &mut ns, &format!("/r{r}"));
        for dir in self.listings.keys() {
            mkdir(rec, fs, &mut ns, &format!("/r{r}{dir}"));
        }
    }

    /// Check every output directory's listing, then unlink the replay's
    /// files so memory stays bounded across replays.
    fn finish_replay(&self, rec: &mut Rec, fs: &MemFs, r: u32) {
        let mut ns = Namespace::default();
        for (dir, names) in &self.listings {
            let dir = format!("/r{r}{dir}");
            ns.mkdir(&dir);
            for n in names {
                ns.add_file(&format!("{dir}/{n}"), 0);
            }
            readdir_check(rec, fs, &ns, &dir);
        }
        for f in (0..self.wf.files.len()).filter(|&f| self.wf.files[f].producer.is_some()) {
            unlink(rec, fs, &mut ns, &self.path(r, f));
        }
    }
}

/// Where the replay loop is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// A caller should make the next replay's directories.
    NeedStart,
    /// Tasks are being handed out.
    Running,
    /// One caller is starting or finishing a replay; others wait.
    Busy,
    /// The deadline passed at a replay boundary.
    Stopped,
}

struct Sched {
    stage: Stage,
    replay: u32,
    ready: VecDeque<usize>,
    remaining: Vec<usize>,
    done: usize,
    start: Instant,
    makespans: Vec<f64>,
}

impl Workload for Montage {
    type State = Vec<u8>;

    fn report(&self) -> &'static [&'static str] {
        &["makespan_s", "file_write_tail_ms", "file_read_tail_ms"]
    }

    fn live_bytes(&self, _: &[Vec<u8>]) -> u64 {
        self.wf.input_bytes()
    }

    fn setup(&self, fs: &MemFs, seed: u64, callers: usize) -> (Vec<Vec<u8>>, Vec<Rec>) {
        self.replays.store(0, Ordering::Relaxed);
        let staged = self.wf.staged_inputs();
        let mut recs = {
            let mut first = Rec::new(0, None);
            top_dir(fs, &mut first, "/in");
            vec![first]
        };
        let mut parts: Vec<(usize, Vec<u8>)> = (0..callers).map(|i| (i, Vec::new())).collect();
        recs.extend(run_callers(&mut parts, &None, |rec, (i, _)| {
            for f in staged.iter().skip(*i).step_by(callers) {
                let spec = &self.wf.files[f.0];
                write_file(rec, fs, seed, &spec.name, spec.size as usize);
            }
        }));
        (parts.into_iter().map(|(_, b)| b).collect(), recs)
    }

    fn phase(
        &self,
        fs: &MemFs,
        seed: u64,
        states: &mut [Vec<u8>],
        deadline: Instant,
        tracer: &Option<Arc<Tracer>>,
    ) -> PhaseOut {
        let n_tasks = self.wf.tasks.len();
        let sched = Mutex::new(Sched {
            stage: Stage::NeedStart,
            replay: 0,
            ready: VecDeque::new(),
            remaining: Vec::new(),
            done: 0,
            start: Instant::now(),
            makespans: Vec::new(),
        });
        let cv = Condvar::new();
        let recs = run_callers(states, tracer, |rec, buf| {
            let mut s = sched.lock().expect("scheduler lock");
            loop {
                if let Some(t) = s.ready.pop_front() {
                    let r = s.replay;
                    drop(s);
                    self.run_task(rec, fs, seed, r, t, buf);
                    s = sched.lock().expect("scheduler lock");
                    s.done += 1;
                    for f in &self.wf.tasks[t].outputs {
                        for &c in &self.consumers[f.0] {
                            s.remaining[c] -= 1;
                            if s.remaining[c] == 0 {
                                s.ready.push_back(c);
                            }
                        }
                    }
                    if s.done == n_tasks {
                        let makespan = s.start.elapsed().as_secs_f64();
                        s.makespans.push(makespan);
                    }
                    cv.notify_all();
                    continue;
                }
                match s.stage {
                    Stage::Stopped => return,
                    Stage::NeedStart if !s.makespans.is_empty() && Instant::now() >= deadline => {
                        s.stage = Stage::Stopped;
                        cv.notify_all();
                        return;
                    }
                    Stage::NeedStart => {
                        s.stage = Stage::Busy;
                        drop(s);
                        let r = self.replays.fetch_add(1, Ordering::Relaxed);
                        self.start_replay(rec, fs, r);
                        s = sched.lock().expect("scheduler lock");
                        s.replay = r;
                        s.remaining = self.wf.tasks.iter().map(|t| t.inputs.len()).collect();
                        for f in self.wf.staged_inputs() {
                            for &c in &self.consumers[f.0] {
                                s.remaining[c] -= 1;
                            }
                        }
                        let sources: Vec<usize> =
                            (0..n_tasks).filter(|&t| s.remaining[t] == 0).collect();
                        s.ready.extend(sources);
                        s.done = 0;
                        s.start = Instant::now();
                        s.stage = Stage::Running;
                        cv.notify_all();
                    }
                    Stage::Running if s.done == n_tasks => {
                        s.stage = Stage::Busy;
                        let r = s.replay;
                        drop(s);
                        self.finish_replay(rec, fs, r);
                        s = sched.lock().expect("scheduler lock");
                        s.stage = Stage::NeedStart;
                        cv.notify_all();
                    }
                    _ => s = cv.wait(s).expect("scheduler lock"),
                }
            }
        });
        let makespans = sched.into_inner().expect("scheduler lock").makespans;
        PhaseOut { recs, makespans }
    }
}
