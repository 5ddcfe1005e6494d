//! The closed-loop callers: each is one thread that issues its next
//! file-system call only after the previous one returned, and records
//! what it saw.

use std::sync::Arc;
use std::time::Instant;

use memfs_core::MemFsResult;

use crate::procfs::{self, Usage};
use crate::trace::Tracer;

/// The file-system calls the callers make (client ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `MemFs::mkdir`.
    Mkdir,
    /// `MemFs::create`.
    Create,
    /// `WriteHandle::write_bytes`.
    Write,
    /// `WriteHandle::close`.
    Close,
    /// `MemFs::open`.
    Open,
    /// `ReadHandle::read_at`.
    ReadAt,
    /// `MemFs::stat`.
    Stat,
    /// `MemFs::readdir`.
    Readdir,
    /// `MemFs::unlink`.
    Unlink,
}

impl Op {
    /// Every op, in index order.
    pub const ALL: [Op; 9] = [
        Op::Mkdir,
        Op::Create,
        Op::Write,
        Op::Close,
        Op::Open,
        Op::ReadAt,
        Op::Stat,
        Op::Readdir,
        Op::Unlink,
    ];

    /// Span and metric name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Mkdir => "mkdir",
            Op::Create => "create",
            Op::Write => "write",
            Op::Close => "close",
            Op::Open => "open",
            Op::ReadAt => "read_at",
            Op::Stat => "stat",
            Op::Readdir => "readdir",
            Op::Unlink => "unlink",
        }
    }

    /// The metadata operations of the paper's create/open throughput
    /// (Fig. 6) and of `meta_op_*`.
    pub fn is_meta(self) -> bool {
        matches!(
            self,
            Op::Create | Op::Open | Op::Stat | Op::Readdir | Op::Unlink
        )
    }
}

/// Everything one caller observed.
pub struct Rec {
    /// Caller index.
    pub caller: u32,
    tracer: Option<Arc<Tracer>>,
    /// Latency of each call in µs, indexed like [`Op::ALL`].
    pub lat_us: Vec<Vec<f64>>,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that failed, plus wrong-content results.
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// Payload bytes returned by `read_at`.
    pub bytes_read: u64,
    /// Payload bytes handed to `write_bytes`.
    pub bytes_written: u64,
    /// Seconds spent reading files (open → last read).
    pub read_s: f64,
    /// Seconds spent writing files (create → close).
    pub write_s: f64,
    /// Per-file write time (create → close), ms.
    pub file_write_ms: Vec<f64>,
    /// Per-file read time (open → last read), ms.
    pub file_read_ms: Vec<f64>,
    /// Stripes reads moved onto: each stripe a read touched other than
    /// the one the handle's previous read ended in (the stripes a reader
    /// actually used).
    pub stripe_visits: u64,
    /// This caller thread's CPU and context switches.
    pub usage: Usage,
}

impl Rec {
    /// A fresh record for caller `caller`; spans go to `tracer` if set.
    pub fn new(caller: u32, tracer: Option<Arc<Tracer>>) -> Rec {
        Rec {
            caller,
            tracer,
            lat_us: vec![Vec::new(); Op::ALL.len()],
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            bytes_read: 0,
            bytes_written: 0,
            read_s: 0.0,
            write_s: 0.0,
            file_write_ms: Vec::new(),
            file_read_ms: Vec::new(),
            stripe_visits: 0,
            usage: Usage::default(),
        }
    }

    /// Make call `op` on `path`, timing it (and tracing it in a traced
    /// run). A failed call is counted and yields `None`.
    pub fn call<T>(&mut self, op: Op, path: &str, f: impl FnOnce() -> MemFsResult<T>) -> Option<T> {
        self.attempted += 1;
        let start = Instant::now();
        let out = match &self.tracer {
            Some(t) => t.fs_call(op.name(), path, self.caller, f),
            None => f(),
        };
        self.lat_us[op as usize].push(start.elapsed().as_secs_f64() * 1e6);
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{} {path}: {e}", op.name()));
                None
            }
        }
    }

    /// Count a failure found by a check (wrong bytes, size or listing).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Record a check of a call already counted: a mismatch turns that
    /// call into a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// Run `n` caller threads named `pb-caller-<i>`, each with its own
/// [`Rec`] and its slice of `state`, and return their records. Each
/// thread samples its own `/proc` usage before it exits.
pub fn run_callers<S: Send>(
    state: &mut [S],
    tracer: &Option<Arc<Tracer>>,
    body: impl Fn(&mut Rec, &mut S) + Sync,
) -> Vec<Rec> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .iter_mut()
            .enumerate()
            .map(|(i, s)| {
                let body = &body;
                let tracer = tracer.clone();
                std::thread::Builder::new()
                    .name(format!("pb-caller-{i}"))
                    .spawn_scoped(scope, move || {
                        let start = procfs::thread_self();
                        let mut rec = Rec::new(i as u32, tracer);
                        body(&mut rec, s);
                        rec.usage = procfs::thread_since(start);
                        rec
                    })
                    .expect("spawn caller thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}
