//! The MemFS mount: the interface an MTC application sees (the FUSE-client
//! role of paper §3.1.3), with write-once / read-many semantics (§3.2.3).
//!
//! Each [`MemFs`] value corresponds to one mountpoint: it owns a single
//! shared [`IoEngine`] whose workers run the write drains and the
//! prefetchers of *every* file opened through the mount, so the thread
//! count is bounded by the config rather than by how many files are open.
//! Per-server fan-out needs no threads: the pool's submit window puts
//! every server's batch on the wire from the calling thread.
//! Creating several `MemFs` values over the same server list
//! reproduces the paper's multi-mountpoint deployment (the fix for the
//! FUSE NUMA-spinlock bottleneck of Figure 10) — placement is a pure
//! function of the key, so all mounts see the same namespace.

use std::io;
use std::sync::Arc;

use bytes::Bytes;
use memfs_hashring::schema::KeySchema;
use memfs_memkv::{KvClient, KvError};

use memfs_hashring::ServerId;

use crate::bufwrite::WriteBuffer;
use crate::config::MemFsConfig;
use crate::error::{MemFsError, MemFsResult};
use crate::layout::StripeLayout;
use crate::meta::{self, ChildKind, SizeRecord};
use crate::mover::{migrate_pass, MigrateConfig, MigrationReport};
use crate::path;
use crate::pool::ServerPool;
use crate::prefetch::StripeReader;
use crate::repair::{repair_pass, RepairConfig, RepairDaemon, RepairReport};
use crate::threadpool::IoEngine;

/// Kind of a namespace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// One `readdir` result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Child name (not the full path).
    pub name: String,
    /// File or directory.
    pub kind: EntryKind,
}

/// Result of [`MemFs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// File or directory.
    pub kind: EntryKind,
    /// File size in bytes (0 for directories).
    pub size: u64,
    /// For files: whether the writer has closed it yet.
    pub finalized: bool,
}

/// TCP transport state a [`MemFs::connect`] mount retains so the
/// membership API can admit replacement servers onto the same shared
/// reactors (zero new threads). In-process mounts have none.
struct NetContext {
    reactors: memfs_memkv::ReactorSet,
    pool_config: memfs_memkv::PoolConfig,
}

struct Inner {
    pool: Arc<ServerPool>,
    config: MemFsConfig,
    engine: Arc<IoEngine>,
    /// Background re-replicator, running when
    /// [`MemFsConfig::repair_interval_ms`] is non-zero. Stopped (thread
    /// joined) when the last mount clone drops. Doubles as the migration
    /// driver while a membership transition is active.
    repair: Option<RepairDaemon>,
    net: Option<NetContext>,
}

/// Completed stripes accumulated per background write-drain job. Each job
/// groups its stripes by owning server and issues one pipelined
/// `set_many` per server, so larger batches amortize round trips; the
/// write buffer clamps it to its in-flight budget.
const WRITE_BATCH_STRIPES: usize = 8;

/// Stripe keys per unlink `delete_many` — bounds the per-call allocation.
/// The submit window puts every server's share on the wire at once, so
/// freeing a deep file pays one round-trip latency per this many stripes.
const UNLINK_BATCH: usize = 4096;

/// Probe width when unlinking a never-finalized file: probing stops at
/// the first round of this many stripe keys that deletes nothing.
const PROBE_BATCH: usize = 64;

fn stripe_key_bytes(path: &str, stripe: u64) -> Bytes {
    Bytes::from(KeySchema::stripe_key(path, stripe))
}

/// A MemFS mountpoint. Cheap to clone (all clones share the I/O engine).
#[derive(Clone)]
pub struct MemFs {
    inner: Arc<Inner>,
}

impl MemFs {
    /// Mount over `servers` with `config`.
    ///
    /// The first mount initializes the root directory; mounting an
    /// already-populated pool attaches to the existing namespace.
    pub fn new(servers: Vec<Arc<dyn KvClient>>, config: MemFsConfig) -> MemFsResult<MemFs> {
        Self::build(servers, config, None)
    }

    fn build(
        servers: Vec<Arc<dyn KvClient>>,
        config: MemFsConfig,
        net: Option<NetContext>,
    ) -> MemFsResult<MemFs> {
        if let Err(msg) = config.validate() {
            return Err(MemFsError::InvalidPath(format!("config: {msg}")));
        }
        // One engine for the whole mount runs the drain and prefetch
        // jobs; the pool fans out on the calling thread under the
        // `io_parallelism` budget and needs no workers of its own.
        let engine = Arc::new(IoEngine::new(config.engine_threads(), "memfs-io"));
        let pool = Arc::new(ServerPool::with_options(
            servers,
            config.distributor,
            config.replication,
            config.io_parallelism,
        ));
        Self::mount(pool, config, engine, net)
    }

    /// Mount over TCP storage servers: connects one
    /// [`memfs_memkv::TcpClient`] per address, all registered on
    /// `config.reactor_threads` shared epoll reactors (default 1 — a
    /// single reactor thread drives the whole cluster and delivers
    /// completions in cross-server batches; clients round-robin over the
    /// reactors when more are configured). `config.pool_connections`
    /// sizes each server's connection pool.
    pub fn connect(
        addrs: &[impl std::net::ToSocketAddrs],
        config: MemFsConfig,
    ) -> MemFsResult<MemFs> {
        if let Err(msg) = config.validate() {
            return Err(MemFsError::InvalidPath(format!("config: {msg}")));
        }
        let n_reactors = config.reactor_threads.min(addrs.len().max(1));
        let reactors = memfs_memkv::ReactorSet::new(n_reactors).map_err(MemFsError::Storage)?;
        let pool_config = memfs_memkv::PoolConfig {
            connections: config.pool_connections,
            heartbeat: (config.heartbeat_ms > 0)
                .then(|| std::time::Duration::from_millis(config.heartbeat_ms)),
            ..memfs_memkv::PoolConfig::default()
        };
        let mut servers: Vec<Arc<dyn KvClient>> = Vec::with_capacity(addrs.len());
        for (i, addr) in addrs.iter().enumerate() {
            let client = memfs_memkv::TcpClient::connect_shared(
                addr,
                pool_config.clone(),
                reactors.handle_for(i),
            )
            .map_err(MemFsError::Storage)?;
            servers.push(Arc::new(client));
        }
        Self::build(
            servers,
            config,
            Some(NetContext {
                reactors,
                pool_config,
            }),
        )
    }

    fn repair_config(config: &MemFsConfig) -> RepairConfig {
        RepairConfig {
            bandwidth: config.repair_bandwidth,
            migrate_bandwidth: config.migrate_bandwidth,
            evict_grace: (config.evict_grace_ms > 0)
                .then(|| std::time::Duration::from_millis(config.evict_grace_ms)),
        }
    }

    fn mount(
        pool: Arc<ServerPool>,
        config: MemFsConfig,
        engine: Arc<IoEngine>,
        net: Option<NetContext>,
    ) -> MemFsResult<MemFs> {
        let repair = (config.repair_interval_ms > 0).then(|| {
            RepairDaemon::spawn(
                Arc::clone(&pool),
                std::time::Duration::from_millis(config.repair_interval_ms),
                Self::repair_config(&config),
            )
        });
        let fs = MemFs {
            inner: Arc::new(Inner {
                pool,
                config,
                engine,
                repair,
                net,
            }),
        };
        // Ensure the root directory exists; racing mounts both succeed.
        match fs.inner.pool.add(&KeySchema::dir_key("/"), Bytes::new()) {
            Ok(()) | Err(MemFsError::Storage(KvError::Exists)) => {}
            Err(e) => return Err(e),
        }
        Ok(fs)
    }

    /// Run one synchronous repair pass over the mount's pool (see
    /// [`crate::repair::repair_pass`]): re-replicates every key the
    /// health census finds short of its home set, under the configured
    /// bandwidth budget. Works whether or not the background daemon is
    /// running.
    pub fn repair_now(&self) -> MemFsResult<RepairReport> {
        repair_pass(&self.inner.pool, &Self::repair_config(&self.inner.config))
    }

    /// Whether the background repair daemon is running.
    pub fn repair_daemon_running(&self) -> bool {
        self.inner.repair.is_some()
    }

    /// Admit one storage server into the live mount: installs a
    /// membership transition whose key ranges migrate in the background
    /// (the repair daemon drives them under
    /// [`MemFsConfig::migrate_bandwidth`]; without a daemon, call
    /// [`Self::migrate_now`] until it reports complete). Foreground
    /// traffic keeps flowing throughout — reads consult the old homes
    /// until a range flips, writes dual-route during its migration
    /// window. Returns the new server's slot id.
    pub fn add_server(&self, client: Arc<dyn KvClient>) -> MemFsResult<ServerId> {
        let ids = self.add_servers(vec![client])?;
        Ok(ids[0])
    }

    /// [`Self::add_server`] for several servers in one transition —
    /// cheaper than admitting them one at a time (one migration instead
    /// of k).
    pub fn add_servers(&self, clients: Vec<Arc<dyn KvClient>>) -> MemFsResult<Vec<ServerId>> {
        self.inner.pool.begin_add_servers(clients)
    }

    /// Admit a TCP storage server by address onto the mount's shared
    /// reactors (zero new threads — its connections join the existing
    /// epoll loops). Only available on [`Self::connect`] mounts.
    pub fn admit_server(&self, addr: impl std::net::ToSocketAddrs) -> MemFsResult<ServerId> {
        let net = self.inner.net.as_ref().ok_or_else(|| {
            MemFsError::InvalidPath("admit_server: not a TCP mount (use add_server)".into())
        })?;
        let slot = self.inner.pool.n_servers();
        let client = memfs_memkv::TcpClient::connect_shared(
            &addr,
            net.pool_config.clone(),
            net.reactors.handle_for(slot),
        )
        .map_err(MemFsError::Storage)?;
        self.add_server(Arc::new(client))
    }

    /// Drain `server` out of the live mount: installs a membership
    /// transition that migrates its owned key ranges onto the remaining
    /// members, after which the slot retires. Rejected while another
    /// transition is active, or if removal would drop the member count
    /// below the replication factor.
    pub fn remove_server(&self, server: ServerId) -> MemFsResult<()> {
        self.inner.pool.begin_remove_server(server)
    }

    /// Whether a membership transition is still migrating.
    pub fn migration_active(&self) -> bool {
        self.inner.pool.transition_active()
    }

    /// Run one synchronous migration pass (see
    /// [`crate::mover::migrate_pass`]) under the configured
    /// [`MemFsConfig::migrate_bandwidth`]. Works whether or not the
    /// background daemon is running; returns `complete: true` once the
    /// transition has committed (or none was active).
    pub fn migrate_now(&self) -> MemFsResult<MigrationReport> {
        migrate_pass(
            &self.inner.pool,
            &MigrateConfig {
                bandwidth: self.inner.config.migrate_bandwidth,
            },
        )
    }

    /// The mount's configuration.
    pub fn config(&self) -> &MemFsConfig {
        &self.inner.config
    }

    /// The server pool behind this mount.
    pub fn pool(&self) -> &Arc<ServerPool> {
        &self.inner.pool
    }

    /// The mount's shared I/O engine — the one dispatcher every open
    /// file's drain, prefetch, and fan-out work runs on.
    pub fn engine(&self) -> &Arc<IoEngine> {
        &self.inner.engine
    }

    fn layout(&self) -> StripeLayout {
        StripeLayout::new(self.inner.config.stripe_size)
    }

    fn dir_exists(&self, dir: &str) -> MemFsResult<bool> {
        Ok(self.inner.pool.try_get(&KeySchema::dir_key(dir))?.is_some())
    }

    /// Create `path` for writing. Fails if the file or a directory of the
    /// same name exists (write-once: a file can be written exactly once),
    /// or if the parent directory is missing.
    pub fn create(&self, raw: &str) -> MemFsResult<WriteHandle> {
        let p = path::normalize(raw)?;
        if p == "/" {
            return Err(MemFsError::IsADirectory(p));
        }
        let parent = path::parent(&p).to_string();
        if !self.dir_exists(&parent)? {
            return Err(MemFsError::ParentNotFound(p));
        }
        if self.dir_exists(&p)? {
            return Err(MemFsError::AlreadyExists(p));
        }
        // The atomic `add` of the empty size record is the write-once
        // gate: the second creator loses, even from another mount.
        match self.inner.pool.add(&KeySchema::file_key(&p), Bytes::new()) {
            Ok(()) => {}
            Err(MemFsError::Storage(KvError::Exists)) => {
                return Err(MemFsError::WriteOnce(p));
            }
            Err(e) => return Err(e),
        }
        self.inner.pool.append(
            &KeySchema::dir_key(&parent),
            &meta::encode_add(path::basename(&p), ChildKind::File),
        )?;
        let buffer = WriteBuffer::new(
            p.clone(),
            self.layout(),
            Arc::clone(&self.inner.pool),
            Arc::clone(&self.inner.engine),
            self.inner.config.write_buffer_stripes(),
            WRITE_BATCH_STRIPES,
        );
        Ok(WriteHandle {
            fs: self.clone(),
            path: p,
            buffer: Some(buffer),
        })
    }

    /// Open `path` for reading. The file must have been closed by its
    /// writer (its size record finalized).
    pub fn open(&self, raw: &str) -> MemFsResult<ReadHandle> {
        let p = path::normalize(raw)?;
        let record = match self.inner.pool.try_get(&KeySchema::file_key(&p))? {
            Some(v) => v,
            None => {
                if self.dir_exists(&p)? {
                    return Err(MemFsError::IsADirectory(p));
                }
                return Err(MemFsError::NotFound(p));
            }
        };
        let size = match meta::decode_size(&record, &p)? {
            SizeRecord::Open => return Err(MemFsError::NotFinalized(p)),
            SizeRecord::Finalized(size) => size,
        };
        let reader = StripeReader::new(
            p.clone(),
            self.layout(),
            size,
            Arc::clone(&self.inner.pool),
            (self.inner.config.prefetch_window > 0).then(|| Arc::clone(&self.inner.engine)),
            self.inner.config.prefetch_window,
            self.inner.config.read_cache_stripes(),
        );
        Ok(ReadHandle {
            path: p,
            layout: self.layout(),
            reader: Arc::new(reader),
            pos: 0,
        })
    }

    /// Read a whole file into memory (convenience for small files).
    pub fn read_to_vec(&self, raw: &str) -> MemFsResult<Vec<u8>> {
        let handle = self.open(raw)?;
        let mut out = vec![0u8; handle.size() as usize];
        let n = handle.read_at(0, &mut out)?;
        out.truncate(n);
        Ok(out)
    }

    /// Write a whole file from a buffer (convenience).
    pub fn write_file(&self, raw: &str, data: &[u8]) -> MemFsResult<()> {
        let mut handle = self.create(raw)?;
        handle.write_all(data)?;
        handle.close()
    }

    /// Write a whole file from an owned [`Bytes`] buffer — the zero-copy
    /// convenience: stripe-aligned payload spans are sliced out of `data`
    /// by refcount and never staged again on the way to the sockets.
    pub fn write_file_bytes(&self, raw: &str, data: Bytes) -> MemFsResult<()> {
        let mut handle = self.create(raw)?;
        handle.write_bytes(data)?;
        handle.close()
    }

    /// Create directory `path`. The parent must exist.
    pub fn mkdir(&self, raw: &str) -> MemFsResult<()> {
        let p = path::normalize(raw)?;
        if p == "/" {
            return Err(MemFsError::AlreadyExists(p));
        }
        let parent = path::parent(&p).to_string();
        if !self.dir_exists(&parent)? {
            return Err(MemFsError::ParentNotFound(p));
        }
        if self.inner.pool.try_get(&KeySchema::file_key(&p))?.is_some() {
            return Err(MemFsError::AlreadyExists(p));
        }
        match self.inner.pool.add(&KeySchema::dir_key(&p), Bytes::new()) {
            Ok(()) => {}
            Err(MemFsError::Storage(KvError::Exists)) => {
                return Err(MemFsError::AlreadyExists(p));
            }
            Err(e) => return Err(e),
        }
        self.inner.pool.append(
            &KeySchema::dir_key(&parent),
            &meta::encode_add(path::basename(&p), ChildKind::Dir),
        )?;
        Ok(())
    }

    /// Create a directory and all missing ancestors.
    pub fn mkdir_all(&self, raw: &str) -> MemFsResult<()> {
        let p = path::normalize(raw)?;
        if p == "/" {
            return Ok(());
        }
        let mut prefix = String::new();
        for comp in p.split('/').filter(|c| !c.is_empty()) {
            prefix.push('/');
            prefix.push_str(comp);
            match self.mkdir(&prefix) {
                Ok(()) | Err(MemFsError::AlreadyExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// List the live children of directory `path`, sorted by name.
    pub fn readdir(&self, raw: &str) -> MemFsResult<Vec<DirEntry>> {
        let p = path::normalize(raw)?;
        let log = match self.inner.pool.try_get(&KeySchema::dir_key(&p))? {
            Some(v) => v,
            None => {
                if self.inner.pool.try_get(&KeySchema::file_key(&p))?.is_some() {
                    return Err(MemFsError::NotADirectory(p));
                }
                return Err(MemFsError::NotFound(p));
            }
        };
        Ok(meta::fold_dir_log(&log, &p)?
            .into_iter()
            .map(|(name, kind)| DirEntry {
                name,
                kind: match kind {
                    ChildKind::File => EntryKind::File,
                    ChildKind::Dir => EntryKind::Dir,
                },
            })
            .collect())
    }

    /// Entry metadata for `path`.
    pub fn stat(&self, raw: &str) -> MemFsResult<FileStat> {
        let p = path::normalize(raw)?;
        if let Some(record) = self.inner.pool.try_get(&KeySchema::file_key(&p))? {
            return Ok(match meta::decode_size(&record, &p)? {
                SizeRecord::Open => FileStat {
                    kind: EntryKind::File,
                    size: 0,
                    finalized: false,
                },
                SizeRecord::Finalized(size) => FileStat {
                    kind: EntryKind::File,
                    size,
                    finalized: true,
                },
            });
        }
        if self.dir_exists(&p)? {
            return Ok(FileStat {
                kind: EntryKind::Dir,
                size: 0,
                finalized: true,
            });
        }
        Err(MemFsError::NotFound(p))
    }

    /// Whether `path` exists (file or directory).
    pub fn exists(&self, raw: &str) -> MemFsResult<bool> {
        match self.stat(raw) {
            Ok(_) => Ok(true),
            Err(MemFsError::NotFound(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Delete file `path`: frees its stripes and size record, and appends
    /// a tombstone to the parent's log (paper §3.2.4 only tombstones; we
    /// additionally reclaim the stripes so runtime memory is reusable).
    ///
    /// Stripes are freed through batched [`ServerPool::delete_many`]
    /// calls — one pipelined multi-delete per server, all servers on the
    /// wire at once — instead of one round trip per stripe.
    ///
    /// A file whose size record is still open (its writer crashed or the
    /// handle leaked before `close`) is unlinked too: the stripes it
    /// managed to store are probed and freed best-effort, then the name
    /// is released. Without this, such files are permanent zombies — no
    /// writer will ever finalize them, and they can neither be read nor
    /// removed.
    pub fn unlink(&self, raw: &str) -> MemFsResult<()> {
        let p = path::normalize(raw)?;
        let record = match self.inner.pool.try_get(&KeySchema::file_key(&p))? {
            Some(v) => v,
            None => {
                if self.dir_exists(&p)? {
                    return Err(MemFsError::IsADirectory(p));
                }
                return Err(MemFsError::NotFound(p));
            }
        };
        match meta::decode_size(&record, &p)? {
            SizeRecord::Finalized(size) => {
                let count = self.layout().stripe_count(size);
                let keys: Vec<Bytes> = (0..count).map(|s| stripe_key_bytes(&p, s)).collect();
                self.delete_stripe_batch(&keys)?;
            }
            SizeRecord::Open => self.probe_delete_stripes(&p)?,
        }
        self.inner.pool.delete_quiet(&KeySchema::file_key(&p))?;
        self.inner.pool.append(
            &KeySchema::dir_key(path::parent(&p)),
            &meta::encode_remove(path::basename(&p)),
        )?;
        Ok(())
    }

    /// Free `keys` in bounded [`ServerPool::delete_many`] calls of
    /// [`UNLINK_BATCH`] keys. Both outcomes per key are fine (`true`
    /// deleted, `false` already gone); a storage error aborts so the size
    /// record stays behind as the marker that stripes may remain.
    fn delete_stripe_batch(&self, keys: &[Bytes]) -> MemFsResult<()> {
        for chunk in keys.chunks(UNLINK_BATCH) {
            if let Some(e) = self
                .inner
                .pool
                .delete_many(chunk)
                .into_iter()
                .find_map(|r| r.err())
            {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Free the stripes of a never-finalized file. Its true length is
    /// unknown (only the crashed writer knew), but stripes are written
    /// sequentially, so probe forward in rounds of [`PROBE_BATCH`] keys
    /// until a whole round reports nothing deleted.
    ///
    /// Rounds go out two at a time in one `delete_many`: while round `r`
    /// is being decided, round `r + 1` is already on the wire. If `r`
    /// turns out to be the last round, the speculative deletes beyond the
    /// end are harmless no-ops — deleting an absent stripe is `Ok(false)`
    /// — so half the round-trip latencies vanish without changing the
    /// outcome.
    fn probe_delete_stripes(&self, p: &str) -> MemFsResult<()> {
        let mut next = 0u64;
        loop {
            let keys: Vec<Bytes> = (next..next + 2 * PROBE_BATCH as u64)
                .map(|s| stripe_key_bytes(p, s))
                .collect();
            let mut results = self.inner.pool.delete_many(&keys).into_iter();
            for _round in 0..2 {
                let mut any = false;
                for r in results.by_ref().take(PROBE_BATCH) {
                    any |= r?;
                }
                if !any {
                    return Ok(());
                }
            }
            next += 2 * PROBE_BATCH as u64;
        }
    }

    /// Remove empty directory `path`.
    pub fn rmdir(&self, raw: &str) -> MemFsResult<()> {
        let p = path::normalize(raw)?;
        if p == "/" {
            return Err(MemFsError::InvalidPath(p));
        }
        let children = self.readdir(&p)?;
        if !children.is_empty() {
            return Err(MemFsError::DirectoryNotEmpty(p));
        }
        self.inner.pool.delete_quiet(&KeySchema::dir_key(&p))?;
        self.inner.pool.append(
            &KeySchema::dir_key(path::parent(&p)),
            &meta::encode_remove(path::basename(&p)),
        )?;
        Ok(())
    }
}

impl std::fmt::Debug for MemFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemFs")
            .field("servers", &self.inner.pool.n_servers())
            .field("stripe_size", &self.inner.config.stripe_size)
            .finish()
    }
}

/// An exclusive, sequential, write-once handle (paper §3.2.3).
///
/// Dropping the handle closes the file best-effort; call [`Self::close`]
/// to observe errors.
pub struct WriteHandle {
    fs: MemFs,
    path: String,
    buffer: Option<WriteBuffer>,
}

impl WriteHandle {
    /// The file's normalized path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Bytes written so far.
    pub fn written(&self) -> u64 {
        self.buffer.as_ref().map_or(0, |b| b.written())
    }

    /// Append `data` at the end of the file.
    pub fn write_all(&mut self, data: &[u8]) -> MemFsResult<()> {
        self.buffer.as_mut().ok_or(MemFsError::Closed)?.write(data)
    }

    /// Append owned bytes at the end of the file without staging:
    /// stripe-aligned spans travel to the storage servers as refcounted
    /// slices of `data` (see [`WriteBuffer::write_bytes`]).
    pub fn write_bytes(&mut self, data: Bytes) -> MemFsResult<()> {
        self.buffer
            .as_mut()
            .ok_or(MemFsError::Closed)?
            .write_bytes(data)
    }

    /// Write at an explicit offset — permitted only at the current end of
    /// file (MemFS restricts writes to "writing once, and only
    /// sequentially").
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> MemFsResult<()> {
        let expected = self.written();
        if offset != expected {
            return Err(MemFsError::NonSequentialWrite {
                path: self.path.clone(),
                requested: offset,
                expected,
            });
        }
        self.write_all(data)
    }

    /// Block until all buffered full stripes are stored.
    pub fn flush(&mut self) -> MemFsResult<()> {
        self.buffer.as_mut().ok_or(MemFsError::Closed)?.flush()
    }

    /// Finish the file: drain the buffer, then publish the final size in
    /// the metadata record, making the file readable everywhere.
    pub fn close(&mut self) -> MemFsResult<()> {
        let mut buffer = self.buffer.take().ok_or(MemFsError::Closed)?;
        let size = buffer.finish()?;
        self.fs.inner.pool.set(
            &KeySchema::file_key(&self.path),
            Bytes::from(meta::encode_size(size)),
        )?;
        Ok(())
    }
}

impl std::fmt::Debug for WriteHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteHandle")
            .field("path", &self.path)
            .field("written", &self.written())
            .field("closed", &self.buffer.is_none())
            .finish()
    }
}

impl Drop for WriteHandle {
    fn drop(&mut self) {
        if self.buffer.is_some() {
            let _ = self.close();
        }
    }
}

impl io::Write for WriteHandle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_all(buf)
            .map(|_| buf.len())
            .map_err(io::Error::other)
    }

    fn flush(&mut self) -> io::Result<()> {
        WriteHandle::flush(self).map_err(io::Error::other)
    }
}

/// A POSIX-style read handle: any offset, any number of times, shareable
/// across threads via [`ReadHandle::read_at`]. The handle also carries a
/// cursor for `std::io::Read` convenience.
pub struct ReadHandle {
    path: String,
    layout: StripeLayout,
    reader: Arc<StripeReader>,
    pos: u64,
}

impl ReadHandle {
    /// The file's normalized path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The file's final size.
    pub fn size(&self) -> u64 {
        self.reader.file_size()
    }

    /// Read up to `buf.len()` bytes at `offset`, returning the byte count
    /// (short only at end of file).
    ///
    /// A read spanning several stripes fetches them as **one** batched
    /// [`StripeReader::read_stripes`] call, whose per-server multi-gets
    /// the pool fans out in parallel — a large `read_at` (and therefore
    /// [`MemFs::read_to_vec`]) drives all servers at once instead of
    /// walking the stripes sequentially.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> MemFsResult<usize> {
        let spans = self.layout.spans(self.size(), offset, buf.len());
        let stripes: Vec<Bytes> = match spans.len() {
            0 => Vec::new(),
            // Single-stripe reads keep the prefetch-triggering path.
            1 => vec![self.reader.stripe(spans[0].stripe)?],
            _ => {
                let wanted: Vec<u64> = spans.iter().map(|s| s.stripe).collect();
                self.reader.read_stripes(&wanted)?
            }
        };
        let mut filled = 0usize;
        for (span, stripe) in spans.iter().zip(stripes) {
            if stripe.len() < span.offset_in_stripe + span.len {
                return Err(MemFsError::CorruptMetadata(format!(
                    "stripe {} of {} shorter than the size record implies",
                    span.stripe, self.path
                )));
            }
            buf[filled..filled + span.len]
                .copy_from_slice(&stripe[span.offset_in_stripe..span.offset_in_stripe + span.len]);
            filled += span.len;
        }
        Ok(filled)
    }

    /// A clone sharing the same prefetch cache but with an independent
    /// cursor (several threads of one task reading one file).
    pub fn duplicate(&self) -> ReadHandle {
        ReadHandle {
            path: self.path.clone(),
            layout: self.layout,
            reader: Arc::clone(&self.reader),
            pos: 0,
        }
    }
}

impl std::fmt::Debug for ReadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadHandle")
            .field("path", &self.path)
            .field("size", &self.size())
            .field("pos", &self.pos)
            .finish()
    }
}

impl io::Read for ReadHandle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.read_at(self.pos, buf).map_err(io::Error::other)?;
        self.pos += n as u64;
        Ok(n)
    }
}

impl io::Seek for ReadHandle {
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        let new = match pos {
            io::SeekFrom::Start(o) => o as i128,
            io::SeekFrom::End(d) => self.size() as i128 + d as i128,
            io::SeekFrom::Current(d) => self.pos as i128 + d as i128,
        };
        if new < 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "seek before start",
            ));
        }
        self.pos = new as u64;
        Ok(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memfs_memkv::{Deferred, LocalClient, Store, StoreConfig};

    fn mount(n_servers: usize) -> MemFs {
        mount_with(
            n_servers,
            MemFsConfig {
                stripe_size: 128,
                write_buffer_size: 1024,
                read_cache_size: 1024,
                io_threads: 2,
                prefetch_window: 4,
                ..MemFsConfig::default()
            },
        )
    }

    fn mount_with(n_servers: usize, config: MemFsConfig) -> MemFs {
        let servers: Vec<Arc<dyn KvClient>> = (0..n_servers)
            .map(|_| {
                Arc::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))) as Arc<dyn KvClient>
            })
            .collect();
        MemFs::new(servers, config).unwrap()
    }

    #[test]
    fn write_then_read_round_trip() {
        let fs = mount(4);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 253) as u8).collect();
        fs.write_file("/data.bin", &data).unwrap();
        assert_eq!(fs.read_to_vec("/data.bin").unwrap(), data);
    }

    #[test]
    fn empty_file_round_trip() {
        let fs = mount(2);
        fs.write_file("/empty", b"").unwrap();
        assert_eq!(fs.read_to_vec("/empty").unwrap(), Vec::<u8>::new());
        assert_eq!(fs.stat("/empty").unwrap().size, 0);
    }

    #[test]
    fn write_once_enforced() {
        let fs = mount(2);
        fs.write_file("/once", b"first").unwrap();
        assert!(matches!(fs.create("/once"), Err(MemFsError::WriteOnce(_))));
        // Data unchanged.
        assert_eq!(fs.read_to_vec("/once").unwrap(), b"first");
    }

    #[test]
    fn write_once_enforced_across_mounts() {
        let servers: Vec<Arc<dyn KvClient>> = (0..2)
            .map(|_| {
                Arc::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))) as Arc<dyn KvClient>
            })
            .collect();
        let fs1 = MemFs::new(servers.clone(), MemFsConfig::default()).unwrap();
        let fs2 = MemFs::new(servers, MemFsConfig::default()).unwrap();
        fs1.write_file("/shared", b"from mount 1").unwrap();
        assert!(matches!(
            fs2.create("/shared"),
            Err(MemFsError::WriteOnce(_))
        ));
        assert_eq!(fs2.read_to_vec("/shared").unwrap(), b"from mount 1");
    }

    #[test]
    fn sequential_write_at_allowed_random_rejected() {
        let fs = mount(2);
        let mut w = fs.create("/f").unwrap();
        w.write_at(0, b"abc").unwrap();
        w.write_at(3, b"def").unwrap();
        assert!(matches!(
            w.write_at(2, b"x"),
            Err(MemFsError::NonSequentialWrite {
                requested: 2,
                expected: 6,
                ..
            })
        ));
        w.close().unwrap();
        assert_eq!(fs.read_to_vec("/f").unwrap(), b"abcdef");
    }

    #[test]
    fn open_before_close_is_not_finalized() {
        let fs = mount(2);
        let mut w = fs.create("/slow").unwrap();
        w.write_all(b"partial").unwrap();
        assert!(matches!(fs.open("/slow"), Err(MemFsError::NotFinalized(_))));
        w.close().unwrap();
        assert_eq!(fs.read_to_vec("/slow").unwrap(), b"partial");
    }

    #[test]
    fn drop_closes_the_file() {
        let fs = mount(2);
        {
            let mut w = fs.create("/dropped").unwrap();
            w.write_all(b"bytes").unwrap();
        }
        assert_eq!(fs.read_to_vec("/dropped").unwrap(), b"bytes");
    }

    #[test]
    fn double_close_reports_closed() {
        let fs = mount(2);
        let mut w = fs.create("/f").unwrap();
        w.close().unwrap();
        assert!(matches!(w.close(), Err(MemFsError::Closed)));
        assert!(matches!(w.write_all(b"x"), Err(MemFsError::Closed)));
    }

    #[test]
    fn directories_and_readdir() {
        let fs = mount(2);
        fs.mkdir("/proj").unwrap();
        fs.mkdir("/proj/run1").unwrap();
        fs.write_file("/proj/run1/a.dat", b"a").unwrap();
        fs.write_file("/proj/run1/b.dat", b"b").unwrap();
        let entries = fs.readdir("/proj/run1").unwrap();
        assert_eq!(
            entries,
            vec![
                DirEntry {
                    name: "a.dat".into(),
                    kind: EntryKind::File
                },
                DirEntry {
                    name: "b.dat".into(),
                    kind: EntryKind::File
                },
            ]
        );
        let top = fs.readdir("/").unwrap();
        assert_eq!(
            top,
            vec![DirEntry {
                name: "proj".into(),
                kind: EntryKind::Dir
            }]
        );
    }

    #[test]
    fn mkdir_requires_parent() {
        let fs = mount(2);
        assert!(matches!(
            fs.mkdir("/no/such/parent"),
            Err(MemFsError::ParentNotFound(_))
        ));
        fs.mkdir_all("/no/such/parent").unwrap();
        assert!(fs.exists("/no/such/parent").unwrap());
    }

    #[test]
    fn create_requires_parent() {
        let fs = mount(2);
        assert!(matches!(
            fs.create("/missing/file"),
            Err(MemFsError::ParentNotFound(_))
        ));
    }

    #[test]
    fn unlink_frees_and_hides() {
        let fs = mount(4);
        let data = vec![7u8; 1000];
        fs.write_file("/victim", &data).unwrap();
        fs.unlink("/victim").unwrap();
        assert!(matches!(fs.open("/victim"), Err(MemFsError::NotFound(_))));
        assert!(fs.readdir("/").unwrap().is_empty());
        // Name is reusable (fresh object).
        fs.write_file("/victim", b"new").unwrap();
        assert_eq!(fs.read_to_vec("/victim").unwrap(), b"new");
    }

    #[test]
    fn unlink_open_file_clears_zombie() {
        // Regression: a writer that crashes (or leaks its handle) before
        // `close` used to leave a permanent zombie — `open` says
        // NotFinalized forever and `unlink` refused with the same error,
        // so neither the name nor the flushed stripes were recoverable.
        let servers: Vec<Arc<Store>> = (0..4)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = servers
            .iter()
            .map(|s| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
            .collect();
        let fs = MemFs::new(
            clients,
            MemFsConfig {
                stripe_size: 128,
                write_buffer_size: 1024,
                ..MemFsConfig::default()
            },
        )
        .unwrap();
        let mut w = fs.create("/zombie").unwrap();
        w.write_all(&vec![9u8; 1000]).unwrap();
        w.flush().unwrap();
        std::mem::forget(w); // the writer "crashes": close never runs
        assert!(matches!(
            fs.open("/zombie"),
            Err(MemFsError::NotFinalized(_))
        ));
        fs.unlink("/zombie").unwrap();
        assert!(matches!(fs.open("/zombie"), Err(MemFsError::NotFound(_))));
        assert!(fs.readdir("/").unwrap().is_empty());
        // The flushed stripes were reclaimed — only the root's small
        // directory log remains on the servers.
        let leftover: u64 = servers.iter().map(|s| s.bytes_used()).sum();
        assert!(
            leftover < 128,
            "stripes not reclaimed: {leftover} bytes left"
        );
        // The name is immediately reusable.
        fs.write_file("/zombie", b"alive").unwrap();
        assert_eq!(fs.read_to_vec("/zombie").unwrap(), b"alive");
    }

    #[test]
    fn unlink_open_file_with_nothing_flushed() {
        let fs = mount(2);
        let mut w = fs.create("/empty-zombie").unwrap();
        w.write_all(b"tiny").unwrap(); // less than a stripe: nothing stored yet
        std::mem::forget(w);
        fs.unlink("/empty-zombie").unwrap();
        assert!(!fs.exists("/empty-zombie").unwrap());
    }

    #[test]
    fn blocking_clients_round_trip_and_unlink_through_the_window() {
        // A client without a split submit path: its eager `start_*`
        // calls run each per-server batch to completion, one after
        // another, through the same window every other client uses.
        struct Opaque(LocalClient);
        impl KvClient for Opaque {
            fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
                Deferred::Ready(self.0.get_many(keys))
            }
            fn start_set_many(&self, items: &[(Bytes, Bytes)]) -> Deferred<()> {
                Deferred::Ready(self.0.set_many(items))
            }
            fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
                Deferred::Ready(self.0.delete_many(keys))
            }
            fn add(&self, key: &[u8], value: Bytes) -> memfs_memkv::error::KvResult<()> {
                self.0.add(key, value)
            }
            fn append(&self, key: &[u8], suffix: &[u8]) -> memfs_memkv::error::KvResult<()> {
                self.0.append(key, suffix)
            }
        }
        let stores: Vec<Arc<Store>> = (0..4)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let servers: Vec<Arc<dyn KvClient>> = stores
            .iter()
            .map(|s| Arc::new(Opaque(LocalClient::new(Arc::clone(s)))) as Arc<dyn KvClient>)
            .collect();
        let config = MemFsConfig {
            stripe_size: 128,
            write_buffer_size: 1024,
            read_cache_size: 1024,
            ..MemFsConfig::default()
        };
        let fs = MemFs::new(servers, config).unwrap();
        // 40 stripes: every server holds several.
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 7 % 251) as u8).collect();
        fs.write_file("/blocking.bin", &data).unwrap();
        assert_eq!(fs.read_to_vec("/blocking.bin").unwrap(), data);
        fs.unlink("/blocking.bin").unwrap();
        assert!(!fs.exists("/blocking.bin").unwrap());
        let leftover: u64 = stores.iter().map(|s| s.bytes_used()).sum();
        assert!(
            leftover < 128,
            "stripes not reclaimed: {leftover} bytes left"
        );
    }

    #[test]
    fn mount_engine_is_sized_by_engine_threads() {
        for (n_servers, config) in [
            (4, MemFsConfig::default()),
            (1, MemFsConfig::default()),
            (4, MemFsConfig::default().with_io_parallelism(1)),
            (4, MemFsConfig::default().with_io_parallelism(3)),
            (2, MemFsConfig::default().with_threads(3)),
        ] {
            let fs = mount_with(n_servers, config.clone());
            assert_eq!(fs.engine().size(), config.engine_threads());
            assert!(fs.pool().engine().is_none(), "the pool owns no engine");
        }
    }

    #[test]
    fn rmdir_only_when_empty() {
        let fs = mount(2);
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f", b"x").unwrap();
        assert!(matches!(
            fs.rmdir("/d"),
            Err(MemFsError::DirectoryNotEmpty(_))
        ));
        fs.unlink("/d/f").unwrap();
        fs.rmdir("/d").unwrap();
        assert!(!fs.exists("/d").unwrap());
    }

    #[test]
    fn stat_reports_kind_and_size() {
        let fs = mount(2);
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f", &[0u8; 321]).unwrap();
        let st = fs.stat("/d/f").unwrap();
        assert_eq!(st.kind, EntryKind::File);
        assert_eq!(st.size, 321);
        assert!(st.finalized);
        let st = fs.stat("/d").unwrap();
        assert_eq!(st.kind, EntryKind::Dir);
        assert!(matches!(fs.stat("/nope"), Err(MemFsError::NotFound(_))));
    }

    #[test]
    fn read_at_arbitrary_offsets() {
        let fs = mount(4);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        fs.write_file("/big", &data).unwrap();
        let r = fs.open("/big").unwrap();
        let mut buf = [0u8; 100];
        // Straddles stripe boundary (stripe size 128).
        let n = r.read_at(100, &mut buf).unwrap();
        assert_eq!(n, 100);
        assert_eq!(&buf[..], &data[100..200]);
        // Tail read is short.
        let n = r.read_at(9_950, &mut buf).unwrap();
        assert_eq!(n, 50);
        assert_eq!(&buf[..50], &data[9_950..]);
        // Past EOF is empty.
        assert_eq!(r.read_at(20_000, &mut buf).unwrap(), 0);
    }

    #[test]
    fn io_read_seek_integration() {
        use std::io::{Read, Seek, SeekFrom};
        let fs = mount(2);
        let data: Vec<u8> = (0..500u32).map(|i| (i % 91) as u8).collect();
        fs.write_file("/f", &data).unwrap();
        let mut r = fs.open("/f").unwrap();
        let mut all = Vec::new();
        r.read_to_end(&mut all).unwrap();
        assert_eq!(all, data);
        r.seek(SeekFrom::Start(10)).unwrap();
        let mut b = [0u8; 5];
        r.read_exact(&mut b).unwrap();
        assert_eq!(&b, &data[10..15]);
        r.seek(SeekFrom::End(-5)).unwrap();
        let mut tail = Vec::new();
        r.read_to_end(&mut tail).unwrap();
        assert_eq!(tail, &data[495..]);
    }

    #[test]
    fn many_files_balance_across_servers() {
        let servers: Vec<Arc<Store>> = (0..8)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = servers
            .iter()
            .map(|s| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
            .collect();
        let fs = MemFs::new(
            clients,
            MemFsConfig {
                stripe_size: 256,
                write_buffer_size: 2048,
                ..MemFsConfig::default()
            },
        )
        .unwrap();
        for i in 0..50 {
            fs.write_file(&format!("/f{i}"), &vec![0u8; 4096]).unwrap();
        }
        // 50 files x 16 stripes = 800 stripes over 8 servers: symmetric
        // distribution must load every server within 2x of the mean.
        let loads: Vec<u64> = servers.iter().map(|s| s.bytes_used()).collect();
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        for (i, &l) in loads.iter().enumerate() {
            assert!(
                (l as f64) > mean * 0.5 && (l as f64) < mean * 2.0,
                "server {i} load {l} vs mean {mean}"
            );
        }
    }

    #[test]
    fn invalid_paths_rejected() {
        let fs = mount(2);
        assert!(matches!(
            fs.create("relative"),
            Err(MemFsError::InvalidPath(_))
        ));
        assert!(matches!(
            fs.create("/has space"),
            Err(MemFsError::InvalidPath(_))
        ));
        assert!(matches!(fs.open("/"), Err(MemFsError::IsADirectory(_))));
        assert!(matches!(fs.create("/"), Err(MemFsError::IsADirectory(_))));
    }

    #[test]
    fn file_and_dir_names_cannot_collide() {
        let fs = mount(2);
        fs.write_file("/x", b"file").unwrap();
        assert!(matches!(fs.mkdir("/x"), Err(MemFsError::AlreadyExists(_))));
        fs.mkdir("/y").unwrap();
        assert!(matches!(fs.create("/y"), Err(MemFsError::AlreadyExists(_))));
        assert!(matches!(
            fs.readdir("/x"),
            Err(MemFsError::NotADirectory(_))
        ));
    }

    #[test]
    fn large_file_spanning_many_stripes() {
        let fs = mount(8);
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 31 % 255) as u8).collect();
        fs.write_file("/huge", &data).unwrap();
        assert_eq!(fs.read_to_vec("/huge").unwrap(), data);
        assert_eq!(fs.stat("/huge").unwrap().size, 200_000);
    }

    #[test]
    fn concurrent_writers_different_files() {
        let fs = mount(4);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let fs = fs.clone();
                std::thread::spawn(move || {
                    let data = vec![t as u8; 5_000];
                    fs.write_file(&format!("/par{t}"), &data).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for t in 0..8 {
            assert_eq!(
                fs.read_to_vec(&format!("/par{t}")).unwrap(),
                vec![t as u8; 5_000]
            );
        }
        assert_eq!(fs.readdir("/").unwrap().len(), 8);
    }

    #[test]
    fn n_minus_one_read_pattern() {
        // All "nodes" read the same file concurrently — the paper's N-1
        // read. Each opens its own handle (own cache) as distinct compute
        // nodes would.
        let fs = mount(4);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 247) as u8).collect();
        fs.write_file("/shared", &data).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let fs = fs.clone();
                let expected = data.clone();
                std::thread::spawn(move || {
                    assert_eq!(fs.read_to_vec("/shared").unwrap(), expected);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn add_server_migrates_under_a_live_mount() {
        let fs = mount(2);
        let data: Vec<u8> = (0..5_000u32).map(|i| (i % 241) as u8).collect();
        for i in 0..10 {
            fs.write_file(&format!("/pre{i}"), &data).unwrap();
        }
        let id = fs
            .add_server(Arc::new(LocalClient::new(Arc::new(Store::new(
                StoreConfig::default(),
            )))))
            .unwrap();
        assert_eq!(id, ServerId(2));
        assert!(fs.migration_active());
        // Keep writing and reading while the ranges migrate.
        let mut rounds = 0;
        loop {
            fs.write_file(&format!("/mid{rounds}"), &data).unwrap();
            assert_eq!(
                fs.read_to_vec(&format!("/pre{}", rounds % 10)).unwrap(),
                data
            );
            if fs.migrate_now().unwrap().complete {
                break;
            }
            rounds += 1;
            assert!(rounds < 16, "migration never completed");
        }
        assert!(!fs.migration_active());
        assert_eq!(fs.pool().members().len(), 3);
        for i in 0..10 {
            assert_eq!(fs.read_to_vec(&format!("/pre{i}")).unwrap(), data);
        }
        for r in 0..=rounds {
            assert_eq!(fs.read_to_vec(&format!("/mid{r}")).unwrap(), data);
        }
    }

    #[test]
    fn remove_server_drains_and_files_survive() {
        let fs = mount(3);
        let data: Vec<u8> = (0..3_000u32).map(|i| (i % 199) as u8).collect();
        for i in 0..8 {
            fs.write_file(&format!("/keep{i}"), &data).unwrap();
        }
        // Default distributor is modulo: only the tail slot can leave.
        fs.remove_server(ServerId(2)).unwrap();
        let mut rounds = 0;
        while !fs.migrate_now().unwrap().complete {
            rounds += 1;
            assert!(rounds < 16, "drain never completed");
        }
        assert_eq!(fs.pool().members().len(), 2);
        for i in 0..8 {
            assert_eq!(fs.read_to_vec(&format!("/keep{i}")).unwrap(), data);
        }
        // The mount keeps working on the shrunken set.
        fs.write_file("/after", &data).unwrap();
        assert_eq!(fs.read_to_vec("/after").unwrap(), data);
    }

    #[test]
    fn duplicate_handle_shares_cache() {
        let fs = mount(2);
        fs.write_file("/f", &[1u8; 1000]).unwrap();
        let r = fs.open("/f").unwrap();
        let d = r.duplicate();
        let mut buf = [0u8; 10];
        assert_eq!(r.read_at(0, &mut buf).unwrap(), 10);
        assert_eq!(d.read_at(500, &mut buf).unwrap(), 10);
        assert_eq!(d.path(), "/f");
    }
}
