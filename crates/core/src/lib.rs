//! # memfs-core
//!
//! **MemFS**: an in-memory runtime file system with symmetrical data
//! distribution — the primary contribution of the reproduced paper.
//!
//! MemFS stores the intermediate files of many-task computing (MTC)
//! applications in the aggregated DRAM of all compute nodes. Unlike
//! locality-based designs (AMFS, HyCache+, FusionFS), it deliberately
//! ignores locality: every file is cut into fixed-size stripes and the
//! stripes are spread over *all* storage servers by a distributed hash
//! function. On networks with full bisection bandwidth this converts every
//! read and write into many parallel streams, balances memory consumption
//! across nodes, and makes task placement irrelevant to I/O performance.
//!
//! ## Architecture (paper §3)
//!
//! * [`pool::ServerPool`] — the Libmemcached role: routes each key to a
//!   storage server via [`memfs_hashring`];
//! * [`layout::StripeLayout`] — the striping mechanism (default 512 KiB
//!   stripes, the paper's measured optimum);
//! * [`threadpool::IoEngine`] — one worker pool per mount shared by every
//!   file's write drain and every file's prefetcher, so thread count is
//!   bounded by the config rather than by the number of open files (the
//!   pool's per-server fan-out runs on the calling thread);
//! * [`bufwrite`] — the write-buffering protocol: an 8 MiB per-file buffer
//!   drained asynchronously through the shared engine; `close()`/`flush()`
//!   block until it is empty;
//! * [`prefetch`] — the sequential-read prefetcher filling an 8 MiB
//!   per-file read cache through the shared engine;
//! * [`meta`] — file-size records and append-only directory logs over
//!   atomic KV `append`;
//! * [`fs::MemFs`] — the mount: create/open/read/write/close/mkdir/
//!   readdir/unlink with **write-once, read-many** semantics (§3.2.3).
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use memfs_core::{MemFs, MemFsConfig};
//! use memfs_memkv::{KvClient, LocalClient, Store, StoreConfig};
//!
//! // Four in-process "storage nodes".
//! let servers: Vec<Arc<dyn KvClient>> = (0..4)
//!     .map(|_| {
//!         Arc::new(LocalClient::new(Arc::new(Store::new(StoreConfig::default()))))
//!             as Arc<dyn KvClient>
//!     })
//!     .collect();
//! let fs = MemFs::new(servers, MemFsConfig::default()).unwrap();
//!
//! // Write once...
//! let mut w = fs.create("/results.dat").unwrap();
//! w.write_all(b"many-task computing output").unwrap();
//! w.close().unwrap();
//!
//! // ...read many.
//! let data = fs.read_to_vec("/results.dat").unwrap();
//! assert_eq!(data, b"many-task computing output");
//! ```

pub mod bufwrite;
pub mod config;
pub mod error;
pub mod fs;
pub mod layout;
pub mod meta;
pub mod mover;
pub mod path;
pub mod pool;
pub mod prefetch;
pub mod repair;
pub mod threadpool;

pub use config::{DistributorKind, MemFsConfig};
pub use error::{MemFsError, MemFsResult};
pub use fs::{DirEntry, EntryKind, FileStat, MemFs, ReadHandle, WriteHandle};
pub use mover::{migrate_pass, MembershipMonitor, MigrateConfig, MigrationReport};
pub use pool::{DegradedWrite, PoolStats, ServerIoSnapshot, ServerPool, WriteOutcome};
pub use repair::{repair_pass, RepairConfig, RepairDaemon, RepairReport};
pub use threadpool::IoEngine;
