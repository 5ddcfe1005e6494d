//! The write-buffering protocol (paper §3.2.2).
//!
//! Writes land in a per-file buffer; whenever a full batch of stripes
//! accumulates it drains through the mount's shared I/O engine, which
//! `set`s it on the owning storage servers asynchronously. The buffer bounds in-flight data
//! (8 MiB by default — the paper's per-open-file cache), applying
//! backpressure to the writer when the network cannot keep up.
//! "Whenever an application calls close(), or flush(), our file system
//! waits until the write buffer has been emptied and then returns."

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use memfs_hashring::schema::KeySchema;
use parking_lot::{Condvar, Mutex};

use crate::error::{MemFsError, MemFsResult};
use crate::layout::StripeLayout;
use crate::pool::ServerPool;
use crate::threadpool::IoEngine;

/// Shared completion state between the buffer and its in-flight jobs.
struct Shared {
    state: Mutex<Pending>,
    cv: Condvar,
}

struct Pending {
    inflight: usize,
    /// First storage error observed by any background writer; surfaced at
    /// the next flush/close.
    error: Option<MemFsError>,
}

/// A buffered, striped writer for one file.
pub struct WriteBuffer {
    path: String,
    layout: StripeLayout,
    pool: Arc<ServerPool>,
    engine: Arc<IoEngine>,
    current: BytesMut,
    /// Completed stripes waiting to travel as one batched `set_many`.
    batch: Vec<(Bytes, Bytes)>,
    batch_stripes: usize,
    next_stripe: u64,
    written: u64,
    max_inflight: usize,
    shared: Arc<Shared>,
}

impl WriteBuffer {
    /// Create a writer for `path` striping with `layout`, draining through
    /// the mount's shared `engine` onto `pool`, with at most
    /// `max_inflight` stripes in the air (the 8 MiB buffer divided by the
    /// stripe size).
    ///
    /// Completed stripes accumulate into groups of `batch_stripes` before
    /// a drain job is submitted; each job issues per-server pipelined
    /// `set_many` batches instead of one round trip per stripe.
    /// `batch_stripes = 1` reproduces the unbatched per-stripe behaviour.
    pub fn new(
        path: String,
        layout: StripeLayout,
        pool: Arc<ServerPool>,
        engine: Arc<IoEngine>,
        max_inflight: usize,
        batch_stripes: usize,
    ) -> Self {
        WriteBuffer {
            path,
            current: BytesMut::with_capacity(layout.stripe_size()),
            layout,
            pool,
            engine,
            batch: Vec::new(),
            batch_stripes: batch_stripes.clamp(1, max_inflight.max(1)),
            next_stripe: 0,
            written: 0,
            max_inflight: max_inflight.max(1),
            shared: Arc::new(Shared {
                state: Mutex::new(Pending {
                    inflight: 0,
                    error: None,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Bytes accepted so far (the file offset of the next write).
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Append `data` sequentially, submitting completed stripes to the
    /// background pool. Blocks only when `max_inflight` stripes are
    /// already in the air.
    ///
    /// Slice input pays exactly one staging copy (into the stripe
    /// buffer); from there the stripe travels to the socket by refcount.
    /// Callers that already own [`Bytes`] should use
    /// [`write_bytes`](Self::write_bytes) and skip that copy too.
    pub fn write(&mut self, mut data: &[u8]) -> MemFsResult<()> {
        self.check_error()?;
        while !data.is_empty() {
            let room = self.layout.stripe_size() - self.current.len();
            let take = room.min(data.len());
            memfs_memkv::audit::count_staged(take);
            self.current.extend_from_slice(&data[..take]);
            data = &data[take..];
            self.written += take as u64;
            if self.current.len() == self.layout.stripe_size() {
                self.submit_current()?;
            }
        }
        Ok(())
    }

    /// Append `data` sequentially without staging: stripe-aligned spans
    /// are sliced straight out of `data` (a refcount bump, no copy) and
    /// handed to the pool as-is — zero payload copies between the
    /// caller's buffer and the socket. Only spans that must merge with a
    /// partial stripe (an unaligned head or tail) are copied into the
    /// stripe buffer, and those are the write path's single copy.
    pub fn write_bytes(&mut self, mut data: Bytes) -> MemFsResult<()> {
        self.check_error()?;
        while !data.is_empty() {
            if self.current.is_empty() && data.len() >= self.layout.stripe_size() {
                let stripe = data.split_to(self.layout.stripe_size());
                self.written += stripe.len() as u64;
                self.push_stripe(stripe)?;
                continue;
            }
            let room = self.layout.stripe_size() - self.current.len();
            let take = room.min(data.len());
            memfs_memkv::audit::count_staged(take);
            self.current.extend_from_slice(&data[..take]);
            let _ = data.split_to(take);
            self.written += take as u64;
            if self.current.len() == self.layout.stripe_size() {
                self.submit_current()?;
            }
        }
        Ok(())
    }

    /// Wait for all in-flight stripes to be stored (the partial tail
    /// stripe stays buffered — it can still grow). Completed stripes
    /// still waiting in the current batch are submitted first, so every
    /// full stripe written before `flush` is durable when it returns.
    pub fn flush(&mut self) -> MemFsResult<()> {
        self.submit_batch()?;
        let mut state = self.shared.state.lock();
        while state.inflight > 0 {
            self.shared.cv.wait(&mut state);
        }
        if let Some(e) = state.error.take() {
            return Err(e);
        }
        Ok(())
    }

    /// Submit the partial tail stripe (if any) and drain completely.
    /// Returns the final file size. The buffer must not be written again.
    pub fn finish(&mut self) -> MemFsResult<u64> {
        if !self.current.is_empty() {
            self.submit_current()?;
        }
        self.flush()?;
        Ok(self.written)
    }

    fn check_error(&self) -> MemFsResult<()> {
        let mut state = self.shared.state.lock();
        if let Some(e) = state.error.take() {
            return Err(e);
        }
        Ok(())
    }

    /// Move the completed stripe into the pending batch, draining it to
    /// the workers once `batch_stripes` have accumulated.
    fn submit_current(&mut self) -> MemFsResult<()> {
        let payload = self.current.split().freeze();
        self.push_stripe(payload)
    }

    /// Queue one completed stripe payload under the next stripe key.
    fn push_stripe(&mut self, payload: Bytes) -> MemFsResult<()> {
        let key = Bytes::from(KeySchema::stripe_key(&self.path, self.next_stripe));
        self.next_stripe += 1;
        self.batch.push((key, payload));
        if self.batch.len() >= self.batch_stripes {
            self.submit_batch()?;
        }
        Ok(())
    }

    /// Hand the pending batch to the shared engine as one drain job. The
    /// job issues one `set_many`, which the pool's submit window splits
    /// into one pipelined batch per owning server (replica copies
    /// included) and puts on the wire together from the job's own
    /// thread, so a batch of `b` stripes costs one *concurrent* round
    /// trip per server rather than `b` sequential round trips.
    fn submit_batch(&mut self) -> MemFsResult<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let items = std::mem::take(&mut self.batch);
        let n = items.len();

        // Backpressure: cap in-flight stripes at the buffer budget.
        {
            let mut state = self.shared.state.lock();
            while state.inflight >= self.max_inflight && state.error.is_none() {
                self.shared.cv.wait(&mut state);
            }
            if let Some(e) = state.error.take() {
                return Err(e);
            }
            state.inflight += n;
        }

        let pool = Arc::clone(&self.pool);
        let shared = Arc::clone(&self.shared);
        self.engine.execute(move || {
            let result = pool.set_many(&items);
            let mut state = shared.state.lock();
            state.inflight -= n;
            if let Err(e) = result {
                state.error.get_or_insert(e);
            }
            shared.cv.notify_all();
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistributorKind;
    use memfs_memkv::{KvClient, LocalClient, Store, StoreConfig};

    fn make_pool(n: usize, budget: u64) -> Arc<ServerPool> {
        let clients: Vec<Arc<dyn KvClient>> = (0..n)
            .map(|_| {
                let cfg = StoreConfig {
                    memory_budget: budget,
                    ..StoreConfig::default()
                };
                Arc::new(LocalClient::new(Arc::new(Store::new(cfg)))) as Arc<dyn KvClient>
            })
            .collect();
        Arc::new(ServerPool::new(clients, DistributorKind::default()))
    }

    fn read_back(pool: &ServerPool, path: &str, size: u64, stripe: usize) -> Vec<u8> {
        let layout = StripeLayout::new(stripe);
        let mut out = Vec::new();
        for s in 0..layout.stripe_count(size) {
            let key = KeySchema::stripe_key(path, s);
            out.extend_from_slice(&pool.get(&key).unwrap());
        }
        out
    }

    #[test]
    fn writes_stripe_and_store_everything() {
        let pool = make_pool(4, 1 << 30);
        let workers = Arc::new(IoEngine::new(4, "w"));
        let layout = StripeLayout::new(100);
        let mut buf = WriteBuffer::new("/f".into(), layout, Arc::clone(&pool), workers, 4, 2);
        let data: Vec<u8> = (0..1050u32).map(|i| (i % 251) as u8).collect();
        buf.write(&data).unwrap();
        let size = buf.finish().unwrap();
        assert_eq!(size, 1050);
        assert_eq!(read_back(&pool, "/f", size, 100), data);
    }

    #[test]
    fn partial_tail_stripe_stored_on_finish() {
        let pool = make_pool(2, 1 << 30);
        let workers = Arc::new(IoEngine::new(2, "w"));
        let mut buf = WriteBuffer::new(
            "/f".into(),
            StripeLayout::new(100),
            Arc::clone(&pool),
            workers,
            2,
            2,
        );
        buf.write(b"short").unwrap();
        assert_eq!(buf.finish().unwrap(), 5);
        let key = KeySchema::stripe_key("/f", 0);
        assert_eq!(pool.get(&key).unwrap().as_ref(), b"short");
    }

    #[test]
    fn empty_file_has_no_stripes() {
        let pool = make_pool(2, 1 << 30);
        let workers = Arc::new(IoEngine::new(2, "w"));
        let mut buf = WriteBuffer::new(
            "/e".into(),
            StripeLayout::new(100),
            Arc::clone(&pool),
            workers,
            2,
            2,
        );
        assert_eq!(buf.finish().unwrap(), 0);
        assert!(!pool.contains(&KeySchema::stripe_key("/e", 0)));
    }

    #[test]
    fn many_small_writes_accumulate() {
        let pool = make_pool(4, 1 << 30);
        let workers = Arc::new(IoEngine::new(4, "w"));
        let mut buf = WriteBuffer::new(
            "/f".into(),
            StripeLayout::new(64),
            Arc::clone(&pool),
            workers,
            4,
            4,
        );
        let mut expected = Vec::new();
        for i in 0..500u32 {
            let chunk = i.to_le_bytes();
            buf.write(&chunk).unwrap();
            expected.extend_from_slice(&chunk);
        }
        let size = buf.finish().unwrap();
        assert_eq!(size, 2000);
        assert_eq!(read_back(&pool, "/f", size, 64), expected);
    }

    #[test]
    fn background_storage_error_surfaces_at_finish() {
        // Tiny budget: stripes stop fitting quickly.
        let pool = make_pool(1, 300);
        let workers = Arc::new(IoEngine::new(2, "w"));
        let mut buf = WriteBuffer::new(
            "/f".into(),
            StripeLayout::new(100),
            Arc::clone(&pool),
            workers,
            2,
            2,
        );
        let data = vec![0u8; 5_000];
        // The error may surface during write (backpressure path) or at
        // finish; it must surface somewhere.
        let result = buf.write(&data).and_then(|_| buf.finish().map(|_| ()));
        assert!(matches!(result, Err(MemFsError::Storage(_))));
    }

    #[test]
    fn flush_leaves_tail_writable() {
        let pool = make_pool(2, 1 << 30);
        let workers = Arc::new(IoEngine::new(2, "w"));
        let mut buf = WriteBuffer::new(
            "/f".into(),
            StripeLayout::new(100),
            Arc::clone(&pool),
            workers,
            2,
            2,
        );
        buf.write(&[1u8; 150]).unwrap();
        buf.flush().unwrap();
        // Stripe 0 is durable after flush; the 50-byte tail is not.
        assert_eq!(
            pool.get(&KeySchema::stripe_key("/f", 0)).unwrap().len(),
            100
        );
        buf.write(&[2u8; 50]).unwrap();
        let size = buf.finish().unwrap();
        assert_eq!(size, 200);
        let tail = pool.get(&KeySchema::stripe_key("/f", 1)).unwrap();
        assert_eq!(&tail[..50], &[1u8; 50][..]);
        assert_eq!(&tail[50..], &[2u8; 50][..]);
    }

    #[test]
    fn batched_drain_stores_every_stripe_in_order() {
        // batch_stripes 4 over 13 completed stripes: three full batches
        // plus a partial one carrying the tail at finish.
        let pool = make_pool(4, 1 << 30);
        let workers = Arc::new(IoEngine::new(4, "w"));
        let mut buf = WriteBuffer::new(
            "/b".into(),
            StripeLayout::new(100),
            Arc::clone(&pool),
            Arc::clone(&workers),
            8,
            4,
        );
        let data: Vec<u8> = (0..1350u32).map(|i| (i % 253) as u8).collect();
        for chunk in data.chunks(7) {
            buf.write(chunk).unwrap();
        }
        let size = buf.finish().unwrap();
        assert_eq!(size, 1350);
        assert_eq!(read_back(&pool, "/b", size, 100), data);
    }

    #[test]
    fn batch_larger_than_inflight_budget_is_clamped() {
        // batch_stripes > max_inflight would let one batch overshoot the
        // in-flight budget arbitrarily if not clamped; the writer must
        // still drain correctly with the clamped batch.
        let pool = make_pool(2, 1 << 30);
        let workers = Arc::new(IoEngine::new(2, "w"));
        let mut buf = WriteBuffer::new(
            "/c".into(),
            StripeLayout::new(100),
            Arc::clone(&pool),
            workers,
            2,
            64,
        );
        let data = vec![9u8; 1000];
        buf.write(&data).unwrap();
        let size = buf.finish().unwrap();
        assert_eq!(size, 1000);
        assert_eq!(read_back(&pool, "/c", size, 100), data);
    }

    #[test]
    fn write_bytes_round_trips_aligned_stripes() {
        let pool = make_pool(4, 1 << 30);
        let workers = Arc::new(IoEngine::new(4, "w"));
        let mut buf = WriteBuffer::new(
            "/zb".into(),
            StripeLayout::new(100),
            Arc::clone(&pool),
            workers,
            4,
            2,
        );
        let data: Vec<u8> = (0..700u32).map(|i| (i % 241) as u8).collect();
        buf.write_bytes(Bytes::from(data.clone())).unwrap();
        let size = buf.finish().unwrap();
        assert_eq!(size, 700);
        assert_eq!(read_back(&pool, "/zb", size, 100), data);
    }

    #[test]
    fn write_bytes_handles_unaligned_head_and_tail() {
        // A slice write leaves a partial stripe; the Bytes write must
        // merge into it, then go zero-copy once realigned, then buffer
        // its own partial tail.
        let pool = make_pool(4, 1 << 30);
        let workers = Arc::new(IoEngine::new(4, "w"));
        let mut buf = WriteBuffer::new(
            "/zu".into(),
            StripeLayout::new(100),
            Arc::clone(&pool),
            workers,
            4,
            2,
        );
        let mut expected = Vec::new();
        let head = vec![3u8; 37];
        buf.write(&head).unwrap();
        expected.extend_from_slice(&head);
        let bulk: Vec<u8> = (0..333u32).map(|i| (i % 239) as u8).collect();
        buf.write_bytes(Bytes::from(bulk.clone())).unwrap();
        expected.extend_from_slice(&bulk);
        buf.write_bytes(Bytes::from_static(b"tail")).unwrap();
        expected.extend_from_slice(b"tail");
        let size = buf.finish().unwrap();
        assert_eq!(size, expected.len() as u64);
        assert_eq!(read_back(&pool, "/zu", size, 100), expected);
    }

    #[test]
    fn stripes_distribute_across_servers() {
        let pool = make_pool(8, 1 << 30);
        let workers = Arc::new(IoEngine::new(4, "w"));
        let mut buf = WriteBuffer::new(
            "/big".into(),
            StripeLayout::new(1024),
            Arc::clone(&pool),
            workers,
            8,
            4,
        );
        buf.write(&vec![0u8; 64 * 1024]).unwrap();
        buf.finish().unwrap();
        // 64 stripes over 8 servers: every server should hold some.
        let mut counts = vec![0usize; 8];
        for s in 0..64u64 {
            let key = KeySchema::stripe_key("/big", s);
            counts[pool.server_for(&key).0] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "imbalanced: {counts:?}");
    }
}
