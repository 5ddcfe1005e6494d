//! The prefetching protocol (paper §3.2.2).
//!
//! "Our prefetching scheme is simple and effective only for sequential
//! reads: when an application requests data from a specific stripe, MemFS
//! prefetches the consecutive stripes in a local cache."
//!
//! [`StripeReader`] keeps a bounded per-file cache (8 MiB by default).
//! Every stripe access triggers prefetch of the next `window` stripes
//! through the shared prefetch thread pool; sequential readers therefore
//! always find the next stripe already local, hiding the network latency
//! (which is why Figure 3a shows read bandwidth independent of stripe
//! size).
//!
//! The reader goes slightly beyond the paper's strictly-consecutive
//! scheme: a small per-handle stream table detects forward strides
//! (including several interleaved sequential regions on one handle), so a
//! stride-`k` scan prefetches `stripe + k, stripe + 2k, ...` instead of
//! degrading every access to a synchronous miss. Pure sequential access
//! resolves to stride 1 and behaves exactly as before.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use memfs_hashring::schema::KeySchema;
use parking_lot::{Condvar, Mutex};

use crate::error::{MemFsError, MemFsResult};
use crate::layout::StripeLayout;
use crate::pool::ServerPool;
use crate::threadpool::IoEngine;

/// State of one cache slot.
enum Slot {
    /// A prefetch job is fetching this stripe.
    InFlight,
    /// Stripe bytes are local.
    Ready(Bytes),
    /// The background fetch failed; readers retry synchronously.
    Failed,
}

struct CacheState {
    slots: HashMap<u64, Slot>,
    /// Ready-slot insertion order, for FIFO eviction.
    order: VecDeque<u64>,
}

struct Cache {
    state: Mutex<CacheState>,
    cv: Condvar,
    capacity: usize,
}

impl Cache {
    /// Insert a fetched stripe as `Ready`, evicting FIFO down to capacity.
    /// Shared by the synchronous miss path and the background prefetch
    /// jobs so the `order` queue is the single capacity authority.
    fn insert_ready_locked(&self, state: &mut CacheState, stripe: u64, data: Bytes) {
        while state.order.len() >= self.capacity {
            if let Some(victim) = state.order.pop_front() {
                // Never evict the stripe we are inserting.
                if victim != stripe {
                    state.slots.remove(&victim);
                }
            } else {
                break;
            }
        }
        state.slots.insert(stripe, Slot::Ready(data));
        state.order.push_back(stripe);
        self.check_invariants(state);
    }

    /// The `order`/`slots` invariant: `order` holds each Ready stripe at
    /// most once and never grows past capacity. Duplicated entries are how
    /// the old unclaimed-miss double-fetch corrupted capacity accounting.
    fn check_invariants(&self, state: &CacheState) {
        if cfg!(debug_assertions) {
            assert!(
                state.order.len() <= self.capacity,
                "order {} exceeds capacity {}",
                state.order.len(),
                self.capacity
            );
            let unique: std::collections::HashSet<&u64> = state.order.iter().collect();
            assert_eq!(unique.len(), state.order.len(), "duplicate order entries");
            for s in &state.order {
                assert!(
                    matches!(state.slots.get(s), Some(Slot::Ready(_))),
                    "order entry {s} not Ready"
                );
            }
        }
    }
}

/// Concurrent access streams tracked per reader handle. Covers a few
/// interleaved sequential/strided regions (e.g. head+tail readers);
/// beyond this the least recently touched stream is recycled.
const MAX_STREAMS: usize = 4;

/// Largest forward jump (in stripes) still treated as a stride of an
/// existing stream rather than a brand-new stream. Bounds how far a
/// strided window extrapolates ahead of the read position.
const MAX_STRIDE: u64 = 32;

/// One detected access stream: where it last read and how far it
/// appears to advance per access.
struct StreamState {
    last: u64,
    stride: u64,
    /// Logical clock of the last touch, for LRU recycling.
    touched: u64,
}

struct StreamTable {
    streams: Vec<StreamState>,
    clock: u64,
}

/// A striped, prefetching reader over one finalized file.
pub struct StripeReader {
    path: String,
    layout: StripeLayout,
    file_size: u64,
    pool: Arc<ServerPool>,
    engine: Option<Arc<IoEngine>>,
    window: usize,
    cache: Arc<Cache>,
    streams: Mutex<StreamTable>,
}

impl StripeReader {
    /// Create a reader for `path` with final size `file_size`.
    ///
    /// `engine`/`window` control prefetching; pass `None`/`0` to disable
    /// (the "no prefetching" ablation of Figure 3b). The engine is the
    /// mount's shared [`IoEngine`] — every open file's prefetch jobs ride
    /// the same bounded worker set. `cache_stripes` caps the local cache
    /// (8 MiB / stripe size by default).
    pub fn new(
        path: String,
        layout: StripeLayout,
        file_size: u64,
        pool: Arc<ServerPool>,
        engine: Option<Arc<IoEngine>>,
        window: usize,
        cache_stripes: usize,
    ) -> Self {
        StripeReader {
            path,
            layout,
            file_size,
            pool,
            engine,
            window,
            cache: Arc::new(Cache {
                state: Mutex::new(CacheState {
                    slots: HashMap::new(),
                    order: VecDeque::new(),
                }),
                cv: Condvar::new(),
                capacity: cache_stripes.max(1),
            }),
            streams: Mutex::new(StreamTable {
                streams: Vec::new(),
                clock: 0,
            }),
        }
    }

    /// The file size this reader was opened with.
    pub fn file_size(&self) -> u64 {
        self.file_size
    }

    /// Fetch stripe `stripe`, from cache if possible, then kick prefetch
    /// of the detected-stride window.
    pub fn stripe(&self, stripe: u64) -> MemFsResult<Bytes> {
        debug_assert!(stripe < self.layout.stripe_count(self.file_size));
        let stride = self.note_access(stripe);
        let data = self.fetch(stripe)?;
        self.prefetch_ahead(stripe, stride);
        Ok(data)
    }

    /// Record an access at `stripe` in the stream table and return the
    /// stride the prefetcher should extrapolate with. Matching order:
    /// exact continuation of a known stream, re-read of a stream's
    /// position, nearest forward jump from a stream (which *sets* that
    /// stream's stride), else a fresh stream assumed sequential.
    fn note_access(&self, stripe: u64) -> u64 {
        let mut table = self.streams.lock();
        table.clock += 1;
        let clock = table.clock;
        if let Some(st) = table
            .streams
            .iter_mut()
            .find(|st| st.stride > 0 && st.last + st.stride == stripe)
        {
            st.last = stripe;
            st.touched = clock;
            return st.stride;
        }
        if let Some(st) = table.streams.iter_mut().find(|st| st.last == stripe) {
            st.touched = clock;
            return st.stride.max(1);
        }
        if let Some(st) = table
            .streams
            .iter_mut()
            .filter(|st| st.last < stripe && stripe - st.last <= MAX_STRIDE)
            .max_by_key(|st| st.last)
        {
            st.stride = stripe - st.last;
            st.last = stripe;
            st.touched = clock;
            return st.stride;
        }
        if table.streams.len() >= MAX_STREAMS {
            if let Some(pos) = table
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, st)| st.touched)
                .map(|(i, _)| i)
            {
                table.streams.swap_remove(pos);
            }
        }
        table.streams.push(StreamState {
            last: stripe,
            stride: 1,
            touched: clock,
        });
        1
    }

    /// Cache-or-network fetch of one stripe, waiting on in-flight
    /// prefetches rather than fetching twice.
    fn fetch(&self, stripe: u64) -> MemFsResult<Bytes> {
        if self.window > 0 {
            let mut state = self.cache.state.lock();
            loop {
                match state.slots.get(&stripe) {
                    Some(Slot::Ready(data)) => return Ok(data.clone()),
                    Some(Slot::InFlight) => {
                        self.cache.cv.wait(&mut state);
                    }
                    Some(Slot::Failed) | None => {
                        // Claim the slot *before* going to the network so
                        // concurrent misses on this stripe wait here
                        // instead of each fetching it (and pushing
                        // duplicate eviction-order entries). Overwriting a
                        // stale Failed marker is the synchronous retry
                        // clearing it.
                        state.slots.insert(stripe, Slot::InFlight);
                        break;
                    }
                }
            }
        }
        // Synchronous path (claimed miss, or prefetch disabled).
        let key = KeySchema::stripe_key(&self.path, stripe);
        match self.pool.get(&key) {
            Ok(data) => {
                if self.window > 0 {
                    self.insert_ready(stripe, data.clone());
                }
                Ok(data)
            }
            Err(e) => {
                if self.window > 0 {
                    // Release the claim so waiters retry instead of
                    // hanging on an InFlight that will never resolve.
                    let mut state = self.cache.state.lock();
                    state.slots.remove(&stripe);
                    drop(state);
                    self.cache.cv.notify_all();
                }
                Err(self.stripe_err(stripe, e))
            }
        }
    }

    /// A missing stripe under a finalized size record means the key space
    /// was tampered with.
    fn stripe_err(&self, stripe: u64, e: MemFsError) -> MemFsError {
        match e {
            MemFsError::Storage(memfs_memkv::KvError::NotFound) => MemFsError::CorruptMetadata(
                format!("stripe {stripe} of {} missing from store", self.path),
            ),
            other => other,
        }
    }

    /// Fetch several stripes as one batched, fanned-out operation,
    /// returned in input order.
    ///
    /// Cache-aware: already-resident stripes are served locally, stripes
    /// another thread is prefetching are waited on, and only the true
    /// misses travel — as a single [`ServerPool::get_many`] whose
    /// per-server batches go out in parallel. This is what makes a large
    /// `read_at` span cost one parallel round trip instead of one
    /// sequential round trip per stripe.
    pub fn read_stripes(&self, stripes: &[u64]) -> MemFsResult<Vec<Bytes>> {
        if self.window == 0 {
            // Cache disabled: straight batched fetch.
            let keys: Vec<Bytes> = stripes
                .iter()
                .map(|&s| Bytes::from(KeySchema::stripe_key(&self.path, s)))
                .collect();
            return self
                .pool
                .get_many(&keys)
                .into_iter()
                .zip(stripes)
                .map(|(r, &s)| r.map_err(|e| self.stripe_err(s, e)))
                .collect();
        }
        let mut out: Vec<Option<Bytes>> = vec![None; stripes.len()];
        let mut misses: Vec<(usize, u64)> = Vec::new();
        let mut waiting: Vec<(usize, u64)> = Vec::new();
        {
            let mut state = self.cache.state.lock();
            for (i, &s) in stripes.iter().enumerate() {
                match state.slots.get(&s) {
                    Some(Slot::Ready(data)) => out[i] = Some(data.clone()),
                    Some(Slot::InFlight) => waiting.push((i, s)),
                    Some(Slot::Failed) | None => {
                        // Claim the slot so concurrent readers/prefetchers
                        // wait on our batch instead of fetching twice.
                        state.slots.insert(s, Slot::InFlight);
                        misses.push((i, s));
                    }
                }
            }
        }
        // Re-issue the full remaining prefetch window immediately, keyed
        // off the furthest requested stripe. The readahead job overlaps
        // the synchronous miss fetch below, so small sequential `read_at`
        // spans (1-2 stripes) still keep every server engaged instead of
        // capping the fan-out at the span width. Noting every stripe of
        // the span (not just the max) keeps the stream table seeing the
        // contiguous walk, so the next span continues at stride 1 instead
        // of being mistaken for a span-sized jump.
        if let Some(&last) = stripes.iter().max() {
            let mut stride = 1;
            for &s in stripes {
                stride = self.note_access(s);
            }
            self.prefetch_ahead(last, stride);
        }
        if !misses.is_empty() {
            let keys: Vec<Bytes> = misses
                .iter()
                .map(|&(_, s)| Bytes::from(KeySchema::stripe_key(&self.path, s)))
                .collect();
            let results = self.pool.get_many(&keys);
            let mut first_err: Option<MemFsError> = None;
            let mut state = self.cache.state.lock();
            // Every claimed slot must be resolved to Ready or Failed even
            // on error, or waiters would hang on InFlight forever.
            for (&(i, s), r) in misses.iter().zip(results) {
                match r {
                    Ok(data) => {
                        self.cache.insert_ready_locked(&mut state, s, data.clone());
                        out[i] = Some(data);
                    }
                    Err(e) => {
                        state.slots.insert(s, Slot::Failed);
                        if first_err.is_none() {
                            first_err = Some(self.stripe_err(s, e));
                        }
                    }
                }
            }
            drop(state);
            self.cache.cv.notify_all();
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        // `fetch` waits out the in-flight slots (and retries synchronously
        // if the owning fetch failed or the slot got evicted meanwhile).
        for (i, s) in waiting {
            out[i] = Some(self.fetch(s)?);
        }
        Ok(out
            .into_iter()
            .map(|d| d.expect("every stripe classified exactly once"))
            .collect())
    }

    /// Queue background fetches for stripes `stripe + k*stride` for
    /// `k` in `1..=window`.
    ///
    /// The whole window travels as **one** worker job issuing a single
    /// batched [`ServerPool::get_many`]; the pool groups the keys by
    /// owning server and fans the per-server multi-gets out in parallel,
    /// so a window of `w` stripes over `n` servers costs one round trip
    /// per server — issued concurrently, `max(server RTT)` total.
    fn prefetch_ahead(&self, stripe: u64, stride: u64) {
        let Some(engine) = &self.engine else {
            return;
        };
        if self.window == 0 {
            return;
        }
        let stride = stride.max(1);
        let total = self.layout.stripe_count(self.file_size);
        // Reserve the whole window's slots under one lock pass.
        let mut pending: Vec<u64> = Vec::new();
        {
            let mut state = self.cache.state.lock();
            // Sweep stale Failed markers first. They never enter the
            // eviction `order` queue, so before this sweep they
            // accumulated in `slots` until the capacity guard below
            // permanently wedged prefetching after transient errors. The
            // cost: a persistently failing stripe may be re-tried once
            // per issued window — bounded, and the synchronous path
            // surfaces its error either way.
            state.slots.retain(|_, s| !matches!(s, Slot::Failed));
            // Don't let prefetch evict data the reader hasn't seen: bound
            // the stripes that are still *unread* — ahead of the read
            // position or in flight. Ready stripes behind `stripe` were
            // already consumed by this sequential pass and are fair
            // eviction game, so they must not count against the budget:
            // charging them wedged steady-state prefetch entirely once a
            // file longer than the cache had filled it.
            let mut busy = state
                .slots
                .iter()
                .filter(|&(&s, slot)| s > stripe || matches!(slot, Slot::InFlight))
                .count();
            for k in 1..=(self.window as u64) {
                let next = stripe + k * stride;
                if next >= total {
                    break;
                }
                if state.slots.contains_key(&next) {
                    continue; // ready or in flight
                }
                if busy >= self.cache.capacity {
                    break;
                }
                state.slots.insert(next, Slot::InFlight);
                busy += 1;
                pending.push(next);
            }
        }
        if pending.is_empty() {
            return;
        }
        let keys: Vec<Bytes> = pending
            .iter()
            .map(|&s| Bytes::from(KeySchema::stripe_key(&self.path, s)))
            .collect();
        let pool = Arc::clone(&self.pool);
        let cache = Arc::clone(&self.cache);
        engine.execute(move || {
            let results = pool.get_many(&keys);
            let mut state = cache.state.lock();
            for (&s, result) in pending.iter().zip(results) {
                match result {
                    Ok(data) => cache.insert_ready_locked(&mut state, s, data),
                    Err(_) => {
                        state.slots.insert(s, Slot::Failed);
                    }
                }
            }
            drop(state);
            cache.cv.notify_all();
        });
    }

    /// Insert a synchronously fetched stripe, evicting FIFO if needed.
    fn insert_ready(&self, stripe: u64, data: Bytes) {
        let mut state = self.cache.state.lock();
        self.cache.insert_ready_locked(&mut state, stripe, data);
        drop(state);
        self.cache.cv.notify_all();
    }

    /// Number of stripes currently cached or in flight (diagnostic).
    pub fn cached_stripes(&self) -> usize {
        self.cache.state.lock().slots.len()
    }

    /// Verify the cache invariants and report `(slots, order)` sizes.
    #[cfg(test)]
    fn cache_counts(&self) -> (usize, usize) {
        let state = self.cache.state.lock();
        self.cache.check_invariants(&state);
        (state.slots.len(), state.order.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistributorKind;
    use memfs_memkv::{Deferred, KvClient, LocalClient, Store, StoreConfig};

    fn setup(file_size: u64, stripe: usize) -> (Arc<ServerPool>, Bytes) {
        let clients: Vec<Arc<dyn KvClient>> = (0..4)
            .map(|_| {
                Arc::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))) as Arc<dyn KvClient>
            })
            .collect();
        let pool = Arc::new(ServerPool::new(clients, DistributorKind::default()));
        let data = Bytes::from((0..file_size).map(|i| (i % 241) as u8).collect::<Vec<u8>>());
        let layout = StripeLayout::new(stripe);
        for s in 0..layout.stripe_count(file_size) {
            let start = (s as usize) * stripe;
            let end = (start + stripe).min(file_size as usize);
            // Zero-copy fill: every stripe shares the one backing buffer.
            pool.set(&KeySchema::stripe_key("/f", s), data.slice(start..end))
                .unwrap();
        }
        (pool, data)
    }

    fn reader(
        pool: &Arc<ServerPool>,
        file_size: u64,
        stripe: usize,
        window: usize,
    ) -> StripeReader {
        let engine = (window > 0).then(|| Arc::new(IoEngine::new(2, "pf")));
        StripeReader::new(
            "/f".into(),
            StripeLayout::new(stripe),
            file_size,
            Arc::clone(pool),
            engine,
            window,
            16,
        )
    }

    #[test]
    fn sequential_read_with_prefetch_returns_correct_bytes() {
        let (pool, data) = setup(1000, 100);
        let r = reader(&pool, 1000, 100, 4);
        let mut out = Vec::new();
        for s in 0..10 {
            out.extend_from_slice(&r.stripe(s).unwrap());
        }
        assert_eq!(out, data.as_ref());
    }

    #[test]
    fn random_order_reads_are_correct() {
        let (pool, data) = setup(1000, 100);
        let r = reader(&pool, 1000, 100, 4);
        for &s in &[7u64, 0, 9, 3, 3, 1, 8, 0] {
            let got = r.stripe(s).unwrap();
            let start = (s as usize) * 100;
            assert_eq!(got.as_ref(), &data[start..start + 100]);
        }
    }

    #[test]
    fn no_prefetch_mode_works() {
        let (pool, data) = setup(500, 100);
        let r = reader(&pool, 500, 100, 0);
        for s in 0..5 {
            let got = r.stripe(s).unwrap();
            assert_eq!(
                got.as_ref(),
                &data[(s as usize) * 100..(s as usize + 1) * 100]
            );
        }
        assert_eq!(r.cached_stripes(), 0);
    }

    #[test]
    fn prefetch_populates_cache() {
        let (pool, _) = setup(2000, 100);
        let r = reader(&pool, 2000, 100, 8);
        r.stripe(0).unwrap();
        // Wait for prefetchers to land (bounded spin).
        for _ in 0..1000 {
            if r.cached_stripes() >= 8 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(r.cached_stripes() >= 8, "prefetch did not fill cache");
    }

    #[test]
    fn prefetch_window_issues_one_batch_per_server() {
        let stores: Vec<Arc<Store>> = (0..4)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = stores
            .iter()
            .map(|s| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
            .collect();
        let pool = Arc::new(ServerPool::new(clients, DistributorKind::default()));
        let layout = StripeLayout::new(100);
        for s in 0..layout.stripe_count(2000) {
            pool.set(
                &KeySchema::stripe_key("/f", s),
                Bytes::from(vec![s as u8; 100]),
            )
            .unwrap();
        }
        let engine = Some(Arc::new(IoEngine::new(4, "pf")));
        let r = StripeReader::new("/f".into(), layout, 2000, Arc::clone(&pool), engine, 8, 16);
        // One read triggers exactly one prefetch window (stripes 1..=8).
        let owners: std::collections::HashSet<usize> = (1..=8u64)
            .map(|s| pool.server_for(&KeySchema::stripe_key("/f", s)).0)
            .collect();
        r.stripe(0).unwrap();
        // Wait until every per-server batch job has landed (InFlight slots
        // are reserved synchronously, so cache size can't tell us).
        for _ in 0..1000 {
            let batches: u64 = stores.iter().map(|s| s.stats().snapshot().mget_ops).sum();
            if batches >= owners.len() as u64 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Acceptance criterion: every server owning part of the window saw
        // exactly ONE batched multi-get, never one request per stripe.
        for (i, store) in stores.iter().enumerate() {
            let expected = usize::from(owners.contains(&i)) as u64;
            assert_eq!(
                store.stats().snapshot().mget_ops,
                expected,
                "server {i} batch count"
            );
        }
    }

    /// A client wrapper separating synchronous single-key `get`s (the
    /// reader's miss path) from batched `get_many`s (the prefetch path).
    /// `Store`'s own counters can't tell them apart: its `get_many` bumps
    /// `get_ops` once per key too.
    struct CountingClient {
        inner: LocalClient,
        gets: std::sync::atomic::AtomicU64,
        mgets: std::sync::atomic::AtomicU64,
    }

    impl KvClient for CountingClient {
        fn get(&self, key: &[u8]) -> memfs_memkv::error::KvResult<Bytes> {
            self.gets.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.get(key)
        }
        fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
            self.mgets
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.start_get_many(keys)
        }
        fn start_set_many(&self, items: &[(Bytes, Bytes)]) -> Deferred<()> {
            self.inner.start_set_many(items)
        }
        fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
            self.inner.start_delete_many(keys)
        }
        fn add(&self, key: &[u8], value: Bytes) -> memfs_memkv::error::KvResult<()> {
            self.inner.add(key, value)
        }
        fn append(&self, key: &[u8], suffix: &[u8]) -> memfs_memkv::error::KvResult<()> {
            self.inner.append(key, suffix)
        }
    }

    /// Four counted local servers plus a pool over them, pre-seeded with
    /// every stripe of a `file_size`-byte file at `/f`.
    fn instrumented_pool(
        file_size: u64,
        stripe: usize,
    ) -> (Vec<Arc<CountingClient>>, Arc<ServerPool>) {
        let counted: Vec<Arc<CountingClient>> = (0..4)
            .map(|_| {
                Arc::new(CountingClient {
                    inner: LocalClient::new(Arc::new(Store::new(StoreConfig::default()))),
                    gets: Default::default(),
                    mgets: Default::default(),
                })
            })
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = counted
            .iter()
            .map(|c| Arc::clone(c) as Arc<dyn KvClient>)
            .collect();
        let pool = Arc::new(ServerPool::new(clients, DistributorKind::default()));
        let layout = StripeLayout::new(stripe);
        for s in 0..layout.stripe_count(file_size) {
            pool.set(
                &KeySchema::stripe_key("/f", s),
                Bytes::from(vec![s as u8; stripe]),
            )
            .unwrap();
        }
        (counted, pool)
    }

    fn sync_gets(clients: &[Arc<CountingClient>]) -> u64 {
        clients
            .iter()
            .map(|c| c.gets.load(std::sync::atomic::Ordering::Relaxed))
            .sum()
    }

    fn batched_gets(clients: &[Arc<CountingClient>]) -> u64 {
        clients
            .iter()
            .map(|c| c.mgets.load(std::sync::atomic::Ordering::Relaxed))
            .sum()
    }

    #[test]
    fn strided_reads_keep_prefetch_engaged() {
        // 300 stripes, read every third one. Before stride detection the
        // consecutive-only window never contained the next access, so a
        // strided scan degraded to one synchronous get per stripe.
        let (counted, pool) = instrumented_pool(30_000, 100);
        let engine = Some(Arc::new(IoEngine::new(2, "pf")));
        let r = StripeReader::new(
            "/f".into(),
            StripeLayout::new(100),
            30_000,
            Arc::clone(&pool),
            engine,
            8,
            16,
        );
        let mut accesses = 0u64;
        let mut s = 0u64;
        while s < 300 {
            assert_eq!(r.stripe(s).unwrap().as_ref(), &vec![s as u8; 100][..]);
            accesses += 1;
            s += 3;
        }
        // Slot reservation is synchronous under the cache lock, so once
        // the stride locks in every access finds its stripe Ready or
        // InFlight: almost all of the 100 accesses must be prefetch hits.
        let gets = sync_gets(&counted);
        assert!(accesses >= 100);
        assert!(
            gets <= 10,
            "strided scan fell back to {gets} synchronous gets out of {accesses} accesses"
        );
        assert!(
            batched_gets(&counted) > 0,
            "stride window never issued a batched prefetch"
        );
    }

    #[test]
    fn interleaved_sequential_streams_each_prefetch() {
        // Two sequential readers sharing one handle, far apart in the
        // file. The stream table tracks both, so neither degrades the
        // other to synchronous misses.
        let (counted, pool) = instrumented_pool(30_000, 100);
        let engine = Some(Arc::new(IoEngine::new(2, "pf")));
        let r = StripeReader::new(
            "/f".into(),
            StripeLayout::new(100),
            30_000,
            Arc::clone(&pool),
            engine,
            8,
            32, // room for both streams' windows
        );
        for s in 0..50u64 {
            assert_eq!(r.stripe(s).unwrap().as_ref(), &vec![s as u8; 100][..]);
            let t = 150 + s;
            assert_eq!(r.stripe(t).unwrap().as_ref(), &vec![t as u8; 100][..]);
        }
        let gets = sync_gets(&counted);
        assert!(
            gets <= 10,
            "interleaved streams fell back to {gets} synchronous gets"
        );
    }

    #[test]
    fn read_stripes_returns_input_order_and_uses_cache() {
        let (pool, data) = setup(2000, 100);
        let r = reader(&pool, 2000, 100, 4);
        // Mixed cold/warm: stripe 0 warms the cache first.
        r.stripe(0).unwrap();
        let got = r.read_stripes(&[3, 0, 17, 9]).unwrap();
        for (&s, d) in [3u64, 0, 17, 9].iter().zip(&got) {
            let start = (s as usize) * 100;
            assert_eq!(d.as_ref(), &data[start..start + 100], "stripe {s}");
        }
        // A second batched read of the same stripes is fully cache-served.
        let again = r.read_stripes(&[3, 0, 17, 9]).unwrap();
        assert_eq!(got, again);
    }

    #[test]
    fn read_stripes_without_cache_is_one_parallel_fetch() {
        let (pool, data) = setup(1000, 100);
        let r = reader(&pool, 1000, 100, 0);
        let stripes: Vec<u64> = (0..10).collect();
        let got = r.read_stripes(&stripes).unwrap();
        let mut flat = Vec::new();
        for d in got {
            flat.extend_from_slice(&d);
        }
        assert_eq!(flat, data.as_ref());
        assert_eq!(r.cached_stripes(), 0);
    }

    #[test]
    fn read_stripes_missing_stripe_is_corrupt_metadata() {
        let (pool, _) = setup(1000, 100);
        pool.delete_quiet(&KeySchema::stripe_key("/f", 5)).unwrap();
        let r = reader(&pool, 1000, 100, 4);
        assert!(matches!(
            r.read_stripes(&[2, 5, 7]),
            Err(MemFsError::CorruptMetadata(_))
        ));
        // The failed slot must not wedge later readers: a retry of the
        // healthy stripes succeeds.
        assert_eq!(r.read_stripes(&[2, 7]).unwrap().len(), 2);
    }

    #[test]
    fn cache_respects_capacity() {
        let (pool, _) = setup(10_000, 100);
        let engine = Some(Arc::new(IoEngine::new(2, "pf")));
        let r = StripeReader::new(
            "/f".into(),
            StripeLayout::new(100),
            10_000,
            Arc::clone(&pool),
            engine,
            4,
            6, // tiny cache
        );
        for s in 0..100 {
            r.stripe(s).unwrap();
        }
        assert!(
            r.cached_stripes() <= 7,
            "cache grew to {}",
            r.cached_stripes()
        );
    }

    #[test]
    fn missing_stripe_is_corrupt_metadata() {
        let (pool, _) = setup(1000, 100);
        pool.delete_quiet(&KeySchema::stripe_key("/f", 5)).unwrap();
        let r = reader(&pool, 1000, 100, 0);
        assert!(matches!(r.stripe(5), Err(MemFsError::CorruptMetadata(_))));
    }

    #[test]
    fn prefetch_recovers_after_transient_errors() {
        use memfs_memkv::FailableClient;
        let store = Arc::new(Store::new(StoreConfig::default()));
        let failable = Arc::new(FailableClient::new(LocalClient::new(Arc::clone(&store))));
        let clients: Vec<Arc<dyn KvClient>> = vec![Arc::clone(&failable) as Arc<dyn KvClient>];
        let pool = Arc::new(ServerPool::new(clients, DistributorKind::default()));
        let layout = StripeLayout::new(100);
        for s in 0..layout.stripe_count(5000) {
            pool.set(
                &KeySchema::stripe_key("/f", s),
                Bytes::from(vec![s as u8; 100]),
            )
            .unwrap();
        }
        let engine = Some(Arc::new(IoEngine::new(2, "pf")));
        let r = StripeReader::new(
            "/f".into(),
            layout,
            5000,
            Arc::clone(&pool),
            engine,
            4,
            4, // capacity == window: a few stale Failed slots fill it
        );
        // Transient outage: every batched read fails, leaving Failed
        // markers behind (as many distinct stripes as the capacity).
        failable.set_down(true);
        for s in [0u64, 10, 20, 30] {
            assert!(r.read_stripes(&[s]).is_err());
        }
        // Let the outage's own prefetch jobs fail too, so only Failed
        // markers remain and no job queued during the outage can issue
        // the multi-get this test waits for.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while r
            .cache
            .state
            .lock()
            .slots
            .values()
            .any(|s| matches!(s, Slot::InFlight))
        {
            assert!(std::time::Instant::now() < deadline, "prefetch jobs hung");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        failable.set_down(false);
        // Recovery: a successful read must re-arm prefetching. Before the
        // Failed-slot sweep, the stale markers counted against capacity
        // and the `slots.len() >= capacity` guard wedged prefetch
        // permanently — no batched multi-get was ever issued again.
        // Stripe 0 starts a fresh stride-1 stream (40 would continue the
        // outage's stride-10 walk past the end of the file, leaving
        // nothing to prefetch), with more stale markers ahead of it than
        // the cache holds.
        let baseline = store.stats().snapshot().mget_ops;
        assert_eq!(r.stripe(0).unwrap().as_ref(), &[0u8; 100][..]);
        let mut landed = false;
        for _ in 0..2000 {
            if store.stats().snapshot().mget_ops > baseline {
                landed = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(
            landed,
            "prefetch window never issued after recovery: wedged"
        );
    }

    #[test]
    fn concurrent_misses_coalesce_into_one_fetch() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let clients: Vec<Arc<dyn KvClient>> =
            vec![Arc::new(LocalClient::new(Arc::clone(&store))) as Arc<dyn KvClient>];
        let pool = Arc::new(ServerPool::new(clients, DistributorKind::default()));
        // A one-stripe file: nothing to prefetch, so the only traffic is
        // the miss fetch itself.
        pool.set(&KeySchema::stripe_key("/f", 0), Bytes::from(vec![7u8; 100]))
            .unwrap();
        let engine = Some(Arc::new(IoEngine::new(2, "pf")));
        let r = Arc::new(StripeReader::new(
            "/f".into(),
            StripeLayout::new(100),
            100,
            Arc::clone(&pool),
            engine,
            4,
            16,
        ));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    r.stripe(0).unwrap()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap().as_ref(), &[7u8; 100][..]);
        }
        // The first miss claims the slot; the other seven wait on it.
        // Before claim-then-fetch, racing misses each went to the network
        // and each pushed an eviction-order entry for the same stripe.
        assert_eq!(
            store.stats().snapshot().get_ops,
            1,
            "concurrent misses must coalesce into one network fetch"
        );
        let (slots, order) = r.cache_counts();
        assert_eq!((slots, order), (1, 1));
    }

    #[test]
    fn cache_never_exceeds_capacity_under_random_ops() {
        let (pool, data) = setup(10_000, 100); // 100 stripes
        for cap in [1usize, 2, 5, 8] {
            let engine = Some(Arc::new(IoEngine::new(2, "pf")));
            let r = StripeReader::new(
                "/f".into(),
                StripeLayout::new(100),
                10_000,
                Arc::clone(&pool),
                engine,
                4,
                cap,
            );
            // Deterministic xorshift so failures reproduce.
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ cap as u64;
            for _ in 0..300 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x.is_multiple_of(3) {
                    let s = x % 100;
                    let got = r.stripe(s).unwrap();
                    assert_eq!(got.as_ref(), &data[(s as usize) * 100..][..100]);
                } else {
                    let start = x % 97;
                    let span: Vec<u64> = (start..(start + 1 + (x >> 8) % 4).min(100)).collect();
                    r.read_stripes(&span).unwrap();
                }
                // `cache_counts` checks the order/slots invariant (order
                // unique, Ready-only, bounded by capacity) on every step;
                // total slots may transiently exceed capacity only by the
                // claims in flight: prefetch reserves at most `cap` unread
                // stripes and a `read_stripes` span claims <= 4 more.
                let (slots, order) = r.cache_counts();
                assert!(order <= cap, "order {order} > capacity {cap}");
                assert!(
                    slots <= 2 * cap + 4,
                    "slots {slots} > capacity {cap} + in-flight budget"
                );
            }
            // Quiescent: every claim resolves and eviction brings the
            // cache back within capacity.
            let mut settled = false;
            for _ in 0..2000 {
                let (slots, _) = r.cache_counts();
                if slots <= cap {
                    settled = true;
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert!(settled, "cache never settled to capacity {cap}");
        }
    }

    #[test]
    fn concurrent_readers_share_reader() {
        let (pool, data) = setup(5000, 100);
        let r = Arc::new(reader(&pool, 5000, 100, 4));
        let data = Arc::new(data);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = Arc::clone(&r);
                let data = Arc::clone(&data);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let s = (t * 13 + i * 7) % 50;
                        let got = r.stripe(s).unwrap();
                        let start = (s as usize) * 100;
                        assert_eq!(got.as_ref(), &data[start..start + 100]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
