//! Client-side access abstraction.
//!
//! MemFS programs against [`KvClient`], mirroring the role Libmemcached
//! plays in the paper: the client owns data placement, the servers are
//! passive. The contract is **batch-first**: an implementation supplies
//! the three batch submits (`start_get_many`, `start_set_many`,
//! `start_delete_many`) plus the two non-idempotent single-key verbs
//! (`add`, `append`); single-key `get`/`set`/`delete` and the blocking
//! `*_many` calls are written once, in the trait, as a submit followed
//! by [`Deferred::wait`]. Implementations:
//!
//! * [`LocalClient`] — direct in-process calls into a [`Store`] (a MemFS
//!   node talking to the server in its own DRAM);
//! * [`ThrottledClient`] — wraps any client with a real-time latency and
//!   bandwidth shaper, so single-machine benchmarks reproduce the *shape*
//!   of remote-server behaviour (used for the Figure 3 experiments);
//! * [`FailableClient`] — failure injection for the replication tests;
//! * [`crate::net::TcpClient`] — the memcached text protocol over TCP, for
//!   genuinely distributed deployments.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::error::{KvError, KvResult};
use crate::store::Store;

/// A batched operation that may still be in flight.
///
/// Returned by the `start_*` methods on [`KvClient`]: the submission half
/// has already run (for an evented transport the requests are on the
/// wire), and [`Deferred::wait`] blocks only for the completion half.
/// This is what lets one caller thread keep batches in flight on every
/// server of a pool simultaneously — submit to all, then wait.
///
/// Transports without a split submit path run eagerly and return
/// [`Deferred::Ready`]; callers cannot tell the difference, they just get
/// no overlap.
pub enum Deferred<T> {
    /// The operation already completed (eager transports).
    Ready(KvResult<Vec<KvResult<T>>>),
    /// The operation is in flight; the closure blocks until completion.
    Pending(Box<dyn FnOnce() -> KvResult<Vec<KvResult<T>>> + Send>),
    /// In flight with a readiness probe: `ready` answers "has this
    /// completed?" without blocking or consuming, `finish` blocks for the
    /// result. Lets a sliding-window driver settle completions in
    /// *arrival* order across servers instead of submission order.
    Polled {
        /// Non-blocking completion probe.
        ready: Box<dyn Fn() -> bool + Send>,
        /// Blocking completion, same contract as [`Deferred::Pending`].
        finish: Box<dyn FnOnce() -> KvResult<Vec<KvResult<T>>> + Send>,
    },
}

impl<T> Deferred<T> {
    /// Block until the batch completes and return its per-key results.
    pub fn wait(self) -> KvResult<Vec<KvResult<T>>> {
        match self {
            Deferred::Ready(result) => result,
            Deferred::Pending(finish) => finish(),
            Deferred::Polled { finish, .. } => finish(),
        }
    }

    /// Whether [`Deferred::wait`] would return without blocking.
    /// [`Deferred::Pending`] has no probe and conservatively answers
    /// `false`.
    pub fn is_ready(&self) -> bool {
        match self {
            Deferred::Ready(_) => true,
            Deferred::Pending(_) => false,
            Deferred::Polled { ready, .. } => ready(),
        }
    }

    /// [`Deferred::wait`] for a batch of `n` requests. A reply count other
    /// than `n` is a [`KvError::Protocol`] error, so a misbehaving client
    /// can never misalign results with their keys.
    pub fn wait_for(self, n: usize) -> KvResult<Vec<KvResult<T>>> {
        let results = self.wait()?;
        if results.len() == n {
            Ok(results)
        } else {
            Err(KvError::Protocol(format!(
                "batch of {n} requests returned {} results",
                results.len()
            )))
        }
    }

    /// [`Deferred::wait`] for a one-request batch, unwrapped.
    fn wait_one(self) -> KvResult<T> {
        let mut results = self.wait_for(1)?;
        results.pop().expect("length checked by wait_for")
    }
}

/// A client's current liveness view of its storage server — the unit of
/// the failure-detection census the repair planner queries.
///
/// For the evented TCP transport this is derived from the reactor's
/// per-connection link state machine (Down/Connecting/Up) kept fresh by
/// traffic and by wheel-armed heartbeat probes; for in-process transports
/// it is always [`ServerHealth::Up`] unless a test wrapper injects
/// failure. `Down` is a *view*, not ground truth: a server is `Down` when
/// no connection to it is currently established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerHealth {
    /// Every pooled connection is established.
    Up,
    /// Some connections are established, some are not (flapping link,
    /// partial reconnect after a restart).
    Degraded,
    /// No connection is established.
    Down,
}

impl ServerHealth {
    /// Whether the server is reachable at all (Up or Degraded).
    pub fn is_alive(self) -> bool {
        !matches!(self, ServerHealth::Down)
    }
}

/// The operations MemFS needs from a storage server. All methods are
/// `&self` and implementations must be thread-safe: the write-buffer and
/// prefetch pools issue concurrent requests.
///
/// **Required:** the three batch submits and the two single-key verbs
/// that are not idempotent (`add`, `append` — the pool treats them
/// specially, and a transport must never replay them). **Provided:**
/// every other operation, written once here on top of the submits, so a
/// transport cannot answer a single-key call differently from a batch.
pub trait KvClient: Send + Sync {
    /// Begin fetching several keys in one round trip. The completion
    /// yields one result per key in request order; the outer `Err` is a
    /// transport-level failure (no per-key information) and per-key
    /// misses surface as inner [`KvError::NotFound`].
    ///
    /// Keys travel as [`Bytes`] so the fan-out dispatcher's per-server
    /// batches are assembled by reference-count bumps, never key copies.
    /// Evented transports put the batch on the wire and return without
    /// blocking; in-process ones complete eagerly ([`Deferred::Ready`]).
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes>;
    /// Begin storing several key/value pairs (replacing existing values);
    /// same contract as [`KvClient::start_get_many`].
    fn start_set_many(&self, items: &[(Bytes, Bytes)]) -> Deferred<()>;
    /// Begin removing several keys; same contract as
    /// [`KvClient::start_get_many`], per-key misses surface as inner
    /// [`KvError::NotFound`].
    fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()>;
    /// Store a value only if absent ([`KvError::Exists`] otherwise).
    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()>;
    /// Atomically append to an existing value ([`KvError::NotFound`] if
    /// the key is absent).
    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()>;

    /// Fetch a value: a one-key [`KvClient::start_get_many`].
    fn get(&self, key: &[u8]) -> KvResult<Bytes> {
        self.start_get_many(&[Bytes::copy_from_slice(key)])
            .wait_one()
    }
    /// Store a value, replacing any existing one: a one-item
    /// [`KvClient::start_set_many`].
    fn set(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.start_set_many(&[(Bytes::copy_from_slice(key), value)])
            .wait_one()
    }
    /// Remove a key: a one-key [`KvClient::start_delete_many`].
    fn delete(&self, key: &[u8]) -> KvResult<()> {
        self.start_delete_many(&[Bytes::copy_from_slice(key)])
            .wait_one()
    }
    /// Blocking [`KvClient::start_get_many`].
    fn get_many(&self, keys: &[Bytes]) -> KvResult<Vec<KvResult<Bytes>>> {
        self.start_get_many(keys).wait_for(keys.len())
    }
    /// Blocking [`KvClient::start_set_many`].
    fn set_many(&self, items: &[(Bytes, Bytes)]) -> KvResult<Vec<KvResult<()>>> {
        self.start_set_many(items).wait_for(items.len())
    }
    /// Blocking [`KvClient::start_delete_many`].
    fn delete_many(&self, keys: &[Bytes]) -> KvResult<Vec<KvResult<()>>> {
        self.start_delete_many(keys).wait_for(keys.len())
    }
    /// Whether a key exists (no read traffic accounted).
    fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_ok()
    }
    /// Whether this client has a true split submit/completion path — i.e.
    /// whether the `start_*` methods return before the network round trip
    /// finishes. Informational only: no library code reads it, because
    /// the server pool dispatches every client through the same submit
    /// window (an eager client just gets no overlap). Slated for removal
    /// once no caller outside the library forwards it.
    fn supports_submit(&self) -> bool {
        false
    }
    /// Enumerate every key on the server — needed by the elastic
    /// rebalancer. Default: unsupported (transports without the `keys`
    /// protocol extension).
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        Err(KvError::Protocol(
            "key enumeration not supported by this client".into(),
        ))
    }
    /// Counters of the reactor driving this client's connections, if it
    /// has one. Clients sharing a reactor return snapshots with the same
    /// [`ReactorStatsSnapshot::reactor_id`]
    /// ([`crate::reactor::ReactorStatsSnapshot`]); aggregators dedup on
    /// it. Default: `None` (in-process transports have no reactor).
    fn reactor_stats(&self) -> Option<crate::reactor::ReactorStatsSnapshot> {
        None
    }
    /// This client's liveness view of its server (see [`ServerHealth`]).
    /// Default: always `Up` — in-process transports cannot lose their
    /// server. The TCP client reports the reactor's link census.
    fn health(&self) -> ServerHealth {
        ServerHealth::Up
    }
}

/// Direct in-process access to a [`Store`].
#[derive(Clone)]
pub struct LocalClient {
    store: Arc<Store>,
}

impl LocalClient {
    /// Wrap a shared store.
    pub fn new(store: Arc<Store>) -> Self {
        LocalClient { store }
    }

    /// The underlying store (for stats inspection in tests/benches).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }
}

impl KvClient for LocalClient {
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        Ok(self
            .store
            .keys()
            .into_iter()
            .map(|k| k.into_vec())
            .collect())
    }

    /// A one-key batch takes [`Store::get`], like the server's single-key
    /// fast path, so in-process and TCP mounts count `cmd_mget` alike;
    /// an empty batch touches nothing, like the TCP client's.
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
        Deferred::Ready(Ok(match keys {
            [] => Vec::new(),
            [key] => vec![self.store.get(key)],
            _ => self.store.get_many(keys),
        }))
    }
    fn start_set_many(&self, items: &[(Bytes, Bytes)]) -> Deferred<()> {
        Deferred::Ready(Ok(items
            .iter()
            .map(|(k, v)| self.store.set(k, v.clone()))
            .collect()))
    }
    fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
        Deferred::Ready(Ok(keys.iter().map(|k| self.store.delete(k)).collect()))
    }
    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.store.add(key, value)
    }
    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        self.store.append(key, suffix)
    }
    fn contains(&self, key: &[u8]) -> bool {
        self.store.contains(key)
    }
    /// In-process calls complete at memory speed, so the eager `start_*`
    /// calls already return as soon as a split submit would.
    fn supports_submit(&self) -> bool {
        true
    }
}

/// Wall-clock traffic shaping parameters for [`ThrottledClient`].
#[derive(Debug, Clone, Copy)]
pub struct Shaping {
    /// Fixed cost added to every request (round-trip latency).
    pub latency: Duration,
    /// Payload bandwidth in bytes per second (`f64::INFINITY` disables).
    pub bandwidth: f64,
}

impl Shaping {
    /// A profile resembling IP-over-InfiniBand: 60 µs RTT, 1 GB/s.
    pub fn ipoib_like() -> Self {
        Shaping {
            latency: Duration::from_micros(60),
            bandwidth: 1e9,
        }
    }

    /// A profile resembling gigabit Ethernet: 200 µs RTT, 117 MB/s.
    pub fn gbe_like() -> Self {
        Shaping {
            latency: Duration::from_micros(200),
            bandwidth: 117e6,
        }
    }
}

/// Adds real-time latency/bandwidth costs to an inner client by sleeping.
///
/// The delay model is per-request: `latency + payload / bandwidth`. This
/// yields the right *per-stream* behaviour for the single-machine design
/// experiments (stripe-size sweeps, buffering/prefetching thread scaling)
/// where the point is overlapping many shaped streams.
pub struct ThrottledClient<C> {
    inner: C,
    shaping: Shaping,
}

impl<C: KvClient> ThrottledClient<C> {
    /// Shape `inner` with `shaping`.
    pub fn new(inner: C, shaping: Shaping) -> Self {
        ThrottledClient { inner, shaping }
    }

    /// The wrapped client.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Shaped wall-clock cost of one round trip carrying `payload_bytes`.
    fn cost(&self, payload_bytes: usize) -> Duration {
        let mut d = self.shaping.latency;
        if self.shaping.bandwidth.is_finite() && self.shaping.bandwidth > 0.0 {
            d += Duration::from_secs_f64(payload_bytes as f64 / self.shaping.bandwidth);
        }
        d
    }

    fn delay(&self, payload_bytes: usize) {
        let d = self.cost(payload_bytes);
        if d > Duration::ZERO {
            precise_sleep(d);
        }
    }

    /// Build the deferred half of a shaped batch: the inner operation has
    /// already run (memory-speed for the intended [`LocalClient`] inner),
    /// the shaped cost is a wall-clock deadline. `ready` polls the clock;
    /// `finish` sleeps out the remainder. Because the deadline starts at
    /// submission, N servers' costs elapse concurrently — the fan-out
    /// pays `max(cost)`, not `sum(cost)`, exactly like real shaped links.
    fn shaped_deferred<T: Send + 'static>(
        &self,
        payload_bytes: usize,
        result: KvResult<Vec<KvResult<T>>>,
    ) -> Deferred<T> {
        let deadline = Instant::now() + self.cost(payload_bytes);
        Deferred::Polled {
            ready: Box::new(move || Instant::now() >= deadline),
            finish: Box::new(move || {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining > Duration::ZERO {
                    precise_sleep(remaining);
                }
                result
            }),
        }
    }
}

/// Sleep with sub-millisecond fidelity: OS sleep for the bulk, then spin
/// for the tail. OS timers routinely overshoot by ~50 µs, which would
/// swamp the microsecond-scale latencies being modelled.
fn precise_sleep(d: Duration) {
    let start = Instant::now();
    if d > Duration::from_micros(200) {
        std::thread::sleep(d - Duration::from_micros(150));
    }
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

impl<C: KvClient> KvClient for ThrottledClient<C> {
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        self.inner.scan_keys()
    }

    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.delay(value.len());
        self.inner.add(key, value)
    }
    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        self.delay(suffix.len());
        self.inner.append(key, suffix)
    }
    fn contains(&self, key: &[u8]) -> bool {
        self.inner.contains(key)
    }
    /// The shaped batch cost is charged as a submission-time deadline
    /// (see [`ThrottledClient::shaped_deferred`]), so a fan-out submits
    /// to every server and then settles the deadlines as they elapse —
    /// the Figure-3 overlap on one caller thread.
    fn supports_submit(&self) -> bool {
        true
    }
    /// One round trip for the whole batch: a single latency charge plus
    /// bandwidth on the combined payload — the cost model that makes
    /// batching worth doing over a shaped link.
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
        let out = self.inner.get_many(keys);
        let total: usize = out
            .iter()
            .flatten()
            .map(|r| r.as_ref().map(|v| v.len()).unwrap_or(0))
            .sum();
        self.shaped_deferred(total, out)
    }
    fn start_set_many(&self, items: &[(Bytes, Bytes)]) -> Deferred<()> {
        let total: usize = items.iter().map(|(_, v)| v.len()).sum();
        let out = self.inner.set_many(items);
        self.shaped_deferred(total, out)
    }
    fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
        let out = self.inner.delete_many(keys);
        self.shaped_deferred(0, out)
    }
    fn reactor_stats(&self) -> Option<crate::reactor::ReactorStatsSnapshot> {
        self.inner.reactor_stats()
    }
    fn health(&self) -> ServerHealth {
        self.inner.health()
    }
}

/// A failure-injection wrapper: while marked down, every operation fails
/// with an I/O error, emulating a crashed or partitioned storage server.
/// Used by the fault-tolerance tests to exercise MemFS' replication path
/// (the paper defers fault tolerance to future work, §3.2.5; this crate
/// implements the replication option it sketches).
pub struct FailableClient<C> {
    inner: C,
    down: std::sync::atomic::AtomicBool,
}

impl<C: KvClient> FailableClient<C> {
    /// Wrap `inner`, initially up.
    pub fn new(inner: C) -> Self {
        FailableClient {
            inner,
            down: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Mark the server down (true) or back up (false).
    pub fn set_down(&self, down: bool) {
        self.down.store(down, std::sync::atomic::Ordering::SeqCst);
    }

    /// Whether the server is currently down.
    pub fn is_down(&self) -> bool {
        self.down.load(std::sync::atomic::Ordering::SeqCst)
    }

    fn check(&self) -> KvResult<()> {
        if self.is_down() {
            Err(KvError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "server down (injected failure)",
            )))
        } else {
            Ok(())
        }
    }
}

impl<C: KvClient> KvClient for FailableClient<C> {
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        self.check()?;
        self.inner.scan_keys()
    }

    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        self.check()?;
        self.inner.add(key, value)
    }
    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        self.check()?;
        self.inner.append(key, suffix)
    }
    fn contains(&self, key: &[u8]) -> bool {
        !self.is_down() && self.inner.contains(key)
    }
    fn supports_submit(&self) -> bool {
        self.inner.supports_submit()
    }
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
        match self.check() {
            Ok(()) => self.inner.start_get_many(keys),
            Err(e) => Deferred::Ready(Err(e)),
        }
    }
    fn start_set_many(&self, items: &[(Bytes, Bytes)]) -> Deferred<()> {
        match self.check() {
            Ok(()) => self.inner.start_set_many(items),
            Err(e) => Deferred::Ready(Err(e)),
        }
    }
    fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
        match self.check() {
            Ok(()) => self.inner.start_delete_many(keys),
            Err(e) => Deferred::Ready(Err(e)),
        }
    }
    fn reactor_stats(&self) -> Option<crate::reactor::ReactorStatsSnapshot> {
        self.inner.reactor_stats()
    }
    /// An injected failure is a dead server as far as the census is
    /// concerned — this is what lets repair-planner tests model failure
    /// detection without a TCP cluster.
    fn health(&self) -> ServerHealth {
        if self.is_down() {
            ServerHealth::Down
        } else {
            self.inner.health()
        }
    }
}

/// `Arc<C>` is a client too — MemFS holds its servers behind `Arc`s.
///
/// Forwards **every** method, provided ones included. Falling back to the
/// trait's provided bodies here would rebuild `get`, `contains` and the
/// blocking batches from the inner client's `start_*`, silently dropping
/// the inner client's own overrides (such as `LocalClient::contains`,
/// or a wrapper that accounts single-key calls separately).
impl<C: KvClient + ?Sized> KvClient for Arc<C> {
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        (**self).scan_keys()
    }

    fn set(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        (**self).set(key, value)
    }
    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        (**self).add(key, value)
    }
    fn get(&self, key: &[u8]) -> KvResult<Bytes> {
        (**self).get(key)
    }
    fn get_many(&self, keys: &[Bytes]) -> KvResult<Vec<KvResult<Bytes>>> {
        (**self).get_many(keys)
    }
    fn set_many(&self, items: &[(Bytes, Bytes)]) -> KvResult<Vec<KvResult<()>>> {
        (**self).set_many(items)
    }
    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        (**self).append(key, suffix)
    }
    fn delete(&self, key: &[u8]) -> KvResult<()> {
        (**self).delete(key)
    }
    fn delete_many(&self, keys: &[Bytes]) -> KvResult<Vec<KvResult<()>>> {
        (**self).delete_many(keys)
    }
    fn contains(&self, key: &[u8]) -> bool {
        (**self).contains(key)
    }
    fn supports_submit(&self) -> bool {
        (**self).supports_submit()
    }
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
        (**self).start_get_many(keys)
    }
    fn start_set_many(&self, items: &[(Bytes, Bytes)]) -> Deferred<()> {
        (**self).start_set_many(items)
    }
    fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
        (**self).start_delete_many(keys)
    }
    fn reactor_stats(&self) -> Option<crate::reactor::ReactorStatsSnapshot> {
        (**self).reactor_stats()
    }
    fn health(&self) -> ServerHealth {
        (**self).health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    fn local() -> LocalClient {
        LocalClient::new(Arc::new(Store::new(StoreConfig::default())))
    }

    #[test]
    fn local_client_round_trip() {
        let c = local();
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(c.get(b"k").unwrap().as_ref(), b"v");
        assert!(c.contains(b"k"));
        c.delete(b"k").unwrap();
        assert!(!c.contains(b"k"));
    }

    #[test]
    fn get_many_and_set_many_defaults() {
        let c = local();
        let items = vec![
            (Bytes::from_static(b"a"), Bytes::from_static(b"1")),
            (Bytes::from_static(b"b"), Bytes::from_static(b"2")),
        ];
        for r in c.set_many(&items).unwrap() {
            r.unwrap();
        }
        let out = c
            .get_many(&[
                Bytes::from_static(b"a"),
                Bytes::from_static(b"missing"),
                Bytes::from_static(b"b"),
            ])
            .unwrap();
        assert_eq!(out[0].as_ref().unwrap().as_ref(), b"1");
        assert!(out[1].is_err());
        assert_eq!(out[2].as_ref().unwrap().as_ref(), b"2");
        // LocalClient hands the whole batch to one `Store::get_many`.
        assert_eq!(c.store().stats().snapshot().mget_ops, 1);
    }

    #[test]
    fn delete_many_default_reports_per_key() {
        let c = local();
        c.set(b"a", Bytes::from_static(b"1")).unwrap();
        c.set(b"b", Bytes::from_static(b"2")).unwrap();
        let out = c
            .delete_many(&[
                Bytes::from_static(b"a"),
                Bytes::from_static(b"missing"),
                Bytes::from_static(b"b"),
            ])
            .unwrap();
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(KvError::NotFound)));
        assert!(out[2].is_ok());
        assert!(!c.contains(b"a") && !c.contains(b"b"));
    }

    #[test]
    fn failable_client_blocks_batches_too() {
        let c = FailableClient::new(local());
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        c.set_down(true);
        assert!(c.get_many(&[Bytes::from_static(b"k")]).is_err());
        assert!(c
            .set_many(&[(Bytes::from_static(b"k"), Bytes::new())])
            .is_err());
    }

    #[test]
    fn arc_blanket_impl_works() {
        let c: Arc<dyn KvClient> = Arc::new(local());
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(c.get(b"k").unwrap().as_ref(), b"v");
    }

    #[test]
    fn throttled_client_adds_latency() {
        let shaped = ThrottledClient::new(
            local(),
            Shaping {
                latency: Duration::from_millis(2),
                bandwidth: f64::INFINITY,
            },
        );
        let start = Instant::now();
        shaped.set(b"k", Bytes::from_static(b"v")).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn throttled_client_charges_bandwidth() {
        let shaped = ThrottledClient::new(
            local(),
            Shaping {
                latency: Duration::ZERO,
                bandwidth: 1e6, // 1 MB/s
            },
        );
        let start = Instant::now();
        shaped.set(b"k", Bytes::from(vec![0u8; 10_000])).unwrap(); // 10 ms
        assert!(start.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn failable_client_toggles() {
        let c = FailableClient::new(local());
        c.set(b"k", Bytes::from_static(b"v")).unwrap();
        c.set_down(true);
        assert!(matches!(c.get(b"k"), Err(KvError::Io(_))));
        assert!(matches!(c.set(b"x", Bytes::new()), Err(KvError::Io(_))));
        assert!(!c.contains(b"k"));
        c.set_down(false);
        assert_eq!(c.get(b"k").unwrap().as_ref(), b"v");
        assert!(c.contains(b"k"));
    }

    #[test]
    fn throttled_semantics_pass_through() {
        let shaped = ThrottledClient::new(
            local(),
            Shaping {
                latency: Duration::ZERO,
                bandwidth: f64::INFINITY,
            },
        );
        shaped.set(b"dir", Bytes::from_static(b"a")).unwrap();
        shaped.append(b"dir", b"b").unwrap();
        assert_eq!(shaped.get(b"dir").unwrap().as_ref(), b"ab");
        assert!(shaped.get(b"missing").is_err());
    }
}
