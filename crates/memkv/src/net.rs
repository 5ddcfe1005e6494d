//! TCP transport: the evented memkv server ([`KvServer`], re-exported
//! from [`crate::server`]) speaking the memcached text protocol, and a
//! matching client implementing [`KvClient`].
//!
//! This is what turns `memkv` into a real distributed deployment: one
//! [`KvServer`] per storage node, a [`TcpClient`] per server inside every
//! MemFS mount (the Libmemcached role). The `tcp_cluster` example runs a
//! whole striped file system over localhost sockets.
//!
//! The client is a **connection pool** ([`PoolConfig`] sizes it) and every
//! request batch is **pipelined**: all frames of a batch are queued on one
//! connection and the replies are read back in order. Connections are
//! driven by a shared epoll reactor ([`crate::reactor`]): submitting a
//! batch never blocks on the socket, and the caller parks on a completion
//! handle only when it actually needs the responses — so one thread can
//! keep batches in flight on every server of a pool concurrently
//! ([`KvClient::start_get_many`] and friends expose that split). A mount
//! registers all of its `TcpClient`s on one [`ReactorHandle`]
//! ([`TcpClient::connect_shared`]), so a single reactor thread drives the
//! whole cluster and drains completions for all servers per wake. Value
//! payloads travel as their own zero-copy iovec segments in both
//! directions, so stripe-sized values are never copied into an
//! intermediate wire buffer.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bytes::Bytes;

use crate::client::{Deferred, KvClient};
use crate::error::{KvError, KvResult};
use crate::proto::{write_request_line, Request, Response, ValueItem, MAX_LINE_LEN};
use crate::reactor::{PendingExchange, ReactorHandle, ReactorStatsSnapshot, Registration};

// The server engine lives in `crate::server`; re-export its surface here
// so `net` stays the one-stop transport module.
pub use crate::server::{execute, KvServer, ServerConfig, SERVER_VERSION};

/// Sizing knobs for a [`TcpClient`]'s connection pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of TCP connections to keep open to the server. Batches are
    /// spread round-robin; each connection pipelines independently, so
    /// concurrent batches do not serialize on one socket.
    pub connections: usize,
    /// Upper bound on keys packed into one multi-key `get` line; larger
    /// batches are split into pipelined frames on the same connection.
    pub max_batch_keys: usize,
    /// Response deadline per batch. A server that accepts a request and
    /// never answers fails the call with [`KvError::Timeout`] instead of
    /// parking the caller forever; the silent connection is severed.
    pub timeout: Duration,
    /// Liveness probe interval. When set, the reactor probes each idle
    /// connection with a `version` request at this cadence and re-dials
    /// dead ones, so [`KvClient::health`] stays fresh on a quiet mount —
    /// the failure-detection input of the repair planner. `None` (the
    /// default) disables heartbeats: liveness is then only observed
    /// through foreground traffic.
    pub heartbeat: Option<Duration>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            connections: 4,
            max_batch_keys: 64,
            timeout: Duration::from_secs(10),
            heartbeat: None,
        }
    }
}

/// An evented TCP client for one server, implementing [`KvClient`].
///
/// Holds a pool of non-blocking connections ([`PoolConfig::connections`])
/// registered with an epoll reactor ([`crate::reactor`]) — the role
/// Libmemcached's connection pools play in the paper's deployment, minus
/// the thread-per-call cost: submitting a batch only encodes it and hands
/// it to the reactor, so any number of batches (across any number of
/// `TcpClient`s) stay in flight while a single caller thread waits.
/// [`TcpClient::connect_shared`] registers on a caller-owned
/// [`ReactorHandle`] so every client of a mount shares one reactor
/// thread; [`TcpClient::connect_with`] spins up a private one.
///
/// Every operation is a *pipelined* batch ([`KvClient::start_get_many`]
/// and siblings): every frame is queued on one connection and the replies
/// are read back in order; a single-key call is a one-frame batch. The
/// split submit/completion path lets callers fan one logical operation
/// out across servers.
///
/// A connection that dies mid-call is reopened; the request is retried
/// once, transparently, when it is idempotent (`get`/`set`/`delete`…).
/// Non-idempotent verbs (`add`/`append`/`cas`) surface the I/O error
/// instead — retrying those could double-apply. Calls unanswered past
/// [`PoolConfig::timeout`] fail with [`KvError::Timeout`].
pub struct TcpClient {
    registration: Registration,
    next: AtomicUsize,
    addr: SocketAddr,
    config: PoolConfig,
}

/// Whether a request may be transparently resent after a connection drop.
fn is_idempotent(req: &Request) -> bool {
    !matches!(
        req,
        Request::Add { .. } | Request::Append { .. } | Request::Cas { .. }
    )
}

/// Value payloads at or above this size travel as their own zero-copy
/// wire segment; smaller ones are cheaper to copy into the header buffer
/// than to pay an extra iovec entry for.
const SEGMENT_THRESHOLD: usize = 4 * 1024;

/// Encode a pipelined batch into wire segments for the reactor: command
/// lines (and small payloads) coalesce into shared header buffers, large
/// payloads ride as refcount-bumped [`Bytes`] segments. No segment is
/// ever empty.
fn encode_batch(reqs: &[Request]) -> Vec<Bytes> {
    let mut segments: Vec<Bytes> = Vec::new();
    let mut head: Vec<u8> = Vec::new();
    for req in reqs {
        match write_request_line(req, &mut head) {
            Some(value) if value.len() >= SEGMENT_THRESHOLD => {
                segments.push(Bytes::from(std::mem::take(&mut head)));
                segments.push(value.clone());
                head.extend_from_slice(b"\r\n");
            }
            Some(value) => {
                crate::audit::count_staged(value.len());
                head.extend_from_slice(value);
                head.extend_from_slice(b"\r\n");
            }
            None => {}
        }
    }
    if !head.is_empty() {
        segments.push(Bytes::from(head));
    }
    segments
}

impl TcpClient {
    /// Connect to a server with the default pool size.
    pub fn connect(addr: impl ToSocketAddrs) -> KvResult<TcpClient> {
        Self::connect_with(addr, PoolConfig::default())
    }

    /// Connect to a server with explicit pool sizing on a private reactor
    /// (this client is the shared reactor's only registrant).
    ///
    /// # Panics
    /// Panics if `config.connections == 0`, `config.max_batch_keys == 0`
    /// or `config.timeout` is zero.
    pub fn connect_with(addr: impl ToSocketAddrs, config: PoolConfig) -> KvResult<TcpClient> {
        let reactor = ReactorHandle::new()?;
        Self::connect_shared(addr, config, &reactor)
    }

    /// Connect to a server and register the connections with an existing
    /// shared reactor — the per-mount deployment shape: every server's
    /// `TcpClient` rides one epoll thread, so completions land in
    /// cross-server batches and thread count stays constant in cluster
    /// size. The client keeps the reactor alive for as long as it lives.
    ///
    /// # Panics
    /// Panics if `config.connections == 0`, `config.max_batch_keys == 0`
    /// or `config.timeout` is zero.
    pub fn connect_shared(
        addr: impl ToSocketAddrs,
        config: PoolConfig,
        reactor: &ReactorHandle,
    ) -> KvResult<TcpClient> {
        assert!(config.connections > 0, "pool needs at least one connection");
        assert!(config.max_batch_keys > 0, "batches need at least one key");
        assert!(
            config.timeout > Duration::ZERO,
            "response deadline must be non-zero"
        );
        // Connect eagerly and synchronously so an unreachable server is
        // reported here, not on the first call.
        let first = TcpStream::connect(addr)?;
        first.set_nodelay(true)?;
        let addr = first.peer_addr()?;
        let mut streams = Vec::with_capacity(config.connections);
        streams.push(first);
        for _ in 1..config.connections {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            streams.push(stream);
        }
        let registration = reactor.register(addr, streams, config.timeout, config.heartbeat)?;
        Ok(TcpClient {
            registration,
            next: AtomicUsize::new(0),
            addr,
            config,
        })
    }

    /// Peer address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of pooled connections.
    pub fn pool_size(&self) -> usize {
        self.config.connections
    }

    /// Counters of the reactor driving this client's connections. Shared
    /// reactors report aggregate numbers across every registrant; dedup
    /// on [`ReactorStatsSnapshot::reactor_id`] when summing over clients.
    pub fn reactor_stats(&self) -> ReactorStatsSnapshot {
        self.registration.handle().stats()
    }

    /// Submit one pipelined batch to the reactor (round-robin over the
    /// connection pool) and return its completion handle. Never blocks on
    /// the network.
    fn submit_batch(&self, reqs: &[Request]) -> PendingExchange {
        let segments = encode_batch(reqs);
        let idempotent = reqs.iter().all(is_idempotent);
        let conn = self.next.fetch_add(1, Ordering::Relaxed) % self.registration.len();
        self.registration
            .submit(conn, segments, reqs.len(), idempotent)
    }

    /// Pack keys into multi-key `get` lines (bounded by both key count and
    /// line length), one request per chunk. `Bytes` keys make every chunk
    /// push a refcount bump, not a copy.
    fn chunk_get_requests(&self, keys: &[Bytes]) -> Vec<Request> {
        let mut reqs: Vec<Request> = Vec::new();
        let mut chunk: Vec<Bytes> = Vec::new();
        let mut line_len = "get".len();
        for key in keys {
            let full = chunk.len() >= self.config.max_batch_keys
                || line_len + 1 + key.len() + 2 > MAX_LINE_LEN;
            if full && !chunk.is_empty() {
                reqs.push(Request::Get {
                    keys: std::mem::take(&mut chunk),
                });
                line_len = "get".len();
            }
            line_len += 1 + key.len();
            chunk.push(key.clone());
        }
        reqs.push(Request::Get { keys: chunk });
        reqs
    }

    /// Issue a request and wait for its response.
    pub fn call(&self, req: &Request) -> KvResult<Response> {
        let mut resps = self.submit_batch(std::slice::from_ref(req)).wait()?;
        Ok(resps.pop().expect("one response per request"))
    }

    /// Fetch server statistics.
    pub fn stats(&self) -> KvResult<Vec<(String, String)>> {
        match self.call(&Request::Stats)? {
            Response::Stats(pairs) => Ok(pairs),
            other => Err(KvError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// List all keys on the server (the `keys` protocol extension).
    pub fn keys(&self) -> KvResult<Vec<Vec<u8>>> {
        match self.call(&Request::Keys)? {
            Response::KeyList(keys) => Ok(keys),
            // An empty key list is a bare `END`, indistinguishable on the
            // wire from a get miss.
            Response::End => Ok(Vec::new()),
            other => Err(KvError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Fetch a value together with its CAS token (`gets`).
    pub fn gets(&self, key: &[u8]) -> KvResult<(Bytes, u64)> {
        match self.call(&Request::Gets {
            keys: vec![Bytes::copy_from_slice(key)],
        })? {
            Response::Value {
                value,
                cas: Some(token),
                ..
            } => Ok((value, token)),
            Response::End => Err(KvError::NotFound),
            other => Err(KvError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// `set` with a relative TTL in seconds (the wire protocol's
    /// `exptime`; 0 = never expires). The server reaps the item lazily
    /// on read and in its background maintenance sweep.
    pub fn set_ttl(&self, key: &[u8], value: Bytes, ttl_secs: u32) -> KvResult<()> {
        match self.call(&Request::Set {
            key: Bytes::copy_from_slice(key),
            value,
            exptime: ttl_secs,
        })? {
            Response::Stored => Ok(()),
            other => Err(response_error(other)),
        }
    }

    /// Compare-and-swap: replace `key` only if `token` is still current.
    pub fn cas(&self, key: &[u8], value: Bytes, token: u64) -> KvResult<()> {
        match self.call(&Request::Cas {
            key: Bytes::copy_from_slice(key),
            value,
            token,
            exptime: 0,
        })? {
            Response::Stored => Ok(()),
            Response::Exists => Err(KvError::CasMismatch),
            Response::NotFound => Err(KvError::NotFound),
            other => Err(KvError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }
}

/// Outcome of one parse attempt over the accumulated response bytes.
pub(crate) enum ParseStep {
    /// A complete response was consumed from the buffer.
    Done(Response),
    /// The frame is incomplete; at least this many more bytes are needed.
    /// (A lower bound — `VALUE` framing knows the exact payload remainder,
    /// line-oriented frames just ask for "more".)
    More(usize),
}

/// Try to parse one response from the front of `buf`, consuming it.
/// Shared with the reactor ([`crate::reactor`]), which accumulates
/// inbound bytes per connection and parses them incrementally.
pub(crate) fn try_parse_response(buf: &mut Vec<u8>) -> KvResult<ParseStep> {
    let Some(line_end) = buf.windows(2).position(|w| w == b"\r\n") else {
        return Ok(ParseStep::More(2));
    };
    let line = buf[..line_end].to_vec();
    let consume_line = line_end + 2;

    let simple = |buf: &mut Vec<u8>, resp: Response| {
        buf.drain(..consume_line);
        Ok(ParseStep::Done(resp))
    };

    if line == b"STORED" {
        return simple(buf, Response::Stored);
    }
    if line == b"NOT_STORED" {
        return simple(buf, Response::NotStored);
    }
    if line == b"EXISTS" {
        return simple(buf, Response::Exists);
    }
    if line == b"NOT_FOUND" {
        return simple(buf, Response::NotFound);
    }
    if line == b"DELETED" {
        return simple(buf, Response::Deleted);
    }
    if line == b"OK" {
        return simple(buf, Response::Ok);
    }
    if line == b"END" {
        return simple(buf, Response::End);
    }
    if let Some(v) = line.strip_prefix(b"VERSION ") {
        let resp = Response::Version(String::from_utf8_lossy(v).into_owned());
        return simple(buf, resp);
    }
    if let Some(msg) = line.strip_prefix(b"SERVER_ERROR ") {
        let resp = Response::ServerError(String::from_utf8_lossy(msg).into_owned());
        return simple(buf, resp);
    }
    if let Some(msg) = line.strip_prefix(b"CLIENT_ERROR ") {
        let resp = Response::ClientError(String::from_utf8_lossy(msg).into_owned());
        return simple(buf, resp);
    }
    if line.starts_with(b"KEY ") {
        // Collect KEY lines until END.
        let mut keys = Vec::new();
        let mut pos = 0usize;
        loop {
            let rest = &buf[pos..];
            let Some(le) = rest.windows(2).position(|w| w == b"\r\n") else {
                return Ok(ParseStep::More(2));
            };
            let l = &rest[..le];
            pos += le + 2;
            if l == b"END" {
                buf.drain(..pos);
                return Ok(ParseStep::Done(Response::KeyList(keys)));
            }
            let Some(k) = l.strip_prefix(b"KEY ") else {
                return Err(KvError::Protocol("malformed key list".into()));
            };
            keys.push(k.to_vec());
        }
    }
    if line.starts_with(b"STAT ") {
        // Collect STAT lines until END.
        let mut pairs = Vec::new();
        let mut pos = 0usize;
        loop {
            let rest = &buf[pos..];
            let Some(le) = rest.windows(2).position(|w| w == b"\r\n") else {
                return Ok(ParseStep::More(2));
            };
            let l = &rest[..le];
            pos += le + 2;
            if l == b"END" {
                buf.drain(..pos);
                return Ok(ParseStep::Done(Response::Stats(pairs)));
            }
            let Some(kv) = l.strip_prefix(b"STAT ") else {
                return Err(KvError::Protocol("malformed stats block".into()));
            };
            let text = String::from_utf8_lossy(kv);
            let mut it = text.splitn(2, ' ');
            let k = it.next().unwrap_or_default().to_string();
            let v = it.next().unwrap_or_default().to_string();
            pairs.push((k, v));
        }
    }
    if line.starts_with(b"VALUE ") {
        // One or more `VALUE <key> <flags> <bytes> [cas]\r\n<data>\r\n`
        // blocks terminated by `END\r\n` — a (multi-)get reply.
        //
        // Scan in two passes: the first only records item boundaries, so
        // the retries read_response makes while a large pipelined frame
        // trickles in stay cheap (no per-attempt data copies — copying
        // each value on every attempt would make a `w`-stripe window
        // quadratic in its payload size). Values are materialized once,
        // after `END` proves the frame is complete.
        struct RawItem {
            key: (usize, usize),
            data: (usize, usize),
            cas: Option<u64>,
        }
        let mut raw: Vec<RawItem> = Vec::new();
        let mut pos = 0usize;
        let frame_end = loop {
            let rest = &buf[pos..];
            let Some(le) = rest.windows(2).position(|w| w == b"\r\n") else {
                return Ok(ParseStep::More(2));
            };
            let l = &rest[..le];
            let data_start = pos + le + 2;
            if l == b"END" {
                break data_start;
            }
            let Some(header) = l.strip_prefix(b"VALUE ") else {
                return Err(KvError::Protocol("malformed VALUE framing".into()));
            };
            let text = String::from_utf8_lossy(header).into_owned();
            let toks: Vec<&str> = text.split(' ').collect();
            if toks.len() < 3 {
                return Err(KvError::Protocol("malformed VALUE line".into()));
            }
            let key_start = pos + b"VALUE ".len();
            let nbytes: usize = toks[2]
                .parse()
                .map_err(|_| KvError::Protocol("bad VALUE byte count".into()))?;
            let cas = if toks.len() >= 4 {
                Some(
                    toks[3]
                        .parse()
                        .map_err(|_| KvError::Protocol("bad VALUE cas".into()))?,
                )
            } else {
                None
            };
            let need = data_start + nbytes + 2; // data + CRLF
            if buf.len() < need {
                return Ok(ParseStep::More(need - buf.len()));
            }
            if &buf[data_start + nbytes..need] != b"\r\n" {
                return Err(KvError::Protocol("malformed VALUE framing".into()));
            }
            raw.push(RawItem {
                key: (key_start, key_start + toks[0].len()),
                data: (data_start, data_start + nbytes),
                cas,
            });
            pos = need;
        };
        // Materialize the values. Small frames are copied out so the
        // scratch buffer keeps its capacity; big (stripe-sized) frames
        // hand the whole buffer over to a shared `Bytes` and every value
        // becomes a zero-copy slice of it — halving the memory traffic
        // that dominates multi-megabyte pipelined windows.
        const ZERO_COPY_THRESHOLD: usize = 64 * 1024;
        let payload: usize = raw.iter().map(|r| r.data.1 - r.data.0).sum();
        // Zero-copy hand-over of the receive buffer is unconditional for
        // big payloads, and *conditional* for smaller ones: a frame that
        // is the whole buffer and at least segment-sized (≥ 4 KiB) with
        // payload filling ≥ half the buffer's capacity also goes
        // zero-copy — a lone stripe-read response costs no memcpy at any
        // size. A small frame inside a large pipelined buffer still
        // copies on purpose: handing the whole allocation to one Bytes
        // would pin buffer-sized memory behind a tiny cached value
        // (memory amplification in the prefetch cache).
        let whole_frame = frame_end == buf.len();
        let zero_copy = payload >= ZERO_COPY_THRESHOLD
            || (whole_frame
                && payload >= SEGMENT_THRESHOLD
                && payload.saturating_mul(2) >= buf.capacity());
        let mut items: Vec<ValueItem> = if zero_copy {
            let mut frame_vec = std::mem::take(buf);
            // Preserve any pipelined bytes beyond this frame.
            buf.extend_from_slice(&frame_vec[frame_end..]);
            frame_vec.truncate(frame_end);
            let frame = Bytes::from(frame_vec);
            raw.into_iter()
                .map(|r| ValueItem {
                    // Keys ride the same shared frame as the values: a
                    // refcount bump each, no per-key allocation.
                    key: frame.slice(r.key.0..r.key.1),
                    value: frame.slice(r.data.0..r.data.1),
                    cas: r.cas,
                })
                .collect()
        } else {
            crate::audit::count_rx_copied(payload);
            let items = raw
                .into_iter()
                .map(|r| ValueItem {
                    key: Bytes::copy_from_slice(&buf[r.key.0..r.key.1]),
                    value: Bytes::copy_from_slice(&buf[r.data.0..r.data.1]),
                    cas: r.cas,
                })
                .collect();
            buf.drain(..frame_end);
            items
        };
        let resp = if items.len() == 1 {
            let item = items.pop().expect("one item");
            Response::Value {
                key: item.key,
                value: item.value,
                cas: item.cas,
            }
        } else {
            Response::Values(items)
        };
        return Ok(ParseStep::Done(resp));
    }
    Err(KvError::Protocol(format!(
        "unrecognized response line {:?}",
        String::from_utf8_lossy(&line)
    )))
}

impl KvClient for TcpClient {
    fn scan_keys(&self) -> KvResult<Vec<Vec<u8>>> {
        self.keys()
    }

    fn add(&self, key: &[u8], value: Bytes) -> KvResult<()> {
        match self.call(&Request::Add {
            key: Bytes::copy_from_slice(key),
            value,
            exptime: 0,
        })? {
            Response::Stored => Ok(()),
            Response::NotStored => Err(KvError::Exists),
            other => Err(response_error(other)),
        }
    }

    /// A one-key batch is one `get k` frame, which the server answers on
    /// its single-key path (no `cmd_mget`).
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
        if keys.is_empty() {
            return Deferred::Ready(Ok(Vec::new()));
        }
        let reqs = self.chunk_get_requests(keys);
        let pending = self.submit_batch(&reqs);
        let keys = keys.to_vec();
        Deferred::Polled {
            ready: pending.probe(),
            finish: Box::new(move || decode_get_responses(&keys, pending.wait()?)),
        }
    }

    fn start_set_many(&self, items: &[(Bytes, Bytes)]) -> Deferred<()> {
        if items.is_empty() {
            return Deferred::Ready(Ok(Vec::new()));
        }
        let reqs: Vec<Request> = items
            .iter()
            .map(|(key, value)| Request::Set {
                key: key.clone(),
                value: value.clone(),
                exptime: 0,
            })
            .collect();
        let pending = self.submit_batch(&reqs);
        Deferred::Polled {
            ready: pending.probe(),
            finish: Box::new(move || {
                Ok(pending
                    .wait()?
                    .into_iter()
                    .map(|resp| match resp {
                        Response::Stored => Ok(()),
                        other => Err(response_error(other)),
                    })
                    .collect())
            }),
        }
    }

    fn append(&self, key: &[u8], suffix: &[u8]) -> KvResult<()> {
        match self.call(&Request::Append {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(suffix),
        })? {
            Response::Stored => Ok(()),
            Response::NotStored => Err(KvError::NotFound),
            other => Err(response_error(other)),
        }
    }

    fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
        if keys.is_empty() {
            return Deferred::Ready(Ok(Vec::new()));
        }
        // One pipelined frame per key on one connection — delete is
        // idempotent, so a dropped connection replays safely.
        let reqs: Vec<Request> = keys
            .iter()
            .map(|key| Request::Delete { key: key.clone() })
            .collect();
        let pending = self.submit_batch(&reqs);
        Deferred::Polled {
            ready: pending.probe(),
            finish: Box::new(move || {
                Ok(pending
                    .wait()?
                    .into_iter()
                    .map(|resp| match resp {
                        Response::Deleted => Ok(()),
                        Response::NotFound => Err(KvError::NotFound),
                        other => Err(response_error(other)),
                    })
                    .collect())
            }),
        }
    }

    fn supports_submit(&self) -> bool {
        true
    }

    fn reactor_stats(&self) -> Option<ReactorStatsSnapshot> {
        Some(TcpClient::reactor_stats(self))
    }

    /// The reactor's link census for this client's registration: all
    /// connections established → `Up`, none → `Down`, some → `Degraded`.
    fn health(&self) -> crate::client::ServerHealth {
        let (up, total) = self.registration.health_census();
        if up == 0 {
            crate::client::ServerHealth::Down
        } else if up < total {
            crate::client::ServerHealth::Degraded
        } else {
            crate::client::ServerHealth::Up
        }
    }
}

/// Align multi-get replies back onto the requested keys, in order.
fn decode_get_responses(keys: &[Bytes], resps: Vec<Response>) -> KvResult<Vec<KvResult<Bytes>>> {
    let mut hits: HashMap<Bytes, Bytes> = HashMap::with_capacity(keys.len());
    for resp in resps {
        match resp {
            Response::End => {}
            Response::Value { key, value, .. } => {
                hits.insert(key, value);
            }
            Response::Values(items) => {
                for item in items {
                    hits.insert(item.key, item.value);
                }
            }
            other => return Err(response_error(other)),
        }
    }
    Ok(keys
        .iter()
        .map(|k| hits.get(k).cloned().ok_or(KvError::NotFound))
        .collect())
}

fn response_error(resp: Response) -> KvError {
    match resp {
        Response::ServerError(msg) | Response::ClientError(msg) => KvError::Protocol(msg),
        other => KvError::Protocol(format!("unexpected reply {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::store::{Store, StoreConfig};

    fn spawn_server() -> KvServer {
        KvServer::spawn(Arc::new(Store::new(StoreConfig::default())), "127.0.0.1:0").unwrap()
    }

    #[test]
    fn tcp_round_trip() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        client.set(b"k", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(client.get(b"k").unwrap().as_ref(), b"hello");
        client.append(b"k", b" world").unwrap();
        assert_eq!(client.get(b"k").unwrap().as_ref(), b"hello world");
        client.delete(b"k").unwrap();
        assert!(matches!(client.get(b"k"), Err(KvError::NotFound)));
    }

    #[test]
    fn tcp_add_semantics() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        client.add(b"k", Bytes::from_static(b"1")).unwrap();
        assert!(matches!(
            client.add(b"k", Bytes::from_static(b"2")),
            Err(KvError::Exists)
        ));
    }

    #[test]
    fn tcp_binary_values_with_crlf() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        let payload = Bytes::from_static(b"line1\r\nline2\0bin");
        client.set(b"bin", payload.clone()).unwrap();
        assert_eq!(client.get(b"bin").unwrap(), payload);
    }

    #[test]
    fn tcp_large_value() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        let payload = Bytes::from(vec![0xAB; 2 << 20]); // 2 MiB stripe-ish
        client.set(b"stripe", payload.clone()).unwrap();
        assert_eq!(client.get(b"stripe").unwrap(), payload);
    }

    #[test]
    fn tcp_stats_reflect_traffic() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        client.set(b"k", Bytes::from_static(b"v")).unwrap();
        client.get(b"k").unwrap();
        let stats = client.stats().unwrap();
        let get = |name: &str| {
            stats
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        assert_eq!(get("cmd_set"), "1");
        assert_eq!(get("cmd_get"), "1");
        assert_eq!(get("curr_items"), "1");
    }

    #[test]
    fn multiple_clients_share_server() {
        let server = spawn_server();
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let client = TcpClient::connect(addr).unwrap();
                    for i in 0..50 {
                        let key = format!("t{t}k{i}");
                        client
                            .set(key.as_bytes(), Bytes::from(format!("v{i}")))
                            .unwrap();
                        assert_eq!(
                            client.get(key.as_bytes()).unwrap(),
                            Bytes::from(format!("v{i}"))
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.store().item_count(), 200);
    }

    #[test]
    fn tcp_gets_and_cas() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        client.set(b"k", Bytes::from_static(b"v1")).unwrap();
        let (value, token) = client.gets(b"k").unwrap();
        assert_eq!(value.as_ref(), b"v1");
        client.cas(b"k", Bytes::from_static(b"v2"), token).unwrap();
        assert!(matches!(
            client.cas(b"k", Bytes::from_static(b"v3"), token),
            Err(KvError::CasMismatch)
        ));
        assert_eq!(client.get(b"k").unwrap().as_ref(), b"v2");
        assert!(matches!(client.gets(b"missing"), Err(KvError::NotFound)));
    }

    #[test]
    fn tcp_keys_extension_lists_everything() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        for i in 0..10 {
            client
                .set(format!("key{i}").as_bytes(), Bytes::from_static(b"x"))
                .unwrap();
        }
        let mut keys = client.keys().unwrap();
        keys.sort();
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[0], b"key0".to_vec());
        // Empty server lists nothing.
        client.call(&Request::FlushAll).unwrap();
        assert!(client.keys().unwrap().is_empty());
    }

    #[test]
    fn server_shutdown_is_idempotent() {
        let mut server = spawn_server();
        server.shutdown();
        server.shutdown();
    }

    #[test]
    fn tcp_multi_get_mixes_hits_and_misses() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        client.set(b"a", Bytes::from_static(b"1")).unwrap();
        client.set(b"c", Bytes::from_static(b"3")).unwrap();
        let out = client
            .get_many(&[
                Bytes::from_static(b"a"),
                Bytes::from_static(b"b"),
                Bytes::from_static(b"c"),
            ])
            .unwrap();
        assert_eq!(out[0].as_ref().unwrap().as_ref(), b"1");
        assert!(matches!(out[1], Err(KvError::NotFound)));
        assert_eq!(out[2].as_ref().unwrap().as_ref(), b"3");
        // The whole batch travelled as ONE multi-key get frame.
        assert_eq!(server.store().stats().snapshot().mget_ops, 1);
    }

    #[test]
    fn tcp_multi_get_all_misses_and_empty() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        assert!(client.get_many(&[]).unwrap().is_empty());
        let out = client
            .get_many(&[Bytes::from_static(b"x"), Bytes::from_static(b"y")])
            .unwrap();
        assert!(out.iter().all(|r| matches!(r, Err(KvError::NotFound))));
    }

    #[test]
    fn tcp_multi_get_large_batch_chunks_frames() {
        let server = spawn_server();
        let client = TcpClient::connect_with(
            server.addr(),
            PoolConfig {
                connections: 1,
                max_batch_keys: 16,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let keys: Vec<Bytes> = (0..100).map(|i| Bytes::from(format!("k{i}"))).collect();
        let items: Vec<(Bytes, Bytes)> = keys
            .iter()
            .map(|k| {
                (
                    k.clone(),
                    Bytes::from(format!("v-{}", String::from_utf8_lossy(k))),
                )
            })
            .collect();
        for r in client.set_many(&items).unwrap() {
            r.unwrap();
        }
        let out = client.get_many(&keys).unwrap();
        for (k, r) in keys.iter().zip(out) {
            assert_eq!(
                r.unwrap(),
                Bytes::from(format!("v-{}", String::from_utf8_lossy(k)))
            );
        }
        // 100 keys at 16 per frame = 7 pipelined multi-get batches.
        assert_eq!(server.store().stats().snapshot().mget_ops, 7);
    }

    #[test]
    fn tcp_delete_many_pipelines_and_reports_misses() {
        let server = spawn_server();
        let client = TcpClient::connect_with(
            server.addr(),
            PoolConfig {
                connections: 1,
                max_batch_keys: 64,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        client.set(b"a", Bytes::from_static(b"1")).unwrap();
        client.set(b"b", Bytes::from_static(b"2")).unwrap();
        let out = client
            .delete_many(&[
                Bytes::from_static(b"a"),
                Bytes::from_static(b"missing"),
                Bytes::from_static(b"b"),
            ])
            .unwrap();
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(KvError::NotFound)));
        assert!(out[2].is_ok());
        assert_eq!(server.store().item_count(), 0);
        // All three deletes travelled as pipelined frames on one socket.
        assert_eq!(server.store().stats().snapshot().delete_ops, 3);
    }

    #[test]
    fn tcp_set_many_pipelines_on_one_connection() {
        let server = spawn_server();
        let client = TcpClient::connect_with(
            server.addr(),
            PoolConfig {
                connections: 1,
                max_batch_keys: 64,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let items: Vec<(Bytes, Bytes)> = (0..50)
            .map(|i| {
                (
                    Bytes::from(format!("s{i}")),
                    Bytes::from(vec![i as u8; 100]),
                )
            })
            .collect();
        let results = client.set_many(&items).unwrap();
        assert_eq!(results.len(), 50);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(server.store().item_count(), 50);
    }

    #[test]
    fn tcp_pool_shares_one_client_across_threads() {
        let server = spawn_server();
        let client = Arc::new(
            TcpClient::connect_with(
                server.addr(),
                PoolConfig {
                    connections: 4,
                    max_batch_keys: 64,
                    ..PoolConfig::default()
                },
            )
            .unwrap(),
        );
        assert_eq!(client.pool_size(), 4);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let key = format!("t{t}k{i}");
                        client
                            .set(key.as_bytes(), Bytes::from(format!("v{i}")))
                            .unwrap();
                        assert_eq!(
                            client.get(key.as_bytes()).unwrap(),
                            Bytes::from(format!("v{i}"))
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.store().item_count(), 400);
    }

    #[test]
    fn two_clients_share_one_reactor_and_deregister_independently() {
        let server_a = spawn_server();
        let server_b = spawn_server();
        let reactor = crate::reactor::ReactorHandle::new().unwrap();
        let a =
            TcpClient::connect_shared(server_a.addr(), PoolConfig::default(), &reactor).unwrap();
        let b =
            TcpClient::connect_shared(server_b.addr(), PoolConfig::default(), &reactor).unwrap();
        // Same loop: both clients' snapshots carry the same reactor id,
        // and the census covers both registrations.
        assert_eq!(a.reactor_stats().reactor_id, b.reactor_stats().reactor_id);
        let per_client = PoolConfig::default().connections;
        assert_eq!(a.reactor_stats().registered_connections, 2 * per_client);

        a.set(b"ka", Bytes::from_static(b"va")).unwrap();
        b.set(b"kb", Bytes::from_static(b"vb")).unwrap();
        assert_eq!(a.get(b"ka").unwrap(), Bytes::from_static(b"va"));
        assert_eq!(b.get(b"kb").unwrap(), Bytes::from_static(b"vb"));

        // Dropping one client releases only its own slots; the survivor
        // keeps working on the still-running shared loop.
        drop(a);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while b.reactor_stats().registered_connections != per_client {
            assert!(
                std::time::Instant::now() < deadline,
                "deregistration never drained: {:?}",
                b.reactor_stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(b.get(b"kb").unwrap(), Bytes::from_static(b"vb"));
    }

    #[test]
    fn tcp_gets_multi_returns_cas_per_value() {
        let server = spawn_server();
        let client = TcpClient::connect(server.addr()).unwrap();
        client.set(b"a", Bytes::from_static(b"1")).unwrap();
        client.set(b"b", Bytes::from_static(b"2")).unwrap();
        let resp = client
            .call(&Request::Gets {
                keys: vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")],
            })
            .unwrap();
        let Response::Values(items) = resp else {
            panic!("expected Values, got {resp:?}");
        };
        assert_eq!(items.len(), 2);
        assert!(items.iter().all(|i| i.cas.is_some()));
    }
}
