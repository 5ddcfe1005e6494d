//! One client contract: every [`KvClient`] implementation answers the same
//! script of single-key, batch and non-idempotent operations with the same
//! per-key results and error kinds — the in-process [`LocalClient`], a real
//! [`TcpClient`] against a [`KvServer`], a zero-cost [`ThrottledClient`],
//! and a [`FailableClient`] while up. A [`FailableClient`] marked down
//! fails every operation with a transport error.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use memfs_memkv::client::Shaping;
use memfs_memkv::{
    Deferred, FailableClient, KvClient, KvError, KvServer, LocalClient, Store, StoreConfig,
    TcpClient, ThrottledClient,
};

/// One step of the script.
enum Op {
    Get(&'static str),
    Set(&'static str, &'static str),
    Delete(&'static str),
    GetMany(&'static [&'static str]),
    SetMany(&'static [(&'static str, &'static str)]),
    DeleteMany(&'static [&'static str]),
    Add(&'static str, &'static str),
    Append(&'static str, &'static str),
    Contains(&'static str),
}

/// The script and the answer a healthy client must give to each step.
/// Each answer lists one entry per key; `Ok` values are shown as
/// `=value`, errors by kind.
const SCRIPT: &[(Op, &[&str])] = &[
    (Op::Set("a", "1"), &["ok"]),
    (Op::Get("a"), &["=1"]),
    (Op::Get("missing"), &["NotFound"]),
    (Op::SetMany(&[("b", "2"), ("c", "3")]), &["ok", "ok"]),
    (
        Op::GetMany(&["a", "missing", "c"]),
        &["=1", "NotFound", "=3"],
    ),
    (Op::GetMany(&["b"]), &["=2"]),
    (Op::GetMany(&[]), &[]),
    (Op::Add("a", "9"), &["Exists"]),
    (Op::Add("d", "4"), &["ok"]),
    (Op::Append("missing", "x"), &["NotFound"]),
    (Op::Append("a", "x"), &["ok"]),
    (Op::Get("a"), &["=1x"]),
    (Op::Contains("a"), &["true"]),
    (Op::Contains("missing"), &["false"]),
    (Op::Delete("b"), &["ok"]),
    (Op::Delete("b"), &["NotFound"]),
    (
        Op::DeleteMany(&["c", "missing", "d"]),
        &["ok", "NotFound", "ok"],
    ),
    (Op::Contains("c"), &["false"]),
    (Op::Set("a", "2"), &["ok"]),
    (Op::Get("a"), &["=2"]),
];

fn kind(e: &KvError) -> String {
    match e {
        KvError::NotFound => "NotFound".into(),
        KvError::Exists => "Exists".into(),
        KvError::Io(_) => "Io".into(),
        other => format!("{other:?}"),
    }
}

fn one<T>(r: Result<T, KvError>, show: impl Fn(T) -> String) -> Vec<String> {
    vec![r.map_or_else(|e| kind(&e), show)]
}

/// A batch answer: one entry per key, or the batch-level error alone.
fn many<T>(r: Result<Vec<Result<T, KvError>>, KvError>, show: impl Fn(T) -> String) -> Vec<String> {
    match r {
        Ok(results) => results.into_iter().flat_map(|r| one(r, &show)).collect(),
        Err(e) => vec![kind(&e)],
    }
}

fn bytes(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn keys(ks: &[&str]) -> Vec<Bytes> {
    ks.iter().map(|k| bytes(k)).collect()
}

fn run(client: &dyn KvClient, op: &Op) -> Vec<String> {
    let value = |v: Bytes| format!("={}", String::from_utf8_lossy(&v));
    let unit = |()| "ok".to_string();
    match op {
        Op::Get(k) => one(client.get(k.as_bytes()), value),
        Op::Set(k, v) => one(client.set(k.as_bytes(), bytes(v)), unit),
        Op::Delete(k) => one(client.delete(k.as_bytes()), unit),
        Op::GetMany(ks) => many(client.get_many(&keys(ks)), value),
        Op::SetMany(items) => {
            let items: Vec<(Bytes, Bytes)> =
                items.iter().map(|(k, v)| (bytes(k), bytes(v))).collect();
            many(client.set_many(&items), unit)
        }
        Op::DeleteMany(ks) => many(client.delete_many(&keys(ks)), unit),
        Op::Add(k, v) => one(client.add(k.as_bytes(), bytes(v)), unit),
        Op::Append(k, s) => one(client.append(k.as_bytes(), s.as_bytes()), unit),
        Op::Contains(k) => vec![client.contains(k.as_bytes()).to_string()],
    }
}

fn store() -> Arc<Store> {
    Arc::new(Store::new(StoreConfig::default()))
}

fn local() -> LocalClient {
    LocalClient::new(store())
}

#[test]
fn every_client_gives_the_same_answers() {
    let server = KvServer::spawn(store(), "127.0.0.1:0").unwrap();
    let free = Shaping {
        latency: Duration::ZERO,
        bandwidth: f64::INFINITY,
    };
    let clients: Vec<(&str, Box<dyn KvClient>)> = vec![
        ("local", Box::new(local())),
        ("tcp", Box::new(TcpClient::connect(server.addr()).unwrap())),
        ("throttled", Box::new(ThrottledClient::new(local(), free))),
        ("failable-up", Box::new(FailableClient::new(local()))),
    ];
    for (name, client) in &clients {
        for (step, (op, want)) in SCRIPT.iter().enumerate() {
            assert_eq!(run(client.as_ref(), op), *want, "{name}: step {step}");
        }
    }

    let down = FailableClient::new(local());
    down.set_down(true);
    for (step, (op, _)) in SCRIPT.iter().enumerate() {
        let want = if matches!(op, Op::Contains(_)) {
            "false"
        } else {
            "Io"
        };
        assert_eq!(run(&down, op), [want], "failable-down: step {step}");
    }
}

#[test]
fn a_single_key_get_is_not_a_multi_get_in_process_or_over_tcp() {
    let server = KvServer::spawn(store(), "127.0.0.1:0").unwrap();
    let tcp = TcpClient::connect(server.addr()).unwrap();
    let local = local();
    for (client, store) in [
        (&tcp as &dyn KvClient, server.store()),
        (&local as &dyn KvClient, local.store()),
    ] {
        client.set(b"k", bytes("v")).unwrap();
        let mgets = || store.stats().snapshot().mget_ops;
        let before = mgets();
        assert_eq!(client.get(b"k").unwrap(), bytes("v"));
        assert_eq!(client.get_many(&keys(&["k"])).unwrap().len(), 1);
        assert_eq!(mgets(), before, "one-key gets take the single-key path");
        client.get_many(&keys(&["k", "missing"])).unwrap();
        assert_eq!(mgets(), before + 1, "a two-key batch is one multi-get");
    }
}

/// A client whose batches answer with one result too many.
struct Misaligned(LocalClient);

impl KvClient for Misaligned {
    fn start_get_many(&self, keys: &[Bytes]) -> Deferred<Bytes> {
        let mut out = self.0.get_many(keys);
        if let Ok(results) = &mut out {
            results.push(Err(KvError::NotFound));
        }
        Deferred::Ready(out)
    }
    fn start_set_many(&self, _items: &[(Bytes, Bytes)]) -> Deferred<()> {
        Deferred::Ready(Ok(Vec::new()))
    }
    fn start_delete_many(&self, keys: &[Bytes]) -> Deferred<()> {
        self.0.start_delete_many(keys)
    }
    fn add(&self, key: &[u8], value: Bytes) -> Result<(), KvError> {
        self.0.add(key, value)
    }
    fn append(&self, key: &[u8], suffix: &[u8]) -> Result<(), KvError> {
        self.0.append(key, suffix)
    }
}

#[test]
fn a_wrong_result_count_is_a_protocol_error_not_a_panic() {
    let c = Misaligned(local());
    c.add(b"k", bytes("v")).unwrap();
    assert!(matches!(c.get(b"k"), Err(KvError::Protocol(_))));
    assert!(matches!(
        c.get_many(&keys(&["k", "x"])),
        Err(KvError::Protocol(_))
    ));
    assert!(matches!(c.set(b"k", bytes("w")), Err(KvError::Protocol(_))));
    assert!(matches!(c.set_many(&[]), Ok(v) if v.is_empty()));
    // A correct count passes through untouched.
    assert!(c.delete(b"k").is_ok());
}
