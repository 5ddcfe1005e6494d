//! The system under test: four `KvServer`s on unshaped loopback TCP in
//! this process, mounted with `pool_connections: 1` and otherwise
//! default `MemFsConfig` / `ServerConfig`.

use std::net::SocketAddr;
use std::sync::Arc;

use memfs_core::{MemFs, MemFsConfig};
use memfs_memkv::{KvClient, KvServer, PoolConfig, ReactorSet, Store, StoreConfig, TcpClient};

use crate::trace::{TimingClient, Tracer};

/// Storage servers per cluster.
pub const SERVERS: usize = 4;

/// The mount configuration every run uses.
pub fn config() -> MemFsConfig {
    MemFsConfig {
        pool_connections: 1,
        ..MemFsConfig::default()
    }
}

/// Running servers; dropping the cluster shuts them down and joins
/// their threads.
pub struct Cluster {
    /// The servers, in mount order.
    pub servers: Vec<KvServer>,
}

impl Cluster {
    /// Spawn [`SERVERS`] servers on ephemeral loopback ports.
    pub fn start() -> std::io::Result<Cluster> {
        let servers = (0..SERVERS)
            .map(|_| {
                KvServer::spawn(Arc::new(Store::new(StoreConfig::default())), "127.0.0.1:0")
                    .map_err(std::io::Error::other)
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Cluster { servers })
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(KvServer::addr).collect()
    }

    /// The untraced mount, exactly as an application would make it.
    pub fn mount(&self) -> std::io::Result<MemFs> {
        MemFs::connect(&self.addrs(), config()).map_err(std::io::Error::other)
    }

    /// The traced mount: the same wiring [`MemFs::connect`] does (one
    /// `TcpClient::connect_shared` per server on one shared
    /// [`ReactorSet`]), with every client wrapped in a
    /// [`TimingClient`]. The reactor set must outlive the mount.
    pub fn mount_traced(&self, tracer: &Arc<Tracer>) -> std::io::Result<(MemFs, ReactorSet)> {
        let cfg = config();
        let reactors =
            ReactorSet::new(cfg.reactor_threads.min(SERVERS)).map_err(std::io::Error::other)?;
        let pool = PoolConfig {
            connections: cfg.pool_connections,
            ..PoolConfig::default()
        };
        let mut clients: Vec<Arc<dyn KvClient>> = Vec::with_capacity(SERVERS);
        for (i, addr) in self.addrs().into_iter().enumerate() {
            let tcp = TcpClient::connect_shared(addr, pool.clone(), reactors.handle_for(i))
                .map_err(std::io::Error::other)?;
            clients.push(Arc::new(TimingClient::new(
                Arc::new(tcp),
                i as u32,
                Arc::clone(tracer),
            )));
        }
        let fs = MemFs::new(clients, cfg).map_err(std::io::Error::other)?;
        Ok((fs, reactors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_mount_takes_the_same_dispatch_path() {
        let cluster = Cluster::start().expect("start servers");
        let plain = cluster.mount().expect("mount");
        let tracer = Tracer::new();
        let (traced, _reactors) = cluster.mount_traced(&tracer).expect("traced mount");
        // The wrapper forwards the split-submit capability...
        let tcp = TcpClient::connect(cluster.servers[0].addr()).expect("connect");
        let wrapped = TimingClient::new(Arc::new(tcp), 0, Arc::clone(&tracer));
        assert!(wrapped.supports_submit());
        // ...so both mounts take the evented submit window (no engine
        // fan-out in the pool) and size the memfs-io engine alike.
        assert!(plain.pool().engine().is_none());
        assert!(traced.pool().engine().is_none());
        assert_eq!(plain.engine().size(), traced.engine().size());
        // And the wrapper really sees the traffic.
        traced.write_file("/t", b"traced").expect("write");
        assert_eq!(plain.read_to_vec("/t").expect("read"), b"traced");
        assert!(tracer.take().iter().any(|s| s.name == "add"));
    }
}
