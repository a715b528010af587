//! Multi-process run configuration and the rendezvous manifest.
//!
//! A node process learns who it is and where everyone listens from two
//! environment variables set by the launcher (or passed explicitly):
//!
//! * `MDO_NET_NODE` — this process's node id (0-based; node 0 hosts PE 0
//!   and merges the final report),
//! * `MDO_NET_MANIFEST` — comma-separated `host:port` listen addresses,
//!   indexed by node id.
//!
//! One node hosts the PEs of one [`Topology`](mdo_netsim::Topology)
//! cluster, so `manifest.len() == topo.num_clusters()` and the process
//! boundary coincides with the WAN boundary — exactly the explicit
//! cluster boundary MPICH-G2 argues for.

use std::net::SocketAddr;
use std::time::Duration;

use crate::error::TransportError;

/// Environment variable carrying the node id.
pub const ENV_NODE: &str = "MDO_NET_NODE";
/// Environment variable carrying the rendezvous manifest.
pub const ENV_MANIFEST: &str = "MDO_NET_MANIFEST";

/// Configuration of one node process in a multi-process run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetConfig {
    /// This process's node id (== the topology cluster index it hosts).
    pub node: u32,
    /// Listen address of every node, indexed by node id.
    pub manifest: Vec<SocketAddr>,
    /// Total budget for the connect + handshake rendezvous.
    pub connect_timeout: Duration,
}

impl NetConfig {
    /// Config for `node` with the given manifest and the default 10 s
    /// rendezvous budget.
    pub fn new(node: u32, manifest: Vec<SocketAddr>) -> Self {
        NetConfig { node, manifest, connect_timeout: Duration::from_secs(10) }
    }

    /// Number of nodes in the manifest.
    pub fn num_nodes(&self) -> usize {
        self.manifest.len()
    }

    /// Encode the manifest as the `MDO_NET_MANIFEST` string.
    pub fn manifest_string(manifest: &[SocketAddr]) -> String {
        manifest.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",")
    }

    /// Parse an `MDO_NET_MANIFEST` string.
    pub fn parse_manifest(s: &str) -> Result<Vec<SocketAddr>, TransportError> {
        s.split(',')
            .map(|part| {
                part.trim()
                    .parse::<SocketAddr>()
                    .map_err(|_| TransportError::Malformed { what: format!("manifest entry {part:?}") })
            })
            .collect()
    }

    /// The `(key, value)` environment a launcher sets for node `node`.
    pub fn env_for(node: u32, manifest: &[SocketAddr]) -> Vec<(String, String)> {
        vec![(ENV_NODE.into(), node.to_string()), (ENV_MANIFEST.into(), Self::manifest_string(manifest))]
    }

    /// Read the launcher-provided configuration from the environment.
    /// `Ok(None)` when `MDO_NET_NODE` is unset (a plain single-process
    /// run); a set-but-garbled environment is a structured error.
    pub fn from_env() -> Result<Option<NetConfig>, TransportError> {
        let Ok(node_s) = std::env::var(ENV_NODE) else {
            return Ok(None);
        };
        let node: u32 =
            node_s.parse().map_err(|_| TransportError::Malformed { what: format!("{ENV_NODE}={node_s:?}") })?;
        let manifest_s = std::env::var(ENV_MANIFEST)
            .map_err(|_| TransportError::Malformed { what: format!("{ENV_MANIFEST} unset") })?;
        let manifest = Self::parse_manifest(&manifest_s)?;
        if node as usize >= manifest.len() {
            return Err(TransportError::Malformed {
                what: format!("{ENV_NODE}={node} out of range for a {}-node manifest", manifest.len()),
            });
        }
        Ok(Some(NetConfig::new(node, manifest)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrips() {
        let manifest: Vec<SocketAddr> = vec!["127.0.0.1:4000".parse().unwrap(), "127.0.0.1:4001".parse().unwrap()];
        let s = NetConfig::manifest_string(&manifest);
        assert_eq!(NetConfig::parse_manifest(&s).unwrap(), manifest);
        assert!(NetConfig::parse_manifest("127.0.0.1:x,nope").is_err());
    }

    #[test]
    fn env_for_names_every_variable() {
        let manifest: Vec<SocketAddr> = vec!["127.0.0.1:4000".parse().unwrap()];
        let env = NetConfig::env_for(0, &manifest);
        assert!(env.iter().any(|(k, v)| k == ENV_NODE && v == "0"));
        assert!(env.iter().any(|(k, v)| k == ENV_MANIFEST && v == "127.0.0.1:4000"));
    }
}
