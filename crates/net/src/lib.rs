//! Network substrate: IPv4 addresses, CIDR prefixes, longest-prefix-match
//! routing tables, and AS metadata.
//!
//! This crate stands in for the external datasets the paper consumes:
//! CAIDA's RouteViews prefix-to-AS mapping (a [`PrefixTable`] /
//! [`RoutingHistory`]), the AS classification dataset ([`AsType`]), and the
//! AS-to-organization dataset (country codes on [`AsInfo`]). It also
//! hosts the consistent-hash [`Ring`] the cluster router uses to place
//! request fingerprints onto daemon shards, and the workspace's one
//! line-protocol client ([`client`], with [`scatter`] on top).

pub mod asdb;
pub mod client;
#[cfg(target_os = "linux")]
pub mod epoll;
pub mod ip;
pub mod prefix;
pub mod ring;
pub mod scatter;
pub mod table;

pub use asdb::{AsDatabase, AsInfo, AsNumber, AsType};
pub use ip::Ipv4;
pub use prefix::Prefix;
pub use ring::{EpochRing, Ring};
pub use scatter::{scatter_lines, ScatterTarget};
pub use table::{PrefixTable, RoutingHistory};
