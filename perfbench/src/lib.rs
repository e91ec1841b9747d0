//! The NETMARK repository benchmark: named workloads driven over the real
//! HTTP surface (`netmark_webdav::serve` over a `NetMark` or a
//! `ShardedStore`), with every answer checked against a reference
//! computed apart from the store. See `README.md` in this directory.

mod client;
pub mod compare;
mod layers;
mod measure;
pub mod probe;
pub mod reference;
mod rng;
pub mod run;
mod trace;
pub mod workload;
