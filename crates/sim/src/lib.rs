//! The Internet/scan simulator.
//!
//! This crate is the dataset substitution documented in `DESIGN.md`: it
//! stands in for the University of Michigan and Rapid7 full-IPv4 port-443
//! scan corpora the paper analyzes, which cannot be acquired here at their
//! original scale. Instead of replaying those scans, the simulator models
//! the *mechanisms* the paper identifies as generating them:
//!
//! * an AS topology with CAIDA-style types, countries, BGP prefixes, and
//!   per-AS IP-churn policies (static / leased / per-scan);
//! * a population of end-user devices drawn from vendor profiles (Lancom,
//!   FRITZ!Box, WD My Cloud, VMware, PlayBook, generic `192.168.1.1`
//!   routers, …), each with its own certificate (re)issue behaviour —
//!   Common Name policy, key reuse policy, validity-period quirks
//!   (negative periods, year-3000 `Not After`, epoch-clock `Not Before`);
//! * a CA ecosystem issuing valid certificates to hosted websites;
//! * ISP address-transfer events and user moves (including cross-country);
//! * two ZMap-style scan operators with distinct prefix blacklists,
//!   paper-like schedules, and mid-scan IP-change duplicates.
//!
//! Everything is deterministic from the [`config::ScaleConfig`] seed.

pub mod certgen;
pub mod config;
pub mod export;
pub mod faults;
pub mod population;
pub mod scanner;
pub mod schedule;
pub mod topology;
pub mod truth;
pub mod vendors;
pub mod world;

pub use config::{ConfigError, ScaleConfig};
pub use export::{export_corpus, export_corpus_faulted, export_tables};
pub use faults::{FaultLedger, FaultPlan, NetFaultPlan};
pub use scanner::{run_scan, RetryPolicy, ScanError, ScanOptions, ScanOutcome, ScanRunReport};
pub use truth::GroundTruth;
pub use world::{simulate, simulate_streaming, SimOutput};
