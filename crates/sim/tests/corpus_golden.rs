//! Golden digests of the corpus `run_scan` writes.
//!
//! `determinism.rs` and `byte_stability.rs` compare two runs of one
//! build; this file pins the bytes across versions. The digests below
//! were taken from the exporter before it became table-driven, so any
//! change to the `certs.pem`, `scans.csv` or `completeness.csv` format
//! (or to which certificates and rows survive a lossy scan) fails here.
//! A deliberate format change updates the digests in the same commit.

use silentcert_sim::{run_scan, NetFaultPlan, ScaleConfig, ScanOptions, ScanOutcome};
use std::fs;
use std::path::{Path, PathBuf};

fn config(net_faults: NetFaultPlan) -> ScaleConfig {
    let mut config = ScaleConfig::tiny();
    config.n_devices = 120;
    config.n_websites = 60;
    config.umich_scans = 4;
    config.rapid7_scans = 2;
    config.overlap_days = 1;
    config.net_faults = net_faults;
    config
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("silentcert-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sha256_hex(dir: &Path, file: &str) -> String {
    let bytes = fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    silentcert_crypto::hex(&silentcert_crypto::sha256(&bytes))
}

/// Run the scan into a fresh directory and check the digests of its
/// three scan-dependent files, plus that every corpus file is in place
/// and no atomic-write temp file is left behind.
fn check(
    tag: &str,
    net_faults: NetFaultPlan,
    want: [(&str, &str); 3],
) -> Box<silentcert_sim::ScanRunReport> {
    let dir = tempdir(tag);
    let ScanOutcome::Complete(report) =
        run_scan(&config(net_faults), &dir, &ScanOptions::default()).unwrap()
    else {
        panic!("{tag}: scan did not complete")
    };
    for (file, digest) in want {
        assert_eq!(
            sha256_hex(&dir, file),
            digest,
            "{tag}: {file} bytes changed"
        );
    }
    let mut names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "asdb.csv",
            "certs.pem",
            "completeness.csv",
            "roots.pem",
            "routing.csv",
            "scans.csv"
        ],
        "{tag}: corpus files (a leftover *.tmp or checkpoint shows here)"
    );
    let _ = fs::remove_dir_all(&dir);
    report
}

#[test]
fn lossless_scan_corpus_matches_golden_digests() {
    let report = check(
        "lossless",
        NetFaultPlan::default(),
        [
            (
                "certs.pem",
                "1d8e66681263edcc1e9350d563cbbab9be714dc3587ba1f0c3fdc98503311af6",
            ),
            (
                "scans.csv",
                "1d4752caf3f9b7ab2dc49a439aaeeff1b2bc8245cbcc84611cd5cbd6b0df1e43",
            ),
            (
                "completeness.csv",
                "d1e1393cec164d97339024ff9fbb8b1f1e0b255f3d14743388654441a6192c53",
            ),
        ],
    );
    assert_eq!(report.dropped_hosts, 0);
    assert_eq!(report.certs_written, 227);
    assert_eq!(report.observations_written, 1417);
}

#[test]
fn chaos_scan_corpus_matches_golden_digests() {
    // Chaos drops hosts, and with them every certificate seen only on
    // those hosts: this pins the certs.pem filter as well as the rows.
    let report = check(
        "chaos",
        NetFaultPlan::chaos(),
        [
            (
                "certs.pem",
                "92865279a06785615b7a4abdba5c97f8fc1dc54435def5eef3af7be2e62131e3",
            ),
            (
                "scans.csv",
                "6534f6eb878e9b59618cc61b2c8fc857423eecf3affceae52c2ac7994b73a2e8",
            ),
            (
                "completeness.csv",
                "658b46fe8b9cf60af3054c3a69827ecd3aa81d7c911eaaa3af726d4e1e48308c",
            ),
        ],
    );
    // 34 hosts lost take 2 of the lossless run's 227 certificates with
    // them, so the digest above covers a filtered bundle.
    assert_eq!(report.dropped_hosts, 34);
    assert_eq!(report.certs_written, 225);
    assert_eq!(report.observations_written, 1365);
}
