//! The crash-safe request journal.
//!
//! Every classification the daemon completes is appended here; worker
//! panics are journaled too, so every 500 the daemon returns maps to a
//! durable panic record. The v2 format protects each record with its own
//! checksum so flushes can *append* instead of rewriting the whole file:
//!
//! ```text
//! silentcert-serve-journal v2
//! <sha256[..16] of rest>\t<seq>\t<op>\t<leaf der hex>\t<chain hex,...>\t<result>
//! ...
//! ```
//!
//! The first flush writes header + backlog via atomic temp-file + rename
//! (a crash mid-flush leaves the previous journal intact); later flushes
//! append only new records. A crash mid-append therefore leaves at most
//! one torn record *at the tail*, which [`read_journal`] tolerates and
//! reports — while a checksum failure anywhere **before** the tail is
//! real corruption and stays a hard error.
//!
//! The journal records the request *input* (leaf + presented chain DER)
//! alongside the result string, which makes it replayable: feed every
//! entry back through a validator built from the same corpus and the
//! results must match byte-for-byte ([`replay`]). That is the server's
//! end-to-end correctness check — a drain under chaos proves nothing was
//! half-classified.

use silentcert_crypto::hex;
use silentcert_obs::atomic_write;
use silentcert_validate::Validator;
use silentcert_x509::Certificate;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const HEADER: &str = "silentcert-serve-journal v2";

/// Hex digits of the per-line checksum (64-bit prefix of SHA-256).
const CHECK_LEN: usize = 16;

/// Result string journaled when a worker panics mid-classification.
/// Replay counts these instead of re-classifying them: the journaled
/// "result" is the panic itself, not a classification.
pub const PANIC_RESULT: &str = "panic: worker panicked";

/// One journaled classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    pub seq: u64,
    /// `"validate"`, `"classify"`, or `"chaos_panic"`.
    pub op: String,
    pub der: Vec<u8>,
    pub chain: Vec<Vec<u8>>,
    /// The canonical `Display` form of the classification, or
    /// [`PANIC_RESULT`] for a journaled worker panic.
    pub result: String,
}

fn unhex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".to_string());
    }
    let nibble = |b: u8| match b {
        b'0'..=b'9' => Ok(b - b'0'),
        b'a'..=b'f' => Ok(b - b'a' + 10),
        _ => Err("bad hex digit".to_string()),
    };
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for i in (0..bytes.len()).step_by(2) {
        out.push((nibble(bytes[i])? << 4) | nibble(bytes[i + 1])?);
    }
    Ok(out)
}

/// The per-line checksum over everything after the checksum field.
fn line_check(rest: &str) -> String {
    hex(&silentcert_crypto::sha256(rest.as_bytes()))[..CHECK_LEN].to_string()
}

impl JournalEntry {
    fn to_line(&self) -> String {
        let chain = self
            .chain
            .iter()
            .map(|der| hex(der))
            .collect::<Vec<_>>()
            .join(",");
        let rest = format!(
            "{}\t{}\t{}\t{}\t{}",
            self.seq,
            self.op,
            hex(&self.der),
            chain,
            self.result
        );
        format!("{}\t{}", line_check(&rest), rest)
    }

    fn from_line(line: &str) -> Result<JournalEntry, String> {
        let (check, rest) = line
            .split_once('\t')
            .ok_or_else(|| "missing checksum field".to_string())?;
        if check.len() != CHECK_LEN || line_check(rest) != check {
            return Err("checksum mismatch".to_string());
        }
        let mut f = rest.splitn(5, '\t');
        let mut field = |what: &str| f.next().ok_or_else(|| format!("missing {what}"));
        let seq = field("seq")?
            .parse::<u64>()
            .map_err(|_| "bad seq".to_string())?;
        let op = field("op")?.to_string();
        let der = unhex(field("der")?)?;
        let chain_field = field("chain")?;
        let chain = if chain_field.is_empty() {
            Vec::new()
        } else {
            chain_field
                .split(',')
                .map(unhex)
                .collect::<Result<Vec<_>, _>>()?
        };
        let result = field("result")?.to_string();
        Ok(JournalEntry {
            seq,
            op,
            der,
            chain,
            result,
        })
    }
}

/// Thread-shared journal: workers append, the supervisor flushes.
pub struct Journal {
    path: PathBuf,
    state: Mutex<JournalState>,
}

/// How records reach the file.
enum Sink {
    /// Records accumulate in memory; [`Journal::flush`] persists them
    /// (first flush rewrites atomically, later flushes append).
    Buffered,
    /// Every [`Journal::append`] writes the record through to the open
    /// file before returning. A SIGKILL after an append therefore never
    /// loses that record (page-cache writes survive process death) —
    /// the durability the cluster's journaled-or-refused accounting
    /// needs when a response must not outrun its journal entry.
    /// [`Journal::flush`] only fsyncs.
    WriteThrough(fs::File),
}

struct JournalState {
    lines: Vec<String>,
    next_seq: u64,
    /// Lines persisted by the last flush (skip no-op rewrites, append the
    /// rest). In write-through mode: lines already written to the file.
    flushed_lines: usize,
    flushes: u64,
    sink: Sink,
}

impl Journal {
    pub fn new(path: PathBuf) -> Journal {
        Journal {
            path,
            state: Mutex::new(JournalState {
                lines: Vec::new(),
                next_seq: 0,
                flushed_lines: 0,
                flushes: 0,
                sink: Sink::Buffered,
            }),
        }
    }

    /// A write-through journal: the header is written immediately and
    /// every appended record hits the file before `append` returns, so
    /// a process killed with SIGKILL right after answering a request
    /// still leaves that request's record on disk.
    pub fn write_through(path: PathBuf) -> io::Result<Journal> {
        let mut file = fs::File::create(&path)?;
        // Make the file's *existence* durable up front: a crash before
        // the first flush must find an empty journal, not no journal.
        silentcert_obs::fsync_parent_dir(&path)?;
        file.write_all(HEADER.as_bytes())?;
        file.write_all(b"\n")?;
        Ok(Journal {
            path,
            state: Mutex::new(JournalState {
                lines: Vec::new(),
                next_seq: 0,
                flushed_lines: 0,
                flushes: 0,
                sink: Sink::WriteThrough(file),
            }),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one completed classification; returns its sequence number.
    pub fn append(&self, op: &str, der: &[u8], chain: &[Certificate], result: &str) -> u64 {
        let mut s = self.state.lock().unwrap();
        let seq = s.next_seq;
        s.next_seq += 1;
        let entry = JournalEntry {
            seq,
            op: op.to_string(),
            der: der.to_vec(),
            chain: chain.iter().map(|c| c.to_der().to_vec()).collect(),
            result: result.to_string(),
        };
        s.lines.push(entry.to_line());
        let s = &mut *s;
        if let Sink::WriteThrough(file) = &mut s.sink {
            // Only write through when nothing earlier is still pending,
            // so records never reach the file out of order; a failed
            // write leaves the tail buffered for `flush` to retry.
            if s.flushed_lines + 1 == s.lines.len() {
                let mut buf = s.lines[s.flushed_lines].clone();
                buf.push('\n');
                if file.write_all(buf.as_bytes()).is_ok() {
                    s.flushed_lines += 1;
                }
            }
        }
        seq
    }

    /// Entries appended so far.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.state.lock().unwrap().flushes
    }

    /// Persist new records. The first flush writes the whole file
    /// atomically; subsequent flushes append only the records added since
    /// — per-line checksums keep a torn append detectable and confined to
    /// the tail.
    pub fn flush(&self) -> io::Result<()> {
        let mut s = self.state.lock().unwrap();
        if let Sink::WriteThrough(_) = s.sink {
            // Records are already in the file (modulo a failed append,
            // retried here); flushing only writes the backlog and syncs.
            let s = &mut *s;
            let Sink::WriteThrough(file) = &mut s.sink else {
                unreachable!()
            };
            if s.flushed_lines < s.lines.len() {
                let mut tail = String::new();
                for line in &s.lines[s.flushed_lines..] {
                    tail.push_str(line);
                    tail.push('\n');
                }
                file.write_all(tail.as_bytes())?;
                s.flushed_lines = s.lines.len();
            }
            file.sync_all()?;
            s.flushes += 1;
            return Ok(());
        }
        if s.lines.len() == s.flushed_lines && s.flushes > 0 {
            return Ok(());
        }
        if s.flushes == 0 {
            atomic_write(&self.path, |out| {
                writeln!(out, "{HEADER}")?;
                for line in &s.lines {
                    writeln!(out, "{line}")?;
                }
                Ok(())
            })?;
        } else {
            let mut tail = String::new();
            for line in &s.lines[s.flushed_lines..] {
                tail.push_str(line);
                tail.push('\n');
            }
            let mut f = fs::OpenOptions::new().append(true).open(&self.path)?;
            f.write_all(tail.as_bytes())?;
            f.sync_all()?;
        }
        s.flushed_lines = s.lines.len();
        s.flushes += 1;
        Ok(())
    }
}

/// A journal read back from disk.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct JournalReadout {
    pub entries: Vec<JournalEntry>,
    /// Whether exactly one torn trailing record was tolerated (crash
    /// mid-append). Anything torn before the tail is an error instead.
    pub truncated_tail: bool,
}

/// Read a journal back, verifying the header and every record checksum.
///
/// A single unreadable **final** line is tolerated (and flagged): an
/// append interrupted by a crash tears at most the last record. An
/// unreadable line anywhere else means real corruption and is an error.
pub fn read_journal(path: &Path) -> Result<JournalReadout, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return Err("bad or missing journal header".to_string());
    }
    let body: Vec<&str> = lines.collect();
    let mut out = JournalReadout::default();
    for (i, line) in body.iter().enumerate() {
        match JournalEntry::from_line(line) {
            Ok(entry) => out.entries.push(entry),
            Err(e) if i + 1 == body.len() => {
                // Torn tail from a mid-append crash: tolerate, but loudly.
                eprintln!(
                    "journal {}: tolerating torn trailing record ({e})",
                    path.display()
                );
                out.truncated_tail = true;
            }
            Err(e) => {
                return Err(format!(
                    "journal record {}: {e} (mid-file corruption)",
                    i + 1
                ))
            }
        }
    }
    Ok(out)
}

/// Outcome of replaying a journal against a validator.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    pub entries: usize,
    /// Entries whose re-classification differed from the journaled
    /// result — zero for a correct drain.
    pub mismatches: usize,
    /// Journaled worker-panic records (counted, not re-classified).
    pub panics: usize,
    /// Whether a torn trailing record was tolerated on read.
    pub truncated_tail: bool,
}

/// Re-run every journaled classification and compare byte-for-byte.
pub fn replay(path: &Path, validator: &Validator) -> Result<ReplayReport, String> {
    let readout = read_journal(path)?;
    let mut report = ReplayReport {
        entries: readout.entries.len(),
        truncated_tail: readout.truncated_tail,
        ..ReplayReport::default()
    };
    for entry in &readout.entries {
        if entry.result.starts_with("panic:") {
            report.panics += 1;
            continue;
        }
        let chain: Vec<Certificate> = entry
            .chain
            .iter()
            .map(|der| Certificate::from_der(der))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("journal entry {}: chain: {e}", entry.seq))?;
        let outcome = validator.classify_der(&entry.der, &chain);
        if outcome.to_string() != entry.result {
            report.mismatches += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use silentcert_validate::TrustStore;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("silentcert-journal-{tag}-{}", std::process::id()))
    }

    #[test]
    fn round_trips_entries_with_checksums() {
        let path = temp("roundtrip");
        let j = Journal::new(path.clone());
        j.append("classify", &[0xde, 0xad], &[], "invalid: parse error");
        j.append("validate", &[0x30, 0x00], &[], "invalid: parse error");
        j.flush().unwrap();
        let readout = read_journal(&path).unwrap();
        assert!(!readout.truncated_tail);
        assert_eq!(readout.entries.len(), 2);
        assert_eq!(readout.entries[0].seq, 0);
        assert_eq!(readout.entries[0].der, vec![0xde, 0xad]);
        assert_eq!(readout.entries[1].op, "validate");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn flushes_append_incrementally() {
        let path = temp("incremental");
        let j = Journal::new(path.clone());
        j.append("classify", &[1], &[], "invalid: parse error");
        j.flush().unwrap();
        let after_first = fs::read_to_string(&path).unwrap();
        j.append("classify", &[2], &[], "invalid: parse error");
        j.flush().unwrap();
        let after_second = fs::read_to_string(&path).unwrap();
        // Second flush appended; it did not rewrite the prefix.
        assert!(after_second.starts_with(&after_first));
        assert_eq!(read_journal(&path).unwrap().entries.len(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_detected() {
        let path = temp("corrupt");
        let j = Journal::new(path.clone());
        j.append("classify", &[1, 2, 3], &[], "invalid: parse error");
        j.append("classify", &[4, 5, 6], &[], "invalid: parse error");
        j.flush().unwrap();
        // Forge a record *between* two genuine ones.
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(2, "0000000000000000\t9\tclassify\tdead\t\tforged");
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(err.contains("mid-file corruption"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_record_is_tolerated() {
        let path = temp("torn");
        let j = Journal::new(path.clone());
        j.append("classify", &[1], &[], "invalid: parse error");
        j.append("classify", &[2], &[], "invalid: parse error");
        j.flush().unwrap();
        // Simulate a crash mid-append: half of a third record.
        let mut text = fs::read_to_string(&path).unwrap();
        let full = JournalEntry {
            seq: 2,
            op: "classify".into(),
            der: vec![3],
            chain: Vec::new(),
            result: "invalid: parse error".into(),
        }
        .to_line();
        text.push_str(&full[..full.len() / 2]);
        fs::write(&path, &text).unwrap();
        let readout = read_journal(&path).unwrap();
        assert!(readout.truncated_tail);
        assert_eq!(readout.entries.len(), 2, "intact prefix survives");
        let _ = fs::remove_file(&path);
    }

    /// Re-runs this test binary as a child that appends records and then
    /// `abort()`s midway through writing one more — a real kill, not a
    /// simulated truncation. The survivor journal must replay.
    #[test]
    fn killed_mid_append_leaves_replayable_journal() {
        const ENV: &str = "SILENTCERT_JOURNAL_KILL_PATH";
        if let Ok(path) = std::env::var(ENV) {
            // Child mode: flush two records, then die mid-append.
            let j = Journal::new(PathBuf::from(&path));
            j.append("classify", &[1], &[], "invalid: parse error");
            j.append("classify", &[2], &[], "invalid: parse error");
            j.flush().unwrap();
            let torn = JournalEntry {
                seq: 2,
                op: "classify".into(),
                der: vec![3],
                chain: Vec::new(),
                result: "invalid: parse error".into(),
            }
            .to_line();
            let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&torn.as_bytes()[..torn.len() / 2]).unwrap();
            f.sync_all().unwrap();
            std::process::abort();
        }

        let path = temp("killed");
        let _ = fs::remove_file(&path);
        let status = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "journal::tests::killed_mid_append_leaves_replayable_journal",
                "--exact",
                "--nocapture",
            ])
            .env(ENV, path.to_str().unwrap())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .unwrap();
        assert!(!status.success(), "child must have died mid-append");
        let readout = read_journal(&path).unwrap();
        assert!(readout.truncated_tail, "torn tail is flagged");
        assert_eq!(readout.entries.len(), 2, "flushed prefix survives");
        let report = replay(&path, &Validator::new(TrustStore::new())).unwrap();
        assert_eq!(report.entries, 2);
        assert_eq!(report.mismatches, 0);
        assert!(report.truncated_tail);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn write_through_records_are_durable_before_any_flush() {
        let path = temp("writethrough");
        let j = Journal::write_through(path.clone()).unwrap();
        j.append("classify", &[1], &[], "invalid: parse error");
        j.append("classify", &[2], &[], "invalid: parse error");
        // No flush has happened: the records must already be on disk —
        // a SIGKILL here loses nothing that was appended.
        let readout = read_journal(&path).unwrap();
        assert_eq!(readout.entries.len(), 2);
        assert!(!readout.truncated_tail);
        j.flush().unwrap();
        j.append("classify", &[3], &[], "invalid: parse error");
        assert_eq!(read_journal(&path).unwrap().entries.len(), 3);
        assert_eq!(j.len(), 3);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn flush_skips_when_unchanged() {
        let path = temp("noop");
        let j = Journal::new(path.clone());
        j.append("classify", &[9], &[], "invalid: parse error");
        j.flush().unwrap();
        j.flush().unwrap();
        assert_eq!(j.flushes(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn replay_agrees_with_live_classification_and_counts_panics() {
        let path = temp("replay");
        let v = Validator::new(TrustStore::new());
        let j = Journal::new(path.clone());
        let garbage = [0xde, 0xad, 0xbe, 0xef];
        let outcome = v.classify_der(&garbage, &[]);
        j.append("classify", &garbage, &[], &outcome.to_string());
        j.append("chaos_panic", &garbage, &[], PANIC_RESULT);
        j.flush().unwrap();
        let report = replay(&path, &v).unwrap();
        assert_eq!(
            report,
            ReplayReport {
                entries: 2,
                mismatches: 0,
                panics: 1,
                truncated_tail: false,
            }
        );
        let _ = fs::remove_file(&path);
    }
}
