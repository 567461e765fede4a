//! Per-session write-ahead logs: the durability substrate of the engine's
//! incremental sessions (DESIGN.md §10).
//!
//! One file per live session, `session-<id>.wal`, in the engine's WAL
//! directory:
//!
//! ```text
//! wal    := header | record*
//! header := magic "C1PJ" | version u8 | session u64 LE | n_atoms u64 LE
//!         | hcrc u64 LE                       -- fnv1a over bytes 0..21
//! record := len u32 LE | delta (C1PW ensemble wire bytes) | hash u64 LE
//!         | rcrc u64 LE                       -- fnv1a over len..hash
//! ```
//!
//! Records reuse the engine's existing C1PW wire encoding as the payload
//! format and [`c1p_matrix::io`]'s checksummed record framing; `hash` is
//! the session's FNV stream hash *after* the push — each record binds
//! both the delta and the state it produced, so the log is verifiable at
//! every prefix.
//!
//! **Ordering contract:** a push is appended and fsynced *before* it is
//! acknowledged. A crash at any instant therefore leaves the log in one
//! of exactly two states per push: fully present (the client may or may
//! not have seen the ack — replay reproduces the acked state), or torn /
//! absent (the client cannot have seen an ack — recovery truncates the
//! tail and the session stands at its last acknowledged push).
//!
//! **Recovery** ([`recover_file`]) checks the whole hash chain first and
//! then solves once: the concatenation of every record goes through one
//! incremental push. C1P is hereditary under column deletion, so that one
//! accepting solve certifies every prefix the log acknowledged.
//!
//! **Recovery classification:** a record that ends past the physical end
//! of file — or whose checksum fails right at the tail — is a *torn final
//! append*: discarded by truncating the file at the last good record
//! boundary, never misparsed. Everything else (checksum failure mid-file,
//! an undecodable delta behind a valid checksum, a stream-hash mismatch,
//! or a logged push that rejects) is *damage*: the file is
//! [`quarantine`]d — renamed aside, counted, never trusted, never
//! deleted.

use c1p_core::{solve_with, Config};
use c1p_incremental::{fold_stream_hash, initial_stream_hash, IncrementalSolver, ReplayError};
use c1p_matrix::io::{
    append_record, decode_ensemble, encode_ensemble, fnv1a, split_record, ReadError, Reader,
    RecordError,
};
use c1p_matrix::Ensemble;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

const WAL_MAGIC: [u8; 4] = *b"C1PJ";
const WAL_VERSION: u8 = 1;

/// Byte length of the checksummed segment header.
pub const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 8;

/// Suffix a damaged file is renamed to by [`quarantine`].
pub const QUARANTINE_SUFFIX: &str = "quarantine";

/// The WAL path of a session id inside a WAL directory.
pub fn wal_path(dir: &Path, session: u64) -> PathBuf {
    dir.join(format!("session-{session}.wal"))
}

fn encode_header(session: u64, n_atoms: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&WAL_MAGIC);
    h[4] = WAL_VERSION;
    h[5..13].copy_from_slice(&session.to_le_bytes());
    h[13..21].copy_from_slice(&n_atoms.to_le_bytes());
    let crc = fnv1a(&h[..21]);
    h[21..29].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Parses and checks a segment header.
fn decode_header(buf: &[u8]) -> Result<(u64, u64), WalDamage> {
    let mut r = Reader::new(buf);
    let magic = r.take(4, "header magic")?;
    let version = r.u8("header version")?;
    let session = r.u64_le("header session")?;
    let n_atoms = r.u64_le("header atom count")?;
    let covered = r.pos();
    let crc = r.u64_le("header checksum")?;
    let damage = |reason: String| Err(WalDamage { reason });
    if magic != WAL_MAGIC {
        return damage(format!("bad magic {magic:?}"));
    }
    if version != WAL_VERSION {
        return damage(format!("unsupported WAL version {version}"));
    }
    if fnv1a(&buf[..covered]) != crc {
        return damage("header checksum mismatch".to_string());
    }
    Ok((session, n_atoms))
}

/// Best-effort durability for a directory entry (file creation, rename,
/// unlink): fsync the directory itself. Errors are swallowed — some
/// filesystems refuse directory syncs and the write path must not die
/// for it.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The append side of one session's WAL. Created at session open (header
/// written and fsynced before the open is acknowledged); every accepted
/// push appends one fsynced record before the push is acknowledged.
pub struct WalWriter {
    file: File,
    path: PathBuf,
}

impl WalWriter {
    /// Creates the log for a fresh session: header written, file and
    /// directory fsynced. Refuses (cleanly) if the file already exists —
    /// session ids are never reused while a log is on disk.
    pub fn create(dir: &Path, session: u64, n_atoms: u64) -> std::io::Result<WalWriter> {
        let path = wal_path(dir, session);
        let mut file = OpenOptions::new().write(true).create_new(true).open(&path)?;
        file.write_all(&encode_header(session, n_atoms))?;
        file.sync_data()?;
        sync_dir(dir);
        Ok(WalWriter { file, path })
    }

    /// Reopens a recovered log for further appends. The caller (recovery)
    /// guarantees the file ends at a clean record boundary — torn tails
    /// are truncated away before the writer ever sees the file.
    pub fn reopen(path: &Path) -> std::io::Result<WalWriter> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(WalWriter { file, path: path.to_path_buf() })
    }

    /// Appends one accepted push — the delta's C1PW wire bytes plus the
    /// post-push stream hash — and fsyncs. Returns only after the record
    /// is durable; the caller acknowledges the push only after this
    /// returns.
    pub fn append(&mut self, delta: &Ensemble, stream_hash: u64) -> std::io::Result<()> {
        let payload = encode_ensemble(delta);
        let mut rec = Vec::with_capacity(payload.len() + 20);
        append_record(&mut rec, &payload, stream_hash);
        self.file.write_all(&rec)?;
        self.file.sync_data()
    }

    /// Chaos fault hook: writes a strict prefix of the record and syncs
    /// it — a deterministic torn append, as if the process died mid-write.
    /// The writer must not be used again (its file position is inside a
    /// half-record); recovery classifies the result as a torn tail and
    /// truncates it.
    pub fn append_torn(&mut self, delta: &Ensemble, stream_hash: u64) {
        let payload = encode_ensemble(delta);
        let mut rec = Vec::with_capacity(payload.len() + 20);
        append_record(&mut rec, &payload, stream_hash);
        // a strict prefix: at least the length word, never the checksum
        let cut = (rec.len() / 2).max(4).min(rec.len() - 1);
        let _ = self.file.write_all(&rec[..cut]);
        let _ = self.file.sync_data();
    }

    /// Test-only fault hook (`--wal-fault-after`): [`WalWriter::append_torn`]
    /// followed by a process abort — a deterministic `kill -9` mid-append.
    pub fn append_torn_and_abort(&mut self, delta: &Ensemble, stream_hash: u64) -> ! {
        self.append_torn(delta, stream_hash);
        std::process::abort();
    }

    /// Closes and removes the log (the session sealed): unlink, then
    /// directory fsync, so a crash after seal cannot resurrect a sealed
    /// session.
    pub fn remove(self) -> std::io::Result<()> {
        let dir = self.path.parent().map(Path::to_path_buf);
        drop(self.file);
        std::fs::remove_file(&self.path)?;
        if let Some(dir) = dir {
            sync_dir(&dir);
        }
        Ok(())
    }
}

/// A session rebuilt from its log by [`recover_file`].
pub struct Recovered {
    /// The session id (from the checksummed header).
    pub session: u64,
    /// The rebuilt solver — state bit-identical to the last acknowledged
    /// push (every prefix's recorded stream hash re-verified, the whole
    /// stream solved once).
    pub solver: IncrementalSolver,
    /// Logged pushes recovered (one record each).
    pub records: u64,
    /// Whether a torn final append was discarded (file truncated back to
    /// the last good record boundary).
    pub truncated_tail: bool,
}

/// Why [`recover_file`] refused a log. The file has already been moved
/// aside by [`quarantine`]-style renaming *by the caller's choice* — this
/// type only reports; it never destroys data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalDamage {
    /// Human-readable reason (offset-carrying where possible).
    pub reason: String,
}

impl From<ReadError> for WalDamage {
    fn from(e: ReadError) -> Self {
        WalDamage { reason: e.to_string() }
    }
}

/// Scans a WAL directory for live (non-quarantined) session logs, in
/// ascending session-id order. The id is parsed from the filename only to
/// order the scan; the checksummed header stays authoritative.
pub fn scan_dir(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(id) = name.strip_prefix("session-").and_then(|s| s.strip_suffix(".wal")) {
            if let Ok(id) = id.parse::<u64>() {
                out.push((id, path));
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Moves a damaged file aside: `X` → `X.quarantine` (a numbered suffix if
/// that name is somehow taken). The data is preserved for forensics; the
/// live namespace is cleared so recovery and resume never trust it again.
/// Shared with the snapshot loader — damage handling is one policy.
pub fn quarantine(path: &Path) -> std::io::Result<PathBuf> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| std::io::Error::other("quarantine target has no file name"))?
        .to_string();
    let mut target = path.with_file_name(format!("{name}.{QUARANTINE_SUFFIX}"));
    let mut n = 0;
    while target.exists() {
        n += 1;
        target = path.with_file_name(format!("{name}.{QUARANTINE_SUFFIX}{n}"));
    }
    std::fs::rename(path, &target)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(target)
}

/// Rebuilds one session from its log, in two passes.
///
/// **Pass 1** frames, decodes and chain-checks every record without
/// solving anything: the header, each record's checksum, the delta's
/// decode and atom count, and the recorded stream hash, folded record by
/// record with [`fold_stream_hash`] — a mismatch names its record's byte
/// offset. A torn final append (including a checksum failure exactly at
/// the tail) ends the pass at the last good record boundary.
///
/// **Pass 2** rebuilds the session with one
/// [`IncrementalSolver::replay_accepted`] of the concatenated stream,
/// checked against the final recorded hash. C1P is hereditary under
/// column deletion, so one accepting solve certifies every prefix, and
/// the state is bit-identical to replaying the records one by one. If
/// that solve rejects (never for an honest log), verdict-only solves
/// bisect the record prefixes for the first one that rejects, and that
/// record's offset is reported.
///
/// Only after the solve accepts is a torn tail truncated away; recovery
/// then succeeds at the shorter, fully-acknowledged prefix. Any other
/// defect returns `Err(WalDamage)` and the caller quarantines. IO errors
/// (not data errors) surface as `Err` with the OS message — the caller
/// treats them as damage too, which is conservative but never wrong.
pub fn recover_file(path: &Path, cfg: &Config, par_cutoff: usize) -> Result<Recovered, WalDamage> {
    let buf = std::fs::read(path)
        .map_err(|e| WalDamage { reason: format!("cannot read {}: {e}", path.display()) })?;
    let (session, n_atoms) = decode_header(&buf)?;
    if n_atoms > u32::MAX as u64 {
        return Err(WalDamage { reason: format!("header claims {n_atoms} atoms") });
    }
    let n_atoms = n_atoms as usize;
    // pass 1: every record framed, decoded and chain-checked; the decoded
    // columns move into one stream, and each record's offset and payload
    // are kept for the bisect
    let mut stream = Ensemble::new(n_atoms);
    let mut records: Vec<(usize, &[u8])> = Vec::new();
    let mut hash = initial_stream_hash(n_atoms);
    let mut at = HEADER_LEN;
    let mut truncate_at = None;
    while at < buf.len() {
        let rec = match split_record(&buf, at) {
            Ok(rec) => rec,
            Err(RecordError::Torn) => {
                truncate_at = Some(at);
                break;
            }
            Err(RecordError::Corrupt { offset }) => {
                return Err(WalDamage {
                    reason: format!("record checksum mismatch at byte {offset}"),
                });
            }
        };
        // the payload passed its checksum: a decode failure here is not a
        // torn write, it is a log that never made sense — damage
        let delta = decode_ensemble(rec.payload).map_err(|e| WalDamage {
            reason: format!("record at byte {at}: undecodable delta: {e}"),
        })?;
        if delta.n_atoms() != n_atoms {
            return Err(WalDamage {
                reason: format!(
                    "record at byte {at}: delta over {} atoms in a {n_atoms}-atom session",
                    delta.n_atoms()
                ),
            });
        }
        hash = fold_stream_hash(hash, &delta);
        if hash != rec.aux {
            return Err(WalDamage {
                reason: format!(
                    "record at byte {at}: recorded stream hash {:#018x} \
                     but replay produces {hash:#018x}",
                    rec.aux
                ),
            });
        }
        stream.append(delta);
        records.push((at, rec.payload));
        at += rec.consumed;
    }
    // pass 2: one solve of the whole stream
    let mut solver = IncrementalSolver::with_config(n_atoms, *cfg, par_cutoff);
    if !records.is_empty() {
        match solver.replay_accepted(stream, hash) {
            Ok(()) => {}
            Err(ReplayError::Rejected) => {
                let at = first_rejecting_record(&records, n_atoms, cfg);
                return Err(WalDamage {
                    reason: format!("record at byte {at}: a logged push rejects on replay"),
                });
            }
            Err(e) => return Err(WalDamage { reason: format!("replay of the whole log: {e}") }),
        }
    }
    let truncated_tail = if let Some(end) = truncate_at {
        // normalize the file so later appends land at a clean boundary
        let f = OpenOptions::new().write(true).open(path).map_err(|e| WalDamage {
            reason: format!("cannot truncate torn tail of {}: {e}", path.display()),
        })?;
        f.set_len(end as u64)
            .and_then(|()| f.sync_data())
            .map_err(|e| WalDamage { reason: format!("cannot truncate torn tail: {e}") })?;
        true
    } else {
        false
    };
    Ok(Recovered { session, solver, records: records.len() as u64, truncated_tail })
}

/// The byte offset of the first record whose prefix of the log rejects,
/// given that the whole log rejects. Heredity makes prefix acceptance
/// monotone, so a bisect over verdict-only solves (no certificate is
/// extracted) finds it in `O(log records)` solves.
fn first_rejecting_record(records: &[(usize, &[u8])], n_atoms: usize, cfg: &Config) -> usize {
    let accepts = |k: usize| {
        let mut prefix = Ensemble::new(n_atoms);
        for (_, payload) in &records[..k] {
            prefix.append(decode_ensemble(payload).expect("decoded in pass 1"));
        }
        solve_with(&prefix, cfg).0.is_ok()
    };
    // the empty prefix accepts and the whole log rejects
    let (mut lo, mut hi) = (0, records.len());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if accepts(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    records[hi - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "c1p-wal-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn push_and_log(w: &mut WalWriter, inc: &mut IncrementalSolver, cols: Vec<Vec<u32>>) {
        let delta = Ensemble::from_columns(inc.n_atoms(), cols).unwrap();
        inc.push(&delta).unwrap();
        w.append(&delta, inc.stream_hash()).unwrap();
    }

    #[test]
    fn log_replay_reproduces_the_session() {
        let dir = temp_dir();
        let mut inc = IncrementalSolver::new(8);
        let mut w = WalWriter::create(&dir, 7, 8).unwrap();
        push_and_log(&mut w, &mut inc, vec![vec![0, 1], vec![1, 2]]);
        push_and_log(&mut w, &mut inc, vec![vec![4, 5], vec![5, 6, 7]]);
        let rec = recover_file(&wal_path(&dir, 7), &Config::default(), usize::MAX).unwrap();
        assert_eq!(rec.session, 7);
        assert_eq!(rec.records, 2);
        assert!(!rec.truncated_tail);
        assert_eq!(rec.solver.stream_hash(), inc.stream_hash());
        assert_eq!(rec.solver.order(), inc.order());
        assert_eq!(rec.solver.ensemble(), inc.ensemble());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_solves_once_whatever_the_log_length() {
        // a deterministic work counter, not a timing gate: however many
        // records the log holds, one push rebuilds the session
        for records in [1usize, 16, 64] {
            let dir = temp_dir();
            let stream = c1p_matrix::generate::append_stream(128, 4, records, 5);
            let mut inc = IncrementalSolver::new(stream.n_atoms);
            let mut w = WalWriter::create(&dir, 3, stream.n_atoms as u64).unwrap();
            for cols in &stream.pushes {
                push_and_log(&mut w, &mut inc, cols.clone());
            }
            let rec = recover_file(&wal_path(&dir, 3), &Config::default(), usize::MAX).unwrap();
            assert_eq!(rec.records, records as u64);
            assert_eq!(rec.solver.stats().pushes, 1, "{records} records");
            assert_eq!(rec.solver.stream_hash(), inc.stream_hash());
            assert_eq!(rec.solver.order(), inc.order());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn torn_tail_is_truncated_not_misparsed() {
        let dir = temp_dir();
        let mut inc = IncrementalSolver::new(6);
        let mut w = WalWriter::create(&dir, 1, 6).unwrap();
        push_and_log(&mut w, &mut inc, vec![vec![0, 1]]);
        let durable_hash = inc.stream_hash();
        push_and_log(&mut w, &mut inc, vec![vec![2, 3]]);
        // tear the final record: every strict prefix must recover to the
        // first push and normalize the file
        let path = wal_path(&dir, 1);
        let full = std::fs::read(&path).unwrap();
        let first_end = HEADER_LEN + split_record(&full, HEADER_LEN).unwrap().consumed;
        for cut in first_end..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let rec = recover_file(&path, &Config::default(), usize::MAX).unwrap();
            assert_eq!(rec.records, 1, "cut at {cut}");
            assert_eq!(rec.truncated_tail, cut != first_end);
            assert_eq!(rec.solver.stream_hash(), durable_hash);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                first_end as u64,
                "file normalized to the last good boundary"
            );
        }
        // ... and an append after truncation-recovery lands cleanly
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let rec = recover_file(&path, &Config::default(), usize::MAX).unwrap();
        let mut resumed = rec.solver;
        let mut w = WalWriter::reopen(&path).unwrap();
        let delta = Ensemble::from_columns(6, vec![vec![4, 5]]).unwrap();
        resumed.push(&delta).unwrap();
        w.append(&delta, resumed.stream_hash()).unwrap();
        let rec2 = recover_file(&path, &Config::default(), usize::MAX).unwrap();
        assert_eq!(rec2.records, 2);
        assert_eq!(rec2.solver.stream_hash(), resumed.stream_hash());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_damage_is_refused() {
        let dir = temp_dir();
        let mut inc = IncrementalSolver::new(6);
        let mut w = WalWriter::create(&dir, 2, 6).unwrap();
        push_and_log(&mut w, &mut inc, vec![vec![0, 1], vec![1, 2]]);
        push_and_log(&mut w, &mut inc, vec![vec![3, 4]]);
        let path = wal_path(&dir, 2);
        let good = std::fs::read(&path).unwrap();
        // flip one bit in the *first* record (records follow, so this can
        // never be classified as a torn tail)
        let mut bad = good.clone();
        bad[HEADER_LEN + 6] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        let Err(err) = recover_file(&path, &Config::default(), usize::MAX) else {
            panic!("mid-file damage must be refused");
        };
        assert!(err.reason.contains("checksum"), "{}", err.reason);
        // header corruption is damage too
        let mut bad = good.clone();
        bad[5] ^= 1;
        std::fs::write(&path, &bad).unwrap();
        assert!(recover_file(&path, &Config::default(), usize::MAX).is_err());
        // quarantine moves it out of the live namespace
        let q = quarantine(&path).unwrap();
        assert!(!path.exists());
        assert!(q.exists());
        assert!(scan_dir(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_orders_by_session_id_and_skips_quarantine() {
        let dir = temp_dir();
        for id in [30u64, 4, 17] {
            WalWriter::create(&dir, id, 4).unwrap();
        }
        quarantine(&wal_path(&dir, 17)).unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        let ids: Vec<u64> = scan_dir(&dir).unwrap().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![4, 30]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
