//! Result-cache snapshots: warm-start for a restarted server
//! (DESIGN.md §10).
//!
//! A snapshot is the cache's canonical-key → verdict map, serialized with
//! the same wire encodings the cache keys already use:
//!
//! ```text
//! snapshot := magic "C1PS" | version u8 | count u32 LE | entry*
//!           | crc u64 LE                 -- fnv1a over everything before it
//! entry    := klen u32 LE | key (C1PW ensemble wire bytes)
//!           | vlen u32 LE | verdict (C1PW verdict wire bytes)
//!           | site u8 | natoms u32 LE | atoms (u32 LE)*
//!              -- site 0 on accepts (no atoms); on rejects 2 = Merge or
//!              -- 3 = Align, carrying the engine-side rejection evidence
//!              -- the wire verdict drops; 1 is unassigned and refused
//! ```
//!
//! **Atomicity:** [`write()`] builds the whole image in memory, writes it to
//! `cache.c1ps.tmp`, fsyncs, renames over `cache.c1ps`, and fsyncs the
//! directory. A reader therefore sees either the old snapshot or the new
//! one, never a mixture; a crash mid-write leaves at most a stale `.tmp`
//! that the next write overwrites.
//!
//! **Loading is as paranoid as any other wire input:** the image is read
//! through `c1p_matrix::io::Reader`, every length is bounds-checked
//! against the bytes actually present *before* any allocation, the
//! whole-file checksum is verified first, and every key
//! and verdict goes through the structured `decode_ensemble` /
//! `decode_verdict` paths. Any defect yields a structured
//! [`SnapshotDamage`] — the caller quarantines the file and cold-starts;
//! a snapshot can never panic the server or plant a wrong verdict.

use crate::Verdict;
use c1p_cert::TuckerWitness;
use c1p_core::{RejectSite, Rejection};
use c1p_matrix::io::{decode_ensemble, decode_verdict, encode_verdict, fnv1a};
use c1p_matrix::io::{ReadError, Reader, WireVerdict};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

const SNAP_MAGIC: [u8; 4] = *b"C1PS";
const SNAP_VERSION: u8 = 1;

/// The live snapshot file inside a durability directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("cache.c1ps")
}

/// Why a snapshot was refused. Reported, never acted on here: the caller
/// decides to quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDamage {
    /// Human-readable reason (offset-carrying where possible).
    pub reason: String,
}

fn site_tag(site: RejectSite) -> u8 {
    match site {
        RejectSite::Merge => 2,
        RejectSite::Align => 3,
    }
}

fn site_from_tag(tag: u8) -> Option<RejectSite> {
    match tag {
        2 => Some(RejectSite::Merge),
        3 => Some(RejectSite::Align),
        _ => None,
    }
}

/// Serializes cache entries (canonical key, verdict) into a snapshot
/// image.
pub fn encode(entries: &[(&[u8], &Verdict)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + entries.iter().map(|(k, _)| k.len() + 64).sum::<usize>());
    out.extend_from_slice(&SNAP_MAGIC);
    out.push(SNAP_VERSION);
    out.extend_from_slice(
        &u32::try_from(entries.len()).expect("entry count fits u32").to_le_bytes(),
    );
    for (key, verdict) in entries {
        let vbytes = encode_verdict(&verdict.to_wire());
        out.extend_from_slice(&u32::try_from(key.len()).expect("key fits u32").to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(
            &u32::try_from(vbytes.len()).expect("verdict fits u32").to_le_bytes(),
        );
        out.extend_from_slice(&vbytes);
        match verdict {
            Verdict::C1p { .. } => out.push(0),
            Verdict::NotC1p { rejection, .. } => {
                out.push(site_tag(rejection.site));
                let atoms = &rejection.atoms;
                out.extend_from_slice(
                    &u32::try_from(atoms.len()).expect("atom count fits u32").to_le_bytes(),
                );
                for &a in atoms {
                    out.extend_from_slice(&a.to_le_bytes());
                }
            }
        }
    }
    let crc = fnv1a(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

impl From<ReadError> for SnapshotDamage {
    fn from(e: ReadError) -> Self {
        SnapshotDamage { reason: e.to_string() }
    }
}

/// Decodes a snapshot image back into (canonical key, verdict) pairs, in
/// the order they were written (oldest-touched first — re-inserting in
/// order reproduces the LRU ordering).
pub fn decode(buf: &[u8]) -> Result<Vec<(Vec<u8>, Verdict)>, SnapshotDamage> {
    let damage = |reason: String| SnapshotDamage { reason };
    if buf.len() < SNAP_MAGIC.len() + 1 + 4 + 8 {
        return Err(damage("file shorter than an empty snapshot".to_string()));
    }
    let mut file = Reader::new(buf);
    let body = file.take(buf.len() - 8, "body")?;
    if fnv1a(body) != file.u64_le("checksum")? {
        return Err(damage("whole-file checksum mismatch".to_string()));
    }
    let mut r = Reader::new(body);
    if r.take(4, "magic")? != SNAP_MAGIC {
        return Err(damage("bad magic".to_string()));
    }
    let version = r.u8("version")?;
    if version != SNAP_VERSION {
        return Err(damage(format!("unsupported snapshot version {version}")));
    }
    let count = r.u32_le("entry count")? as usize;
    // bounds-check before allocation: even an empty entry takes ≥ 9 bytes
    if count > body.len() / 9 {
        return Err(damage(format!(
            "entry count {count} impossible for a {}-byte file",
            buf.len()
        )));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let klen = r.u32_le("key length")? as usize;
        let key = r.take(klen, "key")?;
        decode_ensemble(key)
            .map_err(|e| damage(format!("entry {i}: key is not a valid ensemble encoding: {e}")))?;
        let vlen = r.u32_le("verdict length")? as usize;
        let wire = decode_verdict(r.take(vlen, "verdict")?)
            .map_err(|e| damage(format!("entry {i}: bad verdict: {e}")))?;
        let site = r.u8("rejection site")?;
        let verdict = match (wire, site) {
            (WireVerdict::Accept { order }, 0) => Verdict::C1p { order },
            (WireVerdict::Accept { .. }, s) => {
                return Err(damage(format!("entry {i}: accept carries rejection site {s}")));
            }
            (WireVerdict::Reject { family, atom_rows, column_ids }, s) => {
                let site = site_from_tag(s)
                    .ok_or_else(|| damage(format!("entry {i}: unknown rejection site {s}")))?;
                let natoms = r.u32_le("rejection atom count")? as usize;
                // bounds-check before allocation
                if natoms > r.remaining() / 4 {
                    return Err(damage(format!(
                        "entry {i}: rejection atom count {natoms} overruns file"
                    )));
                }
                let mut atoms = Vec::with_capacity(natoms);
                for _ in 0..natoms {
                    atoms.push(r.u32_le("rejection atom")?);
                }
                Verdict::NotC1p {
                    rejection: Rejection { site, atoms },
                    witness: TuckerWitness { family, atom_rows, column_ids },
                }
            }
        };
        out.push((key.to_vec(), verdict));
    }
    r.expect_end()?;
    Ok(out)
}

/// Writes a snapshot atomically: whole image to `cache.c1ps.tmp`, fsync,
/// rename over `cache.c1ps`, directory fsync.
pub fn write(dir: &Path, entries: &[(&[u8], &Verdict)]) -> std::io::Result<()> {
    let image = encode(entries);
    let tmp = dir.join("cache.c1ps.tmp");
    let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
    f.write_all(&image)?;
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, snapshot_path(dir))?;
    crate::wal::sync_dir(dir);
    Ok(())
}

/// Decoded snapshot entries: canonical cache key → finished verdict.
pub type SnapshotEntries = Vec<(Vec<u8>, Verdict)>;

/// Loads the live snapshot, if any. `Ok(None)` means no snapshot exists
/// (a cold start, not an error); `Err` means the file exists but is
/// damaged — the caller quarantines it and cold-starts.
pub fn load(dir: &Path) -> Result<Option<SnapshotEntries>, SnapshotDamage> {
    let path = snapshot_path(dir);
    let buf = match std::fs::read(&path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(SnapshotDamage { reason: format!("cannot read {}: {e}", path.display()) })
        }
    };
    decode(&buf).map(Some)
}

/// Fsyncs the live snapshot's containing directory entry — used once at
/// boot so a snapshot inherited from a previous process generation is
/// known-durable before we start trusting warm hits from it.
pub fn fsync_existing(dir: &Path) {
    if let Ok(f) = File::open(snapshot_path(dir)) {
        let _ = f.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c1p_matrix::io::encode_ensemble;
    use c1p_matrix::tucker::TuckerFamily;
    use c1p_matrix::Ensemble;

    fn sample_entries() -> Vec<(Vec<u8>, Verdict)> {
        let k1 = encode_ensemble(&Ensemble::from_columns(4, vec![vec![0, 1], vec![1, 2]]).unwrap());
        let k2 = encode_ensemble(
            &Ensemble::from_columns(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap(),
        );
        vec![
            (k1, Verdict::C1p { order: vec![0, 1, 2, 3] }),
            (
                k2,
                Verdict::NotC1p {
                    rejection: Rejection { site: RejectSite::Merge, atoms: vec![0, 1, 2] },
                    witness: TuckerWitness {
                        family: TuckerFamily::MI(1),
                        atom_rows: vec![0, 1, 2],
                        column_ids: vec![0, 1, 2],
                    },
                },
            ),
        ]
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let entries = sample_entries();
        let refs: Vec<(&[u8], &Verdict)> = entries.iter().map(|(k, v)| (k.as_slice(), v)).collect();
        let image = encode(&refs);
        let back = decode(&image).unwrap();
        assert_eq!(back, entries);
        // and through the atomic file path
        let dir = std::env::temp_dir().join(format!("c1p-snap-test-{}-rt", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write(&dir, &refs).unwrap();
        assert_eq!(load(&dir).unwrap().unwrap(), entries);
        assert!(!dir.join("cache.c1ps.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_is_a_cold_start_not_an_error() {
        let dir = std::env::temp_dir().join(format!("c1p-snap-test-{}-cold", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(load(&dir).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_and_bit_flip_is_refused_cleanly() {
        let entries = sample_entries();
        let refs: Vec<(&[u8], &Verdict)> = entries.iter().map(|(k, v)| (k.as_slice(), v)).collect();
        let image = encode(&refs);
        for cut in 0..image.len() {
            assert!(decode(&image[..cut]).is_err(), "truncation to {cut} must be refused");
        }
        for i in 0..image.len() {
            for bit in [1u8, 0x80] {
                let mut bad = image.clone();
                bad[i] ^= bit;
                // a flip anywhere breaks the whole-file checksum (or, for
                // flips inside the crc itself, the comparison)
                assert!(decode(&bad).is_err(), "bit flip at byte {i} must be refused");
            }
        }
    }

    #[test]
    fn unassigned_site_tag_is_refused() {
        // tag 1 names no rejection site; a checksum-valid image carrying
        // it is damage, not a verdict
        let entries = sample_entries();
        let refs: Vec<(&[u8], &Verdict)> = entries.iter().map(|(k, v)| (k.as_slice(), v)).collect();
        let image = encode(&refs);
        let mut body = image[..image.len() - 8].to_vec();
        // the reject entry is last: its site byte sits before the atom
        // count and its three atoms
        let at = body.len() - 4 - 3 * 4 - 1;
        assert_eq!(body[at], 2, "the sample rejects at Merge");
        body[at] = 1;
        let crc = fnv1a(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let damage = decode(&body).unwrap_err();
        assert!(damage.reason.contains("unknown rejection site 1"), "{}", damage.reason);
    }

    #[test]
    fn forged_checksum_still_hits_structural_checks() {
        // an attacker-grade corruption: flip bytes *and* fix the crc —
        // the structured decoders must still refuse
        let entries = sample_entries();
        let refs: Vec<(&[u8], &Verdict)> = entries.iter().map(|(k, v)| (k.as_slice(), v)).collect();
        let image = encode(&refs);
        let poison = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut body = image[..image.len() - 8].to_vec();
            mutate(&mut body);
            let crc = fnv1a(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            decode(&body)
        };
        // absurd entry count
        assert!(poison(&|b| b[5..9].copy_from_slice(&u32::MAX.to_le_bytes())).is_err());
        // key length running past the end
        assert!(poison(&|b| b[9..13].copy_from_slice(&0xffff_ffffu32.to_le_bytes())).is_err());
        // garbage key bytes behind a valid length
        assert!(poison(&|b| b[13] ^= 0xff).is_err());
    }
}
