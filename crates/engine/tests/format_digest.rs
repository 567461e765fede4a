//! Pinned format digest: one FNV-1a value over the bytes every encoder
//! writes and over what every decoder makes of damaged input.
//!
//! Folded, in order:
//!
//! * the encoded bytes of every `Msg` kind, a wire ensemble, both verdict
//!   kinds, a `snapshot::encode` image and a `WalWriter`-written log;
//! * the `Debug` output of `decode_msg`, `decode_ensemble`,
//!   `decode_verdict` and `split_record` on every truncation of each
//!   sample and on a seeded set of single-bit flips (with the decoded
//!   columns, or the re-encoded message, when a damaged sample still
//!   decodes);
//! * whether `snapshot::decode` and `wal::recover_file` accept each
//!   truncation and flip of their images (and, for the snapshot, each
//!   flip behind a recomputed checksum); when they accept, the entries,
//!   or the session, record count, torn-tail flag and stream hash.
//!
//! Damage reasons are not folded, so their text may change. A change
//! that claims "same bytes, same decode results" must leave [`PINNED`]
//! as it is. It runs in well under a second in a debug build.

use c1p_cert::TuckerWitness;
use c1p_core::{Config, RejectSite, Rejection};
use c1p_engine::proto::{decode_msg, encode_msg, ErrorCode, Msg, ShardHealth, WalHealth};
use c1p_engine::{snapshot, wal, Verdict};
use c1p_incremental::IncrementalSolver;
use c1p_matrix::io::{
    decode_ensemble, decode_verdict, encode_ensemble, encode_verdict, fig2_matrix, fnv1a,
    split_record, WireVerdict,
};
use c1p_matrix::tucker::TuckerFamily;
use c1p_matrix::Ensemble;
use std::fmt::Debug;

/// The digest of everything below.
const PINNED: u64 = 7_427_816_916_078_812_780;

/// Seeded single-bit flips per sample.
const FLIPS: usize = 64;

/// Everything folded, each item length-prefixed so adjacent items cannot
/// alias; the digest is `fnv1a` of the whole transcript.
#[derive(Default)]
struct Transcript(Vec<u8>);

impl Transcript {
    fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(&(b.len() as u64).to_le_bytes());
        self.0.extend_from_slice(b);
    }

    fn debug(&mut self, x: &impl Debug) {
        self.bytes(format!("{x:?}").as_bytes());
    }
}

/// Every prefix of `buf` (the whole sample last), then `FLIPS` seeded
/// single-bit flips; splitmix64 of `seed` picks each byte and bit.
fn damaged(buf: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..=buf.len()).map(|cut| buf[..cut].to_vec()).collect();
    let mut s = seed;
    for _ in 0..FLIPS {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let mut bad = buf.to_vec();
        bad[(z >> 3) as usize % buf.len()] ^= 1 << (z & 7);
        out.push(bad);
    }
    out
}

fn sample_ensemble() -> Ensemble {
    Ensemble::from_columns(300, vec![vec![], vec![0, 1, 2], vec![5, 129, 299], vec![299]]).unwrap()
}

fn sample_verdicts() -> [WireVerdict; 2] {
    [
        WireVerdict::Accept { order: vec![3, 0, 200, 1, 70_000] },
        WireVerdict::Reject {
            family: TuckerFamily::MIII(2),
            atom_rows: vec![1, 4, 9, 130],
            column_ids: vec![0, 7, 300],
        },
    ]
}

fn sample_messages() -> Vec<Msg> {
    let [accept, reject] = sample_verdicts();
    let health = |live, degraded| ShardHealth { live, degraded };
    vec![
        Msg::Solve { id: 7, ens: sample_ensemble() },
        Msg::Verdict { id: 8, verdict: accept },
        Msg::Verdict { id: u64::MAX, verdict: reject.clone() },
        Msg::Error { id: 3, code: ErrorCode::Overloaded, message: "queue full".into() },
        Msg::GetStats,
        Msg::Stats { json: "{\"hits\": 3}".into() },
        Msg::OpenSession { id: 9, n_atoms: 1 << 14 },
        Msg::PushAtoms { id: 10, session: 3, delta: fig2_matrix() },
        Msg::SealSession { id: 11, session: 3 },
        Msg::SessionVerdict { id: 12, session: 3, verdict: reject },
        Msg::GetMetrics,
        Msg::Metrics { text: "c1pd_cache_hits_total 3\n".into() },
        Msg::Ping { id: 15 },
        Msg::Pong {
            id: 16,
            wal: WalHealth::Writable,
            shards: vec![health(true, false), health(false, true), health(true, true)],
        },
        Msg::QuerySession { id: 17, session: 5 },
        Msg::SessionStatus { id: 18, session: 3, stream_hash: 0xdead_beef_cafe_f00d, columns: 42 },
        Msg::GetTraces,
        Msg::Traces { jsonl: "{\"trace_id\":\"00000000000000ff\",\"spans\":[]}\n".into() },
    ]
}

fn sample_snapshot() -> Vec<u8> {
    let k1 = encode_ensemble(&Ensemble::from_columns(4, vec![vec![0, 1], vec![1, 2]]).unwrap());
    let k2 = encode_ensemble(
        &Ensemble::from_columns(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap(),
    );
    let accept = Verdict::C1p { order: vec![0, 1, 2, 3] };
    let reject = Verdict::NotC1p {
        rejection: Rejection { site: RejectSite::Merge, atoms: vec![0, 1, 2] },
        witness: TuckerWitness {
            family: TuckerFamily::MI(1),
            atom_rows: vec![0, 1, 2],
            column_ids: vec![0, 1, 2],
        },
    };
    snapshot::encode(&[(k1.as_slice(), &accept), (k2.as_slice(), &reject)])
}

/// A three-push log of session 7 over 8 atoms, as `WalWriter` writes it.
fn sample_log(dir: &std::path::Path) -> Vec<u8> {
    let mut inc = IncrementalSolver::new(8);
    let mut w = wal::WalWriter::create(dir, 7, 8).unwrap();
    for cols in [vec![vec![0, 1], vec![1, 2]], vec![vec![4, 5], vec![5, 6, 7]], vec![vec![2, 3]]] {
        let delta = Ensemble::from_columns(8, cols).unwrap();
        inc.push(&delta).unwrap();
        w.append(&delta, inc.stream_hash()).unwrap();
    }
    std::fs::read(wal::wal_path(dir, 7)).unwrap()
}

#[test]
fn encodings_and_decodes_keep_their_pinned_digest() {
    let dir = std::env::temp_dir().join(format!("c1p-format-digest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut t = Transcript::default();

    // (a) the encoded bytes
    let messages: Vec<Vec<u8>> = sample_messages().iter().map(encode_msg).collect();
    let ensemble = encode_ensemble(&sample_ensemble());
    let verdicts = sample_verdicts().map(|v| encode_verdict(&v));
    let image = sample_snapshot();
    let log = sample_log(&dir);
    for sample in messages.iter().chain([&ensemble]).chain(&verdicts).chain([&image, &log]) {
        t.bytes(sample);
    }

    // (b) what each decoder makes of every truncation and flip
    for (i, msg) in messages.iter().enumerate() {
        for bad in damaged(msg, i as u64) {
            let got = decode_msg(&bad);
            t.debug(&got);
            if let Ok(m) = got {
                t.bytes(&encode_msg(&m));
            }
        }
    }
    for bad in damaged(&ensemble, 100) {
        let got = decode_ensemble(&bad);
        t.debug(&got);
        if let Ok(ens) = got {
            t.debug(&ens.columns());
        }
    }
    for (i, v) in verdicts.iter().enumerate() {
        for bad in damaged(v, 200 + i as u64) {
            t.debug(&decode_verdict(&bad));
        }
    }
    let records = &log[wal::HEADER_LEN..];
    for bad in damaged(records, 300) {
        let mut at = 0;
        loop {
            let got = split_record(&bad, at);
            t.debug(&got);
            match got {
                Ok(rec) if at + rec.consumed < bad.len() => at += rec.consumed,
                _ => break,
            }
        }
    }

    // (c) which damaged snapshot images and logs are accepted, and as what
    let body = &image[..image.len() - 8];
    let forged = damaged(body, 400).into_iter().map(|mut b| {
        let crc = fnv1a(&b);
        b.extend_from_slice(&crc.to_le_bytes());
        b
    });
    for bad in damaged(&image, 401).into_iter().chain(forged) {
        t.debug(&snapshot::decode(&bad).ok());
    }
    let path = wal::wal_path(&dir, 7);
    for bad in damaged(&log, 500) {
        std::fs::write(&path, &bad).unwrap();
        let got = wal::recover_file(&path, &Config::default(), usize::MAX);
        t.debug(
            &got.ok().map(|r| (r.session, r.records, r.truncated_tail, r.solver.stream_hash())),
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let digest = fnv1a(&t.0);
    assert_eq!(digest, PINNED, "format digest {digest} over {} transcript bytes", t.0.len());
}
