//! The durability contract at the `Engine` level (DESIGN.md §10): boot
//! recovery rebuilds live sessions from their write-ahead logs and seals
//! them bit-identical to a one-shot solve; idle-evicted sessions resume
//! lazily from disk; snapshots warm-start the result cache; and corrupted
//! durable state — torn WAL tails, bit-flipped records, damaged snapshot
//! files — is truncated or quarantined through recovery, never misparsed
//! and never a panic.

use c1p_cert::solve_certified;
use c1p_core::Config;
use c1p_engine::{snapshot, wal, Engine, EngineConfig, EngineError, Verdict};
use c1p_incremental::{fold_stream_hash, initial_stream_hash, IncrementalSolver};
use c1p_matrix::generate::{append_stream, append_stream_reject};
use c1p_matrix::io::split_record;
use c1p_matrix::{Atom, Ensemble};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique throwaway durability directory per call.
fn tdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "c1p-durability-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("test dir");
    d
}

fn durable_cfg(dir: &std::path::Path) -> EngineConfig {
    EngineConfig { threads: 2, wal_dir: Some(dir.to_path_buf()), ..EngineConfig::default() }
}

/// The canonical expected order for an accepted column set.
fn one_shot_order(n: usize, cols: &[Vec<Atom>]) -> Vec<Atom> {
    solve_certified(&Ensemble::from_columns(n, cols.to_vec()).unwrap()).expect("accept-only stream")
}

#[test]
fn boot_recovery_seals_bit_identical_to_one_shot() {
    let dir = tdir("boot");
    let stream = append_stream(80, 5, 6, 7);
    let split = 3; // pushes 0..3 before the "crash", the rest after

    // first process generation: open, push a prefix, vanish unsealed
    let id = {
        let engine = Engine::new(durable_cfg(&dir));
        let id = engine.open_session(stream.n_atoms).unwrap();
        for k in 0..split {
            let v = engine.session_push(id, &stream.push_ensemble(k)).unwrap();
            assert!(v.is_c1p(), "seeded stream is accept-only");
        }
        assert!(wal::wal_path(&dir, id).exists(), "accepted pushes are logged");
        id
    };

    // second generation: the session is back at boot, continues, seals
    let engine = Engine::new(durable_cfg(&dir));
    let stats = engine.stats();
    assert_eq!(stats.recovered_sessions, 1, "boot replays the WAL");
    assert_eq!(stats.quarantined_wals, 0);
    assert_eq!(stats.open_sessions, 1);
    assert!(stats.recovery_us > 0, "the recovery's wall time is counted");
    for k in split..stream.pushes.len() {
        engine.session_push(id, &stream.push_ensemble(k)).unwrap();
    }
    let sealed = engine.seal_session(id).unwrap();
    let cols: Vec<Vec<Atom>> = stream.pushes.iter().flatten().cloned().collect();
    match sealed {
        Verdict::C1p { order } => {
            assert_eq!(order, one_shot_order(stream.n_atoms, &cols), "seal == one-shot")
        }
        v => panic!("accept-only stream sealed as {v:?}"),
    }
    assert!(!wal::wal_path(&dir, id).exists(), "seal retires the WAL");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_evicted_sessions_resume_lazily_from_their_wal() {
    let dir = tdir("resume");
    let cfg = EngineConfig { session_idle_ms: 1, ..durable_cfg(&dir) };
    let engine = Engine::new(cfg);
    let stream = append_stream(64, 4, 4, 11);
    let id = engine.open_session(stream.n_atoms).unwrap();
    engine.session_push(id, &stream.push_ensemble(0)).unwrap();

    // the idle sweep (which runs on every stats snapshot) evicts it
    std::thread::sleep(std::time::Duration::from_millis(25));
    let stats = engine.stats();
    assert_eq!(stats.open_sessions, 0, "idle session evicted");
    assert!(stats.sessions_evicted >= 1);
    assert!(wal::wal_path(&dir, id).exists(), "eviction keeps the log");

    // the next push resumes the session from disk instead of NoSession
    for k in 1..stream.pushes.len() {
        engine.session_push(id, &stream.push_ensemble(k)).unwrap();
    }
    // >= 1, not == 1: at a 1 ms idle budget the session may be evicted
    // and lazily resumed again between any two of the later pushes
    assert!(engine.stats().recovered_sessions >= 1, "lazy resume counted");
    let cols: Vec<Vec<Atom>> = stream.pushes.iter().flatten().cloned().collect();
    match engine.seal_session(id).unwrap() {
        Verdict::C1p { order } => {
            assert_eq!(order, one_shot_order(stream.n_atoms, &cols))
        }
        v => panic!("accept-only stream sealed as {v:?}"),
    }
    // a genuinely unknown id still refuses (no log to resume from)
    assert!(matches!(
        engine.session_push(id + 1000, &stream.push_ensemble(0)),
        Err(EngineError::NoSuchSession { .. })
    ));
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_warm_starts_the_restarted_cache() {
    let dir = tdir("warm");
    let ens = append_stream(72, 4, 3, 13).final_ensemble();
    {
        let engine = Engine::new(durable_cfg(&dir));
        engine.solve(&ens).unwrap();
        engine.flush_durability();
        assert!(engine.stats().snapshot_writes >= 1);
    }
    let engine = Engine::new(durable_cfg(&dir));
    let warm = engine.solve(&ens).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.hits, 1, "first post-restart solve is a cache hit");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.warm_start_hits, 1, "and the hit is attributed to the snapshot");
    // the warmed verdict is the real one, not just *a* cached value
    let cold = Engine::new(EngineConfig { threads: 2, ..EngineConfig::default() });
    assert_eq!(warm, cold.solve(&ens).unwrap());
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds one unsealed-session WAL on disk and returns
/// `(wal bytes, session id, record end offsets, n_atoms)`.
fn seeded_wal(
    dir: &std::path::Path,
    pushes: usize,
    seed: u64,
) -> (Vec<u8>, u64, Vec<usize>, usize) {
    let stream = append_stream(60, 4, pushes, seed);
    let engine = Engine::new(durable_cfg(dir));
    let id = engine.open_session(stream.n_atoms).unwrap();
    for k in 0..pushes {
        engine.session_push(id, &stream.push_ensemble(k)).unwrap();
    }
    drop(engine);
    let bytes = std::fs::read(wal::wal_path(dir, id)).unwrap();
    let mut ends = Vec::new();
    let mut at = wal::HEADER_LEN;
    while at < bytes.len() {
        at += split_record(&bytes, at).unwrap().consumed;
        ends.push(at);
    }
    assert_eq!(ends.len(), pushes, "one record per accepted push");
    (bytes, id, ends, stream.n_atoms)
}

#[test]
fn torn_wal_tails_recover_the_surviving_prefix() {
    let scratch = tdir("torn-src");
    let (bytes, id, ends, n_atoms) = seeded_wal(&scratch, 4, 17);
    let stream = append_stream(60, 4, 4, 17); // same seed → same pushes

    // seeded cuts: every record boundary, plus points strictly inside
    // records (mid-payload tears) and inside the trailing checksum
    let mut cuts: Vec<usize> = ends.clone();
    for w in ends.windows(2) {
        cuts.push((w[0] + w[1]) / 2);
        cuts.push(w[1] - 3);
    }
    cuts.push(wal::HEADER_LEN + 1);
    for cut in cuts {
        let dir = tdir("torn");
        std::fs::write(wal::wal_path(&dir, id), &bytes[..cut]).unwrap();
        let engine = Engine::new(durable_cfg(&dir));
        let stats = engine.stats();
        assert_eq!(stats.quarantined_wals, 0, "cut {cut}: a tear is not damage");
        assert_eq!(stats.recovered_sessions, 1, "cut {cut}");
        // exactly the records before the tear survive — never a misparse
        let survivors = ends.iter().filter(|&&e| e <= cut).count();
        let expect_len = ends.get(survivors.wrapping_sub(1)).copied().unwrap_or(wal::HEADER_LEN);
        let on_disk = std::fs::metadata(wal::wal_path(&dir, id)).unwrap().len() as usize;
        assert_eq!(on_disk, expect_len, "cut {cut}: truncated to the last good record");
        // the recovered session continues and seals like a one-shot of
        // the surviving pushes plus everything re-sent after the tear
        for k in survivors..stream.pushes.len() {
            engine.session_push(id, &stream.push_ensemble(k)).unwrap();
        }
        let cols: Vec<Vec<Atom>> = stream.pushes.iter().flatten().cloned().collect();
        match engine.seal_session(id).unwrap() {
            Verdict::C1p { order } => assert_eq!(order, one_shot_order(n_atoms, &cols)),
            v => panic!("cut {cut}: sealed as {v:?}"),
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // a file shorter than its header is damage, not a tear
    let dir = tdir("torn-hdr");
    std::fs::write(wal::wal_path(&dir, id), &bytes[..wal::HEADER_LEN / 2]).unwrap();
    let engine = Engine::new(durable_cfg(&dir));
    assert_eq!(engine.stats().quarantined_wals, 1);
    assert_eq!(engine.stats().recovered_sessions, 0);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn bit_flipped_wal_records_are_quarantined_never_replayed() {
    let scratch = tdir("flip-src");
    let (bytes, id, ends, _) = seeded_wal(&scratch, 3, 19);

    // flips inside the first record's payload/aux/crc: structurally
    // complete with data after it, so recovery must classify damage
    let r0 = (wal::HEADER_LEN + 4, ends[0]);
    // and flips inside the header's checksummed bytes
    let hdr = (0usize, wal::HEADER_LEN);
    let mut probes = Vec::new();
    for (lo, hi) in [r0, hdr] {
        let span = hi - lo;
        for i in 0..6 {
            probes.push(lo + (i * span.max(1)) / 6);
        }
    }
    for at in probes {
        for bit in [0x01u8, 0x80] {
            let dir = tdir("flip");
            let mut m = bytes.clone();
            m[at] ^= bit;
            std::fs::write(wal::wal_path(&dir, id), &m).unwrap();
            let engine = Engine::new(durable_cfg(&dir));
            let stats = engine.stats();
            assert_eq!(stats.quarantined_wals, 1, "flip at {at}: damage is quarantined");
            assert_eq!(stats.recovered_sessions, 0, "flip at {at}");
            // the damaged log is preserved for forensics, renamed aside
            let q = wal::wal_path(&dir, id).with_extension("wal.quarantine");
            assert!(q.exists(), "flip at {at}: quarantine file kept");
            // the session is gone (not silently half-recovered) and the
            // engine still serves
            assert!(matches!(
                engine.session_push(id, &append_stream(60, 4, 3, 19).push_ensemble(0)),
                Err(EngineError::NoSuchSession { .. })
            ));
            engine.solve(&append_stream(32, 2, 2, 5).final_ensemble()).unwrap();
            drop(engine);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn damaged_snapshots_are_quarantined_and_the_cache_starts_cold() {
    let scratch = tdir("snap-src");
    let ens = append_stream(72, 4, 3, 23).final_ensemble();
    {
        let engine = Engine::new(durable_cfg(&scratch));
        engine.solve(&ens).unwrap();
        engine.flush_durability();
    }
    let pristine = std::fs::read(snapshot::snapshot_path(&scratch)).unwrap();

    // truncations and seeded bit flips, each through a full boot
    let mut mutants: Vec<Vec<u8>> = Vec::new();
    for cut in [0, 1, pristine.len() / 2, pristine.len() - 1] {
        mutants.push(pristine[..cut].to_vec());
    }
    for i in 0..8 {
        let mut m = pristine.clone();
        let at = (i * pristine.len()) / 8;
        m[at] ^= if i % 2 == 0 { 0x01 } else { 0x80 };
        mutants.push(m);
    }
    for (i, mutant) in mutants.iter().enumerate() {
        let dir = tdir("snap");
        std::fs::write(snapshot::snapshot_path(&dir), mutant).unwrap();
        let engine = Engine::new(durable_cfg(&dir));
        assert_eq!(engine.stats().quarantined_wals, 1, "mutant {i}: damage counted");
        assert!(
            snapshot::snapshot_path(&dir).with_extension("c1ps.quarantine").exists(),
            "mutant {i}: damaged snapshot kept aside"
        );
        // no warm state was trusted: the solve is cold but still correct
        let v = engine.solve(&ens).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.warm_start_hits, 0, "mutant {i}: nothing warm to hit");
        assert_eq!(stats.misses, 1, "mutant {i}: cold solve");
        let cold = Engine::new(EngineConfig { threads: 2, ..EngineConfig::default() });
        assert_eq!(v, cold.solve(&ens).unwrap(), "mutant {i}: verdict unaffected");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Writes a session log straight through [`wal::WalWriter`]: one record
/// per delta, each carrying the stream hash folded over every delta so
/// far — the chain an honest session writes, whether or not the deltas
/// would actually accept. Returns the file's bytes and each record's end
/// offset.
fn write_log(
    dir: &std::path::Path,
    id: u64,
    n_atoms: usize,
    deltas: &[Ensemble],
) -> (Vec<u8>, Vec<usize>) {
    let mut w = wal::WalWriter::create(dir, id, n_atoms as u64).unwrap();
    let mut hash = initial_stream_hash(n_atoms);
    let mut ends = Vec::new();
    for delta in deltas {
        hash = fold_stream_hash(hash, delta);
        w.append(delta, hash).unwrap();
        ends.push(std::fs::metadata(wal::wal_path(dir, id)).unwrap().len() as usize);
    }
    (std::fs::read(wal::wal_path(dir, id)).unwrap(), ends)
}

#[test]
fn one_solve_recovery_equals_per_record_replay_at_every_boundary() {
    let dir = tdir("prefix");
    let stream = append_stream(256, 4, 32, 29); // multi-block: many components
    let deltas: Vec<Ensemble> = (0..stream.pushes.len()).map(|k| stream.push_ensemble(k)).collect();
    let (bytes, ends) = write_log(&dir, 1, stream.n_atoms, &deltas);
    let path = wal::wal_path(&dir, 1);
    // the reference: one replay_accepted per logged record
    let mut per_record = IncrementalSolver::new(stream.n_atoms);
    for k in 0..=deltas.len() {
        if k > 0 {
            let hash = fold_stream_hash(per_record.stream_hash(), &deltas[k - 1]);
            per_record.replay_accepted(deltas[k - 1].clone(), hash).unwrap();
        }
        let cut = if k == 0 { wal::HEADER_LEN } else { ends[k - 1] };
        for par_cutoff in [0, usize::MAX] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let rec = wal::recover_file(&path, &Config::default(), par_cutoff).unwrap();
            let at = format!("{k} records, par_cutoff {par_cutoff}");
            assert_eq!(rec.records, k as u64, "{at}");
            assert!(!rec.truncated_tail, "{at}");
            assert_eq!(rec.solver.order(), per_record.order(), "{at}: order");
            assert_eq!(rec.solver.stream_hash(), per_record.stream_hash(), "{at}: hash");
            assert_eq!(rec.solver.ensemble(), per_record.ensemble(), "{at}: ensemble");
            assert_eq!(rec.solver.n_components(), per_record.n_components(), "{at}: components");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forged_logs_with_a_rejecting_record_are_quarantined_at_that_record() {
    // valid checksums and a valid hash chain around a Tucker obstruction:
    // only the solve can tell, and the reason names the first record
    // whose prefix rejects
    let forged = (0u64..)
        .map(|seed| (seed, append_stream_reject(128, 4, 9, seed)))
        .filter(|(_, (stream, bad, _))| *bad > 0 && bad + 1 < stream.pushes.len())
        .take(4);
    for (seed, (stream, bad, _)) in forged {
        let deltas: Vec<Ensemble> =
            (0..stream.pushes.len()).map(|k| stream.push_ensemble(k)).collect();
        let dir = tdir("forged");
        let (_, ends) = write_log(&dir, 5, stream.n_atoms, &deltas);
        let bad_at = ends[bad - 1]; // record `bad` starts where its predecessor ends
        let damage = match wal::recover_file(&wal::wal_path(&dir, 5), &Config::default(), 2048) {
            Ok(_) => panic!("seed {seed}: a forged log recovered"),
            Err(damage) => damage,
        };
        assert_eq!(
            damage.reason,
            format!("record at byte {bad_at}: a logged push rejects on replay"),
            "seed {seed}"
        );
        // ... and a boot quarantines it instead of resuming the session
        let engine = Engine::new(durable_cfg(&dir));
        let stats = engine.stats();
        assert_eq!(stats.quarantined_wals, 1, "seed {seed}");
        assert_eq!(stats.recovered_sessions, 0, "seed {seed}");
        assert!(wal::wal_path(&dir, 5).with_extension("wal.quarantine").exists());
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
