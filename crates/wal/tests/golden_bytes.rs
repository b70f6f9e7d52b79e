//! Golden bytes of the write path: a fixed script through every way a
//! frame can be encoded, sealed and flushed must leave segment and base
//! files whose digests equal a fixture recorded before the in-place encode
//! and the sliced CRC existed (at the parent of the commit that introduced
//! them). Release builds skip the log's flush-time re-walk, so there this
//! test and `sealing_model.rs` are the only checks on sealing.

use std::fs;
use std::io::Read as _;
use std::path::{Path, PathBuf};

use mqpi_obs::Obs;
use mqpi_wal::{Wal, WalKnobs, WalRecord};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mqpi-wal-golden-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every file in `dir`: name, length and contents, in name order.
fn dir_digest(dir: &Path) -> u64 {
    let mut names: Vec<_> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    names.sort();
    let mut h = FNV_OFFSET;
    for name in names {
        let bytes = fs::read(dir.join(&name)).expect("read log file");
        h = fnv(h, name.to_string_lossy().as_bytes());
        h = fnv(h, &(bytes.len() as u64).to_le_bytes());
        h = fnv(h, &bytes);
    }
    h
}

/// One record of each of the twelve variants, with payloads that cover
/// the CRC's 8-byte steps and its tail (a 301-byte note, a 1-byte pump).
fn all_variants() -> Vec<WalRecord> {
    vec![
        WalRecord::RegisterSession,
        WalRecord::CloseSession { session: 3 },
        WalRecord::Submit {
            session: 7,
            cost: 120.5,
            weight: f64::NAN,
        },
        WalRecord::Subscribe {
            session: 7,
            query: 1,
        },
        WalRecord::Abort { query: u64::MAX },
        WalRecord::Reweight {
            query: 1,
            weight: 2.0,
        },
        WalRecord::Refine {
            query: 1,
            cost: -0.0,
        },
        WalRecord::SetRate { rate: 32.0 },
        WalRecord::Advance { dt: 0.25 },
        WalRecord::Pump,
        WalRecord::Mark {
            iter: 3,
            digest: 0xDEAD_BEEF_0BAD_F00D,
        },
        WalRecord::Note {
            bytes: (0..301u32).map(|i| (i * 7 + 3) as u8).collect(),
        },
    ]
}

#[test]
fn write_path_bytes_match_the_recorded_fixture() {
    let dir = tmpdir("script");
    let knobs = WalKnobs {
        // The eighth buffered record makes its commit flush by policy;
        // every other flush in the script is explicit.
        flush_every_n: 8,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    let (mut wal, rec) = Wal::open(&dir, knobs, Obs::disabled()).expect("open fresh log");
    assert!(!rec.resumed);
    let variants = all_variants();
    assert_eq!(variants.len(), 12);

    // Single-frame batches, every variant.
    for r in &variants {
        wal.append(r);
        wal.commit(0.0).expect("commit");
    }
    // Three-frame batches.
    for batch in variants.chunks_exact(3).take(2) {
        for r in batch {
            wal.append(r);
        }
        wal.commit(0.0).expect("commit");
    }
    // append -> flush -> commit: the frame reaches the disk sealed but
    // uncommitted, and the commit that follows has nothing to flag.
    wal.append(&variants[11]);
    wal.flush(0.0).expect("flush");
    wal.commit(0.0).expect("commit");
    // The next batch's commit frame adopts it.
    wal.append(&variants[2]);
    wal.commit(0.0).expect("commit");
    // Commits with nothing appended.
    wal.commit(0.0).expect("commit");
    wal.commit(0.0).expect("commit");
    wal.flush(0.0).expect("flush");
    let before_compaction = dir_digest(&dir);

    // Compaction with an open two-frame batch: it is committed and flushed
    // into the old segment, which the compaction then unlinks. A handle
    // opened beforehand still reads it.
    wal.append(&variants[6]);
    wal.append(&variants[10]);
    let seg = fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .expect("one segment")
        .path();
    let mut retired = fs::File::open(&seg).expect("open segment");
    wal.compact(b"owner checkpoint bytes", 0.0)
        .expect("compact");
    assert!(!seg.exists(), "compaction retires the old segment");
    let mut retired_bytes = Vec::new();
    retired
        .read_to_end(&mut retired_bytes)
        .expect("read retired segment");
    let retired_segment = fnv(FNV_OFFSET, &retired_bytes);
    let after_compaction = dir_digest(&dir);

    // A committed frame and an open one; `close` commits and flushes.
    wal.append(&variants[8]);
    wal.commit(0.0).expect("commit");
    wal.append(&variants[9]);
    wal.close(0.0).expect("close");
    let after_close = dir_digest(&dir);

    let got = [
        before_compaction,
        retired_segment,
        after_compaction,
        after_close,
    ];
    println!("golden digests: {got:#018x?}");
    assert_eq!(got, FIXTURE);

    // And the log reads back what the script wrote after the base.
    let (_, rec) = Wal::open(&dir, knobs, Obs::disabled()).expect("reopen");
    assert_eq!(rec.base.as_deref(), Some(&b"owner checkpoint bytes"[..]));
    assert_eq!(rec.base_through, 22);
    assert_eq!(
        rec.records,
        vec![(23, variants[8].clone()), (24, variants[9].clone())]
    );
    let _ = fs::remove_dir_all(&dir);
}

/// First recorded by running this script at the parent of the in-place
/// encode and the sliced CRC (bytewise CRC, `Enc`-per-record append,
/// checksum at `append` and again at `commit`).
///
/// Re-blessed once, in a commit of its own, when the script stopped writing
/// a record under tag 12 (retired: nothing outside tests wrote one). The
/// script then has one frame fewer in each pass, and the compaction's open
/// batch takes the `Refine` record in that frame's place. The digests were
/// recorded on the log code as it stood before tag 12 was removed, so they
/// certify that the write path itself did not move. Old → new:
///
/// - before compaction: `0x7254_4374_7be1_28ad` → `0x7413_f9f6_5226_893a`
/// - retired segment: `0xf40c_5a58_f05f_a17a` → `0xf3e8_85d5_dea5_c577`
/// - after compaction: `0x1bb2_2118_39f3_a9b8` → `0xe283_53cc_dccf_41c8`
/// - after close: `0x9c5a_9621_74b1_9072` → `0x386c_56ec_a3a1_63ed`
///
/// Re-blessed again, in a commit of its own, for checkpoint format
/// version 4: the base the compaction writes is a `ckpt` container, whose
/// version stamp moved from 3 to 4. The segments did not move (the first
/// two digests hold). The parent's code with only `FORMAT_VERSION` at 4
/// records the same digests. Old → new:
///
/// - after compaction: `0xe283_53cc_dccf_41c8` → `0x59d1_6404_4b20_736b`
/// - after close: `0x386c_56ec_a3a1_63ed` → `0x02eb_3107_3f82_5cfa`
const FIXTURE: [u64; 4] = [
    0x7413_f9f6_5226_893a,
    0xf3e8_85d5_dea5_c577,
    0x59d1_6404_4b20_736b,
    0x02eb_3107_3f82_5cfa,
];
