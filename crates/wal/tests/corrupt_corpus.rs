//! 300-mutation corrupt-segment corpus: bit flips, truncated frames,
//! duplicated frames, spliced segment boundaries, and random span
//! overwrites. Every mutant must be either rejected with a typed error or
//! cleanly truncated to a committed prefix of the original log — never a
//! panic, and never a record the original run didn't write.
//!
//! Companion to the checkpoint corpus in `crates/bench/tests/crash_resume.rs`,
//! aimed at the log-segment format instead of snapshot containers. A frame
//! whose CRC holds but whose record tag is unknown (the retired tag 12
//! among them) is corrupt too, and ends the log where it stands.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mqpi_ckpt::{CkptError, Wire};
use mqpi_obs::Obs;
use mqpi_wal::{Wal, WalKnobs, WalRecord};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mqpi-wal-corpus-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const SEGMENT_HEADER: usize = 16;

/// A varied, decodable record for sequence position `i`.
fn record_for(i: u64) -> WalRecord {
    match i % 5 {
        0 => WalRecord::Submit {
            session: i << 32,
            cost: 10.0 + i as f64,
            weight: 1.0,
        },
        1 => WalRecord::Advance { dt: 0.125 },
        2 => WalRecord::Pump,
        3 => WalRecord::Mark {
            iter: i,
            digest: splitmix64(i),
        },
        _ => WalRecord::Reweight {
            query: i,
            weight: 2.0,
        },
    }
}

/// Build one pristine, fully committed + flushed single-segment log and
/// return (segment file name, segment bytes, records in order).
fn pristine() -> (String, Vec<u8>, Vec<(u64, WalRecord)>) {
    let dir = tmpdir("pristine");
    let knobs = WalKnobs {
        flush_every_n: 1,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    let (mut wal, rec) = Wal::open(&dir, knobs, Obs::disabled()).expect("open pristine log");
    assert!(!rec.resumed);
    let mut records = Vec::new();
    for i in 1..=60u64 {
        let r = record_for(i);
        let seq = wal.append(&r);
        records.push((seq, r));
        wal.commit(i as f64 * 0.01).expect("commit");
    }
    wal.close(1.0).expect("close");
    let seg = fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .expect("one segment");
    let name = seg.file_name().to_string_lossy().into_owned();
    let bytes = fs::read(seg.path()).expect("read segment");
    let _ = fs::remove_dir_all(&dir);
    (name, bytes, records)
}

/// Byte ranges of each frame in a pristine segment (walked via the `len`
/// prefix; only valid on uncorrupted input).
fn frame_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut off = SEGMENT_HEADER;
    while off + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        let total = 4 + 1 + 8 + len + 4;
        if off + total > bytes.len() {
            break;
        }
        out.push((off, off + total));
        off += total;
    }
    out
}

/// Wall-time budget for one mutant (open, verify, reopen): a corrupt
/// length must end the scan where the bytes run out, not after looping or
/// allocating in proportion to the number it claims.
const CASE_BUDGET: Duration = Duration::from_secs(2);

#[test]
fn corrupt_segment_corpus_never_panics_and_never_invents_records() {
    let (name, bytes, records) = pristine();
    let frames = frame_ranges(&bytes);
    assert_eq!(
        frames.len(),
        records.len(),
        "frame walk must see every record"
    );
    let knobs = WalKnobs::default();

    let mut recovered_some = 0usize;
    let mut truncated_some = 0usize;
    let mut rejected = 0usize;

    for case in 0..300u64 {
        let r = splitmix64(0xBAD_5EC ^ case);
        let mut m = bytes.clone();
        match case % 5 {
            // Single bit flip anywhere (header included).
            0 => {
                let pos = (r as usize) % m.len();
                m[pos] ^= 1 << ((r >> 17) % 8);
            }
            // Torn tail: truncate at an arbitrary byte length.
            1 => {
                let keep = (r as usize) % m.len();
                m.truncate(keep);
            }
            // Duplicated frame: a committed frame re-appended verbatim at
            // the end (its stale sequence number must stop the scan).
            2 => {
                let (a, b) = frames[(r as usize) % frames.len()];
                let dup = m[a..b].to_vec();
                m.extend_from_slice(&dup);
            }
            // Spliced segment boundary: the log cut at one frame boundary
            // and glued to a suffix starting at a different one.
            3 => {
                let cut = frames[(r as usize) % frames.len()].0;
                let from = frames[((r >> 13) as usize) % frames.len()].0;
                let tail = m[from..].to_vec();
                m.truncate(cut);
                m.extend_from_slice(&tail);
            }
            // 8-byte garbage span (may hit the header, a length prefix, a
            // payload, or a CRC).
            _ => {
                let pos = (r as usize) % m.len();
                let end = (pos + 8).min(m.len());
                let mut g = splitmix64(r);
                for slot in &mut m[pos..end] {
                    *slot = (g & 0xFF) as u8;
                    g >>= 8;
                }
            }
        }

        let dir = tmpdir(&format!("case-{case}"));
        fs::write(dir.join(&name), &m).unwrap();
        let started = Instant::now();
        match Wal::open(&dir, knobs, Obs::disabled()) {
            Err(_) => rejected += 1,
            Ok((wal, rec)) => {
                // Whatever survived must be a committed prefix-consistent
                // subsequence of the original: strictly increasing seqs,
                // every record bit-identical to what that seq held.
                let mut prev = 0u64;
                for (seq, got) in &rec.records {
                    assert!(*seq > prev, "case {case}: seqs must increase");
                    prev = *seq;
                    let want = &records[*seq as usize - 1];
                    assert_eq!(want.0, *seq);
                    assert_eq!(
                        &want.1, got,
                        "case {case}: recovered record differs from the original at seq {seq}"
                    );
                }
                if !rec.records.is_empty() {
                    recovered_some += 1;
                }
                if rec.truncated_bytes > 0 {
                    truncated_some += 1;
                }
                // Recovery is idempotent: a second open finds a clean log
                // with nothing further to truncate.
                let n = rec.records.len();
                drop(wal);
                let (_, rec2) = Wal::open(&dir, knobs, Obs::disabled())
                    .expect("post-recovery log must reopen cleanly");
                assert_eq!(
                    rec2.truncated_bytes, 0,
                    "case {case}: recovery must converge"
                );
                assert_eq!(rec2.records.len(), n, "case {case}: reopen must agree");
            }
        }
        assert!(
            started.elapsed() < CASE_BUDGET,
            "case {case} took {:?}",
            started.elapsed()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    // The corpus must exercise all three outcomes, not collapse into one.
    assert!(recovered_some > 50, "too few recoveries: {recovered_some}");
    assert!(
        truncated_some > 50,
        "too few tail truncations: {truncated_some}"
    );
    assert!(
        recovered_some + rejected > 0,
        "corpus produced no classified outcomes"
    );
}

/// Tags no record has. 12 is retired: it once carried a simulator feed
/// event, and nothing ever wrote one.
const UNKNOWN_TAGS: [u8; 4] = [0, 12, 14, 200];

#[test]
fn unknown_record_tags_are_corrupt() {
    // A record under the retired tag, in the shape it used to have: a
    // variant tag, a time, an id and two numbers.
    let mut retired = vec![12, 3];
    for word in [1.5f64.to_bits(), 9, 1.0f64.to_bits(), 0.0f64.to_bits()] {
        retired.extend_from_slice(&word.to_le_bytes());
    }
    let payloads = UNKNOWN_TAGS.iter().map(|&t| vec![t]).chain([retired]);
    for payload in payloads {
        assert!(
            matches!(
                WalRecord::from_bytes(&payload, "wal record"),
                Err(CkptError::Corrupt(_))
            ),
            "payload {payload:?} must be corrupt"
        );
    }

    // The same tags inside a segment, in a frame whose CRC holds: the log
    // ends before that frame, and reopens clean.
    let (name, bytes, records) = pristine();
    let frames = frame_ranges(&bytes);
    let k = 20;
    let (start, end) = frames[k];
    let tag_at = start + 4 + 1 + 8;
    for tag in UNKNOWN_TAGS {
        let mut m = bytes.clone();
        m[tag_at] = tag;
        let crc = mqpi_ckpt::crc32(&m[start..end - 4]);
        m[end - 4..end].copy_from_slice(&crc.to_le_bytes());
        let dir = tmpdir(&format!("tag-{tag}"));
        fs::write(dir.join(&name), &m).unwrap();
        let (wal, rec) = Wal::open(&dir, WalKnobs::default(), Obs::disabled())
            .expect("a bad frame ends the log, it does not reject it");
        assert_eq!(rec.records, records[..k], "tag {tag}");
        assert!(rec.truncated_bytes > 0, "tag {tag}");
        drop(wal);
        let (_, again) = Wal::open(&dir, WalKnobs::default(), Obs::disabled()).unwrap();
        assert_eq!(again.truncated_bytes, 0, "tag {tag}");
        let _ = fs::remove_dir_all(&dir);
    }
}
