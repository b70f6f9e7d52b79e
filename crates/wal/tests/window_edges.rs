//! The recovery scan and the standby's tail read a segment through a 64 KiB
//! window, not whole. A segment several windows long, laid out so a frame
//! straddles every window edge and one `Note` frame is longer than the
//! window, must read exactly as a whole-file walk kept here reads it: the
//! same records, `truncated_bytes`, `wal.tail_bytes` and surviving file
//! length — intact, torn at each edge, and with a CRC flipped at each edge.

use std::fs;
use std::path::{Path, PathBuf};

use mqpi_ckpt::{crc32, Wire};
use mqpi_obs::Obs;
use mqpi_wal::{Wal, WalCursor, WalKnobs, WalRecord, WalRecovered, FLAG_COMMIT};

/// The reader's window. It mirrors a private constant of `mqpi-wal`: if
/// that changes, `layout_straddles_every_edge` no longer describes where
/// the reads end, and the edge assertions below fail.
const WINDOW: u64 = 64 << 10;
const SEGMENT_HEADER: u64 = 16;
const FRAME_OVERHEAD: u64 = 4 + 1 + 8 + 4;
const SEGMENT_NAME: &str = "wal-0000000000000001.seg";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mqpi-wal-window-{tag}-{}-{:?}",
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

fn frame_len(rec: &WalRecord) -> u64 {
    FRAME_OVERHEAD + rec.to_bytes().len() as u64
}

/// `(start, end)` of each frame in a segment holding `script`.
fn layout(script: &[(WalRecord, bool)]) -> Vec<(u64, u64)> {
    let mut at = SEGMENT_HEADER;
    script
        .iter()
        .map(|(rec, _)| {
            let start = at;
            at += frame_len(rec);
            (start, at)
        })
        .collect()
}

/// Where the reader's windows end for a walk that starts reading at
/// `start`, as `(edge, index of the frame the refill starts at)`. A window
/// holds `WINDOW` bytes; a frame it does not hold whole starts the next
/// one. A frame longer than `WINDOW` gets a window of exactly its length,
/// whose end is that frame's: not an edge any frame can straddle, so not
/// listed.
fn window_edges(start: u64, frames: &[(u64, u64)]) -> Vec<(u64, usize)> {
    let mut edges = Vec::new();
    let (mut end, mut long) = (start + WINDOW, false);
    for (i, &(s, e)) in frames.iter().enumerate() {
        if s >= start && e > end {
            if !long {
                edges.push((end, i));
            }
            long = e - s > WINDOW;
            end = s + WINDOW.max(e - s);
        }
    }
    edges
}

/// About 5.5 windows of frames: small records and notes of varied length,
/// multi-frame batches, and one note longer than the window. Notes are
/// grown a byte at a time until no frame ends exactly on a window edge, so
/// a frame straddles every edge; the frame before the first edge's
/// straddler ends a batch, so a cursor can stop there.
fn script() -> Vec<(WalRecord, bool)> {
    let mut script = Vec::new();
    let mut bytes = SEGMENT_HEADER;
    let mut big = false;
    for i in 0u64.. {
        if bytes > 11 * WINDOW / 2 {
            break;
        }
        let r = splitmix64(0x57AD_D1E5 ^ i);
        let rec = if !big && bytes > 2 * WINDOW + WINDOW / 3 {
            big = true;
            WalRecord::Note {
                bytes: (0..WINDOW + 4_321).map(|k| (k % 251) as u8).collect(),
            }
        } else {
            match r % 6 {
                0 => WalRecord::Pump,
                1 => WalRecord::Advance {
                    dt: (r >> 8) as f64 * 1e-12,
                },
                2 => WalRecord::Mark { iter: i, digest: r },
                _ => WalRecord::Note {
                    bytes: (0..(r >> 8) % 150).map(|k| (k ^ i) as u8).collect(),
                },
            }
        };
        bytes += frame_len(&rec);
        script.push((rec, !(r >> 32).is_multiple_of(4)));
    }
    if let Some(last) = script.last_mut() {
        last.1 = true;
    }
    for _ in 0..1_000 {
        let frames = layout(&script);
        let edges = window_edges(0, &frames);
        let Some(e) = edges.iter().position(|&(edge, i)| frames[i].0 == edge) else {
            let (_, first) = edges[0];
            script[first - 1].1 = true;
            return script;
        };
        // A frame ends on this edge: lengthen the last note of the window,
        // which moves the frame and not the window's start.
        let (from, to) = (e.checked_sub(1).map_or(0, |p| edges[p].1), edges[e].1);
        let grow = (from..to)
            .rev()
            .find(|&k| matches!(script[k].0, WalRecord::Note { .. }))
            .expect("every window holds a note");
        if let WalRecord::Note { bytes } = &mut script[grow].0 {
            bytes.push(0xA5);
        }
    }
    panic!("no layout straddles every window edge");
}

/// Write `script` through a real log and return the segment's bytes.
fn segment(script: &[(WalRecord, bool)]) -> Vec<u8> {
    let dir = tmpdir("write");
    let knobs = WalKnobs {
        flush_every_n: u32::MAX,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    let (mut wal, _) = Wal::open(&dir, knobs, Obs::disabled()).expect("open fresh log");
    for (rec, commit) in script {
        wal.append(rec);
        if *commit {
            wal.commit(0.0).expect("commit");
        }
    }
    wal.flush(0.0).expect("flush");
    drop(wal);
    let bytes = fs::read(dir.join(SEGMENT_NAME)).expect("read segment");
    let _ = fs::remove_dir_all(&dir);
    bytes
}

/// What a walk over the whole file in memory finds from offset `from`,
/// whose first frame must carry `seq`.
struct Reference {
    records: Vec<(u64, WalRecord)>,
    keep_len: u64,
}

fn reference_walk(bytes: &[u8], from: u64, mut seq: u64) -> Reference {
    let (mut pos, mut keep_len) = (from as usize, from);
    let (mut records, mut committed) = (Vec::new(), 0);
    while let Some(head) = bytes.get(pos..pos + 13) {
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        let Some(body) = bytes.get(pos..pos + 13 + len) else {
            break;
        };
        let Some(trailer) = bytes.get(pos + 13 + len..pos + 17 + len) else {
            break;
        };
        let flags = head[4];
        let crc = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
        let frame_seq = u64::from_le_bytes(head[5..13].try_into().expect("8 bytes"));
        if crc != crc32(body) || flags & !FLAG_COMMIT != 0 || frame_seq != seq {
            break;
        }
        let Ok(rec) = WalRecord::from_bytes(&body[13..], "wal record") else {
            break;
        };
        records.push((seq, rec));
        pos += 17 + len;
        seq += 1;
        if flags & FLAG_COMMIT != 0 {
            committed = records.len();
            keep_len = pos as u64;
        }
    }
    records.truncate(committed);
    Reference { records, keep_len }
}

fn assert_recovered(got: &WalRecovered, want: &Reference, len: u64, what: &str) {
    assert!(got.base.is_none(), "{what}: no base was written");
    assert_eq!(got.base_through, 0, "{what}");
    assert!(got.resumed, "{what}");
    assert_eq!(
        got.records.len(),
        want.records.len(),
        "{what}: record count"
    );
    assert!(got.records == want.records, "{what}: records differ");
    assert_eq!(got.truncated_bytes, len - want.keep_len, "{what}");
}

/// Read `bytes` as segment 1 by every route that goes through the window:
/// a cursor's full scan, a cursor's tail from `tail_from` (the end of a
/// committed frame whose successor carries `tail_seq`), and `Wal::open`.
fn check(bytes: &[u8], tail_from: u64, tail_seq: u64, what: &str) {
    let len = bytes.len() as u64;
    let whole = reference_walk(bytes, SEGMENT_HEADER, 1);
    let dir = tmpdir("case");
    let seg = dir.join(SEGMENT_NAME);

    // The full scan reads every segment's length, whatever it finds.
    fs::write(&seg, bytes).expect("write segment");
    let obs = Obs::enabled();
    let scanned = WalCursor::default().advance(&dir, &obs).expect("scan");
    assert_recovered(&scanned, &whole, len, &format!("{what}, scan"));
    assert_eq!(obs.counter("wal.tail_bytes"), len, "{what}, scan");

    // A cursor at `tail_from` reads only the bytes past it.
    fs::write(&seg, &bytes[..tail_from as usize]).expect("write prefix");
    let mut cursor = WalCursor::default();
    let prefix = cursor.advance(&dir, &obs).expect("scan the prefix");
    assert_eq!(prefix.truncated_bytes, 0, "{what}: the prefix ends a batch");
    fs::write(&seg, bytes).expect("write segment");
    let before = obs.counter("wal.tail_bytes");
    let tailed = cursor.advance(&dir, &obs).expect("tail");
    let tail = reference_walk(bytes, tail_from, tail_seq);
    assert!(tailed.base.is_none(), "{what}, tail");
    assert_eq!(tailed.records.len(), tail.records.len(), "{what}, tail");
    assert!(
        tailed.records == tail.records,
        "{what}, tail: records differ"
    );
    assert_eq!(tailed.truncated_bytes, len - tail.keep_len, "{what}, tail");
    assert_eq!(
        obs.counter("wal.tail_bytes") - before,
        len - tail_from,
        "{what}, tail"
    );

    // The owner's open truncates to the reference's committed frontier.
    let (wal, opened) = Wal::open(&dir, WalKnobs::default(), Obs::disabled()).expect("open");
    assert_recovered(&opened, &whole, len, &format!("{what}, open"));
    assert_eq!(
        wal.next_seq(),
        whole.records.last().map_or(1, |r| r.0 + 1),
        "{what}"
    );
    drop(wal);
    assert_eq!(
        fs::metadata(&seg).expect("segment survives").len(),
        whole.keep_len,
        "{what}: surviving length"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn layout_straddles_every_edge() {
    let script = script();
    let frames = layout(&script);
    let bytes = segment(&script);
    assert_eq!(bytes.len() as u64, frames.last().expect("frames").1);
    let edges = window_edges(0, &frames);
    assert!(edges.len() >= 5, "only {} window edges", edges.len());
    for &(edge, i) in &edges {
        assert!(frames[i].0 < edge && edge < frames[i].1, "edge {edge}");
    }
    let big = frames.iter().filter(|&&(s, e)| e - s > WINDOW).count();
    assert_eq!(big, 1, "one frame longer than the window");
    // The tail starts at the first edge's straddler, so its windows end
    // where the scan's do from the second edge on.
    let (_, first) = edges[0];
    assert!(script[first - 1].1);
    let tail_edges = window_edges(frames[first].0, &frames);
    assert_eq!(tail_edges[..], edges[1..]);
}

#[test]
fn intact_segment_reads_as_the_whole_file() {
    let script = script();
    let frames = layout(&script);
    let bytes = segment(&script);
    let (_, first) = window_edges(0, &frames)[0];
    check(&bytes, frames[first].0, first as u64 + 1, "intact");
    let whole = reference_walk(&bytes, SEGMENT_HEADER, 1);
    assert_eq!(
        whole.records.len(),
        script.len(),
        "every frame is committed"
    );
    assert_eq!(whole.keep_len, bytes.len() as u64);
}

#[test]
fn torn_at_each_window_edge() {
    let script = script();
    let frames = layout(&script);
    let bytes = segment(&script);
    let edges = window_edges(0, &frames);
    let (_, first) = edges[0];
    let big = frames
        .iter()
        .find(|&&(s, e)| e - s > WINDOW)
        .expect("a long frame");
    let mut cuts: Vec<u64> = edges.iter().flat_map(|&(e, _)| [e - 1, e, e + 1]).collect();
    cuts.extend([big.0 + 20, big.0 + WINDOW, big.1 - 1]);
    for cut in cuts {
        check(
            &bytes[..cut as usize],
            frames[first].0,
            first as u64 + 1,
            &format!("torn at {cut}"),
        );
    }
}

#[test]
fn crc_flip_at_each_window_edge() {
    let script = script();
    let frames = layout(&script);
    let bytes = segment(&script);
    let edges = window_edges(0, &frames);
    let (_, first) = edges[0];
    let big = frames
        .iter()
        .find(|&&(s, e)| e - s > WINDOW)
        .expect("a long frame");
    let mut flips: Vec<u64> = edges.iter().flat_map(|&(e, _)| [e - 1, e]).collect();
    flips.extend([big.0 + WINDOW, big.1 - 1]);
    for at in flips {
        let mut m = bytes.clone();
        m[at as usize] ^= 0x10;
        check(
            &m,
            frames[first].0,
            first as u64 + 1,
            &format!("flip at {at}"),
        );
    }
}

/// Every straddle offset of the first edge, by shifting the whole layout a
/// byte at a time behind a leading note.
#[test]
fn every_shift_of_the_first_edge() {
    for pad in 0..64u64 {
        let mut script = vec![(
            WalRecord::Note {
                bytes: vec![7; pad as usize],
            },
            true,
        )];
        for i in 0..1_200u64 {
            let r = splitmix64(0x5A1F ^ i);
            script.push((
                WalRecord::Note {
                    bytes: vec![(r & 0xFF) as u8; (r >> 8) as usize % 90],
                },
                !(r >> 40).is_multiple_of(3),
            ));
        }
        script.push((WalRecord::Pump, true));
        let bytes = segment(&script);
        let at = |dir: &Path| WalCursor::default().advance(dir, &Obs::disabled());
        let dir = tmpdir("shift");
        fs::write(dir.join(SEGMENT_NAME), &bytes).expect("write segment");
        let got = at(&dir).expect("scan");
        let want = reference_walk(&bytes, SEGMENT_HEADER, 1);
        assert_recovered(&got, &want, bytes.len() as u64, &format!("pad {pad}"));
        assert_eq!(want.records.len(), script.len());
        let _ = fs::remove_dir_all(&dir);
    }
}
