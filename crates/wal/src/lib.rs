//! `mqpi-wal` — append-only, CRC-framed, group-committed write-ahead log.
//!
//! The PI service (`mqpi-pi`) is a deterministic state machine over a small
//! command vocabulary (submit/subscribe/abort/reweight/refine/set-rate/
//! advance/pump). This crate makes that vocabulary durable: every command
//! is appended as a [`WalRecord`] before it is applied, so a crash loses at
//! most the unflushed tail of the log, and replaying the surviving prefix
//! on top of the latest base snapshot reproduces the service state — and
//! therefore its push streams — *bit-identically*.
//!
//! # On-disk layout
//!
//! A log directory holds two file families, both named by record sequence
//! number so recovery can order them without reading a manifest:
//!
//! * `wal-<first_seq:016x>.seg` — a segment: a 16-byte header (`MQWL`
//!   magic, format version, first sequence number) followed by frames.
//!   Each frame is `len:u32 | flags:u8 | seq:u64 | payload | crc:u32`,
//!   little-endian, with the CRC-32 (same polynomial as `mqpi-ckpt`)
//!   covering everything before it. Payloads are [`WalRecord`]s encoded
//!   with the `ckpt` [`Enc`]/[`Dec`] codec.
//! * `base-<through_seq:016x>.ckpt` — a compaction anchor: a standard
//!   `ckpt` container (kind [`BASE_KIND`]) whose payload is the sequence
//!   number the snapshot covers plus the owner's own checkpoint bytes.
//!   Records with `seq <= through_seq` are logically dead once the base
//!   exists.
//!
//! # Group commit
//!
//! Appends buffer in memory. A *commit* marks the most recent frame with
//! [`FLAG_COMMIT`], declaring every frame since the previous commit part of
//! one atomic batch; recovery never surfaces a torn batch — it scans to the
//! last valid committed frame and truncates everything after it (the
//! `wal.recovered_tail` event). Durability is batched separately: the
//! buffer is written and fsynced when `flush_every_n` records have
//! accumulated or `flush_every_vt` virtual seconds have passed since the
//! last flush ([`WalKnobs`]), so the fsync cost amortizes across commits
//! exactly like group commit in a DBMS log manager.
//!
//! A frame is encoded where it will be flushed from and checksummed once:
//! [`Wal::append`] leaves its CRC trailer blank, and the frame is *sealed*
//! at the first moment nothing can change it any more — by the commit that
//! flags it, by the next append, or by the flush that writes it out
//! uncommitted. No frame reaches the file unsealed.
//!
//! # Tailing
//!
//! A [`WalCursor`] reads a directory another process is appending to,
//! never writing: each [`WalCursor::advance`] surfaces the records flushed
//! and committed since the last one from the bytes past the cursor, and
//! falls back to the full recovery scan only when compaction has moved the
//! log out from under it.
//!
//! # Compaction
//!
//! [`Wal::compact`] writes the owner's checkpoint as a new base anchored at
//! the current flushed sequence, rotates to a fresh segment, and only then
//! retires the segments and bases the new anchor supersedes. Every step is
//! individually atomic+durable (`ckpt::atomic_write` semantics), and
//! [`Wal::open`] finishes an interrupted retirement, so a crash at any
//! point leaves a recoverable directory.

use std::fs::{self, File};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use mqpi_ckpt::{
    crc32, sweep_stale_tmp, sync_dir, wire_enum, wire_struct, CkptError, Enc, Result, Wire,
};
use mqpi_obs::{Obs, TraceKind};

/// First four bytes of every segment file.
pub const SEGMENT_MAGIC: &[u8; 4] = b"MQWL";

/// Version stamp of the segment layout and record schema. Bump on any
/// wire-format change; readers reject segments from other versions.
pub const SEGMENT_VERSION: u32 = 1;

/// Container kind of a base (compaction-anchor) snapshot file.
pub const BASE_KIND: &str = "wal-base";

/// Frame flag bit: this frame ends a commit batch. Every frame before it
/// (back to the previous committed frame) is part of the batch.
pub const FLAG_COMMIT: u8 = 0b0000_0001;

/// Sanity cap on a single record payload; anything larger is treated as
/// corruption rather than an allocation request.
pub const MAX_RECORD_LEN: usize = 1 << 26;

/// Largest [`WalRecord::Note`] payload whose record still fits
/// [`MAX_RECORD_LEN`] (the tag byte and the length prefix take the rest).
pub const MAX_NOTE_LEN: usize = MAX_RECORD_LEN - 1 - 8;

const SEGMENT_HEADER_LEN: usize = 4 + 4 + 8;
const FRAME_HEADER_LEN: usize = 4 + 1 + 8;
const FRAME_TRAILER_LEN: usize = 4;
const KNOWN_FLAGS: u8 = FLAG_COMMIT;

// ---------------------------------------------------------------------------
// records
// ---------------------------------------------------------------------------

/// One logged PI-service event. The variants mirror the service's mutating
/// API one-to-one (plus [`WalRecord::Mark`] for application-level progress
/// and [`WalRecord::SimEvent`] for journaled simulator feed taps), so a log
/// is exactly a serialized command history and replaying it is exactly
/// re-invoking the API.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `PiService::register_session` (the assigned id is deterministic).
    RegisterSession,
    /// `PiService::close_session`.
    CloseSession {
        /// Session being closed.
        session: u64,
    },
    /// `PiService::submit` with the caller's *raw* (unsanitized) inputs,
    /// so replay repeats the sanitization decisions too.
    Submit {
        /// Owning session.
        session: u64,
        /// Raw cost argument (bit-preserved, may be non-finite).
        cost: f64,
        /// Raw weight argument.
        weight: f64,
    },
    /// `PiService::subscribe`.
    Subscribe {
        /// Subscribing session.
        session: u64,
        /// Query subscribed to.
        query: u64,
    },
    /// `PiService::abort`.
    Abort {
        /// Query aborted.
        query: u64,
    },
    /// `PiService::reweight`.
    Reweight {
        /// Query whose weight changes.
        query: u64,
        /// Raw new weight.
        weight: f64,
    },
    /// `PiService::refine_cost`.
    Refine {
        /// Query whose remaining cost is revised.
        query: u64,
        /// Raw new remaining cost.
        cost: f64,
    },
    /// `PiService::set_rate`.
    SetRate {
        /// New aggregate processing rate.
        rate: f64,
    },
    /// `PiService::advance`.
    Advance {
        /// Raw virtual-time step.
        dt: f64,
    },
    /// `PiService::pump` (drains pushes; logged so replay regenerates the
    /// identical push stream, not just the identical end state).
    Pump,
    /// Application progress marker: an opaque `(iter, digest)` pair a
    /// driver loop writes once per iteration so recovery can resume the
    /// loop where the log ends.
    Mark {
        /// Driver-defined position (e.g. loop iteration).
        iter: u64,
        /// Driver-defined accumulator (e.g. a push-stream digest).
        digest: u64,
    },
    /// Opaque driver payload (e.g. a campaign loop's own state blob),
    /// journaled alongside the service commands so driver and service
    /// recover from a single consistent frontier. Replay ignores it; the
    /// newest one is surfaced to the recovering driver.
    Note {
        /// Driver-defined bytes (bit-preserved).
        bytes: Vec<u8>,
    },
    /// A journaled simulator feed event (mirror tap): a compact generic
    /// shape — variant tag plus the numeric fields the mirror needs.
    SimEvent {
        /// Mirror-defined variant tag.
        tag: u8,
        /// Event virtual time.
        at: f64,
        /// Query id (0 when the variant has none).
        id: u64,
        /// First numeric field (variant-defined, bit-preserved).
        a: f64,
        /// Second numeric field (variant-defined, bit-preserved).
        b: f64,
    },
}

const TAG_REGISTER: u8 = 1;
const TAG_CLOSE: u8 = 2;
const TAG_SUBMIT: u8 = 3;
const TAG_SUBSCRIBE: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_REWEIGHT: u8 = 6;
const TAG_REFINE: u8 = 7;
const TAG_SET_RATE: u8 = 8;
const TAG_ADVANCE: u8 = 9;
const TAG_PUMP: u8 = 10;
const TAG_MARK: u8 = 11;
const TAG_SIM_EVENT: u8 = 12;
const TAG_NOTE: u8 = 13;

// One record is one frame payload: decode with [`Wire::from_bytes`], which
// also rejects trailing bytes.
wire_enum!(WalRecord, "wal record" {
    TAG_REGISTER => RegisterSession,
    TAG_CLOSE => CloseSession { session },
    TAG_SUBMIT => Submit { session, cost, weight },
    TAG_SUBSCRIBE => Subscribe { session, query },
    TAG_ABORT => Abort { query },
    TAG_REWEIGHT => Reweight { query, weight },
    TAG_REFINE => Refine { query, cost },
    TAG_SET_RATE => SetRate { rate },
    TAG_ADVANCE => Advance { dt },
    TAG_PUMP => Pump,
    TAG_MARK => Mark { iter, digest },
    TAG_NOTE => Note { bytes },
    TAG_SIM_EVENT => SimEvent { tag, at, id, a, b },
});

// ---------------------------------------------------------------------------
// knobs
// ---------------------------------------------------------------------------

/// Group-commit and compaction policy. `Copy` + serde so it can ride inside
/// `PiConfig` and inside service checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WalKnobs {
    /// Flush (write + fsync) once this many records are buffered at a
    /// commit point. `1` = flush every commit (RPO 0 for committed data).
    pub flush_every_n: u32,
    /// Also flush when this much virtual time has passed since the last
    /// flush, so a quiet service still bounds its replay window.
    pub flush_every_vt: f64,
    /// Compact (snapshot + retire segments) once this many records have
    /// accumulated since the current base. `0` disables automatic
    /// compaction; [`Wal::compact`] can still be invoked explicitly.
    pub compact_every: u64,
}
wire_struct!(WalKnobs {
    flush_every_n,
    flush_every_vt,
    compact_every,
});

impl Default for WalKnobs {
    fn default() -> Self {
        WalKnobs {
            flush_every_n: 64,
            flush_every_vt: 0.25,
            compact_every: 0,
        }
    }
}

impl WalKnobs {
    /// Check the policy is sane; returns a stable reason string otherwise.
    pub fn validate(&self) -> std::result::Result<(), &'static str> {
        if self.flush_every_n == 0 {
            return Err("flush_every_n must be >= 1");
        }
        if !self.flush_every_vt.is_finite() || self.flush_every_vt <= 0.0 {
            return Err("flush_every_vt must be finite and > 0");
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// frames
// ---------------------------------------------------------------------------

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// One well-formed frame: length in bounds, CRC matching, no unknown flag.
struct Frame<'a> {
    flags: u8,
    seq: u64,
    payload: &'a [u8],
    /// Offset just past the frame's CRC trailer.
    end: usize,
}

/// The frame that starts at `bytes[pos]`, or `None` when what is there is
/// torn or corrupt. The one frame parser: the recovery scan, the standby's
/// tail and the debug re-walk of the flush buffer all read through it.
fn read_frame(bytes: &[u8], pos: usize) -> Option<Frame<'_>> {
    let rest = bytes.get(pos..)?;
    if rest.len() < FRAME_HEADER_LEN + FRAME_TRAILER_LEN {
        return None;
    }
    let len = le_u32(rest) as usize;
    if len > MAX_RECORD_LEN || FRAME_HEADER_LEN + len + FRAME_TRAILER_LEN > rest.len() {
        return None;
    }
    let (body, trailer) = rest.split_at(FRAME_HEADER_LEN + len);
    let flags = body[4];
    if crc32(body) != le_u32(trailer) || flags & !KNOWN_FLAGS != 0 {
        return None;
    }
    Some(Frame {
        flags,
        seq: le_u64(&body[5..]),
        payload: &body[FRAME_HEADER_LEN..],
        end: pos + body.len() + FRAME_TRAILER_LEN,
    })
}

/// How far a walk over a run of frames got.
struct Walk {
    /// Sequence number the frame after the last good one must carry.
    next_seq: u64,
    /// Whether every byte belonged to a good frame (`false`: the walk
    /// stopped at a torn, corrupt, out-of-sequence or undecodable one).
    clean: bool,
    /// The last commit frame met: the offset just past it, its sequence
    /// number, and `records.len()` once its record was pushed.
    commit: Option<(usize, u64, usize)>,
}

/// Walk `bytes[pos..]`, whose frames must number consecutively from `seq`,
/// pushing every decoded record past `skip_through` onto `records`. What
/// the walk pushed after its last commit frame is an open or torn batch:
/// the caller truncates `records` back to the committed length.
fn walk_frames(
    bytes: &[u8],
    mut pos: usize,
    mut seq: u64,
    skip_through: u64,
    records: &mut Vec<(u64, WalRecord)>,
) -> Walk {
    let (mut commit, mut clean) = (None, true);
    while pos < bytes.len() {
        let good = read_frame(bytes, pos)
            .filter(|f| f.seq == seq)
            .and_then(|f| Some((WalRecord::from_bytes(f.payload, "wal record").ok()?, f)));
        let Some((rec, frame)) = good else {
            clean = false;
            break;
        };
        if seq > skip_through {
            records.push((seq, rec));
        }
        if frame.flags & FLAG_COMMIT != 0 {
            commit = Some((frame.end, seq, records.len()));
        }
        seq = seq.wrapping_add(1);
        pos = frame.end;
    }
    Walk {
        next_seq: seq,
        clean,
        commit,
    }
}

// ---------------------------------------------------------------------------
// recovery scan
// ---------------------------------------------------------------------------

/// What [`Wal::open`] (or a read-only [`WalCursor::advance`]) found in a
/// log directory.
#[derive(Debug)]
pub struct WalRecovered {
    /// Owner checkpoint bytes from the newest decodable base snapshot.
    pub base: Option<Vec<u8>>,
    /// Sequence number the base covers (0 when `base` is `None`).
    pub base_through: u64,
    /// Committed records after the base, in sequence order.
    pub records: Vec<(u64, WalRecord)>,
    /// Bytes discarded recovering the tail: torn/corrupt frames plus
    /// committed-but-orphaned data after a mid-log corruption, plus whole
    /// unreachable segments. 0 on a clean open.
    pub truncated_bytes: u64,
    /// Stale `*.tmp` staging files swept at open.
    pub swept_tmp: usize,
    /// Whether any prior log state existed (false = fresh directory).
    pub resumed: bool,
}

impl WalRecovered {
    /// The newest [`WalRecord::Mark`] in the recovered suffix, if any.
    pub fn last_mark(&self) -> Option<(u64, u64)> {
        self.records.iter().rev().find_map(|(_, r)| match *r {
            WalRecord::Mark { iter, digest } => Some((iter, digest)),
            _ => None,
        })
    }
}

struct ScanOutcome {
    /// What the owner gets back (`swept_tmp` still 0: sweeping is `open`'s).
    found: WalRecovered,
    last_committed_seq: u64,
    /// Segment holding the last committed frame, its surviving byte length,
    /// and its header first-seq. `None` when no segment survives.
    keep: Option<(PathBuf, u64, u64)>,
    /// Segments to delete: retired-but-not-removed ones before the live
    /// window, and everything after the committed cut.
    drop_segments: Vec<PathBuf>,
    /// Base files superseded by the chosen base.
    drop_bases: Vec<PathBuf>,
    /// Segment bytes the scan read.
    read_bytes: u64,
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn segment_name(first: u64) -> String {
    format!("wal-{first:016x}.seg")
}

fn base_name(through: u64) -> String {
    format!("base-{through:016x}.ckpt")
}

/// `(sequence number from the filename, path)` for one log file.
type NumberedFile = (u64, PathBuf);

fn list_dir(dir: &Path) -> Result<(Vec<NumberedFile>, Vec<NumberedFile>)> {
    let mut bases = Vec::new();
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(through) = parse_numbered(name, "base-", ".ckpt") {
            bases.push((through, entry.path()));
        } else if let Some(first) = parse_numbered(name, "wal-", ".seg") {
            segs.push((first, entry.path()));
        }
    }
    bases.sort_by_key(|&(n, _)| n);
    segs.sort_by_key(|&(n, _)| n);
    Ok((bases, segs))
}

/// Scan a log directory without mutating it. Shared by [`Wal::open`]
/// (which then applies the truncation/retirement the scan prescribes) and
/// [`WalCursor::advance`] (standby tailing: the primary still owns the
/// files).
fn scan(dir: &Path) -> Result<ScanOutcome> {
    let (bases, segs) = list_dir(dir)?;
    let any_state = !bases.is_empty() || !segs.is_empty();

    // Newest decodable base wins; older and undecodable ones are retired.
    let mut base: Option<Vec<u8>> = None;
    let mut base_through = 0u64;
    let mut drop_bases = Vec::new();
    for &(through, ref path) in bases.iter().rev() {
        if base.is_some() {
            drop_bases.push(path.clone());
            continue;
        }
        match mqpi_ckpt::read_file(path, BASE_KIND)
            .and_then(|payload| <(u64, Vec<u8>)>::from_bytes(&payload, "wal base"))
        {
            Ok((seq, bytes)) if seq == through => {
                base = Some(bytes);
                base_through = through;
            }
            // A damaged or mislabeled base is skipped, not fatal: an older
            // base plus a longer replay reaches the same state.
            _ => drop_bases.push(path.clone()),
        }
    }

    // The live window starts at the last segment that could contain
    // base_through + 1; anything earlier is fully covered by the base and
    // is a retired segment an interrupted compaction failed to delete. With
    // no segment reaching back to the base, any later ones sit across a gap
    // we cannot replay: nothing is walked and all of them are dropped.
    let next_needed = base_through + 1;
    let scan_from = segs.iter().rposition(|&(first, _)| first <= next_needed);
    let mut drop_segments: Vec<PathBuf> = Vec::new();
    let mut truncated_bytes = 0u64;
    let mut read_bytes = 0u64;
    let mut records = Vec::new();
    let mut committed_len = 0usize;
    let mut last_committed_seq = base_through;
    for (_, p) in &segs[..scan_from.unwrap_or(0)] {
        drop_segments.push(p.clone());
    }

    // Walk the chain. `keep` tracks the segment holding the newest
    // committed frame and the byte length that survives in it; a commit
    // batch may span segments (its earlier members live in fully kept
    // predecessors), so records past the last commit stay in `records`
    // across a segment edge and are cut only at the end.
    let mut chain: Vec<(PathBuf, u64)> = Vec::new();
    let mut keep: Option<(usize, PathBuf, u64, u64)> = None;
    let mut expected_seq: Option<u64> = None;
    let mut cut = scan_from.is_none();
    for &(first, ref path) in &segs[scan_from.unwrap_or(0)..] {
        if cut {
            chain.push((
                path.clone(),
                fs::metadata(path).map(|m| m.len()).unwrap_or(0),
            ));
            continue;
        }
        let bytes = fs::read(path)?;
        read_bytes += bytes.len() as u64;
        let idx = chain.len();
        chain.push((path.clone(), bytes.len() as u64));
        let header_ok = bytes.len() >= SEGMENT_HEADER_LEN
            && &bytes[..4] == SEGMENT_MAGIC
            && le_u32(&bytes[4..]) == SEGMENT_VERSION
            && le_u64(&bytes[8..]) == first
            && expected_seq.is_none_or(|e| e == first);
        if !header_ok {
            // Untrustworthy segment: the committed frontier stays wherever
            // the chain so far put it; this file and everything after is
            // dropped.
            cut = true;
            continue;
        }
        if keep.is_none() {
            keep = Some((idx, path.clone(), SEGMENT_HEADER_LEN as u64, first));
        }
        // No frame is smaller than a one-byte record's, so this bounds the
        // count: each record is moved once, into a vector that never
        // regrows. The slack is never touched and is given back below.
        records.reserve(bytes.len() / (FRAME_HEADER_LEN + 1 + FRAME_TRAILER_LEN));
        let walk = walk_frames(
            &bytes,
            SEGMENT_HEADER_LEN,
            first,
            base_through,
            &mut records,
        );
        if let Some((end, seq, len)) = walk.commit {
            committed_len = len;
            last_committed_seq = seq;
            keep = Some((idx, path.clone(), end as u64, first));
        }
        cut = !walk.clean;
        expected_seq = Some(walk.next_seq);
    }
    records.truncate(committed_len);
    records.shrink_to_fit();

    // Everything after the committed frontier — the kept segment's tail
    // plus every later segment whole — is a torn or uncommitted batch.
    let survivors = match &keep {
        Some((idx, _, keep_len, _)) => {
            truncated_bytes += chain[*idx].1.saturating_sub(*keep_len);
            idx + 1
        }
        None => 0,
    };
    for (p, len) in chain.drain(survivors..) {
        truncated_bytes += len;
        drop_segments.push(p);
    }

    Ok(ScanOutcome {
        found: WalRecovered {
            base,
            base_through,
            records,
            truncated_bytes,
            swept_tmp: 0,
            resumed: any_state,
        },
        last_committed_seq,
        keep: keep.map(|(_, path, len, first)| (path, len, first)),
        drop_segments,
        drop_bases,
        read_bytes,
    })
}

// ---------------------------------------------------------------------------
// tailing
// ---------------------------------------------------------------------------

/// A read-only tailer's place in a log directory: the segment under it,
/// the byte offset just past the last committed frame it has surfaced, the
/// sequence number the next frame must carry, and the base anchor those
/// records follow. All of it is derived from the directory — a fresh
/// cursor (`default()`: nothing seen, the first [`WalCursor::advance`]
/// is a full scan) finds the same place — so it is never persisted.
#[derive(Debug, Default)]
pub struct WalCursor {
    /// `(header first-seq, byte offset)`; `None` before the first scan and
    /// when no segment survived it.
    seg: Option<(u64, u64)>,
    next_seq: u64,
    base_through: u64,
}

impl WalCursor {
    /// Surface what the primary has flushed and committed since the last
    /// call, without touching any file. While the cursor still describes
    /// the directory this reads only the bytes past it and returns them as
    /// `records` (`base: None`, `base_through` the anchor they follow); the
    /// cursor moves to the end of the last *committed* frame, never past a
    /// torn one or an open batch, so those are read again next time. When
    /// the segment under the cursor is gone, superseded or shorter than
    /// the cursor, or a newer base covers records the cursor has not
    /// reached, it re-anchors: the result is what a fresh [`Wal::open`]
    /// *would* recover, base included. Adds the segment bytes read to
    /// `wal.tail_bytes`.
    pub fn advance(&mut self, dir: &Path, obs: &Obs) -> Result<WalRecovered> {
        if let Some(found) = self.tail(dir, obs)? {
            return Ok(found);
        }
        let scan = scan(dir)?;
        self.seg = scan.keep.as_ref().map(|&(_, len, first)| (first, len));
        self.next_seq = scan.last_committed_seq + 1;
        self.base_through = scan.found.base_through;
        obs.counter_add("wal.tail_bytes", scan.read_bytes);
        Ok(scan.found)
    }

    /// The records committed past the cursor, or `None` when the cursor no
    /// longer describes the directory.
    fn tail(&mut self, dir: &Path, obs: &Obs) -> Result<Option<WalRecovered>> {
        let Some((first, offset)) = self.seg else {
            return Ok(None);
        };
        let (bases, segs) = list_dir(dir)?;
        let rebased = bases.last().is_some_and(|&(n, _)| n >= self.next_seq);
        let Some((_, path)) = segs.last().filter(|s| s.0 == first && !rebased) else {
            return Ok(None);
        };
        let mut file = File::open(path)?;
        if file.metadata()?.len() < offset {
            return Ok(None);
        }
        file.seek(SeekFrom::Start(offset))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        obs.counter_add("wal.tail_bytes", bytes.len() as u64);

        let mut records = Vec::new();
        let walk = walk_frames(&bytes, 0, self.next_seq, self.base_through, &mut records);
        let (end, seq, len) = walk.commit.unwrap_or((0, self.next_seq - 1, 0));
        records.truncate(len);
        self.seg = Some((first, offset + end as u64));
        self.next_seq = seq + 1;
        Ok(Some(WalRecovered {
            base: None,
            base_through: self.base_through,
            records,
            truncated_bytes: (bytes.len() - end) as u64,
            swept_tmp: 0,
            resumed: true,
        }))
    }
}

// ---------------------------------------------------------------------------
// the log
// ---------------------------------------------------------------------------

/// An open write-ahead log rooted at one directory. See the crate docs for
/// the format and the commit/flush/compaction semantics.
///
/// Dropping a `Wal` deliberately does **not** flush — that is the crash
/// model the recovery path is tested against. Call [`Wal::close`] for a
/// clean shutdown.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    knobs: WalKnobs,
    obs: Obs,
    file: File,
    seg_path: PathBuf,
    seg_first: u64,
    next_seq: u64,
    records_since_base: u64,
    buf: Vec<u8>,
    buf_records: u32,
    /// Start of the buffer's last frame while its CRC trailer is still
    /// blank: appended, not yet committed, followed or flushed.
    open_frame: Option<usize>,
    last_flush_vt: f64,
}

fn create_segment(dir: &Path, first: u64) -> Result<(File, PathBuf)> {
    let path = dir.join(segment_name(first));
    let mut f = File::create(&path)?;
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[..4].copy_from_slice(SEGMENT_MAGIC);
    h[4..8].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&first.to_le_bytes());
    f.write_all(&h)?;
    f.sync_all()?;
    sync_dir(dir);
    Ok((f, path))
}

/// The CRC's definition, one bit at a time and sharing no table with
/// `mqpi_ckpt::crc32`: the oracle of the flush-time re-walk.
#[cfg(debug_assertions)]
fn crc32_reference(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

impl Wal {
    /// Open (or create) the log in `dir`, recovering whatever survives:
    /// sweep stale temp files, pick the newest decodable base, scan the
    /// segment chain to the last valid committed frame, truncate the torn
    /// or uncommitted tail, and finish any interrupted retirement. Returns
    /// the log positioned for appending plus everything the owner needs to
    /// rebuild state (base bytes + committed record suffix).
    pub fn open(dir: &Path, knobs: WalKnobs, obs: Obs) -> Result<(Wal, WalRecovered)> {
        if let Err(why) = knobs.validate() {
            return Err(CkptError::Unsupported(format!("wal knobs: {why}")));
        }
        fs::create_dir_all(dir)?;
        let swept_tmp = sweep_stale_tmp(dir)?;
        let scan = scan(dir)?;

        for p in &scan.drop_bases {
            let _ = fs::remove_file(p);
        }
        for p in &scan.drop_segments {
            let _ = fs::remove_file(p);
        }
        if !scan.drop_bases.is_empty() || !scan.drop_segments.is_empty() {
            sync_dir(dir);
        }

        let next_seq = scan.last_committed_seq + 1;
        let (file, seg_path, seg_first) = match &scan.keep {
            Some((path, keep_len, first)) => {
                // Append mode: every write lands at the (possibly just
                // truncated) end of the surviving data.
                let f = File::options().read(true).append(true).open(path)?;
                let cur = f.metadata()?.len();
                if cur != *keep_len {
                    f.set_len(*keep_len)?;
                    f.sync_all()?;
                }
                (f, path.clone(), *first)
            }
            None => {
                let (f, p) = create_segment(dir, next_seq)?;
                (f, p, next_seq)
            }
        };

        let recovered = WalRecovered {
            swept_tmp,
            ..scan.found
        };
        if recovered.truncated_bytes > 0 {
            obs.counter_add("wal.truncated_bytes", recovered.truncated_bytes);
            obs.emit(
                0.0,
                TraceKind::Wal {
                    action: "recovered_tail",
                    seq: scan.last_committed_seq,
                    bytes: recovered.truncated_bytes,
                },
            );
        }
        let wal = Wal {
            dir: dir.to_path_buf(),
            knobs,
            obs,
            file,
            seg_path,
            seg_first,
            next_seq,
            records_since_base: recovered.records.len() as u64,
            buf: Vec::new(),
            buf_records: 0,
            open_frame: None,
            last_flush_vt: 0.0,
        };
        Ok((wal, recovered))
    }

    /// Directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Policy the log was opened with.
    pub fn knobs(&self) -> WalKnobs {
        self.knobs
    }

    /// Sequence number the next appended record will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records appended since the current base snapshot.
    pub fn records_since_base(&self) -> u64 {
        self.records_since_base
    }

    /// Whether the automatic-compaction threshold has been reached.
    pub fn wants_compact(&self) -> bool {
        self.knobs.compact_every > 0 && self.records_since_base >= self.knobs.compact_every
    }

    /// Swap the observability handle (counters + trace events).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Compute the open frame's CRC into the trailer `append` left blank.
    /// Called at the moment nothing can change the frame any more, so each
    /// frame is checksummed exactly once.
    fn seal(&mut self) {
        if let Some(start) = self.open_frame.take() {
            let body_end = self.buf.len() - FRAME_TRAILER_LEN;
            let crc = crc32(&self.buf[start..body_end]);
            self.buf[body_end..].copy_from_slice(&crc.to_le_bytes());
        }
    }

    /// Append one record to the in-memory batch. Not yet committed, not
    /// yet durable: see [`Wal::commit`] and the flush policy.
    ///
    /// The frame is built where it will be flushed from: header, then the
    /// payload encoded straight behind it, then `len` patched in and four
    /// blank trailer bytes. It stays *open* — unsealed, its flags byte
    /// still writable — until [`Wal::commit`], the next `append` (which
    /// makes it an earlier member of a multi-frame batch) or
    /// [`Wal::flush`] seals it.
    ///
    /// # Panics
    ///
    /// If the encoded payload exceeds [`MAX_RECORD_LEN`], which recovery
    /// would read as corruption. Only [`WalRecord::Note`] is unbounded;
    /// callers check it against [`MAX_NOTE_LEN`] first.
    pub fn append(&mut self, rec: &WalRecord) -> u64 {
        self.seal();
        let seq = self.next_seq;
        let start = self.buf.len();
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[5..].copy_from_slice(&seq.to_le_bytes());
        self.buf.extend_from_slice(&header);
        let mut e = Enc::wrap(std::mem::take(&mut self.buf));
        rec.enc(&mut e);
        self.buf = e.into_bytes();
        let len = self.buf.len() - start - FRAME_HEADER_LEN;
        assert!(
            len <= MAX_RECORD_LEN,
            "wal record of {len} bytes exceeds MAX_RECORD_LEN"
        );
        self.buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        self.buf.extend_from_slice(&[0u8; FRAME_TRAILER_LEN]);
        self.open_frame = Some(start);
        self.next_seq += 1;
        self.records_since_base += 1;
        self.buf_records += 1;
        self.obs.counter_add("wal.appended", 1);
        seq
    }

    /// Mark the batch boundary: every record appended since the previous
    /// commit becomes atomic, and the flush policy is evaluated at virtual
    /// time `vt`. Returns `true` if the commit triggered a flush.
    ///
    /// Sets [`FLAG_COMMIT`] on the open frame and seals it. With no open
    /// frame (nothing appended since the last commit or flush) there is
    /// nothing to flag; the policy is still evaluated.
    pub fn commit(&mut self, vt: f64) -> Result<bool> {
        if let Some(start) = self.open_frame {
            self.buf[start + 4] |= FLAG_COMMIT;
            self.seal();
        }
        let due = self.buf_records >= self.knobs.flush_every_n
            || vt - self.last_flush_vt >= self.knobs.flush_every_vt;
        if due && !self.buf.is_empty() {
            self.flush(vt)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Write and fsync every buffered frame. Committed-and-flushed records
    /// are durable; flushed-but-uncommitted frames are discarded by the
    /// next recovery (they are a torn batch by definition) unless a later
    /// commit frame adopts them.
    ///
    /// An open frame is sealed first, uncommitted: no frame reaches the
    /// file without its CRC. Debug builds then re-walk the buffer and
    /// assert every frame well-formed, in sequence, and carrying the CRC a
    /// bit-at-a-time reference computes.
    pub fn flush(&mut self, vt: f64) -> Result<()> {
        if !self.buf.is_empty() {
            self.seal();
            #[cfg(debug_assertions)]
            self.assert_sealed();
            self.file.write_all(&self.buf)?;
            self.file.sync_data()?;
            self.obs
                .counter_add("wal.flushed", u64::from(self.buf_records));
            self.obs.counter_add("wal.flushes", 1);
            self.buf.clear();
            self.buf_records = 0;
        }
        self.last_flush_vt = vt;
        Ok(())
    }

    #[cfg(debug_assertions)]
    fn assert_sealed(&self) {
        let mut seq = self.next_seq - u64::from(self.buf_records);
        let mut pos = 0;
        while pos < self.buf.len() {
            let Some(frame) = read_frame(&self.buf, pos) else {
                panic!("frame {seq} at buffer offset {pos} is unsealed or malformed");
            };
            let body_end = frame.end - FRAME_TRAILER_LEN;
            assert_eq!(
                le_u32(&self.buf[body_end..]),
                crc32_reference(&self.buf[pos..body_end]),
                "frame {seq}: sliced and reference CRC differ"
            );
            assert_eq!(frame.seq, seq, "frame out of sequence in the flush buffer");
            seq += 1;
            pos = frame.end;
        }
        assert_eq!(seq, self.next_seq, "flush buffer does not end at next_seq");
    }

    /// Clean shutdown: commit the open batch and flush it.
    pub fn close(mut self, vt: f64) -> Result<()> {
        self.commit(vt)?;
        self.flush(vt)
    }

    /// Snapshot-anchored compaction. `owner_ckpt` (the owner's own
    /// checkpoint bytes, taken *after* every logged record so far has been
    /// applied) becomes the log's new base, a fresh segment is rotated in,
    /// and superseded segments/bases are retired. The open batch is
    /// committed and flushed first so the anchor never outruns durability.
    pub fn compact(&mut self, owner_ckpt: &[u8], vt: f64) -> Result<()> {
        self.commit(vt)?;
        self.flush(vt)?;
        let through = self.next_seq - 1;
        let mut e = Enc::new();
        e.put_u64(through);
        e.put_bytes(owner_ckpt);
        mqpi_ckpt::write_file(
            &self.dir.join(base_name(through)),
            BASE_KIND,
            &e.into_bytes(),
        )?;

        // Rotate only if the current segment holds frames; an empty segment
        // already starts exactly at through + 1.
        let mut retired = 0u64;
        if self.next_seq != self.seg_first {
            let (f, p) = create_segment(&self.dir, through + 1)?;
            self.file = f;
            self.seg_path = p;
            self.seg_first = through + 1;
        }
        let (bases, segs) = list_dir(&self.dir)?;
        for (n, p) in bases {
            if n < through {
                let _ = fs::remove_file(p);
            }
        }
        for (first, p) in segs {
            if first < self.seg_first && p != self.seg_path {
                retired += fs::metadata(&p).map(|m| m.len()).unwrap_or(0);
                let _ = fs::remove_file(p);
            }
        }
        sync_dir(&self.dir);
        self.records_since_base = 0;
        self.obs.counter_add("wal.compactions", 1);
        self.obs.emit(
            vt,
            TraceKind::Wal {
                action: "compact",
                seq: through,
                bytes: retired,
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "mqpi-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// What a fresh read-only tailer sees: what an open *would* recover.
    fn peek(dir: &Path) -> WalRecovered {
        WalCursor::default().advance(dir, &Obs::disabled()).unwrap()
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::RegisterSession,
            WalRecord::Submit {
                session: 7,
                cost: 120.5,
                weight: f64::NAN,
            },
            WalRecord::Subscribe {
                session: 7,
                query: 1,
            },
            WalRecord::Reweight {
                query: 1,
                weight: 2.0,
            },
            WalRecord::Refine {
                query: 1,
                cost: 80.0,
            },
            WalRecord::SetRate { rate: 32.0 },
            WalRecord::Advance { dt: 0.25 },
            WalRecord::Pump,
            WalRecord::Abort { query: 1 },
            WalRecord::CloseSession { session: 7 },
            WalRecord::Mark {
                iter: 3,
                digest: 0xDEAD,
            },
            WalRecord::SimEvent {
                tag: 4,
                at: 1.5,
                id: 9,
                a: -0.0,
                b: f64::INFINITY,
            },
        ]
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        for rec in sample_records() {
            let bytes = rec.to_bytes();
            let back = WalRecord::from_bytes(&bytes, "wal record").unwrap();
            // NaN payloads survive: compare through re-encoding.
            assert_eq!(bytes, back.to_bytes(), "{rec:?}");
        }
        assert!(WalRecord::from_bytes(&[200], "wal record").is_err());
        assert!(WalRecord::from_bytes(&[], "wal record").is_err());
        // Trailing garbage is rejected, not ignored.
        let mut bytes = WalRecord::Pump.to_bytes();
        bytes.push(9);
        assert!(WalRecord::from_bytes(&bytes, "wal record").is_err());
    }

    #[test]
    fn append_commit_flush_and_reopen() {
        let dir = tmpdir("basic");
        let knobs = WalKnobs {
            flush_every_n: 2,
            ..WalKnobs::default()
        };
        let (mut wal, rec) = Wal::open(&dir, knobs, Obs::disabled()).unwrap();
        assert!(!rec.resumed);
        assert_eq!(wal.next_seq(), 1);
        for r in sample_records() {
            wal.append(&r);
            wal.commit(0.0).unwrap();
        }
        wal.close(0.0).unwrap();

        let (wal2, rec2) = Wal::open(&dir, knobs, Obs::disabled()).unwrap();
        assert!(rec2.resumed);
        assert_eq!(rec2.truncated_bytes, 0);
        assert_eq!(rec2.records.len(), sample_records().len());
        for (i, (seq, r)) in rec2.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(r.to_bytes(), sample_records()[i].to_bytes());
        }
        assert_eq!(wal2.next_seq(), sample_records().len() as u64 + 1);
        assert_eq!(rec2.last_mark(), Some((3, 0xDEAD)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_batches_writes() {
        let dir = tmpdir("group");
        let knobs = WalKnobs {
            flush_every_n: 4,
            flush_every_vt: 1e9,
            compact_every: 0,
        };
        let (mut wal, _) = Wal::open(&dir, knobs, Obs::disabled()).unwrap();
        let seg = wal.seg_path.clone();
        let header = fs::metadata(&seg).unwrap().len();
        for i in 0..3 {
            wal.append(&WalRecord::Advance { dt: i as f64 });
            assert!(!wal.commit(0.0).unwrap());
        }
        // Three commits, zero flushes: nothing on disk yet.
        assert_eq!(fs::metadata(&seg).unwrap().len(), header);
        wal.append(&WalRecord::Pump);
        assert!(wal.commit(0.0).unwrap());
        assert!(fs::metadata(&seg).unwrap().len() > header);
        // Virtual-time trigger: one record, big vt gap.
        wal.append(&WalRecord::Pump);
        assert!(wal.commit(2e9).unwrap());
        drop(wal);
        let rec = peek(&dir);
        assert_eq!(rec.records.len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_and_torn_tails_are_discarded() {
        let dir = tmpdir("tail");
        let knobs = WalKnobs {
            flush_every_n: 1,
            ..WalKnobs::default()
        };
        let (mut wal, _) = Wal::open(&dir, knobs, Obs::disabled()).unwrap();
        for i in 0..5 {
            wal.append(&WalRecord::Mark { iter: i, digest: i });
            wal.commit(0.0).unwrap();
        }
        // An appended-but-never-committed record, force-flushed.
        wal.append(&WalRecord::Pump);
        wal.flush(0.0).unwrap();
        let seg = wal.seg_path.clone();
        drop(wal);

        let obs = Obs::enabled();
        let (wal2, rec) = Wal::open(&dir, knobs, obs.clone()).unwrap();
        assert_eq!(rec.records.len(), 5);
        assert!(rec.truncated_bytes > 0);
        assert_eq!(obs.counter("wal.truncated_bytes"), rec.truncated_bytes);
        assert_eq!(wal2.next_seq(), 6);
        drop(wal2);

        // Torn frame: chop bytes off the tail of the last committed frame.
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let (wal3, rec3) = Wal::open(&dir, knobs, Obs::disabled()).unwrap();
        assert_eq!(rec3.records.len(), 4);
        assert!(rec3.truncated_bytes > 0);
        assert_eq!(wal3.next_seq(), 5);
        // And the log still appends cleanly after recovery.
        drop(wal3);
        let (mut wal4, _) = Wal::open(&dir, knobs, Obs::disabled()).unwrap();
        wal4.append(&WalRecord::Mark { iter: 9, digest: 9 });
        wal4.commit(0.0).unwrap();
        drop(wal4);
        let rec5 = peek(&dir);
        assert_eq!(rec5.records.len(), 5);
        assert_eq!(rec5.last_mark(), Some((9, 9)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_anchors_and_retires() {
        let dir = tmpdir("compact");
        let knobs = WalKnobs {
            flush_every_n: 1,
            ..WalKnobs::default()
        };
        let obs = Obs::enabled();
        let (mut wal, _) = Wal::open(&dir, knobs, obs.clone()).unwrap();
        for i in 0..10 {
            wal.append(&WalRecord::Mark { iter: i, digest: 0 });
            wal.commit(0.0).unwrap();
        }
        wal.compact(b"owner-state-after-10", 0.0).unwrap();
        assert_eq!(wal.records_since_base(), 0);
        for i in 10..13 {
            wal.append(&WalRecord::Mark { iter: i, digest: 0 });
            wal.commit(0.0).unwrap();
        }
        drop(wal);
        assert_eq!(obs.counter("wal.compactions"), 1);

        let (bases, segs) = list_dir(&dir).unwrap();
        assert_eq!(bases.len(), 1);
        assert_eq!(bases[0].0, 10);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, 11);

        let (_, rec) = Wal::open(&dir, knobs, Obs::disabled()).unwrap();
        assert_eq!(rec.base.as_deref(), Some(&b"owner-state-after-10"[..]));
        assert_eq!(rec.base_through, 10);
        let seqs: Vec<u64> = rec.records.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![11, 12, 13]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_on_empty_segment_skips_rotation() {
        let dir = tmpdir("compact-empty");
        let (mut wal, _) = Wal::open(&dir, WalKnobs::default(), Obs::disabled()).unwrap();
        wal.compact(b"initial", 0.0).unwrap();
        wal.compact(b"initial-again", 0.0).unwrap();
        let (bases, segs) = list_dir(&dir).unwrap();
        assert_eq!(bases.len(), 1);
        assert_eq!(segs.len(), 1);
        let (_, rec) = Wal::open(&dir, WalKnobs::default(), Obs::disabled()).unwrap();
        assert_eq!(rec.base.as_deref(), Some(&b"initial-again"[..]));
        assert_eq!(rec.base_through, 0);
        assert!(rec.records.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn peek_tails_only_flushed_commits() {
        let dir = tmpdir("peek");
        let knobs = WalKnobs {
            flush_every_n: 100,
            flush_every_vt: 1e9,
            compact_every: 0,
        };
        let (mut wal, _) = Wal::open(&dir, knobs, Obs::disabled()).unwrap();
        wal.append(&WalRecord::Mark { iter: 1, digest: 1 });
        wal.commit(0.0).unwrap();
        // Committed but unflushed: invisible to a standby.
        assert_eq!(peek(&dir).records.len(), 0);
        wal.flush(0.0).unwrap();
        assert_eq!(peek(&dir).records.len(), 1);
        // Peek must not truncate the primary's files.
        wal.append(&WalRecord::Pump);
        wal.flush(0.0).unwrap();
        let len_before = fs::metadata(&wal.seg_path).unwrap().len();
        let _ = peek(&dir);
        assert_eq!(fs::metadata(&wal.seg_path).unwrap().len(), len_before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cursor_surfaces_only_what_is_new() {
        let dir = tmpdir("cursor");
        let knobs = WalKnobs {
            flush_every_n: 1,
            flush_every_vt: 1e18,
            compact_every: 0,
        };
        let obs = Obs::enabled();
        let (mut wal, _) = Wal::open(&dir, knobs, Obs::disabled()).unwrap();
        let mut cursor = WalCursor::default();
        assert!(cursor.advance(&dir, &obs).unwrap().records.is_empty());
        for i in 0..4 {
            wal.append(&WalRecord::Mark { iter: i, digest: i });
            wal.commit(0.0).unwrap();
        }
        let seqs = |rec: &WalRecovered| rec.records.iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(seqs(&cursor.advance(&dir, &obs).unwrap()), vec![1, 2, 3, 4]);
        assert!(cursor.advance(&dir, &obs).unwrap().records.is_empty());
        // An open frame on disk is read, not surfaced, and read again.
        wal.append(&WalRecord::Pump);
        wal.flush(0.0).unwrap();
        let read = obs.counter("wal.tail_bytes");
        assert!(cursor.advance(&dir, &obs).unwrap().records.is_empty());
        let open_frame = obs.counter("wal.tail_bytes") - read;
        assert_eq!(
            open_frame as usize,
            FRAME_HEADER_LEN + 1 + FRAME_TRAILER_LEN
        );
        wal.append(&WalRecord::Pump);
        wal.commit(0.0).unwrap();
        let rec = cursor.advance(&dir, &obs).unwrap();
        assert_eq!(seqs(&rec), vec![5, 6]);
        assert!(rec.base.is_none());
        assert_eq!(obs.counter("wal.tail_bytes") - read, 3 * open_frame);
        // Compaction past the cursor: the next advance is a full scan.
        wal.append(&WalRecord::Pump);
        wal.compact(b"owner", 0.0).unwrap();
        wal.append(&WalRecord::Mark { iter: 9, digest: 9 });
        wal.commit(0.0).unwrap();
        let rec = cursor.advance(&dir, &obs).unwrap();
        assert_eq!(rec.base.as_deref(), Some(&b"owner"[..]));
        assert_eq!(rec.base_through, 7);
        assert_eq!(seqs(&rec), vec![8]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_cannot_emit_a_frame_recovery_would_reject() {
        let dir = tmpdir("oversize");
        // Zeroed pages: only the buffer the record is framed into is real.
        for (note_len, fits) in [(MAX_NOTE_LEN, true), (MAX_NOTE_LEN + 1, false)] {
            let (mut wal, _) = Wal::open(&dir, WalKnobs::default(), Obs::disabled()).unwrap();
            let rec = WalRecord::Note {
                bytes: vec![0u8; note_len],
            };
            let appended =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wal.append(&rec)));
            assert_eq!(appended.is_ok(), fits, "note of {note_len} bytes");
            if fits {
                let frame = FRAME_HEADER_LEN + MAX_RECORD_LEN + FRAME_TRAILER_LEN;
                assert_eq!(wal.buf.len(), frame);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_knobs_are_rejected() {
        let dir = tmpdir("knobs");
        let bad = WalKnobs {
            flush_every_n: 0,
            ..WalKnobs::default()
        };
        assert!(matches!(
            Wal::open(&dir, bad, Obs::disabled()),
            Err(CkptError::Unsupported(_))
        ));
        let bad_vt = WalKnobs {
            flush_every_vt: f64::NAN,
            ..WalKnobs::default()
        };
        assert!(bad_vt.validate().is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let dir = tmpdir("sweep");
        fs::write(dir.join("base-0000000000000000.ckpt.tmp"), b"torn").unwrap();
        let (_, rec) = Wal::open(&dir, WalKnobs::default(), Obs::disabled()).unwrap();
        assert_eq!(rec.swept_tmp, 1);
        assert!(!dir.join("base-0000000000000000.ckpt.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
