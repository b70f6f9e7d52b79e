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
//!   with the `ckpt` [`Enc`]/[`Dec`](mqpi_ckpt::Dec) codec.
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
//! # Recovery
//!
//! The recovery scan reads each segment through one reused 64 KiB window
//! and hands each record, and each commit frame, to a [`ScanSink`] as it
//! reads them. [`Wal::open`] collects them into [`WalRecovered`];
//! [`Wal::open_with`] lets the owner apply each batch once it commits, so
//! recovery's memory is the window plus one batch, not the log. A base
//! written at another `mqpi_ckpt::FORMAT_VERSION`, or a segment whose whole
//! header carries another [`SEGMENT_VERSION`], fails the scan with
//! [`CkptError::VersionMismatch`] before any file is touched: it is not
//! damage, and skipping it would drop the records it holds or anchors.
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

#![forbid(unsafe_code)]

use std::fs::{self, File};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
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
/// API one-to-one (plus [`WalRecord::Mark`] and [`WalRecord::Note`] for
/// application-level progress and driver state), so a log is exactly a
/// serialized command history and replaying it is exactly re-invoking the
/// API.
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
// Tag 12 is retired: it carried a simulator feed tap that nothing wrote.
// It decodes as an unknown tag (`Corrupt`) and is not to be reused.
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

/// Bytes a scan or a tail asks a segment file for at a time: the bound on
/// recovery's read buffer. Not a knob. A frame longer than this grows the
/// buffer to that frame only.
const READ_WINDOW: usize = 64 << 10;

/// The shortest frame there is: a one-byte record's.
const MIN_FRAME_LEN: usize = FRAME_HEADER_LEN + 1 + FRAME_TRAILER_LEN;

/// One segment file read front to back through a reused buffer:
/// `buf[pos..end]` holds the bytes read and not yet consumed, and `src`
/// yields the rest of the segment up to the length it was opened at.
struct Window<'b> {
    src: io::Take<File>,
    buf: &'b mut Vec<u8>,
    pos: usize,
    end: usize,
    /// File offset of `buf[pos]`.
    at: u64,
}

impl<'b> Window<'b> {
    /// The `len` bytes of `file` from offset `at`, where `file` stands.
    fn new(file: File, at: u64, len: u64, buf: &'b mut Vec<u8>) -> Self {
        Window {
            src: file.take(len),
            buf,
            pos: 0,
            end: 0,
            at,
        }
    }

    /// The bytes read and not yet consumed.
    fn rest(&self) -> &[u8] {
        &self.buf[self.pos..self.end]
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        self.at += n as u64;
    }

    /// Have `want` bytes unconsumed, or every byte left if the segment ends
    /// first. A refill carries the unconsumed bytes — the front of a frame
    /// the last read cut — to the start of the buffer and reads behind
    /// them. The buffer grows past [`READ_WINDOW`] only to hold one frame,
    /// and never past what the segment holds, so a corrupt length costs no
    /// allocation.
    fn fill(&mut self, want: usize) -> io::Result<()> {
        let have = self.end - self.pos;
        if have >= want || self.src.limit() == 0 {
            return Ok(());
        }
        self.buf.copy_within(self.pos..self.end, 0);
        (self.pos, self.end) = (0, have);
        let left = have as u64 + self.src.limit();
        let target = (want as u64).min(left) as usize;
        let room = ((READ_WINDOW as u64).min(left) as usize).max(target);
        if self.buf.len() < room {
            self.buf.resize(room, 0);
        }
        while self.end < target {
            match self.src.read(&mut self.buf[self.end..room]) {
                Ok(0) => break,
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The unconsumed bytes, holding the whole next frame when the segment
    /// does: its header, then as many bytes as a sane length claims.
    fn frame(&mut self) -> io::Result<&[u8]> {
        self.fill(FRAME_HEADER_LEN + FRAME_TRAILER_LEN)?;
        if let Some(len) = self.rest().get(..4).map(|b| le_u32(b) as usize) {
            if len <= MAX_RECORD_LEN {
                self.fill(FRAME_HEADER_LEN + len + FRAME_TRAILER_LEN)?;
            }
        }
        Ok(self.rest())
    }
}

/// Where a recovery scan hands what it reads, in log order, as it reads it.
///
/// The scan calls [`ScanSink::base`] once; then, segment by segment,
/// [`ScanSink::record`] for each well-formed record past the base and
/// [`ScanSink::commit`] at each frame that ends a commit batch. A record is
/// committed once a `commit` follows it. Records still uncommitted when the
/// scan ends are a torn or open batch: the log truncates them, and the sink
/// must drop them. [`Wal::open`] is the scan with a sink that collects;
/// [`Wal::open_with`] lets the owner apply each batch as it commits, so
/// what recovery holds no longer grows with the log.
pub trait ScanSink {
    /// The newest decodable base: the owner's checkpoint bytes and the
    /// sequence number they cover, or `(None, 0)`. Called before any
    /// record.
    fn base(&mut self, base: Option<Vec<u8>>, through: u64);

    /// A segment of `len` bytes is about to be walked. No frame is shorter
    /// than a one-byte record's 18, which bounds the records it can hand
    /// over. The default ignores it.
    fn segment(&mut self, _len: u64) {}

    /// The next well-formed record past the base, not yet committed.
    fn record(&mut self, seq: u64, rec: WalRecord);

    /// A commit frame: every record handed over since the previous
    /// `commit` is committed.
    fn commit(&mut self);
}

/// How far a walk over a run of frames got.
struct Walk {
    /// Sequence number the frame after the last good one must carry.
    next_seq: u64,
    /// Whether every byte belonged to a good frame (`false`: the walk
    /// stopped at a torn, corrupt, out-of-sequence or undecodable one).
    clean: bool,
    /// The last commit frame met: the file offset just past it and its
    /// sequence number.
    commit: Option<(u64, u64)>,
}

/// Walk the frames under `win`, which must number consecutively from `seq`,
/// handing every decoded record past `skip_through` to `sink`, and every
/// commit frame, as the window reads them.
///
/// The inner loop walks every whole frame the window already holds as a
/// plain slice; the window refills only when the next frame runs past its
/// end. A frame that is still bad once the window holds all of it that the
/// segment has ends the walk.
fn walk_frames(
    win: &mut Window<'_>,
    mut seq: u64,
    skip_through: u64,
    sink: &mut impl ScanSink,
) -> io::Result<Walk> {
    let (mut commit, mut clean) = (None, true);
    loop {
        let at = win.at;
        let bytes = win.frame()?;
        if bytes.is_empty() {
            break;
        }
        let mut pos = 0;
        while let Some((rec, flags, end)) = read_frame(bytes, pos)
            .filter(|f| f.seq == seq)
            .and_then(|f| {
                let rec = WalRecord::from_bytes(f.payload, "wal record").ok()?;
                Some((rec, f.flags, f.end))
            })
        {
            pos = end;
            if seq > skip_through {
                sink.record(seq, rec);
            }
            if flags & FLAG_COMMIT != 0 {
                sink.commit();
                commit = Some((at + pos as u64, seq));
            }
            seq = seq.wrapping_add(1);
        }
        if pos == 0 {
            clean = false;
            break;
        }
        win.consume(pos);
    }
    Ok(Walk {
        next_seq: seq,
        clean,
        commit,
    })
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

/// What [`Wal::open_with`] found, beside the base and the records it
/// handed to its sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOpened {
    /// Sequence number the base covers (0 without a base).
    pub base_through: u64,
    /// As [`WalRecovered::truncated_bytes`].
    pub truncated_bytes: u64,
    /// As [`WalRecovered::swept_tmp`].
    pub swept_tmp: usize,
    /// As [`WalRecovered::resumed`].
    pub resumed: bool,
}

/// The collected form of a scan: the base and every committed record after
/// it, in one vector reserved from the segments' lengths. Each record is
/// moved once, into a vector that never regrows; the slack is never
/// touched, and [`Collect::into_recovered`] gives it back.
#[derive(Default)]
struct Collect {
    base: Option<Vec<u8>>,
    records: Vec<(u64, WalRecord)>,
    committed: usize,
}

impl ScanSink for Collect {
    fn base(&mut self, base: Option<Vec<u8>>, _through: u64) {
        self.base = base;
    }

    fn segment(&mut self, len: u64) {
        self.records.reserve(len as usize / MIN_FRAME_LEN);
    }

    fn record(&mut self, seq: u64, rec: WalRecord) {
        self.records.push((seq, rec));
    }

    fn commit(&mut self) {
        self.committed = self.records.len();
    }
}

impl Collect {
    fn into_recovered(mut self, opened: WalOpened) -> WalRecovered {
        self.records.truncate(self.committed);
        self.records.shrink_to_fit();
        WalRecovered {
            base: self.base,
            base_through: opened.base_through,
            records: self.records,
            truncated_bytes: opened.truncated_bytes,
            swept_tmp: opened.swept_tmp,
            resumed: opened.resumed,
        }
    }
}

struct ScanOutcome {
    /// What the owner learns beside what its sink got (`swept_tmp` still
    /// 0: sweeping is `open`'s).
    opened: WalOpened,
    last_committed_seq: u64,
    /// Segment holding the last committed frame, its surviving byte length,
    /// and its header first-seq. `None` when no segment survives.
    keep: Option<(PathBuf, u64, u64)>,
    /// Segments to delete: retired-but-not-removed ones before the live
    /// window, and everything after the committed cut.
    drop_segments: Vec<PathBuf>,
    /// Base files superseded by the chosen base.
    drop_bases: Vec<PathBuf>,
    /// Length of every segment the scan walked.
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

/// Scan a log directory without mutating it, handing the base and the
/// records to `sink` as they are read. Shared by [`Wal::open_with`] (which
/// then applies the truncation/retirement the scan prescribes) and
/// [`WalCursor::advance`] (standby tailing: the primary still owns the
/// files).
fn scan(dir: &Path, sink: &mut impl ScanSink) -> Result<ScanOutcome> {
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
            // A base another format version wrote is not damage: the whole
            // directory is that version's, and skipping the base would
            // drop the segments it anchors. Refuse before touching a file.
            Err(e @ CkptError::VersionMismatch { .. }) => return Err(e),
            // A damaged or mislabeled base is skipped, not fatal: an older
            // base plus a longer replay reaches the same state.
            _ => drop_bases.push(path.clone()),
        }
    }
    sink.base(base, base_through);

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
    let mut last_committed_seq = base_through;
    for (_, p) in &segs[..scan_from.unwrap_or(0)] {
        drop_segments.push(p.clone());
    }

    // Walk the chain through one read window. `keep` tracks the segment
    // holding the newest committed frame and the byte length that survives
    // in it; a commit batch may span segments (its earlier members live in
    // fully kept predecessors), so the sink holds records past the last
    // commit across a segment edge. Lengths come from the files, not from
    // how far the window read: a walk stops at the first bad frame.
    let mut buf = Vec::new();
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
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        read_bytes += len;
        let idx = chain.len();
        chain.push((path.clone(), len));
        let mut win = Window::new(file, 0, len, &mut buf);
        win.fill(SEGMENT_HEADER_LEN)?;
        let header = win.rest();
        let whole = header.len() >= SEGMENT_HEADER_LEN && &header[..4] == SEGMENT_MAGIC;
        // Like a foreign base, a whole header of another version is not
        // damage: cutting it would drop its records. A short one is a tail
        // torn before the header was written out.
        let found = if whole {
            le_u32(&header[4..])
        } else {
            SEGMENT_VERSION
        };
        if found != SEGMENT_VERSION {
            return Err(CkptError::VersionMismatch {
                found,
                expected: SEGMENT_VERSION,
            });
        }
        let header_ok =
            whole && le_u64(&header[8..]) == first && expected_seq.is_none_or(|e| e == first);
        if !header_ok {
            // Untrustworthy segment: the committed frontier stays wherever
            // the chain so far put it; this file and everything after is
            // dropped.
            cut = true;
            continue;
        }
        win.consume(SEGMENT_HEADER_LEN);
        if keep.is_none() {
            keep = Some((idx, path.clone(), SEGMENT_HEADER_LEN as u64, first));
        }
        sink.segment(len);
        let walk = walk_frames(&mut win, first, base_through, sink)?;
        if let Some((end, seq)) = walk.commit {
            last_committed_seq = seq;
            keep = Some((idx, path.clone(), end, first));
        }
        cut = !walk.clean;
        expected_seq = Some(walk.next_seq);
    }

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
        opened: WalOpened {
            base_through,
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
        let mut sink = Collect::default();
        let scan = scan(dir, &mut sink)?;
        self.seg = scan.keep.as_ref().map(|&(_, len, first)| (first, len));
        self.next_seq = scan.last_committed_seq + 1;
        self.base_through = scan.opened.base_through;
        obs.counter_add("wal.tail_bytes", scan.read_bytes);
        Ok(sink.into_recovered(scan.opened))
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
        let len = file.metadata()?.len();
        if len < offset {
            return Ok(None);
        }
        file.seek(SeekFrom::Start(offset))?;
        obs.counter_add("wal.tail_bytes", len - offset);

        let mut buf = Vec::new();
        let mut win = Window::new(file, offset, len - offset, &mut buf);
        let mut sink = Collect::default();
        sink.segment(len - offset);
        let walk = walk_frames(&mut win, self.next_seq, self.base_through, &mut sink)?;
        let (end, seq) = walk.commit.unwrap_or((offset, self.next_seq - 1));
        self.seg = Some((first, end));
        self.next_seq = seq + 1;
        Ok(Some(sink.into_recovered(WalOpened {
            base_through: self.base_through,
            truncated_bytes: len - end,
            swept_tmp: 0,
            resumed: true,
        })))
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
    ///
    /// This is the collected form of [`Wal::open_with`]: the records are
    /// gathered into one vector, reserved from each segment's length and
    /// shrunk once, so it holds the whole committed suffix at once. An
    /// owner that only replays the suffix can use [`Wal::open_with`] and
    /// hold one commit batch instead.
    pub fn open(dir: &Path, knobs: WalKnobs, obs: Obs) -> Result<(Wal, WalRecovered)> {
        let mut sink = Collect::default();
        let (wal, opened) = Wal::open_with(dir, knobs, obs, &mut sink)?;
        Ok((wal, sink.into_recovered(opened)))
    }

    /// [`Wal::open`] in one streaming pass: each segment is read through a
    /// 64 KiB window and every record is handed to `sink` as the window
    /// reads it (see [`ScanSink`] for the order and what "committed"
    /// means). The files are truncated and retired only after the scan
    /// has handed everything over, so what the sink saw is what the log
    /// keeps.
    pub fn open_with(
        dir: &Path,
        knobs: WalKnobs,
        obs: Obs,
        sink: &mut impl ScanSink,
    ) -> Result<(Wal, WalOpened)> {
        if let Err(why) = knobs.validate() {
            return Err(CkptError::Unsupported(format!("wal knobs: {why}")));
        }
        fs::create_dir_all(dir)?;
        let swept_tmp = sweep_stale_tmp(dir)?;
        let scan = scan(dir, sink)?;

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

        let opened = WalOpened {
            swept_tmp,
            ..scan.opened
        };
        if opened.truncated_bytes > 0 {
            obs.counter_add("wal.truncated_bytes", opened.truncated_bytes);
            obs.emit(
                0.0,
                TraceKind::Wal {
                    action: "recovered_tail",
                    seq: scan.last_committed_seq,
                    bytes: opened.truncated_bytes,
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
            // Records number consecutively from the base, so these are
            // the committed records the scan handed over.
            records_since_base: scan
                .last_committed_seq
                .saturating_sub(scan.opened.base_through),
            buf: Vec::new(),
            buf_records: 0,
            open_frame: None,
            last_flush_vt: 0.0,
        };
        Ok((wal, opened))
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
