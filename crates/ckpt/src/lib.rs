//! `mqpi-ckpt` — versioned, checksummed, byte-stable checkpoint containers.
//!
//! This crate is the dependency-free foundation of the crash-safe
//! checkpoint/restore subsystem. It owns four things:
//!
//! * A tiny binary codec ([`Enc`]/[`Dec`]) with a fixed little-endian wire
//!   format. Floats travel as IEEE-754 bit patterns ([`f64::to_bits`]), so
//!   a round trip is *bit*-exact — the property the deterministic-resume
//!   guarantee is built on.
//! * One wire description per type: the [`Wire`] trait, implemented here
//!   for the scalars, `Option`, the sequences and small tuples, and by
//!   [`wire_struct!`] / [`wire_enum!`] for plain-data types from a single
//!   field list that expands to both directions.
//! * A file container: `MQPI` magic, format version, a `kind` string naming
//!   the payload schema, the length-prefixed payload, and a trailing CRC-32
//!   over everything before it. [`read_file`] validates all of it and
//!   returns a typed [`CkptError`] instead of panicking, so corrupt,
//!   truncated, or version-mismatched snapshots degrade to a fresh start.
//! * Atomic, durable writes: [`atomic_write`] stages into a sibling temp
//!   file, fsyncs it, renames over the target, and fsyncs the parent
//!   directory, so a crash — including power loss — never leaves a torn
//!   file behind (rename is atomic on POSIX filesystems) and a completed
//!   write is actually on disk. [`sweep_stale_tmp`] collects staging files
//!   orphaned by a crash mid-write.
//!
//! The state encoders themselves live next to the state they snapshot
//! (`pi::PiService::checkpoint`, `core::IncrementalFluid`'s [`Wire`], the
//! chaos campaign's outcome file, the log's records and bases); this crate
//! knows nothing about them — it only guarantees that what was written is
//! exactly what is read back, or that the mismatch is reported.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Version stamp of the container layout *and* every payload schema built
/// on top of it. Bump on any wire-format change; readers reject snapshots
/// from other versions (a fresh run is always cheaper than decoding a
/// guess).
///
/// v2: `System` payloads grew a trailing delta-event-feed section, and the
/// PI session service (`mqpi-pi`) introduced its own payload kinds. (The
/// `System`, `InvariantValidator`, `BandedPi` and `Obs` payloads are gone
/// since: nothing resumed them. Deleting them moved no byte a program
/// writes, so it took no bump.)
///
/// v3: `PiService` payloads grew a WAL-policy section, and the durability
/// layer (`mqpi-wal`) introduced segment and base-snapshot payload kinds.
///
/// v4: the configuration values that had one value in every caller left
/// the payloads with their fields: `SystemConfig::speed_tau`, `PiConfig`'s
/// four arrival and cost priors, `LadderConfig::epsilon_factor` and
/// `RetryPolicy::multiplier` (inside fault plans and `PiConfig`).
pub const FORMAT_VERSION: u32 = 4;

/// File magic, first four bytes of every snapshot.
pub const MAGIC: &[u8; 4] = b"MQPI";

/// Why a checkpoint could not be produced or consumed.
#[derive(Debug)]
pub enum CkptError {
    /// The byte stream ended before the decoder got what it needed.
    Truncated,
    /// Structurally invalid data: bad magic, CRC mismatch, impossible
    /// lengths, unknown enum tags.
    Corrupt(String),
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The snapshot holds a different payload schema than the caller asked
    /// for (e.g. a log base passed where a service snapshot is expected).
    KindMismatch {
        /// Kind string found in the file.
        found: String,
        /// Kind string the caller expected.
        expected: String,
    },
    /// Filesystem-level failure.
    Io(io::Error),
    /// The request cannot be served as configured (e.g. a durable open or
    /// a log with knobs out of range).
    Unsupported(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::Corrupt(why) => write!(f, "checkpoint corrupt: {why}"),
            CkptError::VersionMismatch { found, expected } => {
                write!(f, "checkpoint version {found} (expected {expected})")
            }
            CkptError::KindMismatch { found, expected } => {
                write!(f, "checkpoint kind {found:?} (expected {expected:?})")
            }
            CkptError::Io(e) => write!(f, "checkpoint io: {e}"),
            CkptError::Unsupported(why) => write!(f, "checkpoint unsupported: {why}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, CkptError>;

// ---------------------------------------------------------------------------
// codec
// ---------------------------------------------------------------------------

/// Append-only binary encoder. All integers are little-endian; floats are
/// IEEE-754 bit patterns; strings and byte blobs are `u64` length-prefixed.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Encoder that appends to `buf`, keeping what it already holds and
    /// its capacity: a caller that frames records into one long-lived
    /// buffer encodes in place, then takes the buffer back with
    /// [`Enc::into_bytes`].
    pub fn wrap(buf: Vec<u8>) -> Self {
        Enc { buf }
    }

    /// Consume the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (the format is 64-bit regardless of
    /// host width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its IEEE-754 bit pattern — bit-exact round trip,
    /// including negative zero, infinities, and NaN payloads.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed byte blob.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_usize(b.len());
        self.buf.extend_from_slice(b);
    }
}

/// Cursor-based decoder over an encoded byte slice. Every getter returns
/// [`CkptError::Truncated`] rather than panicking when the stream runs dry.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor consumed the whole input.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one raw byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a `u64` and narrow it to `usize`, rejecting values that do not
    /// fit the host (only possible on 32-bit hosts reading a hostile file).
    pub fn get_usize(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CkptError::Corrupt(format!("length {v} overflows usize")))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool byte, rejecting anything but 0/1.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CkptError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let n = self.get_usize()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| CkptError::Corrupt("non-utf8 string".into()))
    }

    /// Read a length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.get_usize()?;
        Ok(self.take(n)?.to_vec())
    }
}

// ---------------------------------------------------------------------------
// one wire description per type
// ---------------------------------------------------------------------------

/// A type with one wire form. [`wire_struct!`] and [`wire_enum!`] take the
/// field list once and expand to both directions; write the impl by hand
/// only where decoding validates or rebuilds (a treap, an interner, a
/// re-sorted plan), and use the trait for the plain parts there too.
pub trait Wire: Sized {
    /// Append this value's encoding to `e`.
    fn enc(&self, e: &mut Enc);

    /// Read one value back, with a typed error for anything malformed.
    fn dec(d: &mut Dec<'_>) -> Result<Self>;

    /// A `u64` count, then each element (`u8` overrides this and
    /// [`Wire::dec_vec`] with one `memcpy`).
    fn enc_slice(xs: &[Self], e: &mut Enc) {
        e.put_usize(xs.len());
        for x in xs {
            x.enc(e);
        }
    }

    /// Inverse of [`Wire::enc_slice`]. The count is hostile until elements
    /// back it up: the reservation never exceeds the bytes that remain,
    /// and as every element takes at least one byte, a count the input
    /// cannot hold ends in [`CkptError::Truncated`] when they run out.
    fn dec_vec(d: &mut Dec<'_>) -> Result<Vec<Self>> {
        let n = d.get_usize()?;
        let fits = d.remaining() / std::mem::size_of::<Self>().max(1);
        let mut v = Vec::with_capacity(n.min(fits));
        for _ in 0..n {
            v.push(Self::dec(d)?);
        }
        Ok(v)
    }

    /// This value alone, as a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.enc(&mut e);
        e.into_bytes()
    }

    /// Decode a buffer holding exactly one value; bytes left over are
    /// [`CkptError::Corrupt`] (`what` names the value in the message).
    fn from_bytes(bytes: &[u8], what: &str) -> Result<Self> {
        let mut d = Dec::new(bytes);
        let v = Self::dec(&mut d)?;
        if !d.is_exhausted() {
            return Err(CkptError::Corrupt(format!(
                "{} trailing bytes after {what}",
                d.remaining()
            )));
        }
        Ok(v)
    }
}

// The scalar and string impls only forward to one `Enc`/`Dec` method and are
// not generic, so they are marked `#[inline]`: a field then costs its user the
// one cross-crate call a hand-written `d.get_u64()` did, not two.
macro_rules! wire_scalar {
    ($($t:ty: $put:ident / $get:ident),*) => {$(
        impl Wire for $t {
            #[inline]
            fn enc(&self, e: &mut Enc) {
                e.$put(*self);
            }
            #[inline]
            fn dec(d: &mut Dec<'_>) -> Result<Self> {
                d.$get()
            }
        }
    )*};
}
wire_scalar!(u32: put_u32 / get_u32, u64: put_u64 / get_u64, usize: put_usize / get_usize);
wire_scalar!(f64: put_f64 / get_f64, bool: put_bool / get_bool);

impl Wire for u8 {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        e.put_u8(*self);
    }
    #[inline]
    fn dec(d: &mut Dec<'_>) -> Result<Self> {
        d.get_u8()
    }
    #[inline]
    fn enc_slice(xs: &[Self], e: &mut Enc) {
        e.put_bytes(xs);
    }
    #[inline]
    fn dec_vec(d: &mut Dec<'_>) -> Result<Vec<Self>> {
        d.get_bytes()
    }
}

impl Wire for String {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        e.put_str(self);
    }
    #[inline]
    fn dec(d: &mut Dec<'_>) -> Result<Self> {
        d.get_str()
    }
}

impl Wire for Arc<str> {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        e.put_str(self);
    }
    #[inline]
    fn dec(d: &mut Dec<'_>) -> Result<Self> {
        d.get_str().map(Arc::from)
    }
}

/// Presence byte (0/1, anything else is corrupt), then the value.
impl<T: Wire> Wire for Option<T> {
    fn enc(&self, e: &mut Enc) {
        e.put_bool(self.is_some());
        if let Some(x) = self {
            x.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self> {
        Ok(if d.get_bool()? {
            Some(T::dec(d)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self, e: &mut Enc) {
        T::enc_slice(self, e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self> {
        T::dec_vec(d)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn enc(&self, e: &mut Enc) {
        e.put_usize(self.len());
        for x in self {
            x.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self> {
        T::dec_vec(d).map(VecDeque::from)
    }
}

/// Count, then `(key, value)` pairs in key order — canonical by
/// construction. A repeated key keeps its last value.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn enc(&self, e: &mut Enc) {
        e.put_usize(self.len());
        for (k, v) in self {
            k.enc(e);
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self> {
        Ok(<(K, V)>::dec_vec(d)?.into_iter().collect())
    }
}

macro_rules! wire_tuple {
    ($($i:tt $t:ident),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn enc(&self, e: &mut Enc) {
                $(self.$i.enc(e);)+
            }
            fn dec(d: &mut Dec<'_>) -> Result<Self> {
                Ok(($($t::dec(d)?,)+))
            }
        }
    };
}
wire_tuple!(0 A, 1 B);
wire_tuple!(0 A, 1 B, 2 C);
wire_tuple!(0 A, 1 B, 2 C, 3 D);

/// `impl Wire` for a struct from its field list, in wire order: each field
/// is written, and read back, through its own [`Wire`] impl. Appending a
/// field is one more name here (and a [`FORMAT_VERSION`] bump, as for any
/// change to the bytes).
///
/// ```
/// struct Span { calls: u64, units: f64 }
/// mqpi_ckpt::wire_struct!(Span { calls, units });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($t:ty { $($f:ident),* $(,)? }) => {
        impl $crate::Wire for $t {
            fn enc(&self, e: &mut $crate::Enc) {
                $($crate::Wire::enc(&self.$f, e);)*
            }
            fn dec(d: &mut $crate::Dec<'_>) -> $crate::Result<Self> {
                Ok(Self { $($f: $crate::Wire::dec(d)?),* })
            }
        }
    };
}

/// `impl Wire` for an enum of unit and struct-like variants: a tag byte,
/// then the variant's fields in the order listed. A tag not listed decodes
/// to [`CkptError::Corrupt`] naming `$what`.
///
/// ```
/// enum Rate { Constant, Contention { alpha: f64 } }
/// mqpi_ckpt::wire_enum!(Rate, "rate model" { 0 => Constant, 1 => Contention { alpha } });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($t:ty, $what:literal { $($tag:tt => $v:ident $({ $($f:ident),* })?),* $(,)? }) => {
        impl $crate::Wire for $t {
            fn enc(&self, e: &mut $crate::Enc) {
                match self {
                    $(Self::$v $({ $($f),* })? => {
                        e.put_u8($tag);
                        $($($crate::Wire::enc($f, e);)*)?
                    })*
                }
            }
            // Inlined into `from_bytes`: without the hint the value crosses
            // two `Result`s on its way out, which cost the WAL recovery scan
            // 15 ns a record (1.27x on `Wal::open` over 10^6 records).
            #[inline]
            fn dec(d: &mut $crate::Dec<'_>) -> $crate::Result<Self> {
                match d.get_u8()? {
                    $($tag => Ok(Self::$v $({ $($f: $crate::Wire::dec(d)?),* })?),)*
                    t => Err($crate::CkptError::Corrupt(format!(
                        concat!("unknown ", $what, " tag {}"),
                        t
                    ))),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, slicing-by-8)
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC state after byte `b` followed by `k` zero bytes, which lets
/// eight input bytes be folded in with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `data` — the polynomial used by gzip/zip/PNG, so
/// snapshots can be cross-checked with standard tools. Eight bytes per
/// step (slicing-by-8), the last `len % 8` one at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// container
// ---------------------------------------------------------------------------

/// Frame `payload` into the container format: magic, version, kind,
/// length-prefixed payload, CRC-32 of everything prior.
pub fn encode_container(kind: &str, payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.buf.extend_from_slice(MAGIC);
    e.put_u32(FORMAT_VERSION);
    e.put_str(kind);
    e.put_bytes(payload);
    let crc = crc32(&e.buf);
    e.put_u32(crc);
    e.into_bytes()
}

/// Validate a container framed by [`encode_container`] and return its
/// payload. Checks, in order: length, magic, CRC (before trusting any
/// other field), format version, kind.
pub fn decode_container(bytes: &[u8], expected_kind: &str) -> Result<Vec<u8>> {
    if bytes.len() < MAGIC.len() + 4 + 4 {
        return Err(CkptError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(CkptError::Corrupt("bad magic".into()));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let mut a = [0u8; 4];
    a.copy_from_slice(crc_bytes);
    let stored = u32::from_le_bytes(a);
    let computed = crc32(body);
    if stored != computed {
        return Err(CkptError::Corrupt(format!(
            "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    let mut d = Dec::new(&body[4..]);
    let version = d.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(CkptError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let kind = d.get_str()?;
    if kind != expected_kind {
        return Err(CkptError::KindMismatch {
            found: kind,
            expected: expected_kind.to_string(),
        });
    }
    let payload = d.get_bytes()?;
    if !d.is_exhausted() {
        return Err(CkptError::Corrupt(format!(
            "{} trailing bytes after payload",
            d.remaining()
        )));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// atomic file I/O
// ---------------------------------------------------------------------------

/// Write `contents` to `path` atomically *and durably*: stage into a
/// sibling `.tmp` file, fsync it, rename over the target, then fsync the
/// parent directory so the rename itself survives power loss. Readers never
/// observe a torn file — they see either the old contents or the new, and a
/// crash mid-write leaves at worst a stray temp file (collected by
/// [`sweep_stale_tmp`] on the next startup).
pub fn atomic_write(path: &Path, contents: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    let mut tmp_name = path
        .file_name()
        .map_or_else(|| "ckpt".into(), |n| n.to_os_string());
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let staged = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        // Data must be on disk *before* the rename publishes the name; a
        // rename alone can be journalled ahead of the data it points at.
        f.sync_all()
    })();
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => {
            sync_parent_dir(path);
            Ok(())
        }
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Fsync the directory containing `path`, making a just-completed rename or
/// unlink durable. Best-effort: directory fsync is a durability upgrade on
/// top of an already-atomic rename, so failures (e.g. filesystems that
/// refuse to open directories) are swallowed rather than failing the write.
pub fn sync_parent_dir(path: &Path) {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    sync_dir(dir);
}

/// Fsync a directory handle itself (entries added/removed/renamed in it).
/// Best-effort, same rationale as [`sync_parent_dir`].
pub fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Remove stale `*.tmp` staging files left in `dir` by a crash mid
/// [`atomic_write`]. Returns how many were removed. Call once at startup
/// before trusting a directory of snapshots; a temp file that was never
/// renamed was by definition never published, so deleting it is always
/// safe.
pub fn sweep_stale_tmp(dir: &Path) -> io::Result<usize> {
    let mut swept = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let is_tmp = Path::new(&name).extension().is_some_and(|e| e == "tmp");
        if is_tmp && entry.file_type()?.is_file() {
            std::fs::remove_file(entry.path())?;
            swept += 1;
        }
    }
    if swept > 0 {
        sync_dir(dir);
    }
    Ok(swept)
}

/// Atomically write `payload` to `path` as a framed, checksummed snapshot.
pub fn write_file(path: &Path, kind: &str, payload: &[u8]) -> Result<()> {
    atomic_write(path, &encode_container(kind, payload))?;
    Ok(())
}

/// Read and validate a snapshot written by [`write_file`], returning its
/// payload. A missing file surfaces as `CkptError::Io` with
/// [`io::ErrorKind::NotFound`] so callers can distinguish "never written"
/// from "written but damaged".
pub fn read_file(path: &Path, kind: &str) -> Result<Vec<u8>> {
    let bytes = std::fs::read(path)?;
    decode_container(&bytes, kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_payload() -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_f64(-0.0);
        e.put_f64(f64::INFINITY);
        e.put_f64(0.1 + 0.2);
        e.put_bool(true);
        e.put_str("héllo");
        e.put_bytes(&[1, 2, 3]);
        None::<f64>.enc(&mut e);
        Some(1.5f64).enc(&mut e);
        Some(9u64).enc(&mut e);
        e.into_bytes()
    }

    #[test]
    fn codec_round_trips_bit_exactly() {
        let bytes = sample_payload();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(d.get_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_str().unwrap(), "héllo");
        assert_eq!(d.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(Option::<f64>::dec(&mut d).unwrap(), None);
        assert_eq!(Option::<f64>::dec(&mut d).unwrap(), Some(1.5));
        assert_eq!(Option::<u64>::dec(&mut d).unwrap(), Some(9));
        assert!(d.is_exhausted());
    }

    #[test]
    fn decoder_reports_truncation_not_panic() {
        let bytes = sample_payload();
        let mut d = Dec::new(&bytes[..3]);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert!(matches!(d.get_u32(), Err(CkptError::Truncated)));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition, one bit at a time: the oracle the sliced
    /// implementation must agree with on every input.
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

    #[test]
    fn crc32_equals_the_bytewise_reference() {
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        // Every split between 8-byte steps and tail, at every alignment.
        let patterned: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &patterned[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start {start} len {len}");
            }
        }
        // Random buffers up to 1 MiB (xorshift; sizes straddle the step).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [1usize, 7, 8, 9, 4095, 4096, 65_537, (1 << 20) - 3, 1 << 20] {
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&buf), crc32_reference(&buf), "len {len}");
        }
        for _ in 0..64 {
            let len = (next() % 3000) as usize;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&buf), crc32_reference(&buf), "len {len}");
        }
    }

    #[test]
    fn container_round_trips() {
        let framed = encode_container("unit-test", b"payload bytes");
        let payload = decode_container(&framed, "unit-test").unwrap();
        assert_eq!(payload, b"payload bytes");
    }

    #[test]
    fn container_rejects_bit_flip() {
        let mut framed = encode_container("unit-test", b"payload bytes");
        let mid = framed.len() / 2;
        framed[mid] ^= 0x40;
        assert!(matches!(
            decode_container(&framed, "unit-test"),
            Err(CkptError::Corrupt(_))
        ));
    }

    #[test]
    fn container_rejects_truncation() {
        let framed = encode_container("unit-test", b"payload bytes");
        let cut = &framed[..framed.len() - 5];
        // Truncation shears the CRC, so it surfaces as either Truncated or
        // Corrupt — never a panic and never a payload.
        assert!(decode_container(cut, "unit-test").is_err());
        assert!(decode_container(&framed[..6], "unit-test").is_err());
    }

    #[test]
    fn container_rejects_version_mismatch() {
        // Re-frame by hand with a future version and a valid CRC.
        let mut e = Enc::new();
        e.buf.extend_from_slice(MAGIC);
        e.put_u32(FORMAT_VERSION + 1);
        e.put_str("unit-test");
        e.put_bytes(b"payload");
        let crc = crc32(&e.buf);
        e.put_u32(crc);
        let framed = e.into_bytes();
        assert!(matches!(
            decode_container(&framed, "unit-test"),
            Err(CkptError::VersionMismatch { found, expected })
                if found == FORMAT_VERSION + 1 && expected == FORMAT_VERSION
        ));
    }

    #[test]
    fn container_rejects_kind_mismatch() {
        let framed = encode_container("chaos-run", b"payload");
        assert!(matches!(
            decode_container(&framed, "trace-state"),
            Err(CkptError::KindMismatch { found, expected })
                if found == "chaos-run" && expected == "trace-state"
        ));
    }

    #[test]
    fn container_rejects_bad_magic() {
        let mut framed = encode_container("unit-test", b"payload");
        framed[0] = b'X';
        assert!(matches!(
            decode_container(&framed, "unit-test"),
            Err(CkptError::Corrupt(_))
        ));
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("mqpi-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckpt");
        write_file(&path, "unit-test", b"abc").unwrap();
        assert_eq!(read_file(&path, "unit-test").unwrap(), b"abc");
        let missing = dir.join("missing.ckpt");
        assert!(matches!(
            read_file(&missing, "unit-test"),
            Err(CkptError::Io(e)) if e.kind() == io::ErrorKind::NotFound
        ));
        // Overwrite goes through the same atomic path.
        write_file(&path, "unit-test", b"def").unwrap();
        assert_eq!(read_file(&path, "unit-test").unwrap(), b"def");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("mqpi-ckpt-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        atomic_write(&path, b"a,b\n1,2\n").unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("out.csv")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_only_stale_tmp_files() {
        let dir = std::env::temp_dir().join(format!("mqpi-ckpt-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("real.ckpt"), b"keep").unwrap();
        std::fs::write(dir.join("real.ckpt.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("other.tmp"), b"torn").unwrap();
        assert_eq!(sweep_stale_tmp(&dir).unwrap(), 2);
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, vec![std::ffi::OsString::from("real.ckpt")]);
        // Idempotent on a clean directory.
        assert_eq!(sweep_stale_tmp(&dir).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
