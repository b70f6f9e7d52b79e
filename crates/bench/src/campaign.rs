//! What the seeded campaigns (`pi-serve`, `pi-chaos`, `pi-wal-chaos`,
//! `bench-pi`) share: the seed hash their scripts are a pure function of,
//! the FNV-1a digest their rows pin, and the mid-replicate snapshot file.

use std::path::{Path, PathBuf};

use mqpi_ckpt::{Dec, Enc, Wire};
use mqpi_pi::{EstimatePush, PiService};

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

pub(crate) fn fold_push(h: u64, p: &EstimatePush) -> u64 {
    let mut h = fnv_fold(h, &p.session.to_le_bytes());
    h = fnv_fold(h, &p.query.to_le_bytes());
    h = fnv_fold(h, &p.at.to_bits().to_le_bytes());
    h = fnv_fold(h, &p.estimate.to_bits().to_le_bytes());
    fnv_fold(h, &[p.done as u8])
}

/// The snapshot file of the replicate seeded with `seed`; `stem` keeps two
/// campaigns sharing a directory apart.
pub(crate) fn snapshot_path(dir: &Path, stem: &str, seed: u64) -> PathBuf {
    dir.join(format!("{stem}-{seed:016x}.ckpt"))
}

/// Mid-replicate snapshot: the driver's encoded loop state, then the full
/// service checkpoint as a blob — everything the loop needs to continue
/// bit-identically.
pub(crate) fn save_snapshot(path: &Path, mut state: Enc, svc: &PiService) -> Result<(), String> {
    svc.checkpoint().enc(&mut state);
    mqpi_ckpt::atomic_write(path, &state.into_bytes()).map_err(|e| format!("checkpoint write: {e}"))
}

/// Read back what [`save_snapshot`] wrote; `None` when there is no file.
pub(crate) fn load_snapshot<S: Wire>(path: &Path) -> Result<Option<(S, PiService)>, String> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("checkpoint read {}: {e}", path.display())),
    };
    let (state, payload): (S, Vec<u8>) =
        Wire::dec(&mut Dec::new(&bytes)).map_err(|e| e.to_string())?;
    let svc = PiService::restore(&payload).map_err(|e| format!("restore: {e}"))?;
    Ok(Some((state, svc)))
}
