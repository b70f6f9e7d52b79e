//! What the seeded campaigns (`pi-chaos`, `pi-wal-chaos`, `bench-pi`)
//! share: the seed hash their scripts are a pure function of, and the
//! FNV-1a digest the served campaigns' rows pin. A crashed served campaign
//! resumes from the service's own write-ahead log (`pi-chaos --wal-dir`).

use mqpi_pi::EstimatePush;

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
