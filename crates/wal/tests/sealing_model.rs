//! The sealing state machine against a model: random sequences of
//! `append` / `commit` / `flush` / `compact`, then a crash (drop without
//! flush) and a reopen, whose recovered records must be exactly what the
//! model says reached the disk inside a committed batch. A frame is sealed
//! by whichever of commit, the next append, or a flush comes first; this
//! walks every order of those, under several group-commit policies.

use std::fs;
use std::path::PathBuf;

use mqpi_obs::Obs;
use mqpi_wal::{Wal, WalKnobs, WalRecord};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mqpi-wal-model-{tag}-{}-{:?}",
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

/// A record whose payload length varies from 1 to ~130 bytes, so frames
/// end at every alignment of the CRC's 8-byte step.
fn record_for(r: u64) -> WalRecord {
    match r % 5 {
        0 => WalRecord::Pump,
        1 => WalRecord::Advance {
            dt: (r >> 8) as f64 * 1e-3,
        },
        2 => WalRecord::Submit {
            session: r >> 40,
            cost: (r >> 16) as f64,
            weight: 1.0,
        },
        3 => WalRecord::Mark {
            iter: r >> 32,
            digest: r,
        },
        _ => WalRecord::Note {
            bytes: (0..(r >> 8) % 120).map(|i| (r >> (i % 56)) as u8).collect(),
        },
    }
}

/// The model: what is in the buffer, what is on disk, what the base covers.
#[derive(Default)]
struct Model {
    /// `(seq, record, ends a committed batch)`, flushed.
    disk: Vec<(u64, WalRecord, bool)>,
    /// The same, not yet flushed.
    buf: Vec<(u64, WalRecord, bool)>,
    /// Whether the buffer's last frame can still take the commit flag.
    open: bool,
    next_seq: u64,
    base: Option<(u64, Vec<u8>)>,
}

impl Model {
    fn append(&mut self, rec: WalRecord) {
        self.buf.push((self.next_seq, rec, false));
        self.next_seq += 1;
        self.open = true;
    }

    fn commit(&mut self, flush_every_n: u32) {
        if std::mem::take(&mut self.open) {
            self.buf.last_mut().expect("open frame").2 = true;
        }
        if self.buf.len() >= flush_every_n as usize {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.disk.append(&mut self.buf);
        self.open = false;
    }

    fn compact(&mut self, flush_every_n: u32, ckpt: Vec<u8>) {
        self.commit(flush_every_n);
        self.flush();
        self.base = Some((self.next_seq - 1, ckpt));
    }

    /// What a reopen after a crash must recover: the flushed frames past
    /// the base, up to the last one that ends a committed batch.
    fn recovered(&self) -> Vec<(u64, WalRecord)> {
        let through = self.base.as_ref().map_or(0, |b| b.0);
        let end = self.disk.iter().rposition(|f| f.2).map_or(0, |i| i + 1);
        self.disk[..end]
            .iter()
            .filter(|f| f.0 > through)
            .map(|f| (f.0, f.1.clone()))
            .collect()
    }
}

#[test]
fn random_sequences_recover_what_the_model_says() {
    let mut nonempty = 0;
    let mut lost_tail = 0;
    for case in 0..400u64 {
        let seed = splitmix64(0x005E_A1ED ^ case);
        let flush_every_n = [1, 2, 3, 7, u32::MAX][(seed % 5) as usize];
        let knobs = WalKnobs {
            flush_every_n,
            flush_every_vt: 1e18,
            compact_every: 0,
        };
        let dir = tmpdir(&format!("case-{case}"));
        let (mut wal, _) = Wal::open(&dir, knobs, Obs::disabled()).expect("open fresh log");
        let mut model = Model {
            next_seq: 1,
            ..Model::default()
        };
        let steps = 1 + (seed >> 8) % 40;
        for step in 0..steps {
            let r = splitmix64(seed ^ step.wrapping_mul(0x2545_F491_4F6C_DD1D));
            match r % 16 {
                0..=7 => {
                    let rec = record_for(r >> 4);
                    assert_eq!(wal.append(&rec), model.next_seq);
                    model.append(rec);
                }
                8..=12 => {
                    let before = model.disk.len();
                    let flushed = wal.commit(0.0).expect("commit");
                    model.commit(flush_every_n);
                    assert_eq!(
                        flushed,
                        model.disk.len() > before,
                        "case {case} step {step}: flush policy"
                    );
                }
                13..=14 => {
                    wal.flush(0.0).expect("flush");
                    model.flush();
                }
                _ => {
                    let ckpt = r.to_le_bytes().to_vec();
                    wal.compact(&ckpt, 0.0).expect("compact");
                    model.compact(flush_every_n, ckpt);
                }
            }
            assert_eq!(wal.next_seq(), model.next_seq);
        }
        drop(wal); // crash: the buffer is gone

        let (wal, rec) = Wal::open(&dir, knobs, Obs::disabled()).expect("reopen");
        let want = model.recovered();
        assert_eq!(rec.records, want, "case {case}: recovered records");
        assert_eq!(
            rec.base,
            model.base.as_ref().map(|b| b.1.clone()),
            "case {case}: base bytes"
        );
        assert_eq!(rec.base_through, model.base.as_ref().map_or(0, |b| b.0));
        let frontier = want.last().map_or(rec.base_through, |r| r.0);
        assert_eq!(wal.next_seq(), frontier + 1, "case {case}: next_seq");
        nonempty += usize::from(!want.is_empty());
        lost_tail += usize::from(frontier + 1 < model.next_seq);
        let _ = fs::remove_dir_all(&dir);
    }
    // The cases must cover both a surviving suffix and a lost tail.
    assert!(nonempty > 100, "only {nonempty} cases recovered records");
    assert!(lost_tail > 100, "only {lost_tail} cases lost a tail");
}
