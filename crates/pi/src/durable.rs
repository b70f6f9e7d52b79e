//! Durable open/recovery and warm-standby failover for [`PiService`].
//!
//! The service is a deterministic state machine, so durability is event
//! sourcing: with [`PiConfig::wal`](crate::PiConfig::wal) set,
//! [`PiService::open_durable`] journals every mutating call to an
//! `mqpi-wal` log *before* applying it. Recovery after a crash (SIGKILL
//! included — the log's crash model is "nothing buffered survives") is
//!
//! 1. restore the newest snapshot-anchored base (a regular
//!    [`PiService::checkpoint`] the log compacted itself around),
//! 2. replay the committed record suffix through the same code paths the
//!    live calls used ([`PiService::apply_record`]),
//!
//! which reproduces the pre-crash state — and the push streams its pumps
//! emitted — bit-identically ([`PiService::state_digest`] proves it
//! cheaply). A fresh log is immediately anchored with an initial base, so
//! every later recovery starts from a snapshot.
//!
//! Both steps happen in the log's one scan ([`Wal::open_with`]): the base
//! is restored as soon as the scan picks it, and each record is applied as
//! soon as its commit frame is read, so recovery holds one commit batch
//! (and, at a mark, one mark interval), not the log.
//!
//! # Failover state machine
//!
//! A [`Standby`] is the warm half of an in-process active/standby pair:
//!
//! ```text
//!  Tailing --catch_up()--> Tailing --promote()--> Primary
//!     |                        |
//!     '-- applies flushed, committed records read past a WalCursor
//!         (read-only; the primary still owns the files)
//! ```
//!
//! `catch_up` applies every newly flushed+committed record through
//! [`IncrementalFluid`](mqpi_core::IncrementalFluid) delta updates — the
//! standby maintains live state, it does not re-snapshot, and it reads only
//! the log bytes past its cursor, not the log. When the primary compacts
//! past the standby's position, the standby re-anchors on the new base.
//! [`Standby::promote`] is deterministic: a final catch-up against
//! an authoritative [`Wal::open`] (which also truncates any torn tail the
//! dead primary left), then the log is attached and the promoted service
//! continues journaling at the next sequence number. Because standby and
//! primary run the identical state machine over the identical record
//! prefix, the promoted service takes over push subscriptions with
//! byte-identical estimate streams.

use std::path::{Path, PathBuf};

use mqpi_ckpt::CkptError;
use mqpi_obs::{Obs, TraceKind};
use mqpi_wal::{ScanSink, Wal, WalCursor, WalRecord, WalRecovered};

use crate::{EstimatePush, PiConfig, PiService};

/// What a durable open (or a [`Standby::promote`]) recovered from the log
/// directory, beyond the service itself.
#[derive(Debug)]
pub struct DurableRecovery {
    /// Whether any prior log state existed (false = fresh directory).
    pub resumed: bool,
    /// Committed records replayed on top of the base snapshot.
    pub replayed: u64,
    /// Bytes discarded recovering a torn or uncommitted log tail.
    pub truncated_bytes: u64,
    /// Stale `*.tmp` staging files swept at open.
    pub swept_tmp: usize,
    /// Newest `(iter, digest)` progress marker — from the replayed suffix
    /// or, when compaction already retired it, from the base snapshot's
    /// frontier cache — where a driver loop should resume (see
    /// [`PiService::wal_mark`]).
    pub last_mark: Option<(u64, u64)>,
    /// Newest opaque driver payload (see [`PiService::wal_note`]) — the
    /// driver's own recovered state, suffix- or base-carried like
    /// `last_mark`.
    pub last_note: Option<Vec<u8>>,
    /// Committed records past the newest mark that an at-mark open
    /// ([`PiService::open_durable_at_mark`]) discarded and sealed away
    /// (always 0 for a plain [`PiService::open_durable`]).
    pub sealed: u64,
    /// Estimate pushes regenerated by replayed `Pump` records, in their
    /// original order.
    pub pushes: Vec<EstimatePush>,
    /// Index into `pushes` of the first push after `last_mark` was
    /// journaled: a driver folding a push digest resumes from the marked
    /// digest plus `pushes[pushes_at_mark..]`.
    pub pushes_at_mark: usize,
}

/// A service rebuilt from a log: a base restored, then the committed
/// records after it applied in order through [`Replica::apply`], the one
/// replay loop. The durable open feeds it as the scan reads ([`Replay`]);
/// the standby feeds it the records each tail collects.
#[derive(Debug)]
struct Replica {
    svc: PiService,
    /// Highest sequence number applied: the base's until a record is.
    applied_seq: u64,
    /// Records applied.
    applied: u64,
    /// Pushes regenerated by replayed pumps, oldest first, not yet drained.
    pushes: Vec<EstimatePush>,
    /// Index into `pushes` of the first push after the newest mark.
    mark_pos: usize,
}

impl Replica {
    /// A replica of `base`, which covers the records through `through`.
    /// The directory is authoritative (a base embeds the config it was
    /// checkpointed with); `cfg` builds the service only when there is no
    /// base yet.
    fn new(
        cfg: PiConfig,
        base: Option<&[u8]>,
        through: u64,
        obs: &Obs,
    ) -> Result<Replica, CkptError> {
        let mut svc = match base {
            Some(bytes) => PiService::restore(bytes)?,
            None => PiService::try_new(cfg).map_err(|e| {
                CkptError::Unsupported(format!("invalid PiConfig for durable open: {e}"))
            })?,
        };
        svc.set_obs(obs.clone());
        Ok(Replica {
            svc,
            applied_seq: through,
            applied: 0,
            pushes: Vec::new(),
            mark_pos: 0,
        })
    }

    /// [`Replica::new`], then every record of a collected scan.
    fn from_scan(cfg: PiConfig, rec: &WalRecovered, obs: &Obs) -> Result<Replica, CkptError> {
        let mut replica = Replica::new(cfg, rec.base.as_deref(), rec.base_through, obs)?;
        for (seq, r) in &rec.records {
            replica.apply(*seq, r);
        }
        Ok(replica)
    }

    /// Re-anchor on a newer base, keeping the undrained pushes. A mark the
    /// base carries sits where those pushes end.
    fn rebase(
        &mut self,
        cfg: PiConfig,
        base: Option<&[u8]>,
        through: u64,
        obs: &Obs,
    ) -> Result<(), CkptError> {
        let fresh = Replica::new(cfg, base, through, obs)?;
        if fresh.svc.wal_mark_cache.is_some() {
            self.mark_pos = self.pushes.len();
        }
        self.svc = fresh.svc;
        self.applied_seq = through;
        Ok(())
    }

    /// Apply one committed record, unless it is applied already.
    fn apply(&mut self, seq: u64, rec: &WalRecord) {
        if seq <= self.applied_seq {
            return;
        }
        if let WalRecord::Mark { .. } = rec {
            self.mark_pos = self.pushes.len();
        }
        self.svc.apply_record(rec, &mut self.pushes);
        self.applied_seq = seq;
        self.applied += 1;
    }
}

/// The durable open's [`ScanSink`]. It restores the base as soon as the
/// scan picks it, and applies each record once its commit frame arrives —
/// in at-mark mode, once a committed mark covers it. So it holds one
/// commit batch and one mark interval at a time, never the log.
struct Replay {
    cfg: PiConfig,
    obs: Obs,
    at_mark: bool,
    /// Whether the scan found a base.
    based: bool,
    /// `None` until the scan picks its base; `Err` when that base does not
    /// restore, which the open reports once the log is done with the
    /// directory.
    replica: Option<Result<Replica, CkptError>>,
    /// Records read since the last commit frame.
    batch: Vec<(u64, WalRecord)>,
    /// At-mark mode: committed records no mark covers yet.
    interval: Vec<(u64, WalRecord)>,
}

impl ScanSink for Replay {
    fn base(&mut self, base: Option<Vec<u8>>, through: u64) {
        self.based = base.is_some();
        self.replica = Some(Replica::new(self.cfg, base.as_deref(), through, &self.obs));
    }

    fn record(&mut self, seq: u64, rec: WalRecord) {
        self.batch.push((seq, rec));
    }

    fn commit(&mut self) {
        let Some(Ok(replica)) = &mut self.replica else {
            self.batch.clear();
            return;
        };
        if !self.at_mark {
            for (seq, rec) in self.batch.drain(..) {
                replica.apply(seq, &rec);
            }
            return;
        }
        let covered = self
            .batch
            .iter()
            .rposition(|(_, r)| matches!(r, WalRecord::Mark { .. }));
        if let Some(mark) = covered {
            for (seq, rec) in self.interval.drain(..).chain(self.batch.drain(..=mark)) {
                replica.apply(seq, &rec);
            }
        }
        self.interval.append(&mut self.batch);
    }
}

impl Replay {
    /// The replica, and how many committed records no mark covered (the
    /// at-mark open's `sealed`; the uncommitted batch is simply dropped).
    fn finish(self) -> Result<(Replica, u64), CkptError> {
        let replica = match self.replica {
            Some(replica) => replica?,
            None => Replica::new(self.cfg, None, 0, &self.obs)?,
        };
        Ok((replica, self.interval.len() as u64))
    }
}

impl PiService {
    /// Open (or create) a durable service rooted at log directory `dir`:
    /// recover whatever survives (base snapshot + committed record
    /// suffix, torn tails truncated), replay it, and attach the log so
    /// every subsequent mutating call is journaled.
    ///
    /// `cfg` supplies the runtime WAL policy ([`PiConfig::wal`], default
    /// knobs when `None`) and the service configuration for a *fresh*
    /// directory; once a base exists, the directory is authoritative for
    /// service state. A fresh log is anchored with an initial base
    /// immediately, so recovery always restores from a snapshot.
    pub fn open_durable(
        cfg: PiConfig,
        dir: &Path,
    ) -> Result<(PiService, DurableRecovery), CkptError> {
        Self::open_durable_with_obs(cfg, dir, Obs::disabled())
    }

    /// [`PiService::open_durable`] with an observability handle installed
    /// on both the service and the log (`wal.*` counters, `wal` trace
    /// events, a `wal.replay` span around the scan that replays). Events
    /// the replayed records raise come before the log's `recovered_tail`,
    /// which the scan can only emit once it has read the tail.
    pub fn open_durable_with_obs(
        cfg: PiConfig,
        dir: &Path,
        obs: Obs,
    ) -> Result<(PiService, DurableRecovery), CkptError> {
        Self::open_durable_impl(cfg, dir, obs, false)
    }

    /// Boundary-consistent recovery for mark-driven drivers:
    /// [`PiService::open_durable`], except that replay stops at the newest
    /// [`Mark`](mqpi_wal::WalRecord::Mark) record and any committed records
    /// past it are discarded and sealed away by an immediate compaction.
    ///
    /// A driver that journals one mark per iteration (after the
    /// iteration's commands, before syncing) treats the mark as the
    /// iteration's commit record. A torn write — or outright tail
    /// corruption — can leave the log cut *inside* a later iteration's
    /// batch; replaying those trailing commands would strand the service
    /// mid-iteration, past the mark the driver resumes from. This open
    /// guarantees the recovered state sits exactly on the marked boundary,
    /// so re-driving iteration `last_mark.0 + 1` onward reproduces the
    /// uninterrupted run bit-identically.
    ///
    /// Replay streams with the scan. A committed record is held until a
    /// later committed mark covers it, then applied; what is still held
    /// when the scan ends is `sealed`. So the open holds the read window,
    /// one commit batch and one mark interval besides the service and the
    /// returned `pushes` — not the log. A log with no mark at all is one
    /// interval, held whole and sealed.
    pub fn open_durable_at_mark(
        cfg: PiConfig,
        dir: &Path,
    ) -> Result<(PiService, DurableRecovery), CkptError> {
        Self::open_durable_impl(cfg, dir, Obs::disabled(), true)
    }

    fn open_durable_impl(
        cfg: PiConfig,
        dir: &Path,
        obs: Obs,
        at_mark: bool,
    ) -> Result<(PiService, DurableRecovery), CkptError> {
        let knobs = cfg.wal.unwrap_or_default();
        let mut replay = Replay {
            cfg,
            obs: obs.clone(),
            at_mark,
            based: false,
            replica: None,
            batch: Vec::new(),
            interval: Vec::new(),
        };
        let (wal, opened) = {
            let _span = obs.span("wal.replay");
            Wal::open_with(dir, knobs, obs.clone(), &mut replay)?
        };
        let based = replay.based;
        let (replica, sealed) = replay.finish()?;
        let Replica {
            mut svc,
            applied_seq,
            applied,
            pushes,
            mark_pos,
        } = replica;
        if applied > 0 {
            obs.counter_add("wal.replayed", applied);
            obs.emit(
                svc.now(),
                TraceKind::Wal {
                    action: "replayed",
                    seq: applied_seq,
                    bytes: applied,
                },
            );
        }
        if sealed > 0 {
            obs.counter_add("wal.sealed", sealed);
            obs.emit(
                svc.now(),
                TraceKind::Wal {
                    action: "sealed",
                    seq: applied_seq,
                    bytes: sealed,
                },
            );
        }
        // The frontier caches cover both sources: replayed Mark/Note
        // records set them, and a base whose suffix was compacted away
        // restores them from the snapshot itself.
        let last_mark = svc.wal_mark_cache;
        let last_note = svc.wal_note_cache.clone();
        svc.attach_wal(wal);
        // Seal discarded records out of the log: the compaction's base is
        // the state at the mark, and rotation retires the segments still
        // holding the stale tail — a later recovery cannot resurrect it.
        if !based || sealed > 0 {
            svc.wal_compact_now();
        }
        Ok((
            svc,
            DurableRecovery {
                resumed: opened.resumed,
                replayed: applied,
                truncated_bytes: opened.truncated_bytes,
                swept_tmp: opened.swept_tmp,
                last_mark,
                last_note,
                sealed,
                pushes,
                pushes_at_mark: mark_pos,
            },
        ))
    }
}

/// The warm half of an active/standby pair: maintains a live [`PiService`]
/// replica by tailing a primary's log read-only, ready for a deterministic
/// [`Standby::promote`]. See the module docs for the state machine.
#[derive(Debug)]
pub struct Standby {
    dir: PathBuf,
    cfg: PiConfig,
    obs: Obs,
    /// Where tailing stands in `dir`. Derived from the directory, so it is
    /// rebuilt by a scan and never checkpointed.
    cursor: WalCursor,
    replica: Replica,
}

impl Standby {
    /// Attach to `dir` and replay everything currently flushed and
    /// committed. `cfg` is used only if no base snapshot exists yet (a
    /// primary that has not finished its first durable open).
    pub fn new(cfg: PiConfig, dir: &Path) -> Result<Standby, CkptError> {
        Self::with_obs(cfg, dir, Obs::disabled())
    }

    /// [`Standby::new`] with an observability handle.
    pub fn with_obs(cfg: PiConfig, dir: &Path, obs: Obs) -> Result<Standby, CkptError> {
        cfg.validate()
            .map_err(|e| CkptError::Unsupported(format!("invalid PiConfig for standby: {e}")))?;
        let mut cursor = WalCursor::default();
        let rec = cursor.advance(dir, &obs)?;
        let replica = Replica::from_scan(cfg, &rec, &obs)?;
        Ok(Standby {
            dir: dir.to_path_buf(),
            cfg,
            obs,
            cursor,
            replica,
        })
    }

    /// The live replica (read-only; the standby owns its mutation).
    pub fn service(&self) -> &PiService {
        &self.replica.svc
    }

    /// Highest journal sequence number applied so far.
    pub fn applied_seq(&self) -> u64 {
        self.replica.applied_seq
    }

    /// Newest `(iter, digest)` progress marker applied so far, replayed or
    /// carried by the base.
    pub fn last_mark(&self) -> Option<(u64, u64)> {
        self.replica.svc.wal_mark_cache
    }

    /// Newest opaque driver payload applied so far.
    pub fn last_note(&self) -> Option<&[u8]> {
        self.replica.svc.wal_note_cache.as_deref()
    }

    /// Move the pushes regenerated by replayed pumps into `out` (the
    /// replica's copy of the primary's estimate stream, in order).
    pub fn drain_pushes(&mut self, out: &mut Vec<EstimatePush>) {
        self.replica.mark_pos = 0;
        out.append(&mut self.replica.pushes);
    }

    /// Apply one scan: the records past the applied prefix, after
    /// re-anchoring on the scan's base when the primary compacted past that
    /// prefix (the new base subsumes everything applied, so no push is
    /// duplicated). Returns how many records were applied.
    fn apply_scan(&mut self, rec: &WalRecovered) -> Result<u64, CkptError> {
        let before = self.replica.applied;
        if rec.base_through > self.replica.applied_seq {
            self.replica
                .rebase(self.cfg, rec.base.as_deref(), rec.base_through, &self.obs)?;
        }
        for (seq, r) in &rec.records {
            self.replica.apply(*seq, r);
        }
        Ok(self.replica.applied - before)
    }

    /// Tail the log: apply every record the primary has flushed and
    /// committed since the last call (read-only — the primary keeps
    /// ownership of the files). Returns how many records were applied.
    ///
    /// The cost follows what is new: the replica reads the bytes past its
    /// [`WalCursor`] (counted in `wal.tail_bytes`) — the frames committed
    /// since the last call plus at most one open or torn batch, which the
    /// cursor does not move past and the next call reads again. Only when
    /// the cursor no longer describes the directory — the primary rotated
    /// the segment away, or compacted past what the replica has applied —
    /// does one call pay for a full scan, and only in the second case for
    /// a rebuild from the new base.
    pub fn catch_up(&mut self) -> Result<u64, CkptError> {
        let rec = self.cursor.advance(&self.dir, &self.obs)?;
        self.apply_scan(&rec)
    }

    /// Deterministic failover: take ownership of the log directory
    /// ([`Wal::open`] — this also truncates any torn tail the dead
    /// primary left unflushed), apply the final record suffix, and return
    /// the replica as the new journaling primary plus the recovery
    /// summary (whose `pushes` are the standby's undrained stream).
    ///
    /// Promotion keeps the collected open: a mid-log corruption could put
    /// the authoritative committed frontier *behind* what was tailed
    /// earlier, and that is known only once the whole suffix is read. The
    /// log wins — the replica is then rebuilt to match it exactly.
    ///
    /// Promotion must only happen once the old primary is dead: two
    /// writers on one log directory is undefined.
    pub fn promote(mut self) -> Result<(PiService, DurableRecovery), CkptError> {
        let knobs = self.cfg.wal.unwrap_or_default();
        let (wal, recovered) = Wal::open(&self.dir, knobs, self.obs.clone())?;
        let frontier = recovered
            .records
            .last()
            .map_or(recovered.base_through, |&(s, _)| s);
        let applied = if frontier < self.replica.applied_seq {
            self.replica = Replica::from_scan(self.cfg, &recovered, &self.obs)?;
            self.replica.applied
        } else {
            self.apply_scan(&recovered)?
        };
        let Replica {
            mut svc,
            pushes,
            mark_pos,
            ..
        } = self.replica;
        let (last_mark, last_note) = (svc.wal_mark_cache, svc.wal_note_cache.clone());
        svc.attach_wal(wal);
        if recovered.base.is_none() {
            svc.wal_compact_now();
        }
        Ok((
            svc,
            DurableRecovery {
                resumed: recovered.resumed,
                replayed: applied,
                truncated_bytes: recovered.truncated_bytes,
                swept_tmp: recovered.swept_tmp,
                last_mark,
                last_note,
                sealed: 0,
                pushes,
                pushes_at_mark: mark_pos,
            },
        ))
    }
}
