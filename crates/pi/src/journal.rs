//! Journal plumbing: run a command between its append and its commit
//! point, compact around the service's own checkpoint, sync, and attach
//! or detach the log. What a record does is the dispatch's business
//! (`command.rs`); the durable open and the standby are
//! [`durable`](crate::durable)'s.

use mqpi_wal::{Wal, WalRecord};

use crate::{EstimatePush, Outcome, PiService};

impl PiService {
    /// Run one command: journal `rec` ahead of applying it, apply it, then
    /// mark its commit point (one public call = one atomic batch), let the
    /// group-commit policy decide whether to flush, and compact when the
    /// auto-compaction threshold is reached. Without a log, only apply.
    ///
    /// A journaling failure is unrecoverable by design: continuing would
    /// silently void the durability contract, so the service stops.
    pub(crate) fn command(&mut self, rec: &WalRecord, out: &mut Vec<EstimatePush>) -> Outcome {
        if let Some(w) = self.wal.as_mut() {
            w.append(rec);
        }
        let outcome = self.apply(rec, out);
        if let Some(w) = self.wal.as_mut() {
            if let Err(e) = w.commit(self.clock) {
                panic!("wal commit failed in {}: {e}", w.dir().display());
            }
            if w.wants_compact() {
                self.wal_compact_now();
            }
        }
        outcome
    }

    /// Snapshot-anchored compaction: the service's own checkpoint becomes
    /// the log's new base and superseded segments are retired. A no-op
    /// without an attached log. Runs automatically every
    /// [`WalKnobs::compact_every`](mqpi_wal::WalKnobs::compact_every)
    /// records; call it directly to compact on an external schedule.
    pub fn wal_compact_now(&mut self) {
        let Some(mut w) = self.wal.take() else {
            return;
        };
        let snap = self.checkpoint();
        if let Err(e) = w.compact(&snap, self.clock) {
            panic!("wal compaction failed in {}: {e}", w.dir().display());
        }
        self.wal = Some(w);
    }

    /// The attached write-ahead log, if the service was opened durably.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Attach an open log. Recovery/creation policy lives in
    /// [`PiService::open_durable`]; this just installs the handle.
    pub(crate) fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// Detach and return the log (e.g. to close it cleanly or hand the
    /// directory to another owner). Subsequent calls stop journaling.
    pub fn detach_wal(&mut self) -> Option<Wal> {
        self.wal.take()
    }

    /// Force the journal to disk regardless of the group-commit policy
    /// (e.g. before handing the push stream to an external consumer).
    pub fn wal_sync(&mut self) {
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        if let Err(e) = w.flush(self.clock) {
            panic!("wal flush failed in {}: {e}", w.dir().display());
        }
    }
}
