//! The command path. Every call that changes the service is one
//! [`WalRecord`]: each public mutator below builds its record and hands
//! it to the journal (`journal.rs`), which appends it, applies it here
//! and commits it. Replay, the durable open and the standby hand records
//! to [`PiService::apply_record`]. Both reach the same dispatch, so a
//! live call and its replay run the same code by construction.

use mqpi_sim::domain;
use mqpi_wal::{WalRecord, MAX_NOTE_LEN};

use crate::{EstimatePush, PiService, SessionId};

/// What one command did: the value its live call returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The command took effect and created nothing.
    Done,
    /// The command did not take effect; only the sanitization counter
    /// may have moved. The live `abort`, `reweight` and `refine_cost`
    /// return `false` for it. Replay also skips records no live call
    /// produces against this state: a submit from a dead session, a rate
    /// that is not finite and positive, a simulator tap.
    Skipped,
    /// `RegisterSession`: the new session's handle.
    Session(SessionId),
    /// `Submit`: the new query's id.
    Query(u64),
}

impl Outcome {
    /// Whether the command took effect.
    pub fn applied(self) -> bool {
        self != Outcome::Skipped
    }
}

impl PiService {
    /// Register a session. Sessions receive pushes for queries they
    /// submitted or subscribed to.
    pub fn register_session(&mut self) -> SessionId {
        match self.command(&WalRecord::RegisterSession, &mut Vec::new()) {
            Outcome::Session(sid) => sid,
            other => unreachable!("a session registration returned {other:?}"),
        }
    }

    /// Deactivate a session and all its subscriptions. Its queries keep
    /// running (ownership is not tracked; aborts are explicit). The slot's
    /// generation is bumped, so the closed handle — and any copy of it —
    /// is dead even after the slot is reused. Stale handles are a no-op.
    pub fn close_session(&mut self, sid: SessionId) {
        self.command(&WalRecord::CloseSession { session: sid }, &mut Vec::new());
    }

    /// Submit a query on behalf of `session`; it is admitted immediately
    /// when a slot is free, else queued FIFO (with an admission deadline
    /// when [`PiConfig::queue_deadline`](crate::PiConfig::queue_deadline)
    /// is set). Non-finite costs and weights are sanitized and counted,
    /// never applied. The submitting session is auto-subscribed. Returns
    /// the query id.
    ///
    /// # Panics
    /// Panics if the session handle is dead (closed or stale generation).
    pub fn submit(&mut self, session: SessionId, cost: f64, weight: f64) -> u64 {
        assert!(
            self.session_slot(session).is_some(),
            "no such session {session:#x}"
        );
        // Raw arguments are journaled so replay repeats the sanitization
        // decisions (and their counters) exactly.
        let rec = WalRecord::Submit {
            session,
            cost,
            weight,
        };
        match self.command(&rec, &mut Vec::new()) {
            Outcome::Query(id) => id,
            other => unreachable!("a submit from a live session returned {other:?}"),
        }
    }

    /// Subscribe a session to a query's estimate stream. No-op for dead
    /// sessions or queries that already left the system (including after
    /// their final push).
    pub fn subscribe(&mut self, session: SessionId, query: u64) {
        self.command(&WalRecord::Subscribe { session, query }, &mut Vec::new());
    }

    /// Advance the service clock by `dt` seconds: the shared model runs
    /// forward, queries whose completion tags are crossed depart (their
    /// subscribers get a final push on the next [`PiService::pump`]),
    /// freed slots admit from the queue, deadlines and backoff delays
    /// fire, the degradation ladder settles, and the breaker audits when
    /// due.
    pub fn advance(&mut self, dt: f64) {
        self.command(&WalRecord::Advance { dt }, &mut Vec::new());
    }

    /// Abort a query (live, queued, or backing off). Subscribers get a
    /// final push on the next pump. Returns false if the query is unknown.
    pub fn abort(&mut self, query: u64) -> bool {
        self.command(&WalRecord::Abort { query }, &mut Vec::new())
            .applied()
    }

    /// Change a query's scheduling weight (priority change, §4), wherever
    /// it currently lives. Non-finite or non-positive weights are
    /// sanitized to 1.0 and counted. Returns false when the query is
    /// unknown.
    pub fn reweight(&mut self, query: u64, weight: f64) -> bool {
        self.command(&WalRecord::Reweight { query, weight }, &mut Vec::new())
            .applied()
    }

    /// Replace a live query's remaining-cost estimate (cost refinement).
    /// Non-finite costs are refused and counted, never applied.
    pub fn refine_cost(&mut self, query: u64, cost: f64) -> bool {
        self.command(&WalRecord::Refine { query, cost }, &mut Vec::new())
            .applied()
    }

    /// Change the aggregate rate `C` — O(1) in the incremental model.
    ///
    /// # Panics
    /// Panics if `rate` is not finite and positive.
    pub fn set_rate(&mut self, rate: f64) {
        domain::rate(rate).expect("rate must be finite and positive");
        self.command(&WalRecord::SetRate { rate }, &mut Vec::new());
    }

    /// Push refreshed estimates into `out`: final zero-estimates for
    /// departed queries first (closing those subscriptions), then every
    /// live subscription whose `O(log n)` point estimate moved more than
    /// the effective epsilon since its last push. Queued (not yet
    /// admitted) queries have no point estimate; their subscribers are
    /// pushed once admission gives them a tag.
    ///
    /// Only subscriptions that *can* have moved are read. An estimate
    /// falls at one second per second between deltas and a delta moves
    /// everybody else's by a bounded amount, so each slot carries the
    /// value of `clock + drift` before which it is provably still inside
    /// epsilon (see the `drift` field and DESIGN.md §13); slots short of
    /// it are skipped, and a pump short of the smallest key returns
    /// without looking at any slot. The slots that are read go through the
    /// exact predicate, so pushes, their order and their values are those
    /// of a scan that reads everything.
    ///
    /// Estimates fall in lockstep, so slots pushed together come due
    /// together. When the due slots' `O(log n)` descents would visit at
    /// least as many nodes as the tree holds
    /// (`due × ⌈log2(live + 1)⌉ ≥ live`), the pump first takes every
    /// live estimate from one walk of the tree
    /// ([`IncrementalFluid::sweep_into`](mqpi_core::IncrementalFluid::sweep_into),
    /// bit-identical to the point reads) and the due slots read theirs
    /// from that; either way a read reaches its node through a
    /// per-subscription handle, not the id index (DESIGN.md §13, "Due
    /// waves").
    ///
    /// The degradation ladder shapes this path: the EpsilonWiden tier
    /// multiplies the epsilon, and the FinalsOnly/Shed tiers skip
    /// non-final pushes entirely (finals always flow, so "no estimate
    /// after final" and "monotone finals" hold in every tier).
    ///
    /// Push order is deterministic: finals in departure order, then
    /// subscriptions in slot order. Appends to `out` without clearing it.
    pub fn pump(&mut self, out: &mut Vec<EstimatePush>) {
        self.command(&WalRecord::Pump, out);
    }

    /// Journal an application progress marker: an opaque `(iter, digest)`
    /// pair a driver loop writes once per iteration so recovery can
    /// resume the loop where the log ends (see
    /// [`DurableRecovery::last_mark`](crate::DurableRecovery::last_mark)).
    /// Commits immediately. A no-op without an attached log.
    pub fn wal_mark(&mut self, iter: u64, digest: u64) {
        if self.wal.is_some() {
            self.command(&WalRecord::Mark { iter, digest }, &mut Vec::new());
        }
    }

    /// Journal an opaque driver payload (e.g. the campaign loop's own
    /// state blob) so driver and service recover from a single consistent
    /// frontier; recovery surfaces the newest one
    /// ([`DurableRecovery::last_note`](crate::DurableRecovery::last_note)).
    /// Commits immediately. A no-op without an attached log.
    ///
    /// Returns `false`, journaling nothing and leaving the previous note in
    /// place, when `bytes` is longer than [`MAX_NOTE_LEN`]: recovery reads a
    /// larger record as corruption and would cut the log there, taking
    /// every later committed record with it (counter `wal.note_rejected`).
    pub fn wal_note(&mut self, bytes: &[u8]) -> bool {
        if self.wal.is_none() {
            return true;
        }
        if bytes.len() > MAX_NOTE_LEN {
            self.obs.counter_add("wal.note_rejected", 1);
            return false;
        }
        let rec = WalRecord::Note {
            bytes: bytes.to_vec(),
        };
        self.command(&rec, &mut Vec::new());
        true
    }

    /// Apply one journaled record to a service detached from any log: the
    /// replay primitive behind [`PiService::open_durable`] and
    /// [`Standby`](crate::Standby), and the same dispatch every live call
    /// takes. Pushes regenerated by a replayed `Pump` are appended to
    /// `out`. Records a live service could not have produced against this
    /// state (possible only in a hand-crafted log; CRC framing rejects
    /// corruption) are [`Outcome::Skipped`], so replay is total over any
    /// decodable log.
    pub fn apply_record(&mut self, rec: &WalRecord, out: &mut Vec<EstimatePush>) -> Outcome {
        debug_assert!(self.wal.is_none(), "replaying into a journaling service");
        self.apply(rec, out)
    }

    /// The one dispatch from a record to the code that applies it.
    pub(crate) fn apply(&mut self, rec: &WalRecord, out: &mut Vec<EstimatePush>) -> Outcome {
        let applied = |ok: bool| {
            if ok {
                Outcome::Done
            } else {
                Outcome::Skipped
            }
        };
        match *rec {
            WalRecord::RegisterSession => Outcome::Session(self.apply_register()),
            WalRecord::CloseSession { session } => {
                self.apply_close(session);
                Outcome::Done
            }
            WalRecord::Submit {
                session,
                cost,
                weight,
            } => match self.session_slot(session) {
                Some(slot) => Outcome::Query(self.apply_submit(slot, cost, weight)),
                None => Outcome::Skipped,
            },
            WalRecord::Subscribe { session, query } => {
                self.apply_subscribe(session, query);
                Outcome::Done
            }
            WalRecord::Abort { query } => applied(self.apply_abort(query)),
            WalRecord::Reweight { query, weight } => applied(self.apply_reweight(query, weight)),
            WalRecord::Refine { query, cost } => applied(self.apply_refine(query, cost)),
            WalRecord::SetRate { rate } => {
                let valid = domain::rate(rate).is_ok();
                if valid {
                    self.apply_set_rate(rate);
                }
                applied(valid)
            }
            WalRecord::Advance { dt } => {
                self.apply_advance(dt);
                Outcome::Done
            }
            WalRecord::Pump => {
                self.apply_pump(out);
                Outcome::Done
            }
            // Marks and notes only refresh the driver-frontier caches, so
            // checkpoint bytes (and hence state digests) after a replay
            // match the uninterrupted run.
            WalRecord::Mark { iter, digest } => {
                self.wal_mark_cache = Some((iter, digest));
                Outcome::Done
            }
            WalRecord::Note { ref bytes } => {
                let note = self.wal_note_cache.get_or_insert_with(Vec::new);
                note.clear();
                note.extend_from_slice(bytes);
                Outcome::Done
            }
            // Simulator feed taps describe a mirror, not the service.
            WalRecord::SimEvent { .. } => Outcome::Skipped,
        }
    }
}
