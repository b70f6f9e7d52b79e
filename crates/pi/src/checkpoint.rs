//! Checkpoint, restore and the state digest, with the structural checks
//! a decoded payload must pass before the service trusts it.

use mqpi_ckpt::{CkptError, Dec, Enc, Wire};
use mqpi_obs::Obs;
use mqpi_sim::domain;
use mqpi_sim::idmap::IdSet;

use crate::{PiService, Sub, NIL};

/// Checkpoint payload kind for a serialized [`PiService`].
pub const CKPT_KIND_SERVICE: &str = "pi-service";

impl PiService {
    /// FNV-1a digest over the full checkpoint encoding — a cheap state
    /// fingerprint for recovery and failover equivalence checks (two
    /// services with equal digests serve bit-identical estimates).
    pub fn state_digest(&self) -> u64 {
        let bytes = self.checkpoint();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Serialize the whole service into a versioned, CRC-checked container
    /// ([`CKPT_KIND_SERVICE`]). Re-encoding a restored service is
    /// byte-identical, and a restored service serves bit-identical pushes.
    /// Overload state (ladder tier, deadlines, backoff list, breaker
    /// schedule) travels with everything else.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.cfg.enc(&mut e);
        (self.clock, self.next_query, self.pending_arrivals).enc(&mut e);
        (self.tier, self.next_audit).enc(&mut e);
        self.fluid.enc(&mut e);
        self.arrivals.enc(&mut e);
        self.mean_cost.enc(&mut e);
        self.queue.enc(&mut e);
        self.backoff.enc(&mut e);
        self.sessions.enc(&mut e);
        self.session_free.enc(&mut e);
        self.subs.enc(&mut e);
        self.sub_free.enc(&mut e);
        // Canonical order for the query→subscriber-chain heads.
        let mut heads: Vec<(u64, u32)> = self.by_query.iter().map(|(&q, &h)| (q, h)).collect();
        heads.sort_unstable_by_key(|&(q, _)| q);
        heads.enc(&mut e);
        self.pending_final.enc(&mut e);
        self.stats.enc(&mut e);
        // Driver-frontier caches: a snapshot-anchored base must still know
        // the newest mark/note after compaction retires their records.
        self.wal_mark_cache.enc(&mut e);
        self.wal_note_cache.enc(&mut e);
        mqpi_ckpt::encode_container(CKPT_KIND_SERVICE, &e.into_bytes())
    }

    /// Rebuild a service from [`PiService::checkpoint`] bytes. The restored
    /// service has a disabled obs handle; re-install with
    /// [`PiService::set_obs`].
    pub fn restore(bytes: &[u8]) -> Result<Self, CkptError> {
        let payload = mqpi_ckpt::decode_container(bytes, CKPT_KIND_SERVICE)?;
        let mut d = Dec::new(&payload);
        // Read in the order written here, which is the payload's.
        let mut svc = PiService {
            cfg: Wire::dec(&mut d)?,
            clock: Wire::dec(&mut d)?,
            next_query: Wire::dec(&mut d)?,
            pending_arrivals: Wire::dec(&mut d)?,
            tier: Wire::dec(&mut d)?,
            next_audit: Wire::dec(&mut d)?,
            // The model owns the live rate (set_rate applies there);
            // cfg.rate is only the construction-time value. Both travel.
            fluid: Wire::dec(&mut d)?,
            arrivals: Wire::dec(&mut d)?,
            mean_cost: Wire::dec(&mut d)?,
            queue: Wire::dec(&mut d)?,
            backoff: Wire::dec(&mut d)?,
            sessions: Wire::dec(&mut d)?,
            session_free: Wire::dec(&mut d)?,
            subs: Wire::dec(&mut d)?,
            sub_free: Wire::dec(&mut d)?,
            by_query: Vec::<(u64, u32)>::dec(&mut d)?.into_iter().collect(),
            pending_final: Wire::dec(&mut d)?,
            stats: Wire::dec(&mut d)?,
            wal_mark_cache: Wire::dec(&mut d)?,
            wal_note_cache: Wire::dec(&mut d)?,
            // Derived state, rebuilt below: the pump's pre-filter starts
            // with every key due.
            drift: 0.0,
            due_key: Vec::new(),
            due_floor: f64::NEG_INFINITY,
            node_of: Vec::new(),
            sweep: Vec::new(),
            live_subs: 0,
            obs: Obs::disabled(),
            wal: None,
            scratch_done: Vec::new(),
            scratch_queued: Vec::new(),
        };
        if !d.is_exhausted() {
            return Err(CkptError::Corrupt(format!(
                "{} trailing bytes after service state",
                d.remaining()
            )));
        }
        if let Err(e) = svc.cfg.validate() {
            return Err(CkptError::Corrupt(format!(
                "invalid service configuration in checkpoint: {e}"
            )));
        }
        svc.check_links().map_err(CkptError::Corrupt)?;
        svc.check_queries().map_err(CkptError::Corrupt)?;
        if !svc.ledger().balanced() {
            return Err(CkptError::Corrupt(format!(
                "work-conservation ledger out of balance: {:?}",
                svc.ledger()
            )));
        }
        svc.due_key = vec![f64::NEG_INFINITY; svc.subs.len()];
        svc.node_of = vec![NIL; svc.subs.len()];
        svc.sweep.reserve(svc.fluid.len());
        svc.live_subs = svc.recount_live_subs();
        Ok(svc)
    }

    /// What admission and the deadline service assume of a waiting query,
    /// checked field by field: a weight and a cost in their domains (a
    /// negative cost is stored as 0), attempts within the retry policy, a
    /// backoff that ends within one `max_delay` of now (it began at or
    /// before now), and an id below the cursor that nothing else holds.
    fn check_queries(&mut self) -> Result<(), String> {
        let mut seen: IdSet = self.live_set().iter().map(|q| q.id).collect();
        let max_attempts = self.cfg.retry.max_attempts;
        let backoff_end = self.clock + self.cfg.retry.max_delay;
        let queued = self.queue.len();
        for (i, w) in self.queue.iter_mut().chain(&mut self.backoff).enumerate() {
            let id = w.id;
            let named = |e| format!("waiting query {id}: {e}");
            domain::weight(w.weight).map_err(named)?;
            w.cost = domain::cost(w.cost).map_err(named)?;
            if w.attempts > max_attempts {
                return Err(named(format!("attempt {} > {max_attempts}", w.attempts)));
            }
            if i >= queued && (w.until > backoff_end || w.until.is_nan()) {
                return Err(named(format!(
                    "backoff until {} beyond {backoff_end}",
                    w.until
                )));
            }
            if !seen.insert(id) {
                return Err(format!("waiting query {id} is held twice"));
            }
        }
        // The smallest offender, so that the error does not depend on the
        // sets' random order.
        if let Some(id) = seen.iter().filter(|&&id| id >= self.next_query).min() {
            return Err(format!(
                "query {id} at or beyond cursor {}",
                self.next_query
            ));
        }
        let known = |q: &&u64| seen.contains(q) || self.pending_final.contains(q);
        match self.by_query.keys().filter(|q| !known(q)).min() {
            Some(q) => Err(format!(
                "subscribers of query {q}, which is not in the system"
            )),
            None => Ok(()),
        }
    }

    /// What the subscription tables of a decoded payload must satisfy,
    /// because the pump and the unlink paths index and walk them without
    /// checking: every active slot doubly linked into its session's and its
    /// query's chain, every head the start of its chain (so a walk from it
    /// ends), and each free list holding exactly the dead slots, once each.
    fn check_links(&self) -> Result<(), String> {
        let live = |i: u32| self.subs.get(i as usize).filter(|s| s.active);
        for (i, s) in self.subs.iter().enumerate().filter(|(_, s)| s.active) {
            let i = i as u32;
            let owner = self.sessions.get(s.session as usize).filter(|o| o.alive);
            let linked = owner.is_some()
                && match s.prev_in_session {
                    NIL => owner.map(|o| o.sub_head) == Some(i),
                    p => live(p).is_some_and(|p| p.next_in_session == i && p.session == s.session),
                }
                && match s.prev_same_query {
                    NIL => self.by_query.get(&s.query) == Some(&i),
                    p => live(p).is_some_and(|p| p.next_same_query == i && p.query == s.query),
                }
                && [
                    (
                        s.next_in_session,
                        live(s.next_in_session).map(|n| n.prev_in_session),
                    ),
                    (
                        s.next_same_query,
                        live(s.next_same_query).map(|n| n.prev_same_query),
                    ),
                ]
                .iter()
                .all(|&(next, back)| next == NIL || back == Some(i));
            if !linked {
                return Err(format!("subscription {i} is not linked into its chains"));
            }
        }
        for (i, s) in self.sessions.iter().enumerate() {
            let starts = |h: &Sub| h.session as usize == i && h.prev_in_session == NIL;
            if s.sub_head != NIL && !(s.alive && live(s.sub_head).is_some_and(starts)) {
                return Err(format!("session {i} has a bad subscriber head"));
            }
        }
        for (&q, &h) in &self.by_query {
            if !live(h).is_some_and(|s| s.query == q && s.prev_same_query == NIL) {
                return Err(format!(
                    "subscriber head {h} of query {q} is beyond {} subs or not a head",
                    self.subs.len()
                ));
            }
        }
        let exactly = |free: &[u32], mut dead: Vec<bool>| {
            let listed_once = |&i: &u32| dead.get_mut(i as usize).is_some_and(std::mem::take);
            free.iter().all(listed_once) && !dead.contains(&true)
        };
        if !exactly(
            &self.sub_free,
            self.subs.iter().map(|s| !s.active).collect(),
        ) || !exactly(
            &self.session_free,
            self.sessions.iter().map(|s| !s.alive).collect(),
        ) {
            return Err("a free list is not exactly the dead slots".into());
        }
        Ok(())
    }
}
