//! Sessions and subscriptions: generation-checked session handles, and
//! subscription slots on two intrusive chains (per session, per query)
//! with a free list, so unlink and reuse are `O(1)` and allocate nothing.

use crate::{PiService, Session, Sub, NIL};

/// A registered session handle: the low 32 bits are a dense slot index,
/// the high 32 bits a per-slot generation bumped on every
/// [`PiService::close_session`]. Slots are reused, but a stale handle from
/// before a close carries the old generation and is rejected — holders can
/// never act on a recycled slot.
pub type SessionId = u64;

pub(crate) fn make_sid(slot: u32, gen: u32) -> SessionId {
    (u64::from(gen) << 32) | u64::from(slot)
}

fn sid_slot(sid: SessionId) -> u32 {
    (sid & 0xFFFF_FFFF) as u32
}

fn sid_gen(sid: SessionId) -> u32 {
    (sid >> 32) as u32
}

impl PiService {
    /// Handles of every live session, in slot order. A recovered or
    /// promoted process uses this to re-derive the handles its previous
    /// incarnation held (session ids are deterministic, so they match).
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(slot, s)| make_sid(slot as u32, s.gen))
            .collect()
    }

    pub(crate) fn apply_register(&mut self) -> SessionId {
        if let Some(s) = self.session_free.pop() {
            let rec = &mut self.sessions[s as usize];
            rec.alive = true;
            rec.sub_head = NIL;
            make_sid(s, rec.gen)
        } else {
            self.sessions.push(Session {
                alive: true,
                gen: 0,
                sub_head: NIL,
            });
            make_sid((self.sessions.len() - 1) as u32, 0)
        }
    }

    pub(crate) fn apply_close(&mut self, sid: SessionId) {
        let Some(slot) = self.session_slot(sid) else {
            return;
        };
        let s = &mut self.sessions[slot as usize];
        s.alive = false;
        s.gen = s.gen.wrapping_add(1);
        let mut cur = s.sub_head;
        s.sub_head = NIL;
        while cur != NIL {
            let Sub {
                query,
                next_in_session: next,
                ..
            } = self.subs[cur as usize];
            self.unlink_from_query(cur);
            if self.fluid.contains(query) {
                self.live_subs -= 1;
            }
            self.free_sub(cur);
            cur = next;
        }
        self.session_free.push(slot);
    }

    /// Return an unlinked subscription slot to the free list, parked.
    pub(crate) fn free_sub(&mut self, slot: u32) {
        self.subs[slot as usize].active = false;
        self.due_key[slot as usize] = f64::INFINITY;
        self.sub_free.push(slot);
    }

    /// Remove a sub slot from its query's chain (head map updated/removed).
    fn unlink_from_query(&mut self, slot: u32) {
        let Sub {
            query,
            prev_same_query: p,
            next_same_query: n,
            ..
        } = self.subs[slot as usize];
        if p == NIL {
            if n == NIL {
                self.by_query.remove(&query);
            } else {
                self.by_query.insert(query, n);
            }
        } else {
            self.subs[p as usize].next_same_query = n;
        }
        if n != NIL {
            self.subs[n as usize].prev_same_query = p;
        }
    }

    /// Remove a sub slot from its session's chain.
    pub(crate) fn unlink_from_session(&mut self, slot: u32) {
        let Sub {
            session,
            prev_in_session: p,
            next_in_session: n,
            ..
        } = self.subs[slot as usize];
        if p == NIL {
            self.sessions[session as usize].sub_head = n;
        } else {
            self.subs[p as usize].next_in_session = n;
        }
        if n != NIL {
            self.subs[n as usize].prev_in_session = p;
        }
    }

    /// Resolve a handle to its slot, rejecting dead slots and stale
    /// generations.
    pub(crate) fn session_slot(&self, sid: SessionId) -> Option<u32> {
        let slot = sid_slot(sid);
        let s = self.sessions.get(slot as usize)?;
        (s.alive && s.gen == sid_gen(sid)).then_some(slot)
    }

    pub(crate) fn apply_subscribe(&mut self, session: SessionId, query: u64) {
        let Some(slot) = self.session_slot(session) else {
            return;
        };
        let live = self.fluid.contains(query);
        if !live && !self.waiting().any(|q| q.id == query) {
            return;
        }
        // Idempotent: a session already on this query's chain would
        // otherwise receive every push (including the final) twice.
        let mut cur = self.by_query.get(&query).copied().unwrap_or(NIL);
        while cur != NIL {
            let s = &self.subs[cur as usize];
            if s.active && s.session == slot {
                return;
            }
            cur = s.next_same_query;
        }
        self.attach_sub(slot, query, live);
    }

    /// Chain a new subscription of session slot `slot` onto `query`,
    /// which the caller knows to be in the system (`live`: in the model)
    /// and not yet subscribed to by this session.
    pub(crate) fn attach_sub(&mut self, slot: u32, query: u64, live: bool) {
        let next_ss = self.sessions[slot as usize].sub_head;
        let next_sq = self.by_query.get(&query).copied().unwrap_or(NIL);
        let rec = Sub {
            active: true,
            session: slot,
            query,
            last_push: f64::NAN,
            next_in_session: next_ss,
            prev_in_session: NIL,
            next_same_query: next_sq,
            prev_same_query: NIL,
        };
        let sub_slot = if let Some(s) = self.sub_free.pop() {
            self.subs[s as usize] = rec;
            self.due_key[s as usize] = f64::NEG_INFINITY;
            self.node_of[s as usize] = NIL;
            s
        } else {
            self.subs.push(rec);
            self.due_key.push(f64::NEG_INFINITY);
            self.node_of.push(NIL);
            (self.subs.len() - 1) as u32
        };
        self.due_floor = f64::NEG_INFINITY;
        self.live_subs += u64::from(live);
        if next_ss != NIL {
            self.subs[next_ss as usize].prev_in_session = sub_slot;
        }
        if next_sq != NIL {
            self.subs[next_sq as usize].prev_same_query = sub_slot;
        }
        self.sessions[slot as usize].sub_head = sub_slot;
        self.by_query.insert(query, sub_slot);
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.subscribed", 1);
        }
    }
}
