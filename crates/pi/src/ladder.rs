//! The graceful-degradation ladder: load tiers with hysteresis, and the
//! Shed tier's drop of the lowest-weight waiting entry.

use mqpi_ckpt::wire_enum;
use mqpi_obs::TraceKind;

use crate::{LadderConfig, PiService};

/// Graceful-degradation tiers, in increasing severity. The ladder walks up
/// immediately when load crosses an enter watermark and back down only when
/// load falls to the (lower) exit watermark — classic hysteresis, so a load
/// hovering at a boundary cannot flap the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LoadTier {
    /// Full service: every subscription pushed at the configured epsilon.
    Normal = 0,
    /// Push epsilon multiplied by four (the pump's `EPSILON_WIDEN_FACTOR`)
    /// — estimates widen instead of disappearing.
    EpsilonWiden = 1,
    /// Only final (completion) pushes are delivered.
    FinalsOnly = 2,
    /// Finals only, plus the lowest-weight queued work is dropped until
    /// load falls back to the shed exit watermark.
    Shed = 3,
}
wire_enum!(LoadTier, "load tier" {
    0 => Normal,
    1 => EpsilonWiden,
    2 => FinalsOnly,
    3 => Shed,
});

impl LoadTier {
    /// Stable lowercase label used in trace events and metrics.
    pub fn label(self) -> &'static str {
        match self {
            LoadTier::Normal => "normal",
            LoadTier::EpsilonWiden => "epsilon_widen",
            LoadTier::FinalsOnly => "finals_only",
            LoadTier::Shed => "shed",
        }
    }

    fn step_down(self) -> Self {
        match self {
            LoadTier::Shed => LoadTier::FinalsOnly,
            LoadTier::FinalsOnly => LoadTier::EpsilonWiden,
            _ => LoadTier::Normal,
        }
    }
}

impl PiService {
    /// Drop the lowest-weight queued or backing-off entry (ties broken
    /// toward the newest id, preserving FIFO fairness for older work).
    /// Live queries are never shed. Returns false when nothing is
    /// sheddable.
    fn shed_one(&mut self) -> bool {
        let mut best: Option<(f64, u64, usize)> = None;
        for (pos, q) in self.waiting().enumerate() {
            let better = match best {
                None => true,
                Some((w, id, _)) => q.weight < w || (q.weight == w && q.id > id),
            };
            if better {
                best = Some((q.weight, q.id, pos));
            }
        }
        let Some((_, id, pos)) = best else {
            return false;
        };
        self.remove_waiting(pos);
        self.stats.shed += 1;
        self.depart(id, false);
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.shed", 1);
            self.obs.emit(self.clock, TraceKind::Reject { id });
        }
        true
    }

    /// Hysteretic target tier for the given load.
    fn tier_target(lad: &LadderConfig, cur: LoadTier, load: usize) -> LoadTier {
        let up = if load >= lad.shed_enter {
            LoadTier::Shed
        } else if load >= lad.finals_enter {
            LoadTier::FinalsOnly
        } else if load >= lad.widen_enter {
            LoadTier::EpsilonWiden
        } else {
            LoadTier::Normal
        };
        if up >= cur {
            return up;
        }
        let mut t = cur;
        while t > up {
            let exit = match t {
                LoadTier::Shed => lad.shed_exit,
                LoadTier::FinalsOnly => lad.finals_exit,
                LoadTier::EpsilonWiden => lad.widen_exit,
                LoadTier::Normal => 0,
            };
            if load <= exit {
                t = t.step_down();
            } else {
                break;
            }
        }
        t
    }

    fn transition_to(&mut self, target: LoadTier, load: usize) {
        if target == self.tier {
            return;
        }
        let from = self.tier;
        self.tier = target;
        self.stats.tier_transitions += 1;
        // The keys embed the effective epsilon of the tier they were
        // computed in.
        self.rearm_all();
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.tier.transitions", 1);
            self.obs.gauge_set("pi.tier.level", target as u8 as f64);
            self.obs.emit(
                self.clock,
                TraceKind::TierChange {
                    from: from.label(),
                    to: target.label(),
                    load,
                },
            );
        }
    }

    /// Settle the ladder: move the tier per the watermarks (with
    /// hysteresis), and while in Shed drop queued work until load falls to
    /// the shed exit watermark.
    pub(crate) fn evaluate_tier(&mut self) {
        let Some(lad) = self.cfg.ladder else {
            return;
        };
        let load = self.load();
        let target = Self::tier_target(&lad, self.tier, load);
        self.transition_to(target, load);
        if self.tier == LoadTier::Shed {
            while self.load() > lad.shed_exit {
                if !self.shed_one() {
                    break;
                }
            }
            let load = self.load();
            let target = Self::tier_target(&lad, self.tier, load);
            self.transition_to(target, load);
        }
    }
}
