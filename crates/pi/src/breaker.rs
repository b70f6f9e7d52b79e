//! The divergence circuit-breaker: a periodic audit of point estimates
//! against the exact `predict` oracle that rebuilds the model on a trip.

use mqpi_obs::TraceKind;

use crate::PiService;

impl PiService {
    /// Periodic divergence audit: sample point estimates against the
    /// `predict` oracle; beyond tolerance, trip and force-rebuild the
    /// treap from the live set (self-heal, sanitizing poisoned fields).
    pub(crate) fn run_audit(&mut self) {
        let Some(b) = self.cfg.breaker else {
            return;
        };
        if self.clock < self.next_audit {
            return;
        }
        self.next_audit = self.clock + b.interval;
        self.stats.audit_checks += 1;
        // The oracle sorts for itself: it must not read the order it audits.
        let p = self.fluid.estimates_unhinted(&[], None, None);
        let mut worst = 0.0f64;
        for &(id, t) in p.finish_times.iter().take(b.sample) {
            let Some(point) = self.fluid.estimate(id) else {
                worst = f64::INFINITY;
                break;
            };
            let rel = (point - t).abs() / t.abs().max(1.0);
            if !rel.is_finite() {
                worst = f64::INFINITY;
                break;
            }
            if rel > worst {
                worst = rel;
            }
        }
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.audit.checks", 1);
        }
        if worst > b.tolerance {
            self.stats.audit_trips += 1;
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.audit.trips", 1);
                self.obs.emit(
                    self.clock,
                    TraceKind::Breaker {
                        action: "trip",
                        divergence: worst,
                    },
                );
            }
            let sanitized = self.fluid.rebuild();
            self.rearm_all();
            self.stats.sanitized += sanitized as u64;
            self.stats.audit_rebuilds += 1;
            if self.obs.is_enabled() {
                if sanitized > 0 {
                    self.obs.counter_add("pi.sanitized", sanitized as u64);
                }
                self.obs.counter_add("pi.audit.rebuilds", 1);
                self.obs.emit(
                    self.clock,
                    TraceKind::Breaker {
                        action: "rebuild",
                        divergence: worst,
                    },
                );
            }
        }
    }
}
