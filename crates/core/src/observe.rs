//! Observability bridge for the estimators.
//!
//! One helper turns a finished [`EstimateSet`] into its observable
//! footprint: an `estimate` trace event per query (sorted by query id, so
//! the trace does not depend on the order an estimator produced them in),
//! a profiling span over the prediction pass, and sanitizer/emission
//! counters. Both PIs expose `estimates_observed` wrappers built on it;
//! the plain `estimates` methods stay observation-free so hot callers that
//! never trace pay nothing.

use mqpi_obs::{Obs, TraceKind};

use crate::estimate::EstimateSet;

/// Emit the observable footprint of one prediction pass.
///
/// * `pi` — estimator family tag carried by the events (`single`/`multi`).
/// * `span` — profiling span name (`core.predict.single`/
///   `core.predict.multi`); its units count the estimates produced, a
///   deterministic proxy for model size (prediction consumes no meter
///   work units of its own).
/// * `at` — virtual time of the snapshot the estimates derive from.
pub fn observe_estimates(
    obs: &Obs,
    pi: &'static str,
    span: &'static str,
    at: f64,
    est: &EstimateSet,
) {
    if !obs.is_enabled() {
        return;
    }
    let mut sp = obs.span(span);
    sp.add_units(est.len() as f64);
    drop(sp);
    let mut pairs: Vec<(u64, f64)> = est.iter().collect();
    pairs.sort_by_key(|&(id, _)| id);
    for (id, seconds) in pairs {
        obs.emit(at, TraceKind::Estimate { pi, id, seconds });
    }
    obs.counter_add("core.estimates.emitted", est.len() as u64);
    if est.degraded() > 0 {
        obs.counter_add("core.sanitize.degraded", u64::from(est.degraded()));
    }
}

/// The one observed-emission path every estimator shares: take the set a
/// prediction pass produced, record its footprint, and hand the set back.
/// Observation is a pure read, so the returned set is exactly the input —
/// the `*_observed` wrappers on every [`crate::ensemble::Estimator`] are
/// one-line delegations to this helper instead of copy-pasted
/// emission blocks.
pub fn emit_observed(
    obs: &Obs,
    pi: &'static str,
    span: &'static str,
    at: f64,
    est: EstimateSet,
) -> EstimateSet {
    observe_estimates(obs, pi, span, at, &est);
    est
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_sorted_events_and_counters() {
        let obs = Obs::enabled();
        let est = EstimateSet::from_pairs([(7, 2.0), (1, 5.0), (3, f64::NAN)], false);
        observe_estimates(&obs, "multi", "core.predict.multi", 4.5, &est);
        let lines = obs.render_trace();
        assert_eq!(
            lines,
            "t=4.5 estimate pi=multi id=1 seconds=5\n\
             t=4.5 estimate pi=multi id=3 seconds=1000000000000\n\
             t=4.5 estimate pi=multi id=7 seconds=2\n"
        );
        assert_eq!(obs.counter("core.estimates.emitted"), 3);
        assert_eq!(obs.counter("core.sanitize.degraded"), 1);
        let st = obs.span_stat("core.predict.multi").unwrap();
        assert_eq!(st.calls, 1);
        assert_eq!(st.units, 3.0);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        let est = EstimateSet::from_pairs([(1, 5.0)], false);
        observe_estimates(&obs, "single", "core.predict.single", 0.0, &est);
        assert_eq!(obs.events_len(), 0);
        assert_eq!(obs.counter("core.estimates.emitted"), 0);
    }
}
