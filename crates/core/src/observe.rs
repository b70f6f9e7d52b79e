//! Observability bridge for the estimators.
//!
//! One helper turns a finished [`EstimateSet`] into its observable
//! footprint: an `estimate` trace event per query (sorted by query id, so
//! the trace does not depend on the order an estimator produced them in),
//! a profiling span over the prediction pass, and sanitizer/emission
//! counters. It borrows the set, so observing an estimate cannot change
//! it. A traced caller runs an estimator's `estimates` and then hands the
//! set here with the estimator's name and span; the estimators themselves
//! stay observation-free, so callers that never trace pay nothing.

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
