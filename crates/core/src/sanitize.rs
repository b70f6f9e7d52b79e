//! Output sanitization: the graceful-degradation contract.
//!
//! A progress indicator is only useful if it *never* reports garbage, no
//! matter how badly the paper's Assumptions 1–3 are being violated
//! underneath it (cost-estimate noise, rate dips, aborts, bursts). Every
//! estimator output funnels through this module before a caller can see
//! it: remaining times are finite and non-negative, and fractions sit in
//! `[0, 1]`. Each function returns the value
//! plus whether it had to be degraded, so campaigns can count how often
//! the raw math went out of range.

/// Cap applied to non-finite remaining-time estimates: far beyond any
/// simulated horizon, yet finite so downstream arithmetic stays sane.
pub const MAX_REMAINING_SECONDS: f64 = 1e12;

/// Sanitize a remaining-time estimate in seconds. `NaN` and `+∞` become
/// the pessimistic [`MAX_REMAINING_SECONDS`] cap (an unknown remaining
/// time is *long*, not zero); negative values (including `−∞`) clamp to 0.
pub fn sanitize_seconds(raw: f64) -> (f64, bool) {
    if raw.is_nan() || raw == f64::INFINITY {
        (MAX_REMAINING_SECONDS, true)
    } else if raw < 0.0 {
        (0.0, true)
    } else if raw > MAX_REMAINING_SECONDS {
        (MAX_REMAINING_SECONDS, true)
    } else {
        (raw, false)
    }
}

/// Sanitize a completion fraction into `[0, 1]`. `NaN` becomes 0 (claim no
/// progress rather than invented progress).
pub fn sanitize_fraction(raw: f64) -> (f64, bool) {
    // NaN and negative both degrade to 0: claim no progress rather than
    // invented progress.
    if raw.is_nan() || raw < 0.0 {
        (0.0, true)
    } else if raw > 1.0 {
        (1.0, true)
    } else {
        (raw, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_pass_through_when_sane() {
        assert_eq!(sanitize_seconds(0.0), (0.0, false));
        assert_eq!(sanitize_seconds(123.5), (123.5, false));
        assert_eq!(
            sanitize_seconds(MAX_REMAINING_SECONDS),
            (MAX_REMAINING_SECONDS, false)
        );
    }

    #[test]
    fn seconds_degrade_nan_inf_and_negative() {
        assert_eq!(sanitize_seconds(f64::NAN), (MAX_REMAINING_SECONDS, true));
        assert_eq!(
            sanitize_seconds(f64::INFINITY),
            (MAX_REMAINING_SECONDS, true)
        );
        assert_eq!(sanitize_seconds(f64::NEG_INFINITY), (0.0, true));
        assert_eq!(sanitize_seconds(-1.0), (0.0, true));
        assert_eq!(sanitize_seconds(1e15), (MAX_REMAINING_SECONDS, true));
    }

    #[test]
    fn fractions_clamp_to_unit_interval() {
        assert_eq!(sanitize_fraction(0.5), (0.5, false));
        assert_eq!(sanitize_fraction(-0.1), (0.0, true));
        assert_eq!(sanitize_fraction(1.7), (1.0, true));
        assert_eq!(sanitize_fraction(f64::NAN), (0.0, true));
    }
}
