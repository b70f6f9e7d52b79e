//! The domain of each scheduling value, stated once: the §2.2 formulas are
//! exact for positive finite weights, known costs and a positive constant
//! rate (Assumptions 1–3). Every boundary that takes one of these values
//! asks here, and keeps its own policy for one outside: a live entry point
//! panics, the event mirror quarantines, the service sanitizes and counts,
//! a decoder returns `CkptError::Corrupt` (DESIGN.md §14). An error names
//! the field and the value.

/// A scheduling weight: finite and > 0. A NaN or infinite weight makes `Σw`
/// non-finite, so no query is granted work again; a zero one divides by 0.
#[inline]
pub fn weight(v: f64) -> Result<f64, String> {
    check("weight", v, v > 0.0 && v.is_finite(), "positive and finite")
}

/// A rate (work units, or arrivals, per second): finite and > 0. At an
/// infinite processing rate every estimate reads 0.
#[inline]
pub fn rate(v: f64) -> Result<f64, String> {
    check("rate", v, v > 0.0 && v.is_finite(), "positive and finite")
}

/// A remaining cost in work units: finite, and a finite negative cost means
/// 0 (the work is done). An infinite cost never drains; a NaN one reads 0.
#[inline]
pub fn cost(v: f64) -> Result<f64, String> {
    check("cost", v, v.is_finite(), "finite").map(|c| c.max(0.0))
}

#[inline]
fn check(field: &str, v: f64, ok: bool, domain: &str) -> Result<f64, String> {
    ok.then_some(v)
        .ok_or_else(|| format!("{field} must be {domain}, got {v}"))
}
