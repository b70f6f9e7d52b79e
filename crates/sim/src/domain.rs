//! The domain of each scheduling value, stated once: the §2.2 formulas are
//! exact for positive finite weights, known costs and a positive constant
//! rate (Assumptions 1–3), and a fault burst submits a bounded number of
//! sessions. Every boundary that takes one of these values asks here, and
//! keeps its own policy for one outside: a live entry point panics, the
//! event mirror quarantines, the service sanitizes and counts, and the two
//! decoders (the service's checkpoint and the fluid model it holds) return
//! `CkptError::Corrupt` (DESIGN.md §14). An error names the field and the
//! value.

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

/// Most sessions one [`crate::FaultKind::Burst`] submits. A burst lands in
/// one step, so its size is what that step allocates; a decoded plan whose
/// size has a high bit flipped would otherwise submit billions.
pub const MAX_BURST: u32 = 4_096;

/// A burst size: at most [`MAX_BURST`] sessions.
#[inline]
pub fn burst(queries: u32) -> Result<u32, String> {
    (queries <= MAX_BURST)
        .then_some(queries)
        .ok_or_else(|| format!("burst queries must be at most {MAX_BURST}, got {queries}"))
}

#[inline]
fn check(field: &str, v: f64, ok: bool, domain: &str) -> Result<f64, String> {
    ok.then_some(v)
        .ok_or_else(|| format!("{field} must be {domain}, got {v}"))
}
