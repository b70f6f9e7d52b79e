//! `mqpi-core` — the paper's contribution: single- and multi-query SQL
//! progress indicators.
//!
//! A progress indicator (PI) continuously estimates the remaining execution
//! time of each running query. The two estimator families reproduced here:
//!
//! * [`single::SingleQueryPi`] — the SIGMOD'04/ICDE'05 baseline: remaining
//!   time = refined remaining cost ÷ *currently observed* speed. It sees
//!   load only implicitly, so it mispredicts whenever the load is about to
//!   change (a concurrent query finishing, a queued query starting).
//! * [`multi::MultiQueryPi`] — the EDBT'06 estimator: it runs a
//!   generalized-processor-sharing *fluid model* ([`fluid`]) over the
//!   remaining costs and weights of **all** concurrent queries (§2.2), can
//!   extend its visibility with the admission queue (§2.3), and can inject
//!   predicted future arrivals from approximate workload statistics (§2.4).
//!
//! [`adaptive`] provides the arrival-rate re-estimation that lets a
//! multi-query PI correct bad information about the future (§5.2.3,
//! Figs. 8-10). [`ensemble::BandedPi`] puts p10/p50/p90 uncertainty bands
//! around the multi-query PI, fitted to its residuals over realized finish
//! times.

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod ensemble;
pub mod estimate;
pub mod fluid;
mod id_index;
pub mod incremental;
pub mod multi;
pub mod observe;
pub mod percent;
pub mod sanitize;
pub mod single;
pub mod validator;

pub use adaptive::ArrivalRateEstimator;
pub use ensemble::BandedPi;
pub use estimate::{relative_error, Band, BandedEstimate, EstimateSet};
pub use fluid::{standard_remaining_times, FluidPrediction, FluidQuery, FutureArrivals};
pub use incremental::{DeltaCounters, IncrementalFluid};
pub use multi::{FutureWorkload, MultiQueryPi, Visibility};
pub use observe::observe_estimates;
pub use percent::{PercentDonePi, TimeFractionPi};
pub use sanitize::{sanitize_fraction, sanitize_seconds, MAX_REMAINING_SECONDS};
pub use single::SingleQueryPi;
pub use validator::{InvariantValidator, ValidationContext, Violation};
