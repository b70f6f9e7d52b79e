//! Wire descriptions of the simulator's checkpointable value types.
//!
//! [`System::checkpoint`](crate::System::checkpoint) serializes the whole
//! simulated world; the [`Wire`] impls here cover the public value types
//! (policies, fault plans, finished records), each from one field list,
//! while the session/heap layout — which touches private scheduler fields
//! — lives next to the `System` struct. Encodings are canonical: equal
//! values produce equal bytes and every float travels as its IEEE-754 bit
//! pattern. Enum variants are tagged with one byte; unknown tags decode to
//! [`CkptError::Corrupt`], never a panic.
//!
//! [`SimEvent`] has a second, deliberately separate form: the
//! `(tag, at, id, a, b)` quintuple of [`SimEvent::to_tap`], which the
//! write-ahead log can carry as a `WalRecord::SimEvent` frame and the
//! `golden_step` digests read. It is write-only: nothing decodes it back
//! into an event, and service replay skips the frame. The two number their
//! variants differently (checkpoint tags 0–6, tap tags 1–7) and neither is
//! derived from the other.

use mqpi_ckpt::{wire_enum, wire_struct, CkptError, Dec, Enc, Result, Wire};

use crate::admission::AdmissionPolicy;
use crate::faults::{FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use crate::job::JobSnapshot;
use crate::system::{
    ErrorPolicy, FaultStats, FinishKind, FinishedQuery, InjectedFault, RateModel, SimEvent,
    StepMode, SystemConfig,
};

wire_struct!(SystemConfig {
    rate,
    quantum_units,
    admission,
    speed_tau,
    rate_model,
    step_mode,
});
wire_enum!(RateModel, "rate model" { 0 => Constant, 1 => Contention { alpha } });
wire_enum!(StepMode, "step mode" { 0 => Quantum, 1 => EventDriven });
wire_enum!(ErrorPolicy, "error policy" { 0 => Propagate, 1 => Isolate });
wire_enum!(FinishKind, "finish kind" {
    0 => Completed,
    1 => Aborted,
    2 => Failed,
    3 => Rejected,
});

/// By hand: `MaxConcurrent` is a tuple variant, which [`wire_enum!`] does
/// not take.
impl Wire for AdmissionPolicy {
    fn enc(&self, e: &mut Enc) {
        match *self {
            AdmissionPolicy::Unlimited => e.put_u8(0),
            AdmissionPolicy::MaxConcurrent(k) => {
                e.put_u8(1);
                e.put_usize(k);
            }
            AdmissionPolicy::Bounded { slots, queue } => {
                e.put_u8(2);
                e.put_usize(slots);
                e.put_usize(queue);
            }
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self> {
        match d.get_u8()? {
            0 => Ok(AdmissionPolicy::Unlimited),
            1 => Ok(AdmissionPolicy::MaxConcurrent(d.get_usize()?)),
            2 => Ok(AdmissionPolicy::Bounded {
                slots: d.get_usize()?,
                queue: d.get_usize()?,
            }),
            t => Err(CkptError::Corrupt(format!(
                "unknown admission policy tag {t}"
            ))),
        }
    }
}

wire_enum!(FaultKind, "fault kind" {
    0 => CostNoise { factor },
    1 => RateDip { factor, duration },
    2 => AbortRetry { overhead },
    3 => Burst { queries, cost },
    4 => PageFault,
});
wire_struct!(FaultEvent { at, kind });
wire_struct!(RetryPolicy {
    base_delay,
    multiplier,
    max_delay,
    max_attempts,
});

/// By hand: the events are private to [`FaultPlan`], which re-sorts them
/// on the way in. They were written sorted and the sort is stable, so the
/// order is preserved exactly.
impl Wire for FaultPlan {
    fn enc(&self, e: &mut Enc) {
        FaultEvent::enc_slice(self.events(), e);
        (self.seed, self.retry).enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self> {
        let (events, seed, retry) = Wire::dec(d)?;
        Ok(FaultPlan::new(events, seed, retry))
    }
}

wire_enum!(SimEvent, "sim event" {
    0 => Admitted { at, id, cost, weight },
    1 => Enqueued { at, id, cost, weight },
    2 => Departed { at, id, kind },
    3 => Blocked { at, id },
    4 => Resumed { at, id },
    5 => CostRefined { at, id, remaining },
    6 => RateChanged { at, rate },
});
wire_struct!(InjectedFault { at, kind, victim });
wire_struct!(FaultStats {
    injected,
    cost_noise,
    rate_dips,
    aborts,
    bursts,
    page_faults,
    retries_scheduled,
    retries_exhausted,
    failures,
    rejected,
    skipped,
});
wire_struct!(JobSnapshot {
    total,
    done,
    claimed_estimate,
    report_scale,
    fail_armed,
});
wire_struct!(FinishedQuery {
    id,
    name,
    weight,
    arrived,
    started,
    finished,
    kind,
    units_done,
    remaining_at_end,
    rollback_units,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_codecs_round_trip() {
        let kinds = [
            FaultKind::CostNoise { factor: 1.5 },
            FaultKind::RateDip {
                factor: 0.3,
                duration: 4.0,
            },
            FaultKind::AbortRetry { overhead: 50 },
            FaultKind::Burst {
                queries: 3,
                cost: 200,
            },
            FaultKind::PageFault,
        ];
        for k in kinds {
            assert_eq!(FaultKind::from_bytes(&k.to_bytes(), "kind").unwrap(), k);
        }
        let policies = [
            AdmissionPolicy::Unlimited,
            AdmissionPolicy::MaxConcurrent(3),
            AdmissionPolicy::Bounded { slots: 2, queue: 5 },
        ];
        for p in policies {
            let bytes = p.to_bytes();
            assert_eq!(AdmissionPolicy::from_bytes(&bytes, "policy").unwrap(), p);
        }
    }

    #[test]
    fn unknown_tags_are_corrupt_not_panic() {
        fn corrupt<T: Wire>(tag: u8) -> bool {
            matches!(T::from_bytes(&[tag], "tag"), Err(CkptError::Corrupt(_)))
        }
        assert!(corrupt::<FaultKind>(9));
        assert!(corrupt::<AdmissionPolicy>(7));
        assert!(corrupt::<ErrorPolicy>(2));
        assert!(corrupt::<SimEvent>(7));
    }

    #[test]
    fn fault_plan_round_trips_in_order() {
        let plan = FaultPlan::generate(42, 100.0, &crate::faults::FaultMix::even(3));
        let back = FaultPlan::from_bytes(&plan.to_bytes(), "plan").unwrap();
        assert_eq!(back.events(), plan.events());
        assert_eq!(back.seed, plan.seed);
        assert_eq!(back.retry, plan.retry);
    }
}
