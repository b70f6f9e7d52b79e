//! The structured trace-event taxonomy.
//!
//! Every event carries a virtual-time stamp supplied by the emitter (the
//! simulator's clock or the snapshot time — never the wall clock) and a
//! [`TraceKind`] payload. Events serialize to a stable one-line text form
//! via [`std::fmt::Display`]; the golden-trace test suite diffs that
//! serialization byte for byte, so the format is part of the crate's
//! compatibility contract: change it only together with the fixtures.
//!
//! Floats are formatted with Rust's shortest-round-trip formatter, which is
//! deterministic across platforms for identical IEEE-754 inputs — the same
//! property the experiment CSVs already rely on.

use std::fmt;
use std::sync::Arc;

/// One structured trace event: a virtual-time stamp plus a payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event (seconds on the simulator clock).
    pub at: f64,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Convenience constructor.
    pub fn new(at: f64, kind: TraceKind) -> Self {
        TraceEvent { at, kind }
    }
}

/// The event taxonomy. Each variant is one observable transition in the
/// progress-indicator pipeline; the set mirrors the lifecycle a query can
/// take through the scheduler plus the estimator/validator side-channel.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A query entered the system (submitted now or a scheduled arrival
    /// coming due). `cost` is the pre-execution remaining-cost estimate.
    Arrival {
        /// Query id.
        id: u64,
        /// Caller-supplied query name.
        name: Arc<str>,
        /// Pre-execution cost estimate in work units.
        cost: f64,
    },
    /// A query took an execution slot (immediately on arrival or after
    /// waiting in the admission queue).
    Admit {
        /// Query id.
        id: u64,
        /// Seconds spent waiting in the admission queue (0 when admitted
        /// on arrival).
        waited: f64,
    },
    /// A query joined the admission queue.
    Enqueue {
        /// Query id.
        id: u64,
        /// Queue length after the enqueue.
        depth: usize,
    },
    /// A query was shed by a bounded admission queue.
    Reject {
        /// Query id.
        id: u64,
    },
    /// The running/queued composition changed during a step: a stage
    /// boundary in the fluid-model sense (piecewise-constant speeds are
    /// only valid between these).
    StageBoundary {
        /// Running queries (including blocked) after the transition.
        running: usize,
        /// Queued queries after the transition.
        queued: usize,
    },
    /// A running query was blocked (workload-management victim action).
    Block {
        /// Query id.
        id: u64,
    },
    /// A blocked query was resumed.
    Resume {
        /// Query id.
        id: u64,
    },
    /// A query was aborted (running or queued).
    Abort {
        /// Query id.
        id: u64,
        /// Rollback work units charged after the abort (0 = instant abort).
        overhead: u64,
    },
    /// An aborted/failed query was resubmitted by the retry policy.
    Retry {
        /// Id of the query that left the system.
        prior: u64,
        /// Id of the fresh resubmission.
        id: u64,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
        /// Virtual time the resubmission is scheduled for.
        due: f64,
    },
    /// A query left the system.
    Finish {
        /// Query id.
        id: u64,
        /// How it left: `completed`, `aborted`, `failed`, or `rejected`.
        kind: &'static str,
        /// Work units the query completed.
        units: f64,
    },
    /// A progress indicator emitted a remaining-time estimate for one query.
    Estimate {
        /// Estimator family (`single`, `multi`, or `ensemble` for the
        /// banded multi-query PI).
        pi: &'static str,
        /// Query id the estimate is for.
        id: u64,
        /// Sanitized remaining-time estimate in seconds.
        seconds: f64,
    },
    /// The fault injector applied one event.
    FaultInjected {
        /// Stable fault-kind label (`cost_noise`, `rate_dip`, `abort_retry`,
        /// `burst`, `page_fault`).
        kind: &'static str,
        /// The victim query, for targeted kinds.
        victim: Option<u64>,
    },
    /// The invariant validator recorded a violation.
    InvariantViolation {
        /// Stable rule identifier (e.g. `time_monotone`).
        rule: &'static str,
    },
    /// A workload-management decision outside the scheduler (speed-up
    /// victim selection, maintenance abort planning).
    WlmDecision {
        /// Decision label (e.g. `speedup_victim`, `maintenance_abort`).
        action: &'static str,
        /// The query the decision targets, when there is one.
        id: Option<u64>,
    },
    /// Checkpoint lifecycle: a snapshot was saved, resumed from, skipped
    /// (already complete), or rejected as damaged. Emitted to the
    /// campaign-level obs handle, never into per-scenario traces — those
    /// must stay byte-identical to an uninterrupted run.
    Checkpoint {
        /// What happened: `saved`, `resumed`, `done_skip`, or `rejected`.
        action: &'static str,
        /// Seed of the run the snapshot belongs to.
        seed: u64,
    },
    /// A queued query's admission deadline fired in the PI service.
    Deadline {
        /// Query id.
        id: u64,
        /// What happened: `requeue` (moved to backoff) or `reject`
        /// (retry budget exhausted, observable final push).
        action: &'static str,
        /// Expiry count for this query (1 = first deadline miss).
        attempt: u32,
    },
    /// The PI service's graceful-degradation ladder changed tiers.
    TierChange {
        /// Tier being left (`normal`, `epsilon_widen`, `finals_only`,
        /// `shed`).
        from: &'static str,
        /// Tier being entered.
        to: &'static str,
        /// Load (live + queued + backoff) that drove the transition.
        load: usize,
    },
    /// The PI service's divergence circuit-breaker acted.
    Breaker {
        /// What happened: `trip` (audit found divergence beyond tolerance)
        /// or `rebuild` (treap force-rebuilt from the live set).
        action: &'static str,
        /// Worst relative divergence the audit observed.
        divergence: f64,
    },
    /// Write-ahead-log lifecycle in the durability layer (`mqpi-wal`):
    /// recovery, flush, and compaction milestones. Emitted to the service's
    /// obs handle, never into per-scenario traces.
    Wal {
        /// What happened: `recovered_tail` (torn/corrupt tail truncated),
        /// `replayed` (log suffix re-applied after restore), `compact`
        /// (snapshot became the new base and old segments were retired),
        /// or `rotate` (a fresh segment was opened).
        action: &'static str,
        /// Highest record sequence number involved (0 when none).
        seq: u64,
        /// Bytes affected: truncated on `recovered_tail`, retired on
        /// `compact`, replayed payload bytes on `replayed`.
        bytes: u64,
    },
}

impl TraceKind {
    /// Stable lowercase tag naming the variant — the first token of the
    /// serialized line, and the key trace consumers filter on.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceKind::Arrival { .. } => "arrival",
            TraceKind::Admit { .. } => "admit",
            TraceKind::Enqueue { .. } => "enqueue",
            TraceKind::Reject { .. } => "reject",
            TraceKind::StageBoundary { .. } => "stage",
            TraceKind::Block { .. } => "block",
            TraceKind::Resume { .. } => "resume",
            TraceKind::Abort { .. } => "abort",
            TraceKind::Retry { .. } => "retry",
            TraceKind::Finish { .. } => "finish",
            TraceKind::Estimate { .. } => "estimate",
            TraceKind::FaultInjected { .. } => "fault",
            TraceKind::InvariantViolation { .. } => "violation",
            TraceKind::WlmDecision { .. } => "wlm",
            TraceKind::Checkpoint { .. } => "ckpt",
            TraceKind::Deadline { .. } => "deadline",
            TraceKind::TierChange { .. } => "tier",
            TraceKind::Breaker { .. } => "breaker",
            TraceKind::Wal { .. } => "wal",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={} {}", self.at, self.kind.tag())?;
        match &self.kind {
            TraceKind::Arrival { id, name, cost } => {
                write!(f, " id={id} name={name} cost={cost}")
            }
            TraceKind::Admit { id, waited } => write!(f, " id={id} waited={waited}"),
            TraceKind::Enqueue { id, depth } => write!(f, " id={id} depth={depth}"),
            TraceKind::Reject { id } => write!(f, " id={id}"),
            TraceKind::StageBoundary { running, queued } => {
                write!(f, " running={running} queued={queued}")
            }
            TraceKind::Block { id } | TraceKind::Resume { id } => write!(f, " id={id}"),
            TraceKind::Abort { id, overhead } => write!(f, " id={id} overhead={overhead}"),
            TraceKind::Retry {
                prior,
                id,
                attempt,
                due,
            } => write!(f, " prior={prior} id={id} attempt={attempt} due={due}"),
            TraceKind::Finish { id, kind, units } => {
                write!(f, " id={id} kind={kind} units={units}")
            }
            TraceKind::Estimate { pi, id, seconds } => {
                write!(f, " pi={pi} id={id} seconds={seconds}")
            }
            TraceKind::FaultInjected { kind, victim } => {
                write!(f, " kind={kind}")?;
                match victim {
                    Some(v) => write!(f, " victim={v}"),
                    None => write!(f, " victim=-"),
                }
            }
            TraceKind::InvariantViolation { rule } => write!(f, " rule={rule}"),
            TraceKind::WlmDecision { action, id } => {
                write!(f, " action={action}")?;
                match id {
                    Some(v) => write!(f, " id={v}"),
                    None => write!(f, " id=-"),
                }
            }
            TraceKind::Checkpoint { action, seed } => {
                write!(f, " action={action} seed={seed:#018x}")
            }
            TraceKind::Deadline {
                id,
                action,
                attempt,
            } => write!(f, " id={id} action={action} attempt={attempt}"),
            TraceKind::TierChange { from, to, load } => {
                write!(f, " from={from} to={to} load={load}")
            }
            TraceKind::Breaker { action, divergence } => {
                write!(f, " action={action} divergence={divergence}")
            }
            TraceKind::Wal { action, seq, bytes } => {
                write!(f, " action={action} seq={seq} bytes={bytes}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_is_stable() {
        let e = TraceEvent::new(
            1.5,
            TraceKind::Arrival {
                id: 3,
                name: "q3".into(),
                cost: 250.0,
            },
        );
        assert_eq!(e.to_string(), "t=1.5 arrival id=3 name=q3 cost=250");
        let e = TraceEvent::new(
            2.0,
            TraceKind::FaultInjected {
                kind: "rate_dip",
                victim: None,
            },
        );
        assert_eq!(e.to_string(), "t=2 fault kind=rate_dip victim=-");
        let e = TraceEvent::new(
            0.25,
            TraceKind::Estimate {
                pi: "multi",
                id: 7,
                seconds: 12.125,
            },
        );
        assert_eq!(
            e.to_string(),
            "t=0.25 estimate pi=multi id=7 seconds=12.125"
        );
    }

    #[test]
    fn tags_cover_all_variants() {
        let kinds = [
            TraceKind::Reject { id: 1 },
            TraceKind::StageBoundary {
                running: 1,
                queued: 0,
            },
            TraceKind::Block { id: 1 },
            TraceKind::Resume { id: 1 },
            TraceKind::Abort { id: 1, overhead: 0 },
            TraceKind::Retry {
                prior: 1,
                id: 2,
                attempt: 1,
                due: 3.0,
            },
            TraceKind::InvariantViolation {
                rule: "time_monotone",
            },
            TraceKind::WlmDecision {
                action: "speedup_victim",
                id: Some(4),
            },
            TraceKind::Checkpoint {
                action: "saved",
                seed: 0x2A,
            },
            TraceKind::Deadline {
                id: 9,
                action: "requeue",
                attempt: 1,
            },
            TraceKind::TierChange {
                from: "normal",
                to: "shed",
                load: 64,
            },
            TraceKind::Breaker {
                action: "trip",
                divergence: 0.5,
            },
            TraceKind::Wal {
                action: "recovered_tail",
                seq: 12,
                bytes: 40,
            },
        ];
        let tags: Vec<&str> = kinds.iter().map(|k| k.tag()).collect();
        assert_eq!(
            tags,
            [
                "reject",
                "stage",
                "block",
                "resume",
                "abort",
                "retry",
                "violation",
                "wlm",
                "ckpt",
                "deadline",
                "tier",
                "breaker",
                "wal"
            ]
        );
        assert_eq!(
            TraceEvent::new(
                0.0,
                TraceKind::Checkpoint {
                    action: "saved",
                    seed: 0x2A,
                }
            )
            .to_string(),
            "t=0 ckpt action=saved seed=0x000000000000002a"
        );
        assert_eq!(
            TraceEvent::new(
                1.0,
                TraceKind::TierChange {
                    from: "normal",
                    to: "epsilon_widen",
                    load: 12,
                }
            )
            .to_string(),
            "t=1 tier from=normal to=epsilon_widen load=12"
        );
        assert_eq!(
            TraceEvent::new(
                3.0,
                TraceKind::Wal {
                    action: "recovered_tail",
                    seq: 12,
                    bytes: 40,
                }
            )
            .to_string(),
            "t=3 wal action=recovered_tail seq=12 bytes=40"
        );
    }
}
