//! Bounded-recovery session supervision.
//!
//! The §6.2 recovery paths inside each client make a session robust to
//! *detectable* erasures (loss, CRC-failed corruption): the client simply
//! re-fetches the missing slots in later cycles. But the fault model of
//! [`spair_broadcast::fault`] also injects faults a position-trusting
//! client cannot detect from one frame: a duplicated or stale-version
//! frame carries plausible bytes at a trusted offset, and a server
//! restart phase-shifts the whole schedule mid-session. A client that
//! lived through one of those may have assembled a *wrong* subgraph —
//! and a wrong answer is the one failure mode a comparative platform
//! must never emit.
//!
//! The [`supervise`] driver enforces the graceful-degradation rule:
//!
//! 1. run the client session; read the channel's
//!    [`FaultTelemetry`](spair_broadcast::FaultTelemetry) afterwards;
//! 2. if any *silently-corrupting* fault occurred
//!    ([`FaultTelemetry::tainted`]), discard the result — answer or not —
//!    and re-tune from scratch on a fresh attempt;
//! 3. give up with a typed [`SessionError`] once the attempt or
//!    packet budget ([`RecoveryBudget`]) is exhausted.
//!
//! An [`SessionOutcome::Answered`] result is therefore *provably clean*:
//! it was produced by a session whose channel reports zero taint, and
//! detectable erasures cannot flip an answer (they only delay it). Every
//! give-up is typed. Never wrong — only late, or typed.

use crate::query::{Query, QueryError, QueryOutcome};
use spair_broadcast::{BroadcastChannel, FaultTelemetry};

use crate::query::AirClient;

/// Typed failure taxonomy of a supervised session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The client gave up because detectably corrupted frames kept it
    /// from ever completing a decode within its own retry budget.
    Corrupted {
        /// CRC-failed frames the attempt saw.
        corrupted: u64,
        /// The client's own abort reason.
        reason: &'static str,
    },
    /// The server truncated the cycle (restart) during the attempt; any
    /// partial decode may span two schedules and is untrusted.
    CycleAborted {
        /// Restarts the attempt lived through.
        restarts: u64,
    },
    /// Frames from a pre-restart schedule leaked into the attempt; the
    /// index the client assembled may describe a stale layout.
    StaleIndex {
        /// Stale frames delivered.
        stale: u64,
    },
    /// Duplicated (stuttered) frames were delivered at trusted
    /// positions during the attempt.
    DuplicateDelivery {
        /// Duplicate frames delivered.
        duplicates: u64,
    },
    /// The client aborted for its own reasons with no channel fault
    /// observed (e.g. a loss retry budget ran dry).
    ClientAborted(&'static str),
    /// The retry/cycle budget ran out before any attempt finished
    /// cleanly — the typed give-up of the graceful-degradation rule.
    BudgetExhausted {
        /// Attempts made.
        attempts: u32,
        /// Total packets elapsed across all attempts.
        elapsed_packets: u64,
        /// The failure class of the last attempt.
        last: Box<SessionError>,
    },
}

impl SessionError {
    /// Short class label for reports (`corrupted`, `cycle_aborted`, ...).
    pub fn class(&self) -> &'static str {
        match self {
            SessionError::Corrupted { .. } => "corrupted",
            SessionError::CycleAborted { .. } => "cycle_aborted",
            SessionError::StaleIndex { .. } => "stale_index",
            SessionError::DuplicateDelivery { .. } => "duplicate_delivery",
            SessionError::ClientAborted(_) => "client_aborted",
            SessionError::BudgetExhausted { .. } => "budget_exhausted",
        }
    }

    /// The innermost (root-cause) class: unwraps `BudgetExhausted`.
    pub fn root_class(&self) -> &'static str {
        match self {
            SessionError::BudgetExhausted { last, .. } => last.root_class(),
            other => other.class(),
        }
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Corrupted { corrupted, reason } => {
                write!(f, "session saw {corrupted} corrupted frames: {reason}")
            }
            SessionError::CycleAborted { restarts } => {
                write!(f, "server restarted {restarts}x mid-session")
            }
            SessionError::StaleIndex { stale } => {
                write!(f, "{stale} stale-version frames delivered")
            }
            SessionError::DuplicateDelivery { duplicates } => {
                write!(f, "{duplicates} duplicated frames delivered")
            }
            SessionError::ClientAborted(why) => write!(f, "client aborted: {why}"),
            SessionError::BudgetExhausted {
                attempts,
                elapsed_packets,
                last,
            } => write!(
                f,
                "recovery budget exhausted after {attempts} attempts / {elapsed_packets} packets (last: {last})"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// Hard retry/cycle budget of a supervised session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryBudget {
    /// Maximum re-tune-from-scratch attempts (>= 1).
    pub max_attempts: u32,
    /// Maximum total broadcast cycles across all attempts.
    pub max_cycles: u64,
}

impl RecoveryBudget {
    /// One attempt, no packet ceiling — supervision degenerates to a
    /// transparent pass-through (the fault-free configuration).
    pub const fn single() -> Self {
        Self {
            max_attempts: 1,
            max_cycles: u64::MAX,
        }
    }

    /// The default chaos budget: a handful of re-tunes inside a generous
    /// cycle ceiling.
    pub const fn standard() -> Self {
        Self {
            max_attempts: 4,
            max_cycles: 512,
        }
    }

    /// Total packet ceiling for a given cycle length.
    pub fn packet_budget(&self, cycle_len: usize) -> u64 {
        self.max_cycles.saturating_mul(cycle_len.max(1) as u64)
    }
}

/// What one attempt's channel reported back to the supervisor.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttemptReport {
    /// Fault counters of the attempt's channel session.
    pub faults: FaultTelemetry,
    /// Packets elapsed during the attempt.
    pub elapsed: u64,
    /// Packets received during the attempt.
    pub tuned: u64,
}

impl AttemptReport {
    /// Snapshot of a channel after the attempt ran on it. `before` is
    /// [`BroadcastChannel::elapsed`]/`tuned` deltas when the channel is
    /// reused across attempts; pass `(0, 0)` for a fresh channel.
    pub fn of(ch: &BroadcastChannel<'_>, before: (u64, u64)) -> Self {
        Self {
            faults: ch.fault_telemetry(),
            elapsed: ch.elapsed() - before.0,
            tuned: ch.tuned() - before.1,
        }
    }
}

/// Terminal outcome of a supervised session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome<T> {
    /// A trusted answer: produced by an attempt whose channel reported
    /// zero silently-corrupting faults.
    Answered(T),
    /// A trusted negative: the client determined unreachability on a
    /// taint-free channel.
    Unreachable,
    /// Typed give-up within budget.
    Failed(SessionError),
}

impl<T> SessionOutcome<T> {
    /// The answer, if one was produced.
    pub fn answered(&self) -> Option<&T> {
        match self {
            SessionOutcome::Answered(v) => Some(v),
            _ => None,
        }
    }

    /// The typed failure, if the session gave up.
    pub fn failed(&self) -> Option<&SessionError> {
        match self {
            SessionOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// A supervised session's outcome plus its aggregate cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedSession<T> {
    /// Terminal outcome.
    pub outcome: SessionOutcome<T>,
    /// Attempts made (>= 1 whenever the budget allowed any).
    pub attempts: u32,
    /// Total packets elapsed across every attempt — the recovery
    /// latency a real user would wait.
    pub recovery_packets: u64,
    /// Total packets received across every attempt.
    pub tuned_packets: u64,
}

impl<T> SupervisedSession<T> {
    /// Whether the session kept to `budget` over a `cycle_len`-packet
    /// cycle: attempts within the attempt budget, and recovery latency
    /// within the packet ceiling plus one attempt's overshoot (the
    /// supervisor checks the ceiling only *between* attempts, and each
    /// attempt is itself bounded by the client's own retry guard).
    pub fn within(&self, budget: RecoveryBudget, cycle_len: usize) -> bool {
        self.attempts <= budget.max_attempts
            && self.recovery_packets <= budget.packet_budget(cycle_len).saturating_mul(2)
    }
}

/// Classifies an attempt's telemetry into the taint that invalidates it,
/// most severe first (a restart invalidates more than a stale frame,
/// which invalidates more than a stutter).
fn taint_of(t: &FaultTelemetry) -> Option<SessionError> {
    if t.restarts > 0 {
        Some(SessionError::CycleAborted {
            restarts: t.restarts,
        })
    } else if t.stale > 0 {
        Some(SessionError::StaleIndex { stale: t.stale })
    } else if t.duplicates > 0 {
        Some(SessionError::DuplicateDelivery {
            duplicates: t.duplicates,
        })
    } else {
        None
    }
}

/// Runs attempts until one finishes on a taint-free channel or the
/// budget runs out. `attempt(k)` runs the `k`-th (0-based) session —
/// opening a fresh channel, or re-tuning a persistent one — and returns
/// the client's result plus the channel's [`AttemptReport`].
///
/// Under [`RecoveryBudget::single`] with a fault-free channel this is a
/// transparent pass-through: one attempt, its result mapped 1:1.
pub fn supervise<T, F>(
    budget: RecoveryBudget,
    cycle_len: usize,
    mut attempt: F,
) -> SupervisedSession<T>
where
    F: FnMut(u32) -> (Result<T, QueryError>, AttemptReport),
{
    assert!(budget.max_attempts >= 1, "budget must allow one attempt");
    let packet_budget = budget.packet_budget(cycle_len);
    let mut recovery_packets = 0u64;
    let mut tuned_packets = 0u64;
    let mut attempts = 0u32;
    let mut last: Option<SessionError> = None;
    while attempts < budget.max_attempts && recovery_packets < packet_budget {
        let (result, report) = attempt(attempts);
        attempts += 1;
        recovery_packets += report.elapsed;
        tuned_packets += report.tuned;
        let taint = taint_of(&report.faults);
        let done = |outcome| SupervisedSession {
            outcome,
            attempts,
            recovery_packets,
            tuned_packets,
        };
        match (result, taint) {
            (Ok(v), None) => return done(SessionOutcome::Answered(v)),
            (Err(QueryError::Unreachable), None) => return done(SessionOutcome::Unreachable),
            (Err(QueryError::Aborted(reason)), None) => {
                last = Some(if report.faults.corrupted > 0 {
                    SessionError::Corrupted {
                        corrupted: report.faults.corrupted,
                        reason,
                    }
                } else {
                    SessionError::ClientAborted(reason)
                });
            }
            // Tainted: discard whatever the client produced — answer,
            // unreachability verdict or abort — and re-tune from scratch.
            (_, Some(taint)) => last = Some(taint),
        }
    }
    SupervisedSession {
        outcome: SessionOutcome::Failed(SessionError::BudgetExhausted {
            attempts,
            elapsed_packets: recovery_packets,
            last: Box::new(
                last.unwrap_or(SessionError::ClientAborted("budget allowed no attempt")),
            ),
        }),
        attempts,
        recovery_packets,
        tuned_packets,
    }
}

/// Supervises an [`AirClient`] point-to-point query: each attempt opens a
/// fresh channel through `open(k)` and runs the client over it.
pub fn supervise_query<'c>(
    budget: RecoveryBudget,
    cycle_len: usize,
    client: &mut dyn AirClient,
    query: &Query,
    mut open: impl FnMut(u32) -> BroadcastChannel<'c>,
) -> SupervisedSession<QueryOutcome> {
    supervise(budget, cycle_len, |k| {
        let mut ch = open(k);
        let result = client.query(&mut ch, query);
        (result, AttemptReport::of(&ch, (0, 0)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_broadcast::QueryStats;

    fn ok_outcome() -> QueryOutcome {
        QueryOutcome {
            distance: 7,
            path: vec![0, 1],
            stats: QueryStats::default(),
        }
    }

    fn clean(elapsed: u64) -> AttemptReport {
        AttemptReport {
            faults: FaultTelemetry::default(),
            elapsed,
            tuned: elapsed,
        }
    }

    fn tainted(restarts: u64, elapsed: u64) -> AttemptReport {
        AttemptReport {
            faults: FaultTelemetry {
                restarts,
                ..Default::default()
            },
            elapsed,
            tuned: elapsed,
        }
    }

    #[test]
    fn clean_success_passes_through_on_first_attempt() {
        let s = supervise(RecoveryBudget::single(), 100, |_| {
            (Ok(ok_outcome()), clean(42))
        });
        assert_eq!(s.attempts, 1);
        assert_eq!(s.recovery_packets, 42);
        assert_eq!(s.outcome.answered().unwrap().distance, 7);
    }

    #[test]
    fn clean_unreachable_is_a_trusted_negative() {
        let s = supervise::<QueryOutcome, _>(RecoveryBudget::standard(), 100, |_| {
            (Err(QueryError::Unreachable), clean(5))
        });
        assert_eq!(s.attempts, 1, "no retry for a trusted negative");
        assert!(matches!(s.outcome, SessionOutcome::Unreachable));
    }

    #[test]
    fn tainted_answers_are_discarded_and_retried() {
        let s = supervise(RecoveryBudget::standard(), 100, |k| {
            if k == 0 {
                // A plausible-looking answer from a restarted session
                // must NOT be trusted.
                (Ok(ok_outcome()), tainted(1, 30))
            } else {
                (Ok(ok_outcome()), clean(20))
            }
        });
        assert_eq!(s.attempts, 2);
        assert_eq!(s.recovery_packets, 50, "all attempts count toward latency");
        assert!(s.outcome.answered().is_some());
    }

    #[test]
    fn tainted_unreachable_is_also_discarded() {
        let s = supervise::<QueryOutcome, _>(RecoveryBudget::standard(), 100, |k| {
            if k == 0 {
                (Err(QueryError::Unreachable), tainted(2, 10))
            } else {
                (Ok(ok_outcome()), clean(10))
            }
        });
        assert!(s.outcome.answered().is_some());
    }

    #[test]
    fn attempt_budget_exhaustion_is_typed() {
        let s = supervise::<QueryOutcome, _>(
            RecoveryBudget {
                max_attempts: 3,
                max_cycles: u64::MAX,
            },
            100,
            |_| (Ok(ok_outcome()), tainted(1, 10)),
        );
        assert_eq!(s.attempts, 3);
        match s.outcome.failed().unwrap() {
            SessionError::BudgetExhausted { attempts, last, .. } => {
                assert_eq!(*attempts, 3);
                assert!(matches!(**last, SessionError::CycleAborted { .. }));
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn packet_budget_caps_total_recovery_latency() {
        // Cycle 10, 3-cycle budget = 30 packets; each tainted attempt
        // burns 25 — the second attempt must not start.
        let s = supervise::<QueryOutcome, _>(
            RecoveryBudget {
                max_attempts: 100,
                max_cycles: 3,
            },
            10,
            |_| (Ok(ok_outcome()), tainted(1, 25)),
        );
        assert_eq!(s.attempts, 2, "second attempt starts at 25 < 30, third not");
        assert!(matches!(
            s.outcome,
            SessionOutcome::Failed(SessionError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn corruption_aborts_classify_as_corrupted() {
        let report = AttemptReport {
            faults: FaultTelemetry {
                corrupted: 9,
                ..Default::default()
            },
            elapsed: 10,
            tuned: 10,
        };
        let s = supervise::<QueryOutcome, _>(RecoveryBudget::single(), 100, |_| {
            (Err(QueryError::Aborted("decode failed")), report)
        });
        match s.outcome.failed().unwrap() {
            SessionError::BudgetExhausted { last, .. } => {
                assert!(matches!(
                    **last,
                    SessionError::Corrupted { corrupted: 9, .. }
                ));
                assert_eq!(last.root_class(), "corrupted");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_classes_are_stable_labels() {
        let all = [
            SessionError::Corrupted {
                corrupted: 1,
                reason: "x",
            },
            SessionError::CycleAborted { restarts: 1 },
            SessionError::StaleIndex { stale: 1 },
            SessionError::DuplicateDelivery { duplicates: 1 },
            SessionError::ClientAborted("x"),
        ];
        let mut classes: Vec<&str> = all.iter().map(SessionError::class).collect();
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(classes.len(), all.len(), "classes must be distinct");
        for e in &all {
            assert!(!e.to_string().is_empty());
        }
    }
}
