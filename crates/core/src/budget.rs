//! Per-fault resource budgets: wall-clock deadlines and work-unit ceilings.
//!
//! A [`FaultBudget`] bounds how much effort the expansion machinery may spend
//! on one fault; a [`BudgetMeter`] is its per-fault runtime counterpart,
//! charged as work happens. One *work unit* is one implication-engine run
//! (collection), one state-sequence copy created by a split (expansion), or
//! one sequence-frame advanced during resimulation — each still-undecided
//! sequence costs one unit per time frame up to and including the frame that
//! decides it, marked or not, charged identically by the campaign's
//! event-driven resimulator and the whole-frame reference so both exhaust a
//! limit at the same spent count. These are the
//! three quantities that dominate per-fault cost and that
//! [`MoaOptions::max_implication_runs`](crate::MoaOptions::max_implication_runs)
//! alone does not bound.
//!
//! Work units, like [`PerfCounters::gate_evals`], are **lane-invariant**: a
//! packed frame charges per word pass, never per lane, so changing the
//! screening lane width ([`ScreenLanes`](crate::ScreenLanes)) or thread
//! count never shifts when a budget runs out. A budget therefore decides
//! the same faults the same way under every execution configuration —
//! budgets bound *work*, and execution knobs only change how fast the same
//! work happens.
//!
//! Exceeding a budget is not an error: the fault is reported as
//! [`FaultStatus::BudgetExceeded`](crate::FaultStatus::BudgetExceeded), which
//! is a *not detected* verdict — the sound fallback, identical to what
//! conventional simulation alone concluded (a fault only reaches the budgeted
//! stages after surviving conventional simulation undetected).

use std::time::{Duration, Instant};

use crate::PerfCounters;

/// Deadline checks call [`Instant::now`]; amortize the cost by only checking
/// once per this many charge calls.
const DEADLINE_CHECK_INTERVAL: u32 = 64;

/// Resource limits for a single fault's simulation. The default is
/// unlimited — both knobs off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultBudget {
    /// Wall-clock deadline measured from the start of the fault's procedure.
    pub deadline: Option<Duration>,
    /// Ceiling on total work units (see the module docs for the unit).
    pub max_work: Option<u64>,
}

impl FaultBudget {
    /// No limits (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns a copy with a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns a copy with a work-unit ceiling.
    #[must_use]
    pub fn with_work_limit(mut self, max_work: u64) -> Self {
        self.max_work = Some(max_work);
        self
    }

    /// `true` when neither limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_work.is_none()
    }
}

/// The stage of the per-fault procedure in which a budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetStage {
    /// Section 3.1 — collecting backward implications.
    Collection,
    /// Section 3.3 / Procedure 2 — state expansion.
    Expansion,
    /// Section 3.4 — resimulating the expanded sequences.
    Resimulation,
}

impl std::fmt::Display for BudgetStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetStage::Collection => "collection",
            BudgetStage::Expansion => "expansion",
            BudgetStage::Resimulation => "resimulation",
        })
    }
}

/// Runtime meter charging work against one fault's [`FaultBudget`].
///
/// Once exhausted it stays exhausted; callers bail out of their stage and the
/// procedure converts the state into a
/// [`FaultStatus::BudgetExceeded`](crate::FaultStatus::BudgetExceeded)
/// verdict.
#[derive(Debug)]
pub struct BudgetMeter {
    start: Instant,
    deadline: Option<Duration>,
    max_work: Option<u64>,
    spent: u64,
    charges_since_deadline_check: u32,
    exhausted: bool,
    /// Performance tallies accumulated by the stages as they run; drained by
    /// the caller after the fault completes. Not part of the budget itself —
    /// the meter is simply the one object already threaded through every
    /// stage.
    pub perf: PerfCounters,
}

impl BudgetMeter {
    /// A meter for `budget`, starting its deadline clock now.
    pub fn new(budget: &FaultBudget) -> Self {
        BudgetMeter {
            start: Instant::now(),
            deadline: budget.deadline,
            max_work: budget.max_work,
            spent: 0,
            charges_since_deadline_check: 0,
            exhausted: false,
            perf: PerfCounters::new(),
        }
    }

    /// A meter that never exhausts — the cost of the unlimited fast path is
    /// one branch per charge.
    pub fn unlimited() -> Self {
        Self::new(&FaultBudget::none())
    }

    /// Records `units` of work. Returns `false` once the budget is
    /// exhausted; callers should then stop their stage.
    #[must_use]
    pub fn charge(&mut self, units: u64) -> bool {
        self.spent += units;
        // Stickiness is checked before the unlimited fast path so that
        // `exhaust()` (the frontier-memory cap) works on unlimited budgets.
        if self.exhausted {
            return false;
        }
        if self.deadline.is_none() && self.max_work.is_none() {
            return true;
        }
        if let Some(max) = self.max_work {
            if self.spent > max {
                self.exhausted = true;
                return false;
            }
        }
        if let Some(deadline) = self.deadline {
            self.charges_since_deadline_check += 1;
            if self.charges_since_deadline_check >= DEADLINE_CHECK_INTERVAL {
                self.charges_since_deadline_check = 0;
                if self.start.elapsed() >= deadline {
                    self.exhausted = true;
                    return false;
                }
            }
        }
        true
    }

    /// `true` once any limit has been hit.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Marks the meter exhausted directly — used by resource caps that are
    /// not work-unit counts, such as
    /// [`MoaOptions::max_frontier_states`](crate::MoaOptions::max_frontier_states).
    /// Works even on unlimited budgets.
    pub fn exhaust(&mut self) {
        self.exhausted = true;
    }

    /// Total work units charged so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Records `states` as the current faulty-state frontier size, updating
    /// the campaign-wide high-water mark
    /// ([`PerfCounters::max_frontier`](crate::PerfCounters)).
    pub fn note_frontier(&mut self, states: usize) {
        self.perf.max_frontier = self.perf.max_frontier.max(states as u64);
    }

    /// A fresh meter with the same limits but zero spend and a restarted
    /// deadline clock — the degradation ladder's per-rung budget slice.
    /// Perf counters start empty; fold them back with [`absorb`](Self::absorb).
    #[must_use]
    pub fn fresh_like(&self) -> Self {
        BudgetMeter {
            start: Instant::now(),
            deadline: self.deadline,
            max_work: self.max_work,
            spent: 0,
            charges_since_deadline_check: 0,
            exhausted: false,
            perf: PerfCounters::new(),
        }
    }

    /// Folds a ladder rung's meter back into this one: work spend adds up,
    /// perf counters accumulate. Exhaustion of the rung does *not* re-exhaust
    /// `self` — the caller decides what the rung's outcome means.
    pub fn absorb(&mut self, rung: &BudgetMeter) {
        self.spent += rung.spent;
        self.perf += rung.perf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut m = BudgetMeter::unlimited();
        for _ in 0..10_000 {
            assert!(m.charge(1));
        }
        assert!(!m.is_exhausted());
        assert_eq!(m.spent(), 10_000);
    }

    #[test]
    fn work_limit_trips_and_sticks() {
        let mut m = BudgetMeter::new(&FaultBudget::none().with_work_limit(5));
        assert!(m.charge(3));
        assert!(m.charge(2)); // exactly at the ceiling is still within budget
        assert!(!m.charge(1));
        assert!(m.is_exhausted());
        assert!(!m.charge(0), "exhaustion is sticky");
        assert_eq!(m.spent(), 6);
    }

    #[test]
    fn zero_deadline_trips_after_check_interval() {
        let mut m = BudgetMeter::new(&FaultBudget::none().with_deadline(Duration::ZERO));
        let mut survived = 0u32;
        while m.charge(1) {
            survived += 1;
            assert!(survived <= DEADLINE_CHECK_INTERVAL, "deadline never checked");
        }
        assert!(m.is_exhausted());
    }

    #[test]
    fn budget_builders() {
        let b = FaultBudget::none()
            .with_deadline(Duration::from_millis(10))
            .with_work_limit(100);
        assert_eq!(b.deadline, Some(Duration::from_millis(10)));
        assert_eq!(b.max_work, Some(100));
        assert!(!b.is_unlimited());
        assert!(FaultBudget::default().is_unlimited());
    }

    #[test]
    fn exhaust_sticks_even_when_unlimited() {
        let mut m = BudgetMeter::unlimited();
        assert!(m.charge(1));
        m.exhaust();
        assert!(m.is_exhausted());
        assert!(!m.charge(1), "exhaust() must stick on unlimited budgets");
    }

    #[test]
    fn fresh_like_and_absorb_slice_the_budget() {
        let mut m = BudgetMeter::new(&FaultBudget::none().with_work_limit(5));
        while m.charge(1) {}
        assert!(m.is_exhausted());
        let mut rung = m.fresh_like();
        assert!(!rung.is_exhausted());
        assert_eq!(rung.spent(), 0);
        assert!(rung.charge(4));
        rung.note_frontier(17);
        let before = m.spent();
        m.absorb(&rung);
        assert_eq!(m.spent(), before + 4);
        assert_eq!(m.perf.max_frontier, 17);
        assert!(m.is_exhausted(), "absorb never clears exhaustion");
    }

    #[test]
    fn note_frontier_tracks_the_high_water_mark() {
        let mut m = BudgetMeter::unlimited();
        m.note_frontier(4);
        m.note_frontier(32);
        m.note_frontier(8);
        assert_eq!(m.perf.max_frontier, 32);
    }
}
