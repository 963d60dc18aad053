//! Configuration of the fault-simulation procedure.
//!
//! [`MoaOptions`] holds the per-fault *semantic* knobs of the paper's
//! procedure. Campaign-level execution knobs — worker threads, the
//! screening pre-pass and its lane width / thread count
//! ([`ScreenLanes`](crate::ScreenLanes)), checkpointing, auditing — live on
//! [`CampaignOptions`](crate::CampaignOptions) and never change verdicts.

/// Options controlling the multiple-observation-time fault simulation.
///
/// The defaults reproduce the paper's setup: a limit of 64 state sequences
/// after expansion, backward implications over a single earlier time unit
/// with one outputs→inputs and one inputs→outputs pass.
///
/// # Example
///
/// ```
/// use moa_core::MoaOptions;
///
/// let paper = MoaOptions::default();
/// assert_eq!(paper.n_states, 64);
/// assert!(paper.backward_implications);
///
/// // The expansion-only procedure of the paper's reference \[4]:
/// let baseline = MoaOptions::baseline();
/// assert!(!baseline.backward_implications);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoaOptions {
    /// Maximum number of state sequences after expansion (the paper's
    /// `N_STATES`, 64 in its experiments).
    pub n_states: usize,
    /// Enable backward implications (the paper's contribution). With `false`
    /// the procedure degenerates to the state-expansion baseline of \[4]:
    /// every expansion specifies only the selected variable itself and no
    /// conflicts or early detections are discovered.
    pub backward_implications: bool,
    /// Number of implication rounds per assertion; each round is one
    /// outputs→inputs pass followed by one inputs→outputs pass. The paper
    /// uses exactly one round "to keep the computation time low"; higher
    /// values iterate toward a fixed point (rounds stop early once a pass
    /// changes nothing).
    pub implication_rounds: usize,
    /// Engineering bound on the number of implication-engine runs per fault
    /// during collection (Section 3.1 visits every unspecified `(u, i, α)`;
    /// this caps the sweep for very long sequences / large circuits). Time
    /// units are visited in descending `N_out` order, so the most promising
    /// pairs are collected first.
    pub max_implication_runs: usize,
    /// Apply the necessary condition (C) — skip faults for which no time unit
    /// has both unspecified state variables and recoverable output values.
    pub check_condition_c: bool,
    /// Number of earlier time units backward implications may chain through.
    /// The paper's implementation "considers only one time unit" (the
    /// default); with `k > 1`, present-state variables specified at time
    /// `u - 1` are pushed onto the corresponding next-state variables at
    /// `u - 2` and implications continue, up to `k` frames back — the
    /// multi-time-unit extension the paper describes in Section 2.
    pub backward_time_units: usize,
    /// Also collect pairs at time unit `u = L` (backward implications into
    /// the final frame). The paper's Section 3.1 text restricts collection to
    /// `0 < u < L`, although its condition (C1) admits `u = L`; disabled by
    /// default for faithfulness.
    pub include_final_time_unit: bool,
    /// Fire statically learned implications (`moa_analyze::ImplicationDb`)
    /// during the implication passes: whenever an assertion or a pass newly
    /// specifies a net, the net's learned implication list is applied (and
    /// cascades). Off by default for faithfulness to the paper; parity tests
    /// lock the verdicts to be equivalent-or-stronger — every per-fault
    /// verdict is identical or upgraded from undecided to resolved, never
    /// downgraded.
    pub static_learning: bool,
    /// Memory cap on the faulty-state frontier: expansion refuses any split
    /// that would grow the live sequence set beyond this many states and
    /// marks the fault's budget exhausted instead (the frontier can double
    /// on every split, so its worst case is unbounded). `None` (the
    /// default) leaves only `n_states` as the bound. The campaign-wide
    /// high-water mark is reported in
    /// [`PerfCounters::max_frontier`](crate::PerfCounters).
    pub max_frontier_states: Option<usize>,
    /// Graceful degradation: instead of collapsing an exhausted fault to
    /// [`FaultStatus::BudgetExceeded`](crate::FaultStatus::BudgetExceeded),
    /// step down the ladder — rerun the fault as the expansion-only
    /// baseline (no backward implications, halved frontier), and failing
    /// that fall back to the conventional single-observation verdict —
    /// reporting a structured
    /// [`FaultStatus::PartialVerdict`](crate::FaultStatus::PartialVerdict)
    /// with a sound detection lower bound. Off by default.
    pub degrade: bool,
}

impl MoaOptions {
    /// The paper's configuration (also available via [`Default`]).
    pub fn new() -> Self {
        MoaOptions {
            n_states: 64,
            backward_implications: true,
            implication_rounds: 1,
            max_implication_runs: 4096,
            check_condition_c: true,
            backward_time_units: 1,
            include_final_time_unit: false,
            static_learning: false,
            max_frontier_states: None,
            degrade: false,
        }
    }

    /// The state-expansion-only baseline of the paper's reference \[4], used
    /// as the comparison column of Table 2 and as the ablation of the
    /// backward-implication contribution.
    pub fn baseline() -> Self {
        MoaOptions {
            backward_implications: false,
            ..Self::new()
        }
    }

    /// Returns a copy with a different `N_STATES` limit.
    #[must_use]
    pub fn with_n_states(mut self, n_states: usize) -> Self {
        self.n_states = n_states;
        self
    }

    /// Returns a copy with a different implication-round count.
    #[must_use]
    pub fn with_implication_rounds(mut self, rounds: usize) -> Self {
        self.implication_rounds = rounds;
        self
    }

    /// Returns a copy with a different collection budget.
    #[must_use]
    pub fn with_max_implication_runs(mut self, runs: usize) -> Self {
        self.max_implication_runs = runs;
        self
    }

    /// Returns a copy chaining backward implications through `units` earlier
    /// time units (`1` is the paper's configuration).
    #[must_use]
    pub fn with_backward_time_units(mut self, units: usize) -> Self {
        self.backward_time_units = units;
        self
    }

    /// Returns a copy with statically learned implications enabled or
    /// disabled.
    #[must_use]
    pub fn with_static_learning(mut self, enabled: bool) -> Self {
        self.static_learning = enabled;
        self
    }

    /// Returns a copy capping the faulty-state frontier at `states`.
    #[must_use]
    pub fn with_max_frontier_states(mut self, states: usize) -> Self {
        self.max_frontier_states = Some(states);
        self
    }

    /// Returns a copy with the graceful-degradation ladder enabled or
    /// disabled.
    #[must_use]
    pub fn with_degrade(mut self, enabled: bool) -> Self {
        self.degrade = enabled;
        self
    }
}

impl Default for MoaOptions {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = MoaOptions::default();
        assert_eq!(o.n_states, 64);
        assert_eq!(o.implication_rounds, 1);
        assert!(o.backward_implications);
        assert!(o.check_condition_c);
        assert_eq!(o.backward_time_units, 1);
        assert!(!o.include_final_time_unit);
        assert!(!o.static_learning);
        assert_eq!(o.max_frontier_states, None);
        assert!(!o.degrade);
        assert_eq!(o, MoaOptions::new());
    }

    #[test]
    fn builders() {
        let o = MoaOptions::default()
            .with_n_states(8)
            .with_implication_rounds(3)
            .with_max_implication_runs(10)
            .with_backward_time_units(2)
            .with_static_learning(true)
            .with_max_frontier_states(32)
            .with_degrade(true);
        assert_eq!(o.n_states, 8);
        assert_eq!(o.implication_rounds, 3);
        assert_eq!(o.max_implication_runs, 10);
        assert_eq!(o.backward_time_units, 2);
        assert!(o.static_learning);
        assert_eq!(o.max_frontier_states, Some(32));
        assert!(o.degrade);
    }
}
