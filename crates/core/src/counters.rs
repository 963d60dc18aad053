//! The per-fault effectiveness counters of the paper's Table 3.

use std::fmt;
use std::ops::AddAssign;

/// Per-fault counters `N_det(f)`, `N_conf(f)` and `N_extra(f)`.
///
/// They are incremented per pair `(u, i)` selected for expansion, following
/// Section 4 of the paper:
///
/// - a value `α` whose backward implication detected the fault increments
///   `n_det` and adds `N_extra(u, i, ᾱ)` to `n_extra`,
/// - a value `α` whose backward implication conflicted increments `n_conf`
///   and adds `N_extra(u, i, ᾱ)` to `n_extra`,
/// - otherwise (a genuine two-way expansion) `n_extra` grows by
///   `N_extra(u, i, 0) + N_extra(u, i, 1)`.
///
/// Without backward implications `n_det = n_conf = 0` and each expansion
/// contributes exactly 2, so with at most 6 expansions (the 64-sequence
/// limit), `n_extra <= 12` — the yardstick the paper compares against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Number of one-sided detections discovered during selection.
    pub n_det: u64,
    /// Number of one-sided conflicts discovered during selection.
    pub n_conf: u64,
    /// Total state-variable values specified through selected pairs.
    pub n_extra: u64,
}

impl Counters {
    /// The all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        self.n_det += rhs.n_det;
        self.n_conf += rhs.n_conf;
        self.n_extra += rhs.n_extra;
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "det={} conf={} extra={}",
            self.n_det, self.n_conf, self.n_extra
        )
    }
}

/// Performance tallies: gate evaluations and per-phase wall time.
///
/// Accumulated per fault through the [`BudgetMeter`](crate::BudgetMeter) and
/// aggregated over a campaign into
/// [`CampaignResult::perf`](crate::CampaignResult::perf). Deliberately
/// excluded from result equality — two outcome-identical runs spend
/// different wall time — and from the checkpoint format.
///
/// A *gate evaluation* is one gate visited by any engine: a scalar or
/// event-driven frame evaluation, one gate-word of a packed frame, or one
/// justification/forward step of the implication engine.
///
/// The packed charge is **lane-invariant**: one evaluation per gate per
/// *word pass*, regardless of how many lanes the word carries (64, 128 or
/// 256 — see [`ScreenLanes`](crate::ScreenLanes)). The unit meters machine
/// work, and one pass over a gate costs roughly one word operation whatever
/// the word's width; charging per lane would make a wider kernel look more
/// expensive exactly when it is cheaper. Consequently a wider screen
/// reports proportionally *fewer* gate evals for the same fault list (same
/// frames, fewer passes) — compare throughput in faults per second, not in
/// evals.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfCounters {
    /// Total gate evaluations (see above for the unit).
    pub gate_evals: u64,
    /// Conventional screening: the campaign's word-parallel fault pre-pass
    /// (64–256 lanes, possibly multi-threaded), which also decides condition
    /// (C), plus the scalar/differential faulty-trace simulation of each
    /// fault that survives it undetected and passes (C) — or of every
    /// undetected fault when the (C) check is off.
    pub screen_nanos: u64,
    /// Section 3.1 collection sweeps (includes the implication-engine time
    /// below).
    pub collect_nanos: u64,
    /// Time inside the implication engine proper (a subset of
    /// `collect_nanos`).
    pub imply_nanos: u64,
    /// Section 3.3 selection and state expansion.
    pub expand_nanos: u64,
    /// Section 3.4 resimulation of expanded sequences.
    pub resim_nanos: u64,
    /// Nets newly specified by firing statically learned implications
    /// (`MoaOptions::static_learning`); zero when learning is off.
    pub learned_hits: u64,
    /// Largest faulty-state frontier reached during expansion (a
    /// high-water mark, merged by `max` rather than summed). The knob
    /// bounding it is
    /// [`MoaOptions::max_frontier_states`](crate::MoaOptions::max_frontier_states).
    pub max_frontier: u64,
    /// Shard attempts retried by the supervisor of a sharded campaign
    /// ([`run_sharded`](crate::run_sharded)); zero for unsharded runs.
    pub shard_retries: u64,
    /// Certificate audits ([`CampaignOptions::audit`](crate::CampaignOptions::audit))
    /// that confirmed their detection by exhaustive replay.
    pub audits_confirmed: u64,
    /// Certificate audits that refuted their detection (each one a
    /// [`FaultStatus::AuditFailed`](crate::FaultStatus::AuditFailed)).
    pub audits_refuted: u64,
    /// Certificate audits that could neither confirm nor refute: the
    /// circuit has more than 14 flip-flops, or the sequence has `X` inputs.
    pub audits_inconclusive: u64,
}

impl PerfCounters {
    /// The all-zero tallies.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AddAssign for PerfCounters {
    fn add_assign(&mut self, rhs: PerfCounters) {
        self.gate_evals += rhs.gate_evals;
        self.screen_nanos += rhs.screen_nanos;
        self.collect_nanos += rhs.collect_nanos;
        self.imply_nanos += rhs.imply_nanos;
        self.expand_nanos += rhs.expand_nanos;
        self.resim_nanos += rhs.resim_nanos;
        self.learned_hits += rhs.learned_hits;
        self.max_frontier = self.max_frontier.max(rhs.max_frontier);
        self.shard_retries += rhs.shard_retries;
        self.audits_confirmed += rhs.audits_confirmed;
        self.audits_refuted += rhs.audits_refuted;
        self.audits_inconclusive += rhs.audits_inconclusive;
    }
}

impl fmt::Display for PerfCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |nanos: u64| nanos as f64 / 1.0e6;
        write!(
            f,
            "gate evals={} screen={:.1}ms collect={:.1}ms (imply={:.1}ms) expand={:.1}ms resim={:.1}ms",
            self.gate_evals,
            ms(self.screen_nanos),
            ms(self.collect_nanos),
            ms(self.imply_nanos),
            ms(self.expand_nanos),
            ms(self.resim_nanos),
        )?;
        if self.learned_hits > 0 {
            write!(f, " learned hits={}", self.learned_hits)?;
        }
        if self.max_frontier > 0 {
            write!(f, " max frontier={}", self.max_frontier)?;
        }
        if self.shard_retries > 0 {
            write!(f, " shard retries={}", self.shard_retries)?;
        }
        if self.audits_confirmed + self.audits_refuted + self.audits_inconclusive > 0 {
            write!(
                f,
                " audits confirmed={} refuted={} inconclusive={}",
                self.audits_confirmed, self.audits_refuted, self.audits_inconclusive
            )?;
        }
        Ok(())
    }
}

/// Averages of the counters over a set of faults — one row of Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CounterAverages {
    /// Number of faults averaged over.
    pub faults: usize,
    /// Average `N_det(f)`.
    pub det: f64,
    /// Average `N_conf(f)`.
    pub conf: f64,
    /// Average `N_extra(f)`.
    pub extra: f64,
}

impl CounterAverages {
    /// Averages `counters` over its length; all-zero for an empty slice.
    pub fn of(counters: &[Counters]) -> Self {
        if counters.is_empty() {
            return Self::default();
        }
        let n = counters.len() as f64;
        let mut sum = Counters::new();
        for &c in counters {
            sum += c;
        }
        CounterAverages {
            faults: counters.len(),
            det: sum.n_det as f64 / n,
            conf: sum.n_conf as f64 / n,
            extra: sum.n_extra as f64 / n,
        }
    }
}

impl fmt::Display for CounterAverages {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>8.2} {:>8.2} {:>8.2}",
            self.det, self.conf, self.extra
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = Counters::new();
        a += Counters {
            n_det: 1,
            n_conf: 2,
            n_extra: 3,
        };
        a += Counters {
            n_det: 10,
            n_conf: 20,
            n_extra: 30,
        };
        assert_eq!(
            a,
            Counters {
                n_det: 11,
                n_conf: 22,
                n_extra: 33
            }
        );
        assert_eq!(a.to_string(), "det=11 conf=22 extra=33");
    }

    #[test]
    fn averages() {
        let avg = CounterAverages::of(&[
            Counters {
                n_det: 2,
                n_conf: 0,
                n_extra: 10,
            },
            Counters {
                n_det: 4,
                n_conf: 2,
                n_extra: 20,
            },
        ]);
        assert_eq!(avg.faults, 2);
        assert_eq!(avg.det, 3.0);
        assert_eq!(avg.conf, 1.0);
        assert_eq!(avg.extra, 15.0);
    }

    #[test]
    fn empty_averages_are_zero() {
        let avg = CounterAverages::of(&[]);
        assert_eq!(avg.faults, 0);
        assert_eq!(avg.det, 0.0);
    }

    #[test]
    fn perf_counters_accumulate() {
        let mut p = PerfCounters::new();
        p += PerfCounters {
            gate_evals: 5,
            screen_nanos: 1,
            collect_nanos: 2,
            imply_nanos: 1,
            expand_nanos: 3,
            resim_nanos: 4,
            learned_hits: 6,
            max_frontier: 16,
            shard_retries: 3,
            audits_confirmed: 7,
            audits_refuted: 1,
            audits_inconclusive: 2,
        };
        p += p;
        assert_eq!(p.gate_evals, 10);
        assert_eq!(p.resim_nanos, 8);
        assert_eq!(p.learned_hits, 12);
        assert_eq!(p.max_frontier, 16, "high-water mark merges by max");
        assert_eq!(p.shard_retries, 6);
        assert!(p.to_string().contains("gate evals=10"));
        assert!(p.to_string().contains("learned hits=12"));
        assert!(p.to_string().contains("max frontier=16"));
        assert!(p.to_string().contains("shard retries=6"));
        assert!(p
            .to_string()
            .contains("audits confirmed=14 refuted=2 inconclusive=4"));
        assert!(!PerfCounters::new().to_string().contains("learned"));
        assert!(!PerfCounters::new().to_string().contains("frontier"));
        assert!(!PerfCounters::new().to_string().contains("shard"));
        assert!(!PerfCounters::new().to_string().contains("audits"));
    }

    #[test]
    fn max_frontier_merges_by_max_both_directions() {
        let mut a = PerfCounters {
            max_frontier: 8,
            ..PerfCounters::new()
        };
        a += PerfCounters {
            max_frontier: 4,
            ..PerfCounters::new()
        };
        assert_eq!(a.max_frontier, 8);
    }
}
