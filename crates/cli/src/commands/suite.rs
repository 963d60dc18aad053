//! `moa suite [NAME…]` — the paper's Tables 2 and 3 on the stand-in suite.
//!
//! Each circuit prints two lines: the measured Table-2 columns (collapsed
//! faults, conventional detections, the proposed procedure's total and extra
//! detections) with the Table-3 averages of `N_det`/`N_conf`/`N_extra` over
//! its extra-detected faults, and below them the paper's published row.
//! `--baseline-too` adds the expansion-only baseline of \[4] as one more
//! column, the abort analysis and the Table-2 shape check. `--audit`
//! replays every detection's certificate and counts the outcomes per
//! circuit and in total. Absolute numbers differ from the paper (the
//! circuits are synthetic stand-ins); the shape is what EXPERIMENTS.md
//! compares.

use std::io::Write;
use std::time::Instant;

use moa_circuits::suite::suite;
use moa_core::{
    run_campaign, CampaignAudit, CampaignOptions, FaultBudget, FaultStatus, MoaOptions,
    PerfCounters,
};
use moa_netlist::{collapse_faults, full_fault_list};
use moa_tpg::random_sequence;

use crate::{ArgParser, CliError};

const USAGE: &str =
    "usage: moa suite [NAME...] [--baseline-too] [--audit] [--degrade] [--work-limit W]";

/// Table 3's yardstick: without backward implications `N_extra <= 12` (at
/// most 6 expansions x 2 values).
const EXPANSION_ONLY_N_EXTRA: f64 = 12.0;

pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(
        args,
        USAGE,
        &["work-limit"],
        &["baseline-too", "audit", "degrade"],
    )?;
    let filter = parser.positional();
    let entries: Vec<_> = suite()
        .into_iter()
        .filter(|e| filter.is_empty() || filter.iter().any(|f| f == e.name))
        .collect();
    if entries.is_empty() {
        return Err(CliError::Usage(format!(
            "no suite circuit matches {filter:?}\n\n{USAGE}"
        )));
    }

    let baseline_too = parser.switch("baseline-too");
    let audit = parser.switch("audit");
    let degrade = parser.switch("degrade");
    let work_limit = parser
        .flag("work-limit")
        .map(str::parse::<u64>)
        .transpose()
        .map_err(|err| CliError::Usage(format!("--work-limit: {err}\n\n{USAGE}")))?;
    let mut header = format!(
        "{:<10} {:>7} {:>7} {:>7} {:>7}",
        "circuit", "faults", "conv", "tot", "extra"
    );
    if baseline_too {
        header.push_str(&format!(" {:>14}", "[4] tot/extra"));
    }
    header.push_str(&format!(" {:>8} {:>8} {:>8}", "N_det", "N_conf", "N_extra"));
    writeln!(out, "{header}")?;
    let mut total_audit_failed = 0usize;
    let mut audits = PerfCounters::new();
    let mut any_partial = 0usize;
    let mut proven_detected = 0usize;
    let mut total_faults = 0usize;
    let mut above_yardstick = 0usize;
    let mut shape_ok = 0usize;
    let mut abort_lines = Vec::new();
    let mut shape_lines = Vec::new();
    for e in &entries {
        let circuit = e.build();
        let seq = random_sequence(&circuit, e.sequence_length, e.spec.seed);
        // One representative per equivalence class, as the paper's tables
        // count faults.
        let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
            .representatives()
            .to_vec();
        let start = Instant::now();
        let mut budget = FaultBudget::none();
        if let Some(limit) = work_limit {
            budget = budget.with_work_limit(limit);
        }
        let options = CampaignOptions {
            moa: MoaOptions::default().with_degrade(degrade),
            budget,
            audit: audit.then(CampaignAudit::default),
            ..CampaignOptions::new()
        };
        let proposed = run_campaign(&circuit, &seq, &faults, &options);
        let paper = &e.paper;
        let mut line = format!(
            "{:<10} {:>7} {:>7} {:>7} {:>7}",
            e.name,
            faults.len(),
            proposed.conventional,
            proposed.detected_total(),
            proposed.extra,
        );
        let mut paper_line = format!(
            "{:<10} {:>7} {:>7} {:>7} {:>7}",
            "  paper", paper.total_faults, paper.conventional, paper.proposed.0, paper.proposed.1,
        );
        if baseline_too {
            let baseline = run_campaign(&circuit, &seq, &faults, &CampaignOptions::baseline());
            let measured = format!("{}/{}", baseline.detected_total(), baseline.extra);
            let published = paper
                .baseline
                .map_or_else(|| "NA".to_owned(), |(tot, extra)| format!("{tot}/{extra}"));
            line.push_str(&format!(" {measured:>14}"));
            paper_line.push_str(&format!(" {published:>14}"));

            // The paper's s5378 remark: the faults the proposed procedure
            // recovers beyond [4] were *aborted* by [4] at the 64-state limit.
            let recovered: Vec<&FaultStatus> = baseline
                .statuses
                .iter()
                .zip(&proposed.statuses)
                .filter(|(b, p)| p.is_extra_detected() && !b.is_detected())
                .map(|(b, _)| b)
                .collect();
            let aborted = recovered
                .iter()
                .filter(|b| matches!(b, FaultStatus::NotDetected { aborted: true, .. }))
                .count();
            if !recovered.is_empty() {
                abort_lines.push(format!(
                    "  {:<10} {aborted}/{} of the recovered faults were aborted by [4]",
                    e.name,
                    recovered.len()
                ));
            }

            let gap_expected = paper
                .baseline
                .is_none_or(|(_, base_extra)| paper.proposed.1 > base_extra);
            let extra_exists = proposed.extra > 0;
            let superset = proposed.detected_total() >= baseline.detected_total();
            let gap_holds = !gap_expected || proposed.extra > baseline.extra;
            shape_ok += usize::from(extra_exists && superset);
            shape_lines.push(format!(
                "{:<10} extra>0: {:<5} proposed>=baseline: {:<5} paper-gap reproduced: {}",
                e.name, extra_exists, superset, gap_holds
            ));
        }
        let averages = proposed.counter_averages();
        let (det, conf, extra) = paper.table3;
        line.push_str(&format!(" {averages}"));
        paper_line.push_str(&format!(" {det:>8.2} {conf:>8.2} {extra:>8.2}"));
        above_yardstick += usize::from(averages.extra > EXPANSION_ONLY_N_EXTRA);
        if audit {
            let p = &proposed.perf;
            line.push_str(&format!(
                "  audit-failed: {}  confirmed: {}  refuted: {}  inconclusive: {}",
                proposed.audit_failed, p.audits_confirmed, p.audits_refuted, p.audits_inconclusive
            ));
            total_audit_failed += proposed.audit_failed;
            audits += proposed.perf;
        }
        if degrade {
            let partial = proposed.partial_summary();
            line.push_str(&format!("  partial: {}", partial.partial));
            any_partial += partial.partial;
        }
        proven_detected += proposed.detected_total();
        total_faults += proposed.total_faults;
        writeln!(out, "{line}  ({:.1?})", start.elapsed())?;
        writeln!(out, "{paper_line}")?;
    }
    writeln!(out)?;
    if baseline_too {
        writeln!(
            out,
            "abort analysis (proposed-only detections vs the baseline's abort state):"
        )?;
        for l in &abort_lines {
            writeln!(out, "{l}")?;
        }
        writeln!(out)?;
        for l in &shape_lines {
            writeln!(out, "{l}")?;
        }
        writeln!(out)?;
        writeln!(
            out,
            "{shape_ok}/{} circuits reproduce the basic Table-2 shape",
            entries.len()
        )?;
    }
    writeln!(
        out,
        "{above_yardstick}/{} circuits exceed the expansion-only N_extra bound of \
         {EXPANSION_ONLY_N_EXTRA}",
        entries.len()
    )?;
    if degrade {
        // Partial verdicts still carry sound lower bounds, so the aggregate
        // coverage below is a floor, never an estimate.
        let pct = if total_faults > 0 {
            100.0 * proven_detected as f64 / total_faults as f64
        } else {
            0.0
        };
        writeln!(
            out,
            "suite coverage lower bound: {pct:.2}% ({proven_detected} of {total_faults} \
             proven detected, {any_partial} partial verdict(s))"
        )?;
    }
    if audit {
        // Only circuits under the audit's 2^14-state cap can confirm; the
        // rest count as inconclusive, which is not a confirmation.
        writeln!(
            out,
            "audit totals: {} confirmed, {} refuted, {} inconclusive, {} audit-failed",
            audits.audits_confirmed,
            audits.audits_refuted,
            audits.audits_inconclusive,
            total_audit_failed
        )?;
    }
    if audit && total_audit_failed > 0 {
        return Err(CliError::Failed(format!(
            "{total_audit_failed} detection(s) failed their certificate audit — \
             the symbolic engine claimed a detection that concrete replay refutes"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite_text(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// The circuit's measured row without its trailing wall time.
    fn row<'a>(text: &'a str, name: &str) -> &'a str {
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no `{name}` row in\n{text}"));
        line.rsplit_once("  (").map_or(line, |(row, _)| row)
    }

    #[test]
    fn tables_2_and_3_without_the_baseline() {
        let text = suite_text(&["s208", "s298"]);
        assert!(text.contains("N_det   N_conf  N_extra"), "{text}");
        assert_eq!(
            row(&text, "s298"),
            "s298           446      52      63      11    57.18    14.27   140.45",
        );
        assert!(
            text.contains("  paper        215      73      86      13    19.54    12.00    54.54"),
            "the paper's s208 row: {text}"
        );
        assert!(
            text.contains("1/2 circuits exceed the expansion-only N_extra bound of 12"),
            "{text}"
        );
        // No baseline runs: no [4] column, abort analysis or shape check.
        assert!(!text.contains("[4]"), "{text}");
        assert!(!text.contains("abort analysis"), "{text}");
        assert!(!text.contains("Table-2 shape"), "{text}");
    }

    #[test]
    fn baseline_too_adds_the_baseline_abort_analysis_and_shape() {
        let text = suite_text(&["s208", "s298", "--baseline-too"]);
        assert!(text.contains("[4] tot/extra"), "{text}");
        assert_eq!(
            row(&text, "s298"),
            "s298           446      52      63      11          63/11    57.18    14.27   140.45",
        );
        assert_eq!(
            row(&text, "s208"),
            "s208           357      99      99       0           99/0     0.00     0.00     0.00",
        );
        assert!(
            text.contains("  paper        308     143     150       7          150/7"),
            "{text}"
        );
        // [4] already finds all 11 of s298's extra detections, so nothing
        // is recovered and the abort analysis lists no circuit.
        assert!(
            text.contains(
                "abort analysis (proposed-only detections vs the baseline's abort state):\n\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "s208       extra>0: false proposed>=baseline: true  paper-gap reproduced: true"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "s298       extra>0: true  proposed>=baseline: true  paper-gap reproduced: true"
            ),
            "{text}"
        );
        assert!(
            text.contains("1/2 circuits reproduce the basic Table-2 shape"),
            "{text}"
        );
        assert!(
            text.contains("1/2 circuits exceed the expansion-only N_extra bound of 12"),
            "{text}"
        );
    }

    #[test]
    fn audited_entry_reports_zero_failures() {
        let text = suite_text(&["s208", "s344", "--audit"]);
        // s208's 8 flip-flops are under the audit's cap, so each of its 99
        // detections is confirmed; s344's 15 are over it.
        assert!(
            row(&text, "s208")
                .ends_with("audit-failed: 0  confirmed: 99  refuted: 0  inconclusive: 0"),
            "{text}"
        );
        assert!(
            row(&text, "s344")
                .ends_with("audit-failed: 0  confirmed: 0  refuted: 0  inconclusive: 165"),
            "{text}"
        );
        assert!(
            text.contains("audit totals: 99 confirmed, 0 refuted, 165 inconclusive, 0 audit-failed"),
            "{text}"
        );
    }

    #[test]
    fn unknown_name_is_usage_error() {
        let mut out = Vec::new();
        assert!(run(&["s9999".into()], &mut out).is_err());
    }

    #[test]
    fn degraded_entry_reports_partials_and_a_coverage_floor() {
        // A one-unit work ceiling trips every fault's budget; with the ladder
        // armed each becomes a partial verdict rather than a lost fault.
        let text = suite_text(&["s208", "--degrade", "--work-limit", "1"]);
        assert!(text.contains("partial: "), "{text}");
        assert!(!text.contains("partial: 0"), "a 1-unit ceiling must degrade: {text}");
        assert!(text.contains("suite coverage lower bound: "), "{text}");
        assert!(text.contains("proven detected"), "{text}");
    }

    #[test]
    fn retired_collapse_flag_is_usage_error() {
        let mut out = Vec::new();
        let err = run(&["s208".into(), "--collapse".into()], &mut out).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn bad_work_limit_is_usage_error() {
        let mut out = Vec::new();
        let err = run(&["s208".into(), "--work-limit".into(), "x".into()], &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("--work-limit"), "{err}");
    }
}
