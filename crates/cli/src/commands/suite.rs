//! `moa suite [NAME…]` — the paper's Table-2 stand-in suite.

use std::io::Write;
use std::time::Instant;

use moa_circuits::suite::suite;
use moa_core::{run_campaign, CampaignAudit, CampaignOptions, FaultBudget, MoaOptions};
use moa_netlist::{collapse_faults, full_fault_list};
use moa_tpg::random_sequence;

use crate::{ArgParser, CliError};

const USAGE: &str =
    "usage: moa suite [NAME...] [--baseline-too] [--audit] [--degrade] [--work-limit W]";

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

    let audit = parser.switch("audit");
    let degrade = parser.switch("degrade");
    let work_limit = parser
        .flag("work-limit")
        .map(str::parse::<u64>)
        .transpose()
        .map_err(|err| CliError::Usage(format!("--work-limit: {err}\n\n{USAGE}")))?;
    writeln!(
        out,
        "{:<10} {:>7} {:>7} {:>7} {:>7}  paper(prop tot/extra)",
        "circuit", "faults", "conv", "tot", "extra"
    )?;
    let mut total_audit_failed = 0usize;
    let mut any_partial = 0usize;
    let mut proven_detected = 0usize;
    let mut total_faults = 0usize;
    for e in entries {
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
        let mut line = format!(
            "{:<10} {:>7} {:>7} {:>7} {:>7}  {}/{}",
            e.name,
            faults.len(),
            proposed.conventional,
            proposed.detected_total(),
            proposed.extra,
            e.paper.proposed.0,
            e.paper.proposed.1,
        );
        if audit {
            line.push_str(&format!("  audit-failed: {}", proposed.audit_failed));
            total_audit_failed += proposed.audit_failed;
        }
        if degrade {
            let partial = proposed.partial_summary();
            line.push_str(&format!("  partial: {}", partial.partial));
            any_partial += partial.partial;
        }
        proven_detected += proposed.detected_total();
        total_faults += proposed.total_faults;
        if parser.switch("baseline-too") {
            let baseline = run_campaign(&circuit, &seq, &faults, &CampaignOptions::baseline());
            line.push_str(&format!("  [4]: {}+{}", baseline.detected_total(), baseline.extra));
        }
        writeln!(out, "{line}  ({:.1?})", start.elapsed())?;
    }
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

    #[test]
    fn runs_one_small_entry() {
        let mut out = Vec::new();
        run(&["s208".into()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("s208"));
        assert!(text.contains("86/13"), "paper reference column present");
    }

    #[test]
    fn audited_entry_reports_zero_failures() {
        let mut out = Vec::new();
        run(&["s208".into(), "--audit".into()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("audit-failed: 0"), "{text}");
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
        let mut out = Vec::new();
        run(
            &[
                "s208".into(),
                "--degrade".into(),
                "--work-limit".into(),
                "1".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
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
