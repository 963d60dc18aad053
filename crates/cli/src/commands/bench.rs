//! `moa bench` — machine-readable performance benchmark of the campaign
//! hot path.
//!
//! For each suite circuit the command times one **screened** campaign at a
//! fixed thread count: packed parallel-fault conventional screening,
//! differential conventional simulation, and the per-fault MOA procedure
//! (backward implications, expansion, resimulation). A second, untimed run
//! repeats the configuration over the full fault list with certificate
//! auditing enabled and reports its `audit_failed` count — any nonzero value
//! fails the command.
//!
//! `--out FILE` writes a JSON report; `--check FILE` compares the screened
//! faults/sec of this run against a previously committed report and fails on
//! a more-than-2x regression for any shared circuit. The committed reports
//! are the baseline; no reference configuration is re-run live.
//!
//! A separate *screening kernel* micro-benchmark isolates the packed
//! parallel-fault pre-pass: the collapsed fault list is screened once with
//! the 64-lane single-threaded reference kernel and once at the configured
//! `--screen-lanes`/`--screen-threads`, the detections and condition-(C)
//! bits are asserted bit-identical, and both throughputs (plus their ratio)
//! are reported per circuit and in aggregate.

use std::io::Write;
use std::time::Instant;

use moa_circuits::suite::suite;
use moa_core::{try_run_campaign, CampaignAudit, CampaignOptions, ScreenLanes};
use moa_netlist::{collapse_faults, full_fault_list};
use moa_sim::{screen_faults_wide, simulate, ScreenOutcome};
use moa_tpg::random_sequence;

use crate::commands::{screen_lanes_from_args, screen_threads_from_args};
use crate::{ArgParser, CliError};

const USAGE: &str = "usage: moa bench [NAME...] [--quick] [--threads T] \
[--screen-lanes 64|128|256] [--screen-threads T] [--out FILE] [--check FILE] [--no-audit]";

/// The `--quick` subset: the two smallest entries plus the largest, so a CI
/// smoke run still exercises the hot path that dominates full-bench time.
const QUICK: &[&str] = &["s208", "s298", "s35932"];

/// One benchmarked circuit's numbers.
struct BenchRow {
    name: String,
    gates: usize,
    flip_flops: usize,
    faults: usize,
    seq_len: usize,
    screened_ms: f64,
    screened_gate_evals: u64,
    screened_fps: f64,
    detected_total: usize,
    partial: usize,
    coverage_lower_bound: f64,
    audit_failed: Option<usize>,
    collapse_total: usize,
    collapse_classes: usize,
    screen_lanes: usize,
    screen_threads: usize,
    screen_base_ms: f64,
    screen_wide_ms: f64,
}

impl BenchRow {
    fn kernel_fps(&self, ms: f64) -> f64 {
        if ms > 0.0 {
            self.faults as f64 / (ms / 1e3)
        } else {
            f64::INFINITY
        }
    }

    fn kernel_speedup(&self) -> f64 {
        if self.screen_wide_ms > 0.0 {
            self.screen_base_ms / self.screen_wide_ms
        } else {
            f64::INFINITY
        }
    }

    fn collapse_ratio(&self) -> f64 {
        if self.collapse_total > 0 {
            (self.collapse_total - self.collapse_classes) as f64 / self.collapse_total as f64
        } else {
            0.0
        }
    }
}

/// Whether two screens reached the same per-fault verdicts: detections and
/// condition-(C) bits. Gate evaluations are charged per word pass and differ
/// between lane widths by design.
fn same_verdicts(a: &ScreenOutcome, b: &ScreenOutcome) -> bool {
    a.detections == b.detections && a.condition_c == b.condition_c
}

/// Times one screening-kernel configuration. Sub-10ms runs are repeated and
/// averaged so small circuits report a stable per-run time instead of timer
/// noise.
fn time_kernel(mut run: impl FnMut() -> ScreenOutcome) -> (f64, ScreenOutcome) {
    let started = Instant::now();
    let outcome = run();
    let first_ms = started.elapsed().as_secs_f64() * 1e3;
    if first_ms >= 10.0 {
        return (first_ms, outcome);
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let reps = ((50.0 / first_ms.max(1e-3)).ceil() as usize).min(1000);
    let started = Instant::now();
    for _ in 0..reps {
        let repeat = run();
        assert!(
            same_verdicts(&repeat, &outcome),
            "kernel must be deterministic"
        );
    }
    let ms = started.elapsed().as_secs_f64() * 1e3 / reps as f64;
    (ms, outcome)
}

pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(
        args,
        USAGE,
        &["threads", "out", "check", "screen-lanes", "screen-threads"],
        &["quick", "no-audit"],
    )?;
    let filter = parser.positional();
    let quick = parser.switch("quick");
    let threads = parser.num("threads", 1usize)?.max(1);
    let audit = !parser.switch("no-audit");
    let screen_lanes = screen_lanes_from_args(&parser)?;
    let screen_threads = screen_threads_from_args(&parser)?;

    let entries: Vec<_> = suite()
        .into_iter()
        .filter(|e| {
            if !filter.is_empty() {
                filter.iter().any(|f| f == e.name)
            } else if quick {
                QUICK.contains(&e.name)
            } else {
                true
            }
        })
        .collect();
    if entries.is_empty() {
        return Err(CliError::Usage(format!(
            "no suite circuit matches {filter:?}\n\n{USAGE}"
        )));
    }

    writeln!(
        out,
        "{:<10} {:>7} {:>9} {:>9} {:>12}",
        "circuit", "faults", "scr ms", "fps", "gate evals"
    )?;

    let mut rows = Vec::with_capacity(entries.len());
    for e in entries {
        let circuit = e.build();
        let seq = random_sequence(&circuit, e.sequence_length, e.spec.seed);
        let full = full_fault_list(&circuit);
        let faults = collapse_faults(&circuit, &full).representatives().to_vec();

        let screened_opts = CampaignOptions {
            threads,
            differential: true,
            screen: true,
            screen_lanes,
            screen_threads,
            ..CampaignOptions::new()
        };
        let started = Instant::now();
        let screened = try_run_campaign(&circuit, &seq, &faults, &screened_opts)
            .map_err(|err| CliError::Failed(err.to_string()))?;
        let screened_ms = started.elapsed().as_secs_f64() * 1e3;

        // The untimed verification run audits the *full-list* campaign:
        // equivalent faults share a screen lane, and each member's own
        // certificate is replayed against the member fault, so a wrong
        // equivalence class would fail the bench.
        let audit_failed = if audit {
            let audited_opts = CampaignOptions {
                audit: Some(CampaignAudit::default()),
                ..screened_opts
            };
            let audited = try_run_campaign(&circuit, &seq, &full, &audited_opts)
                .map_err(|err| CliError::Failed(err.to_string()))?;
            if audited.audit_failed > 0 {
                return Err(CliError::Failed(format!(
                    "{}: {} detection(s) failed their certificate audit",
                    e.name, audited.audit_failed
                )));
            }
            Some(audited.audit_failed)
        } else {
            None
        };

        // Screening-kernel micro-benchmark: the same collapsed fault list
        // through the packed pre-pass alone, at the 64-lane single-threaded
        // reference and at the configured width/threads. Identical
        // detections and condition-(C) bits are a hard requirement, not a
        // statistic.
        let good = simulate(&circuit, &seq, None);
        let (screen_base_ms, base_outcome) =
            time_kernel(|| screen_faults_wide(&circuit, &seq, &good, &faults, ScreenLanes::L64, 1));
        let (screen_wide_ms, wide_outcome) = time_kernel(|| {
            screen_faults_wide(&circuit, &seq, &good, &faults, screen_lanes, screen_threads)
        });
        if !same_verdicts(&wide_outcome, &base_outcome) {
            return Err(CliError::Failed(format!(
                "{}: {screen_lanes}-lane x{screen_threads}-thread screening disagrees \
                 with the 64-lane reference kernel",
                e.name
            )));
        }

        let fps = |ms: f64| {
            if ms > 0.0 {
                faults.len() as f64 / (ms / 1e3)
            } else {
                f64::INFINITY
            }
        };
        let row = BenchRow {
            name: e.name.to_owned(),
            gates: circuit.num_gates(),
            flip_flops: circuit.num_flip_flops(),
            faults: faults.len(),
            seq_len: seq.len(),
            screened_ms,
            screened_gate_evals: screened.perf.gate_evals,
            screened_fps: fps(screened_ms),
            detected_total: screened.detected_total(),
            partial: screened.partial_summary().partial,
            coverage_lower_bound: screened.coverage_lower_bound(),
            audit_failed,
            collapse_total: full.len(),
            collapse_classes: faults.len(),
            screen_lanes: screen_lanes.lanes(),
            screen_threads,
            screen_base_ms,
            screen_wide_ms,
        };
        writeln!(
            out,
            "{:<10} {:>7} {:>9.1} {:>9.0} {:>12}",
            row.name, row.faults, row.screened_ms, row.screened_fps, row.screened_gate_evals
        )?;
        rows.push(row);
    }

    // The benched configurations run without a fault budget, so partial
    // verdicts are the exception, not the rule — but when a future
    // configuration produces them, the lower-bound floor must stay visible.
    let proven: usize = rows.iter().map(|r| r.detected_total).sum();
    let total: usize = rows.iter().map(|r| r.faults).sum();
    let partial: usize = rows.iter().map(|r| r.partial).sum();
    let pct = if total > 0 { 100.0 * proven as f64 / total as f64 } else { 0.0 };
    writeln!(
        out,
        "coverage lower bound: {pct:.2}% ({proven} of {total} proven detected, \
         {partial} partial verdict(s))"
    )?;

    writeln!(
        out,
        "\nscreening kernel ({} lanes x {} thread(s) vs 64 x 1):",
        screen_lanes.lanes(),
        screen_threads
    )?;
    writeln!(
        out,
        "{:<10} {:>9} {:>11} {:>11} {:>8}",
        "circuit", "faults", "base fps", "wide fps", "speedup"
    )?;
    for r in &rows {
        writeln!(
            out,
            "{:<10} {:>9} {:>11.0} {:>11.0} {:>7.2}x",
            r.name,
            r.faults,
            r.kernel_fps(r.screen_base_ms),
            r.kernel_fps(r.screen_wide_ms),
            r.kernel_speedup()
        )?;
    }
    let base_total_ms: f64 = rows.iter().map(|r| r.screen_base_ms).sum();
    let wide_total_ms: f64 = rows.iter().map(|r| r.screen_wide_ms).sum();
    let aggregate = if wide_total_ms > 0.0 { base_total_ms / wide_total_ms } else { f64::INFINITY };
    writeln!(
        out,
        "screening kernel aggregate speedup: {aggregate:.2}x \
         ({base_total_ms:.1} ms base vs {wide_total_ms:.1} ms wide)"
    )?;

    // Collapse statistics: the static class structure of the full list.
    writeln!(out, "\nfault collapsing (one representative per equivalence class):")?;
    writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>10} {:>7}",
        "circuit", "faults", "classes", "collapsed", "ratio"
    )?;
    for r in &rows {
        writeln!(
            out,
            "{:<10} {:>9} {:>9} {:>10} {:>6.1}%",
            r.name,
            r.collapse_total,
            r.collapse_classes,
            r.collapse_total - r.collapse_classes,
            r.collapse_ratio() * 100.0
        )?;
    }

    if let Some(path) = parser.flag("out") {
        std::fs::write(path, render_json(&rows, quick))
            .map_err(|err| CliError::Failed(format!("cannot write `{path}`: {err}")))?;
        writeln!(out, "wrote {path}")?;
    }
    if let Some(path) = parser.flag("check") {
        let baseline = std::fs::read_to_string(path)
            .map_err(|err| CliError::Failed(format!("cannot read `{path}`: {err}")))?;
        check_regression(out, &rows, &baseline)?;
    }
    Ok(())
}

/// Renders the report as JSON (hand-rolled; the workspace has no JSON
/// dependency). Field order matters to [`parse_baseline`]: `name` precedes
/// `faults_per_sec` within each circuit object.
fn render_json(rows: &[BenchRow], quick: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"version\": 4,\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"circuits\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        s.push_str(&format!("      \"gates\": {},\n", r.gates));
        s.push_str(&format!("      \"flip_flops\": {},\n", r.flip_flops));
        s.push_str(&format!("      \"faults\": {},\n", r.faults));
        s.push_str(&format!("      \"seq_len\": {},\n", r.seq_len));
        s.push_str(&format!(
            "      \"screened\": {{\"wall_ms\": {:.3}, \"gate_evals\": {}, \"faults_per_sec\": {:.1}}},\n",
            r.screened_ms, r.screened_gate_evals, r.screened_fps
        ));
        // Kernel keys deliberately avoid the exact `"faults_per_sec"` string
        // so the tolerant baseline scanner keeps pairing each circuit name
        // with its *screened* throughput above.
        s.push_str(&format!(
            "      \"screen_kernel\": {{\"lanes\": {}, \"threads\": {}, \
             \"base_wall_ms\": {:.4}, \"base_fps\": {:.1}, \
             \"wide_wall_ms\": {:.4}, \"wide_fps\": {:.1}, \"speedup\": {:.2}}},\n",
            r.screen_lanes,
            r.screen_threads,
            r.screen_base_ms,
            r.kernel_fps(r.screen_base_ms),
            r.screen_wide_ms,
            r.kernel_fps(r.screen_wide_ms),
            r.kernel_speedup()
        ));
        // Key names avoid the `"faults_per_sec"` literal on purpose (see the
        // kernel-key comment above).
        s.push_str(&format!(
            "      \"collapse\": {{\"total\": {}, \"classes\": {}, \"collapsed\": {}, \
             \"ratio\": {:.4}}},\n",
            r.collapse_total,
            r.collapse_classes,
            r.collapse_total - r.collapse_classes,
            r.collapse_ratio()
        ));
        s.push_str(&format!("      \"detected_total\": {},\n", r.detected_total));
        s.push_str(&format!("      \"partial\": {},\n", r.partial));
        s.push_str(&format!(
            "      \"coverage_lower_bound\": {:.4},\n",
            r.coverage_lower_bound
        ));
        match r.audit_failed {
            Some(n) => s.push_str(&format!("      \"audit_failed\": {n}\n")),
            None => s.push_str("      \"audit_failed\": null\n"),
        }
        s.push_str(if i + 1 == rows.len() { "    }\n" } else { "    },\n" });
    }
    s.push_str("  ],\n");
    let base_total_ms: f64 = rows.iter().map(|r| r.screen_base_ms).sum();
    let wide_total_ms: f64 = rows.iter().map(|r| r.screen_wide_ms).sum();
    let aggregate = if wide_total_ms > 0.0 { base_total_ms / wide_total_ms } else { f64::INFINITY };
    s.push_str(&format!(
        "  \"screen_kernel_aggregate\": {{\"base_wall_ms\": {base_total_ms:.4}, \
         \"wide_wall_ms\": {wide_total_ms:.4}, \"speedup\": {aggregate:.2}}}\n"
    ));
    s.push_str("}\n");
    s
}

/// Extracts `(name, screened faults_per_sec)` pairs from a report produced by
/// [`render_json`]. Tolerant scanner, not a JSON parser: it relies only on
/// `"name"` preceding the screened `"faults_per_sec"` within each object.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut pairs = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"name\": \"") {
        rest = &rest[pos + "\"name\": \"".len()..];
        let Some(end) = rest.find('"') else { break };
        let name = rest[..end].to_owned();
        rest = &rest[end..];
        let Some(pos) = rest.find("\"faults_per_sec\": ") else {
            break;
        };
        rest = &rest[pos + "\"faults_per_sec\": ".len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .unwrap_or(rest.len());
        if let Ok(fps) = rest[..end].parse::<f64>() {
            pairs.push((name, fps));
        }
        rest = &rest[end..];
    }
    pairs
}

/// Fails when this run's screened faults/sec regressed by more than 2x
/// against the committed baseline for any circuit present in both.
fn check_regression(
    out: &mut dyn Write,
    rows: &[BenchRow],
    baseline: &str,
) -> Result<(), CliError> {
    let baseline = parse_baseline(baseline);
    if baseline.is_empty() {
        return Err(CliError::Failed(
            "baseline report contains no circuits".to_owned(),
        ));
    }
    let mut checked = 0usize;
    for row in rows {
        let Some((_, base_fps)) = baseline.iter().find(|(name, _)| *name == row.name) else {
            continue;
        };
        checked += 1;
        let ratio = base_fps / row.screened_fps.max(f64::MIN_POSITIVE);
        if ratio > 2.0 {
            return Err(CliError::Failed(format!(
                "{}: screened faults/sec regressed {ratio:.2}x vs baseline \
                 ({:.0} now vs {base_fps:.0} committed)",
                row.name, row.screened_fps
            )));
        }
    }
    if checked == 0 {
        return Err(CliError::Failed(
            "no benched circuit appears in the baseline report".to_owned(),
        ));
    }
    writeln!(out, "regression check passed ({checked} circuit(s) vs baseline)")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_smallest_circuit_and_writes_json() {
        let dir = std::env::temp_dir().join("moa-cli-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("bench.json").to_string_lossy().into_owned();
        let mut out = Vec::new();
        run(
            &["s208".into(), "--out".into(), json.clone(), "--no-audit".into()],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("s208"), "{text}");
        assert!(text.contains("gate evals"), "{text}");
        assert!(!text.contains("legacy"), "no live legacy run: {text}");

        assert!(text.contains("coverage lower bound: "), "{text}");

        let report = std::fs::read_to_string(&json).unwrap();
        assert!(report.contains("\"version\": 4"), "{report}");
        assert!(!report.contains("\"legacy\""), "{report}");
        assert!(report.contains("\"name\": \"s208\""), "{report}");
        assert!(report.contains("\"faults_per_sec\""), "{report}");
        assert!(report.contains("\"partial\": 0"), "{report}");
        assert!(report.contains("\"coverage_lower_bound\": "), "{report}");
        // Collapse stats: the static classes of the full list.
        assert!(text.contains("fault collapsing"), "{text}");
        assert!(
            report.contains(
                "\"collapse\": {\"total\": 584, \"classes\": 357, \"collapsed\": 227, \
                 \"ratio\": 0.3887}"
            ),
            "{report}"
        );
        assert!(report.contains("\"audit_failed\": null"), "{report}");
        let pairs = parse_baseline(&report);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, "s208");
        assert!(pairs[0].1 > 0.0);
    }

    #[test]
    fn audited_bench_audits_the_full_list_clean() {
        let dir = std::env::temp_dir().join("moa-cli-bench-audit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("audit.json").to_string_lossy().into_owned();
        let mut out = Vec::new();
        run(&["s208".into(), "--out".into(), json.clone()], &mut out).unwrap();
        let report = std::fs::read_to_string(&json).unwrap();
        assert!(report.contains("\"audit_failed\": 0"), "{report}");
        assert!(!report.contains("inherited"), "{report}");
        // The scanner must still pair the circuit with its screened fps.
        let pairs = parse_baseline(&report);
        assert_eq!(pairs.len(), 1, "{report}");
    }

    #[test]
    fn check_passes_against_own_report_and_fails_on_inflated_baseline() {
        let dir = std::env::temp_dir().join("moa-cli-bench-check-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("own.json").to_string_lossy().into_owned();
        let mut out = Vec::new();
        run(
            &["s208".into(), "--out".into(), json.clone(), "--no-audit".into()],
            &mut out,
        )
        .unwrap();

        // The check reads the report this run wrote. Its rate is lowered to
        // 0.1 faults/s first: two wall-clock rates taken at different moments
        // of a loaded, parallel test run can differ by more than 2x.
        let own = std::fs::read_to_string(&json).unwrap();
        let [(_, fps)] = parse_baseline(&own)[..] else {
            panic!("one circuit in {own}")
        };
        let floor = dir.join("floor.json").to_string_lossy().into_owned();
        let lowered = own.replace(
            &format!("\"faults_per_sec\": {fps:.1}"),
            "\"faults_per_sec\": 0.1",
        );
        assert_ne!(lowered, own);
        std::fs::write(&floor, lowered).unwrap();
        let mut out = Vec::new();
        run(&["s208".into(), "--check".into(), floor, "--no-audit".into()], &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("regression check passed"));

        // An absurdly fast committed baseline must trip the check.
        let inflated = dir.join("inflated.json").to_string_lossy().into_owned();
        std::fs::write(
            &inflated,
            "{\"circuits\": [{\"name\": \"s208\", \
             \"screened\": {\"wall_ms\": 0.001, \"gate_evals\": 1, \
             \"faults_per_sec\": 99999999999.0}}]}",
        )
        .unwrap();
        let mut out = Vec::new();
        let err = run(
            &["s208".into(), "--check".into(), inflated, "--no-audit".into()],
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("regressed"), "{err}");
    }

    #[test]
    fn wide_kernel_bench_reports_and_checks_against_narrow_baseline() {
        let dir = std::env::temp_dir().join("moa-cli-bench-wide-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("wide.json").to_string_lossy().into_owned();
        let mut out = Vec::new();
        run(
            &[
                "s208".into(),
                "--screen-lanes".into(),
                "256".into(),
                "--screen-threads".into(),
                "2".into(),
                "--out".into(),
                json.clone(),
                "--no-audit".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("screening kernel (256 lanes x 2 thread(s) vs 64 x 1)"), "{text}");
        assert!(text.contains("screening kernel aggregate speedup"), "{text}");
        let report = std::fs::read_to_string(&json).unwrap();
        assert!(report.contains("\"screen_kernel\": {\"lanes\": 256, \"threads\": 2"), "{report}");
        assert!(report.contains("\"screen_kernel_aggregate\""), "{report}");
        // The kernel keys must not confuse the screened-fps baseline scanner.
        let pairs = parse_baseline(&report);
        assert_eq!(pairs.len(), 1, "{report}");
        assert_eq!(pairs[0].0, "s208");
    }

    #[test]
    fn bad_screen_lanes_is_usage_error() {
        let mut out = Vec::new();
        let err = run(&["s208".into(), "--screen-lanes".into(), "7".into()], &mut out)
            .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("64, 128 or 256"), "{err}");
    }

    #[test]
    fn unknown_circuit_is_usage_error() {
        let mut out = Vec::new();
        assert!(run(&["s9999".into()], &mut out).is_err());
    }

    #[test]
    fn baseline_parser_handles_multiple_circuits() {
        let text = "\
{\n  \"circuits\": [\n    {\"name\": \"a\", \"screened\": {\"faults_per_sec\": 10.5}},\n    \
{\"name\": \"b\", \"screened\": {\"faults_per_sec\": 2}}\n  ]\n}\n";
        let pairs = parse_baseline(text);
        assert_eq!(pairs, vec![("a".to_owned(), 10.5), ("b".to_owned(), 2.0)]);
    }
}
