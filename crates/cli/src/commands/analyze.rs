//! `moa analyze` — static netlist analysis: structural lints, learned
//! implications and untestability screening, without running any simulation.

use std::fmt::Write as _;
use std::io::Write;

use moa_analyze::{
    analyze_circuit, AnalysisReport, ImplicationDb, Severity, Testability, UntestableScreen,
};
use moa_circuits::suite::suite;
use moa_netlist::{collapse_faults, dominance_relations, full_fault_list, Circuit};

use crate::{load_circuit, ArgParser, CliError};

/// Version of the `--json` report schema. Bump whenever a key is added,
/// removed or changes meaning; consumers should check it before parsing.
/// Documented in the README's "analyze JSON schema" section.
///
/// - 1: diagnostics, implications, untestable, faults
/// - 2: adds `schema_version` itself, `collapse` (equivalence classes and
///   dominance pairs) and `scoap` (testability cost summary)
const SCHEMA_VERSION: u32 = 2;

const USAGE: &str = "usage: moa analyze <bench-file>... [--json]
       moa analyze --suite [NAME...] [--json]";

pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(args, USAGE, &[], &["json", "suite"])?;
    let json = parser.switch("json");
    let circuits: Vec<Circuit> = if parser.switch("suite") {
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
        entries.iter().map(moa_circuits::suite::SuiteEntry::build).collect()
    } else {
        if parser.positional().is_empty() {
            return Err(CliError::Usage(format!("missing bench file\n\n{USAGE}")));
        }
        parser
            .positional()
            .iter()
            .map(|p| load_circuit(p))
            .collect::<Result<_, _>>()?
    };

    let analyses: Vec<Analysis> = circuits.iter().map(Analysis::of).collect();
    if json {
        writeln!(out, "{}", render_json(&analyses))?;
    } else {
        for a in &analyses {
            a.render_human(out)?;
        }
    }

    let errors: usize = analyses.iter().map(|a| a.report.count(Severity::Error)).sum();
    if errors > 0 {
        return Err(CliError::Failed(format!(
            "{errors} error-severity diagnostic(s)"
        )));
    }
    Ok(())
}

/// Everything `moa analyze` reports about one circuit.
struct Analysis<'a> {
    circuit: &'a Circuit,
    report: AnalysisReport,
    implications: ImplicationDb,
    total_faults: usize,
    unobservable: usize,
    constant: usize,
    classes: usize,
    dominance_pairs: usize,
    scoap_mean: f64,
    scoap_max: u64,
    scoap_unreachable: usize,
}

impl<'a> Analysis<'a> {
    fn of(circuit: &'a Circuit) -> Self {
        let report = analyze_circuit(circuit);
        let implications = ImplicationDb::build(circuit);
        let screen = UntestableScreen::new(circuit, &implications);
        let faults = full_fault_list(circuit);
        let mut unobservable = 0usize;
        let mut constant = 0usize;
        for fault in &faults {
            match screen.check(circuit, fault) {
                Some(moa_analyze::UntestableProof::Unobservable) => unobservable += 1,
                Some(moa_analyze::UntestableProof::ConstantLine { .. }) => constant += 1,
                None => {}
            }
        }
        // SCOAP testability over the full fault list. Unreachable costs (dead
        // or constant sites) are counted separately so they don't drown the
        // mean.
        let testability = Testability::build(circuit);
        let mut scoap_unreachable = 0usize;
        let mut scoap_max = 0u64;
        let mut scoap_sum = 0u128;
        let mut scoap_reachable = 0usize;
        for fault in &faults {
            let cost = testability.fault_cost(circuit, fault);
            if cost >= Testability::UNREACHABLE {
                scoap_unreachable += 1;
            } else {
                scoap_max = scoap_max.max(cost);
                scoap_sum += u128::from(cost);
                scoap_reachable += 1;
            }
        }
        let scoap_mean = if scoap_reachable > 0 {
            scoap_sum as f64 / scoap_reachable as f64
        } else {
            0.0
        };
        Analysis {
            circuit,
            report,
            implications,
            total_faults: faults.len(),
            unobservable,
            constant,
            classes: collapse_faults(circuit, &faults).len(),
            dominance_pairs: dominance_relations(circuit).len(),
            scoap_mean,
            scoap_max,
            scoap_unreachable,
        }
    }

    fn untestable(&self) -> usize {
        self.unobservable + self.constant
    }

    fn collapsed(&self) -> usize {
        self.total_faults - self.classes
    }

    fn collapse_ratio(&self) -> f64 {
        if self.total_faults > 0 {
            self.collapsed() as f64 / self.total_faults as f64
        } else {
            0.0
        }
    }

    fn render_human(&self, out: &mut dyn Write) -> Result<(), CliError> {
        writeln!(out, "== {} ==", self.circuit.name())?;
        for d in &self.report.diagnostics {
            writeln!(out, "{}", d.render())?;
        }
        writeln!(
            out,
            "diagnostics : {} error(s), {} warning(s), {} note(s)",
            self.report.count(Severity::Error),
            self.report.count(Severity::Warning),
            self.report.count(Severity::Info),
        )?;
        writeln!(
            out,
            "implications: {} learned edges, {} constant net(s)",
            self.implications.num_edges(),
            self.implications.num_constants(),
        )?;
        writeln!(
            out,
            "untestable  : {} of {} faults ({} unobservable, {} constant-line)",
            self.untestable(),
            self.total_faults,
            self.unobservable,
            self.constant,
        )?;
        writeln!(
            out,
            "collapse    : {} classes over {} faults ({} collapsed, {:.1}%), \
             {} dominance pair(s)",
            self.classes,
            self.total_faults,
            self.collapsed(),
            self.collapse_ratio() * 100.0,
            self.dominance_pairs,
        )?;
        writeln!(
            out,
            "testability : SCOAP fault cost mean {:.1}, max {}, {} unreachable",
            self.scoap_mean, self.scoap_max, self.scoap_unreachable,
        )?;
        Ok(())
    }
}

/// Renders the analyses as a JSON array (hand-rolled — the workspace takes no
/// serialization dependency).
fn render_json(analyses: &[Analysis<'_>]) -> String {
    let mut s = String::from("[");
    for (i, a) in analyses.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"schema_version\":{SCHEMA_VERSION},\"circuit\":{}",
            json_string(a.circuit.name())
        );
        s.push_str(",\"diagnostics\":[");
        for (j, d) in a.report.diagnostics.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"pass\":{},\"severity\":{},\"message\":{},\"nets\":[",
                json_string(d.pass),
                json_string(&d.severity.to_string()),
                json_string(&d.message)
            );
            for (k, name) in d.net_names(a.circuit).iter().enumerate() {
                if k > 0 {
                    s.push(',');
                }
                s.push_str(&json_string(name));
            }
            s.push_str("]}");
        }
        let _ = write!(
            s,
            "],\"errors\":{},\"warnings\":{},\"infos\":{}",
            a.report.count(Severity::Error),
            a.report.count(Severity::Warning),
            a.report.count(Severity::Info)
        );
        let _ = write!(
            s,
            ",\"implications\":{{\"edges\":{},\"constants\":{}}}",
            a.implications.num_edges(),
            a.implications.num_constants()
        );
        let _ = write!(
            s,
            ",\"untestable\":{{\"total\":{},\"unobservable\":{},\"constant\":{}}}",
            a.untestable(),
            a.unobservable,
            a.constant,
        );
        let _ = write!(
            s,
            ",\"collapse\":{{\"classes\":{},\"collapsed\":{},\"ratio\":{:.4},\
             \"dominance_pairs\":{}}}",
            a.classes,
            a.collapsed(),
            a.collapse_ratio(),
            a.dominance_pairs
        );
        let _ = write!(
            s,
            ",\"scoap\":{{\"mean_cost\":{:.2},\"max_cost\":{},\"unreachable\":{}}},\"faults\":{}}}",
            a.scoap_mean, a.scoap_max, a.scoap_unreachable, a.total_faults
        );
    }
    s.push(']');
    s
}

/// Escapes a string as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut s = String::with_capacity(text.len() + 2);
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{publish, s27_path};

    #[test]
    fn clean_circuit_reports_no_diagnostics() {
        let path = s27_path();
        let mut out = Vec::new();
        run(&[path], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("== s27 =="), "{text}");
        assert!(text.contains("0 error(s)"), "{text}");
        assert!(text.contains("implications:"), "{text}");
    }

    #[test]
    fn constant_net_is_flagged_with_location() {
        // x = AND(a, NOT(a)) is statically 0; z = OR(b, x) keeps x observable
        // so the only finding is the constant.
        let path = publish(
            "const.bench",
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nna = NOT(a)\nx = AND(a, na)\nz = OR(b, x)\n",
        );
        let mut out = Vec::new();
        run(&[path], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("warning[constant-net]"), "{text}");
        assert!(text.contains("`x`"), "{text}");
    }

    #[test]
    fn json_output_is_structured() {
        let path = publish(
            "dangle.bench",
            "INPUT(a)\nOUTPUT(z)\nw = NOT(a)\nz = BUFF(a)\n",
        );
        let mut out = Vec::new();
        run(&[path, "--json".into()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with('[') && text.trim_end().ends_with(']'), "{text}");
        assert!(text.contains("\"pass\":\"dangling-net\""), "{text}");
        assert!(text.contains("\"severity\":\"warning\""), "{text}");
        assert!(text.contains("\"nets\":[\"w\"]"), "{text}");
        assert!(text.contains("\"untestable\":"), "{text}");
    }

    #[test]
    fn suite_mode_analyzes_stand_ins() {
        let mut out = Vec::new();
        run(&["--suite".into(), "s208".into(), "--json".into()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"circuit\":\"s208\""), "{text}");
        // The s208 stand-in is known to carry statically unobservable logic.
        assert!(text.contains("\"unobservable\":"), "{text}");
    }

    #[test]
    fn json_reports_schema_version_collapse_and_scoap() {
        let mut out = Vec::new();
        run(&["--suite".into(), "s208".into(), "--json".into()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"schema_version\":2"), "{text}");
        assert!(text.contains("\"collapse\":{\"classes\":357,\"collapsed\":227"), "{text}");
        assert!(text.contains("\"dominance_pairs\":"), "{text}");
        assert!(text.contains("\"scoap\":{\"mean_cost\":"), "{text}");
        assert!(text.contains("\"unreachable\":"), "{text}");
    }

    #[test]
    fn human_report_prints_collapse_and_testability_lines() {
        let mut out = Vec::new();
        run(&["--suite".into(), "s208".into()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("collapse    : 357 classes over 584 faults"), "{text}");
        assert!(text.contains("testability : SCOAP fault cost mean"), "{text}");
    }

    #[test]
    fn json_output_is_byte_identical_across_runs() {
        // The determinism contract: same inputs, byte-identical report —
        // diagnostics are canonically ordered, nothing depends on hash-map
        // iteration or scheduling.
        let args: Vec<String> = vec![
            "--suite".into(),
            "s208".into(),
            "s298".into(),
            "--json".into(),
        ];
        let mut first = Vec::new();
        run(&args, &mut first).unwrap();
        let mut second = Vec::new();
        run(&args, &mut second).unwrap();
        assert!(!first.is_empty());
        assert_eq!(first, second, "analyze --json must be byte-identical across runs");
    }

    #[test]
    fn unknown_suite_name_is_usage_error() {
        let mut out = Vec::new();
        let err = run(&["--suite".into(), "nope".into()], &mut out).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
