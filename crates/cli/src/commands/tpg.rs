//! `moa tpg <bench>` — deterministic coverage-directed test generation.

use std::io::Write;

use moa_logic::format_word;
use moa_netlist::{collapse_faults, full_fault_list};
use moa_tpg::compact::{compact_sequence, CompactOptions};
use moa_tpg::greedy::{generate_sequence, GreedyOptions};

use crate::{load_circuit, ArgParser, CliError};

const USAGE: &str =
    "usage: moa tpg <bench-file> [--max-length L] [--seed S] [--compact] [--print] [--save FILE]";

pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(args, USAGE, &["max-length", "seed", "save"], &["compact", "print"])?;
    let circuit = load_circuit(parser.required(0, "bench file")?)?;
    let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
        .representatives()
        .to_vec();
    let options = GreedyOptions {
        max_length: parser.num("max-length", 128)?,
        seed: parser.num("seed", 0xC0FFEE)?,
        ..Default::default()
    };
    let result = generate_sequence(&circuit, &faults, &options);
    let detected = result.detected.iter().filter(|&&d| d).count();
    writeln!(
        out,
        "generated {} patterns; conventional coverage {detected}/{} ({:.1}%)",
        result.sequence.len(),
        faults.len(),
        100.0 * result.coverage()
    )?;

    let sequence = if parser.switch("compact") {
        let (compacted, flags) = compact_sequence(
            &circuit,
            &result.sequence,
            &faults,
            &CompactOptions::default(),
        );
        writeln!(
            out,
            "compacted to {} patterns ({} faults still detected)",
            compacted.len(),
            flags.iter().filter(|&&d| d).count()
        )?;
        compacted
    } else {
        result.sequence
    };

    if let Some(path) = parser.flag("save") {
        std::fs::write(path, sequence.to_text())
            .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
        writeln!(out, "saved {} patterns to {path}", sequence.len())?;
    }
    if parser.switch("print") {
        for (u, p) in sequence.iter().enumerate() {
            writeln!(out, "{u:>4}: {}", format_word(p))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_path() -> String {
        let text = moa_netlist::write_bench(&moa_circuits::teaching::counter(3));
        crate::fixtures::publish("counter.bench", &text)
    }

    #[test]
    fn generates_and_compacts() {
        let mut out = Vec::new();
        run(
            &[
                counter_path(),
                "--max-length".into(),
                "48".into(),
                "--compact".into(),
                "--print".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("conventional coverage"));
        assert!(text.contains("compacted to"));
        assert!(text.contains("   0: "));
    }
}
