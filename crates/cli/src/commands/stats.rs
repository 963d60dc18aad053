//! `moa stats <bench>` — circuit statistics.

use std::io::Write;

use moa_netlist::CircuitStats;

use crate::{load_circuit, ArgParser, CliError};

const USAGE: &str = "usage: moa stats <bench-file>";

pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(args, USAGE, &[], &[])?;
    let circuit = load_circuit(parser.required(0, "bench file")?)?;
    let stats = CircuitStats::of(&circuit);
    writeln!(out, "circuit : {}", circuit.name())?;
    writeln!(out, "inputs  : {}", stats.inputs)?;
    writeln!(out, "outputs : {}", stats.outputs)?;
    writeln!(out, "DFFs    : {}", stats.flip_flops)?;
    writeln!(out, "gates   : {}", stats.gates)?;
    writeln!(out, "nets    : {}", stats.nets)?;
    writeln!(out, "depth   : {}", stats.depth)?;
    writeln!(out, "fan-out : max {}", stats.max_fanout)?;
    for (kind, count) in &stats.kind_histogram {
        writeln!(out, "  {kind:<5} x {count}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::s27_path;

    #[test]
    fn prints_s27_stats() {
        let mut out = Vec::new();
        run(&[s27_path()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("circuit : s27"));
        assert!(text.contains("DFFs    : 3"));
        assert!(text.contains("gates   : 10"));
    }

    #[test]
    fn missing_file_fails() {
        let mut out = Vec::new();
        let err = run(&["/nonexistent.bench".to_owned()], &mut out).unwrap_err();
        assert!(matches!(err, CliError::Failed(_)));
    }
}
