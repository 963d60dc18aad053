//! `moa explain <bench> --fault NET/saX` — per-fault pipeline trace.

use std::io::Write;

use moa_core::{explain_fault, MoaOptions};
use moa_sim::simulate;

use crate::commands::{sequence_from_args, sim::parse_fault};
use crate::{load_circuit, ArgParser, CliError};

const USAGE: &str = "usage: moa explain <bench-file> --fault NET/sa0|NET/sa1 \
[--words p,... | --seq-file F | --random L [--seed S]] [--depth K] [--n-states N]";

pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(
        args,
        USAGE,
        &["fault", "words", "seq-file", "random", "seed", "depth", "n-states"],
        &[],
    )?;
    let circuit = load_circuit(parser.required(0, "bench file")?)?;
    let spec = parser
        .flag("fault")
        .ok_or_else(|| CliError::Usage(format!("--fault is required\n\n{USAGE}")))?;
    let fault = parse_fault(&circuit, spec)?;
    let seq = sequence_from_args(&parser, &circuit, 16)?;
    let options = MoaOptions::default()
        .with_backward_time_units(parser.num("depth", 1)?)
        .with_n_states(parser.num("n-states", 64)?);

    let good = simulate(&circuit, &seq, None);
    let explanation = explain_fault(&circuit, &seq, &good, &fault, &options);
    write!(out, "{explanation}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::toggle_path;

    #[test]
    fn explains_the_reset_fault() {
        let mut out = Vec::new();
        run(
            &[
                toggle_path(),
                "--fault".into(),
                "r/sa1".into(),
                "--words".into(),
                "0,0,0".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("verdict: DetectedByExpansion"), "{text}");
        assert!(text.contains("backward implications:"));
    }

    #[test]
    fn fault_flag_is_required() {
        let mut out = Vec::new();
        let err = run(&[toggle_path()], &mut out).unwrap_err();
        assert!(err.to_string().contains("--fault"));
    }
}
