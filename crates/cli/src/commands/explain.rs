//! `moa explain <bench> --fault NET/saX` — per-fault pipeline trace.

use std::io::Write;

use moa_core::explain_fault;
use moa_sim::simulate;

use crate::commands::{moa_options_from_args, sequence_from_args, sim::parse_fault};
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
    // The campaign's own option builder: `--depth 0` and `--n-states 0`
    // are refused with the same usage errors as on `campaign`.
    let options = moa_options_from_args(&parser)?;

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
    fn zero_depth_and_n_states_are_usage_errors() {
        for (flag, why) in [
            ("--depth", "--depth must be at least 1"),
            ("--n-states", "--n-states must be at least 1"),
        ] {
            let mut out = Vec::new();
            let err = run(
                &[
                    toggle_path(),
                    "--fault".into(),
                    "r/sa1".into(),
                    "--words".into(),
                    "0,0,0".into(),
                    flag.into(),
                    "0".into(),
                ],
                &mut out,
            )
            .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{flag} 0: {err}");
            assert_eq!(err.exit_code(), 2, "{flag} 0");
            assert!(err.to_string().contains(why), "{flag} 0: {err}");
            assert!(out.is_empty(), "{flag} 0 must not run: {out:?}");
        }
    }

    #[test]
    fn fault_flag_is_required() {
        let mut out = Vec::new();
        let err = run(&[toggle_path()], &mut out).unwrap_err();
        assert!(err.to_string().contains("--fault"));
    }
}
