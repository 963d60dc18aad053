//! `moa sim <bench> (--words p,p,… | --random L [--seed S]) [--fault DESC]` —
//! three-valued simulation trace.

use std::io::Write;

use moa_logic::format_word;
use moa_netlist::{Circuit, Fault, NetId};
use moa_sim::simulate;

use crate::commands::sequence_from_args;
use crate::{load_circuit, ArgParser, CliError};

const USAGE: &str = "usage: moa sim <bench-file> (--words p,p,... | --random L [--seed S]) \
[--fault NET/sa0|NET/sa1] [--vcd FILE]";

pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(args, USAGE, &["words", "random", "seed", "fault", "seq-file", "vcd"], &[])?;
    let circuit = load_circuit(parser.required(0, "bench file")?)?;
    let seq = sequence_from_args(&parser, &circuit, 8)?;
    let fault = parser
        .flag("fault")
        .map(|spec| parse_fault(&circuit, spec))
        .transpose()?;

    if let Some(path) = parser.flag("vcd") {
        let vcd = moa_sim::vcd_dump(&circuit, &seq, fault.as_ref());
        std::fs::write(path, vcd)
            .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
        writeln!(out, "wrote VCD waveform to {path}")?;
    }
    let trace = simulate(&circuit, &seq, fault.as_ref());
    match &fault {
        Some(f) => writeln!(out, "simulating {} with {}", circuit.name(), f.describe(&circuit))?,
        None => writeln!(out, "simulating fault-free {}", circuit.name())?,
    }
    writeln!(out, "time | inputs | state -> next | outputs")?;
    for u in 0..seq.len() {
        writeln!(
            out,
            "{u:>4} | {} | {} -> {} | {}",
            format_word(seq.pattern(u)),
            format_word(&trace.states[u]),
            format_word(&trace.states[u + 1]),
            format_word(&trace.outputs[u]),
        )?;
    }
    Ok(())
}

/// Parses `NETNAME/sa0` or `NETNAME/sa1` into a stem fault.
pub(crate) fn parse_fault(circuit: &Circuit, spec: &str) -> Result<Fault, CliError> {
    let (name, sa) = spec
        .rsplit_once('/')
        .ok_or_else(|| CliError::Usage(format!("fault `{spec}` must look like NET/sa0")))?;
    let stuck = match sa {
        "sa0" => false,
        "sa1" => true,
        other => {
            return Err(CliError::Usage(format!(
                "fault polarity `{other}` must be sa0 or sa1"
            )))
        }
    };
    let net: NetId = circuit
        .find_net(name)
        .ok_or_else(|| CliError::Failed(format!("no net named `{name}`")))?;
    Ok(Fault::stem(net, stuck))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::s27_path;

    #[test]
    fn simulates_explicit_words() {
        let mut out = Vec::new();
        run(
            &[s27_path(), "--words".into(), "1011,0000".into()],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("fault-free s27"));
        assert!(text.contains("   0 | 1011 | xxx"));
    }

    #[test]
    fn simulates_with_fault() {
        let mut out = Vec::new();
        run(
            &[
                s27_path(),
                "--random".into(),
                "4".into(),
                "--fault".into(),
                "G17/sa1".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("G17 stuck-at-1"));
    }

    #[test]
    fn rejects_wrong_width_words() {
        let mut out = Vec::new();
        let err = run(&[s27_path(), "--words".into(), "10".into()], &mut out).unwrap_err();
        assert!(err.to_string().contains("inputs"));
    }

    #[test]
    fn rejects_bad_fault_specs() {
        let mut out = Vec::new();
        assert!(run(
            &[s27_path(), "--random".into(), "2".into(), "--fault".into(), "G17".into()],
            &mut out
        )
        .is_err());
        assert!(run(
            &[s27_path(), "--random".into(), "2".into(), "--fault".into(), "NOPE/sa1".into()],
            &mut out
        )
        .is_err());
    }

    #[test]
    fn dumps_vcd() {
        let dir = std::env::temp_dir().join("moa-cli-sim-vcd");
        std::fs::create_dir_all(&dir).unwrap();
        let vcd = dir.join("t.vcd").to_string_lossy().into_owned();
        let mut out = Vec::new();
        run(
            &[
                s27_path(),
                "--words".into(),
                "1011,0000".into(),
                "--vcd".into(),
                vcd.clone(),
            ],
            &mut out,
        )
        .unwrap();
        let text = std::fs::read_to_string(&vcd).unwrap();
        assert!(text.contains("$enddefinitions $end"));
        assert!(text.contains("G17"));
    }
}
