//! `moa exact <bench>` — exhaustive restricted-MOA ground truth, compared
//! against the proposed procedure (small circuits only).

use std::io::Write;

use moa_core::{exact_moa_check, simulate_fault, ExactOutcome, MoaOptions};
use moa_netlist::{collapse_faults, full_fault_list};
use moa_sim::simulate;

use crate::commands::sequence_from_args;
use crate::{load_circuit, ArgParser, CliError};

const USAGE: &str = "usage: moa exact <bench-file> [--words p,... | --random L [--seed S]] \
[--max-ffs K]";

pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(args, USAGE, &["words", "random", "seed", "max-ffs", "seq-file"], &[])?;
    let circuit = load_circuit(parser.required(0, "bench file")?)?;
    let max_ffs = parser.num("max-ffs", 16usize)?;
    if circuit.num_flip_flops() > max_ffs {
        return Err(CliError::Failed(format!(
            "{} flip-flops exceed the enumeration bound of {max_ffs} (raise --max-ffs up to 27)",
            circuit.num_flip_flops()
        )));
    }
    let seq = sequence_from_args(&parser, &circuit, 16)?;
    let good = simulate(&circuit, &seq, None);
    let faults = collapse_faults(&circuit, &full_fault_list(&circuit))
        .representatives()
        .to_vec();

    let mut exact_detected = 0;
    let mut procedure_detected = 0;
    let mut gap = 0;
    for fault in &faults {
        let exact = exact_moa_check(&circuit, &seq, &good, fault, max_ffs)
            .ok_or_else(|| CliError::Failed("enumeration infeasible".to_owned()))?;
        let result = simulate_fault(&circuit, &seq, &good, fault, &MoaOptions::default());
        let exact_hit = exact == ExactOutcome::Detected;
        let proc_hit = result.status.is_detected();
        if exact_hit {
            exact_detected += 1;
        }
        if proc_hit {
            procedure_detected += 1;
        }
        if proc_hit && !exact_hit {
            writeln!(
                out,
                "UNSOUND: {} claimed detected but a state survives",
                fault.describe(&circuit)
            )?;
        }
        if exact_hit && !proc_hit {
            gap += 1;
        }
    }
    writeln!(out, "faults               : {}", faults.len())?;
    writeln!(out, "exact MOA detected   : {exact_detected}")?;
    writeln!(out, "procedure detected   : {procedure_detected}")?;
    writeln!(
        out,
        "left on the table    : {gap} (detected exactly, missed by the heuristic procedure)"
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::toggle_path;

    #[test]
    fn compares_procedure_to_ground_truth() {
        let mut out = Vec::new();
        run(&[toggle_path(), "--words".into(), "0,0,0".into()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("exact MOA detected"));
        assert!(!text.contains("UNSOUND"));
    }

    #[test]
    fn refuses_oversized_circuits() {
        let mut out = Vec::new();
        let err = run(
            &[toggle_path(), "--max-ffs".into(), "0".into()],
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("enumeration bound"));
    }
}
