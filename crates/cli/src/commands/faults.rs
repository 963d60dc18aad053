//! `moa faults <bench> [--collapse] [--list]` — stuck-at fault enumeration.

use std::io::Write;

use moa_netlist::{collapse_faults, full_fault_list};

use crate::{load_circuit, ArgParser, CliError};

const USAGE: &str = "usage: moa faults <bench-file> [--collapse] [--list]";

pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(args, USAGE, &[], &["collapse", "list"])?;
    let circuit = load_circuit(parser.required(0, "bench file")?)?;
    let full = full_fault_list(&circuit);
    writeln!(out, "full fault list: {} faults", full.len())?;
    let selected = if parser.switch("collapse") {
        let collapsed = collapse_faults(&circuit, &full);
        writeln!(
            out,
            "collapsed      : {} equivalence classes ({:.1}% of full)",
            collapsed.len(),
            100.0 * collapsed.len() as f64 / full.len().max(1) as f64
        )?;
        collapsed.representatives().to_vec()
    } else {
        full
    };
    if parser.switch("list") {
        for fault in &selected {
            writeln!(out, "  {}", fault.describe(&circuit))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::s27_path;

    #[test]
    fn counts_and_collapses() {
        let mut out = Vec::new();
        run(&[s27_path(), "--collapse".into()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("full fault list"));
        assert!(text.contains("equivalence classes"));
    }

    #[test]
    fn lists_fault_descriptions() {
        let mut out = Vec::new();
        run(&[s27_path(), "--list".into()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("stuck-at-1"));
        assert!(text.contains("G17"));
    }
}
