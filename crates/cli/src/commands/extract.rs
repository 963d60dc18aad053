//! `moa extract <bench> --nets a,b -o cone.bench` — cut the sequential
//! fan-in cone of chosen nets out of a design as a standalone circuit.

use std::io::Write;

use moa_netlist::{extract_fanin_cone, write_bench, NetId};

use crate::{load_circuit, ArgParser, CliError};

const USAGE: &str = "usage: moa extract <bench-file> --nets NAME[,NAME...] [--name N] [-o FILE]";

pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(args, USAGE, &["nets", "name", "o"], &[])?;
    let circuit = load_circuit(parser.required(0, "bench file")?)?;
    let nets_arg = parser
        .flag("nets")
        .ok_or_else(|| CliError::Usage(format!("--nets is required\n\n{USAGE}")))?;
    let roots: Vec<NetId> = nets_arg
        .split(',')
        .map(|name| {
            circuit
                .find_net(name.trim())
                .ok_or_else(|| CliError::Failed(format!("no net named `{}`", name.trim())))
        })
        .collect::<Result<_, _>>()?;

    let name = parser.flag("name").unwrap_or("cone");
    let cone = extract_fanin_cone(&circuit, &roots, name)
        .map_err(|e| CliError::Failed(format!("extraction failed: {e}")))?;
    writeln!(
        out,
        "extracted `{name}`: {} inputs, {} DFFs, {} gates (from {} / {} / {})",
        cone.num_inputs(),
        cone.num_flip_flops(),
        cone.num_gates(),
        circuit.num_inputs(),
        circuit.num_flip_flops(),
        circuit.num_gates(),
    )?;
    let text = write_bench(&cone);
    match parser.flag("o") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))?;
            writeln!(out, "wrote {path}")?;
        }
        None => write!(out, "{text}")?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::s27_path;

    #[test]
    fn extracts_a_cone_to_stdout() {
        let mut out = Vec::new();
        run(&[s27_path(), "--nets".into(), "G13".into()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("extracted `cone`"));
        assert!(text.contains("OUTPUT(G13)"));
        // The extract parses back.
        let body = &text[text.find("# cone").unwrap_or(0)..];
        assert!(moa_netlist::parse_bench(body).is_ok());
    }

    #[test]
    fn unknown_net_fails() {
        let mut out = Vec::new();
        assert!(run(&[s27_path(), "--nets".into(), "G99".into()], &mut out).is_err());
    }
}
