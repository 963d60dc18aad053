//! The `moa` command-line fault simulator.
//!
//! Wraps the workspace into a tool a test engineer can point at an ISCAS-89
//! `.bench` file:
//!
//! ```text
//! moa stats s27.bench
//! moa faults s27.bench --collapse
//! moa sim s27.bench --random 16 --seed 7
//! moa campaign s27.bench --random 64 --both
//! moa explain s27.bench --fault G10/sa1 --random 32
//! moa tpg s27.bench --max-length 64 --compact
//! moa gen --inputs 6 --outputs 3 --ffs 5 --gates 60 --seed 1 -o out.bench
//! moa suite s208 s298
//! ```
//!
//! All command logic lives in this library (the binary is a thin wrapper), so
//! the integration tests drive the real command paths in-process.

mod args;
pub mod commands;
mod jsonx;
mod signals;

use std::fmt;
use std::io::Write;

pub use args::ArgParser;

/// A CLI failure: bad usage or a failing operation. The process exit code is
/// 2 for usage errors and 1 for operational errors.
#[derive(Debug)]
pub enum CliError {
    /// Wrong flags/arguments; the message includes usage help.
    Usage(String),
    /// The operation itself failed (I/O, parse error, …).
    Failed(String),
}

impl CliError {
    /// The conventional process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failed(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Failed(m) => write!(f, "error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Failed(e.to_string())
    }
}

impl From<moa_netlist::NetlistError> for CliError {
    fn from(e: moa_netlist::NetlistError) -> Self {
        CliError::Failed(e.to_string())
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
moa — fault simulation under the multiple observation time approach

USAGE:
    moa <COMMAND> [ARGS]

COMMANDS:          (<bench> is a .bench file path, or suite:NAME for an embedded circuit)
    stats     <bench>                circuit statistics
    analyze   <bench>... | --suite [NAME...] [--json]
              static lints, learned implications, untestability screening
    faults    <bench> [--collapse]   stuck-at fault list
    sim       <bench> --words W,...  | --random L [--seed S]   three-valued simulation
    campaign  <bench> [--random L] [--seed S] [--baseline|--proposed|--both]
              [--n-states N] [--depth K] [--rounds R] [--threads T] [--verbose]
              [--deadline-ms MS] [--work-limit W]     per-fault budgets
              [--checkpoint FILE [--checkpoint-every N] [--resume]]
              [--audit[=N]]                audit detections by certificate replay
              [--learn] [--prune-untestable]   static learning / untestability pruning
              [--degrade]                  budget-trip degradation ladder
              [--shards N [--shard-id K | --merge] [--shard-dir DIR]
               [--shard-retries R]]         crash-safe sharded campaign
    tpg       <bench> [--max-length L] [--seed S] [--compact]  deterministic test generation
    exact     <bench> [--random L] [--seed S]    exhaustive restricted-MOA check (small circuits)
    explain   <bench> --fault NET/saX            per-fault pipeline trace
    extract   <bench> --nets NAME[,NAME...]      cut a fan-in cone to a new bench file
    gen       --inputs N --outputs N --ffs N --gates N [--seed S] [-o FILE]
    serve     --spool DIR [--addr HOST:PORT] [--workers N] [--queue-depth N]
              [--job-attempts N] [--shards N]
              [--dispatch [--lease-ms MS] [--heartbeat-ms MS] [--dispatch-attempts N]]
              campaign daemon: bounded admission, dedupe cache, poison quarantine,
              crash recovery from the spool; first SIGINT/SIGTERM drains gracefully;
              with --dispatch, shards run on remote `moa work` processes under
              lease-based at-least-once delivery
    work      --connect HOST:PORT | --addr HOST:PORT | --spool DIR
              [--scratch DIR] [--worker-id ID] [--max-idle-ms MS]
              shard worker: leases shards from a --dispatch daemon, heartbeats,
              streams finished shard checkpoints back, reconnects with backoff
    submit    <bench> [--addr HOST:PORT | --spool DIR] [--random L [--seed S] |
              --seq-file F | --words p,...] [--wait] [campaign tuning flags]
              submit a campaign job to a daemon (prints the job's canonical hash)
    status    [--addr HOST:PORT | --spool DIR] [--job HASH]
              daemon queue stats, or one job's state and verdict digest
    suite     [NAME...] [--baseline-too] [--audit] [--degrade] [--work-limit W]
              the paper's Tables 2 and 3 on the stand-in suite
    help                             show this message
";

/// Dispatches a full command line (without the program name) and writes the
/// report to `out`.
///
/// # Errors
///
/// Returns [`CliError`] on bad usage or failing operations; the caller maps
/// it to an exit code via [`CliError::exit_code`].
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage(USAGE.to_owned()));
    };
    let rest = &args[1..];
    match command.as_str() {
        "stats" => commands::stats::run(rest, out),
        "analyze" => commands::analyze::run(rest, out),
        "faults" => commands::faults::run(rest, out),
        "sim" => commands::sim::run(rest, out),
        "campaign" => commands::campaign::run(rest, out),
        "tpg" => commands::tpg::run(rest, out),
        "exact" => commands::exact::run(rest, out),
        "explain" => commands::explain::run(rest, out),
        "extract" => commands::extract::run(rest, out),
        "gen" => commands::gen::run(rest, out),
        "serve" => commands::serve::run_serve(rest, out),
        "submit" => commands::serve::run_submit(rest, out),
        "status" => commands::serve::run_status(rest, out),
        "work" => commands::work::run(rest, out),
        "suite" => commands::suite::run(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

/// Loads a circuit from a `.bench` file path.
pub(crate) fn load_circuit(path: &str) -> Result<moa_netlist::Circuit, CliError> {
    // `suite:NAME` loads an embedded suite circuit without needing a .bench
    // file on disk (CI smoke jobs lean on this). The built circuit is
    // normalized through the `.bench` serialization so it is bit-identical
    // (net ids, fault enumeration order) whether it reaches a simulation
    // directly, from a saved file, or over the daemon's wire format —
    // verdict digests then compare equal across all three paths.
    if let Some(name) = path.strip_prefix("suite:") {
        let entry = moa_circuits::suite::entry(name)
            .ok_or_else(|| CliError::Failed(format!("no embedded suite circuit `{name}`")))?;
        let text = moa_netlist::write_bench(&entry.build());
        return moa_netlist::parse_bench(&text)
            .map_err(|e| CliError::Failed(format!("suite circuit `{name}` round trip: {e}")));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("cannot read `{path}`: {e}")))?;
    moa_netlist::parse_bench(&text)
        .map_err(|e| CliError::Failed(format!("cannot parse `{path}`: {e}")))
}

/// Circuit files shared by the command modules' unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    /// Publishes `text` as `name` in a shared fixture directory and returns
    /// its path. Tests run in parallel and read these files while other
    /// tests rewrite them, so the text goes to a private file that is then
    /// renamed into place: a reader sees a whole netlist, never a truncated
    /// one.
    pub(crate) fn publish(name: &str, text: &str) -> String {
        let dir = std::env::temp_dir().join("moa-cli-fixtures");
        std::fs::create_dir_all(&dir).unwrap();
        let tmp = dir.join(format!(
            "{name}.{}-{:?}.tmp",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&tmp, text).unwrap();
        let path = dir.join(name);
        std::fs::rename(&tmp, &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    /// The resettable toggle teaching circuit.
    pub(crate) fn toggle_path() -> String {
        let text = moa_netlist::write_bench(&moa_circuits::teaching::resettable_toggle());
        publish("toggle.bench", &text)
    }

    /// The ISCAS'89 s27 benchmark.
    pub(crate) fn s27_path() -> String {
        publish("s27.bench", moa_circuits::iscas::S27_BENCH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_command_is_usage_error() {
        let mut out = Vec::new();
        let err = run(&["frobnicate".to_owned()], &mut out).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn help_prints_usage() {
        let mut out = Vec::new();
        run(&["help".to_owned()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("campaign"));
        assert!(
            !text.lines().any(|l| l.trim_start().starts_with("bench ")),
            "help lists no `bench` command: {text}"
        );
    }

    #[test]
    fn suite_scheme_loads_embedded_circuits() {
        let mut out = Vec::new();
        run(&["stats".to_owned(), "suite:s298".to_owned()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("s298"), "{text}");

        let err = load_circuit("suite:s9999").unwrap_err();
        assert!(err.to_string().contains("no embedded suite circuit"), "{err}");
    }

    #[test]
    fn empty_args_is_usage_error() {
        let mut out = Vec::new();
        assert!(run(&[], &mut out).is_err());
    }

    #[test]
    fn error_display() {
        let e = CliError::Failed("boom".into());
        assert_eq!(e.to_string(), "error: boom");
        assert_eq!(e.exit_code(), 1);
    }
}

#[cfg(test)]
mod workflow_tests {
    use super::*;

    /// End-to-end workflow: generate a circuit, generate and save a
    /// deterministic sequence, then run a campaign from the saved file.
    #[test]
    fn gen_tpg_campaign_round_trip() {
        let dir = std::env::temp_dir().join("moa-cli-workflow-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("c.bench").to_string_lossy().into_owned();
        let seqf = dir.join("c.seq").to_string_lossy().into_owned();

        let mut out = Vec::new();
        run(
            &[
                "gen".into(),
                "--inputs".into(),
                "5".into(),
                "--outputs".into(),
                "3".into(),
                "--ffs".into(),
                "4".into(),
                "--gates".into(),
                "40".into(),
                "--seed".into(),
                "9".into(),
                "-o".into(),
                bench.clone(),
            ],
            &mut out,
        )
        .unwrap();

        let mut out = Vec::new();
        run(
            &[
                "tpg".into(),
                bench.clone(),
                "--max-length".into(),
                "32".into(),
                "--save".into(),
                seqf.clone(),
            ],
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("saved"));

        let mut out = Vec::new();
        run(
            &[
                "campaign".into(),
                bench,
                "--seq-file".into(),
                seqf,
                "--both".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("proposed (backward implications)"));
        assert!(text.contains("detected total"));
    }

    #[test]
    fn seq_file_width_mismatch_fails() {
        let dir = std::env::temp_dir().join("moa-cli-workflow-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("s27.bench").to_string_lossy().into_owned();
        std::fs::write(&bench, moa_circuits::iscas::S27_BENCH).unwrap();
        let seqf = dir.join("bad.seq").to_string_lossy().into_owned();
        std::fs::write(&seqf, "10\n01\n").unwrap();
        let mut out = Vec::new();
        let err = run(
            &["sim".into(), bench, "--seq-file".into(), seqf],
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("inputs"));
    }
}
