//! One module per subcommand.

pub mod analyze;
pub mod campaign;
pub mod exact;
pub mod explain;
pub mod extract;
pub mod faults;
pub mod gen;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod suite;
pub mod tpg;
pub mod work;

use std::time::Duration;

use moa_core::{CampaignAudit, FaultBudget, MoaOptions, ScreenLanes};
use moa_netlist::Circuit;
use moa_sim::TestSequence;

use crate::{ArgParser, CliError};

/// Builds the test sequence shared by several commands: `--seq-file FILE`
/// (one pattern per line), `--words p,p,...` (explicit patterns) or
/// `--random L` with `--seed S`.
pub(crate) fn sequence_from_args(
    parser: &ArgParser,
    circuit: &Circuit,
    default_len: usize,
) -> Result<TestSequence, CliError> {
    if let Some(path) = parser.flag("seq-file") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Failed(format!("cannot read `{path}`: {e}")))?;
        let seq = TestSequence::parse_text(&text)
            .map_err(|e| CliError::Failed(format!("bad sequence file `{path}`: {e}")))?;
        return if seq.num_inputs() == circuit.num_inputs() {
            Ok(seq)
        } else {
            Err(CliError::Failed(format!(
                "`{path}` patterns have {} bits but the circuit has {} inputs",
                seq.num_inputs(),
                circuit.num_inputs()
            )))
        };
    }
    if let Some(words) = parser.flag("words") {
        let parts: Vec<&str> = words.split(',').collect();
        TestSequence::from_words(&parts)
            .map_err(|e| CliError::Usage(format!("bad --words: {e}")))
            .and_then(|seq| {
                if seq.num_inputs() == circuit.num_inputs() {
                    Ok(seq)
                } else {
                    Err(CliError::Usage(format!(
                        "patterns have {} bits but the circuit has {} inputs",
                        seq.num_inputs(),
                        circuit.num_inputs()
                    )))
                }
            })
    } else {
        let len = parser.num("random", default_len)?;
        let seed = parser.num("seed", 0u64)?;
        Ok(moa_tpg::random_sequence(circuit, len, seed))
    }
}

/// Peels `--audit[=N]` off the raw argument list (the flag parser cannot
/// express an optional inline value). Returns the audit config and the
/// remaining arguments.
pub(crate) fn audit_peeled(
    args: &[String],
    usage: &'static str,
) -> Result<(Option<CampaignAudit>, Vec<String>), CliError> {
    let mut audit: Option<CampaignAudit> = None;
    let mut filtered = Vec::with_capacity(args.len());
    for arg in args {
        if arg == "--audit" {
            audit = Some(CampaignAudit::default());
        } else if let Some(rate) = arg.strip_prefix("--audit=") {
            let rate: usize = rate.parse().map_err(|_| {
                CliError::Usage(format!(
                    "--audit expects a sample rate, got `{rate}`\n\n{usage}"
                ))
            })?;
            audit = Some(CampaignAudit {
                sample_rate: rate.max(1),
                ..CampaignAudit::default()
            });
        } else {
            filtered.push(arg.clone());
        }
    }
    Ok((audit, filtered))
}

/// Builds [`MoaOptions`] from the campaign-style tuning flags
/// (`--n-states`, `--depth`, `--rounds`, `--budget`, `--max-frontier`,
/// `--learn`, `--degrade`). Flags the caller did not declare simply keep
/// their defaults. `--rounds 0` is rejected: every backward implication
/// runs at least one round. So are `--depth 0` and `--n-states 0`: the
/// engine would run them as 1 while the request hash keeps the 0, so one
/// request would be stored and simulated under two hashes.
pub(crate) fn moa_options_from_args(parser: &ArgParser) -> Result<MoaOptions, CliError> {
    let at_least_one = |name: &str, default: usize, why: &str| match parser.num(name, default)? {
        0 => Err(CliError::Usage(format!("--{name} must be at least 1: {why}"))),
        value => Ok(value),
    };
    let rounds = at_least_one(
        "rounds",
        1,
        "each backward implication runs one outputs->inputs and one inputs->outputs pass \
         per round",
    )?;
    let depth = at_least_one(
        "depth",
        1,
        "backward implications always chain through at least the previous time unit",
    )?;
    let n_states = at_least_one(
        "n-states",
        64,
        "expansion always keeps at least one state sequence",
    )?;
    let mut moa = MoaOptions::default()
        .with_n_states(n_states)
        .with_backward_time_units(depth)
        .with_implication_rounds(rounds)
        .with_max_implication_runs(parser.num("budget", 4096)?);
    moa.static_learning = parser.switch("learn");
    if let Some(states) = parser.flag("max-frontier") {
        let states: usize = states.parse().map_err(|_| {
            CliError::Usage(format!("--max-frontier expects a number, got `{states}`"))
        })?;
        moa = moa.with_max_frontier_states(states);
    }
    moa.degrade = parser.switch("degrade");
    Ok(moa)
}

/// Builds the per-fault budget from `--deadline-ms` / `--work-limit`.
pub(crate) fn fault_budget_from_args(parser: &ArgParser) -> Result<FaultBudget, CliError> {
    let mut budget = FaultBudget::none();
    if let Some(ms) = parser.flag("deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| CliError::Usage(format!("--deadline-ms expects a number, got `{ms}`")))?;
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(limit) = parser.flag("work-limit") {
        let limit: u64 = limit.parse().map_err(|_| {
            CliError::Usage(format!("--work-limit expects a number, got `{limit}`"))
        })?;
        budget = budget.with_work_limit(limit);
    }
    Ok(budget)
}

/// `--shards N`, rejecting 0: a partition into zero shards has no shard
/// to simulate any fault in.
pub(crate) fn shards_from_args(parser: &ArgParser) -> Result<Option<usize>, CliError> {
    if parser.flag("shards").is_none() {
        return Ok(None);
    }
    let shards = parser.num("shards", 0usize)?;
    if shards == 0 {
        return Err(CliError::Usage(
            "--shards must be at least 1: a partition into zero shards leaves every \
             fault without a shard to run in"
                .into(),
        ));
    }
    Ok(Some(shards))
}

/// `--shard-retries`, rejecting 0: retries below one would quarantine a
/// shard on its first transient hiccup, which is never what an operator
/// wants from a crash-safety flag.
pub(crate) fn shard_retries_from_args(
    parser: &ArgParser,
    default: usize,
) -> Result<usize, CliError> {
    let retries = parser.num("shard-retries", default)?;
    if retries == 0 {
        return Err(CliError::Usage(
            "--shard-retries must be at least 1: with 0 retries a single transient \
             failure (injected fault, OOM kill) would quarantine the shard instead \
             of re-running it"
                .into(),
        ));
    }
    Ok(retries)
}

/// `--screen-lanes`, rejecting anything but 64/128/256: the screening
/// kernel is monomorphized at exactly those machine-word widths, so any
/// other number has no kernel to run — better to say so than to silently
/// round.
pub(crate) fn screen_lanes_from_args(parser: &ArgParser) -> Result<ScreenLanes, CliError> {
    match parser.flag("screen-lanes") {
        None => Ok(ScreenLanes::default()),
        Some(lanes) => {
            let n: usize = lanes.parse().map_err(|_| {
                CliError::Usage(format!("--screen-lanes expects a number, got `{lanes}`"))
            })?;
            ScreenLanes::from_lanes(n).ok_or_else(|| {
                CliError::Usage(format!(
                    "--screen-lanes must be 64, 128 or 256 (got {n}): the screening \
                     kernel only exists at those machine-word widths (u64 blocks), \
                     and rounding silently would run a width nobody asked for"
                ))
            })
        }
    }
}

/// `--screen-threads`, rejecting 0 when spelled explicitly: inside the
/// library 0 means "use every core", but an operator typing 0 almost always
/// meant to disable screening (`--no-screen`) — make them say which.
pub(crate) fn screen_threads_from_args(parser: &ArgParser) -> Result<usize, CliError> {
    let threads = parser.num("screen-threads", 1usize)?;
    if threads == 0 {
        return Err(CliError::Usage(
            "--screen-threads must be at least 1: 0 would not disable screening \
             (use --no-screen for that), and auto-detection is the library \
             default only — spell out the worker count you want"
                .into(),
        ));
    }
    Ok(threads)
}
