//! `moa campaign <bench> …` — whole-fault-list fault simulation, comparing
//! conventional, the expansion-only baseline and the proposed procedure.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use moa_core::{
    merge_shards, run_shard, run_sharded, shard_path, try_run_campaign, verdict_digest,
    CampaignOptions, CampaignResult, MoaOptions, ShardOptions,
};
use moa_netlist::{collapse_faults, full_fault_list, Circuit};
use moa_sim::TestSequence;

use crate::commands::{
    audit_peeled, fault_budget_from_args, moa_options_from_args, screen_lanes_from_args,
    screen_threads_from_args, sequence_from_args, shard_retries_from_args, shards_from_args,
};
use crate::{load_circuit, signals, ArgParser, CliError};

const USAGE: &str = "usage: moa campaign <bench-file> [--words p,... | --random L [--seed S]] \
[--baseline | --proposed | --both] [--n-states N] [--depth K] [--rounds R] [--budget B] \
[--threads T] [--deadline-ms MS] [--work-limit W] [--max-frontier N] [--degrade] \
[--checkpoint FILE [--checkpoint-every N] [--resume]] \
[--shards N [--shard-id K | --merge] [--shard-dir DIR] [--shard-retries R (default 5)]] \
[--audit[=N]] [--chaos-seed S] [--no-collapse] [--differential] \
[--screen-lanes 64|128|256] [--screen-threads T] [--learn] [--prune-untestable] [--verbose]";

const BASELINE: &str = "baseline [4] (expansion only)";
const PROPOSED: &str = "proposed (backward implications)";

pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    // `--audit[=N]` carries an optional inline value, which the flag parser
    // cannot express; peel it off before parsing the rest.
    let (audit, filtered) = audit_peeled(args, USAGE)?;
    let parser = ArgParser::parse(
        &filtered,
        USAGE,
        &[
            "words", "random", "seed", "seq-file", "n-states", "depth", "rounds", "budget",
            "threads", "deadline-ms", "work-limit", "max-frontier", "checkpoint",
            "checkpoint-every", "chaos-seed", "shards", "shard-id", "shard-dir", "shard-retries",
            "screen-lanes", "screen-threads",
        ],
        &[
            "baseline", "proposed", "both", "no-collapse", "differential", "learn",
            "prune-untestable", "verbose", "resume", "degrade", "merge",
        ],
    )?;
    let circuit = load_circuit(parser.required(0, "bench file")?)?;
    let seq = sequence_from_args(&parser, &circuit, 64)?;

    // The default pre-collapses the fault list to one representative per
    // equivalence class, as the paper's tables count faults;
    // `--no-collapse` simulates the full list (one record per fault).
    let full = full_fault_list(&circuit);
    let faults = if parser.switch("no-collapse") {
        full
    } else {
        collapse_faults(&circuit, &full).representatives().to_vec()
    };

    let moa = moa_options_from_args(&parser)?;
    let prune_untestable = parser.switch("prune-untestable");
    let threads = parser.num("threads", 0usize)?;

    if let Some(seed) = parser.flag("chaos-seed") {
        let seed: u64 = seed.parse().map_err(|_| {
            CliError::Usage(format!("--chaos-seed expects a number, got `{seed}`"))
        })?;
        #[cfg(feature = "failpoints")]
        moa_core::failpoint::install(moa_core::failpoint::ChaosSchedule::seeded(seed));
        #[cfg(not(feature = "failpoints"))]
        {
            let _ = seed;
            return Err(CliError::Usage(
                "--chaos-seed needs a binary built with the `failpoints` feature \
                 (cargo build --features failpoints)"
                    .into(),
            ));
        }
    }

    let fault_budget = fault_budget_from_args(&parser)?;
    let checkpoint = parser.flag("checkpoint").map(PathBuf::from);
    let checkpoint_every = parser.num("checkpoint-every", 256usize)?;
    let resume = parser.switch("resume");
    if resume && checkpoint.is_none() {
        return Err(CliError::Usage(format!(
            "--resume needs --checkpoint FILE\n\n{USAGE}"
        )));
    }

    let shards = shards_from_args(&parser)?;
    let shard_id: Option<usize> = match parser.flag("shard-id") {
        None => None,
        Some(n) => Some(n.parse().map_err(|_| {
            CliError::Usage(format!("--shard-id expects a number, got `{n}`"))
        })?),
    };
    let merge_only = parser.switch("merge");
    if shards.is_none()
        && (shard_id.is_some()
            || merge_only
            || parser.flag("shard-dir").is_some()
            || parser.flag("shard-retries").is_some())
    {
        return Err(CliError::Usage(format!(
            "--shard-id/--merge/--shard-dir/--shard-retries need --shards N\n\n{USAGE}"
        )));
    }
    if shard_id.is_some() && merge_only {
        return Err(CliError::Usage(format!(
            "--shard-id runs one shard, --merge merges finished ones: pick one\n\n{USAGE}"
        )));
    }
    if shards.is_some() && checkpoint.is_some() {
        return Err(CliError::Usage(format!(
            "--shards manages its own per-shard checkpoint files; drop --checkpoint\n\n{USAGE}"
        )));
    }
    let shard_dir = parser
        .flag("shard-dir")
        .map_or_else(|| PathBuf::from("moa-shards"), PathBuf::from);

    writeln!(
        out,
        "campaign on `{}`: {} faults, sequence length {}",
        circuit.name(),
        faults.len(),
        seq.len()
    )?;
    match (&audit, shard_id) {
        (Some(_), Some(_)) => writeln!(out, "a shard does not audit: the audit runs at --merge")?,
        (Some(a), None) => writeln!(
            out,
            "auditing detections by certificate replay (sample rate {})",
            a.sample_rate
        )?,
        (None, _) => {}
    }

    let run_baseline = parser.switch("baseline") || parser.switch("both") || !parser.switch("proposed");
    let run_proposed = parser.switch("proposed") || parser.switch("both") || !parser.switch("baseline");
    if checkpoint.is_some() && run_baseline && run_proposed {
        // One checkpoint file cannot serve two campaigns over the same fault
        // list — the resumed file would be ambiguous.
        return Err(CliError::Usage(format!(
            "--checkpoint needs a single campaign: pick --baseline or --proposed\n\n{USAGE}"
        )));
    }

    let screen_lanes = screen_lanes_from_args(&parser)?;
    let screen_threads = screen_threads_from_args(&parser)?;

    // First SIGINT/SIGTERM: the campaign checkpoints at its next batch
    // boundary and exits cleanly (see `report`). Second: force-quit.
    signals::install();

    let proposed = CampaignOptions {
        moa,
        threads,
        differential: parser.switch("differential"),
        screen_lanes,
        screen_threads,
        prune_untestable,
        budget: fault_budget,
        checkpoint,
        checkpoint_every,
        resume,
        audit,
        cancel: Some(signals::cancel_flag()),
        ..CampaignOptions::default()
    };
    let baseline = CampaignOptions {
        moa: MoaOptions {
            backward_implications: false,
            ..proposed.moa.clone()
        },
        ..proposed.clone()
    };
    if let Some(shards) = shards {
        if run_baseline && run_proposed {
            return Err(CliError::Usage(format!(
                "--shards needs a single campaign: pick --baseline or --proposed\n\n{USAGE}"
            )));
        }
        let (label, opts) = if run_baseline {
            (BASELINE, &baseline)
        } else {
            (PROPOSED, &proposed)
        };
        let mut options = ShardOptions::new(shards, shard_dir);
        options.retries = shard_retries_from_args(&parser, options.retries)?;
        let sharding = Sharding {
            shard_id,
            merge_only,
            options,
        };
        run_sharded_campaign(out, label, &circuit, &seq, &faults, opts, &sharding)?;
    } else {
        if run_baseline {
            report(out, BASELINE, &circuit, &seq, &faults, &baseline, &parser)?;
        }
        if run_proposed {
            report(out, PROPOSED, &circuit, &seq, &faults, &proposed, &parser)?;
        }
    }
    #[cfg(feature = "failpoints")]
    if moa_core::failpoint::is_armed() {
        let combos = moa_core::failpoint::fired_combos();
        moa_core::failpoint::clear();
        writeln!(out, "\nchaos: {} site/action combination(s) fired", combos.len())?;
        for ((site, kind), count) in combos {
            writeln!(out, "    {site} {kind} x{count}")?;
        }
    }
    Ok(())
}

/// Whether a chaos schedule is armed in this process (always false without
/// the `failpoints` feature — the compiler removes the retry arm entirely).
#[cfg(feature = "failpoints")]
fn chaos_armed() -> bool {
    moa_core::failpoint::is_armed()
}
#[cfg(not(feature = "failpoints"))]
fn chaos_armed() -> bool {
    false
}

/// How `--shards` and its companions partition the work.
struct Sharding {
    shard_id: Option<usize>,
    merge_only: bool,
    options: ShardOptions,
}

/// The sharded flow: one shard (`--shard-id`), merge-only (`--merge`), or
/// supervise-then-merge (plain `--shards N`). Quarantined shards fail the
/// command — their faults have no verdict on disk.
fn run_sharded_campaign(
    out: &mut dyn Write,
    label: &str,
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[moa_netlist::Fault],
    opts: &CampaignOptions,
    sharding: &Sharding,
) -> Result<(), CliError> {
    let failed = |e: moa_core::Error| CliError::Failed(e.to_string());
    let ShardOptions { shards, dir, .. } = &sharding.options;
    let interrupted = |out: &mut dyn Write, completed: usize, total: usize| -> Result<(), CliError> {
        writeln!(
            out,
            "\n{label}: interrupted by signal after {completed} of {total} fault(s)"
        )?;
        writeln!(
            out,
            "  finished work is checkpointed under `{}`; re-run the same command to resume",
            dir.display()
        )?;
        Ok(())
    };
    if let Some(id) = sharding.shard_id {
        let start = Instant::now();
        let result = match run_shard(circuit, seq, faults, opts, *shards, id, dir) {
            Ok(result) => result,
            Err(moa_core::Error::Interrupted { completed, total }) => {
                return interrupted(out, completed, total);
            }
            Err(e) => return Err(failed(e)),
        };
        writeln!(
            out,
            "\n{label}, shard {id} of {shards} -> {} ({:.2?}):",
            shard_path(dir, id).display(),
            start.elapsed()
        )?;
        print_summary(out, &result)?;
        return Ok(());
    }

    let files: Vec<PathBuf>;
    let mut retries_used = 0;
    if sharding.merge_only {
        files = (0..*shards).map(|id| shard_path(dir, id)).collect();
        // A wrong --shard-dir (or shards never run) should say where it
        // looked, not let the merge fail on an opaque missing file. Partial
        // sets fall through: the merge's own error locates the gap exactly.
        if !files.iter().any(|f| f.exists()) {
            return Err(CliError::Failed(format!(
                "--merge found no shard files in `{}` (expected {} file(s) like `{}`); \
                 run the shards first or check --shard-dir",
                dir.display(),
                shards,
                shard_path(dir, 0).display()
            )));
        }
    } else {
        let start = Instant::now();
        let run = match run_sharded(circuit, seq, faults, opts, &sharding.options) {
            Ok(run) => run,
            Err(moa_core::Error::Interrupted { completed, total }) => {
                return interrupted(out, completed, total);
            }
            Err(e) => return Err(failed(e)),
        };
        writeln!(
            out,
            "\nsupervised {shards} shard(s) into {} ({:.2?}, {} retried attempt(s))",
            dir.display(),
            start.elapsed(),
            run.retries_used
        )?;
        if !run.quarantined.is_empty() {
            for q in &run.quarantined {
                writeln!(
                    out,
                    "  QUARANTINED shard {} after {} attempt(s): {}",
                    q.shard_id, q.attempts, q.last_error
                )?;
            }
            return Err(CliError::Failed(format!(
                "{} shard(s) quarantined; their faults have no verdict",
                run.quarantined.len()
            )));
        }
        files = run.files;
        retries_used = run.retries_used;
    }

    let start = Instant::now();
    // Under an armed chaos schedule injected failures are transient by
    // design (the soak proves a retried merge converges), so the merge is
    // retried like a shard attempt; without chaos a merge failure is real
    // damage and fails fast with its located error.
    let mut merge_attempts = 0;
    let merged = loop {
        match merge_shards(circuit, seq, faults, opts, &files) {
            Ok(m) => break m,
            Err(e) if chaos_armed() && merge_attempts < 50 => {
                merge_attempts += 1;
                let _ = e;
            }
            Err(e) => return Err(failed(e)),
        }
    };
    let mut result = merged.result;
    result.perf.shard_retries = retries_used;
    writeln!(
        out,
        "\nmerged {} record(s) from {} shard file(s), {} detection(s) re-audited ({:.2?})",
        merged.records,
        files.len(),
        merged.audited,
        start.elapsed()
    )?;
    writeln!(out, "\n{label} (merged):")?;
    print_summary(out, &result)?;
    Ok(())
}

fn report(
    out: &mut dyn Write,
    label: &str,
    circuit: &Circuit,
    seq: &TestSequence,
    faults: &[moa_netlist::Fault],
    opts: &CampaignOptions,
    parser: &ArgParser,
) -> Result<(), CliError> {
    let start = Instant::now();
    let result = match try_run_campaign(circuit, seq, faults, opts) {
        Ok(result) => result,
        // First SIGINT/SIGTERM: the campaign already flushed its
        // checkpoint; report, hint at resume, and exit 0 — a clean
        // interruption is not a failure.
        Err(moa_core::Error::Interrupted { completed, total }) => {
            writeln!(
                out,
                "\n{label}: interrupted by signal after {completed} of {total} fault(s)"
            )?;
            if opts.checkpoint.is_some() {
                writeln!(out, "  progress is checkpointed; resume with --resume")?;
            } else {
                writeln!(
                    out,
                    "  progress was not saved; run with --checkpoint FILE to make \
                     interrupts resumable"
                )?;
            }
            return Ok(());
        }
        Err(e) => return Err(CliError::Failed(e.to_string())),
    };
    writeln!(out, "\n{label} ({:.2?}):", start.elapsed())?;
    print_summary(out, &result)?;
    if parser.switch("verbose") {
        for (fault, status) in faults.iter().zip(&result.statuses) {
            if status.is_extra_detected() {
                writeln!(out, "    extra: {} — {:?}", fault.describe(circuit), status)?;
            }
        }
    }
    Ok(())
}

fn print_summary(out: &mut dyn Write, r: &CampaignResult) -> Result<(), CliError> {
    writeln!(out, "  detected total      : {}", r.detected_total())?;
    writeln!(out, "    conventional      : {}", r.conventional)?;
    writeln!(out, "    beyond conventional: {}", r.extra)?;
    writeln!(out, "  condition-C skips   : {}", r.skipped_condition_c)?;
    if r.untestable > 0 {
        writeln!(out, "  untestable (static) : {}", r.untestable)?;
    }
    writeln!(out, "  budget-truncated    : {}", r.truncated)?;
    if r.budget_exceeded > 0 {
        writeln!(out, "  budget-exceeded     : {}", r.budget_exceeded)?;
    }
    if r.faulted > 0 {
        writeln!(out, "  faulted workers     : {}", r.faulted)?;
    }
    if r.degraded > 0 {
        let partial = r.partial_summary();
        writeln!(out, "  degraded (partial)  : {}", r.degraded)?;
        writeln!(
            out,
            "    lower bounds      : {} detected, {} not-detected, {} unknown",
            partial.detected, partial.not_detected, partial.unknown
        )?;
        writeln!(
            out,
            "  coverage lower bound: {:.2}% ({} of {} proven detected)",
            r.coverage_lower_bound() * 100.0,
            r.detected_total(),
            r.total_faults
        )?;
    }
    if r.audit_failed > 0 {
        writeln!(out, "  AUDIT FAILED        : {} (quarantined)", r.audit_failed)?;
    }
    for skip in &r.resume_skipped {
        writeln!(
            out,
            "  warning: skipped corrupt checkpoint record ({skip}); the fault was re-simulated"
        )?;
    }
    let avg = r.counter_averages();
    if avg.faults > 0 {
        writeln!(
            out,
            "  counters (avg over {} extra faults): N_det {:.2}, N_conf {:.2}, N_extra {:.2}",
            avg.faults, avg.det, avg.conf, avg.extra
        )?;
    }
    // The canonical per-fault-status digest: two runs printing the same
    // digest produced bit-identical verdicts (the CI recovery smoke
    // compares this line against the daemon's). Deliberately free of
    // parentheses so verdict-comparison filters keep it.
    writeln!(out, "  verdict digest      : {}", verdict_digest(r))?;
    writeln!(out, "  perf                : {}", r.perf)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::toggle_path;

    #[test]
    fn both_campaigns_run_and_report() {
        let mut out = Vec::new();
        run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--both".into(),
                "--verbose".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("baseline [4]"));
        assert!(text.contains("proposed (backward implications)"));
        assert!(text.contains("beyond conventional: 1"), "{text}");
        assert!(text.contains("extra: r stuck-at-1"));
    }

    #[test]
    fn budget_flags_are_accepted() {
        let mut out = Vec::new();
        run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--work-limit".into(),
                "1".into(),
                "--deadline-ms".into(),
                "10000".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("budget-exceeded"), "{text}");
    }

    #[test]
    fn checkpoint_run_and_resume() {
        let dir = std::env::temp_dir().join("moa-cli-campaign-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("run.checkpoint");
        let _ = std::fs::remove_file(&ckpt);
        let ckpt = ckpt.to_string_lossy().into_owned();

        let base_args = |extra: &[&str]| -> Vec<String> {
            let mut v = vec![
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--checkpoint".into(),
                ckpt.clone(),
            ];
            v.extend(extra.iter().map(std::string::ToString::to_string));
            v
        };

        let mut first = Vec::new();
        run(&base_args(&[]), &mut first).unwrap();
        let mut second = Vec::new();
        run(&base_args(&["--resume"]), &mut second).unwrap();
        let strip_timing = |bytes: &[u8]| {
            String::from_utf8(bytes.to_vec())
                .unwrap()
                .lines()
                .filter(|l| !l.contains('('))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip_timing(&first), strip_timing(&second));
    }

    #[test]
    fn audit_flag_runs_clean_and_reports_mode() {
        let mut out = Vec::new();
        run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--audit".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("auditing detections by certificate replay (sample rate 1)"));
        assert!(!text.contains("AUDIT FAILED"), "a sound engine audits clean: {text}");
        assert!(text.contains("beyond conventional: 1"), "results unchanged: {text}");
    }

    #[test]
    fn audit_sample_rate_is_parsed() {
        let mut out = Vec::new();
        run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--audit=3".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("sample rate 3"), "{text}");

        let mut out = Vec::new();
        let err = run(
            &[toggle_path(), "--words".into(), "0,0,0".into(), "--audit=x".into()],
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn resume_without_checkpoint_is_usage_error() {
        let mut out = Vec::new();
        let err = run(
            &[toggle_path(), "--words".into(), "0,0,0".into(), "--resume".into()],
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn checkpoint_with_both_campaigns_is_refused() {
        let mut out = Vec::new();
        let err = run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--both".into(),
                "--checkpoint".into(),
                "/tmp/nope.checkpoint".into(),
            ],
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn learn_and_prune_flags_preserve_verdicts() {
        let base = |extra: &[&str]| -> Vec<String> {
            let mut v = vec![toggle_path(), "--words".into(), "0,0,0".into(), "--proposed".into()];
            v.extend(extra.iter().map(std::string::ToString::to_string));
            v
        };
        let summary = |args: &[String]| -> String {
            let mut out = Vec::new();
            run(args, &mut out).unwrap();
            String::from_utf8(out)
                .unwrap()
                .lines()
                .filter(|l| l.contains("detected total") || l.contains("conventional"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let plain = summary(&base(&[]));
        assert_eq!(plain, summary(&base(&["--learn"])), "--learn changed verdicts");
        assert_eq!(
            plain,
            summary(&base(&["--prune-untestable"])),
            "--prune-untestable changed verdicts (toggle has no untestable faults)"
        );
    }

    #[test]
    fn degrade_flag_reports_partial_verdicts() {
        let mut out = Vec::new();
        run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--degrade".into(),
                "--work-limit".into(),
                "1".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("degraded (partial)"), "{text}");
        assert!(!text.contains("budget-exceeded"), "every trip steps down: {text}");
    }

    #[test]
    fn max_frontier_flag_is_parsed() {
        let mut out = Vec::new();
        run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--max-frontier".into(),
                "64".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("detected total"), "{text}");

        let mut out = Vec::new();
        let err = run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--max-frontier".into(),
                "x".into(),
            ],
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn chaos_seed_without_the_feature_is_a_polite_error() {
        let mut out = Vec::new();
        let err = run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--chaos-seed".into(),
                "42".into(),
            ],
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("failpoints"), "{err}");
    }

    fn shard_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("moa-cli-campaign-shard-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Output with the timing/perf lines (anything containing parentheses)
    /// and the shard bookkeeping lines removed, for verdict comparison.
    fn verdict_lines(bytes: &[u8]) -> String {
        String::from_utf8(bytes.to_vec())
            .unwrap()
            .lines()
            .filter(|l| {
                !l.is_empty()
                    && !l.contains('(')
                    && !l.starts_with("supervised")
                    && !l.starts_with("merged")
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn sharded_campaign_merges_to_the_unsharded_verdicts() {
        let dir = shard_dir("supervise");
        let mut plain = Vec::new();
        run(
            &[toggle_path(), "--words".into(), "0,0,0".into(), "--proposed".into(), "--audit".into()],
            &mut plain,
        )
        .unwrap();
        let mut sharded = Vec::new();
        run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--audit".into(),
                "--shards".into(),
                "3".into(),
                "--shard-dir".into(),
                dir.to_string_lossy().into_owned(),
            ],
            &mut sharded,
        )
        .unwrap();
        assert_eq!(verdict_lines(&plain), verdict_lines(&sharded));
        let text = String::from_utf8(sharded).unwrap();
        assert!(text.contains("supervised 3 shard(s)"), "{text}");
        assert!(text.contains("re-audited"), "{text}");
        // The merge audits the sample the unsharded run audits.
        let audits = |text: &str| {
            let perf = text.lines().find(|l| l.contains("perf")).expect("a perf line");
            perf.split_once("audits ").map(|(_, counts)| counts.to_owned())
        };
        let plain = String::from_utf8(plain).unwrap();
        assert!(audits(&plain).is_some(), "{plain}");
        assert_eq!(audits(&plain), audits(&text));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_shard_leaves_the_audit_to_the_merge() {
        let dir = shard_dir("shard-audit");
        let mut out = Vec::new();
        run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--audit".into(),
                "--shards".into(),
                "2".into(),
                "--shard-dir".into(),
                dir.to_string_lossy().into_owned(),
                "--shard-id".into(),
                "0".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("a shard does not audit: the audit runs at --merge"), "{text}");
        assert!(!text.contains("audits confirmed"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_shard_runs_then_merge_reassembles() {
        let dir = shard_dir("manual");
        let dir_arg = dir.to_string_lossy().into_owned();
        let base = |extra: &[&str]| -> Vec<String> {
            let mut v = vec![
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--shards".into(),
                "2".into(),
                "--shard-dir".into(),
                dir_arg.clone(),
            ];
            v.extend(extra.iter().map(std::string::ToString::to_string));
            v
        };
        for id in ["0", "1"] {
            let mut out = Vec::new();
            run(&base(&["--shard-id", id]), &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains(&format!("shard {id} of 2")), "{text}");
        }
        let mut merged = Vec::new();
        run(&base(&["--merge"]), &mut merged).unwrap();
        let mut plain = Vec::new();
        run(
            &[toggle_path(), "--words".into(), "0,0,0".into(), "--proposed".into()],
            &mut plain,
        )
        .unwrap();
        assert_eq!(verdict_lines(&plain), verdict_lines(&merged));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_of_a_corrupt_shard_file_fails_with_a_located_error() {
        let dir = shard_dir("corrupt");
        let dir_arg = dir.to_string_lossy().into_owned();
        let base = |extra: &[&str]| -> Vec<String> {
            let mut v = vec![
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--shards".into(),
                "2".into(),
                "--shard-dir".into(),
                dir_arg.clone(),
            ];
            v.extend(extra.iter().map(std::string::ToString::to_string));
            v
        };
        let mut out = Vec::new();
        run(&base(&[]), &mut out).unwrap();
        let victim = dir.join("shard-1.ckpt");
        let mut bytes = std::fs::read(&victim).unwrap();
        let target = bytes.len() - 20;
        bytes[target] ^= 0x20;
        std::fs::write(&victim, &bytes).unwrap();
        let mut out = Vec::new();
        let err = run(&base(&["--merge"]), &mut out).unwrap_err();
        let text = err.to_string();
        assert!(matches!(err, CliError::Failed(_)), "{text}");
        assert!(text.contains("checksum mismatch"), "{text}");
        assert!(text.contains("shard-1.ckpt"), "locates the file: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_counts_are_rejected_with_reasons() {
        for extra in [
            &["--shards", "2", "--shard-retries", "0"][..],
            &["--shards", "0"],
            &["--shards", "0", "--shard-id", "0"],
            &["--shards", "0", "--merge"],
            &["--rounds", "0"],
            &["--depth", "0"],
            &["--n-states", "0"],
        ] {
            let mut args = vec![
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
            ];
            args.extend(extra.iter().map(std::string::ToString::to_string));
            let mut out = Vec::new();
            let err = run(&args, &mut out).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{extra:?}: {err}");
            assert!(err.to_string().contains("must be at least 1"), "{extra:?}: {err}");
        }
    }

    #[test]
    fn usage_states_the_library_retry_default() {
        let default = ShardOptions::new(1, "shards").retries;
        assert!(
            USAGE.contains(&format!("[--shard-retries R (default {default})]")),
            "{USAGE}"
        );
    }

    #[test]
    fn merge_with_no_shard_files_names_the_directory_searched() {
        let dir = shard_dir("merge-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let mut out = Vec::new();
        let err = run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--shards".into(),
                "2".into(),
                "--shard-dir".into(),
                dir.to_string_lossy().into_owned(),
                "--merge".into(),
            ],
            &mut out,
        )
        .unwrap_err();
        let text = err.to_string();
        assert!(matches!(err, CliError::Failed(_)), "{text}");
        assert!(text.contains("no shard files"), "{text}");
        assert!(
            text.contains(&dir.to_string_lossy().into_owned()),
            "must name the directory searched: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_screen_lanes_and_zero_screen_threads_are_rejected_with_reasons() {
        for (flag, value, hint) in [
            ("--screen-lanes", "96", "64, 128 or 256"),
            ("--screen-lanes", "0", "64, 128 or 256"),
            ("--screen-lanes", "x", "expects a number"),
            ("--screen-threads", "0", "at least 1"),
        ] {
            let mut out = Vec::new();
            let err = run(
                &[
                    toggle_path(),
                    "--words".into(),
                    "0,0,0".into(),
                    "--proposed".into(),
                    flag.into(),
                    value.into(),
                ],
                &mut out,
            )
            .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{flag} {value}: {err}");
            assert!(err.to_string().contains(hint), "{flag} {value}: {err}");
        }
    }

    #[test]
    fn screen_knobs_never_move_the_verdict_digest() {
        let digest = |extra: &[&str]| -> String {
            let mut v = vec![toggle_path(), "--words".into(), "0,0,0".into(), "--proposed".into()];
            v.extend(extra.iter().map(std::string::ToString::to_string));
            let mut out = Vec::new();
            run(&v, &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            text.lines()
                .find(|l| l.contains("verdict digest"))
                .unwrap()
                .split(':')
                .nth(1)
                .unwrap()
                .trim()
                .to_string()
        };
        let base = digest(&[]);
        for extra in [
            &["--screen-lanes", "128"][..],
            &["--screen-lanes", "256"],
            &["--screen-threads", "4"],
            &["--screen-lanes", "256", "--screen-threads", "3"],
        ] {
            assert_eq!(base, digest(extra), "{extra:?} moved the digest");
        }
    }

    #[test]
    fn summary_prints_the_verdict_digest() {
        let mut out = Vec::new();
        run(
            &[toggle_path(), "--words".into(), "0,0,0".into(), "--proposed".into()],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let digest_line = text
            .lines()
            .find(|l| l.contains("verdict digest"))
            .expect("summary must print a digest line");
        let digest = digest_line.split(':').nth(1).unwrap().trim();
        assert_eq!(digest.len(), 32, "32-hex canon hash: {digest_line}");
        assert!(digest.chars().all(|c| c.is_ascii_hexdigit()), "{digest_line}");
        assert!(!digest_line.contains('('), "no parens: comparison filters keep it");
    }

    #[test]
    fn shard_flag_conflicts_are_usage_errors() {
        let base = |extra: &[&str]| -> Vec<String> {
            let mut v = vec![toggle_path(), "--words".into(), "0,0,0".into()];
            v.extend(extra.iter().map(std::string::ToString::to_string));
            v
        };
        for args in [
            base(&["--merge"]),                          // shard flags need --shards
            base(&["--shard-id", "0"]),
            base(&["--shard-dir", "/tmp/x"]),
            base(&["--proposed", "--shards", "2", "--shard-id", "0", "--merge"]),
            base(&["--proposed", "--shards", "2", "--checkpoint", "/tmp/x.ckpt"]),
            base(&["--both", "--shards", "2"]),          // one campaign per shard set
            base(&["--shards", "2"]),                    // default runs both
            base(&["--proposed", "--shards", "x"]),
        ] {
            let mut out = Vec::new();
            let err = run(&args, &mut out).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
        }
    }

    #[test]
    fn full_list_digest_holds_audited() {
        let digest = |extra: &[&str]| -> String {
            let mut v = vec![
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--no-collapse".into(),
            ];
            v.extend(extra.iter().map(std::string::ToString::to_string));
            let mut out = Vec::new();
            run(&v, &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(!text.contains("AUDIT FAILED"), "{extra:?}: {text}");
            text.lines()
                .find(|l| l.contains("verdict digest"))
                .unwrap()
                .split(':')
                .nth(1)
                .unwrap()
                .trim()
                .to_string()
        };
        // The full list has classes with several members, which share one
        // screen lane; the audit replays each member's own certificate.
        assert_eq!(digest(&[]), digest(&["--audit"]), "--audit moved the digest");
    }

    #[test]
    fn retired_flags_are_usage_errors() {
        for extra in [
            &["--collapse"][..],
            &["--collapse", "--no-collapse"],
            &["--order", "natural"],
            &["--degrade-adaptive"],
            &["--no-screen"],
        ] {
            let mut args = vec![toggle_path(), "--words".into(), "0,0,0".into(), "--proposed".into()];
            args.extend(extra.iter().map(std::string::ToString::to_string));
            let mut out = Vec::new();
            let err = run(&args, &mut out).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{extra:?}: {err}");
        }
    }

    #[test]
    fn sharded_full_list_campaign_merges_to_the_unsharded_verdicts() {
        let dir = shard_dir("full-list");
        let full_list = |extra: &[&str]| -> Vec<u8> {
            let mut v = vec![
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--no-collapse".into(),
            ];
            v.extend(extra.iter().map(std::string::ToString::to_string));
            let mut out = Vec::new();
            run(&v, &mut out).unwrap();
            out
        };
        let plain = full_list(&[]);
        // Each shard screens one lane per class of its own slice.
        let sharded = full_list(&["--shards", "3", "--shard-dir", &dir.to_string_lossy()]);
        assert_eq!(verdict_lines(&plain), verdict_lines(&sharded));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn depth_and_n_states_flags_are_accepted() {
        let mut out = Vec::new();
        run(
            &[
                toggle_path(),
                "--words".into(),
                "0,0,0".into(),
                "--proposed".into(),
                "--depth".into(),
                "2".into(),
                "--n-states".into(),
                "16".into(),
            ],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("detected total"));
        assert!(!text.contains("baseline [4]"));
    }
}
