//! Process-level tests of the `moa` binary (exit codes, stdout/stderr
//! separation) — the library-level command tests cover the logic; these
//! cover the executable contract.

use std::process::Command;

fn moa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moa"))
}

fn s27_path() -> String {
    let dir = std::env::temp_dir().join("moa-bin-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("s27.bench");
    // Every test shares this file while others may be reading it: publish
    // it by atomic rename so no reader ever sees a half-written netlist.
    let tmp = dir.join(format!(
        "s27.bench.{}-{:?}.tmp",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&tmp, moa_circuits::iscas::S27_BENCH).unwrap();
    std::fs::rename(&tmp, &path).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn help_exits_zero() {
    let out = moa().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_exits_two() {
    // `bench` is a deleted command: it must fail like any unknown one.
    for command in ["frobnicate", "bench"] {
        let out = moa().arg(command).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{command}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown command"), "{command}: {err}");
    }
}

#[test]
fn missing_file_exits_one() {
    let out = moa().args(["stats", "/no/such/file.bench"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn stats_pipeline_works_end_to_end() {
    let out = moa().args(["stats", &s27_path()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("circuit : s27"));
    assert!(out.stderr.is_empty(), "reports go to stdout");
}

#[test]
fn campaign_resume_from_missing_checkpoint_exits_one() {
    let missing = std::env::temp_dir()
        .join("moa-bin-test")
        .join("no-such.checkpoint");
    let _ = std::fs::remove_file(&missing);
    let out = moa()
        .args([
            "campaign",
            &s27_path(),
            "--random",
            "8",
            "--proposed",
            "--checkpoint",
            &missing.to_string_lossy(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "clean failure, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checkpoint"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// Only with the `failpoints` feature: the chaos registry is process-global,
/// so this runs against the binary (its own process) rather than in-process,
/// keeping the library tests deterministic.
#[cfg(feature = "failpoints")]
#[test]
fn campaign_chaos_seed_runs_and_reports_fired_sites() {
    let out = moa()
        .args([
            "campaign",
            &s27_path(),
            "--random",
            "16",
            "--seed",
            "7",
            "--proposed",
            "--chaos-seed",
            "42",
        ])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(text.contains("chaos:"), "{text}");
}

/// Arguments of a checkpointed s27 campaign, optionally resuming.
fn checkpointed_campaign(ckpt: &str, resume: bool) -> Vec<String> {
    let mut v = vec![
        "campaign".to_owned(),
        s27_path(),
        "--random".to_owned(),
        "16".to_owned(),
        "--seed".to_owned(),
        "7".to_owned(),
        "--proposed".to_owned(),
        "--checkpoint".to_owned(),
        ckpt.to_owned(),
    ];
    if resume {
        v.push("--resume".to_owned());
    }
    v
}

/// The report minus timings and warnings (both parenthesised).
fn report_lines(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes)
        .lines()
        .filter(|l| !l.contains('('))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn campaign_resume_heals_a_corrupt_interior_record_with_a_warning() {
    // A damaged body record no longer aborts the resume: the record is
    // skipped with a located warning and its fault is re-simulated.
    let dir = std::env::temp_dir().join("moa-bin-test-corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("corrupt.checkpoint");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt = ckpt.to_string_lossy().into_owned();

    let full = moa().args(checkpointed_campaign(&ckpt, false)).output().unwrap();
    assert!(full.status.success());

    // Flip one bit inside the first record's payload, so intact records
    // follow the damage. The body starts after the 12-byte magic and the
    // length-prefixed, checksummed header; the record's tag and length
    // word come first.
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let first_record = 12 + 4 + header_len + 4;
    bytes[first_record + 5 + 8] ^= 0x08;
    std::fs::write(&ckpt, &bytes).unwrap();

    let resumed = moa().args(checkpointed_campaign(&ckpt, true)).output().unwrap();
    let text = String::from_utf8_lossy(&resumed.stdout);
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(0), "corruption is healed, not fatal: {err}");
    assert_eq!(
        text.matches("skipped corrupt checkpoint record").count(),
        1,
        "only the damaged record is skipped: {text}"
    );
    let located = format!("record 1 at byte {first_record}: checksum mismatch");
    assert!(text.contains(&located), "the warning locates the damage: {text}");
    assert_eq!(
        report_lines(&full.stdout),
        report_lines(&resumed.stdout),
        "the re-simulated fault must reproduce the full run's report"
    );
}

#[test]
fn campaign_resume_from_damaged_header_exits_one() {
    // Header damage is still a hard error — the file cannot be trusted to
    // describe this campaign at all.
    let dir = std::env::temp_dir().join("moa-bin-test");
    std::fs::create_dir_all(&dir).unwrap();
    let corrupt = dir.join("bad-header.checkpoint");
    std::fs::write(&corrupt, "not-a-checkpoint\n").unwrap();
    let out = moa()
        .args([
            "campaign",
            &s27_path(),
            "--random",
            "8",
            "--seed",
            "7",
            "--proposed",
            "--checkpoint",
            &corrupt.to_string_lossy(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "clean failure, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checkpoint") || err.contains("campaign"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn campaign_checkpoint_resume_round_trip_via_binary() {
    let dir = std::env::temp_dir().join("moa-bin-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("roundtrip.checkpoint");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt = ckpt.to_string_lossy().into_owned();
    let first = moa().args(checkpointed_campaign(&ckpt, false)).output().unwrap();
    assert!(first.status.success());
    let second = moa().args(checkpointed_campaign(&ckpt, true)).output().unwrap();
    assert!(second.status.success());
    assert_eq!(report_lines(&first.stdout), report_lines(&second.stdout));
}

#[test]
fn campaign_resume_tolerates_torn_final_checkpoint_line() {
    // A checkpoint cut off mid-record (kill -9 during a non-atomic copy, a
    // filesystem without rename atomicity) must not brick the resume: the
    // partial final record is dropped with a located warning and its fault
    // re-simulated.
    let dir = std::env::temp_dir().join("moa-bin-test-torn");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("torn.checkpoint");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt = ckpt.to_string_lossy().into_owned();

    let full = moa().args(checkpointed_campaign(&ckpt, false)).output().unwrap();
    assert!(full.status.success());

    // Emulate the torn write: drop the 13-byte trailer and the last 6
    // bytes of the final record.
    let bytes = std::fs::read(&ckpt).unwrap();
    let cut = bytes.len() - 13 - 6;
    std::fs::write(&ckpt, &bytes[..cut]).unwrap();

    let resumed = moa().args(checkpointed_campaign(&ckpt, true)).output().unwrap();
    assert!(
        resumed.status.success(),
        "resume must survive a torn final record: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let text = String::from_utf8_lossy(&resumed.stdout);
    assert!(text.contains("missing end-of-shard trailer"), "{text}");
    assert!(text.contains("byte "), "the warning locates the cut: {text}");
    assert_eq!(
        report_lines(&full.stdout),
        report_lines(&resumed.stdout),
        "the re-simulated fault must reproduce the full run's report"
    );
}

#[test]
fn campaign_resume_from_v1_text_checkpoint_exits_one() {
    // Text checkpoints (format v1) are no longer read: resuming from one is
    // a located checkpoint error, never a panic or a silent restart.
    let dir = std::env::temp_dir().join("moa-bin-test");
    std::fs::create_dir_all(&dir).unwrap();
    let v1 = dir.join("v1.checkpoint");
    std::fs::write(
        &v1,
        "moa-checkpoint v1\ncircuit s27\nfaults 32\nseq-len 16\nfault 0 0 0 0 0 skip-c\n",
    )
    .unwrap();
    let out = moa()
        .args(checkpointed_campaign(&v1.to_string_lossy(), true))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "clean failure, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checkpoint"), "{err}");
    assert!(err.contains("v1.checkpoint"), "the error names the file: {err}");
    assert!(err.contains("moa-ckpt-v2"), "the error names the expected format: {err}");
    assert!(err.contains("byte 0"), "the error is located: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn campaign_audit_flag_via_binary() {
    let out = moa()
        .args([
            "campaign",
            &s27_path(),
            "--random",
            "16",
            "--seed",
            "7",
            "--proposed",
            "--audit",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("auditing detections"), "{text}");
    assert!(!text.contains("AUDIT FAILED"), "{text}");
}

/// Keeps only the lines whose content must be identical between a sharded
/// and an unsharded run: verdict and summary lines, not timings or the
/// shard-orchestration narration.
fn verdict_lines(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes)
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
fn sharded_campaign_via_binary_is_bit_identical_to_unsharded() {
    let dir = std::env::temp_dir().join("moa-bin-test-shards");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_string_lossy().into_owned();
    let common = [
        "campaign",
        &s27_path(),
        "--random",
        "24",
        "--seed",
        "7",
        "--proposed",
        "--audit",
    ];

    let plain = moa().args(common).output().unwrap();
    assert!(plain.status.success(), "{}", String::from_utf8_lossy(&plain.stderr));

    let sharded = moa()
        .args(common)
        .args(["--shards", "4", "--shard-dir", &dir_str])
        .output()
        .unwrap();
    assert!(
        sharded.status.success(),
        "{}",
        String::from_utf8_lossy(&sharded.stderr)
    );
    let text = String::from_utf8_lossy(&sharded.stdout);
    assert!(text.contains("supervised 4 shard(s)"), "{text}");
    assert!(text.contains("re-audited"), "{text}");
    assert_eq!(
        verdict_lines(&plain.stdout),
        verdict_lines(&sharded.stdout),
        "the merged sharded campaign must reproduce the unsharded verdicts"
    );

    // The shard files survive the run, so a standalone --merge reassembles
    // the same result without re-simulating anything.
    let merged = moa()
        .args(common)
        .args(["--shards", "4", "--shard-dir", &dir_str, "--merge"])
        .output()
        .unwrap();
    assert!(
        merged.status.success(),
        "{}",
        String::from_utf8_lossy(&merged.stderr)
    );
    assert_eq!(verdict_lines(&plain.stdout), verdict_lines(&merged.stdout));

    // Corrupt one record in one shard file: the merge must refuse with a
    // located checksum error rather than quietly mis-merging.
    let victim = dir.join("shard-2.ckpt");
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = bytes.len() - 20;
    bytes[at] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();
    let refused = moa()
        .args(common)
        .args(["--shards", "4", "--shard-dir", &dir_str, "--merge"])
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(1), "corrupt merge is a clean failure");
    let err = String::from_utf8_lossy(&refused.stderr);
    assert!(err.contains("checksum mismatch"), "{err}");
    assert!(err.contains("shard-2.ckpt"), "the error locates the file: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 68-byte shard file: the v2 magic and a header with a correct checksum
/// declaring shard 0 of 1 covering 2^40 faults of `s208` (sequence length
/// 8), with no records. A merge that sizes memory by the declared count
/// aborts on a 2^40-byte allocation instead of failing cleanly.
const OVERSIZED_SHARD_HEADER: &[u8] = b"moa-ckpt-v2\n\
    \x30\x00\x00\x00\
    \x04\x00\x00\x00s208\
    \x00\x00\x00\x00\x00\x01\x00\x00\
    \x08\x00\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x01\x00\x00\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\x01\x00\x00\
    \xbf\x9c\xb4\x6e";

#[test]
fn merge_of_an_oversized_shard_header_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("moa-bin-test-oversized-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("shard-0.ckpt"), OVERSIZED_SHARD_HEADER).unwrap();
    let out = moa()
        .args([
            "campaign",
            "suite:s208",
            "--random",
            "8",
            "--seed",
            "1",
            "--proposed",
            "--shards",
            "1",
            "--shard-dir",
            &dir.to_string_lossy(),
            "--merge",
        ])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a clean failure, not a signal: {err}"
    );
    assert!(
        err.contains("shard-0.ckpt"),
        "the error names the file: {err}"
    );
    assert!(err.contains("belongs to a different campaign"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_on_s27_detects_faults() {
    let out = moa()
        .args([
            "campaign",
            &s27_path(),
            "--random",
            "32",
            "--seed",
            "7",
            "--proposed",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("detected total"));
}

#[test]
fn zero_depth_zero_n_states_and_the_retired_packed_flag_exit_two() {
    for (command, extra, message) in [
        ("campaign", &["--depth", "0"][..], "--depth must be at least 1"),
        ("campaign", &["--n-states", "0"], "--n-states must be at least 1"),
        ("submit", &["--depth", "0"], "--depth must be at least 1"),
        ("submit", &["--n-states", "0"], "--n-states must be at least 1"),
        ("campaign", &["--packed"], "unknown flag `--packed`"),
    ] {
        let out = moa()
            .args([command, &s27_path(), "--random", "8"])
            .args(extra)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command} {extra:?}: {err}");
        assert!(err.contains(message), "{command} {extra:?}: {err}");
    }
}

#[test]
fn in_campaign_collapse_flag_is_gone_and_the_fault_list_flags_stay() {
    for args in [
        vec!["campaign".to_owned(), s27_path(), "--random".into(), "8".into(), "--collapse".into()],
        vec!["suite".into(), "s208".into(), "--collapse".into()],
    ] {
        let out = moa().args(&args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("unknown flag `--collapse`"), "{args:?}: {err}");
    }
    for args in [
        vec!["faults".to_owned(), s27_path(), "--collapse".into()],
        vec!["campaign".into(), s27_path(), "--random".into(), "8".into(), "--no-collapse".into()],
    ] {
        let out = moa().args(&args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
    }
}
