//! Process-level tests of the `moa serve` daemon and its clients: the
//! crash-recovery, backpressure and graceful-shutdown contracts that only
//! mean anything across real process boundaries (SIGKILL, SIGTERM, SIGINT,
//! exit codes). The in-process engine and protocol tests live in
//! `moa_core::serve` and `commands::serve`; these tests prove the same
//! properties survive the executable.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn moa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moa"))
}

/// A fresh scratch directory per test (tests run in parallel).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moa-serve-bin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn wait_for(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Starts a daemon on an ephemeral port, logging to `log`, and waits until
/// it is accepting connections (the discovery file exists and the log says
/// so). Any stale discovery file is removed first so the wait cannot be
/// satisfied by a previous daemon's leftovers.
fn start_daemon(spool: &Path, log: &Path, extra: &[&str]) -> Child {
    let addr_file = spool.join("daemon.addr");
    let _ = std::fs::remove_file(&addr_file);
    let logf = std::fs::File::create(log).unwrap();
    let errf = logf.try_clone().unwrap();
    let child = moa()
        .arg("serve")
        .arg("--spool")
        .arg(spool)
        .args(extra)
        .stdout(Stdio::from(logf))
        .stderr(Stdio::from(errf))
        .spawn()
        .unwrap();
    wait_for("daemon startup", Duration::from_secs(30), || {
        addr_file.exists() && read(log).contains("listening on")
    });
    child
}

/// Sends `sig` (e.g. "-TERM", "-INT") via kill(1) — std has no way to send
/// anything but SIGKILL.
fn send_signal(child: &Child, sig: &str) {
    let status = Command::new("kill")
        .arg(sig)
        .arg(child.id().to_string())
        .status()
        .unwrap();
    assert!(status.success(), "kill {sig} failed");
}

/// A job long enough to interrupt while it runs: s298's full fault list
/// over 2048 vectors takes about half a second even in a release build.
const JOB: [&str; 5] = ["suite:s298", "--random", "2048", "--seed", "7"];

fn submit(spool: &Path, job: &[&str]) -> std::process::Output {
    moa()
        .arg("submit")
        .args(job)
        .arg("--spool")
        .arg(spool)
        .output()
        .unwrap()
}

/// Extracts the 32-hex job hash from `accepted: job <hash>` output.
fn job_hash(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    let line = text
        .lines()
        .find(|l| l.starts_with("accepted: job "))
        .unwrap_or_else(|| panic!("no acceptance line in: {text}"));
    let hash = line.trim_start_matches("accepted: job ").trim().to_owned();
    assert_eq!(hash.len(), 32, "{line}");
    hash
}

/// One job's state line from `moa status --job`.
fn job_status(spool: &str, hash: &str) -> String {
    let out = moa()
        .args(["status", "--spool", spool, "--job", hash])
        .output()
        .unwrap();
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Extracts the digest from a campaign summary's parenthesis-free
/// `verdict digest      : <hash>` line.
fn summary_digest(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    let line = text
        .lines()
        .find(|l| l.contains("verdict digest"))
        .unwrap_or_else(|| panic!("no digest line in: {text}"));
    line.split(':').nth(1).unwrap().trim().to_owned()
}

/// The acceptance test for the tentpole: SIGKILL the daemon mid-campaign,
/// restart it on the same spool, and the job is re-adopted and finishes
/// with a verdict digest bit-identical to a direct `moa campaign` run of
/// the same request. A duplicate submission is then answered from the
/// cache with zero gate evaluations, and SIGTERM drains the daemon to a
/// clean exit 0.
#[test]
fn sigkill_recovery_is_bit_identical_and_dedupes() {
    let dir = scratch("recover");
    let spool = dir.join("spool");
    let spool_s = spool.to_string_lossy().into_owned();

    let log1 = dir.join("daemon-1.log");
    let mut daemon1 = start_daemon(&spool, &log1, &[]);

    let accepted = submit(&spool, &JOB);
    assert!(
        accepted.status.success(),
        "{}",
        String::from_utf8_lossy(&accepted.stderr)
    );
    let hash = job_hash(&accepted.stdout);

    // Pull the plug once the job is running. A fixed delay can outlast the
    // whole job in a release build.
    wait_for("the job to start running", Duration::from_secs(30), || {
        job_status(&spool_s, &hash).contains(": running")
    });
    daemon1.kill().unwrap();
    daemon1.wait().unwrap();

    // A fresh daemon on the same spool must adopt the orphaned job...
    let log2 = dir.join("daemon-2.log");
    let daemon2 = start_daemon(&spool, &log2, &[]);
    assert!(
        read(&log2).contains(&format!("re-adopted job {hash}")),
        "recovery must announce the adoption: {}",
        read(&log2)
    );

    // ...and finish it. Poll the status client until the job is done.
    let mut digest = String::new();
    wait_for("the re-adopted job to finish", Duration::from_mins(2), || {
        let text = job_status(&spool_s, &hash);
        assert!(
            !text.contains("poisoned"),
            "the job must not be quarantined: {text}"
        );
        if let Some(rest) = text.split("done, verdict digest ").nth(1) {
            digest = rest.trim().to_owned();
            true
        } else {
            false
        }
    });
    assert_eq!(digest.len(), 32, "{digest}");

    // Duplicate submission: served from the cache, zero simulation.
    let dup = submit(&spool, &JOB);
    assert!(dup.status.success());
    let text = String::from_utf8_lossy(&dup.stdout);
    assert!(text.contains("cached: job"), "{text}");
    assert!(text.contains(&format!("verdict digest {digest}")), "{text}");
    assert!(text.contains("gate evals 0"), "{text}");

    // The daemon's digest equals a direct, unsharded, uninterrupted
    // campaign of the same request (the daemon simulates the full fault
    // list, so the direct run must skip collapsing).
    let direct = moa()
        .arg("campaign")
        .args(JOB)
        .args(["--proposed", "--no-collapse"])
        .output()
        .unwrap();
    assert!(
        direct.status.success(),
        "{}",
        String::from_utf8_lossy(&direct.stderr)
    );
    assert_eq!(
        summary_digest(&direct.stdout),
        digest,
        "crash-recovered daemon result must be bit-identical to a direct run"
    );

    // Graceful shutdown: SIGTERM drains and exits 0.
    send_signal(&daemon2, "-TERM");
    let mut daemon2 = daemon2;
    let status = daemon2.wait().unwrap();
    assert_eq!(status.code(), Some(0), "drain is a clean exit: {}", read(&log2));
    assert!(read(&log2).contains("drained;"), "{}", read(&log2));
    assert!(
        !spool.join("daemon.addr").exists(),
        "the discovery file is removed on drain"
    );
}

/// Backpressure: with a queue depth of 1 and one worker, a second distinct
/// submission is rejected with a retry-after hint and exit code 1 — not
/// queued unboundedly, not dropped silently.
#[test]
fn overload_is_rejected_with_retry_after() {
    let dir = scratch("overload");
    let spool = dir.join("spool");
    let log = dir.join("daemon.log");
    let daemon = start_daemon(&spool, &log, &["--queue-depth", "1", "--workers", "1"]);

    let first = submit(&spool, &JOB);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    job_hash(&first.stdout);

    // A *different* request (other seed) while the queue is full.
    let second = submit(&spool, &["suite:s298", "--random", "2048", "--seed", "8"]);
    assert_eq!(second.status.code(), Some(1), "rejection is exit 1");
    let err = String::from_utf8_lossy(&second.stderr);
    assert!(err.contains("rejected: queue full"), "{err}");
    assert!(err.contains("retry after"), "{err}");
    assert!(err.contains("1000 ms"), "{err}");

    // The same request again is a coalesce, not a rejection: dedupe wins
    // over backpressure.
    let again = submit(&spool, &JOB);
    assert!(again.status.success(), "{}", String::from_utf8_lossy(&again.stderr));
    assert!(
        String::from_utf8_lossy(&again.stdout).contains("coalesced: job"),
        "{}",
        String::from_utf8_lossy(&again.stdout)
    );

    // Drain with the job still in flight: the daemon interrupts it at a
    // batch boundary, leaves it spooled for the next daemon, and exits 0.
    send_signal(&daemon, "-TERM");
    let mut daemon = daemon;
    let status = daemon.wait().unwrap();
    assert_eq!(status.code(), Some(0), "{}", read(&log));
    assert!(read(&log).contains("drained;"), "{}", read(&log));
}

/// Satellite: the first SIGINT to a plain `moa campaign` checkpoints,
/// prints the resume hint, and exits 0; the resumed run reproduces the
/// uninterrupted run's verdict digest bit-for-bit.
#[test]
fn campaign_sigint_checkpoints_and_resume_reproduces_the_digest() {
    let dir = scratch("sigint");
    let ckpt = dir.join("interrupted.checkpoint");
    let ckpt_s = ckpt.to_string_lossy().into_owned();
    let common = [
        "campaign",
        "suite:s298",
        "--random",
        "2048",
        "--seed",
        "7",
        "--proposed",
    ];

    // Reference: the same campaign, never interrupted.
    let clean = moa().args(common).output().unwrap();
    assert!(clean.status.success());
    let clean_digest = summary_digest(&clean.stdout);

    // Checkpoint every 8 faults and interrupt once the first checkpoint is
    // on disk: the signal then lands mid-campaign in debug and release
    // builds alike, where a fixed delay can outlast the whole campaign.
    let child = moa()
        .args(common)
        .args(["--checkpoint", &ckpt_s, "--checkpoint-every", "8"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    wait_for("the first checkpoint", Duration::from_secs(30), || ckpt.exists());
    send_signal(&child, "-INT");
    let out = child.wait_with_output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "a graceful interrupt is not a failure: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("interrupted by signal"), "{text}");
    assert!(text.contains("resume with --resume"), "{text}");
    assert!(ckpt.exists(), "progress must be checkpointed");

    let resumed = moa()
        .args(common)
        .args(["--checkpoint", &ckpt_s, "--resume"])
        .output()
        .unwrap();
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        summary_digest(&resumed.stdout),
        clean_digest,
        "interrupt + resume must reproduce the uninterrupted verdicts"
    );
}

/// Starts `moa work` against the daemon spooling at `spool`, logging to
/// `log`.
fn start_worker(spool: &Path, dir: &Path, log: &Path, extra: &[&str]) -> Child {
    let logf = std::fs::File::create(log).unwrap();
    let errf = logf.try_clone().unwrap();
    moa()
        .arg("work")
        .arg("--spool")
        .arg(spool)
        .arg("--scratch")
        .arg(dir.join("scratch"))
        .args(extra)
        .stdout(Stdio::from(logf))
        .stderr(Stdio::from(errf))
        .spawn()
        .unwrap()
}

/// Waits for `child` to exit; returns its exit code and when it exited.
fn wait_exit(child: &mut Child, timeout: Duration) -> (Option<i32>, Instant) {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return (status.code(), Instant::now());
        }
        if start.elapsed() > timeout {
            let _ = child.kill();
            let _ = child.wait();
            panic!("the process did not exit within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// An idle worker waits inside a blocked lease, yet still exits promptly
/// and cleanly on its first SIGTERM.
#[test]
fn idle_worker_blocked_in_a_lease_exits_promptly_on_sigterm() {
    let dir = scratch("idle-sigterm");
    let spool = dir.join("spool");
    let log = dir.join("daemon.log");
    let mut daemon = start_daemon(&spool, &log, &["--dispatch"]);
    let worker_log = dir.join("worker.log");
    let mut worker = start_worker(&spool, &dir, &worker_log, &[]);
    wait_for("the worker to connect", Duration::from_secs(30), || {
        read(&worker_log).contains("connected to")
    });
    // Let its first lease request reach the daemon and block there.
    std::thread::sleep(Duration::from_millis(300));
    let signalled = Instant::now();
    send_signal(&worker, "-TERM");
    let (code, exited) = wait_exit(&mut worker, Duration::from_secs(30));
    send_signal(&daemon, "-TERM");
    assert_eq!(daemon.wait().unwrap().code(), Some(0), "{}", read(&log));

    let took = exited.saturating_duration_since(signalled);
    assert_eq!(code, Some(0), "{}", read(&worker_log));
    assert!(
        read(&worker_log).contains("interrupted; exiting"),
        "{}",
        read(&worker_log)
    );
    assert!(took < Duration::from_secs(1), "exited {took:?} after SIGTERM");
}

/// `--max-idle-ms` still ends a worker whose lease is blocked in the daemon.
#[test]
fn idle_limit_ends_a_worker_blocked_in_a_lease() {
    let dir = scratch("idle-limit");
    let spool = dir.join("spool");
    let log = dir.join("daemon.log");
    let mut daemon = start_daemon(&spool, &log, &["--dispatch"]);
    let worker_log = dir.join("worker.log");
    let started = Instant::now();
    let mut worker = start_worker(&spool, &dir, &worker_log, &["--max-idle-ms", "300"]);
    let (code, exited) = wait_exit(&mut worker, Duration::from_secs(30));
    send_signal(&daemon, "-TERM");
    assert_eq!(daemon.wait().unwrap().code(), Some(0), "{}", read(&log));

    let took = exited.saturating_duration_since(started);
    assert_eq!(code, Some(0), "{}", read(&worker_log));
    assert!(
        read(&worker_log).contains("idle limit reached"),
        "{}",
        read(&worker_log)
    );
    assert!(took < Duration::from_secs(2), "exited {took:?} after start");
}
