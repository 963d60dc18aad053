//! `moa work` — an out-of-process shard worker for a `moa serve --dispatch`
//! daemon.
//!
//! The worker is deliberately dumb: it holds no campaign state of its own.
//! It pulls one shard assignment at a time over the newline-JSON protocol,
//! runs it with the same resumable [`run_shard`](moa_core::run_shard) engine
//! the daemon's in-process shards use, and streams the finished checkpoint-v2
//! shard file back content-addressed by the job's canonical hash. Everything
//! that makes the system exactly-once — leases, attempt budgets, strict
//! upload validation, the tiling check at merge — lives in the daemon, and
//! so does the certificate audit of an audited job: a worker never audits.
//!
//! An idle worker holds one `lease` request open: the daemon answers it as
//! soon as a shard becomes grantable (or drain starts), and with `idle`
//! after `LEASE_WAIT`, whereupon the worker asks again at once. So an idle
//! worker sends at most one request per `LEASE_WAIT`, and a new job starts
//! without waiting for a poll. While it waits, the worker reads the reply
//! in `LEASE_SLICE`s of 100 ms, so its first SIGINT/SIGTERM or
//! `--max-idle-ms` still ends it promptly.
//!
//! Failure handling:
//!
//! - **Daemon unreachable** — reconnect with jittered exponential backoff.
//!   Scratch checkpoints survive, so a re-leased shard resumes rather than
//!   restarts.
//! - **Lease lost mid-shard** (worker was too slow, daemon drained, or the
//!   daemon restarted) — the heartbeat probe doubles as the campaign's
//!   cooperative cancel flag: the engine stops at the next batch boundary,
//!   the partial checkpoint stays in scratch, and the worker goes back to
//!   leasing.
//! - **Shard error** — reported to the daemon via the `fail` op so the
//!   attempt budget can quarantine crash-looping shards instead of letting
//!   them spin forever.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use moa_core::JobSpec;
use moa_netlist::full_fault_list;

use crate::commands::serve::{field, Connection, ADDR_FILE, LEASE_WAIT};
use crate::jsonx::{hex_encode, Json};
use crate::{signals, ArgParser, CliError};

const WORK_USAGE: &str = "usage: moa work --connect HOST:PORT | --addr HOST:PORT | --spool DIR \
[--scratch DIR] [--worker-id ID] [--max-idle-ms MS]";

/// Socket timeouts for worker connections. Every daemon reply is computed
/// in-memory, so anything slower than this means the daemon is gone.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// How often a worker waiting on a lease reply checks for a signal and its
/// idle limit.
const LEASE_SLICE: Duration = Duration::from_millis(100);

/// Reconnect backoff: 100 ms doubling to a 5 s ceiling, plus per-worker
/// jitter so a fleet restarted together does not reconnect in lockstep.
const BACKOFF_BASE_MS: u64 = 100;
const BACKOFF_CAP_MS: u64 = 5_000;

pub fn run(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(
        args,
        WORK_USAGE,
        &["connect", "addr", "spool", "scratch", "worker-id", "max-idle-ms"],
        &[],
    )?;
    // `--connect` is the documented spelling; `--addr`/`--spool` mirror the
    // other daemon clients for consistency. A spool target is re-resolved on
    // every reconnect: a restarted daemon binds a fresh ephemeral port and
    // rewrites the discovery file, and the worker must follow it there.
    let target = match (parser.flag("connect").or(parser.flag("addr")), parser.flag("spool")) {
        (Some(addr), _) => Target::Fixed(addr.to_owned()),
        (None, Some(spool)) => Target::Spool(PathBuf::from(spool)),
        (None, None) => {
            return Err(CliError::Usage(format!(
                "need --connect/--addr HOST:PORT or --spool DIR to find the daemon\n\n{WORK_USAGE}"
            )));
        }
    };
    let worker_id = match parser.flag("worker-id") {
        Some(id) => id.to_owned(),
        None => format!("worker-{}", std::process::id()),
    };
    let scratch_root = match parser.flag("scratch") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("moa-work-{worker_id}")),
    };
    let max_idle = match parser.num("max-idle-ms", 0u64)? {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };

    signals::install();
    writeln!(out, "worker {worker_id}: dialing {}", target.describe())?;
    out.flush()?;

    let mut idle_since = Instant::now();
    let mut connect_attempt = 0u32;
    'outer: while !signals::interrupted() {
        if idled_out(max_idle, idle_since) {
            writeln!(out, "worker {worker_id}: idle limit reached; exiting")?;
            return Ok(());
        }
        let (addr, mut conn) = match target.resolve().and_then(|addr| {
            Connection::open_with_timeouts(&addr, READ_TIMEOUT, WRITE_TIMEOUT)
                .map(|conn| (addr, conn))
        }) {
            Ok(pair) => {
                connect_attempt = 0;
                pair
            }
            Err(e) => {
                connect_attempt += 1;
                let wait = backoff_ms(&worker_id, connect_attempt);
                writeln!(out, "worker {worker_id}: {e}; retrying in {wait} ms")?;
                out.flush()?;
                sleep_interruptible(Duration::from_millis(wait));
                continue;
            }
        };
        writeln!(out, "worker {worker_id}: connected to {addr}")?;
        out.flush()?;

        while !signals::interrupted() {
            if idled_out(max_idle, idle_since) {
                writeln!(out, "worker {worker_id}: idle limit reached; exiting")?;
                return Ok(());
            }
            let stop = || signals::interrupted() || idled_out(max_idle, idle_since);
            let reply = match conn
                .send(&Json::obj(vec![
                    ("op", Json::str("lease")),
                    ("worker", Json::str(worker_id.clone())),
                ]))
                .and_then(|()| {
                    conn.read_reply_sliced(LEASE_SLICE, LEASE_WAIT + READ_TIMEOUT, stop)
                }) {
                Ok(Some(reply)) => reply,
                // A signal or the idle limit; the loop checks report which.
                Ok(None) => continue,
                Err(e) => {
                    // Daemon errors (an armed failpoint, a restart mid-reply)
                    // and transport errors both land here: drop the
                    // connection and re-dial with backoff.
                    writeln!(out, "worker {worker_id}: lease failed ({e}); reconnecting")?;
                    out.flush()?;
                    sleep_interruptible(Duration::from_millis(backoff_ms(&worker_id, 1)));
                    continue 'outer;
                }
            };
            match field(&reply, "outcome") {
                "draining" => {
                    writeln!(out, "worker {worker_id}: daemon is draining; exiting")?;
                    return Ok(());
                }
                "idle" => {}
                "assigned" => {
                    if run_assignment(&mut conn, &addr, &worker_id, &scratch_root, &reply, out)
                        .is_err()
                    {
                        // The upload/report path lost the daemon; the lease
                        // expires server-side and the shard is re-dispatched.
                        sleep_interruptible(Duration::from_millis(backoff_ms(&worker_id, 1)));
                        continue 'outer;
                    }
                    idle_since = Instant::now();
                }
                other => {
                    return Err(CliError::Failed(format!(
                        "unexpected lease outcome `{other}` from the daemon"
                    )));
                }
            }
        }
    }
    writeln!(out, "worker {worker_id}: interrupted; exiting")?;
    Ok(())
}

/// Where to find the daemon.
enum Target {
    /// An explicit `--connect`/`--addr HOST:PORT`.
    Fixed(String),
    /// A `--spool DIR` whose `daemon.addr` discovery file is re-read on
    /// every reconnect, so the worker follows a restarted daemon to its new
    /// ephemeral port.
    Spool(PathBuf),
}

impl Target {
    fn describe(&self) -> String {
        match self {
            Target::Fixed(addr) => addr.clone(),
            Target::Spool(dir) => format!("the daemon spooling at {}", dir.display()),
        }
    }

    fn resolve(&self) -> Result<String, CliError> {
        match self {
            Target::Fixed(addr) => Ok(addr.clone()),
            Target::Spool(dir) => {
                let path = dir.join(ADDR_FILE);
                let text = std::fs::read_to_string(&path).map_err(|e| {
                    CliError::Failed(format!(
                        "cannot read `{}` (is the daemon up?): {e}",
                        path.display()
                    ))
                })?;
                Ok(text.trim().to_owned())
            }
        }
    }
}

/// Runs one leased shard and reports the outcome. `Err` means the control
/// connection itself died (the caller reconnects); shard-level problems are
/// reported in-band via the `fail` op and return `Ok`.
fn run_assignment(
    conn: &mut Connection,
    addr: &str,
    worker_id: &str,
    scratch_root: &std::path::Path,
    reply: &Json,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let job = field(reply, "job").to_owned();
    let Some(shard) = reply
        .get("shard")
        .and_then(Json::as_u64)
        .and_then(|v| usize::try_from(v).ok())
    else {
        return Err(CliError::Failed("assignment without a shard id".into()));
    };
    let shards = reply
        .get("shards")
        .and_then(Json::as_u64)
        .and_then(|v| usize::try_from(v).ok())
        .unwrap_or(1);
    let heartbeat_ms = reply
        .get("heartbeat_ms")
        .and_then(Json::as_u64)
        .unwrap_or(2_000);
    writeln!(
        out,
        "worker {worker_id}: leased shard {shard}/{shards} of job {job}"
    )?;
    out.flush()?;

    // The spec travels with the assignment; re-deriving its content address
    // proves the daemon handed us what the hash promises.
    let spec = match JobSpec::parse(field(reply, "spec")) {
        Ok(spec) if spec.hash().to_string() == job => spec,
        Ok(spec) => {
            let message = format!(
                "assignment spec hashes to {} but was addressed as {job}",
                spec.hash()
            );
            return report_failure(conn, worker_id, &job, shard, &message, out);
        }
        Err(e) => {
            let message = format!("assignment spec does not parse: {e}");
            return report_failure(conn, worker_id, &job, shard, &message, out);
        }
    };

    let scratch = scratch_root.join(format!("job-{job}"));
    let probe = HeartbeatProbe::new(addr, worker_id, &job, shard, heartbeat_ms);
    let mut base = spec.options.clone();
    base.cancel = {
        let probe = std::sync::Arc::new(probe);
        Some(std::sync::Arc::new(move || probe.lost()))
    };

    let faults = full_fault_list(&spec.circuit);
    match moa_core::run_shard(&spec.circuit, &spec.seq, &faults, &base, shards, shard, &scratch) {
        Ok(_) => {
            let path = moa_core::shard_path(&scratch, shard);
            let bytes = std::fs::read(&path).map_err(|e| {
                CliError::Failed(format!("cannot read finished shard {}: {e}", path.display()))
            })?;
            let upload = conn.request(&Json::obj(vec![
                ("op", Json::str("complete")),
                ("worker", Json::str(worker_id)),
                ("job", Json::str(job.clone())),
                ("shard", Json::num(shard as u64)),
                ("data", Json::str(hex_encode(&bytes))),
            ]))?;
            let outcome = field(&upload, "outcome");
            writeln!(
                out,
                "worker {worker_id}: shard {shard} of job {job} uploaded ({outcome})"
            )?;
            out.flush()?;
            // Accepted, duplicate (someone beat us to it), or rejected
            // (stale attempt): in every case this scratch copy is spent.
            let _ = std::fs::remove_file(&path);
            Ok(())
        }
        Err(moa_core::Error::Interrupted { completed, total }) => {
            // Lease lost or operator signal: the partial checkpoint stays in
            // scratch so a future lease of this shard resumes, not restarts.
            writeln!(
                out,
                "worker {worker_id}: shard {shard} of job {job} interrupted at \
                 {completed}/{total}; abandoning the lease"
            )?;
            out.flush()?;
            Ok(())
        }
        Err(e) => report_failure(conn, worker_id, &job, shard, &e.to_string(), out),
    }
}

/// Tells the daemon a shard attempt failed so its attempt budget advances.
fn report_failure(
    conn: &mut Connection,
    worker_id: &str,
    job: &str,
    shard: usize,
    message: &str,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    writeln!(
        out,
        "worker {worker_id}: shard {shard} of job {job} failed: {message}"
    )?;
    out.flush()?;
    conn.request(&Json::obj(vec![
        ("op", Json::str("fail")),
        ("worker", Json::str(worker_id)),
        ("job", Json::str(job)),
        ("shard", Json::num(shard as u64)),
        ("error", Json::str(message)),
    ]))?;
    Ok(())
}

/// The campaign's cooperative cancel flag doubled as a lease heartbeat.
///
/// The engine polls the cancel probe at every batch boundary; this probe
/// rate-limits those polls down to the daemon's advertised heartbeat
/// interval and sends `{"op":"heartbeat"}` on its own connection (the main
/// connection is idle but borrowed while `run_shard` runs). A `lost` reply,
/// a dead daemon, or an operator signal all read as "cancel": the engine
/// checkpoints and returns [`Error::Interrupted`](moa_core::Error).
struct HeartbeatProbe {
    addr: String,
    worker: String,
    job: String,
    shard: usize,
    every: Duration,
    state: Mutex<ProbeState>,
}

struct ProbeState {
    conn: Option<Connection>,
    last_beat: Instant,
    lost: bool,
}

impl HeartbeatProbe {
    fn new(addr: &str, worker: &str, job: &str, shard: usize, heartbeat_ms: u64) -> HeartbeatProbe {
        HeartbeatProbe {
            addr: addr.to_owned(),
            worker: worker.to_owned(),
            job: job.to_owned(),
            shard,
            every: Duration::from_millis(heartbeat_ms.max(1)),
            state: Mutex::new(ProbeState {
                conn: None,
                last_beat: Instant::now(),
                lost: false,
            }),
        }
    }

    /// `true` once the lease is gone (or the process is shutting down) —
    /// i.e. the value the campaign's cancel probe wants.
    fn lost(&self) -> bool {
        if signals::interrupted() {
            return true;
        }
        let Ok(mut state) = self.state.lock() else {
            return true; // a panicked beat poisons toward safety: stop
        };
        if state.lost {
            return true;
        }
        if state.last_beat.elapsed() < self.every {
            return false;
        }
        state.last_beat = Instant::now();
        if let Ok(held) = self.beat(&mut state) {
            state.lost = !held;
        } else {
            // The daemon is unreachable: the lease will expire there and
            // the shard will be re-dispatched, so keeping this attempt
            // running could only waste work. Stop and checkpoint.
            state.conn = None;
            state.lost = true;
        }
        state.lost
    }

    fn beat(&self, state: &mut ProbeState) -> Result<bool, CliError> {
        if state.conn.is_none() {
            state.conn = Some(Connection::open_with_timeouts(
                &self.addr,
                READ_TIMEOUT,
                WRITE_TIMEOUT,
            )?);
        }
        let conn = state.conn.as_mut().expect("just installed");
        let reply = conn.request(&Json::obj(vec![
            ("op", Json::str("heartbeat")),
            ("worker", Json::str(self.worker.clone())),
            ("job", Json::str(self.job.clone())),
            ("shard", Json::num(self.shard as u64)),
        ]))?;
        Ok(field(&reply, "lease") == "held")
    }
}

fn idled_out(max_idle: Option<Duration>, idle_since: Instant) -> bool {
    max_idle.is_some_and(|limit| idle_since.elapsed() >= limit)
}

/// Exponential backoff with deterministic per-worker jitter (an fnv/murmur
/// style mix of the worker id and attempt count — no clock, no RNG dep), so
/// a fleet killed together does not hammer the daemon back in lockstep.
fn backoff_ms(worker_id: &str, attempt: u32) -> u64 {
    let exp = BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(10))
        .min(BACKOFF_CAP_MS);
    let mut x = 0xcbf2_9ce4_8422_2325u64;
    for b in worker_id.bytes() {
        x = (x ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    x ^= u64::from(attempt);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    exp + x % 250
}

/// Sleeps in small slices so a SIGINT lands promptly.
fn sleep_interruptible(total: Duration) {
    let slice = Duration::from_millis(25);
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !signals::interrupted() {
        std::thread::sleep(slice.min(deadline.saturating_duration_since(Instant::now())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_per_worker() {
        assert!(backoff_ms("w", 1) >= BACKOFF_BASE_MS);
        assert!(backoff_ms("w", 20) <= BACKOFF_CAP_MS + 250);
        let a = backoff_ms("worker-a", 3);
        let b = backoff_ms("worker-b", 3);
        assert!(backoff_ms("worker-a", 3) == a, "jitter is deterministic");
        assert!(a != b, "distinct workers jitter apart");
    }

    #[test]
    fn usage_errors_without_a_daemon_address() {
        let mut out = Vec::new();
        let err = run(&[], &mut out).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--addr"), "{err}");
    }
}
