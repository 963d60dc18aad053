//! `moa serve` / `moa submit` / `moa status` — the campaign daemon and its
//! clients.
//!
//! The daemon wraps the in-process engine ([`moa_core::serve`]) in a TCP
//! transport: newline-delimited JSON requests on a `std::net` listener, one
//! handler thread per connection. All robustness properties (bounded
//! admission, dedupe cache, poison quarantine, crash recovery) live in the
//! engine; this module only frames requests, installs the two-stage signal
//! handler, and turns the first SIGINT/SIGTERM into a graceful
//! [`drain`](Server::drain).
//!
//! ## Protocol
//!
//! One JSON object per line, in both directions:
//!
//! ```text
//! -> {"op":"submit","spec":"moa-job-spec v1\n..."}
//! <- {"ok":true,"outcome":"accepted","job":"<32-hex hash>"}
//! <- {"ok":true,"outcome":"cached","job":"…","digest":"…","detected":N,
//!     "total":N,"gate_evals":0}
//! -> {"op":"status"}              |  {"op":"status","job":"<hash>"}
//! <- {"ok":true,"queued":N,...}   |  {"ok":true,"job":"…","state":"done",...}
//! -> {"op":"watch","job":"<hash>"}
//! <- {"ok":true,"event":"started","job":"…"}   (streamed until terminal)
//! <- {"ok":true,"event":"done","job":"…","digest":"…"}
//! ```
//!
//! With `--dispatch`, four more ops serve `moa work` processes (shard
//! payloads ride as lowercase hex inside JSON strings):
//!
//! ```text
//! -> {"op":"lease","worker":"w1"}
//! <- {"ok":true,"outcome":"assigned","job":"…","shard":0,"shards":2,
//!     "attempt":1,"lease_ms":10000,"heartbeat_ms":2000,"spec":"…"}
//! <- {"ok":true,"outcome":"idle"} | {"ok":true,"outcome":"draining"}
//! -> {"op":"heartbeat","worker":"w1","job":"…","shard":0}
//! <- {"ok":true,"lease":"held"} | {"ok":true,"lease":"lost"}
//! -> {"op":"complete","worker":"w1","job":"…","shard":0,"data":"<hex>"}
//! <- {"ok":true,"outcome":"accepted"|"duplicate"|"rejected","reason":…}
//! -> {"op":"fail","worker":"w1","job":"…","shard":0,"error":"…"}
//! <- {"ok":true}
//! ```
//!
//! A `lease` with nothing to grant blocks for up to `LEASE_WAIT` (10 s): it
//! answers `assigned` as soon as a shard becomes grantable, `draining` as
//! soon as drain starts, and `idle` only when the wait passes. A worker that
//! hangs up while it waits is never granted a shard.
//!
//! Submissions reuse the spool's [`JobSpec`] text as their wire payload, so
//! the daemon validates them with exactly the parser that guards the spool,
//! and client and server compute the same canonical job hash.
//!
//! Connections are hardened against stalled and hostile peers: every socket
//! carries read/write timeouts, and request lines are length-bounded — an
//! oversized line answers a structured error and drops the connection
//! (framing past the bound is unrecoverable).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moa_core::{
    verdict_digest, CampaignOptions, CanonHash, Completion, DispatchOptions, Dispatcher, Event,
    Heartbeat, JobSpec, JobStatus, Lease, ServeOptions, Server, Submit,
};
use moa_netlist::write_bench;

use crate::commands::{
    audit_peeled, fault_budget_from_args, moa_options_from_args, sequence_from_args,
    shards_from_args,
};
use crate::jsonx::{hex_decode, Json};
use crate::{load_circuit, signals, ArgParser, CliError};

const SERVE_USAGE: &str = "usage: moa serve --spool DIR [--addr HOST:PORT] [--workers N] \
[--queue-depth N] [--job-attempts N] [--shards N] \
[--dispatch [--lease-ms MS] [--heartbeat-ms MS] [--dispatch-attempts N]]";

const SUBMIT_USAGE: &str = "usage: moa submit <bench-file> [--addr HOST:PORT | --spool DIR] \
[--words p,... | --random L [--seed S] | --seq-file F] [--wait] [--n-states N] [--depth K] \
[--rounds R] [--budget B] [--threads T] [--deadline-ms MS] [--work-limit W] [--max-frontier N] \
[--audit[=N]] [--baseline] [--learn] [--prune-untestable] [--degrade]";

const STATUS_USAGE: &str = "usage: moa status [--addr HOST:PORT | --spool DIR] [--job HASH]";

/// The name of the address-discovery file the daemon drops into its spool.
pub(crate) const ADDR_FILE: &str = "daemon.addr";

/// How long a `lease` with nothing to grant blocks before it answers
/// `idle`. Well inside a worker's socket read timeout, so a blocked lease
/// never reads as a dead daemon.
pub(crate) const LEASE_WAIT: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// moa serve
// ---------------------------------------------------------------------------

pub fn run_serve(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(
        args,
        SERVE_USAGE,
        &[
            "spool",
            "addr",
            "workers",
            "queue-depth",
            "job-attempts",
            "shards",
            "lease-ms",
            "heartbeat-ms",
            "dispatch-attempts",
        ],
        &["dispatch"],
    )?;
    let spool_dir = parser.flag("spool").ok_or_else(|| {
        CliError::Usage(format!("--spool DIR is required\n\n{SERVE_USAGE}"))
    })?;
    let mut options = ServeOptions::new(spool_dir);
    options.queue_depth = parser.num("queue-depth", options.queue_depth)?;
    options.workers = parser.num("workers", options.workers)?;
    options.job_attempts = parser.num("job-attempts", options.job_attempts)?;
    options.shards = shards_from_args(&parser)?.unwrap_or(options.shards);
    options.dispatch = dispatch_options_from_args(&parser)?;
    let bind_addr = parser.flag("addr").unwrap_or("127.0.0.1:0").to_owned();

    let failed = |e: moa_core::Error| CliError::Failed(e.to_string());
    let server = Server::start(options).map_err(failed)?;

    // Crash-recovery report first: an operator restarting after a crash
    // (or a CI smoke grepping for re-adoption) sees what the spool held.
    let recovery = server.recovery().clone();
    writeln!(
        out,
        "spool recovery: {} cached result(s), {} previously poisoned job(s)",
        recovery.cached, recovery.poisoned
    )?;
    for hash in &recovery.adopted {
        writeln!(out, "re-adopted job {hash}")?;
    }
    for hash in &recovery.newly_poisoned {
        writeln!(
            out,
            "poisoned on recovery: job {hash} (attempt budget exhausted by earlier daemons)"
        )?;
    }

    let listener = TcpListener::bind(&bind_addr)
        .map_err(|e| CliError::Failed(format!("cannot bind `{bind_addr}`: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError::Failed(format!("cannot read the bound address: {e}")))?;

    // Discovery hint for `moa submit/status --spool DIR` and for CI jobs
    // that bind port 0.
    let addr_file = server.spool().root().join(ADDR_FILE);
    std::fs::write(&addr_file, format!("{local}\n"))
        .map_err(|e| CliError::Failed(format!("cannot write `{}`: {e}", addr_file.display())))?;

    writeln!(out, "listening on {local}")?;
    if let Some(dispatcher) = server.dispatcher() {
        let policy = dispatcher.options();
        writeln!(
            out,
            "dispatch mode: leases of {} ms, heartbeats every {} ms, {} attempt(s) per shard",
            policy.lease.as_millis(),
            policy.heartbeat.as_millis(),
            policy.attempts,
        )?;
    }
    out.flush()?;

    signals::install();
    // The accept below blocks, and a signal does not interrupt it (the
    // handler restarts system calls), so a watcher thread wakes it with one
    // connection to our own address once the signal flag is set.
    let waker = std::thread::Builder::new()
        .name("moa-serve-signal".into())
        .spawn(move || {
            while !signals::interrupted() {
                std::thread::sleep(Duration::from_millis(25));
            }
            let _ = TcpStream::connect(local);
        })
        .map_err(|e| CliError::Failed(format!("cannot start the signal watcher: {e}")))?;
    let server = Arc::new(server);
    loop {
        let accepted = listener.accept();
        if signals::interrupted() {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let server = Arc::clone(&server);
                // Handler threads are detached: they die with the process
                // (after drain the main thread returns and the process
                // exits; in-flight responses get best-effort completion).
                let _ = std::thread::Builder::new()
                    .name("moa-serve-conn".into())
                    .spawn(move || handle_connection(&server, stream, ConnLimits::default()));
            }
            // Transient accept errors (EMFILE, ECONNABORTED): keep serving.
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    let _ = waker.join();

    writeln!(out, "signal received: draining (a second signal force-quits)")?;
    out.flush()?;
    let leftover = server.drain().map_err(failed)?;
    let _ = std::fs::remove_file(&addr_file);
    writeln!(
        out,
        "drained; {leftover} job(s) left queued for the next daemon to adopt"
    )?;
    Ok(())
}

/// Parses `--dispatch` and its knobs. The knobs are rejected without the
/// switch so a typo'd invocation cannot silently run in the wrong mode.
fn dispatch_options_from_args(parser: &ArgParser) -> Result<Option<DispatchOptions>, CliError> {
    let knobs = ["lease-ms", "heartbeat-ms", "dispatch-attempts"];
    if !parser.switch("dispatch") {
        if let Some(knob) = knobs.iter().find(|k| parser.flag(k).is_some()) {
            return Err(CliError::Usage(format!(
                "--{knob} requires --dispatch\n\n{SERVE_USAGE}"
            )));
        }
        return Ok(None);
    }
    let defaults = DispatchOptions::default();
    let lease =
        Duration::from_millis(parser.num("lease-ms", defaults.lease.as_millis() as u64)?);
    let heartbeat =
        Duration::from_millis(parser.num("heartbeat-ms", defaults.heartbeat.as_millis() as u64)?);
    let attempts = parser.num("dispatch-attempts", defaults.attempts)?;
    if attempts == 0 {
        return Err(CliError::Usage(format!(
            "--dispatch-attempts must be at least 1\n\n{SERVE_USAGE}"
        )));
    }
    if heartbeat.is_zero() || lease < heartbeat.saturating_mul(2) {
        return Err(CliError::Usage(format!(
            "--lease-ms must be at least twice --heartbeat-ms (and both nonzero), got lease {} ms \
             and heartbeat {} ms\n\n{SERVE_USAGE}",
            lease.as_millis(),
            heartbeat.as_millis()
        )));
    }
    Ok(Some(DispatchOptions {
        lease,
        heartbeat,
        attempts,
        ..defaults
    }))
}

/// Per-connection safety limits. The read timeout bounds how long an idle
/// or stalled peer may pin a handler thread; the line bound caps memory a
/// single request can make the daemon buffer.
#[derive(Clone, Copy)]
struct ConnLimits {
    read_timeout: Duration,
    write_timeout: Duration,
    max_line: usize,
}

impl Default for ConnLimits {
    fn default() -> ConnLimits {
        ConnLimits {
            read_timeout: Duration::from_mins(2),
            write_timeout: Duration::from_secs(30),
            // Job specs embed whole bench files and shard uploads ride as
            // hex, so lines are large but bounded: 64 MiB covers any
            // realistic shard at 2x headroom.
            max_line: 64 << 20,
        }
    }
}

/// Reads one `\n`-terminated line of at most `max` bytes. `Ok(None)` is a
/// clean EOF. An oversized line is an `InvalidData` error: the framing past
/// the bound is unrecoverable, so the caller must drop the connection.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
) -> std::io::Result<Option<String>> {
    #[cfg(feature = "failpoints")]
    if let Some(e) = moa_core::failpoint::io_error("fp/serve.recv") {
        return Err(e);
    }
    let mut buf = Vec::new();
    let n = reader.by_ref().take(max as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.len() > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("request line exceeds the {max}-byte limit"),
        ));
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf).map(Some).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "request line is not UTF-8",
        )
    })
}

/// Serves one client connection: one JSON request per line, one (or for
/// `watch`, many) JSON response line(s) each.
fn handle_connection(server: &Server, stream: TcpStream, limits: ConnLimits) {
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    loop {
        let line = match read_bounded_line(&mut reader, limits.max_line) {
            Ok(Some(line)) => line,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Tell the peer why before hanging up; the stream cannot be
                // re-framed after an oversized or non-UTF-8 line. Half-close
                // first: closing with unread request bytes sends a reset in
                // place of the end of stream the peer should read.
                let _ = send(
                    &mut writer,
                    &Json::obj(vec![
                        ("ok", Json::Bool(false)),
                        ("error", Json::str(e.to_string())),
                    ]),
                );
                let _ = writer.shutdown(std::net::Shutdown::Write);
                return;
            }
            // Clean EOF, timeout, or connection error: nothing to say.
            Ok(None) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let outcome = match dispatch(server, &line, &mut writer) {
            Ok(Some(reply)) => send(&mut writer, &reply),
            Ok(None) => Ok(()), // `watch` wrote its own stream
            Err(message) => send(
                &mut writer,
                &Json::obj(vec![
                    ("ok", Json::Bool(false)),
                    ("error", Json::str(message)),
                ]),
            ),
        };
        if outcome.is_err() {
            return; // client went away
        }
    }
}

fn send(writer: &mut TcpStream, value: &Json) -> std::io::Result<()> {
    #[cfg(feature = "failpoints")]
    if let Some(e) = moa_core::failpoint::io_error("fp/serve.send") {
        return Err(e);
    }
    let mut line = value.render();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Handles one request. `Ok(Some(_))` is a single reply, `Ok(None)` means
/// the op streamed its own lines, `Err` becomes an `{"ok":false}` reply.
fn dispatch(server: &Server, line: &str, writer: &mut TcpStream) -> Result<Option<Json>, String> {
    let request = Json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let op = request
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs an `op` string".to_owned())?;
    match op {
        "submit" => {
            let text = request
                .get("spec")
                .and_then(Json::as_str)
                .ok_or_else(|| "submit needs a `spec` string (job-spec text)".to_owned())?;
            let spec = JobSpec::parse(text).map_err(|e| e.to_string())?;
            let submit = server.submit(&spec).map_err(|e| e.to_string())?;
            Ok(Some(submit_reply(&submit)))
        }
        "status" => match request.get("job") {
            None => {
                let stats = server.stats().map_err(|e| e.to_string())?;
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("queued", Json::num(stats.queued as u64)),
                    ("running", Json::num(stats.running as u64)),
                    ("done", Json::num(stats.done as u64)),
                    ("poisoned", Json::num(stats.poisoned as u64)),
                ];
                if let Some(dispatcher) = server.dispatcher() {
                    let shards = dispatcher.stats().map_err(|e| e.to_string())?;
                    pairs.push(("shards_pending", Json::num(shards.pending as u64)));
                    pairs.push(("shards_leased", Json::num(shards.leased as u64)));
                    pairs.push(("shards_completed", Json::num(shards.completed as u64)));
                    pairs.push((
                        "shards_quarantined",
                        Json::num(shards.quarantined as u64),
                    ));
                }
                Ok(Some(Json::obj(pairs)))
            }
            Some(job) => {
                let hash = parse_hash(job)?;
                let status = server.job_status(hash).map_err(|e| e.to_string())?;
                Ok(Some(status_reply(hash, &status)))
            }
        },
        "watch" => {
            let hash = parse_hash(
                request
                    .get("job")
                    .ok_or_else(|| "watch needs a `job` hash".to_owned())?,
            )?;
            watch(server, hash, writer)?;
            Ok(None)
        }
        "lease" => {
            let d = dispatcher(server)?;
            let worker = str_field(&request, "worker", "lease")?;
            let lease = d
                .lease_wait(worker, LEASE_WAIT, || hung_up(writer))
                .map_err(|e| e.to_string())?;
            let reply = match lease {
                Lease::Assigned(a) => Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("outcome", Json::str("assigned")),
                    ("job", Json::str(a.job.to_string())),
                    ("shard", Json::num(a.shard as u64)),
                    ("shards", Json::num(a.shards as u64)),
                    ("attempt", Json::num(u64::from(a.attempt))),
                    ("lease_ms", Json::num(a.lease_ms)),
                    ("heartbeat_ms", Json::num(a.heartbeat_ms)),
                    ("spec", Json::str(a.spec)),
                ]),
                Lease::Idle {} => Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("outcome", Json::str("idle")),
                ]),
                Lease::Draining => Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("outcome", Json::str("draining")),
                ]),
            };
            Ok(Some(reply))
        }
        "heartbeat" => {
            let d = dispatcher(server)?;
            let worker = str_field(&request, "worker", "heartbeat")?;
            let job = parse_hash(
                request
                    .get("job")
                    .ok_or_else(|| "heartbeat needs a `job` hash".to_owned())?,
            )?;
            let shard = shard_field(&request, "heartbeat")?;
            let ack = d
                .heartbeat(worker, job, shard)
                .map_err(|e| e.to_string())?;
            Ok(Some(Json::obj(vec![
                ("ok", Json::Bool(true)),
                (
                    "lease",
                    Json::str(match ack {
                        Heartbeat::Held => "held",
                        Heartbeat::Lost => "lost",
                    }),
                ),
            ])))
        }
        "complete" => {
            let d = dispatcher(server)?;
            let worker = str_field(&request, "worker", "complete")?;
            let job = parse_hash(
                request
                    .get("job")
                    .ok_or_else(|| "complete needs a `job` hash".to_owned())?,
            )?;
            let shard = shard_field(&request, "complete")?;
            let data = str_field(&request, "data", "complete")?;
            let bytes =
                hex_decode(data).map_err(|e| format!("complete has bad `data` hex: {e}"))?;
            let reply = match d
                .complete(worker, job, shard, &bytes)
                .map_err(|e| e.to_string())?
            {
                Completion::Accepted => Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("outcome", Json::str("accepted")),
                ]),
                Completion::Duplicate => Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("outcome", Json::str("duplicate")),
                ]),
                Completion::Rejected { reason } => Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("outcome", Json::str("rejected")),
                    ("reason", Json::str(reason)),
                ]),
            };
            Ok(Some(reply))
        }
        "fail" => {
            let d = dispatcher(server)?;
            let worker = str_field(&request, "worker", "fail")?;
            let job = parse_hash(
                request
                    .get("job")
                    .ok_or_else(|| "fail needs a `job` hash".to_owned())?,
            )?;
            let shard = shard_field(&request, "fail")?;
            let error = str_field(&request, "error", "fail")?;
            d.fail(worker, job, shard, error).map_err(|e| e.to_string())?;
            Ok(Some(Json::obj(vec![("ok", Json::Bool(true))])))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Whether the peer of `stream` has hung up: a non-blocking peek that reads
/// end-of-stream or fails. Pipelined request bytes, or none yet, mean the
/// peer is still there.
fn hung_up(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        // A blocking peek would wait for the worker's next request.
        return false;
    }
    let gone = match stream.peek(&mut [0u8]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
        ),
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// The dispatch ops are only meaningful when the daemon runs `--dispatch`.
fn dispatcher(server: &Server) -> Result<&Arc<Dispatcher>, String> {
    server
        .dispatcher()
        .ok_or_else(|| "the daemon is not in dispatch mode (start it with --dispatch)".to_owned())
}

fn str_field<'a>(request: &'a Json, key: &str, op: &str) -> Result<&'a str, String> {
    request
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{op} needs a `{key}` string"))
}

fn shard_field(request: &Json, op: &str) -> Result<usize, String> {
    request
        .get("shard")
        .and_then(Json::as_u64)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| format!("{op} needs a `shard` number"))
}

fn parse_hash(value: &Json) -> Result<CanonHash, String> {
    let text = value
        .as_str()
        .ok_or_else(|| "`job` must be a 32-hex-digit string".to_owned())?;
    CanonHash::parse(text).ok_or_else(|| format!("`{text}` is not a 32-hex-digit job hash"))
}

fn submit_reply(submit: &Submit) -> Json {
    match submit {
        Submit::Accepted { hash } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("outcome", Json::str("accepted")),
            ("job", Json::str(hash.to_string())),
        ]),
        Submit::Coalesced { hash } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("outcome", Json::str("coalesced")),
            ("job", Json::str(hash.to_string())),
        ]),
        Submit::Cached { hash, result } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("outcome", Json::str("cached")),
            ("job", Json::str(hash.to_string())),
            ("digest", Json::str(verdict_digest(result).to_string())),
            ("detected", Json::num(result.detected_total() as u64)),
            ("total", Json::num(result.total_faults as u64)),
            ("gate_evals", Json::num(result.perf.gate_evals)),
        ]),
        Submit::Poisoned { hash, reason } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("outcome", Json::str("poisoned")),
            ("job", Json::str(hash.to_string())),
            ("reason", Json::str(reason.clone())),
        ]),
        Submit::Rejected {
            retry_after_ms,
            reason,
        } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("outcome", Json::str("rejected")),
            ("retry_after_ms", Json::num(*retry_after_ms)),
            ("reason", Json::str(reason.clone())),
        ]),
    }
}

fn status_reply(hash: CanonHash, status: &JobStatus) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("job", Json::str(hash.to_string())),
    ];
    match status {
        JobStatus::Queued => pairs.push(("state", Json::str("queued"))),
        JobStatus::Running => pairs.push(("state", Json::str("running"))),
        JobStatus::Done { digest } => {
            pairs.push(("state", Json::str("done")));
            pairs.push(("digest", Json::str(digest.to_string())));
        }
        JobStatus::Poisoned { reason } => {
            pairs.push(("state", Json::str("poisoned")));
            pairs.push(("reason", Json::str(reason.clone())));
        }
        JobStatus::Unknown => pairs.push(("state", Json::str("unknown"))),
    }
    Json::obj(pairs)
}

/// Streams the job's progress events until it reaches a terminal state.
/// Subscribe-then-check ordering closes the race where the job finishes
/// between the two.
fn watch(server: &Server, hash: CanonHash, writer: &mut TcpStream) -> Result<(), String> {
    let events = server.subscribe().map_err(|e| e.to_string())?;
    let gone = |_| "client disconnected".to_owned();
    loop {
        match server.job_status(hash).map_err(|e| e.to_string())? {
            JobStatus::Done { digest } => {
                send(
                    writer,
                    &Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("event", Json::str("done")),
                        ("job", Json::str(hash.to_string())),
                        ("digest", Json::str(digest.to_string())),
                    ]),
                )
                .map_err(gone)?;
                return Ok(());
            }
            JobStatus::Poisoned { reason } => {
                send(
                    writer,
                    &Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("event", Json::str("poisoned")),
                        ("job", Json::str(hash.to_string())),
                        ("reason", Json::str(reason)),
                    ]),
                )
                .map_err(gone)?;
                return Ok(());
            }
            JobStatus::Unknown => return Err(format!("unknown job {hash}")),
            JobStatus::Queued | JobStatus::Running => {}
        }
        match events.recv_timeout(Duration::from_millis(500)) {
            Ok(event) => {
                let (name, event_hash) = event_parts(&event);
                if event_hash != hash {
                    continue;
                }
                send(
                    writer,
                    &Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("event", Json::str(name)),
                        ("job", Json::str(hash.to_string())),
                    ]),
                )
                .map_err(gone)?;
                if matches!(event, Event::Interrupted(_)) {
                    // The daemon is draining; the job stays queued on disk
                    // for the next daemon. End the stream so the client is
                    // not left hanging on a dying process.
                    return Ok(());
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {} // re-poll status
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                return Err("the daemon is shutting down".into());
            }
        }
    }
}

fn event_parts(event: &Event) -> (&'static str, CanonHash) {
    match *event {
        Event::Queued(h) => ("queued", h),
        Event::Started(h) => ("started", h),
        Event::Finished(h) => ("finished", h),
        Event::Retried(h) => ("retried", h),
        Event::Poisoned(h) => ("poisoned", h),
        Event::Interrupted(h) => ("interrupted", h),
    }
}

// ---------------------------------------------------------------------------
// Client plumbing
// ---------------------------------------------------------------------------

/// One client connection speaking the newline-JSON protocol.
pub(crate) struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    pub(crate) fn open(addr: &str) -> Result<Connection, CliError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| CliError::Failed(format!("cannot connect to the daemon at `{addr}`: {e}")))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| CliError::Failed(format!("cannot clone the connection: {e}")))?;
        Ok(Connection {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    /// Like [`open`](Self::open), but with socket timeouts: a worker must
    /// never hang forever on a daemon that died mid-reply — a timeout error
    /// surfaces and the worker's reconnect loop takes over.
    pub(crate) fn open_with_timeouts(
        addr: &str,
        read: Duration,
        write: Duration,
    ) -> Result<Connection, CliError> {
        let conn = Connection::open(addr)?;
        conn.writer
            .set_read_timeout(Some(read))
            .and_then(|()| conn.writer.set_write_timeout(Some(write)))
            .map_err(|e| CliError::Failed(format!("cannot set socket timeouts: {e}")))?;
        Ok(conn)
    }

    pub(crate) fn send(&mut self, value: &Json) -> Result<(), CliError> {
        let mut line = value.render();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| CliError::Failed(format!("cannot send to the daemon: {e}")))
    }

    pub(crate) fn read_reply(&mut self) -> Result<Json, CliError> {
        let mut line = Vec::new();
        self.reader
            .read_until(b'\n', &mut line)
            .map_err(|e| read_failed(&e))?;
        parse_reply(line)
    }

    /// Reads one reply like [`read_reply`](Self::read_reply), but with the
    /// socket read timeout cut to `slice`: between slices `stop` may give up
    /// on the reply (`Ok(None)`; it may still arrive, so the caller must
    /// drop the connection), and a reply that has not arrived within `limit`
    /// is an error. Bytes that arrive across slices are kept.
    pub(crate) fn read_reply_sliced(
        &mut self,
        slice: Duration,
        limit: Duration,
        stop: impl Fn() -> bool,
    ) -> Result<Option<Json>, CliError> {
        let socket = |e: std::io::Error| CliError::Failed(format!("cannot set socket timeouts: {e}"));
        let restore = self.writer.read_timeout().map_err(socket)?;
        self.writer.set_read_timeout(Some(slice)).map_err(socket)?;
        let deadline = Instant::now() + limit;
        let mut line = Vec::new();
        let read = loop {
            match self.reader.read_until(b'\n', &mut line) {
                Ok(_) => break Ok(true),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if stop() {
                        break Ok(false);
                    }
                    if Instant::now() >= deadline {
                        break Err(e);
                    }
                }
                Err(e) => break Err(e),
            }
        };
        self.writer.set_read_timeout(restore).map_err(socket)?;
        if !read.map_err(|e| read_failed(&e))? {
            return Ok(None);
        }
        parse_reply(line).map(Some)
    }

    pub(crate) fn request(&mut self, value: &Json) -> Result<Json, CliError> {
        self.send(value)?;
        self.read_reply()
    }
}

fn read_failed(e: &std::io::Error) -> CliError {
    CliError::Failed(format!("cannot read from the daemon: {e}"))
}

/// Parses one reply line. A line cut short by end-of-stream means the
/// daemon hung up; an `{"ok":false}` reply is the daemon's error.
fn parse_reply(line: Vec<u8>) -> Result<Json, CliError> {
    if !line.ends_with(b"\n") {
        return Err(CliError::Failed(
            "the daemon closed the connection".into(),
        ));
    }
    let line = String::from_utf8(line)
        .map_err(|_| CliError::Failed("bad reply from the daemon: not UTF-8".into()))?;
    let reply = Json::parse(line.trim_end())
        .map_err(|e| CliError::Failed(format!("bad reply from the daemon: {e}")))?;
    if reply.get("ok").and_then(Json::as_bool) == Some(false) {
        let message = reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown error");
        return Err(CliError::Failed(format!("daemon error: {message}")));
    }
    Ok(reply)
}

/// `--addr HOST:PORT` wins; otherwise `--spool DIR` reads the daemon's
/// discovery file.
pub(crate) fn resolve_addr(parser: &ArgParser, usage: &'static str) -> Result<String, CliError> {
    if let Some(addr) = parser.flag("addr") {
        return Ok(addr.to_owned());
    }
    if let Some(spool) = parser.flag("spool") {
        let path = Path::new(spool).join(ADDR_FILE);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            CliError::Failed(format!(
                "cannot read `{}` (is the daemon running with --spool {spool}?): {e}",
                path.display()
            ))
        })?;
        return Ok(text.trim().to_owned());
    }
    Err(CliError::Usage(format!(
        "need --addr HOST:PORT or --spool DIR to find the daemon\n\n{usage}"
    )))
}

pub(crate) fn field<'a>(reply: &'a Json, key: &str) -> &'a str {
    reply.get(key).and_then(Json::as_str).unwrap_or("?")
}

// ---------------------------------------------------------------------------
// moa submit
// ---------------------------------------------------------------------------

pub fn run_submit(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let (audit, filtered) = audit_peeled(args, SUBMIT_USAGE)?;
    let parser = ArgParser::parse(
        &filtered,
        SUBMIT_USAGE,
        &[
            "addr",
            "spool",
            "words",
            "random",
            "seed",
            "seq-file",
            "n-states",
            "depth",
            "rounds",
            "budget",
            "threads",
            "deadline-ms",
            "work-limit",
            "max-frontier",
        ],
        &[
            "wait",
            "baseline",
            "learn",
            "prune-untestable",
            "degrade",
        ],
    )?;
    let circuit = load_circuit(parser.required(0, "bench file")?)?;
    let seq = sequence_from_args(&parser, &circuit, 64)?;
    let mut moa = moa_options_from_args(&parser)?;
    if parser.switch("baseline") {
        moa.backward_implications = false;
    }
    let options = CampaignOptions {
        moa,
        threads: parser.num("threads", 0usize)?,
        prune_untestable: parser.switch("prune-untestable"),
        budget: fault_budget_from_args(&parser)?,
        audit,
        ..CampaignOptions::default()
    };
    let spec = JobSpec::new(&write_bench(&circuit), &seq.to_text(), options)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let hash = spec.hash();

    let addr = resolve_addr(&parser, SUBMIT_USAGE)?;
    let mut conn = Connection::open(&addr)?;
    let reply = conn.request(&Json::obj(vec![
        ("op", Json::str("submit")),
        ("spec", Json::str(spec.to_text())),
    ]))?;

    match field(&reply, "outcome") {
        "accepted" => writeln!(out, "accepted: job {hash}")?,
        "coalesced" => writeln!(out, "coalesced: job {hash} is already queued or running")?,
        "cached" => {
            writeln!(
                out,
                "cached: job {hash} was already done; verdict digest {}, detected {} of {}, \
                 gate evals {}",
                field(&reply, "digest"),
                reply.get("detected").and_then(Json::as_u64).unwrap_or(0),
                reply.get("total").and_then(Json::as_u64).unwrap_or(0),
                reply.get("gate_evals").and_then(Json::as_u64).unwrap_or(0),
            )?;
            return Ok(());
        }
        "poisoned" => {
            return Err(CliError::Failed(format!(
                "job {hash} is quarantined: {}",
                field(&reply, "reason")
            )));
        }
        "rejected" => {
            return Err(CliError::Failed(format!(
                "rejected: {}; retry after {} ms",
                field(&reply, "reason"),
                reply
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
            )));
        }
        other => {
            return Err(CliError::Failed(format!(
                "unexpected submit outcome `{other}`"
            )));
        }
    }

    if !parser.switch("wait") {
        writeln!(
            out,
            "poll with: moa status --addr {addr} --job {hash}"
        )?;
        return Ok(());
    }

    // Stream progress on the same connection until the job is terminal.
    conn.send(&Json::obj(vec![
        ("op", Json::str("watch")),
        ("job", Json::str(hash.to_string())),
    ]))?;
    loop {
        let event = conn.read_reply()?;
        match field(&event, "event") {
            "done" => {
                writeln!(out, "done: job {hash}, verdict digest {}", field(&event, "digest"))?;
                return Ok(());
            }
            "poisoned" => {
                return Err(CliError::Failed(format!(
                    "job {hash} was quarantined while waiting"
                )));
            }
            "interrupted" => {
                return Err(CliError::Failed(format!(
                    "the daemon is draining; job {hash} stays queued and resumes under \
                     the next daemon"
                )));
            }
            name => writeln!(out, "event: {name}")?,
        }
    }
}

// ---------------------------------------------------------------------------
// moa status
// ---------------------------------------------------------------------------

pub fn run_status(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let parser = ArgParser::parse(args, STATUS_USAGE, &["addr", "spool", "job"], &[])?;
    let addr = resolve_addr(&parser, STATUS_USAGE)?;
    let mut conn = Connection::open(&addr)?;
    match parser.flag("job") {
        None => {
            let reply = conn.request(&Json::obj(vec![("op", Json::str("status"))]))?;
            let count = |key: &str| reply.get(key).and_then(Json::as_u64).unwrap_or(0);
            writeln!(
                out,
                "queued {} / running {} / done {} / poisoned {}",
                count("queued"),
                count("running"),
                count("done"),
                count("poisoned"),
            )?;
            if reply.get("shards_pending").is_some() {
                writeln!(
                    out,
                    "dispatch shards: pending {} / leased {} / completed {} / quarantined {}",
                    count("shards_pending"),
                    count("shards_leased"),
                    count("shards_completed"),
                    count("shards_quarantined"),
                )?;
            }
        }
        Some(job) => {
            let reply = conn.request(&Json::obj(vec![
                ("op", Json::str("status")),
                ("job", Json::str(job)),
            ]))?;
            match field(&reply, "state") {
                "done" => writeln!(
                    out,
                    "job {job}: done, verdict digest {}",
                    field(&reply, "digest")
                )?,
                "poisoned" => writeln!(
                    out,
                    "job {job}: poisoned — {}",
                    field(&reply, "reason")
                )?,
                state => writeln!(out, "job {job}: {state}")?,
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_circuits::iscas::S27_BENCH;
    use moa_tpg::random_sequence;

    fn temp_spool(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "moa-cli-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn s27_spec() -> JobSpec {
        let circuit = moa_circuits::iscas::s27();
        let seq = random_sequence(&circuit, 12, 7);
        JobSpec::new(S27_BENCH, &seq.to_text(), CampaignOptions::new()).expect("valid spec")
    }

    /// Full protocol round trip over a real socket, without the accept
    /// loop: submit → watch to completion → status → dedupe → bad requests.
    #[test]
    fn protocol_round_trip_over_a_socket() {
        // The failpoint test below arms `fp/serve.recv`/`send` process-wide;
        // a socket test running beside it would swallow the injected failure.
        #[cfg(feature = "failpoints")]
        let _guard = moa_core::failpoint::test_lock();
        let dir = temp_spool("proto");
        let server = Arc::new(Server::start(ServeOptions::new(&dir)).expect("start"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handler = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().expect("accept");
                handle_connection(&server, stream, ConnLimits::default());
            })
        };

        let spec = s27_spec();
        let hash = spec.hash();
        let mut conn = Connection::open(&addr).expect("connect");

        // Malformed requests answer with structured errors, not hangups —
        // the same connection keeps working afterwards.
        let err = conn
            .request(&Json::obj(vec![("op", Json::str("frobnicate"))]))
            .expect_err("unknown op");
        assert!(err.to_string().contains("unknown op"), "{err}");
        let err = conn
            .request(&Json::obj(vec![
                ("op", Json::str("status")),
                ("job", Json::str("zz")),
            ]))
            .expect_err("bad hash");
        assert!(err.to_string().contains("32-hex"), "{err}");
        let err = conn
            .request(&Json::obj(vec![
                ("op", Json::str("submit")),
                ("spec", Json::str("garbage")),
            ]))
            .expect_err("bad spec");
        assert!(err.to_string().contains("daemon error"), "{err}");

        // Submit, then watch to completion on the same connection.
        let reply = conn
            .request(&Json::obj(vec![
                ("op", Json::str("submit")),
                ("spec", Json::str(spec.to_text())),
            ]))
            .expect("submit");
        assert_eq!(field(&reply, "outcome"), "accepted");
        assert_eq!(field(&reply, "job"), hash.to_string());

        conn.send(&Json::obj(vec![
            ("op", Json::str("watch")),
            ("job", Json::str(hash.to_string())),
        ]))
        .expect("watch");
        let digest = loop {
            let event = conn.read_reply().expect("event");
            match field(&event, "event") {
                "done" => break field(&event, "digest").to_owned(),
                "poisoned" => panic!("job must not poison: {event:?}"),
                _ => {}
            }
        };
        assert_eq!(digest.len(), 32, "digest is a 32-hex canon hash: {digest}");

        // Status agrees, and a duplicate submission is served from cache.
        let reply = conn
            .request(&Json::obj(vec![
                ("op", Json::str("status")),
                ("job", Json::str(hash.to_string())),
            ]))
            .expect("status");
        assert_eq!(field(&reply, "state"), "done");
        assert_eq!(field(&reply, "digest"), digest);
        let reply = conn
            .request(&Json::obj(vec![
                ("op", Json::str("submit")),
                ("spec", Json::str(spec.to_text())),
            ]))
            .expect("resubmit");
        assert_eq!(field(&reply, "outcome"), "cached");
        assert_eq!(field(&reply, "digest"), digest);
        assert_eq!(reply.get("gate_evals").and_then(Json::as_u64), Some(0));

        let reply = conn
            .request(&Json::obj(vec![("op", Json::str("status"))]))
            .expect("stats");
        assert_eq!(reply.get("done").and_then(Json::as_u64), Some(1));

        drop(conn);
        handler.join().expect("handler");
        assert_eq!(server.drain().expect("drain"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Spawns a handler thread serving exactly one accepted connection.
    fn one_shot_handler(
        server: &Arc<Server>,
        limits: ConnLimits,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = Arc::clone(server);
        let handler = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            handle_connection(&server, stream, limits);
        });
        (addr, handler)
    }

    /// An oversized request line answers a structured error and then the
    /// daemon hangs up — the framing past the bound is unrecoverable, so
    /// the connection must not limp along misinterpreting the remainder.
    #[test]
    fn oversized_request_lines_answer_an_error_then_disconnect() {
        #[cfg(feature = "failpoints")]
        let _guard = moa_core::failpoint::test_lock();
        let dir = temp_spool("maxline");
        let server = Arc::new(Server::start(ServeOptions::new(&dir)).expect("start"));
        let limits = ConnLimits {
            max_line: 128,
            ..ConnLimits::default()
        };
        let (addr, handler) = one_shot_handler(&server, limits);

        let mut conn = Connection::open(&addr).expect("connect");
        let huge = Json::obj(vec![
            ("op", Json::str("status")),
            ("job", Json::str("x".repeat(256))),
        ]);
        let err = conn.request(&huge).expect_err("oversized line");
        assert!(err.to_string().contains("128-byte limit"), "{err}");
        let err = conn
            .request(&Json::obj(vec![("op", Json::str("status"))]))
            .expect_err("connection is gone");
        assert!(err.to_string().contains("closed the connection"), "{err}");

        handler.join().expect("handler");
        assert_eq!(server.drain().expect("drain"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A worker-free daemon in dispatch mode serves the lease / heartbeat /
    /// complete ops over the wire: this test plays the worker by hand and
    /// drives one job to completion shard by shard.
    #[test]
    fn dispatch_ops_drive_a_job_over_the_wire() {
        #[cfg(feature = "failpoints")]
        let _guard = moa_core::failpoint::test_lock();
        let dir = temp_spool("dispatch-ops");
        let options = ServeOptions {
            shards: 2,
            dispatch: Some(DispatchOptions::default()),
            ..ServeOptions::new(&dir)
        };
        let server = Arc::new(Server::start(options).expect("start"));
        let (addr, handler) = one_shot_handler(&server, ConnLimits::default());
        let mut conn = Connection::open(&addr).expect("connect");

        let spec = s27_spec();
        let hash = spec.hash();
        let reply = conn
            .request(&Json::obj(vec![
                ("op", Json::str("submit")),
                ("spec", Json::str(spec.to_text())),
            ]))
            .expect("submit");
        assert_eq!(field(&reply, "outcome"), "accepted");

        let scratch = temp_spool("dispatch-ops-scratch");
        let mut done = 0usize;
        while done < 2 {
            let reply = conn
                .request(&Json::obj(vec![
                    ("op", Json::str("lease")),
                    ("worker", Json::str("wire-worker")),
                ]))
                .expect("lease");
            match field(&reply, "outcome") {
                "idle" => {}
                "assigned" => {
                    assert_eq!(field(&reply, "job"), hash.to_string());
                    let shard =
                        reply.get("shard").and_then(Json::as_u64).expect("shard") as usize;
                    let shards =
                        reply.get("shards").and_then(Json::as_u64).expect("shards") as usize;
                    assert_eq!(shards, 2);
                    let job_spec =
                        JobSpec::parse(field(&reply, "spec")).expect("spec round-trips");
                    assert_eq!(job_spec.hash(), hash, "spec matches its content address");

                    // Mid-shard, the lease answers to a heartbeat.
                    let beat = conn
                        .request(&Json::obj(vec![
                            ("op", Json::str("heartbeat")),
                            ("worker", Json::str("wire-worker")),
                            ("job", Json::str(hash.to_string())),
                            ("shard", Json::num(shard as u64)),
                        ]))
                        .expect("heartbeat");
                    assert_eq!(field(&beat, "lease"), "held");

                    let faults = moa_netlist::full_fault_list(&job_spec.circuit);
                    moa_core::run_shard(
                        &job_spec.circuit,
                        &job_spec.seq,
                        &faults,
                        &job_spec.options,
                        shards,
                        shard,
                        &scratch,
                    )
                    .expect("shard runs");
                    let bytes =
                        std::fs::read(moa_core::shard_path(&scratch, shard)).expect("bytes");
                    let upload = conn
                        .request(&Json::obj(vec![
                            ("op", Json::str("complete")),
                            ("worker", Json::str("wire-worker")),
                            ("job", Json::str(hash.to_string())),
                            ("shard", Json::num(shard as u64)),
                            ("data", Json::str(crate::jsonx::hex_encode(&bytes))),
                        ]))
                        .expect("complete");
                    assert_eq!(field(&upload, "outcome"), "accepted");
                    done += 1;
                }
                other => panic!("unexpected lease outcome `{other}`"),
            }
        }

        // Both shards are in: the daemon's job thread merges and finishes.
        conn.send(&Json::obj(vec![
            ("op", Json::str("watch")),
            ("job", Json::str(hash.to_string())),
        ]))
        .expect("watch");
        loop {
            let event = conn.read_reply().expect("event");
            match field(&event, "event") {
                "done" => break,
                "poisoned" => panic!("job must not poison: {event:?}"),
                _ => {}
            }
        }

        // Daemon-wide status now carries dispatch shard counters.
        let reply = conn
            .request(&Json::obj(vec![("op", Json::str("status"))]))
            .expect("stats");
        assert!(reply.get("shards_pending").and_then(Json::as_u64).is_some());

        drop(conn);
        handler.join().expect("handler");
        assert_eq!(server.drain().expect("drain"), 0);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
    }

    /// A dispatch-mode daemon with `shards` shards per job.
    fn dispatch_server(tag: &str, shards: usize) -> (Arc<Server>, std::path::PathBuf) {
        let dir = temp_spool(tag);
        let options = ServeOptions {
            shards,
            dispatch: Some(DispatchOptions::default()),
            ..ServeOptions::new(&dir)
        };
        (Arc::new(Server::start(options).expect("start")), dir)
    }

    fn lease_op(worker: &str) -> Json {
        Json::obj(vec![("op", Json::str("lease")), ("worker", Json::str(worker))])
    }

    /// Long enough for a sent lease to be blocked in the daemon.
    fn let_it_block() {
        std::thread::sleep(Duration::from_millis(200));
    }

    /// A worker that hangs up while its lease is blocked is never granted:
    /// the job that arrives next goes, as its first attempt, to the next
    /// worker that asks.
    #[test]
    fn a_lease_from_a_closed_connection_grants_nothing() {
        #[cfg(feature = "failpoints")]
        let _guard = moa_core::failpoint::test_lock();
        let (server, dir) = dispatch_server("gone-lessee", 1);
        let (ghost_addr, ghost_handler) = one_shot_handler(&server, ConnLimits::default());
        let (addr, handler) = one_shot_handler(&server, ConnLimits::default());

        let mut ghost = Connection::open(&ghost_addr).expect("connect");
        ghost.send(&lease_op("ghost")).expect("lease");
        let_it_block();
        drop(ghost);

        let mut conn = Connection::open(&addr).expect("connect");
        let reply = conn
            .request(&Json::obj(vec![
                ("op", Json::str("submit")),
                ("spec", Json::str(s27_spec().to_text())),
            ]))
            .expect("submit");
        assert_eq!(field(&reply, "outcome"), "accepted");
        ghost_handler.join().expect("the ghost's handler returns");
        let reply = conn.request(&lease_op("live")).expect("lease");
        assert_eq!(field(&reply, "outcome"), "assigned", "{reply:?}");
        assert_eq!(reply.get("attempt").and_then(Json::as_u64), Some(1), "{reply:?}");

        drop(conn);
        handler.join().expect("handler");
        server.drain().expect("drain");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_blocked_lease_answers_draining_when_the_daemon_drains() {
        #[cfg(feature = "failpoints")]
        let _guard = moa_core::failpoint::test_lock();
        let (server, dir) = dispatch_server("lease-drain", 2);
        let (addr, handler) = one_shot_handler(&server, ConnLimits::default());
        let mut conn = Connection::open(&addr).expect("connect");
        conn.send(&lease_op("w1")).expect("lease");
        let_it_block();
        let drained = std::time::Instant::now();
        assert_eq!(server.drain().expect("drain"), 0);
        let reply = conn.read_reply().expect("reply");
        let waited = drained.elapsed();
        assert_eq!(field(&reply, "outcome"), "draining", "{reply:?}");
        assert!(waited < Duration::from_secs(1), "answered {waited:?} after the drain");
        drop(conn);
        handler.join().expect("handler");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The dispatch ops are a hard error on a daemon not running
    /// `--dispatch`: a misconfigured worker learns immediately instead of
    /// spinning on idle replies forever.
    #[test]
    fn dispatch_ops_require_dispatch_mode() {
        #[cfg(feature = "failpoints")]
        let _guard = moa_core::failpoint::test_lock();
        let dir = temp_spool("nodispatch");
        let server = Arc::new(Server::start(ServeOptions::new(&dir)).expect("start"));
        let (addr, handler) = one_shot_handler(&server, ConnLimits::default());
        let mut conn = Connection::open(&addr).expect("connect");
        let err = conn
            .request(&Json::obj(vec![
                ("op", Json::str("lease")),
                ("worker", Json::str("w1")),
            ]))
            .expect_err("lease must fail");
        assert!(err.to_string().contains("not in dispatch mode"), "{err}");
        drop(conn);
        handler.join().expect("handler");
        assert_eq!(server.drain().expect("drain"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Armed `fp/serve.send` / `fp/serve.recv` failpoints sever individual
    /// connections — but only those: the daemon itself survives, and a
    /// fresh connection works once the schedule is exhausted. This is the
    /// transport half of the chaos breadth contract (the lease-path site is
    /// soaked in `moa_core::dispatch`).
    #[cfg(feature = "failpoints")]
    #[test]
    fn serve_failpoints_sever_connections_but_spare_the_daemon() {
        use moa_core::failpoint::{self, ChaosSchedule, FailAction, SitePlan};
        let _guard = failpoint::test_lock();
        failpoint::clear();

        let dir = temp_spool("fp-serve");
        let server = Arc::new(Server::start(ServeOptions::new(&dir)).expect("start"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handler = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                for _ in 0..3 {
                    let (stream, _) = listener.accept().expect("accept");
                    handle_connection(&server, stream, ConnLimits::default());
                }
            })
        };

        failpoint::install(
            ChaosSchedule::empty(7)
                .with_site(
                    "fp/serve.recv",
                    SitePlan::new(1.0, vec![FailAction::Error]).with_max_fires(1),
                )
                .with_site(
                    "fp/serve.send",
                    SitePlan::new(1.0, vec![FailAction::Error]).with_max_fires(1),
                ),
        );

        let status_op = Json::obj(vec![("op", Json::str("status"))]);
        // Connection 1 dies to the injected recv error, connection 2 to the
        // injected send error; neither takes the daemon down.
        for round in 0..2 {
            let mut conn = Connection::open(&addr).expect("connect");
            let err = conn.request(&status_op).expect_err("injected failure");
            // The drop shows as a clean EOF or a reset depending on timing —
            // either way it is a transport failure, not a structured reply.
            assert!(
                !err.to_string().contains("daemon error"),
                "round {round}: {err}"
            );
        }
        // Both plans exhausted: a fresh connection serves normally.
        let mut conn = Connection::open(&addr).expect("connect");
        let reply = conn.request(&status_op).expect("healthy after chaos");
        assert_eq!(reply.get("queued").and_then(Json::as_u64), Some(0));

        let fired: Vec<String> = failpoint::fired_combos()
            .into_iter()
            .map(|((site, kind), _)| format!("{site}/{kind}"))
            .collect();
        failpoint::clear();
        assert!(fired.contains(&"fp/serve.recv/error".to_owned()), "{fired:?}");
        assert!(fired.contains(&"fp/serve.send/error".to_owned()), "{fired:?}");

        drop(conn);
        handler.join().expect("handler");
        assert_eq!(server.drain().expect("drain"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_knobs_require_the_dispatch_switch() {
        let dir = temp_spool("knobs");
        let args: Vec<String> = vec![
            "--spool".into(),
            dir.to_string_lossy().into_owned(),
            "--lease-ms".into(),
            "5000".into(),
        ];
        let mut out = Vec::new();
        let err = run_serve(&args, &mut out).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("requires --dispatch"), "{err}");

        // And an unsafe lease/heartbeat ratio is refused up front.
        let args: Vec<String> = vec![
            "--spool".into(),
            dir.to_string_lossy().into_owned(),
            "--dispatch".into(),
            "--lease-ms".into(),
            "1000".into(),
            "--heartbeat-ms".into(),
            "900".into(),
        ];
        let mut out = Vec::new();
        let err = run_serve(&args, &mut out).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("at least twice"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_flag_validation_rejects_zeroes_and_missing_spool() {
        let mut out = Vec::new();
        let err = run_serve(&[], &mut out).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--spool"), "{err}");

        for dispatch in [false, true] {
            let dir = temp_spool("flags");
            let mut args: Vec<String> = vec![
                "--spool".into(),
                dir.to_string_lossy().into_owned(),
                "--shards".into(),
                "0".into(),
            ];
            if dispatch {
                args.push("--dispatch".into());
            }
            let mut out = Vec::new();
            let err = run_serve(&args, &mut out).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "dispatch={dispatch}: {err}");
            assert!(err.to_string().contains("--shards must be at least 1"), "{err}");
            assert!(!dir.exists(), "refused before the spool is created");
        }
    }

    #[test]
    fn clients_without_a_daemon_fail_with_located_errors() {
        let mut out = Vec::new();
        let err = run_status(&[], &mut out).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");

        let dir = temp_spool("noaddr");
        std::fs::create_dir_all(&dir).unwrap();
        let mut out = Vec::new();
        let err = run_status(
            &["--spool".into(), dir.to_string_lossy().into_owned()],
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("daemon.addr"), "{err}");
        assert!(err.to_string().contains("is the daemon running"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
