//! The `home serve` daemon: a Unix-domain-socket collector accepting many
//! concurrent HBT trace streams.
//!
//! ## Protocol
//!
//! Each connection is one request. The first byte decides its shape:
//!
//! * `0x89` (the HBT magic) — the connection is an HBT stream. The client
//!   writes the whole trace, half-closes its write side, and reads back a
//!   single JSON line with the per-submission verdict. One
//!   [`SectionSession`](crate::SectionSession) runs per recorded section.
//! * anything else — an ASCII command line (`STATUS`, `PING`,
//!   `SHUTDOWN`), answered with a single JSON line.
//!
//! ## Trust model
//!
//! Everything after `accept()` is attacker-controlled bytes. The HBT
//! readers bound every length-prefixed allocation, a read timeout bounds
//! how long a stalled client can hold a session slot, and the session gate
//! bounds how many ingest sessions hold detector state at once — a
//! hostile client can cost one slot and one timeout, never memory or the
//! daemon's life. Malformed streams produce a typed JSON error reply; the
//! daemon never panics on input.

use crate::analyze::{
    analyze_section_frames, analyze_unframed, combine_verdicts, layout_of, section_frames,
    violation_identity, SectionVerdict, ViolationIdentity,
};
use crate::protocol::{error_reply, status_reply, submit_reply};
use home_core::{EmitOrder, Violation};
use home_stream::{FrameLoc, HBT_MAGIC};
use home_trace::{FxHasher, HomeError};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Maximum concurrent ingest sessions; further connections are
    /// accepted but block on the gate until a slot frees (bounded-memory
    /// backpressure).
    pub max_sessions: usize,
    /// Per-read timeout on ingest connections: a stalled client forfeits
    /// its slot with a typed error instead of holding it forever.
    pub read_timeout: Option<Duration>,
    /// Overall wall-clock deadline for one ingest session. The per-read
    /// timeout alone is not enough: a client trickling one byte per
    /// `read_timeout - ε` would hold a gate slot forever. Past the
    /// deadline the next read fails with a typed error and the slot is
    /// released.
    pub session_deadline: Option<Duration>,
}

impl ServeConfig {
    /// Defaults: 64 concurrent sessions, 30-second read timeout,
    /// 300-second session deadline.
    pub fn new(socket: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            max_sessions: 64,
            read_timeout: Some(Duration::from_secs(30)),
            session_deadline: Some(Duration::from_secs(300)),
        }
    }
}

/// One violation aggregated across every run the daemon has ingested.
#[derive(Debug, Clone)]
pub(crate) struct AggViolation {
    /// The violation (first instance seen).
    pub violation: Violation,
    /// Number of runs (sections) it appeared in.
    pub runs: u64,
    /// Minimum canonical emission position across those runs.
    pub order: EmitOrder,
}

/// One seeded section the daemon has already analyzed: its byte-level
/// fingerprint and the verdict it produced. A later v2 submission whose
/// index carries the same seed with the same fingerprint replays this
/// verdict without decompressing the frames; the same seed with a
/// *different* fingerprint rejects the submission.
#[derive(Debug, Clone)]
struct KnownRun {
    fingerprint: u64,
    verdict: SectionVerdict,
}

/// Cross-run aggregate over everything the daemon has ingested.
#[derive(Debug, Default)]
pub(crate) struct Fleet {
    /// Connections that delivered a well-formed trace.
    pub submissions: u64,
    /// Connections rejected with a typed trace error.
    pub rejected: u64,
    /// Recorded sections (runs) ingested.
    pub runs: u64,
    /// Events ingested.
    pub events: u64,
    /// Monitored races found.
    pub races: u64,
    /// Races the rules could not classify.
    pub unclassified: u64,
    /// Sections whose verdict was replayed from the cross-run cache by
    /// the v2 index fast path instead of re-analyzed (still counted in
    /// `runs`/`events` — only the decompress + analysis was skipped).
    pub skipped_known_runs: u64,
    violations: BTreeMap<ViolationIdentity, AggViolation>,
    known: BTreeMap<u64, KnownRun>,
}

impl Fleet {
    fn absorb(&mut self, outcome: &crate::analyze::TraceOutcome) {
        self.submissions += 1;
        self.runs += outcome.sections.len() as u64;
        self.events += outcome.events;
        self.races += outcome.races as u64;
        self.unclassified += outcome.unclassified as u64;
        for verdict in &outcome.sections {
            for kv in &verdict.violations {
                let key = violation_identity(&kv.violation);
                match self.violations.get_mut(&key) {
                    Some(agg) => {
                        agg.runs += 1;
                        if kv.order < agg.order {
                            agg.order = kv.order;
                        }
                    }
                    None => {
                        self.violations.insert(
                            key,
                            AggViolation {
                                violation: kv.violation.clone(),
                                runs: 1,
                                order: kv.order,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Aggregated violations sorted by canonical emission position (ties
    /// broken by identity, which the backing map already orders).
    pub(crate) fn violations(&self) -> Vec<AggViolation> {
        let mut all: Vec<AggViolation> = self.violations.values().cloned().collect();
        all.sort_by(|a, b| {
            a.order.cmp(&b.order).then_with(|| {
                violation_identity(&a.violation).cmp(&violation_identity(&b.violation))
            })
        });
        all
    }
}

/// Counting gate bounding concurrent ingest sessions.
#[derive(Debug)]
struct Gate {
    max: usize,
    active: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn lock(&self) -> std::sync::MutexGuard<'_, usize> {
        self.active
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn acquire(&self) {
        let mut active = self.lock();
        while *active >= self.max {
            active = self
                .freed
                .wait(active)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        *active += 1;
    }

    fn release(&self) {
        *self.lock() -= 1;
        self.freed.notify_one();
    }

    fn active(&self) -> usize {
        *self.lock()
    }
}

#[derive(Debug)]
struct State {
    socket: PathBuf,
    read_timeout: Option<Duration>,
    session_deadline: Option<Duration>,
    shutdown: AtomicBool,
    gate: Gate,
    fleet: Mutex<Fleet>,
}

impl State {
    fn fleet(&self) -> std::sync::MutexGuard<'_, Fleet> {
        self.fleet
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The listening daemon. [`Server::bind`] claims the socket;
/// [`Server::run`] accepts until a `SHUTDOWN` command arrives.
#[derive(Debug)]
pub struct Server {
    listener: UnixListener,
    state: Arc<State>,
}

impl Server {
    /// Bind the socket. A leftover socket file from a dead daemon (nothing
    /// accepts on it) is removed and rebound; a live daemon on the same
    /// path is an `AddrInUse` error.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = match UnixListener::bind(&config.socket) {
            Ok(l) => l,
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                if UnixStream::connect(&config.socket).is_ok() {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("a daemon is already serving on {}", config.socket.display()),
                    ));
                }
                std::fs::remove_file(&config.socket)?;
                UnixListener::bind(&config.socket)?
            }
            Err(e) => return Err(e),
        };
        Ok(Server {
            listener,
            state: Arc::new(State {
                socket: config.socket,
                read_timeout: config.read_timeout,
                session_deadline: config.session_deadline,
                shutdown: AtomicBool::new(false),
                gate: Gate {
                    max: config.max_sessions.max(1),
                    active: Mutex::new(0),
                    freed: Condvar::new(),
                },
                fleet: Mutex::new(Fleet::default()),
            }),
        })
    }

    /// The socket path this server listens on.
    pub fn socket_path(&self) -> &Path {
        &self.state.socket
    }

    /// Accept and serve connections until a `SHUTDOWN` command arrives.
    /// Outstanding ingest sessions are drained before returning; the
    /// socket file is removed on the way out.
    pub fn run(self) -> io::Result<()> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::Acquire) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            handlers.retain(|h| !h.is_finished());
            let state = Arc::clone(&self.state);
            handlers.push(std::thread::spawn(move || handle(stream, &state)));
        }
        for h in handlers {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.state.socket);
        Ok(())
    }
}

/// Serve one connection. Reply write failures are ignored (the client is
/// gone); the fleet aggregate is updated regardless.
fn handle(mut stream: UnixStream, state: &State) {
    let _ = stream.set_read_timeout(state.read_timeout);
    let mut first = [0u8; 1];
    let reply = match stream.read_exact(&mut first) {
        Err(_) => return,
        Ok(()) if first[0] == HBT_MAGIC[0] => {
            // HBT ingest: hold a session slot for the stream's lifetime.
            state.gate.acquire();
            let result = ingest(first[0], &mut stream, state);
            state.gate.release();
            match result {
                Ok(reply) => reply,
                Err(e) => {
                    state.fleet().rejected += 1;
                    error_reply(&e.to_string())
                }
            }
        }
        Ok(()) => command(first[0], &mut stream, state),
    };
    let _ = stream.write_all(reply.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

/// Re-arms the socket read timeout before every read so an overall
/// session deadline holds on top of the per-read timeout: each read waits
/// at most `min(read_timeout, remaining-until-deadline)`, and once the
/// deadline passes the next read fails with `TimedOut` instead of letting
/// a trickling client start another full timeout window.
struct DeadlineReader<'a> {
    stream: &'a UnixStream,
    per_read: Option<Duration>,
    deadline: Option<Instant>,
}

impl<'a> DeadlineReader<'a> {
    fn new(stream: &'a UnixStream, per_read: Option<Duration>, session: Option<Duration>) -> Self {
        DeadlineReader {
            stream,
            per_read,
            deadline: session.map(|d| Instant::now() + d),
        }
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = match self.deadline {
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "session deadline exceeded",
                    ));
                }
                match self.per_read {
                    Some(per) => Some(per.min(remaining)),
                    None => Some(remaining),
                }
            }
            None => self.per_read,
        };
        let _ = self.stream.set_read_timeout(timeout);
        match self.stream.read(buf) {
            // A blocking-timeout failure on the deadline-shortened window is
            // the deadline itself expiring; name it so the client's error
            // says why the session was cut, not just that a read timed out.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) && self.deadline.is_some_and(|d| Instant::now() >= d) =>
            {
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "session deadline exceeded",
                ))
            }
            other => other,
        }
    }
}

/// Cap on how much of one submission the daemon buffers for the v2 index
/// fast path. Larger submissions fall back to the record-at-a-time
/// streaming loop (bounded memory, no fast path).
const INGEST_BUFFER_CAP: usize = 512 << 20;

/// Ingest one HBT stream under the session deadline and fold the verdict
/// into the fleet aggregate.
///
/// The stream is buffered (up to [`INGEST_BUFFER_CAP`]) so a v2
/// submission can take the index fast path: the layout scan validates
/// the seek index against the frame headers actually present, and only
/// then are its `(seed, fingerprint)` pairs trusted to skip
/// decompressing sections the fleet has already analyzed. v1 streams,
/// plain-record v2 streams, and oversized submissions go through the
/// shared [`analyze_stream`](crate::analyze::analyze_stream) loop.
fn ingest(first: u8, stream: &mut UnixStream, state: &State) -> Result<String, HomeError> {
    let mut reader = DeadlineReader::new(stream, state.read_timeout, state.session_deadline);
    let mut bytes = vec![first];
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if bytes.len() > INGEST_BUFFER_CAP {
            // Oversized: hand the buffered prefix plus the still-unread
            // tail to the streaming loop without buffering further.
            let prefix = io::Cursor::new(bytes);
            let outcome = crate::analyze::analyze_stream(prefix.chain(reader))?;
            let mut fleet = state.fleet();
            fleet.absorb(&outcome);
            return Ok(submit_reply(&outcome));
        }
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(HomeError::trace_parse(format!(
                    "I/O error reading HBT stream at byte {}: {e}",
                    bytes.len()
                )))
            }
        }
    }
    ingest_buffered(&bytes, state)
}

/// Fingerprint a section's identity: every frame's header fields plus its
/// stored (still-compressed) body bytes. Deliberately excludes the byte
/// offset, so the same section embedded at a different stream position
/// fingerprints identically.
fn section_fingerprint(bytes: &[u8], frames: &[FrameLoc]) -> Result<u64, HomeError> {
    let mut h = FxHasher::default();
    h.write_usize(frames.len());
    for f in frames {
        h.write_u8(u8::from(f.entry.continuation));
        h.write_u8(u8::from(f.compressed()));
        match f.entry.seed {
            Some(s) => {
                h.write_u8(1);
                h.write_u64(s);
            }
            None => h.write_u8(0),
        }
        h.write_u64(f.entry.events);
        h.write_u64(f.entry.incidents);
        h.write_u64(f.entry.raw_len);
        let stored = f.stored(bytes)?;
        h.write_usize(stored.len());
        h.write(stored);
    }
    Ok(h.finish())
}

/// The verdict of a v2 submission's section: replayed from the cross-run
/// cache, or freshly analyzed (and then offered to the cache).
enum SectionOutcome {
    Cached(SectionVerdict),
    Fresh {
        fingerprint: u64,
        verdict: SectionVerdict,
    },
}

/// Analyze a fully buffered submission, taking the v2 index fast path
/// when the stream carries a validated seek index.
fn ingest_buffered(bytes: &[u8], state: &State) -> Result<String, HomeError> {
    let Some(layout) = layout_of(bytes)? else {
        // v1 or plain-record v2: the shared record-at-a-time loop.
        let outcome = analyze_unframed(bytes)?;
        let mut fleet = state.fleet();
        fleet.absorb(&outcome);
        return Ok(submit_reply(&outcome));
    };
    let sections = section_frames(&layout);
    // Decide per section under the fleet lock: replay a cached verdict,
    // or analyze fresh. A known seed with a different fingerprint
    // rejects the whole submission — an index entry claiming an
    // already-seen seed must carry the already-seen records.
    let mut plan: Vec<(u64, Option<SectionVerdict>)> = Vec::with_capacity(sections.len());
    {
        let fleet = state.fleet();
        for &frames in &sections {
            let fingerprint = section_fingerprint(bytes, frames)?;
            let seed = frames[0].entry.seed;
            let cached = match seed.and_then(|s| fleet.known.get(&s)) {
                Some(known) if known.fingerprint == fingerprint => Some(known.verdict.clone()),
                Some(_) => return Err(conflicting_seed_error(seed)),
                None => None,
            };
            plan.push((fingerprint, cached));
        }
    }
    // Analyze the sections the cache did not cover, outside the fleet
    // lock, through the replay driver `home replay` uses.
    let uncovered: Vec<&[FrameLoc]> = sections
        .iter()
        .zip(&plan)
        .filter(|(_, (_, cached))| cached.is_none())
        .map(|(&frames, _)| frames)
        .collect();
    let mut analyzed = analyze_section_frames(bytes, &uncovered, 1)?.into_iter();
    let mut outcomes: Vec<SectionOutcome> = Vec::with_capacity(sections.len());
    for (fingerprint, cached) in plan {
        match cached {
            Some(verdict) => outcomes.push(SectionOutcome::Cached(verdict)),
            None => {
                if let Some(verdict) = analyzed.next().flatten() {
                    outcomes.push(SectionOutcome::Fresh {
                        fingerprint,
                        verdict,
                    });
                }
            }
        }
    }
    // Absorb atomically: re-check every fresh seeded section against the
    // cache (a concurrent submission may have raced us to the seed), and
    // only then fold the whole outcome in. On a conflict nothing is
    // absorbed.
    let mut fleet = state.fleet();
    for outcome in &outcomes {
        if let SectionOutcome::Fresh {
            fingerprint,
            verdict,
        } = outcome
        {
            if let Some(known) = verdict.seed.and_then(|s| fleet.known.get(&s)) {
                if known.fingerprint != *fingerprint {
                    return Err(conflicting_seed_error(verdict.seed));
                }
            }
        }
    }
    let mut skipped = 0u64;
    let mut verdicts = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            SectionOutcome::Cached(verdict) => {
                skipped += 1;
                verdicts.push(verdict);
            }
            SectionOutcome::Fresh {
                fingerprint,
                verdict,
            } => {
                if let Some(seed) = verdict.seed {
                    fleet.known.entry(seed).or_insert_with(|| KnownRun {
                        fingerprint,
                        verdict: verdict.clone(),
                    });
                }
                verdicts.push(verdict);
            }
        }
    }
    let outcome = combine_verdicts(verdicts);
    fleet.absorb(&outcome);
    fleet.skipped_known_runs += skipped;
    drop(fleet);
    Ok(submit_reply(&outcome))
}

fn conflicting_seed_error(seed: Option<u64>) -> HomeError {
    let seed = seed.unwrap_or(0);
    HomeError::seed(
        seed,
        "this HBT submission's index claims a seed the collector has already \
         aggregated, but its records differ from the known run; rejecting the \
         submission (re-record under a fresh seed to submit a different run)",
    )
}

/// Serve one ASCII command line (the first byte was already consumed).
fn command(first: u8, stream: &mut UnixStream, state: &State) -> String {
    let mut line = vec![first];
    let mut byte = [0u8; 1];
    while line.len() < 256 && !line.ends_with(b"\n") {
        match stream.read_exact(&mut byte) {
            Ok(()) => line.push(byte[0]),
            Err(_) => break,
        }
    }
    let cmd = String::from_utf8_lossy(&line).trim().to_ascii_uppercase();
    match cmd.as_str() {
        "PING" => r#"{"ok":true}"#.to_string(),
        "STATUS" => {
            let fleet = state.fleet();
            status_reply(&fleet, state.gate.active())
        }
        "SHUTDOWN" => {
            state.shutdown.store(true, Ordering::Release);
            // Wake the blocking accept with a throwaway connection so the
            // loop observes the flag.
            let _ = UnixStream::connect(&state.socket);
            r#"{"ok":true,"stopping":true}"#.to_string()
        }
        other => error_reply(&format!(
            "unknown command `{other}` (expected PING, STATUS, or SHUTDOWN)"
        )),
    }
}
