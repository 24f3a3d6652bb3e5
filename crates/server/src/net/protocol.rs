//! The any-k wire protocol: a length-prefixed, versioned binary framing
//! shared by [`AnyKServer`](crate::net::AnyKServer) and
//! [`AnyKClient`](crate::net::AnyKClient).
//!
//! # Frame layout
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! offset  size  field
//!      0     1  magic     0xA7 (rejects line noise and HTTP probes cheaply)
//!      1     1  version   protocol version, currently 1
//!      2     1  kind      request opcode (0x01..) or response status (0x80..)
//!      3     1  reserved  must be 0
//!      4     4  length    payload byte count, u32 big-endian
//!      8     n  payload   kind-specific, n = length
//! ```
//!
//! `length` is capped by each side's `max_frame_bytes`; a peer announcing a
//! larger payload is rejected **before** any allocation
//! ([`FrameReadError::TooLarge`]), so a hostile length prefix cannot balloon
//! memory. All multi-byte integers are big-endian; `f64` weights travel as
//! their IEEE-754 bit pattern (`f64::to_bits`), so ranked streams round-trip
//! the wire **bit-identically**.
//!
//! # Version negotiation
//!
//! Every frame carries the version byte. A server receiving an unsupported
//! version answers [`StatusCode::ErrUnsupportedVersion`] whose payload is
//! the one version it speaks, then closes; a client can reconnect speaking
//! that version. (With a single deployed version this degenerates to a typed
//! rejection, which is the point: old clients get a diagnosable error, not a
//! hang or a garbage parse.)
//!
//! # Request opcodes
//!
//! | op | name | payload |
//! |----|------|---------|
//! | `0x01` | `Ping` | empty |
//! | `0x02` | `Prepare` | query text (UTF-8) |
//! | `0x03` | `OpenSession` | query text (UTF-8) |
//! | `0x04` | `NextPage` | `u64` session, `u32` page size |
//! | `0x05` | `Cancel` | `u64` session |
//! | `0x06` | `Close` | `u64` session |
//! | `0x07` | `Ingest` | delta batch (see below) |
//! | `0x08` | `Stats` | empty |
//!
//! Session ids are **per-connection** handles issued by `OpenSession`; a
//! connection can only address sessions it opened itself, so one client can
//! never cancel or read another's stream.
//!
//! An `Ingest` payload is a [`DeltaBatch`]: `u16` relation count, then per
//! relation `u16` name length + UTF-8 name, `u32` delete count + `u64` per
//! deleted tuple id, `u32` insert count + per inserted tuple `u16` arity,
//! arity × `u64` values, `u64` weight bits. Weights travel as bit patterns,
//! so the server ingests exactly the tuples the client built.
//!
//! # Response statuses
//!
//! Success (`0x80..`): `Pong` (empty), `Prepared` (canonical plan key,
//! UTF-8), `SessionOpened` (`u64` id), `Page` (`u8` done, `u32` count,
//! `count` × answer), `Cancelled` (empty), `Closed` (`u8` existed),
//! `Ingested` (`u64` new generation id), `Stats` (a versioned
//! [`StatsSnapshot`]: `u32` layout version, `u64` generation, `u16` metric
//! count + that many `u64` counters in [`ServiceMetrics::fields`] order,
//! `u8` phase count + per phase `u8` id and `u64` count/total/max nanos,
//! one 6 × `u64` page-latency summary, `u16` plan count + per plan a
//! length-prefixed UTF-8 key and three 6 × `u64` summaries —
//! count/sum/max/p50/p90/p99 — for TTF, delay, and page latency).
//!
//! An answer is `u64` weight bits, `u16` arity, arity × `u64` values,
//! `u16` witness count, count × (`u32` atom index, `u64` tuple id) — the
//! full [`Answer`] including provenance, so a TCP stream equals the
//! in-process stream under `==`.
//!
//! Errors (`0xC0..`) map every [`ServiceError`] variant plus the
//! transport-level failures; see [`StatusCode`]. `ErrOverloaded` carries the
//! shedding reason and the governor's `retry_after_hint` in microseconds, so
//! well-behaved clients back off exactly as in-process callers do.

use crate::error::{OverloadReason, ServiceError};
use crate::service::ServiceMetrics;
use crate::stats::{StatsSnapshot, STATS_VERSION};
use anyk_engine::{Answer, Page};
use anyk_obs::{HistogramSummary, Phase, PhaseSnapshot, PlanSummaries};
use anyk_storage::{DeltaBatch, RelationDelta, Tuple};
use std::io::{self, Read, Write};
use std::time::Duration;

/// First byte of every frame.
pub const MAGIC: u8 = 0xA7;
/// The protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Bytes in a frame header.
pub const HEADER_LEN: usize = 8;
/// Default cap on a frame's payload length (1 MiB) — both directions.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 1 << 20;

/// Request opcodes (client → server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Liveness probe; answered with `Pong`.
    Ping = 0x01,
    /// Compile (or cache-hit) a textual query; answered with `Prepared`.
    Prepare = 0x02,
    /// Open a paged session from query text; answered with `SessionOpened`.
    OpenSession = 0x03,
    /// Pull the next page of a session; answered with `Page`.
    NextPage = 0x04,
    /// Cancel a session; answered with `Cancelled`.
    Cancel = 0x05,
    /// Close a session; answered with `Closed`.
    Close = 0x06,
    /// Apply a delta batch, rotating the served snapshot; answered with
    /// `Ingested`.
    Ingest = 0x07,
    /// Scrape the observability surface (counters, phase timings, per-plan
    /// latency percentiles); answered with `Stats`.
    Stats = 0x08,
}

impl OpCode {
    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0x01 => OpCode::Ping,
            0x02 => OpCode::Prepare,
            0x03 => OpCode::OpenSession,
            0x04 => OpCode::NextPage,
            0x05 => OpCode::Cancel,
            0x06 => OpCode::Close,
            0x07 => OpCode::Ingest,
            0x08 => OpCode::Stats,
            _ => return None,
        })
    }
}

/// Response status codes (server → client). `0x80..` succeed, `0xC0..` are
/// typed errors carrying enough payload to reconstruct the service-side
/// error on the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)] // the variants mirror documented Request/ServiceError shapes
pub enum StatusCode {
    Pong = 0x80,
    Prepared = 0x81,
    SessionOpened = 0x82,
    Page = 0x83,
    Cancelled = 0x84,
    Closed = 0x85,
    Ingested = 0x86,
    Stats = 0x87,
    ErrProtocol = 0xC0,
    ErrUnsupportedVersion = 0xC1,
    ErrFrameTooLarge = 0xC2,
    ErrShuttingDown = 0xC3,
    ErrParse = 0xC4,
    ErrEngine = 0xC5,
    ErrUnknownSession = 0xC6,
    ErrOverloaded = 0xC7,
    ErrSessionExpired = 0xC8,
    ErrSessionCancelled = 0xC9,
    ErrSessionPoisoned = 0xCA,
    ErrFault = 0xCB,
    ErrPanicked = 0xCC,
    ErrDelta = 0xCD,
}

impl StatusCode {
    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0x80 => StatusCode::Pong,
            0x81 => StatusCode::Prepared,
            0x82 => StatusCode::SessionOpened,
            0x83 => StatusCode::Page,
            0x84 => StatusCode::Cancelled,
            0x85 => StatusCode::Closed,
            0x86 => StatusCode::Ingested,
            0x87 => StatusCode::Stats,
            0xC0 => StatusCode::ErrProtocol,
            0xC1 => StatusCode::ErrUnsupportedVersion,
            0xC2 => StatusCode::ErrFrameTooLarge,
            0xC3 => StatusCode::ErrShuttingDown,
            0xC4 => StatusCode::ErrParse,
            0xC5 => StatusCode::ErrEngine,
            0xC6 => StatusCode::ErrUnknownSession,
            0xC7 => StatusCode::ErrOverloaded,
            0xC8 => StatusCode::ErrSessionExpired,
            0xC9 => StatusCode::ErrSessionCancelled,
            0xCA => StatusCode::ErrSessionPoisoned,
            0xCB => StatusCode::ErrFault,
            0xCC => StatusCode::ErrPanicked,
            0xCD => StatusCode::ErrDelta,
            _ => return None,
        })
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Compile (or cache-hit) `text` in the query language.
    Prepare(String),
    /// Open a session over `text`.
    OpenSession(String),
    /// Pull up to `page_size` answers from session `session`.
    NextPage {
        /// The connection-scoped session handle.
        session: u64,
        /// Maximum answers in the page.
        page_size: u32,
    },
    /// Cancel session `session`.
    Cancel(u64),
    /// Close session `session`, releasing its state.
    Close(u64),
    /// Apply a delta batch: the served snapshot rotates to a new generation
    /// while open sessions keep streaming their pinned one.
    Ingest(DeltaBatch),
    /// Scrape the service's observability snapshot.
    Stats,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The plan compiled (or was cached); carries the canonical plan key.
    Prepared(String),
    /// A session opened under this connection-scoped handle.
    SessionOpened(u64),
    /// One page of ranked answers.
    Page(Page),
    /// The session was cancelled.
    Cancelled,
    /// The session was closed; `existed` is false for unknown handles.
    Closed {
        /// Whether the handle named a live session.
        existed: bool,
    },
    /// The delta batch was applied; carries the new generation id.
    Ingested(u64),
    /// One consistent observability scrape; see [`StatsSnapshot`].
    Stats(Box<StatsSnapshot>),
    /// Typed failure; see [`WireError`].
    Err(WireError),
}

/// The typed error statuses a server can answer with — every
/// [`ServiceError`] variant plus the transport-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer broke the framing or sent an undecodable payload; the
    /// connection closes after this frame.
    Protocol(String),
    /// The frame's version byte is not spoken here; payload names the one
    /// supported version.
    UnsupportedVersion {
        /// The version the server speaks.
        supported: u8,
    },
    /// The announced payload length exceeds the receiver's cap.
    FrameTooLarge {
        /// The receiver's `max_frame_bytes`.
        max: u32,
    },
    /// The server is draining for shutdown; reconnect later.
    ShuttingDown,
    /// [`ServiceError::Parse`], as its display string.
    Parse(String),
    /// [`ServiceError::Engine`], as its display string.
    Engine(String),
    /// [`ServiceError::UnknownSession`] (or a handle this connection never
    /// opened).
    UnknownSession(u64),
    /// [`ServiceError::Overloaded`]: shed by admission control (or the
    /// transport's connection cap); retry after the hint.
    Overloaded {
        /// Which cap shed the request.
        reason: WireOverloadReason,
        /// Suggested client back-off.
        retry_after: Duration,
    },
    /// [`ServiceError::SessionExpired`].
    SessionExpired(u64),
    /// [`ServiceError::SessionCancelled`].
    SessionCancelled(u64),
    /// [`ServiceError::SessionPoisoned`].
    SessionPoisoned(u64),
    /// [`ServiceError::Fault`]: an armed failpoint fired; carries the site.
    Fault(String),
    /// [`ServiceError::Panicked`]: the panic was contained server-side.
    Panicked(String),
    /// [`ServiceError::Delta`], as its display string: the batch was
    /// rejected up front and the served snapshot is unchanged.
    Delta(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Protocol(d) => write!(f, "protocol violation: {d}"),
            WireError::UnsupportedVersion { supported } => {
                write!(
                    f,
                    "unsupported protocol version (server speaks {supported})"
                )
            }
            WireError::FrameTooLarge { max } => {
                write!(f, "frame exceeds the receiver's cap of {max} bytes")
            }
            WireError::ShuttingDown => f.write_str("server is shutting down"),
            WireError::Parse(m) => write!(f, "invalid query text: {m}"),
            WireError::Engine(m) => write!(f, "query preparation failed: {m}"),
            WireError::UnknownSession(s) => write!(f, "unknown session handle {s}"),
            WireError::Overloaded {
                reason,
                retry_after,
            } => write!(
                f,
                "server overloaded ({reason:?}); retry after {retry_after:?}"
            ),
            WireError::SessionExpired(s) => write!(f, "session {s} expired"),
            WireError::SessionCancelled(s) => write!(f, "session {s} was cancelled"),
            WireError::SessionPoisoned(s) => write!(f, "session {s} was poisoned"),
            WireError::Fault(site) => write!(f, "injected fault at failpoint `{site}`"),
            WireError::Panicked(c) => write!(f, "request panicked server-side (isolated): {c}"),
            WireError::Delta(m) => write!(f, "delta batch rejected: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// [`OverloadReason`] plus the transport's own cap, as it travels the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireOverloadReason {
    /// [`OverloadReason::Sessions`].
    Sessions = 0,
    /// [`OverloadReason::PagesInFlight`].
    PagesInFlight = 1,
    /// [`OverloadReason::Memory`].
    Memory = 2,
    /// The transport's connection cap
    /// ([`crate::net::NetConfig::max_connections`]); shed before handshake.
    Connections = 3,
}

impl WireOverloadReason {
    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => WireOverloadReason::Sessions,
            1 => WireOverloadReason::PagesInFlight,
            2 => WireOverloadReason::Memory,
            3 => WireOverloadReason::Connections,
            _ => return None,
        })
    }
}

impl From<OverloadReason> for WireOverloadReason {
    fn from(r: OverloadReason) -> Self {
        match r {
            OverloadReason::Sessions => WireOverloadReason::Sessions,
            OverloadReason::PagesInFlight => WireOverloadReason::PagesInFlight,
            OverloadReason::Memory => WireOverloadReason::Memory,
        }
    }
}

// ---------------------------------------------------------------- encoding

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// A strict little payload reader: every decode must consume exactly the
/// bytes it was given, so trailing garbage is a protocol error, not silence.
struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        PayloadReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| WireError::Protocol("payload truncated".into()))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn rest_utf8(&mut self) -> Result<String, WireError> {
        let bytes = self.take(self.bytes.len() - self.pos)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Protocol("payload is not valid UTF-8".into()))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Protocol(format!(
                "{} trailing payload bytes",
                self.bytes.len() - self.pos
            )))
        }
    }
}

fn encode_answer(buf: &mut Vec<u8>, a: &Answer) {
    put_u64(buf, a.weight().to_bits());
    let values = a.values();
    put_u16(buf, values.len() as u16);
    for &v in values {
        put_u64(buf, v);
    }
    let witness = a.witness();
    put_u16(buf, witness.len() as u16);
    for &(atom, tuple) in witness {
        put_u32(buf, atom as u32);
        put_u64(buf, tuple as u64);
    }
}

/// A `Page` payload: `u8` done, `u32` count, count × answer. The one page
/// encoder, for [`Response::Page`] and for a page borrowed from a buffer.
fn encode_page(buf: &mut Vec<u8>, done: bool, answers: &[Answer]) {
    buf.push(done as u8);
    put_u32(buf, answers.len() as u32);
    for a in answers {
        encode_answer(buf, a);
    }
}

/// Decode one answer, taking its value run and its witness run with one
/// bounds check each.
fn decode_answer(r: &mut PayloadReader<'_>) -> Result<Answer, WireError> {
    let weight = f64::from_bits(r.u64()?);
    let arity = r.u16()? as usize;
    let values = r.take(arity * 8)?;
    let nwitness = r.u16()? as usize;
    let witness = r.take(nwitness * 12)?;
    let be_u64 = |b: &[u8]| u64::from_be_bytes(b.try_into().unwrap());
    Ok(Answer::from_iters(
        weight,
        values.chunks_exact(8).map(be_u64),
        witness.chunks_exact(12).map(|w| {
            let atom = u32::from_be_bytes(w[..4].try_into().unwrap());
            (atom as usize, be_u64(&w[4..]) as usize)
        }),
    ))
}

fn encode_batch(buf: &mut Vec<u8>, batch: &DeltaBatch) {
    put_u16(buf, batch.relations.len() as u16);
    for delta in &batch.relations {
        put_u16(buf, delta.relation.len() as u16);
        buf.extend_from_slice(delta.relation.as_bytes());
        put_u32(buf, delta.deletes.len() as u32);
        for &tid in &delta.deletes {
            put_u64(buf, tid as u64);
        }
        put_u32(buf, delta.inserts.len() as u32);
        for tuple in &delta.inserts {
            put_u16(buf, tuple.arity() as u16);
            for &v in tuple.values() {
                put_u64(buf, v);
            }
            put_u64(buf, tuple.weight().to_bits());
        }
    }
}

fn decode_batch(r: &mut PayloadReader<'_>) -> Result<DeltaBatch, WireError> {
    let nrelations = r.u16()? as usize;
    let mut relations = Vec::with_capacity(nrelations.min(64));
    for _ in 0..nrelations {
        let name_len = r.u16()? as usize;
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| WireError::Protocol("relation name is not valid UTF-8".into()))?;
        let mut delta = RelationDelta::new(name);
        let ndeletes = r.u32()? as usize;
        delta.deletes.reserve(ndeletes.min(1 << 16));
        for _ in 0..ndeletes {
            delta.deletes.push(r.u64()? as usize);
        }
        let ninserts = r.u32()? as usize;
        delta.inserts.reserve(ninserts.min(1 << 16));
        for _ in 0..ninserts {
            let arity = r.u16()? as usize;
            let mut values = Vec::with_capacity(arity);
            for _ in 0..arity {
                values.push(r.u64()?);
            }
            let weight = f64::from_bits(r.u64()?);
            delta.inserts.push(Tuple::new(values, weight));
        }
        relations.push(delta);
    }
    Ok(DeltaBatch { relations })
}

fn encode_summary(buf: &mut Vec<u8>, s: &HistogramSummary) {
    put_u64(buf, s.count);
    put_u64(buf, s.sum);
    put_u64(buf, s.max);
    put_u64(buf, s.p50);
    put_u64(buf, s.p90);
    put_u64(buf, s.p99);
}

fn decode_summary(r: &mut PayloadReader<'_>) -> Result<HistogramSummary, WireError> {
    Ok(HistogramSummary {
        count: r.u64()?,
        sum: r.u64()?,
        max: r.u64()?,
        p50: r.u64()?,
        p90: r.u64()?,
        p99: r.u64()?,
    })
}

fn encode_stats(buf: &mut Vec<u8>, s: &StatsSnapshot) {
    put_u32(buf, s.version);
    put_u64(buf, s.generation);
    let fields = s.metrics.fields();
    put_u16(buf, fields.len() as u16);
    for (_, value) in fields {
        put_u64(buf, value);
    }
    buf.push(s.phases.len() as u8);
    for p in &s.phases {
        buf.push(p.phase as u8);
        put_u64(buf, p.count);
        put_u64(buf, p.total_nanos);
        put_u64(buf, p.max_nanos);
    }
    encode_summary(buf, &s.page_latency);
    // The count travels as a u16: a longer list is cut to fit, so the
    // announced count always matches the entries that follow.
    let plans = &s.plans[..s.plans.len().min(u16::MAX as usize)];
    put_u16(buf, plans.len() as u16);
    for (key, sums) in plans {
        put_u16(buf, key.len() as u16);
        buf.extend_from_slice(key.as_bytes());
        encode_summary(buf, &sums.ttf);
        encode_summary(buf, &sums.delay);
        encode_summary(buf, &sums.page);
    }
}

fn decode_stats(r: &mut PayloadReader<'_>) -> Result<StatsSnapshot, WireError> {
    let version = r.u32()?;
    if version != STATS_VERSION {
        return Err(WireError::Protocol(format!(
            "unsupported stats layout version {version} (expected {STATS_VERSION})"
        )));
    }
    let generation = r.u64()?;
    let nmetrics = r.u16()? as usize;
    if nmetrics != ServiceMetrics::FIELD_COUNT {
        return Err(WireError::Protocol(format!(
            "stats frame carries {nmetrics} metrics (expected {})",
            ServiceMetrics::FIELD_COUNT
        )));
    }
    let mut values = [0u64; ServiceMetrics::FIELD_COUNT];
    for v in values.iter_mut() {
        *v = r.u64()?;
    }
    let metrics = ServiceMetrics::from_values(&values);
    let nphases = r.u8()? as usize;
    let mut phases = Vec::with_capacity(nphases.min(64));
    for _ in 0..nphases {
        let id = r.u8()?;
        let phase = Phase::from_u8(id)
            .ok_or_else(|| WireError::Protocol(format!("unknown phase id {id}")))?;
        phases.push(PhaseSnapshot {
            phase,
            count: r.u64()?,
            total_nanos: r.u64()?,
            max_nanos: r.u64()?,
        });
    }
    let page_latency = decode_summary(r)?;
    let nplans = r.u16()? as usize;
    let mut plans = Vec::with_capacity(nplans.min(1 << 10));
    for _ in 0..nplans {
        let key_len = r.u16()? as usize;
        let key = String::from_utf8(r.take(key_len)?.to_vec())
            .map_err(|_| WireError::Protocol("plan key is not valid UTF-8".into()))?;
        let sums = PlanSummaries {
            ttf: decode_summary(r)?,
            delay: decode_summary(r)?,
            page: decode_summary(r)?,
        };
        plans.push((key, sums));
    }
    Ok(StatsSnapshot {
        version,
        generation,
        metrics,
        phases,
        page_latency,
        plans,
    })
}

impl Request {
    /// The frame kind byte of this request.
    pub fn opcode(&self) -> OpCode {
        match self {
            Request::Ping => OpCode::Ping,
            Request::Prepare(_) => OpCode::Prepare,
            Request::OpenSession(_) => OpCode::OpenSession,
            Request::NextPage { .. } => OpCode::NextPage,
            Request::Cancel(_) => OpCode::Cancel,
            Request::Close(_) => OpCode::Close,
            Request::Ingest(_) => OpCode::Ingest,
            Request::Stats => OpCode::Stats,
        }
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Ping | Request::Stats => {}
            Request::Prepare(text) | Request::OpenSession(text) => {
                buf.extend_from_slice(text.as_bytes())
            }
            Request::NextPage { session, page_size } => {
                put_u64(buf, *session);
                put_u32(buf, *page_size);
            }
            Request::Cancel(s) | Request::Close(s) => put_u64(buf, *s),
            Request::Ingest(batch) => encode_batch(buf, batch),
        }
    }

    /// Decode the payload of a request frame whose kind byte was `kind`.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let op = OpCode::from_byte(kind)
            .ok_or_else(|| WireError::Protocol(format!("unknown request opcode {kind:#04x}")))?;
        let mut r = PayloadReader::new(payload);
        let req = match op {
            OpCode::Ping => Request::Ping,
            OpCode::Prepare => Request::Prepare(r.rest_utf8()?),
            OpCode::OpenSession => Request::OpenSession(r.rest_utf8()?),
            OpCode::NextPage => Request::NextPage {
                session: r.u64()?,
                page_size: r.u32()?,
            },
            OpCode::Cancel => Request::Cancel(r.u64()?),
            OpCode::Close => Request::Close(r.u64()?),
            OpCode::Ingest => Request::Ingest(decode_batch(&mut r)?),
            OpCode::Stats => Request::Stats,
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// The frame kind byte of this response.
    pub fn status(&self) -> StatusCode {
        match self {
            Response::Pong => StatusCode::Pong,
            Response::Prepared(_) => StatusCode::Prepared,
            Response::SessionOpened(_) => StatusCode::SessionOpened,
            Response::Page(_) => StatusCode::Page,
            Response::Cancelled => StatusCode::Cancelled,
            Response::Closed { .. } => StatusCode::Closed,
            Response::Ingested(_) => StatusCode::Ingested,
            Response::Stats(_) => StatusCode::Stats,
            Response::Err(e) => match e {
                WireError::Protocol(_) => StatusCode::ErrProtocol,
                WireError::UnsupportedVersion { .. } => StatusCode::ErrUnsupportedVersion,
                WireError::FrameTooLarge { .. } => StatusCode::ErrFrameTooLarge,
                WireError::ShuttingDown => StatusCode::ErrShuttingDown,
                WireError::Parse(_) => StatusCode::ErrParse,
                WireError::Engine(_) => StatusCode::ErrEngine,
                WireError::UnknownSession(_) => StatusCode::ErrUnknownSession,
                WireError::Overloaded { .. } => StatusCode::ErrOverloaded,
                WireError::SessionExpired(_) => StatusCode::ErrSessionExpired,
                WireError::SessionCancelled(_) => StatusCode::ErrSessionCancelled,
                WireError::SessionPoisoned(_) => StatusCode::ErrSessionPoisoned,
                WireError::Fault(_) => StatusCode::ErrFault,
                WireError::Panicked(_) => StatusCode::ErrPanicked,
                WireError::Delta(_) => StatusCode::ErrDelta,
            },
        }
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Pong | Response::Cancelled | Response::Err(WireError::ShuttingDown) => {}
            Response::Prepared(key) => buf.extend_from_slice(key.as_bytes()),
            Response::SessionOpened(id) => put_u64(buf, *id),
            Response::Page(page) => encode_page(buf, page.done, &page.answers),
            Response::Closed { existed } => buf.push(*existed as u8),
            Response::Ingested(generation) => put_u64(buf, *generation),
            Response::Stats(stats) => encode_stats(buf, stats),
            Response::Err(e) => match e {
                WireError::ShuttingDown => unreachable!("handled above"),
                WireError::Protocol(d) => buf.extend_from_slice(d.as_bytes()),
                WireError::UnsupportedVersion { supported } => buf.push(*supported),
                WireError::FrameTooLarge { max } => put_u32(buf, *max),
                WireError::Parse(m) | WireError::Engine(m) => buf.extend_from_slice(m.as_bytes()),
                WireError::UnknownSession(s)
                | WireError::SessionExpired(s)
                | WireError::SessionCancelled(s)
                | WireError::SessionPoisoned(s) => put_u64(buf, *s),
                WireError::Overloaded {
                    reason,
                    retry_after,
                } => {
                    buf.push(*reason as u8);
                    put_u64(buf, retry_after.as_micros().min(u64::MAX as u128) as u64);
                }
                WireError::Fault(site) => buf.extend_from_slice(site.as_bytes()),
                WireError::Panicked(c) => buf.extend_from_slice(c.as_bytes()),
                WireError::Delta(m) => buf.extend_from_slice(m.as_bytes()),
            },
        }
    }

    /// Decode the payload of a response frame whose kind byte was `kind`.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let status = StatusCode::from_byte(kind)
            .ok_or_else(|| WireError::Protocol(format!("unknown status code {kind:#04x}")))?;
        let mut r = PayloadReader::new(payload);
        let resp = match status {
            StatusCode::Pong => Response::Pong,
            StatusCode::Prepared => Response::Prepared(r.rest_utf8()?),
            StatusCode::SessionOpened => Response::SessionOpened(r.u64()?),
            StatusCode::Page => {
                let done = r.u8()? != 0;
                let count = r.u32()? as usize;
                // Guarded by the frame cap already; also sanity-bound here so
                // a corrupt count cannot drive a huge reserve.
                let mut answers = Vec::with_capacity(count.min(payload.len() / 8 + 1));
                for _ in 0..count {
                    answers.push(decode_answer(&mut r)?);
                }
                Response::Page(Page { answers, done })
            }
            StatusCode::Cancelled => Response::Cancelled,
            StatusCode::Closed => Response::Closed {
                existed: r.u8()? != 0,
            },
            StatusCode::Ingested => Response::Ingested(r.u64()?),
            StatusCode::Stats => Response::Stats(Box::new(decode_stats(&mut r)?)),
            StatusCode::ErrProtocol => Response::Err(WireError::Protocol(r.rest_utf8()?)),
            StatusCode::ErrUnsupportedVersion => {
                Response::Err(WireError::UnsupportedVersion { supported: r.u8()? })
            }
            StatusCode::ErrFrameTooLarge => {
                Response::Err(WireError::FrameTooLarge { max: r.u32()? })
            }
            StatusCode::ErrShuttingDown => Response::Err(WireError::ShuttingDown),
            StatusCode::ErrParse => Response::Err(WireError::Parse(r.rest_utf8()?)),
            StatusCode::ErrEngine => Response::Err(WireError::Engine(r.rest_utf8()?)),
            StatusCode::ErrUnknownSession => Response::Err(WireError::UnknownSession(r.u64()?)),
            StatusCode::ErrOverloaded => {
                let reason = WireOverloadReason::from_byte(r.u8()?)
                    .ok_or_else(|| WireError::Protocol("bad overload reason".into()))?;
                let retry_after = Duration::from_micros(r.u64()?);
                Response::Err(WireError::Overloaded {
                    reason,
                    retry_after,
                })
            }
            StatusCode::ErrSessionExpired => Response::Err(WireError::SessionExpired(r.u64()?)),
            StatusCode::ErrSessionCancelled => Response::Err(WireError::SessionCancelled(r.u64()?)),
            StatusCode::ErrSessionPoisoned => Response::Err(WireError::SessionPoisoned(r.u64()?)),
            StatusCode::ErrFault => Response::Err(WireError::Fault(r.rest_utf8()?)),
            StatusCode::ErrPanicked => Response::Err(WireError::Panicked(r.rest_utf8()?)),
            StatusCode::ErrDelta => Response::Err(WireError::Delta(r.rest_utf8()?)),
        };
        r.finish()?;
        Ok(resp)
    }

    /// Map a service-side error to its wire form. `session` is the
    /// connection-scoped handle the request named (service-side ids never
    /// travel the wire).
    pub fn from_service_error(err: &ServiceError, session: u64) -> Response {
        Response::Err(match err {
            ServiceError::UnknownSession(_) => WireError::UnknownSession(session),
            ServiceError::Parse(e) => WireError::Parse(e.to_string()),
            ServiceError::Engine(e) => WireError::Engine(e.to_string()),
            ServiceError::Overloaded {
                reason,
                retry_after_hint,
            } => WireError::Overloaded {
                reason: (*reason).into(),
                retry_after: *retry_after_hint,
            },
            ServiceError::SessionExpired(_) => WireError::SessionExpired(session),
            ServiceError::SessionCancelled(_) => WireError::SessionCancelled(session),
            ServiceError::SessionPoisoned(_) => WireError::SessionPoisoned(session),
            ServiceError::Fault(i) => WireError::Fault(i.site.to_string()),
            ServiceError::Panicked { context } => WireError::Panicked(context.clone()),
            ServiceError::Delta(e) => WireError::Delta(e.to_string()),
        })
    }
}

// ----------------------------------------------------------------- framing

/// Why reading one frame stopped without producing a payload.
#[derive(Debug)]
pub enum FrameReadError {
    /// The peer closed cleanly at a frame boundary (0 bytes read).
    CleanEof,
    /// The peer disconnected mid-frame (header or payload torn).
    TornEof,
    /// A per-read timeout fired, or the whole-frame deadline lapsed
    /// (slow-loris defence).
    TimedOut,
    /// The frame announced a payload larger than `max`.
    TooLarge {
        /// The announced payload length.
        len: u32,
        /// The receiver's cap.
        max: u32,
    },
    /// The first byte was not [`MAGIC`].
    BadMagic(u8),
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The reserved byte was non-zero.
    BadReserved(u8),
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::CleanEof => f.write_str("peer closed the connection"),
            FrameReadError::TornEof => f.write_str("peer disconnected mid-frame"),
            FrameReadError::TimedOut => f.write_str("read deadline exceeded"),
            FrameReadError::TooLarge { len, max } => {
                write!(f, "frame announces {len} payload bytes (cap {max})")
            }
            FrameReadError::BadMagic(b) => write!(f, "bad magic byte {b:#04x}"),
            FrameReadError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameReadError::BadReserved(b) => write!(f, "non-zero reserved byte {b:#04x}"),
            FrameReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read exactly `buf.len()` bytes, tolerating partial reads and
/// `Interrupted`, aborting on timeout or when `deadline_exceeded` reports
/// the whole-frame budget is spent. `any_read` is set as soon as at least
/// one byte arrived (distinguishes a clean EOF from a torn frame).
fn read_full(
    stream: &mut impl Read,
    buf: &mut [u8],
    any_read: &mut bool,
    deadline_exceeded: &dyn Fn() -> bool,
) -> Result<(), FrameReadError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if *any_read {
                    FrameReadError::TornEof
                } else {
                    FrameReadError::CleanEof
                })
            }
            Ok(n) => {
                filled += n;
                *any_read = true;
                if filled < buf.len() && deadline_exceeded() {
                    return Err(FrameReadError::TimedOut);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => return Err(FrameReadError::TimedOut),
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame: validated header, then payload (reused via `payload`'s
/// allocation). Returns the kind byte. `deadline_exceeded` is consulted
/// after every partial read, bounding the **whole frame's** wall time no
/// matter how slowly the peer dribbles bytes.
pub(crate) fn read_frame(
    stream: &mut impl Read,
    max_frame_bytes: u32,
    payload: &mut Vec<u8>,
    deadline_exceeded: &dyn Fn() -> bool,
) -> Result<u8, FrameReadError> {
    let mut header = [0u8; HEADER_LEN];
    let mut any_read = false;
    read_full(stream, &mut header, &mut any_read, deadline_exceeded)?;
    if header[0] != MAGIC {
        return Err(FrameReadError::BadMagic(header[0]));
    }
    if header[1] != VERSION {
        return Err(FrameReadError::BadVersion(header[1]));
    }
    if header[3] != 0 {
        return Err(FrameReadError::BadReserved(header[3]));
    }
    let kind = header[2];
    let len = u32::from_be_bytes(header[4..8].try_into().unwrap());
    if len > max_frame_bytes {
        // Reject on the announced length alone — nothing is allocated or
        // read, so a hostile length prefix costs the receiver 8 bytes.
        return Err(FrameReadError::TooLarge {
            len,
            max: max_frame_bytes,
        });
    }
    payload.clear();
    payload.resize(len as usize, 0);
    read_full(stream, payload, &mut any_read, deadline_exceeded)?;
    Ok(kind)
}

/// Serialise `kind` + `payload` into `out` as one frame.
pub(crate) fn encode_frame_into(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.clear();
    out.reserve(HEADER_LEN + payload.len());
    out.push(MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.push(0);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Write a whole frame, tolerating partial writes (`write_all` semantics
/// with `Interrupted` retries).
pub(crate) fn write_frame(stream: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    let mut written = 0;
    while written < frame.len() {
        match stream.write(&frame[written..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer stopped accepting bytes mid-frame",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// Encode one frame of kind `kind` into `scratch` (header + payload), the
/// payload written by `fill` into `payload_buf`; both reuse their
/// allocations.
fn encode_frame_with(
    scratch: &mut Vec<u8>,
    payload_buf: &mut Vec<u8>,
    kind: u8,
    fill: impl FnOnce(&mut Vec<u8>),
) {
    payload_buf.clear();
    fill(payload_buf);
    encode_frame_into(scratch, kind, payload_buf);
}

/// Encode a [`Request`] into `scratch` (header + payload), reusing its
/// allocation.
pub(crate) fn encode_request(scratch: &mut Vec<u8>, payload_buf: &mut Vec<u8>, req: &Request) {
    encode_frame_with(scratch, payload_buf, req.opcode() as u8, |buf| {
        req.encode_payload(buf)
    });
}

/// Encode a [`Response`] into `scratch` (header + payload), reusing its
/// allocation.
pub(crate) fn encode_response(scratch: &mut Vec<u8>, payload_buf: &mut Vec<u8>, resp: &Response) {
    encode_frame_with(scratch, payload_buf, resp.status() as u8, |buf| {
        resp.encode_payload(buf)
    });
}

/// Encode a `Page` response over borrowed `answers` into `scratch`: the
/// frame [`encode_response`] writes for [`Response::Page`], without owning
/// the page.
pub(crate) fn encode_page_response(
    scratch: &mut Vec<u8>,
    payload_buf: &mut Vec<u8>,
    done: bool,
    answers: &[Answer],
) {
    encode_frame_with(scratch, payload_buf, StatusCode::Page as u8, |buf| {
        encode_page(buf, done, answers)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut payload = Vec::new();
        req.encode_payload(&mut payload);
        let back = Request::decode(req.opcode() as u8, &payload).unwrap();
        assert_eq!(back, req);
    }

    fn roundtrip_response(resp: Response) {
        let mut payload = Vec::new();
        resp.encode_payload(&mut payload);
        let back = Response::decode(resp.status() as u8, &payload).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Prepare("Q(x, y) :- R(x, y)".into()));
        roundtrip_request(Request::OpenSession("Q(x) :- R(x, x) via lazy".into()));
        roundtrip_request(Request::NextPage {
            session: u64::MAX,
            page_size: 1,
        });
        roundtrip_request(Request::Cancel(7));
        roundtrip_request(Request::Close(0));
    }

    #[test]
    fn ingest_frames_roundtrip_bit_identically() {
        roundtrip_request(Request::Ingest(DeltaBatch::new()));
        let batch = DeltaBatch::new()
            .delete("R1", 3)
            .delete("R1", usize::MAX)
            .insert("R2", Tuple::new(vec![10, 7], 0.5))
            // Awkward weights must survive bit-exactly, like answers do.
            .insert("R2", Tuple::new(vec![u64::MAX], -0.0))
            .insert("S", Tuple::new(vec![], f64::MAX));
        let req = Request::Ingest(batch.clone());
        let mut payload = Vec::new();
        req.encode_payload(&mut payload);
        match Request::decode(OpCode::Ingest as u8, &payload).unwrap() {
            Request::Ingest(back) => {
                assert_eq!(back, batch);
                let weights = |b: &DeltaBatch| -> Vec<u64> {
                    b.relations
                        .iter()
                        .flat_map(|d| d.inserts.iter().map(|t| t.weight().to_bits()))
                        .collect()
                };
                assert_eq!(weights(&back), weights(&batch), "bit-identical weights");
            }
            other => panic!("decoded {other:?}"),
        }
        roundtrip_response(Response::Ingested(42));
        roundtrip_response(Response::Err(WireError::Delta(
            "delta names unknown relation `Nope`".into(),
        )));
    }

    #[test]
    fn responses_roundtrip_including_answers_bit_identically() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Prepared("Q(v0, v1) :- R(v0, v1)".into()));
        roundtrip_response(Response::SessionOpened(3));
        roundtrip_response(Response::Cancelled);
        roundtrip_response(Response::Closed { existed: false });
        let answers = vec![
            Answer::new(3.5, vec![1, 2, 3], vec![(0, 7), (1, 9)]),
            // An awkward weight: negative zero must survive bit-exactly.
            Answer::new(-0.0, vec![], vec![]),
            // Atom indices ride as u32 (a join tree has a handful of atoms);
            // tuple ids as u64.
            Answer::new(
                f64::MAX,
                vec![u64::MAX],
                vec![(u32::MAX as usize, usize::MAX)],
            ),
        ];
        let mut payload = Vec::new();
        let page = Response::Page(Page {
            answers: answers.clone(),
            done: true,
        });
        page.encode_payload(&mut payload);
        match Response::decode(StatusCode::Page as u8, &payload).unwrap() {
            Response::Page(p) => {
                assert!(p.done);
                assert_eq!(p.answers, answers);
                for (a, b) in p.answers.iter().zip(&answers) {
                    assert_eq!(a.weight().to_bits(), b.weight().to_bits(), "bit-identical");
                }
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn page_payload_cut_anywhere_is_a_typed_error() {
        let answers = vec![
            Answer::new(3.5, vec![1, 2, 3], vec![(0, 7), (1, 9)]),
            Answer::new(-0.0, vec![], vec![]),
            Answer::new(1.0, (0..12).collect(), (0..12).map(|i| (i, i)).collect()),
        ];
        let mut payload = Vec::new();
        encode_page(&mut payload, false, &answers);
        match Response::decode(StatusCode::Page as u8, &payload).unwrap() {
            Response::Page(p) => assert_eq!(p.answers, answers),
            other => panic!("decoded {other:?}"),
        }
        for cut in 0..payload.len() {
            assert!(
                matches!(
                    Response::decode(StatusCode::Page as u8, &payload[..cut]),
                    Err(WireError::Protocol(_))
                ),
                "a page cut at {cut} bytes must fail typed"
            );
        }
        // The borrowed-page frame is the owned-page frame, byte for byte.
        let (mut owned, mut borrowed, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        let page = Response::Page(Page {
            answers: answers.clone(),
            done: true,
        });
        encode_response(&mut owned, &mut scratch, &page);
        encode_page_response(&mut borrowed, &mut scratch, true, &answers);
        assert_eq!(owned, borrowed);
    }

    fn sample_stats() -> StatsSnapshot {
        StatsSnapshot {
            version: STATS_VERSION,
            generation: 9,
            metrics: ServiceMetrics {
                sessions_opened: 4,
                answers_served: 123,
                current_generation: 9,
                ..Default::default()
            },
            phases: vec![
                PhaseSnapshot {
                    phase: Phase::Compile,
                    count: 2,
                    total_nanos: 1_000_000,
                    max_nanos: 700_000,
                },
                PhaseSnapshot {
                    phase: Phase::WireWrite,
                    count: 40,
                    total_nanos: 90_000,
                    max_nanos: 9_000,
                },
            ],
            page_latency: HistogramSummary {
                count: 12,
                sum: 360_000,
                max: 90_000,
                p50: 25_000,
                p90: 70_000,
                p99: 90_000,
            },
            plans: vec![
                (
                    "Q(v0, v1) :- R(v0, v1) rank by sum".to_owned(),
                    PlanSummaries {
                        ttf: HistogramSummary {
                            count: 4,
                            sum: 4_000,
                            max: 2_000,
                            p50: 900,
                            p90: 1_900,
                            p99: 2_000,
                        },
                        delay: HistogramSummary {
                            count: 123,
                            sum: 500_000,
                            max: 50_000,
                            p50: 3_000,
                            p90: 20_000,
                            p99: 48_000,
                        },
                        page: HistogramSummary::default(),
                    },
                ),
                ("Q(v0) :- S(v0, v0)".to_owned(), PlanSummaries::default()),
            ],
        }
    }

    #[test]
    fn stats_requests_and_responses_roundtrip_byte_exactly() {
        roundtrip_request(Request::Stats);
        let stats = sample_stats();
        let resp = Response::Stats(Box::new(stats.clone()));
        let mut payload = Vec::new();
        resp.encode_payload(&mut payload);
        // Byte-exact: re-encoding the decoded snapshot reproduces the
        // original payload bit for bit.
        match Response::decode(StatusCode::Stats as u8, &payload).unwrap() {
            Response::Stats(back) => {
                assert_eq!(*back, stats);
                let mut re = Vec::new();
                Response::Stats(back).encode_payload(&mut re);
                assert_eq!(re, payload, "byte-exact round trip");
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn malformed_stats_frames_are_typed_errors() {
        let mut payload = Vec::new();
        Response::Stats(Box::new(sample_stats())).encode_payload(&mut payload);
        // Truncations at every prefix must be typed protocol errors — never
        // a panic, never a silent partial decode.
        for cut in 0..payload.len() {
            assert!(
                matches!(
                    Response::decode(StatusCode::Stats as u8, &payload[..cut]),
                    Err(WireError::Protocol(_))
                ),
                "truncation at {cut} bytes must fail typed"
            );
        }
        // Trailing garbage is rejected by the strict reader.
        let mut oversize = payload.clone();
        oversize.push(0);
        assert!(matches!(
            Response::decode(StatusCode::Stats as u8, &oversize),
            Err(WireError::Protocol(_))
        ));
        // A stats request opcode carries no payload; any body is an error.
        assert!(matches!(
            Request::decode(OpCode::Stats as u8, &[1]),
            Err(WireError::Protocol(_))
        ));
        // Unknown layout version.
        let mut bad_version = payload.clone();
        bad_version[..4].copy_from_slice(&99u32.to_be_bytes());
        assert!(matches!(
            Response::decode(StatusCode::Stats as u8, &bad_version),
            Err(WireError::Protocol(_))
        ));
        // Metric-count mismatch (claims one fewer metric than the layout).
        let mut bad_count = payload.clone();
        let count_off = 4 + 8;
        bad_count[count_off..count_off + 2]
            .copy_from_slice(&((ServiceMetrics::FIELD_COUNT as u16) - 1).to_be_bytes());
        assert!(matches!(
            Response::decode(StatusCode::Stats as u8, &bad_count),
            Err(WireError::Protocol(_))
        ));
        // Unknown phase id.
        let mut bad_phase = payload.clone();
        let phase_ids_off = count_off + 2 + 8 * ServiceMetrics::FIELD_COUNT + 1;
        bad_phase[phase_ids_off] = 0xEE;
        assert!(matches!(
            Response::decode(StatusCode::Stats as u8, &bad_phase),
            Err(WireError::Protocol(_))
        ));
        // A well-formed frame in the version-2 layout (30 metrics, 9 phases)
        // is refused, not read as a snapshot with shifted fields.
        let mut v2 = Vec::new();
        put_u32(&mut v2, 2);
        put_u64(&mut v2, 9);
        put_u16(&mut v2, 30);
        v2.extend_from_slice(&[0; 8 * 30]);
        v2.push(9);
        for id in 0..9u8 {
            v2.push(id);
            v2.extend_from_slice(&[0; 8 * 3]);
        }
        encode_summary(&mut v2, &HistogramSummary::default());
        put_u16(&mut v2, 0);
        assert!(matches!(
            Response::decode(StatusCode::Stats as u8, &v2),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn error_responses_roundtrip() {
        for e in [
            WireError::Protocol("trailing bytes".into()),
            WireError::UnsupportedVersion { supported: 1 },
            WireError::FrameTooLarge { max: 1024 },
            WireError::ShuttingDown,
            WireError::Parse("expected `:-`".into()),
            WireError::Engine("unknown relation `Nope`".into()),
            WireError::UnknownSession(9),
            WireError::Overloaded {
                reason: WireOverloadReason::Connections,
                retry_after: Duration::from_micros(12345),
            },
            WireError::SessionExpired(1),
            WireError::SessionCancelled(2),
            WireError::SessionPoisoned(3),
            WireError::Fault("net.read".into()),
            WireError::Panicked("injected panic".into()),
        ] {
            roundtrip_response(Response::Err(e));
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_typed_errors() {
        // NextPage wants 12 bytes.
        assert!(matches!(
            Request::decode(OpCode::NextPage as u8, &[0; 4]),
            Err(WireError::Protocol(_))
        ));
        assert!(matches!(
            Request::decode(OpCode::NextPage as u8, &[0; 13]),
            Err(WireError::Protocol(_))
        ));
        // Zero-length frame where a session id is required.
        assert!(matches!(
            Request::decode(OpCode::Cancel as u8, &[]),
            Err(WireError::Protocol(_))
        ));
        // Unknown opcode / status.
        assert!(matches!(
            Request::decode(0x7F, &[]),
            Err(WireError::Protocol(_))
        ));
        assert!(matches!(
            Response::decode(0x00, &[]),
            Err(WireError::Protocol(_))
        ));
        // Non-UTF-8 query text.
        assert!(matches!(
            Request::decode(OpCode::Prepare as u8, &[0xFF, 0xFE]),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn frame_reader_polices_header_and_cap() {
        let read =
            |bytes: &[u8], max: u32| read_frame(&mut &bytes[..], max, &mut Vec::new(), &|| false);
        // A well-formed empty Ping frame.
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, OpCode::Ping as u8, &[]);
        assert_eq!(read(&frame, 16).unwrap(), OpCode::Ping as u8);
        // Truncated header → torn EOF; empty input → clean EOF.
        assert!(matches!(
            read(&frame[..3], 16),
            Err(FrameReadError::TornEof)
        ));
        assert!(matches!(read(&[], 16), Err(FrameReadError::CleanEof)));
        // Garbage magic / version / reserved.
        assert!(matches!(
            read(&[0x00; 8], 16),
            Err(FrameReadError::BadMagic(0))
        ));
        let mut bad = frame.clone();
        bad[1] = 99;
        assert!(matches!(
            read(&bad, 16),
            Err(FrameReadError::BadVersion(99))
        ));
        let mut bad = frame.clone();
        bad[3] = 1;
        assert!(matches!(
            read(&bad, 16),
            Err(FrameReadError::BadReserved(1))
        ));
        // Oversize announced length: rejected from the header alone.
        let mut huge = frame.clone();
        huge[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read(&huge, 16),
            Err(FrameReadError::TooLarge {
                len: u32::MAX,
                max: 16
            })
        ));
        // Torn payload: header promises 4 bytes, stream ends after 2.
        let mut torn = Vec::new();
        encode_frame_into(&mut torn, OpCode::Prepare as u8, b"Q(x)");
        assert!(matches!(
            read(&torn[..HEADER_LEN + 2], 16),
            Err(FrameReadError::TornEof)
        ));
    }

    #[test]
    fn service_errors_map_onto_typed_statuses() {
        use crate::service::SessionId;
        let cases: Vec<(ServiceError, StatusCode)> = vec![
            (
                ServiceError::Overloaded {
                    reason: OverloadReason::Memory,
                    retry_after_hint: Duration::from_millis(50),
                },
                StatusCode::ErrOverloaded,
            ),
            (
                ServiceError::Panicked {
                    context: "boom".into(),
                },
                StatusCode::ErrPanicked,
            ),
            (
                ServiceError::Fault(anyk_core::faults::Injected { site: "net.read" }),
                StatusCode::ErrFault,
            ),
            (
                ServiceError::Delta(anyk_storage::DeltaError::UnknownRelation("Nope".into())),
                StatusCode::ErrDelta,
            ),
        ];
        for (err, status) in cases {
            assert_eq!(Response::from_service_error(&err, 4).status(), status);
        }
        // Session-shaped errors carry the wire handle, not the service id.
        let err = {
            // SessionId has no public constructor; go through Display-free
            // matching instead: UnknownSession carries the handle we pass.
            ServiceError::UnknownSession(SessionId::test_only(42))
        };
        match Response::from_service_error(&err, 4) {
            Response::Err(WireError::UnknownSession(4)) => {}
            other => panic!("{other:?}"),
        }
    }
}
