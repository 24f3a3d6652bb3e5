//! One paging session, driven at any of the program's four public depths:
//! `net` (TCP client) ⊃ `service` (in-process `QueryService`) ⊃ `cursor`
//! (`AnswerCursor`) ⊃ `stream` (`PreparedQuery::enumerate`). The untraced
//! loops use the outermost depth of their workload; the traced run walks
//! all of them with the same [`run_session`].

use crate::tables::Shape;
use crate::trace::Tracer;
use anyk_core::{AnyKAlgorithm, MemoryStats};
use anyk_engine::{Answer, AnswerCursor, AnswerStream, PreparedQuery};
use anyk_query::QuerySpec;
use anyk_server::net::{AnyKClient, RemoteSession};
use anyk_server::{QueryService, SessionId, DEFAULT_ALGORITHM};
use std::sync::Arc;
use std::time::Instant;

/// Span names of one depth; each `parent_*` is the same call one layer out
/// (`""` at the outermost depth).
pub struct SpanNames {
    pub open: &'static str,
    /// The first pull, which pays for whatever the open deferred.
    pub first: &'static str,
    /// Open through first pull: request sent → first page in hand.
    pub to_first: &'static str,
    /// Every later pull.
    pub page: &'static str,
    pub close: &'static str,
    /// The whole session, open through close.
    pub session: &'static str,
    pub parent_open: &'static str,
    pub parent_first: &'static str,
    pub parent_to_first: &'static str,
    pub parent_page: &'static str,
    pub parent_close: &'static str,
    pub parent_session: &'static str,
}

macro_rules! span_names {
    ($depth:literal) => {
        span_names!(@build $depth, "", "", "", "", "", "")
    };
    ($depth:literal, $parent:literal) => {
        span_names!(@build $depth,
            concat!($parent, ".open"), concat!($parent, ".first"),
            concat!($parent, ".to_first"), concat!($parent, ".page"),
            concat!($parent, ".close"), concat!($parent, ".session"))
    };
    (@build $depth:literal, $po:expr, $pf:expr, $pt:expr, $pp:expr, $pc:expr, $ps:expr) => {
        SpanNames {
            open: concat!($depth, ".open"),
            first: concat!($depth, ".first"),
            to_first: concat!($depth, ".to_first"),
            page: concat!($depth, ".page"),
            close: concat!($depth, ".close"),
            session: concat!($depth, ".session"),
            parent_open: $po,
            parent_first: $pf,
            parent_to_first: $pt,
            parent_page: $pp,
            parent_close: $pc,
            parent_session: $ps,
        }
    };
}

pub trait Depth {
    const SPANS: SpanNames;
    fn open(&mut self) -> Result<(), String>;
    /// Pull up to `size` answers into `out`; `Ok(true)` when the stream
    /// ended.
    fn page(&mut self, size: usize, out: &mut Vec<Answer>) -> Result<bool, String>;
    fn close(&mut self) -> Result<(), String>;
    /// MEM(k) of the open session, where the depth can see it.
    fn mem(&self) -> Option<MemoryStats> {
        None
    }
}

pub struct NetDepth<'a> {
    pub client: &'a mut AnyKClient,
    pub text: &'a str,
    session: Option<RemoteSession>,
}

impl<'a> NetDepth<'a> {
    pub fn new(client: &'a mut AnyKClient, text: &'a str) -> Self {
        NetDepth {
            client,
            text,
            session: None,
        }
    }
}

impl Depth for NetDepth<'_> {
    const SPANS: SpanNames = span_names!("net");

    fn open(&mut self) -> Result<(), String> {
        self.session = Some(
            self.client
                .open_session(self.text)
                .map_err(|e| e.to_string())?,
        );
        Ok(())
    }

    fn page(&mut self, size: usize, out: &mut Vec<Answer>) -> Result<bool, String> {
        let session = self.session.ok_or("page before open")?;
        let page = self
            .client
            .next_page(session, size)
            .map_err(|e| e.to_string())?;
        *out = page.answers;
        Ok(page.done)
    }

    fn close(&mut self) -> Result<(), String> {
        match self.session.take() {
            Some(s) => match self.client.close(s) {
                Ok(true) => Ok(()),
                Ok(false) => Err("close: session was not live".into()),
                Err(e) => Err(e.to_string()),
            },
            None => Ok(()),
        }
    }
}

/// How a session is requested in-process: as text (parsed on every open,
/// like a wire request) or as an already-parsed spec.
#[derive(Clone, Copy)]
pub enum ServiceRequest<'a> {
    Text(&'a str),
    Spec(&'a QuerySpec),
}

pub struct ServiceDepth<'a> {
    pub service: &'a QueryService,
    pub request: ServiceRequest<'a>,
    session: Option<SessionId>,
}

impl<'a> ServiceDepth<'a> {
    pub fn new(service: &'a QueryService, request: ServiceRequest<'a>) -> Self {
        ServiceDepth {
            service,
            request,
            session: None,
        }
    }
}

impl Depth for ServiceDepth<'_> {
    const SPANS: SpanNames = span_names!("service", "net");

    fn open(&mut self) -> Result<(), String> {
        let opened = match self.request {
            ServiceRequest::Text(text) => self.service.open_session_text(text),
            ServiceRequest::Spec(spec) => self.service.open_session_spec(spec),
        };
        self.session = Some(opened.map_err(|e| e.to_string())?);
        Ok(())
    }

    fn page(&mut self, size: usize, out: &mut Vec<Answer>) -> Result<bool, String> {
        let id = self.session.ok_or("page before open")?;
        self.service
            .next_page_into(id, size, out)
            .map_err(|e| e.to_string())
    }

    fn close(&mut self) -> Result<(), String> {
        match self.session.take() {
            Some(id) if !self.service.close_session(id) => {
                Err("close: session was not live".into())
            }
            _ => Ok(()),
        }
    }
}

pub struct CursorDepth<'a> {
    pub plan: &'a Arc<PreparedQuery>,
    /// Take a MEM(k) snapshot before closing (a walk over the successor
    /// table, so off unless asked for).
    pub measure_mem: bool,
    cursor: Option<AnswerCursor>,
}

impl<'a> CursorDepth<'a> {
    pub fn new(plan: &'a Arc<PreparedQuery>) -> Self {
        CursorDepth {
            plan,
            measure_mem: false,
            cursor: None,
        }
    }
}

impl Depth for CursorDepth<'_> {
    const SPANS: SpanNames = span_names!("cursor", "service");

    fn open(&mut self) -> Result<(), String> {
        self.cursor = Some(self.plan.cursor(DEFAULT_ALGORITHM));
        Ok(())
    }

    fn page(&mut self, size: usize, out: &mut Vec<Answer>) -> Result<bool, String> {
        let cursor = self.cursor.as_mut().ok_or("page before open")?;
        Ok(cursor.next_page_into(size, out))
    }

    fn close(&mut self) -> Result<(), String> {
        self.cursor = None;
        Ok(())
    }

    fn mem(&self) -> Option<MemoryStats> {
        self.cursor
            .as_ref()
            .filter(|_| self.measure_mem)
            .and_then(AnswerCursor::memory_stats)
    }
}

pub struct StreamDepth<'a> {
    pub plan: &'a PreparedQuery,
    pub algorithm: AnyKAlgorithm,
    stream: Option<Box<dyn AnswerStream + 'a>>,
}

impl<'a> StreamDepth<'a> {
    pub fn new(plan: &'a PreparedQuery, algorithm: AnyKAlgorithm) -> Self {
        StreamDepth {
            plan,
            algorithm,
            stream: None,
        }
    }
}

impl Depth for StreamDepth<'_> {
    const SPANS: SpanNames = span_names!("stream", "cursor");

    fn open(&mut self) -> Result<(), String> {
        self.stream = Some(self.plan.enumerate(self.algorithm));
        Ok(())
    }

    fn page(&mut self, size: usize, out: &mut Vec<Answer>) -> Result<bool, String> {
        let stream = self.stream.as_mut().ok_or("page before open")?;
        out.clear();
        out.extend(stream.by_ref().take(size));
        Ok(out.len() < size)
    }

    fn close(&mut self) -> Result<(), String> {
        self.stream = None;
        Ok(())
    }
}

/// What a session's answers are checked against as they arrive.
pub enum Expect<'a> {
    /// Rank order and page sizes only (the data is changing underneath).
    Order,
    /// Additionally the weight bits of the reference stream, answer by
    /// answer, for as far as the reference goes.
    Weights(&'a [u64]),
}

/// Timings of one session, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct SessionTimes {
    /// `open` call plus the first pull: request sent → first page in hand.
    pub first_page_ns: u64,
    /// Every pull after the first.
    pub pages_ns: Vec<u64>,
    /// Open → `k`-th answer in hand.
    pub ttk_ns: u64,
    /// Open → close returned.
    pub session_ns: u64,
    pub pages: u64,
    /// MEM(k) just before close, from depths that expose it.
    pub mem: Option<MemoryStats>,
}

/// Where a session's spans go: nowhere (untraced), or into a tracer under
/// an operation id.
pub type SpanSink<'a> = Option<(&'a mut Tracer, u64)>;

/// With a sink, span recording alternates on and off from one later page
/// (`SessionTimes::pages_ns[index]`) to the next, so the traced and the
/// untraced pages of the same sessions can be compared: the difference of
/// their medians is what recording a span costs.
pub fn page_is_traced(index: usize) -> bool {
    index.is_multiple_of(2)
}

/// Run one session of `shape` at depth `d`, checking every page as it
/// arrives. On a failed call or check the session is closed best-effort and
/// the reason returned. `keep` collects the answers (for cross-depth
/// comparison) when given.
pub fn run_session<D: Depth>(
    d: &mut D,
    shape: Shape,
    expect: &Expect<'_>,
    mut sink: SpanSink<'_>,
    mut keep: Option<&mut Vec<Answer>>,
    buf: &mut Vec<Answer>,
) -> Result<SessionTimes, String> {
    let mut times = SessionTimes::default();
    let mut span = |name, parent, start: Instant, end: Instant| {
        if let Some((tracer, op)) = sink.as_mut() {
            tracer.record(*op, name, parent, start, end);
        }
    };
    let start = Instant::now();
    d.open()?;
    let opened = Instant::now();
    span(D::SPANS.open, D::SPANS.parent_open, start, opened);

    let mut served = 0usize;
    let mut last_weight = f64::NEG_INFINITY;
    let mut at = opened;
    let mut arrived = opened;
    let result = loop {
        if served >= shape.k {
            break Ok(());
        }
        let want = if served == 0 { shape.first } else { shape.page }.min(shape.k - served);
        let done = match d.page(want, buf) {
            Ok(done) => done,
            Err(e) => break Err(e),
        };
        arrived = Instant::now();
        if served == 0 {
            span(D::SPANS.first, D::SPANS.parent_first, at, arrived);
            span(D::SPANS.to_first, D::SPANS.parent_to_first, start, arrived);
            times.first_page_ns = arrived.duration_since(start).as_nanos() as u64;
        } else {
            if page_is_traced(times.pages_ns.len()) {
                span(D::SPANS.page, D::SPANS.parent_page, at, arrived);
            }
            times
                .pages_ns
                .push(arrived.duration_since(at).as_nanos() as u64);
        }
        times.pages += 1;
        if let Err(e) = check_page(buf, want, done, served, shape.k, &mut last_weight, expect) {
            break Err(e);
        }
        if let Some(keep) = keep.as_deref_mut() {
            keep.extend(buf.iter().cloned());
        }
        served += want;
        // Checking is the client's own time, not the next page's.
        at = Instant::now();
    };
    times.ttk_ns = arrived.duration_since(start).as_nanos() as u64;
    times.mem = d.mem();
    let closing = Instant::now();
    let closed = d.close();
    let end = Instant::now();
    span(D::SPANS.close, D::SPANS.parent_close, closing, end);
    span(D::SPANS.session, D::SPANS.parent_session, start, end);
    times.session_ns = end.duration_since(start).as_nanos() as u64;
    result.and(closed).map(|()| times)
}

/// The per-page half of the correctness gate: exact page size, no early end
/// of stream, non-decreasing weights, and (when a reference is given) the
/// reference's weight bits.
fn check_page(
    page: &[Answer],
    want: usize,
    done: bool,
    served: usize,
    k: usize,
    last_weight: &mut f64,
    expect: &Expect<'_>,
) -> Result<(), String> {
    if page.len() != want {
        return Err(format!("page of {} answers, wanted {want}", page.len()));
    }
    if done && served + want < k {
        return Err(format!("stream ended after {} answers", served + want));
    }
    for (i, a) in page.iter().enumerate() {
        let w = a.weight();
        if w < *last_weight || w.is_nan() {
            return Err(format!("rank order broken at answer {}", served + i));
        }
        *last_weight = w;
        if let Expect::Weights(reference) = expect {
            // The reference may be shorter than the session (deep pulls).
            if reference
                .get(served + i)
                .is_some_and(|&bits| bits != w.to_bits())
            {
                return Err(format!("answer {} differs from the reference", served + i));
            }
        }
    }
    Ok(())
}
