//! Bringing a workload's system up — data, service, server, clients and
//! the first (cold) request — and the run parameters shared by the untraced
//! and traced runs.

use crate::depths::{run_session, CursorDepth, Expect, ServiceDepth, ServiceRequest};
use crate::inputs::Inputs;
use crate::tables::{Kind, Shape, Workload};
use anyk_core::MemoryStats;
use anyk_engine::{Answer, PreparedQuery};
use anyk_server::net::{AnyKClient, AnyKServer, ClientConfig, NetConfig};
use anyk_server::QueryService;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// Same code paths on 400-tuple inputs; results are not comparable.
    pub quick: bool,
}

impl Params {
    pub fn n(&self) -> usize {
        if self.quick {
            self.workload.quick_n
        } else {
            self.workload.n
        }
    }

    pub fn shape(&self) -> Shape {
        let shape = self.workload.shape;
        if self.quick {
            Shape {
                k: self.workload.quick_k,
                ..shape
            }
        } else {
            shape
        }
    }
}

/// Cores the load generator may use: clients plus ingester never exceed it,
/// and the server gets as many workers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A running TCP server over a warm service.
pub struct Served {
    pub service: Arc<QueryService>,
    pub server: AnyKServer,
}

impl Served {
    pub fn start(service: Arc<QueryService>, workers: usize) -> Result<Served, String> {
        let server = AnyKServer::bind(
            Arc::clone(&service),
            ("127.0.0.1", 0),
            NetConfig {
                workers,
                ..NetConfig::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        Ok(Served { service, server })
    }

    /// A connected client (one round trip made, so the dial is not billed
    /// to the first request).
    pub fn client(&self) -> Result<AnyKClient, String> {
        let mut client = AnyKClient::connect(self.server.local_addr(), ClientConfig::default());
        client.ping().map_err(|e| format!("connect: {e}"))?;
        Ok(client)
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

/// What the first request on a freshly built system cost.
#[derive(Debug, Clone, Copy)]
pub struct ColdStart {
    /// Query text/spec → prepared plan, cold caches.
    pub prep_ms: f64,
    /// Query text/spec → first pull in hand, preprocessing included.
    pub ttf_ms: f64,
}

pub struct System {
    pub inputs: Inputs,
    /// Present on the TCP kinds.
    pub served: Option<Served>,
    pub clients: Vec<AnyKClient>,
    pub cold: ColdStart,
}

/// One cold request at engine depth: clone the pristine database (empty
/// index cache), compile, open a cursor, pull the first page.
pub fn cold_engine_request(
    inputs: &Inputs,
    shape: Shape,
    buf: &mut Vec<Answer>,
) -> Result<(Arc<PreparedQuery>, ColdStart), String> {
    let start = Instant::now();
    let db = Arc::new(inputs.pristine.clone());
    let plan = Arc::new(PreparedQuery::from_spec(db, &inputs.spec).map_err(|e| e.to_string())?);
    let prep_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut cursor = plan.cursor(anyk_server::DEFAULT_ALGORITHM);
    cursor.next_page_into(shape.first, buf);
    let ttf_ms = start.elapsed().as_secs_f64() * 1e3;
    if buf.len() != shape.first {
        return Err(format!("cold first page held {} answers", buf.len()));
    }
    Ok((plan, ColdStart { prep_ms, ttf_ms }))
}

/// One cold request at service depth: a pristine service, `prepare_text`,
/// then a whole session from text. Returns the (now warm) service, the cold
/// start figures and the session's timings.
pub fn cold_service_request(
    inputs: &Inputs,
    shape: Shape,
    expect: &Expect<'_>,
    buf: &mut Vec<Answer>,
) -> Result<(QueryService, ColdStart, crate::depths::SessionTimes), String> {
    let start = Instant::now();
    let service = QueryService::new(inputs.pristine.clone());
    service
        .prepare_text(&inputs.text)
        .map_err(|e| e.to_string())?;
    let prepared = Instant::now();
    let times = {
        let mut depth = ServiceDepth::new(&service, ServiceRequest::Text(&inputs.text));
        run_session(&mut depth, shape, expect, None, None, buf)?
    };
    let prep_ns = prepared.duration_since(start).as_nanos() as u64;
    let cold = ColdStart {
        prep_ms: prep_ns as f64 / 1e6,
        ttf_ms: (prep_ns + times.first_page_ns) as f64 / 1e6,
    };
    Ok((service, cold, times))
}

/// Build the workload's system from nothing and make its first request.
/// Returns the system and the seconds it took (`setup_s`: datagen +
/// `Database` build + service/server construction + plan warm-up + client
/// connect).
pub fn set_up(p: &Params) -> Result<(System, f64), String> {
    let start = Instant::now();
    let inputs = Inputs::generate(p.workload.query, p.n(), p.seed);
    let mut buf = Vec::new();
    let shape = p.shape();
    let (served, clients, cold) = match p.workload.kind {
        Kind::DeepEngine => {
            let (_, cold) = cold_engine_request(&inputs, shape, &mut buf)?;
            (None, Vec::new(), cold)
        }
        Kind::ColdService => {
            let (_, cold, _) = cold_service_request(&inputs, shape, &Expect::Order, &mut buf)?;
            (None, Vec::new(), cold)
        }
        Kind::ServeTcp | Kind::MixedTcp => {
            let (service, cold, _) =
                cold_service_request(&inputs, shape, &Expect::Order, &mut buf)?;
            let served = Served::start(Arc::new(service), nproc())?;
            let clients = (0..nproc())
                .map(|_| served.client())
                .collect::<Result<Vec<_>, _>>()?;
            (Some(served), clients, cold)
        }
    };
    let system = System {
        inputs,
        served,
        clients,
        cold,
    };
    Ok((system, start.elapsed().as_secs_f64()))
}

/// MEM(k): the live footprint of one cursor over `plan` after `shape.k`
/// answers pulled in the workload's page sizes.
pub fn mem_after_k(plan: &Arc<PreparedQuery>, shape: Shape) -> Result<MemoryStats, String> {
    let mut depth = CursorDepth::new(plan);
    depth.measure_mem = true;
    let times = run_session(
        &mut depth,
        shape,
        &Expect::Order,
        None,
        None,
        &mut Vec::new(),
    )?;
    times
        .mem
        .ok_or_else(|| "cursor reports no memory stats".to_string())
}

/// Weight bits of the first `count` answers of `plan`'s one-shot stream —
/// the reference the paged depths are held to.
pub fn reference_answers(plan: &PreparedQuery, count: usize) -> Vec<Answer> {
    plan.enumerate(anyk_server::DEFAULT_ALGORITHM)
        .take(count)
        .collect()
}

pub fn weight_bits(answers: &[Answer]) -> Vec<u64> {
    answers.iter().map(|a| a.weight().to_bits()).collect()
}

/// `VmHWM` of this process in MB (NaN off Linux).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
