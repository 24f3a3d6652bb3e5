//! Wire-protocol conformance and robustness.
//!
//! Two halves:
//!
//! * **Round-trip proof** — every ranked stream served over a real TCP
//!   socket is `==`-identical (including `f64` weight bits and witness
//!   provenance) to the in-process [`QueryService`] stream for the same
//!   `QuerySpec`, across all six algorithms and page sizes including 1.
//! * **Robustness** — fuzz-ish raw-byte attacks on the decoder (truncated
//!   header, torn mid-frame disconnect, oversize length prefix, garbage
//!   version byte, zero-length frames) end in a typed protocol error or a
//!   clean drop: no panic, no leaked session, and neighbour connections
//!   keep streaming.

use anyk_core::AnyKAlgorithm;
use anyk_engine::naive_sql;
use anyk_server::net::{
    AnyKClient, AnyKServer, ClientConfig, ClientError, NetConfig, Response, StatusCode, WireError,
    WireOverloadReason,
};
use anyk_server::{Answer, QueryService, QuerySpec};
use anyk_storage::{Database, Relation};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const ALGORITHMS: [AnyKAlgorithm; 6] = [
    AnyKAlgorithm::Eager,
    AnyKAlgorithm::Lazy,
    AnyKAlgorithm::All,
    AnyKAlgorithm::Take2,
    AnyKAlgorithm::Recursive,
    AnyKAlgorithm::Batch,
];

const QUERY: &str = "Q(x, y, z) :- R1(x, y), R2(y, z)";

fn path_db() -> Database {
    let mut db = Database::new();
    let mut r1 = Relation::new("R1", 2);
    let mut r2 = Relation::new("R2", 2);
    // A deterministic 12×12 bipartite-ish path with weight ties, so ranked
    // order actually exercises tie-breaking across the wire.
    for i in 0..12u64 {
        for j in 0..12u64 {
            if (i + j) % 3 != 0 {
                r1.push_edge(i, 100 + j, ((i * 7 + j * 5) % 11) as f64);
            }
            if (i * j) % 4 != 1 {
                r2.push_edge(100 + i, 200 + j, ((i * 3 + j) % 13) as f64);
            }
        }
    }
    db.add(r1);
    db.add(r2);
    db
}

fn start_server(cfg: NetConfig) -> (Arc<QueryService>, AnyKServer) {
    let service = Arc::new(QueryService::new(path_db()));
    let server = AnyKServer::bind(Arc::clone(&service), ("127.0.0.1", 0), cfg).unwrap();
    (service, server)
}

fn quick_client(server: &AnyKServer) -> AnyKClient {
    AnyKClient::connect(
        server.local_addr(),
        ClientConfig {
            read_timeout: Duration::from_secs(10),
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            ..ClientConfig::default()
        },
    )
}

/// Stream `text` to exhaustion in-process, `page_size` answers per pull.
fn in_process_stream(service: &QueryService, text: &str, page_size: usize) -> Vec<Answer> {
    let id = service.open_session_text(text).unwrap();
    let mut all = Vec::new();
    loop {
        let page = service.next_page(id, page_size).unwrap();
        let done = page.done;
        all.extend(page.answers);
        if done {
            break;
        }
    }
    assert!(service.close_session(id));
    all
}

#[test]
fn tcp_streams_are_bit_identical_to_in_process_for_all_algorithms_and_page_sizes() {
    let (service, mut server) = start_server(NetConfig::default());
    let mut client = quick_client(&server);
    // The one-shot in-process reference stream per algorithm.
    for algorithm in ALGORITHMS {
        let text = format!("{QUERY} via {}", format!("{algorithm:?}").to_lowercase());
        let reference = in_process_stream(&service, &text, 1 << 20);
        assert!(!reference.is_empty(), "query must produce answers");
        for page_size in [1usize, 2, 7, 100, 100_000] {
            let over_tcp = client.collect_all(&text, page_size).unwrap();
            assert_eq!(
                over_tcp, reference,
                "{algorithm:?} page_size={page_size}: TCP stream must equal in-process"
            );
            for (a, b) in over_tcp.iter().zip(&reference) {
                assert_eq!(
                    a.weight().to_bits(),
                    b.weight().to_bits(),
                    "weights must round-trip bit-identically"
                );
                assert_eq!(a.witness(), b.witness(), "witness provenance preserved");
            }
        }
    }
    assert_eq!(service.session_count(), 0, "no leaked sessions");
    server.shutdown();
    assert_eq!(service.metrics().mem_resident_units, 0);
}

#[test]
fn filtered_streams_over_tcp_carry_the_oracles_base_witnesses() {
    // `x = 5` and `z = 203` keep rows from the middle of R1 and R2: each
    // witness must name those input tuples, as the predicate-aware oracle
    // does, not their positions among the selected rows.
    let (service, mut server) = start_server(NetConfig::default());
    let mut client = quick_client(&server);
    let filtered = format!("{QUERY}, x = 5, z = 203");
    let spec = QuerySpec::parse(&filtered).unwrap();
    let fingerprints = |answers: &[Answer]| {
        let mut out: Vec<_> = answers
            .iter()
            .map(|a| {
                let mut witness = a.witness().to_vec();
                witness.sort_unstable();
                (a.values().to_vec(), a.weight().to_bits(), witness)
            })
            .collect();
        out.sort();
        out
    };
    let oracle = naive_sql::join_and_sort_spec(&path_db(), &spec).unwrap();
    assert!(!oracle.is_empty(), "query must produce answers");
    for algorithm in ALGORITHMS {
        let text = format!("{filtered} via {}", format!("{algorithm:?}").to_lowercase());
        let over_tcp = client.collect_all(&text, 3).unwrap();
        assert_eq!(
            fingerprints(&over_tcp),
            fingerprints(&oracle),
            "{algorithm:?}: values, weights and base witnesses"
        );
    }
    assert_eq!(service.session_count(), 0, "no leaked sessions");
    server.shutdown();
}

#[test]
fn prepare_returns_the_canonical_plan_key_and_hits_the_cache() {
    let (service, mut server) = start_server(NetConfig::default());
    let mut client = quick_client(&server);
    let key = client.prepare(QUERY).unwrap();
    assert_eq!(key, QuerySpec::parse(QUERY).unwrap().plan_key());
    // An alpha-renamed variant shares the plan.
    let renamed = "Q(a, b, c) :- R1(a, b), R2(b, c)";
    assert_eq!(client.prepare(renamed).unwrap(), key);
    let m = service.metrics();
    assert_eq!(m.plan_misses, 1);
    assert!(m.plan_hits >= 1);
    server.shutdown();
}

#[test]
fn remote_errors_are_typed() {
    let (_service, mut server) = start_server(NetConfig::default());
    let mut client = quick_client(&server);
    // Parse failure.
    match client.prepare("this is not a query") {
        Err(ClientError::Remote(WireError::Parse(_))) => {}
        other => panic!("expected typed parse error, got {other:?}"),
    }
    // Engine failure (unknown relation).
    match client.prepare("Q(x, y) :- Nope(x, y)") {
        Err(ClientError::Remote(WireError::Engine(_))) => {}
        other => panic!("expected typed engine error, got {other:?}"),
    }
    // Unknown session handle.
    match client.next_page(anyk_server::net::RemoteSession(999), 10) {
        Err(ClientError::Remote(WireError::UnknownSession(999))) => {}
        other => panic!("expected typed unknown-session error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn session_handles_are_connection_scoped() {
    let (service, mut server) = start_server(NetConfig::default());
    let mut alice = quick_client(&server);
    let mut eve = quick_client(&server);
    let session = alice.open_session(&format!("{QUERY} via lazy")).unwrap();
    // Eve guesses Alice's handle: her connection's namespace is empty, so
    // the guess misses — she can neither read nor cancel Alice's stream.
    match eve.next_page(session, 10) {
        Err(ClientError::Remote(WireError::UnknownSession(_))) => {}
        other => panic!("expected isolation, got {other:?}"),
    }
    match eve.cancel(session) {
        Err(ClientError::Remote(WireError::UnknownSession(_))) => {}
        other => panic!("expected isolation, got {other:?}"),
    }
    // Alice still streams fine afterwards.
    let page = alice.next_page(session, 5).unwrap();
    assert_eq!(page.answers.len(), 5);
    assert!(alice.close(session).unwrap());
    assert_eq!(service.session_count(), 0);
    server.shutdown();
}

#[test]
fn disconnect_closes_owned_sessions() {
    let (service, mut server) = start_server(NetConfig::default());
    let mut client = quick_client(&server);
    let s1 = client.open_session(&format!("{QUERY} via take2")).unwrap();
    let _ = client.next_page(s1, 3).unwrap();
    let _s2 = client.open_session(&format!("{QUERY} via eager")).unwrap();
    assert_eq!(service.session_count(), 2);
    client.disconnect();
    // The server notices the EOF and closes both sessions; poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while service.session_count() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "sessions not reaped after disconnect: {}",
            service.session_count()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(service.metrics().mem_resident_units, 0, "MEM gauge drained");
    server.shutdown();
}

#[test]
fn connection_cap_sheds_with_retry_after_before_handshake_work() {
    let (service, mut server) = start_server(NetConfig {
        max_connections: 1,
        retry_after_hint: Duration::from_micros(777),
        ..NetConfig::default()
    });
    let mut holder = quick_client(&server);
    holder.ping().unwrap(); // connection 1 is live and registered
    let mut extra = AnyKClient::connect(
        server.local_addr(),
        ClientConfig {
            max_retries: 2,
            initial_backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        },
    );
    match extra.open_session(QUERY) {
        Err(ClientError::Remote(WireError::Overloaded {
            reason: WireOverloadReason::Connections,
            retry_after,
        })) => assert_eq!(retry_after, Duration::from_micros(777)),
        other => panic!("expected connection-cap shed, got {other:?}"),
    }
    let m = service.metrics();
    assert!(m.connections_shed_at_accept >= 1, "{m:?}");
    assert_eq!(m.sessions_opened, 0, "shed before any session work");
    // The capped server still serves its live connection.
    holder.ping().unwrap();
    server.shutdown();
}

// ---------------------------------------------------------------- raw bytes

/// A hand-rolled frame: the attacker's view of the wire.
fn raw_frame(version: u8, kind: u8, reserved: u8, payload: &[u8]) -> Vec<u8> {
    let mut f = vec![0xA7, version, kind, reserved];
    f.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    f.extend_from_slice(payload);
    f
}

/// Read one response frame (header + payload) off a raw socket.
fn read_raw_response(stream: &mut TcpStream) -> Option<(u8, Vec<u8>)> {
    let mut header = [0u8; 8];
    stream.read_exact(&mut header).ok()?;
    assert_eq!(header[0], 0xA7);
    assert_eq!(header[1], 1);
    let len = u32::from_be_bytes(header[4..8].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).ok()?;
    Some((header[2], payload))
}

fn decode_raw_response(stream: &mut TcpStream) -> Option<Response> {
    let (kind, payload) = read_raw_response(stream)?;
    Some(Response::decode(kind, &payload).unwrap())
}

/// Assert the server is still healthy: a fresh well-behaved client streams
/// a full query, and no sessions are left behind.
fn assert_server_healthy(server: &AnyKServer, service: &QueryService) {
    let mut client = quick_client(server);
    let all = client
        .collect_all(&format!("{QUERY} via lazy"), 50)
        .unwrap();
    assert!(!all.is_empty());
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while service.session_count() != 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(service.session_count(), 0, "no leaked sessions");
}

#[test]
fn raw_byte_attacks_get_typed_errors_or_clean_drops_and_leak_nothing() {
    let (service, mut server) = start_server(NetConfig {
        max_frame_bytes: 64 * 1024,
        ..NetConfig::default()
    });
    let addr = server.local_addr();
    let connect = || TcpStream::connect(addr).unwrap();

    // 1. Truncated header: 3 bytes then close → server drops silently.
    {
        let mut s = connect();
        s.write_all(&[0xA7, 1, 0x01]).unwrap();
        drop(s);
    }
    // 2. Torn mid-frame: a full header promising 10 payload bytes, then 4
    //    bytes, then disconnect → clean drop, no reply.
    {
        let mut s = connect();
        let mut frame = raw_frame(1, 0x02, 0, &[b'Q'; 10]);
        frame.truncate(8 + 4);
        s.write_all(&frame).unwrap();
        drop(s);
    }
    // 3. Oversize length prefix: announced 2^31 payload → typed
    //    ErrFrameTooLarge carrying the server's cap, then close.
    {
        let mut s = connect();
        let mut header = vec![0xA7, 1, 0x02, 0];
        header.extend_from_slice(&(1u32 << 31).to_be_bytes());
        s.write_all(&header).unwrap();
        match decode_raw_response(&mut s) {
            Some(Response::Err(WireError::FrameTooLarge { max })) => {
                assert_eq!(max, 64 * 1024)
            }
            other => panic!("expected ErrFrameTooLarge, got {other:?}"),
        }
        assert!(decode_raw_response(&mut s).is_none(), "connection closed");
    }
    // 4. Garbage version byte → typed ErrUnsupportedVersion naming the one
    //    version the server speaks.
    {
        let mut s = connect();
        s.write_all(&raw_frame(42, 0x01, 0, &[])).unwrap();
        match decode_raw_response(&mut s) {
            Some(Response::Err(WireError::UnsupportedVersion { supported: 1 })) => {}
            other => panic!("expected ErrUnsupportedVersion, got {other:?}"),
        }
    }
    // 5. Garbage magic byte (an HTTP probe, say) → typed protocol error.
    {
        let mut s = connect();
        s.write_all(b"GET / HTTP/1.1\r\n").unwrap();
        match decode_raw_response(&mut s) {
            Some(Response::Err(WireError::Protocol(_))) => {}
            other => panic!("expected ErrProtocol, got {other:?}"),
        }
    }
    // 6. Zero-length frame for an op that requires a payload → typed
    //    protocol error; zero-length Ping is legal and gets Pong.
    {
        let mut s = connect();
        s.write_all(&raw_frame(1, 0x05, 0, &[])).unwrap(); // Cancel, no id
        match decode_raw_response(&mut s) {
            Some(Response::Err(WireError::Protocol(_))) => {}
            other => panic!("expected ErrProtocol, got {other:?}"),
        }
        let mut s = connect();
        s.write_all(&raw_frame(1, 0x01, 0, &[])).unwrap();
        assert!(matches!(decode_raw_response(&mut s), Some(Response::Pong)));
    }
    // 7. Non-zero reserved byte → typed protocol error.
    {
        let mut s = connect();
        s.write_all(&raw_frame(1, 0x01, 9, &[])).unwrap();
        match decode_raw_response(&mut s) {
            Some(Response::Err(WireError::Protocol(_))) => {}
            other => panic!("expected ErrProtocol, got {other:?}"),
        }
    }
    // 8. Unknown opcode → typed protocol error.
    {
        let mut s = connect();
        s.write_all(&raw_frame(1, 0x7F, 0, &[])).unwrap();
        match decode_raw_response(&mut s) {
            Some(Response::Err(WireError::Protocol(_))) => {}
            other => panic!("expected ErrProtocol, got {other:?}"),
        }
    }
    // 9. A session opened over raw bytes, then a torn disconnect mid-stream:
    //    the session must be reaped.
    {
        let mut s = connect();
        let text = format!("{QUERY} via eager");
        s.write_all(&raw_frame(1, 0x03, 0, text.as_bytes()))
            .unwrap();
        match decode_raw_response(&mut s) {
            Some(Response::SessionOpened(_)) => {}
            other => panic!("expected SessionOpened, got {other:?}"),
        }
        // Tear a NextPage frame in half and vanish.
        let mut next = raw_frame(1, 0x04, 0, &[0; 12]);
        next.truncate(10);
        s.write_all(&next).unwrap();
        drop(s);
    }
    // 10. Stats requests are bodyless: a trailing byte is a typed protocol
    //     error, while a bare raw-byte Stats frame gets a real snapshot.
    {
        let mut s = connect();
        s.write_all(&raw_frame(1, 0x08, 0, &[0])).unwrap();
        match decode_raw_response(&mut s) {
            Some(Response::Err(WireError::Protocol(_))) => {}
            other => panic!("expected ErrProtocol, got {other:?}"),
        }
        let mut s = connect();
        s.write_all(&raw_frame(1, 0x08, 0, &[])).unwrap();
        match decode_raw_response(&mut s) {
            Some(Response::Stats(stats)) => {
                assert_eq!(stats.version, anyk_server::STATS_VERSION)
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    assert_server_healthy(&server, &service);
    let m = service.metrics();
    assert_eq!(
        m.mem_resident_units, 0,
        "MEM gauge zero after the abuse: {m:?}"
    );
    server.shutdown();
}

#[test]
fn client_rejects_oversize_response_frames_before_allocation() {
    let (_service, mut server) = start_server(NetConfig::default());
    let mut tiny = AnyKClient::connect(
        server.local_addr(),
        ClientConfig {
            // Small enough that a page of answers cannot fit, large enough
            // for SessionOpened (8 bytes).
            max_frame_bytes: 16,
            ..ClientConfig::default()
        },
    );
    let session = tiny.open_session(&format!("{QUERY} via take2")).unwrap();
    match tiny.next_page(session, 100) {
        Err(ClientError::FrameTooLarge { len, max: 16 }) => assert!(len > 16),
        other => panic!("expected client-side FrameTooLarge, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn server_substitutes_frame_too_large_when_a_page_exceeds_its_own_cap() {
    // A server whose frame cap is tiny but whose page clamp is generous:
    // the encoded page overflows the cap and the typed error goes out
    // instead of an unframeable response.
    let (_service, mut server) = start_server(NetConfig {
        max_frame_bytes: 256,
        max_page_size: 4096,
        ..NetConfig::default()
    });
    let mut client = quick_client(&server);
    let session = client.open_session(&format!("{QUERY} via lazy")).unwrap();
    match client.next_page(session, 4096) {
        Err(ClientError::Remote(WireError::FrameTooLarge { max: 256 })) => {}
        // A small page may legitimately fit; the query here is big enough
        // that it never does.
        other => panic!("expected server-side FrameTooLarge, got {other:?}"),
    }
    // The oversize pull's answers are gone (documented loss — the server
    // clamp exists to make this unreachable in sane configs), but the
    // connection survives and small pages over a fresh session stream fine.
    client.close(session).unwrap();
    let session = client.open_session(&format!("{QUERY} via lazy")).unwrap();
    let page = client.next_page(session, 1).unwrap();
    assert_eq!(page.answers.len(), 1);
    client.close(session).unwrap();
    server.shutdown();
}

#[test]
fn shutdown_rejects_new_connections_and_queued_ones_get_shutting_down() {
    let (_service, mut server) = start_server(NetConfig::default());
    let addr = server.local_addr();
    let mut client = quick_client(&server);
    client.ping().unwrap();
    server.shutdown();
    // After shutdown the listener is gone: dials fail outright.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A TIME_WAIT race can let one connect through; it must then be
            // unable to complete a request.
            let mut c = quick_client(&server);
            c.ping().is_err()
        }
    );
    // The old connection is closed too.
    assert!(client.ping().is_err());
}

#[test]
fn stats_over_tcp_report_delay_percentiles_for_a_live_workload() {
    let (service, mut server) = start_server(NetConfig::default());
    let mut client = quick_client(&server);

    // Drive a real ranked stream to exhaustion, then scrape.
    let text = format!("{QUERY} via take2");
    let session = client.open_session(&text).unwrap();
    let mut pages = 0u64;
    let mut answers = 0u64;
    loop {
        let page = client.next_page(session, 16).unwrap();
        pages += 1;
        answers += page.answers.len() as u64;
        if page.done {
            break;
        }
    }
    client.close(session).unwrap();
    assert!(answers > 16, "workload streamed more than one page");

    let stats = client.stats().unwrap();
    assert_eq!(stats.version, anyk_server::STATS_VERSION);
    assert_eq!(stats.generation, 0);
    assert_eq!(stats.metrics, service.metrics(), "wire scrape ≡ in-process");
    assert!(stats.metrics.answers_served >= answers);
    assert!(stats.page_latency.count >= pages, "every pull was timed");

    // The prep pipeline and the wire itself left phase timings behind.
    let phase = |p| stats.phases.iter().find(|s| s.phase == p);
    for p in [
        anyk_server::Phase::Compile,
        anyk_server::Phase::WireRead,
        anyk_server::Phase::WireWrite,
    ] {
        let s = phase(p).unwrap_or_else(|| panic!("no {} phase timing", p.name()));
        assert!(s.count >= 1, "{} never fired", p.name());
        assert!(s.total_nanos >= s.max_nanos);
    }

    // The tentpole claim: per-plan TTF and per-answer delay percentiles,
    // keyed by the canonical plan key, served over TCP.
    let key = QuerySpec::parse(&text).unwrap().plan_key();
    let (_, sums) = stats
        .plans
        .iter()
        .find(|(k, _)| *k == key)
        .expect("plan distributions keyed by canonical plan key");
    assert_eq!(sums.ttf.count, 1, "one session, one TTF");
    assert!(sums.ttf.max > 0);
    assert_eq!(sums.delay.count, answers, "one delay sample per answer");
    assert!(sums.delay.p50 <= sums.delay.p90 && sums.delay.p90 <= sums.delay.p99);
    assert!(sums.delay.p99 <= sums.delay.max && sums.delay.max > 0);
    assert!(sums.page.count >= pages);

    // And the text rendering carries the same surface for scrapers.
    let prom = stats.render_prometheus();
    assert!(prom.contains("anyk_plan_delay_nanos{plan="));
    assert!(prom.contains("anyk_phase_count{phase=\"wire_read\"}"));
    assert!(prom.contains("anyk_page_latency_nanos_count"));

    server.shutdown();
}

#[test]
fn status_codes_cover_every_service_error_variant() {
    // A compile-time-ish sanity net: the status byte space the server can
    // emit is closed over the ServiceError taxonomy.
    for status in [
        StatusCode::ErrParse,
        StatusCode::ErrEngine,
        StatusCode::ErrUnknownSession,
        StatusCode::ErrOverloaded,
        StatusCode::ErrSessionExpired,
        StatusCode::ErrSessionCancelled,
        StatusCode::ErrSessionPoisoned,
        StatusCode::ErrFault,
        StatusCode::ErrPanicked,
    ] {
        assert!(status as u8 >= 0xC0);
    }
}
