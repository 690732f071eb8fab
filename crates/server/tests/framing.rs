//! End-to-end tests of the `bin1` wire framing: negotiation via `hello`,
//! byte-identity of responses across framings (the cache's byte-replay
//! guarantee must not fork per framing), the `wire` status block, hostile
//! frame rejection, and the Router speaking `bin1` when asked.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use strudel_core::sigma::SigmaSpec;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;
use strudel_server::prelude::*;
use strudel_server::protocol::{self, FrameKind, Framing};

fn start_server() -> ServerHandle {
    server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port")
}

fn small_view() -> SignatureView {
    let properties: Vec<String> = (0..4).map(|i| format!("http://ex/p{i}")).collect();
    let signatures = vec![(vec![0, 1], 40), (vec![1, 2], 35), (vec![2, 3], 25)];
    SignatureView::from_counts(properties, signatures).expect("valid synthetic view")
}

fn refine_request(theta: Ratio) -> SolveRequest {
    SolveRequest {
        op: SolveOp::Refine,
        view: small_view(),
        spec: SigmaSpec::Coverage,
        engine: EngineKind::Greedy,
        k: Some(2),
        theta: Some(theta),
        step: None,
        max_k: None,
        time_limit: None,
        routing: None,
        tenant: None,
    }
}

fn connect_bin(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect_with(
        addr,
        ClientOptions {
            framing: Some(FramingMode::Bin1),
            ..ClientOptions::default()
        },
    )
    .expect("connect");
    // The handshake is lazy; force it so tests can assert on framing().
    client.status().expect("status over bin1");
    assert_eq!(client.framing(), Framing::Bin1, "hello must negotiate bin1");
    client
}

#[test]
fn responses_are_byte_identical_across_framings() {
    let handle = start_server();
    let mut json_client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(json_client.framing(), Framing::Json);
    let mut bin_client = connect_bin(handle.addr());

    // First solve goes through the json client (source: solved); the
    // bin1 client replays it from cache. The result bytes — the part
    // the byte-replay guarantee covers — must be identical.
    let request = refine_request(Ratio::new(3, 10));
    let solved = json_client.solve(&request).expect("solve over json");
    let replayed = bin_client.solve(&request).expect("solve over bin1");
    assert_eq!(replayed.source(), Some(Source::Cache));
    assert_eq!(
        solved.result_text().expect("result bytes"),
        replayed.result_text().expect("result bytes"),
        "cache replay must be byte-identical across framings"
    );

    // A second hit from each framing is the same envelope end to end.
    let via_json = json_client.solve(&request).expect("cached over json");
    let via_bin = bin_client.solve(&request).expect("cached over bin1");
    assert_eq!(
        via_json.raw, via_bin.raw,
        "cached response lines must not fork per framing"
    );

    // Batches: same elements, same per-element bytes — including an
    // error element, which exercises the error envelope path.
    let elements = vec![
        refine_request(Ratio::new(3, 10)).to_json(),
        Json::obj(vec![("op", Json::str("no_such_op"))]),
        Json::obj(vec![("op", Json::str("status"))]),
    ];
    let from_json = json_client.call_batch(&elements).expect("batch over json");
    let from_bin = bin_client.call_batch(&elements).expect("batch over bin1");
    assert_eq!(from_json.len(), 3);
    match (&from_json[0], &from_bin[0]) {
        (Ok(a), Ok(b)) => assert_eq!(a.raw, b.raw, "solve elements must match"),
        other => panic!("expected ok solve elements, got {other:?}"),
    }
    match (&from_json[1], &from_bin[1]) {
        (Err(a), Err(b)) => assert_eq!(a, b, "error elements must match"),
        other => panic!("expected error elements, got {other:?}"),
    }
    assert!(from_json[2].is_ok() && from_bin[2].is_ok());

    // Raw-line traffic (including malformed lines) gets the same error
    // envelope: on bin1 it rides the embedded-JSON escape hatch.
    let bad = "{\"op\":\"refine\"";
    let json_err = json_client.call_raw(bad).expect("error line over json");
    let bin_err = bin_client.call_raw(bad).expect("error line over bin1");
    assert_eq!(json_err, bin_err, "error envelopes must not fork");

    json_client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn status_exposes_the_wire_block() {
    let handle = start_server();
    let mut json_client = Client::connect(handle.addr()).expect("connect");
    let mut bin_client = connect_bin(handle.addr());
    bin_client
        .solve(&refine_request(Ratio::new(1, 4)))
        .expect("solve over bin1");
    bin_client
        .solve_batch(&[
            refine_request(Ratio::new(1, 4)),
            refine_request(Ratio::new(1, 2)),
        ])
        .expect("batch over bin1");

    let status = json_client.status().expect("status");
    let result = status.result().expect("status result");
    let wire = result.get("wire").expect("status has a wire block");
    let count = |key: &str| {
        wire.get(key)
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("wire block lacks '{key}': {}", status.raw))
    };
    // status (forced handshake) + solve + batch = at least 3 request
    // frames in; each got exactly one response frame out.
    assert!(count("frames_in") >= 3, "frames_in: {}", status.raw);
    assert!(count("frames_out") >= 3, "frames_out: {}", status.raw);
    assert!(count("bytes_in") > 0 && count("bytes_out") > 0);
    assert_eq!(count("decode_errors"), 0, "{}", status.raw);
    assert!(count("bin_negotiated") >= 1);
    let connections = wire.get("connections").expect("connection roll-up");
    assert_eq!(
        connections.get("bin1").and_then(Json::as_int),
        Some(1),
        "one bin1 connection open: {}",
        status.raw
    );
    assert!(
        connections.get("json").and_then(Json::as_int) >= Some(1),
        "the json client itself is open: {}",
        status.raw
    );

    json_client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn hello_is_idempotent_but_never_downgrades() {
    let handle = start_server();
    let mut bin_client = connect_bin(handle.addr());

    // A second bin1 hello is an idempotent ack, not an error.
    let ack = bin_client
        .call_raw(&protocol::encode_hello(Framing::Bin1))
        .expect("repeat hello");
    assert!(ack.contains("\"ok\":true"), "ack: {ack}");

    // Renegotiating back to json is refused — the reply would race the
    // flip — but the connection survives and keeps speaking bin1.
    let refused = bin_client
        .call_raw(&protocol::encode_hello(Framing::Json))
        .expect("refusal travels as a normal error envelope");
    assert!(refused.contains("\"ok\":false"), "refusal: {refused}");
    bin_client
        .status()
        .expect("connection survives the refusal");

    // repl_subscribe streams newline-delimited records; it is refused
    // on a framed connection rather than silently desyncing it.
    let refused = bin_client
        .call_raw(&protocol::encode_repl_subscribe(None))
        .expect("refusal travels as a normal error envelope");
    assert!(refused.contains("\"ok\":false"), "refusal: {refused}");
    bin_client
        .status()
        .expect("connection survives the refusal");

    bin_client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn hostile_frames_kill_only_their_own_connection() {
    let handle = start_server();
    let mut good = connect_bin(handle.addr());

    // Negotiate by hand, then send garbage where a frame must start.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    raw.write_all(protocol::encode_hello(Framing::Bin1).as_bytes())
        .and_then(|()| raw.write_all(b"\n"))
        .expect("hello line");
    let mut ack = [0u8; 4];
    raw.read_exact(&mut ack).expect("framed ack starts");
    assert_eq!(ack[0], protocol::FRAME_MAGIC[0], "ack must be a frame");
    raw.write_all(b"not a frame at all\n").expect("garbage");
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest)
        .expect("server answers then closes");
    let text = String::from_utf8_lossy(&rest);
    assert!(
        text.contains("invalid frame"),
        "expected a framed error before the close, got: {text}"
    );

    // A frame claiming an absurd payload length is rejected up front,
    // not buffered until memory runs out.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    raw.write_all(protocol::encode_hello(Framing::Bin1).as_bytes())
        .and_then(|()| raw.write_all(b"\n"))
        .expect("hello line");
    let mut oversized = vec![0xB5, 0x01, 0x01, 0x01, 0x00]; // magic, version, kind, no tenant
    oversized.extend_from_slice(&[0xFF; 9]); // varint(u64::MAX): an 18-exabyte
    oversized.push(0x01); // payload claim, rejected before any buffering
    raw.write_all(&oversized).expect("oversized frame");
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).expect("server closes");

    // The well-behaved connection is untouched, and the server counted
    // the decode failures.
    let status = good.status().expect("good connection still serves");
    let errors = status
        .result()
        .and_then(|result| result.get("wire"))
        .and_then(|wire| wire.get("decode_errors"))
        .and_then(Json::as_int)
        .expect("wire.decode_errors");
    assert!(errors >= 2, "expected both decode errors counted: {errors}");

    good.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn a_json_server_speaks_json_until_asked_and_auto_prefers_bin1() {
    let handle = start_server();

    // An auto client negotiates bin1 against a current server.
    let mut auto = Client::connect_with(
        handle.addr(),
        ClientOptions {
            framing: Some(FramingMode::Auto),
            ..ClientOptions::default()
        },
    )
    .expect("connect");
    auto.status().expect("status");
    assert_eq!(auto.framing(), Framing::Bin1);

    // A raw line-JSON connection that never sends a hello stays on
    // the default framing: the reply is a newline-terminated line.
    let raw = TcpStream::connect(handle.addr()).expect("connect raw");
    let mut writer = raw.try_clone().expect("clone");
    writer
        .write_all(b"{\"op\":\"status\"}\n")
        .expect("status line");
    let mut reply = String::new();
    BufReader::new(raw).read_line(&mut reply).expect("reply");
    assert!(
        reply.starts_with('{') && reply.ends_with('\n'),
        "default framing must remain line-JSON: {reply:?}"
    );

    auto.shutdown().expect("shutdown");
    handle.wait();
}

/// Reads the whole remaining stream in deliberately small sips, pausing
/// between batches of sips — a throttled reader that keeps the server's
/// socket buffer full, so the flush path lives off partial vectored
/// writes resuming mid-chunk.
fn read_throttled(stream: &mut TcpStream) -> Vec<u8> {
    let mut received = Vec::new();
    let mut chunk = [0u8; 1024];
    let mut sips = 0u32;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                received.extend_from_slice(&chunk[..n]);
                sips += 1;
                if sips % 8 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            Err(err) => panic!("throttled read failed: {err}"),
        }
    }
    received
}

/// The short-write regression: a peer that drains its socket one sip at
/// a time forces the flush path into repeated partial vectored writes,
/// so nearly every resume lands mid-chunk and exercises the `out_front`
/// bookkeeping across thousands of chunk boundaries. Any lost,
/// duplicated, or reordered byte forks the stream and fails the
/// N-identical-responses assertions. Both framings run, because their
/// chunk layouts differ: envelope fragments around a shared cache
/// payload on line-JSON, a frame header plus payload on `bin1`.
#[test]
fn a_throttled_reader_forces_partial_writes_without_corruption() {
    // Roughly 1 MB of queued responses — several times what the loopback
    // send buffer and the un-drained peer window absorb, so the server
    // spends most of the test mid-backlog.
    const PIPELINED: usize = 2500;
    let handle = start_server();
    let request = refine_request(Ratio::new(3, 10));

    // Prime the cache so every pipelined response below is the
    // same byte-replayed envelope.
    let mut primer = Client::connect(handle.addr()).expect("connect primer");
    primer.solve(&request).expect("prime the cache");
    let reference = primer.solve(&request).expect("cached reference");
    assert_eq!(reference.source(), Some(Source::Cache));

    // — line-JSON framing —
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let line = request.to_json().to_text();
    let mut burst = Vec::with_capacity((line.len() + 1) * PIPELINED);
    for _ in 0..PIPELINED {
        burst.extend_from_slice(line.as_bytes());
        burst.push(b'\n');
    }
    raw.write_all(&burst).expect("pipelined burst");
    raw.shutdown(Shutdown::Write).expect("half-close");
    // Let responses pile up behind the un-drained socket before
    // the first sip: from here on, every flush is a short write.
    std::thread::sleep(Duration::from_millis(200));
    let text = String::from_utf8(read_throttled(&mut raw)).expect("utf8 stream");
    let lines: Vec<&str> = text.split_terminator('\n').collect();
    assert_eq!(lines.len(), PIPELINED, "every pipelined request answered");
    for (index, received) in lines.iter().enumerate() {
        assert_eq!(
            *received, reference.raw,
            "response {index} must be the byte-replayed envelope"
        );
    }

    // — bin1 framing —
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    raw.write_all(protocol::encode_hello(Framing::Bin1).as_bytes())
        .and_then(|()| raw.write_all(b"\n"))
        .expect("hello line");
    // Drain the framed ack; its exact length is a handshake
    // detail, so read until the wire goes quiet.
    raw.set_read_timeout(Some(Duration::from_millis(300)))
        .expect("ack timeout");
    let mut ack = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        match raw.read(&mut chunk) {
            Ok(0) => panic!("server closed during the handshake"),
            Ok(n) => ack.extend_from_slice(&chunk[..n]),
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(err) => panic!("ack read failed: {err}"),
        }
    }
    assert_eq!(ack.first(), Some(&protocol::FRAME_MAGIC[0]), "framed ack");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let payload = protocol::encode_solve_bin(&request);
    let mut frame = Vec::with_capacity(payload.len() + 24);
    protocol::encode_frame_into(&mut frame, FrameKind::Request, "", &payload);
    let mut burst = Vec::with_capacity(frame.len() * PIPELINED);
    for _ in 0..PIPELINED {
        burst.extend_from_slice(&frame);
    }
    raw.write_all(&burst).expect("pipelined frames");
    raw.shutdown(Shutdown::Write).expect("half-close");
    std::thread::sleep(Duration::from_millis(200));
    let received = read_throttled(&mut raw);
    // Identical cached requests replay identical frames: the
    // stream must be exactly N copies of one response frame.
    assert!(
        !received.is_empty() && received.len() % PIPELINED == 0,
        "stream of {} bytes must divide into {PIPELINED} equal frames",
        received.len()
    );
    let frame_len = received.len() / PIPELINED;
    let first = &received[..frame_len];
    assert_eq!(first[0], protocol::FRAME_MAGIC[0], "response frame magic");
    for (index, piece) in received.chunks(frame_len).enumerate() {
        assert_eq!(piece, first, "frame {index} forked from the first");
    }

    primer.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn the_router_speaks_bin1_when_asked() {
    let handle = start_server();
    let addrs = vec![handle.addr().to_string()];
    let mut router = Router::connect_with(
        &addrs,
        RouterOptions {
            client: ClientOptions {
                framing: Some(FramingMode::Bin1),
                ..ClientOptions::default()
            },
            ..RouterOptions::default()
        },
    )
    .expect("connect router");
    let response = router
        .solve(&refine_request(Ratio::new(3, 10)))
        .expect("solve through the router");
    assert_eq!(response.source(), Some(Source::Solved));

    // The shard saw a negotiated bin1 connection, proving the option
    // flowed through RouterOptions into the per-shard clients.
    let mut probe = Client::connect(handle.addr()).expect("connect probe");
    let status = probe.status().expect("status");
    let negotiated = status
        .result()
        .and_then(|result| result.get("wire"))
        .and_then(|wire| wire.get("bin_negotiated"))
        .and_then(Json::as_int)
        .expect("wire.bin_negotiated");
    assert!(
        negotiated >= 1,
        "router connection negotiated: {negotiated}"
    );

    probe.shutdown().expect("shutdown");
    handle.wait();
}
