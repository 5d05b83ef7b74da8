//! The what-if service over its actual TCP wire: N concurrent clients
//! against one server, racing submits/status/cancel, identical concurrent
//! requests deduplicating, validation errors crossing the wire with their
//! alternatives intact, and server-fetched artifacts byte-identical to
//! the direct runner path.

use scenarios::server::Server;
use scenarios::service::{Service, ServiceConfig};
use scenarios::wire::Client;
use scenarios::{
    Error, Metrics, ParamValue, Params, Registry, Scenario, SweepRequest, SweepRunner, SweepStatus,
    SweepSuite,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

fn cache_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "wire-cache-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Sleepy {
    name: &'static str,
    millis: u64,
}

impl Scenario for Sleepy {
    fn name(&self) -> &'static str {
        self.name
    }
    fn title(&self) -> &'static str {
        "sleeps then reports"
    }
    fn default_params(&self) -> Params {
        Params::new().with("k", 1u64)
    }
    fn run(&self, sim: &mut des::Simulation, params: &Params) -> Metrics {
        std::thread::sleep(Duration::from_millis(self.millis));
        let mut m = Metrics::new();
        m.push("k", params.u64("k", 1) as f64);
        m.push("draw", sim.stream("draw").f64());
        m
    }
}

fn sleepy_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register(Box::new(Sleepy {
        name: "slow",
        millis: 25,
    }));
    registry.register(Box::new(Sleepy {
        name: "fast",
        millis: 1,
    }));
    registry
}

/// Boot a server on an OS-picked port; returns its address and the thread
/// running the accept loop (joined after a client sends `shutdown`).
fn serve(registry: Registry, config: ServiceConfig) -> (SocketAddr, JoinHandle<()>) {
    let service = Service::start(registry, config).expect("service starts");
    let server = Server::bind(service, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

#[test]
fn server_artifact_bytes_match_the_direct_runner() {
    let request = SweepRequest::new()
        .scenario("fig07_latency")
        .axis(
            "reps",
            vec![ParamValue::parse("40"), ParamValue::parse("80")],
        )
        .with_seeds(2);

    let registry = Registry::standard();
    let validated = request.validate(&registry).expect("valid");
    let results = SweepRunner::new(2, validated.seeds.clone())
        .try_run_suite(&validated.resolve(&registry))
        .expect("runner succeeds");
    let direct = SweepSuite {
        seeds: validated.seeds.clone(),
        results,
    }
    .artifact_json();

    let (addr, server) = serve(Registry::standard(), ServiceConfig::new().with_threads(2));
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    let receipt = client.submit(&request).expect("submit");
    let response = client.wait(receipt.id).expect("wait");
    assert!(matches!(response.status, SweepStatus::Done));
    assert_eq!(
        response.artifact.expect("artifact"),
        direct,
        "artifact bytes changed crossing the wire"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn validation_errors_cross_the_wire_with_alternatives() {
    let (addr, server) = serve(sleepy_registry(), ServiceConfig::new().with_threads(1));
    let mut client = Client::connect(addr).expect("connect");

    let err = client
        .submit(&SweepRequest::new().scenario("nonesuch"))
        .expect_err("unknown scenario must be refused");
    match &err {
        Error::Server { kind, message } => {
            assert_eq!(kind, "unknown_scenario");
            assert!(
                message.contains("slow") && message.contains("fast"),
                "error must list the known scenarios: {message}"
            );
        }
        other => panic!("expected a server error, got {other}"),
    }

    let err = client
        .submit(
            &SweepRequest::new()
                .scenario("fast")
                .axis("warp", vec![ParamValue::parse("9")]),
        )
        .expect_err("unknown axis must be refused");
    match &err {
        Error::Server { kind, message } => {
            assert_eq!(kind, "unknown_axis");
            assert!(
                message.contains("warp") && message.contains("tunables"),
                "error must name the axis and the tunables: {message}"
            );
        }
        other => panic!("expected a server error, got {other}"),
    }

    let err = client.status(4242).expect_err("unknown id must be refused");
    assert!(matches!(&err, Error::Server { kind, .. } if kind == "unknown_request"));

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// N clients hammer one server with interleaved submit/status/cancel.
/// Every even client cancels its request, every odd one waits it out;
/// the registry must stay coherent (right terminal states, all ids
/// distinct, list sees everything).
#[test]
fn concurrent_clients_submit_status_and_cancel() {
    const CLIENTS: usize = 6;
    let (addr, server) = serve(sleepy_registry(), ServiceConfig::new().with_threads(2));

    let workers: Vec<JoinHandle<(u64, bool)>> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Distinct k-axis per client — no accidental dedup here.
                let request = SweepRequest::new()
                    .scenario("slow")
                    .axis(
                        "k",
                        (1..=4)
                            .map(|k| ParamValue::U64(k + 100 * i as u64))
                            .collect::<Vec<ParamValue>>(),
                    )
                    .with_seeds(2);
                let receipt = client.submit(&request).expect("submit");
                let cancels = i % 2 == 0;
                if cancels {
                    client.cancel(receipt.id).expect("cancel");
                }
                // Status polling must never error mid-flight.
                let status = client.status(receipt.id).expect("status");
                assert_eq!(status.id, receipt.id);
                let terminal = client.wait(receipt.id).expect("wait");
                if cancels {
                    assert!(
                        matches!(terminal.status, SweepStatus::Cancelled),
                        "client {i} cancelled but ended {}",
                        terminal.status
                    );
                } else {
                    assert!(
                        matches!(terminal.status, SweepStatus::Done),
                        "client {i} ended {}",
                        terminal.status
                    );
                    assert!(terminal.artifact.is_some());
                }
                (receipt.id, cancels)
            })
        })
        .collect();

    let outcomes: Vec<(u64, bool)> = workers
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let mut ids: Vec<u64> = outcomes.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), CLIENTS, "request ids must be distinct");

    let mut client = Client::connect(addr).expect("connect");
    let listed = client.list().expect("list");
    // Ids are handed out in submission order and `list` reports in id
    // order, however the racing submits interleaved inside the service.
    let listed_ids: Vec<u64> = listed.iter().map(|r| r.id).collect();
    assert_eq!(listed_ids, ids, "list must be id-ordered");
    for (id, cancelled) in &outcomes {
        let row = listed
            .iter()
            .find(|r| r.id == *id)
            .unwrap_or_else(|| panic!("request {id} missing from list"));
        if *cancelled {
            assert!(matches!(row.status, SweepStatus::Cancelled));
        } else {
            assert!(matches!(row.status, SweepStatus::Done));
        }
    }
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// Two clients firing the *same* request concurrently: exactly one
/// executes, the other rides along on the same id and both get the same
/// bytes.
#[test]
fn identical_concurrent_requests_share_one_execution() {
    let (addr, server) = serve(sleepy_registry(), ServiceConfig::new().with_threads(2));
    let request = SweepRequest::new()
        .scenario("slow")
        .axis(
            "k",
            (1..=6).map(ParamValue::U64).collect::<Vec<ParamValue>>(),
        )
        .with_seeds(2);

    let racers: Vec<JoinHandle<(u64, bool, String)>> = (0..2)
        .map(|_| {
            let request = request.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let receipt = client.submit(&request).expect("submit");
                let response = client.wait(receipt.id).expect("wait");
                (
                    receipt.id,
                    receipt.deduped,
                    response.artifact.expect("artifact"),
                )
            })
        })
        .collect();
    let outcomes: Vec<(u64, bool, String)> = racers
        .into_iter()
        .map(|h| h.join().expect("racer"))
        .collect();

    assert_eq!(outcomes[0].0, outcomes[1].0, "racers must share one id");
    assert_eq!(
        outcomes.iter().filter(|(_, deduped, _)| *deduped).count(),
        1,
        "exactly one racer must be the dedup rider"
    );
    assert_eq!(outcomes[0].2, outcomes[1].2, "artifact bytes must match");
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// Warm re-submit over the wire: a second server generation on the same
/// cache directory answers the same request fully from cache.
#[test]
fn warm_resubmit_over_the_wire_is_fully_cache_served() {
    let dir = cache_dir("warm");
    let request = SweepRequest::new().scenario("fast").with_seeds(3);

    let cold_artifact = {
        let (addr, server) = serve(
            sleepy_registry(),
            ServiceConfig::new().with_threads(2).with_cache_dir(&dir),
        );
        let mut client = Client::connect(addr).expect("connect");
        let receipt = client.submit(&request).expect("cold submit");
        assert_eq!(receipt.cache_hits, 0);
        let artifact = client
            .wait(receipt.id)
            .expect("cold wait")
            .artifact
            .expect("artifact");
        client.shutdown().expect("shutdown");
        server.join().expect("server thread");
        artifact
    };

    let (addr, server) = serve(
        sleepy_registry(),
        ServiceConfig::new().with_threads(2).with_cache_dir(&dir),
    );
    let mut client = Client::connect(addr).expect("connect");
    let receipt = client.submit(&request).expect("warm submit");
    assert_eq!(
        receipt.cache_hits, receipt.total_jobs,
        "warm submit must be 100% cache-served"
    );
    assert!(
        matches!(receipt.status, SweepStatus::Done),
        "all-hit submit must come back terminal, got {}",
        receipt.status
    );
    assert_eq!(
        client
            .wait(receipt.id)
            .expect("warm wait")
            .artifact
            .expect("artifact"),
        cold_artifact,
        "cache-served artifact bytes diverged across server generations"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// A frame nested deeper than any stack: the parser recurses per level, so
/// before it carried a depth bound this one frame overflowed the connection
/// thread's stack and aborted the whole server (not a panic — SIGABRT).
/// It must be an ordinary protocol error, and the server must live on.
#[test]
fn a_deeply_nested_frame_gets_a_protocol_error_not_an_abort() {
    use std::io::Write;

    let (addr, server) = serve(sleepy_registry(), ServiceConfig::new().with_threads(1));
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    let body = "[".repeat(1_000_000);
    raw.write_all(&(body.len() as u32).to_be_bytes())
        .and_then(|()| raw.write_all(body.as_bytes()))
        .expect("send frame");
    let reply = scenarios::wire::read_frame(&mut raw)
        .expect("reply frame")
        .expect("server must answer, not hang up");
    assert!(
        reply.starts_with(r#"{"ok":false,"error":{"kind":"protocol","#)
            && reply.contains("recursion limit exceeded"),
        "reply must be a protocol error naming the problem: {reply}"
    );

    let mut client = Client::connect(addr).expect("second client connects");
    client
        .ping()
        .expect("server still answers after the bad frame");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// Broken and hostile peers, one after another against one server. None of
/// them can be answered (there is no frame boundary to answer at), so each
/// must cost exactly its own connection: the server keeps answering `ping`,
/// and a well-behaved client's `submit` + `wait` gets the bytes it got
/// before the abuse.
#[test]
fn hostile_and_broken_frames_cost_only_their_own_connection() {
    use scenarios::wire::{write_frame, Verb, MAX_FRAME_BYTES};
    use std::io::Write;
    use std::net::TcpStream;

    let (addr, server) = serve(sleepy_registry(), ServiceConfig::new().with_threads(2));
    let request = SweepRequest::new().scenario("fast").with_seeds(2);
    let served = || {
        let mut client = Client::connect(addr).expect("connect");
        client.ping().expect("the server still answers ping");
        let receipt = client.submit(&request).expect("submit");
        let response = client.wait(receipt.id).expect("wait");
        assert!(matches!(response.status, SweepStatus::Done));
        response.artifact.expect("artifact")
    };
    let before = served();

    // Each case writes its bytes and hangs up by dropping the socket.
    let send = |bytes: &[u8]| {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(bytes).expect("send");
    };
    let oversize = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
    let abandoned_wait = || {
        // 4 points × 3 seeds × 25 ms on two workers: the `wait` below blocks
        // server-side long after its connection is gone.
        let points = (1..=4).map(ParamValue::U64).collect::<Vec<ParamValue>>();
        let slow = SweepRequest::new().scenario("slow").axis("k", points);
        let id = Client::connect(addr)
            .and_then(|mut client| client.submit(&slow))
            .expect("submit")
            .id;
        let mut raw = TcpStream::connect(addr).expect("connect");
        let verb = serde_json::to_string(&Verb::Wait(id).to_value()).expect("renders");
        write_frame(&mut raw, &verb).expect("send wait");
    };
    let cases: [(&str, &dyn Fn()); 5] = [
        ("truncated length prefix", &|| send(&[0, 0])),
        ("oversize length claim", &|| send(&oversize)),
        ("invalid UTF-8 body", &|| {
            send(&[0, 0, 0, 4, 0xff, 0xfe, 0xfd, 0xfc])
        }),
        ("disconnect mid-frame", &|| {
            send(&[0, 0, 0, 100, b'{', b'"', b'v'])
        }),
        ("disconnect while blocked in wait", &abandoned_wait),
    ];
    for (name, abuse) in cases {
        abuse();
        assert_eq!(served(), before, "after {name}: the served bytes changed");
    }

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// A client that merely stays connected must not hold shutdown hostage:
/// its connection thread sits in `read_frame` with no verb in flight, and
/// `Server::run` used to join it before returning — i.e. never.
#[test]
fn shutdown_does_not_wait_for_idle_connections() {
    let service = Service::start(sleepy_registry(), ServiceConfig::new().with_threads(1))
        .expect("service starts");
    let server = Server::bind(service, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let result = server.run();
        let _ = done_tx.send(());
        result.expect("server run");
    });

    let mut idle = Client::connect(addr).expect("connect");
    idle.ping().expect("ping");
    let mut other = Client::connect(addr).expect("connect");
    other.shutdown().expect("shutdown");

    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("Server::run must return while an idle client is still connected");
    server.join().expect("server thread");
    assert!(
        idle.ping().is_err(),
        "the idle connection was hung up on, so its next verb fails"
    );
}
