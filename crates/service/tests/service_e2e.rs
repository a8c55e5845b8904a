//! End-to-end service tests: submit → stream → `kill -9` → restart →
//! resume, with the resumed aggregate bit-identical to a direct
//! engine run of the same spec at a different worker count; plus an
//! SSE incident-stream snapshot for the canonical one-fault job.
//!
//! The server runs as a real child process (the `nocalertd` binary),
//! so the kill is a genuine SIGKILL mid-campaign — exactly the failure
//! the JSONL checkpoint substrate is built to survive.

use golden::JobDriver;
use noc_types::{JobKind, JobSpec, NocConfig};
use nocalert_service::http;
use nocalert_service::server::CONN_READ_TIMEOUT;
use std::io::Read;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn small_noc() -> NocConfig {
    let mut noc = NocConfig::paper_baseline();
    noc.mesh = noc_types::Mesh::new(3, 3);
    noc.vcs_per_port = 2;
    noc.message_classes = 1;
    noc.packet_lengths = vec![5];
    noc.injection_rate = 0.05;
    noc
}

fn recovery_spec(threads: u32) -> JobSpec {
    JobSpec {
        kind: JobKind::Recovery,
        noc: small_noc(),
        warmup: 200,
        window: 1_200,
        limit: Some(5),
        threads,
    }
}

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Launches `nocalertd serve` on an ephemeral port and waits for
    /// the bound address to land in the addr-file.
    fn start(data_dir: &Path, tag: &str) -> Server {
        let addr_file = data_dir.join(format!("addr-{tag}"));
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(env!("CARGO_BIN_EXE_nocalertd"))
            .args([
                "serve",
                "--data-dir",
                &data_dir.display().to_string(),
                "--addr",
                "127.0.0.1:0",
                "--addr-file",
                &addr_file.display().to_string(),
                "--workers",
                "1",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn nocalertd");
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if !text.trim().is_empty() {
                    break text.trim().to_string();
                }
            }
            assert!(
                Instant::now() < deadline,
                "nocalertd never published its address"
            );
            std::thread::sleep(Duration::from_millis(50));
        };
        Server { child, addr }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nocalertd-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");
    dir
}

fn submit(addr: &str, spec: &JobSpec) -> String {
    let body = serde_json::to_string(spec).expect("serialize spec");
    let (status, response) =
        http::request(addr, "POST", "/jobs", Some(&body)).expect("submit request");
    assert_eq!(status, 201, "submit failed: {response}");
    let doc = serde::Value::parse_json(&response).expect("parse submit response");
    doc.get("id")
        .and_then(serde::Value::as_str)
        .expect("id in submit response")
        .to_string()
}

fn job_state(addr: &str, id: &str) -> String {
    let (status, body) =
        http::request(addr, "GET", &format!("/jobs/{id}"), None).expect("status request");
    assert_eq!(status, 200, "status failed: {body}");
    let doc = serde::Value::parse_json(&body).expect("parse status");
    doc.get("state")
        .and_then(serde::Value::as_str)
        .unwrap_or("")
        .to_string()
}

fn wait_completed(addr: &str, id: &str, budget: Duration) {
    let deadline = Instant::now() + budget;
    loop {
        let state = job_state(addr, id);
        if state == "Completed" {
            return;
        }
        assert!(
            state == "Queued" || state == "Running",
            "job {id} ended in unexpected state {state}"
        );
        assert!(
            Instant::now() < deadline,
            "job {id} did not complete in time (last state {state})"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn result_json(addr: &str, id: &str) -> serde::Value {
    let (status, body) =
        http::request(addr, "GET", &format!("/jobs/{id}/result"), None).expect("result request");
    assert_eq!(status, 200, "result failed: {body}");
    serde::Value::parse_json(&body).expect("parse result")
}

/// The tentpole acceptance pin: a job submitted over HTTP, killed
/// mid-run with SIGKILL, restarted, and resumed must aggregate
/// bit-identically to a direct in-process engine run of the same spec
/// at a different worker count.
#[test]
fn submit_kill_restart_resume_matches_direct_run() {
    let data_dir = temp_dir("resume");
    let mut server = Server::start(&data_dir, "first");
    let id = submit(&server.addr, &recovery_spec(1));

    // Tail the SSE feed until the first progress frame so the kill
    // lands after at least one checkpointed chunk (and, in the worst
    // case of a fast job, after completion — resume then restores
    // everything from shards, which is the same contract).
    let addr = server.addr.clone();
    let path = format!("/jobs/{id}/events");
    let mut saw_progress = false;
    let _ = http::stream_events(&addr, &path, &mut |data| {
        if data.contains("Progress") {
            saw_progress = true;
            return false;
        }
        true
    });
    assert!(saw_progress, "no progress frame before kill");
    server.kill();

    // Restart over the same data dir: the job is re-enqueued with
    // resume enabled and runs to completion.
    let server2 = Server::start(&data_dir, "second");
    wait_completed(&server2.addr, &id, Duration::from_secs(600));
    let result = result_json(&server2.addr, &id);
    let digest = result
        .get("digest")
        .and_then(serde::Value::as_str)
        .expect("digest")
        .to_string();

    // Direct engine run, no service, no checkpoints, different worker
    // count: the digest must match bit for bit.
    let direct = JobDriver::default()
        .run(&recovery_spec(3), &mut |_| {})
        .expect("direct run");
    assert_eq!(
        digest, direct.digest,
        "service aggregate diverged from direct run"
    );

    // Incidents served over HTTP match the direct run's clustering.
    let (status, body) =
        http::request(&server2.addr, "GET", &format!("/jobs/{id}/incidents"), None)
            .expect("incidents request");
    assert_eq!(status, 200);
    let served = serde::Value::parse_json(&body).expect("parse incidents");
    let direct_incidents = serde_json::to_value(&direct.incidents).expect("serialize incidents");
    assert_eq!(served, direct_incidents, "incident streams diverged");
}

/// SSE snapshot for the canonical one-fault transient job: the feed
/// must deliver state, progress, and exactly one clustered incident
/// whose fields tell the fault's story.
#[test]
fn sse_incident_stream_for_one_fault_job() {
    let data_dir = temp_dir("sse");
    let server = Server::start(&data_dir, "only");
    let spec = JobSpec {
        kind: JobKind::Transient,
        noc: small_noc(),
        warmup: 200,
        window: 1_200,
        limit: Some(1),
        threads: 1,
    };
    let id = submit(&server.addr, &spec);

    let mut frames: Vec<serde::Value> = Vec::new();
    http::stream_events(&server.addr, &format!("/jobs/{id}/events"), &mut |data| {
        frames.push(serde::Value::parse_json(data).expect("parse frame"));
        true
    })
    .expect("stream events");

    let states: Vec<&str> = frames
        .iter()
        .filter_map(|f| f.get("State").and_then(serde::Value::as_str))
        .collect();
    assert!(states.contains(&"Running"), "states seen: {states:?}");
    assert_eq!(states.last(), Some(&"Completed"), "states seen: {states:?}");
    assert!(
        frames.iter().any(|f| f.get("Progress").is_some()),
        "no progress frame"
    );

    let incidents: Vec<&serde::Value> = frames.iter().filter_map(|f| f.get("Incident")).collect();
    assert_eq!(incidents.len(), 1, "expected exactly one incident");
    let inc = incidents[0];
    assert_eq!(inc.get("id").and_then(serde::Value::as_u64), Some(0));
    let subject = inc
        .get("subject")
        .and_then(serde::Value::as_str)
        .expect("subject");
    assert!(
        subject.contains("Transient"),
        "subject should name the fault class: {subject}"
    );
    let delivery = inc
        .get("delivery")
        .and_then(serde::Value::as_str)
        .expect("delivery");
    assert!(!delivery.is_empty());
    // Checker ids, when any fired, use Table-1 numbering and arrive
    // deduped ascending.
    if let Some(serde::Value::Array(checkers)) = inc.get("checkers") {
        let ids: Vec<u64> = checkers.iter().filter_map(serde::Value::as_u64).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "checkers not ascending: {ids:?}"
        );
        assert!(
            ids.iter().all(|&c| (1..=32).contains(&c)),
            "bad checker id: {ids:?}"
        );
    }

    // The durable result repeats the same incident list (served from
    // result.json once the job is terminal).
    wait_completed(&server.addr, &id, Duration::from_secs(60));
    let result = result_json(&server.addr, &id);
    let stored = result.get("incidents").expect("incidents in result");
    let streamed = serde::Value::Array(incidents.into_iter().cloned().collect());
    assert_eq!(
        stored, &streamed,
        "stored incidents diverged from streamed ones"
    );
}

/// A `POST /jobs` body of a million `[` bytes (under `MAX_BODY`) once
/// overflowed the connection thread's stack in the recursive JSON parser
/// and aborted the whole daemon. It must be refused with a 400 while the
/// daemon keeps serving.
#[test]
fn deeply_nested_spec_is_refused_and_the_daemon_survives() {
    let data_dir = temp_dir("nesting");
    let mut server = Server::start(&data_dir, "only");
    let body = "[".repeat(1_000_000);
    let (status, response) =
        http::request(&server.addr, "POST", "/jobs", Some(&body)).expect("submit request");
    assert_eq!(
        status, 400,
        "deep nesting must be a bad request: {response}"
    );
    assert!(
        response.contains("nesting"),
        "refusal names the cause: {response}"
    );

    let (status, body) =
        http::request(&server.addr, "GET", "/healthz", None).expect("daemon still reachable");
    assert_eq!((status, body.as_str()), (200, "ok"));
    assert!(
        server.child.try_wait().expect("poll daemon").is_none(),
        "daemon exited"
    );
    server.kill();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A client that connects and sends nothing once held its connection
/// thread forever. The server must time the read out, answer 408 and
/// close the connection within `CONN_READ_TIMEOUT`, and keep serving.
#[test]
fn silent_connection_is_closed_after_the_read_timeout() {
    let data_dir = temp_dir("silent");
    let mut server = Server::start(&data_dir, "only");
    let mut silent = TcpStream::connect(&server.addr).expect("connect");
    let bound = CONN_READ_TIMEOUT + Duration::from_secs(5);
    silent
        .set_read_timeout(Some(bound))
        .expect("client read timeout");
    let opened = Instant::now();
    let mut response = String::new();
    silent
        .read_to_string(&mut response)
        .expect("the server closes the connection before the client gives up");
    let waited = opened.elapsed();
    assert!(
        waited >= CONN_READ_TIMEOUT.saturating_sub(Duration::from_secs(1)) && waited < bound,
        "closed after {waited:?}"
    );
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "timeout is answered 408: {response}"
    );

    let (status, body) =
        http::request(&server.addr, "GET", "/healthz", None).expect("daemon still reachable");
    assert_eq!((status, body.as_str()), (200, "ok"));
    server.kill();
    let _ = std::fs::remove_dir_all(&data_dir);
}
