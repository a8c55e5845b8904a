//! The `nocalertd` side of the benchmark: the daemon child process and a
//! client that submits a job, follows its SSE feed to the `done` frame and
//! fetches the result, all through `nocalert_service::http`.

use crate::trace::Tracer;
use noc_types::JobResult;
use nocalert_service::http;
use serde::Value;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `nocalertd serve --workers 2`, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts a daemon on a fresh data dir, waits for the address it
    /// publishes and for its first `GET /healthz` to answer 200; also
    /// returns the time from spawn to that answer.
    pub fn spawn(bin: &Path, data_dir: &Path) -> Result<(Daemon, Duration), String> {
        // A daemon resumes the jobs it finds in its data dir.
        let _ = std::fs::remove_dir_all(data_dir);
        std::fs::create_dir_all(data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--data-dir")
            .arg(data_dir)
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("daemon stdout missing")?);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .unwrap_or_default()
            .to_string();
        // Dropping the daemon on an error path stops it.
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        if read.is_err() || daemon.addr.is_empty() {
            return Err(format!("daemon published no address: {line:?}"));
        }
        match http::request(&daemon.addr, "GET", "/healthz", None) {
            Ok((200, _)) => Ok((daemon, t0.elapsed())),
            other => Err(format!("daemon's first healthz failed: {other:?}")),
        }
    }

    /// Peak resident set of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::trace::peak_rss_mb(&self.child.id().to_string())
    }

    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What a client saw of one job, times measured from its submission.
#[derive(Debug, Clone)]
pub struct Seen {
    pub submit: Duration,
    pub running: Option<Duration>,
    pub progress: Vec<Duration>,
    pub done: Duration,
    pub result: Option<JobResult>,
    pub error: Option<String>,
}

/// Submits `spec_json`, follows `/jobs/<id>/events` until its `done`
/// frame, then fetches the result. Every HTTP call is a span when a
/// tracer is given.
pub fn run_job(addr: &str, spec_json: &str, mut tr: Option<(&mut Tracer, u32)>) -> Seen {
    let t0 = Instant::now();
    let mut seen = Seen {
        submit: Duration::ZERO,
        running: None,
        progress: Vec::new(),
        done: Duration::ZERO,
        result: None,
        error: None,
    };
    let job_span = tr.as_mut().map(|(t, id)| t.begin("service.job", *id));
    let submitted = http::request(addr, "POST", "/jobs", Some(spec_json));
    seen.submit = t0.elapsed();
    let id = match submitted {
        Ok((201, body)) => Value::parse_json(&body)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string)),
        Ok((status, body)) => {
            seen.error = Some(format!("submit -> {status}: {body}"));
            None
        }
        Err(e) => {
            seen.error = Some(format!("submit: {e}"));
            None
        }
    };
    if let Some((t, tid)) = tr.as_mut() {
        t.record("service.submit", *tid, t0, t0 + seen.submit);
    }
    let Some(id) = id else {
        seen.error
            .get_or_insert_with(|| "submit reply has no id".into());
        return seen;
    };
    let mut last_state = String::new();
    let streamed = http::stream_events(addr, &format!("/jobs/{id}/events"), &mut |data| {
        let at = t0.elapsed();
        if let Ok(v) = Value::parse_json(data) {
            if let Some(state) = v.get("State").and_then(Value::as_str) {
                if state == "Running" {
                    seen.running = Some(at);
                }
                last_state = state.to_string();
            } else if v.get("Progress").is_some() {
                seen.progress.push(at);
            }
        }
        true
    });
    seen.done = t0.elapsed();
    if let Some((t, tid)) = tr.as_mut() {
        let run_from = seen.running.unwrap_or(seen.submit);
        t.record("service.queue_wait", *tid, t0 + seen.submit, t0 + run_from);
        t.record("service.run", *tid, t0 + run_from, t0 + seen.done);
        if let Some(first) = seen.progress.first() {
            t.record(
                "golden.job.first_progress",
                *tid,
                t0 + run_from,
                t0 + *first,
            );
        }
        let mut from = run_from;
        for &at in &seen.progress {
            t.record("golden.job.chunk", *tid, t0 + from, t0 + at);
            from = at;
        }
    }
    if let Err(e) = streamed {
        seen.error = Some(format!("events: {e}"));
    } else if last_state != "Completed" {
        seen.error = Some(format!("job {id} ended in state {last_state:?}"));
    }
    let r0 = Instant::now();
    let fetched = http::request(addr, "GET", &format!("/jobs/{id}/result"), None);
    let r1 = Instant::now();
    match fetched {
        Ok((200, body)) => {
            let p0 = Instant::now();
            let parsed = serde_json::from_str::<JobResult>(&body);
            if let Some((t, tid)) = tr.as_mut() {
                t.record("service.result", *tid, r0, r1);
                t.record("serde.result_parse", *tid, p0, Instant::now());
            }
            match parsed {
                Ok(r) => seen.result = Some(r),
                Err(e) => seen.error = Some(format!("result parse: {e}")),
            }
        }
        Ok((status, body)) => seen.error = Some(format!("result -> {status}: {body}")),
        Err(e) => seen.error = Some(format!("result: {e}")),
    }
    if let (Some((t, _)), Some(ix)) = (tr.as_mut(), job_span) {
        t.end(ix);
    }
    seen
}

/// Times `GET /healthz` `n` times as `service.healthz` spans; returns the
/// number of non-200 replies.
pub fn healthz(addr: &str, n: usize, tr: &mut Tracer) -> u64 {
    let mut bad = 0;
    for _ in 0..n {
        let ok = tr.span("service.healthz", 0, || {
            matches!(http::request(addr, "GET", "/healthz", None), Ok((200, _)))
        });
        bad += u64::from(!ok);
    }
    bad
}
