//! `mddsimd` outlives a client that hangs up halfway through a request
//! line: the next client still gets answers, and the daemon still shuts
//! down cleanly.

use mdd_engine::proto::{Event, Request};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A daemon process that is killed if the test ends without it exiting.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.0.try_wait().ok().flatten().is_none() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Send one request line and read one event line back.
fn ask(conn: &mut BufReader<UnixStream>, request: &Request) -> Event {
    let mut line = request.encode();
    line.push('\n');
    conn.get_mut().write_all(line.as_bytes()).expect("send");
    let mut reply = String::new();
    conn.read_line(&mut reply).expect("receive");
    Event::decode(reply.trim_end()).unwrap_or_else(|e| panic!("bad event {reply:?}: {e}"))
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mddsimd-midline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn start(socket: &Path) -> Daemon {
    let child = Command::new(env!("CARGO_BIN_EXE_mddsimd"))
        .arg("--socket")
        .arg(socket)
        .args(["--no-cache", "--jobs", "1"])
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mddsimd");
    let daemon = Daemon(child);
    wait_for("the daemon socket", || UnixStream::connect(socket).is_ok());
    daemon
}

#[test]
fn daemon_survives_a_client_that_disconnects_mid_line() {
    let dir = scratch_dir();
    let socket = dir.join("d.sock");
    let mut daemon = start(&socket);

    // Half a submit line, no newline, then hang up.
    let submit = Request::Submit(Default::default()).encode();
    let mut quitter = UnixStream::connect(&socket).expect("connect");
    quitter
        .write_all(&submit.as_bytes()[..submit.len() / 2])
        .expect("send half a line");
    drop(quitter);

    let conn = UnixStream::connect(&socket).expect("connect after the hang-up");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut conn = BufReader::new(conn);
    match ask(&mut conn, &Request::Status) {
        Event::Status { jobs, .. } => assert!(jobs.is_empty(), "no job was accepted: {jobs:?}"),
        other => panic!("status answered with {other:?}"),
    }
    let bye = ask(&mut conn, &Request::Shutdown);
    assert!(
        matches!(bye, Event::ShuttingDown),
        "shutdown answered with {bye:?}"
    );

    let mut status = None;
    wait_for("the daemon to exit", || {
        status = daemon.0.try_wait().expect("poll daemon");
        status.is_some()
    });
    assert!(
        status.is_some_and(|s| s.success()),
        "daemon exit: {status:?}"
    );
    assert!(
        !socket.exists(),
        "the daemon removes its socket on shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
