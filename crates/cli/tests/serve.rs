//! End-to-end daemon tests: a real `Server` on an ephemeral TCP port, two
//! concurrent clients sharing one job-id space, fairness of the express
//! lane under a batch blocker, a mid-solve CANCEL unwinding through the
//! solver stop slot, a cache hit on an identical resubmission, the
//! refusal of a request line over 64 KiB or not UTF-8, and a daemon that
//! runs out of descriptors and keeps serving.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use cutelock_core::clock::ClockHandle;
use cutelock_jobs::{Client, ServeConfig, Server};

/// Polls `STATUS id` until `pred` matches the response line (or panics at
/// the deadline). The daemon answers from a mutex-guarded snapshot, so
/// polling is cheap.
fn poll_status(client: &mut Client, id: u64, pred: impl Fn(&str) -> bool, what: &str) -> String {
    let clock = ClockHandle::wall();
    let deadline = clock.now() + Duration::from_secs(60);
    loop {
        let line = client.request(&format!("STATUS {id}")).expect("status");
        if pred(&line) {
            return line;
        }
        assert!(
            clock.now() < deadline,
            "timed out waiting for {what}; last: {line}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn daemon_serves_two_clients_with_fairness_cancel_and_cache() {
    // Ephemeral port; 2 workers means worker 0 is express-reserved.
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let daemon = std::thread::spawn(move || server.run());

    let mut alice = Client::connect(addr).expect("client A connects");
    let mut bob = Client::connect(addr).expect("client B connects");

    // --- One shared job-id space across connections. -------------------
    // Alice submits a long-running batch job: PHP(12) is UNSAT with only
    // exponential resolution refutations, so it runs until cancelled.
    let r = alice.request("SUBMIT solve --php 12").expect("submit");
    assert_eq!(r, "OK id=1", "first job in a fresh daemon");
    // Bob's next submission continues the same counter: same daemon state.
    let r = bob.request("SUBMIT solve --php 4").expect("submit");
    assert_eq!(r, "OK id=2");

    // Bob can poll Alice's job and vice versa.
    let blocker = poll_status(
        &mut bob,
        1,
        |l| l.contains("state=running"),
        "php 12 running",
    );
    assert!(blocker.contains("lane=batch"), "{blocker}");

    // --- Fairness: express traffic bypasses the busy batch lane. -------
    // With the php 12 blocker occupying the batch worker, a cheap verify
    // must still run promptly on the express-reserved worker 0.
    let r = bob
        .request("SUBMIT verify --scheme xor --key-bits 4 --seed 3 --frames 3")
        .expect("submit verify");
    assert_eq!(r, "OK id=3");
    let verify = bob.request("RESULT 3 --wait").expect("verify result");
    assert!(
        verify.contains("state=done") && verify.contains("equivalent frames=3"),
        "{verify}"
    );
    assert!(verify.contains("lane=express"), "{verify}");
    assert!(
        verify.contains("worker=0"),
        "express job must ride the fairness worker: {verify}"
    );
    // The blocker is still running: the verify did not wait behind it.
    let blocker = bob.request("STATUS 1").expect("status");
    assert!(blocker.contains("state=running"), "{blocker}");

    // --- CANCEL unwinds a running solve through its stop flag. ---------
    let clock = ClockHandle::wall();
    let started = clock.now();
    let r = alice.request("CANCEL 1").expect("cancel");
    assert_eq!(r, "OK id=1 cancel-requested");
    let line = alice.request("RESULT 1 --wait").expect("cancelled result");
    assert!(line.contains("state=cancelled"), "{line}");
    assert!(
        clock.now().duration_since(started) < Duration::from_secs(30),
        "a cancel must interrupt the solver, not wait out the instance"
    );

    // --- Result cache: identical resubmission is answered from memory. --
    let small = alice.request("RESULT 2 --wait").expect("php 4 result");
    assert!(
        small.contains("state=done") && small.contains("unsat php=4"),
        "{small}"
    );
    assert!(
        small.contains("cached=false"),
        "first run computes: {small}"
    );
    let r = alice.request("SUBMIT solve --php 4").expect("resubmit");
    assert_eq!(r, "OK id=4");
    let replay = alice.request("RESULT 4 --wait").expect("cached result");
    assert!(
        replay.contains("cached=true") && replay.contains("unsat php=4"),
        "identical resubmission must hit the cache: {replay}"
    );

    // Unknown verbs and ids answer ERR without wedging the connection.
    let r = bob.request("STATUS 99").expect("status unknown");
    assert!(r.starts_with("ERR"), "{r}");
    let r = bob.request("FROB 1").expect("unknown verb");
    assert!(r.starts_with("ERR unknown verb"), "{r}");

    // --- Clean shutdown. ------------------------------------------------
    let r = alice.request("SHUTDOWN").expect("shutdown");
    assert_eq!(r, "OK shutting-down");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}

#[test]
fn an_over_long_request_line_is_refused_and_the_connection_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let daemon = std::thread::spawn(move || server.run());
    // A raw socket rather than a `Client`: one line is not UTF-8.
    let mut writer = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));
    let mut request = |line: &[u8]| {
        writer.write_all(line).expect("write line");
        writer.write_all(b"\n").expect("write newline");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        reply.trim_end().to_string()
    };

    // A 1 MiB line: the daemon reads it through its newline without
    // holding it, and answers one short ERR.
    let r = request(&vec![b'A'; 1 << 20]);
    assert!(
        r == "ERR request line longer than 65536 bytes",
        "{} byte reply: {}",
        r.len(),
        &r[..r.len().min(80)]
    );
    assert_eq!(request(b"STATUS \xff"), "ERR request line is not UTF-8");
    let r = request(b"STATUS 0");
    assert_eq!(r, "ERR no such job 0", "the next line is read as a request");

    assert_eq!(request(b"SHUTDOWN"), "OK shutting-down");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}

/// Kills the daemon process if a test fails before it exits.
#[cfg(unix)]
struct Daemon(std::process::Child);

#[cfg(unix)]
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Out of descriptors, the daemon waits for clients to close instead of
/// exiting: under `ulimit -n 24` it outlives 30 idle connections, then
/// answers a request and shuts down cleanly.
#[cfg(unix)]
#[test]
fn a_daemon_out_of_descriptors_keeps_serving() {
    use std::io::Read;
    use std::process::{Command, Stdio};

    let mut daemon = Daemon(
        Command::new("sh")
            .arg("-c")
            .arg(r#"ulimit -n 24 && exec "$0" serve --addr 127.0.0.1:0 --workers 1"#)
            .arg(env!("CARGO_BIN_EXE_cutelock"))
            .stdout(Stdio::piped())
            .spawn()
            .expect("start the daemon"),
    );
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("daemon stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read the address");
    let addr = line
        .trim_end()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();

    let idle: Vec<TcpStream> = (0..30)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    // Time for the daemon to run out of descriptors, and for one that
    // ends on a failed `accept` to exit.
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        daemon.0.try_wait().expect("poll the daemon").is_none(),
        "the daemon exited with 30 connections open"
    );
    drop(idle);

    let mut client = TcpStream::connect(&addr).expect("connect");
    // A daemon that no longer accepts fails the test instead of hanging it.
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set a read timeout");
    client
        .write_all(b"STATUS 0\nSHUTDOWN\n")
        .expect("send the requests");
    let mut replies = String::new();
    client
        .read_to_string(&mut replies)
        .expect("read the replies");
    assert_eq!(replies, "ERR no such job 0\nOK shutting-down\n");
    let mut rest = String::new();
    stdout
        .read_to_string(&mut rest)
        .expect("read the daemon's output");
    assert_eq!(rest, "shut down\n");
    assert!(daemon.0.wait().expect("daemon exit").success());
}
