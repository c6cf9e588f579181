//! A new connection is served at once, an open one costs the daemon one
//! descriptor, and a closed one gives it back: 200 connect / `STATUS 0` /
//! close cycles, then 50 connections held open together, against one
//! daemon. The only test in its process, so no other test opens
//! descriptors while this one counts them.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use cutelock_core::clock::ClockHandle;
use cutelock_jobs::{Client, ServeConfig, Server};

const CYCLES: usize = 200;
/// Connections held open at once.
const HELD: usize = 50;

/// Entries in this process's descriptor table.
#[cfg(target_os = "linux")]
fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

/// Waits up to 5 s for this process to hold at most 2 descriptors more
/// than `before`, and fails with `what` if it does not.
#[cfg(target_os = "linux")]
fn assert_descriptors_settle(before: usize, what: &str) {
    let clock = ClockHandle::wall();
    let deadline = clock.now() + Duration::from_secs(5);
    loop {
        let grown = open_descriptors().saturating_sub(before);
        if grown <= 2 {
            return;
        }
        assert!(
            clock.now() < deadline,
            "{grown} more open descriptors {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn connections_are_served_at_once_and_closed_ones_release_their_sockets() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let daemon = std::thread::spawn(move || server.run());
    #[cfg(target_os = "linux")]
    let before = open_descriptors();

    let clock = ClockHandle::wall();
    let mut first_reply = Vec::with_capacity(CYCLES);
    for _ in 0..CYCLES {
        let t0 = clock.now();
        let mut client = Client::connect(addr).expect("connect");
        let r = client.request("STATUS 0").expect("status");
        first_reply.push(clock.now().duration_since(t0));
        assert_eq!(r, "ERR no such job 0");
    }
    first_reply.sort();
    let median = first_reply[CYCLES / 2];
    assert!(
        median < Duration::from_millis(2),
        "median connect + first reply took {median:?}: is accept still polled?"
    );

    // A connection's thread drops its socket as it sees end of stream.
    #[cfg(target_os = "linux")]
    assert_descriptors_settle(before, &format!("after {CYCLES} closed connections"));

    // Raw sockets rather than `Client`s, which hold two descriptors each.
    let held: Vec<TcpStream> = (0..HELD)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(b"STATUS 0\n").expect("send");
            let mut reply = [0; 18];
            stream.read_exact(&mut reply).expect("reply");
            assert_eq!(&reply, b"ERR no such job 0\n");
            stream
        })
        .collect();
    #[cfg(target_os = "linux")]
    {
        let grown = open_descriptors().saturating_sub(before);
        assert!(
            grown <= 2 * HELD + 2,
            "{grown} more open descriptors with {HELD} connections open: \
             one for each client and one for each daemon side"
        );
    }
    // No connection follows: the daemon must give the sockets back
    // without a further accept.
    drop(held);
    #[cfg(target_os = "linux")]
    assert_descriptors_settle(before, &format!("after {HELD} held connections closed"));

    let r = Client::connect(addr)
        .expect("connect")
        .request("SHUTDOWN")
        .expect("shutdown");
    assert_eq!(r, "OK shutting-down");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}
