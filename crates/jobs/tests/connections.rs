//! A new connection is served at once, and a closed one gives back its
//! sockets: 200 connect / `STATUS 0` / close cycles against one daemon.
//! The only test in its process, so no other test opens descriptors while
//! this one counts them.

use std::time::Duration;

use cutelock_core::clock::ClockHandle;
use cutelock_jobs::{Client, ServeConfig, Server};

const CYCLES: usize = 200;

/// Entries in this process's descriptor table.
#[cfg(target_os = "linux")]
fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
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

    // The daemon drops a closed connection's socket at its next accept, so
    // only the last connection or two may still hold one; their threads
    // release their own as they see end of stream.
    #[cfg(target_os = "linux")]
    {
        let deadline = clock.now() + Duration::from_secs(5);
        let mut grown = open_descriptors().saturating_sub(before);
        while grown > 4 && clock.now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            grown = open_descriptors().saturating_sub(before);
        }
        assert!(
            grown <= 4,
            "{grown} more open descriptors after {CYCLES} closed connections"
        );
    }

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
