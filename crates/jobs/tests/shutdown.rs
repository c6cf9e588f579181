//! Every `SHUTDOWN` gets its reply, even when other clients close just as
//! it is sent: 1000 daemon lifecycles, each ended by a ninth client while
//! eight that were answered `STATUS 0` disconnect. A connection that closes
//! once the shutdown flag is up wakes the accept loop, which then severs
//! every open connection, so the flag must not go up before the reply is
//! written.

use std::io::{Read, Write};
use std::net::TcpStream;

use cutelock_jobs::{Client, ServeConfig, Server};

const LIFECYCLES: usize = 1000;
/// Clients that close as `SHUTDOWN` is sent.
const CLOSING: usize = 8;

#[test]
fn every_shutdown_is_answered_while_other_clients_close() {
    let mut lost = 0;
    for _ in 0..LIFECYCLES {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let daemon = std::thread::spawn(move || server.run());
        let closing: Vec<Client> = (0..CLOSING)
            .map(|_| {
                let mut client = Client::connect(addr).expect("connect");
                let r = client.request("STATUS 0").expect("status");
                assert_eq!(r, "ERR no such job 0");
                client
            })
            .collect();
        let mut last = TcpStream::connect(addr).expect("connect");
        last.write_all(b"SHUTDOWN\n").expect("send SHUTDOWN");
        drop(closing);
        let mut reply = String::new();
        if last.read_to_string(&mut reply).is_err() || reply != "OK shutting-down\n" {
            lost += 1;
        }
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    }
    assert_eq!(lost, 0, "{lost} of {LIFECYCLES} SHUTDOWN replies lost");
}
