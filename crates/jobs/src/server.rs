//! The TCP framing shim: a `std::net::TcpListener` line protocol over the
//! pure [`JobQueue`].
//!
//! One request per line, one response per line — no framing beyond `\n`,
//! no async runtime (the build environment is offline; `std` threads and
//! a blocking accept loop suffice for a lab daemon):
//!
//! ```text
//! SUBMIT attack --mode int --scheme xor --key-bits 4   →  OK id=1
//! STATUS 1                                             →  OK id=1 state=running lane=batch worker=1 label=attack int s27 xor-lock
//! RESULT 1                                             →  WAIT id=1 state=running
//! RESULT 1 --wait                                      →  OK id=1 state=done cached=false verdict=Equal(0010) …
//! CANCEL 1                                             →  OK id=1 cancel-requested
//! SHUTDOWN                                             →  OK shutting-down
//! ```
//!
//! Responses start `OK`, `WAIT`, or `ERR`. Every connection runs on its
//! own thread; all of them share the one queue, so two clients submitting
//! concurrently see one job-id space, one cache, one fairness lane — the
//! scheduler semantics live entirely in [`crate::queue`], and this module
//! only parses verbs and prints snapshots.
//!
//! The accept loop in [`Server::run`] runs each connection on a thread of
//! one `std::thread::scope`, which owns the connection's one socket. The
//! connection that handles `SHUTDOWN` writes its reply, then raises the
//! shutdown flag, then connects once to the daemon's own address, which
//! wakes the loop to see the flag (every connection that closes after it
//! does the same; the first wake ends the loop). A request line is capped
//! at 64 KiB: a longer one is read through its newline without being held
//! and answered `ERR request line longer than 65536 bytes`, a line that is
//! not UTF-8 is answered `ERR request line is not UTF-8`, and either way
//! the connection keeps serving.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crate::queue::{JobQueue, JobStatus, WorkerPool};
use crate::request::{parse_submit, Limits};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the job queue (min 1; worker 0 is the
    /// express-reserved fairness worker when more than one).
    pub workers: usize,
    /// Ceilings imposed on submitted jobs.
    pub limits: Limits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            limits: Limits::default(),
        }
    }
}

/// A bound, not-yet-serving daemon. [`Server::bind`] then [`Server::run`];
/// `run` returns after a client sends `SHUTDOWN`.
pub struct Server {
    listener: TcpListener,
    queue: JobQueue,
    pool: WorkerPool,
    limits: Limits,
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port) and spawns
    /// the worker pool. The queue starts empty.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let queue = JobQueue::new();
        let pool = queue.spawn_workers(config.workers);
        Ok(Self {
            listener,
            queue,
            pool,
            limits: config.limits,
        })
    }

    /// The bound address (the ephemeral port, after binding to port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a client issues `SHUTDOWN`, then severs
    /// the clients still connected, joins their threads and the workers
    /// (letting any still-running job unwind through its raised stop flag)
    /// and returns.
    ///
    /// The loop blocks in `accept` and checks the shutdown flag after
    /// every accept, failed or not; the connection that handled `SHUTDOWN`
    /// wakes it by connecting once after writing its reply. Each
    /// connection's thread owns its socket and the loop keeps only a weak
    /// handle on it, so the daemon holds one descriptor per open
    /// connection and none for a closed one. A failed `accept` (out of
    /// descriptors, say) is retried after a wait that doubles from 5 ms to
    /// 1 s and starts over after the next successful one.
    pub fn run(self) -> std::io::Result<()> {
        let wake = wake_addr(self.listener.local_addr()?);
        let (queue, limits) = (&self.queue, &self.limits);
        std::thread::scope(|scope| {
            // A weak handle on each open connection's socket, so shutdown
            // can sever a client that sits idle in a blocking read.
            let mut open: Vec<Weak<TcpStream>> = Vec::new();
            let mut backoff = FIRST_BACKOFF;
            loop {
                let accepted = self.listener.accept();
                if queue.is_shutting_down() {
                    break;
                }
                let Ok((stream, _peer)) = accepted else {
                    // Out of descriptors, say: wait for clients to close.
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(MAX_BACKOFF);
                    continue;
                };
                backoff = FIRST_BACKOFF;
                open.retain(|conn| conn.strong_count() > 0);
                let stream = Arc::new(stream);
                open.push(Arc::downgrade(&stream));
                // A thread that cannot be spawned drops its connection.
                let _ = std::thread::Builder::new()
                    .spawn_scoped(scope, move || serve_client(&stream, queue, limits, wake));
            }
            for conn in open.iter().filter_map(Weak::upgrade) {
                let _ = conn.shutdown(Shutdown::Both);
            }
        });
        self.pool.join();
        Ok(())
    }
}

/// The first and the longest wait after a failed `accept`.
const FIRST_BACKOFF: Duration = Duration::from_millis(5);
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// The address a connection dials to wake the blocking `accept` in
/// [`Server::run`]: the listener's own, with an unspecified IP (`0.0.0.0`,
/// `::`) replaced by the loopback address of the same family.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

/// Serves one connection until it closes. A panic ends only this session:
/// it is caught here, or the scope in [`Server::run`] would re-raise it
/// when the daemon shuts down. If the queue is shutting down by then,
/// connects once to `wake`, the daemon's own address, so the blocking
/// `accept` in [`Server::run`] returns and sees the flag. The flag goes up
/// only after the `SHUTDOWN` reply is written (or its write failed), so no
/// wake lets `run` sever that client before it has its reply. A failed
/// connect is not retried: the next client to connect wakes the loop
/// instead.
fn serve_client(stream: &TcpStream, queue: &JobQueue, limits: &Limits, wake: SocketAddr) {
    let _ = catch_unwind(AssertUnwindSafe(|| serve_connection(stream, queue, limits)));
    if queue.is_shutting_down() {
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }
}

/// One `STATUS`/`RESULT` snapshot as a single response line.
fn status_line(st: &JobStatus) -> String {
    let mut line = format!(
        "OK id={} state={} lane={} cached={}",
        st.id,
        st.state.name(),
        st.lane.name(),
        st.cached
    );
    if let Some(worker) = st.ran_on {
        line.push_str(&format!(" worker={worker}"));
    }
    match &st.result {
        Some(Ok(text)) => line.push_str(&format!(" {text}")),
        Some(Err(text)) => line.push_str(&format!(" error: {text}")),
        None => {}
    }
    line.push_str(&format!(" label={}", st.label));
    line
}

fn parse_id(operand: &str) -> Result<u64, String> {
    operand
        .split_whitespace()
        .next()
        .ok_or("missing job id".to_string())?
        .parse()
        .map_err(|_| format!("`{}` is not a job id", operand.trim()))
}

/// Handles one request line against the queue. Returns the response and
/// whether the line was `SHUTDOWN`, which [`serve_connection`] answers
/// before it raises the queue's shutdown flag.
fn handle_line(line: &str, queue: &JobQueue, limits: &Limits) -> (String, bool) {
    let line = line.trim();
    let (verb, operand) = match line.split_once(char::is_whitespace) {
        Some((v, rest)) => (v, rest.trim()),
        None => (line, ""),
    };
    match verb {
        "SUBMIT" => match parse_submit(operand, limits) {
            Ok(req) => {
                let id = queue.submit(req);
                (format!("OK id={id}"), false)
            }
            Err(e) => (format!("ERR {e}"), false),
        },
        "STATUS" => match parse_id(operand) {
            Ok(id) => match queue.status(id) {
                Some(st) => (status_line(&st), false),
                None => (format!("ERR no such job {id}"), false),
            },
            Err(e) => (format!("ERR {e}"), false),
        },
        "RESULT" => match parse_id(operand) {
            Ok(id) => {
                let wait = operand.split_whitespace().any(|t| t == "--wait");
                let st = if wait {
                    queue.wait(id)
                } else {
                    queue.status(id)
                };
                match st {
                    Some(st) if st.state.is_terminal() => (status_line(&st), false),
                    Some(st) => (
                        format!("WAIT id={} state={}", st.id, st.state.name()),
                        false,
                    ),
                    None => (format!("ERR no such job {id}"), false),
                }
            }
            Err(e) => (format!("ERR {e}"), false),
        },
        "CANCEL" => match parse_id(operand) {
            Ok(id) => match queue.cancel(id) {
                Some(crate::queue::JobState::Cancelled) => (format!("OK id={id} cancelled"), false),
                Some(crate::queue::JobState::Running) => {
                    (format!("OK id={id} cancel-requested"), false)
                }
                Some(state) => (
                    format!("OK id={id} already-terminal state={}", state.name()),
                    false,
                ),
                None => (format!("ERR no such job {id}"), false),
            },
            Err(e) => (format!("ERR {e}"), false),
        },
        "SHUTDOWN" => ("OK shutting-down".to_string(), true),
        "" => ("ERR empty request".to_string(), false),
        other => (
            format!("ERR unknown verb `{other}` (SUBMIT|STATUS|RESULT|CANCEL|SHUTDOWN)"),
            false,
        ),
    }
}

/// Longest request line the daemon reads, in bytes, not counting its `\n`.
const MAX_LINE: usize = 64 * 1024;

/// Answers request lines until the client closes, a read or write fails,
/// or a `SHUTDOWN` is answered. After the `SHUTDOWN` reply is written, or
/// its write failed, raises the queue's shutdown flag.
fn serve_connection(stream: &TcpStream, queue: &JobQueue, limits: &Limits) -> std::io::Result<()> {
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an over-long line from a full one
        // without holding more of it.
        let read = reader
            .by_ref()
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut buf)?;
        if read == 0 {
            return Ok(());
        }
        let (response, shutdown) = if buf.len() > MAX_LINE && buf.last() != Some(&b'\n') {
            reader.skip_until(b'\n')?;
            (
                format!("ERR request line longer than {MAX_LINE} bytes"),
                false,
            )
        } else {
            match std::str::from_utf8(&buf) {
                Ok(line) => handle_line(line, queue, limits),
                Err(_) => ("ERR request line is not UTF-8".to_string(), false),
            }
        };
        let sent = writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"));
        if shutdown {
            queue.shutdown();
            return sent;
        }
        sent?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The protocol layer, exercised without sockets: `handle_line` is the
    /// whole framing logic, so driving it directly pins the grammar.
    #[test]
    fn protocol_round_trip_without_sockets() {
        let queue = JobQueue::new();
        let pool = queue.spawn_workers(1);
        let limits = Limits::default();
        let (r, _) = handle_line("SUBMIT solve --php 3", &queue, &limits);
        assert_eq!(r, "OK id=1");
        let (r, _) = handle_line("RESULT 1 --wait", &queue, &limits);
        assert!(r.contains("state=done") && r.contains("unsat php=3"), "{r}");
        let (r, _) = handle_line("STATUS 1", &queue, &limits);
        assert!(r.contains("worker=0"), "{r}");
        let (r, _) = handle_line("STATUS 99", &queue, &limits);
        assert!(r.starts_with("ERR"), "{r}");
        let (r, _) = handle_line("SUBMIT attack --mode warp", &queue, &limits);
        assert!(r.starts_with("ERR"), "{r}");
        let (r, _) = handle_line("FROB 1", &queue, &limits);
        assert!(r.starts_with("ERR unknown verb"), "{r}");
        let (r, done) = handle_line("SHUTDOWN", &queue, &limits);
        assert_eq!(r, "OK shutting-down");
        assert!(done);
        // The connection raises the flag once the reply is written.
        assert!(!queue.is_shutting_down());
        queue.shutdown();
        pool.join();
    }

    #[test]
    fn wake_dials_loopback_for_an_unspecified_listener() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7171"), "127.0.0.1:7171");
        assert_eq!(wake("[::]:7171"), "[::1]:7171");
        assert_eq!(wake("10.1.2.3:7171"), "10.1.2.3:7171");
        assert_eq!(wake("[fe80::1]:7171"), "[fe80::1]:7171");
    }

    /// Only a session that ends with the queue shutting down dials the
    /// wake address: a `STATUS` session closes without a dial, and a
    /// `SHUTDOWN` session dials once, after its reply.
    #[test]
    fn only_a_shutdown_session_dials_the_wake_address() {
        let daemon = TcpListener::bind("127.0.0.1:0").unwrap();
        let wake = TcpListener::bind("127.0.0.1:0").unwrap();
        let wake_at = wake.local_addr().unwrap();
        let queue = JobQueue::new();
        let limits = Limits::default();
        // Dials queued at `wake`: the accepts before that of one last
        // connection made here (the accept queue is first in, first out).
        let dials = || {
            let marker = TcpStream::connect(wake_at).unwrap();
            let last = marker.local_addr().unwrap();
            std::iter::from_fn(|| Some(wake.accept().unwrap().1))
                .take_while(|peer| *peer != last)
                .count()
        };
        let session = |request: &str| {
            let mut client = TcpStream::connect(daemon.local_addr().unwrap()).unwrap();
            client.write_all(request.as_bytes()).unwrap();
            client.shutdown(Shutdown::Write).unwrap();
            let (stream, _) = daemon.accept().unwrap();
            serve_client(&stream, &queue, &limits, wake_at);
            drop(stream);
            let mut reply = String::new();
            client.read_to_string(&mut reply).unwrap();
            (reply, dials())
        };
        assert_eq!(session("STATUS 0\n"), ("ERR no such job 0\n".into(), 0));
        assert_eq!(session("SHUTDOWN\n"), ("OK shutting-down\n".into(), 1));
    }

    #[test]
    fn cancel_before_run_reports_cancelled() {
        // No workers: the job stays queued until cancelled.
        let queue = JobQueue::new();
        let limits = Limits::default();
        handle_line("SUBMIT solve --php 10", &queue, &limits);
        let (r, _) = handle_line("CANCEL 1", &queue, &limits);
        assert_eq!(r, "OK id=1 cancelled");
        let (r, _) = handle_line("RESULT 1", &queue, &limits);
        assert!(r.contains("state=cancelled"), "{r}");
    }
}
