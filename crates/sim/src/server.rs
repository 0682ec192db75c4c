//! The networked face of the `vcountd` service: listeners, connections,
//! and the concurrent accept loop.
//!
//! The [`crate::service::RunManager`] is a pure request → responses core;
//! this module is everything around it that touches a socket. Two
//! transports speak the same newline-delimited JSON framing contract —
//! Unix domain sockets and TCP — and the transport is a deployment knob,
//! never a semantics knob, exactly like the stdin mode.
//!
//! ## Concurrency model
//!
//! [`serve_connections`] keeps the manager on the calling thread, the
//! *owner*: the only thread that parses, handles and serializes. Every
//! accepted connection gets a thread that does socket I/O only, and hands
//! each request line to the owner over a channel:
//!
//! * **One owner, one request at a time.** The owner answers requests in
//!   arrival order, so concurrent feeders interleave at request
//!   granularity and each tenant's event stream stays byte-identical to
//!   its solo run (tenants share the manager, never state).
//! * **One frame, one write.** The owner turns a request into its whole
//!   frame — the Event lines, then the terminal line — in one buffer, and
//!   the thread that read the request writes it with one `write_all` and
//!   one flush, so interleaved tenants can never corrupt each other's
//!   framing. Every TCP stream, accepted or dialed, has `TCP_NODELAY`
//!   set: no frame waits on Nagle for the peer's delayed ACK.
//! * **Disconnect and shutdown guards.** When a connection ends — EOF,
//!   error, or a feeder killed mid-run — its thread asks the owner to
//!   flush every tenant's sinks and waits for the acknowledgement, so
//!   server-side trace files are complete and the runs stay alive for a
//!   reconnect. The owner serves until the accept loop has stopped and
//!   every connection has closed, then flushes again before returning:
//!   graceful shutdown never leaves a buffered tail behind.
//!
//! [`serve_stream`] (stdin mode) builds its frames with the same function,
//! so there is one request → frame path.
//!
//! A malformed or hostile feeder — a line that is not even UTF-8, or one
//! longer than [`MAX_REQUEST_LINE`], included — is answered with
//! [`ServiceResponse::Error`] (see [`crate::service`] for the wire
//! validation) and keeps its connection; a broken socket ends only its own
//! connection thread — never the daemon, never another tenant.

use crate::service::{RunManager, ServiceRequest, ServiceResponse};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::Scope;

/// The longest request line, in bytes, newline excluded: 16 MiB, ~25×
/// the largest line vbench sends (a midtown `Resume`, ~0.63 MB). A longer
/// line is read no further than `MAX_REQUEST_LINE + 1` bytes, answered
/// with one `Error`, and the rest of it is discarded through its newline
/// without being buffered; the connection keeps serving.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// Consecutive `accept` failures tolerated before the loop gives up. A
/// transient error (EMFILE under load, an aborted handshake) must not
/// kill the daemon, but a persistently broken listener must not spin.
const MAX_CONSECUTIVE_ACCEPT_ERRORS: u32 = 16;

/// A bound service endpoint: Unix domain socket or TCP.
pub enum Listener {
    /// A Unix domain socket listener.
    Unix(UnixListener),
    /// A TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds a Unix domain socket at `path`. A stale socket file from a
    /// previous daemon is removed first — it cannot be a live listener we
    /// would disturb, because binding a bound path errors either way.
    pub fn bind_unix(path: &str) -> Result<Self, String> {
        let _ = std::fs::remove_file(path);
        UnixListener::bind(path)
            .map(Listener::Unix)
            .map_err(|e| format!("{path}: {e}"))
    }

    /// Binds a TCP listener at `addr` (`HOST:PORT`; port 0 picks a free
    /// port — read it back with [`Listener::local_addr`]).
    pub fn bind_tcp(addr: &str) -> Result<Self, String> {
        TcpListener::bind(addr)
            .map(Listener::Tcp)
            .map_err(|e| format!("{addr}: {e}"))
    }

    /// The bound address, printable (the socket path, or `IP:PORT`).
    pub fn local_addr(&self) -> String {
        match self {
            Listener::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_else(|| "<unix>".to_string()),
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<tcp>".to_string()),
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| nodelay(s)).map(Conn::Tcp),
        }
    }
}

/// Sends every write at once: a frame is one write, so Nagle can only
/// delay it (until the peer's delayed ACK fires, ~40 ms on Linux).
fn nodelay(stream: TcpStream) -> std::io::Result<TcpStream> {
    stream.set_nodelay(true).map(|()| stream)
}

/// One accepted (or dialed) connection, transport-erased.
pub enum Conn {
    /// A Unix domain socket stream.
    Unix(UnixStream),
    /// A TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    /// Dials a `vcountd` Unix socket.
    pub fn connect_unix(path: &str) -> Result<Self, String> {
        UnixStream::connect(path)
            .map(Conn::Unix)
            .map_err(|e| format!("{path}: {e}"))
    }

    /// Dials a `vcountd` TCP endpoint (`HOST:PORT`).
    pub fn connect_tcp(addr: &str) -> Result<Self, String> {
        TcpStream::connect(addr)
            .and_then(nodelay)
            .map(Conn::Tcp)
            .map_err(|e| format!("{addr}: {e}"))
    }

    /// A second handle onto the same stream (reader/writer split).
    pub fn try_clone(&self) -> std::io::Result<Self> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// A feeder's line-framed connection to a service: send one request, read
/// zero or more `Event` lines closed by exactly one terminal response.
pub struct WireClient {
    reader: BufReader<Conn>,
    writer: Conn,
}

impl WireClient {
    /// Wraps a dialed connection into a framed client.
    pub fn new(conn: Conn) -> Result<Self, String> {
        let reader = BufReader::new(conn.try_clone().map_err(|e| format!("socket: {e}"))?);
        Ok(WireClient {
            reader,
            writer: conn,
        })
    }

    /// Sends one request and collects its full answer per the framing
    /// contract: zero or more [`ServiceResponse::Event`] lines followed by
    /// exactly one terminal (non-`Event`) response.
    pub fn call(&mut self, req: &ServiceRequest) -> Result<Vec<ServiceResponse>, String> {
        let mut line = serde_json::to_vec(req).map_err(|e| e.to_string())?;
        line.push(b'\n');
        self.writer
            .write_all(&line)
            .map_err(|e| format!("send: {e}"))?;
        let mut out = Vec::new();
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("service closed the connection".into());
            }
            let resp: ServiceResponse =
                serde_json::from_str(line.trim_end()).map_err(|e| format!("bad response: {e}"))?;
            let is_event = matches!(resp, ServiceResponse::Event { .. });
            out.push(resp);
            if !is_event {
                return Ok(out);
            }
        }
    }
}

/// The one request → frame path of both modes: every response to one raw
/// request line (newline included), serialized as newline-terminated JSON
/// lines — the Event lines, then the terminal line — into one buffer for
/// one write. A blank line gets an empty frame. A line that is not UTF-8
/// parses to no request, and gets the same `malformed request` Error as
/// any other such line.
fn frame_request(
    mgr: &mut RunManager,
    line: &[u8],
    out: &mut Vec<ServiceResponse>,
) -> Result<Vec<u8>, String> {
    out.clear();
    match std::str::from_utf8(line).map(str::trim_end) {
        Ok("") => {}
        Ok(text) => mgr.handle_line(text, out),
        Err(e) => out.push(ServiceResponse::Error {
            run: String::new(),
            message: format!("malformed request: {e}"),
        }),
    }
    encode_frame(out)
}

/// Serializes (and drains) `out` as newline-terminated JSON lines, in
/// order, into one buffer.
fn encode_frame(out: &mut Vec<ServiceResponse>) -> Result<Vec<u8>, String> {
    let mut frame = Vec::new();
    for resp in out.drain(..) {
        let json = serde_json::to_string(&resp).map_err(|e| e.to_string())?;
        frame.reserve(json.len() + 1);
        frame.extend_from_slice(json.as_bytes());
        frame.push(b'\n');
    }
    Ok(frame)
}

/// What [`read_line`] found.
#[derive(Debug, PartialEq)]
enum Line {
    /// The stream ended.
    End,
    /// A line of at most `cap` bytes, its newline included if it has one.
    Request,
    /// A line longer than `cap` bytes: its first `cap + 1` bytes were
    /// read, and the rest was discarded through its newline.
    TooLong,
}

/// Reads one request line from `reader` into `line`, buffering at most
/// `cap + 1` bytes of it.
fn read_line(reader: &mut impl BufRead, cap: usize, line: &mut Vec<u8>) -> std::io::Result<Line> {
    if reader.take(cap as u64 + 1).read_until(b'\n', line)? == 0 {
        return Ok(Line::End);
    }
    if line.len() > cap && line.last() != Some(&b'\n') {
        reader.skip_until(b'\n')?;
        return Ok(Line::TooLong);
    }
    Ok(Line::Request)
}

/// Reads request lines of at most `cap` bytes from `reader` until EOF, and
/// writes each line's frame from `answer` on `writer` with one `write_all`
/// and one flush: the client decides what to send next from these
/// responses (backpressure, done), so they cannot sit in a buffer. A
/// longer line is answered here with one `Error` and never reaches
/// `answer`.
fn pump_lines(
    mut reader: impl BufRead,
    mut writer: impl Write,
    cap: usize,
    mut answer: impl FnMut(Vec<u8>) -> Result<Vec<u8>, String>,
) -> Result<(), String> {
    loop {
        let mut line = Vec::new();
        let read = read_line(&mut reader, cap, &mut line).map_err(|e| format!("read: {e}"))?;
        let frame = match read {
            Line::End => return Ok(()),
            Line::Request => answer(line)?,
            Line::TooLong => encode_frame(&mut vec![ServiceResponse::Error {
                run: String::new(),
                message: format!("request line exceeds {cap} bytes"),
            }])?,
        };
        if !frame.is_empty() {
            writer
                .write_all(&frame)
                .and_then(|()| writer.flush())
                .map_err(|e| format!("write: {e}"))?;
        }
    }
}

/// Answers newline-delimited requests from `reader` on `writer` until EOF,
/// then flushes every tenant's sinks — the disconnect guard: a feeder
/// going away mid-run leaves complete trace files behind.
pub fn serve_stream(
    mgr: &mut RunManager,
    reader: impl BufRead,
    writer: impl Write,
) -> Result<(), String> {
    let mut out = Vec::new();
    let result = pump_lines(reader, writer, MAX_REQUEST_LINE, |line| {
        frame_request(mgr, &line, &mut out)
    });
    mgr.flush_all();
    result
}

/// A frame from the owner, or why it could not build one.
type Frame = Result<Vec<u8>, String>;

/// What a connection thread asks of the owner.
enum Job {
    /// Answer this request line with its frame.
    Request(Vec<u8>, Sender<Frame>),
    /// The connection ended: flush every tenant's sinks, then reply.
    Hangup(Sender<Frame>),
}

/// The concurrent accept loop: serves each accepted connection on its own
/// I/O thread while the calling thread owns `mgr` and answers every
/// request, until `max_conns` connections have been accepted (`None` =
/// forever) or the listener breaks persistently. One broken feeder ends
/// at most its own connection thread. On the way out — limit reached or
/// listener dead — every connection is served to its end and every
/// tenant's sinks are flushed: graceful shutdown, complete traces.
pub fn serve_connections(
    listener: &Listener,
    mgr: &mut RunManager,
    max_conns: Option<u64>,
) -> Result<(), String> {
    let (jobs, inbox) = mpsc::channel();
    std::thread::scope(|s| {
        let acceptor = s.spawn(move || accept_loop(s, listener, max_conns, jobs));
        answer_jobs(mgr, inbox);
        acceptor.join().expect("the accept loop panicked")
    })
}

/// Accepts connections and spawns an I/O thread for each. Returning drops
/// this loop's handle on the job channel, so the owner stops once the
/// last connection has hung up.
fn accept_loop<'scope>(
    s: &'scope Scope<'scope, '_>,
    listener: &Listener,
    max_conns: Option<u64>,
    jobs: Sender<Job>,
) -> Result<(), String> {
    let mut accepted = 0u64;
    let mut consecutive_errors = 0u32;
    while max_conns.is_none_or(|n| accepted < n) {
        match listener.accept() {
            Ok(conn) => {
                consecutive_errors = 0;
                accepted += 1;
                let jobs = jobs.clone();
                s.spawn(move || {
                    if let Err(e) = serve_conn(conn, &jobs) {
                        eprintln!("connection error: {e}");
                    }
                });
            }
            Err(e) => {
                // A transient accept failure must not kill the daemon (or
                // skip the shutdown path) — log and keep accepting, up to
                // a persistence limit.
                eprintln!("accept error: {e}");
                consecutive_errors += 1;
                if consecutive_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS {
                    return Err(format!("accept failed {consecutive_errors} times: {e}"));
                }
            }
        }
    }
    Ok(())
}

/// The owner's loop: answers jobs in arrival order until every connection
/// thread and the accept loop have dropped their senders, then flushes
/// every tenant's sinks once more.
fn answer_jobs(mgr: &mut RunManager, inbox: Receiver<Job>) {
    let mut out = Vec::new();
    for job in inbox {
        // A send fails only when its connection thread is gone, and a gone
        // connection needs no reply.
        match job {
            Job::Request(line, reply) => {
                let _ = reply.send(frame_request(mgr, &line, &mut out));
            }
            Job::Hangup(reply) => {
                mgr.flush_all();
                let _ = reply.send(Ok(Vec::new()));
            }
        }
    }
    mgr.flush_all();
}

/// One connection's I/O thread: hands each request line to the owner and
/// writes back the frame. When the connection ends — EOF or error — it
/// waits for the owner to flush every tenant's sinks before exiting.
fn serve_conn(conn: Conn, jobs: &Sender<Job>) -> Result<(), String> {
    let (reply, frames) = mpsc::channel();
    let gone = || "the service stopped".to_string();
    let result = conn
        .try_clone()
        .map_err(|e| format!("socket: {e}"))
        .and_then(|reader| {
            pump_lines(BufReader::new(reader), conn, MAX_REQUEST_LINE, |line| {
                jobs.send(Job::Request(line, reply.clone()))
                    .map_err(|_| gone())?;
                frames.recv().map_err(|_| gone())?
            })
        });
    if jobs.send(Job::Hangup(reply)).is_ok() {
        let _ = frames.recv();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const CAP: usize = 16;
    const TOO_LONG: &str = r#"{"Error":{"run":"","message":"request line exceeds 16 bytes"}}"#;

    /// Pumps `input` with a 16-byte cap, answering each line with `ok`
    /// and its length; returns the written frames and the lines answered.
    fn pump(input: impl BufRead) -> (String, Vec<Vec<u8>>) {
        let mut written = Vec::new();
        let mut answered = Vec::new();
        pump_lines(input, &mut written, CAP, |line| {
            let frame = format!("ok {}\n", line.len()).into_bytes();
            answered.push(line);
            Ok(frame)
        })
        .expect("pump_lines");
        (String::from_utf8(written).unwrap(), answered)
    }

    #[test]
    fn an_over_long_line_is_refused_and_the_next_one_served() {
        let long = "x".repeat(CAP + 1);
        let exact = "y".repeat(CAP);
        let input = format!("{long}\n{exact}\n{long}{long}\nz\n");
        let (written, answered) = pump(input.as_bytes());
        assert_eq!(written, format!("{TOO_LONG}\nok 17\n{TOO_LONG}\nok 2\n"));
        assert_eq!(
            answered,
            [format!("{exact}\n").into_bytes(), b"z\n".to_vec()]
        );
    }

    #[test]
    fn an_over_long_unterminated_tail_is_refused_at_eof() {
        let input = format!("a\n{}", "x".repeat(CAP + 5));
        let (written, answered) = pump(input.as_bytes());
        assert_eq!(written, format!("ok 2\n{TOO_LONG}\n"));
        assert_eq!(answered, [b"a\n".to_vec()]);
        // A short unterminated tail is still a request.
        let (written, _) = pump(&b"abc"[..]);
        assert_eq!(written, "ok 3\n");
    }

    #[test]
    fn a_megabyte_line_buffers_at_most_cap_plus_one_bytes() {
        let mut input = vec![b'x'; 1 << 20];
        input.extend_from_slice(b"\nok\n");
        let mut reader = Cursor::new(&input[..]);
        let mut line = Vec::new();
        assert_eq!(
            read_line(&mut reader, CAP, &mut line).unwrap(),
            Line::TooLong
        );
        assert_eq!(line.len(), CAP + 1);
        assert_eq!(
            reader.position(),
            (1 << 20) + 1,
            "discarded through its newline"
        );
        line.clear();
        assert_eq!(
            read_line(&mut reader, CAP, &mut line).unwrap(),
            Line::Request
        );
        assert_eq!(line, b"ok\n");
        let (written, answered) = pump(&input[..]);
        assert_eq!(written, format!("{TOO_LONG}\nok 3\n"));
        assert_eq!(answered, [b"ok\n".to_vec()]);
    }
}
