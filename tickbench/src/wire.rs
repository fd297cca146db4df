//! The loopback load: one server-loop thread running the real
//! [`FrontEnd`], and this (client) thread holding two connections — a
//! *driver* that sends requests and reads their replies, and a
//! *subscriber* that owns every session and reads every `RESULT`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use va_server::{FrontEnd, FrontEndConfig, FrontEndStats, Server};

use crate::gate::TickLines;

/// A reply that never comes within this fails the run instead of hanging.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if line.ends_with('\n') {
            line.pop();
        }
        Ok(line)
    }
}

/// Which of the two connections a request goes out on.
#[derive(Clone, Copy, Debug)]
pub enum Via {
    /// The tick-driving connection.
    Driver,
    /// The connection that holds the sessions.
    Subscriber,
}

/// A server serving loopback TCP on its own thread, plus the two client
/// connections.
pub struct Wire {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<io::Result<(Server, FrontEndStats)>>>,
    driver: Conn,
    subscriber: Conn,
    /// Requests sent.
    pub requests: u64,
    /// `ERROR` replies received.
    pub errors: u64,
}

/// Whether a reply line is a protocol `ERROR`.
fn is_error(line: &str) -> bool {
    line.starts_with("{\"type\":\"ERROR\"")
}

impl Wire {
    /// Moves `server` onto a server-loop thread listening on an ephemeral
    /// loopback port and opens both client connections.
    pub fn start(mut server: Server) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // Both connections wait in the listen backlog until the loop
        // accepts them, so nothing is spawned unless both exist.
        let driver = Conn::connect(addr)?;
        let subscriber = Conn::connect(addr)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut front = FrontEnd::new(FrontEndConfig::default());
            front.run(&listener, &mut server, &flag)?;
            Ok((server, front.stats()))
        });
        Ok(Self {
            stop,
            handle: Some(handle),
            driver,
            subscriber,
            requests: 0,
            errors: 0,
        })
    }

    fn conn(&mut self, via: Via) -> &mut Conn {
        match via {
            Via::Driver => &mut self.driver,
            Via::Subscriber => &mut self.subscriber,
        }
    }

    /// Sends one request and reads its one-line reply.
    pub fn request(&mut self, via: Via, line: &str) -> io::Result<String> {
        let mut replies = self.pipeline(via, &[line.to_string()])?;
        Ok(replies.pop().expect("one reply per request"))
    }

    /// Sends `lines` in one write and reads one reply per line, in order.
    pub fn pipeline(&mut self, via: Via, lines: &[String]) -> io::Result<Vec<String>> {
        self.requests += lines.len() as u64;
        let conn = self.conn(via);
        conn.send(&lines.join("\n"))?;
        let replies = lines
            .iter()
            .map(|_| conn.recv())
            .collect::<io::Result<Vec<String>>>()?;
        self.errors += replies.iter().filter(|r| is_error(r)).count() as u64;
        Ok(replies)
    }

    /// Sends `TICK` on the driver and reads until the tick's last byte has
    /// arrived: the driver's reply and, when it is `TICK_DONE`, `results`
    /// `RESULT` lines on the subscriber. Returns the latency in seconds.
    pub fn tick(&mut self, line: &str, results: usize) -> io::Result<(f64, TickLines)> {
        self.requests += 1;
        let start = Instant::now();
        self.driver.send(line)?;
        let done = self.driver.recv()?;
        let mut lines = Vec::with_capacity(results);
        if is_error(&done) {
            self.errors += 1;
        } else {
            for _ in 0..results {
                lines.push(self.subscriber.recv()?);
            }
        }
        let latency = start.elapsed().as_secs_f64();
        Ok((
            latency,
            TickLines {
                results: lines,
                done,
            },
        ))
    }

    /// Stops the server loop and hands the server back, with the
    /// front-end's counters. The server is *not* shut down cleanly: a
    /// durable one leaves its data dir as a crash would.
    pub fn finish(mut self) -> io::Result<(Server, FrontEndStats)> {
        self.join()
    }

    fn join(&mut self) -> io::Result<(Server, FrontEndStats)> {
        self.stop.store(true, Ordering::SeqCst);
        let handle = self.handle.take().expect("server loop joined once");
        handle
            .join()
            .map_err(|_| io::Error::other("server loop panicked"))?
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        if self.handle.is_some() {
            // Error path: stop and wait for the loop; its outcome no longer
            // matters.
            let _ = self.join();
        }
    }
}
