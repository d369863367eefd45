//! Hand-rolled `/metrics` HTTP endpoint.
//!
//! The build is offline (no HTTP crates), so [`MetricsServer`] is a
//! minimal std-only HTTP/1.1 responder: one background thread, a
//! non-blocking accept loop polled every few milliseconds, and a
//! Prometheus text response rendered fresh from the [`Registry`] per
//! request. Engines without a listening socket (the simulator) hand
//! their registry back instead ([`Registry::render_prometheus`] renders
//! the same text).

use crate::registry::Registry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A background `/metrics` endpoint serving one [`Registry`].
///
/// Bind with port 0 for an ephemeral port and read it back with
/// [`MetricsServer::addr`]. Dropping the server stops the thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` and starts serving `registry`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: SocketAddr, registry: Registry) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("metrics-http".into())
            .spawn(move || serve(listener, registry, thread_stop))?;
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serving thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve(listener: TcpListener, registry: Registry, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One request per connection, served inline: the scrape
                // cadence is seconds, not thousands per second.
                let _ = respond(stream, &registry);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn respond(mut stream: TcpStream, registry: &Registry) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read until the end of the request head; the request line is all we
    // look at, and scrapers send no body.
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let request_line = head.split(|&b| b == b'\r').next().unwrap_or(b"");
    let not_found =
        !(request_line.starts_with(b"GET /metrics") || request_line.starts_with(b"GET / "));
    let (status, body) = if not_found {
        ("404 Not Found", String::from("not found; try /metrics\n"))
    } else {
        ("200 OK", registry.render_prometheus())
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_registry_as_prometheus_text() {
        let registry = Registry::new();
        registry.counter("agg.exchanges").add(12);
        let server = MetricsServer::bind("127.0.0.1:0".parse().unwrap(), registry.clone()).unwrap();
        let response = get(server.addr(), "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("agg_exchanges 12"), "{response}");
        // Scrapes see live values, not a bind-time snapshot.
        registry.counter("agg.exchanges").add(1);
        assert!(get(server.addr(), "/metrics").contains("agg_exchanges 13"));
        assert!(get(server.addr(), "/other").starts_with("HTTP/1.1 404"));
        server.shutdown();
    }
}
