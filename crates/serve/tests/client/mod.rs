//! A deliberately tiny blocking HTTP/1.1 client — just enough to drive
//! the server from the socket-level integration suite (keep-alive,
//! connect-per-request and pipelined) without pulling in a dependency.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status code and body.
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body as UTF-8 text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to the server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects with a generous default timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connects; `timeout` bounds both the connect and every read.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads one response on the kept-alive
    /// connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        self.request_inner(method, path, body, false)
    }

    /// Like [`Client::request`], but announces `Connection: close` so
    /// the server closes the connection at write time instead of parking
    /// it until EOF or the idle deadline — what a connect-per-request
    /// driver should send.
    pub fn request_closing(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        self.request_inner(method, path, body, true)
    }

    fn request_inner(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        close: bool,
    ) -> io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: srt-serve\r\n");
        if close {
            head.push_str("Connection: close\r\n");
        }
        if !body.is_empty() || method == "POST" || method == "PUT" {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Writes raw bytes on the connection (for malformed-input tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one response off the connection.
    pub fn read_response(&mut self) -> io::Result<ClientResponse> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a status line",
            ));
        }
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line: {line:?}"),
                )
            })?;
        let mut len = 0;
        loop {
            let mut hline = String::new();
            if self.reader.read_line(&mut hline)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-headers",
                ));
            }
            let trimmed = hline.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            if let Some((n, v)) = trimmed.split_once(':') {
                if n.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse::<usize>().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse { status, body })
    }
}

/// One-shot convenience: connect, send, read, close.
pub fn request_once(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<ClientResponse> {
    Client::connect(addr)?.request(method, path, body)
}
