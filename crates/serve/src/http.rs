//! Minimal HTTP/1.1 framing over blocking streams — exactly what the
//! four endpoints need, nothing else.
//!
//! Supported: request-line + header parsing with hard size caps,
//! `Content-Length` bodies, keep-alive (HTTP/1.1 default) and
//! `Connection: close`. Deliberately unsupported (answered with a clean
//! error, never undefined behaviour): chunked transfer encoding (`501`),
//! bodies without a length (`411`), oversized headers or bodies (`431`
//! / `413`). The parser trusts nothing: every limit is enforced while
//! reading, so a hostile peer cannot make the server allocate unboundedly.

use std::io::{self, BufRead, Read, Write};

/// Cap on the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a request body (`413` beyond it).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (no query-string splitting; the API uses
    /// fixed paths).
    pub path: String,
    /// `true` for HTTP/1.1 (keep-alive by default), `false` for 1.0.
    pub http11: bool,
    /// Header `(name, value)` pairs; names lower-cased during parsing.
    pub headers: Vec<(String, String)>,
    /// The body, already length-checked.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
            || !self.http11
    }
}

/// Why a request could not be parsed. Everything except `Closed`/`Io`
/// maps to a definite status code via [`RequestError::status`].
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed the connection cleanly before sending a request
    /// (the normal end of a keep-alive session).
    Closed,
    /// Transport error (includes read timeouts on idle connections).
    Io(io::Error),
    /// Syntactically broken request head.
    Malformed(&'static str),
    /// Head grew past [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// Body declared larger than [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// A body-carrying method without `Content-Length`.
    LengthRequired,
    /// `Transfer-Encoding` (chunked et al.) is not implemented.
    UnsupportedTransferEncoding,
}

impl RequestError {
    /// The status code to answer with (`None`: nothing to say — the
    /// connection just ends).
    pub fn status(&self) -> Option<u16> {
        match self {
            RequestError::Closed | RequestError::Io(_) => None,
            RequestError::Malformed(_) => Some(400),
            RequestError::HeadTooLarge => Some(431),
            RequestError::BodyTooLarge => Some(413),
            RequestError::LengthRequired => Some(411),
            RequestError::UnsupportedTransferEncoding => Some(501),
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
            RequestError::Closed => "connection closed".into(),
            RequestError::Io(e) => format!("transport error: {e}"),
            RequestError::Malformed(what) => format!("malformed request: {what}"),
            RequestError::HeadTooLarge => {
                format!("request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            RequestError::BodyTooLarge => {
                format!("request body exceeds {MAX_BODY_BYTES} bytes")
            }
            RequestError::LengthRequired => "Content-Length required".into(),
            RequestError::UnsupportedTransferEncoding => {
                "transfer encodings are not supported; send Content-Length".into()
            }
        }
    }
}

/// Reads one CRLF-terminated line, charging its size against `budget`.
fn read_line<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<String, RequestError> {
    let mut raw = Vec::new();
    // Cap the read itself: `take` stops a single endless unterminated
    // line from blowing past the head budget before the check below.
    // UFCS pins `Self = &mut R` so the reader is borrowed, not moved.
    let n = Read::take(&mut *r, *budget as u64 + 2)
        .read_until(b'\n', &mut raw)
        .map_err(RequestError::Io)?;
    if n == 0 {
        return Err(RequestError::Closed);
    }
    if !raw.ends_with(b"\n") {
        return Err(if n > *budget {
            RequestError::HeadTooLarge
        } else {
            RequestError::Malformed("unterminated line")
        });
    }
    raw.pop();
    if raw.ends_with(b"\r") {
        raw.pop();
    }
    *budget = budget.saturating_sub(n);
    String::from_utf8(raw).map_err(|_| RequestError::Malformed("non-UTF-8 request head"))
}

/// Reads and validates one request from the stream.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, RequestError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(r, &mut budget)?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(RequestError::Malformed("empty request line"))?
        .to_owned();
    let path = parts
        .next()
        .filter(|p| !p.is_empty())
        .ok_or(RequestError::Malformed("missing request target"))?
        .to_owned();
    let http11 = match parts.next() {
        Some("HTTP/1.1") => true,
        Some("HTTP/1.0") => false,
        _ => return Err(RequestError::Malformed("unsupported HTTP version")),
    };
    if parts.next().is_some() {
        return Err(RequestError::Malformed("extra tokens in request line"));
    }

    let mut headers = Vec::new();
    loop {
        let line = match read_line(r, &mut budget) {
            Ok(l) => l,
            // EOF mid-head is malformed, not a clean close.
            Err(RequestError::Closed) => {
                return Err(RequestError::Malformed("connection closed mid-request"))
            }
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RequestError::Malformed("header without ':'"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut req = Request {
        method,
        path,
        http11,
        headers,
        body: Vec::new(),
    };

    if req.header("transfer-encoding").is_some() {
        return Err(RequestError::UnsupportedTransferEncoding);
    }
    // Multiple Content-Length headers are a request-smuggling desync
    // vector behind proxies that resolve the conflict differently
    // (RFC 7230 §3.3.2): refuse them outright rather than pick one.
    if req
        .headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .count()
        > 1
    {
        return Err(RequestError::Malformed("multiple Content-Length headers"));
    }
    let content_length = match req.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| RequestError::Malformed("unparseable Content-Length"))?,
        None => {
            if req.method == "POST" || req.method == "PUT" {
                return Err(RequestError::LengthRequired);
            }
            0
        }
    };
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::BodyTooLarge);
    }
    if content_length > 0 {
        let mut body = vec![0u8; content_length];
        r.read_exact(&mut body).map_err(RequestError::Io)?;
        req.body = body;
    }
    Ok(req)
}

/// Index just past the head-terminating blank line, if the buffer holds
/// a complete request head. Lines end at `\n` with an optional `\r`
/// before it — the same framing [`read_line`] accepts.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        let j = i + buf[i..].iter().position(|&b| b == b'\n')?;
        let line = &buf[i..j];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.is_empty() {
            return Some(j + 1);
        }
        i = j + 1;
    }
    None
}

/// Incremental parse for the nonblocking connection plane: attempts to
/// parse one complete request from the front of `buf`.
///
/// * `Ok(Some((req, consumed)))` — a full request was parsed from
///   `buf[..consumed]`; the caller drains those bytes and calls again,
///   which is what makes HTTP/1.1 pipelining work (every complete
///   request already in the buffer is parsed, not one per read),
/// * `Ok(None)` — the buffer holds only a prefix (head unterminated, or
///   a declared body still arriving); read more and retry,
/// * `Err(_)` — the prefix can never become a valid request; same
///   status mapping as [`read_request`], and the connection is done.
///
/// Validation is byte-for-byte [`read_request`] — this wrapper only
/// adds the completeness check a non-blocking reader needs.
pub fn parse_buffered(buf: &[u8]) -> Result<Option<(Request, usize)>, RequestError> {
    if head_end(buf).is_none() {
        // `>=`: a head that has already filled the whole budget without
        // terminating can never become valid by growing further.
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(RequestError::HeadTooLarge);
        }
        return Ok(None);
    }
    let mut slice = buf;
    match read_request(&mut slice) {
        Ok(req) => Ok(Some((req, buf.len() - slice.len()))),
        // The head is complete, so EOF can only mean the declared body
        // has not fully arrived yet (the length cap was already
        // enforced before any body byte was read).
        Err(RequestError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(e),
    }
}

/// One response, framed with `Content-Length` (never chunked).
#[derive(Debug)]
pub struct Response {
    /// Status code (see [`reason`] for the phrase).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Ask the peer to close after this response (`Connection: close`).
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            close: false,
        }
    }

    /// Marks the response as connection-terminating.
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes `resp` onto the stream (flushes before returning).
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if resp.close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(&resp.body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /route HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.body, b"abcd");
        assert!(req.wants_close());
    }

    #[test]
    fn rejects_gibberish_with_400() {
        for raw in ["NOT A REQUEST\r\n\r\n", "GET\r\n\r\n", "GET / HTTP/2\r\n\r\n"] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), Some(400), "{raw:?} -> {err:?}");
        }
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        // Even agreeing duplicates are refused — a proxy in front may
        // resolve the pair differently than we do (smuggling desync).
        for raw in [
            "POST /route HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd",
            "POST /route HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), Some(400), "{raw:?} -> {err:?}");
        }
    }

    #[test]
    fn post_without_length_is_411_and_chunked_is_501() {
        assert_eq!(
            parse("POST /route HTTP/1.1\r\n\r\n").unwrap_err().status(),
            Some(411)
        );
        assert_eq!(
            parse("POST /route HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(501)
        );
    }

    #[test]
    fn oversized_declarations_are_bounded() {
        let huge_body = format!("POST /route HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30);
        assert_eq!(parse(&huge_body).unwrap_err().status(), Some(413));
        let huge_head = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert_eq!(parse(&huge_head).unwrap_err().status(), Some(431));
    }

    #[test]
    fn clean_eof_is_closed_not_malformed() {
        assert!(matches!(parse("").unwrap_err(), RequestError::Closed));
    }

    #[test]
    fn parse_buffered_handles_partials_pipelines_and_garbage() {
        // A bare prefix parses to "not yet".
        let full = b"POST /route HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        for cut in [0, 5, 21, 44, full.len() - 1] {
            assert!(
                parse_buffered(&full[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes is incomplete"
            );
        }
        let (req, consumed) = parse_buffered(full).unwrap().unwrap();
        assert_eq!(consumed, full.len());
        assert_eq!(req.body, b"abcd");

        // Two pipelined requests: the first parse consumes exactly the
        // first request, the remainder parses to the second.
        let mut piped = full.to_vec();
        piped.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        let (first, consumed) = parse_buffered(&piped).unwrap().unwrap();
        assert_eq!(first.path, "/route");
        assert_eq!(consumed, full.len());
        let (second, rest) = parse_buffered(&piped[consumed..]).unwrap().unwrap();
        assert_eq!(second.path, "/healthz");
        assert_eq!(rest, piped.len() - consumed);

        // Same validation as the blocking reader.
        assert_eq!(
            parse_buffered(b"NOT A REQUEST\r\n\r\n").unwrap_err().status(),
            Some(400)
        );
        assert_eq!(
            parse_buffered(b"POST /route HTTP/1.1\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(411)
        );
        // An unterminated head that already filled the budget can never
        // become valid.
        let endless = vec![b'a'; MAX_HEAD_BYTES];
        assert_eq!(parse_buffered(&endless).unwrap_err().status(), Some(431));
    }

    #[test]
    fn response_roundtrips_with_length_framing() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{\"x\":1}".into())).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"x\":1}"));
    }
}
