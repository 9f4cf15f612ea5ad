//! Minimal HTTP/1.1 framing for the nonblocking connection plane — exactly
//! what the five endpoints need, nothing else: [`parse_buffered`] parses
//! requests off the front of a connection's read buffer, and
//! [`write_response`] frames the answers.
//!
//! Supported: request-line + header parsing with hard size caps,
//! `Content-Length` bodies, keep-alive (HTTP/1.1 default), pipelining and
//! `Connection: close`. Deliberately unsupported (answered with a clean
//! error, never undefined behaviour): chunked transfer encoding (`501`),
//! bodies without a length (`411`), oversized headers or bodies (`431`
//! / `413`). The parser trusts nothing: every limit is checked as soon as
//! the buffered bytes reveal it, so a hostile peer cannot make the server
//! allocate unboundedly.

use std::io::{self, Write};

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
    fn header(&self, name: &str) -> Option<&str> {
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

/// Why a request could not be parsed; each maps to a definite status
/// code via [`RequestError::status`].
#[derive(Debug)]
pub enum RequestError {
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
    /// The status code to answer with.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::Malformed(_) => 400,
            RequestError::HeadTooLarge => 431,
            RequestError::BodyTooLarge => 413,
            RequestError::LengthRequired => 411,
            RequestError::UnsupportedTransferEncoding => 501,
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
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

/// Index just past the head-terminating blank line, if the buffer holds
/// a complete request head. Lines end at `\n` with an optional `\r`
/// before it.
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

/// Splits the next line off a complete head.
fn next_line<'a>(head: &mut &'a [u8]) -> Result<&'a str, RequestError> {
    let n = head
        .iter()
        .position(|&b| b == b'\n')
        .map_or(head.len(), |i| i + 1);
    let (line, rest) = head.split_at(n);
    *head = rest;
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    std::str::from_utf8(line).map_err(|_| RequestError::Malformed("non-UTF-8 request head"))
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
/// * `Err(_)` — the prefix can never become a valid request; answer
///   with [`RequestError::status`], and the connection is done.
pub fn parse_buffered(buf: &[u8]) -> Result<Option<(Request, usize)>, RequestError> {
    let Some(end) = head_end(buf) else {
        // `>=`: a head that has already filled the whole budget without
        // terminating can never become valid by growing further.
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(RequestError::HeadTooLarge);
        }
        return Ok(None);
    };
    // The one size check on a complete head, terminators included.
    if end > MAX_HEAD_BYTES {
        return Err(RequestError::HeadTooLarge);
    }
    let mut head = &buf[..end];
    let request_line = next_line(&mut head)?;
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
        let line = next_line(&mut head)?;
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
    let consumed = end + content_length;
    let Some(body) = buf.get(end..consumed) else {
        return Ok(None); // the declared body has not fully arrived yet
    };
    req.body = body.to_vec();
    Ok(Some((req, consumed)))
}

/// One response, framed with `Content-Length` (never chunked).
#[derive(Debug)]
pub struct Response {
    /// Status code.
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
fn reason(status: u16) -> &'static str {
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

    /// Parses a buffer that holds exactly one complete request.
    fn parse(raw: &str) -> Result<Request, RequestError> {
        parse_buffered(raw.as_bytes()).map(|parsed| {
            let (req, consumed) = parsed.expect("a complete request");
            assert_eq!(consumed, raw.len(), "{raw:?} is one request");
            req
        })
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
            assert_eq!(err.status(), 400, "{raw:?} -> {err:?}");
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
            assert_eq!(err.status(), 400, "{raw:?} -> {err:?}");
        }
    }

    #[test]
    fn post_without_length_is_411_and_chunked_is_501() {
        assert_eq!(
            parse("POST /route HTTP/1.1\r\n\r\n").unwrap_err().status(),
            411
        );
        assert_eq!(
            parse("POST /route HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status(),
            501
        );
    }

    #[test]
    fn oversized_declarations_are_bounded() {
        let huge_body = format!("POST /route HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30);
        assert_eq!(parse(&huge_body).unwrap_err().status(), 413);
        let huge_head = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert_eq!(parse(&huge_head).unwrap_err().status(), 431);
    }

    #[test]
    fn head_size_boundary() {
        // A complete head of `total` bytes: request line, one padded
        // header, blank line.
        const FRAME: &str = "GET / HTTP/1.1\r\nX-Pad: \r\n\r\n";
        let head = |total: usize| {
            format!(
                "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                "a".repeat(total - FRAME.len())
            )
        };
        // The cap counts every byte of the head, terminators included.
        for total in [MAX_HEAD_BYTES - 1, MAX_HEAD_BYTES] {
            let req = parse(&head(total)).unwrap_or_else(|e| panic!("{total}: {e:?}"));
            assert_eq!(req.header("x-pad").map(str::len), Some(total - FRAME.len()));
        }
        assert_eq!(parse(&head(MAX_HEAD_BYTES + 1)).unwrap_err().status(), 431);
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

        // An unterminated head that already filled the budget can never
        // become valid; one byte short of it may still terminate.
        let endless = vec![b'a'; MAX_HEAD_BYTES];
        assert_eq!(parse_buffered(&endless).unwrap_err().status(), 431);
        assert!(parse_buffered(&endless[1..]).unwrap().is_none());
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
