//! Minimal HTTP/1.1 support: enough of the protocol for a small JSON
//! API, hand-rolled because the workspace builds offline.
//!
//! The server speaks one request per connection (`Connection: close`);
//! that keeps the worker pool trivially fair and makes load shedding a
//! per-connection decision. Request sizes are bounded (16 KiB of head,
//! 1 MiB of body) so a misbehaving client cannot balloon a worker.

use std::io::{self, BufRead, Write};

/// Maximum accepted size of the request line + headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted `Content-Length`.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Path without the query string, e.g. `/v1/analyze`.
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lowercase) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The peer closed the connection before sending anything — not an
    /// error worth logging (shutdown wake-ups look like this).
    Closed,
    /// A malformed or over-limit request; the message is safe to echo.
    Bad(String),
    /// An I/O failure mid-request.
    Io(String),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e.to_string())
    }
}

/// Reads one request from `reader`.
///
/// # Errors
///
/// [`ReadError::Closed`] on immediate EOF, [`ReadError::Bad`] on
/// malformed input (map it to a 400), [`ReadError::Io`] otherwise.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ReadError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let request_line = read_line(reader, &mut head_budget)?;
    if request_line.is_empty() {
        return Err(ReadError::Closed);
    }
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Bad("empty request line".into()))?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Bad("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Bad("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(format!("unsupported version {version:?}")));
    }

    let (path, query) = split_target(target);

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut head_budget)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Bad(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_lowercase(), value.trim().to_owned()));
    }

    let mut request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };

    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| ReadError::Bad(format!("bad Content-Length {len:?}")))?;
        if len > MAX_BODY_BYTES {
            return Err(ReadError::Bad(format!(
                "body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )));
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        request.body = body;
    } else if request.header("transfer-encoding").is_some() {
        return Err(ReadError::Bad("chunked bodies are not supported".into()));
    }

    Ok(request)
}

/// Reads one CRLF/LF-terminated line, charging it against `budget`.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, ReadError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => break, // EOF
            _ => {
                if *budget == 0 {
                    return Err(ReadError::Bad("request head too large".into()));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| ReadError::Bad("non-UTF-8 request head".into()))
}

/// Splits `/path?a=1&b=2` into the path and decoded query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_owned(), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|part| !part.is_empty())
                .map(|part| match part.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(part), String::new()),
                })
                .collect();
            (path.to_owned(), pairs)
        }
    }
}

/// Decodes `%XX` sequences and `+` (as space). Invalid sequences pass
/// through literally.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let decoded = bytes
                    .get(i + 1..i + 3)
                    .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|hex| {
                        u8::from_str_radix(std::str::from_utf8(hex).unwrap_or(""), 16).ok()
                    });
                match decoded {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name, value).
    pub extra_headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A CSV response.
    pub fn csv(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/csv; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Serializes status line, headers and body to `writer`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (a hung-up client, typically).
    pub fn write_to(&self, writer: &mut impl Write) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// Writes the head of a `Transfer-Encoding: chunked` streaming response
/// — the escape hatch from the one-shot [`Response`] shape used by
/// `GET /v1/stream/metrics`, where the body length is unknown up front.
/// Follow with [`write_chunk`] per payload and [`finish_chunked`] to
/// terminate.
///
/// # Errors
///
/// Propagates I/O errors (a hung-up client, typically).
pub fn write_chunked_head(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
        status,
        reason(status),
        content_type,
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.flush()
}

/// Writes one chunk (`<hex length>\r\n<data>\r\n`) and flushes, so each
/// frame reaches the client immediately. Empty payloads are skipped —
/// a zero-length chunk would terminate the stream (that is
/// [`finish_chunked`]'s job).
///
/// # Errors
///
/// Propagates I/O errors (a hung-up client, typically).
pub fn write_chunk(writer: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(writer, "{:x}\r\n", data.len())?;
    writer.write_all(data)?;
    writer.write_all(b"\r\n")?;
    writer.flush()
}

/// Terminates a chunked response with the zero-length final chunk.
///
/// # Errors
///
/// Propagates I/O errors (a hung-up client, typically).
pub fn finish_chunked(writer: &mut impl Write) -> io::Result<()> {
    writer.write_all(b"0\r\n\r\n")?;
    writer.flush()
}

/// Standard reason phrases for the statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        415 => "Unsupported Media Type",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query() {
        let r = read("GET /v1/experiments/fig7?format=csv&x=a%20b HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/experiments/fig7");
        assert_eq!(r.query_param("format"), Some("csv"));
        assert_eq!(r.query_param("x"), Some("a b"));
        assert_eq!(r.header("host"), Some("h"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = read("POST /v1/analyze HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"a\":1}");
    }

    #[test]
    fn immediate_eof_is_closed() {
        assert_eq!(read("").unwrap_err(), ReadError::Closed);
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw = format!(
            "POST /v1/analyze HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(read(&raw).unwrap_err(), ReadError::Bad(_)));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "v".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(read(&raw).unwrap_err(), ReadError::Bad(_)));
    }

    #[test]
    fn malformed_requests_are_bad() {
        assert!(matches!(
            read("GARBAGE\r\n\r\n").unwrap_err(),
            ReadError::Bad(_)
        ));
        assert!(matches!(
            read("GET / SPDY/3\r\n\r\n").unwrap_err(),
            ReadError::Bad(_)
        ));
        assert!(matches!(
            read("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n").unwrap_err(),
            ReadError::Bad(_)
        ));
        assert!(matches!(
            read("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err(),
            ReadError::Bad(_)
        ));
    }

    #[test]
    fn response_serializes_with_length_and_close() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("X-Cache", "hit")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn chunked_stream_round_trips() {
        let mut out = Vec::new();
        write_chunked_head(
            &mut out,
            200,
            "application/x-ndjson",
            &[("X-Rsmem-Trace-Id".into(), "00ab".into())],
        )
        .unwrap();
        write_chunk(&mut out, b"{\"seq\":1}\n").unwrap();
        write_chunk(&mut out, b"").unwrap(); // skipped, not a terminator
        write_chunk(&mut out, b"{\"seq\":2}\n").unwrap();
        finish_chunked(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("X-Rsmem-Trace-Id: 00ab\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(text.contains("\r\n\r\na\r\n{\"seq\":1}\n\r\n"));
        assert!(text.ends_with("a\r\n{\"seq\":2}\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn percent_decoding_handles_edge_cases() {
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("a%2Cb"), "a,b");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trail%2"), "trail%2");
    }
}
