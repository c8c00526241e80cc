//! The load generator's HTTP/1.1 client: keep-alive, `TCP_NODELAY`, one
//! `write` per request, `Content-Length` replies only (all the server
//! sends).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a reply may take before the op counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Renders one complete request (head and body) so it goes out in a single
/// write.
pub fn request_bytes(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: bench\r\n");
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

fn bad_reply(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad reply: {what}"))
}

/// Reads one response off `r`: the status code, with the body left in
/// `body` (cleared first).
pub fn read_response(r: &mut impl BufRead, body: &mut Vec<u8>) -> io::Result<u16> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status: u16 = line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad_reply("status line"))?;
    let mut length: Option<usize> = None;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad_reply("truncated headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').ok_or_else(|| bad_reply("header"))?;
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.trim().parse().map_err(|_| bad_reply("content-length"))?);
        }
    }
    body.clear();
    body.resize(length.ok_or_else(|| bad_reply("no content-length"))?, 0);
    r.read_exact(body)?;
    Ok(status)
}

/// When the three client-side phases of one exchange ended, for the traced
/// pass: request written, first reply byte available, reply fully read.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// `write_all` returned.
    pub sent: Instant,
    /// The first byte of the reply was readable.
    pub first_byte: Instant,
    /// The reply was parsed to its last body byte.
    pub done: Instant,
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and bounded reads.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        writer.set_write_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Writes one pre-rendered request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.writer.write_all(request)
    }

    /// Reads the reply to the last request into `body`.
    pub fn recv(&mut self, body: &mut Vec<u8>) -> io::Result<u16> {
        read_response(&mut self.reader, body)
    }

    /// [`send`](Self::send) then [`recv`](Self::recv), reporting when each
    /// phase ended.
    pub fn exchange(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<(u16, Phases)> {
        self.send(request)?;
        let sent = Instant::now();
        if self.reader.fill_buf()?.is_empty() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        let first_byte = Instant::now();
        let status = self.recv(body)?;
        Ok((status, Phases { sent, first_byte, done: Instant::now() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn requests_frame_head_and_body_in_one_buffer() {
        let req = request_bytes("POST", "/v1/extract", &[("x-video-shape", "1x2x2")], b"abcd");
        let text = String::from_utf8(req).unwrap();
        assert!(text.starts_with("POST /v1/extract HTTP/1.1\r\nhost: bench\r\n"), "{text}");
        assert!(text.contains("x-video-shape: 1x2x2\r\n"));
        assert!(text.ends_with("content-length: 4\r\n\r\nabcd"), "{text}");
        // The server's own parser must accept what the client renders.
        let mut cursor = Cursor::new(text.into_bytes());
        let head = tsdx_serve::http::read_head(&mut cursor).unwrap().unwrap();
        assert_eq!(head.path, "/v1/extract");
        assert_eq!(tsdx_serve::http::read_body(&mut cursor, &head, 16).unwrap(), b"abcd");
    }

    #[test]
    fn back_to_back_responses_parse_without_overreading() {
        let wire = "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nContent-Length: 7\r\n\r\n\
                    {\"a\":1}HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\ncontent-length: 2\r\n\r\n{}";
        let mut r = Cursor::new(wire.as_bytes());
        let mut body = Vec::new();
        assert_eq!(read_response(&mut r, &mut body).unwrap(), 200);
        assert_eq!(body, b"{\"a\":1}");
        assert_eq!(read_response(&mut r, &mut body).unwrap(), 429);
        assert_eq!(body, b"{}");
        assert_eq!(
            read_response(&mut r, &mut body).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn malformed_replies_are_errors_not_panics() {
        let mut body = Vec::new();
        for wire in [
            "SPDY/3 200\r\n\r\n",
            "HTTP/1.1 OK\r\n\r\n",
            "HTTP/1.1 200 OK\r\nno-colon\r\n\r\n",
            "HTTP/1.1 200 OK\r\n\r\n",
            "HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nshort",
            "HTTP/1.1 200 OK\r\ncontent-length: 1",
        ] {
            assert!(read_response(&mut Cursor::new(wire.as_bytes()), &mut body).is_err(), "{wire}");
        }
    }
}
