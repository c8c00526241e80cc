//! Shared helpers for the serve integration tests: a tiny model and a
//! bare-bones blocking HTTP client over `TcpStream`.

// Each suite compiles its own copy and uses the subset it needs.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tsdx_core::{ModelConfig, ScenarioExtractor, VideoScenarioTransformer};

/// The smallest config the encoder accepts; one valid clip is `[4, 16, 16]`.
pub fn tiny_config() -> ModelConfig {
    ModelConfig {
        frames: 4,
        height: 16,
        width: 16,
        tubelet_t: 2,
        patch: 8,
        dim: 16,
        spatial_depth: 1,
        temporal_depth: 1,
        heads: 2,
        dropout: 0.0,
        ..ModelConfig::default()
    }
}

/// An extractor over an untrained tiny model (outputs are arbitrary but
/// deterministic — the tests assert service behavior, not accuracy).
pub fn tiny_extractor() -> ScenarioExtractor {
    ScenarioExtractor::new(VideoScenarioTransformer::new(tiny_config(), 0))
}

/// A valid clip body for [`tiny_config`]: 4·16·16 f32 pixels in `[0, 1)`.
pub fn valid_pixels() -> Vec<f32> {
    (0..4 * 16 * 16).map(|i| (i % 97) as f32 / 97.0).collect()
}

/// One parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl HttpResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// A blocking keep-alive HTTP/1.1 client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.set_write_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { reader, writer: stream }
    }

    /// Writes raw request bytes (caller is responsible for framing).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one full response. Skips interim `100 Continue` responses.
    pub fn read_response(&mut self) -> std::io::Result<HttpResponse> {
        loop {
            let resp = self.read_one()?;
            if resp.status != 100 {
                return Ok(resp);
            }
        }
    }

    fn read_one(&mut self) -> std::io::Result<HttpResponse> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line: {line:?}"));
        let mut headers = Vec::new();
        loop {
            let mut h = String::new();
            self.reader.read_line(&mut h)?;
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                headers.push((k.trim().to_string(), v.trim().to_string()));
            }
        }
        let len: usize = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(HttpResponse { status, headers, body: String::from_utf8_lossy(&body).into_owned() })
    }

    /// Sends a request with a body and reads the response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<HttpResponse> {
        let mut req = format!("{method} {path} HTTP/1.1\r\nhost: test\r\n");
        for (k, v) in headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        if !body.is_empty() || method == "POST" {
            req.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        req.push_str("\r\n");
        self.send_raw(req.as_bytes())?;
        self.send_raw(body)?;
        self.read_response()
    }
}

/// One-shot GET against `addr`.
pub fn get(addr: SocketAddr, path: &str) -> HttpResponse {
    Client::connect(addr).request("GET", path, &[], b"").expect("GET should get a response")
}

/// One-shot `POST /v1/extract` with an octet-stream body of `pixels` and
/// the given `TxHxW` shape string.
pub fn post_clip(
    addr: SocketAddr,
    shape: &str,
    pixels: &[f32],
    extra: &[(&str, &str)],
) -> std::io::Result<HttpResponse> {
    let body: Vec<u8> = pixels.iter().flat_map(|f| f.to_le_bytes()).collect();
    let mut headers = vec![("content-type", "application/octet-stream"), ("x-video-shape", shape)];
    headers.extend_from_slice(extra);
    Client::connect(addr).request("POST", "/v1/extract", &headers, &body)
}

/// `POST /sessions`, returning the new session id.
pub fn create_session(addr: SocketAddr) -> u64 {
    let resp = Client::connect(addr).request("POST", "/sessions", &[], b"").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    parse_u64_field(&resp.body, "session")
}

/// Extracts `"name":<u64>` from a flat JSON body.
pub fn parse_u64_field(body: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = body.find(&key).unwrap_or_else(|| panic!("no {key} in {body}"));
    body[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {body}"))
}
