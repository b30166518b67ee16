//! A minimal keep-alive HTTP/1.1 client: one TCP connection, requests sent one at a time,
//! `Content-Length` bodies only (the server's buffered responses).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A connection idle this long is replaced before its next request: the server closes idle
/// keep-alive connections after 15 s.
const MAX_IDLE: Duration = Duration::from_secs(10);

/// A response: status code and body text.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// One keep-alive connection. A response that asks to close the connection, an I/O error, or
/// `MAX_IDLE` without a request makes the next request reconnect.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<(BufReader<TcpStream>, TcpStream)>,
    last_used: Instant,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let mut conn = Conn {
            addr,
            stream: None,
            last_used: Instant::now(),
            buf: Vec::with_capacity(1024),
        };
        conn.reconnect()?;
        Ok(conn)
    }

    fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        self.stream = Some((reader, stream));
        Ok(())
    }

    /// Send one request and read its whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        if self.stream.is_none() || self.last_used.elapsed() >= MAX_IDLE {
            self.reconnect()?;
        }
        let result = self.exchange(method, path, body);
        self.last_used = Instant::now();
        if !matches!(result, Ok((_, true))) {
            self.stream = None;
        }
        result.map(|(response, _)| response)
    }

    /// Returns the response and whether the connection stays open.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(Response, bool)> {
        let (reader, writer) = self.stream.as_mut().expect("connected above");
        self.buf.clear();
        write!(
            self.buf,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        writer.write_all(&self.buf)?;

        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut length = None;
        let mut keep_alive = true;
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(invalid("chunked responses are not expected".to_string()));
            }
        }
        let length = length.ok_or_else(|| invalid("response without Content-Length".into()))?;
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8".into()))?;
        Ok((Response { status, body }, keep_alive))
    }
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}
