//! A minimal HTTP/1.1 keep-alive client: one request written, one
//! `Content-Length`-framed reply read, on a persistent connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One reply.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// A persistent connection to the server under test.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with Nagle off (each request is one small write) and a
    /// read timeout well past any expected reply.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
        })
    }

    /// Sends one request and reads its whole reply.
    pub fn send(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<Reply> {
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        self.reader.get_mut().write_all(&wire)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body })
    }
}
