//! The load generator's side of the line protocol: one blocking TCP
//! connection per generator thread, reply framing, reply hashing, and
//! failure accounting.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Requests attempted and how the failed ones failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    /// `err <code> …` replies (other than a `busy` refusal).
    pub err_replies: u64,
    /// Connections lost mid-request (reply never completed).
    pub disconnects: u64,
    /// Connections refused: connect failed or the server answered
    /// `err busy`.
    pub refused: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.err_replies + self.disconnects + self.refused
    }

    /// `(err replies + disconnects + refused) / attempted`.
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.err_replies += other.err_replies;
        self.disconnects += other.disconnects;
        self.refused += other.refused;
    }

    /// Count one attempt's outcome.
    pub fn record(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Err(code) if code == "busy" => self.refused += 1,
            Outcome::Err(_) => self.err_replies += 1,
            Outcome::Disconnected => self.disconnects += 1,
            Outcome::Refused => self.refused += 1,
        }
    }
}

/// How one request ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// `err <code> …`; the code.
    Err(String),
    Disconnected,
    Refused,
}

impl Outcome {
    /// `true` when the connection can no longer be used.
    pub fn drops_connection(&self) -> bool {
        matches!(self, Outcome::Disconnected | Outcome::Refused)
            || matches!(self, Outcome::Err(code) if code == "busy")
    }
}

/// Hashes a `mine` reply block with the fields that legitimately differ
/// between equal answers removed: ` req=<id>` and ` deduped` on the
/// header line.
pub struct ReplyHasher(DefaultHasher);

impl ReplyHasher {
    pub fn new() -> Self {
        ReplyHasher(DefaultHasher::new())
    }

    pub fn header(&mut self, line: &str) {
        let kept: Vec<&str> = line
            .split(' ')
            .filter(|w| *w != "deduped" && !w.starts_with("req="))
            .collect();
        self.line(&kept.join(" "));
    }

    pub fn line(&mut self, line: &str) {
        self.0.write(line.as_bytes());
        self.0.write_u8(b'\n');
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Hash of a whole reply block (first line is the header).
#[cfg(test)]
pub fn reply_hash(lines: &[String]) -> u64 {
    let mut h = ReplyHasher::new();
    if let Some((head, rest)) = lines.split_first() {
        h.header(head);
        for l in rest {
            h.line(l);
        }
    }
    h.finish()
}

/// A successfully framed `ok mine` reply.
#[derive(Clone, Copy, Debug)]
pub struct MineReply {
    pub version: u64,
    pub hash: u64,
    pub bytes: usize,
    pub shared: bool,
}

/// Value of `key=` in a reply header.
pub fn field(line: &str, key: &str) -> Option<u64> {
    line.split(' ')
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            line: String::new(),
        })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf)
    }

    /// Read one reply line (without the newline); EOF is an error.
    pub fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed"));
        }
        if !self.line.ends_with('\n') {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "reply cut short"));
        }
        self.line.pop();
        Ok(&self.line)
    }

    /// Send `line` and read a one-line reply.
    pub fn request(&mut self, line: &str) -> Result<String, Outcome> {
        self.send(line).map_err(|_| Outcome::Disconnected)?;
        let reply = self.read_line().map_err(|_| Outcome::Disconnected)?;
        match err_code(reply) {
            Some(code) => Err(Outcome::Err(code)),
            None => Ok(reply.to_string()),
        }
    }

    /// Send a `mine` line and read its whole reply block, hashing it.
    pub fn mine(&mut self, line: &str) -> Result<MineReply, Outcome> {
        self.send(line).map_err(|_| Outcome::Disconnected)?;
        self.read_mine_reply()
    }

    fn read_mine_reply(&mut self) -> Result<MineReply, Outcome> {
        let head = self.read_line().map_err(|_| Outcome::Disconnected)?;
        if let Some(code) = err_code(head) {
            return Err(Outcome::Err(code));
        }
        let count: usize = head
            .strip_prefix("ok mine ")
            .and_then(|r| r.split(' ').next())
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| Outcome::Err("unframed".into()))?;
        let version = field(head, "version").ok_or_else(|| Outcome::Err("unframed".into()))?;
        let shared = head.split(' ').any(|w| w == "deduped");
        let mut bytes = head.len() + 1;
        let mut h = ReplyHasher::new();
        h.header(head);
        for _ in 0..count {
            let l = self.read_line().map_err(|_| Outcome::Disconnected)?;
            bytes += l.len() + 1;
            h.line(l);
        }
        Ok(MineReply {
            version,
            hash: h.finish(),
            bytes,
            shared,
        })
    }
}

/// The code of an `err <code> …` line.
pub fn err_code(line: &str) -> Option<String> {
    let rest = line.strip_prefix("err ")?;
    Some(rest.split(' ').next().unwrap_or("").to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn reply_hash_ignores_req_id_and_dedup_marker() {
        let a = vec![
            "ok mine 1 answer(s) version=3 req=17".to_string(),
            "rule x".into(),
        ];
        let b = vec![
            "ok mine 1 answer(s) version=3 deduped req=99".to_string(),
            "rule x".into(),
        ];
        let c = vec![
            "ok mine 1 answer(s) version=4 req=17".to_string(),
            "rule x".into(),
        ];
        assert_eq!(reply_hash(&a), reply_hash(&b));
        assert_ne!(reply_hash(&a), reply_hash(&c));
    }

    /// A fake server that answers the first `mine` and then hangs up,
    /// and a second listener that refuses with `err busy`.
    #[test]
    fn error_frac_counts_disconnects_and_refusals() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            // Connection 1: one good reply, one `err` reply, then close
            // mid-request.
            let (s, _) = listener.accept().expect("accept");
            let mut r = BufReader::new(s.try_clone().expect("clone"));
            let mut w = s;
            let mut line = String::new();
            r.read_line(&mut line).expect("read");
            w.write_all(b"ok mine 1 answer(s) version=1 req=1\nrule a\n")
                .expect("write");
            line.clear();
            r.read_line(&mut line).expect("read");
            w.write_all(b"err parse bad metaquery\n").expect("write");
            line.clear();
            r.read_line(&mut line).expect("read");
            w.write_all(b"ok mine 2 answer(s) version=1 req=3\nrule a\n")
                .expect("write");
            drop(w);
            drop(r);
            // Connection 2: refused at admission.
            let (mut s, _) = listener.accept().expect("accept");
            s.write_all(b"err busy too many connections\n")
                .expect("write");
        });
        let mut tally = Tally::default();
        let mut conn = Conn::connect(addr).expect("connect");
        let outcome = |r: Result<MineReply, Outcome>| r.map(|_| Outcome::Ok).unwrap_or_else(|e| e);
        tally.record(&outcome(conn.mine("mine a :: x")));
        tally.record(&outcome(conn.mine("mine a :: x")));
        let cut = outcome(conn.mine("mine a :: x"));
        assert_eq!(cut, Outcome::Disconnected);
        assert!(cut.drops_connection());
        tally.record(&cut);
        let mut conn = Conn::connect(addr).expect("connect");
        let busy = outcome(conn.mine("mine a :: x"));
        assert!(busy.drops_connection());
        tally.record(&busy);
        server.join().expect("fake server");
        // Nothing listens on a closed port any more: a refused connect.
        let closed = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        assert!(Conn::connect(closed).is_err());
        tally.record(&Outcome::Refused);
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                ok: 1,
                err_replies: 1,
                disconnects: 1,
                refused: 2,
            }
        );
        assert_eq!(tally.failed(), 4);
        assert!((tally.error_frac() - 0.8).abs() < 1e-12);
    }
}
