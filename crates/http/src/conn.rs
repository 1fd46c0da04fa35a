//! Per-worker connection buffers, reused across keep-alive requests and
//! across the connections a worker serves.
//!
//! The previous edge allocated a fresh `BufReader` + `BufWriter` (16 KiB of
//! zeroed heap) for every accepted connection. Under keep-alive + high
//! connection churn that allocation sits on the hot path; here each pool
//! worker owns one [`ConnBuffers`] for its lifetime (a `thread_local` of
//! the worker thread, see `server.rs`), and [`ConnReader`] /
//! [`ConnWriter`] borrow those buffers per connection. Read state
//! (`pos`/`filled`) lives in the reader so pipelined bytes survive between
//! requests of one connection and are discarded between connections, while
//! the backing storage is allocated exactly once per worker.
//!
//! The socket's read timeout is armed once per connection, to a short
//! slice the server picks (at most 250 ms, never zero). The reader
//! sits out timed-out slices itself: up to the idle timeout while it waits
//! for the first byte of a request, up to the read timeout per read once
//! one has arrived. So a keep-alive request costs no `setsockopt`.
//!
//! The writer is a classic buffered writer with a write-through path:
//! payloads at least as large as the buffer are flushed and written
//! directly, so multi-megabyte result bodies never balloon the reusable
//! buffer past [`WRITE_BUF`].

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Size of the reusable read buffer (header sections and small bodies).
pub(crate) const READ_BUF: usize = 16 * 1024;

/// Size of the reusable write buffer; larger writes go straight to the
/// socket.
pub(crate) const WRITE_BUF: usize = 64 * 1024;

/// One worker's reusable buffer storage.
pub(crate) struct ConnBuffers {
    read: Vec<u8>,
    write: Vec<u8>,
}

impl ConnBuffers {
    pub(crate) fn new() -> ConnBuffers {
        ConnBuffers {
            read: vec![0u8; READ_BUF],
            write: Vec::with_capacity(WRITE_BUF),
        }
    }

    /// Splits into the per-connection reader/writer storage.
    pub(crate) fn split(&mut self) -> (&mut Vec<u8>, &mut Vec<u8>) {
        (&mut self.read, &mut self.write)
    }
}

/// Whether a socket read gave up because its timeout slice ran out.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A buffered reader over a borrowed [`TcpStream`] using worker-owned
/// storage.
pub(crate) struct ConnReader<'a> {
    stream: &'a TcpStream,
    buf: &'a mut Vec<u8>,
    pos: usize,
    filled: usize,
    /// How long one read may wait for bytes once a request has started.
    read_timeout: Duration,
}

impl<'a> ConnReader<'a> {
    pub(crate) fn new(
        stream: &'a TcpStream,
        buf: &'a mut Vec<u8>,
        read_timeout: Duration,
    ) -> ConnReader<'a> {
        if buf.len() < READ_BUF {
            buf.resize(READ_BUF, 0);
        }
        ConnReader {
            stream,
            buf,
            pos: 0,
            filled: 0,
            read_timeout,
        }
    }

    /// Bytes already read off the socket but not yet consumed (a pipelined
    /// next request).
    pub(crate) fn buffered(&self) -> usize {
        self.filled - self.pos
    }

    /// Waits up to `idle` for the first byte of the next request, one
    /// timeout slice at a time.
    ///
    /// Returns `Ok(true)` when request bytes are available, `Ok(false)` on
    /// a clean close, when `idle` has passed, or when `draining` says so.
    /// The drain check sits *after* each read attempt, so a connection
    /// whose request is already in the socket is still answered during
    /// shutdown; only truly idle keep-alives are cut short.
    pub(crate) fn await_request(
        &mut self,
        idle: Duration,
        draining: impl Fn() -> bool,
    ) -> io::Result<bool> {
        if self.buffered() > 0 {
            return Ok(true); // pipelined request already in the buffer
        }
        let started = Instant::now();
        loop {
            match self.stream.read(self.buf) {
                Ok(0) => return Ok(false), // clean EOF
                Ok(n) => {
                    self.pos = 0;
                    self.filled = n;
                    return Ok(true);
                }
                Err(e) if timed_out(&e) => {
                    if draining() || started.elapsed() >= idle {
                        return Ok(false);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One socket read that sits out timed-out slices until the read
    /// timeout has passed, then reports the timeout.
    fn read_socket(
        stream: &TcpStream,
        out: &mut [u8],
        read_timeout: Duration,
    ) -> io::Result<usize> {
        let started = Instant::now();
        loop {
            match (&*stream).read(out) {
                Err(e) if timed_out(&e) && started.elapsed() < read_timeout => {}
                result => return result,
            }
        }
    }
}

impl Read for ConnReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.buffered() == 0 {
            // Large reads (bodies) bypass the buffer entirely.
            if out.len() >= self.buf.len() {
                return Self::read_socket(self.stream, out, self.read_timeout);
            }
            self.fill_buf()?;
        }
        let n = self.buffered().min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl BufRead for ConnReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.filled {
            self.filled = Self::read_socket(self.stream, self.buf, self.read_timeout)?;
            self.pos = 0;
        }
        Ok(&self.buf[self.pos..self.filled])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.filled);
    }
}

/// A buffered writer over a borrowed [`TcpStream`] using worker-owned
/// storage; write-through for payloads of [`WRITE_BUF`] bytes or more.
pub(crate) struct ConnWriter<'a> {
    stream: &'a TcpStream,
    buf: &'a mut Vec<u8>,
}

impl<'a> ConnWriter<'a> {
    pub(crate) fn new(stream: &'a TcpStream, buf: &'a mut Vec<u8>) -> ConnWriter<'a> {
        buf.clear();
        ConnWriter { stream, buf }
    }

    fn flush_buf(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.stream.write_all(self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

impl Write for ConnWriter<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.buf.len() + data.len() > WRITE_BUF {
            self.flush_buf()?;
        }
        if data.len() >= WRITE_BUF {
            self.stream.write_all(data)?;
        } else {
            self.buf.extend_from_slice(data);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_buf()?;
        self.stream.flush()
    }
}

impl Drop for ConnWriter<'_> {
    fn drop(&mut self) {
        let _ = self.flush_buf();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn reader_preserves_pipelined_bytes_and_reuses_storage() {
        let (client, server) = pair();
        use std::io::Write as _;
        (&client).write_all(b"firstsecond").unwrap();
        let mut bufs = ConnBuffers::new();
        let (read_buf, _) = bufs.split();
        let mut reader = ConnReader::new(&server, read_buf, Duration::from_secs(5));
        let mut first = [0u8; 5];
        reader.read_exact(&mut first).unwrap();
        assert_eq!(&first, b"first");
        assert_eq!(reader.buffered(), 6, "pipelined bytes retained");
        let mut second = [0u8; 6];
        reader.read_exact(&mut second).unwrap();
        assert_eq!(&second, b"second");
    }

    #[test]
    fn writer_write_through_keeps_buffer_bounded() {
        let (client, server) = pair();
        let big = vec![7u8; WRITE_BUF * 2];
        let mut bufs = ConnBuffers::new();
        {
            let (_, write_buf) = bufs.split();
            let mut writer = ConnWriter::new(&server, write_buf);
            writer.write_all(b"head").unwrap();
            writer.write_all(&big).unwrap();
            writer.flush().unwrap();
            assert!(
                writer.buf.capacity() <= WRITE_BUF + 4096,
                "buffer ballooned"
            );
        }
        let mut got = vec![0u8; 4 + big.len()];
        use std::io::Read as _;
        (&client).read_exact(&mut got).unwrap();
        assert_eq!(&got[..4], b"head");
        assert_eq!(&got[4..], &big[..]);
    }

    #[test]
    fn large_reads_bypass_the_buffer() {
        let (client, server) = pair();
        use std::io::Write as _;
        let payload = vec![3u8; READ_BUF * 2];
        let sender = {
            let payload = payload.clone();
            std::thread::spawn(move || (&client).write_all(&payload).unwrap())
        };
        let mut bufs = ConnBuffers::new();
        let (read_buf, _) = bufs.split();
        let mut reader = ConnReader::new(&server, read_buf, Duration::from_secs(5));
        let mut got = vec![0u8; payload.len()];
        reader.read_exact(&mut got).unwrap();
        assert_eq!(got, payload);
        sender.join().unwrap();
    }
}
