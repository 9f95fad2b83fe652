//! One binary-codec connection to the daemon, with the send and receive
//! halves usable from two threads (the open-loop sender never waits for a
//! reply). `tempo_serve::Client` hides per-request timing, so the framing is
//! done here on top of `tempo_serve::codec`.

use bytes::BytesMut;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use tempo_serve::codec::{self, BINARY_PREFIX, BINARY_VERSION, MAX_FRAME_LEN};
use tempo_serve::proto::{Request, Response};

/// A reply that has not arrived after this long counts as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut writer = stream.try_clone()?;
        writer.write_all(&[BINARY_PREFIX, BINARY_VERSION])?;
        Ok(Wire { reader: BufReader::with_capacity(256 * 1024, stream), writer })
    }

    /// A second handle on the sending half, for the open-loop sender thread.
    pub fn sender(&self) -> io::Result<TcpStream> {
        self.writer.try_clone()
    }

    /// Writes already-framed bytes.
    pub fn send(&mut self, frames: &[u8]) -> io::Result<()> {
        self.writer.write_all(frames)
    }

    /// Reads one frame: its correlation id and message body.
    pub fn recv(&mut self) -> io::Result<(u64, Vec<u8>)> {
        let mut header = [0u8; codec::FRAME_HEADER];
        self.reader.read_exact(&mut header)?;
        let body_len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        if !(8..=MAX_FRAME_LEN).contains(&body_len) {
            return Err(bad_data(format!("bad frame length {body_len}")));
        }
        let corr = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
        let mut body = vec![0u8; body_len - 8];
        self.reader.read_exact(&mut body)?;
        Ok((corr, body))
    }

    /// One synchronous round trip; returns the raw reply body.
    pub fn call_raw(&mut self, corr: u64, request: &Request) -> io::Result<Vec<u8>> {
        let mut buf = BytesMut::new();
        codec::encode_frame(corr, request, &mut buf);
        self.send(buf.as_slice())?;
        let (got, body) = self.recv()?;
        if got != corr {
            return Err(bad_data(format!("reply for correlation id {got}, expected {corr}")));
        }
        Ok(body)
    }

    /// One synchronous round trip. An `Error` reply is an error.
    pub fn call(&mut self, corr: u64, request: &Request) -> io::Result<Response> {
        match decode(&self.call_raw(corr, request)?)? {
            Response::Error { message } => {
                Err(io::Error::other(format!("daemon refused: {message}")))
            }
            response => Ok(response),
        }
    }
}

pub fn decode(body: &[u8]) -> io::Result<Response> {
    codec::decode_binary(body).map_err(bad_data)
}
