//! Client-side types shared by the load engine and the control
//! connection: classified client errors, deterministic PUT payloads, the
//! per-connection outcome, and the STATS/SHUTDOWN handshake the run ends
//! with. The load itself is driven by the reactor engine in `engine`.

use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream};

use wmlp_core::conn::{write_frame, ConnError, FrameReader};
use wmlp_core::wire::{Frame, StatsPayload};
use wmlp_sim::Histogram;

use crate::report::Totals;

/// A client-side failure, classified for the SERVE.json
/// `client_errors` array.
#[derive(Debug)]
pub enum ClientError {
    /// Socket setup or write-side failure.
    Io {
        /// What the client was doing.
        what: String,
        /// The underlying socket error.
        source: std::io::Error,
    },
    /// The read half failed (typed transport error, including version
    /// skew and corrupt framing).
    Conn(ConnError),
    /// The server answered with a frame that makes no sense here.
    Protocol(String),
}

impl ClientError {
    /// Stable failure class for the report: a [`ConnError::kind`] for
    /// transport errors, `"io"` or `"protocol"` otherwise.
    pub fn kind(&self) -> &'static str {
        match self {
            ClientError::Io { .. } => "io",
            ClientError::Conn(e) => e.kind(),
            ClientError::Protocol(_) => "protocol",
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io { what, source } => write!(f, "{what}: {source}"),
            ClientError::Conn(e) => write!(f, "{e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io { source, .. } => Some(source),
            ClientError::Conn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConnError> for ClientError {
    fn from(e: ConnError) -> Self {
        ClientError::Conn(e)
    }
}

/// Deterministic PUT payload generator: page `p` always writes the same
/// `size` bytes for a given `seed`, on every connection and every
/// repeat, so runs stay replayable and the server's stored values are a
/// pure function of the config.
#[derive(Debug, Clone, Copy)]
pub struct PutValues {
    /// Mixed into every byte, so different runs write different values.
    pub seed: u64,
    /// Bytes per payload.
    pub size: usize,
}

impl PutValues {
    /// Fill `out` with the payload for `page` (clears it first).
    pub fn fill(&self, page: u32, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.size);
        let mut x = self.seed ^ ((page as u64) << 1) ^ 0x9e37_79b9_7f4a_7c15;
        while out.len() < self.size {
            // SplitMix64, eight bytes per round.
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let need = self.size - out.len();
            out.extend_from_slice(&z.to_le_bytes()[..need.min(8)]);
        }
    }
}

/// What one connection measured.
#[derive(Debug, Default)]
pub struct ConnOutcome {
    /// Per-request latencies, nanoseconds, from intended start (the send
    /// time, unless the run is paced) to reply.
    pub hist: Histogram,
    /// Actual-send minus intended-send per request, nanoseconds (empty
    /// unless the run is paced: without a schedule there is nothing to
    /// lag behind).
    pub send_lag: Histogram,
    /// Reply counts.
    pub totals: Totals,
}

impl ConnOutcome {
    pub(crate) fn record_reply(&mut self, reply: Frame) -> Result<(), ClientError> {
        match reply {
            Frame::Served {
                hit,
                level,
                cost,
                value,
            } => {
                self.totals.sent += 1;
                self.totals.hits += hit as u64;
                self.totals.hits_l1 += (hit && level == 1) as u64;
                self.totals.cost += cost;
                self.totals.value_bytes += value.len() as u64;
                Ok(())
            }
            Frame::Error { .. } => {
                self.totals.errors += 1;
                Ok(())
            }
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }
}

fn read_reply(reader: &mut FrameReader<TcpStream>) -> Result<Frame, ClientError> {
    match reader.next_frame() {
        Ok(Some(f)) => Ok(f),
        Ok(None) => Err(ConnError::Closed.into()),
        Err(e) => Err(e.into()),
    }
}

fn open(addr: &SocketAddr) -> Result<(BufWriter<TcpStream>, FrameReader<TcpStream>), ClientError> {
    let io = |what: String| move |source: std::io::Error| ClientError::Io { what, source };
    let stream = TcpStream::connect(addr).map_err(io(format!("connect {addr}")))?;
    let write_half = stream.try_clone().map_err(io("clone socket".into()))?;
    Ok((BufWriter::new(write_half), FrameReader::new(stream)))
}

fn write_err(source: std::io::Error) -> ClientError {
    ClientError::Io {
        what: "write failed".into(),
        source,
    }
}

/// Fetch server counters and (optionally) shut the server down over a
/// fresh control connection. Returns the STATS snapshot and whether
/// SHUTDOWN was acknowledged with BYE (`false` when not requested).
pub fn stats_and_shutdown(
    addr: &SocketAddr,
    shutdown: bool,
) -> Result<(StatsPayload, bool), ClientError> {
    let (mut writer, mut reader) = open(addr)?;
    write_frame(&mut writer, &Frame::Stats).map_err(write_err)?;
    let stats = match read_reply(&mut reader)? {
        Frame::StatsReply(s) => s,
        other => {
            return Err(ClientError::Protocol(format!(
                "unexpected STATS reply {other:?}"
            )))
        }
    };
    if !shutdown {
        return Ok((stats, false));
    }
    write_frame(&mut writer, &Frame::Shutdown).map_err(write_err)?;
    let clean = matches!(read_reply(&mut reader)?, Frame::Bye);
    Ok((stats, clean))
}
