//! The length-prefixed binary wire protocol.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by that many payload bytes, capped at `MAX_FRAME_LEN` so a
//! hostile length prefix cannot make the server allocate gigabytes.
//! Request payloads start with a one-byte opcode; response payloads start
//! with a one-byte status ([`STATUS_OK`] / `STATUS_ERROR` /
//! `STATUS_OVERLOADED` — the typed admission-control rejection).
//!
//! All integers are little-endian; floats travel as IEEE-754 bit
//! patterns, so forecasts cross the wire bit-exactly. Strings are a
//! `u16` length plus UTF-8 bytes. Decoding is *total*: every payload
//! goes through the bounds-checked [`compression::ByteReader`] and
//! malformed bytes produce [`WireError`], never a panic (house rule
//! since DESIGN.md §10).
//!
//! ```text
//! request  := u32 len | u8 opcode | body
//! response := u32 len | u8 status | body
//!
//! INGEST   (0x01): u64 series | u8 codec | f64 eps | u32 n | n × (i64 ts, f64 value)
//!       -> ok: u64 total points in the series
//! FORECAST (0x02): spec | u64 series
//!       -> ok: u32 h | h × f64 (bit-exact model output)
//! COMPRESS (0x03): u8 method | f64 eps | u64 series
//!       -> ok: u64 points | u32 segments | u32 len | len bytes
//! STATS    (0x04): (empty)        -> ok: string (key=value lines)
//! METRICS  (0x05): (empty)        -> ok: string (Prometheus text)
//! SHUTDOWN (0x06): (empty)        -> ok: (empty), then the server stops
//!
//! spec := string dataset | string model | u8 method-tag | f64 eps
//!         (method-tag 0 = raw model, eps ignored; 1/2/3 = PMC/SWING/SZ)
//! ```

use std::io::{Read, Write};

use compression::ByteReader;

use crate::registry::ModelSpec;

/// Hard cap on one frame's payload (16 MiB) — bounds per-connection
/// memory against hostile or corrupt length prefixes.
const MAX_FRAME_LEN: usize = 16 << 20;

/// Request opcodes.
pub(crate) const OP_INGEST: u8 = 0x01;
/// Forecast request opcode.
pub(crate) const OP_FORECAST: u8 = 0x02;
/// Compress request opcode.
pub(crate) const OP_COMPRESS: u8 = 0x03;
/// Stats request opcode.
pub(crate) const OP_STATS: u8 = 0x04;
/// Metrics (Prometheus dump) request opcode.
pub(crate) const OP_METRICS: u8 = 0x05;
/// Graceful shutdown request opcode.
pub(crate) const OP_SHUTDOWN: u8 = 0x06;

/// Response status: success, body follows.
pub const STATUS_OK: u8 = 0;
/// Response status: request failed; body is a string message.
const STATUS_ERROR: u8 = 1;
/// Response status: admission control rejected the request; body is a
/// `u32` queue depth. The *typed* overload signal — clients should back
/// off and retry, not treat it as a hard failure.
const STATUS_OVERLOADED: u8 = 2;

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn truncated(what: &str) -> WireError {
    WireError(format!("payload truncated reading {what}"))
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Append points to a series (creating it on first touch with the
    /// given chunk codec tag and error bound).
    Ingest {
        /// Series id.
        series: u64,
        /// `store::ChunkCodec` wire tag (0 = Gorilla, 1/2/3 = PMC/Swing/SZ).
        codec: u8,
        /// Error bound for lossy chunk codecs (0.0 for Gorilla).
        eps: f64,
        /// `(timestamp, value)` points in cadence order.
        points: Vec<(i64, f64)>,
    },
    /// Forecast the next `horizon` values of a series with a registry
    /// model.
    Forecast {
        /// Which model to serve.
        spec: ModelSpec,
        /// The series whose trailing window feeds the model.
        series: u64,
    },
    /// Compress a stored series with one of the paper's codecs.
    Compress {
        /// Method tag (1 = PMC, 2 = SWING, 3 = SZ).
        method: u8,
        /// Error bound.
        eps: f64,
        /// The series to compress.
        series: u64,
    },
    /// Server statistics as key=value text.
    Stats,
    /// Prometheus metrics dump.
    Metrics,
    /// Graceful shutdown.
    Shutdown,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ingest succeeded; total points now in the series.
    Ingested {
        /// Post-append series length.
        total_points: u64,
    },
    /// Forecast succeeded; `values` is the model's horizon, bit-exact.
    Forecast {
        /// Predicted values.
        values: Vec<f64>,
    },
    /// Compress succeeded.
    Compressed {
        /// Points compressed.
        points: u64,
        /// Segments in the compressed representation.
        segments: u32,
        /// The compressed frame bytes.
        payload: Vec<u8>,
    },
    /// Stats or metrics text.
    Text {
        /// The text body.
        text: String,
    },
    /// Shutdown acknowledged.
    ShutdownAck,
    /// The request failed.
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// Admission control rejected the request (typed, retryable).
    Overloaded {
        /// The queue bound that was hit.
        depth: u32,
    },
}

/// Writes one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. `Ok(None)` is a clean end-of-stream (the
/// peer closed between frames); a length prefix over `MAX_FRAME_LEN`
/// is an error before any allocation.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut ByteReader<'_>, what: &str) -> Result<String, WireError> {
    let len = r.read_u16_le().map_err(|_| truncated(what))? as usize;
    let bytes = r.read_bytes(len).map_err(|_| truncated(what))?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError(format!("{what} is not UTF-8")))
}

fn put_spec(out: &mut Vec<u8>, spec: &ModelSpec) {
    put_str(out, &spec.dataset);
    put_str(out, &spec.model);
    match (&spec.method, spec.eps_bits) {
        (Some(method), Some(bits)) => {
            let tag = match method.as_str() {
                "PMC" => 1u8,
                "SWING" => 2,
                "SZ" => 3,
                _ => 255,
            };
            out.push(tag);
            out.extend_from_slice(&bits.to_le_bytes());
        }
        _ => {
            out.push(0);
            out.extend_from_slice(&0u64.to_le_bytes());
        }
    }
}

fn get_spec(r: &mut ByteReader<'_>) -> Result<ModelSpec, WireError> {
    let dataset = get_str(r, "spec dataset")?;
    let model = get_str(r, "spec model")?;
    let tag = r.read_u8().map_err(|_| truncated("spec method tag"))?;
    let bits = r.read_u64_le().map_err(|_| truncated("spec eps"))?;
    let method = match tag {
        0 => None,
        1 => Some("PMC".to_string()),
        2 => Some("SWING".to_string()),
        3 => Some("SZ".to_string()),
        other => return Err(WireError(format!("unknown method tag {other}"))),
    };
    let eps_bits = method.is_some().then_some(bits);
    Ok(ModelSpec { dataset, model, method, eps_bits })
}

/// Encodes a request payload (opcode + body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Ingest { series, codec, eps, points } => {
            out.push(OP_INGEST);
            out.extend_from_slice(&series.to_le_bytes());
            out.push(*codec);
            out.extend_from_slice(&eps.to_bits().to_le_bytes());
            out.extend_from_slice(&(points.len() as u32).to_le_bytes());
            for &(ts, value) in points {
                out.extend_from_slice(&ts.to_le_bytes());
                out.extend_from_slice(&value.to_bits().to_le_bytes());
            }
        }
        Request::Forecast { spec, series } => {
            out.push(OP_FORECAST);
            put_spec(&mut out, spec);
            out.extend_from_slice(&series.to_le_bytes());
        }
        Request::Compress { method, eps, series } => {
            out.push(OP_COMPRESS);
            out.push(*method);
            out.extend_from_slice(&eps.to_bits().to_le_bytes());
            out.extend_from_slice(&series.to_le_bytes());
        }
        Request::Stats => out.push(OP_STATS),
        Request::Metrics => out.push(OP_METRICS),
        Request::Shutdown => out.push(OP_SHUTDOWN),
    }
    out
}

/// Decodes a request payload. Total: malformed bytes are an error, and
/// claimed point counts are bounded by the actual payload size before
/// any allocation.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = ByteReader::new(payload);
    let opcode = r.read_u8().map_err(|_| truncated("opcode"))?;
    let req = match opcode {
        OP_INGEST => {
            let series = r.read_u64_le().map_err(|_| truncated("series id"))?;
            let codec = r.read_u8().map_err(|_| truncated("codec tag"))?;
            let eps = f64::from_bits(r.read_u64_le().map_err(|_| truncated("eps"))?);
            let n = r.read_u32_le().map_err(|_| truncated("point count"))? as usize;
            // 16 bytes per point: an honest count can never exceed the
            // remaining payload.
            if n > r.remaining() / 16 {
                return Err(WireError(format!(
                    "ingest claims {n} points but only {} bytes remain",
                    r.remaining()
                )));
            }
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                let ts = r.read_u64_le().map_err(|_| truncated("point timestamp"))? as i64;
                let value = f64::from_bits(r.read_u64_le().map_err(|_| truncated("point value"))?);
                points.push((ts, value));
            }
            Request::Ingest { series, codec, eps, points }
        }
        OP_FORECAST => {
            let spec = get_spec(&mut r)?;
            let series = r.read_u64_le().map_err(|_| truncated("series id"))?;
            Request::Forecast { spec, series }
        }
        OP_COMPRESS => {
            let method = r.read_u8().map_err(|_| truncated("method tag"))?;
            let eps = f64::from_bits(r.read_u64_le().map_err(|_| truncated("eps"))?);
            let series = r.read_u64_le().map_err(|_| truncated("series id"))?;
            Request::Compress { method, eps, series }
        }
        OP_STATS => Request::Stats,
        OP_METRICS => Request::Metrics,
        OP_SHUTDOWN => Request::Shutdown,
        other => return Err(WireError(format!("unknown opcode {other:#04x}"))),
    };
    if r.remaining() > 0 {
        return Err(WireError(format!("{} trailing bytes after request", r.remaining())));
    }
    Ok(req)
}

/// Encodes a response payload (status + body).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Ingested { total_points } => {
            out.push(STATUS_OK);
            out.push(OP_INGEST);
            out.extend_from_slice(&total_points.to_le_bytes());
        }
        Response::Forecast { values } => {
            out.push(STATUS_OK);
            out.push(OP_FORECAST);
            out.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        Response::Compressed { points, segments, payload } => {
            out.push(STATUS_OK);
            out.push(OP_COMPRESS);
            out.extend_from_slice(&points.to_le_bytes());
            out.extend_from_slice(&segments.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
        }
        Response::Text { text } => {
            out.push(STATUS_OK);
            out.push(OP_STATS);
            out.extend_from_slice(&(text.len() as u32).to_le_bytes());
            out.extend_from_slice(text.as_bytes());
        }
        Response::ShutdownAck => {
            out.push(STATUS_OK);
            out.push(OP_SHUTDOWN);
        }
        Response::Error { message } => {
            out.push(STATUS_ERROR);
            put_str(&mut out, message);
        }
        Response::Overloaded { depth } => {
            out.push(STATUS_OVERLOADED);
            out.extend_from_slice(&depth.to_le_bytes());
        }
    }
    out
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = ByteReader::new(payload);
    let status = r.read_u8().map_err(|_| truncated("status"))?;
    match status {
        STATUS_ERROR => {
            let message = get_str(&mut r, "error message")?;
            return Ok(Response::Error { message });
        }
        STATUS_OVERLOADED => {
            let depth = r.read_u32_le().map_err(|_| truncated("overload depth"))?;
            return Ok(Response::Overloaded { depth });
        }
        STATUS_OK => {}
        other => return Err(WireError(format!("unknown status {other}"))),
    }
    let opcode = r.read_u8().map_err(|_| truncated("response opcode"))?;
    let resp = match opcode {
        OP_INGEST => {
            let total_points = r.read_u64_le().map_err(|_| truncated("total points"))?;
            Response::Ingested { total_points }
        }
        OP_FORECAST => {
            let n = r.read_u32_le().map_err(|_| truncated("value count"))? as usize;
            if n > r.remaining() / 8 {
                return Err(WireError(format!(
                    "forecast claims {n} values but only {} bytes remain",
                    r.remaining()
                )));
            }
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(f64::from_bits(r.read_u64_le().map_err(|_| truncated("value"))?));
            }
            Response::Forecast { values }
        }
        OP_COMPRESS => {
            let points = r.read_u64_le().map_err(|_| truncated("point count"))?;
            let segments = r.read_u32_le().map_err(|_| truncated("segment count"))?;
            let len = r.read_u32_le().map_err(|_| truncated("payload length"))? as usize;
            let payload = r.read_bytes(len).map_err(|_| truncated("payload"))?.to_vec();
            Response::Compressed { points, segments, payload }
        }
        OP_STATS => {
            let len = r.read_u32_le().map_err(|_| truncated("text length"))? as usize;
            let bytes = r.read_bytes(len).map_err(|_| truncated("text"))?;
            let text = String::from_utf8(bytes.to_vec())
                .map_err(|_| WireError("text is not UTF-8".into()))?;
            Response::Text { text }
        }
        OP_SHUTDOWN => Response::ShutdownAck,
        other => return Err(WireError(format!("unknown response opcode {other:#04x}"))),
    };
    if r.remaining() > 0 {
        return Err(WireError(format!("{} trailing bytes after response", r.remaining())));
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_raw() -> ModelSpec {
        ModelSpec { dataset: "ETTm1".into(), model: "DLinear".into(), method: None, eps_bits: None }
    }

    fn spec_lossy() -> ModelSpec {
        ModelSpec {
            dataset: "Solar".into(),
            model: "GRU".into(),
            method: Some("SWING".into()),
            eps_bits: Some(0.05f64.to_bits()),
        }
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Ingest {
                series: 7,
                codec: 0,
                eps: 0.0,
                points: vec![(0, 1.5), (60, -2.25), (120, f64::NAN)],
            },
            Request::Forecast { spec: spec_raw(), series: 7 },
            Request::Forecast { spec: spec_lossy(), series: 9 },
            Request::Compress { method: 1, eps: 0.05, series: 7 },
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).expect("encoded request decodes");
            // NaN-tolerant comparison through the debug form (the NaN bit
            // pattern itself is checked below).
            assert_eq!(format!("{back:?}"), format!("{req:?}"));
        }
        // Values travel as bit patterns: a NaN survives exactly.
        let bytes = encode_request(&Request::Ingest {
            series: 1,
            codec: 0,
            eps: 0.0,
            points: vec![(0, f64::NAN)],
        });
        match decode_request(&bytes).unwrap() {
            Request::Ingest { points, .. } => {
                assert_eq!(points[0].1.to_bits(), f64::NAN.to_bits())
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::Ingested { total_points: 42 },
            Response::Forecast { values: vec![1.5, -0.25, f64::MIN_POSITIVE] },
            Response::Compressed { points: 100, segments: 7, payload: vec![1, 2, 3] },
            Response::Text { text: "requests_total=5\n".into() },
            Response::ShutdownAck,
            Response::Error { message: "unknown series #9".into() },
            Response::Overloaded { depth: 256 },
        ];
        for resp in resps {
            let bytes = encode_response(&resp);
            let back = decode_response(&bytes).expect("encoded response decodes");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panics() {
        // Empty, unknown opcode, truncations at every prefix length, and
        // hostile counts all produce WireError.
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0xEE]).is_err());
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(&[9]).is_err());
        let good = encode_request(&Request::Forecast { spec: spec_lossy(), series: 3 });
        for cut in 1..good.len() {
            assert!(decode_request(&good[..cut]).is_err(), "truncation at {cut} must fail");
        }
        // Hostile ingest count: claims 1M points with an empty body.
        let mut evil = Vec::new();
        evil.push(OP_INGEST);
        evil.extend_from_slice(&1u64.to_le_bytes());
        evil.push(0);
        evil.extend_from_slice(&0u64.to_le_bytes());
        evil.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert!(decode_request(&evil).is_err());
        // Trailing garbage after a well-formed request.
        let mut trailing = encode_request(&Request::Stats);
        trailing.push(0);
        assert!(decode_request(&trailing).is_err());
    }

    #[test]
    fn frames_roundtrip_and_cap_hostile_lengths() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF reads as None");

        let mut evil = Vec::new();
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = std::io::Cursor::new(evil);
        assert!(read_frame(&mut r).is_err(), "oversized length prefix must be rejected");
    }
}
