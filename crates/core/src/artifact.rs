//! Versioned, checksummed model artifacts and the content-addressed
//! on-disk store behind `repro --artifacts`: a later run with the same
//! configuration loads each stored fit instead of refitting it.
//!
//! A fitted model's [`StateDict`] (named f64 tensors, see
//! `forecast::Forecaster::save_state`) is serialized to a self-describing
//! binary format hand-rolled over the workspace's own substrates — the
//! [`compression::bitstream`] bit codec for the payload and
//! [`compression::deflate`] for optional body compression — because the
//! workspace is hermetic (no serde). Layout:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "TSMA"
//!      4     2  format version (little-endian u16, currently 1)
//!      6     2  flags  (bit 0: body is deflate-compressed)
//!      8     8  uncompressed payload length (LE u64)
//!     16     8  stored body length (LE u64)
//!     24     4  CRC32 (IEEE) of the *uncompressed* payload (LE u32)
//!     28     …  body
//! ```
//!
//! The payload is a MSB-first bit stream: entry count (u32), then per
//! entry a u16 name length + UTF-8 name bytes, u32 rows, u32 cols, and
//! `rows × cols` IEEE-754 bit patterns (u64 each). Every field is a
//! whole number of bytes, so the stream stays byte-aligned.
//!
//! [`ArtifactStore`] addresses artifacts by *content of the key*, not of
//! the artifact: an [`ArtifactKey`] captures everything that determines a
//! fitted model (dataset generation parameters, model kind, training
//! seed, profile, window geometry, and the lossy transform applied to the
//! training data, if any). The key's canonical string is FNV-1a-hashed
//! into a sharded path `root/<hh>/<hash16>.state`, so a second run with
//! the same configuration finds every model the first run fitted.

use std::path::PathBuf;

use compression::bitstream::{BitReader, BitWriter};
use compression::deflate;
use compression::reader::ByteReader;
use neural::state::StateDict;
use neural::tensor::Tensor;

/// File magic: **T**ime **S**eries **M**odel **A**rtifact.
const MAGIC: [u8; 4] = *b"TSMA";

/// Current artifact format version. Readers reject anything else.
const FORMAT_VERSION: u16 = 1;

/// Header flag bit 0: the body is deflate-compressed.
const FLAG_DEFLATE: u16 = 1;

/// Fixed header size in bytes (see the module docs for the layout).
const HEADER_LEN: usize = 28;

/// Errors from encoding, decoding, or storing artifacts.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem operation failed.
    Io(std::io::Error),
    /// The bytes are not a well-formed artifact (bad magic, truncation,
    /// malformed payload, unknown flags, …).
    Format(String),
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// The version this reader supports.
        supported: u16,
    },
    /// The payload does not match its stored checksum (bit rot or a
    /// truncated/overwritten file).
    ChecksumMismatch {
        /// CRC32 recorded in the header.
        stored: u32,
        /// CRC32 of the payload actually read.
        computed: u32,
    },
    /// The state dictionary itself cannot be represented (oversized name
    /// or entry count).
    State(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io: {e}"),
            ArtifactError::Format(msg) => write!(f, "malformed artifact: {msg}"),
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(f, "artifact format version {found} (this build reads {supported})")
            }
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: header {stored:#010x}, payload {computed:#010x}"
            ),
            ArtifactError::State(msg) => write!(f, "unencodable state: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

// The CRC implementation moved to `compression::crc` so the store's chunk
// headers share it; re-exported here to keep the artifact API stable.
pub use compression::crc::crc32;

fn encode_payload(state: &StateDict) -> Result<Vec<u8>, ArtifactError> {
    if state.len() > u32::MAX as usize {
        return Err(ArtifactError::State(format!("{} entries exceed u32", state.len())));
    }
    // Everything written below is byte-aligned, so the exact payload size
    // is known up front: 32-bit count, then per entry a 16-bit name length,
    // the name bytes, two 32-bit dims, and 64 bits per tensor element.
    let payload_bits: usize = 32
        + state
            .entries()
            .map(|(name, tensor)| 16 + name.len() * 8 + 64 + tensor.data().len() * 64)
            .sum::<usize>();
    let mut w = BitWriter::with_capacity(payload_bits);
    w.write_bits(state.len() as u64, 32);
    for (name, tensor) in state.entries() {
        let bytes = name.as_bytes();
        if bytes.len() > u16::MAX as usize {
            return Err(ArtifactError::State(format!("name of {} bytes exceeds u16", bytes.len())));
        }
        w.write_bits(bytes.len() as u64, 16);
        for &b in bytes {
            w.write_bits(b as u64, 8);
        }
        let (rows, cols) = tensor.shape();
        if rows > u32::MAX as usize || cols > u32::MAX as usize {
            return Err(ArtifactError::State(format!("tensor {name} shape exceeds u32")));
        }
        w.write_bits(rows as u64, 32);
        w.write_bits(cols as u64, 32);
        for &v in tensor.data() {
            w.write_bits(v.to_bits(), 64);
        }
    }
    Ok(w.into_bytes())
}

fn truncated<T>(what: &str) -> Result<T, ArtifactError> {
    Err(ArtifactError::Format(format!("payload truncated reading {what}")))
}

fn decode_payload(payload: &[u8]) -> Result<StateDict, ArtifactError> {
    let mut r = BitReader::new(payload);
    let Ok(n) = r.read_bits(32) else { return truncated("entry count") };
    let mut dict = StateDict::new();
    for i in 0..n {
        let Ok(name_len) = r.read_bits(16) else { return truncated("name length") };
        // Each name byte costs 8 payload bits; reject a hostile length
        // before reserving for bytes the stream cannot hold.
        if name_len as usize > r.remaining() / 8 {
            return truncated("name bytes");
        }
        let mut bytes = Vec::with_capacity(name_len as usize);
        for _ in 0..name_len {
            let Ok(b) = r.read_bits(8) else { return truncated("name bytes") };
            bytes.push(b as u8);
        }
        let name = String::from_utf8(bytes)
            .map_err(|_| ArtifactError::Format(format!("entry {i} name is not UTF-8")))?;
        if dict.contains(&name) {
            return Err(ArtifactError::Format(format!("duplicate entry name {name:?}")));
        }
        let (Ok(rows), Ok(cols)) = (r.read_bits(32), r.read_bits(32)) else {
            return truncated("tensor shape");
        };
        let (rows, cols) = (rows as usize, cols as usize);
        let scalars = rows
            .checked_mul(cols)
            .ok_or_else(|| ArtifactError::Format(format!("tensor {name} shape overflows")))?;
        // A scalar needs 64 payload bits, so an honest shape can never
        // exceed the remaining stream — reject before allocating.
        if scalars > r.remaining() / 64 {
            return Err(ArtifactError::Format(format!(
                "tensor {name} claims {scalars} scalars but only {} bits remain",
                r.remaining()
            )));
        }
        let mut data = Vec::with_capacity(scalars);
        for _ in 0..scalars {
            let Ok(bits) = r.read_bits(64) else { return truncated("tensor data") };
            data.push(f64::from_bits(bits));
        }
        dict.insert(&name, Tensor::new(rows, cols, data));
    }
    Ok(dict)
}

/// Serializes a state dictionary to the versioned artifact format. The
/// body is deflate-compressed when that actually shrinks it.
pub fn encode_state(state: &StateDict) -> Result<Vec<u8>, ArtifactError> {
    let payload = encode_payload(state)?;
    let crc = crc32(&payload);
    let deflated = deflate::compress(&payload);
    let (flags, body) =
        if deflated.len() < payload.len() { (FLAG_DEFLATE, &deflated) } else { (0, &payload) };
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(body);
    Ok(out)
}

/// Deserializes an artifact produced by [`encode_state`], validating
/// magic, version, flags, lengths, and the payload checksum.
pub fn decode_state(data: &[u8]) -> Result<StateDict, ArtifactError> {
    let mut r = ByteReader::new(data);
    let truncated_header = |_| {
        ArtifactError::Format(format!(
            "{} bytes is shorter than the {HEADER_LEN}-byte header",
            data.len()
        ))
    };
    let magic = r.read_bytes(4).map_err(truncated_header)?;
    if magic != MAGIC {
        return Err(ArtifactError::Format("bad magic (not a model artifact)".into()));
    }
    let version = r.read_u16_le().map_err(truncated_header)?;
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let flags = r.read_u16_le().map_err(truncated_header)?;
    if flags & !FLAG_DEFLATE != 0 {
        return Err(ArtifactError::Format(format!("unknown flag bits {flags:#06x}")));
    }
    let payload_len = r.read_u64_le().map_err(truncated_header)? as usize;
    let body_len = r.read_u64_le().map_err(truncated_header)? as usize;
    let stored_crc = r.read_u32_le().map_err(truncated_header)?;
    let body = r.rest();
    if body.len() != body_len {
        return Err(ArtifactError::Format(format!(
            "header says {body_len} body bytes, file has {}",
            body.len()
        )));
    }
    let payload = if flags & FLAG_DEFLATE != 0 {
        deflate::decompress(body).map_err(|e| ArtifactError::Format(format!("deflate: {e}")))?
    } else {
        body.to_vec()
    };
    if payload.len() != payload_len {
        return Err(ArtifactError::Format(format!(
            "header says {payload_len} payload bytes, decompressed to {}",
            payload.len()
        )));
    }
    let computed = crc32(&payload);
    if computed != stored_crc {
        return Err(ArtifactError::ChecksumMismatch { stored: stored_crc, computed });
    }
    decode_payload(&payload)
}

/// Everything that determines one fitted model, in key form. Two runs
/// with identical keys produce bit-identical fits (all fitting in this
/// workspace is seeded and deterministic), so the store can hand back the
/// first run's artifact to the second.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Dataset name.
    pub dataset: String,
    /// Model name.
    pub model: String,
    /// Training seed.
    pub seed: u64,
    /// Model size profile name.
    pub profile: String,
    /// Lossy method the *training* data went through (`None` = raw, the
    /// Algorithm-1 scenario; `Some` = the §4.4.1 retrain scenario).
    pub method: Option<String>,
    /// Error bound of the training transform, as its exact bit pattern.
    pub eps_bits: Option<u64>,
    /// Input window length.
    pub input_len: usize,
    /// Forecast horizon.
    pub horizon: usize,
    /// Dataset length override.
    pub len: Option<usize>,
    /// Dataset channel override.
    pub channels: Option<usize>,
    /// Dataset generation seed.
    pub data_seed: u64,
}

impl ArtifactKey {
    /// The canonical string the on-disk address is derived from. Every
    /// field is spelled out, so any configuration difference changes the
    /// address and a stale artifact can never be mistaken for a match.
    pub(crate) fn canonical(&self) -> String {
        let mut s = format!(
            "dataset={};model={};seed={};profile={};k={};h={};dseed={}",
            self.dataset,
            self.model,
            self.seed,
            self.profile,
            self.input_len,
            self.horizon,
            self.data_seed
        );
        match &self.method {
            Some(m) => s.push_str(&format!(";method={m}")),
            None => s.push_str(";method=raw"),
        }
        match self.eps_bits {
            Some(bits) => s.push_str(&format!(";eps={bits:016x}")),
            None => s.push_str(";eps=none"),
        }
        match self.len {
            Some(n) => s.push_str(&format!(";len={n}")),
            None => s.push_str(";len=paper"),
        }
        match self.channels {
            Some(c) => s.push_str(&format!(";ch={c}")),
            None => s.push_str(";ch=default"),
        }
        s
    }

    fn hash64(&self) -> u64 {
        // FNV-1a over the canonical string.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in self.canonical().as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Parses a [`ArtifactKey::canonical`] string back into a key — the
    /// inverse the manifest enumeration ([`ArtifactStore::list_keys`])
    /// uses to rediscover what a store holds without recomputing keys
    /// from experiment configs. Returns `None` for anything that is not
    /// a complete canonical string.
    fn parse_canonical(s: &str) -> Option<ArtifactKey> {
        let mut dataset = None;
        let mut model = None;
        let mut seed = None;
        let mut profile = None;
        let mut input_len = None;
        let mut horizon = None;
        let mut data_seed = None;
        let mut method = None;
        let mut eps_bits = None;
        let mut len = None;
        let mut channels = None;
        for field in s.split(';') {
            let (k, v) = field.split_once('=')?;
            match k {
                "dataset" => dataset = Some(v.to_string()),
                "model" => model = Some(v.to_string()),
                "seed" => seed = Some(v.parse().ok()?),
                "profile" => profile = Some(v.to_string()),
                "k" => input_len = Some(v.parse().ok()?),
                "h" => horizon = Some(v.parse().ok()?),
                "dseed" => data_seed = Some(v.parse().ok()?),
                "method" => method = Some(if v == "raw" { None } else { Some(v.to_string()) }),
                "eps" => {
                    eps_bits = Some(if v == "none" {
                        None
                    } else {
                        Some(u64::from_str_radix(v, 16).ok()?)
                    })
                }
                "len" => len = Some(if v == "paper" { None } else { Some(v.parse().ok()?) }),
                "ch" => channels = Some(if v == "default" { None } else { Some(v.parse().ok()?) }),
                _ => return None,
            }
        }
        Some(ArtifactKey {
            dataset: dataset?,
            model: model?,
            seed: seed?,
            profile: profile?,
            method: method?,
            eps_bits: eps_bits?,
            input_len: input_len?,
            horizon: horizon?,
            len: len?,
            channels: channels?,
            data_seed: data_seed?,
        })
    }
}

/// A content-addressed artifact store rooted at one directory. Addresses
/// are sharded by the first hash byte (`root/<hh>/<hash16>.state`) to
/// keep directories small on paper-scale grids.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, ArtifactError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(ArtifactStore { root })
    }

    /// The on-disk path an artifact for `key` lives at.
    fn path_for(&self, key: &ArtifactKey) -> PathBuf {
        let hash = key.hash64();
        self.root.join(format!("{:02x}", hash >> 56)).join(format!("{hash:016x}.state"))
    }

    /// Persists a state dictionary under `key`, atomically: the artifact
    /// is written to a temp file and renamed into place, so a killed run
    /// never leaves a half-written artifact at the final address.
    pub fn save(&self, key: &ArtifactKey, state: &StateDict) -> Result<(), ArtifactError> {
        let start = std::time::Instant::now();
        let result = self.save_inner(key, state);
        let outcome = if result.is_ok() { "ok" } else { "error" };
        telemetry::counter_add("artifact_saves_total", &[("result", outcome)], 1);
        telemetry::observe("artifact_save_seconds", &[], telemetry::secs(start.elapsed()));
        result
    }

    fn save_inner(&self, key: &ArtifactKey, state: &StateDict) -> Result<(), ArtifactError> {
        let path = self.path_for(key);
        let dir = path.parent().expect("artifact paths are always nested under the root");
        std::fs::create_dir_all(dir)?;
        let bytes = encode_state(state)?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        // Manifest sidecar: the canonical key next to the content-addressed
        // artifact, so `list_keys` can enumerate a store without the
        // experiment configs that produced it. Written after the artifact
        // (same atomic tmp+rename), so a sidecar never points at a
        // half-written state file.
        let keyfile = path.with_extension("key");
        let keytmp = path.with_extension("key.tmp");
        std::fs::write(&keytmp, key.canonical())?;
        std::fs::rename(&keytmp, &keyfile)?;
        Ok(())
    }

    /// Loads the artifact stored under `key`, or `Ok(None)` when no run
    /// has saved one yet. Decode failures (corruption, version skew)
    /// surface as errors so callers can decide to refit.
    pub fn load(&self, key: &ArtifactKey) -> Result<Option<StateDict>, ArtifactError> {
        let start = std::time::Instant::now();
        let result = self.load_inner(key);
        let outcome = match &result {
            Ok(Some(_)) => "hit",
            Ok(None) => "miss",
            Err(_) => "error",
        };
        telemetry::counter_add("artifact_loads_total", &[("result", outcome)], 1);
        telemetry::observe("artifact_load_seconds", &[], telemetry::secs(start.elapsed()));
        result
    }

    fn load_inner(&self, key: &ArtifactKey) -> Result<Option<StateDict>, ArtifactError> {
        let path = self.path_for(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let dict = decode_state(&bytes)?;
        Ok(Some(dict))
    }

    /// Enumerates every artifact key recorded in the store's manifest
    /// sidecars, in canonical-string order (deterministic across runs and
    /// filesystems). This is how the serving registry discovers a fitted
    /// fleet: before this API, keys had to be recomputed from the exact
    /// experiment configuration that produced the store.
    ///
    /// Sidecars that fail to parse (foreign files, partial writes from a
    /// killed pre-manifest run) are skipped with a warning rather than
    /// failing the enumeration; artifacts written before the manifest
    /// existed have no sidecar and are simply not discoverable this way.
    pub fn list_keys(&self) -> Result<Vec<ArtifactKey>, ArtifactError> {
        let mut keys = Vec::new();
        for shard in std::fs::read_dir(&self.root)? {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(&shard)? {
                let path = entry?.path();
                if path.extension().and_then(|e| e.to_str()) != Some("key") {
                    continue;
                }
                let canonical = std::fs::read_to_string(&path)?;
                match ArtifactKey::parse_canonical(canonical.trim()) {
                    // Only list keys whose artifact actually exists: a
                    // sidecar can outlive its state file if someone prunes
                    // artifacts by hand.
                    Some(key) if self.path_for(&key).is_file() => keys.push(key),
                    Some(_) | None => {
                        eprintln!("[artifacts] skipping stale manifest entry {}", path.display())
                    }
                }
            }
        }
        keys.sort_by_key(|k| k.canonical());
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dict() -> StateDict {
        let mut d = StateDict::new();
        d.insert(
            "layer.w",
            Tensor::new(2, 3, vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE, 1e300, -0.5]),
        );
        d.insert("layer.b", Tensor::row(&[0.125, 7.0, -9.75]));
        d.insert("meta", Tensor::new(1, 1, vec![42.0]));
        d
    }

    fn key(seed: u64) -> ArtifactKey {
        ArtifactKey {
            dataset: "ETTm1".into(),
            model: "GBoost".into(),
            seed,
            profile: "Fast".into(),
            method: None,
            eps_bits: None,
            input_len: 48,
            horizon: 12,
            len: Some(1600),
            channels: Some(1),
            data_seed: 0x5EED,
        }
    }

    fn temp_store() -> ArtifactStore {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "artifact-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        ArtifactStore::open(dir).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_identical() {
        let dict = sample_dict();
        let bytes = encode_state(&dict).unwrap();
        let back = decode_state(&bytes).unwrap();
        assert_eq!(back.len(), dict.len());
        for ((n1, t1), (n2, t2)) in dict.entries().zip(back.entries()) {
            assert_eq!(n1, n2);
            assert_eq!(t1.shape(), t2.shape());
            let bits1: Vec<u64> = t1.data().iter().map(|v| v.to_bits()).collect();
            let bits2: Vec<u64> = t2.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits1, bits2, "{n1} data must round-trip bit-exactly");
        }
    }

    #[test]
    fn special_values_roundtrip() {
        let mut d = StateDict::new();
        d.insert("specials", Tensor::row(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]));
        let back = decode_state(&encode_state(&d).unwrap()).unwrap();
        let bits: Vec<u64> =
            back.get("specials").unwrap().data().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn repetitive_payload_takes_deflate_path() {
        let mut d = StateDict::new();
        d.insert("zeros", Tensor::zeros(40, 40));
        let bytes = encode_state(&d).unwrap();
        let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
        assert_eq!(flags & FLAG_DEFLATE, FLAG_DEFLATE, "flags: {flags:#06x}");
        assert!(bytes.len() < 40 * 40 * 8, "deflate must shrink a zero tensor");
        let back = decode_state(&bytes).unwrap();
        assert_eq!(back.get("zeros").unwrap(), &Tensor::zeros(40, 40));
    }

    #[test]
    fn corrupt_body_is_rejected_by_checksum() {
        let bytes = encode_state(&sample_dict()).unwrap();
        // Flip one payload bit. On the deflate path the decompressor may
        // reject the stream first; either way the corruption must not
        // decode into a dict.
        let mut evil = bytes.clone();
        let last = evil.len() - 1;
        evil[last] ^= 0x40;
        match decode_state(&evil) {
            Err(ArtifactError::ChecksumMismatch { .. }) | Err(ArtifactError::Format(_)) => {}
            other => panic!("corrupt artifact decoded: {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = encode_state(&sample_dict()).unwrap();
        bytes[4] = 0x63;
        bytes[5] = 0x00;
        match decode_state(&bytes) {
            Err(ArtifactError::UnsupportedVersion { found: 0x63, supported: FORMAT_VERSION }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let bytes = encode_state(&sample_dict()).unwrap();
        let mut evil = bytes.clone();
        evil[0] = b'X';
        assert!(matches!(decode_state(&evil), Err(ArtifactError::Format(_))));
        assert!(matches!(decode_state(&bytes[..10]), Err(ArtifactError::Format(_))));
        assert!(matches!(decode_state(&bytes[..bytes.len() - 3]), Err(ArtifactError::Format(_))));
    }

    #[test]
    fn store_roundtrips_and_misses_cleanly() {
        let store = temp_store();
        let k = key(40);
        assert!(store.load(&k).unwrap().is_none(), "empty store must miss");
        let dict = sample_dict();
        store.save(&k, &dict).unwrap();
        let back = store.load(&k).unwrap().expect("saved artifact must load");
        assert!(back.entries().eq(dict.entries()), "loaded dict must match saved dict");
        // A different key misses.
        assert!(store.load(&key(41)).unwrap().is_none());
        std::fs::remove_dir_all(&store.root).ok();
    }

    #[test]
    fn store_surfaces_corruption_as_error() {
        let store = temp_store();
        let k = key(40);
        store.save(&k, &sample_dict()).unwrap();
        let path = store.path_for(&k);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(&k).is_err(), "corrupt file must not load silently");
        std::fs::remove_dir_all(&store.root).ok();
    }

    #[test]
    fn canonical_string_parses_back_to_the_same_key() {
        let variants = vec![
            key(40),
            ArtifactKey { method: Some("PMC".into()), eps_bits: Some(0.1f64.to_bits()), ..key(41) },
            ArtifactKey { len: None, channels: None, ..key(42) },
            ArtifactKey { model: "Transformer".into(), profile: "Paper".into(), ..key(43) },
        ];
        for k in variants {
            let parsed = ArtifactKey::parse_canonical(&k.canonical()).expect("canonical parses");
            assert_eq!(parsed, k, "roundtrip for {}", k.canonical());
        }
    }

    #[test]
    fn malformed_canonical_strings_are_rejected() {
        for bad in [
            "",
            "dataset=ETTm1",
            "nonsense",
            "dataset=ETTm1;model=GBoost;seed=x;profile=Fast;k=48;h=12;dseed=1;method=raw;eps=none;len=paper;ch=default",
            "dataset=ETTm1;model=GBoost;seed=1;profile=Fast;k=48;h=12;dseed=1;method=raw;eps=zz;len=paper;ch=default",
            "dataset=ETTm1;model=GBoost;seed=1;profile=Fast;k=48;h=12;dseed=1;method=raw;eps=none;len=paper;ch=default;rogue=1",
        ] {
            assert!(ArtifactKey::parse_canonical(bad).is_none(), "parsed {bad:?}");
        }
    }

    #[test]
    fn list_keys_enumerates_a_populated_store() {
        let store = temp_store();
        assert!(store.list_keys().unwrap().is_empty(), "fresh store lists nothing");
        let mut saved: Vec<ArtifactKey> = vec![
            key(40),
            key(41),
            ArtifactKey { model: "DLinear".into(), ..key(40) },
            ArtifactKey {
                method: Some("SWING".into()),
                eps_bits: Some(0.05f64.to_bits()),
                ..key(40)
            },
        ];
        for k in &saved {
            store.save(k, &sample_dict()).unwrap();
        }
        // Re-saving the same key must not duplicate the listing.
        store.save(&saved[0], &sample_dict()).unwrap();
        let mut listed = store.list_keys().unwrap();
        saved.sort_by_key(|k| k.canonical());
        listed.sort_by_key(|k| k.canonical());
        assert_eq!(listed, saved);
        // Every listed key loads.
        for k in &listed {
            assert!(store.load(k).unwrap().is_some(), "{} must load", k.canonical());
        }
        // A hostile sidecar is skipped, not fatal; a sidecar whose state
        // file was pruned disappears from the listing.
        let shard = store.path_for(&saved[0]).parent().unwrap().to_path_buf();
        std::fs::write(shard.join("garbage.key"), "not a canonical string").unwrap();
        std::fs::remove_file(store.path_for(&saved[0])).unwrap();
        let listed = store.list_keys().unwrap();
        assert_eq!(listed.len(), saved.len() - 1);
        assert!(!listed.contains(&saved[0]));
        std::fs::remove_dir_all(&store.root).ok();
    }

    #[test]
    fn canonical_keys_distinguish_every_field() {
        let base = key(40);
        let mut variants = vec![base.clone()];
        variants.push(ArtifactKey { seed: 41, ..base.clone() });
        variants.push(ArtifactKey { model: "DLinear".into(), ..base.clone() });
        variants.push(ArtifactKey { method: Some("PMC".into()), ..base.clone() });
        variants.push(ArtifactKey {
            method: Some("PMC".into()),
            eps_bits: Some(0.1f64.to_bits()),
            ..base.clone()
        });
        variants.push(ArtifactKey { len: None, ..base.clone() });
        variants.push(ArtifactKey { data_seed: 7, ..base.clone() });
        let canon: Vec<String> = variants.iter().map(|k| k.canonical()).collect();
        for i in 0..canon.len() {
            for j in i + 1..canon.len() {
                assert_ne!(canon[i], canon[j], "keys {i} and {j} must differ");
            }
        }
    }
}
