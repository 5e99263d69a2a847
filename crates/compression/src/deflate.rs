//! A DEFLATE-style lossless codec: LZ77 with hash-chain matching followed by
//! canonical Huffman coding of literal/length and distance symbols.
//!
//! This is the repo's stand-in for gzip. The paper (§3.2) gzips the
//! compressed representations of PMC and Swing "since SZ applies gzip as the
//! final step", and also gzips the raw dataset to obtain the Eq. 3 sizes.
//! gzip's payload *is* DEFLATE; we re-implement the algorithm rather than
//! pulling in a compression dependency (DESIGN.md §1). The container framing
//! is our own (mode byte + length), not RFC 1951 bit-exact, but the
//! compression behaviour — LZ77 window, 3..258 match lengths, Huffman over
//! the DEFLATE alphabets — matches.
//!
//! # Matcher
//!
//! [`compress`] is greedy: at each position it walks the hash chain of
//! earlier positions with the same 3-byte hash, newest first, for at most
//! 96 steps or until a candidate lies more than the 32 KiB window back,
//! and takes the first candidate with the longest match. Every codec
//! frame's bytes, and so every compression ratio, depends on exactly this
//! choice. The matcher keeps the choice and makes each chain step cheap:
//!
//! - **Window ring.** The chain links live in a `WINDOW`-slot ring of `u32`
//!   positions (`prev[p % WINDOW]`), not one `usize` per input byte. Slot
//!   `p % WINDOW` is next written when position `p + WINDOW` is inserted,
//!   and every search after that starts more than `WINDOW` bytes past `p`.
//!   A walk reads `p`'s slot only after `p` passed the window test, so it
//!   always reads the link `p` stored. (`u32` positions add no limit: the
//!   frame header already stores the input length as a `u32`.)
//! - **Skip test.** A candidate can only beat the best match of length
//!   `best_len` if it also agrees at byte `best_len`. A candidate that
//!   differs there is passed over without extending. It still counts as a
//!   chain step.
//! - **Wide compares.** Matches extend eight bytes at a time.
//!
//! Length and distance symbols come from a 259-entry table and a closed
//! form instead of scans of the DEFLATE code tables.
//!
//! The test module keeps the first matcher as `reference_tokenize` and
//! checks the two agree token for token. `tests/deflate_digests.rs` pins
//! the output bytes on inputs far past the window, with copies at exactly
//! 32,768 and 32,769 bytes back.
//!
//! # Decoder
//!
//! [`decompress`] reads the two code-length tables through the shared
//! [`BitReader`], then decodes tokens from a private 64-bit buffer that is
//! topped up once per token. Each symbol is one lookup in its code's
//! 11-bit prefix table; a code the table does not hold, or one whose bits
//! run past the stream's end, goes to the bit-by-bit walk at its exact
//! position, so every error is the one the walk gives. A match that does
//! not overlap its own output is copied as one slice. Model artifacts are
//! the literal-heavy case: f64 weights deflate by only about 4–5%, so
//! nearly every symbol is a literal.
//!
//! The test module keeps the first inflate loop as `reference_decompress`,
//! built on single-bit reads and the walk alone, and checks that both
//! return the same `Result`, down to the `Err` value, on valid frames, on
//! every truncation and on seeded mutations.

use crate::bitstream::{BitReader, BitWriter};
use crate::huffman::{CanonicalCode, HuffmanError};
use crate::reader::ByteReader;

/// Errors from decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeflateError {
    /// The input is shorter than its header claims.
    Truncated,
    /// Unknown mode byte.
    BadMode(u8),
    /// Entropy decoding failed.
    Huffman(HuffmanError),
    /// A back-reference pointed before the start of output.
    BadDistance { dist: usize, have: usize },
    /// Decoded length does not match the header.
    LengthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for DeflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeflateError::Truncated => write!(f, "deflate stream truncated"),
            DeflateError::BadMode(m) => write!(f, "unknown deflate mode byte {m}"),
            DeflateError::Huffman(e) => write!(f, "huffman error: {e}"),
            DeflateError::BadDistance { dist, have } => {
                write!(f, "back-reference distance {dist} exceeds output size {have}")
            }
            DeflateError::LengthMismatch { expected, got } => {
                write!(f, "decoded {got} bytes, header said {expected}")
            }
        }
    }
}

impl std::error::Error for DeflateError {}

impl From<HuffmanError> for DeflateError {
    fn from(e: HuffmanError) -> Self {
        DeflateError::Huffman(e)
    }
}

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: usize = 15;
const CHAIN_LIMIT: usize = 96;
const EOB: usize = 256;
const NUM_LIT_LEN: usize = 286;
const NUM_DIST: usize = 30;

/// DEFLATE length codes: (symbol - 257) -> (base_length, extra_bits).
const LEN_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// DEFLATE distance codes: symbol -> (base_distance, extra_bits).
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// `LEN_CODE[len]` indexes the [`LEN_TABLE`] row coding match length
/// `len`: the last row whose base is ≤ `len` (so 258 takes its own
/// zero-extra-bit code, not 227 + 31).
const LEN_CODE: [u8; MAX_MATCH + 1] = {
    let mut t = [0u8; MAX_MATCH + 1];
    let mut code = 0;
    let mut len = MIN_MATCH;
    while len <= MAX_MATCH {
        while code + 1 < LEN_TABLE.len() && LEN_TABLE[code + 1].0 as usize <= len {
            code += 1;
        }
        t[len] = code as u8;
        len += 1;
    }
    t
};

fn length_symbol(len: usize) -> (usize, u16, u8) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    let i = LEN_CODE[len] as usize;
    (257 + i, LEN_TABLE[i].0, LEN_TABLE[i].1)
}

/// Distance codes come in pairs per power of two: past the four
/// one-distance codes, `dist - 1` in `[2^k, 2^(k+1))` takes code `2k` or
/// `2k + 1` by the bit below its top bit.
fn distance_symbol(dist: usize) -> (usize, u16, u8) {
    debug_assert!((1..=WINDOW).contains(&dist));
    let d = dist - 1;
    let i = if d < 4 {
        d
    } else {
        let k = d.ilog2() as usize;
        2 * k + ((d >> (k - 1)) & 1)
    };
    (i, DIST_TABLE[i].0, DIST_TABLE[i].1)
}

/// Lengths are ≤ [`MAX_MATCH`] and distances ≤ [`WINDOW`], so both fit in
/// 16 bits and a token takes 6 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    Literal(u8),
    Match { len: u16, dist: u16 },
}

fn hash(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(506_832_829)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(2_654_435_761))
        .wrapping_add((data[i + 2] as u32).wrapping_mul(2_246_822_519));
    (h >> (32 - HASH_BITS)) as usize
}

/// Empty `head` bucket / end of a hash chain.
const NIL: u32 = u32::MAX;

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `limit`, compared eight bytes at a time. Requires `a < b` and
/// `b + limit <= data.len()`.
fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let (x, y) = (&data[a..a + limit], &data[b..b + limit]);
    let mut l = 0;
    while l + 8 <= limit {
        let u = u64::from_le_bytes(x[l..l + 8].try_into().expect("8 bytes"));
        let v = u64::from_le_bytes(y[l..l + 8].try_into().expect("8 bytes"));
        if u != v {
            return l + ((u ^ v).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && x[l] == y[l] {
        l += 1;
    }
    l
}

/// Greedy LZ77 tokenization with hash chains: at each position, walk at
/// most [`CHAIN_LIMIT`] earlier positions with the same hash, newest first,
/// and take the first one with the longest match (see the module doc for
/// why the ring and the skip test leave the tokens unchanged).
fn tokenize(data: &[u8]) -> Vec<Token> {
    let n = data.len();
    // Literal-heavy inputs produce close to one token per byte, matches
    // far fewer; half-and-half keeps reallocation to one doubling.
    let mut tokens = Vec::with_capacity(n / 2 + 16);
    if n < MIN_MATCH + 1 {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    let mut head = vec![NIL; 1 << HASH_BITS];
    // prev[p % WINDOW]: the position before p with p's hash. An input
    // shorter than the window needs only one slot per byte (`p % WINDOW`
    // is `p` there), which spares short frames the full 128 KiB ring.
    let mut prev = vec![NIL; n.min(WINDOW)];
    let last_insert = n - MIN_MATCH;
    let mut i = 0;
    while i < n {
        let mut best_len = 0;
        let mut best_dist = 0;
        if i <= last_insert {
            let limit = (n - i).min(MAX_MATCH);
            let mut cand = head[hash(data, i)];
            let mut chains = 0;
            while cand != NIL && chains < CHAIN_LIMIT {
                let c = cand as usize;
                let dist = i - c;
                if dist > WINDOW {
                    break;
                }
                // A longer match must agree at `best_len` (< limit) too.
                if data[c + best_len] == data[i + best_len] {
                    let l = match_len(data, c, i, limit);
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == limit {
                            break;
                        }
                    }
                }
                cand = prev[c & (WINDOW - 1)];
                chains += 1;
            }
        }
        let step = if best_len >= MIN_MATCH {
            tokens.push(Token::Match { len: best_len as u16, dist: best_dist as u16 });
            best_len
        } else {
            tokens.push(Token::Literal(data[i]));
            1
        };
        for pos in i..(i + step).min(last_insert + 1) {
            let h = hash(data, pos);
            prev[pos & (WINDOW - 1)] = head[h];
            head[h] = pos as u32;
        }
        i += step;
    }
    tokens
}

/// Compresses `data`. Falls back to a stored block when entropy coding does
/// not help (e.g. incompressible input).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let tokens = tokenize(data);

    // Gather symbol frequencies.
    let mut lit_freq = vec![0u64; NUM_LIT_LEN];
    let mut dist_freq = vec![0u64; NUM_DIST];
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                lit_freq[length_symbol(len.into()).0] += 1;
                dist_freq[distance_symbol(dist.into()).0] += 1;
            }
        }
    }
    lit_freq[EOB] += 1;

    let lit_code = CanonicalCode::from_freqs(&lit_freq).expect("EOB guarantees a symbol");
    // Distance alphabet may be empty (no matches) — use a dummy 1-symbol code.
    let dist_code = if dist_freq.iter().any(|&f| f > 0) {
        CanonicalCode::from_freqs(&dist_freq).expect("checked nonzero")
    } else {
        let mut f = vec![0u64; NUM_DIST];
        f[0] = 1;
        CanonicalCode::from_freqs(&f).expect("one symbol")
    };

    // Two 4-bit length tables plus ~9–12 bits per token.
    let mut w = BitWriter::with_capacity((NUM_LIT_LEN + NUM_DIST) * 4 + tokens.len() * 12);
    // Header: code lengths, 4 bits each.
    lit_code.write_lengths4(&mut w);
    dist_code.write_lengths4(&mut w);
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_code.encode(b as usize, &mut w),
            Token::Match { len, dist } => {
                let (len, dist) = (usize::from(len), usize::from(dist));
                let (sym, base, extra) = length_symbol(len);
                lit_code.encode(sym, &mut w);
                w.write_bits((len - base as usize) as u64, extra);
                let (dsym, dbase, dextra) = distance_symbol(dist);
                dist_code.encode(dsym, &mut w);
                w.write_bits((dist - dbase as usize) as u64, dextra);
            }
        }
    }
    lit_code.encode(EOB, &mut w);
    let payload = w.into_bytes();

    let mut out = Vec::with_capacity(payload.len() + 5);
    if payload.len() >= data.len() {
        out.push(0); // stored
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(data);
    } else {
        out.push(1); // huffman
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// The inflate loop's bit buffer: the stream's next bits, MSB first, in
/// one word that [`Bits::refill`] tops up once per token. A token needs at
/// most 15 + 5 + 15 + 13 = 48 bits, and a refill leaves at least 56 or
/// every bit the stream has left, so a field that does not fit is
/// truncated. `avail` counts only real bits: a table hit is taken only
/// when all of its code's bits exist, and everything else goes to
/// [`CanonicalCode::decode_walk`] at the exact bit position.
struct Bits<'a> {
    body: &'a [u8],
    /// The top `avail` bits are the stream's next bits; the bits below are
    /// zero or the stream's own later bits.
    buf: u64,
    avail: u32,
    /// The next byte of `body` to load.
    next: usize,
}

impl<'a> Bits<'a> {
    fn at(body: &'a [u8], pos: usize) -> Self {
        let mut bits = Bits { body, buf: 0, avail: 0, next: pos / 8 };
        bits.refill();
        bits.consume((pos % 8) as u32);
        bits
    }

    fn position(&self) -> usize {
        self.next * 8 - self.avail as usize
    }

    /// Tops the buffer up to at least 56 bits, or to every bit left.
    /// Unconditional, so the hot loop has no data-dependent branch here.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.body.get(self.next..self.next + 8) {
            // The word's bits past the whole bytes taken are the stream's
            // own, so a later load ORs the same values over them. Taking
            // at most 63 bits keeps the shift in range.
            self.buf |= u64::from_be_bytes(word.try_into().expect("8 bytes")) >> self.avail;
            let take = (63 - self.avail) / 8;
            self.next += take as usize;
            self.avail += take * 8;
        } else {
            // The stream's last bytes, one at a time.
            while self.avail <= 56 && self.next < self.body.len() {
                self.buf |= (self.body[self.next] as u64) << (56 - self.avail);
                self.next += 1;
                self.avail += 8;
            }
        }
    }

    /// Drops the next `n ≤ 15` bits.
    #[inline]
    fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.avail.min(15));
        self.buf <<= n;
        self.avail -= n;
    }

    /// One Huffman symbol: a table hit whose bits all exist, else the walk
    /// from the exact bit.
    #[inline]
    fn symbol(&mut self, code: &CanonicalCode) -> Result<usize, HuffmanError> {
        if let Some((len, sym)) = code.lookup(self.buf) {
            if len <= self.avail {
                self.consume(len);
                return Ok(sym);
            }
        }
        let mut r = BitReader::at(self.body, self.position());
        let sym = code.decode_walk(&mut r)?;
        *self = Bits::at(self.body, r.position());
        Ok(sym)
    }

    /// `n ≤ 13` extra bits after a symbol of the same token.
    #[inline]
    fn take(&mut self, n: u8) -> Result<u64, DeflateError> {
        let n = n as u32;
        if n > self.avail {
            return Err(DeflateError::Truncated);
        }
        let v = self.buf.checked_shr(64 - n).unwrap_or(0);
        self.consume(n);
        Ok(v)
    }
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, DeflateError> {
    let mut hdr = ByteReader::new(input);
    let mode = hdr.read_u8().map_err(|_| DeflateError::Truncated)?;
    let expected = hdr.read_u32_le().map_err(|_| DeflateError::Truncated)? as usize;
    let body = hdr.rest();
    match mode {
        0 => {
            if body.len() < expected {
                return Err(DeflateError::Truncated);
            }
            Ok(body[..expected].to_vec())
        }
        1 => {
            let mut r = BitReader::new(body);
            let lit_code = CanonicalCode::read_lengths4(&mut r, NUM_LIT_LEN)?;
            let dist_code = CanonicalCode::read_lengths4(&mut r, NUM_DIST)?;
            // A match token costs ≥ 2 bits and emits ≤ 258 bytes, so an
            // honest stream expands ≤ 1032x: cap the preallocation so a
            // tampered length field cannot reserve gigabytes up front.
            let plausible = body.len().saturating_mul(1032).saturating_add(16);
            let mut out = Vec::with_capacity(expected.min(plausible));
            let mut bits = Bits::at(body, r.position());
            loop {
                if out.len() > expected {
                    // Already past the promised size — stop before a
                    // hostile stream makes us materialize it all.
                    return Err(DeflateError::LengthMismatch { expected, got: out.len() });
                }
                bits.refill();
                let sym = bits.symbol(&lit_code)?;
                if sym == EOB {
                    break;
                }
                if sym < 256 {
                    out.push(sym as u8);
                } else {
                    let (base, extra) = LEN_TABLE[sym - 257];
                    let len = base as usize + bits.take(extra)? as usize;
                    let dsym = bits.symbol(&dist_code)?;
                    let (dbase, dextra) = DIST_TABLE[dsym];
                    let dist = dbase as usize + bits.take(dextra)? as usize;
                    if dist == 0 || dist > out.len() {
                        return Err(DeflateError::BadDistance { dist, have: out.len() });
                    }
                    let start = out.len() - dist;
                    if dist >= len {
                        out.extend_from_within(start..start + len);
                    } else {
                        // The copy overlaps its own output: byte by byte.
                        for k in 0..len {
                            let b = out[start + k];
                            out.push(b);
                        }
                    }
                }
            }
            if out.len() != expected {
                return Err(DeflateError::LengthMismatch { expected, got: out.len() });
            }
            Ok(out)
        }
        m => Err(DeflateError::BadMode(m)),
    }
}

/// Size in bytes after compression (the paper's ".gz file size").
pub fn compressed_size(data: &[u8]) -> usize {
    compress(data).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The matcher as first written, kept as the oracle for [`tokenize`]:
    /// one `usize` chain link per input byte, byte-at-a-time extension, no
    /// skip test.
    fn reference_tokenize(data: &[u8]) -> Vec<Token> {
        let n = data.len();
        // Literal-heavy inputs produce close to one token per byte, matches
        // far fewer; half-and-half keeps reallocation to one doubling.
        let mut tokens = Vec::with_capacity(n / 2 + 16);
        if n < MIN_MATCH + 1 {
            tokens.extend(data.iter().map(|&b| Token::Literal(b)));
            return tokens;
        }
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; n];
        let mut i = 0;
        let insert = |head: &mut Vec<usize>, prev: &mut Vec<usize>, data: &[u8], pos: usize| {
            if pos + MIN_MATCH <= data.len() {
                let h = hash(data, pos);
                prev[pos] = head[h];
                head[h] = pos;
            }
        };
        while i < n {
            let mut best_len = 0;
            let mut best_dist = 0;
            if i + MIN_MATCH <= n {
                let h = hash(data, i);
                let mut cand = head[h];
                let mut chains = 0;
                let limit = (n - i).min(MAX_MATCH);
                while cand != usize::MAX && chains < CHAIN_LIMIT {
                    let dist = i - cand;
                    if dist > WINDOW {
                        break;
                    }
                    // Extend match.
                    let mut l = 0;
                    while l < limit && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == limit {
                            break;
                        }
                    }
                    cand = prev[cand];
                    chains += 1;
                }
            }
            if best_len >= MIN_MATCH {
                tokens.push(Token::Match { len: best_len as u16, dist: best_dist as u16 });
                for k in 0..best_len {
                    insert(&mut head, &mut prev, data, i + k);
                }
                i += best_len;
            } else {
                tokens.push(Token::Literal(data[i]));
                insert(&mut head, &mut prev, data, i);
                i += 1;
            }
        }
        tokens
    }

    /// The inflate loop as first written, kept as the oracle for
    /// [`decompress`]: code lengths, symbols and extra bits are all read
    /// one bit at a time through [`BitReader::read_bit`] and
    /// [`CanonicalCode::decode_walk`], so it shares no fast path with the
    /// decoder under test.
    fn reference_decompress(input: &[u8]) -> Result<Vec<u8>, DeflateError> {
        fn bits(r: &mut BitReader<'_>, n: u8) -> Result<u64, crate::bitstream::OutOfBits> {
            (0..n).try_fold(0u64, |v, _| Ok((v << 1) | r.read_bit()? as u64))
        }
        fn code(r: &mut BitReader<'_>, alphabet: usize) -> Result<CanonicalCode, HuffmanError> {
            let lengths = (0..alphabet)
                .map(|_| bits(r, 4).map(|l| l as u8))
                .collect::<Result<Vec<_>, _>>()?;
            CanonicalCode::from_lengths(&lengths)
        }
        let mut hdr = ByteReader::new(input);
        let mode = hdr.read_u8().map_err(|_| DeflateError::Truncated)?;
        let expected = hdr.read_u32_le().map_err(|_| DeflateError::Truncated)? as usize;
        let body = hdr.rest();
        match mode {
            0 => {
                if body.len() < expected {
                    return Err(DeflateError::Truncated);
                }
                Ok(body[..expected].to_vec())
            }
            1 => {
                let mut r = BitReader::new(body);
                let lit_code = code(&mut r, NUM_LIT_LEN)?;
                let dist_code = code(&mut r, NUM_DIST)?;
                let mut out = Vec::new();
                loop {
                    if out.len() > expected {
                        return Err(DeflateError::LengthMismatch { expected, got: out.len() });
                    }
                    let sym = lit_code.decode_walk(&mut r)?;
                    if sym == EOB {
                        break;
                    }
                    if sym < 256 {
                        out.push(sym as u8);
                    } else {
                        let (base, extra) = LEN_TABLE[sym - 257];
                        let len = base as usize
                            + bits(&mut r, extra).map_err(|_| DeflateError::Truncated)? as usize;
                        let dsym = dist_code.decode_walk(&mut r)?;
                        let (dbase, dextra) = DIST_TABLE[dsym];
                        let dist = dbase as usize
                            + bits(&mut r, dextra).map_err(|_| DeflateError::Truncated)? as usize;
                        if dist == 0 || dist > out.len() {
                            return Err(DeflateError::BadDistance { dist, have: out.len() });
                        }
                        let start = out.len() - dist;
                        for k in 0..len {
                            let b = out[start + k];
                            out.push(b);
                        }
                    }
                }
                if out.len() != expected {
                    return Err(DeflateError::LengthMismatch { expected, got: out.len() });
                }
                Ok(out)
            }
            m => Err(DeflateError::BadMode(m)),
        }
    }

    /// `n` little-endian f64s shaped like fitted weights (small, centred,
    /// full-entropy mantissas): DEFLATE saves only a few percent on them,
    /// so nearly every symbol is a literal. `repeat_every > 0` repeats an
    /// earlier value every that many values, so a few matches (with their
    /// long, table-missing length codes) mix in.
    fn weights(seed: u64, n: usize, repeat_every: usize) -> Vec<u8> {
        let mut x = seed | 1;
        let mut vals: Vec<f64> = Vec::with_capacity(n);
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = if repeat_every > 0 && i % repeat_every == repeat_every - 1 {
                vals[(x % i as u64) as usize]
            } else {
                ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.4
            };
            vals.push(v);
        }
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// `len` bytes that alternate short noise runs with copies of random
    /// length (3..=258) from random distances (up to the whole window):
    /// tokens that spend up to 48 bits on a length code, its extra bits, a
    /// distance code and up to 13 distance extra bits.
    fn far_copies(seed: u64, len: usize) -> Vec<u8> {
        let draws = noise(seed, 3 * len + 3, 255);
        let mut data = noise(seed ^ 0x9E37_79B9, len.min(64), 255);
        let mut k = 0;
        while data.len() < len {
            let (a, b, c) = (draws[k] as usize, draws[k + 1] as usize, draws[k + 2] as usize);
            k += 3;
            if a % 3 == 0 {
                data.extend_from_slice(&noise(seed ^ k as u64, 1 + b % 4, 255));
            } else {
                let copy = (3 + (a << 8 | b) % 256).min(len - data.len());
                let dist = 1 + (b << 8 | c) * (a + 1) % data.len().min(WINDOW);
                for _ in 0..copy {
                    data.push(data[data.len() - dist]);
                }
            }
        }
        data
    }

    /// Fails when the decoder and the oracle return different results,
    /// down to the `Err` value.
    fn inflate_agrees(frame: &[u8], what: &str) -> Result<(), TestCaseError> {
        let (got, want) = (decompress(frame), reference_decompress(frame));
        if got == want {
            return Ok(());
        }
        let show = |r: &Result<Vec<u8>, DeflateError>| match r {
            Ok(v) => format!("Ok({} bytes)", v.len()),
            Err(e) => format!("Err({e:?})"),
        };
        Err(TestCaseError::fail(format!("{what}: got {}, oracle {}", show(&got), show(&want))))
    }

    /// Bytes from a seeded xorshift64, folded into `alphabet` symbols: small
    /// alphabets give long, dense hash chains, large ones sparse chains.
    fn noise(seed: u64, len: usize, alphabet: u8) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 32) % alphabet.max(1) as u64) as u8
            })
            .collect()
    }

    /// Fails with the first differing token when the matcher and the
    /// oracle disagree (printing whole streams would drown the report).
    fn agree(data: &[u8]) -> Result<(), TestCaseError> {
        let (got, want) = (tokenize(data), reference_tokenize(data));
        let msg = match got.iter().zip(&want).position(|(g, w)| g != w) {
            Some(k) => format!("token {k}: got {:?}, oracle {:?}", got[k], want[k]),
            None if got.len() != want.len() => {
                format!("{} tokens, oracle {}", got.len(), want.len())
            }
            None => return Ok(()),
        };
        Err(TestCaseError::fail(msg))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn matcher_agrees_with_oracle_on_random_bytes(
            seed in any::<u64>(),
            len in 0..100_000usize,
            alphabet in 1..=255u8,
        ) {
            agree(&noise(seed, len, alphabet))?;
        }

        #[test]
        fn matcher_agrees_with_oracle_on_repeats_at_the_window_edge(
            seed in any::<u64>(),
            alphabet in 16..=255u8,
            copy_len in 16..600usize,
        ) {
            // A noise block, then one copy at every distance from 32,760
            // to 32,775 (32,768 is the farthest DEFLATE can code), each
            // followed by a few noise bytes so copies do not run together.
            let mut data = noise(seed, 40_000, alphabet);
            let gap = noise(seed ^ 0x5bd1_e995, 7, alphabet);
            for dist in 32_760..=32_775 {
                for _ in 0..copy_len {
                    data.push(data[data.len() - dist]);
                }
                data.extend_from_slice(&gap);
            }
            agree(&data)?;
        }

        #[test]
        fn matcher_agrees_with_oracle_on_long_runs(
            seed in any::<u64>(),
            len in 0..100_000usize,
        ) {
            // Runs of 1..1,000 copies of one byte: matches hit the
            // 258-byte cap and chains fill with one hash.
            // Two draws per run, and at most `len` runs.
            let draws = noise(seed, 2 * len + 2, 255);
            let mut data = Vec::with_capacity(len);
            let mut k = 0;
            while data.len() < len {
                let run = draws[k] as usize * 4 % 1_000 + 1;
                data.extend(std::iter::repeat_n(draws[k + 1] % 4, run.min(len - data.len())));
                k += 2;
            }
            agree(&data)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn inflate_agrees_with_oracle_on_valid_frames(
            seed in any::<u64>(),
            values in 0..6_000usize,
            repeat_every in 0..40usize,
            alphabet in 1..=255u8,
        ) {
            // Literal-heavy weights (up to 48 KB, past the 32 KiB window),
            // match-heavy noise, far copies, and the empty input.
            let w = weights(seed, values, repeat_every);
            let n = noise(seed, values * 8, alphabet);
            let f = far_copies(seed, values * 8);
            for data in [&w[..], &n[..], &f[..], &[]] {
                let frame = compress(data);
                prop_assert_eq!(decompress(&frame), Ok(data.to_vec()));
                inflate_agrees(&frame, "valid frame")?;
            }
        }

        #[test]
        fn inflate_agrees_with_oracle_on_every_truncation(
            seed in any::<u64>(),
            values in 0..120usize,
            repeat_every in 0..8usize,
        ) {
            let frames = [compress(&weights(seed, values, repeat_every)), compress(&far_copies(seed, values * 32))];
            for frame in &frames {
                for cut in 0..frame.len() {
                    inflate_agrees(&frame[..cut], &format!("cut at {cut} of {}", frame.len()))?;
                }
            }
        }

        #[test]
        fn inflate_agrees_with_oracle_on_mutations(seed in any::<u64>()) {
            let corpus = [
                compress(&weights(seed, 300, 0)),
                compress(&weights(seed ^ 1, 300, 5)),
                compress(&noise(seed, 2_000, 4)),
                compress(&noise(seed, 64, 255)),
                compress(&far_copies(seed, 3_000)),
                compress(&[]),
            ];
            let mut result = Ok(());
            crate::mutate::sweep(&corpus, seed, 8, |buf, label| {
                if result.is_ok() {
                    result = inflate_agrees(buf, label);
                }
            });
            result?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn bit_buffer_holds_exactly_the_next_bits(
            bytes in prop::collection::vec(any::<u8>(), 0..40),
            tokens in prop::collection::vec((0..=15u32, 0..=5u32, 0..=15u32, 0..=13u32), 1..48),
        ) {
            // From every start bit, consume token-shaped field widths:
            // after each refill the buffer holds at least 56 bits or every
            // bit left, and its top `avail` bits are the stream's next bits.
            let total = bytes.len() * 8;
            for start in 0..=total {
                let mut b = Bits::at(&bytes, start);
                let mut pos = start;
                for &(code, extra, dcode, dextra) in &tokens {
                    b.refill();
                    prop_assert_eq!(b.position(), pos);
                    let avail = b.avail as usize;
                    prop_assert!(avail >= 56.min(total - pos), "{avail} bits at {pos} of {total}");
                    let mut r = BitReader::at(&bytes, pos);
                    for i in 0..avail.min(total - pos) {
                        let bit = (b.buf >> (63 - i)) & 1 == 1;
                        prop_assert_eq!(bit, r.read_bit().expect("in range"), "bit {}", pos + i);
                    }
                    for n in [code, extra, dcode, dextra] {
                        let n = n.min(b.avail);
                        b.consume(n);
                        pos += n as usize;
                    }
                }
            }
        }
    }

    #[test]
    fn symbol_lookups_match_a_table_scan() {
        let scan = |table: &[(u16, u8)], v: usize| {
            let i = table.iter().rposition(|&(base, _)| base as usize <= v).expect("base 1 or 3");
            (i, table[i].0, table[i].1)
        };
        for len in MIN_MATCH..=MAX_MATCH {
            let (i, base, extra) = scan(&LEN_TABLE, len);
            assert_eq!(length_symbol(len), (257 + i, base, extra), "length {len}");
            assert!(len - (base as usize) < 1 << extra, "length {len} fits its extra bits");
        }
        for dist in 1..=WINDOW {
            let (i, base, extra) = scan(&DIST_TABLE, dist);
            assert_eq!(distance_symbol(dist), (i, base, extra), "distance {dist}");
            assert!(dist - (base as usize) < 1 << extra, "distance {dist} fits its extra bits");
        }
    }

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_text_compresses_well() {
        let data: Vec<u8> = b"the quick brown fox ".repeat(500);
        let c = compress(&data);
        assert!(c.len() < data.len() / 10, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn constant_bytes_compress_extremely() {
        let data = vec![42u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 1000, "constant run compressed to {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_falls_back_to_stored() {
        // High-entropy data from a simple xorshift.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + 5);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_matches_cross_thresholds() {
        // Exercise every length bucket including 258.
        let mut data = Vec::new();
        for rep in [3usize, 10, 30, 130, 258, 300, 1000] {
            data.extend(std::iter::repeat_n(b'x', rep));
            data.extend_from_slice(b"SEP");
            data.extend((0..16u8).map(|i| i.wrapping_mul(37)));
        }
        roundtrip(&data);
    }

    #[test]
    fn distant_backreferences() {
        // A repeated phrase separated by > 16 KiB of filler.
        let mut data = Vec::new();
        data.extend_from_slice(b"needle-needle-needle");
        for i in 0..20_000u32 {
            data.push((i % 251) as u8);
        }
        data.extend_from_slice(b"needle-needle-needle");
        roundtrip(&data);
    }

    #[test]
    fn float_series_compress() {
        // The actual workload: little-endian f64 streams.
        let vals: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.01).sin() * 10.0).collect();
        let mut data = Vec::new();
        for v in vals {
            data.extend_from_slice(&v.to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn truncated_input_rejected() {
        assert_eq!(decompress(&[1, 0, 0]).unwrap_err(), DeflateError::Truncated);
        let c = compress(b"hello world hello world hello world");
        let cut = &c[..c.len() - 1];
        // Either truncated or length mismatch depending on where the cut is.
        assert!(decompress(cut).is_err());
    }

    #[test]
    fn bad_mode_rejected() {
        assert_eq!(decompress(&[7, 0, 0, 0, 0]).unwrap_err(), DeflateError::BadMode(7));
    }

    #[test]
    fn length_symbol_buckets() {
        assert_eq!(length_symbol(3).0, 257);
        assert_eq!(length_symbol(10).0, 264);
        assert_eq!(length_symbol(258).0, 285);
        assert_eq!(distance_symbol(1).0, 0);
        assert_eq!(distance_symbol(24577).0, 29);
        assert_eq!(distance_symbol(32768).0, 29);
    }

    #[test]
    fn constant_coefficient_stream_beats_pair_stream() {
        // The paper's PMC-vs-Swing CR argument: constant-value segment
        // streams gzip better than slope/intercept pair streams. Verify our
        // codec reproduces that.
        let constants: Vec<u8> = (0..1000).flat_map(|_| 13.25f64.to_le_bytes()).collect();
        let pairs: Vec<u8> = (0..500)
            .flat_map(|i| {
                let slope = (i as f64) * 1e-4 + 0.123;
                let intercept = (i as f64).sin() * 5.0;
                let mut v = slope.to_le_bytes().to_vec();
                v.extend_from_slice(&intercept.to_le_bytes());
                v
            })
            .collect();
        assert_eq!(constants.len(), pairs.len());
        assert!(compressed_size(&constants) < compressed_size(&pairs));
    }
}
