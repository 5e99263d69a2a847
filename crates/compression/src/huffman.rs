//! Canonical Huffman coding.
//!
//! Used twice in this crate: as SZ's entropy stage for quantization codes
//! (paper §3.2) and inside the DEFLATE-style lossless codec that stands in
//! for gzip. Codes are canonical so only the code *lengths* need to be
//! stored; lengths are limited to `MAX_CODE_LEN` bits.

use crate::bitstream::{BitReader, BitWriter, OutOfBits};

/// Maximum code length (as in DEFLATE).
const MAX_CODE_LEN: u8 = 15;

/// Errors from building or using a Huffman code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// No symbol has a nonzero frequency.
    EmptyAlphabet,
    /// The encoded stream contains a code not present in the table.
    BadCode,
    /// The stream ended mid-code.
    Truncated,
    /// A stored code-length table violates the Kraft inequality.
    InvalidLengths,
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::EmptyAlphabet => write!(f, "no symbols with nonzero frequency"),
            HuffmanError::BadCode => write!(f, "invalid Huffman code in stream"),
            HuffmanError::Truncated => write!(f, "stream ended mid-code"),
            HuffmanError::InvalidLengths => write!(f, "code length table violates Kraft"),
        }
    }
}

impl std::error::Error for HuffmanError {}

impl From<OutOfBits> for HuffmanError {
    fn from(_: OutOfBits) -> Self {
        HuffmanError::Truncated
    }
}

/// Computes length-limited Huffman code lengths for `freqs`.
///
/// Symbols with zero frequency get length 0 (absent). A single-symbol
/// alphabet gets length 1. Lengths never exceed `MAX_CODE_LEN`; if the
/// unrestricted tree is deeper, lengths are clamped and repaired to satisfy
/// the Kraft equality (the standard zlib-style overflow fix).
fn build_code_lengths(freqs: &[u64]) -> Result<Vec<u8>, HuffmanError> {
    let active: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    if active.is_empty() {
        return Err(HuffmanError::EmptyAlphabet);
    }
    let mut lengths = vec![0u8; freqs.len()];
    if active.len() == 1 {
        lengths[active[0]] = 1;
        return Ok(lengths);
    }

    // Standard Huffman via sorted merge of leaf and internal queues.
    #[derive(Clone)]
    struct Node {
        freq: u64,
        children: Option<(usize, usize)>, // indices into `nodes`
        symbol: usize,
    }
    let mut nodes: Vec<Node> =
        active.iter().map(|&s| Node { freq: freqs[s], children: None, symbol: s }).collect();
    nodes.sort_by_key(|n| n.freq);

    let mut leaves: std::collections::VecDeque<usize> = (0..nodes.len()).collect();
    let mut internals: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let pop_min = |nodes: &Vec<Node>,
                   leaves: &mut std::collections::VecDeque<usize>,
                   internals: &mut std::collections::VecDeque<usize>| {
        match (leaves.front(), internals.front()) {
            (Some(&l), Some(&i)) => {
                if nodes[l].freq <= nodes[i].freq {
                    leaves.pop_front().expect("front exists")
                } else {
                    internals.pop_front().expect("front exists")
                }
            }
            (Some(_), None) => leaves.pop_front().expect("front exists"),
            (None, Some(_)) => internals.pop_front().expect("front exists"),
            (None, None) => unreachable!("merge loop bounds"),
        }
    };
    let total = nodes.len();
    for _ in 0..total - 1 {
        let a = pop_min(&nodes, &mut leaves, &mut internals);
        let b = pop_min(&nodes, &mut leaves, &mut internals);
        let parent = Node {
            freq: nodes[a].freq + nodes[b].freq,
            children: Some((a, b)),
            symbol: usize::MAX,
        };
        nodes.push(parent);
        internals.push_back(nodes.len() - 1);
    }
    // Depth-first traversal assigning depths.
    let root = nodes.len() - 1;
    let mut stack = vec![(root, 0u8)];
    while let Some((idx, depth)) = stack.pop() {
        match nodes[idx].children {
            Some((a, b)) => {
                stack.push((a, depth + 1));
                stack.push((b, depth + 1));
            }
            None => {
                lengths[nodes[idx].symbol] = depth.max(1);
            }
        }
    }

    // Length-limit: clamp and repair Kraft sum.
    if lengths.iter().any(|&l| l > MAX_CODE_LEN) {
        for l in lengths.iter_mut() {
            if *l > MAX_CODE_LEN {
                *l = MAX_CODE_LEN;
            }
        }
        // kraft sum in units of 2^-MAX_CODE_LEN
        let unit = 1u64 << MAX_CODE_LEN;
        let kraft = |lengths: &[u8]| -> u64 {
            lengths.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum()
        };
        let mut k = kraft(&lengths);
        // Overfull: lengthen the shortest-freq... standard fix: repeatedly
        // take a symbol whose length < MAX and increase it; pick the symbol
        // with the smallest frequency among those with minimal impact.
        while k > unit {
            // find symbol with max length < MAX_CODE_LEN and smallest freq
            let mut best: Option<usize> = None;
            for (i, &l) in lengths.iter().enumerate() {
                if l > 0 && l < MAX_CODE_LEN {
                    let better = match best {
                        None => true,
                        Some(b) => {
                            (lengths[b], freqs[i]) > (l, freqs[b]) && freqs[i] <= freqs[b]
                                || lengths[b] < l
                        }
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
            let i = best.ok_or(HuffmanError::InvalidLengths)?;
            k -= unit >> lengths[i];
            lengths[i] += 1;
            k += unit >> lengths[i];
        }
        // Underfull is fine for decodability, but tighten anyway by
        // shortening the longest codes where possible.
        'outer: while k < unit {
            for l in lengths.iter_mut() {
                if *l > 1 {
                    let gain = (unit >> (*l - 1)) - (unit >> *l);
                    if k + gain <= unit {
                        *l -= 1;
                        k += gain;
                        continue 'outer;
                    }
                }
            }
            break;
        }
    }
    Ok(lengths)
}

/// A canonical Huffman code: encoder table plus decoder index, derived
/// purely from code lengths.
#[derive(Debug, Clone)]
pub struct CanonicalCode {
    lengths: Vec<u8>,
    codes: Vec<u32>,
    /// Symbols sorted by (length, symbol), for decoding.
    sorted_symbols: Vec<u32>,
    /// For each length 1..=MAX: the first canonical code of that length.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// For each length: index into `sorted_symbols` of its first symbol.
    first_index: [u32; MAX_CODE_LEN as usize + 1],
    /// 11-bit prefix table: entry `w` is `(len << 12) | symbol` for the
    /// code prefixing window `w`, or 0 when no code of length ≤ 11 does
    /// (then [`CanonicalCode::decode_walk`] resolves the window).
    table: Box<[u16; 1 << TABLE_BITS]>,
}

/// Prefix-table window width: 11 bits of lookahead resolve every code of up
/// to this many bits in a single table hit. That covers every literal code
/// of a deflated weights payload, whose byte values are close to uniform.
const TABLE_BITS: u8 = 11;

impl CanonicalCode {
    /// Builds the canonical code from per-symbol lengths (0 = absent).
    pub(crate) fn from_lengths(lengths: &[u8]) -> Result<Self, HuffmanError> {
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        let mut any = false;
        for &l in lengths {
            if l > MAX_CODE_LEN {
                return Err(HuffmanError::InvalidLengths);
            }
            if l > 0 {
                count[l as usize] += 1;
                any = true;
            }
        }
        if !any {
            return Err(HuffmanError::EmptyAlphabet);
        }
        // Kraft check (allow underfull — our builder tightens but tolerate).
        let unit = 1u64 << MAX_CODE_LEN;
        let kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit >> l).sum();
        if kraft > unit {
            return Err(HuffmanError::InvalidLengths);
        }

        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
        }
        let mut next = first_code;
        let mut codes = vec![0u32; lengths.len()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                codes[sym] = next[l as usize];
                next[l as usize] += 1;
            }
        }
        // Decoder index.
        let mut sorted_symbols: Vec<u32> =
            (0..lengths.len() as u32).filter(|&s| lengths[s as usize] > 0).collect();
        sorted_symbols.sort_by_key(|&s| (lengths[s as usize], s));
        let mut first_index = [0u32; MAX_CODE_LEN as usize + 1];
        let mut acc = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            first_index[len] = acc;
            acc += count[len];
        }
        // Prefix table: every 11-bit window starting with a short code maps
        // straight to (length, symbol). Symbols that cannot fit the 12-bit
        // payload (alphabets past 4096) simply stay on the walk path.
        let mut table = Box::new([0u16; 1 << TABLE_BITS]);
        for (sym, &l) in lengths.iter().enumerate() {
            if l == 0 || l > TABLE_BITS || sym >= 1 << 12 {
                continue;
            }
            let start = (codes[sym] << (TABLE_BITS - l)) as usize;
            let entry = ((l as u16) << 12) | sym as u16;
            for slot in &mut table[start..start + (1 << (TABLE_BITS - l))] {
                *slot = entry;
            }
        }
        Ok(CanonicalCode {
            lengths: lengths.to_vec(),
            codes,
            sorted_symbols,
            first_code,
            first_index,
            table,
        })
    }

    /// Builds directly from frequencies.
    pub fn from_freqs(freqs: &[u64]) -> Result<Self, HuffmanError> {
        Self::from_lengths(&build_code_lengths(freqs)?)
    }

    /// Reconstructs a code from an `alphabet`-sized table of 4-bit code
    /// lengths — the serialized-table layout both SZ and the DEFLATE
    /// container use. Total: a truncated table or a Kraft-violating one
    /// is an error, never a panic, so this is the one place untrusted
    /// Huffman tables enter the crate.
    pub(crate) fn read_lengths4(
        r: &mut BitReader<'_>,
        alphabet: usize,
    ) -> Result<Self, HuffmanError> {
        let mut lengths = vec![0u8; alphabet];
        for l in lengths.iter_mut() {
            *l = r.read_bits(4)? as u8;
        }
        Self::from_lengths(&lengths)
    }

    /// Serializes the table in the layout [`Self::read_lengths4`] reads.
    pub(crate) fn write_lengths4(&self, w: &mut BitWriter) {
        for &l in self.lengths() {
            debug_assert!(l <= 15, "4-bit table");
            w.write_bits(l as u64, 4);
        }
    }

    /// The per-symbol code lengths (for serialization).
    pub(crate) fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Writes the code for `symbol`.
    ///
    /// # Panics
    /// Panics (debug) if the symbol has no code.
    pub fn encode(&self, symbol: usize, w: &mut BitWriter) {
        let len = self.lengths[symbol];
        debug_assert!(len > 0, "encoding absent symbol {symbol}");
        w.write_bits(self.codes[symbol] as u64, len);
    }

    /// Reads one symbol: a single 11-bit lookahead resolves every code of
    /// up to 11 bits in one table hit; longer codes, the stream's last 10
    /// bits, and invalid prefixes fall back to
    /// [`CanonicalCode::decode_walk`], which has identical semantics.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<usize, HuffmanError> {
        if let Some(window) = r.peek(TABLE_BITS) {
            if let Some((len, sym)) = self.lookup((window as u64) << (64 - TABLE_BITS)) {
                r.skip_bits(len as u8).map_err(|_| HuffmanError::Truncated)?;
                return Ok(sym);
            }
        }
        self.decode_walk(r)
    }

    /// The table's `(length, symbol)` for the code prefixing `bits` (next
    /// bit first, in the top bit), or `None` when no code of up to
    /// 11 bits does. The caller checks that `length` bits exist.
    #[inline]
    pub(crate) fn lookup(&self, bits: u64) -> Option<(u32, usize)> {
        let entry = self.table[(bits >> (64 - TABLE_BITS)) as usize];
        (entry != 0).then_some(((entry >> 12) as u32, (entry & 0x0FFF) as usize))
    }

    /// Reads one symbol bit by bit: the pre-table decode path, kept as the
    /// fallback for [`CanonicalCode::decode`] and for the inflate loop's
    /// bit buffer, as the decoder of the inflate oracle in `deflate`'s
    /// tests, and as the scalar baseline the codecs bench measures the
    /// table against.
    pub fn decode_walk(&self, r: &mut BitReader<'_>) -> Result<usize, HuffmanError> {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | r.read_bit()? as u32;
            let count = self.count_at(len);
            if count > 0 && code >= self.first_code[len] && code < self.first_code[len] + count {
                let idx = self.first_index[len] + (code - self.first_code[len]);
                return Ok(self.sorted_symbols[idx as usize] as usize);
            }
        }
        Err(HuffmanError::BadCode)
    }

    fn count_at(&self, len: usize) -> u32 {
        let next = if len == MAX_CODE_LEN as usize {
            self.sorted_symbols.len() as u32
        } else {
            self.first_index[len + 1]
        };
        next - self.first_index[len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[usize], alphabet: usize) {
        let mut freqs = vec![0u64; alphabet];
        for &s in symbols {
            freqs[s] += 1;
        }
        let code = CanonicalCode::from_freqs(&freqs).unwrap();
        let mut w = BitWriter::new();
        for &s in symbols {
            code.encode(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in symbols {
            assert_eq!(code.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn skewed_distribution_roundtrip() {
        let mut symbols = vec![0usize; 1000];
        for (i, s) in symbols.iter_mut().enumerate() {
            *s = match i % 10 {
                0..=6 => 0,
                7 | 8 => 1,
                _ => 2 + (i % 5),
            };
        }
        roundtrip(&symbols, 8);
    }

    #[test]
    fn single_symbol_alphabet() {
        roundtrip(&[3, 3, 3, 3], 5);
    }

    #[test]
    fn two_symbols_get_one_bit() {
        let lengths = build_code_lengths(&[10, 90]).unwrap();
        assert_eq!(lengths, vec![1, 1]);
    }

    #[test]
    fn skewed_code_is_shorter_for_frequent() {
        let lengths = build_code_lengths(&[1, 1, 1, 100]).unwrap();
        assert!(lengths[3] < lengths[0]);
    }

    #[test]
    fn compression_beats_fixed_width() {
        // 7/8 of mass on one symbol out of 256: entropy ≈ 0.67 bits/sym.
        let mut freqs = vec![1u64; 256];
        freqs[0] = 10_000;
        let code = CanonicalCode::from_freqs(&freqs).unwrap();
        assert_eq!(code.lengths()[0], 1);
    }

    #[test]
    fn empty_alphabet_rejected() {
        assert_eq!(build_code_lengths(&[0, 0]).unwrap_err(), HuffmanError::EmptyAlphabet);
    }

    #[test]
    fn fibonacci_frequencies_force_length_limit() {
        // Fibonacci frequencies create a maximally skewed tree deeper than
        // 15 for ~20+ symbols; the limiter must repair it.
        let mut freqs = vec![0u64; 25];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = build_code_lengths(&freqs).unwrap();
        assert!(lengths.iter().all(|&l| l > 0 && l <= MAX_CODE_LEN));
        // must be decodable
        let code = CanonicalCode::from_lengths(&lengths).unwrap();
        let mut w = BitWriter::new();
        for s in 0..25 {
            code.encode(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for s in 0..25 {
            assert_eq!(code.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn invalid_lengths_rejected() {
        // Three codes of length 1 violate Kraft.
        assert!(CanonicalCode::from_lengths(&[1, 1, 1]).is_err());
        assert!(CanonicalCode::from_lengths(&[16]).is_err());
    }

    #[test]
    fn truncated_stream_detected() {
        let code = CanonicalCode::from_freqs(&[1, 1, 1, 1]).unwrap();
        let mut w = BitWriter::new();
        code.encode(0, &mut w);
        let mut bytes = w.into_bytes();
        bytes.clear();
        let mut r = BitReader::new(&bytes);
        assert_eq!(code.decode(&mut r).unwrap_err(), HuffmanError::Truncated);
    }

    #[test]
    fn table_and_walk_decode_identically() {
        // Large skewed alphabet (SZ-sized): short codes hit the table,
        // rare symbols get codes longer than the table and exercise the
        // fallback.
        let mut freqs = vec![1u64; 1026];
        freqs[513] = 100_000;
        freqs[512] = 30_000;
        freqs[514] = 30_000;
        for (i, f) in freqs.iter_mut().enumerate().take(64) {
            *f = 500 + i as u64;
        }
        let code = CanonicalCode::from_freqs(&freqs).unwrap();
        assert!(code.lengths().iter().any(|&l| l > TABLE_BITS), "long codes present");
        let symbols: Vec<usize> =
            (0..5000usize).map(|i| if i % 3 == 0 { 513 } else { (i * 131) % 1026 }).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            code.encode(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut fast = BitReader::new(&bytes);
        let mut slow = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(code.decode(&mut fast).unwrap(), s);
            assert_eq!(code.decode_walk(&mut slow).unwrap(), s);
            assert_eq!(fast.position(), slow.position());
        }
    }

    #[test]
    fn table_decode_handles_stream_tail() {
        // Codes whose final symbols sit in the last partial byte must fall
        // back to the walk, not require 11 bits of lookahead.
        let code = CanonicalCode::from_freqs(&[40, 30, 20, 10]).unwrap();
        let symbols = [0usize, 3, 1, 2, 0, 0, 3];
        let mut w = BitWriter::new();
        for &s in &symbols {
            code.encode(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(code.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn lengths_survive_canonical_reconstruction() {
        let freqs = [5u64, 9, 12, 13, 16, 45, 0, 3];
        let code = CanonicalCode::from_freqs(&freqs).unwrap();
        let rebuilt = CanonicalCode::from_lengths(code.lengths()).unwrap();
        let mut w1 = BitWriter::new();
        let mut w2 = BitWriter::new();
        for s in [0usize, 1, 2, 3, 4, 5, 7] {
            code.encode(s, &mut w1);
            rebuilt.encode(s, &mut w2);
        }
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }
}
