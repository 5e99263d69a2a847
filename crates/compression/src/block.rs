//! Blocked, vectorisable codec kernels (DESIGN.md §11).
//!
//! The hot byte paths of this crate — SZ quantizer symbols and zero/sign
//! bitmaps — are built on fixed-size blocks of
//! [`LANE`] values packed at the block's maximum bit width, the
//! Lemire-style *binary packing* layout fast integer codecs
//! (FastPFor, LFZip's residual coder, Gorilla's successors) all share:
//!
//! * a block header names one bit width `w`, then all lane values are laid
//!   end to end LSB-first into little-endian 64-bit words, so packing and
//!   unpacking are straight-line word shifts the compiler can unroll and
//!   autovectorise — no per-value branches, no per-bit loops;
//! * values too wide for `w` ("spills") are patched in afterwards from a
//!   short side list of `(position, varint)` entries, so one outlier does
//!   not widen the whole block;
//! * [`zigzag`], which keeps small signed values at small widths, is a
//!   plain slice pass over the block.
//!
//! Two kernel implementations exist behind [`Kernel`]: the word-at-a-time
//! `Blocked` kernel every codec runs, and a definitional bit-at-a-time
//! `Scalar` reference reached only through the explicit `*_with`
//! functions. Both produce and consume identical bytes (proven by
//! `tests/block_props.rs`).
//!
//! Decoding is *total*: every length and position is validated against the
//! remaining input, so hostile bytes return [`BlockError`], never panic,
//! and never drive an allocation past what the input could honestly
//! describe (DESIGN.md §10).

use crate::reader::{ByteReader, ReadError};

/// Values per block: two 64-bit words per bit of width, and small enough
/// that spill positions fit one byte.
pub const LANE: usize = 128;

/// Error from decoding a malformed block stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockError(pub String);

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed block stream: {}", self.0)
    }
}

impl std::error::Error for BlockError {}

impl From<ReadError> for BlockError {
    fn from(e: ReadError) -> Self {
        BlockError(e.to_string())
    }
}

impl From<BlockError> for crate::codec::CodecError {
    fn from(e: BlockError) -> Self {
        crate::codec::CodecError::Corrupt(e.to_string())
    }
}

/// Which pack/unpack implementation to run. Both are portable Rust and
/// bit-identical on the wire; `Blocked` moves whole 64-bit words per step,
/// `Scalar` is the definitional bit-at-a-time reference the tests and
/// benches compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Word-at-a-time packing: the fast path.
    Blocked,
    /// Bit-at-a-time reference.
    Scalar,
}

/// Bits required to represent `v` (0 for 0).
#[inline]
fn bits_needed(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// Bytes occupied by `n` values packed at `width` bits.
#[inline]
pub fn packed_len(n: usize, width: u8) -> usize {
    (n * width as usize).div_ceil(8)
}

#[inline]
fn width_mask(width: u8) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

// ---------------------------------------------------------------------------
// Bitpacking kernels
// ---------------------------------------------------------------------------

/// Word-at-a-time packer: accumulates lanes into a 64-bit register and
/// flushes whole little-endian words.
fn pack_blocked(values: &[u64], width: u8, out: &mut Vec<u8>) {
    let w = width as u32;
    if w == 0 {
        return;
    }
    out.reserve(packed_len(values.len(), width));
    let mask = width_mask(width);
    let mut acc: u64 = 0;
    let mut filled: u32 = 0; // bits used in acc, always < 64
    for &raw in values {
        let v = raw & mask;
        acc |= v << filled;
        if filled + w >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            let used = 64 - filled; // bits of v that fit in the old word
            acc = if used >= w { 0 } else { v >> used };
            filled = filled + w - 64;
        } else {
            filled += w;
        }
    }
    if filled > 0 {
        out.extend_from_slice(&acc.to_le_bytes()[..(filled as usize).div_ceil(8)]);
    }
}

/// Bit-at-a-time packer: the definitional layout (stream bit `k` lands in
/// byte `k / 8` at in-byte position `k % 8`, LSB-first).
fn pack_scalar(values: &[u64], width: u8, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + packed_len(values.len(), width), 0);
    let mut bit = 0usize;
    for &v in values {
        for j in 0..width {
            if (v >> j) & 1 == 1 {
                out[start + bit / 8] |= 1 << (bit % 8);
            }
            bit += 1;
        }
    }
}

/// Unpacks one aligned group of 64 lanes of `W` bits from exactly `W`
/// words. With `W` const the compiler unrolls the loop, every word index
/// and shift folds to an immediate, and each lane is one or two register
/// shifts with no loop-carried dependency — the classic bitpacking
/// "unpack64" kernel, one monomorphised copy per width.
#[inline(always)]
fn unpack_group_const<const W: usize>(words: &[u64; W], out: &mut Vec<u64>) {
    let mask = if W == 64 { u64::MAX } else { (1u64 << W) - 1 };
    // Compute into a stack array first: a const-trip-count loop over
    // plain arrays fully unrolls (every index and shift an immediate),
    // then the append is one reserved memcpy.
    let mut tmp = [0u64; 64];
    for (i, lane) in tmp.iter_mut().enumerate() {
        let bit = i * W;
        let word = bit / 64;
        let off = (bit % 64) as u32;
        let lo = words[word] >> off;
        let v = if off as usize + W > 64 {
            // A straddling lane ends before bit 64*W, so `word + 1 < W`.
            lo | (words[word + 1] << (64 - off))
        } else {
            lo
        };
        *lane = v & mask;
    }
    out.extend_from_slice(&tmp);
}

/// One-time probe for the AVX2+BMI2 fast path: 256-bit variable lane
/// shifts (`vpsrlvq`/`vpsllvq`) are exactly what the group kernel's
/// unrolled body wants, and the baseline x86-64 build can't emit them.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("bmi2")
    })
}

/// AVX2 unpack: four lanes per `vpgatherqq`. Lane `i` starts at bit
/// `i * W`, so its value lives inside the 8-byte window at byte
/// `i * W / 8`, shifted right by `i * W % 8` — and because 8 lanes span
/// exactly `W` bytes, the offset/shift pattern repeats every 8 lanes
/// with a constant byte stride. Each iteration is two gathers, two
/// variable shifts (`vpsrlvq`), two masks, two stores: 8 lanes with no
/// loop-carried dependency.
///
/// Widths above 56 bits fall back to the portable body: their value can
/// cross a byte-anchored 8-byte window. Every gather stays in bounds
/// because callers stage `words` with one overread word past the last
/// lane's window.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi2")]
fn unpack_words_avx2<const W: usize>(words: &[u64], n: usize, out: &mut Vec<u64>) {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_i64gather_epi64, _mm256_set1_epi64x,
        _mm256_set_epi64x, _mm256_srlv_epi64, _mm256_storeu_si256,
    };
    if W > 56 {
        return unpack_words_body::<W>(words, n, out);
    }
    let mask = (1u64 << W) - 1;
    let off = |k: usize| ((k * W) / 8) as i64;
    let sh = |k: usize| ((k * W) % 8) as i64;
    let idx0 = _mm256_set_epi64x(off(3), off(2), off(1), off(0));
    let idx1 = _mm256_set_epi64x(off(7), off(6), off(5), off(4));
    let sh0 = _mm256_set_epi64x(sh(3), sh(2), sh(1), sh(0));
    let sh1 = _mm256_set_epi64x(sh(7), sh(6), sh(5), sh(4));
    let vmask = _mm256_set1_epi64x(mask as i64);
    let base = words.as_ptr() as *const i64;
    out.reserve(n);
    let start = out.len();
    let dst = out.spare_capacity_mut().as_mut_ptr() as *mut u64;
    let mut i = 0usize;
    let mut byte_base = _mm256_set1_epi64x(0);
    let stride = _mm256_set1_epi64x(W as i64);
    while i + 8 <= n {
        // SAFETY: lane `i + 7` reads 8 bytes at byte offset
        // `(i + 7) * W / 8 <= n * W / 8 <= nwords * 8`, and `words` holds
        // `nwords + 1` words, so every gathered window is in bounds.
        // `dst` has `n` spare slots reserved above.
        unsafe {
            let g0 = _mm256_i64gather_epi64::<1>(base, _mm256_add_epi64(idx0, byte_base));
            let g1 = _mm256_i64gather_epi64::<1>(base, _mm256_add_epi64(idx1, byte_base));
            let v0 = _mm256_and_si256(_mm256_srlv_epi64(g0, sh0), vmask);
            let v1 = _mm256_and_si256(_mm256_srlv_epi64(g1, sh1), vmask);
            _mm256_storeu_si256(dst.add(i) as *mut __m256i, v0);
            _mm256_storeu_si256(dst.add(i + 4) as *mut __m256i, v1);
        }
        byte_base = _mm256_add_epi64(byte_base, stride);
        i += 8;
    }
    while i < n {
        let bit = i * W;
        let word = bit / 64;
        let offw = (bit % 64) as u32;
        let pair = words[word] as u128 | ((words[word + 1] as u128) << 64);
        // SAFETY: `i < n` slots were reserved above.
        unsafe { dst.add(i).write((pair >> offw) as u64 & mask) };
        i += 1;
    }
    // SAFETY: all `n` slots from `start` were initialised above.
    unsafe { out.set_len(start + n) };
}

/// Dispatches one width-monomorphised unpack: the AVX2 clone when the CPU
/// has it, the portable body otherwise. Both compile from the same source
/// and emit identical values; the fuzz suite's dual-kernel oracle holds
/// either way.
fn unpack_words_const<const W: usize>(words: &[u64], n: usize, out: &mut Vec<u64>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: `avx2_available` verified at runtime that this CPU
        // supports every feature `unpack_words_avx2` is compiled with;
        // the function is otherwise safe code.
        unsafe { unpack_words_avx2::<W>(words, n, out) };
        return;
    }
    unpack_words_body::<W>(words, n, out)
}

/// Runs [`unpack_group_const`] over every full 64-lane group, then
/// pair-gathers the tail lanes (the staging buffer carries one overread
/// word so a tail lane may always load `words[word + 1]`).
#[inline(always)]
fn unpack_words_body<const W: usize>(words: &[u64], n: usize, out: &mut Vec<u64>) {
    let groups = n / 64;
    for g in 0..groups {
        let chunk: &[u64; W] = words[g * W..(g + 1) * W].try_into().expect("exact group");
        unpack_group_const::<W>(chunk, out);
    }
    let tail = n % 64;
    if tail > 0 {
        let mask = if W == 64 { u64::MAX } else { (1u64 << W) - 1 };
        let base = groups * 64 * W;
        out.extend((0..tail).map(|i| {
            let bit = base + i * W;
            let word = bit / 64;
            let off = (bit % 64) as u32;
            let pair = words[word] as u128 | ((words[word + 1] as u128) << 64);
            (pair >> off) as u64 & mask
        }));
    }
}

/// Expands to a `match` dispatching a runtime width to the
/// [`unpack_words_const`] instantiation for that width.
macro_rules! dispatch_unpack {
    ($w:expr, $words:expr, $n:expr, $out:expr; $($W:literal)*) => {
        match $w {
            $($W => unpack_words_const::<$W>($words, $n, $out),)*
            _ => unreachable!("width checked by caller"),
        }
    };
}

/// Word-at-a-time unpacker: stages the packed bytes into whole
/// little-endian words once, then runs the width-monomorphised group
/// kernel over them.
fn unpack_blocked(bytes: &[u8], n: usize, width: u8, out: &mut Vec<u64>) {
    if width == 0 {
        out.extend(std::iter::repeat_n(0u64, n));
        return;
    }
    let w = width as usize;
    let nwords = (n * w).div_ceil(64);
    // One block (`LANE` lanes) of 64-bit lanes plus the tail-gather
    // overread word: fits the stack for every block-stream call.
    const STAGE_WORDS: usize = LANE + 1;
    let mut stack = [0u64; STAGE_WORDS];
    let mut heap;
    let words: &mut [u64] = if nwords < STAGE_WORDS {
        &mut stack
    } else {
        heap = vec![0u64; nwords + 1];
        &mut heap
    };
    for (i, chunk) in bytes.chunks(8).enumerate().take(nwords) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        words[i] = u64::from_le_bytes(b);
    }
    dispatch_unpack!(w, words, n, out;
        1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
        17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
        33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48
        49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64);
}

/// Bit-at-a-time unpacker: the definitional inverse of [`pack_scalar`].
fn unpack_scalar(bytes: &[u8], n: usize, width: u8, out: &mut Vec<u64>) {
    out.reserve(n);
    let mut bit = 0usize;
    for _ in 0..n {
        let mut v = 0u64;
        for j in 0..width {
            if (bytes[bit / 8] >> (bit % 8)) & 1 == 1 {
                v |= 1u64 << j;
            }
            bit += 1;
        }
        out.push(v);
    }
}

/// Packs `values` at `width` bits each (values are masked to the width),
/// appending to `out`.
pub fn pack_bits_into(values: &[u64], width: u8, kernel: Kernel, out: &mut Vec<u8>) {
    debug_assert!(width <= 64);
    match kernel {
        Kernel::Blocked => pack_blocked(values, width, out),
        Kernel::Scalar => pack_scalar(values, width, out),
    }
}

/// Unpacks `n` values of `width` bits from `bytes`, appending to `out`.
/// Fails if `bytes` is shorter than [`packed_len`]`(n, width)`.
pub fn unpack_bits_into(
    bytes: &[u8],
    n: usize,
    width: u8,
    kernel: Kernel,
    out: &mut Vec<u64>,
) -> Result<(), BlockError> {
    if width > 64 {
        return Err(BlockError(format!("bit width {width} exceeds 64")));
    }
    if bytes.len() < packed_len(n, width) {
        return Err(BlockError(format!(
            "{n} lanes of {width} bits need {} bytes, have {}",
            packed_len(n, width),
            bytes.len()
        )));
    }
    match kernel {
        Kernel::Blocked => unpack_blocked(bytes, n, width, out),
        Kernel::Scalar => unpack_scalar(bytes, n, width, out),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Varint (LEB128) — the spill fallback
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Encoded length of `v` as a varint.
pub fn varint_len(v: u64) -> usize {
    (bits_needed(v) as usize).div_ceil(7).max(1)
}

/// Parses one LEB128 varint from the front of `bytes`, returning the value
/// and the encoded length. Rejects encodings longer than 10 bytes or
/// overflowing 64 bits.
#[inline]
fn varint_from(bytes: &[u8]) -> Result<(u64, usize), BlockError> {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().take(10).enumerate() {
        if i == 9 && b > 1 {
            return Err(BlockError("varint overflows 64 bits".into()));
        }
        v |= ((b & 0x7F) as u64) << (7 * i as u32);
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
    }
    Err(BlockError(if bytes.len() < 10 {
        "varint truncated".into()
    } else {
        "varint longer than 10 bytes".into()
    }))
}

/// Reads one LEB128 varint; rejects encodings longer than 10 bytes or
/// overflowing 64 bits. Scans the reader's remaining slice directly and
/// advances the cursor once, so callers pay a single bounds check per
/// varint instead of one per byte.
pub fn read_varint(r: &mut ByteReader<'_>) -> Result<u64, BlockError> {
    let (v, used) = varint_from(r.rest())?;
    r.skip(used)?;
    Ok(v)
}

// ---------------------------------------------------------------------------
// Zigzag transform
// ---------------------------------------------------------------------------

/// Maps a signed value to an unsigned one with small magnitudes staying
/// small: 0, -1, 1, -2, … → 0, 1, 2, 3, …
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Block stream: per-block max-width packing with varint spills
// ---------------------------------------------------------------------------

/// Picks the cheapest bit width for one block: lane bytes at width `w`
/// plus `(position, varint)` spill entries for every value wider than `w`.
/// Ties prefer the smaller width.
fn choose_width(block: &[u64]) -> u8 {
    let mut count = [0u32; 65];
    for &v in block {
        count[bits_needed(v) as usize] += 1;
    }
    let max_w = (0..=64).rev().find(|&w| count[w] > 0).unwrap_or(0);
    let mut best_w = max_w as u8;
    let mut best = packed_len(block.len(), max_w as u8);
    let mut spill = 0usize;
    for w in (0..max_w).rev() {
        // Values needing exactly w+1 bits start spilling at width w.
        spill += count[w + 1] as usize * (1 + (w + 1).div_ceil(7));
        let cost = packed_len(block.len(), w as u8) + spill;
        if cost <= best {
            best = cost;
            best_w = w as u8;
        }
    }
    best_w
}

/// Encodes a `u64` stream as length-prefixed blocks of [`LANE`] values,
/// each packed at its own best width with varint spills, using the
/// blocked kernel.
pub fn encode_u64s(values: &[u64]) -> Vec<u8> {
    encode_u64s_with(values, Kernel::Blocked)
}

/// [`encode_u64s`] with an explicit kernel (for benches and equivalence
/// tests). Both kernels emit identical bytes.
pub fn encode_u64s_with(values: &[u64], kernel: Kernel) -> Vec<u8> {
    // Rough pre-size: header + two meta bytes per block + ~2 bytes/value.
    let mut out = Vec::with_capacity(4 + values.len() * 2 + values.len().div_ceil(LANE) * 2);
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    let mut lanes: Vec<u64> = Vec::with_capacity(LANE);
    for block in values.chunks(LANE) {
        let w = choose_width(block);
        let spill_count = block.iter().filter(|&&v| bits_needed(v) > w).count();
        out.push(w);
        out.push(spill_count as u8);
        if spill_count == 0 {
            pack_bits_into(block, w, kernel, &mut out);
        } else {
            // Spilled slots pack as zero; their real values follow as
            // (position, varint) patches.
            lanes.clear();
            lanes.extend(block.iter().map(|&v| if bits_needed(v) > w { 0 } else { v }));
            pack_bits_into(&lanes, w, kernel, &mut out);
            for (i, &v) in block.iter().enumerate() {
                if bits_needed(v) > w {
                    out.push(i as u8);
                    write_varint(v, &mut out);
                }
            }
        }
    }
    out
}

/// Decodes a stream produced by [`encode_u64s`] with the blocked
/// kernel. Total: malformed bytes return [`BlockError`], and allocation is
/// bounded by the remaining input, not by the decoded count field.
pub(crate) fn decode_u64s(r: &mut ByteReader<'_>) -> Result<Vec<u64>, BlockError> {
    decode_u64s_with(r, Kernel::Blocked)
}

/// `decode_u64s` with an explicit kernel.
pub fn decode_u64s_with(r: &mut ByteReader<'_>, kernel: Kernel) -> Result<Vec<u64>, BlockError> {
    let n = r.read_u32_le()? as usize;
    // A full block costs at least 2 bytes for LANE values; clamp the
    // preallocation so a tampered count cannot reserve gigabytes.
    let cap = n.min(r.remaining().saturating_mul(LANE / 2).saturating_add(LANE));
    let mut out = Vec::with_capacity(cap);
    let mut done = 0usize;
    while done < n {
        let len = LANE.min(n - done);
        decode_block(r, len, kernel, &mut out)?;
        done += len;
    }
    Ok(out)
}

/// Decodes one block — width byte, spill count, packed lanes, spill
/// patches — appending its `len` values to `out`.
#[inline]
fn decode_block(
    r: &mut ByteReader<'_>,
    len: usize,
    kernel: Kernel,
    out: &mut Vec<u64>,
) -> Result<(), BlockError> {
    let w = r.read_u8()?;
    if w > 64 {
        return Err(BlockError(format!("block width {w} exceeds 64")));
    }
    let spill_count = r.read_u8()? as usize;
    if spill_count > len {
        return Err(BlockError(format!("{spill_count} spills in a {len}-value block")));
    }
    let bytes = r.read_bytes(packed_len(len, w))?;
    let start = out.len();
    unpack_bits_into(bytes, len, w, kernel, out)?;
    if spill_count > 0 {
        // Single pass over the block's spill region with a local
        // offset: one cursor advance per block, and a one-byte fast
        // path for the common short varint.
        let rest = r.rest();
        let mut off = 0usize;
        for _ in 0..spill_count {
            if off >= rest.len() {
                return Err(BlockError("spill truncated".into()));
            }
            let pos = rest[off] as usize;
            if pos >= len {
                return Err(BlockError(format!("spill position {pos} in a {len}-value block")));
            }
            off += 1;
            let (v, used) = if off < rest.len() && rest[off] < 0x80 {
                (rest[off] as u64, 1)
            } else {
                varint_from(&rest[off..])?
            };
            off += used;
            out[start + pos] = v;
        }
        r.skip(off)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Word-backed bitset
// ---------------------------------------------------------------------------

/// A fixed-length bitset stored as 64-bit words: O(1) indexing, word-level
/// population counts, and byte serialization without a `Vec<bool>` in
/// sight. Bits beyond `len` in the last word are kept zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// All-zero bitset of `len` bits.
    pub fn with_len(len: usize) -> Self {
        Bitset { words: vec![0u64; len.div_ceil(64)], len }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len` (debug and release: the index math is the
    /// bounds check).
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Reads bit `i`.
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits (word-level popcounts).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Serializes as `ceil(len / 8)` bytes, bit `i` at byte `i / 8`
    /// position `i % 8` (LSB-first — the natural word layout).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let nbytes = self.len.div_ceil(8);
        let mut out = Vec::with_capacity(nbytes);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(nbytes);
        out
    }

    /// Inverse of [`Bitset::to_le_bytes`]. Requires at least
    /// `ceil(len / 8)` bytes; extra pad bits are masked off.
    pub fn from_le_bytes(bytes: &[u8], len: usize) -> Result<Self, BlockError> {
        let nbytes = len.div_ceil(8);
        if bytes.len() < nbytes {
            return Err(BlockError(format!("{len}-bit bitmap needs {nbytes} bytes")));
        }
        let mut set = Bitset::with_len(len);
        for (j, chunk) in bytes[..nbytes].chunks(8).enumerate() {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            set.words[j] = u64::from_le_bytes(b);
        }
        set.mask_tail();
        Ok(set)
    }

    /// Deserializes the legacy MSB-first layout (`BitWriter` bitmaps: bit
    /// `i` at byte `i / 8` position `7 - i % 8`), as the pre-blocked SZ
    /// format stored bitmaps. One `reverse_bits` per byte, no per-bit loop.
    pub fn from_msb_bytes(bytes: &[u8], len: usize) -> Result<Self, BlockError> {
        let nbytes = len.div_ceil(8);
        if bytes.len() < nbytes {
            return Err(BlockError(format!("{len}-bit bitmap needs {nbytes} bytes")));
        }
        let mut set = Bitset::with_len(len);
        for (j, chunk) in bytes[..nbytes].chunks(8).enumerate() {
            let mut b = [0u8; 8];
            for (dst, src) in b.iter_mut().zip(chunk) {
                *dst = src.reverse_bits();
            }
            set.words[j] = u64::from_le_bytes(b);
        }
        set.mask_tail();
        Ok(set)
    }

    /// Serializes in the legacy MSB-first layout (inverse of
    /// [`Bitset::from_msb_bytes`]).
    pub fn to_msb_bytes(&self) -> Vec<u8> {
        let mut out = self.to_le_bytes();
        for b in &mut out {
            *b = b.reverse_bits();
        }
        out
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_needed_boundaries() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
        assert_eq!(bits_needed(u64::MAX), 64);
    }

    #[test]
    fn pack_unpack_roundtrip_both_kernels() {
        let values: Vec<u64> = (0..300u64).map(|i| i.wrapping_mul(0x9E37_79B9) % 1000).collect();
        for width in [10u8, 16, 32, 64] {
            for kernel in [Kernel::Blocked, Kernel::Scalar] {
                let mut bytes = Vec::new();
                pack_bits_into(&values, width, kernel, &mut bytes);
                assert_eq!(bytes.len(), packed_len(values.len(), width));
                let mut out = Vec::new();
                unpack_bits_into(&bytes, values.len(), width, kernel, &mut out).unwrap();
                assert_eq!(out, values, "width {width} kernel {kernel:?}");
            }
        }
    }

    #[test]
    fn kernels_are_byte_identical() {
        let values: Vec<u64> = (0..257u64).map(|i| i * i % 8191).collect();
        for width in 0u8..=64 {
            let mut a = Vec::new();
            let mut b = Vec::new();
            pack_bits_into(&values, width, Kernel::Blocked, &mut a);
            pack_bits_into(&values, width, Kernel::Scalar, &mut b);
            assert_eq!(a, b, "width {width}");
        }
    }

    #[test]
    fn zero_width_packs_to_nothing() {
        let mut bytes = Vec::new();
        pack_bits_into(&[0, 0, 0], 0, Kernel::Blocked, &mut bytes);
        assert!(bytes.is_empty());
        let mut out = Vec::new();
        unpack_bits_into(&bytes, 3, 0, Kernel::Blocked, &mut out).unwrap();
        assert_eq!(out, vec![0, 0, 0]);
    }

    #[test]
    fn unpack_validates_input() {
        let mut out = Vec::new();
        assert!(
            unpack_bits_into(&[0xFF], 3, 7, Kernel::Blocked, &mut out).is_err(),
            "needs 3 bytes"
        );
        assert!(
            unpack_bits_into(&[0xFF; 16], 1, 65, Kernel::Blocked, &mut out).is_err(),
            "width over 64"
        );
    }

    #[test]
    fn varint_roundtrip() {
        let mut out = Vec::new();
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &cases {
            out.clear();
            write_varint(v, &mut out);
            assert_eq!(out.len(), varint_len(v), "{v}");
            let mut r = ByteReader::new(&out);
            assert_eq!(read_varint(&mut r).unwrap(), v);
            assert!(r.is_empty());
        }
        // Overlong / overflowing encodings are rejected.
        assert!(read_varint(&mut ByteReader::new(&[0x80; 10])).is_err());
        let mut bad = vec![0xFFu8; 9];
        bad.push(0x02);
        assert!(read_varint(&mut ByteReader::new(&bad)).is_err());
        assert!(read_varint(&mut ByteReader::new(&[0x80])).is_err(), "truncated");
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn stream_roundtrip_with_spills() {
        // Mostly-small values with rare huge outliers: the spill path.
        let values: Vec<u64> =
            (0..1000u64).map(|i| if i % 97 == 0 { u64::MAX - i } else { i % 50 }).collect();
        for kernel in [Kernel::Blocked, Kernel::Scalar] {
            let bytes = encode_u64s_with(&values, kernel);
            // Spills keep the stream far below the 8 bytes/value of raw
            // u64s even though 1% of values need all 64 bits.
            assert!(bytes.len() < values.len() * 2, "{} bytes", bytes.len());
            let mut r = ByteReader::new(&bytes);
            assert_eq!(decode_u64s_with(&mut r, kernel).unwrap(), values);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn stream_empty_and_partial_blocks() {
        for n in [0usize, 1, 2, LANE - 1, LANE, LANE + 1, 2 * LANE + 17] {
            let values: Vec<u64> = (0..n as u64).map(|i| i % 13).collect();
            let bytes = encode_u64s(&values);
            let mut r = ByteReader::new(&bytes);
            assert_eq!(decode_u64s(&mut r).unwrap(), values, "n={n}");
        }
    }

    #[test]
    fn stream_rejects_malformed() {
        // Truncated mid-block.
        let bytes = encode_u64s(&[5u64; 300]);
        assert!(decode_u64s(&mut ByteReader::new(&bytes[..bytes.len() - 1])).is_err());
        // Hostile width.
        let mut bad = encode_u64s(&[1u64, 2, 3]);
        bad[4] = 65;
        assert!(decode_u64s(&mut ByteReader::new(&bad)).is_err());
        // Spill count larger than the block.
        let mut bad = encode_u64s(&[1u64, 2, 3]);
        bad[5] = 200;
        assert!(decode_u64s(&mut ByteReader::new(&bad)).is_err());
        // Huge count over a tiny body cannot over-allocate (bounded by
        // input) and must error out.
        let mut huge = u32::MAX.to_le_bytes().to_vec();
        huge.extend_from_slice(&[3, 0, 1]);
        assert!(decode_u64s(&mut ByteReader::new(&huge)).is_err());
    }

    #[test]
    fn all_zero_blocks_cost_two_bytes() {
        let bytes = encode_u64s(&vec![0u64; LANE * 4]);
        // 4-byte count + 4 blocks × (width byte + spill byte).
        assert_eq!(bytes.len(), 4 + 4 * 2);
    }

    #[test]
    fn bitset_basics() {
        let mut b = Bitset::with_len(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count_ones(), 3);
        assert_eq!(b.count_zeros(), 127);
        assert_eq!(Bitset::with_len(0).count_zeros(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitset_set_bounds_checked() {
        Bitset::with_len(8).set(8);
    }

    #[test]
    fn bitset_le_roundtrip() {
        let mut b = Bitset::with_len(77);
        for i in [0usize, 7, 8, 63, 64, 70, 76] {
            b.set(i);
        }
        let bytes = b.to_le_bytes();
        assert_eq!(bytes.len(), 10);
        let back = Bitset::from_le_bytes(&bytes, 77).unwrap();
        assert_eq!(back, b);
        assert!(Bitset::from_le_bytes(&bytes, 90).is_err(), "too few bytes");
        // Pad bits beyond len are masked off on read.
        let dirty = vec![0xFFu8; 2];
        let set = Bitset::from_le_bytes(&dirty, 9).unwrap();
        assert_eq!(set.count_ones(), 9);
    }

    #[test]
    fn bitset_msb_layout_matches_bitwriter() {
        // The legacy layout is exactly what BitWriter::write_bit produces.
        let bits: Vec<bool> = (0..37).map(|i| i % 3 == 0 || i % 7 == 1).collect();
        let mut w = crate::bitstream::BitWriter::new();
        let mut set = Bitset::with_len(bits.len());
        for (i, &bit) in bits.iter().enumerate() {
            w.write_bit(bit);
            if bit {
                set.set(i);
            }
        }
        let legacy = w.into_bytes();
        assert_eq!(set.to_msb_bytes(), legacy);
        let back = Bitset::from_msb_bytes(&legacy, bits.len()).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn choose_width_prefers_spills_for_outliers() {
        // 127 tiny values and one huge one: packing everyone at 64 bits
        // would cost 1024 bytes; spilling the outlier keeps width small.
        let mut block = vec![3u64; LANE - 1];
        block.push(u64::MAX);
        let w = choose_width(&block);
        assert_eq!(w, 2, "outlier must spill, not widen the block");
        // Uniform blocks take their natural width.
        assert_eq!(choose_width(&[255u64; LANE]), 8);
        assert_eq!(choose_width(&[0u64; LANE]), 0);
    }
}
