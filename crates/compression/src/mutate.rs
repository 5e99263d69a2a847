//! Deterministic corpus mutation for the decode-totality fuzz harness.
//!
//! The workspace has no fuzzer dependency (hermetic build), so this module
//! provides the next best thing: a seeded, reproducible stream of hostile
//! byte buffers derived from *valid* encoded corpora. Every mutation a
//! seed produces is a pure function of that seed, so a failure reported by
//! CI (`tests/fuzz_decode.rs`, `evalcore`'s artifact fuzz) replays locally
//! from the seed alone.
//!
//! The mutation classes mirror how checkpoint bytes actually go bad in
//! production — torn writes (truncation), bit rot (bit flips), buggy
//! writers (length-field tampering) — plus cross-codec splicing, which
//! feeds one codec's valid output into another codec's decoder.

/// A 64-bit linear congruential generator (Knuth's MMIX multiplier).
///
/// Not statistically strong, deliberately: it is tiny, dependency-free,
/// and — unlike `rand` — identical on every platform and toolchain, which
/// is what makes the fuzz suite's CI seed sweep reproducible.
#[derive(Debug, Clone)]
pub struct Lcg64 {
    state: u64,
}

impl Lcg64 {
    /// Creates a generator from a seed (any value, including 0).
    pub fn new(seed: u64) -> Self {
        // Scramble the seed so small seeds do not start in a low-entropy
        // regime of the LCG.
        Lcg64 { state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03 }
    }

    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // The high bits of an LCG are the strong ones; fold them down.
        self.state ^ (self.state >> 33)
    }

    /// Uniform value in `0..bound` (`bound` = 0 returns 0).
    pub fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            return 0;
        }
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform byte.
    fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }
}

/// The mutation classes the harness sweeps. `Splice` needs a second
/// corpus buffer, so `mutate` takes the whole corpus and picks donors
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Drop a random-length tail (torn read / partial write).
    Truncate,
    /// Flip 1–8 random bits (bit rot).
    BitFlip,
    /// Overwrite a random aligned 4-byte window with an extreme LE value
    /// (length-field tampering: huge counts, zero counts, sign garbage).
    LengthTamper,
    /// Replace a random span with a span from another corpus entry
    /// (cross-codec / cross-version splicing).
    Splice,
    /// Overwrite a random span with random bytes (general corruption).
    Scramble,
}

/// All mutation classes, in sweep order.
pub const ALL_MUTATIONS: [Mutation; 5] = [
    Mutation::Truncate,
    Mutation::BitFlip,
    Mutation::LengthTamper,
    Mutation::Splice,
    Mutation::Scramble,
];

/// Extreme 32-bit values to plant in length fields: the decoder must
/// neither panic nor allocate proportionally to them.
const TAMPER_VALUES: [u32; 6] = [u32::MAX, u32::MAX - 1, 0x7FFF_FFFF, 0x0100_0000, 0, 1];

/// Produces one mutated buffer from `corpus[target]` using `rng`.
///
/// The result is never byte-identical to the source unless the corpus
/// entry is empty. `corpus` must be non-empty; `target` is an index into
/// it.
fn mutate(corpus: &[Vec<u8>], target: usize, kind: Mutation, rng: &mut Lcg64) -> Vec<u8> {
    let mut buf = corpus[target].clone();
    match kind {
        Mutation::Truncate => {
            let keep = rng.below(buf.len() + 1).saturating_sub(1);
            buf.truncate(keep);
        }
        Mutation::BitFlip => {
            if !buf.is_empty() {
                for _ in 0..1 + rng.below(8) {
                    let bit = rng.below(buf.len() * 8);
                    buf[bit / 8] ^= 1 << (bit % 8);
                }
            }
        }
        Mutation::LengthTamper => {
            if buf.len() >= 4 {
                let at = rng.below(buf.len() - 3);
                let v = TAMPER_VALUES[rng.below(TAMPER_VALUES.len())];
                buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
            } else {
                buf.extend_from_slice(&u32::MAX.to_le_bytes());
            }
        }
        Mutation::Splice => {
            let donor = &corpus[rng.below(corpus.len())];
            if donor.is_empty() || buf.is_empty() {
                buf.extend_from_slice(donor);
            } else {
                let cut = rng.below(buf.len());
                let from = rng.below(donor.len());
                buf.truncate(cut);
                buf.extend_from_slice(&donor[from..]);
            }
        }
        Mutation::Scramble => {
            if buf.is_empty() {
                buf.extend((0..4 + rng.below(32)).map(|_| rng.byte()));
            } else {
                let at = rng.below(buf.len());
                let len = (1 + rng.below(16)).min(buf.len() - at);
                for b in &mut buf[at..at + len] {
                    *b = rng.byte();
                }
            }
        }
    }
    buf
}

/// Runs `check` over `rounds` mutations per corpus entry per mutation
/// class, deterministically from `seed`. `check` receives the mutated
/// bytes and a human-readable case label to embed in assertion messages.
/// Returns the total number of mutated buffers exercised.
pub fn sweep(
    corpus: &[Vec<u8>],
    seed: u64,
    rounds: usize,
    mut check: impl FnMut(&[u8], &str),
) -> usize {
    let mut rng = Lcg64::new(seed);
    let mut total = 0;
    for kind in ALL_MUTATIONS {
        for target in 0..corpus.len() {
            for round in 0..rounds {
                let buf = mutate(corpus, target, kind, &mut rng);
                let label = format!("seed={seed} kind={kind:?} target={target} round={round}");
                check(&buf, &label);
                total += 1;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic_and_covers_bytes() {
        let a: Vec<u64> = {
            let mut r = Lcg64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Lcg64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = Lcg64::new(7);
        let mut seen = [false; 256];
        for _ in 0..20_000 {
            seen[r.byte() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every byte value reachable");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Lcg64::new(1);
        for bound in [1usize, 2, 7, 100] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn mutations_are_reproducible() {
        let corpus = vec![vec![1u8; 64], (0..128u8).collect()];
        for kind in ALL_MUTATIONS {
            let x = mutate(&corpus, 0, kind, &mut Lcg64::new(99));
            let y = mutate(&corpus, 0, kind, &mut Lcg64::new(99));
            assert_eq!(x, y, "{kind:?} must be a pure function of the seed");
        }
    }

    #[test]
    fn truncate_shortens_and_tamper_plants_extremes() {
        let corpus = vec![vec![0xAAu8; 100]];
        let mut rng = Lcg64::new(3);
        let t = mutate(&corpus, 0, Mutation::Truncate, &mut rng);
        assert!(t.len() < 100);
        let mut planted = false;
        for round in 0..50 {
            let m = mutate(&corpus, 0, Mutation::LengthTamper, &mut Lcg64::new(round));
            assert_eq!(m.len(), 100);
            planted |= m.windows(4).any(|w| w == u32::MAX.to_le_bytes());
        }
        assert!(planted, "the extreme-count value must appear in the sweep");
    }

    #[test]
    fn sweep_counts_cases() {
        let corpus = vec![vec![1u8; 32], vec![2u8; 32], vec![3u8; 32]];
        let mut calls = 0;
        let total = sweep(&corpus, 11, 4, |buf, label| {
            calls += 1;
            assert!(!label.is_empty());
            let _ = buf;
        });
        assert_eq!(total, ALL_MUTATIONS.len() * corpus.len() * 4);
        assert_eq!(calls, total);
    }
}
