//! Spectral analysis: an iterative radix-2 FFT and the spectral-entropy
//! characteristic (`entropy` in tsfeatures).

use tsdata::stats::mean;

/// In-place iterative radix-2 Cooley–Tukey FFT over interleaved
/// `(re, im)` pairs.
///
/// # Panics
/// Panics if the number of complex points is not a power of two.
fn fft(buf: &mut [(f64, f64)]) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            buf.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -std::f64::consts::TAU / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let mut cur = (1.0, 0.0);
            for k in 0..len / 2 {
                let (ar, ai) = buf[start + k];
                let (br, bi) = buf[start + k + len / 2];
                let tr = br * cur.0 - bi * cur.1;
                let ti = br * cur.1 + bi * cur.0;
                buf[start + k] = (ar + tr, ai + ti);
                buf[start + k + len / 2] = (ar - tr, ai - ti);
                cur = (cur.0 * wr - cur.1 * wi, cur.0 * wi + cur.1 * wr);
            }
        }
        len *= 2;
    }
}

/// One-sided periodogram of a real series (zero-padded to a power of two,
/// mean removed). Returns power at frequencies `1..n/2`.
fn periodogram(x: &[f64]) -> Vec<f64> {
    if x.len() < 4 {
        return Vec::new();
    }
    let m = mean(x);
    let n = x.len().next_power_of_two();
    let mut buf: Vec<(f64, f64)> =
        (0..n).map(|i| if i < x.len() { (x[i] - m, 0.0) } else { (0.0, 0.0) }).collect();
    fft(&mut buf);
    (1..n / 2).map(|k| buf[k].0 * buf[k].0 + buf[k].1 * buf[k].1).collect()
}

/// Normalized spectral entropy in `[0, 1]`: Shannon entropy of the
/// normalized periodogram divided by `ln(#frequencies)`. Near 1 for white
/// noise, near 0 for a pure tone.
pub(crate) fn spectral_entropy(x: &[f64]) -> f64 {
    let p = periodogram(x);
    let total: f64 = p.iter().sum();
    if p.len() < 2 || total <= 0.0 {
        return 1.0;
    }
    let h: f64 = p
        .iter()
        .filter(|&&v| v > 0.0)
        .map(|&v| {
            let q = v / total;
            -q * q.ln()
        })
        .sum();
    (h / (p.len() as f64).ln()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![(0.0, 0.0); 8];
        buf[0] = (1.0, 0.0);
        fft(&mut buf);
        for &(re, im) in &buf {
            assert!((re - 1.0).abs() < 1e-12 && im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_cosine_concentrates() {
        let n = 64;
        let mut buf: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i as f64 * std::f64::consts::TAU * 4.0 / n as f64).cos(), 0.0))
            .collect();
        fft(&mut buf);
        // Energy at bins 4 and n-4 only.
        let mag: Vec<f64> = buf.iter().map(|(r, i)| (r * r + i * i).sqrt()).collect();
        assert!(mag[4] > 10.0 && mag[60] > 10.0);
        for (k, &m) in mag.iter().enumerate() {
            if k != 4 && k != 60 {
                assert!(m < 1e-9, "bin {k} has {m}");
            }
        }
    }

    #[test]
    fn fft_parseval() {
        let x: Vec<f64> = (0..32).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let mut buf: Vec<(f64, f64)> = x.iter().map(|&v| (v, 0.0)).collect();
        fft(&mut buf);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 = buf.iter().map(|(r, i)| r * r + i * i).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        fft(&mut [(0.0, 0.0); 6]);
    }

    #[test]
    fn entropy_separates_tone_from_noise() {
        let tone: Vec<f64> =
            (0..1024).map(|i| (i as f64 / 16.0 * std::f64::consts::TAU).sin()).collect();
        let mut state = 99u64;
        let noise: Vec<f64> = (0..1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let e_tone = spectral_entropy(&tone);
        let e_noise = spectral_entropy(&noise);
        assert!(e_tone < 0.3, "tone entropy {e_tone}");
        assert!(e_noise > 0.8, "noise entropy {e_noise}");
    }

    #[test]
    fn entropy_of_tiny_input_is_one() {
        assert_eq!(spectral_entropy(&[1.0, 2.0]), 1.0);
        assert_eq!(spectral_entropy(&[0.0; 10]), 1.0);
    }
}
