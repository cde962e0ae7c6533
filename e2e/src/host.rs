//! What the host is: cores, last-level cache, free memory, peak RSS and
//! the two STREAM-triad bandwidth references.

use rayon::prelude::*;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Parses a sysfs cache size such as `32K`, `2048K` or `260M`.
fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// Size in bytes of cpu0's largest data or unified cache; 32 MiB when
/// sysfs does not say (containers sometimes hide it).
pub fn llc_bytes() -> usize {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best = 0;
    for idx in 0..8 {
        let read = |f: &str| fs::read_to_string(format!("{dir}/index{idx}/{f}")).ok();
        let Some(size) = read("size").as_deref().and_then(parse_size) else {
            continue;
        };
        if read("type").is_some_and(|t| t.trim() == "Instruction") {
            continue;
        }
        best = best.max(size);
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// A `kB` field of a `/proc` status file, in bytes.
fn proc_kb(path: &str, key: &str) -> Option<usize> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb << 10)
}

/// `MemAvailable`, in bytes (8 GiB assumed when `/proc` is unreadable).
pub fn mem_available() -> usize {
    proc_kb("/proc/meminfo", "MemAvailable:").unwrap_or(8 << 30)
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    proc_kb("/proc/self/status", "VmHWM:").map(|b| b as f64 / f64::from(1 << 20))
}

/// STREAM triad `a = b + s*c` over three arrays of `len` doubles on the
/// process's pool; best of `passes`, in GB/s (3 × 8 bytes per element).
pub fn triad_gbs(len: usize, passes: usize) -> f64 {
    const CHUNK: usize = 1 << 16;
    // Zeroed pages come lazily; the pool's threads fault them in together
    // (a single-threaded fill of gigabytes costs more than the triads).
    let filled = |v: f64| {
        let mut x = vec![0.0f64; len];
        x.par_chunks_mut(CHUNK).for_each(|chunk| chunk.fill(v));
        x
    };
    let (mut a, b, c) = (filled(0.5), filled(1.0), filled(2.0));
    let mut best = f64::MAX;
    for _ in 0..passes {
        let t = Instant::now();
        a.par_chunks_mut(CHUNK).enumerate().for_each(|(i, chunk)| {
            let off = i * CHUNK;
            let (bs, cs) = (&b[off..off + chunk.len()], &c[off..off + chunk.len()]);
            for ((ai, bi), ci) in chunk.iter_mut().zip(bs).zip(cs) {
                *ai = bi + 3.0 * ci;
            }
        });
        black_box(a[len / 2]);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (3 * 8 * len) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("32K\n"), Some(32 << 10));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn triad_is_positive() {
        assert!(triad_gbs(1 << 12, 2) > 0.0);
    }
}
