//! Per-stream tape sizes: builds each operator's frozen setup and prints,
//! per tape level, each stream's entry count and heap bytes, beside what
//! the same entries took in the 32-bit streams this tape replaced (row
//! counts 5 × 4 B a row, a diagonal term 4 B, a direct term 8 B, a
//! neighbour op 12 B, a distribution term 8 B, an emitted weight 4 B and
//! a 1-byte kept flag; the `*_ptr` arrays' leading zero per part left
//! out). Needs the accessors of `stream_bytes.patch` (applied to a copy of
//! the tree with `git apply`); run as `stream_bytes`.
use famg_core::Hierarchy;
use pr39_probe::{config, operators};

/// Bytes an entry of each stream took in the 32-bit tape.
fn u32_width(stream: &str) -> f64 {
    match stream {
        "rows" => 20.0,
        "diag" => 4.0,
        "direct" | "dist" => 8.0,
        "neighbour" => 12.0,
        "emit" => 5.0,
        other => panic!("unknown stream {other}"),
    }
}

fn mib(b: f64) -> f64 {
    b / (1 << 20) as f64
}

fn main() {
    let cfg = config();
    for (name, a) in operators(None) {
        let (_h, frozen) = Hierarchy::build_frozen(&a, &cfg);
        let mut total = std::collections::BTreeMap::<&str, (usize, usize)>::new();
        for (l, tape) in frozen.tapes().into_iter().enumerate() {
            let Some(tape) = tape else {
                println!("{name} level {l}: no tape");
                continue;
            };
            let streams = tape.streams();
            let (old, new): (f64, usize) = streams
                .iter()
                .map(|&(s, n, b)| (n as f64 * u32_width(s), b))
                .fold((0.0, 0), |(o, b), (x, y)| (o + x, b + y));
            println!("{name} level {l}: {:.1} -> {:.1} MiB", mib(old), mib(new as f64));
            for (s, n, b) in streams {
                let t = total.entry(s).or_default();
                (t.0, t.1) = (t.0 + n, t.1 + b);
            }
        }
        let (mut old, mut new) = (0.0, 0.0);
        for (s, (n, b)) in &total {
            let o = *n as f64 * u32_width(s);
            (old, new) = (old + o, new + *b as f64);
            println!(
                "{name} {s:>9}: {n:>9} entries, {:>6.1} -> {:>6.1} MiB",
                mib(o),
                mib(*b as f64)
            );
        }
        println!("{name} all tapes: {:.1} -> {:.1} MiB", mib(old), mib(new));
    }
}
