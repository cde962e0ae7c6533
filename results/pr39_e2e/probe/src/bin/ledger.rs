//! Extended+i visit counts per level of one `Hierarchy::build` on each
//! operator: `interp_entries_visited` (the `CoarseView` entries the
//! distance-2 sweeps read) beside `interp_abar_scanned` (the columns the
//! search for `a_ki` compares), and the `interp@l` span. Run as
//! `RAYON_NUM_THREADS=<t> ledger`.
use famg_core::Hierarchy;
use pr39_probe::{config, operators};

fn main() {
    let cfg = config();
    for (name, a) in operators(None) {
        drop(Hierarchy::build(&a, &cfg));
        let h = Hierarchy::build(&a, &cfg);
        let root = h.profile.find_root("setup").expect("setup span");
        root.visit(&mut |s| {
            if s.name == "interp" {
                let count = |c: &str| s.counters.get(c).copied().unwrap_or(0);
                let (visited, scanned) =
                    (count("interp_entries_visited"), count("interp_abar_scanned"));
                println!(
                    "{name} interp@{}: {:.1} ms, visited {visited}, abar scanned {scanned} \
                     ({:.2} x visited)",
                    s.level,
                    s.wall.as_secs_f64() * 1e3,
                    scanned as f64 / visited.max(1) as f64
                );
            }
        });
    }
}
