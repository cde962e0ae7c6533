#!/usr/bin/env python3
"""Span table for results/pr21_e2e/README.md: median over the processes in
`spans/` of each process's median (`spans.rs` prints those), parent vs change."""
import sys, statistics as st
from pathlib import Path

R = Path(sys.argv[1])
KEEP = {
    "wall": ["setup", "setup_refreshable", "refresh"],
    "spans of setup": ["interp@0", "interp@1", "interp@2"],
    "spans of setup_refreshable": ["interp@0", "interp@1", "interp@2", "capture@0", "capture@1", "capture@2"],
    "spans of refresh": ["interp@0", "interp@1", "interp@2", "extract_p@0", "extract_p@1", "extract_p@2"],
}

def parse(path):
    out, section = {}, "wall"
    for line in path.read_text().splitlines()[1:]:
        f = line.split()
        if line.startswith("wall "):
            out[("wall", f[1])] = float(f[2])
        elif line.startswith("spans of"):
            section = line.strip()
        else:
            out[(section, f[0])] = float(f[1])
    return out

for op in ["reservoir_steps", "lap3d27_setup"]:
    sides = {}
    for side in ("parent", "change"):
        runs = [parse(p) for p in sorted(R.glob(f"{side}_{op}_*.txt"))]
        sides[side] = (runs, len(runs))
    n = sides["parent"][1]
    print(f"\n### `{op}` operator, ms — median of {n} processes per side (each the median of 5 passes)\n")
    print("| of | span | parent | change | change − parent | per process: parent ‖ change |")
    print("|---|---|---|---|---|---|")
    for section, names in KEEP.items():
        for name in names:
            pv = [r[(section, name)] for r in sides["parent"][0]]
            cv = [r[(section, name)] for r in sides["change"][0]]
            p, c = st.median(pv), st.median(cv)
            what = section.replace("spans of ", "")
            raw = " ".join(f"{x:.1f}" for x in pv) + " ‖ " + " ".join(f"{x:.1f}" for x in cv)
            print(f"| {what} | `{name}` | {p:.1f} | {c:.1f} | {c - p:+.1f} | {raw} |")
