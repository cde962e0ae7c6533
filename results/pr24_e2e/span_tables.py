#!/usr/bin/env python3
"""Prints the span tables of README.md / EXPERIMENTS.md from spans/*.txt:
per operator and pool size, the median over the three processes of each
side's per-process median (ms), parent beside change."""
import glob, os, re, statistics, sys

here = os.path.dirname(os.path.abspath(__file__))
ROWS = ["wall", "root", "root - sum(stages)", "gap@start", "gap@0", "gap@1",
        "strength@0", "coarsen@0", "interp@0", "cf_reorder@0", "extract_p@0",
        "rap@0", "smoother_setup@0", "capture@0",
        "strength@1", "coarsen@1", "interp@1", "cf_reorder@1", "extract_p@1",
        "rap@1", "smoother_setup@1", "capture@1"]

def parse(path):
    out, title = {}, None
    for line in open(path):
        m = re.match(r"## (.*?): wall ([0-9.]+) ms", line)
        if m:
            title = m.group(1)
            out[title] = {"wall": float(m.group(2))}
        elif title and re.match(r"\S", line) and not line.startswith("pool"):
            k, v = line.rsplit(None, 1)
            out[title][k.strip()] = float(v)
    return out

def side(name, t):
    runs = [parse(p) for p in sorted(glob.glob(f"{here}/spans/{name}_t{t}_*.txt"))]
    med = {}
    for title in runs[0]:
        keys = set().union(*(r[title] for r in runs))
        med[title] = {k: statistics.median(r[title].get(k, 0.0) for r in runs) for k in keys}
    return med, len(runs)

for t in (2, 1):
    (par, npar), (chg, nchg) = side("parent", t), side("change", t)
    print(f"\n### {t} pool thread(s) ({npar} + {nchg} processes, median of five builds each)\n")
    titles = list(par)
    print("| span (ms) | " + " | ".join(f"{x.split(' operator')[0]} parent | change | ratio" for x in titles) + " |")
    print("|---|" + "---|" * (3 * len(titles)))
    for row in ROWS:
        cells = []
        for title in titles:
            a, b = par[title].get(row), chg[title].get(row)
            if a is None and b is None:
                cells += ["", "", ""]
            else:
                a, b = a or 0.0, b or 0.0
                cells += [f"{a:.1f}", f"{b:.1f}", f"{b / a:.2f}" if a > 0.05 else ""]
        if any(cells):
            print(f"| `{row}` | " + " | ".join(cells) + " |")
