#!/usr/bin/env python3
"""Per-stage span table from the dist_spans probe outputs in a directory
(`spans/<side>_<k>.txt`): for each build, the median over processes of each
stage's per-process median, levels summed."""
import re, sys, statistics as st
from collections import defaultdict
from pathlib import Path

R = Path(sys.argv[1])
STAGES = ["strength", "coarsen", "coarsen/spgemm", "interp", "rap", "halo_plan", "coarse",
          "cf_reorder", "extract_p", "smoother_setup"]

def parse(path):
    builds, cur = {}, None
    for line in path.read_text().splitlines():
        m = re.match(r"## (.*): wall ([0-9.]+) ms, level_rows (.*)", line)
        if m:
            cur = builds.setdefault(m.group(1), {"wall": float(m.group(2)), "rows": m.group(3),
                                                 "spans": defaultdict(float), "lv": {}})
            continue
        m = re.match(r"(\S+)\s+([0-9.]+)$", line)
        if m and cur is not None:
            name, v = m.group(1), float(m.group(2))
            cur["lv"][name] = v
            parts = name.split("/")
            key = "/".join(re.sub(r"@\d+", "", p) for p in parts)
            cur["spans"][key] += v
    return builds

for side in ["parent", "change"]:
    files = sorted((R / "spans").glob(f"{side}_*.txt"))
    runs = [parse(f) for f in files]
    print(f"## {side} ({len(files)} processes)\n")
    titles = list(runs[0].keys())
    print("| build | wall | " + " | ".join(STAGES) + " |")
    print("|---|---|" + "---|" * len(STAGES))
    for t in titles:
        wall = st.median(r[t]["wall"] for r in runs)
        cells = []
        for s in STAGES:
            vals = [r[t]["spans"].get(s) for r in runs]
            cells.append("" if vals[0] is None else f"{st.median(vals):.1f}")
        print(f"| {t} | {wall:.1f} | " + " | ".join(cells) + " |")
    print()
    t = titles[0]
    keys = [k for k in runs[0][t]["lv"] if re.match(r"(interp|rap|strength|coarsen)@\d+$", k)]
    print(f"{t}, per level: " + ", ".join(f"{k} {st.median(r[t]['lv'][k] for r in runs):.1f}" for k in keys))
    print()
