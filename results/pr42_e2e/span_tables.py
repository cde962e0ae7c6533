#!/usr/bin/env python3
"""Rank 0's `rap@l` spans of the two-rank `dist_weak_2r` build, from the
dist_spans outputs in `spans/` beside this file (or in the directory given):
`{parent,change}_<k>.txt` are the probe on the two trees as committed,
`inst_{parent,change}_<k>.txt` the probe on copies with temporary spans
inside the distributed RAP. Each cell is the median over processes of the
per-process median of five builds, ms."""
import re, sys, statistics as st
from pathlib import Path

R = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent
TITLE = "dist 2 ranks, rank 0"


def parse(path):
    """The rank-0 build's wall and `name -> ms` map."""
    spans, wall, on = {}, None, False
    for line in path.read_text().splitlines():
        m = re.match(r"## (.*): wall ([0-9.]+) ms", line)
        if m:
            on = m.group(1).startswith(TITLE)
            wall = float(m.group(2)) if on else wall
            continue
        m = re.match(r"(\S+)\s+([0-9.]+)$", line)
        if m and on:
            spans[m.group(1)] = float(m.group(2))
    return wall, spans


def runs(side):
    return [parse(f) for f in sorted((R / "spans").glob(f"{side}_*.txt"))]


def med(rs, key):
    vals = [s.get(key, 0.0) for _, s in rs]
    return st.median(vals)


plain = {side: runs(side) for side in ["parent", "change"]}
print("## rank 0, `rap@l` (probe on the committed trees)\n")
print("| span | parent | change | change/parent |")
print("|---|---|---|---|")
levels = sorted({k for _, s in plain["parent"] for k in s if re.fullmatch(r"rap@\d+", k)})
for k in levels + ["rap (all levels)", "build, wall"]:
    if k == "build, wall":
        p, c = (st.median(w for w, _ in plain[x]) for x in ["parent", "change"])
    elif k.startswith("rap ("):
        p, c = (sum(med(plain[x], l) for l in levels) for x in ["parent", "change"])
    else:
        p, c = med(plain["parent"], k), med(plain["change"], k)
    print(f"| {k} | {p:.2f} | {c:.2f} | {c / p:.3f} |")
print()

inst = {side: runs(f"inst_{side}") for side in ["parent", "change"]}
print("## rank 0, `rap@0` split (probe on copies with temporary spans)\n")
print("| part | parent | change |")
print("|---|---|---|")
parts = {
    "transpose": (["transpose"], ["transpose"]),
    "gathers (partition check, A rows, P rows, renumber, extended operands)":
        (["gather"], ["g_part", "g_rloc", "g_a", "g_reach", "g_p"]),
    "kernel (two `spgemm`s / `rap_row_fused`)": (["kernel"], ["kernel"]),
    "row sorts": (["sort"], []),
    "split (`from_local`)": (["split"], ["split"]),
}
for label, (pk, ck) in parts.items():
    p = sum(med(inst["parent"], f"rap@0/{k}") for k in pk)
    c = sum(med(inst["change"], f"rap@0/{k}") for k in ck)
    print(f"| {label} | {p:.2f} | {c:.2f} |")
p, c = med(inst["parent"], "rap@0"), med(inst["change"], "rap@0")
print(f"| **rap@0** | **{p:.2f}** | **{c:.2f}** ({c / p:.3f} ×) |")
print()
print("change, gathers in detail: " + ", ".join(
    f"{k[6:]} {med(inst['change'], k):.2f}" for k in sorted(inst["change"][0][1])
    if k.startswith("rap@0/g")))
