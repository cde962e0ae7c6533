#!/usr/bin/env python3
"""Median-over-processes tables from gs_microbench outputs."""
import sys, statistics as st, glob, re
from collections import defaultdict
O = sys.argv[1]
W = ["lap3d27_setup", "lap2d_solves", "reservoir_steps", "dist_weak_2r"]
data = defaultdict(list)   # (side, t, workload, level, variant) -> [ms]
shape = {}
for f in sorted(glob.glob(f"{O}/kernels_*_t*_p*.txt")):
    m = re.search(r"kernels_(\w+)_t(\d)_p(\d)", f)
    side, t = m.group(1), int(m.group(2))
    for line in open(f):
        if line.startswith("#"): continue
        parts = line.split()
        if parts[2] == "shape":
            shape[(parts[0], parts[1])] = " ".join(parts[3:])
            continue
        data[(side, t, parts[0], parts[1], parts[2])].append(float(parts[3]))
med = lambda k: st.median(data[k]) if data[k] else float("nan")
for t in (1, 2):
    print(f"\n### {t} pool thread(s), two tasks; ms, median of five processes of min of five calls\n")
    print("| operator | SpMV | parent sweep (library @ parent) | parent (copy) | (1) one loop | (1)+(2) sparse snapshot | shipped (library @ change) | bound: Jacobi reads | bound: packed | shipped / SpMV | shipped / parent |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for w in W:
        for lv in ("L0", "L1"):
            c = lambda v: med(("change", t, w, lv, v))
            spmv = st.median(data[("change", t, w, lv, "spmv")] + data[("parent", t, w, lv, "spmv")])
            plib = med(("parent", t, w, lv, "library"))
            ship = c("library")
            print(f"| {w} {lv} ({shape.get((w, lv), '')}) | {spmv:.2f} | {plib:.2f} | {c('parent'):.2f} | {c('one_loop'):.2f} | {c('one_loop_sparse'):.2f} | {ship:.2f} | {c('jacobi_reads'):.2f} | {c('packed'):.2f} | {ship/spmv:.2f} | {ship/plib:.2f} |")
# spans
sp = defaultdict(list)
for f in sorted(glob.glob(f"{O}/spans_*_p*.txt")):
    side = re.search(r"spans_(\w+)_p", f).group(1)
    seen = set()
    for line in open(f):
        if line.startswith("#"): continue
        name, ms = line.split()
        if name in seen: continue
        seen.add(name)
        sp[(side, name)].append(float(ms))
print("\n### famg-prof spans of one `lap2d_solves` solve (7 cycles), 2 pool threads; ms, median of five processes of the minimum over five solves\n")
print("| span | parent | change | change/parent |")
print("|---|---|---|---|")
names = sorted({n for (_, n) in sp})
for n in names:
    a, b = sp[("parent", n)], sp[("change", n)]
    if a and b:
        print(f"| `{n}` | {st.median(a):.2f} | {st.median(b):.2f} | {st.median(b)/st.median(a):.2f} |")
