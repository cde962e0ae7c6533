#!/usr/bin/env python3
"""Tables for results/pr42_e2e/README.md from the run sets beside this file
(or in the directory given as argument): `parent/`, `change/` (seeds 1-10,
`--trace 0`) and `trace_parent/`, `trace_change/` (`--trace 1`)."""
import json, sys, statistics as st
from pathlib import Path

R = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent
W = ["lap3d27_setup", "lap2d_solves", "reservoir_steps", "dist_weak_2r"]
E2E = ["setup_s", "solve_s", "tts_s", "peak_rss_mb"]
# Counts that must be the parent's, seed by seed.
EXACT = ["iterations", "dist.comm.solve_messages", "dist.comm.solve_bytes",
         "core.hierarchy.operator_complexity", "core.hierarchy.levels",
         "core.level.l0.nnz", "core.level.l1.nnz", "core.level.rest.nnz"]
# Counts this change moves on purpose: the setup's, and the run totals
# (`comm_*`, setup plus solve on `dist_weak_2r`) by as much.
MOVED = ["dist.comm.setup_messages", "dist.comm.setup_bytes", "comm_messages", "comm_bytes"]
SPANS = ["dist.hierarchy.build.s"]


def load(d, w, suffix=".jsonl"):
    p = R / d / (w + suffix)
    if not p.exists():
        return []
    return [json.loads(l) for l in p.read_text().splitlines() if l.strip()]


def q(v):
    qs = st.quantiles(v, n=4)
    return qs[0], st.median(v), qs[2]


for pd, cd, title in [("parent", "change", "seeds 1-10"),
                      ("parent_11_20", "change_11_20", "seeds 11-20")]:
    if not (R / pd).exists():
        continue
    print(f"## Pairs, {title} (a win is change < parent in the same pair)\n")
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change/parent | change wins | parent IQR |")
    print("|---|---|---|---|---|---|---|")
    for w in W:
        p, c = load(pd, w), load(cd, w)
        n = min(len(p), len(c))
        if n == 0:
            continue
        for m in E2E:
            pv = [r["metrics"][m]["value"] for r in p[:n]]
            cv = [r["metrics"][m]["value"] for r in c[:n]]
            pq, cq = q(pv), q(cv)
            wins = sum(1 for a, b in zip(pv, cv) if b < a)
            print(f"| {w} | {m} | {pq[1]:.4f} [{pq[0]:.4f}, {pq[2]:.4f}] | {cq[1]:.4f} [{cq[0]:.4f}, {cq[2]:.4f}] | {cq[1]/pq[1]:.3f} | {wins}/{n} | {pq[2]-pq[0]:.4f} |")
        print(f"| {w} | failed / attempted | {sum(r['failed'] for r in p)} / {sum(r['attempted'] for r in p)} | {sum(r['failed'] for r in c)} / {sum(r['attempted'] for r in c)} | | | |")
    print()

print("## Exact counts, traced passes seed by seed\n")
for w in W:
    p, c = load("trace_parent", w, ".trace.jsonl"), load("trace_change", w, ".trace.jsonl")
    bad, present, moved = [], set(), {}
    for i in range(min(len(p), len(c))):
        for m in EXACT:
            a = p[i]["metrics"].get(m, {}).get("value")
            b = c[i]["metrics"].get(m, {}).get("value")
            if a is not None:
                present.add(m)
            if a != b:
                bad.append((m, i + 1, a, b))
        for m in MOVED + SPANS:
            a = p[i]["metrics"].get(m, {}).get("value")
            b = c[i]["metrics"].get(m, {}).get("value")
            if a is not None:
                moved.setdefault(m, []).append((a, b))
    print(f"- {w}: {len(p)} / {len(c)} passes; compared {', '.join(sorted(present))}; mismatches: {bad if bad else 'none'}")
    for m, pairs in moved.items():
        print(f"  - {m} (parent → change, per seed): " + ", ".join(f"{a:.6g} → {b:.6g}" if "build" in m else f"{a:.0f} → {b:.0f}" for a, b in pairs))
