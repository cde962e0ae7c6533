#!/usr/bin/env python3
"""Tables for results/pr32_e2e/README.md from the run sets beside this file
(or in the directory given as argument)."""
import json, sys, statistics as st
from pathlib import Path

R = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent
W = ["lap3d27_setup", "lap2d_solves", "reservoir_steps", "dist_weak_2r"]
E2E = ["setup_s", "solve_s", "tts_s", "peak_rss_mb"]
# Counts that must be the parent's, seed by seed.
EXACT = ["iterations", "comm_messages", "comm_bytes",
         "core.hierarchy.operator_complexity", "core.hierarchy.levels",
         "core.level.l0.nnz", "core.level.l1.nnz", "core.level.rest.nnz"]
# Traced per-layer readings the refresh moves.
TRACED = ["core.refresh.s", "core.refresh.over_setup", "sparse.rap_numeric.s",
          "krylov.cg_batch.s"]


def load(d, w, suffix=".jsonl"):
    p = R / d / (w + suffix)
    return [json.loads(l) for l in p.read_text().splitlines() if l.strip()]


def q(v):
    qs = st.quantiles(v, n=4)
    return qs[0], st.median(v), qs[2]


def pairs(title, side, workloads):
    print(f"## {title} (a win is change < parent in the same pair)\n")
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change/parent | change wins | parent IQR |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        pair(side, w)
    print()


def pair(side, w):
    p, c = load(side + "parent", w), load(side + "change", w)
    n = min(len(p), len(c))
    for m in E2E:
        pv = [r["metrics"][m]["value"] for r in p[:n]]
        cv = [r["metrics"][m]["value"] for r in c[:n]]
        pq, cq = q(pv), q(cv)
        wins = sum(1 for a, b in zip(pv, cv) if b < a)
        print(f"| {w} | {m} | {pq[1]:.4f} [{pq[0]:.4f}, {pq[2]:.4f}] | {cq[1]:.4f} [{cq[0]:.4f}, {cq[2]:.4f}] | {cq[1]/pq[1]:.3f} | {wins}/{n} | {pq[2]-pq[0]:.4f} |")
    print(f"| {w} | failed / attempted | {sum(r['failed'] for r in p)} / {sum(r['attempted'] for r in p)} | {sum(r['failed'] for r in c)} / {sum(r['attempted'] for r in c)} | | | |")


def per_pair(side, w, m):
    p, c = load(side + "parent", w), load(side + "change", w)
    return [(a["metrics"][m]["value"], b["metrics"][m]["value"]) for a, b in zip(p, c)]


pairs("Pairs, seeds 1-10", "", W)
pairs("Extra pairs, seeds 11-20", "extra_", ["reservoir_steps"])

print("## `peak_rss_mb` on `reservoir_steps`, pair by pair (MiB, parent / change)\n")
for title, side in [("seeds 1-10", ""), ("seeds 11-20", "extra_")]:
    cells = ", ".join(f"{a:.1f} / {b:.1f}" for a, b in per_pair(side, "reservoir_steps", "peak_rss_mb"))
    print(f"- {title}: {cells}")
print()

print("## Exact counts, traced passes seed by seed (seeds 1-3)\n")
for w in W:
    p, c = load("trace_parent", w, ".trace.jsonl"), load("trace_change", w, ".trace.jsonl")
    bad, present = [], set()
    for i in range(min(len(p), len(c))):
        for m in EXACT:
            a = p[i]["metrics"].get(m, {}).get("value")
            b = c[i]["metrics"].get(m, {}).get("value")
            if a is not None:
                present.add(m)
            if a != b:
                bad.append((m, i + 1, a, b))
    print(f"{w}: compared {sorted(present)}; mismatches: {bad if bad else 'none'}")
print()

print("## Traced passes, medians of three (parent → change)\n")
print("| workload | " + " | ".join(f"`{m}`" for m in TRACED) + " |")
print("|---|" + "---|" * len(TRACED))
for w in W:
    p, c = load("trace_parent", w, ".trace.jsonl"), load("trace_change", w, ".trace.jsonl")
    cells = []
    for m in TRACED:
        pv = [r["metrics"][m]["value"] for r in p if m in r["metrics"]]
        cv = [r["metrics"][m]["value"] for r in c if m in r["metrics"]]
        cells.append(f"{st.median(pv):.4f} → {st.median(cv):.4f}" if pv and cv else "—")
    print(f"| {w} | " + " | ".join(cells) + " |")
