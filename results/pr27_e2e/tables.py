#!/usr/bin/env python3
"""Tables for results/pr27_e2e/README.md from the run sets beside this file
(or in the directory given as argument)."""
import json, sys, statistics as st
from pathlib import Path

R = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent
W = ["lap3d27_setup", "lap2d_solves", "reservoir_steps", "dist_weak_2r"]
E2E = ["setup_s", "solve_s", "tts_s", "peak_rss_mb"]
# Counts that must be the parent's, seed by seed.
EXACT = ["iterations", "core.solver.iterations", "krylov.cg_batch.iterations",
         "core.hierarchy.levels", "core.hierarchy.operator_complexity",
         "core.hierarchy.grid_complexity",
         "core.level.l0.nnz", "core.level.l1.nnz", "core.level.rest.nnz",
         "core.solver.flops", "comm_messages", "comm_bytes"]
TRACE = ["core.refresh.s", "core.refresh.over_setup", "sparse.rap_numeric.s",
         "core.interp.s", "core.smoother_setup.s", "sparse.rap.s",
         "krylov.cg_batch.s", "pool.speedup.setup", "dist.hierarchy.build.s"]

def load(d, w, suffix=".jsonl"):
    p = R / d / (w + suffix)
    return [json.loads(l) for l in p.read_text().splitlines() if l.strip()]

def q(v):
    qs = st.quantiles(v, n=4)
    return qs[0], st.median(v), qs[2]

def g(x):
    return f"{x:.4g}"

print("## Pairs (ten per workload; a win is change < parent in the same pair)\n")
print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change/parent | change wins | parent IQR |")
print("|---|---|---|---|---|---|---|")
for w in W:
    p, c = load("parent", w), load("change", w)
    n = min(len(p), len(c))
    for m in E2E:
        pv = [r["metrics"][m]["value"] for r in p[:n]]
        cv = [r["metrics"][m]["value"] for r in c[:n]]
        pq, cq = q(pv), q(cv)
        wins = sum(1 for a, b in zip(pv, cv) if b < a)
        print(f"| {w} | {m} | {pq[1]:.4f} [{pq[0]:.4f}, {pq[2]:.4f}] | {cq[1]:.4f} [{cq[0]:.4f}, {cq[2]:.4f}] | {cq[1]/pq[1]:.3f} | {wins}/{n} | {pq[2]-pq[0]:.4f} |")
    print(f"| {w} | failed / attempted | {sum(r['failed'] for r in p)} / {sum(r['attempted'] for r in p)} | {sum(r['failed'] for r in c)} / {sum(r['attempted'] for r in c)} | | | |")

print("\n## Exact counts (end-to-end runs: all ten seeds; traced passes: seeds 1-3)\n")
for w in W:
    bad = []
    for d, suffix in (("", ".jsonl"), ("trace_", ".trace.jsonl")):
        p, c = load(d + "parent", w, suffix), load(d + "change", w, suffix)
        n = min(len(p), len(c))
        for m in EXACT:
            for i in range(n):
                a = p[i]["metrics"].get(m, {}).get("value")
                b = c[i]["metrics"].get(m, {}).get("value")
                if a != b:
                    bad.append((m, i + 1, a, b))
        if d:
            vals = {m: p[0]["metrics"].get(m, {}).get("value") for m in EXACT}
            fp = sum(r["failed"] for r in p), sum(r["attempted"] for r in p)
            fc = sum(r["failed"] for r in c), sum(r["attempted"] for r in c)
    print(f"{w}: mismatches: {bad if bad else 'none'}; traced failed/attempted parent {fp[0]}/{fp[1]} change {fc[0]}/{fc[1]}")
    print(f"  values (traced, seed 1): {vals}")

print("\n## Traced passes (median of seeds 1-3 per side)\n")
print("| metric |" + "".join(f" {w} parent | change | ratio |" for w in W))
print("|---|" + "---|---|---|" * len(W))
for m in TRACE:
    row = f"| `{m}` |"
    for w in W:
        p, c = load("trace_parent", w, ".trace.jsonl")[:3], load("trace_change", w, ".trace.jsonl")[:3]
        try:
            pv = st.median(r["metrics"][m]["value"] for r in p)
            cv = st.median(r["metrics"][m]["value"] for r in c)
            row += f" {g(pv)} | {g(cv)} | {cv/pv:.2f} |" if pv else f" {g(pv)} | {g(cv)} | |"
        except KeyError:
            row += " | | |"
    print(row)
