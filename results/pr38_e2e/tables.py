#!/usr/bin/env python3
"""Pairs table for results/pr38_e2e/README.md from the run sets beside this
file (or in the directory given as argument)."""
import json, sys, statistics as st
from pathlib import Path

R = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent
W = ["lap3d27_setup", "lap2d_solves", "reservoir_steps", "dist_weak_2r"]
E2E = ["setup_s", "solve_s", "tts_s", "peak_rss_mb"]


def load(d, w):
    p = R / d / (w + ".jsonl")
    return [json.loads(l) for l in p.read_text().splitlines() if l.strip()]


def q(v):
    qs = st.quantiles(v, n=4)
    return qs[0], st.median(v), qs[2]


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
