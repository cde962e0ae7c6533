#!/usr/bin/env python3
"""Tables for results/pr21_e2e/README.md from the run sets in a directory."""
import json, sys, statistics as st
from pathlib import Path

R = Path(sys.argv[1])
W = ["lap3d27_setup", "lap2d_solves", "reservoir_steps", "dist_weak_2r"]
E2E = ["setup_s", "solve_s", "tts_s", "peak_rss_mb"]
EXACT = ["iterations", "core.solver.iterations", "krylov.cg_batch.iterations",
         "core.hierarchy.levels", "core.hierarchy.operator_complexity",
         "core.level.l0.nnz", "core.level.l1.nnz", "core.level.rest.nnz",
         "core.solver.flops", "comm_messages", "comm_bytes"]
TRACE = ["core.interp.s", "core.refresh.s", "core.refresh.over_setup", "core.level.l0.s",
         "core.level.l1.s", "pool.speedup.setup", "dist.hierarchy.build.s"]

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

print("\n## Exact counts\n")
for w in W:
    p, c = load("parent", w), load("change", w)
    shared = [m for m in EXACT if m in p[0]["metrics"]]
    bad = [(m, i + 1) for m in shared for i in range(min(len(p), len(c)))
           if p[i]["metrics"][m]["value"] != c[i]["metrics"][m]["value"]]
    print(f"{w}: run sets, seeds 1-{min(len(p), len(c))}, {shared}: mismatches {bad if bad else 'none'}")
print("\nTraced passes, seed by seed:\n")
for w in W:
    p, c = load("trace_parent", w, ".trace.jsonl"), load("trace_change", w, ".trace.jsonl")
    n = min(len(p), len(c))
    bad = []
    for m in EXACT:
        for i in range(n):
            a = p[i]["metrics"].get(m, {}).get("value")
            b = c[i]["metrics"].get(m, {}).get("value")
            if a != b:
                bad.append((m, i + 1, a, b))
    fp = sum(r["failed"] for r in p), sum(r["attempted"] for r in p)
    fc = sum(r["failed"] for r in c), sum(r["attempted"] for r in c)
    print(f"{w}: {n} passes per side, mismatches: {bad if bad else 'none'}; failed/attempted parent {fp[0]}/{fp[1]} change {fc[0]}/{fc[1]}")
    vals = {m: p[0]["metrics"].get(m, {}).get("value") for m in EXACT}
    print(f"  values (seed 1): {vals}")

print("\n## Traced passes (median of three per side)\n")
hdr = "| metric |" + "".join(f" {w} parent | {w} change | ratio |" for w in W)
print(hdr)
print("|---|" + "---|---|---|" * len(W))
for m in TRACE:
    row = f"| `{m}` |"
    for w in W:
        p, c = load("trace_parent", w, ".trace.jsonl"), load("trace_change", w, ".trace.jsonl")
        try:
            pv = st.median(r["metrics"][m]["value"] for r in p)
            cv = st.median(r["metrics"][m]["value"] for r in c)
            row += f" {g(pv)} | {g(cv)} | {cv/pv:.2f} |" if pv else f" {g(pv)} | {g(cv)} | |"
        except KeyError:
            row += " | | |"
    print(row)

print("\n`core.refresh.over_setup` = `core.refresh.s` / the traced pass's own `Hierarchy::build` time; both terms, median of three (parent ‖ change):\n")
for w in W:
    out = []
    for d in ("trace_parent", "trace_change"):
        rs = load(d, w, ".trace.jsonl")
        try:
            r = st.median(x["metrics"]["core.refresh.s"]["value"] for x in rs)
            b = st.median(x["metrics"]["core.refresh.s"]["value"] / x["metrics"]["core.refresh.over_setup"]["value"] for x in rs)
            out.append(f"refresh {g(r)} s / build {g(b)} s")
        except KeyError:
            out.append("n/a")
    print(f"{w}: {out[0]} ‖ {out[1]}")

print("\nPer pass (parent ‖ change):\n")
for m in TRACE:
    for w in W:
        p, c = load("trace_parent", w, ".trace.jsonl"), load("trace_change", w, ".trace.jsonl")
        try:
            pv = " ".join(g(r["metrics"][m]["value"]) for r in p)
            cv = " ".join(g(r["metrics"][m]["value"]) for r in c)
        except KeyError:
            continue
        print(f"{m} {w}: {pv} ‖ {cv}")
