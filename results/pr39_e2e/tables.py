#!/usr/bin/env python3
"""Tables for results/pr39_e2e/README.md from the run sets beside this
file (or in the directory given as argument)."""
import json, sys, statistics as st
from pathlib import Path

R = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent
W = ["lap3d27_setup", "lap2d_solves", "reservoir_steps", "dist_weak_2r"]
E2E = ["setup_s", "solve_s", "tts_s", "peak_rss_mb"]
# Counts that must be the parent's, seed by seed.
EXACT = ["iterations", "comm_messages", "comm_bytes",
         "dist.comm.setup_messages", "dist.comm.setup_bytes",
         "dist.comm.solve_messages", "dist.comm.solve_bytes",
         "core.hierarchy.operator_complexity", "core.hierarchy.levels",
         "core.level.l0.nnz", "core.level.l1.nnz", "core.level.rest.nnz",
         "krylov.cg_batch.iterations", "core.solver.iterations"]


def load(d, w, suffix=".jsonl"):
    p = R / d / (w + suffix)
    return [json.loads(l) for l in p.read_text().splitlines() if l.strip()]


def q(v):
    qs = st.quantiles(v, n=4)
    return qs[0], st.median(v), qs[2]


def pairs(pdir, cdir, title, workloads):
    print(f"## {title} (a win is change < parent in the same pair)\n")
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change/parent | change wins | parent IQR |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        p, c = load(pdir, w), load(cdir, w)
        n = min(len(p), len(c))
        for m in E2E:
            pv = [r["metrics"][m]["value"] for r in p[:n]]
            cv = [r["metrics"][m]["value"] for r in c[:n]]
            pq, cq = q(pv), q(cv)
            wins = sum(1 for a, b in zip(pv, cv) if b < a)
            print(f"| {w} | {m} | {pq[1]:.4f} [{pq[0]:.4f}, {pq[2]:.4f}] | {cq[1]:.4f} [{cq[0]:.4f}, {cq[2]:.4f}] | {cq[1]/pq[1]:.3f} | {wins}/{n} | {pq[2]-pq[0]:.4f} |")
        print(f"| {w} | failed / attempted | {sum(r['failed'] for r in p)} / {sum(r['attempted'] for r in p)} | {sum(r['failed'] for r in c)} / {sum(r['attempted'] for r in c)} | | | |")
    print()


pairs("parent", "change", "Pairs, seeds 1-10", W)
if (R / "extra_parent").exists():
    pairs("extra_parent", "extra_change", "Pairs, seeds 11-20", W)

if (R / "trace_parent").exists():
    print("## Exact counts, traced passes seed by seed\n")
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
        print(f"- {w}: {len(p)} / {len(c)} passes; compared {', '.join(sorted(present))}; mismatches: {bad if bad else 'none'}")
    print()
