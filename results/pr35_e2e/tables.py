#!/usr/bin/env python3
"""Tables for results/pr35_e2e/README.md from the run sets and the span
probe's output beside this file (or in the directory given as argument)."""
import json, re, sys, statistics as st
from collections import defaultdict
from pathlib import Path

R = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent
W = ["lap3d27_setup", "lap2d_solves", "reservoir_steps", "dist_weak_2r"]
E2E = ["setup_s", "solve_s", "tts_s", "peak_rss_mb"]
# Counts that must be the parent's, seed by seed.
EXACT = ["iterations", "comm_messages", "comm_bytes",
         "dist.comm.setup_messages", "dist.comm.setup_bytes",
         "dist.comm.solve_messages", "dist.comm.solve_bytes",
         "core.hierarchy.operator_complexity", "core.hierarchy.levels",
         "core.level.l0.nnz", "core.level.l1.nnz", "core.level.rest.nnz"]
STAGES = ["smoother_setup", "strength", "extract_p", "cf_reorder", "coarsen"]


def load(d, w, suffix=".jsonl"):
    p = R / d / (w + suffix)
    return [json.loads(l) for l in p.read_text().splitlines() if l.strip()]


def q(v):
    qs = st.quantiles(v, n=4)
    return qs[0], st.median(v), qs[2]


print("## Pairs, seeds 1-10 (a win is change < parent in the same pair)\n")
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
print()

if (R / "extra_parent").exists():
    print("## The claim on fresh seeds: `lap2d_solves`, seeds 11-20\n")
    print("| metric | parent median [q1, q3] | change median [q1, q3] | change/parent | change wins | parent IQR |")
    print("|---|---|---|---|---|---|")
    p, c = load("extra_parent", "lap2d_solves"), load("extra_change", "lap2d_solves")
    n = min(len(p), len(c))
    for m in E2E:
        pv = [r["metrics"][m]["value"] for r in p[:n]]
        cv = [r["metrics"][m]["value"] for r in c[:n]]
        pq, cq = q(pv), q(cv)
        wins = sum(1 for a, b in zip(pv, cv) if b < a)
        print(f"| {m} | {pq[1]:.4f} [{pq[0]:.4f}, {pq[2]:.4f}] | {cq[1]:.4f} [{cq[0]:.4f}, {cq[2]:.4f}] | {cq[1]/pq[1]:.3f} | {wins}/{n} | {pq[2]-pq[0]:.4f} |")
    print(f"| failed / attempted | {sum(r['failed'] for r in p)} / {sum(r['attempted'] for r in p)} | {sum(r['failed'] for r in c)} / {sum(r['attempted'] for r in c)} | | | |")
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
    print(f"- {w}: {len(p)} / {len(c)} passes; compared {', '.join(sorted(present))}; mismatches: {bad if bad else 'none'}")
print()

print("## `pool.speedup.setup`, traced passes (seeds 1-3)\n")
print("| workload | parent | change |")
print("|---|---|---|")
for w in W[:3]:
    p, c = load("trace_parent", w, ".trace.jsonl"), load("trace_change", w, ".trace.jsonl")
    f = lambda rs: " / ".join(f"{r['metrics']['pool.speedup.setup']['value']:.2f}" for r in rs)
    print(f"| {w} | {f(p)} | {f(c)} |")
print()

# setup_spans.txt: "<side> <operator> <kind> threads <t>: wall <ms> <stage> <ms> ... ms"
if not (R / "setup_spans.txt").exists():
    sys.exit()
runs = defaultdict(list)
for line in (R / "setup_spans.txt").read_text().splitlines():
    m = re.match(r"(\w+) (\w+) (\w+) threads (\d+): (.*) ms$", line)
    if not m:
        continue
    side, op, kind, t, rest = m.groups()
    toks = rest.split()
    runs[(side, op, kind, int(t))].append({toks[i]: float(toks[i + 1]) for i in range(0, len(toks), 2)})


def med(side, op, kind, t, stage):
    return st.median(r[stage] for r in runs[(side, op, kind, t)])


print("## Setup spans: per-stage medians over three processes (ms, summed over levels), one and two pool threads\n")
print("| operator | build | stage | parent 1 t | parent 2 t | parent 1/2 | change 1 t | change 2 t | change 1/2 | change/parent at 2 t |")
print("|---|---|---|---|---|---|---|---|---|---|")
for op in ["lap3d27", "lap2d", "reservoir"]:
    for kind in ["build", "build_frozen"]:
        if not runs[("parent", op, kind, 1)]:
            continue
        for stage in ["wall"] + STAGES + ["interp", "rap"]:
            p1, p2 = med("parent", op, kind, 1, stage), med("parent", op, kind, 2, stage)
            c1, c2 = med("change", op, kind, 1, stage), med("change", op, kind, 2, stage)
            print(f"| {op} | {kind} | {stage} | {p1:.1f} | {p2:.1f} | {p1/p2:.2f} | {c1:.1f} | {c2:.1f} | {c1/c2:.2f} | {c2/p2:.2f} |")
