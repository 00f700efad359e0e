#!/usr/bin/env python3
"""Fits the reference kernels' nominal times and weights (src/machine.rs).

    for r in 1 2 ... 12; do for w in feed_read ... sim_replay; do
      taskset -c 0 dynabench --workload $w --seed 5 --fixed-work --trace 0 \
        --cpus 1 --slice-log logs/${w}_$r.txt; done; done
    python3 benchmark/fit_reference.py logs/*.txt

Runs of one workload and seed under --fixed-work repeat the same slices, so
slice i's service time over its second-fastest repetition is what the machine
did to it in that run. The weights are the least-squares exponents w_k in

    log(slowdown of slice) = c + sum_k w_k * log(kernel k's time / nominal)

over all slices of all workloads, the kernel's time being the mean of the
readings before and after the slice; the nominal time of a kernel is the fifth
percentile of its readings. The script prints both, and then how far apart
the runs of each workload are (interquartile range and full range of service
time, as shares of the median) as the clock gave them, at nominal speed by
this fit, and at nominal speed by the constants src/machine.rs holds now.
"""
import math
import os
import re
import statistics
import sys
from collections import defaultdict

KERNELS = ["alu", "memory", "hash", "btree", "alloc", "handoff"]


def least_squares(rows, targets):
    """Solves the normal equations by Gauss-Jordan elimination."""
    n = len(rows[0])
    m = [[sum(r[i] * r[j] for r in rows) for j in range(n)] +
         [sum(r[i] * t for r, t in zip(rows, targets))] for i in range(n)]
    for i in range(n):
        p = max(range(i, n), key=lambda r: abs(m[r][i]))
        m[i], m[p] = m[p], m[i]
        for r in range(n):
            if r != i:
                f = m[r][i] / m[i][i]
                m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return [m[i][n] / m[i][i] for i in range(n)]


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med, (max(values) - min(values)) / med


def built_in(name):
    """The six numbers of constant `name` in src/machine.rs."""
    source = open(os.path.join(os.path.dirname(__file__), "src", "machine.rs")).read()
    body = re.search(name + r": \[f64; 6\] = \[(.*?)\];", source, re.S).group(1)
    return [float(x.replace("_", "")) for x in body.split(",") if x.strip()]


def main(paths):
    runs = defaultdict(list)  # workload -> [[(busy_ns, kernel means)]]
    for path in paths:
        workload = path.rsplit("/", 1)[-1].rsplit("_", 1)[0]
        slices = []
        for line in open(path):
            f = [float(x) for x in line.split()]
            slices.append((f[3], [(a + b) / 2 for a, b in zip(f[4:10], f[10:16])]))
        runs[workload].append(slices)
    readings = [k for rs in runs.values() for run in rs for _, k in run]
    nominal = [sorted(k[j] for k in readings)[len(readings) // 20] for j in range(6)]
    print("nominal ns:", ", ".join(f"{n}={t:.0f}" for n, t in zip(KERNELS, nominal)))

    rows, targets, base = [], [], {}
    for workload, rs in runs.items():
        n = min(len(run) for run in rs)
        base[workload] = [sorted(run[i][0] for run in rs)[1] for i in range(n)]
        for run in rs:
            for (busy, kernels), fastest in zip(run, base[workload]):
                rows.append([1.0] + [math.log(k / t) for k, t in zip(kernels, nominal)])
                targets.append(math.log(busy / fastest))
    fit = least_squares(rows, targets)
    weights = fit[1:]
    print("weights:", ", ".join(f"{n}={w:.3f}" for n, w in zip(KERNELS, weights)),
          f"(sum {sum(weights):.3f}, constant {fit[0]:.3f})")

    def slowdown(kernels, w, nominal):
        return math.exp(sum(wk * math.log(k / t) for wk, k, t in zip(w, kernels, nominal)))

    built = (built_in("WEIGHTS"), built_in("NOMINAL_NS"))
    print("workload: runs; clock iqr/range; this fit iqr/range; src/machine.rs iqr/range")
    for workload, rs in sorted(runs.items()):
        n = len(base[workload])
        total = sum(base[workload])
        clock = [sum(b for b, _ in run[:n]) / total for run in rs]
        out = [f"{workload}: {len(rs)}", "%.3f/%.3f" % spread(clock)]
        for w, t in ((weights, nominal), built):
            out.append("%.3f/%.3f" % spread(
                [sum(b / slowdown(k, w, t) for b, k in run[:n]) / total for run in rs]))
        print("; ".join(out))


if __name__ == "__main__":
    main(sys.argv[1:])
