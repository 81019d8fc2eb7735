"""Paired benchmark runs of two source checkouts, summarised as BENCH_<n>.json.

    python3 tools/bench_pairs.py BASE HEAD --out-base BENCH_0.json --out-head BENCH_1.json
    python3 tools/bench_pairs.py BASE HEAD --workloads fom-session --trace 1 \\
        --out-base BENCH_0.json --out-head BENCH_1.json

For every seed and workload it runs ``python3 bench/run.py`` once in each
checkout, one after the other, alternating which side goes first (the base
side first on even positions in the seed list), so that a slow stretch of a
shared machine falls on both sides alike.  Each output file holds one side:
its git revision, the Python and numpy versions, the seeds, every run's
metrics, and per metric the median and the quartiles over the seeds.  The
head file also compares each metric with the base run of the same seed:
the median head/base ratio and the number of pairs in which head is better.
An existing output file is updated, so one file can collect both trace modes.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

DEFAULT_SEEDS = [1, 2, 3, 4, 5, 6]
SECONDS = 30.0  # every run, on both sides


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout of the base revision")
    parser.add_argument("head", help="checkout of the revision under test")
    parser.add_argument("--out-base", required=True, help="JSON file for the base side")
    parser.add_argument("--out-head", required=True, help="JSON file for the head side")
    parser.add_argument("--workloads", nargs="+",
                        default=["fom-session", "rom-online", "hrom-stability"])
    parser.add_argument("--seeds", nargs="+", type=int, default=DEFAULT_SEEDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if len(args.seeds) < 6:
        parser.error("at least 6 seeds: fewer pairs cannot outvote the machine's drift")
    return args


def git_revision(path):
    """``HEAD`` of the checkout, with ``+dirty`` when tracked files differ from it."""
    try:
        rev, dirty = (subprocess.run(["git", "-C", path] + cmd, capture_output=True, text=True,
                                     check=True).stdout.strip()
                      for cmd in (["rev-parse", "HEAD"], ["status", "--porcelain", "-uno"]))
        return rev + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def one_run(checkout, workload, seed, trace):
    """The result line of one ``bench/run.py`` run in ``checkout``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{out.stderr}")
    return json.loads(lines[-1])


def summary(runs):
    """Median and quartiles of each metric over the runs."""
    table = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        table[name] = {"median": q2, "q1": q1, "q3": q3,
                       "unit": runs[0]["metrics"][name]["unit"]}
    return table


def versus(head, base, better):
    """Per metric: median head/base ratio over the pairs (None when every base
    value is 0, as for a span the workload never opens), pairs where head is better."""
    table = {}
    for name in head[0]["metrics"]:
        pairs = [(h["metrics"][name]["value"], b["metrics"][name]["value"])
                 for h, b in zip(head, base) if name in h["metrics"] and name in b["metrics"]]
        higher = better.get(name, "lower") == "higher"
        ratios = [h / b for h, b in pairs if b]
        table[name] = {
            "median_ratio": statistics.median(ratios) if ratios else None,
            "head_better_pairs": sum((h > b) if higher else (h < b) for h, b in pairs),
            "pairs": len(pairs),
        }
    return table


def load(path):
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    return {}


def main(argv=None):
    args = parse_args(argv)
    import numpy

    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    with open(os.path.join(sides["head"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    docs = {side: load(path) for side, path in (("base", args.out_base), ("head", args.out_head))}
    for side, doc in docs.items():
        doc.update(side=side, git_revision=git_revision(sides[side]),
                   python=platform.python_version(), numpy=numpy.__version__,
                   machine=platform.machine(), cpus=os.cpu_count(),
                   pairing="alternating order; base first on even positions of the seed list")
        doc.setdefault("workloads", {})
    for workload in args.workloads:
        runs = {"base": [], "head": []}
        for position, seed in enumerate(args.seeds):
            order = ("base", "head") if position % 2 == 0 else ("head", "base")
            for side in order:
                result = one_run(sides[side], workload, seed, args.trace)
                result.update(seed=seed, first=order[0] == side)
                runs[side].append(result)
                print(f"{workload} trace{args.trace} seed {seed} {side}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr, flush=True)
        key = f"{workload}/trace{args.trace}"
        for side in ("base", "head"):
            docs[side]["workloads"][key] = {"seeds": args.seeds, "seconds": SECONDS,
                                            "summary": summary(runs[side]), "runs": runs[side]}
        docs["head"]["workloads"][key]["versus_base"] = versus(runs["head"], runs["base"], better)
    for side, path in (("base", args.out_base), ("head", args.out_head)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(docs[side], fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
