#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

Usage (from the checkout root)::

    python3 benchmarks/pairs.py --parent HEAD~1 --workload serve-search \
        --pairs 10 --seconds 15

``--parent`` is a directory holding a copy of the parent tree, or a git
revision of this checkout, whose committed files are extracted into a
temporary directory (``git archive``) and removed afterwards.  The
change is this checkout.  Pair *N* runs each tree's own
``perfbench/run.py --workload W --seed N --seconds S --trace 0`` once,
from that tree's root.  Odd pairs run the parent first and even pairs
the change first: on a shared host the run that goes second can be
favoured, so a fixed order would bias every pair the same way.

For each workload it prints a Markdown table of the runs, then one row
per end-to-end metric of ``BENCHMARK.json``: the parent's median and
interquartile range, the change's median, the change in percent, and
in how many pairs the change was better.  ``--json`` also writes every
run's output.  Exit status 1 means some run failed or answered wrong.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_metrics(tree: Path) -> list[dict]:
    """The end-to-end metrics ``BENCHMARK.json`` declares, in order."""
    with open(tree / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


def extract_revision(revision: str, into: Path) -> Path:
    """Extract the committed files of *revision* into *into*."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run from *tree*'s root."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        return {"ok": False, "error": proc.stderr.strip()[-400:]}
    result = json.loads(proc.stdout)
    result["ok"] = bool(result.get("correct")) and not result.get("failed")
    return result


def value(run: dict, metric: str) -> float | None:
    if not run.get("ok"):
        return None
    return run["metrics"][metric]["value"]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _median, high = statistics.quantiles(values, n=4)
    return high - low


def _cell(number: float | None, digits: int) -> str:
    return "failed" if number is None else f"{number:.{digits}f}"


def runs_table(pairs: list[dict]) -> list[str]:
    lines = ["| pair | first | parent /s | change /s | parent p50 / p95 ms "
             "| change p50 / p95 ms | parent setup s | change setup s "
             "| failed p/c |",
             "|---|---|---|---|---|---|---|---|---|"]
    for pair in pairs:
        parent, change = pair["parent"], pair["change"]
        lines.append(
            f"| {pair['pair']} | {pair['first']} "
            f"| {_cell(value(parent, 'throughput'), 1)} "
            f"| {_cell(value(change, 'throughput'), 1)} "
            f"| {_cell(value(parent, 'p50_ms'), 2)} / "
            f"{_cell(value(parent, 'p95_ms'), 2)} "
            f"| {_cell(value(change, 'p50_ms'), 2)} / "
            f"{_cell(value(change, 'p95_ms'), 2)} "
            f"| {_cell(value(parent, 'setup_s'), 3)} "
            f"| {_cell(value(change, 'setup_s'), 3)} "
            f"| {parent.get('failed', '-')}/{change.get('failed', '-')} |")
    return lines


def summary_table(pairs: list[dict], metrics: list[dict]) -> list[str]:
    lines = ["| metric | parent median (IQR) | change median | change "
             "| change better |", "|---|---|---|---|---|"]
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [(value(p["parent"], name), value(p["change"], name))
                for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            lines.append(f"| {name} | failed | failed | - | - |")
            continue
        parents = [a for a, _ in both]
        changes = [b for _, b in both]
        base, new = statistics.median(parents), statistics.median(changes)
        delta = 100.0 * (new - base) / base if base else 0.0
        better = sum(1 for a, b in both if (b > a if higher else b < a))
        lines.append(f"| {name} | {base:.3f} ({iqr(parents):.3f}) "
                     f"| {new:.3f} | {delta:+.1f}% "
                     f"| {better} of {len(both)} |")
    return lines


def run_pairs(parent: Path, workload: str, count: int,
              seconds: int) -> list[dict]:
    pairs = []
    for number in range(count):
        seed = number + 1
        parent_first = number % 2 == 0
        order = ["parent", "change"] if parent_first else \
            ["change", "parent"]
        pair = {"pair": number + 1, "seed": seed, "first": order[0]}
        for side in order:
            tree = parent if side == "parent" else ROOT
            pair[side] = run_once(tree, workload, seed, seconds)
        print(f"{workload} pair {number + 1}: "
              f"parent {_cell(value(pair['parent'], 'throughput'), 1)}/s, "
              f"change {_cell(value(pair['change'], 'throughput'), 1)}/s",
              file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="a directory with the parent tree, or a git "
                             "revision of this checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of perfbench/run.py; repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--json", help="write every run's output here")
    args = parser.parse_args(argv)

    metrics = end_to_end_metrics(ROOT)
    report: dict = {}
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as scratch:
        if Path(args.parent).is_dir():
            parent = Path(args.parent).resolve()
        else:
            parent = extract_revision(args.parent, Path(scratch))
        for workload in args.workload:
            report[workload] = run_pairs(parent, workload, args.pairs,
                                         args.seconds)
    for workload, pairs in report.items():
        print(f"\n**{workload}** ({len(pairs)} pairs, {args.seconds} s "
              f"runs)\n")
        print("\n".join(runs_table(pairs)))
        print()
        print("\n".join(summary_table(pairs, metrics)))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
    ok = all(pair[side].get("ok") for pairs in report.values()
             for pair in pairs for side in ("parent", "change"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
