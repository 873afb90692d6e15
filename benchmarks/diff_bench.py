"""Diff the two newest BENCH_<n>.json snapshots (the perf trajectory).

CI runs this after ``make bench-json`` and appends the markdown table to
the job summary, so a PR's benchmark movement is visible at a glance
without blocking the merge on machine-speed variance.  Usable locally
too::

    python benchmarks/diff_bench.py            # aligned text table
    python benchmarks/diff_bench.py --markdown # GitHub-flavored table

Benchmarks are matched by name; means are compared with a ±ratio column.
Missing-in-either benchmarks are listed as added/removed rather than
silently dropped.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_SNAPSHOT_PATTERN = re.compile(r"BENCH_(\d+)\.json$")


def snapshot_paths(root: Path) -> List[Path]:
    """All BENCH_<n>.json files under ``root``, numerically ordered."""
    numbered = []
    for path in root.glob("BENCH_*.json"):
        match = _SNAPSHOT_PATTERN.match(path.name)
        if match:
            numbered.append((int(match.group(1)), path))
    return [path for _, path in sorted(numbered)]


def summarize_bench(bench: Dict) -> Optional[float]:
    """One benchmark's mean seconds, from any snapshot layout.

    Raw pytest-benchmark documents, slimmed ones (``slim_bench.py``),
    and hand-reduced stat sets all normalize to the same summary here:
    ``stats.mean`` when present, else derived from ``total``/``rounds``.
    Returns None when a bench carries no usable timing at all — the diff
    then *reports* it as unreadable instead of silently dropping or
    crashing on it.
    """
    stats = bench.get("stats") or {}
    mean = stats.get("mean")
    if isinstance(mean, (int, float)):
        return float(mean)
    total, rounds = stats.get("total"), stats.get("rounds")
    if (
        isinstance(total, (int, float))
        and isinstance(rounds, int)
        and rounds > 0
    ):
        return float(total) / rounds
    return None


def load_means(path: Path) -> Dict[str, Optional[float]]:
    """Benchmark name → normalized mean seconds (None: no usable stats).

    Reads raw pytest-benchmark output and slimmed snapshots through one
    summary schema (:func:`summarize_bench`), so a fresh raw run diffs
    against a committed slimmed snapshot on every benchmark the two
    share.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return {
        bench["name"]: summarize_bench(bench)
        for bench in payload.get("benchmarks", [])
        if "name" in bench
    }


def diff_rows(
    old: Dict[str, Optional[float]], new: Dict[str, Optional[float]]
) -> List[Tuple[str, str, str, str]]:
    """(benchmark, old mean, new mean, change) rows over the union."""
    rows = []
    for name in sorted(set(old) | set(new)):
        in_old, in_new = name in old, name in new
        old_mean = old.get(name)
        new_mean = new.get(name)
        if not in_old:
            rows.append((name, "-", _ms(new_mean), "added"))
        elif not in_new:
            rows.append((name, _ms(old_mean), "-", "removed"))
        elif old_mean is None or new_mean is None:
            # Present on both sides but at least one carries no usable
            # stats: say so, never silently drop the row.
            rows.append((name, _ms(old_mean), _ms(new_mean), "no stats"))
        else:
            change = (
                f"{new_mean / old_mean - 1.0:+.1%}" if old_mean else "n/a"
            )
            rows.append((name, _ms(old_mean), _ms(new_mean), change))
    return rows


def _ms(seconds: Optional[float]) -> str:
    return f"{seconds * 1000:.2f} ms" if seconds is not None else "-"


def render(rows, old_name: str, new_name: str, markdown: bool) -> str:
    headers = ("benchmark", old_name, new_name, "Δ mean")
    if not rows:
        return "(no benchmarks in either snapshot)"
    if markdown:
        lines = [
            "| " + " | ".join(headers) + " |",
            "|" + "|".join("---" for _ in headers) + "|",
        ]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines)
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        for row in rows
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff the two newest BENCH_<n>.json snapshots."
    )
    parser.add_argument(
        "snapshots",
        nargs="*",
        help="two snapshot files (default: the two newest in --root)",
    )
    parser.add_argument("--root", default=".", help="snapshot directory")
    parser.add_argument(
        "--markdown", action="store_true", help="GitHub-flavored table"
    )
    args = parser.parse_args(argv)
    if args.snapshots:
        if len(args.snapshots) != 2:
            print("error: pass exactly two snapshots", file=sys.stderr)
            return 2
        old_path, new_path = (Path(p) for p in args.snapshots)
    else:
        paths = snapshot_paths(Path(args.root))
        if len(paths) < 2:
            print(
                f"only {len(paths)} snapshot(s) under {args.root}; "
                "nothing to diff"
            )
            return 0
        old_path, new_path = paths[-2], paths[-1]
    rows = diff_rows(load_means(old_path), load_means(new_path))
    if args.markdown:
        print(f"### Benchmark trajectory: {old_path.name} → {new_path.name}")
        print()
    else:
        print(f"{old_path.name} → {new_path.name}")
    print(render(rows, old_path.name, new_path.name, args.markdown))
    return 0


if __name__ == "__main__":
    sys.exit(main())
