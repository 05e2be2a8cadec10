"""Run alternating parent/change pairs of the end-to-end benchmark, then compare.

Usage (from the repository root; stdlib only)::

    python3 scripts/e2e_pairs.py --parent <rev> --workload pipeline [--pairs 10] [--seed 0]

The change is the working tree. The parent is ``<rev>``, exported with
``git archive`` into a temporary directory, so a run never touches the
repository's ``.git`` and the export is exactly the committed files.
Each pair runs ``python3 -m benchmarks.e2e --trace 0 --out ...`` once on
each side, and the side that runs first alternates from pair to pair.
Finally ``python3 -m benchmarks.e2e.compare`` judges the result files,
and the script exits with its code (0 ok or gain, 1 regression, 2 the
runs break the rule's premises).

The script refuses to run (exit 2) when ``benchmarks/e2e/`` or
``BENCHMARK.json`` differ between ``<rev>`` and the working tree: both
sides must be measured by the same harness. A failing run stops the
loop and its exit code is returned. The exported parent is removed in
every case; the result files stay in ``--out-dir``.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HARNESS = ("benchmarks/e2e", "BENCHMARK.json")


def git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)


def harness_differs(root: Path, rev: str) -> list[str]:
    """Harness files that differ between ``rev`` and the working tree."""
    changed = git(root, "diff", "--name-only", rev, "--", *HARNESS).stdout.split()
    untracked = git(root, "ls-files", "--others", "--exclude-standard", "--", *HARNESS)
    return sorted(set(changed) | set(untracked.stdout.split()))


def export(root: Path, rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=root, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_side(side: Path, out: Path, args: argparse.Namespace) -> int:
    command = [sys.executable, "-m", "benchmarks.e2e", "--seed", str(args.seed),
               "--trace", "0", "--out", str(out)]
    for workload in args.workload or ():
        command += ["--workload", workload]
    # Each side imports its own benchmarks/ and src/; an inherited
    # PYTHONPATH could point both at the same tree.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(command, cwd=side, env=env, stdout=subprocess.DEVNULL).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 scripts/e2e_pairs.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="where the result files go (default: a new temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    top = git(Path.cwd(), "rev-parse", "--show-toplevel")
    if top.returncode != 0:
        print("e2e_pairs: not inside a git work tree", file=sys.stderr)
        return 2
    root = Path(top.stdout.strip())
    if git(root, "rev-parse", "--verify", "--quiet", f"{args.parent}^{{commit}}").returncode != 0:
        print(f"e2e_pairs: unknown revision {args.parent!r}", file=sys.stderr)
        return 2
    differs = harness_differs(root, args.parent)
    if differs:
        print(f"e2e_pairs: refusing to run, the harness differs from {args.parent}: "
              + ", ".join(differs), file=sys.stderr)
        return 2

    out_dir = args.out_dir or Path(tempfile.mkdtemp(prefix="e2e-pairs-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    parent_dir = Path(tempfile.mkdtemp(prefix="e2e-parent-"))
    files: dict[str, list[Path]] = {"parent": [], "change": []}
    try:
        export(root, args.parent, parent_dir)
        sides = {"parent": parent_dir, "change": root}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for name in order:
                out = out_dir / f"{name}-{k}.json"
                print(f"pair {k + 1}/{args.pairs}: {name} -> {out}", flush=True)
                code = run_side(sides[name], out, args)
                if code != 0:
                    print(f"e2e_pairs: the {name} run of pair {k + 1} exited {code}",
                          file=sys.stderr)
                    return code
                files[name].append(out)
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)

    compare = [sys.executable, "-m", "benchmarks.e2e.compare",
               "--parent", *map(str, files["parent"]), "--change", *map(str, files["change"])]
    return subprocess.run(compare, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
