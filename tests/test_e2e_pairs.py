"""Tests for scripts/e2e_pairs.py on a throwaway repository.

The repository carries a stand-in ``benchmarks.e2e`` whose runs only
record which tree they ran in and when, and a stand-in compare that
records its arguments and exits 3, so the loop, the alternation, the
clean-up and the exit code are checked in about a second.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "e2e_pairs.py"

FAKE_MAIN = """\
import json, sys, time
from pathlib import Path
out = Path(sys.argv[sys.argv.index("--out") + 1])
out.write_text(json.dumps({
    "started": time.time(),
    "tree": Path("src/marker.txt").read_text().strip(),
    "cwd": str(Path.cwd()),
    "argv": sys.argv[1:],
}))
time.sleep(0.01)
"""

FAKE_COMPARE = """\
import json, sys
from pathlib import Path
Path("compare-args.json").write_text(json.dumps(sys.argv[1:]))
sys.exit(3)
"""

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                   cwd=repo, check=True, capture_output=True)


@pytest.fixture
def repo(tmp_path):
    repo = tmp_path / "repo"
    e2e = repo / "benchmarks" / "e2e"
    e2e.mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "benchmarks" / "__init__.py").write_text("")
    (e2e / "__init__.py").write_text("")
    (e2e / "__main__.py").write_text(FAKE_MAIN)
    (e2e / "compare.py").write_text(FAKE_COMPARE)
    (repo / "BENCHMARK.json").write_text("{}\n")
    (repo / "src" / "marker.txt").write_text("parent\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "src" / "marker.txt").write_text("change\n")
    return repo


def _run(repo: Path, tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    scratch = tmp_path / "tmp"
    scratch.mkdir(exist_ok=True)
    env = {**os.environ, "TMPDIR": str(scratch)}
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=repo, env=env,
                          capture_output=True, text=True)


def test_alternates_sides_cleans_up_and_returns_compare_code(repo, tmp_path):
    out_dir = tmp_path / "out"
    result = _run(repo, tmp_path, "--parent", "HEAD", "--workload", "pipeline",
                  "--pairs", "3", "--seed", "4", "--out-dir", str(out_dir))
    assert result.returncode == 3, result.stderr
    runs = {name: [json.loads((out_dir / f"{name}-{k}.json").read_text()) for k in range(3)]
            for name in ("parent", "change")}
    assert {r["tree"] for r in runs["parent"]} == {"parent"}
    assert {r["tree"] for r in runs["change"]} == {"change"}
    assert all(r["cwd"] == str(repo) for r in runs["change"])
    firsts = [p["started"] < c["started"] for p, c in zip(runs["parent"], runs["change"])]
    assert firsts == [True, False, True]
    for r in runs["parent"] + runs["change"]:
        assert r["argv"][-2:] == ["--workload", "pipeline"]
        assert "--trace" in r["argv"] and "--seed" in r["argv"]
    # The exported parent is gone, and compare saw every file in pair order.
    assert not Path(runs["parent"][0]["cwd"]).exists()
    assert list((tmp_path / "tmp").iterdir()) == []
    compared = json.loads((repo / "compare-args.json").read_text())
    assert compared == ["--parent", *[str(out_dir / f"parent-{k}.json") for k in range(3)],
                        "--change", *[str(out_dir / f"change-{k}.json") for k in range(3)]]


@pytest.mark.parametrize("edit", ["BENCHMARK.json", "benchmarks/e2e/new.py"])
def test_refuses_when_the_harness_differs(repo, tmp_path, edit):
    (repo / edit).write_text("# changed\n")
    result = _run(repo, tmp_path, "--parent", "HEAD", "--out-dir", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "refusing" in result.stderr and edit in result.stderr
    assert not (tmp_path / "out").exists()


def test_failed_run_stops_and_cleans_up(repo, tmp_path):
    (repo / "src" / "marker.txt").unlink()  # the change side's run now fails
    result = _run(repo, tmp_path, "--parent", "HEAD", "--out-dir", str(tmp_path / "out"))
    assert result.returncode == 1
    assert "change run of pair 1" in result.stderr
    assert list((tmp_path / "tmp").iterdir()) == []
    assert not (repo / "compare-args.json").exists()
