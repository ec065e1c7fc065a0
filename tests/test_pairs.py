"""``tools/pairs.py``: its summary on fixed numbers and its export of a
commit, without running the benchmark."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = sys.modules["pairs"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

DECLARED = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "score", "unit": "ratio", "better": "higher"},
]


def test_summary_gives_medians_the_parents_iqr_and_the_changes_wins():
    parent = [{"wall_s": w, "score": 1.0} for w in (0.10, 0.20, 0.30, 0.40, 0.50)]
    # lower wall_s in pairs 1 and 3, a tie in pair 2; higher score in pair 5 alone
    change = [
        {"wall_s": w, "score": s}
        for w, s in zip((0.05, 0.20, 0.25, 0.45, 0.60), (1.0, 0.5, 1.0, 1.0, 2.0))
    ]
    assert pairs.summary(DECLARED, parent, change) == [
        "wall_s: parent 0.3 -> change 0.25 s (parent IQR 0.2-0.4; change better in 2/5)",
        "score: parent 1 -> change 1 ratio (parent IQR 1-1; change better in 1/5)",
    ]


def test_one_pair_has_an_iqr_of_its_one_value():
    line = pairs.summary(DECLARED[:1], [{"wall_s": 0.2}], [{"wall_s": 0.1}])
    assert line == ["wall_s: parent 0.2 -> change 0.1 s (parent IQR 0.2-0.2; change better in 1/1)"]


def git(repo, *argv):
    identity = ["-c", "user.name=t", "-c", "user.email=t@example.invalid"]
    subprocess.run(["git", *identity, *argv], cwd=repo, check=True, capture_output=True)


def test_export_writes_the_tree_of_a_commit(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "parent"
    (repo / "bench").mkdir(parents=True)
    (repo / "bench" / "run.py").write_text("print('parent')\n")
    git(repo, "init", "-q")
    git(repo, "add", "bench/run.py")
    git(repo, "commit", "-q", "-m", "parent")
    (repo / "bench" / "run.py").write_text("print('change')\n")  # not committed
    dest.mkdir()
    assert pairs.export("HEAD", dest, repo)
    assert (dest / "bench" / "run.py").read_text() == "print('parent')\n"


def test_a_ref_that_cannot_be_exported_exits_2(capsys):
    assert pairs.main(["no-such-ref-x9", "--workload", "count-deep", "--pairs", "1"]) == 2
    assert "no-such-ref-x9" in capsys.readouterr().err


def test_each_run_reads_bytecode_from_a_fresh_empty_prefix(monkeypatch, tmp_path):
    # PYTHONDONTWRITEBYTECODE alone still lets a stale __pycache__ be read
    seen = []

    def run(argv, cwd, env, **_):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((prefix, prefix.is_dir() and not any(prefix.iterdir())))
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        (prefix / "stale.pyc").write_bytes(b"")  # gone before the next run
        line = json.dumps({"correct": True, "metrics": {"wall_s": {"value": 0.1}}})
        return subprocess.CompletedProcess(argv, 0, stdout=line + "\n", stderr="")

    monkeypatch.setenv("PYTHONPYCACHEPREFIX", os.fspath(tmp_path))
    monkeypatch.setattr(pairs.subprocess, "run", run)
    for _ in range(2):
        assert pairs.run_bench(tmp_path, "count-deep", 1, 0.0) == {"wall_s": 0.1}
    assert [empty for _, empty in seen] == [True, True]
    assert seen[0][0] != seen[1][0] and tmp_path not in {prefix for prefix, _ in seen}
    assert not any(prefix.exists() for prefix, _ in seen)
