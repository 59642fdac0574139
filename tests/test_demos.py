"""Every demo runs end to end and prints its key finding."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KEY_LINES = {
    "classification_walkthrough.py":
        "k=2: commutant dim 4, factor True, irreducible False",
    "dilation_walkthrough.py": "exhaustion: rank 12 of 12",
    "quarterplane_walkthrough.py":
        "commutant transfer: sampled 1, family 1, equal True",
}


def test_every_demo_is_listed():
    demos = [f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py")]
    assert sorted(demos) == sorted(KEY_LINES)


def run_demo(demo, tmp_path):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", sorted(KEY_LINES))
def test_demo_runs(demo, tmp_path):
    assert KEY_LINES[demo] in run_demo(demo, tmp_path).splitlines()


def test_quarterplane_demo_prints_the_same_and_leaves_nothing(tmp_path):
    demo = "quarterplane_walkthrough.py"
    runs = [run_demo(demo, tmp_path) for _ in range(2)]
    assert runs[0] == runs[1]
    assert "rank heatmap: 1600 rows written to field_rank.csv" \
        in runs[0].splitlines()
    assert os.listdir(tmp_path) == []
