"""The Hypothesis profiles of ``conftest.py``, each checked in a pytest run of its own.

The default profile is derandomized: two ``--hypothesis-seed`` values draw the
same cases.  ``--hypothesis-profile=sweep`` is not: the two seeds draw
different cases, so a sweep over seeds tries new inputs.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PROPERTY = '''
import os

from hypothesis import given, settings, strategies as st


@settings(max_examples=8)
@given(st.integers(0, 2**62))
def test_draws(x):
    with open(os.environ["DRAWS"], "a") as fh:
        fh.write(f"{x}\\n")
'''


def _draws(root: Path, seed: int, *options: str) -> list[str]:
    draws = root / f"draws-{seed}-{len(options)}.txt"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_draws.py",
                          f"--hypothesis-seed={seed}", *options],
                         cwd=root, env={**os.environ, "DRAWS": str(draws)}, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    return draws.read_text().splitlines()


@pytest.fixture(scope="module")
def root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("profiles")
    shutil.copy(Path(__file__).with_name("conftest.py"), root / "conftest.py")
    (root / "test_draws.py").write_text(PROPERTY)
    return root


def test_default_profile_draws_the_same_cases_for_every_seed(root):
    assert _draws(root, 1) == _draws(root, 2)


def test_sweep_profile_draws_other_cases_for_another_seed(root):
    first, second = (_draws(root, seed, "--hypothesis-profile=sweep") for seed in (1, 2))
    assert len(first) >= 8 and first != second
