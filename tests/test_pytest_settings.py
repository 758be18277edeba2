"""The repository's pytest settings: a red run reports every test."""
import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # The outer session's -X dev, if any, carries over to the inner one.
    (tmp_path / "test_probe.py").write_text(PROBE)
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    result = subprocess.run(
        [sys.executable, *dev, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert result.returncode == 1
