"""The test session itself: a failing property test counts as one failure.

hypothesis's pytest plugin imports ``hypothesis.extra._patching`` when a
``@given`` test fails, inside a hook teardown.  Under this project's
``filterwarnings = ["error"]`` the DeprecationWarning of that import once
turned into an INTERNALERROR that ended the session and hid every failure
after it; ``conftest.py`` imports the module first.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_is_reported(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    path = os.pathsep.join(filter(None, [str(TESTS), str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    # this project's pytest settings and conftest.py, on a file outside tests/
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "conftest", "test_property.py"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
