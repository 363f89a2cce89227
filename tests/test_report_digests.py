"""``scripts/report_digests.py`` prints the same digests under every interpreter."""

import glob
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_scenario import PACKAGED_DIGESTS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"
TIMEOUT_S = 300


def _other_interpreters() -> list[str]:
    """The pyenv interpreters at or past Python 3.10 other than this one.

    Each candidate is probed first, since a shim or a broken install may be
    listed but not run."""
    root = os.environ.get("PYENV_ROOT")
    found = []
    for exe in sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python3"))) if root else ():
        try:
            probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info >= (3, 10), sys.version)"],
                                   capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        ok, _, version = probe.stdout.strip().partition(" ")
        if probe.returncode == 0 and ok == "True" and version != sys.version:
            found.append(exe)
    return found


def _digests(exe: str) -> str:
    proc = subprocess.run([exe, str(SCRIPT)], capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout


def test_every_interpreter_writes_the_same_bytes():
    others = _other_interpreters()
    if not others:
        pytest.skip("no other interpreter at or past Python 3.10 under $PYENV_ROOT")
    want = _digests(sys.executable)
    # the script hashes what the pins of tests/test_scenario.py hash
    assert want.splitlines()[: len(PACKAGED_DIGESTS)] == [f"{digest}  dump_report {name}"
                                                          for name, digest in PACKAGED_DIGESTS.items()]
    for exe in others:
        assert _digests(exe) == want, exe
