"""romstab runs on numpy alone: importing it, building a model and reporting
its step load no scipy (whose import alone costs noticeable time and memory).
Importing the package loads the library alone, not the property suite
(``romstab.verify``) or the paper's reproduction (``romstab.reproduce``)."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import sys
import romstab
assert "scipy" not in sys.modules, "import romstab loaded scipy"
for name in ("romstab.verify", "romstab.reproduce"):
    assert name not in sys.modules, "import romstab loaded " + name
from romstab.cli import run
assert run(["build", "string", "--m", "20", "--M", "1", "--K", "10", "-o", sys.argv[1]]) == 0
assert run(["timestep", sys.argv[1]]) == 0
assert "scipy" not in sys.modules, "build or timestep loaded scipy"
"""


def test_no_scipy_after_import_build_and_timestep(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "model.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
