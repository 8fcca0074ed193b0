"""The benchmark's tracer (``perfbench/tracer.py``) replaces each function
it lists at every name the package looks it up through.  A reference it
cannot replace, such as a function held in a tuple, lets calls escape the
trace, so none may exist."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import tracer, workloads
t = tracer.Tracer(workloads.load_package())
t.install()
try:
    print(t.unwrapped())
finally:
    t.uninstall()
"""


def test_the_tracer_can_wrap_every_reference():
    # a fresh interpreter: the test modules here hold the original functions
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
