"""The benchmark's traced run wraps chatmt functions by name
(perfbench/tracer.py's install()). A renamed or removed target only
shows up there as a warning, so this checks that every one exists."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_trace_hook_target_exists():
    # A child process, so that the wrapped functions stay out of this one;
    # -B, so that importing the tracer writes no bytecode under perfbench/.
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); import tracer; "
            "print(json.dumps(tracer.install(tracer.Tracer())))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []
