"""scripts/interpreter_check.py finds each python3.X to run: the one on
PATH, or, where that does not start, one pyenv has installed; then this
interpreter runs under PYTHONHASHSEED=1 and under the C locale."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script(path: Path, body: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(0o755)


def test_a_version_whose_shim_does_not_start_runs_under_pyenvs_install(tmp_path):
    # On PATH: a pyenv whose root is tmp_path/root, python3.10 and python3.12
    # shims that do not start, as pyenv's do for a version not selected,
    # and no python3.11 or python3.13. pyenv has 3.10.9 and 3.10.13 installed.
    bin_dir, root = tmp_path / "bin", tmp_path / "root"
    _script(bin_dir / "pyenv", f"echo {root}")
    for version in ("3.10", "3.12"):
        _script(bin_dir / f"python{version}",
                f"echo 'pyenv: python{version}: command not found' >&2; exit 127")
    for installed in ("3.10.9", "3.10.13"):
        _script(root / "versions" / installed / "bin" / "python3.10",
                f'exec {sys.executable} "$@"')
    code = ("import json, interpreter_check; "
            "print(json.dumps(interpreter_check.interpreters()))")
    out = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT / "scripts",
                         env={**os.environ, "PATH": str(bin_dir)}, capture_output=True,
                         text=True, check=True).stdout
    runs, skipped = json.loads(out)
    full = ".".join(map(str, sys.version_info[:3]))
    assert [run[:2] for run in runs[:-2]] == \
        [[f"python3.10 ({full})", str(root / "versions" / "3.10.13" / "bin" / "python3.10")]]
    assert [run[1:] for run in runs[-2:]] == [[sys.executable, {"PYTHONHASHSEED": "1"}],
                                              [sys.executable, {"LC_ALL": "C", "PYTHONUTF8": "0"}]]
    assert skipped == ["python3.11 (not installed)", "python3.12 (does not start)",
                       "python3.13 (not installed)"]
