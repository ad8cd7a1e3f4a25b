#!/usr/bin/env python3
"""The benchmark's numpy-free smoke stages under other interpreters.

Writes each workload's smoke inputs for seed 0 with perfbench/gen.py, then
runs the stages that import no numpy (filter on filter-tsv and on
mixed-jsonl, chatprep on chat-tsv, bsce-select on select-kernels), as
perfbench/workloads.py gives them, under each python3.10 ... python3.13 on
PATH that starts (or else the newest of that version pyenv has installed,
`$(pyenv root)/versions/3.X.*/bin/python3.X`), and twice more under this
interpreter: with PYTHONHASHSEED=1, and with LC_ALL=C PYTHONUTF8=0, whose
stdio encoding is ASCII, where bsce-select also runs without --out and
the selection it prints is checked as well; nothing is installed. Each
output's sha256 is compared with its smoke pin in perfbench/pins.json.
Prints the interpreters that ran and those skipped; exits 1 if a stage
fails or an output differs from its pin.

    python3 scripts/interpreter_check.py
"""
from __future__ import annotations

import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERSIONS = ("3.10", "3.11", "3.12", "3.13")
NUMPY_FREE = ("filter", "chatprep", "bsce-select")
SEED = 0
# A locale whose stdio encoding is ASCII; bsce-select's stdout must still be
# the UTF-8 bytes its --out gets.
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0"}

# Import perfbench's modules without writing bytecode under perfbench/.
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True
from checks import load_pins, pin_key  # noqa: E402
from gen import write_inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def full_version(exe: str) -> str | None:
    """The full version the interpreter exe reports, or None if it does
    not start (a pyenv shim whose version is not selected exits 127)."""
    probe = subprocess.run([exe, "-c", "import platform; print(platform.python_version())"],
                           capture_output=True, text=True, timeout=60)
    return probe.stdout.strip() if probe.returncode == 0 else None


def pyenv_installs(version: str) -> list[str]:
    """`$(pyenv root)/versions/<version>.*/bin/python<version>`, newest
    first; none without pyenv."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return []
    root = subprocess.run([pyenv, "root"], capture_output=True, text=True,
                          timeout=60).stdout.strip()
    if not root:
        return []
    found = map(str, Path(root).glob(f"versions/{version}.*/bin/python{version}"))
    # 3.10.13 after 3.10.9: digit runs compare as numbers.
    return sorted(found, reverse=True, key=lambda path: [
        int(part) if part.isdigit() else part for part in re.split(r"(\d+)", path)])


def interpreters() -> tuple[list[tuple[str, str, dict]], list[str]]:
    """(the runs, as (label, executable, extra environment), and the
    interpreters skipped, each with its reason). A version runs under its
    python3.X on PATH, or, where that does not start, under an interpreter
    pyenv has installed for it."""
    runs, skipped = [], []
    for version in VERSIONS:
        name = f"python{version}"
        on_path = shutil.which(name)
        candidates = [*([on_path] if on_path else []), *pyenv_installs(version)]
        for exe in candidates:
            full = full_version(exe)
            if full is not None:
                runs.append((f"{name} ({full})", exe, {}))
                break
        else:
            skipped.append(f"{name} ({'does not start' if candidates else 'not installed'})")
    this = f"{Path(sys.executable).name} ({sys.version.split()[0]})"
    for extra_env in ({"PYTHONHASHSEED": "1"}, C_LOCALE):
        runs.append((" ".join([this, *(f"{k}={v}" for k, v in extra_env.items())]),
                     sys.executable, extra_env))
    return runs, skipped


def check(label: str, exe: str, extra_env: dict, inputs: Path, work: Path,
          pins: dict) -> list[str]:
    """Run every numpy-free stage under exe on a copy of the inputs; return
    the problems found."""
    env = {**os.environ, **extra_env, "PYTHONPATH": str(ROOT / "src")}
    problems = []
    for wl in WORKLOADS.values():
        cwd = work / wl.name
        shutil.copytree(inputs / wl.name, cwd)
        pin = pins[pin_key(wl.name, True, SEED)]
        for stage in wl.stages:
            if stage.name not in NUMPY_FREE:
                continue
            # -B: no bytecode of another interpreter lands in src/.
            result = subprocess.run([exe, "-B", "-m", "chatmt", *stage.argv(SEED)], cwd=cwd,
                                    env=env, capture_output=True, text=True, timeout=300)
            if result.returncode != 0:
                problems.append(f"{label}: {wl.name} {stage.name} exited "
                                f"{result.returncode}: {result.stderr.strip()[-400:]}")
                continue
            for name in stage.outputs:
                digest = hashlib.sha256((cwd / name).read_bytes()).hexdigest()
                if digest != pin[name]:
                    problems.append(f"{label}: {wl.name} {stage.name} {name} differs "
                                    f"from its pin")
            if stage.name == "bsce-select" and extra_env == C_LOCALE:
                problems += check_printed_selection(label, exe, env, cwd, stage, pin)
    return problems


def check_printed_selection(label: str, exe: str, env: dict, cwd: Path, stage,
                            pin: dict) -> list[str]:
    """Run the bsce-select stage without --out; return the problems found
    with the selection it prints, which should be the bytes of --out's."""
    argv = stage.argv(SEED)
    at = argv.index("--out")
    name = argv[at + 1]
    result = subprocess.run([exe, "-B", "-m", "chatmt", *argv[:at], *argv[at + 2:]], cwd=cwd,
                            env=env, capture_output=True, timeout=300)
    if result.returncode != 0:
        return [f"{label}: bsce-select without --out exited {result.returncode}: "
                f"{result.stderr.decode(errors='replace').strip()[-400:]}"]
    if hashlib.sha256(result.stdout).hexdigest() != pin[name]:
        return [f"{label}: bsce-select's printed selection differs from the pin of {name}"]
    return []


def main() -> int:
    pins = load_pins()
    runs, skipped = interpreters()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        for wl in WORKLOADS.values():
            write_inputs(wl.smoke_inputs, SEED, inputs / wl.name)
        for i, (label, exe, extra_env) in enumerate(runs):
            problems += check(label, exe, extra_env, inputs, Path(tmp) / str(i), pins)
    print("interpreters: ran " + ", ".join(label for label, _, _ in runs)
          + "; skipped " + (", ".join(skipped) or "none"))
    for problem in problems:
        print(f"interpreter check FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
