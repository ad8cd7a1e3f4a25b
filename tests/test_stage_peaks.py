import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stage_rows(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_peaks.py"),
         "--workload", workload, "--seed", "1", "--smoke"],
        capture_output=True, text=True, check=True,
    ).stdout
    header, *rows = out.splitlines()[1:]
    assert header.split() == ["stage", "wall_s", "peak_rss_mb", "minflt", "sys_s", "exit"]
    rows = [row.split() for row in rows]
    for _, wall, peak, minflt, sys_s, code in rows:
        assert float(wall) > 0 and 5 < float(peak) < 1000 and code == "0"
        # Every process faults its first pages in; its system time is
        # part of its wall time.
        assert int(minflt) > 0 and 0 <= float(sys_s) <= float(wall)
    return [name for name, *_ in rows]


def test_stage_peaks_reports_every_stage():
    assert stage_rows("mixed-jsonl") == ["filter", "denoise"]


def test_stage_peaks_reports_the_kernel_stage():
    assert stage_rows("select-kernels") == ["bsce-select", "attention"]
