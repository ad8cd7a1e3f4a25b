import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stage_peaks_reports_every_stage():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_peaks.py"),
         "--workload", "mixed-jsonl", "--seed", "1", "--smoke"],
        capture_output=True, text=True, check=True,
    ).stdout
    header, *rows = out.splitlines()[1:]
    assert header.split() == ["stage", "wall_s", "peak_rss_mb", "exit"]
    rows = [row.split() for row in rows]
    assert [name for name, *_ in rows] == ["filter", "denoise"]
    for _, wall, peak, code in rows:
        assert float(wall) > 0 and 5 < float(peak) < 1000 and code == "0"
