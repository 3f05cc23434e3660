"""The committed desk-output digests of tools/desk_digests.py.

Running the six desk presets takes minutes, so these tests check that the
digest file parses and covers every experiment's outputs, that a mismatch is
reported with its first differing row, and run only the quickest preset.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from nyfold.experiments import EXPERIMENTS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "desk_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("desk_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_file_covers_every_experiment():
    digests = load_tool().load_digests()
    assert tuple(digests) == EXPERIMENTS
    for experiment, files in digests.items():
        extra = {"spectrogram.csv"} if experiment == "spectrum" else set()
        plot = f"plot_{experiment.replace('-', '_')}.svg"
        assert set(files) == {"results.csv", "manifest.txt", plot} | extra
        for entry in files.values():
            assert re.fullmatch("[0-9a-f]{64}", entry["sha256"])
            rows = entry["rows"].split()
            assert rows and all(re.fullmatch("[0-9a-f]{8}", row) for row in rows)


def test_mismatch_names_the_first_differing_row(capsys):
    tool = load_tool()
    rows = ["c_k", "1", "0.5", "0.25"]
    expected = {"results.csv": tool.file_digest(rows)}
    assert tool.compare("mod-constant", expected, {"results.csv": tool.file_digest(rows)})
    moved = {"results.csv": tool.file_digest(rows[:2] + ["0.5000000000000001"] + rows[3:])}
    assert not tool.compare("mod-constant", expected, moved)
    assert capsys.readouterr().out.splitlines() == [
        "mod-constant/results.csv: match",
        "mod-constant/results.csv: mismatch, first differing row 3 "
        "(4 rows expected, 4 written)",
    ]


def test_run_preset_reports_wall_seconds_and_peak_rss(tmp_path):
    tool = load_tool()
    digests, wall_s, peak_rss_mb = tool.run_preset("strip-table", tmp_path / "strip-table")
    assert digests == tool.load_digests()["strip-table"]
    assert 0.0 < wall_s and 1.0 < peak_rss_mb < 1024.0
    with pytest.raises(RuntimeError, match="no-such-preset exited 2: usage"):
        tool.run_preset("no-such-preset", tmp_path / "none")
