"""The committed desk-output digests of tools/desk_digests.py.

Running the six desk presets takes minutes, so these tests check that the
digest file parses and covers every experiment's outputs, that a mismatch is
reported with its first differing row, and run only the quickest preset and
the quickest one that runs OMP (zone-id).
"""

import importlib.util
import json
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
    """Beside wall seconds, peak RSS and minor faults, the child's CPU seconds."""
    tool = load_tool()
    digests, wall_s, cpu_s, peak_rss_mb, minor_faults = tool.run_preset(
        "strip-table", tmp_path / "strip-table")
    assert digests == tool.load_digests()["strip-table"]
    assert 0.0 < wall_s and 0.0 < cpu_s and 1.0 < peak_rss_mb < 1024.0 and minor_faults > 0
    with pytest.raises(RuntimeError, match="no-such-preset exited 2: usage"):
        tool.run_preset("no-such-preset", tmp_path / "none")


def test_zone_id_preset_matches_its_digests(tmp_path):
    """Desk zone-id, the quickest preset that runs OMP, byte for byte."""
    tool = load_tool()
    digests, *_ = tool.run_preset("zone-id", tmp_path / "zone-id")
    assert tool.compare("zone-id", tool.load_digests()["zone-id"], digests)


def test_named_presets_run_alone_and_write_only_their_entries(tmp_path, monkeypatch):
    """Names pick presets (run in the file's order), --write with names replaces
    only their entries, and an unknown name exits 2 before anything runs."""
    tool = load_tool()
    committed = tool.load_digests()
    digest_file = tmp_path / "desk_digests.json"
    digest_file.write_text(json.dumps(committed, indent=1) + "\n", encoding="utf-8")
    monkeypatch.setattr(tool, "DIGESTS", digest_file)
    ran = []

    def moved_outputs(experiment, out_dir):
        ran.append(experiment)
        files = {name: tool.file_digest([experiment, "moved"]) for name in committed[experiment]}
        return files, 1.0, 0.9, 50.0, 1000

    monkeypatch.setattr(tool, "run_preset", moved_outputs)
    assert tool.main(["zone-id", "mod-constant"]) == 1  # compared, and mismatched
    assert ran == ["mod-constant", "zone-id"]
    ran.clear()
    assert tool.main(["--write", "mod-constant"]) == 0
    assert ran == ["mod-constant"]
    written = json.loads(digest_file.read_text(encoding="utf-8"))
    assert list(written) == list(committed)
    assert written["mod-constant"] != committed["mod-constant"]
    assert {name: files for name, files in written.items() if name != "mod-constant"} == {
        name: files for name, files in committed.items() if name != "mod-constant"}
    ran.clear()
    with pytest.raises(SystemExit) as excinfo:
        tool.main(["zone-id", "no-such-preset"])
    assert excinfo.value.code == 2 and ran == []
    assert tool.main([]) == 1 and tuple(ran) == EXPERIMENTS
