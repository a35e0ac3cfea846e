"""The README's library tour names only what the package exports, and its code runs."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np

import hartogs
from hartogs.cli import main
from hartogs.sampling import _BOUNDS

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_rows():
    """``(module, contents)`` cells of the table under "## Library tour"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    # the contents cell may hold "|" inside code spans, so split off the module cell only
    return re.findall(r"^\| (`hartogs\.[^|]*?) \| (.*) \|$", section, flags=re.M)


def test_library_tour_names_resolve():
    # every backticked bare identifier of two or more characters in the
    # contents column is a public attribute of the package, so a deleted
    # or renamed function cannot stay listed
    rows = tour_rows()
    assert len(rows) >= 9
    names = [span for _, contents in rows for span in re.findall(r"`([^`]+)`", contents)
             if re.fullmatch(r"[A-Za-z_]\w+", span)]
    assert "extremal_report" in names
    missing = [name for name in names if not hasattr(hartogs, name)]
    assert missing == []


def test_sampling_row_quotes_the_grid_rules():
    # each GridSpec field's type and range rule, as the check words them, so a
    # changed rule cannot leave the README stale
    (contents,) = [contents for module, contents in tour_rows()
                   if module == "`hartogs.sampling`"]
    for field in dataclasses.fields(hartogs.GridSpec):
        kind = "an integer" if field.type == "int" else "a finite number"
        assert f"`GridSpec.{field.name}`: {kind}, {_BOUNDS[field.name][0]}" in contents, field.name


def python_blocks():
    """The README's ``python`` code blocks, in order."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.M | re.S)


def test_python_blocks_run(tmp_path, capsys):
    # the quick example prints the oracle gap, the scalar curvature and the verdict
    quick, rebuild, rho_rebuild = python_blocks()
    exec(quick, {})
    gap, _, verdict = capsys.readouterr().out.splitlines()
    assert float(gap) < 1e-8 and verdict == "NON_CONSTANT_CURVATURE"

    # the Ricci rebuild, on every record of a 20-point curvature-report
    out = tmp_path / "rep.json"
    cfg = tmp_path / "c.txt"
    cfg.write_text("command = curvature-report\nprofile.kind = exp\nn = 3\n"
                   f"grid.points = 20\noutput = {out}\n")
    assert main(["--config", str(cfg), "--quiet"]) == 0
    records = json.loads(out.read_text())["report"]["records"]
    prof = hartogs.exp_profile()
    assert len(records) == 20
    for rec in records:
        scope = {"np": np, "hg": hartogs, "rec": rec, "prof": prof}
        exec(rebuild, scope)
        assert scope["ric"].tobytes() == hartogs.ricci_closed_form(scope["z"], prof).tobytes()
        # the rho rebuild reads the record's scal and point alone
        scope = {"rec": {"point": rec["point"], "scal": rec["scal"]}}
        exec(rho_rebuild, scope)
        assert scope["rho"] == rec["rho"]


def test_config_block_runs(tmp_path, monkeypatch):
    # the documented config is a run as it stands: classify, linear(1,1), exit 0,
    # with its report and both dumps written next to it
    (block,) = re.findall(r"^```ini\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          flags=re.M | re.S)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.txt").write_text(block, encoding="utf-8")
    assert main(["--config", "run.txt", "--quiet"]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert (doc["config"]["command"], doc["config"]["profile"]["kind"]) == ("classify", "linear")
    assert doc["verdict"] == "HYPERBOLIC"
    for dump in ("grid.csv", "curves.scal.csv", "curves.L.csv"):
        assert (tmp_path / dump).stat().st_size > 0, dump
