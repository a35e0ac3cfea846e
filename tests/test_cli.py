"""CLI: config grammar, dispatch, exit codes, report determinism."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hartogs.cli
from hartogs.cli import _records_text, main
from hartogs.curvature import CurvatureRecord
from hartogs.config import (
    MAX_N,
    VERDICTS,
    ConfigError,
    build_profile,
    load_config,
    parse_config_text,
)


_EXP = "command = check-kahler\nprofile.kind = exp\n"


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_nested_keys_and_types(self):
        tree = parse_config_text(
            "command = classify\n"
            "n = 3\n"
            "profile.kind = exp   # with a comment\n"
            "grid.a_margin = 0.1\n"
            "flag = true\n")
        assert tree["n"] == 3
        assert tree["profile"] == {"kind": "exp"}
        assert tree["grid"]["a_margin"] == 0.1
        assert tree["flag"] is True

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("command classify\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("n = 2\nn = 3\n")

    def test_validation(self, tmp_path):
        bad = [
            "command = classify\nprofile.kind = linear\nprofile.c1 = 1\nprofile.c2 = 1\nn = 1\n",
            "command = classify\nprofile.kind = linear\nprofile.c1 = 1\nprofile.c2 = 1\ngrid.points = 0\n",
            "command = classify\nprofile.kind = linear\nprofile.c1 = 1\nprofile.c2 = 1\ngrid.a_margin = 1.5\n",
            "command = classify\nprofile.kind = linear\nprofile.c1 = 1\nprofile.c2 = 1\ntolerances.oracle = -1\n",
            "command = wat\nprofile.kind = exp\n",
            "command = classify\n",
        ]
        for i, text in enumerate(bad):
            with pytest.raises(ConfigError):
                load_config(write_config(tmp_path, f"bad{i}.txt", text))

    def test_load_config_needs_a_profile_kind(self, tmp_path):
        # the library entry point rejects the section, not only the CLI's build_profile
        path = write_config(tmp_path, "c.txt", "command = check-kahler\nprofile.c1 = 1\n")
        with pytest.raises(ConfigError, match=r"^config needs a profile\.kind entry$"):
            load_config(path)

    @pytest.mark.parametrize("line", ["grid.points = abc", "n = 2.5", "fd_step = nan",
                                      "fd_step = 1" + "0" * 400, "tolerances = 5"],
                             ids=["points-abc", "n-2.5", "fd-nan", "fd-huge-int", "tol-scalar"])
    def test_type_errors_exit_2(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, "bad.txt",
                           "command = classify\nprofile.kind = exp\n" + line + "\n")
        assert main(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and line.split(" =")[0] in err

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_nonpositive_x_cap_exit_2(self, tmp_path, capsys, cap):
        cfg = write_config(tmp_path, "bad.txt", "command = classify\nprofile.kind = exp\n"
                           f"grid.x_cap = {cap}\n")
        assert main(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "grid.x_cap" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["curvature-report", "full-suite"])
    def test_n_above_max_exit_2(self, tmp_path, capsys, command):
        # n is bounded above as well: the closed forms are checked for n in 2..MAX_N
        profile = "" if command == "full-suite" else "profile.kind = exp\n"
        cfg = write_config(tmp_path, "bad.txt", f"command = {command}\n{profile}"
                           f"n = {MAX_N + 1}\ngrid.points = 5\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"config error: n must be in 2..{MAX_N}, got {MAX_N + 1}\n")
        ok = write_config(tmp_path, "ok.txt", f"command = {command}\n{profile}n = {MAX_N}\n")
        assert load_config(ok).n == MAX_N

    @pytest.mark.parametrize("command", ["check-kahler", "classify", "pseudoconvexity-test",
                                         "full-suite"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, command):
        # a seed the samplers cannot take is a one-line config error, not a traceback
        profile = "" if command == "full-suite" else "profile.kind = exp\n"
        cfg = write_config(tmp_path, "bad.txt", f"command = {command}\n{profile}"
                           "grid.points = 20\ngrid.seed = -1\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        assert capsys.readouterr().err == "config error: grid.seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["check-kahler", "pseudoconvexity-test", "full-suite"])
    def test_huge_point_count_exit_2(self, tmp_path, capsys, command):
        # a count beyond the samplers' bound is a one-line config error, not a
        # traceback from allocating the draw
        profile = "" if command == "full-suite" else "profile.kind = exp\n"
        huge = "1" + "0" * 40
        cfg = write_config(tmp_path, "bad.txt", f"command = {command}\n{profile}"
                           f"grid.points = {huge}\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"config error: grid.points must be in 1..100000, got {huge}\n")

    @pytest.mark.parametrize("line", ["grid.pointz = 5", "tolerances.clasify = 1",
                                      "fd_stepp = 1"])
    def test_unknown_key_exit_2(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, "bad.txt",
                           "command = classify\nprofile.kind = exp\n" + line + "\n")
        assert main(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: unknown key {line.split(' =')[0]!r}\n"

    @pytest.mark.parametrize("command,profile,typo", [
        ("classify", "profile.kind = exp\n", "profile.scal = 2.0"),
        ("extremal-test", "profile.kind = linear\nprofile.c1 = 1\nprofile.c2 = 1\n",
         "profile.p = 3"),
    ], ids=["exp-scal", "linear-p"])
    def test_unknown_profile_key_exit_2(self, tmp_path, capsys, command, profile, typo):
        # a key outside the kind's parameters is an error, not a silent default
        cfg = write_config(tmp_path, "bad.txt", f"command = {command}\n{profile}{typo}\n")
        assert main(["--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: unknown key {typo.split(' =')[0]!r}\n"

    @pytest.mark.parametrize("line", ["profile.kind = power\nprofile.p = 3", "fd_step = 1e-4",
                                      "csv_dump = grid.csv", "curve_dump = curves"],
                             ids=["profile", "fd_step", "csv_dump", "curve_dump"])
    def test_full_suite_rejects_unused_keys(self, tmp_path, capsys, line):
        # full-suite runs its own profiles, runs no FD oracle and writes no dumps
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        cfg = write_config(run_dir, "c.txt",
                           f"command = full-suite\ngrid.points = 40\n{line}\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: unknown key {line.split(' =')[0]!r}\n"
        assert sorted(p.name for p in run_dir.iterdir()) == ["c.txt"]

    @pytest.mark.parametrize("line", ["output = 5", "expect = 7", "csv_dump = true"])
    def test_string_keys_take_strings(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, "bad.txt",
                           "command = classify\nprofile.kind = exp\n" + line + "\n")
        assert main(["--config", cfg]) == 2
        key = line.split(" =")[0]
        assert capsys.readouterr().err.startswith(f"config error: {key} must be a string")

    def test_grammar_is_the_dataclasses(self, tmp_path):
        # every bounded key is a field, and the report's config block is the
        # dataclasses as dicts, defaults included
        from dataclasses import asdict, fields
        from hartogs.config import _RANGES, RunConfig, Tolerances
        from hartogs.sampling import GridSpec
        known = {f.name for f in fields(RunConfig)}
        known |= {f"{section}.{f.name}" for section, cls in
                  (("grid", GridSpec), ("tolerances", Tolerances)) for f in fields(cls)}
        assert set(_RANGES) <= known
        cfg = load_config(write_config(tmp_path, "c.txt",
                                       "command = classify\nprofile.kind = exp\n"))
        assert cfg.resolved() == asdict(RunConfig("classify", {"kind": "exp"}))
        assert cfg.resolved()["tolerances"] == {"oracle": 1e-5, "extremal": 1e-5,
                                                "classify": 1e-8}

    def test_unknown_profile_kind(self):
        with pytest.raises(ConfigError):
            build_profile({"kind": "spline"})
        with pytest.raises(ConfigError):
            build_profile({"kind": "linear", "c1": 1.0})   # missing c2

    @pytest.mark.parametrize("text,want", [
        (_EXP + "\n   # a comment-only line\n\t\n", {}),
        (_EXP + "n = 3.0\n", {"n": 3}),
        (_EXP + "csv_dump = false\n", "csv_dump must be a string, got False"),
        (_EXP + " = 3\n", "line 3: empty key or value"),
        (_EXP + "n =\n", "line 3: empty key or value"),
        (_EXP + "grid = 1\ngrid.points = 2\n",
         "line 4: key 'grid.points' conflicts with a scalar"),
        ("profile.kind = exp\n", "config needs a 'command' entry"),
        ("command = check-kahler\nprofile.c1 = 1\n", "config needs a profile.kind entry"),
        ("command = check-kahler\nprofile.kind = table\nprofile.path = three.csv\n",
         "table file {tmp}/three.csv must have two columns (x, F)"),
        ("command = check-kahler\nprofile.kind = table\nprofile.path = missing.csv\n",
         "bad profile specification: {tmp}/missing.csv not found."),
    ], ids=["blank-and-comment", "integral-float", "false", "empty-key", "empty-value",
            "scalar-conflict", "no-command", "no-kind", "three-columns", "missing-table"])
    def test_grammar_branches(self, tmp_path, capsys, text, want):
        # want is the one-line config error, or config entries (with their
        # types) of a run that passes
        np.savetxt(tmp_path / "three.csv", np.ones((10, 3)), delimiter=",")
        out = tmp_path / "rep.json"
        cfg = write_config(tmp_path, "c.txt", text + f"grid.points = 20\noutput = {out}\n")
        status = main(["--config", cfg, "--quiet"])
        err = capsys.readouterr().err
        if isinstance(want, str):
            assert (status, err) == (2, "config error: " + want.format(tmp=tmp_path) + "\n")
        else:
            assert (status, err) == (0, "")
            config = json.loads(out.read_text())["config"]
            assert {key: (config[key], type(config[key])) for key in want} == {
                key: (value, type(value)) for key, value in want.items()}

    @pytest.mark.parametrize("column,value", [(1, "nan"), (1, "inf"), (0, "nan")],
                             ids=["nan-F", "inf-F", "nan-x"])
    @pytest.mark.parametrize("command", ["check-kahler", "pseudoconvexity-test"])
    def test_non_finite_table_exit_2(self, tmp_path, capsys, column, value, command):
        # a NaN or inf in the table is a profile error naming the first bad row
        xs = np.linspace(0.0, 3.0, 20)
        rows = [[repr(x), repr(f)] for x, f in zip(xs.tolist(), np.exp(-xs).tolist())]
        rows[5][column] = value
        (tmp_path / "F.csv").write_text("".join(",".join(row) + "\n" for row in rows))
        cfg = write_config(tmp_path, "c.txt", f"command = {command}\nprofile.kind = table\n"
                           "profile.path = F.csv\ngrid.points = 20\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        x, f = (float(v) for v in rows[5])
        assert capsys.readouterr().err == (
            "error: table profile data must be finite: 1 row(s) with NaN or inf, "
            f"first row 5: (x, F) = ({x!r}, {f!r})\n")

    def test_table_above_zero_exit_2(self, tmp_path, capsys):
        # a table from x = 0.5 leaves z_0 = 0 uncovered: one line, exit 2, no run
        xs = np.linspace(0.5, 3.0, 20)
        np.savetxt(tmp_path / "F.csv", np.column_stack([xs, np.exp(-xs)]), delimiter=",")
        out = tmp_path / "rep.json"
        cfg = write_config(tmp_path, "c.txt", "command = check-kahler\nprofile.kind = table\n"
                           f"profile.path = F.csv\ngrid.points = 20\noutput = {out}\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: table abscissae must start at x <= 0, got x[0] = 0.5\n")
        assert not out.exists()

    def test_table_profile_from_csv(self, tmp_path):
        xs = np.linspace(0.0, 3.0, 120)
        rows = np.column_stack([xs, np.exp(-xs)])
        csv = tmp_path / "F.csv"
        np.savetxt(csv, rows, delimiter=",")
        prof = build_profile({"kind": "table", "path": "F.csv"}, base_dir=tmp_path)
        assert prof.kind == "table"
        assert prof.deriv(0, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-10)


class TestCommands:
    def test_classify_linear(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        cfg = write_config(tmp_path, "c.txt",
                           "command = classify\n"
                           "profile.kind = linear\nprofile.c1 = 1.0\nprofile.c2 = 1.0\n"
                           "grid.points = 80\ngrid.seed = 1\n"
                           f"output = {out}\n")
        assert main(["--config", cfg]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 2
        assert doc["verdict"] == "HYPERBOLIC"
        assert doc["config"]["profile"]["c1"] == 1.0
        assert doc["config"]["grid"]["points"] == 80
        assert "HYPERBOLIC" in capsys.readouterr().out

    def test_levi_test_on_the_flat_stratum(self, tmp_path, capsys):
        # linear(1, 0) has F' = 0 everywhere: the tangency condition leaves X_0
        # free, the Levi form on e_0 is -T = 0, and the sampled equivalence holds
        out = tmp_path / "rep.json"
        body = ("profile.kind = linear\nprofile.c1 = 1\nprofile.c2 = 0\n"
                f"n = 2\ngrid.points = 20\noutput = {out}\n")
        cfg = write_config(tmp_path, "c.txt", "command = pseudoconvexity-test\n" + body)
        assert main(["--config", cfg, "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())["report"]
        assert report["verdict"] == "CONSISTENT"
        assert report["min_levi"] <= 0.0 and report["max_indicator"] >= 0.0
        assert report["argmin"]["direction"] == [0.0, 0.0]
        cfg = write_config(tmp_path, "k.txt", "command = check-kahler\n" + body)
        assert main(["--config", cfg, "--quiet"]) == 1
        assert json.loads(out.read_text())["verdict"] == "NOT_KAHLER"

    def test_expectation_matching(self, tmp_path):
        base = ("command = extremal-test\n"
                "profile.kind = exp\n"
                "grid.points = 100\ngrid.seed = 4\n")
        ok = write_config(tmp_path, "ok.txt", base + "expect = NOT_EXTREMAL\n")
        bad = write_config(tmp_path, "bad.txt", base + "expect = EXTREMAL\n")
        none = write_config(tmp_path, "none.txt", base)
        assert main(["--config", ok, "--quiet"]) == 0
        assert main(["--config", bad, "--quiet"]) == 1
        # without an expectation, NOT_EXTREMAL counts as a verdict failure
        assert main(["--config", none, "--quiet"]) == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.txt", "command = classify\nn = 1\n")
        assert main(["--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err
        assert main(["--config", str(tmp_path / "missing.txt")]) == 2
        capsys.readouterr()
        # a file that is not UTF-8 (one Latin-1 byte in a comment) is a config error too
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("# caf\u00e9\ncommand = classify\nprofile.kind = exp\n"
                           .encode("latin-1"))
        assert main(["--config", str(latin1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {latin1}") and "utf-8" in err
        assert err.count("\n") == 1

    def test_byte_identical_reports(self, tmp_path):
        out = tmp_path / "rep.json"
        cfg = write_config(tmp_path, "c.txt",
                           "command = pseudoconvexity-test\n"
                           "profile.kind = exp\n"
                           "grid.points = 120\ngrid.seed = 3\n"
                           f"output = {out}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        first = out.read_bytes()
        assert main(["--config", cfg, "--quiet"]) == 0
        assert out.read_bytes() == first

    def test_output_override_and_quiet(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        override = tmp_path / "b.json"
        cfg = write_config(tmp_path, "c.txt",
                           "command = check-kahler\n"
                           "profile.kind = linear\nprofile.c1 = 2.0\nprofile.c2 = 0.5\n"
                           "grid.points = 50\n"
                           f"output = {out}\n")
        assert main(["--config", cfg, "--output", str(override), "--quiet"]) == 0
        assert override.exists() and not out.exists()
        assert capsys.readouterr().out == ""
        doc = json.loads(override.read_text())
        assert doc["verdict"] == "KAHLER"
        assert doc["report"]["positivity_agrees"] is True

    def test_quiet_without_output_writes_the_report(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "c.txt", "command = classify\nprofile.kind = exp\n"
                           "n = 2\ngrid.points = 30\n")
        assert main(["--config", cfg, "--quiet"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "NON_CONSTANT_CURVATURE"
        assert doc["config"]["output"] is None

    def test_curvature_report_with_csv(self, tmp_path):
        out = tmp_path / "rep.json"
        dump = tmp_path / "grid.csv"
        cfg = write_config(tmp_path, "c.txt",
                           "command = curvature-report\n"
                           "profile.kind = power\nprofile.p = 2.0\n"
                           "n = 2\ngrid.points = 40\ngrid.seed = 2\n"
                           f"output = {out}\ncsv_dump = {dump}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "PASS"
        assert len(doc["report"]["records"]) == 40
        header = dump.read_text().splitlines()[0]
        assert header == "z0_re,z0_im,z1_re,z1_im,A,B,C,L,G,det,min_eig"
        data = np.loadtxt(dump, delimiter=",", skiprows=1)
        assert data.shape == (40, 11)

    def test_oracle_tolerance_is_live(self, tmp_path):
        # an absurdly tight oracle tolerance must flip the verdict to FAIL
        base = ("command = curvature-report\n"
                "profile.kind = exp\n"
                "grid.points = 30\ngrid.seed = 2\n")
        loose = write_config(tmp_path, "loose.txt", base)
        tight = write_config(tmp_path, "tight.txt", base + "tolerances.oracle = 1e-16\n")
        assert main(["--config", loose, "--quiet"]) == 0
        assert main(["--config", tight, "--quiet"]) == 1

    @pytest.mark.parametrize("settings", [
        "profile.kind = exp\nn = 4\ngrid.points = 25\ngrid.seed = 1000010\n",
        "profile.kind = power\nprofile.p = 2.0\nn = 4\ngrid.seed = 7\n",
    ], ids=["exp-n4-seed1000010", "power2-n4-seed7"])
    def test_ricci_oracle_relative_limit(self, tmp_path, settings):
        # at these grids the FD Ricci error exceeds 1e-4 in absolute terms at
        # points where |Ric| is in the hundreds; judged relative to |Ric|, as
        # the metric oracle is, the closed form passes
        out = tmp_path / "rep.json"
        cfg = write_config(tmp_path, "c.txt", "command = curvature-report\n" + settings
                           + f"output = {out}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        errors = json.loads(out.read_text())["report"]["oracle_errors"]
        assert errors["ricci_abs"] > 1e-4

    @staticmethod
    def _nan_in_row_2(monkeypatch, name):
        """Make the batched oracle ``hartogs.cli.<name>`` return NaN in row 2."""
        calls = []
        real = getattr(hartogs.cli, name)

        def nan_row_2(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(out.shape)
            out[2] = np.nan
            return out

        monkeypatch.setattr(hartogs.cli, name, nan_row_2)
        return calls

    def test_non_finite_oracle_value_is_an_error(self, tmp_path, monkeypatch, capsys):
        # a NaN from the Ricci oracle at the third subsample point must not
        # be dropped by the reduction and turn into a PASS
        calls = self._nan_in_row_2(monkeypatch, "ricci_numeric")
        cfg = write_config(tmp_path, "c.txt",
                           "command = curvature-report\nprofile.kind = exp\n"
                           "n = 2\ngrid.points = 25\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert calls == [(25, 2, 2)]

    def test_non_finite_metric_oracle_value_is_an_error(self, tmp_path, monkeypatch, capsys):
        # the same for the FD metric oracle
        calls = self._nan_in_row_2(monkeypatch, "wirtinger_hessian")
        cfg = write_config(tmp_path, "c.txt",
                           "command = curvature-report\nprofile.kind = exp\n"
                           "n = 2\ngrid.points = 25\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        assert "non-finite metric oracle error" in capsys.readouterr().err
        assert calls == [(25, 2, 2)]

    def test_curve_dump(self, tmp_path):
        prefix = tmp_path / "curves"
        cfg = write_config(tmp_path, "c.txt",
                           "command = check-kahler\n"
                           "profile.kind = exp\n"
                           "grid.points = 50\n"
                           f"curve_dump = {prefix}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        scal = np.loadtxt(f"{prefix}.scal.csv", delimiter=",", skiprows=1)
        ell = np.loadtxt(f"{prefix}.L.csv", delimiter=",", skiprows=1)
        assert scal.shape[1] == 2 and ell.shape[1] == 2
        # along the fiber axis A = F, so scal = -6 + G F = -4 for this profile
        np.testing.assert_allclose(scal[:, 1], -4.0, atol=1e-10)
        np.testing.assert_allclose(ell[:, 1], -2.0, atol=1e-10)

    @pytest.mark.parametrize("key", ["output", "csv_dump", "curve_dump"])
    def test_unwritable_path_exit_2(self, tmp_path, capsys, key):
        target = tmp_path / "nonexistent" / "r.json"
        cfg = write_config(tmp_path, "c.txt", "command = check-kahler\nprofile.kind = exp\n"
                           f"grid.points = 20\n{key} = {target}\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1

    def test_full_suite_pattern(self, tmp_path):
        out = tmp_path / "suite.json"
        cfg = write_config(tmp_path, "c.txt",
                           "command = full-suite\n"
                           "grid.points = 120\ngrid.seed = 2\n"
                           f"output = {out}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "SUITE_PASS"
        rows = {r["profile"]: r for r in doc["report"]["profiles"]}
        assert rows["linear(1,1)"]["classify"] == "HYPERBOLIC"
        assert rows["linear(2,0.5)"]["extremal"] == "EXTREMAL"
        assert rows["exp"]["classify"] == "NON_CONSTANT_CURVATURE"
        assert rows["power(2)"]["extremal"] == "NOT_EXTREMAL"
        assert all(r["pseudoconvexity"] == "CONSISTENT" for r in rows.values())

    def test_full_suite_golden_report(self, tmp_path, monkeypatch):
        # reference bytes of this config; re-recorded when the Hamiltonian
        # field stopped forming the inverse metric, which moved the two
        # non-linear residuals at roundoff (pinned in the next test), again
        # when the rows' off-axis FD residual became the radial one, at
        # schema 2, and when the radial block stopped dividing by B^2, which
        # moved the exp and power(2) residuals at roundoff
        golden = Path(__file__).parent / "data" / "full_suite_n2_40.json"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text("command = full-suite\nn = 2\ngrid.points = 40\n"
                                        "grid.seed = 1\noutput = report.json\n")
        assert main(["--config", "c.txt", "--quiet"]) == 0
        assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()

    def test_full_suite_residuals_before_the_field_rewrite(self):
        # the golden report's two off-axis FD residuals as written before the
        # Hamiltonian field dropped the inverse-metric matrix and became the
        # radial form; the FD oracle still reproduces them at roundoff
        from hartogs import GridSpec, dbar_jacobian, exp_profile, interior_points
        from hartogs import power_profile
        for profile, before in ((exp_profile(1.0), 0.999999988440307),
                                (power_profile(2.0), 0.5900994081584056)):
            pts = interior_points(profile, 2, GridSpec(points=40, seed=1))
            mags = np.abs(pts)
            off_axis = (mags[:, :1] * mags[:, 1:]).min(axis=1) > 0.05
            residual = np.max(np.abs(dbar_jacobian(pts[off_axis], profile)))
            assert residual == pytest.approx(before, rel=1e-12)

    def test_extremal_test_at_n12(self, tmp_path):
        # a verdict at the largest n on a large grid: no off-axis cut to starve
        cfg = write_config(tmp_path, "c.txt", "command = extremal-test\nprofile.kind = exp\n"
                           "n = 12\ngrid.points = 2000\nexpect = NOT_EXTREMAL\n"
                           f"output = {tmp_path / 'rep.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        report = json.loads((tmp_path / "rep.json").read_text())["report"]
        assert report["oracle_fiber_error"] <= 1e-8

    def test_classify_reports_the_radial_residual(self, tmp_path):
        # classify's extremal_max_residual is extremal-test's max_residual on
        # the same grid, whatever fd_step is
        from hartogs import GridSpec, exp_profile, extremal_report
        out = tmp_path / "rep.json"
        cfg = write_config(tmp_path, "c.txt", "command = classify\nprofile.kind = exp\n"
                           "n = 3\nfd_step = 5e-4\ngrid.points = 30\ngrid.seed = 4\n"
                           f"expect = NON_CONSTANT_CURVATURE\noutput = {out}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        residual = json.loads(out.read_text())["report"]["extremal_max_residual"]
        rep = extremal_report(exp_profile(1.0), 3, GridSpec(points=30, seed=4))
        assert residual == rep.max_residual

    def test_full_suite_needs_positivity_agreement(self, tmp_path, monkeypatch, capsys):
        # a negated interior metric makes check-kahler's positivity
        # cross-check disagree with its indicator verdict: the row fails
        metric = hartogs.cli.metric_closed_form
        monkeypatch.setattr(hartogs.cli, "metric_closed_form", lambda *args: -metric(*args))
        cfg = write_config(tmp_path, "c.txt", "command = full-suite\ngrid.points = 40\n"
                           f"output = {tmp_path / 'rep.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 1
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["verdict"] == "SUITE_FAIL"
        assert not any(row["as_expected"] for row in doc["report"]["profiles"])
        assert all(row["kahler"] == "KAHLER" for row in doc["report"]["profiles"])

    @pytest.mark.parametrize("command, verdict", [("classify", "NON_CONSTANT_CURVATURE"),
                                                  ("extremal-test", "NOT_EXTREMAL")])
    def test_scaled_exp_gives_the_unscaled_verdict(self, tmp_path, command, verdict):
        # exp(-50 x) is exp(-x) under z_0 -> sqrt(50) z_0; B ~ F^2 underflows
        # on the x sweep (x' = 50 x up to 250), so no term may divide by B^2
        for scale in (1, 50):
            cfg = write_config(tmp_path, "c.txt", f"command = {command}\nprofile.kind = exp\n"
                               f"profile.scale = {scale}\nn = 3\nexpect = {verdict}\n"
                               f"output = {tmp_path / 'rep.json'}\n")
            assert main(["--config", cfg, "--quiet"]) == 0, scale
            assert json.loads((tmp_path / "rep.json").read_text())["verdict"] == verdict

    def test_zero_over_zero_is_a_numeric_error(self, tmp_path, capsys):
        # exp(-200 x) underflows to 0 beyond x = 3.73 on the boundary draw (x up
        # to 5): the fiber of such a boundary point is 0, and its unit direction
        # 0/0 must exit 2, not leave a NaN in a verdict's report
        out = tmp_path / "rep.json"
        cfg = write_config(tmp_path, "c.txt", "command = pseudoconvexity-test\n"
                           "profile.kind = exp\nprofile.scale = 200\ngrid.points = 40\n"
                           f"output = {out}\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: floating-point error: invalid value encountered")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_positive_profile_is_one_line(self, tmp_path, capsys):
        # exp(-160 x) underflows to 0 on the indicator's x grid: the message
        # gives the count and the first abscissa, not the whole array
        cfg = write_config(tmp_path, "c.txt", "command = check-kahler\nprofile.kind = exp\n"
                           "profile.scale = 160\ngrid.points = 40\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: profile non-positive at ")
        assert err.count("\n") == 1

    def test_overflow_is_a_numeric_error(self, tmp_path, capsys):
        # linear(1e-300, 1) squares values near 1e300 in the indicator: the
        # overflow exits 2 with one line instead of printing a RuntimeWarning
        cfg = write_config(tmp_path, "c.txt", "command = check-kahler\nprofile.kind = linear\n"
                           "profile.c1 = 1e-300\nprofile.c2 = 1\ngrid.points = 40\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: floating-point error: overflow encountered")
        assert err.count("\n") == 1 and "RuntimeWarning" not in err


class TestExpect:
    @pytest.mark.parametrize("command", list(VERDICTS))
    def test_every_verdict_of_the_command_is_accepted(self, tmp_path, command):
        profile = "" if command == "full-suite" else "profile.kind = exp\n"
        for verdict in VERDICTS[command]:
            cfg = load_config(write_config(tmp_path, "c.txt", f"command = {command}\n"
                                           f"{profile}expect = {verdict}\n"))
            assert cfg.expect == verdict

    def test_positive_verdicts_are_the_first_of_each_command(self):
        assert hartogs.cli.POSITIVE_VERDICTS == {"KAHLER", "PASS", "EXTREMAL", "CONSISTENT",
                                                 "HYPERBOLIC", "SUITE_PASS"}

    @pytest.mark.parametrize("command,expect", [
        ("classify", "HYPERBLIC"), ("classify", "EXTREMAL"), ("full-suite", "PASS"),
        ("check-kahler", "kahler")])
    def test_another_verdict_exits_2(self, tmp_path, capsys, command, expect):
        profile = "" if command == "full-suite" else (
            "profile.kind = linear\nprofile.c1 = 1\nprofile.c2 = 1\n")
        out = tmp_path / "rep.json"
        cfg = write_config(tmp_path, "c.txt", f"command = {command}\n{profile}"
                           f"grid.points = 20\nexpect = {expect}\noutput = {out}\n")
        assert main(["--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: expect must be one of ") and err.count("\n") == 1
        assert repr(expect) in err and not out.exists()


class TestOneInteriorDraw:
    """Each run draws every interior grid once, through ``sampling._draw``."""

    @pytest.fixture
    def draws(self, monkeypatch):
        import hartogs.sampling
        calls = []
        draw = hartogs.sampling._draw

        def spy(profile, n, spec):
            calls.append((profile.describe(), n, spec))
            return draw(profile, n, spec)

        monkeypatch.setattr(hartogs.sampling, "_draw", spy)
        return calls

    def test_full_suite_draws_four_grids(self, tmp_path, draws):
        cfg = write_config(tmp_path, "c.txt", "command = full-suite\ngrid.points = 40\n"
                           f"output = {tmp_path / 'rep.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        # one grid per suite profile, no two alike
        assert [d["kind"] for d, _, _ in draws] == ["linear", "linear", "exp", "power"]
        assert len(set(map(repr, draws))) == 4

    @pytest.mark.parametrize("command", ["check-kahler", "curvature-report", "extremal-test",
                                         "pseudoconvexity-test", "classify"])
    @pytest.mark.parametrize("kind", ["linear", "exp"])
    def test_single_profile_command_draws_at_most_once(self, tmp_path, draws, command, kind):
        profile = ("profile.kind = linear\nprofile.c1 = 2\nprofile.c2 = 0.5\n"
                   if kind == "linear" else "profile.kind = exp\n")
        cfg = write_config(tmp_path, "c.txt", f"command = {command}\n{profile}"
                           f"grid.points = 30\noutput = {tmp_path / 'rep.json'}\n"
                           f"csv_dump = {tmp_path / 'grid.csv'}\n")
        assert main(["--config", cfg, "--quiet"]) in (0, 1)
        assert len(draws) == 1
        assert (tmp_path / "grid.csv").exists()

    def test_pseudoconvexity_without_dump_draws_no_interior_grid(self, tmp_path, draws):
        cfg = write_config(tmp_path, "c.txt", "command = pseudoconvexity-test\n"
                           "profile.kind = exp\ngrid.points = 30\n"
                           f"output = {tmp_path / 'rep.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        assert draws == []


class TestSuiteReadsVerdicts:
    """``full-suite`` computes only what its rows read, and each seeded stream once."""

    SUITE = "command = full-suite\nn = 3\ngrid.points = 40\ngrid.seed = 5\n"

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        import hartogs.extremal
        calls = []
        for name in ("dbar_jacobian", "reduced_conditions"):
            def spy(*args, _name=name, _fn=getattr(hartogs.extremal, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(hartogs.extremal, name, spy)
        return calls

    def test_no_oracle_in_the_suite(self, tmp_path, oracle_calls):
        cfg = write_config(tmp_path, "c.txt", self.SUITE + f"output = {tmp_path / 'r.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        assert oracle_calls == []
        cfg = write_config(tmp_path, "e.txt", "command = extremal-test\nprofile.kind = exp\n"
                           f"grid.points = 40\noutput = {tmp_path / 'e.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 1
        assert sorted(oracle_calls) == ["dbar_jacobian", "reduced_conditions"]

    def test_rows_equal_the_reports(self, tmp_path):
        from hartogs import GridSpec, equivalence_check, extremal_report
        cfg = write_config(tmp_path, "c.txt", self.SUITE + f"output = {tmp_path / 'r.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        rows = json.loads((tmp_path / "r.json").read_text())["report"]["profiles"]
        spec = GridSpec(points=40, seed=5)
        for row, (label, make, _) in zip(rows, hartogs.cli._SUITE_PROFILES):
            ext = extremal_report(make(), 3, spec)
            assert (row["profile"], row["max_residual"]) == (label, ext.max_residual)
            assert row["extremal"] == ext.verdict
            assert row["pseudoconvexity"] == equivalence_check(make(), 3, spec).verdict

    def test_each_seeded_draw_once(self, tmp_path):
        from hartogs.sampling import _boundary_draw, _halton_terms
        _halton_terms.cache_clear()
        _boundary_draw.cache_clear()
        cfg = write_config(tmp_path, "c.txt", self.SUITE + f"output = {tmp_path / 'r.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        # four profiles read each draw: one computed, three memo hits
        for memo in (_halton_terms, _boundary_draw):
            info = memo.cache_info()
            assert (info.misses, info.hits) == (1, 3), memo.__name__


    def test_dimension_0_once(self, tmp_path):
        from hartogs import exp_profile, interior_points
        from hartogs.sampling import GridSpec, _halton, _halton_terms, _halton_x
        _halton_x.cache_clear()
        cfg = write_config(tmp_path, "c.txt", self.SUITE + f"output = {tmp_path / 'r.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        info = _halton_x.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        # the suite's block: seed 5, indices 0..79 (two per point, 40 points)
        u = _halton_x(5, 0, 80)
        assert not u.flags.writeable
        for d in (5, 7, 25):   # dimension 0 of the sequence at n = 2, 3 and 12
            assert u.tobytes() == _halton(_halton_terms(d, 5), np.arange(80))[:, 0].tobytes()
        # a changed seed, block or block size misses; a changed n shares the entry
        for seed, start, rows in ((6, 0, 80), (5, 80, 80), (5, 0, 82)):
            misses = _halton_x.cache_info().misses
            _halton_x(seed, start, rows)
            assert _halton_x.cache_info().misses == misses + 1
        interior_points(exp_profile(), 3, GridSpec(points=40, seed=5))
        misses = _halton_x.cache_info().misses
        interior_points(exp_profile(), 12, GridSpec(points=40, seed=5))
        assert _halton_x.cache_info().misses == misses


class TestPositivityRule:
    """``check-kahler`` and ``full-suite`` decide positivity by one batched Cholesky
    factorization of the sample's metrics; only ``check-kahler`` prints an eigenvalue."""

    @pytest.fixture
    def linalg_calls(self, monkeypatch):
        calls = []
        for name in ("eigvalsh", "cholesky"):
            def spy(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        return calls

    def test_the_suite_computes_no_eigenvalues(self, tmp_path, linalg_calls):
        cfg = write_config(tmp_path, "s.txt", "command = full-suite\nn = 2\ngrid.points = 40\n"
                           f"output = {tmp_path / 's.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        assert (linalg_calls.count("eigvalsh"), linalg_calls.count("cholesky")) == (0, 4)
        linalg_calls.clear()
        cfg = write_config(tmp_path, "k.txt", _EXP + f"grid.points = 40\noutput = {tmp_path / 'k.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        assert sorted(linalg_calls) == ["cholesky", "eigvalsh"]

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_one_rule_on_every_sample(self, tmp_path, monkeypatch, n):
        from hartogs import (GridSpec, interior_points, linear_profile, metric_closed_form,
                             profile_from_function)
        # indicator -1 + 2x: positive beyond x = 0.5, so the metric is indefinite there
        indefinite = profile_from_function(lambda j: (-j + 0.5 * j * j).exp(), x0=1.0)
        cases = [(make(), "KAHLER") for _, make, _ in hartogs.cli._SUITE_PROFILES]
        cases += [(linear_profile(1.0, 0.0), "NOT_KAHLER"), (indefinite, "NOT_KAHLER")]
        out = tmp_path / "k.json"
        cfg = write_config(tmp_path, "k.txt", _EXP + f"n = {n}\ngrid.points = 100\noutput = {out}\n")
        for profile, verdict in cases:
            monkeypatch.setattr(hartogs.cli, "build_profile", lambda *_, _p=profile: _p)
            assert main(["--config", cfg, "--quiet"]) == (0 if verdict == "KAHLER" else 1)
            document = json.loads(out.read_text())
            assert document["verdict"] == verdict
            assert document["report"]["positivity_agrees"] is True
            h = metric_closed_form(interior_points(profile, n, GridSpec(points=100)), profile)
            try:
                np.linalg.cholesky(h)
                positive = True
            except np.linalg.LinAlgError:
                positive = False
            min_eig = document["report"]["min_metric_eigenvalue"]
            assert positive == (np.linalg.eigvalsh(h).min() > 0) == (min_eig > 0)
            assert positive == (verdict == "KAHLER")
        assert min_eig < 0.0   # the indefinite profile's


class TestOneEvaluationPerRun:
    """A ``curvature-report`` run evaluates the metric and ``B`` of its sample once."""

    CONFIG = ("command = curvature-report\nprofile.kind = exp\nn = 4\n"
              "grid.points = 40\nexpect = PASS\n")

    def test_metric_is_evaluated_once(self, tmp_path, monkeypatch):
        import hartogs.geometry
        calls = []
        metric = hartogs.geometry.metric_closed_form

        def spy(z, profile):
            calls.append(np.shape(getattr(z, "points", z)))
            return metric(z, profile)

        # the modules import it by name: route every binding through the spy
        for module in list(sys.modules.values()):
            if (module.__name__.startswith("hartogs")
                    and vars(module).get("metric_closed_form") is metric):
                monkeypatch.setattr(module, "metric_closed_form", spy)
        cfg = write_config(tmp_path, "c.txt", self.CONFIG + f"output = {tmp_path / 'r.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        assert calls == [(40, 4)]

    def test_b_is_built_once_on_the_sample(self, tmp_path, count_builds):
        b_built, block_built = count_builds("B"), count_builds("_curvature_terms")
        cfg = write_config(tmp_path, "c.txt", self.CONFIG + f"output = {tmp_path / 'r.json'}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        # the other B builds are on the Ricci oracle's stencil points, not the sample
        shapes = [np.shape(record.x) for record in b_built]
        assert shapes.count((40,)) == 1 and all(shape[0] > 40 for shape in shapes if shape != (40,))
        assert [np.shape(record.x) for record in block_built] == [(40,)]


class TestOneEvaluationPerBatch:
    """A run evaluates each point batch once: its ``derivs`` calls and metric builds
    (n = 2, 40 points, seed 1)."""

    @pytest.fixture
    def metric_builds(self, monkeypatch):
        import hartogs.geometry
        built = []
        metric = hartogs.geometry._metric
        monkeypatch.setattr(hartogs.geometry, "_metric",
                            lambda p: built.append(p.points.shape) or metric(p))
        return built

    @pytest.mark.parametrize("command,profile,calls,builds", [
        # the suite's linear rows read their kept metric; the boundary batch
        # gives the Levi form and the indicator one table
        ("full-suite", "", 28, 6),
        ("pseudoconvexity-test", "exp", 1, 0),
        ("classify", "linear", 6, 2),
        ("classify", "exp", 4, 0),
        ("check-kahler", "exp", 4, 1),
        ("curvature-report", "exp", 5, 1),
        ("extremal-test", "exp", 5, 0),
    ])
    def test_counts(self, tmp_path, derivs_calls, metric_builds, command, profile,
                    calls, builds):
        kind = {"": "", "exp": "profile.kind = exp\n",
                "linear": "profile.kind = linear\nprofile.c1 = 1\nprofile.c2 = 1\n"}[profile]
        cfg = write_config(tmp_path, "c.txt", f"command = {command}\n{kind}n = 2\n"
                           f"grid.points = 40\ngrid.seed = 1\noutput = {tmp_path / 'r.json'}\n")
        assert main(["--config", cfg, "--quiet"]) in (0, 1)
        assert (len(derivs_calls), len(metric_builds)) == (calls, builds)


_SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e308,
                   -1e308, 1e16, 1e-7, 0.1]
_floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))


def _complex(re, im):
    # set the parts directly: re + 1j * im would turn an inf part into NaN
    z = np.zeros(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


class TestReportWriter:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.integers(2, 3), st.data())
    def test_records_match_their_expansion(self, m, n, data):
        # the row table renders like json.dumps of the list of rows it stands for
        def draw(*shape):
            count = int(np.prod(shape))
            return np.array(data.draw(st.lists(_floats, min_size=count, max_size=count)),
                            dtype=float).reshape(shape)

        point = _complex(draw(m, n), draw(m, n))
        ell, scal, rho = draw(m), draw(m), draw(m, n)
        rows = []
        for i in range(m):
            pt = []
            for c in point[i]:
                pt += [float(c.real), float(c.imag)]
            rows.append({"point": pt, "L": float(ell[i]),
                         "scal": float(scal[i]), "rho": [float(r) for r in rho[i]]})
        text = _records_text(CurvatureRecord(point, ell, scal, rho))
        expected = json.dumps({"report": {"records": rows}}, sort_keys=True, indent=2)
        assert '{\n  "report": {\n    "records": ' + text + "\n  }\n}" == expected

    def test_records_splice_point_is_unique(self, tmp_path):
        # a path that spells the splice text in a string leaves the report
        # equal to json.dumps of the expanded document
        out = tmp_path / 'a"records": []b.json'
        cfg = write_config(tmp_path, "c.txt", "command = curvature-report\nprofile.kind = exp\n"
                           f"n = 2\ngrid.points = 20\noutput = {out}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        document, _, _ = hartogs.cli.run(load_config(cfg), base_dir=tmp_path)
        batch = document["report"]["records"]
        document["report"]["records"] = [
            CurvatureRecord(*fields).to_json()
            for fields in zip(batch.point, batch.L, batch.scal, batch.rho)]
        assert out.read_text() == json.dumps(document, sort_keys=True, indent=2) + "\n"

    def test_curvature_report_golden(self, tmp_path, monkeypatch):
        # reference bytes of this config, written before the report writer and
        # the batched oracles replaced json.dumps and the per-point oracle loop;
        # re-recorded at schema 2, whose records carry L in place of the Ricci
        # matrix (point, rho and scal kept their bytes), and again when the
        # Hessian oracle read its entries by polarization (only the two FD
        # oracle errors moved)
        golden = Path(__file__).parent / "data" / "curvature_report_exp_n3_40.json"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text("command = curvature-report\nprofile.kind = exp\n"
                                        "n = 3\ngrid.points = 40\ngrid.seed = 1\n"
                                        "output = report.json\n")
        assert main(["--config", "c.txt", "--quiet"]) == 0
        assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()

    def test_pseudoconvexity_report_golden(self, tmp_path, monkeypatch):
        # reference bytes of this config, recorded when the boundary sampler
        # began to draw its samples in three blocks; re-recorded at schema 2,
        # and when the indicator came to be read at |z_0|^2 (argmax_x moved)
        golden = Path(__file__).parent / "data" / "pseudoconvexity_exp_n3_200.json"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text("command = pseudoconvexity-test\nprofile.kind = exp\n"
                                        "n = 3\ngrid.points = 200\ngrid.seed = 1\n"
                                        "output = report.json\n")
        assert main(["--config", "c.txt", "--quiet"]) == 0
        assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()

    def test_grid_dump_golden(self, tmp_path, monkeypatch):
        # reference bytes of this config's grid dump, recorded before the
        # closed forms took one point-batch record in place of its pieces
        golden = Path(__file__).parent / "data" / "grid_exp_n3_40.csv"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text("command = check-kahler\nprofile.kind = exp\n"
                                        "n = 3\ngrid.points = 40\ngrid.seed = 1\n"
                                        "output = report.json\ncsv_dump = grid.csv\n")
        assert main(["--config", "c.txt", "--quiet"]) == 0
        assert (tmp_path / "grid.csv").read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("name,body", [
        ("check_kahler_exp_n3_40.json", "command = check-kahler\nprofile.kind = exp\n"),
        ("classify_exp_n3_40.json", "command = classify\nprofile.kind = exp\n"
                                    "expect = NON_CONSTANT_CURVATURE\n"),
        ("classify_linear_n3_40.json", "command = classify\nprofile.kind = linear\n"
                                       "profile.c1 = 2.0\nprofile.c2 = 0.5\n"),
        ("extremal_exp_n3_40.json", "command = extremal-test\nprofile.kind = exp\n"
                                    "expect = NOT_EXTREMAL\n"),
    ], ids=["check-kahler", "classify-exp", "classify-linear", "extremal-test"])
    def test_command_report_golden(self, tmp_path, monkeypatch, name, body):
        # reference bytes of these configs, recorded before the closed forms
        # took the run's interior sample in place of its points; the
        # classify-linear pullback_max_error re-recorded when the pullback
        # took the oracles' per-point relative measure, and the classify-exp
        # and extremal-test residuals (and the table's r1, r2) at roundoff
        # when the radial block stopped dividing by B^2
        golden = Path(__file__).parent / "data" / name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text(body + "n = 3\ngrid.points = 40\ngrid.seed = 1\n"
                                        f"output = {name}\n")
        assert main(["--config", "c.txt", "--quiet"]) == 0
        assert (tmp_path / name).read_bytes() == golden.read_bytes()

    def test_curve_dump_golden(self, tmp_path, monkeypatch):
        # reference bytes of this config's curve dump pair, recorded with the
        # report goldens above
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text("command = check-kahler\nprofile.kind = power\n"
                                        "profile.p = 2.0\nn = 3\ngrid.points = 40\n"
                                        "grid.seed = 1\noutput = report.json\n"
                                        "curve_dump = curves_power2_n3\n")
        assert main(["--config", "c.txt", "--quiet"]) == 0
        for tag in ("scal", "L"):
            name = f"curves_power2_n3.{tag}.csv"
            golden = Path(__file__).parent / "data" / name
            assert (tmp_path / name).read_bytes() == golden.read_bytes()

    def test_records_equal_per_point_to_json(self, tmp_path):
        # the rows are CurvatureRecord.to_json() of each point of the batch
        from hartogs import CurvatureRecord, GridSpec, curvature_record, interior_points
        from hartogs import power_profile
        out = tmp_path / "rep.json"
        cfg = write_config(tmp_path, "c.txt", "command = curvature-report\nprofile.kind = power\n"
                           f"profile.p = 2.0\nn = 3\ngrid.points = 30\noutput = {out}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        prof = power_profile(2.0)
        batch = curvature_record(interior_points(prof, 3, GridSpec(points=30)), prof)
        expected = [CurvatureRecord(*fields).to_json()
                    for fields in zip(batch.point, batch.L, batch.scal, batch.rho)]
        assert json.loads(out.read_text())["report"]["records"] == expected

    @pytest.mark.parametrize("n", [3, 6])
    def test_records_rebuild_ricci_bit_for_bit(self, tmp_path, n):
        # a record's point and L fix its Ricci matrix: -(n+1) g(point), with L
        # subtracted from the real (0,0) entry, is ricci_closed_form(point)
        from hartogs import exp_profile, metric_closed_form, ricci_closed_form
        out = tmp_path / "rep.json"
        cfg = write_config(tmp_path, "c.txt", "command = curvature-report\nprofile.kind = exp\n"
                           f"n = {n}\ngrid.points = 30\ngrid.seed = 4\noutput = {out}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        records = json.loads(out.read_text())["report"]["records"]
        assert len(records) == 30 and all(sorted(r) == ["L", "point", "rho", "scal"]
                                          for r in records)
        prof = exp_profile(1.0)
        for record in records:
            parts = np.array(record["point"]).reshape(n, 2)
            point = _complex(parts[:, 0], parts[:, 1])
            ric = -(n + 1.0) * metric_closed_form(point, prof)
            ric[0, 0] = ric[0, 0].real - record["L"]
            assert ric.tobytes() == ricci_closed_form(point, prof).tobytes()


def _decades(lo, hi):
    """Numbers spread over the decades ``10^lo .. 10^hi``."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


_PROFILE_SECTIONS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("linear"), "c1": _decades(-3, 3),
                           "c2": st.one_of(st.just(0.0), _decades(-3, 3))}),
    st.fixed_dictionaries({"kind": st.just("exp"), "scale": _decades(-3, 3)}),
    st.fixed_dictionaries({"kind": st.just("power"), "p": _decades(-2, 2)}))


def _no_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


class TestAcceptedInputs:
    """Random in-range configs: exit 0 or 1 with a finite report, or exit 2 with one line."""

    @pytest.mark.parametrize("command", [c for c in VERDICTS if c != "full-suite"])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(n=st.integers(2, 6), points=st.integers(1, 40), seed=st.integers(0, 2**32),
           profile=_PROFILE_SECTIONS, a_margin=st.floats(1e-3, 0.999),
           x_cap=_decades(-2, 3), fd_step=_decades(-6, -1))
    def test_exit_status_and_output(self, command, n, points, seed, profile, a_margin,
                                    x_cap, fd_step):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "report.json")
            text = (f"command = {command}\nn = {n}\ngrid.points = {points}\n"
                    f"grid.seed = {seed}\ngrid.a_margin = {a_margin!r}\n"
                    f"grid.x_cap = {x_cap!r}\nfd_step = {fd_step!r}\noutput = {out}\n")
            text += "".join(f"profile.{key} = {value}\n" for key, value in profile.items())
            cfg = Path(tmp, "c.txt")
            cfg.write_text(text)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = main(["--config", str(cfg), "--quiet"])
            assert stdout.getvalue() == "", text
            if status == 2:
                err = stderr.getvalue()
                assert err.count("\n") == 1 and err.endswith("\n") and err.strip(), text
                assert not out.exists(), text
            else:
                assert status in (0, 1) and stderr.getvalue() == "", text
                document = json.loads(out.read_text(), parse_constant=_no_constant)
                assert document["verdict"] in VERDICTS[command], text


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("command = classify\n"
                   "profile.kind = linear\nprofile.c1 = 1.0\nprofile.c2 = 1.0\n"
                   "grid.points = 40\n")
    proc = subprocess.run([sys.executable, "-m", "hartogs", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "HYPERBOLIC" in proc.stdout


def test_cli_imports_five_private_names():
    # the CLI reads every closed form by its public name; the Ricci matrices
    # of the records, the interleaved point spelling, the pipelines' one
    # non-finite guard, the FD oracles' one error measure and the full-suite's
    # extremality verdict without the oracle are its private needs
    import ast
    tree = ast.parse(Path(hartogs.cli.__file__).read_text())
    private = sorted(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     for alias in node.names
                     if alias.name.startswith("_") and not alias.name.startswith("__"))
    assert private == ["_extremal_verdict", "_finite_max", "_interleave", "_oracle_error",
                       "_ricci"]
