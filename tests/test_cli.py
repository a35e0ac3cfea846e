"""CLI: config grammar, dispatch, exit codes, report determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hartogs.cli
from hartogs.cli import _records_text, main
from hartogs.curvature import CurvatureRecord
from hartogs.config import ConfigError, build_profile, load_config, parse_config_text


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

    @pytest.mark.parametrize("line", ["grid.pointz = 5", "tolerances.clasify = 1",
                                      "fd_stepp = 1"])
    def test_unknown_key_exit_2(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, "bad.txt",
                           "command = classify\nprofile.kind = exp\n" + line + "\n")
        assert main(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: unknown key {line.split(' =')[0]!r}\n"

    def test_unknown_profile_kind(self):
        with pytest.raises(ConfigError):
            build_profile({"kind": "spline"})
        with pytest.raises(ConfigError):
            build_profile({"kind": "linear", "c1": 1.0})   # missing c2

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
        assert doc["schema"] == 1
        assert doc["verdict"] == "HYPERBOLIC"
        assert doc["config"]["profile"]["c1"] == 1.0
        assert doc["config"]["grid"]["points"] == 80
        assert "HYPERBOLIC" in capsys.readouterr().out

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
        # non-linear residuals at roundoff (pinned in the next test), and
        # again when the rows' off-axis FD residual became the radial one
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
        ricci = _complex(draw(m, n, n), draw(m, n, n))
        scal, rho = draw(m), draw(m, n)
        rows = []
        for i in range(m):
            pt = []
            for c in point[i]:
                pt += [float(c.real), float(c.imag)]
            rows.append({"point": pt,
                         "ricci": [[float(v.real), float(v.imag)] for v in ricci[i].reshape(-1)],
                         "scal": float(scal[i]), "rho": [float(r) for r in rho[i]]})
        text = _records_text(CurvatureRecord(point, ricci, scal, rho))
        expected = json.dumps({"report": {"records": rows}}, sort_keys=True, indent=2)
        assert '{\n  "report": {\n    "records": ' + text + "\n  }\n}" == expected

    def test_records_splice_point_is_unique(self, tmp_path):
        # a user-set "records" key and a path that spells the splice text in
        # a string leave the report equal to json.dumps of the expanded document
        out = tmp_path / 'a"records": []b.json'
        cfg = write_config(tmp_path, "c.txt", "command = curvature-report\nprofile.kind = exp\n"
                           f"profile.records = 1\nn = 2\ngrid.points = 20\noutput = {out}\n")
        assert main(["--config", cfg, "--quiet"]) == 0
        document, _, _ = hartogs.cli.run(load_config(cfg), base_dir=tmp_path)
        batch = document["report"]["records"]
        document["report"]["records"] = [
            CurvatureRecord(*fields).to_json()
            for fields in zip(batch.point, batch.ricci, batch.scal, batch.rho)]
        assert out.read_text() == json.dumps(document, sort_keys=True, indent=2) + "\n"

    def test_curvature_report_golden(self, tmp_path, monkeypatch):
        # reference bytes of this config, written before the report writer and
        # the batched oracles replaced json.dumps and the per-point oracle loop
        golden = Path(__file__).parent / "data" / "curvature_report_exp_n3_40.json"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text("command = curvature-report\nprofile.kind = exp\n"
                                        "n = 3\ngrid.points = 40\ngrid.seed = 1\n"
                                        "output = report.json\n")
        assert main(["--config", "c.txt", "--quiet"]) == 0
        assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()

    def test_pseudoconvexity_report_golden(self, tmp_path, monkeypatch):
        # reference bytes of this config, recorded when the boundary sampler
        # began to draw its samples in three blocks
        golden = Path(__file__).parent / "data" / "pseudoconvexity_exp_n3_200.json"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text("command = pseudoconvexity-test\nprofile.kind = exp\n"
                                        "n = 3\ngrid.points = 200\ngrid.seed = 1\n"
                                        "output = report.json\n")
        assert main(["--config", "c.txt", "--quiet"]) == 0
        assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()

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
                    for fields in zip(batch.point, batch.ricci, batch.scal, batch.rho)]
        assert json.loads(out.read_text())["report"]["records"] == expected


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("command = classify\n"
                   "profile.kind = linear\nprofile.c1 = 1.0\nprofile.c2 = 1.0\n"
                   "grid.points = 40\n")
    proc = subprocess.run([sys.executable, "-m", "hartogs", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "HYPERBOLIC" in proc.stdout
