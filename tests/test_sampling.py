"""The interior draw and its kept sample: one draw shared by the closed forms and the pipelines."""

import dataclasses
import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from hartogs import (
    ConfigError,
    CurvatureRecord,
    GridSpec,
    Profile,
    SingularCoefficientError,
    boundary_samples,
    classify,
    curvature_record,
    det_closed_form,
    equivalence_check,
    exp_profile,
    extremal_report,
    generalized_scalars_closed,
    grid_csv_rows,
    interior_points,
    inverse_metric_closed_form,
    metric_closed_form,
    pullback_check,
    scalar_curvature,
    x_grid,
)
import hartogs.geometry
import hartogs.sampling
from hartogs.cli import main
from hartogs.config import _RANGES, Tolerances, load_config
from hartogs.geometry import _interior
from hartogs.profiles import MAX_DERIV_ORDER
from hartogs.sampling import _BOUNDS, _draw, _grid_spec, _halton, _halton_terms, _interior_sample

SPEC = GridSpec(points=30, seed=5, x_cap=2.5)

# every closed form the CLI and the pipelines call on a run's sample
CLOSED_FORMS = (metric_closed_form, det_closed_form, inverse_metric_closed_form, grid_csv_rows,
                scalar_curvature, generalized_scalars_closed, curvature_record)


def output_bytes(out) -> bytes:
    """The bytes of an evaluator's output; a record's are those of its fields in order."""
    if isinstance(out, CurvatureRecord):
        return b"".join(np.asarray(getattr(out, f.name)).tobytes()
                        for f in dataclasses.fields(out))
    return np.asarray(out).tobytes()


def outcome(closed, z, profile):
    """The output bytes of ``closed(z, profile)``, or ``SingularCoefficientError`` if it raises that."""
    try:
        return output_bytes(closed(z, profile))
    except SingularCoefficientError as exc:
        return type(exc)


class TestInteriorSample:
    """The kept interior sample: one draw and its table, read through its points."""

    def test_fields_are_one_draw_and_its_table(self, expp):
        pts = interior_points(expp, 3, SPEC)
        spec, s = _interior_sample(expp, 3, SPEC)
        assert spec == SPEC and s.profile is expp and s.n == 3 and s.points is pts
        assert _interior(pts, expp, MAX_DERIV_ORDER) is s   # the kept points read the sample
        b = _interior(np.array(pts), expp, MAX_DERIV_ORDER)
        np.testing.assert_array_equal(s.x, b.x)
        np.testing.assert_array_equal(s.A, b.A)
        assert len(s.F) == MAX_DERIV_ORDER + 1
        for got, want in zip(s.F, b.F):
            np.testing.assert_array_equal(got, want)

    def test_arrays_are_read_only(self, expp):
        _, s = _interior_sample(expp, 2, SPEC)
        for array in (s.points, s.x, s.A) + s.F:
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_singular_profile_still_samples(self, constant_profile):
        # B == 0 everywhere: the sample builds no radial coefficients, so it
        # exists; the consumers that need them raise
        assert interior_points(constant_profile, 2, SPEC).shape == (30, 2)

    def test_radial_record_is_built_once(self, count_builds):
        # a closed form on the kept points, classify and extremal_report share
        # the sample's B and its L/G block; a new profile object, so the
        # sample is not one kept from another test
        prof = exp_profile(1.0)
        b_built, block_built = count_builds("B"), count_builds("_curvature_terms")
        scalar_curvature(interior_points(prof, 3, SPEC), prof)
        classify(prof, 3, SPEC)
        extremal_report(prof, 3, SPEC)
        _, s = _interior_sample(prof, 3, SPEC)
        assert sum(r is s for r in b_built) == 1 and sum(r is s for r in block_built) == 1

    def test_radial_block_is_read_only(self, expp):
        # a kept sample is shared by unrelated calls: no reader may write its coefficients
        _, s = _interior_sample(expp, 3, SPEC)
        for name in ("T", "B", "L", "G", "dL", "dG"):
            with pytest.raises(ValueError):
                getattr(s, name)[0] *= 2.0

    @pytest.mark.parametrize("n", [2, 3, 6, 12])
    def test_pipelines_give_the_grid_spec_reports(self, oracle_profiles, n):
        # a pipeline whose grid is kept, its coefficients and metric already
        # built by the closed forms, reports what it reports on a fresh draw
        for name, prof in oracle_profiles.items():
            pts = interior_points(prof, n, SPEC)
            for closed in CLOSED_FORMS:
                outcome(closed, pts, prof)
            kept = [pipeline(prof, n, SPEC).to_json() for pipeline in (classify, extremal_report)]
            for pipeline, report in zip((classify, extremal_report), kept):
                hartogs.geometry._last = None   # a fresh draw
                assert pipeline(prof, n, SPEC).to_json() == report, (name, pipeline.__name__)

    @pytest.mark.parametrize("closed", CLOSED_FORMS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n", [2, 5])
    def test_closed_forms_read_the_sample(self, oracle_profiles, constant_profile,
                                          monkeypatch, closed, n):
        # the kept points: the bytes of the raw path (or, where B == 0, the
        # same error), and no derivative call
        profiles = dict(oracle_profiles, constant=constant_profile)
        for name, prof in profiles.items():
            pts = interior_points(prof, n, SPEC)
            want = outcome(closed, np.array(pts), prof)   # a copy: the raw path
            calls = []
            derivs = Profile.derivs

            def counted(self, x, upto=MAX_DERIV_ORDER):
                calls.append(np.shape(x))
                return derivs(self, x, upto)

            with monkeypatch.context() as patch:
                patch.setattr(Profile, "derivs", counted)
                got = outcome(closed, pts, prof)
            assert got == want and calls == [], name
        # where B == 0 the metric and the determinant evaluate, the rest raise
        pts = interior_points(constant_profile, n, SPEC)
        raises = outcome(closed, pts, constant_profile) is SingularCoefficientError
        assert raises == (closed not in (metric_closed_form, det_closed_form))

    @pytest.mark.parametrize("closed", CLOSED_FORMS, ids=lambda f: f.__name__)
    def test_closed_forms_take_a_record_of_their_profile_only(self, expp, closed,
                                                              monkeypatch):
        # the kept points answer with the sample for its own profile object
        # only: an equal profile, or a copy of the points, evaluates its own table
        kept = interior_points(expp, 3, SPEC)
        pts = np.array(kept)
        other = exp_profile(1.0)
        want = outcome(closed, pts, other)
        calls = []
        derivs = Profile.derivs

        def counted(self, x, upto=MAX_DERIV_ORDER):
            calls.append(np.shape(x))
            return derivs(self, x, upto)

        monkeypatch.setattr(Profile, "derivs", counted)
        assert outcome(closed, kept, other) == want
        assert outcome(closed, pts, expp) == want
        assert calls == [(30,), (30,)]


class TestKeptSample:
    """The sampler keeps its last sample and returns it for the same call."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []

        def spy(profile, n, spec):
            calls.append((profile, n, spec))
            return _draw(profile, n, spec)

        monkeypatch.setattr(hartogs.sampling, "_draw", spy)
        return calls

    def test_a_hit_is_the_same_sample(self, draws):
        prof = exp_profile(1.0)
        pts = interior_points(prof, 3, SPEC)
        assert interior_points(prof, 3, dataclasses.replace(SPEC)) is pts   # an equal spec
        assert len(draws) == 1
        assert pts.tobytes() == _draw(prof, 3, SPEC).tobytes()

    def test_another_profile_n_or_spec_misses(self, draws):
        prof = exp_profile(1.0)
        for args in ((exp_profile(1.0), 3, SPEC),            # equal, not the same object
                     (prof, 4, SPEC),
                     (prof, 3, dataclasses.replace(SPEC, seed=SPEC.seed + 1))):
            pts = interior_points(prof, 3, SPEC)
            other = interior_points(*args)
            assert other is not pts
            spec, s = hartogs.geometry._last
            assert s.points is other and s.profile is args[0] and (s.n, spec) == args[1:]
        assert len(draws) == 6

    def test_one_grid_spec_draws_once(self, draws):
        # a library sweep: the points, then both pipelines on the same spec
        prof = exp_profile(1.0)
        pts = interior_points(prof, 3, SPEC)
        extremal_report(prof, 3, SPEC)
        classify(prof, 3, SPEC)
        assert [d[1:] for d in draws] == [(3, SPEC)]
        assert pts is interior_points(prof, 3, SPEC)


def _grid_readers(expp):
    """Every public function that takes a ``GridSpec``, as ``spec -> call``."""
    return {
        "interior_points": lambda spec: interior_points(expp, 2, spec),
        "boundary_samples": lambda spec: boundary_samples(expp, 2, spec),
        "x_grid": lambda spec: x_grid(expp, 3, spec),
        "classify": lambda spec: classify(expp, 2, spec),
        "extremal_report": lambda spec: extremal_report(expp, 2, spec),
        "equivalence_check": lambda spec: equivalence_check(expp, 2, spec),
        "pullback_check": lambda spec: pullback_check(1.0, 1.0, 2, spec),
    }


# GridSpec fields out of range, each with what a config file that spells it,
# ``grid.<field> = <value>``, gives: the message of its ConfigError, or None
# where the config grammar reads the text as a number in range (an integral
# number is an integer there, and text that reads as a number is one).
HUGE = 10**400   # an integer beyond the float range
OUT_OF_RANGE = [
    ("points", 0, "grid.points must be in 1..100000, got 0"),
    ("points", 100_001, "grid.points must be in 1..100000, got 100001"),
    ("points", 20.0, None),
    ("points", True, "grid.points must be an integer, got True"),
    ("points", "20", None),
    ("seed", -1, "grid.seed must be >= 0, got -1"),
    ("seed", 1.0, None),
    ("seed", None, "grid.seed must be an integer, got 'None'"),
    ("a_margin", 0.0, "grid.a_margin must be in (0, 1), got 0.0"),
    ("a_margin", 1.0, "grid.a_margin must be in (0, 1), got 1.0"),
    ("a_margin", float("nan"), "grid.a_margin must be a finite number, got nan"),
    ("a_margin", "0.1", None),
    ("x_cap", 0.0, "grid.x_cap must be positive, got 0.0"),
    ("x_cap", -1.0, "grid.x_cap must be positive, got -1.0"),
    ("x_cap", float("nan"), "grid.x_cap must be a finite number, got nan"),
    ("x_cap", float("inf"), "grid.x_cap must be a finite number, got inf"),
    ("a_margin", HUGE, f"grid.a_margin must be a finite number, got {HUGE}"),
    ("x_cap", HUGE, f"grid.x_cap must be a finite number, got {HUGE}"),
]
CASE_IDS = [f"{field}-{'10**400' if value == HUGE else value}" for field, value, _ in OUT_OF_RANGE]


class TestGridSpecFields:
    """A ``GridSpec`` is checked when it is made: a field out of its range is a
    ``ValueError`` that names the field.  Every public function that takes one
    reads it one way: ``None`` is the default grid, and anything else but a
    ``GridSpec`` is a ``TypeError``."""

    @pytest.mark.parametrize("field, value", [(field, value) for field, value, _ in OUT_OF_RANGE],
                             ids=CASE_IDS)
    def test_out_of_range_is_a_value_error_naming_the_field(self, field, value):
        # made or copied, the spec raises before any reader can take it
        for make in (lambda: GridSpec(**{field: value}),
                     lambda: dataclasses.replace(SPEC, **{field: value})):
            with pytest.raises(ValueError, match=f"^GridSpec.{field} must be [^\n]*, "
                                                 f"got {re.escape(repr(value))}$"):
                make()

    def test_readers_take_the_spec_itself(self):
        assert _grid_spec(SPEC) is SPEC
        assert _grid_spec(None) == GridSpec()

    def test_a_suite_run_checks_each_field_once(self, tmp_path, monkeypatch):
        # the config builds the run's one spec, and the readers gate only its type
        labels = []

        def spy(label, *args, **kwargs):
            labels.append(label)
            return bounded(label, *args, **kwargs)

        bounded = hartogs.sampling._bounded
        monkeypatch.setattr(hartogs.sampling, "_bounded", spy)
        path = tmp_path / "run.txt"
        path.write_text("command = full-suite\nn = 2\ngrid.points = 500\n"
                        f"output = {tmp_path / 'r.json'}\n")
        assert main(["--config", str(path), "--quiet"]) == 0
        assert sorted(label for label in labels if label.startswith("GridSpec.")) == sorted(
            f"GridSpec.{field.name}" for field in dataclasses.fields(GridSpec))

    @pytest.mark.parametrize("field, value, message", OUT_OF_RANGE, ids=CASE_IDS)
    def test_config_keys_read_the_same_ranges(self, expp, tmp_path, field, value, message):
        # the keys grid.* are bounded by the library's one range table: a value
        # the config file reads as it stands gets the library's message, with
        # the key in place of the field
        path = tmp_path / "run.txt"
        path.write_text(f"command = classify\nprofile.kind = exp\ngrid.{field} = {value}\n")
        if message is None:
            assert getattr(load_config(path).grid, field) == float(value)
            return
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        if value is not None:   # the file reads None as the text 'None'
            library = message.replace("grid.", "GridSpec.", 1)
            with pytest.raises(ValueError, match=f"^{re.escape(library)}$"):
                interior_points(expp, 2, dataclasses.replace(SPEC, **{field: value}))

    def test_anything_but_a_grid_spec_is_a_type_error(self, expp):
        # a falsy value is not the default grid, and a points array is not
        # printed into the message
        for spec in (0, "", "spec", {"points": 20}, interior_points(expp, 2, SPEC)):
            for name, read in _grid_readers(expp).items():
                with pytest.raises(TypeError, match=r"^spec must be a GridSpec or None, "
                                                    r"got \w+$"):
                    read(spec)

    def test_a_float_count_does_not_read_the_kept_sample(self, expp):
        interior_points(expp, 2, dataclasses.replace(SPEC, points=20))
        with pytest.raises(ValueError, match="GridSpec.points"):
            interior_points(expp, 2, dataclasses.replace(SPEC, points=20.0))

    def test_numpy_scalars_are_accepted(self, expp):
        spec = GridSpec(points=np.int64(7), seed=np.int32(2), a_margin=np.float64(0.1),
                        x_cap=np.float32(2.0))
        assert interior_points(expp, 2, spec).shape == (7, 2)
        assert boundary_samples(expp, 2, spec)[0].shape == (7,)

    def test_numpy_scalars_are_read_as_python_numbers(self, expp):
        spec = GridSpec(points=np.int64(30), seed=np.int32(2), a_margin=np.float64(0.1),
                        x_cap=np.float32(2.0))
        grid = _grid_spec(spec).describe()
        assert grid == {"points": 30, "seed": 2, "a_margin": 0.1, "x_cap": 2.0}
        assert [type(v) for v in grid.values()] == [int, int, float, float]
        # n given as a numpy integer is reported as the Python int the pipeline read
        n = np.int64(2)
        for report in (extremal_report(expp, n, spec), classify(expp, n, spec),
                       equivalence_check(expp, n, spec)):
            assert type(report.n) is int, type(report).__name__
            json.dumps(report.to_json())
        assert type(pullback_check(1, 1, n, spec).n) is int

    def test_config_ranges_are_the_library_table(self):
        # the keys grid.* and tolerances.* are bounded by the library's rules themselves
        for field in dataclasses.fields(GridSpec):
            assert _RANGES[f"grid.{field.name}"] is _BOUNDS[field.name]
        for field in dataclasses.fields(Tolerances):
            assert _RANGES[f"tolerances.{field.name}"] is _BOUNDS["tol"]
        assert {key for key in _RANGES if "." in key} == (
            {f"grid.{field.name}" for field in dataclasses.fields(GridSpec)}
            | {f"tolerances.{field.name}" for field in dataclasses.fields(Tolerances)})


class TestRunArguments:
    """The pipelines check ``n`` and a verdict tolerance ``tol`` before they
    sample: a one-line ``ValueError`` that names the argument."""

    @pytest.mark.parametrize("tol, rule", [(float("nan"), "a finite number"),
                                           (float("inf"), "a finite number"), (0, "positive"),
                                           (-1, "positive"), (True, "a finite number")])
    def test_a_bad_tol_is_a_value_error_naming_tol(self, expp, tol, rule):
        for call in (lambda: classify(expp, 2, SPEC, tol=tol),
                     lambda: extremal_report(expp, 2, SPEC, tol=tol),
                     lambda: pullback_check(1.0, 1.0, 2, SPEC, tol=tol)):
            with pytest.raises(ValueError, match=f"^tol must be {rule}, got [^\n]*$"):
                call()

    def test_a_non_integer_n_is_a_value_error(self, expp):
        for call in (interior_points, boundary_samples, classify, extremal_report):
            with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.0$"):
                call(expp, 2.0, SPEC)

    @pytest.mark.parametrize("count, rule", [(True, "an integer"), (2.5, "an integer"),
                                             (41.0, "an integer"), (0, "in 1..100000"),
                                             (100_001, "in 1..100000")])
    def test_a_bad_count_is_a_value_error_naming_count(self, expp, count, rule):
        # x_grid reads its count under the rule of GridSpec.points
        with pytest.raises(ValueError, match=f"^count must be {re.escape(rule)}, "
                                             f"got {re.escape(repr(count))}$"):
            x_grid(expp, count, SPEC)
        assert x_grid(expp, np.int64(41), SPEC).shape == (41,)


class TestHaltonDraw:
    """The package's scrambled Halton draw against its oracle, ``scipy.stats.qmc.Halton``."""

    @pytest.mark.parametrize("seed", [0, 7, 1000003, 2**40 + 3])
    @pytest.mark.parametrize("d", [5, 7, 9, 13, 25])   # n = 2, 3, 4, 6, 12
    def test_blocks_match_scipy_bit_for_bit(self, d, seed):
        from scipy.stats import qmc
        terms = _halton_terms(d, seed)
        for rows in (1, 63, 64, 1000, 4000):
            # two successive blocks, as the interior draw reads dimension 0
            oracle = qmc.Halton(d=d, scramble=True, seed=seed)
            for start in (0, rows):
                got = _halton(terms, np.arange(start, start + rows))
                want = oracle.random(rows)
                assert got.shape == (rows, d) and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (d, seed, rows)
        # any index set, as the draw reads the other dimensions at the kept indices
        want = qmc.Halton(d=d, scramble=True, seed=seed).random(5000)
        rng = np.random.default_rng(seed % 2**32)
        for k in (np.array([0]), np.array([4999]), np.arange(3, 5000, 7),
                  np.sort(rng.choice(5000, 300, replace=False)),   # sorted, with gaps
                  rng.integers(0, 5000, 300),                      # any order, repeats
                  np.array([], dtype=int)):
            got = _halton(terms, k)
            assert got.shape == (k.size, d) and got.flags.c_contiguous
            assert got.tobytes() == want[k].tobytes(), (d, seed, k[:5])

    def test_stream_is_pinned(self):
        # fixed whatever scipy is installed: the first 1000 points at d = 13
        u = _halton(_halton_terms(13, 1000003), np.arange(1000))
        assert (hashlib.sha256(u.tobytes()).hexdigest()
                == "615e84100756d6817b3b82f5853d915042ca4066952b80163c984da472935d2e")

    # sha256 of the points under a margin that keeps about one index in
    # five, so the draw reads three blocks; n >= 9 also pins the order of
    # the fiber-weight row sums
    PINNED = {
        ("exp", 6): "3fa44f92e1a35abbc9a281a68d0d3200e1bce034eb97192102454e80d12f9e5b",
        ("exp", 9): "6702e183a8e80290bca9bf58a93512c8f082fc01b06dba9ba66e14e8560c3389",
        ("exp", 12): "8c13c83407fcdb54f0c9a0618903774567da1ab90b6fd0a140feee5d055410d1",
        ("wiggle", 6): "3147d411cca125197877711ea8d0518c21609f63bd44227cc1a8ee3b251e691a",
        ("wiggle", 9): "91d09712acec77380181c3d1f70bdb90e9efbb8c23b5bbd06c4682e40ea2b40e",
        ("wiggle", 12): "68213162ca691993490691ad6ba24ad177b76064b062c2fb05ff2f8a43fcca9e",
    }

    @pytest.mark.parametrize("name, n", sorted(PINNED))
    def test_interior_points_are_pinned(self, oracle_profiles, name, n):
        spec = GridSpec(points=200, seed=3, a_margin=0.6, x_cap=2.5)
        pts = interior_points(oracle_profiles[name], n, spec)
        assert hashlib.sha256(pts.tobytes()).hexdigest() == self.PINNED[name, n]

    def test_a_run_imports_no_scipy_stats(self):
        # a fresh interpreter: the package, the CLI and one interior sample
        code = ("import sys, hartogs, hartogs.cli\n"
                "hartogs.interior_points(hartogs.exp_profile(1.0), 3, hartogs.GridSpec(points=20))\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestBoundaryDraw:
    """``boundary_samples`` through its one-entry memo against the direct generator calls."""

    @staticmethod
    def _direct(profile, n, spec):
        rng = np.random.default_rng(spec.seed)
        xmax = min(profile.x0, spec.x_cap)
        eps = 1e-3 * xmax
        x = rng.uniform(eps, xmax - eps, spec.points)
        z0 = np.sqrt(x) * np.exp(2j * np.pi * rng.uniform(size=spec.points))
        normals = rng.standard_normal((spec.points, 4, n - 1))
        rows = []
        for re_part, im_part in ((normals[:, 0], normals[:, 1]), (normals[:, 2], normals[:, 3])):
            norm = np.sqrt(np.sum(np.square(re_part), axis=-1)
                           + np.sum(np.square(im_part), axis=-1))
            rows.append((re_part + 1j * im_part) / norm[:, None])
        return x, z0, *rows

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    @pytest.mark.parametrize("seed", [0, 17, 1000003, 2**40 + 3])
    def test_bits_equal_the_direct_draw(self, builtin_profiles, n, seed):
        # x0 finite (the linear profiles, one of them below the cap) and infinite (exp)
        for name, prof in builtin_profiles.items():
            for spec in (GridSpec(points=50, seed=seed), GridSpec(points=7, seed=seed, x_cap=0.5)):
                got, want = boundary_samples(prof, n, spec), self._direct(prof, n, spec)
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, n, seed, spec)

    def test_memoised_arrays_are_read_only(self, builtin_profiles):
        spec = GridSpec(points=20, seed=3)
        terms = hartogs.sampling._halton_terms(5, 3)
        assert not any(term.flags.writeable for term in terms)
        assert not any(a.flags.writeable for a in hartogs.sampling._boundary_draw(20, 2, 3))
        first = None
        for prof in builtin_profiles.values():
            x, z0, fiber, tangent = boundary_samples(prof, 2, spec)
            assert x.flags.writeable and z0.flags.writeable
            assert not (fiber.flags.writeable or tangent.flags.writeable)
            with pytest.raises(ValueError, match="read-only"):
                fiber[0, 0] = 0.0
            first = first or (fiber, tangent)
            assert fiber is first[0] and tangent is first[1]   # one draw for every profile
