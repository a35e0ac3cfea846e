"""The interior draw and its sample record: one draw shared by the pipelines."""

import dataclasses
import hashlib
import subprocess
import sys

import numpy as np
import pytest

from hartogs import (
    CurvatureRecord,
    GridSpec,
    InteriorSample,
    Profile,
    SingularCoefficientError,
    classify,
    curvature_record,
    det_closed_form,
    exp_profile,
    extremal_report,
    generalized_scalars_closed,
    grid_csv_rows,
    interior_points,
    interior_sample,
    inverse_metric_closed_form,
    linear_profile,
    metric_closed_form,
    scalar_curvature,
)
import hartogs.sampling
from hartogs.geometry import _interior
from hartogs.profiles import MAX_DERIV_ORDER
from hartogs.sampling import _draw, _halton, _halton_terms

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
    def test_fields_are_one_draw_and_its_table(self, expp):
        s = interior_sample(expp, 3, SPEC)
        assert isinstance(s, InteriorSample)
        assert s.profile is expp and s.spec == SPEC and s.n == 3
        pts = interior_points(expp, 3, SPEC)
        np.testing.assert_array_equal(s.points, pts)
        b = _interior(pts, expp, MAX_DERIV_ORDER)
        np.testing.assert_array_equal(s.x, b.x)
        np.testing.assert_array_equal(s.A, b.A)
        assert len(s.F) == MAX_DERIV_ORDER + 1
        for got, want in zip(s.F, b.F):
            np.testing.assert_array_equal(got, want)

    def test_arrays_are_read_only(self, expp):
        s = interior_sample(expp, 2, SPEC)
        for array in (s.points, s.x, s.A) + s.F:
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_singular_profile_still_samples(self, constant_profile):
        # B == 0 everywhere: the record builds no radial coefficients, so it
        # exists; the consumers that need them raise
        s = interior_sample(constant_profile, 2, SPEC)
        assert s.points.shape == (30, 2)

    def test_radial_record_is_built_once(self, count_builds):
        # classify and extremal_report share the sample's B and its L/G block;
        # a new profile object, so the sample is not one kept from another test
        prof = exp_profile(1.0)
        b_built, block_built = count_builds("B"), count_builds("_curvature_terms")
        s = interior_sample(prof, 3, SPEC)
        classify(prof, 3, s)
        extremal_report(prof, 3, s)
        assert sum(r is s for r in b_built) == 1 and sum(r is s for r in block_built) == 1

    def test_radial_block_is_read_only(self, expp):
        # a kept sample is shared by unrelated calls: no reader may write its coefficients
        s = interior_sample(expp, 3, SPEC)
        for name in ("T", "B", "L", "G", "dL", "dG"):
            with pytest.raises(ValueError):
                getattr(s, name)[0] *= 2.0

    @pytest.mark.parametrize("n", [2, 3, 6, 12])
    def test_pipelines_give_the_grid_spec_reports(self, oracle_profiles, n):
        for name, prof in oracle_profiles.items():
            s = interior_sample(prof, n, SPEC)
            assert (classify(prof, n, s).to_json()
                    == classify(prof, n, SPEC).to_json()), name
            assert (extremal_report(prof, n, s).to_json()
                    == extremal_report(prof, n, SPEC).to_json()), name

    @pytest.mark.parametrize("closed", CLOSED_FORMS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n", [2, 5])
    def test_closed_forms_read_the_sample(self, oracle_profiles, constant_profile,
                                          monkeypatch, closed, n):
        # a sample in place of its points: the same bytes (or, where B == 0,
        # the same error), and no derivative call
        profiles = dict(oracle_profiles, constant=constant_profile)
        for name, prof in profiles.items():
            s = interior_sample(prof, n, SPEC)
            want = outcome(closed, s.points, prof)
            calls = []
            derivs = Profile.derivs

            def counted(self, x, upto=MAX_DERIV_ORDER):
                calls.append(np.shape(x))
                return derivs(self, x, upto)

            with monkeypatch.context() as patch:
                patch.setattr(Profile, "derivs", counted)
                got = outcome(closed, s, prof)
            assert got == want and calls == [], name
        # where B == 0 the metric and the determinant evaluate, the rest raise
        s = interior_sample(constant_profile, n, SPEC)
        raises = outcome(closed, s, constant_profile) is SingularCoefficientError
        assert raises == (closed not in (metric_closed_form, det_closed_form))

    @pytest.mark.parametrize("closed", CLOSED_FORMS, ids=lambda f: f.__name__)
    def test_closed_forms_take_a_record_of_their_profile_only(self, expp, closed):
        s = interior_sample(expp, 3, SPEC)
        with pytest.raises(ValueError, match="record of"):
            closed(s, exp_profile(1.0))               # an equal profile, not this one
        with pytest.raises(ValueError, match="to order 0"):
            closed(_interior(s.points, expp, 0), expp)  # a table too short for any of them

    def test_wrong_profile_or_n_is_a_value_error(self, expp):
        s = interior_sample(expp, 3, SPEC)
        for pipeline in (classify, extremal_report):
            with pytest.raises(ValueError, match="sample of"):
                pipeline(exp_profile(1.0), 3, s)      # an equal profile, not this one
            with pytest.raises(ValueError, match="sample of"):
                pipeline(linear_profile(1.0, 1.0), 3, s)
            with pytest.raises(ValueError, match="n=3"):
                pipeline(expp, 2, s)


class TestKeptSample:
    """``interior_sample`` keeps its last sample and returns it for the same call."""

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
        s = interior_sample(prof, 3, SPEC)
        assert interior_sample(prof, 3, dataclasses.replace(SPEC)) is s   # an equal spec
        assert len(draws) == 1
        assert s.points.tobytes() == _draw(prof, 3, SPEC).tobytes()

    def test_another_profile_n_or_spec_misses(self, draws):
        prof = exp_profile(1.0)
        for args in ((exp_profile(1.0), 3, SPEC),            # equal, not the same object
                     (prof, 4, SPEC),
                     (prof, 3, dataclasses.replace(SPEC, seed=SPEC.seed + 1))):
            s = interior_sample(prof, 3, SPEC)
            other = interior_sample(*args)
            assert other is not s
            assert other.profile is args[0] and (other.n, other.spec) == args[1:]
        assert len(draws) == 6

    def test_one_grid_spec_draws_once(self, draws):
        # a library sweep: the points, then both pipelines on the same spec
        prof = exp_profile(1.0)
        pts = interior_points(prof, 3, SPEC)
        extremal_report(prof, 3, SPEC)
        classify(prof, 3, SPEC)
        assert [d[1:] for d in draws] == [(3, SPEC)]
        assert pts is interior_sample(prof, 3, SPEC).points


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
                "hartogs.interior_sample(hartogs.exp_profile(1.0), 3, hartogs.GridSpec(points=20))\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
