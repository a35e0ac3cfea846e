"""The interior draw and its sample record: one draw shared by the pipelines."""

import dataclasses
import hashlib
import itertools
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
from hartogs.geometry import _interior
from hartogs.profiles import MAX_DERIV_ORDER
from hartogs.sampling import _halton_blocks

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

    def test_radial_record_is_built_once(self, expp, count_builds):
        # classify and extremal_report share the sample's B and its L/G block
        b_built, block_built = count_builds("B"), count_builds("_curvature_terms")
        s = interior_sample(expp, 3, SPEC)
        classify(expp, 3, s)
        extremal_report(expp, 3, s)
        assert sum(r is s for r in b_built) == 1 and sum(r is s for r in block_built) == 1

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


class TestHaltonDraw:
    """The package's scrambled Halton draw against its oracle, ``scipy.stats.qmc.Halton``."""

    @pytest.mark.parametrize("seed", [0, 7, 1000003, 2**40 + 3])
    @pytest.mark.parametrize("d", [5, 7, 9, 13, 25])   # n = 2, 3, 4, 6, 12
    def test_blocks_match_scipy_bit_for_bit(self, d, seed):
        from scipy.stats import qmc
        for rows in (1, 63, 64, 1000, 4000):
            # the second block continues the first, as interior_points draws it
            oracle = qmc.Halton(d=d, scramble=True, seed=seed)
            for got in itertools.islice(_halton_blocks(d, seed, rows), 2):
                want = oracle.random(rows)
                assert got.shape == (rows, d)
                assert got.tobytes() == want.tobytes(), (d, seed, rows)

    def test_stream_is_pinned(self):
        # fixed whatever scipy is installed: two 500-row blocks at d = 13
        u = np.concatenate(list(itertools.islice(_halton_blocks(13, 1000003, 500), 2)))
        assert (hashlib.sha256(u.tobytes()).hexdigest()
                == "615e84100756d6817b3b82f5853d915042ca4066952b80163c984da472935d2e")

    def test_a_run_imports_no_scipy_stats(self):
        # a fresh interpreter: the package, the CLI and one interior sample
        code = ("import sys, hartogs, hartogs.cli\n"
                "hartogs.interior_sample(hartogs.exp_profile(1.0), 3, hartogs.GridSpec(points=20))\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
