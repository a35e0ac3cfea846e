"""Each point batch builds its metric once, in its output array, with the bits of the
allocating assembly; the kept interior sample answers for its own points."""

import numpy as np
import pytest

from hartogs import (
    GridSpec,
    Profile,
    classify,
    det_closed_form,
    exp_profile,
    extremal_report,
    generalized_scalars_closed,
    interior_points,
    inverse_metric_closed_form,
    linear_profile,
    metric_closed_form,
    power_profile,
    profile_from_function,
    ricci_closed_form,
    scalar_curvature,
)
from hartogs.config import MAX_N
from hartogs.geometry import _interior, _nonsingular
from hartogs.profiles import MAX_DERIV_ORDER
from hartogs.sampling import _interior_sample

PROFILES = {
    "exp": exp_profile(1.0),
    "power(2)": power_profile(2.0),
    "linear(2,0.5)": linear_profile(2.0, 0.5),
    "gauss": profile_from_function(lambda j: (-j - j * j * 0.25).exp(),
                                   x0=float("inf"), name="gauss"),
}

SIX_CLOSED_FORMS = (metric_closed_form, det_closed_form, inverse_metric_closed_form,
                    ricci_closed_form, scalar_curvature, generalized_scalars_closed)


# ---------------------------------------------------------------------------
# reference assembly: the fiber block built in temporaries, then copied in
# ---------------------------------------------------------------------------

def reference_metric(p) -> np.ndarray:
    z, a, n = p.points, p.A, p.n
    a2 = np.square(a)
    zf = z[..., 1:]
    h = np.empty(z.shape + (n,), dtype=complex)
    h[..., 0, 0] = (np.square(p.F[1]) * p.x - p.T * p.A) / a2
    top = -p.F[1][..., None] * np.conj(z[..., :1]) * zf / a2[..., None]
    h[..., 0, 1:] = top
    h[..., 1:, 0] = np.conj(top)
    block = np.einsum("...i,...j->...ij", np.conj(zf), zf)
    block.reshape(block.shape[:-2] + (-1,))[..., ::n] += a[..., None]
    h[..., 1:, 1:] = block / a2[..., None, None]
    return h


def reference_inverse(p) -> np.ndarray:
    z, a, n = p.points, p.A, p.n
    f, f1 = p.F[:2]
    b = _nonsingular(p.B)
    ab = a / b
    zf = z[..., 1:]
    minv = np.empty(z.shape + (n,), dtype=complex)
    minv[..., 0, 0] = ab * f
    col = ab[..., None] * f1[..., None] * z[..., :1] * np.conj(zf)
    minv[..., 1:, 0] = col
    minv[..., 0, 1:] = np.conj(col)
    block = (ab * p.T)[..., None, None] * np.einsum("...i,...j->...ij", np.conj(zf), zf)
    block.reshape(block.shape[:-2] + (-1,))[..., ::n] += (ab * b)[..., None]
    minv[..., 1:, 1:] = block
    return minv


def reference_ricci(p) -> np.ndarray:
    ric = -(p.n + 1.0) * reference_metric(p)
    ric[..., 0, 0] = ric[..., 0, 0].real - p.L
    return ric


REFERENCES = {metric_closed_form: reference_metric,
              inverse_metric_closed_form: reference_inverse,
              ricci_closed_form: reference_ricci}


@pytest.mark.parametrize("name", list(PROFILES))
@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_closed_forms_give_the_reference_bits(name, n):
    # compared with a reference computed in the same run, not with pinned
    # hashes: einsum and ufunc bits depend on the CPU's vector paths
    prof = PROFILES[name]
    kept = interior_points(prof, n, GridSpec(points=60, seed=n, x_cap=2.5))
    pts = np.array(kept)
    for closed, reference in REFERENCES.items():
        for z in (kept, pts, *pts[:20]):
            want = reference(_interior(np.array(z), prof, MAX_DERIV_ORDER))
            got = closed(z, prof)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
                (closed.__name__, name, n)


class TestKeptMetric:
    def test_read_only_and_built_once(self):
        prof, spec = PROFILES["exp"], GridSpec(points=50, seed=3)
        pts = interior_points(prof, 4, spec)
        h = metric_closed_form(pts, prof)
        with pytest.raises(ValueError):
            h[0, 0, 0] = 0.0
        assert metric_closed_form(pts, prof) is h
        assert _interior_sample(prof, 4, spec)[1].metric is h   # the kept sample's metric
        # points that are not the kept sample's build their own read-only matrix
        raw = metric_closed_form(np.array(pts), prof)
        assert raw is not h and not raw.flags.writeable
        assert raw.tobytes() == h.tobytes()

    def test_ricci_leaves_the_metric_unchanged(self):
        prof = PROFILES["gauss"]
        pts = interior_points(prof, 5, GridSpec(points=50, seed=4))
        h = metric_closed_form(pts, prof)
        before = h.tobytes()
        ric = ricci_closed_form(pts, prof)
        assert ric.flags.writeable and not np.shares_memory(ric, h)
        ric[...] = 0.0
        assert h.tobytes() == before and metric_closed_form(pts, prof) is h

    def test_one_grid_spec_evaluates_the_table_once(self, monkeypatch):
        # the jet-sweep op: the points, six closed forms on them, both pipelines
        prof, n, spec = PROFILES["gauss"], 4, GridSpec(points=80, seed=9, x_cap=3.0)
        calls = []
        derivs = Profile.derivs

        def counted(self, x, upto=MAX_DERIV_ORDER):
            calls.append((np.shape(x), upto))
            return derivs(self, x, upto)

        monkeypatch.setattr(Profile, "derivs", counted)
        pts = interior_points(prof, n, spec)
        assert calls[-1] == ((80,), MAX_DERIV_ORDER)   # the draw's one table
        calls.clear()
        for closed in SIX_CLOSED_FORMS:
            closed(pts, prof)
        assert calls == []
        # the pipelines read the kept sample and evaluate only their own
        # stencils and curves, none of them on the 80 grid points
        extremal_report(prof, n, spec)
        classify(prof, n, spec)
        assert calls and all(shape != (80,) for shape, _ in calls)
        calls.clear()
        assert interior_points(prof, n, spec) is pts and calls == []
