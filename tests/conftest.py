"""Shared fixtures: profile zoo, grids, and small independent oracles."""

import functools

import numpy as np
import pytest

import hartogs.geometry
from hartogs import (
    GridSpec,
    exp_profile,
    interior_points,
    linear_profile,
    power_profile,
    profile_from_function,
    table_profile,
)
from hartogs.geometry import RadialCoefficients
from hartogs.profiles import MAX_DERIV_ORDER, Profile


@pytest.fixture(autouse=True)
def empty_kept_sample():
    """Each test starts with no kept interior sample.

    The kept sample answers for its own points in every closed form, so a
    sample that another test left behind must not stand in for a draw.
    """
    hartogs.geometry._last = None


@pytest.fixture
def count_builds(monkeypatch):
    """``count_builds(name)`` spies on the cached ``RadialCoefficients.<name>``.

    It returns the list of records the coefficient is built on, in build
    order; a record that reads a kept coefficient again adds nothing.
    """
    def install(name):
        built = []
        build = vars(RadialCoefficients)[name].func

        def spy(record):
            built.append(record)
            return build(record)

        prop = functools.cached_property(spy)
        prop.__set_name__(RadialCoefficients, name)
        monkeypatch.setattr(RadialCoefficients, name, prop)
        return built

    return install


@pytest.fixture
def derivs_calls(monkeypatch):
    """The ``(np.shape(x), upto)`` of each ``Profile.derivs`` call, in call order.

    The spy is installed when the test asks for the list, so calls made
    before the test begins are not in it.
    """
    calls = []
    derivs = Profile.derivs

    def spy(self, x, upto=MAX_DERIV_ORDER):
        calls.append((np.shape(x), upto))
        return derivs(self, x, upto)

    monkeypatch.setattr(Profile, "derivs", spy)
    return calls


@pytest.fixture(scope="session")
def lin11():
    return linear_profile(1.0, 1.0)


@pytest.fixture(scope="session")
def lin2_05():
    return linear_profile(2.0, 0.5)


@pytest.fixture(scope="session")
def expp():
    return exp_profile(1.0)


@pytest.fixture(scope="session")
def pw2():
    return power_profile(2.0)


@pytest.fixture(scope="session")
def builtin_profiles(lin11, lin2_05, expp, pw2):
    return {"linear(1,1)": lin11, "linear(2,0.5)": lin2_05, "exp": expp, "power(2)": pw2}


@pytest.fixture(scope="session")
def wiggle():
    """Decreasing profile whose admissibility indicator changes sign.

    F = exp(-x + sin(6x)/12): log-derivative -1 + cos(6x)/2 stays negative
    (so F decreases), while (x F'/F)' swings between roughly -5 and +4.6
    on (0, 2).
    """
    return profile_from_function(
        lambda j: (-j + (j * 6.0).sin() * (1.0 / 12.0)).exp(),
        x0=float("inf"), name="wiggle")


@pytest.fixture(scope="session")
def oracle_profiles(builtin_profiles, wiggle):
    """Built-ins, a spline-backed table profile and the jet-backed ``wiggle``."""
    xs = np.linspace(0.0, 3.0, 200)
    return dict(builtin_profiles, table=table_profile(xs, np.exp(-xs - 0.1 * xs ** 2)),
                wiggle=wiggle)


@pytest.fixture(scope="session")
def constant_profile():
    """Constant F: the canonical non-admissible control (indicator = 0)."""
    return linear_profile(1.0, 0.0)


def make_custom(deriv_fn, x0, exact=True, name="custom"):
    """Profile whose table is ``deriv_fn(k, x)`` for ``k = 0..upto``."""
    return Profile(x0=x0, kind="custom", params={"name": name},
                   _table=lambda x, upto: [deriv_fn(k, x) for k in range(upto + 1)],
                   exact_derivatives=exact)


@pytest.fixture(scope="session")
def grid_small():
    return GridSpec(points=60, seed=11)


@pytest.fixture(scope="session")
def grid_200():
    return GridSpec(points=200, seed=5)


@pytest.fixture(scope="session")
def sample_points(builtin_profiles, grid_small):
    """60 interior points for each built-in profile at n = 2 and n = 3."""
    out = {}
    for name, prof in builtin_profiles.items():
        for n in (2, 3):
            out[name, n] = interior_points(prof, n, grid_small)
    return out


# ---------------------------------------------------------------------------
# independent oracles used across test modules
# ---------------------------------------------------------------------------

def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part ``(M + M^H)/2``: the reference of exact Hermiticity.

    The symmetrization makes ``out[..., a, b] == conj(out[..., b, a])``
    exact in floating point (sums commute entrywise).
    """
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def fd1(fn, x, h=1e-4):
    """Five-point first derivative of a scalar callable (O(h^4))."""
    return (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h) - fn(x + 2 * h)) / (12 * h)


def log_b_of(profile):
    """log B(x) assembled directly from profile derivatives."""

    def log_b(x):
        f = profile.deriv(0, x)
        f1 = profile.deriv(1, x)
        f2 = profile.deriv(2, x)
        return np.log(f1 ** 2 * x - f * (f1 + f2 * x))

    return log_b


def l_coefficient_fd(profile, x, h=1e-4):
    """Oracle for L = (x (log B)')' built from nested finite differences."""
    log_b = log_b_of(profile)

    def x_dlog(x):
        return x * fd1(log_b, x, h)

    return fd1(x_dlog, x, h)
