"""A random admissible profile corpus for the headline verdict.

``F = (c1 - c2 x)^p exp(-a1 x - a2 x^2)`` with ``c1, c2, p > 0`` and
``a1, a2 >= 0`` is Kaehler-admissible by construction, since
``(x F'/F)' = -p c1 c2 / (c1 - c2 x)^2 - a1 - 4 a2 x < 0``.  The paper's
verdict is that such a profile is extremal exactly when it is linear
(``p = 1`` and ``a1 = a2 = 0``), and the linear ones are hyperbolic.
"""

from hypothesis import given, settings, strategies as st

from hartogs import GridSpec, classify, extremal_report, profile_from_function


def corpus_profile(c1, c2, p, a1, a2):
    return profile_from_function(lambda j: (c1 - c2 * j) ** p * (-a1 * j - a2 * j * j).exp(),
                                 x0=c1 / c2, name="corpus")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(c1=st.floats(0.5, 3.0), c2=st.floats(0.2, 2.0),
       p=st.one_of(st.just(1.0), st.floats(0.3, 0.8), st.floats(1.2, 4.0)),
       a1=st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
       a2=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
       n=st.integers(2, 12), a_margin=st.floats(0.005, 0.2), seed=st.integers(0, 2**32))
def test_only_the_linear_members_are_extremal(c1, c2, p, a1, a2, n, a_margin, seed):
    profile = corpus_profile(c1, c2, p, a1, a2)
    spec = GridSpec(points=60, seed=seed, a_margin=a_margin)
    linear = p == 1.0 and a1 == a2 == 0.0
    assert classify(profile, n, spec).verdict == (
        "HYPERBOLIC" if linear else "NON_CONSTANT_CURVATURE")
    assert extremal_report(profile, n, spec).verdict == (
        "EXTREMAL" if linear else "NOT_EXTREMAL")
