import numpy as np
import pytest

import perflow as pf


@pytest.fixture(scope="session")
def bump_model():
    return pf.BernoulliSquaredModel(shift=pf.bump_shift())


@pytest.fixture(scope="session")
def quadratic_model():
    # p == 0 kills the shift entirely: diagonal risk x^2/2, both fields -x
    return pf.BernoulliSquaredModel(shift=pf.constant_shift(0.0))


@pytest.fixture(scope="session")
def half_model():
    # p == 0.5: shift-blind field -(x - 1/2), globally contracting
    return pf.BernoulliSquaredModel(shift=pf.constant_shift(0.5))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def bump_pair_model():
    """Two uncoupled copies of the built-in bump model on [-0.5, 1.5]^2.

    The risk is the sum of the two coordinates' bump risks, with the closed
    forms of ``grad_x1`` and ``grad_x2`` taken one coordinate at a time on
    Python floats, as the scalar model's float path takes them.  So every
    root, run and basin of this model is the product of the scalar ones: an
    exact oracle for the n-dimensional paths.
    """
    p, dp = pf.bump_phi, pf.bump_phi_prime

    def each(f):
        return lambda x1, x2: np.array([f(a, b) for a, b in zip(x1.tolist(), x2.tolist())])

    return pf.CallableModel(
        dimension=2,
        domain=pf.Box(np.full(2, -0.5), np.full(2, 1.5)),
        risk=lambda x1, x2: sum(
            0.5 * (a * a + p(b) * (1.0 - 2.0 * a)) for a, b in zip(x1.tolist(), x2.tolist())
        ),
        grad1=each(lambda a, b: a - p(b)),
        grad2=each(lambda a, b: 0.5 * (1.0 - 2.0 * a) * dp(b)),
    )
