import numpy as np
import pytest

from jointspec.operators import eigen_error


def _overlap_bound_check(a, v, w, lam, mu):
    """Check |<v,w>| <= (||Av - lam v|| + ||Aw - mu w||) / |lam - mu| + 1e-12.

    Oracle for the approximate-orthogonality lemma; a ``False`` indicates a
    bug somewhere, never physics.
    """
    if lam == mu:
        raise ValueError("lambda and mu must differ")
    lhs = abs(np.vdot(v.vec, w.vec))
    rhs = (eigen_error(a, v, lam) + eigen_error(a, w, mu)) / abs(lam - mu)
    return bool(lhs <= rhs + 1e-12)


@pytest.fixture
def overlap_bound_check():
    """The overlap-lemma oracle (a test helper, not library API)."""
    return _overlap_bound_check
