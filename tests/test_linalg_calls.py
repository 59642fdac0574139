"""LAPACK call counts of the stacked kappa x kappa checks.

Each test spies on ``numpy.linalg`` and counts calls, so a check that falls
back to one call per matrix fails here whatever the machine's speed.
"""

import collections

import numpy as np
import pytest

from weylpair import (EvaluationPoint, GridSpec, ProjectionFamily,
                      check_increasing, demo_family, random_family,
                      sylvester_nullspace)
from weylpair.freeproduct import sample_field


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls to the spied numpy.linalg entry points, by name."""
    counts = collections.Counter()
    for name in ("eigvalsh", "eigh", "norm", "svd"):
        original = getattr(np.linalg, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return counts


def test_check_increasing_takes_one_eigvalsh_per_sample(calls):
    ev = EvaluationPoint.default()
    for fam in (demo_family(6), random_family(5, 4, 4, seed=2)):
        for grid in (GridSpec(1, 4.0), GridSpec(10, 4.0), GridSpec(2, 3.5)):
            sample = sample_field(fam, ev, grid)
            calls.clear()
            assert check_increasing(sample) <= 1e-12
            assert calls["eigvalsh"] == 1 and calls["eigh"] == 0
            assert len(sample.sels) > 1


def test_family_validation_takes_a_fixed_number_of_norms(calls):
    counts = []
    for parts in (1, 3, 6):
        fam = random_family(6, parts, parts, seed=parts)
        calls.clear()
        ProjectionFamily(fam.plist, fam.qlist)
        counts.append(calls["norm"])
    assert counts == [1, 1, 1]


def test_repeated_generators_take_no_more_kernel_svds(calls):
    fam = random_family(6, 3, 3, seed=4)
    eye = np.eye(6, dtype=complex)
    distinct = fam.plist + fam.qlist + [eye]
    repeated = distinct + [eye.copy(), fam.plist[0].copy(), eye.copy(),
                           fam.qlist[1].copy()]
    counts = []
    for gens in (distinct, repeated):
        calls.clear()
        sylvester_nullspace(gens, gens)
        counts.append(calls["svd"])
        # the seed's candidate spectra: one stacked eigh for the space
        assert calls["eigh"] == 1
    assert 0 < counts[1] <= counts[0]
