"""P-value kernels and physical constants against scipy, a test-only oracle.

The package computes its two p-values and the Boltzmann constant without
scipy. Each oracle test here imports scipy itself and skips when it is not
installed; the property test needs only numpy and hypothesis.
"""

import numpy as np
import pytest

from kljn import DistributionKind
from kljn.eve import _kolmogorov_sf, _z_p_value
from kljn.noise import LAWS, Boltzmann

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TINY = np.finfo(np.float64).tiny


def kolmogorov_grid():
    """Dense points on [0, 6], the floats either side of the 0.82 cutover, and the far tail."""
    cutover = 0.82
    near = cutover + np.arange(-50, 51) * np.spacing(cutover)
    return np.unique(
        np.concatenate(
            [
                np.linspace(0.0, 6.0, 60_001),
                near,
                [np.nextafter(cutover, 0.0), cutover, 0.04, 0.0406, 1e-300],
                np.linspace(6.0, 30.0, 2_401),
            ]
        )
    )


def test_kolmogorov_sf_matches_scipy():
    special = pytest.importorskip("scipy.special")
    x = kolmogorov_grid()
    got, want = _kolmogorov_sf(x), special.kolmogorov(x)
    assert np.abs(got - want).max() <= 1e-14
    live = want > 1e-300
    assert (np.abs(got[live] - want[live]) / want[live]).max() <= 1e-13
    assert _kolmogorov_sf(np.array([0.0, -1.0]))[0] == 1.0


def test_kolmogorov_sf_keeps_the_input_shape():
    x = np.linspace(0.1, 2.0, 12)
    assert np.array_equal(_kolmogorov_sf(x.reshape(3, 4)), _kolmogorov_sf(x).reshape(3, 4))
    assert _kolmogorov_sf(np.empty((4, 0))).shape == (4, 0)
    assert np.isnan(_kolmogorov_sf(np.array([np.nan]))).all()


def test_z_p_value_matches_scipy():
    special = pytest.importorskip("scipy.special")
    z = np.linspace(-40.0, 40.0, 800_001)
    got, want = _z_p_value(z), 2.0 * special.ndtr(-np.abs(z))
    normal = want >= TINY
    assert (np.abs(got[normal] - want[normal]) / want[normal]).max() <= 1e-12
    # Below the smallest normal double scipy's erfc flushes to zero before
    # libm's does; both stay below that bound.
    assert (got[~normal] < TINY).all()
    assert _z_p_value(np.array([0.0]))[0] == 1.0


def test_boltzmann_is_scipys_codata_value():
    constants = pytest.importorskip("scipy.constants")
    assert Boltzmann == constants.Boltzmann == 1.380649e-23


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 3.7])
def test_gaussian_family_cdf_matches_scipy(scale):
    special = pytest.importorskip("scipy.special")
    x = np.linspace(-40.0, 40.0, 40_001)
    got, want = LAWS[DistributionKind.GAUSSIAN].cdf(x, scale), special.ndtr(x / scale)
    assert np.abs(got - want).max() <= 1e-15
    normal = want >= TINY
    assert (np.abs(got[normal] - want[normal]) / want[normal]).max() <= 1e-12


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.lists(st.floats(-1.0, 50.0), min_size=2, max_size=64))
def test_kolmogorov_sf_is_a_survival_function(values):
    # Points at least 1e-9 apart: every such step of the true function is
    # far larger than the kernel's rounding (~1e-16), so the computed
    # values must not rise either.
    x = np.unique(np.round(values, 9))
    sf = _kolmogorov_sf(x)
    assert ((sf >= 0.0) & (sf <= 1.0)).all()
    assert (np.diff(sf) <= 0.0).all()

