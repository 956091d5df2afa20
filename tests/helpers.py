"""Helpers shared by the test modules: a Spectrum from listed values, the
type and message of a refusal, and the reference spike map that criterion 7b
holds the sample eigenvalues to."""

import math

import numpy as np
import pytest

from actfactors.errors import ActFactorsError
from actfactors.spectral import Spectrum


def spectrum(values, n=0):
    return Spectrum(values, n=n)


def refusal(call):
    """The exact type and the message of the ActFactorsError that call() raises."""
    with pytest.raises(ActFactorsError) as exc:
        call()
    return type(exc.value), str(exc.value)


def spike_map(lam, bulk, rho):
    """lam * psi(lam): where the sample eigenvalue of a population spike lam
    settles (Baik & Silverstein, JMVA 2006). psi(x) = 1 + rho * mean(t/(x - t))
    over the bulk eigenvalues t, clipped to [0, 1] and weighted equally. The
    spike must clear the separation bound max(t) (1 + sqrt(rho)); equality
    sits exactly at the bulk edge and is admitted."""
    t = np.clip(np.asarray(bulk, dtype=float), 0.0, 1.0)
    bound = float(t.max()) * (1.0 + math.sqrt(rho))
    assert lam >= bound * (1.0 - 1e-12), f"spike {lam:g} is below the separation bound {bound:g}"
    return lam * (1.0 + rho * float(np.sum(np.full(t.size, 1.0 / t.size) * t / (lam - t))))
