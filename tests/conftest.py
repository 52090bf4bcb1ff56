"""Settings and fixtures shared by every test module."""

import pytest
import scipy.fft
from hypothesis import settings

# one hypothesis profile for the suite: no per-example deadline, since the first
# example of a test pays for numpy's and scipy's warm-up, and derandomized
# examples, so every run of the suite draws the same ones
settings.register_profile("greenwalk", deadline=None, derandomize=True)
settings.load_profile("greenwalk")


FFT_TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn", "dctn", "idctn")


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the scipy.fft transforms called during the test, in call order."""
    calls = []

    def spy(name, transform):
        return lambda *args, **kw: calls.append(name) or transform(*args, **kw)

    for name in FFT_TRANSFORMS:
        monkeypatch.setattr(scipy.fft, name, spy(name, getattr(scipy.fft, name)))
    return calls
