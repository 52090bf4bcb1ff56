"""Offline oracles for the Green kernel of the 3-D Gaussian jump kernel.

Its convolution powers are a_n(x) = (4 pi n)^{-3/2} e^{-|x|^2/(4n)}, so
G_0(x) = sum_{n >= 1} a_n(x); with f = a the potential V(x, a) is the same sum.
"""

import mpmath as mp
import numpy as np
from scipy import special

# G_0(0) = (4 pi)^{-3/2} zeta(3/2)
ZETA_ORACLE = (4 * np.pi) ** -1.5 * special.zeta(1.5)


def gaussian_g0(r: float) -> float:
    """G_0 at |x| = r by mpmath's Euler-Maclaurin sum at 30 digits.

    At 15 digits, or with nsum's default method, the sum is already 2% off at
    r = 5 and garbage at r = 40; even 30 digits fail at r = 60.
    """
    with mp.workdps(30):
        r2 = mp.mpf(r) ** 2
        term = lambda n: (4 * mp.pi * n) ** mp.mpf(-1.5) * mp.exp(-r2 / (4 * n))
        return float(mp.nsum(term, [1, mp.inf], method="euler-maclaurin"))
