"""Fixed-Talbot Laplace inversion of functions of a subordinator's Laplace exponent Phi.

Each inverse is the order-24 fixed-Talbot rule (Abate and Valko, IJNME 60 (2004) 979),
gated by order 16; the functions take Phi, or the transform F, as a plain callable.
greenwalk does not export this module.  Batch contract: numpy rounds the terms and
their sums differently for one time than for several, so the inverse at t alone and
at t inside an array of times agree to 1e-12 relative, not bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InversionInstabilityError, TruncationError


def _talbot_contour(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights c of the order-M fixed-Talbot rule (Abate and Valko 2004).

    The contour radius is r = 2M/(5t), so the nodes s_k = z_k / t and the
    weights do not depend on t: z_0 = 2M/5, z_k = (2M/5) theta_k (cot theta_k + i)
    with theta_k = k pi / M, c_0 = e^{z_0}/5 and c_k = (2/5) e^{z_k} (1 + i sigma_k),
    sigma_k = theta_k + (theta_k cot theta_k - 1) cot theta_k.  The inverse of F
    at t is then Re sum_k c_k F(z_k / t) / t.
    """
    theta = np.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    z = 0.4 * M * np.concatenate(([1.0], theta * (cot + 1j)))
    sigma = theta + (theta * cot - 1.0) * cot
    return z, 0.4 * np.exp(z) * np.concatenate(([0.5], 1.0 + 1j * sigma))


# the rules of orders 16 and 24, built once, their nodes and weights side by side
_TALBOT_ORDERS = (16, 24)
_TALBOT_Z, _TALBOT_C = (np.concatenate(part) for part in zip(*map(_talbot_contour, _TALBOT_ORDERS)))
# real terms held at once per tile of mixture_weights (256 KiB)
_TALBOT_BLOCK = 1 << 15
# states the weight table of state_weights adds per block, and the most it may hold
_STATE_BLOCK = 1024
_MAX_STATES = 1 << 20


def _talbot_nodes(t) -> tuple[np.ndarray, np.ndarray]:
    """The Laplace variables z_k / t of both orders at times t, and their weights c_k / t,
    each of shape (40,) + t.shape: rows 0-15 are order 16, rows 16-39 order 24."""
    t = np.asarray(t, dtype=float)
    col = (-1,) + (1,) * t.ndim
    return _TALBOT_Z.reshape(col) / t, _TALBOT_C.reshape(col) / t


def _talbot_orders(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order-16, order-24) inverses: the real part of each order's sum of terms c_k F(z_k / t) / t.

    terms has the 40 nodes on its first axis.  No BLAS call is made: a threaded
    matrix-vector product waits for its second thread on every call.
    """
    n = _TALBOT_ORDERS[0]
    return terms[:n].real.sum(axis=0), terms[n:].real.sum(axis=0)


def _talbot_gate(coarse: np.ndarray, fine: np.ndarray, t, tol) -> None:
    """Raise InversionInstabilityError unless the two orders agree to tol at every time.

    The gap at a time is the largest |fine - coarse| over the trailing axes;
    tol is a scalar or one bound per time.  The message names the time whose
    gap exceeds its bound by the largest factor (a NaN gap counts as the worst).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    gap = np.abs(fine - coarse).reshape(t.size, -1).max(axis=1, initial=0.0)
    tol = np.broadcast_to(tol, t.shape)
    bad = ~(gap <= tol)
    if bad.any():
        worst = int(np.argmax(np.where(bad, np.nan_to_num(gap / tol, nan=np.inf), -1.0)))
        extra = f" ({int(bad.sum())} of {t.size} times fail)" if t.size > 1 else ""
        raise InversionInstabilityError(
            f"Talbot orders 16/24 disagree by {gap[worst]:.3g} at t = {t[worst]:.6g}{extra}"
        )


def invert(F: Callable, t, tol) -> np.ndarray:
    """Inverse Laplace transform of F at the times t, a scalar or a 1-D array.

    F maps the nodes of _talbot_nodes(t), of shape (40,) + t.shape, to values
    of that shape plus trailing axes, in one call; the result has shape
    t.shape + trailing.  Raises InversionInstabilityError unless the orders
    agree to tol at every time: a scalar, one bound per time, or a callable
    that maps the order-24 inverse to either.  An overflow on the contour
    gives inf or NaN, which fails the gate without a RuntimeWarning.
    """
    lam, c = _talbot_nodes(t)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(F(lam))
        coarse, fine = _talbot_orders(vals * c.reshape(c.shape + (1,) * (vals.ndim - c.ndim)))
        _talbot_gate(coarse, fine, t, tol(fine) if callable(tol) else tol)
    return fine


def mixture_weights(phi_eval: Callable, t, rates, integrated: bool = False) -> np.ndarray:
    """E e^{-r D(t)}, or with integrated=True W_t(r) = int_0^t E e^{-r D(s)} ds, per time and rate r >= 0.

    D is the inverse of the subordinator with Laplace exponent phi_eval; t is a scalar or
    a 1-D array of times, and the result has shape t.shape + rates.shape.  The
    t-transform of E e^{-r D(t)} is K/(r + Phi) = 1/lambda - r/(lambda (r + Phi)),
    so the weight is 1 - r L^{-1}[1/(lambda (r + Phi))](t), free of the noise
    a direct inversion leaves near r = 0.  W_t is the inverse of
    Phi/(lambda^2 (r + Phi)) itself, which keeps full relative precision
    where W_t << t (the form t - r L^{-1}[1/(lambda^2 (r + Phi))] cancels
    digits there).  The rate-0 weights are set exactly, to 1 and to t.  The
    terms are formed in real arithmetic and summed in tiles of at most
    _TALBOT_BLOCK terms, which stay in cache and keep numpy's inner loops
    long; the gate is 1e-8 (1e-8 t for W_t).
    """
    t = np.asarray(t, dtype=float)
    rates = np.asarray(rates, dtype=float)
    times, flat = t.reshape(-1), rates.reshape(-1)
    lam, c = _talbot_nodes(times)
    n_nodes, (m, n) = lam.shape[0], (times.size, flat.size)
    # tiles of times x rates with at most _TALBOT_BLOCK terms, as many whole time rows as fit
    m_tile = max(1, _TALBOT_BLOCK // (n_nodes * max(n, 1)))
    n_tile = max(1, _TALBOT_BLOCK // (n_nodes * m_tile))
    coarse, fine = np.empty((m, n)), np.empty((m, n))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi = np.asarray(phi_eval(lam))
        numer = c * phi / lam**2 if integrated else c / lam
        # Re(numer / (r + Phi)) = (numer_re d + numer_im Phi_im) / (d^2 + Phi_im^2), d = r + Phi_re,
        # in real arithmetic: half the memory of complex terms and no complex division
        num_re, num_im_phi_im, phi_re, phi_im2 = (
            v[..., None] for v in (numer.real, numer.imag * phi.imag, phi.real, phi.imag**2)
        )
        for i in range(0, m, m_tile):
            rows = slice(i, i + m_tile)
            for j in range(0, n, n_tile):
                cols = slice(j, j + n_tile)
                d = flat[cols] + phi_re[:, rows]
                term = num_re[:, rows] * d
                term += num_im_phi_im[:, rows]
                d *= d
                d += phi_im2[:, rows]
                term /= d
                coarse[rows, cols], fine[rows, cols] = _talbot_orders(term)
        if not integrated:
            coarse, fine = 1.0 - flat * coarse, 1.0 - flat * fine
        _talbot_gate(coarse, fine, times, 1e-8 * (times if integrated else 1.0))
    # the rate-0 weights are exact: E e^{-0 D(t)} = 1 and W_t(0) = t
    return np.where(flat == 0.0, times[:, None] if integrated else 1.0, fine).reshape(t.shape + rates.shape)


def state_weights(phi_eval: Callable, T: float) -> np.ndarray:
    """w_n = L^{-1}[Phi / (lambda^2 (1 + Phi)^{n+1})](T) for n = 0 .. n_max, in blocks of _STATE_BLOCK states.

    n_max is the least n with T - (w_0 + ... + w_n) <= 1e-8 T.  Phi is
    evaluated once on the 40 nodes at T; each block is one array of terms.
    Orders 16 and 24 must agree within 1e-8 T at every n <= n_max
    (InversionInstabilityError otherwise); the states past n_max in the last
    block are neither kept nor gated.  Raises TruncationError when n_max would
    exceed _MAX_STATES.
    """
    lam, c = _talbot_nodes(T)
    tol, table, left = 1e-8 * T, [], T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi = np.asarray(phi_eval(lam))
        head, log_q = (c * phi / lam**2)[:, None], -np.log1p(phi)[:, None]
        for start in range(0, _MAX_STATES, _STATE_BLOCK):
            coarse, fine = _talbot_orders(head * np.exp(log_q * np.arange(start + 1.0, start + _STATE_BLOCK + 1.0)))
            rest = left - np.cumsum(fine)
            done = np.flatnonzero(rest <= tol)
            keep = done[0] + 1 if done.size else _STATE_BLOCK
            _talbot_gate(coarse[:keep], fine[:keep], T, tol)
            table.append(fine[:keep])
            if done.size:
                return np.concatenate(table)
            left = rest[-1]
    raise TruncationError(f"the state weights do not reach T = {T:.6g} within {_MAX_STATES} states")
