"""Checks of the coupling shared by its unit tests and the acceptance gate."""

import numpy as np

from carnot_coupling.coupling import (_couple_batch, default_support_count, shift_batch,
                                     shift_pairing)
from carnot_coupling.gaussian_coupling import gaussian_tv
from carnot_coupling.mc import run_vector_estimator


def failure_given_shift_gap(g, gt, Ts, N, seed, K=None):
    """Per horizon, the mean of 1{fail} - erf(|u|/(2 sqrt 2)) over N runs, with its stderr.

    Given its shift u, a coupling that is reflection-maximal fails with
    probability erf(|u|/(2 sqrt 2)), so each mean is 0.  The two terms of a
    row share its draw, so this paired column sees a coupling that meets too
    often or too rarely at a small fraction of the indicator's variance.
    """
    K = default_support_count(g.n) if K is None else K

    def sampler(rng, count):
        batch = _couple_batch(g, gt, Ts, rng, count, K)
        return (~batch.met - gaussian_tv(np.sqrt(batch.shift.norm2))).T

    return run_vector_estimator(sampler, N, seed)


def sign_orbit(xi):
    """Explicit copies of the four points xi, -xi, D xi, -D xi, with (D xi)_k = (-1)^k xi_k."""
    dxi = xi * (-1.0) ** np.arange(xi.shape[-2])[:, None]
    return [xi.copy(), -xi, dxi, -dxi]


def one_shift(g, gt, T, K, xi):
    """The shift (u0 (n,), blocks (B, K, n)) of `shift_batch` at the one horizon T."""
    sh = shift_batch(g, gt, [T], xi, K)
    return sh.u0[0], sh.blocks[0]


def log_weight(u0, blocks, xi):
    """Row-wise log R(u) = -<omega, u> - |u|^2/2 from `shift_pairing`."""
    dot, norm2 = shift_pairing(u0, blocks, xi)
    return -dot - 0.5 * norm2
