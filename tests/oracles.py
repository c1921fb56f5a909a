"""Reference computations that only tests use: slow, direct forms of what the package computes."""

import math

import numpy as np

from rnorm import GridFunction2D, RayDecaySample


def grid_fourier_ray(f: GridFunction2D, w, sigmas) -> RayDecaySample:
    """|f-hat(sigma w)| by direct nonuniform summation over the grid samples."""
    w = np.asarray(w, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    X, Y = f.meshgrid()
    t = (w[0] * X + w[1] * Y).ravel()
    v = f.values.ravel()
    mags = np.empty(sig.size)
    for i, s in enumerate(sig):
        mags[i] = abs(np.sum(v * np.exp(-1j * 2.0 * math.pi * s * t))) * f.h**2
    return RayDecaySample(w, sig, mags)
