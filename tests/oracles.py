"""Independent oracles shared across the test suite.

Everything here deliberately avoids the library's own code paths:
the inverse normal CDF is a bisection on math.erf, the extreme-value
moments come from quadrature, and the fvecs parser is a struct-based
reimplementation.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from scipy.integrate import quad


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def inv_norm_cdf(p: float, tol: float = 1e-13) -> float:
    """Standard normal quantile by bisection on math.erf (no scipy.special)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if norm_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def expected_max_abs_normal(m: int) -> float:
    """E[max of m iid |N(0,1)|] by quadrature of the survival function."""
    val, _ = quad(lambda t: 1.0 - (2.0 * norm_cdf(t) - 1.0) ** m, 0.0, 60.0, limit=200)
    return val


def var_max_abs_normal(m: int) -> float:
    """Var[max of m iid |N(0,1)|] by quadrature."""
    e1 = expected_max_abs_normal(m)
    e2, _ = quad(lambda t: 2.0 * t * (1.0 - (2.0 * norm_cdf(t) - 1.0) ** m), 0.0, 60.0, limit=200)
    return e2 - e1 * e1


def read_fvecs_reference(path) -> np.ndarray:
    """Minimal struct-based fvecs parser, independent of the library loader."""
    rows = []
    with open(path, "rb") as f:
        raw = f.read()
    pos = 0
    dim = None
    while pos < len(raw):
        (d,) = struct.unpack_from("<i", raw, pos)
        pos += 4
        if dim is None:
            dim = d
        assert d == dim, "inconsistent dimension"
        vals = struct.unpack_from(f"<{d}f", raw, pos)
        pos += 4 * d
        rows.append(vals)
    return np.asarray(rows, dtype=np.float32)


def brute_force_reference(vectors: np.ndarray, q: np.ndarray, K: int, metric: str) -> list[int]:
    """Second, independently coded exact scan (plain python loop, direct formulas)."""
    scored = []
    q = np.asarray(q, dtype=np.float64)
    for i, row in enumerate(np.asarray(vectors, dtype=np.float64)):
        if metric == "l2":
            s = math.sqrt(float(np.sum((row - q) ** 2)))
        elif metric == "angular":
            s = 1.0 - float(np.dot(row, q)) / (np.linalg.norm(row) * np.linalg.norm(q))
        else:
            s = -float(np.dot(row, q))
        scored.append((s, i))
    scored.sort()
    return [i for _, i in scored[:K]]


def make_gate_trials(n_trials: int, d: int, seed: int, x_lo: float = 0.01, x_hi: float = 0.9,
                     gap_lo: float = 0.01, gap_hi: float = 0.4, x_floor: float = 1e-4):
    """Synthetic true-positive gate trials with cosines drawn from (x_lo, x_hi).

    Construction: pick the query direction, build the edge e at a chosen
    angle cos to the query, place v arbitrarily and u = v + e, then set
    the pruning scalar r so that the threshold x = A_r sits `gap` below
    cos, raised to x_floor where it would fall below. Every trial
    therefore satisfies dist(u, q) < delta with a known margin, which is
    what the routing guarantee quantifies over. The defaults keep x in
    (0, 1); a negative x_lo and x_floor reach the band x in (-1, 0).

    Returns dict of arrays: u, v, q, r, vq, cos, x, and the L2 gate's
    threshold as search holds it: wk (the worst key |q|^2 + 2r), kv (v's
    key) and vsq (|v|^2).
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    q = gen.standard_normal((n_trials, d))
    qn = np.linalg.norm(q, axis=1)
    qhat = q / qn[:, None]
    noise = gen.standard_normal((n_trials, d))
    noise -= (np.einsum("ij,ij->i", noise, qhat))[:, None] * qhat
    noise /= np.linalg.norm(noise, axis=1)[:, None]
    cos = gen.uniform(x_lo, x_hi, n_trials)
    sin = np.sqrt(1.0 - cos**2)
    enorm = np.exp(gen.uniform(math.log(0.3), math.log(2.0), n_trials))
    e = enorm[:, None] * (cos[:, None] * qhat + sin[:, None] * noise)
    v = gen.standard_normal((n_trials, d))
    u = v + e
    gap = gen.uniform(gap_lo, gap_hi, n_trials)
    x = np.clip(cos - gap, x_floor, None)
    vq = np.einsum("ij,ij->i", v, q)
    half_u = 0.5 * np.einsum("ij,ij->i", u, u)
    r = half_u - vq - x * qn * enorm
    keep = (qn**2 + 2.0 * r) > 0  # realizable delta only
    vsq = np.einsum("ij,ij->i", v, v)
    return {
        "u": u[keep], "v": v[keep], "q": q[keep], "r": r[keep], "vq": vq[keep],
        "wk": (qn**2 + 2.0 * r)[keep], "kv": (qn**2 + vsq - 2.0 * vq)[keep], "vsq": vsq[keep],
        "cos": cos[keep], "x": x[keep], "qnorm": qn[keep], "enorm": enorm[keep],
    }


def spread_norms(vectors: np.ndarray, seed: int) -> np.ndarray:
    """vectors with each row scaled by U(0.3, 3.0): real corpora spread their norms, which
    only the angular gate's threshold has to undo."""
    scale = np.random.default_rng(seed).uniform(0.3, 3.0, vectors.shape[0])
    return (vectors * scale[:, None]).astype(vectors.dtype)
