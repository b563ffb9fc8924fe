"""Reference values written from the defining formulas, not from fracspec.

Every function here uses only numpy and the formulas in the package
docstrings; none imports fracspec, so a defect in the code under test
cannot hide in its own reference.
"""

from __future__ import annotations

import numpy as np


def kernel_constants(alpha: float) -> tuple[float, float, complex]:
    """c1 = cot a, c2 = csc a, C_a = sqrt((1 - i c1) / (2 pi)) for a regular angle."""
    s = np.sin(alpha)
    c1 = np.cos(alpha) / s
    c2 = 1.0 / s
    return c1, c2, complex(np.sqrt((1.0 - 1j * c1) / (2.0 * np.pi)))


def window(name: str):
    """The named analytic window as a plain function."""
    if name == "gauss":
        return lambda u: np.exp(-u * u / 2.0)
    if name == "hermite1":
        return lambda u: -u * np.exp(-u * u / 2.0)
    if name == "mexican-hat":
        return lambda u: (1.0 - u * u) * np.exp(-u * u / 2.0)
    raise KeyError(name)


def trapezoid_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def frft_trapezoid(alpha: float, t: np.ndarray, f: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """F_a f(xi) = integral f(t) K_a(t, xi) dt by the trapezoid rule on t."""
    c1, c2, ca = kernel_constants(alpha)
    fw = f * trapezoid_weights(t.size, t[1] - t[0])
    out = np.empty(xi.size, dtype=complex)
    for k, v in enumerate(xi):
        out[k] = ca * np.sum(fw * np.exp(1j * (0.5 * c1 * (t * t + v * v) - c2 * t * v)))
    return out


def frst_trapezoid(alpha: float, g: str, t: np.ndarray, f: np.ndarray,
                   x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """S_g f(x, xi) = |xi| integral f(t) conj(g(xi(t-x))) K_a(t, xi) dt, per cell."""
    c1, c2, ca = kernel_constants(alpha)
    gf = window(g)
    fw = f * trapezoid_weights(t.size, t[1] - t[0])
    out = np.empty(x.size, dtype=complex)
    for k, (a, b) in enumerate(zip(x, xi)):
        kern = ca * np.exp(1j * (0.5 * c1 * (t * t + b * b) - c2 * t * b))
        out[k] = abs(b) * np.sum(fw * np.conj(gf(b * (t - a))) * kern)
    return out


def frwt_trapezoid(alpha: float, g: str, t: np.ndarray, f: np.ndarray,
                   x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """W_g f(x, xi) = xi^-1/2 integral f(t) conj(g((t-x)/xi)) e^{i c1 (t^2-x^2)/2} dt."""
    c1, _, _ = kernel_constants(alpha)
    gf = window(g)
    fw = f * trapezoid_weights(t.size, t[1] - t[0])
    out = np.empty(x.size, dtype=complex)
    for k, (a, b) in enumerate(zip(x, xi)):
        out[k] = b ** -0.5 * np.sum(fw * np.conj(gf((t - a) / b))
                                    * np.exp(0.5j * c1 * (t * t - a * a)))
    return out


def frst_delta_comb(alpha: float, g: str, comb, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Closed form of S_g f for f = sum w_j delta(. - a_j):
    sum_j w_j |xi| conj(g(xi (a_j - x))) K_a(a_j, xi), on the x-by-xi grid."""
    c1, c2, ca = kernel_constants(alpha)
    gf = window(g)
    X, XI = np.meshgrid(x, xi, indexing="ij")
    out = np.zeros(X.shape, dtype=complex)
    for a, w in comb:
        kern = ca * np.exp(1j * (0.5 * c1 * (a * a + XI * XI) - c2 * a * XI))
        out += w * np.abs(XI) * np.conj(gf(XI * (a - X))) * kern
    return out


def frwt_delta_comb(alpha: float, g: str, comb, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Closed form of W_g f for f = sum w_j delta(. - a_j):
    sum_j w_j xi^-1/2 conj(g((a_j - x)/xi)) e^{i c1 (a_j^2 - x^2)/2}."""
    c1, _, _ = kernel_constants(alpha)
    gf = window(g)
    X, XI = np.meshgrid(x, xi, indexing="ij")
    out = np.zeros(X.shape, dtype=complex)
    for a, w in comb:
        out += w * XI ** -0.5 * np.conj(gf((a - X) / XI)) * np.exp(0.5j * c1 * (a * a - X * X))
    return out


def rel_dev(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got - ref| relative to max |ref|."""
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(got - ref))) / (scale if scale > 0 else 1.0)
