import tracemalloc

import mpmath
import numpy as np
import pytest

import fracspec as fs
from fracspec.distributions import TestFunction


def window_probe(g):
    """The window g as a probe centred at 0, with g's Gaussian form."""
    return TestFunction(fn=lambda t: np.asarray(g.eval(t), dtype=complex),
                        center=0.0, radius=g.support_radius, name=g.name,
                        form=lambda: g.form)


def trapezoid_pairing(sig, probe):
    """<sig, probe> by the trapezoid rule on the signal's own grid: the
    point form of the spectral kernel, and its test oracle."""
    return complex(np.sum(sig.samples * probe(sig.t_grid) * sig.trapezoid_weights()))


def traced_peak(run) -> int:
    """Bytes of run()'s traced peak allocation, after one untraced call
    has warmed numpy's FFT caches."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def probe_battery(c2=2.0 / np.sqrt(3.0)):
    """Fixed probe battery: Gaussians at four widths, the Hermite and
    Mexican-hat wavelets, and modulated Gaussians at a in {1, c2}."""
    wins = [fs.gaussian_window(0.5), fs.gaussian_window(1.0), fs.gaussian_window(2.0),
            fs.gaussian_window(4.0), fs.hermite_wavelet_window(), fs.mexican_hat_window(),
            fs.modulate(fs.gaussian_window(1.0), 1.0), fs.modulate(fs.gaussian_window(1.0), c2)]
    return [window_probe(w) for w in wins]


@pytest.fixture(scope="session")
def p_third():
    return fs.make_frac_param(np.pi / 3)


@pytest.fixture(scope="session")
def p_half():
    return fs.make_frac_param(np.pi / 2)


@pytest.fixture(scope="session")
def hermite():
    return fs.hermite_wavelet_window()


@pytest.fixture(scope="session")
def mexican():
    return fs.mexican_hat_window()


@pytest.fixture(scope="session")
def gauss():
    return fs.gaussian_window()


@pytest.fixture(scope="session")
def unit_gauss():
    return fs.gaussian_window(unit_mass=True)


def _mp_pairing(f, form, dps=20):
    """<f, phi> for a homogeneous descriptor f and a single probe's
    GaussianForm, by the Kummer closed form in ``dps``-digit mpmath
    arithmetic: int_0^inf t^nu e^{-a t^2 + b t} dt = (E_nu + O_nu)/2 with
    E_nu = a^{-(nu+1)/2} Gamma((nu+1)/2) M((nu+1)/2, 1/2, z),
    O_nu = b a^{-(nu+2)/2} Gamma(nu/2+1) M(nu/2+1, 3/2, z), z = b^2/(4a).
    The form is moved from its origin o to 0 in the same arithmetic:
    Q(t - o) = sum_j r_j t^j, b -> b + 2 a o and c -> c - o (b + a o).
    For a log kind (log_power 1) the pairing is -d/dnu of the same closed
    form at nu = degree, by mpmath.diff."""
    with mpmath.workdps(dps):
        o = mpmath.mpf(float(form.origin))
        a = mpmath.mpc(complex(form.a))
        b = mpmath.mpc(complex(form.b))
        c = mpmath.mpc(complex(form.c)) - o * (b + a * o)
        q = [mpmath.mpc(complex(v)) for v in np.ravel(form.q)]
        r = [sum(mpmath.binomial(k, j) * q[k] * (-o) ** (k - j) for k in range(j, len(q)))
             for j in range(len(q))]
        b = b + 2 * a * o
        z = b * b / (4 * a)

        def pairing(degree):
            total = 0
            for k, q in enumerate(r):
                nu = degree + k
                even = (nu + 1) / 2
                odd = nu / 2 + 1
                E = a ** -even * mpmath.gamma(even) * mpmath.hyp1f1(even, 0.5, z)
                O = b * a ** -odd * mpmath.gamma(odd) * mpmath.hyp1f1(odd, 1.5, z)
                if f.pattern == "abs":
                    moment = E if k % 2 == 0 else O
                elif f.pattern == "plus":
                    moment = (E + O) / 2
                else:
                    moment = (-1) ** k * (E - O) / 2
                total += q * moment
            return mpmath.exp(c) * total

        degree = mpmath.mpf(f.degree)
        return complex(-mpmath.diff(pairing, degree) if f.log_power else pairing(degree))


@pytest.fixture(scope="session")
def mp_pairing():
    return _mp_pairing


def closed_form_oracle(f, form):
    """(values, accepted, terms, tail) of the homogeneous series closed form
    for a homogeneous descriptor f at each cell of a probe family's
    GaussianForm, with its acceptance gate summed over the full
    (cells, k, n) array of |terms|: the test oracle of
    ``distributions._homogeneous_closed_form``, which forms no such array.
    values are the series' sums at every cell, accepted or not; terms is
    the sum of |terms| over k and n, tail the same over the last two n."""
    from fracspec import distributions
    form = form.long_double().about(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        coeff, *psi = distributions._series_coefficients(f.pattern, f.degree, form.q.shape[-1],
                                                         f.log_power)
        n_terms = distributions.HOMOGENEOUS_SERIES_TERMS
        w = np.repeat((form.b / np.sqrt(form.a))[..., None], n_terms - 1, axis=-1)
        powers = np.cumprod(np.insert(w, 0, 1.0, axis=-1), axis=-1)
        lead = 0.5 * form.q * np.exp(form.c)[..., None] * form.a[..., None] ** (
            -(np.longdouble(f.degree) + 1 + np.arange(coeff.shape[0])) / 2)
        sums, magnitude = powers @ coeff.T, np.abs(coeff)
        if psi:
            half_log_a = np.log(form.a)[..., None] / 2
            sums = half_log_a * sums - powers @ psi[0].T
            magnitude = np.abs(half_log_a)[..., None] * magnitude + np.abs(psi[0])
        vals = np.sum(lead * sums, axis=-1).astype(complex)
        sizes = np.abs(lead)[..., None] * np.abs(powers)[..., None, :] * magnitude
        terms, tail = (np.sum(s, axis=(-2, -1)) for s in (sizes, sizes[..., -2:]))
        accepted = (np.isfinite(vals) & (tail <= 2.0 ** -64 * terms)
                    & (terms <= distributions.HOMOGENEOUS_CANCELLATION_MAX * np.abs(vals)))
    return vals, accepted, terms, tail
