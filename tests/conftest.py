import mpmath
import numpy as np
import pytest

import fracspec as fs


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
    O_nu = b a^{-(nu+2)/2} Gamma(nu/2+1) M(nu/2+1, 3/2, z), z = b^2/(4a)."""
    with mpmath.workdps(dps):
        a = mpmath.mpc(complex(form.a))
        b = mpmath.mpc(complex(form.b)) + 1j * mpmath.mpf(f.modulation)
        z = b * b / (4 * a)
        total = 0
        for k, q in enumerate(np.ravel(form.q)):
            nu = mpmath.mpf(f.degree) + k
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
            total += mpmath.mpc(complex(q)) * moment
        return complex(mpmath.exp(mpmath.mpc(complex(form.c))) * total)


@pytest.fixture(scope="session")
def mp_pairing():
    return _mp_pairing
