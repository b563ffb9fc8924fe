import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracspec as fs
from fracspec import AngleKind, SingularAngle, UndersampledChirp
from fracspec import fraccore
from fracspec.fraccore import SINGULAR_THRESHOLD, TWO_PI_LD, _uniform_step, cmul


def unitary_ft_oracle(sig: fs.SampledSignal, xi):
    """Direct discrete f_hat(xi) = (2pi)^{-1/2} integral f e^{-i x xi} dx."""
    t = sig.t_grid
    w = sig.trapezoid_weights()
    xi = np.asarray(xi, dtype=float)
    return np.exp(-1j * np.outer(xi, t)) @ (sig.samples * w) / np.sqrt(2 * np.pi)


class TestFracParam:
    def test_quarter_pi_constants(self):
        p = fs.make_frac_param(np.pi / 2)
        assert_allclose(p.c1, 0.0, atol=1e-15)
        assert_allclose(p.c2, 1.0, rtol=1e-15)
        assert_allclose(p.c_alpha, 1.0 / np.sqrt(2 * np.pi), rtol=1e-12)
        assert p.kind is AngleKind.REGULAR

    def test_pi_over_four(self):
        p = fs.make_frac_param(np.pi / 4)
        assert_allclose(p.c1, 1.0, rtol=1e-14)
        assert_allclose(p.c2, np.sqrt(2.0), rtol=1e-14)
        assert_allclose(p.c_alpha, np.sqrt((1 - 1j) / (2 * np.pi)), rtol=1e-14)

    def test_delta_branches(self):
        assert fs.make_frac_param(0.0).kind is AngleKind.IDENTITY
        assert fs.make_frac_param(np.pi).kind is AngleKind.PARITY
        assert fs.make_frac_param(2 * np.pi).kind is AngleKind.IDENTITY
        assert fs.make_frac_param(2 * np.pi).wrapped

    def test_singular_threshold(self):
        eps = 0.5 * SINGULAR_THRESHOLD
        assert fs.make_frac_param(eps).kind is AngleKind.IDENTITY
        assert fs.make_frac_param(np.pi + eps).kind is AngleKind.PARITY
        assert fs.make_frac_param(2 * SINGULAR_THRESHOLD).kind is AngleKind.REGULAR

    def test_pythagorean_identity_bulk(self):
        rng = np.random.default_rng(7)
        alphas = rng.uniform(0, 2 * np.pi, 10**6)
        alphas = alphas[np.abs(np.sin(alphas)) >= SINGULAR_THRESHOLD]
        c1 = 1.0 / np.tan(alphas)
        c2 = 1.0 / np.sin(alphas)
        # |sin| >= 1e-3 keeps c1, c2 <= 1e3, so the identity holds to ~1e-10
        # absolute on c2^2; relative it is at the 1e-12 level
        assert np.max(np.abs((c1 * c1 + 1.0) / (c2 * c2) - 1.0)) < 1e-12

    def test_modulus_of_c_alpha(self):
        rng = np.random.default_rng(8)
        for a in rng.uniform(0.1, np.pi - 0.1, 50):
            p = fs.make_frac_param(a)
            assert_allclose(abs(p.c_alpha) ** 2, abs(p.c2) / (2 * np.pi), rtol=1e-12)


class TestKernel:
    def test_examples(self):
        p = fs.make_frac_param(np.pi / 2)
        assert_allclose(fs.kernel_eval(p, 0.0, 0.0), 1 / np.sqrt(2 * np.pi), rtol=1e-14)
        assert_allclose(fs.kernel_eval(p, 1.0, 1.0),
                        np.exp(-1j) / np.sqrt(2 * np.pi), rtol=1e-12)
        p4 = fs.make_frac_param(np.pi / 4)
        expected = np.sqrt((1 - 1j) / (2 * np.pi)) * np.exp(1j * (1 - np.sqrt(2)))
        assert_allclose(fs.kernel_eval(p4, 1.0, 1.0), expected, rtol=1e-12)

    def test_constant_modulus(self):
        rng = np.random.default_rng(3)
        p = fs.make_frac_param(1.1)
        x = rng.normal(size=200)
        xi = rng.normal(size=200)
        mods = np.abs(fs.kernel_eval(p, x, xi))
        assert_allclose(mods, abs(p.c_alpha), rtol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularAngle):
            fs.kernel_eval(fs.make_frac_param(0.0), 1.0, 1.0)


class TestFrft:
    def test_identity_angle(self):
        sig = fs.gaussian_signal(1.0, 256, 6.0)
        out = fs.frft(fs.make_frac_param(2 * np.pi), sig, sig.t_grid)
        assert_allclose(out, sig.samples, atol=1e-14)

    def test_parity_on_even_signal(self):
        sig = fs.gaussian_signal(1.0, 257, 6.0)
        out = fs.frft(fs.make_frac_param(np.pi), sig, sig.t_grid)
        assert_allclose(out, sig.samples, atol=1e-12)

    def test_half_pi_matches_ft_oracle(self):
        sig = fs.gaussian_signal(1.0, 1024, 12.0)
        xi = np.linspace(-6, 6, 121)
        direct = unitary_ft_oracle(sig, xi)
        out = fs.frft(fs.make_frac_param(np.pi / 2), sig, xi)
        assert np.max(np.abs(out - direct)) < 1e-6

    def test_gaussian_eigenfunction(self):
        sig = fs.gaussian_signal(1.0, 1024, 12.0)
        xi = np.linspace(-6, 6, 121)
        out = fs.frft(fs.make_frac_param(np.pi / 2), sig, xi)
        assert np.max(np.abs(out - np.exp(-xi ** 2 / 2))) < 1e-6

    def test_undersampled_chirp(self):
        sig = fs.gaussian_signal(1.0, 64, 12.0)
        with pytest.raises(UndersampledChirp):
            fs.frft(fs.make_frac_param(np.pi / 6), sig, np.linspace(-12, 12, 16))

    def test_no_extrapolation_on_delta_branches(self):
        sig = fs.gaussian_signal(1.0, 128, 4.0)
        with pytest.raises(fs.DomainError):
            fs.frft(fs.make_frac_param(0.0), sig, np.array([5.0]))

    @pytest.mark.parametrize("alpha, bad", [(1.0, np.nan), (0.0, np.nan), (1.0, np.inf)])
    def test_non_finite_frequency_rejected(self, alpha, bad):
        sig = fs.gaussian_signal(1.0, 128, 4.0)
        with pytest.raises(fs.DomainError):
            fs.frft(fs.make_frac_param(alpha), sig, np.array([0.5, bad]))

    @pytest.mark.parametrize("t0, dt", [(0.0, np.nan), (0.0, np.inf), (np.nan, 0.1),
                                        (-np.inf, 0.1), (0.0, 0.0), (0.0, -0.1)])
    def test_signal_needs_a_finite_axis(self, t0, dt):
        # a NaN dt compares False both ways, and the transform would be NaN
        with pytest.raises(ValueError, match="finite t0 and a finite dt > 0"):
            fs.SampledSignal(t0, dt, np.ones(4))


def _frft_dense(p, t: np.ndarray, fw: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """sum_k fw_k e^{i (c1 (t_k^2 + xi^2)/2 - c2 t_k xi)} by the kernel matrix."""
    out = np.empty(xi.shape, dtype=complex)
    # 128-row blocks bound the kernel matrix at 128 x N
    for lo in range(0, xi.size, 128):
        xb = xi[lo:lo + 128, None]
        phase = (t[None, :] ** 2 + xb ** 2) * (0.5 * p.c1) - t[None, :] * xb * p.c2
        out[lo:lo + 128] = np.exp(1j * phase) @ fw
        del phase   # a phase kept alive into the next block adds 4 MB at N = 4096
    return out


def frft_long_double_oracle(p, sig: fs.SampledSignal, xi: np.ndarray) -> np.ndarray:
    """c_alpha sum_k fw_k e^{i (c1 (t_k^2 + xi^2)/2 - c2 t_k xi)} with
    t_k = t0 + k dt, the phases, exponentials and sum all in long double."""
    ld = np.longdouble
    t = ld(sig.t0) + np.arange(sig.n, dtype=ld) * ld(sig.dt)
    fw = (sig.samples * sig.trapezoid_weights()).astype(np.clongdouble)
    out = np.empty(xi.size, dtype=complex)
    for lo in range(0, xi.size, 64):
        xb = xi[lo:lo + 64, None].astype(ld)
        theta = (t * t + xb * xb) * (ld(p.c1) / 2) - t * xb * ld(p.c2)
        theta -= TWO_PI_LD * np.round(theta / TWO_PI_LD)
        out[lo:lo + 64] = (np.exp(1j * theta) @ fw).astype(complex)
    return p.c_alpha * out


def chirped_signal(n: int) -> fs.SampledSignal:
    t = np.linspace(-12.0, 12.0, n)
    return fs.SampledSignal(t[0], t[1] - t[0],
                            np.exp(1j * (1.3 * t + 0.2 * t * t)) * np.exp(-t * t / 2.0))


UNIFORM_XI = (lambda sig: sig.t_grid, lambda sig: np.linspace(12.0, -12.0, sig.n),
              lambda sig: np.linspace(-0.5, 1.5, 3), lambda sig: np.linspace(-5.0, 7.0, 301))


class TestChirpZ:
    """frft on uniform grids (chirp-z) against the dense kernel matrix."""

    @pytest.mark.parametrize("n", [320, 1024, 4096, 8192])
    @pytest.mark.parametrize("alpha", [0.9, np.pi / 3, 1.35, 4.0])
    def test_matches_dense(self, n, alpha):
        p = fs.make_frac_param(alpha)
        sig = chirped_signal(n)
        fw = sig.samples * sig.trapezoid_weights()
        # the dense oracle on every stride-th point keeps N = 8192 cheap
        stride = max(1, n // 512)
        for grid in UNIFORM_XI:
            xi = grid(sig)
            assert _uniform_step(xi) is not None
            got = fs.frft(p, sig, xi, enforce_sampling=False)[::stride]
            want = p.c_alpha * _frft_dense(p, sig.t_grid, fw, xi[::stride])
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [320, 1024, 4096])
    @pytest.mark.parametrize("alpha", [0.35, 0.9, np.pi / 3, 4.0])
    def test_matches_long_double_oracle(self, n, alpha):
        p = fs.make_frac_param(alpha)
        sig = chirped_signal(n)
        stride = max(1, n // 128)   # the long-double sums are slow
        uneven = np.sort(np.random.default_rng(n).uniform(-5.0, 7.0, 301))
        for xi in [grid(sig) for grid in UNIFORM_XI] + [uneven]:
            got = fs.frft(p, sig, xi, enforce_sampling=False)[::stride]
            want = frft_long_double_oracle(p, sig, xi[::stride])
            assert np.max(np.abs(got - want)) <= 5e-15 * np.max(np.abs(want))

    def test_non_uniform_grid_takes_dense_path(self, monkeypatch):
        p = fs.make_frac_param(np.pi / 3)
        sig = chirped_signal(512)
        xi = np.linspace(-6.0, 6.0, 121)
        xi[60] += 1e-9
        assert _uniform_step(xi) is None
        fw = sig.samples * sig.trapezoid_weights()
        got = fs.frft(p, sig, xi)
        want = p.c_alpha * _frft_dense(p, sig.t_grid, fw, xi)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # the lattice sum's dense branch, with the chirp-z shut off
        monkeypatch.setattr(fraccore, "_uniform_step", lambda xi: None)
        assert np.array_equal(got, fs.frft(p, sig, xi))
        assert fs.frft(p, sig, np.empty(0)).shape == (0,)

    def test_uniform_step_detection(self):
        sig = chirped_signal(4096)
        assert _uniform_step(sig.t_grid) is not None
        assert _uniform_step(np.linspace(3.0, -1.0, 7)) is not None
        assert _uniform_step(np.array([1.0, 2.0])) is None
        assert _uniform_step(np.full(5, 2.0)) is None
        assert _uniform_step(np.array([0.0, 1.0, 3.0])) is None


class TestCmul:
    def test_rounds_as_scalar_products(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=4000) + 1j * rng.normal(size=4000)
        b = rng.normal(size=(3, 4000)) + 1j * rng.normal(size=(3, 4000))
        want = np.array([[complex(u) * complex(v) for u, v in zip(a, row)] for row in b])
        assert np.array_equal(cmul(a, b), want)
        assert cmul(2.0 + 1.0j, 3.0 - 0.5j) == (2.0 + 1.0j) * (3.0 - 0.5j)


class TestCompose:
    def test_pi6_pi3_deviation(self):
        sig = fs.gaussian_signal(1.0, 2048, 12.0)
        rep = fs.frft_compose_check(fs.make_frac_param(np.pi / 6),
                                    fs.make_frac_param(np.pi / 3), sig)
        assert rep.deviation <= 1e-4

    def test_half_half_equals_parity(self):
        sig = fs.gaussian_signal(1.0, 2048, 12.0)
        p2 = fs.make_frac_param(np.pi / 2)
        rep = fs.frft_compose_check(p2, p2, sig)
        assert rep.deviation <= 1e-4

    def test_near_singular_factor_rejected(self):
        sig = fs.gaussian_signal(1.0, 256, 6.0)
        with pytest.raises(SingularAngle):
            fs.frft_compose_check(fs.make_frac_param(np.pi / 2),
                                  fs.make_frac_param(1e-5), sig)

    def test_refinement_never_degrades(self):
        # trapezoid quadrature is spectrally accurate on Gaussian-enveloped
        # chirps, so the deviation sits at the double-precision floor for
        # every N here; refinement must keep it there
        p1 = fs.make_frac_param(np.pi / 6)
        p2 = fs.make_frac_param(np.pi / 3)
        devs = []
        for n in (256, 512, 1024, 2048):
            sig = fs.gaussian_signal(1.0, n, 12.0)
            xi = np.linspace(-12, 12, 241)
            devs.append(fs.frft_compose_check(p1, p2, sig, xi,
                                              enforce_sampling=False).deviation)
        assert max(devs) < 1e-12, devs
        assert devs[-1] <= devs[0] * 1.05, devs
