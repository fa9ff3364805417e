import math
import warnings

import numpy as np
import pytest

from anisowf.errors import AliasingError, DomainError, ResolutionError
from anisowf.poly import eval_poly, poly_1d
from anisowf.signals import SampledSignal, WindowSpec, fourier, make_chirp, make_gaussian


class TestSampledSignal:
    def test_grid_convention(self):
        sig = make_gaussian(1, 32, 0.25, width=0.5)
        coords = sig.axis_coords()
        assert coords[32 // 2] == 0.0
        assert coords[0] == -4.0
        assert sig.extent == pytest.approx(4.0)
        assert sig.dxi == pytest.approx(2 * math.pi / (32 * 0.25))

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            SampledSignal(0.1, np.zeros(48, dtype=complex))
        with pytest.raises(DomainError):
            SampledSignal(0.1, np.zeros(8, dtype=complex))

    def test_samples_are_1d(self):
        # no sampled constructor builds a grid of more than one axis
        square = poly_1d(0.0, 0.0, 1.0)
        for build in (lambda: SampledSignal(0.25, np.zeros((16, 16))),
                      lambda: SampledSignal(0.25, np.zeros(())),
                      lambda: make_gaussian(2, 64, 0.25)):
            with pytest.raises(DomainError, match="1-d"):
                build()
        assert make_chirp(square, 64, 0.05).dim == 1


class TestMakeGaussian:
    def test_peak_value(self):
        sig = make_gaussian(1, 512, 0.05)
        # value at x = 0 is pi^(-1/4)
        assert abs(sig.values[256]) == pytest.approx(math.pi ** -0.25, abs=1e-14)

    def test_unit_norm(self):
        # oracle: discrete quadrature of the known unit integral
        sig = make_gaussian(1, 512, 0.05)
        assert sig.norm() == pytest.approx(1.0, abs=1e-8)

    def test_evenness(self):
        sig = make_gaussian(1, 128, 0.1)
        vals = sig.values
        np.testing.assert_allclose(vals[1:], vals[1:][::-1], atol=1e-15)

    def test_truncation_guard(self):
        with pytest.raises(ResolutionError):
            make_gaussian(1, 16, 0.05, width=1.0)  # extent 0.4 truncates the mass


class TestMakeChirp:
    def test_unimodular_and_phase(self):
        phase = poly_1d(0.0, 0.0, 1.0)  # x^2
        sig = make_chirp(phase, 64, 0.05)
        np.testing.assert_allclose(np.abs(sig.values), 1.0, atol=1e-14)
        assert sig.values[32] == pytest.approx(1.0 + 0.0j)  # x = 0
        x = sig.axis_coords()[40]
        assert sig.values[40] == pytest.approx(np.exp(1j * x * x))

    def test_aliasing_guard(self):
        # oracle: max |phi'| dx = 2 * 32 * 1.0 = 64 > 0.9 pi at the grid edge
        with pytest.raises(AliasingError):
            make_chirp(poly_1d(0.0, 0.0, 1.0), 64, 1.0)

    def test_envelope(self):
        env = make_chirp(poly_1d(0.0, 0.0, 1.0), 64, 0.05, envelope_width=1.0)
        x = env.axis_coords()
        np.testing.assert_allclose(np.abs(env.values), np.exp(-x * x / 2), atol=1e-14)
        np.testing.assert_allclose(env.values, np.exp(1j * x * x - x * x / 2), atol=1e-14)

    def test_infinite_envelope_is_the_unimodular_chirp(self):
        phase = poly_1d(0.3, -1.0, 2.0, 0.5)
        sig = make_chirp(phase, 128, 0.05)
        want = np.exp(1j * eval_poly(phase, sig.axis_coords()))
        np.testing.assert_array_equal(sig.values, want)
        np.testing.assert_array_equal(
            make_chirp(phase, 128, 0.05, envelope_width=math.inf).values, want)

    def test_envelope_widths_at_the_double_range(self):
        # past 2^511 the envelope's W^2 overflows: the chirp is the unimodular
        # one, which it equals to double precision; below 2^-511 1 / W^2 would
        phase = poly_1d(0.3, -1.0, 2.0, 0.5)
        want = make_chirp(phase, 128, 0.05).values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for huge in (2.0 ** 510, 1e300):
                np.testing.assert_array_equal(
                    make_chirp(phase, 128, 0.05, envelope_width=huge).values, want)
            tiny = make_chirp(phase, 128, 0.05, envelope_width=2.0 ** -511).values
        assert tiny[64] == want[64] and np.count_nonzero(tiny) == 1
        with pytest.raises(DomainError):
            make_chirp(phase, 128, 0.05, envelope_width=1e-300)

    def test_envelope_guard_covers_its_support_only(self):
        # x^2 on 256 points of 0.2: 2 |x| dx exceeds 0.9 pi past |x| = 7.07,
        # the grid reaches 25.6; the 1e-14 level sits at 8.03 W
        phase = poly_1d(0.0, 0.0, 1.0)
        for width in (math.inf, 2.0, 1.0):
            with pytest.raises(AliasingError):
                make_chirp(phase, 256, 0.2, envelope_width=width)
        narrow = make_chirp(phase, 256, 0.2, envelope_width=0.8)
        assert np.max(np.abs(narrow.values)) == pytest.approx(1.0)
        with pytest.raises(AliasingError):
            make_chirp(phase, 256, 0.2, envelope_width=0.8, guard_level=1e-20)

    def test_principal_part_factor_is_unimodular_lower_degree(self):
        full = poly_1d(0.5, 1.0, 1.0)
        top = poly_1d(0.0, 0.0, 1.0)
        a = make_chirp(full, 64, 0.05)
        b = make_chirp(top, 64, 0.05)
        ratio = a.values / b.values
        x = a.axis_coords()
        np.testing.assert_allclose(ratio, np.exp(1j * (0.5 + x)), atol=1e-12)


class TestFourier:
    def test_gaussian_fixed_point(self):
        sig = make_gaussian(1, 512, 0.05)
        hat = fourier(sig)
        expect = WindowSpec(1.0).values_1d(hat.axis_coords())
        np.testing.assert_allclose(hat.values.real, expect, atol=1e-8)
        np.testing.assert_allclose(hat.values.imag, 0.0, atol=1e-8)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        sig = SampledSignal(0.1, vals)
        back = fourier(fourier(sig), inverse=True)
        assert back.dx == pytest.approx(0.1)
        np.testing.assert_allclose(back.values, vals, atol=1e-10)

    def test_parseval(self):
        rng = np.random.default_rng(6)
        sig = SampledSignal(0.07, rng.standard_normal(128) + 1j * rng.standard_normal(128))
        assert fourier(sig).norm() == pytest.approx(sig.norm(), abs=1e-10)
