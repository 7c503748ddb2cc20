"""Pointwise model terms: anisotropy, driving force, potential, noise, RNG."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference as R
from dendrosim.solver import SimParams
from dendrosim.physics import (
    RngStream,
    double_well,
    epsilon_of_theta,
    m_of_temperature,
    noise_term,
    reaction_term,
)

TWO_PI = 2.0 * math.pi


class TestModelParams:
    """The ten model constants, fields of SimParams."""

    def test_defaults(self):
        p = SimParams()
        assert (p.tau, p.eps_bar, p.delta, p.j_mode) == (3e-4, 0.01, 0.01, 4)
        assert (p.theta0, p.alpha, p.gamma, p.t_eq) == (1.57, 0.9, 10.0, 1.0)
        assert (p.latent_heat, p.noise_amp) == (1.8, 0.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"eps_bar": -0.01}, "eps_bar"),
            ({"delta": 1.0}, "delta"),
            ({"delta": -0.1}, "delta"),
            ({"j_mode": 0}, "j_mode"),
            ({"j_mode": 2**53 + 1}, "j_mode"),
            ({"j_mode": 10**400}, "j_mode"),
            ({"alpha": 0.0}, "alpha"),
            ({"alpha": 1.0}, "alpha"),
            ({"gamma": 0.0}, "gamma"),
            ({"latent_heat": -1.0}, "latent_heat"),
            ({"tau": 0.0}, "tau"),
            ({"noise_amp": -1e-9}, "noise_amp"),
        ],
    )
    def test_invalid_values_name_the_field(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            SimParams(**kwargs)

    def test_j_mode_up_to_the_last_exact_float_allowed(self):
        assert SimParams(j_mode=2**53).j_mode == 2**53

    def test_zero_anisotropy_coefficient_allowed(self):
        # eps_bar = 0 removes phase diffusion entirely; useful for limits
        assert SimParams(eps_bar=0.0).eps_bar == 0.0


def unit(theta):
    """The unit gradient (cos theta, sin theta), whose angle is theta."""
    return np.cos(theta), np.sin(theta)


class TestGradientAngle:
    """epsilon_of_theta reads the angle of the gradient it is given: an odd
    j_mode gives eps(pi) != eps(0), so each angle below is told apart."""

    P = SimParams(j_mode=3, delta=0.05, theta0=0.0)

    def assert_angle(self, gx, gy, theta):
        eps, eps_prime = epsilon_of_theta(gx, gy, self.P)
        assert (eps, eps_prime) == R.roll_epsilon(theta, self.P)

    def test_cardinal_directions(self):
        self.assert_angle(1.0, 0.0, 0.0)
        self.assert_angle(0.0, 1.0, math.pi / 2)
        self.assert_angle(-1.0, 0.0, math.pi)

    def test_third_quadrant_matches_branch_arithmetic(self):
        # gradient (-1, -1) lies at 225 degrees
        eps, eps_prime = epsilon_of_theta(-1.0, -1.0, self.P)
        want = R.roll_epsilon(5.0 * math.pi / 4.0, self.P)
        assert eps == pytest.approx(want[0], rel=1e-15)
        assert eps_prime == pytest.approx(want[1], rel=1e-15)

    def test_zero_gradient_maps_to_zero(self):
        self.assert_angle(0.0, 0.0, 0.0)

    def test_negative_zero_x_component_maps_to_plus_or_minus_pi(self):
        self.assert_angle(0.0, -0.0, 0.0)
        self.assert_angle(-0.0, 0.0, math.pi)
        self.assert_angle(-0.0, -0.0, -math.pi)
        self.assert_angle(-0.0, 1.0, math.pi / 2)
        # so these tell 0, +pi and -pi apart: eps(pi) != eps(0), and eps' at
        # +pi and -pi differ in their last bits
        at = {theta: R.roll_epsilon(theta, self.P) for theta in (0.0, math.pi, -math.pi)}
        assert at[math.pi][0] != at[0.0][0] and at[math.pi][1] != at[-math.pi][1]

    def test_equivalent_to_branchy_form_mod_two_pi(self):
        # the angles agree within 1e-12, so eps and eps' do within 1e-12
        # times their slopes in theta, eps_bar delta j and eps_bar delta j^2
        p = self.P
        slope = p.eps_bar * p.delta * p.j_mode
        rng = np.random.default_rng(23)
        cases = [(float(gx), float(gy)) for gx, gy in rng.normal(size=(200, 2))]
        cases += [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0),
                  (2.5, 0.0), (-2.5, 0.0), (0.0, 0.25)]
        for gx, gy in cases:
            eps, eps_prime = epsilon_of_theta(gx, gy, p)
            want = R.roll_epsilon(R.branchy_angle(gx, gy), p)
            assert abs(eps - want[0]) < slope * 1e-12, (gx, gy)
            assert abs(eps_prime - want[1]) < slope * p.j_mode * 1e-12, (gx, gy)

    def test_scale_invariance(self):
        p = SimParams()
        for gx, gy in [(0.3, -0.7), (-1.0, 2.0), (5.0, 5.0)]:
            for scale in (1e-6, 1.0, 1e6):
                a = epsilon_of_theta(gx, gy, p)
                b = epsilon_of_theta(scale * gx, scale * gy, p)
                assert a[0] == pytest.approx(b[0], rel=1e-13)
                assert a[1] == pytest.approx(b[1], rel=1e-13, abs=1e-18)


class TestEpsilonOfTheta:
    """eps and eps' of unit gradients (cos theta, sin theta)."""

    def test_preferred_direction_extremum(self):
        gx, gy = unit(0.4)
        p = SimParams(eps_bar=0.02, delta=0.05, j_mode=6, theta0=float(np.arctan2(gy, gx)))
        eps, eps_prime = epsilon_of_theta(gx, gy, p)
        assert eps == pytest.approx(0.02 * 1.05, rel=1e-15)
        assert eps_prime == 0.0

    def test_isotropic_limit(self):
        p = SimParams(delta=0.0)
        for theta in np.linspace(-7.0, 7.0, 17):
            eps, eps_prime = epsilon_of_theta(*unit(theta), p)
            assert eps == p.eps_bar
            assert eps_prime == 0.0

    def test_quarter_turn_off_axis_example(self):
        p = SimParams(eps_bar=0.01, delta=0.02, j_mode=4, theta0=0.0)
        eps, eps_prime = epsilon_of_theta(*unit(math.pi / 4.0), p)
        assert eps == pytest.approx(0.0098, rel=1e-14)
        assert eps_prime == pytest.approx(0.0, abs=1e-18)

    def test_periodicity_in_mode_angle(self):
        p = SimParams(j_mode=6, delta=0.04)
        for theta in np.linspace(0.0, TWO_PI, 50):
            a = epsilon_of_theta(*unit(theta), p)
            b = epsilon_of_theta(*unit(theta + TWO_PI / p.j_mode), p)
            assert abs(a[0] - b[0]) < 1e-14
            assert abs(a[1] - b[1]) < 1e-14

    def test_derivative_matches_finite_difference(self):
        p = SimParams(delta=0.03, j_mode=4)
        h = 1e-7
        thetas = np.linspace(-math.pi, math.pi, 1000)
        _, eps_prime = epsilon_of_theta(*unit(thetas), p)
        fd = (epsilon_of_theta(*unit(thetas + h), p)[0]
              - epsilon_of_theta(*unit(thetas - h), p)[0]) / (2 * h)
        assert np.max(np.abs(eps_prime - fd)) < 1e-7

    def test_vectorized_matches_scalar(self):
        p = SimParams()
        gx, gy = unit(np.linspace(-1.0, 1.0, 7))
        eps, eps_prime = epsilon_of_theta(gx, gy, p)
        for k in range(gx.size):
            e, ep = epsilon_of_theta(float(gx[k]), float(gy[k]), p)
            assert eps[k] == e and eps_prime[k] == ep

    @pytest.mark.parametrize("j_mode", [3, 4, 6])
    def test_matches_the_angle_form_bitwise(self, j_mode):
        p = SimParams(j_mode=j_mode, delta=0.04, theta0=0.3)
        gx, gy = np.random.default_rng(8).normal(size=(2, 500))
        eps, eps_prime = R.roll_epsilon(np.arctan2(gy, gx), p)
        assert eps.tobytes() == epsilon_of_theta(gx, gy, p)[0].tobytes()
        assert eps_prime.tobytes() == epsilon_of_theta(gx, gy, p)[1].tobytes()


class TestDrivingForce:
    def test_zero_at_equilibrium(self):
        assert m_of_temperature(1.0, SimParams()) == 0.0

    def test_supercooled_bath_value(self):
        # (0.9/pi) * atan(10) evaluated with 40-digit arithmetic
        m = m_of_temperature(0.0, SimParams())
        assert m == pytest.approx(0.4214470343125018, abs=2e-16)

    def test_bounded_by_half_alpha(self):
        p = SimParams()
        for t in [-1e12, -10.0, 0.0, 0.5, 1.0, 2.0, 1e12]:
            assert abs(m_of_temperature(t, p)) < p.alpha / 2.0

    def test_strictly_decreasing_in_temperature(self):
        p = SimParams()
        ts = np.linspace(-5.0, 5.0, 300)
        ms = m_of_temperature(ts, p)
        assert (np.diff(ms) < 0.0).all()

    def test_deep_supercooling_limit(self):
        p = SimParams()
        assert m_of_temperature(-1e15, p) == pytest.approx(p.alpha / 2.0, rel=1e-10)


class TestDoubleWell:
    def test_liquid_minimum_is_zero(self):
        for m in (-0.3, 0.0, 0.3):
            assert double_well(0.0, m) == 0.0

    def test_solid_minimum_depth(self):
        for m in (-0.4, -0.1, 0.0, 0.2, 0.45):
            assert double_well(1.0, m) == pytest.approx(-m / 6.0, rel=1e-13, abs=1e-17)

    def test_symmetric_barrier_height(self):
        assert double_well(0.5, 0.0) == 1.0 / 64.0

    def test_reaction_is_negative_potential_gradient(self):
        phis = np.linspace(-0.5, 1.5, 100)
        ms = np.linspace(-0.4, 0.4, 100)
        P, M = np.meshgrid(phis, ms, indexing="ij")
        h = 1e-6
        fd = (double_well(P + h, M) - double_well(P - h, M)) / (2 * h)
        assert np.max(np.abs(reaction_term(P, M) + fd)) < 1e-8

    @pytest.mark.parametrize("phi_shape, m_shape", [
        ((40, 30), (40, 30)), ((40, 1), (1, 30)), ((40, 30), ()), ((), (40, 30)), ((), ()),
    ])
    def test_bits_of_the_one_expression_form(self, phi_shape, m_shape):
        # pins the shipped expression bit for bit, on arrays, broadcast
        # shapes and scalars
        rng = np.random.default_rng(41)
        phi = rng.uniform(-0.5, 1.5, phi_shape)
        m = rng.uniform(-0.45, 0.45, m_shape)
        p2 = phi * phi
        want = 0.25 * (p2 * p2) - (0.5 - m / 3.0) * (p2 * phi) + (0.25 - 0.5 * m) * p2
        got = double_well(phi, m)
        assert np.shape(got) == np.shape(want) and np.ndim(got) == np.ndim(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        if not phi_shape and not m_shape:
            assert double_well(float(phi), float(m)) == want


class TestReactionTerm:
    def test_vanishes_at_both_wells(self):
        for m in (-0.4, 0.0, 0.4):
            assert reaction_term(0.0, m) == 0.0
            assert reaction_term(1.0, m) == 0.0

    def test_midpoint_value(self):
        assert reaction_term(0.5, 0.1) == pytest.approx(0.025, rel=1e-15)

    def test_sign_follows_driving_force_at_midpoint(self):
        assert reaction_term(0.5, 0.2) > 0.0
        assert reaction_term(0.5, -0.2) < 0.0


class TestNoiseTerm:
    def test_zero_amplitude(self):
        assert noise_term(0.7, 0.0, 0.5) == 0.0

    def test_vanishes_in_bulk_phases(self):
        assert noise_term(0.0, 0.01, 0.5) == 0.0
        assert noise_term(1.0, 0.01, -0.5) == 0.0

    def test_peak_magnitude(self):
        assert noise_term(0.5, 0.01, 0.5) == pytest.approx(0.00125, rel=1e-15)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(-0.5, 0.5),
    )
    def test_bounded_by_eighth_of_amplitude(self, phi, amp, chi):
        assert abs(noise_term(phi, amp, chi)) <= amp / 8.0 + 1e-18


class TestRngStream:
    def test_same_seed_reproduces(self):
        a = RngStream(1234).uniform_sym((50,))
        b = RngStream(1234).uniform_sym((50,))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(1).uniform_sym((50,))
        b = RngStream(2).uniform_sym((50,))
        assert (a != b).any()

    def test_sequence_advances(self):
        s = RngStream(7)
        assert (s.uniform_sym((10,)) != s.uniform_sym((10,))).any()

    def test_range_is_symmetric_about_zero(self):
        vals = RngStream(99).uniform_sym((10000,))
        assert vals.min() >= -0.5
        assert vals.max() <= 0.5
        assert abs(vals.mean()) < 0.02

    def test_shape_follows_request(self):
        assert RngStream(3).uniform_sym((4, 6)).shape == (4, 6)


class TestRngWindow:
    """A window draws the same values as the same window of a whole-grid
    draw, and leaves the stream where the whole-grid draw leaves it."""

    @staticmethod
    def check(seed, shape, window):
        stream, twin = RngStream(seed), RngStream(seed)
        got = stream.uniform_sym(shape, window)
        whole = twin.uniform_sym(shape)
        assert got.tobytes() == whole[window].tobytes()
        assert got.shape == whole[window].shape
        assert stream.uniform_sym(shape).tobytes() == twin.uniform_sym(shape).tobytes()

    @given(st.integers(0, 2**64 - 1), st.integers(3, 20), st.integers(3, 20), st.data())
    def test_random_windows(self, seed, nx, ny, data):
        window = []
        for n in (nx, ny):
            start = data.draw(st.integers(0, n - 1))
            window.append(slice(start, data.draw(st.integers(start + 1, n))))
        self.check(seed, (nx, ny), tuple(window))

    @pytest.mark.parametrize("shape", [(3, 3), (3, 5), (17, 4)])
    @pytest.mark.parametrize("which", ["first", "last", "all", "default"])
    @pytest.mark.parametrize("cols", ["all-columns", "last-column"])
    def test_edge_bands(self, shape, which, cols):
        nx = shape[0]
        rows = {"first": slice(0, 1), "last": slice(nx - 1, nx),
                "all": slice(0, nx), "default": slice(None)}[which]
        self.check(21, shape, (rows, np.s_[:] if cols == "all-columns" else np.s_[-1:]))

    def test_rows_alone_and_the_whole_array(self):
        self.check(5, (6, 7), (slice(2, 4),))
        self.check(5, (6, 7), ())
        self.check(5, (50,), (slice(10, 20),))
