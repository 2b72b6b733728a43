"""Density shape: closed form, support, mass, shape-ODE residual."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import quadrature_mass

from dp2.errors import ValidationError
from dp2.profile import OutsideInterior, Profile


def rk4_shape_ode(beta: float, f0: float, eta_end: float, n_steps: int = 20000) -> float:
    """Independent oracle: integrate f' = -eta/(beta*f) from f(0) = f0."""
    h = eta_end / n_steps
    eta, f = 0.0, f0
    rhs = lambda e, f: -e / (beta * f)
    for _ in range(n_steps):
        k1 = rhs(eta, f)
        k2 = rhs(eta + 0.5 * h, f + 0.5 * h * k1)
        k3 = rhs(eta + 0.5 * h, f + 0.5 * h * k2)
        k4 = rhs(eta + h, f + h * k3)
        f += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        eta += h
    return f


def test_amplitude_at_origin():
    assert Profile(alpha=2.0, beta=1.0).eval_f(0.0) == 2.0


def test_interior_value_against_ode_oracle():
    p = Profile(alpha=2.0, beta=1.0)
    oracle = rk4_shape_ode(beta=1.0, f0=2.0, eta_end=1.0)
    assert p.eval_f(1.0) == pytest.approx(oracle, abs=1e-10)
    assert p.eval_f(1.0) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    for beta in (0.5, 2.5):  # every member solves eta/beta + f*f' = 0
        p = Profile(alpha=2.0, beta=beta)
        assert p.eval_f(1.0) == pytest.approx(rk4_shape_ode(beta, 2.0, 1.0), abs=1e-10)


def test_support_endpoint_and_outside():
    p = Profile(alpha=1.0, beta=4.0)
    assert p.half_width == pytest.approx(2.0)
    assert p.eval_f(2.0) == 0.0
    assert p.eval_f(-2.0) == 0.0
    assert p.eval_f(5.0) == 0.0


def test_eval_vectorised_and_nonnegative():
    p = Profile(alpha=1.3, beta=2.7)
    eta = np.linspace(-3.0, 3.0, 401)
    vals = p.eval_f(eta)
    assert vals.shape == eta.shape
    assert np.all(vals >= 0.0)
    assert np.all(vals[np.abs(eta) > p.half_width] == 0.0)


def test_mass_closed_form_values():
    assert Profile(alpha=1.0, beta=1.0).mass_eta() == pytest.approx(math.pi / 2, abs=1e-12)
    assert Profile(alpha=1.0, beta=4.0).mass_eta() == pytest.approx(math.pi, abs=1e-12)
    assert Profile(alpha=0.0, beta=1.0).mass_eta() == 0.0


def test_mass_matches_quadrature_oracle():
    rng = np.random.default_rng(33)
    for _ in range(10):
        beta = rng.uniform(0.2, 5.0)
        alpha = rng.uniform(0.1, 3.0)
        p = Profile(alpha=alpha, beta=beta)
        oracle = quadrature_mass(beta, alpha)
        assert abs(p.mass_eta() - oracle) / oracle < 1e-6


def test_evenness_and_monotone_decay():
    rng = np.random.default_rng(44)
    for _ in range(5):
        p = Profile(alpha=rng.uniform(0.5, 2.0), beta=rng.uniform(0.5, 3.0))
        eta = np.linspace(0.0, p.half_width, 200)
        vals = p.eval_f(eta)
        assert np.allclose(vals, p.eval_f(-eta))
        assert np.all(np.diff(vals) <= 1e-14)


def test_ode_residual_small_at_interior_point():
    p = Profile(alpha=2.0, beta=1.0)
    assert abs(p.ode_residual_f(0.5, 1e-4)) < 1e-7


def test_ode_residual_zero_by_symmetry_at_origin():
    p = Profile(alpha=2.0, beta=1.0)
    for h in (1e-1, 1e-3, 1.0):
        assert abs(p.ode_residual_f(0.0, h)) < 1e-14


def test_ode_residual_stencil_leaving_support():
    p = Profile(alpha=2.0, beta=1.0)
    with pytest.raises(OutsideInterior):
        p.ode_residual_f(1.9999, 1e-3)


def test_ode_residual_second_order_convergence():
    rng = np.random.default_rng(55)
    for _ in range(10):
        alpha = rng.uniform(0.8, 2.5)
        p = Profile(alpha=alpha, beta=rng.uniform(0.2, 5.0))
        eta = rng.uniform(0.1, 0.7) * p.half_width
        h = 1e-3 * p.half_width
        r1 = abs(p.ode_residual_f(eta, h))
        r2 = abs(p.ode_residual_f(eta, 0.5 * h))
        order = math.log2(r1 / r2)
        assert 1.7 <= order <= 2.3


def test_sign_factory_branches():
    # beta = mu*k3/(4*xi), the shape the momentum equation fixes
    assert Profile.from_params(k3=1.0, xi=2.0, alpha=1.0).beta == pytest.approx(0.5)
    assert Profile.from_params(k3=-1.0, xi=-0.5, alpha=1.0).beta == pytest.approx(2.0)
    assert Profile.from_params(k3=1.0, xi=0.5, alpha=1.0, mu=1.0).beta == pytest.approx(0.5)
    assert Profile.from_params(k3=2.0, xi=2.0, alpha=1.0).beta == 1.0
    with pytest.raises(ValidationError):
        Profile.from_params(k3=1.0, xi=-1.0, alpha=1.0)
    with pytest.raises(ValidationError):
        Profile.from_params(k3=-1.0, xi=1.0, alpha=1.0)
    with pytest.raises(ValidationError):
        Profile.from_params(k3=0.0, xi=0.0, alpha=1.0)
    with pytest.raises(ValidationError):
        Profile.from_params(k3=1.0, xi=0.0, alpha=1.0)


def test_rejects_bad_shape_parameters():
    with pytest.raises(ValidationError):
        Profile(alpha=-1.0, beta=1.0)
    with pytest.raises(ValidationError):
        Profile(alpha=1.0, beta=0.0)


def test_eval_f_is_the_where_form_bit_for_bit():
    # eval_f computes in one array what sqrt(maximum(rad, 0)/beta) masked by
    # where(rad >= 0) computed in four
    p = Profile.from_params(1.3, 0.7, 0.9)
    rng = np.random.default_rng(17)
    w = p.half_width
    eta = np.concatenate([rng.normal(scale=2.0 * w, size=4000),
                          [np.nan, np.inf, -np.inf, 0.0, -0.0, w, -w, np.nextafter(w, 0.0),
                           np.nextafter(w, 2.0 * w), 5e-324]])
    rad = p.beta * p.alpha**2 - eta**2
    with np.errstate(invalid="ignore"):
        expected = np.where(rad >= 0.0, np.sqrt(np.maximum(rad, 0.0) / p.beta), 0.0)
    assert p.eval_f(eta).tobytes() == expected.tobytes()
    assert [p.eval_f(float(e)) for e in eta[-10:]] == expected[-10:].tolist()
    assert type(p.eval_f(np.array(0.2))) is float and p.eval_f(np.array(0.2)) == p.eval_f(0.2)
    tracemalloc.start()
    try:
        p.eval_f(eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * eta.nbytes


def test_profile_meets_mpmath_on_a_seeded_lattice():
    # The closed-form audit of the shape: alpha and beta log-uniform in [1e-8, 1e8], eta up
    # to and past the support edge, against 30-digit mpmath.  Bounds, with eps = 2**-52:
    # half_width 2 ulp and mass_eta 4 ulp (measured 0.85 and 1.19 here); f within
    # 2*eps*alpha**2/max(f*, sqrt(eps)*alpha), the rounding of the radicand beta*alpha**2 - eta**2
    # carried through the square root, which is absolute at the edge (the worst of these 9600
    # points reads 0.95 of it without the factor 2, and 1.01 on another seed).
    import mpmath

    rng = np.random.default_rng(37)
    eps, checked = 2.0**-52, 0
    with mpmath.workdps(30):
        for _ in range(240):
            alpha, beta = (float(x) for x in 10.0 ** rng.uniform(-8.0, 8.0, 2))
            prof = Profile(alpha=alpha, beta=beta)
            w = prof.half_width
            mp_alpha, mp_beta = mpmath.mpf(alpha), mpmath.mpf(beta)
            width = mpmath.sqrt(mp_beta) * mp_alpha
            assert abs(w - width) <= 2 * eps * width
            mass = mpmath.pi / 2 * mpmath.sqrt(mp_beta) * mp_alpha**2
            assert abs(prof.mass_eta() - mass) <= 4 * eps * mass
            edge = 1.0 + rng.choice((-1.0, 1.0), 12) * 10.0 ** rng.uniform(-16.0, -1.0, 12)
            eta = w * np.concatenate((rng.uniform(0.0, 1.5, 22), edge, [0.0, 1.0, 2.0]))
            eta = np.concatenate((eta, [math.nextafter(w, 0.0), w, math.nextafter(w, math.inf)]))
            eta[::2] *= -1.0
            for e, got in zip(eta.tolist(), prof.eval_f(eta).tolist()):
                radicand = mp_beta * mp_alpha**2 - mpmath.mpf(e) ** 2
                exact = mpmath.sqrt(radicand / mp_beta) if radicand > 0 else mpmath.mpf(0)
                assert abs(got - exact) <= 2 * eps * alpha**2 / max(exact, math.sqrt(eps) * alpha), (alpha, beta, e)
                checked += 1
    assert checked == 240 * 40
