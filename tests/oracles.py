"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths:
fixed-step RK4 loops, plain quadrature rules and a table-driven DOP853
step only.  The one exception is ``LandingSampler``, the reference for
``RunSampler``: it reads a solver run through the library's public
``step``, ``cfl_dt`` and ``trig_interp`` and keeps nothing it derives.
``blowup_record_fields`` reads no library code: it is the former
derivation of a blowup run's result fields from its record rows.
``touchdown_time_mpmath`` is the touchdown time at 30 digits, by
``mpmath.quad`` of the energy integral.
"""

import math

import numpy as np

from dp2.pdesolver import DEFECT_TOL, cfl_dt, step, trig_interp


def rk4_scale_factor(xi, kappa, mu, a0, a1, s_end, n_steps):
    """Fixed-step RK4 for the scale-factor ODE a'' = xi/(mu*a**kappa)."""
    h = s_end / n_steps
    a, ad = a0, a1
    acc = lambda a: xi / (mu * a**kappa)
    for _ in range(n_steps):
        k1a, k1d = ad, acc(a)
        k2a, k2d = ad + 0.5 * h * k1d, acc(a + 0.5 * h * k1a)
        k3a, k3d = ad + 0.5 * h * k2d, acc(a + 0.5 * h * k2a)
        k4a, k4d = ad + h * k3d, acc(a + h * k3a)
        a += h * (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0
        ad += h * (k1d + 2 * k2d + 2 * k3d + k4d) / 6.0
    return a, ad


def dop853_step(force, a, a_dot, f, h):
    """One DOP853 step of a'' = force(a), driven by scipy's coefficient tables.

    Same contract as ``emden._dop853_step``: (a, a') after a step of length h
    from (a, a') with a'' = f there, then the error estimates (e3_a, e5_a,
    e3_adot, e5_adot) before the factor h.  Every sum takes the nonzero
    entries of its row of A, B, E3 or E5 and adds them in ascending j.
    """
    from scipy.integrate._ivp import dop853_coefficients as tables

    def dot(row, xs):
        terms = [c * x for c, x in zip(row.tolist(), xs) if c]
        total = terms[0]
        for term in terms[1:]:
            total += term
        return total

    vs, fs = [a_dot], [f]  # the stages' a' and a''
    for i in range(1, tables.N_STAGES):
        vs.append(a_dot + dot(tables.A[i, :i], fs) * h)
        fs.append(force(a + dot(tables.A[i, :i], vs) * h))
    return (a + h * dot(tables.B, vs), a_dot + h * dot(tables.B, fs),
            dot(tables.E3, vs), dot(tables.E5, vs), dot(tables.E3, fs), dot(tables.E5, fs))


def touchdown_time_mpmath(xi, kappa, mu, a0, a1, dps=30):
    """Touchdown time S of a'' = xi/(mu*a**kappa), xi < 0, by mpmath.quad at dps digits.

    S = integral of da/|a'| with a'^2 = v_top^2 + c*G(y), c = 2|xi|/mu,
    G(y) the integral of s^-kappa over [top - y, top] and y = top - a the
    depth below the start (a1 <= 0, v_top = a1) or below the turning point
    a_t (a1 > 0, v_top = 0; the rise from a0 to a_t takes as long as the
    fall back).  G is formed from y/top with log1p and expm1, so the depths
    near the top, where the integrand is largest, keep all their digits.
    """
    import mpmath

    with mpmath.workdps(dps):
        xi, kappa, mu, a0, a1 = (mpmath.mpf(x) for x in (xi, kappa, mu, a0, a1))
        c, om = -2 * xi / mu, 1 - kappa

        def speed2(y, top, v2):
            ell = mpmath.log1p(-y / top)
            return v2 + c * (-ell if om == 0 else top**om * -mpmath.expm1(om * ell) / om)

        if a1 <= 0:
            # the integrand turns from |a1|- to pull-dominated at this depth
            knee = min(a0 / 2, a1**2 * a0**kappa / c) if a1 else a0 / 2
            return float(mpmath.quad(lambda y: 1 / mpmath.sqrt(speed2(y, a0, a1**2)), [0, knee, a0]))
        a_t = a0 * mpmath.exp(a1**2 / c) if om == 0 else (a0**om + om * a1**2 / c) ** (1 / om)
        f = lambda y: 1 / mpmath.sqrt(speed2(y, a_t, 0))
        return float(2 * mpmath.quad(f, [0, a_t - a0]) + mpmath.quad(f, [a_t - a0, a_t]))


def quadrature_mass(beta, alpha, n=20001):
    """Trapezoid mass of the stored shape after eta = sqrt(beta)*alpha*sin(theta)."""
    c = math.sqrt(beta) * alpha
    theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n)
    integrand = c**2 * np.cos(theta) ** 2 / math.sqrt(beta)
    return float(np.trapezoid(integrand, theta))


def spatial_mass(sol, t, n=4001):
    """Mass of rho(t, .) by edge-desingularised trapezoid over the support."""
    width = sol.support_halfwidth(t)
    theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n)
    xs = width * np.sin(theta)
    rho, _ = sol.evaluate(t, xs)
    return float(np.trapezoid(rho * width * np.cos(theta), theta))


class LandingSampler:
    """(t, x) sampler over one solver run that recomputes every read.

    The run is the CFL lattice from state0, steps of cfl_dt, extended
    until its next step would pass t; the state at t is the lattice's
    last state at or before t advanced by one step of length t - base.t,
    taken afresh on each query, and rho and u come from one public
    trig_interp call, which transforms that state again every time.
    RunSampler must give the same bits.
    """

    def __init__(self, state0):
        self.run = [state0]

    def __call__(self, t, xs):
        run = self.run
        while run[-1].t + (dt := cfl_dt(run[-1])) <= t + 1e-15:
            run.append(step(run[-1], dt))
        base = [state for state in run if state.t <= t + 1e-15][-1]
        landed = base if base.t >= t - 1e-15 else step(base, t - base.t)
        rho, u = trig_interp(landed.grid, landed.rows[:2], xs)
        return rho, u


def blowup_record_fields(rows, threshold, fine_n):
    """A blowup run's result fields from its (t, n, min_ux, max_rho, parity, D) rows.

    The derivation run_blowup_experiment made by unzipping a list of
    tuples, kept as it was: times, min_ux and max_rho as arrays, the
    crossing as the last row's t when its min_ux is below the threshold,
    the largest parity, the (t, n) rows where n changes (the first
    included) and the first t on grid fine_n whose D exceeds DEFECT_TOL.
    """
    times, grid_n, min_ux, max_rho, parity, defect = zip(*rows)
    return dict(
        times=np.asarray(times),
        min_ux=np.asarray(min_ux),
        max_rho=np.asarray(max_rho),
        crossing_time=times[-1] if min_ux[-1] < threshold else None,
        parity_residual_max=max(parity),
        refinements=tuple((t, n) for t, n, m in zip(times, grid_n, (0,) + grid_n) if n != m),
        resolved_until=next(
            (t for t, n, d in zip(times, grid_n, defect) if d > DEFECT_TOL and n == fine_n), None
        ),
    )
