"""Reference values the benchmark computes without the videstep package.

Everything here is written from the equations, not from videstep's code:

- the closed-form solution of the test equation
  y' = lam*(y - 1) + gam*int_0^x y dt, y(0) = 2;
- the explicit and implicit Euler-trapezium schemes for that equation and
  for the cubic kernel y' = -y - int_0^x y(t)**3 dt. Both kernels ignore
  the outer abscissa, so the trapezium memory term is kept as a running
  sum and each run is O(n);
- one-step local errors from exact history;
- an ODE-solver truth for the cubic kernel: with z = int_0^x y**3 dt the
  equation is the system y' = -y - z, z' = y**3, z(0) = 0, which
  scipy.integrate.solve_ivp integrates to tight tolerances. SciPy is
  imported only inside the functions that need it, so the timed worker
  process never loads it.

All runs start at x0 = 0 on the nodes x_i = i*h.
"""

from __future__ import annotations

import math

import numpy as np

TEST_EQUATION_Y0 = 2.0


def test_equation_exact(lam: float, gam: float):
    """Closed-form y(x) of the test equation; accepts scalars and arrays.

    With d = lam**2 + 4*gam, the roots of m**2 - lam*m - gam give
    exp(m1*x) + exp(m2*x) for d >= 0 and a damped cosine for d < 0.
    """
    d = lam * lam + 4.0 * gam
    if d >= 0.0:
        m1 = 0.5 * (lam - math.sqrt(d))
        m2 = 0.5 * (lam + math.sqrt(d))
        return lambda x: np.exp(m1 * x) + np.exp(m2 * x)
    omega = 0.5 * math.sqrt(-d)
    return lambda x: 2.0 * np.exp(0.5 * lam * x) * np.cos(omega * x)


def nodes(h: float, n: int) -> np.ndarray:
    return h * np.arange(n + 1)


def linear_trajectory(lam: float, gam: float, h: float, n: int,
                      implicit: bool) -> np.ndarray:
    """Euler-trapezium run of the test equation, with a running memory sum.

    explicit: w_{i+1} = w_i + h*lam*(w_i - 1) + (h**2/2)*gam*(2*P_i - w_0 - w_i)
    implicit: w_{i+1} = (w_i + (h**2/2)*gam*(2*P_i - w_0) - h*lam)
                        / (1 - h*lam - (h**2/2)*gam)
    where P_i = w_0 + ... + w_i. The implicit step is linear in w_{i+1},
    so it is solved in closed form.
    """
    half_h2 = 0.5 * h * h
    w = np.empty(n + 1)
    w[0] = TEST_EQUATION_Y0
    total = w[0]
    denominator = 1.0 - h * lam - half_h2 * gam
    for i in range(n):
        if implicit:
            known = w[i] + half_h2 * gam * (2.0 * total - w[0])
            w[i + 1] = (known - h * lam) / denominator
        else:
            memory = half_h2 * gam * (2.0 * total - w[0] - w[i])
            w[i + 1] = w[i] + h * lam * (w[i] - 1.0) + memory
        total += w[i + 1]
    return w


def linear_direct_local_errors(lam: float, gam: float, h: float, n: int,
                               implicit: bool) -> np.ndarray:
    """eps_{i+1} = (one step from the exact history y_0..y_i) - y_{i+1}; eps_0 = 0."""
    y = test_equation_exact(lam, gam)(nodes(h, n))
    half_h2 = 0.5 * h * h
    prefix = np.cumsum(y)[:-1]
    y_i = y[:-1]
    if implicit:
        known = y_i + half_h2 * gam * (2.0 * prefix - y[0])
        predicted = (known - h * lam) / (1.0 - h * lam - half_h2 * gam)
    else:
        predicted = (y_i + h * lam * (y_i - 1.0)
                     + half_h2 * gam * (2.0 * prefix - y[0] - y_i))
    return np.concatenate(([0.0], predicted - y[1:]))


def cubic_explicit_endpoint(y0: float, x_d: float, h: float) -> float:
    """w(x_d) of the explicit Euler-trapezium run of the cubic kernel problem."""
    n = int(round(x_d / h))
    half_h2 = 0.5 * h * h
    w = y0
    k0 = -(y0 * y0 * y0)
    total = k0
    for _ in range(n):
        k = -(w * w * w)
        w = w - h * w + half_h2 * (2.0 * total - k0 - k)
        total += -(w * w * w)
    return w


def cubic_truth(y0: float, x_d: float) -> float:
    """y(x_d) for y' = -y - int y**3, from the ODE system (y, z)."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda x, u: (-u[0] - u[1], u[0] ** 3), (0.0, x_d),
                    (y0, 0.0), method="DOP853", rtol=1e-13, atol=1e-15)
    if not sol.success:
        raise RuntimeError(f"truth solver failed: {sol.message}")
    return float(sol.y[0, -1])


def test_equation_truth(lam: float, gam: float, xs) -> np.ndarray:
    """y(xs) of the test equation from the same ODE-system route as
    cubic_truth (z = int y, so z' = y); used to check the truth solver
    against the closed form."""
    from scipy.integrate import solve_ivp

    xs = np.asarray(xs, dtype=float)
    sol = solve_ivp(lambda x, u: (lam * (u[0] - 1.0) + gam * u[1], u[0]),
                    (0.0, float(xs[-1])), (TEST_EQUATION_Y0, 0.0),
                    method="DOP853", rtol=1e-13, atol=1e-15, t_eval=xs)
    if not sol.success:
        raise RuntimeError(f"truth solver failed: {sol.message}")
    return sol.y[0]
