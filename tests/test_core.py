import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from videstep import (
    MAX_STEPS,
    Mesh,
    Method,
    NonPositiveStep,
    NonTilingStep,
    StepDiagnostics,
    TooManySteps,
    VideProblem,
    direct_local_errors,
    integrate,
    make_mesh,
    pure_ode,
)


def test_make_mesh_counts_steps():
    mesh = make_mesh(0.0, 5.0, 5e-3)
    assert mesh.n_steps == 1000
    assert mesh.x0 == 0.0
    assert mesh.xf == 5.0


def test_make_mesh_accepts_inexact_tiling():
    # 0.1 is not representable in binary; the relative tolerance must absorb it
    mesh = make_mesh(0.0, 1.0, 0.1)
    assert mesh.n_steps == 10


def test_make_mesh_shifted_origin():
    mesh = make_mesh(1.0, 3.0, 0.25)
    assert mesh.n_steps == 8
    assert mesh.nodes()[0] == 1.0
    assert mesh.nodes()[8] == pytest.approx(3.0)


@pytest.mark.parametrize("h", [0.0, -0.1])
def test_make_mesh_rejects_nonpositive_step(h):
    with pytest.raises(NonPositiveStep):
        make_mesh(0.0, 1.0, h)


@pytest.mark.parametrize("x0,xf", [(1.0, 1.0), (2.0, 1.0)])
def test_make_mesh_rejects_empty_interval(x0, xf):
    with pytest.raises(NonPositiveStep):
        make_mesh(x0, xf, 0.1)


@pytest.mark.parametrize("x0,xf,h,error", [
    (0.0, 1.0, math.nan, NonPositiveStep),
    (0.0, 1.0, math.inf, NonPositiveStep),
    (0.0, 1.0, -math.inf, NonPositiveStep),
    (math.nan, 1.0, 0.1, NonPositiveStep),
    (0.0, math.nan, 0.1, NonPositiveStep),
    (-math.inf, 1.0, 0.1, NonTilingStep),
    (0.0, math.inf, 0.1, NonTilingStep),
    (0.0, 1.0, 5e-324, NonTilingStep),  # (xf - x0)/h overflows
    (-1e308, 1e308, 1.0, NonTilingStep),  # so does xf - x0
])
def test_make_mesh_rejects_nonfinite_input(x0, xf, h, error):
    with pytest.raises(error):
        make_mesh(x0, xf, h)


def test_make_mesh_rejects_nontiling_step():
    with pytest.raises(NonTilingStep):
        make_mesh(0.0, 1.0, 0.3)


def test_make_mesh_rejects_step_larger_than_interval():
    with pytest.raises(NonTilingStep):
        make_mesh(0.0, 1.0, 3.0)


def test_make_mesh_caps_step_count():
    assert make_mesh(0.0, 1.0, 1.0 / MAX_STEPS).n_steps == MAX_STEPS
    with pytest.raises(TooManySteps):
        make_mesh(0.0, 1.0, 1e-12)


@pytest.mark.parametrize("run", [
    lambda mesh: integrate(pure_ode(), mesh, Method.EXPLICIT),
    lambda mesh: direct_local_errors(pure_ode(), mesh, Method.IMPLICIT),
], ids=["integrate", "direct_local_errors"])
def test_directly_built_mesh_is_capped_before_allocating(run):
    # 1e12 steps would need 8 TB per array; the cap must trip first
    mesh = Mesh(x0=0.0, xf=1.0, h=1e-12, n_steps=10**12)
    tracemalloc.start()
    try:
        with pytest.raises(TooManySteps):
            run(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_nodes_are_multiplicative_not_cumulative():
    # x_i = x0 + i*h exactly; repeated addition of 0.1 would drift
    mesh = make_mesh(0.0, 100.0, 0.1)
    nodes = mesh.nodes()
    assert nodes.size == 1001
    assert nodes[-1] == pytest.approx(100.0, abs=1e-12)
    i = 700
    assert nodes[i] == 0.0 + i * 0.1


def test_mesh_is_frozen():
    mesh = make_mesh(0.0, 1.0, 0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.h = 0.2


def test_problem_is_frozen():
    problem = VideProblem(f=lambda x, y: -y, kernel=lambda x, y, t: 0.0, y0=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.y0 = 2.0
    assert problem.f_y is None
    assert problem.exact is None


def test_method_enum_values():
    assert Method.EXPLICIT.value == "explicit"
    assert Method.IMPLICIT.value == "implicit"
    assert Method("implicit") is Method.IMPLICIT


def test_step_diagnostics_fields():
    diag = StepDiagnostics(iterations=2, last_residual=1e-15)
    assert diag.iterations == 2
    assert diag.last_residual == 1e-15


def test_step_cap_names_any_count_in_exponent_form():
    # 2e323 steps of h = 5e-324 tile [0, 1]: a count above the largest
    # float, still refused as TooManySteps and printed in exponent form
    mesh = Mesh(x0=0.0, xf=1.0, h=5e-324, n_steps=2 * 10**323)
    with pytest.raises(TooManySteps, match=r"^2\.000e\+323 steps exceed the cap of 10000000$"):
        integrate(pure_ode(), mesh, Method.EXPLICIT)
