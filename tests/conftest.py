import pytest

from videstep import (
    FIGURES,
    error_analysis,
    Method,
    TestEquationParams,
    make_mesh,
    run_experiment,
    steppers,
    test_equation,
    test_equation_exact,
)

# library symbols, not test cases, despite their names
TestEquationParams.__test__ = False
test_equation.__test__ = False
test_equation_exact.__test__ = False


@pytest.fixture
def oscillatory_params():
    # complex-discriminant branch: d = 1 - 8 < 0
    return TestEquationParams(lam=-1.0, gamma=-2.0)


@pytest.fixture
def oscillatory_problem(oscillatory_params):
    return test_equation(oscillatory_params)


@pytest.fixture
def stiff_params():
    return TestEquationParams(lam=-100.0, gamma=-200.0)


@pytest.fixture
def growing_params():
    # real-discriminant branch: d = 1 + 8 > 0
    return TestEquationParams(lam=1.0, gamma=2.0)


@pytest.fixture
def short_mesh():
    return make_mesh(0.0, 1.0, 0.1)


def _figure_run(figure_id):
    options = FIGURES[figure_id].options
    return (test_equation(TestEquationParams(lam=options["lambda"], gamma=options["gamma"])),
            make_mesh(options["x0"], options["xf"], options["h"]),
            Method(options["method"]))


@pytest.fixture
def figure_run():
    """Problem, mesh and method of figure k, built from its preset."""
    return _figure_run


@pytest.fixture
def figure_table():
    """The table of figure k through run_experiment, built from its preset."""
    return lambda figure_id: run_experiment(FIGURES[figure_id].columns,
                                            *_figure_run(figure_id))


@pytest.fixture
def march_calls(monkeypatch):
    """The mesh of every run (steppers._march) and every seeded pass
    (seeded_steps, as steppers and error_analysis hold it) made during the
    test."""
    meshes = []

    def counting(fn):
        def counted(problem, mesh, *rest):
            meshes.append(mesh)
            return fn(problem, mesh, *rest)
        return counted

    monkeypatch.setattr(steppers, "_march", counting(steppers._march))
    seeded = counting(steppers.seeded_steps)
    for module in (steppers, error_analysis):
        monkeypatch.setattr(module, "seeded_steps", seeded)
    return meshes
