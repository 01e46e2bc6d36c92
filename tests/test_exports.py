"""Every exported name exists, and the package imports only exported names,
so a deletion cannot leave a stale export behind."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import fidur

MODULES = [m.name for m in pkgutil.iter_modules(fidur.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"fidur.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_the_package_imports_only_exported_names():
    tree = ast.parse(pathlib.Path(fidur.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, node.module
        module = importlib.import_module(f"fidur.{node.module}")
        # A module without __all__ exports its public names.
        exported = getattr(module, "__all__", [n for n in dir(module) if not n.startswith("_")])
        unexported = [a.name for a in node.names if a.name not in exported]
        assert not unexported, node.module


def _tracer_constant(name: str):
    """The literal assigned to ``name`` in perfbench/tracing.py, read with ast
    so that the benchmark harness is neither imported nor run."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


@pytest.mark.parametrize("module, attr", _tracer_constant("TRACED"))
def test_every_traced_function_still_exists(module, attr):
    """``perfbench/run.py --trace 1`` wraps each of these by name, so
    removing or renaming one breaks the traced benchmark run."""
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("cls", _tracer_constant("VALIDATED"))
def test_every_traced_constructor_defines_its_own_post_init(cls):
    """``perfbench/run.py --trace 1`` wraps ``cls.__dict__["__post_init__"]``,
    so the method must stay on each class, not move to a shared base."""
    assert "__post_init__" in vars(getattr(importlib.import_module("fidur.states"), cls))


def test_readme_library_quick_start_verbatim(capsys):
    """The README's library quick start as written, and the values it prints."""
    import numpy as np
    from fidur import (
        DensityMatrix, MetricKind, check_ur, computational_observable,
        fidelity, fourier_observable, metric_distance,
    )

    rho = DensityMatrix(np.diag([0.6, 0.4]))
    sigma = DensityMatrix(np.diag([0.5, 0.5]))
    print(fidelity(rho, sigma))                              # 0.9898979485566358
    print(metric_distance(MetricKind.ANGLE, rho, sigma))     # arccos(sqrt(F))

    a = computational_observable(2)
    b = fourier_observable(2)
    report = check_ur(MetricKind.ANGLE, a, b, DensityMatrix(np.diag([1.0, 0.0])))
    print(report.slack)                                      # 0.0 (tight instance)
    print(report.to_json())
    assert capsys.readouterr().out == (
        "0.9898979485566358\n"
        "0.10067896039516439\n"
        "0.0\n"
        '{"bound": 0.7853981633974484, "overlap_c": 0.7071067811865475, "p_max_a": 1.0, '
        '"p_max_b": 0.4999999999999999, "slack": 0.0, "u_a": 0.0, "u_b": 0.7853981633974484}\n'
    )
