import sys

import numpy as np
import pytest

import laglab.torus
import laglab.validation
from laglab.ambient import AlmostCYModel
from laglab.lagrangian import build
from laglab.torus import PeriodicGrid, constant_field, field_from_function


@pytest.fixture(scope="session")
def grid64():
    return PeriodicGrid(2, 64)


@pytest.fixture(scope="session")
def flat_model():
    return AlmostCYModel(2)


@pytest.fixture(scope="session")
def twisted_model():
    return AlmostCYModel(2, twist_amplitude=0.1, twist_mode=1)


@pytest.fixture(scope="session")
def flat_zero(flat_model, grid64):
    return build(flat_model, constant_field(grid64))


@pytest.fixture(scope="session")
def twisted_zero(twisted_model, grid64):
    return build(twisted_model, constant_field(grid64))


@pytest.fixture(scope="session")
def generic_potential(grid64):
    return field_from_function(grid64, lambda c: 0.2 * np.cos(c[..., 0] + c[..., 1]))


@pytest.fixture(scope="session")
def flat_generic(flat_model, generic_potential):
    return build(flat_model, generic_potential)


@pytest.fixture(scope="session")
def twisted_generic(twisted_model, generic_potential):
    return build(twisted_model, generic_potential)


@pytest.fixture
def warm_twisted_generic(twisted_generic):
    """``twisted_generic`` with its lazily cached fields filled; request it
    before ``transform_calls`` so the count sees only per-call work."""
    twisted_generic.grad_rho, twisted_generic.grad_theta, twisted_generic.christoffels
    return twisted_generic


@pytest.fixture
def transform_calls(monkeypatch):
    """Names of the ``torus.gradient_values`` and ``torus.hessian_values``
    calls made while the test runs, one per call.  A Hessian taken from a
    given gradient (``grad=``) is recorded as ``hessian_values`` and a
    Hessian that differentiates its field again as ``hessian_values!``, so
    a count shows whether each function is differentiated once.  Every
    loaded ``laglab`` module that imported one of them by name is patched,
    so no caller escapes the count."""
    calls = []
    for name in ("gradient_values", "hessian_values"):
        original = getattr(laglab.torus, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            again = _name == "hessian_values" and kwargs.get("grad") is None
            calls.append(_name + "!" if again else _name)
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "laglab" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def per_component_derivative(grid, values, axes):
    """d/dx_a (one axis) or d^2/dx_a dx_b (two) of one field by a transform
    pair of its own: rfftn, times i*k per axis (Nyquist mode zeroed), irfftn."""
    spec = np.fft.rfftn(values, axes=tuple(range(grid.n)))
    mult = 1
    for axis in axes:
        full = axis < grid.n - 1
        k = (np.fft.fftfreq if full else np.fft.rfftfreq)(grid.points, d=1.0 / grid.points)
        k[grid.points // 2] = 0.0
        shape = [1] * grid.n
        shape[axis] = k.size
        mult = mult * (1j * (2.0 * np.pi / grid.period) * k).reshape(shape)
    return np.fft.irfftn(spec * mult, s=grid.shape, axes=tuple(range(grid.n)))


@pytest.fixture
def small_counts(monkeypatch):
    """The battery's eight sample counts, cut for a quick run that still
    draws at every row.  No config sets them; the suites read the module
    constants when they run, so a test may set one again on top of these."""
    counts = {"QUADRUPLES": 2, "FD_TRIPLES": 1, "SECTIONAL_SAMPLES": 8,
              "MIRROR_SAMPLES": 5, "RHO_POINTS": 60, "GEODESIC_STEPS": 25,
              "MIRROR_FAMILIES": 3, "DIMENSION_ONE_TRIPLES": 1}
    for name, value in counts.items():
        monkeypatch.setattr(laglab.validation, name, value)
