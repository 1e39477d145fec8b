import dataclasses
import json
import sys

import numpy as np
import pytest

import laglab.cli
import laglab.curvature
import laglab.torus
import laglab.validation
from laglab.connection import HamiltonianFamily, cov_deriv_pair_values, w_field_values
from laglab.errors import DegeneratePlane
from laglab.lagrangian import build
from laglab.torus import ScalarField, field_from_function, gradient_values, sample
from laglab.validation import (
    RICHARDSON_FLOOR,
    CheckResult,
    SUITES,
    SuiteConfig,
    _random_field,
    _richardson,
    _result,
    _second_cov_deriv_fd,
    _suite_model_consistency,
    _suite_pairing,
    _suite_sectional_nonpositive,
    _nonpositive,
    _suite_tensor_structure,
    _worst,
    check_dijk_zero_section,
    check_dtheta,
    check_metric_compat,
    check_r3_r4_pairing,
    check_r3_vs_fd,
    check_torsion_free,
    random_trig_polynomial,
    run_suite,
    standard_base_points,
)

# Small but fully exercising configuration, to keep the test suite quick:
# every test here runs the battery at the ``small_counts`` fixture's sample
# counts; the acceptance module runs the full counts.
SMALL = SuiteConfig(grid_points=32, seed=11)
pytestmark = pytest.mark.usefixtures("small_counts")


def test_random_trig_polynomial_band_and_amplitude():
    rng = np.random.default_rng(0)
    for _ in range(20):
        poly = random_trig_polynomial(rng, 2)
        assert max(abs(k) for t in poly.terms for k in t.wavevector) <= 3
        assert sum(abs(t.coefficient) for t in poly.terms) == pytest.approx(0.2)
    # determinism
    a = random_trig_polynomial(np.random.default_rng(5), 2)
    b = random_trig_polynomial(np.random.default_rng(5), 2)
    assert a == b


def test_standard_base_points():
    bases = dict(standard_base_points(32))
    assert set(bases) == {"flat_zero", "twisted_zero", "flat_generic", "twisted_generic"}
    assert bases["flat_zero"].margin == 1.0
    assert bases["twisted_generic"].margin > 0.5
    line = dict(standard_base_points(32, n=1))
    assert set(line) == set(bases)
    assert all(gamma.grid.n == 1 for gamma in line.values())


def test_check_dtheta_requires_zero_section(twisted_generic, grid64):
    h = field_from_function(grid64, lambda c: np.cos(c[..., 0]))
    with pytest.raises(ValueError):
        check_dtheta(twisted_generic, h)


def test_check_dtheta_flat(flat_zero, grid64):
    h = field_from_function(grid64, lambda c: np.cos(c[..., 0]))
    res = check_dtheta(flat_zero, h)
    assert res.passed
    assert res.error_abs < 1e-6
    assert "richardson_ratio" in res.params
    assert 3.5 <= res.params["richardson_ratio"] <= 4.5


def test_check_dtheta_twisted_rho_term(twisted_zero, grid64):
    h = field_from_function(grid64, lambda c: np.cos(c[..., 0]))
    res = check_dtheta(twisted_zero, h)
    assert res.passed
    # the conformal-factor term is genuinely nonzero for the x1 mode
    assert res.params["rho_term_sup"] >= 1e-3


def test_check_metric_compat(twisted_model, generic_potential, grid64):
    rng = np.random.default_rng(3)
    family = HamiltonianFamily(
        twisted_model, generic_potential,
        (sample(random_trig_polynomial(rng, 2), grid64),),
    )
    h = sample(random_trig_polynomial(rng, 2), grid64)
    k = sample(random_trig_polynomial(rng, 2), grid64)
    res = check_metric_compat(family, h, k)
    assert res.passed
    assert res.error_abs < 1e-5


def test_check_torsion_free(twisted_model, generic_potential, grid64):
    rng = np.random.default_rng(4)
    family = HamiltonianFamily(
        twisted_model, generic_potential,
        (sample(random_trig_polynomial(rng, 2), grid64),
         sample(random_trig_polynomial(rng, 2), grid64)),
    )
    res = check_torsion_free(family, (0.02, -0.01))
    assert res.passed
    assert res.error_abs < 1e-9


def test_check_r3_vs_fd(twisted_generic, grid64):
    rng = np.random.default_rng(5)
    h = sample(random_trig_polynomial(rng, 2), grid64)
    k = sample(random_trig_polynomial(rng, 2), grid64)
    l = sample(random_trig_polynomial(rng, 2), grid64)
    res = check_r3_vs_fd(twisted_generic, h, k, l)
    assert res.passed
    assert res.error_abs < 1e-4
    assert 3.5 <= res.params["richardson_ratio"] <= 4.5


def test_check_r3_r4_pairing(flat_generic, grid64):
    rng = np.random.default_rng(6)
    fields = [
        flat_generic.normalize_values(sample(random_trig_polynomial(rng, 2), grid64).values)
        for _ in range(4)
    ]
    res = check_r3_r4_pairing(flat_generic, *fields)
    assert res.passed
    assert res.error_rel < 1e-6


def test_check_dijk_zero_section(flat_zero, twisted_zero, grid64):
    cos1 = field_from_function(grid64, lambda c: np.cos(c[..., 0]))
    cos2 = field_from_function(grid64, lambda c: np.cos(c[..., 1]))
    res = check_dijk_zero_section(flat_zero, cos1, cos2, cos2)
    assert res.passed
    with pytest.raises(ValueError):
        check_dijk_zero_section(twisted_zero, cos1, cos2, cos2)


def test_run_suite_small_passes():
    report = run_suite(SMALL)
    failures = [r.name for r in report.results if not r.passed]
    assert report.all_passed, f"failed: {failures}"


def test_run_suite_deterministic():
    a = run_suite(SMALL)
    b = run_suite(SMALL)
    assert a.to_dict() == b.to_dict()


def test_run_suite_seed_changes_draws():
    """The seed reaches the stream of every suite that draws."""
    a = {r.name: r for r in run_suite(SMALL).results}
    b = {r.name: r for r in run_suite(dataclasses.replace(SMALL, seed=12)).results}
    drawing = [
        "r3_r4_pairing[flat_zero]", "r3_vs_fd[flat_zero]", "metric_compat[twisted]",
        "sectional_nonpositive", "dimension_one", "mean_zero_residual",
        "mirror_nonpositive", "mirror_sign_consistency",
    ]
    for name in drawing:
        assert a[name] != b[name], name


def _row_bytes(cfg: SuiteConfig) -> dict[str, str]:
    return {r.name: json.dumps(r.to_dict(), sort_keys=True) for r in run_suite(cfg).results}


def test_suite_table_rows_are_independent(monkeypatch):
    """Removing a suite, appending one, or making one draw more leaves every
    other row's canonical bytes as they were."""
    keys = [key for key, _ in SUITES]
    assert len(set(keys)) == len(keys) and all(type(key) is int for key in keys)
    before = _row_bytes(SMALL)

    def appended(cfg, bases, rng):
        value = float(rng.uniform())
        return [CheckResult("appended", value, value, 1.0, "abs", True, {})]

    def draws_first(cfg, bases, rng):
        grid = bases["flat_zero"].grid
        _random_field(rng, grid)
        _random_field(rng, grid)
        return _suite_sectional_nonpositive(cfg, bases, rng)

    patches = [
        # (patched table, the rows of the patched suite)
        (tuple(row for row in SUITES if row[1] is not _suite_pairing),
         {name for name in before if name.startswith("r3_r4_pairing[")}),
        (SUITES + ((max(keys) + 1, appended),), {"appended"}),
        (tuple((key, draws_first if suite is _suite_sectional_nonpositive else suite)
               for key, suite in SUITES), {"sectional_nonpositive"}),
    ]
    for table, own in patches:
        monkeypatch.setattr(laglab.validation, "SUITES", table)
        after = _row_bytes(SMALL)
        others = set(before) - own
        assert set(after) - own == others
        assert {n: after[n] for n in others} == {n: before[n] for n in others}
    # The wrapped suite's own row reports a maximum sectional curvature of
    # its draws, which moves at O(1) when the draws do.
    assert after["sectional_nonpositive"] != before["sectional_nonpositive"]


def test_pairing_reports_the_values_of_its_largest_trial(monkeypatch):
    """Error and pass flag come from the worst trial; lhs, rhs and
    integrand_scale from the trial with the largest integrand_scale."""
    monkeypatch.setattr(laglab.validation, "QUADRUPLES", 5)
    trials = []

    def recording(*args, **kwargs):
        trials.append(check_r3_r4_pairing(*args, **kwargs))
        return trials[-1]

    monkeypatch.setattr(laglab.validation, "check_r3_r4_pairing", recording)
    bases = dict(standard_base_points(SMALL.grid_points))
    results = _suite_pairing(SMALL, bases, np.random.default_rng(SMALL.seed))
    assert len(trials) == len(bases) * 5
    for i, result in enumerate(results):
        own = trials[i * 5:(i + 1) * 5]
        largest = max(own, key=lambda r: r.params["integrand_scale"])
        for key in ("lhs", "rhs", "integrand_scale"):
            assert result.params[key] == largest.params[key]
        assert result.error == max(r.error for r in own)
        assert result.passed == all(r.passed for r in own)


def test_zero_tolerance_fails_fd_checks(monkeypatch):
    for name in ("dtheta", "r3_vs_fd", "metric_compat"):
        monkeypatch.setitem(laglab.validation.DEFAULT_TOLERANCES, name, 0.0)
    report = run_suite(SMALL)
    assert not report.all_passed
    failed = {r.name.split("[")[0] for r in report.results if not r.passed}
    assert {"dtheta", "r3_vs_fd"} <= failed


def test_suite_report_serializable():
    report = run_suite(SMALL)
    doc = report.to_dict()
    import json

    payload = json.dumps(doc)
    assert "all_passed" in json.loads(payload)


BASES = ("flat_zero", "twisted_zero", "flat_generic", "twisted_generic")

BATTERY = [
    "sectional_spot",
    *(f"r3_r4_pairing[{b}]" for b in BASES),
    *(f"r3_vs_fd[{b}]" for b in BASES),
    "dtheta[flat_zero]",
    "dtheta[twisted_zero]",
    "metric_compat[flat]",
    "metric_compat[twisted]",
    *(name for b in BASES for name in (f"torsion_free[{b}]", f"torsion_free[{b},t!=0]")),
    "dijk_zero_section",
    "sectional_nonpositive",
    "flat_family[flat_zero]",
    "flat_family[twisted_zero]",
    "dimension_one",
    "geodesic_energy",
    "geodesic_reversal",
    *(f"geodesic_acceleration[{b}]" for b in BASES[1:]),
    "rho_consistency",
    "lagang_identity",
    "mean_zero_residual",
    "bianchi",
    "mirror_commuting",
    "mirror_nonpositive",
    "mirror_pauli_fd",
    "mirror_sign_consistency",
]


def test_battery_shape(monkeypatch):
    """The battery runs every check, in order, with its aggregate parameters."""
    report = run_suite(SMALL)
    assert len(BATTERY) == 39
    assert [r.name for r in report.results] == BATTERY
    # Each row is judged by its family's tolerance: the name up to any "[".
    for r in report.results:
        assert r.tolerance == laglab.validation.DEFAULT_TOLERANCES[r.name.split("[")[0]], r.name
    params = {r.name: r.params for r in report.results}
    for base in BASES:
        assert params[f"r3_r4_pairing[{base}]"]["quadruples"] == laglab.validation.QUADRUPLES
        fd = params[f"r3_vs_fd[{base}]"]
        assert fd["triples"] == laglab.validation.FD_TRIPLES
        low, high = fd["richardson_ratio_range"]
        assert low <= fd["richardson_ratio"] <= high
    assert params["dtheta[twisted_zero]"]["rho_term_sup"] >= 1e-3
    assert params["mirror_commuting"]["families"] == laglab.validation.MIRROR_FAMILIES == 3
    sign = params["mirror_sign_consistency"]
    assert sign["literal"] == -sign["corrected"]  # bit for bit
    assert "rho_term_sup" in params["dtheta[flat_zero]"]
    # rho_consistency reports the points it compared: RHO_POINTS // 6 per model.
    assert params["rho_consistency"]["points"] == laglab.validation.RHO_POINTS == 60
    bases = dict(standard_base_points(SMALL.grid_points))
    monkeypatch.setattr(laglab.validation, "RHO_POINTS", 1000)
    rho = _suite_model_consistency(SMALL, bases, np.random.default_rng(0))[0]
    assert rho.name == "rho_consistency" and rho.params["points"] == 996


def test_richardson_second_order_passes():
    params = {}
    err, ok = _richardson(lambda d: d**2, 1e-2, params)
    assert ok
    assert err == pytest.approx(1e-4)
    assert params["error_half_delta"] == pytest.approx(2.5e-5)
    assert params["richardson_ratio"] == pytest.approx(4.0)


def test_richardson_first_order_fails():
    params = {}
    err, ok = _richardson(lambda d: d, 1e-2, params)
    assert not ok
    assert err == pytest.approx(1e-2)
    assert params["richardson_ratio"] == pytest.approx(2.0)


def test_richardson_below_floor_is_not_judged():
    params = {}
    # First order, so the ratio would fail if it were judged.
    err, ok = _richardson(lambda d: RICHARDSON_FLOOR * d, 1.0, params)
    assert ok
    assert err == pytest.approx(RICHARDSON_FLOOR)
    assert params["error_half_delta"] == pytest.approx(0.5 * RICHARDSON_FLOOR)
    assert "richardson_ratio" not in params


def test_worst_fails_when_a_milder_trial_failed():
    # The family r3_vs_fd has the tolerance 1e-4.
    largest = _result("r3_vs_fd[flat_zero]", 1e-5, 1e-5, "abs", {"trial": 0})
    failed = _result("r3_vs_fd[flat_zero]", 1e-6, 1e-6, "abs", {"trial": 1}, extra_ok=False)
    assert largest.passed and not failed.passed
    assert largest.tolerance == 1e-4
    agg = _worst([largest, failed], count=2)
    assert agg.error_abs == 1e-5
    assert agg.params == {"trial": 0, "count": 2}
    assert not agg.passed
    assert _worst([largest, largest]).passed
    assert not _worst([largest], extra_ok=False).passed


@pytest.mark.parametrize(
    "change, named",
    [
        ({"grid_points": 12}, "grid_points"),
        ({"seed": -1}, "seed"),
        # Every field is an integer: a float or a bool is rejected, naming it.
        ({"grid_points": 32.0}, "grid_points"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": np.float64(3.0)}, "seed"),
        ({"grid_points": np.True_}, "grid_points"),
    ],
)
def test_suite_config_rejects(change, named):
    with pytest.raises(ValueError, match=named):
        dataclasses.replace(SMALL, **change)


@pytest.mark.parametrize("name", [
    "tolerances", "twist_amplitude", "geodesic_time", "quadruples", "fd_triples",
    "sectional_samples", "mirror_samples", "rho_points", "geodesic_steps",
])
def test_suite_config_sets_no_threshold(name):
    with pytest.raises(TypeError, match=name):
        SuiteConfig(**{name: 0.1})


def test_suite_config_takes_numpy_integers_as_python_ints():
    cfg = SuiteConfig(grid_points=np.int64(32), seed=np.uint8(3))
    assert (cfg.grid_points, cfg.seed) == (32, 3)
    assert all(type(getattr(cfg, f.name)) is int for f in dataclasses.fields(cfg))


def test_pairing_check_transform_count(warm_twisted_generic, transform_calls):
    """For the curvature field three gradients and two Hessians taken from
    them, and one gradient per function for the quadruple form, shared by
    its value and its L1 scale."""
    x = warm_twisted_generic.grid.coords
    f = [np.cos(x[..., 0] + 2 * x[..., 1] * i) for i in range(4)]
    assert check_r3_r4_pairing(warm_twisted_generic, *f).passed
    assert sorted(transform_calls) == ["gradient_values"] * 7 + ["hessian_values"] * 2


def test_tensor_structure_transform_count(warm_twisted_generic, transform_calls):
    """Three gradients and two Hessians taken from them for the mean-zero
    field, and four gradients for each of the three cyclic quadruple forms
    of the Bianchi check, each evaluated once."""
    results = _suite_tensor_structure(
        SuiteConfig(), {"twisted_generic": warm_twisted_generic}, np.random.default_rng(5)
    )
    assert [r.name for r in results] == ["mean_zero_residual", "bianchi"]
    assert all(r.passed for r in results)
    assert sorted(transform_calls) == ["gradient_values"] * (3 + 12) + ["hessian_values"] * 2


def second_cov_deriv_per_delta(gamma, hi, hj, hk, delta):
    """D_{h^i} D_{h^j} h^k with every term recomputed at this delta."""
    model, grid, phi = gamma.model, gamma.grid, gamma.phi.values
    plus = cov_deriv_pair_values(build(model, ScalarField(grid, phi + delta * hi)), hj, hk)
    minus = cov_deriv_pair_values(build(model, ScalarField(grid, phi - delta * hi)), hj, hk)
    center = cov_deriv_pair_values(gamma, hj, hk)
    w = w_field_values(gamma, hi)
    advect = np.einsum("...a,...a->...", w, gradient_values(grid, center))
    return (plus - minus) / (2.0 * delta) + advect


@pytest.mark.parametrize("name", ["flat_zero", "twisted_zero", "flat_generic", "twisted_generic"])
def test_second_cov_deriv_fd_reuses_only_delta_free_terms(name):
    gamma = dict(standard_base_points(32))[name]
    rng = np.random.default_rng(8)
    hi, hj, hk = (sample(random_trig_polynomial(rng, 2), gamma.grid).values for _ in range(3))
    grads = [gradient_values(gamma.grid, h) for h in (hi, hj, hk)]
    at = _second_cov_deriv_fd(gamma, hi, hj, hk, grads)
    for delta in (1e-3, 5e-4):
        assert np.array_equal(at(delta), second_cov_deriv_per_delta(gamma, hi, hj, hk, delta))


def test_r3_vs_fd_transform_count(warm_twisted_generic, grid64, monkeypatch):
    """At 64^2: 16 derivative fields for the curvature field; for each of the
    two Richardson steps, one gradient-and-Hessian build (5 derivative
    fields) of each of the 4 graphs at phi +- delta h^i; one gradient (2
    fields) of each of h, k and l, shared by both orderings of (h, k); and
    per ordering, the gradient of the centre D_{h^j} h^k.  A matmul that
    differentiates a stack counts each of its fields."""
    rng = np.random.default_rng(5)
    h, k, l = [sample(random_trig_polynomial(rng, 2), grid64) for _ in range(3)]
    fields = 0
    original = laglab.torus._differentiate

    def counting(grid, values, axis, out):
        nonlocal fields
        fields += out.size // grid.size
        return original(grid, values, axis, out)

    monkeypatch.setattr(laglab.torus, "_differentiate", counting)
    assert check_r3_vs_fd(warm_twisted_generic, h, k, l).passed
    assert fields == 66


def test_the_battery_guards_the_one_quadruple_form(tmp_path, monkeypatch):
    """With the value of ``curvature.quad_form`` negated in every laglab
    module that imported it, every r3_r4_pairing row fails and the
    curvature job's quad_r4 flips sign.  At seed 3 no trial's form is
    near 0 (some single trials at other seeds are, by orthogonality of
    their modes at the flat zero section)."""
    original = laglab.curvature.quad_form

    def negated(*args):
        value, scale = original(*args)
        return -value, scale

    monkeypatch.setattr(laglab.validation, "QUADRUPLES", 1)
    cfg = dataclasses.replace(SMALL, seed=3)
    bases = dict(standard_base_points(cfg.grid_points))
    config = {
        "job": "curvature",
        "model": {"n": 2, "twist_amplitude": 0.1},
        "grid": 32,
        "potential": [{"coefficient": 0.2, "wavevector": [1, 1]}],
        "functions": {"h": [{"coefficient": 1.0, "wavevector": [1, 0]}],
                      "k": [{"coefficient": 1.0, "wavevector": [0, 1]}]},
        "params": {"h": "h", "k": "k", "l": "k", "m": "h", "include_field": False},
    }
    path = tmp_path / "curvature.json"
    path.write_text(json.dumps(config))

    def run():
        rows = _suite_pairing(cfg, bases, np.random.default_rng([cfg.seed, 2]))
        out = tmp_path / "curvature_report.json"
        assert laglab.cli.main(["run", str(path), "-o", str(out)]) == 0
        return rows, json.loads(out.read_text())["results"]

    honest_rows, honest = run()
    assert [r.passed for r in honest_rows] == [True] * 4
    for name, module in list(sys.modules.items()):
        if name.startswith("laglab") and getattr(module, "quad_form", None) is original:
            monkeypatch.setattr(module, "quad_form", negated)
    rows, results = run()
    assert [r.name for r in rows] == [r.name for r in honest_rows]
    assert [r.passed for r in rows] == [False] * 4
    assert honest["quad_r4"] < 0.0 and results["quad_r4"] == -honest["quad_r4"]
    assert results["quad_r3"] == honest["quad_r3"]


@pytest.mark.parametrize("points, quadruples, expected", [
    (32, 1, {"flat_zero": 1}),
    (64, 20, {"flat_zero": 6, "twisted_zero": 3, "flat_generic": 4, "twisted_generic": 1}),
])
def test_pairing_rows_count_the_trials_under_the_error_floor(monkeypatch, points, quadruples,
                                                             expected):
    """A trial whose |rhs| is below the floor passes whatever its sign; each
    pairing row says how many of its trials that is (seed 7; at 32^2 with
    one quadruple, the flat_zero form vanishes by mode orthogonality)."""
    monkeypatch.setattr(laglab.validation, "QUADRUPLES", quadruples)
    cfg = SuiteConfig(grid_points=points, seed=7)
    bases = dict(standard_base_points(cfg.grid_points))
    key = next(key for key, suite in SUITES if suite is _suite_pairing)
    rows = _suite_pairing(cfg, bases, np.random.default_rng([cfg.seed, key]))
    counts = {row.name[len("r3_r4_pairing["):-1]: row.params["trials_under_floor"] for row in rows}
    assert {name: counts[name] for name in expected} == expected
    assert all(type(count) is int for count in counts.values())


@pytest.mark.parametrize("succeeding, drawn, passed", [(0, 0, False), (1, 1, False), (3, 3, True)])
def test_nonpositive_row_fails_when_it_draws_too_few(succeeding, drawn, passed):
    """A row that drew fewer than its samples fails, and one that drew none
    reports a null maximum, which JSON can carry (-inf it cannot)."""
    sectionals = [-0.5, -0.25, -1.0][:succeeding]
    values = iter(sectionals)

    def draw(i):
        value = next(values, None)
        if value is None:
            raise DegeneratePlane("degenerate plane")
        return value

    result = _nonpositive("sectional_nonpositive", 3, draw)
    assert result.passed is passed
    assert result.params["samples"] == drawn
    assert result.params["max_sectional"] == (max(sectionals) if sectionals else None)
    json.dumps(result.to_dict(), allow_nan=False)
