import json

import numpy as np
import pytest

import laglab.cli
import laglab.errors
import laglab.validation
from laglab.cli import load_config, main, report_bytes
from laglab.curvature import sectional
from laglab.errors import DegeneratePlane

SECTIONAL_SPOT = -0.025330295910584444

MODEL_FLAT = {"n": 2, "period": 6.283185307179586, "twist_amplitude": 0.0, "twist_mode": 1}

FUNCTIONS = {
    "h": [{"coefficient": 1.0, "wavevector": [1, 0], "phase": "cos"}],
    "k": [{"coefficient": 1.0, "wavevector": [0, 1], "phase": "cos"}],
    "hk": [
        {"coefficient": 1.0, "wavevector": [1, 0], "phase": "cos"},
        {"coefficient": 0.5, "wavevector": [0, 1], "phase": "cos"},
    ],
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def load_report(path):
    return json.loads(path.read_text())


def test_sectional_job(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "sec.json",
        {
            "model": MODEL_FLAT,
            "grid": {"points": 64},
            "functions": FUNCTIONS,
            "job": "sectional",
            "params": {"h": "h", "k": "k"},
        },
    )
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    report = load_report(out)
    assert report["schema"] == "laglab/report-v1"
    assert report["results"]["sectional"] == pytest.approx(SECTIONAL_SPOT, rel=1e-6)
    assert "laplacian_sign" in report["conventions"]


def test_curvature_job(tmp_path):
    cfg = write_config(
        tmp_path,
        "curv.json",
        {
            "model": {"n": 2, "twist_amplitude": 0.1},
            "grid": 64,
            "potential": [{"coefficient": 0.2, "wavevector": [1, 1], "phase": "cos"}],
            "functions": FUNCTIONS,
            "job": "curvature",
            "params": {"h": "h", "k": "k", "l": "k", "m": "h", "include_field": True},
        },
    )
    out = tmp_path / "curv_report.json"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    results = load_report(out)["results"]
    assert results["quad_r3"] == pytest.approx(results["quad_r4"], rel=1e-8)
    assert results["field_shape"] == [64, 64]
    assert len(results["riemann_field"]) == 64 * 64


def test_describe(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "sec.json",
        {
            "model": MODEL_FLAT,
            "grid": 64,
            "functions": FUNCTIONS,
            "job": "sectional",
            "params": {"h": "h", "k": "k"},
        },
    )
    assert main(["describe", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "sectional curvature" in text
    assert "64^2" in text


def test_describe_unknown_job(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"job": "explode"})
    assert main(["describe", str(cfg)]) == 2
    assert "unknown job" in capsys.readouterr().err


def test_describe_band_limit_names_term(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "band.json",
        {
            "model": MODEL_FLAT,
            "grid": 64,
            "functions": {"h": [{"coefficient": 1.0, "wavevector": [40, 0]}]},
            "job": "sectional",
            "params": {"h": "h", "k": "h"},
        },
    )
    assert main(["describe", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "functions[h]" in err and "term 0" in err and "band limit" in err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_unresolved_function_name(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "missing.json",
        {
            "model": MODEL_FLAT,
            "grid": 64,
            "functions": FUNCTIONS,
            "job": "sectional",
            "params": {"h": "h", "k": "nope"},
        },
    )
    assert main(["run", str(cfg)]) == 2
    assert "does not name a function" in capsys.readouterr().err


def test_positivity_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "pos.json",
        {
            "model": MODEL_FLAT,
            "grid": 64,
            "potential": [
                {"coefficient": 1.5, "wavevector": [1, 0]},
                {"coefficient": 1.5, "wavevector": [0, 1]},
            ],
            "functions": FUNCTIONS,
            "job": "sectional",
            "params": {"h": "h", "k": "k"},
        },
    )
    assert main(["run", str(cfg)]) == 3
    assert "positivity" in capsys.readouterr().err


def test_scan_job(tmp_path):
    config = {
        "model": {"n": 2, "twist_amplitude": 0.1},
        "grid": 64,
        "functions": FUNCTIONS,
        "job": "scan",
        "params": {"all_pairs": True},
    }
    cfg = write_config(tmp_path, "scan.json", config)
    out = tmp_path / "scan.json.out"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    report = load_report(out)
    rows = report["results"]["pairs"]
    assert len(rows) == 3
    csv_path = tmp_path / "scan.json.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "pair_id,h_name,k_name,sectional,margin"
    assert len(lines) == 4

    # A pair's sectional does not depend on the batch it is scanned in.
    single = write_config(
        tmp_path, "scan2.json", dict(config, params={"pairs": [["hk", "k"]]})
    )
    out2 = tmp_path / "scan2.json.out"
    assert main(["run", str(single), "-o", str(out2)]) == 0
    (row,) = load_report(out2)["results"]["pairs"]
    (expected,) = [r for r in rows if (r["h_name"], r["k_name"]) == ("hk", "k")]
    assert row["sectional"] == expected["sectional"]


def test_scan_requires_pairs(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "scan_bad.json",
        {
            "model": MODEL_FLAT,
            "grid": 64,
            "functions": FUNCTIONS,
            "job": "scan",
            "params": {},
        },
    )
    assert main(["run", str(cfg)]) == 2


def test_scan_degenerate_pair_note(tmp_path):
    functions = dict(FUNCTIONS, h2=[{"coefficient": 2.0, "wavevector": [1, 0], "phase": "cos"}])
    cfg = write_config(
        tmp_path,
        "scan_degenerate.json",
        {
            "model": {"n": 2, "twist_amplitude": 0.1},
            "grid": 32,
            "functions": functions,
            "job": "scan",
            "params": {"pairs": [["h", "k"], ["h", "h2"], ["hk", "h"]]},
        },
    )
    out = tmp_path / "scan_degenerate_report.json"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    rows = load_report(out)["results"]["pairs"]
    assert [(r["h_name"], r["k_name"]) for r in rows] == [("h", "k"), ("h", "h2"), ("hk", "h")]

    config = load_config(str(cfg))
    gamma = config.build_gamma()
    h, h2 = config.tangent(gamma, "h"), config.tangent(gamma, "h2")
    with pytest.raises(DegeneratePlane) as exc:
        sectional(gamma, h, h2)
    assert rows[1]["sectional"] is None
    assert rows[1]["note"] == str(exc.value)
    assert rows[1]["margin"] == gamma.margin
    assert rows[2]["sectional"] == pytest.approx(
        sectional(gamma, config.tangent(gamma, "hk"), h), rel=1e-14)
    csv_lines = out.with_suffix(".csv").read_text().strip().splitlines()
    assert csv_lines[2].split(",")[3] == ""


@pytest.mark.parametrize(
    "params",
    [
        {"all_pairs": True},
        {"pairs": [["h", "k"], ["k", "hk"], ["h", "k"]]},
        {"pairs": [["h", "nope"]]},
        {"pairs": [["h"]]},
        {"pairs": []},
        {"pairs": [[["h"], "k"]]},
    ],
)
def test_describe_and_run_agree_on_scan_pairs(tmp_path, capsys, params):
    cfg = write_config(
        tmp_path,
        "scan_pairs.json",
        {
            "model": MODEL_FLAT,
            "grid": 32,
            "functions": FUNCTIONS,
            "job": "scan",
            "params": params,
        },
    )
    out = tmp_path / "scan_pairs_report.json"
    described = main(["describe", str(cfg)])
    described_text = capsys.readouterr()
    ran = main(["run", str(cfg), "-o", str(out)])
    ran_text = capsys.readouterr()
    assert described == ran
    if ran == 0:
        count = len(load_report(out)["results"]["pairs"])
        assert f"sectional scan over {count} pair(s)" in described_text.out
    else:
        assert ran == 2
        assert described_text.err == ran_text.err


def test_scan_takes_one_gradient_per_function(tmp_path, transform_calls):
    """A scan over F functions takes F spectral gradients, not 8 per pair,
    besides the build's gradient of the potential and the Hessian taken
    from it."""
    functions = dict(FUNCTIONS, s=[{"coefficient": 0.3, "wavevector": [1, 1], "phase": "sin"}])
    cfg = write_config(
        tmp_path,
        "scan_count.json",
        {
            "model": {"n": 2, "twist_amplitude": 0.1},
            "grid": 32,
            "potential": [{"coefficient": 0.2, "wavevector": [1, 1], "phase": "cos"}],
            "functions": functions,
            "job": "scan",
            "params": {"all_pairs": True},
        },
    )
    out = tmp_path / "scan_count_report.json"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    assert len(load_report(out)["results"]["pairs"]) == 6
    assert sorted(transform_calls) == ["gradient_values"] * (len(functions) + 1) + ["hessian_values"]


def test_geodesic_job(tmp_path):
    cfg = write_config(
        tmp_path,
        "geo.json",
        {
            "model": MODEL_FLAT,
            "grid": 64,
            "functions": {"h0": [{"coefficient": 0.1, "wavevector": [1, 0]}]},
            "job": "geodesic",
            "params": {"h0": "h0", "time": 0.1, "steps": 50, "reverse": True},
        },
    )
    out = tmp_path / "geo_report.json"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    results = load_report(out)["results"]
    assert results["energy_drift"] < 1e-6
    assert results["reversal_error_sup"] < 1e-6


@pytest.mark.parametrize(
    "eps, code, message",
    [
        # The twist overflows at t = 125 and leaves NaN in Re Omega~.
        (0.1, 3, "positivity lost at t = 125:"),
        # Flat: Re Omega~ = 1 - det Hess phi = 1 all along phi = t cos x1.
        (0.0, 0, "report written"),
    ],
)
def test_geodesic_far_out(tmp_path, capsys, eps, code, message):
    cfg = write_config(
        tmp_path,
        "far.json",
        {
            **GEODESIC,
            "model": {**MODEL_FLAT, "twist_amplitude": eps},
            "params": {"h0": "h", "time": 1e3, "steps": 4},
        },
    )
    assert main(["run", str(cfg), "-o", str(tmp_path / "far_report.json")]) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


def test_validate_job_and_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        "val.json",
        {
            "job": "validate",
            "params": {
                "seed": 3,
                "grid": 32,
                "quadruples": 1,
                "fd_triples": 1,
                "sectional_samples": 4,
                "mirror_samples": 3,
                "rho_points": 30,
                "geodesic_steps": 20,
            },
        },
    )
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    assert main(["run", str(cfg), "-o", str(out1)]) == 0
    assert main(["run", str(cfg), "-o", str(out2)]) == 0
    r1, r2 = load_report(out1), load_report(out2)
    assert r1["results"]["all_passed"] is True
    # bit-for-bit identical after stripping wall-clock timing
    assert report_bytes(r1) == report_bytes(r2)
    assert r1["timing_seconds"] > 0.0


def test_validate_zero_tolerance_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(laglab.validation.DEFAULT_TOLERANCES, "dtheta", 0.0)
    cfg = write_config(
        tmp_path,
        "val0.json",
        {
            "job": "validate",
            "params": {
                "seed": 3,
                "grid": 32,
                "quadruples": 1,
                "fd_triples": 1,
                "sectional_samples": 4,
                "mirror_samples": 3,
                "rho_points": 30,
                "geodesic_steps": 20,
            },
        },
    )
    assert main(["run", str(cfg), "-o", str(tmp_path / "val0_report.json")]) == 4


def test_validate_subcommand(tmp_path, capsys):
    out = tmp_path / "vs_report.json"
    assert main(["validate", "--seed", "5", "--grid", "32", "-o", str(out)]) == 0
    report = load_report(out)
    assert report["results"]["all_passed"] is True
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "FAIL" not in stdout


@pytest.mark.parametrize("command", ["run", "describe"])
@pytest.mark.parametrize(
    "params, named",
    [
        ({"quadruples": 0}, "quadruples"),
        ({"fd_triples": 0}, "fd_triples"),
        ({"sectional_samples": 0}, "sectional_samples"),
        ({"geodesic_steps": 0}, "geodesic_steps"),
        ({"grid": 12}, "grid_points"),
        ({"seed": -1}, "seed"),
        ({"geodesic_steps": 10_001}, "geodesic_steps"),
        ({"grid": 2048}, "grid_points"),
        ({"grid": 8}, "grid_points"),
    ],
)
def test_validate_bad_params_exit_2(tmp_path, capsys, command, params, named):
    cfg = write_config(tmp_path, "bad_val.json", {"job": "validate", "params": params})
    out = tmp_path / "bad_val_report.json"
    argv = [command, str(cfg)] + (["-o", str(out)] if command == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "describe"])
@pytest.mark.parametrize(
    "key, value",
    [("tolerances", {"sectional_spot": 1e9}), ("twist_amplitude", 0.1), ("geodesic_time", 0.1)],
)
def test_validate_thresholds_are_not_params(tmp_path, capsys, command, key, value):
    """The battery's tolerances, twist amplitude and geodesic time are
    constants: a config that sets one exits 2, naming it, and writes no
    report, so no config can loosen the checks that judge it."""
    cfg = write_config(tmp_path, "val.json", {"job": "validate", "params": {"seed": 3, key: value}})
    out = tmp_path / "val_report.json"
    argv = [command, str(cfg)] + (["-o", str(out)] if command == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"unknown key params.{key}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--grid", "12"], "grid_points"),
        (["--grid", "4"], "grid_points"),
        (["--grid", "0"], "grid_points"),
        (["--seed", "-1"], "seed"),
        (["--grid", "2048"], "grid_points"),
        (["--grid", "8"], "grid_points"),
    ],
)
def test_validate_subcommand_bad_flags_exit_2(tmp_path, capsys, flags, named):
    out = tmp_path / "v.json"
    assert main(["validate", *flags, "-o", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_mirror_job(tmp_path):
    sigma_x = [[0, 1], [1, 0]]
    sigma_y = [[0, [0, -1]], [[0, 1], 0]]
    cfg = write_config(
        tmp_path,
        "mirror.json",
        {
            "job": "mirror",
            "params": {
                "weights": [1.0],
                "H": [[[1, 0], [0, 1]]],
                "xi": [sigma_x],
                "eta": [sigma_y],
                "delta": 1e-3,
            },
        },
    )
    out = tmp_path / "mirror_report.json"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    results = load_report(out)["results"]
    assert results["sectional"] == pytest.approx(-0.5, abs=1e-12)
    assert results["quad_corrected"] == pytest.approx(-2.0, abs=1e-12)
    assert results["quad_literal"] == pytest.approx(2.0, abs=1e-12)
    assert results["quad_literal"] == -results["quad_corrected"]  # bit for bit
    assert results["quad_fd_oracle"] == pytest.approx(-2.0, abs=1e-4)


def test_mirror_bad_matrix_entry(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "badmat.json",
        {
            "job": "mirror",
            "params": {"H": [[["x", 0], [0, 1]]], "xi": [[[0, 1], [1, 0]]], "eta": [[[0, 1], [1, 0]]]},
        },
    )
    assert main(["run", str(cfg)]) == 2


def test_mirror_non_positive_H_fails_the_run_not_the_read(tmp_path, capsys):
    """A non-positive H is a positivity error of the run, as a non-positive
    potential is: ``describe`` exits 0, ``run`` exits 3, and a malformed
    parameter beside it is still a config error."""
    params = dict(MIRROR_PARAMS, H=[[[-1, 0], [0, 1]]])
    cfg = write_config(tmp_path, "negative.json", {"job": "mirror", "params": params})
    assert main(["describe", str(cfg)]) == 0
    capsys.readouterr()
    out = tmp_path / "negative_report.json"
    assert main(["run", str(cfg), "-o", str(out)]) == 3
    assert "positivity error: minimum eigenvalue -1.000e+00 <= 0" in capsys.readouterr().err
    assert not out.exists()
    bad = write_config(
        tmp_path, "negative_bad.json", {"job": "mirror", "params": dict(params, delta=0)}
    )
    assert main(["run", str(bad), "-o", str(out)]) == 2
    assert "params.delta" in capsys.readouterr().err


GEODESIC = {"model": MODEL_FLAT, "grid": 32, "functions": FUNCTIONS, "job": "geodesic"}
MIRROR_PARAMS = {
    "H": [[[1, 0], [0, 1]]],
    "xi": [[[0, 1], [1, 0]]],
    "eta": [[[0, [0, -1]], [[0, 1], 0]]],
}
NOT_POSITIVE = [  # Re Omega~ = 1 - 4 cos x1 cos x2 < 0 at the origin
    {"coefficient": 2.0, "wavevector": [1, 0]},
    {"coefficient": 2.0, "wavevector": [0, 1]},
]
# Each read fails before any computation: a config error (exit 2) comes
# before a positivity error (exit 3), and no input turns into a traceback.
READ_BEFORE_COMPUTE = [
    (dict(GEODESIC, job="sectional", potential=NOT_POSITIVE, params={"h": "zz", "k": "k"}),
     "params.h"),
    (dict(GEODESIC, params={"h0": "h"}, output=5), "output"),
    ({"job": "validate", "params": {"seed": 3}, "output": ["a"]}, "output"),
    ({"job": "mirror", "params": MIRROR_PARAMS, "output": ""}, "output"),
    (dict(GEODESIC, job="scan", params={"pairs": [[["h"], "k"]]}), "params.pairs[0]"),
    ({"job": "mirror", "params": dict(MIRROR_PARAMS, H=[[[["2", "0"], 0], [0, 1]]])},
     "params.H[0][0]"),
    ({"job": "mirror", "params": dict(MIRROR_PARAMS, H=[[[[True, False], 0], [0, 1]]])},
     "params.H[0][0]"),
    ({"job": "mirror", "params": dict(MIRROR_PARAMS, H=[[[float("nan"), 0], [0, 1]]])},
     "params.H[0][0]"),
    ({"job": "mirror", "params": dict(MIRROR_PARAMS, H=[[[float("inf"), 0], [0, 1]]])},
     "params.H[0][0]"),
    ({"job": "mirror", "params": dict(MIRROR_PARAMS, xi=[[[1]]])}, "params.xi"),
    # A twist mode above N/4 aliases on the grid (9 reads as -7 at 16 points).
    (dict(GEODESIC, job="sectional", grid=16, params={"h": "h", "k": "k"},
          model=dict(MODEL_FLAT, twist_amplitude=0.1, twist_mode=9)), "model.twist_mode"),
    (dict(GEODESIC, grid=16, params={"h0": "h"},
          model=dict(MODEL_FLAT, twist_amplitude=0.1, twist_mode=1e30)), "model.twist_mode"),
    # An output path in a missing directory would fail only after the job ran.
    (dict(GEODESIC, params={"h0": "h"}, output="/no-such-laglab-dir/geo.json"), "output"),
    (dict(GEODESIC, job="scan", params={"all_pairs": True, "csv": "/no-such-laglab-dir/s.csv"}),
     "params.csv"),
    # The quadratures weigh by period^n, which overflows here.
    (dict(GEODESIC, params={"h0": "h"}, model=dict(MODEL_FLAT, period=1e308)),
     "invalid model: period must be positive, with period^n in the float64 range"),
    # A finite coefficient whose sum |c| N^n overflows would sample to inf.
    (dict(GEODESIC, job="sectional", params={"h": "h", "k": "k"},
          potential=[{"coefficient": 1e308, "wavevector": [1, 0]}]), "potential: term 0"),
    (dict(GEODESIC, params={"h0": "h"}, functions=dict(FUNCTIONS, h=[
        {"coefficient": 1.0, "wavevector": [1, 0]}, {"coefficient": -1e308, "wavevector": [0, 1]},
    ])), "functions[h]: term 1"),
]


# A misspelt or foreign params key would otherwise run on the defaults.
UNKNOWN_PARAMS = [
    (dict(GEODESIC, job="curvature", params={"h": "h", "k": "k", "l": "h", "include": False}),
     "params.include"),
    (dict(GEODESIC, job="sectional", params={"h": "h", "k": "k", "h0": "h"}), "params.h0"),
    (dict(GEODESIC, job="scan", params={"all_pairs": True, "cvs": "x.csv"}), "params.cvs"),
    (dict(GEODESIC, params={"h0": "h", "stpes": 400}), "params.stpes"),
    ({"job": "validate", "params": {"grid_points": 16, "quadruple": 1}}, "params.grid_points"),
    ({"job": "mirror", "params": dict(MIRROR_PARAMS, tolerence=1.0)}, "params.tolerence"),
    # Below params, a misspelt key would otherwise read as its default.
    (dict(GEODESIC, params={"h0": "h", "steps": 2}, potental=NOT_POSITIVE), "key potental"),
    (dict(GEODESIC, params={"h0": "h", "steps": 2}, model=dict(MODEL_FLAT, twist_amplitud=0.1)),
     "model.twist_amplitud"),
    (dict(GEODESIC, params={"h0": "h", "steps": 2}, grid={"point": 16}), "grid.point"),
    (dict(GEODESIC, params={"h0": "h", "steps": 2},
          functions=dict(FUNCTIONS, s=[{"coefficient": 1.0, "wavevector": [1, 0], "phse": "sin"}])),
     "functions[s][0].phse"),
]


@pytest.mark.parametrize("command", ["run", "describe"])
@pytest.mark.parametrize(
    "config, named",
    [
        (dict(GEODESIC, params={"h0": "h", "steps": 0}), "params.steps"),
        (dict(GEODESIC, params={"h0": "h", "steps": "abc"}), "params.steps"),
        (dict(GEODESIC, params={"h0": "h", "steps": 2.7}), "params.steps"),
        (dict(GEODESIC, params={"h0": "h", "steps": True}), "params.steps"),
        (dict(GEODESIC, params={"h0": "h", "time": "x"}), "params.time"),
        (dict(GEODESIC, params={"h0": ["h"]}), "params.h0"),
        (dict(GEODESIC, model=dict(MODEL_FLAT, n=2.5), params={"h0": "h"}), "model.n"),
        (dict(GEODESIC, grid={"points": 32.5}, params={"h0": "h"}), "grid.points"),
        ({"job": "mirror", "params": dict(MIRROR_PARAMS, delta="x")}, "params.delta"),
        ({"job": "mirror", "params": dict(MIRROR_PARAMS, delta=0)}, "params.delta"),
        ({"job": "mirror", "params": dict(MIRROR_PARAMS, weights=[-1.0])}, "params.weights"),
        ({"job": "mirror", "params": dict(MIRROR_PARAMS, weights=["a"])}, "params.weights"),
        ({"job": "mirror", "params": dict(MIRROR_PARAMS, xi=[[[0, 1], [0, 0]]])}, "params.xi"),
        ({"job": "validate", "params": {"seed": 7.9}}, "params.seed"),
        ({"job": "validate", "params": {"quadruples": 2.5}}, "params.quadruples"),
        *READ_BEFORE_COMPUTE,
        (dict(GEODESIC, params={"h0": "h", "steps": 1e30}), "params.steps"),
        (dict(GEODESIC, params={"h0": "h", "steps": 10_001}), "params.steps"),
        ({"job": "validate", "params": {"geodesic_steps": 1e30}}, "geodesic_steps"),
        (dict(GEODESIC, grid=4096, params={"h0": "h"}), "grid.points"),
        (dict(GEODESIC, model=dict(MODEL_FLAT, n=3), grid={"points": 256}, params={"h0": "h"}),
         "grid.points"),
        *UNKNOWN_PARAMS,
    ],
)
def test_malformed_params_exit_2(tmp_path, capsys, command, config, named):
    cfg = write_config(tmp_path, "bad.json", config)
    out = tmp_path / "bad_report.json"
    argv = [command, str(cfg)] + (["-o", str(out)] if command == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("config, named", READ_BEFORE_COMPUTE + UNKNOWN_PARAMS)
def test_describe_and_run_fail_alike(tmp_path, capsys, config, named):
    cfg = write_config(tmp_path, "bad.json", config)
    out = tmp_path / "bad_report.json"
    assert main(["describe", str(cfg)]) == 2
    described = capsys.readouterr()
    assert main(["run", str(cfg), "-o", str(out)]) == 2
    ran = capsys.readouterr()
    assert named in ran.err and described.err == ran.err
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_integral_float_params_are_integers(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "geo_float.json",
        dict(GEODESIC, grid={"points": 32.0}, params={"h0": "h", "time": 0.01, "steps": 2.0}),
    )
    assert main(["describe", str(cfg)]) == 0
    assert "grid: 32^2 points" in capsys.readouterr().out
    out = tmp_path / "geo_float_report.json"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    assert load_report(out)["results"]["steps"] == 2


# Huge finite inputs overflow the twist, so Re Omega~ is not finite: the
# error names the first such point instead of a NaN min cos(theta).
TWISTED_16 = dict(GEODESIC, model=dict(MODEL_FLAT, twist_amplitude=0.1), grid=16)


@pytest.mark.parametrize(
    "config, message",
    [
        (dict(TWISTED_16, job="sectional", params={"h": "h", "k": "k"},
              potential=[{"coefficient": 1e30, "wavevector": [1, 0]}]),
         "positivity error: positivity violated: Re Omega~ is not finite at x = (0.0, 0.0)"),
        (dict(TWISTED_16, params={"h0": "h", "time": 1e30, "steps": 4}),
         "positivity error: positivity lost at t = 1.25e+29: positivity violated: "
         "Re Omega~ is not finite at x = (3.141592653589793, 0.0)"),
    ],
    ids=["potential_coefficient", "geodesic_time"],
)
def test_overflowing_pullback_is_named_not_given_a_nan_margin(tmp_path, capsys, config, message):
    cfg = write_config(tmp_path, "overflow.json", config)
    assert main(["describe", str(cfg)]) == 0
    capsys.readouterr()
    out = tmp_path / "overflow_report.json"
    assert main(["run", str(cfg), "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert message in err and "nan" not in err
    assert not out.exists()


CURVATURE = dict(GEODESIC, job="curvature")
SCAN = dict(GEODESIC, job="scan")


@pytest.mark.parametrize("command", ["run", "describe"])
@pytest.mark.parametrize(
    "config, named",
    [
        (dict(GEODESIC, params={"h0": "h", "steps": 2, "reverse": "no"}), "params.reverse"),
        (dict(GEODESIC, params={"h0": "h", "steps": 2, "reverse": 1}), "params.reverse"),
        (dict(SCAN, params={"all_pairs": "false", "pairs": [["h", "k"]]}), "params.all_pairs"),
        (dict(SCAN, params={"all_pairs": None, "pairs": [["h", "k"]]}), "params.all_pairs"),
        (dict(CURVATURE, params={"h": "h", "k": "k", "l": "k", "include_field": "yes"}),
         "params.include_field"),
        (dict(CURVATURE, params={"h": "h", "k": "k", "l": "k", "include_field": 0}),
         "params.include_field"),
        (dict(SCAN, params={"all_pairs": True, "csv": 5}), "params.csv"),
        (dict(SCAN, params={"all_pairs": True, "csv": ""}), "params.csv"),
    ],
)
def test_non_boolean_flags_and_bad_csv_exit_2(tmp_path, capsys, command, config, named):
    cfg = write_config(tmp_path, "bad.json", config)
    out = tmp_path / "bad_report.json"
    argv = [command, str(cfg)] + (["-o", str(out)] if command == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not out.exists()
    assert not out.with_suffix(".csv").exists()


def test_false_flags_turn_off(tmp_path):
    cfg = write_config(
        tmp_path, "geo_forward.json",
        dict(GEODESIC, params={"h0": "h", "time": 0.01, "steps": 2, "reverse": False}),
    )
    out = tmp_path / "geo_forward_report.json"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    assert "reversal_error_sup" not in load_report(out)["results"]

    csv_path = tmp_path / "listed.csv"
    cfg = write_config(
        tmp_path, "scan_listed.json",
        dict(SCAN, params={"all_pairs": False, "pairs": [["h", "k"]], "csv": str(csv_path)}),
    )
    out = tmp_path / "scan_listed_report.json"
    assert main(["run", str(cfg), "-o", str(out)]) == 0
    assert len(load_report(out)["results"]["pairs"]) == 1
    assert len(csv_path.read_text().strip().splitlines()) == 2


# Every error class's exit code and stderr prefix through ``main``; a class
# in ``laglab.errors`` with no row here fails.
ERROR_EXITS = {
    "InputError": (2, "config error:"),
    "ConfigError": (2, "config error:"),
    "BandLimitExceeded": (2, "config error:"),
    "DegeneratePlane": (2, "config error:"),
    "NonFiniteResult": (2, "config error:"),
    "GammaMismatch": (2, "config error:"),
    "ShapeMismatch": (2, "config error:"),
    "PositivityError": (3, "positivity error:"),
    "NotPositive": (3, "positivity error:"),
    "PositivityLost": (3, "positivity error:"),
    "MarginTooSmall": (3, "positivity error:"),
    "SingularDensity": (3, "positivity error:"),
    "NotPositiveDefinite": (3, "positivity error:"),
    "StepRejected": (4, "integration check failed:"),
    "NonPositiveDensity": (1, "error:"),
    "InsufficientSamples": (1, "error:"),
}
ERROR_ARGS = {"NotPositive": (0.5, (0.0, 0.0)), "PositivityLost": (1.0,),
              "StepRejected": (1.0, 1e-3, 1e-6)}
ERROR_CLASSES = [
    cls for cls in vars(laglab.errors).values()
    if isinstance(cls, type) and issubclass(cls, laglab.errors.LaglabError)
    and cls is not laglab.errors.LaglabError
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_has_its_exit_code(tmp_path, capsys, monkeypatch, cls):
    assert cls.__name__ in ERROR_EXITS, f"no exit code pinned for {cls.__name__}"
    code, prefix = ERROR_EXITS[cls.__name__]
    error = cls(*ERROR_ARGS.get(cls.__name__, ("boom",)))

    def raise_it(*_):
        raise error

    jobs = laglab.cli.JOBS
    monkeypatch.setitem(jobs, "validate", jobs["validate"]._replace(run=raise_it))
    out = tmp_path / "v.json"
    assert main(["validate", "-o", str(out)]) == code
    err = capsys.readouterr().err
    assert err == f"{prefix} {error}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "CONFIG", "-o", "/no-such-laglab-dir/r.json"],
        ["validate", "--grid", "16", "-o", "/no-such-laglab-dir/v.json"],
    ],
    ids=["run", "validate"],
)
def test_output_in_a_missing_directory_exits_2_before_the_job(tmp_path, capsys, monkeypatch, argv):
    def must_not_run(*_):
        raise AssertionError("the job ran")

    jobs = laglab.cli.JOBS
    for job in ("geodesic", "validate"):
        monkeypatch.setitem(jobs, job, jobs[job]._replace(run=must_not_run))
    cfg = write_config(tmp_path, "geo.json", dict(GEODESIC, params={"h0": "h"}))
    argv = [str(cfg) if arg == "CONFIG" else arg for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: -o must be a nonempty path in an existing directory, got {argv[-1]!r}\n"
    )


def test_a_failed_write_is_a_config_error_not_a_traceback(tmp_path, capsys):
    """A path that names a directory passes the read and fails the write."""
    cfg = write_config(tmp_path, "sec.json", dict(GEODESIC, job="sectional",
                                                 params={"h": "h", "k": "k"}))
    assert main(["run", str(cfg), "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {tmp_path}: ")
    (tmp_path / "taken.csv").mkdir()
    cfg = write_config(tmp_path, "scan.json", dict(SCAN, params={"all_pairs": True,
                                                                "csv": str(tmp_path / "taken.csv")}))
    assert main(["run", str(cfg), "-o", str(tmp_path / "scan.json.out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {tmp_path / 'taken.csv'}: ")
    assert not (tmp_path / "scan.json.out").exists()


def test_a_16_point_validate_runs_and_reports_its_failing_rows(tmp_path, capsys):
    """16 points pass the band limit of the battery's inputs (N/4 = 4 >= 3),
    so the grid is accepted; the coarse grid fails rows, not the read."""
    out = tmp_path / "v16.json"
    assert main(["validate", "--grid", "16", "-o", str(out)]) == 4
    assert load_report(out)["results"]["all_passed"] is False
    assert "FAIL" in capsys.readouterr().out


# Each count's cap is read before the battery runs; at 1e30 the battery would
# loop for ever, and 1e12 rho points would ask for terabytes.
@pytest.mark.parametrize("field, value", [
    ("quadruples", 1e30), ("fd_triples", 1e30), ("sectional_samples", 1e30),
    ("mirror_samples", 1e30), ("rho_points", 1e12), ("rho_points", 10_001),
])
def test_battery_counts_are_capped_before_the_run(tmp_path, capsys, monkeypatch, field, value):
    def must_not_run(*_):
        raise AssertionError("the battery ran")

    monkeypatch.setitem(laglab.cli.JOBS, "validate",
                        laglab.cli.JOBS["validate"]._replace(run=must_not_run))
    cfg = write_config(tmp_path, "v.json", {"job": "validate", "params": {field: value}})
    out = tmp_path / "v_report.json"
    for argv in (["describe", str(cfg)], ["run", str(cfg), "-o", str(out)]):
        assert main(argv) == 2
        assert f"config error: invalid validation config: {field} must be between 1 and 10000" \
            in capsys.readouterr().err
    assert not out.exists()


# Finite inputs whose products overflow float64 make NaN: only computing can
# find that, so ``describe`` exits 0 and ``run`` exits 2, naming the result
# key, and writes no report or CSV (JSON has no NaN).
HUGE_PAIR = dict(FUNCTIONS, h=[{"coefficient": 1e200, "wavevector": [1, 0]}],
                 k=[{"coefficient": 1e200, "wavevector": [0, 1]}])


@pytest.mark.parametrize("config, key", [
    (dict(TWISTED_16, job="sectional", functions=HUGE_PAIR, params={"h": "h", "k": "k"}),
     "result sectional = nan"),
    (dict(TWISTED_16, job="scan", functions=HUGE_PAIR, params={"pairs": [["h", "k"]]}),
     "result pairs[0].sectional = nan"),
    (dict(TWISTED_16, job="curvature", params={"h": "h", "k": "k", "l": "k", "m": "h"},
          functions=dict(HUGE_PAIR, h=[{"coefficient": 1e160, "wavevector": [1, 0]}],
                         k=[{"coefficient": 1e160, "wavevector": [0, 1]}])),
     "result mean_zero_residual = nan"),
], ids=["sectional", "scan", "curvature"])
def test_a_non_finite_result_exits_2_naming_its_key(tmp_path, capsys, config, key):
    cfg = write_config(tmp_path, "huge.json", config)
    assert main(["describe", str(cfg)]) == 0
    capsys.readouterr()
    out = tmp_path / "huge_report.json"
    with np.errstate(all="ignore"):
        assert main(["run", str(cfg), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} is not finite")
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_an_ill_conditioned_mirror_H_is_a_positivity_error(tmp_path, capsys):
    """H = diag(1e200, 1) is positive definite, but the squares of its
    inverse's entries underflow, so the oracle's basis Gram is singular."""
    cfg = write_config(tmp_path, "ill.json", {
        "job": "mirror", "params": dict(MIRROR_PARAMS, H=[[[1e200, 0], [0, 1]]]),
    })
    assert main(["describe", str(cfg)]) == 0
    capsys.readouterr()
    out = tmp_path / "ill_report.json"
    assert main(["run", str(cfg), "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith("positivity error: basis Gram matrix")
    assert not out.exists()
