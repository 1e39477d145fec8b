"""Mutation fuzz of the command line: one small config per job, each leaf
replaced in turn by each value of a fixed set, through ``describe`` and
``run``.

Every exit code is 0, 2, 3 or 4: no input ends in a traceback or in the
generic exit 1.  ``describe`` exits 2 exactly when ``run`` does, apart from
the two configuration errors that only computing can find (a degenerate
sectional plane and a non-finite result).  A run that exits 2 leaves no
report and no CSV, and no report of a job other than ``validate`` holds NaN
or an infinity, which JSON does not have.  Each run has a deadline, so an
unbounded count fails instead of hanging.  Numpy's overflow warnings are
silenced as the command line leaves them, as warnings, not errors.
"""

import json
import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from laglab.cli import main

VALUES = (-1, 0, 1e30, 1e308, "x", None, True, [])

# Messages of the exit-2 errors that only computing can find (README, CLI).
COMPUTED_INPUT_ERRORS = ("Gram determinant", "is not finite; the inputs are too large")

RUN_DEADLINE_S = 10


def _term(coefficient, wavevector):
    return [{"coefficient": coefficient, "wavevector": wavevector, "phase": "cos"}]


GEOMETRY = {
    "model": {"n": 2, "period": 6.283185307179586, "twist_amplitude": 0.1, "twist_mode": 1},
    "grid": {"points": 8},
    "potential": _term(0.2, [1, 1]),
    "functions": {"h": _term(1.0, [1, 0]), "k": _term(1.0, [0, 2])},
}

CONFIGS = {
    "sectional": dict(GEOMETRY, job="sectional", params={"h": "h", "k": "k"}),
    "curvature": {"job": "curvature", "model": {"n": 1}, "grid": 8,
                  "functions": {"h": _term(1.0, [1]), "k": _term(0.5, [2])},
                  "params": {"h": "h", "k": "k", "l": "h", "m": "k", "include_field": True}},
    "scan": {"job": "scan", "model": {"n": 1}, "grid": 8,
             "functions": {"h": _term(1.0, [1]), "k": _term(0.5, [2])},
             "params": {"pairs": [["h", "k"]]}},
    "geodesic": {"job": "geodesic", "model": {"n": 1, "twist_amplitude": 0.1}, "grid": 8,
                 "functions": {"h": _term(0.1, [1])},
                 "params": {"h0": "h", "time": 0.01, "steps": 2, "reverse": True}},
    "validate": {"job": "validate", "params": {"grid": 16, "seed": 0}},
    "mirror": {"job": "mirror", "params": {
        "weights": [1.0], "H": [[[2, 0], [0, 1]]], "xi": [[[0, 1], [1, 0]]],
        "eta": [[[0, [0, -1]], [[0, 1], 0]]],
    }},
}


def _leaves(node, path=()):
    """The path of every scalar leaf of a config."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


def _mutated(config, path, value):
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


@contextmanager
def _deadline(seconds):
    def expire(*_):
        raise TimeoutError(f"the run took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _no_constant(name):
    raise AssertionError(f"report holds {name}")


@pytest.mark.parametrize("job", sorted(CONFIGS))
def test_every_mutated_leaf_exits_cleanly(tmp_path, capsys, small_counts, job):
    config_path, out = tmp_path / "config.json", tmp_path / "report.json"
    # A base config that fails to load would stop every mutation at the same
    # error, and the fuzz would pass while reading nothing.
    config_path.write_text(json.dumps(CONFIGS[job]))
    assert main(["describe", str(config_path)]) == 0, capsys.readouterr().err
    for path in _leaves(CONFIGS[job]):
        if path == ("job",):
            continue
        for value in VALUES:
            case = f"{job} {'.'.join(map(str, path))} = {value!r}"
            config_path.write_text(json.dumps(_mutated(CONFIGS[job], path, value)))
            for stale in (out, out.with_suffix(".csv")):
                stale.unlink(missing_ok=True)
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore", RuntimeWarning)
                described = main(["describe", str(config_path)])
                with _deadline(RUN_DEADLINE_S):
                    ran = main(["run", str(config_path), "-o", str(out)])
            err = capsys.readouterr().err
            assert {described, ran} <= {0, 2, 3, 4}, case
            computed = ran == 2 and any(text in err for text in COMPUTED_INPUT_ERRORS)
            assert (described == 2) == (ran == 2) or (described == 0 and computed), case
            if ran == 2:
                assert not out.exists() and not out.with_suffix(".csv").exists(), case
            elif out.exists() and job != "validate":
                json.loads(out.read_text(), parse_constant=_no_constant)
