"""scripts/loglik_fingerprint.py: the gate that compares two checkouts'
log-likelihoods to a relative tolerance."""

import importlib.util
import math
import os
import subprocess
import sys

import pytest

import fusedsdm

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCRIPT = os.path.join(ROOT, "scripts", "loglik_fingerprint.py")


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("loglik_fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def lines(script):
    return list(script.fingerprint(fusedsdm))


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _moved(lines, index, move):
    """``lines`` with ``move`` applied to the value on line ``index``."""
    key, value = lines[index].rsplit(" ", 1)
    out = list(lines)
    out[index] = f"{key} {move(float.fromhex(value)).hex()}"
    return out


def _value(line):
    return float.fromhex(line.rsplit(" ", 1)[1])


def test_fresh_output_passes_against_itself(lines, tmp_path):
    path = _write(tmp_path / "fresh.txt", lines)
    run = subprocess.run([sys.executable, SCRIPT, "--against", path],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "0 of 6960 values differ" in run.stdout


def test_value_moved_past_tolerance_fails(script, lines, tmp_path, capsys):
    i = next(i for i, line in enumerate(lines)
             if -1e300 < _value(line) < math.inf)
    within = _moved(lines, i, lambda v: v * (1 + 1e-13))
    past = _moved(lines, i, lambda v: v * (1 + 1e-11))
    assert script.compare(lines, _write(tmp_path / "a.txt", within)) == 0
    assert script.compare(lines, _write(tmp_path / "b.txt", past)) == 1
    assert "1 of 6960 values differ" in capsys.readouterr().out


def test_different_points_fail(script, lines, tmp_path):
    assert script.compare(lines, _write(tmp_path / "p.txt", lines[:-1])) == 1


def test_derivative_lines_hold_value_gradient_and_hessian(script, lines):
    """16 points per spec, each the value, 4 gradient and 16 Hessian
    entries of loglik_derivatives, eta = 0 among them."""
    derivative = [line for line in lines if line.split()[2].startswith("d")]
    assert len(derivative) == 10 * 16 * 21
    spec = script.demo_specs(fusedsdm)["fused-distance"]
    rp = next(script.derivative_grid(fusedsdm.RateParams, -3.0))
    assert rp.eta == 0.0
    value, grad, hess = fusedsdm.likelihoods.loglik_derivatives(rp, spec)
    got = {line.split()[3]: float.fromhex(line.split()[4])
           for line in derivative
           if line.startswith("demo fused-distance d0 ")}
    assert got["value"] == value
    assert [got[f"grad{j}"] for j in range(4)] == grad.tolist()
    assert [got[f"hess{j}.{l}"] for j in range(4) for l in range(4)] \
        == hess.ravel().tolist()


def test_derivative_moved_past_tolerance_fails(script, lines, tmp_path):
    i = next(i for i, line in enumerate(lines)
             if " grad1 " in line and _value(line) != 0.0)
    past = _moved(lines, i, lambda v: v * (1 + 1e-11))
    assert script.compare(lines, _write(tmp_path / "g.txt", past)) == 1
