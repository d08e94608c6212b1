import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colsel import cli, hollow_gram, standardize
from colsel.errors import SolverError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def i2_csv(tmp_path):
    p = tmp_path / "i2.csv"
    p.write_text("1,0\n0,1\n")
    return str(p)


@pytest.fixture
def swap_csv(tmp_path):
    p = tmp_path / "swap.csv"
    p.write_text("0,1\n1,0\n")
    return str(p)


@pytest.fixture
def random_csv(tmp_path):
    rng = np.random.default_rng(21)
    a = rng.standard_normal((6, 8))
    a /= np.linalg.norm(a, axis=0)
    p = tmp_path / "b.csv"
    p.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n")
    return str(p)


def test_kt_end_to_end(capsys, i2_csv):
    code, out, _ = run_cli(capsys, "kt", "--seed", "7", i2_csv)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "kt"
    assert report["input_shape"] == [2, 2]
    assert report["config"]["seed"] == 7
    assert report["result"]["tau"] == [0, 1]
    assert report["result"]["norm_of_tau"] <= 15.0
    assert report["result"]["attempts"] >= 1
    assert report["timings_ms"] is None


def test_bt_end_to_end(capsys, i2_csv):
    code, out, _ = run_cli(capsys, "bt", "--seed", "3", i2_csv)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["kappa_of_tau"] <= math.sqrt(3) * (1 + 1e-10)


def test_norm_bracket_inf2(capsys, random_csv):
    code, out, _ = run_cli(capsys, "norm", "--kind", "inf2", "--rel-tol", "0.05", random_csv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["lower"] <= result["upper"]
    assert result["ratio"] <= 1.25 * 1.05
    assert result["converged"] is True


def test_oracle_inf1(capsys, swap_csv):
    code, out, _ = run_cli(capsys, "oracle", "--kind", "inf1", swap_csv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] == 2.0
    assert result["witness"] == [1.0, 1.0]


def test_pietsch_command(capsys, i2_csv):
    code, out, _ = run_cli(capsys, "pietsch", "--alpha", "2.0", i2_csv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["alpha_effective"] == 2.0
    assert result["t_norm"] <= 2.0 * (1 + 1e-8)
    assert len(result["d"]) == 2


def test_grothendieck_command(capsys, swap_csv):
    code, out, _ = run_cli(capsys, "grothendieck", "--alpha", "2.0", swap_csv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["t_norm"] == pytest.approx(2.0, rel=1e-6)


def test_experiment_command(capsys, i2_csv, tmp_path):
    big = tmp_path / "dbl.csv"
    a = np.hstack([np.eye(4), np.eye(4)])
    big.write_text("\n".join(",".join(str(v) for v in row) for row in a) + "\n")
    code, out, _ = run_cli(
        capsys, "experiment", "--kind", "inf2", "--delta", "0.5",
        "--trials", "120", "--seed", "5", str(big),
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["results"]) == 2
    assert all(row["passed"] for row in result["results"])
    assert result["poissonization"]["ok"] is True

    code, out, _ = run_cli(
        capsys, "experiment", "--kind", "inf1", "--regime", "--delta", "0.5",
        "--trials", "120", "--seed", "5", str(big),
    )
    assert code == 0
    (row,) = json.loads(out)["result"]["results"]
    assert row["model"] == "P_delta"
    assert row["theoretical_bound"] == 4 / 9  # s / 9 with s = floor(0.5 * 8)


def test_usage_error_exit_2(capsys):
    assert cli.main([]) == 2
    assert cli.main(["kt"]) == 2
    assert cli.main(["frobnicate", "x.csv"]) == 2


def test_domain_error_exit_3(capsys, tmp_path):
    nonstd = tmp_path / "nonstd.csv"
    nonstd.write_text("2,0\n0,1\n")
    code, _, err = run_cli(capsys, "kt", str(nonstd))
    assert code == 3
    assert "standardize" in err

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    code, _, err = run_cli(capsys, "kt", str(ragged))
    assert code == 3

    code, _, err = run_cli(capsys, "kt", str(tmp_path / "absent.csv"))
    assert code == 3


@pytest.mark.parametrize("case", ["unwritable-output", "directory-input", "undecodable-input"])
def test_io_failures_exit_3_without_a_traceback(tmp_path, case):
    # Each once crashed with a traceback and exit 1.
    csv = tmp_path / "m.csv"
    csv.write_text("1,0\n0,1\n")
    if case == "unwritable-output":
        named = tmp_path / "missing-dir" / "x.json"
        argv = [str(csv), "--output", str(named)]
    elif case == "directory-input":
        named = tmp_path
        argv = [str(named)]
    else:
        named = tmp_path / "latin1.csv"
        named.write_bytes(b"\xff1,0\n0,1\n")
        argv = [str(named)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "colsel", "oracle", "--kind", "inf2", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert str(named) in done.stderr
    assert "Traceback" not in done.stderr


def test_enormous_trials_exit_3_without_a_traceback(tmp_path):
    # Once died in np.empty(trials) with "Unable to allocate 72.8 TiB" and exit 1.
    eye = tmp_path / "eye4.csv"
    eye.write_text("\n".join(",".join("1" if i == j else "0" for j in range(4))
                             for i in range(4)) + "\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "colsel", "experiment", "--kind", "inf2",
                           "--delta", "0.5", "--trials", "10000000000000", str(eye)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and "trials" in done.stderr
    assert "Traceback" not in done.stderr


def test_standardize_flag_repairs_input(capsys, tmp_path):
    nonstd = tmp_path / "nonstd.csv"
    nonstd.write_text("2,0\n0,1\n")
    code, out, _ = run_cli(capsys, "kt", "--standardize", str(nonstd))
    assert code == 0
    assert json.loads(out)["config"]["standardize_input"] is True


def test_asymmetric_grothendieck_exit_3(capsys, tmp_path):
    p = tmp_path / "asym.csv"
    p.write_text("0,1\n0.5,0\n")
    code, _, err = run_cli(capsys, "grothendieck", "--alpha", "1.0", str(p))
    assert code == 3
    assert "symmetric" in err


@pytest.mark.parametrize("kind", ["inf2", "inf1"])
def test_norm_beyond_the_float_range_exit_3(capsys, tmp_path, kind):
    # Every entry is finite but ||A||_F, and so every bound, overflows; the
    # norm scale-back once crashed with OverflowError.
    p = tmp_path / "big.csv"
    p.write_text("1e308,1e308\n1e308,1e308\n")
    code, out, err = run_cli(capsys, "norm", "--kind", kind, str(p))
    assert code == 3
    assert out == ""
    assert "float range" in err


@pytest.mark.parametrize("rows", [["1e308,1e308"] * 2, [",".join(["1e307"] * 16)] * 4])
def test_experiment_beyond_the_float_range_exit_3(capsys, tmp_path, rows):
    # ||A||_F overflows, or only ||A||_{inf->2} does: trial values then read
    # inf, and the run once exited 0 with null means and a RuntimeWarning.
    p = tmp_path / "big.csv"
    p.write_text("\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "experiment", "--kind", "inf2", "--delta", "0.5", str(p))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "float range" in err


def _overflowing_inputs():
    g = hollow_gram(standardize(np.random.default_rng(0).standard_normal((6, 10))))
    return {
        "big": np.full((4, 16), 5e306),  # ||A||_{inf->2} = 1.6e308; the P_delta bound is not
        "g": g * 2.0**1020,  # ||G||_F is finite; ||G||_{inf->1} is not
        "b": 1e160 * np.random.default_rng(0).standard_normal((6, 10)),  # eta scales by 2^1064
    }


@pytest.mark.parametrize("argv", [
    ["experiment", "--kind", "inf2", "--delta", "0.5", "big"],
    ["oracle", "--kind", "inf1", "g"],
    ["norm", "--kind", "inf1", "g"],
    ["grothendieck", "--alpha", "1e308", "g"],
    ["pietsch", "--alpha", "1", "b"],
], ids=["experiment", "oracle", "norm", "grothendieck", "pietsch"])
def test_a_reported_number_beyond_the_float_range_exit_3(capsys, tmp_path, argv):
    # Each run once printed an overflowed number as null and exited 0.
    p = tmp_path / f"{argv[-1]}.csv"
    np.savetxt(p, _overflowing_inputs()[argv[-1]], fmt="%.17g", delimiter=",")
    code, out, err = run_cli(capsys, *argv[:-1], str(p))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "beyond the float range" in err


def test_a_rank_deficient_bt_candidate_still_logs_null(capsys, tmp_path):
    # condition_number's inf for a rank-deficient candidate is by design.
    p = tmp_path / "doubled.csv"
    np.savetxt(p, np.hstack([np.eye(4), np.eye(4)]), fmt="%.17g", delimiter=",")
    code, out, _ = run_cli(capsys, "bt", "--seed", "1", str(p))
    assert code == 0
    assert [4, 1, 4, None] in json.loads(out)["result"]["per_round_log"]


@pytest.mark.parametrize("command", ["pietsch", "grothendieck"])
@pytest.mark.parametrize("alpha", ["1e300", "inf", "nan", "0", "-1"])
def test_alpha_out_of_range_exit_3(capsys, tmp_path, command, alpha):
    # --alpha 1e300 once crashed with OverflowError; inf and nan were
    # reported as non-finite matrix entries.
    p = tmp_path / "swap.csv"
    p.write_text("0,1\n1,0\n")
    code, out, err = run_cli(capsys, command, "--alpha", alpha, str(p))
    assert code == 3
    assert out == ""
    assert "alpha" in err


def test_kt_on_entries_whose_squares_overflow_exit_3(capsys, tmp_path):
    # Column norms are taken at unit scale: no overflow warning, just the refusal.
    p = tmp_path / "huge.csv"
    p.write_text("1e200,0\n0,1e200\n")
    code, out, err = run_cli(capsys, "kt", str(p))
    assert code == 3
    assert out == ""
    assert "standardize" in err


def test_solver_error_exit_4(capsys, i2_csv, monkeypatch):
    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli, "pietsch_factorize", boom)
    code, _, err = run_cli(capsys, "pietsch", "--alpha", "2.0", i2_csv)
    assert code == 4
    assert "synthetic" in err


def test_oracle_cap_enforced(capsys, tmp_path):
    wide = tmp_path / "wide.csv"
    wide.write_text(",".join(["1"] * 21) + "\n")
    code, _, err = run_cli(capsys, "oracle", "--kind", "inf2", str(wide))
    assert code == 3
    assert "cap" in err


def test_matrix_market_input(capsys, tmp_path):
    p = tmp_path / "i2.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n")
    code, out, _ = run_cli(capsys, "oracle", "--kind", "inf2", str(p))
    assert code == 0
    assert json.loads(out)["result"]["value"] == pytest.approx(math.sqrt(2))


def test_output_flag_writes_file(capsys, i2_csv, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "kt", "--output", str(target), i2_csv)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "kt"


def test_byte_identical_reports(capsys, random_csv, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli.main(["bt", "--seed", "11", "--standardize", "--output", str(first), random_csv]) == 0
    assert cli.main(["bt", "--seed", "11", "--standardize", "--output", str(second), random_csv]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_timings_flag_breaks_null(capsys, i2_csv):
    code, out, _ = run_cli(capsys, "kt", "--timings", i2_csv)
    assert code == 0
    assert json.loads(out)["timings_ms"] >= 0.0


def test_invalid_config_rejected(capsys, i2_csv):
    code, _, err = run_cli(capsys, "kt", "--iters", "0", i2_csv)
    assert code == 3
    code, _, err = run_cli(capsys, "norm", "--kind", "inf2", "--rel-tol", "1.5", i2_csv)
    assert code == 3


@pytest.fixture
def hadamard_csv(tmp_path):
    # Symmetric with unit-norm columns: every subcommand accepts it as is.
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
    p = tmp_path / "h4.csv"
    p.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in h) + "\n")
    return str(p)


REQUIRED = {
    "kt": [], "bt": [], "pietsch": ["--alpha", "4"], "grothendieck": ["--alpha", "4"],
    "norm": ["--kind", "inf2"], "oracle": ["--kind", "inf2"],
    "experiment": ["--delta", "0.5", "--trials", "100"],
}


@pytest.mark.parametrize("command, flag, value", [
    *((c, "--rel-tol", "0.1") for c in ("kt", "bt", "pietsch", "grothendieck", "oracle", "experiment")),
    *((c, "--seed", "1") for c in ("pietsch", "grothendieck", "norm", "oracle")),
    *((c, "--iters", "100") for c in ("oracle", "experiment")),
    *((c, "--oracle-cap", "20") for c in ("oracle", "experiment")),
])
def test_options_nothing_reads_are_usage_errors(capsys, hadamard_csv, command, flag, value):
    code, out, err = run_cli(capsys, command, *REQUIRED[command], flag, value, hadamard_csv)
    assert code == 2
    assert out == ""
    assert flag in err


CONFIG_KEYS = {
    "kt": ["emd_iterations", "kt_norm_threshold", "seed", "standardize_input"],
    "bt": ["bt_kappa_threshold", "emd_iterations", "seed", "standardize_input"],
    "pietsch": ["emd_iterations", "standardize_input"],
    "grothendieck": ["emd_iterations", "standardize_input"],
    "norm": ["emd_iterations", "rel_tol", "standardize_input"],
    "oracle": ["standardize_input"],
    "experiment": ["seed", "standardize_input"],
}


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_echoes_the_settings_the_subcommand_reads(capsys, hadamard_csv, command):
    code, out, _ = run_cli(capsys, command, *REQUIRED[command], hadamard_csv)
    assert code == 0
    assert sorted(json.loads(out)["config"]) == CONFIG_KEYS[command]


def test_readme_command_line_examples_run(capsys, hadamard_csv):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [line.split("#")[0].split()[1:] for line in readme.splitlines()
                if line.startswith("colsel ")]
    assert {argv[0] for argv in examples} == set(CONFIG_KEYS)
    for argv in examples:
        argv = [hadamard_csv if arg.endswith(".csv") else arg for arg in argv]
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("delta", ["1.5", "-0.5"])
@pytest.mark.parametrize("kind", ["inf2", "inf1"])
def test_experiment_delta_outside_the_unit_interval_exit_3(capsys, hadamard_csv, kind, delta):
    # inf2 once crashed with an uncaught "math domain error".
    code, out, err = run_cli(capsys, "experiment", "--kind", kind, "--delta", delta,
                             "--trials", "100", hadamard_csv)
    assert code == 3
    assert out == ""
    assert "delta" in err


@pytest.mark.parametrize("command", ["kt", "bt"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
def test_threshold_must_be_positive_exit_3(capsys, hadamard_csv, command, threshold):
    # A NaN threshold once returned a one-column selection with exit 0.
    code, out, err = run_cli(capsys, command, "--threshold", threshold, hadamard_csv)
    assert code == 3
    assert out == ""
    assert "threshold" in err


# The degree of each reported number in the input's scale: norms, bounds,
# factors and levels scale with it, eta with its power (2 for pietsch);
# weights, witnesses, ratios and counts do not.
_DEGREE_ONE = {"alpha", "alpha_effective", "reconstruction_residual", "t_norm", "t", "lower",
               "upper", "value", "empirical_mean", "theoretical_bound", "std_error", "lhs",
               "rhs"}


def _scales_exactly(base, got, degree, key=None):
    """Whether ``got`` is ``base`` with every number scaled by ``2**degree(key)``."""
    if isinstance(base, dict):
        return base.keys() == got.keys() and all(
            _scales_exactly(base[k], got[k], degree, k) for k in base)
    if isinstance(base, list):
        return len(base) == len(got) and all(
            _scales_exactly(b, g, degree, key) for b, g in zip(base, got))
    if isinstance(base, float) and degree(key):
        try:
            return got == math.ldexp(base, degree(key))
        except OverflowError:  # got is finite, or null
            return False
    return type(got) is type(base) and got == base


# Each command with its options but the input's; True where the input is symmetric.
_SCALE_COMMANDS = [
    (["pietsch", "--iters", "20", "--alpha"], False),
    (["grothendieck", "--iters", "20", "--alpha"], True),
    (["norm", "--kind", "inf2", "--iters", "20"], False),
    (["norm", "--kind", "inf1", "--iters", "20"], True),
    (["oracle", "--kind", "inf2"], False),
    (["oracle", "--kind", "inf1"], True),
    (["experiment", "--kind", "inf2", "--trials", "100", "--delta", "0.5"], False),
]


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(_SCALE_COMMANDS), alpha=st.floats(0.5, 8.0),
       m=st.integers(1, 6), s=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       k=st.sampled_from([-600, 600, 1000, 1020]))
def test_every_reported_number_scales_exactly_or_exit_3(command, alpha, m, s, seed, k):
    # Unstandardized inputs with entries in [-4, 4]: |entry| 2^1020 stays finite.
    argv, symmetric = command
    if argv[-1] == "--alpha":  # the level scales with the input
        argv = argv + [alpha]
    rng = np.random.default_rng(seed)
    a = rng.uniform(-4.0, 4.0, (s, s) if symmetric else (m, s))
    if symmetric:
        a = (a + a.T) / 2.0
    power = 2 if argv[0] == "pietsch" else 1

    def degree(key):
        return power * k if key == "eta" else k if key in _DEGREE_ONE else 0

    def run(scale):
        def text(v):
            return repr(math.ldexp(v, scale)) if isinstance(v, float) else v

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.csv"
            path.write_text("\n".join(",".join(text(float(v)) for v in r) for r in a) + "\n")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([text(v) for v in argv] + [str(path)])
        return code, out.getvalue(), err.getvalue()

    code, out, err = run(0)
    assert code == 0, err
    code_k, out_k, err_k = run(k)
    if code_k == 3:
        assert out_k == "" and err_k.startswith("error:"), err_k
        return
    assert code_k == 0, err_k
    assert _scales_exactly(json.loads(out), json.loads(out_k), degree)
