import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from hermlab import acceptance, cli, fields, integrals, spde, stats
from hermlab.cli import main
from hermlab.core import GridSpec
from hermlab.ou import OUSpec, ou_limit_covariance, simulate_hou
from hermlab.stats import collect_samples, report_from_samples


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_json(out_text):
    return json.loads(out_text)


def strip_timestamps(payload):
    for key in ("started", "finished"):
        payload["manifest"].pop(key)
    return payload


def cycle_path(tmp_path):
    data = {
        "m": 4,
        "functionals": [
            {"coeffs": ["1", "-1", "0", "0"]},
            {"coeffs": ["0", "1", "-1", "0"]},
            {"coeffs": ["0", "0", "1", "-1"]},
            {"coeffs": ["-1", "0", "0", "1"]},
        ],
        "alphas": ["H-1"] * 4,
        "betas": ["-gamma"] * 4,
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestPowercount:
    def test_paper_values(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "powercount", "--spec", cycle_path(tmp_path),
            "--H", "3/5", "--gamma", "4/5",
        )
        assert code == 0
        payload = load_json(out)
        assert payload["finite_at_zero"] is True
        assert payload["finite_at_infinity"] is True
        assert payload["d0_T"] == "7/5"
        assert payload["dinf_empty"] == "-1/5"

    def test_unresolved_symbol_is_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "powercount", "--spec", cycle_path(tmp_path))
        assert code == 2
        assert "error" in err


class TestSimulate:
    def test_csv_rows_and_origin(self, tmp_path, capsys):
        out_csv = tmp_path / "p.csv"
        code, out, _ = run(
            capsys, "simulate", "--q", "2", "--hurst", "0.7", "--grid", "512",
            "--t-max", "1", "--reps", "1", "--seed", "42",
            "--n-internal", "1024", "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "axis0,value"
        assert len(lines) == 1 + 513
        first_val = float(lines[1].split(",")[1])
        assert first_val == 0.0
        assert os.path.exists(str(out_csv) + ".manifest.json")

    def test_sidecar_manifest_has_only_user_flags(self, tmp_path, capsys):
        out_csv = tmp_path / "p.csv"
        code, _, _ = run(
            capsys, "simulate", "--q", "2", "--hurst", "0.7", "--grid", "16",
            "--seed", "3", "--n-internal", "64", "--out", str(out_csv),
        )
        assert code == 0
        with open(str(out_csv) + ".manifest.json") as fh:
            flags = json.load(fh)["manifest"]["flags"]
        assert flags["out"] == str(out_csv)
        assert not [k for k in flags if k.startswith("_")]

    def test_oversized_circulant_is_exit_2(self, tmp_path, capsys):
        # the default fine mesh of 2**14 per axis would need a 2**30-cell circulant
        out_csv = tmp_path / "p.csv"
        code, _, err = run(capsys, "simulate", "--q", "2", "--hurst", "0.7,0.7",
                           "--grid", "512", "--out", str(out_csv))
        assert code == 2
        assert "exceeds the sampler cap" in err
        assert not out_csv.exists()

    def test_q1_takes_the_exact_path_for_every_hurst(self, tmp_path, capsys):
        # H_1 is the identity, so a q = 1 sheet is exact fBm on the grid itself at any H;
        # a fine mesh at H > 1/2 would need a 2**30-cell circulant here
        out_csv = tmp_path / "p.csv"
        code, _, err = run(capsys, "simulate", "--q", "1", "--hurst", "0.7,0.8",
                           "--out", str(out_csv))
        assert code == 0, err
        with open(str(out_csv) + ".manifest.json") as fh:
            assert json.load(fh)["manifest"]["runtime"]["fine_mesh"] == [512, 512]


class TestOU:
    def test_limit_cov_value(self, capsys):
        code, out, _ = run(
            capsys, "ou", "--limit-cov",
            "--lambda", "1", "--sigma", "1", "--t", "1", "--s", "1",
        )
        assert code == 0
        payload = load_json(out)
        assert payload["covariance"] == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-7)

    @pytest.mark.parametrize("stationary", [False, True], ids=["nonstationary", "stationary"])
    def test_limit_cov_s_defaults_to_t(self, capsys, stationary):
        # Cov(2, 2): --s once defaulted to 1 whatever --t was
        code, out, _ = run(capsys, "ou", "--limit-cov", "--t", "2", "--lambda", "3",
                           *(["--stationary"] if stationary else []))
        assert code == 0
        payload = load_json(out)
        spec = OUSpec(3.0, 1.0, q=2, H=0.7, stationary=stationary)
        assert payload["s"] == 2.0
        assert payload["covariance"] == ou_limit_covariance(spec, 2.0, 2.0)

    def test_samples_y_at_t(self, capsys):
        # --t is the path horizon as well as the evaluation time: Y(2) of paths on [0, 2]
        code, out, _ = run(capsys, "ou", "--t", "2", "--reps", "4", "--grid", "64",
                           "--n-internal", "1024", "--seed", "5", "--threads", "1")
        assert code == 0
        spec = OUSpec(1.0, 1.0, q=2, H=0.7)
        ys = collect_samples(
            lambda s: float(simulate_hou(spec, GridSpec(0.0, 2.0, 64), s, 1024).values[-1]),
            4, 5, threads=1)
        payload = load_json(out)
        del payload["manifest"]
        assert payload == {**report_from_samples(ys, 5).as_dict(),
                           "limit_covariance_half": ou_limit_covariance(spec, 2.0, 2.0)}


class TestExpCellBound:
    """An exp window sampled on cells of width h is served up to lambda * h =
    cli.EXP_CELL_CAP = 1/4 (lambda 4 on 16 cells of [0, 1]), where its midpoint
    weights bias the variance by about 1%; TestRefusedBeforeAnyDraw refuses
    lambda 4.1."""

    SMALL = ("--grid", "16", "--n-internal", "64", "--threads", "1")

    @pytest.mark.parametrize("argv", [
        ("integral", "--hurst", "0.7", "--panels", "8", "--reps", "2", "--lambda", "3.9"),
        ("sweep", "--target", "one", "--hurst-grid", "0.7", "--panels", "8", "--reps", "2",
         "--lambda", "3.9"),
        ("ou", "--reps", "2", "--lambda", "3.9"),
        ("ou", "--stationary", "--reps", "2", "--lambda", "3.9"),
        ("sweep", "--target", "one", "--hurst-grid", "0.7", "--panels", "8", "--reps", "0",
         "--lambda", "50"),
        ("integral", "--f", "indicator", "--hurst", "0.7", "--panels", "8", "--reps", "2",
         "--lambda", "50"),
    ], ids=["integral", "sweep", "ou", "ou_stationary", "sweep_reps_0", "integral_indicator"])
    def test_served(self, argv, capsys):
        code, _, err = run(capsys, *argv, *self.SMALL)
        assert code == 0, err


class TestSweep:
    def test_half_target_quadrature_only(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--target", "half", "--hurst-grid", "0.75,0.65,0.55,0.51",
            "--q", "2", "--reps", "0",
        )
        assert code == 0
        payload = load_json(out)
        assert payload["monotone_toward_limit"] is True
        assert payload["limit_variance"] == pytest.approx((1 - math.exp(-2)) / 2, rel=1e-4)


class TestChaosOrderBound:
    @pytest.mark.parametrize("argv", [
        ("integral", "--hurst", "0.7", "--q", "400", "--reps", "2"),
        ("sweep", "--target", "one", "--q", "400", "--reps", "2", "--hurst-grid", "0.7,0.8"),
    ], ids=["integral", "sweep"])
    def test_q_above_170_is_exit_2(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "chaos order q=400 must lie in 1..170" in err


class TestUnservableRequests:
    HEAT = ("heat", "--h0", "0.6", "--hurst", "0.8")
    MC = ("--reps", "4", "--grid", "64", "--n-internal", "256", "--threads", "1")

    @pytest.mark.parametrize("argv", [
        HEAT + ("--t", "nan"),
        HEAT + ("--t", "inf"),
        HEAT + ("--s", "nan"),
        HEAT + ("--trunc", "nan", "--reps", "2"),
        ("ou", "--limit-cov", "--stationary", "--t", "nan"),
        ("ou", "--hurst", "0.7", "--t", "nan") + MC,
        ("integral", "--hurst", "0.7", "--t", "nan") + MC,
        ("integral", "--hurst", "0.7", "--lambda", "nan") + MC,
        ("simulate", "--q", "2", "--hurst", "0.7", "--grid", "8", "--t-max", "inf", "--out", "{tmp}/x.csv"),
        ("integral", "--hurst", "0.7", "--panels", "64", "--out", "{tmp}/missing/x.json") + MC,
        ("sweep", "--target", "half", "--hurst-grid", "0.7", "--out", "{tmp}/missing/x.json"),
    ], ids=["heat_t_nan", "heat_t_inf", "heat_s_nan", "heat_trunc_nan", "ou_limit_t_nan",
            "ou_t_nan", "integral_t_nan", "integral_lambda_nan", "simulate_t_max_inf",
            "integral_missing_out_dir", "sweep_missing_out_dir"])
    def test_exit_2_with_empty_stdout(self, argv, tmp_path, capsys):
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_payload_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "heat_covariance_quadrature", lambda *args: math.nan)
        code, out, err = run(capsys, *self.HEAT)
        assert code == 2 and out == ""
        assert "not JSON compliant" in err


class TestRefusedBeforeAnyDraw:
    """Requests the program cannot serve exit 2, with empty stdout and a
    one-line error, before collect_samples draws anything."""

    HEAT = ("heat", "--h0", "0.6", "--hurst", "0.8", "--t-steps", "16", "--x-steps", "16",
            "--n-internal", "64", "--reps", "2")
    EXP_CELLS = ("--lambda", "4.1", "--grid", "16", "--n-internal", "64", "--reps", "2")

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def drawn(*args, **kwargs):
            raise AssertionError("replicates drawn for a request that is refused")

        monkeypatch.setattr(cli, "collect_samples", drawn)

    @pytest.mark.parametrize("argv,message", [
        (("integral", "--hurst", "0.7", "--reps", "2", "--out", "{tmp}/missing/x.json"),
         "directory does not exist"),
        (("simulate", "--q", "2", "--hurst", "0.7", "--grid", "8", "--out", "{tmp}/missing/x.csv"),
         "directory does not exist"),
        (HEAT + ("--t", "0"), "--s equal to --t"),
        (HEAT + ("--s", "0"), "--s equal to --t"),
        (HEAT + ("--s", "0.5"), "--s equal to --t"),
        (("integral", "--hurst", "0.7", "--reps", "2", "--panels", "200000000"),
         "quadrature panels exceed the cap"),
        (("sweep", "--target", "half", "--hurst-grid", "0.7", "--panels", "200000000"),
         "quadrature panels exceed the cap"),
        (("simulate", "--q", "1", "--hurst", "0.3,0.3", "--grid", "2048", "--reps", "40",
          "--out", "{tmp}/x.csv"), "exceed the simulate cap"),
        (("ou", "--t", "2", "--s", "1", "--reps", "2"), "--s equal to --t"),
        (("integral", "--hurst", "0.7") + EXP_CELLS, "lambda * cell = 0.2562 exceeds 0.25"),
        (("sweep", "--target", "one", "--hurst-grid", "0.7") + EXP_CELLS,
         "lambda * cell = 0.2562 exceeds 0.25"),
        (("ou",) + EXP_CELLS, "lambda * cell = 0.2562 exceeds 0.25"),
        (("ou", "--stationary") + EXP_CELLS, "lambda * cell = 0.2562 exceeds 0.25"),
    ], ids=["integral_missing_out_dir", "simulate_missing_out_dir", "heat_t_0", "heat_s_0",
            "heat_s_ne_t", "integral_panels", "sweep_panels", "simulate_values", "ou_s_ne_t",
            "integral_exp_cells", "sweep_exp_cells", "ou_exp_cells", "ou_stationary_exp_cells"])
    def test_exit_2(self, argv, message, tmp_path, capsys):
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,descriptor", [
        (("--H", "1/0"), None),
        ((), {"m": 1, "functionals": [{"coeffs": ["1"]}], "alphas": ["1/0"], "betas": ["-2"]}),
        ((), {"functionals": [{"coeffs": ["1"]}], "alphas": ["0"], "betas": ["-2"]}),
        ((), [{"m": 1}]),
        ((), {"m": 2, "functionals": [{"coeffs": "12"}], "alphas": ["0"], "betas": ["-3"]}),
        ((), {"m": 2.7, "functionals": [{"coeffs": ["1", "2"]}], "alphas": ["0"], "betas": ["-3"]}),
    ], ids=["H_1_over_0", "exponent_1_over_0", "no_m", "list", "coeffs_string", "m_float"])
    def test_powercount_exit_2(self, argv, descriptor, tmp_path, capsys):
        spec = cycle_path(tmp_path)
        if descriptor is not None:
            Path(spec).write_text(json.dumps(descriptor))
        code, out, err = run(capsys, "powercount", "--spec", spec, "--gamma", "4/5", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRefusedBeforeTheWeights:
    """A sheet the sampler refuses is refused before the Wiener functional
    builds its weights, and a sweep that draws nothing builds none."""

    @pytest.fixture(autouse=True)
    def no_weights(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("weights built for a functional the request never draws from")

        monkeypatch.setattr(cli, "WienerFunctional", built)
        monkeypatch.setattr(fields, "SHEET_CELL_CAP", 2 * 64 - 1)  # a 64-cell fine mesh is too big

    @pytest.mark.parametrize("argv", [
        ("integral", "--hurst", "0.7", "--reps", "2", "--panels", "8"),
        ("sweep", "--target", "one", "--hurst-grid", "0.7", "--reps", "2", "--panels", "8"),
    ], ids=["integral", "sweep"])
    def test_oversize_sheet_is_exit_2(self, argv, capsys):
        code, out, err = run(capsys, *argv, "--grid", "64", "--n-internal", "64")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "exceeds the sampler cap" in err

    def test_quadrature_only_sweep_builds_no_functional(self, capsys):
        code, out, _ = run(capsys, "sweep", "--target", "half", "--hurst-grid", "0.7",
                           "--reps", "0", "--grid", "64", "--n-internal", "64", "--panels", "8")
        assert code == 0
        assert load_json(out)["limit_variance"] > 0

    @pytest.mark.parametrize("f,limit", [
        ("exp_window", (1 - math.exp(-1.0)) ** 2), ("indicator", 1.0),
    ], ids=["exp_window", "indicator"])
    def test_quadrature_only_sweep_one_takes_int_f_from_the_integrand(self, f, limit, capsys):
        # the H -> 1 limit (int f)^2 in closed form, not from a grid's weights
        code, out, _ = run(capsys, "sweep", "--target", "one", "--f", f, "--hurst-grid", "0.7",
                           "--reps", "0", "--grid", "64", "--n-internal", "64", "--panels", "8")
        assert code == 0
        assert load_json(out)["limit_variance"] == pytest.approx(limit, rel=1e-15)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM as Linux reports it")
    def test_quadrature_only_sweep_rss_does_not_grow_with_the_grid(self):
        """`sweep --target one --reps 0` at a 4e6-step grid: the peak RSS of
        a fresh process stays under 64 MB, fixed before the first run.  When
        it built the whole functional to sum its weights into int f it
        peaked at 154.6 MB; without, 33.0 MB, as `--target half` does.  The
        probe reads VmHWM, the high-water mark of its own address space:
        ru_maxrss would also count the test process it was spawned from."""
        probe = (
            "import io, contextlib\n"
            "import hermlab.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert hermlab.cli.main(['sweep', '--target', 'one', '--hurst-grid', '0.7',"
            " '--reps', '0', '--grid', '4000000', '--panels', '8']) == 0\n"
            "with open('/proc/self/status') as status:\n"
            "    print(next(line for line in status if line.startswith('VmHWM:')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        _, kib, unit = proc.stdout.split()
        assert unit == "kB" and int(kib) / 1024 < 64.0, proc.stdout


class TestHeat:
    def test_quadrature_only(self, capsys):
        code, out, _ = run(
            capsys, "heat", "--q", "2", "--h0", "0.51", "--hurst", "0.51", "--reps", "0",
        )
        assert code == 0
        payload = load_json(out)
        assert payload["quadrature_covariance"] == pytest.approx(0.5617, abs=0.001)
        assert payload["white_noise_limit"] == pytest.approx(1 / math.sqrt(math.pi), rel=1e-9)

    def test_gamma_cond_is_the_exact_sum(self, capsys):
        # 4*0.6 + (2*0.6 - 1) is 2.5999999999999996 in floats
        code, out, _ = run(capsys, "heat", "--h0", "0.6", "--hurst", "0.6")
        assert code == 0
        assert load_json(out)["gamma_cond"] == 2.6

    def test_d2_oversize_sheet_is_exit_2(self, capsys, monkeypatch):
        # the default 512 steps per axis give a 2**30-cell circulant in d = 2
        def reached(*args):
            raise AssertionError("weights built for a sheet the sampler refuses")

        monkeypatch.setattr(spde, "WienerFunctional", reached)
        code, out, err = run(capsys, "heat", "--h0", "0.6", "--hurst", "0.8,0.8", "--reps", "2")
        assert code == 2 and out == ""
        assert "exceeds the sampler cap" in err

    def test_t_ne_s_near_half_is_quiet(self):
        # H0 near 1/2 puts a near-1/x singularity at an end of the t != s
        # time integral; the closed form gives it without a warning
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "hermlab.cli", "heat", "--h0", "0.5001", "--hurst", "0.55",
             "--t", "1", "--s", "0.5"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert load_json(proc.stdout)["quadrature_covariance"] > 0

    def test_existence_violation_is_error(self, capsys):
        code, _, err = run(
            capsys, "heat", "--q", "2", "--h0", "0.6", "--hurst", "0.6,0.6,0.6",
        )
        assert code == 2
        assert "error" in err


def set_thread_count_aside(payload):
    """The only difference a --threads 2 run may show against --threads 1."""
    manifest = payload["manifest"]
    assert manifest["flags"]["threads"] == manifest["runtime"]["threads"] == 2
    manifest["flags"]["threads"] = manifest["runtime"]["threads"] = 1


class TestContract:
    def test_usage_error_exit_1(self, capsys):
        code, _, err = run(capsys, "nonsense")
        assert code == 1

    def test_flag_validation_exit_2(self, capsys):
        code, _, err = run(capsys, "ou", "--lambda", "-1", "--limit-cov", "--stationary")
        assert code == 2

    def test_byte_identical_payloads(self, capsys):
        args = ["sweep", "--target", "half", "--hurst-grid", "0.75,0.55", "--reps", "0",
                "--seed", "11"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        p1, p2 = strip_timestamps(load_json(out1)), strip_timestamps(load_json(out2))
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
        assert p1["manifest"]["runtime"] == {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": os.cpu_count() or 1,
        }

    @pytest.mark.parametrize("argv,expected", [
        (["integral", "--hurst", "0.7", "--reps", "4", "--grid", "64", "--n-internal", "1000",
          "--panels", "64"], [1024]),
        (["sweep", "--target", "half", "--hurst-grid", "0.75", "--reps", "4", "--grid", "64",
          "--n-internal", "1024", "--panels", "64"], [1024]),
        (["heat", "--h0", "0.6", "--hurst", "0.6", "--reps", "2", "--t-steps", "32",
          "--x-steps", "48", "--n-internal", "64", "--trunc", "4"], [64, 48]),
        (["ou", "--hurst", "0.7", "--reps", "4", "--grid", "64", "--n-internal", "1024"], [1024]),
        # the stationary driving path covers [-6, 1]: 384 + 64 cells at stride 2
        (["ou", "--stationary", "--horizon", "6", "--hurst", "0.7", "--reps", "4", "--grid", "64",
          "--n-internal", "1024"], [896]),
        (["heat", "--h0", "0.6", "--hurst", "0.8,0.8", "--reps", "4", "--t-steps", "16",
          "--x-steps", "16", "--n-internal", "64", "--trunc", "4"], [64, 64, 64]),
    ], ids=["integral", "sweep", "heat", "ou", "ou_stationary", "heat_d2"])
    def test_manifest_records_the_fine_mesh(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv, "--seed", "5", "--threads", "1")
        assert code == 0
        assert load_json(out)["manifest"]["runtime"]["fine_mesh"] == expected

    @pytest.mark.parametrize("q,hurst,expected", [("2", "0.7,0.8", [64, 64]), ("1", "0.4", [16])])
    def test_simulate_manifest_records_the_fine_mesh(self, tmp_path, capsys, q, hurst, expected):
        out_csv = tmp_path / "p.csv"
        code, _, _ = run(capsys, "simulate", "--q", q, "--hurst", hurst, "--grid", "16",
                         "--n-internal", "64", "--seed", "3", "--out", str(out_csv))
        assert code == 0
        with open(str(out_csv) + ".manifest.json") as fh:
            assert json.load(fh)["manifest"]["runtime"]["fine_mesh"] == expected

    def test_powercount_payload_byte_identical(self, tmp_path, capsys):
        args = ["powercount", "--spec", cycle_path(tmp_path), "--H", "3/5", "--gamma", "4/5"]
        texts = []
        for _ in range(2):
            code, out, _ = run(capsys, *args)
            assert code == 0
            texts.append(json.dumps(strip_timestamps(load_json(out)), sort_keys=True))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("argv", [
        ["integral", "--hurst", "0.7", "--reps", "40", "--grid", "64",
         "--n-internal", "1024", "--panels", "64"],
        ["ou", "--hurst", "0.7", "--reps", "40", "--grid", "64", "--n-internal", "1024"],
        ["sweep", "--target", "half", "--hurst-grid", "0.75,0.55", "--reps", "40", "--grid", "64",
         "--n-internal", "1024", "--panels", "64"],
        ["heat", "--h0", "0.6", "--hurst", "0.6", "--reps", "20", "--t-steps", "32",
         "--x-steps", "32", "--n-internal", "64", "--trunc", "4"],
        ["ou", "--stationary", "--horizon", "6", "--hurst", "0.7", "--reps", "40", "--grid", "64",
         "--n-internal", "1024"],
        ["sweep", "--target", "one", "--q", "3", "--hurst-grid", "0.9,0.99", "--reps", "40",
         "--grid", "64", "--n-internal", "1024", "--panels", "64"],
        ["heat", "--h0", "0.6", "--hurst", "0.8,0.8", "--reps", "4", "--t-steps", "16",
         "--x-steps", "16", "--n-internal", "64", "--trunc", "4"],
    ], ids=["integral", "ou", "sweep", "heat", "ou_stationary", "sweep_one_q3", "heat_d2"])
    def test_mc_payloads_byte_identical_and_thread_independent(self, capsys, argv):
        payloads = []
        for threads in ("1", "1", "2"):
            code, out, _ = run(capsys, *argv, "--seed", "5", "--threads", threads)
            assert code == 0
            payloads.append(strip_timestamps(load_json(out)))
        set_thread_count_aside(payloads[2])
        texts = [json.dumps(p, sort_keys=True) for p in payloads]
        assert texts[0] == texts[1] == texts[2]

    def test_simulate_csv_byte_identical_and_thread_independent(self, tmp_path, capsys):
        out_csv = tmp_path / "p.csv"
        csvs, manifests = [], []
        for threads in ("1", "1", "2"):
            code, _, _ = run(capsys, "simulate", "--q", "2", "--hurst", "0.7", "--grid", "64",
                             "--reps", "3", "--n-internal", "1024", "--out", str(out_csv),
                             "--seed", "5", "--threads", threads)
            assert code == 0
            csvs.append(out_csv.read_bytes())
            with open(str(out_csv) + ".manifest.json") as fh:
                manifests.append(strip_timestamps(json.load(fh)))
        assert csvs[0] == csvs[1] == csvs[2]
        set_thread_count_aside(manifests[2])
        texts = [json.dumps(p, sort_keys=True) for p in manifests]
        assert texts[0] == texts[1] == texts[2]

    def test_verify_byte_identical_and_thread_independent(self, capsys, monkeypatch):
        seen = []

        def stub(seed, fast, threads=None):
            seen.append(threads)
            xs = collect_samples(lambda s: s.standard_normal(), 50, seed, threads)
            return True, f"sum {xs.sum():.17g}"

        monkeypatch.setattr(acceptance, "CRITERIA", [(1, "stub", stub)])
        lines, payloads = [], []
        for threads in ("1", "1", "2"):
            code, out, _ = run(capsys, "verify", "--seed", "5", "--threads", threads)
            assert code == 0
            line, text = out.split("\n", 1)
            lines.append(line.rsplit(" [", 1)[0])  # the criterion's wall time may differ
            payloads.append(strip_timestamps(load_json(text)))
        assert seen == [1, 1, 2]
        assert lines[0] == lines[1] == lines[2]
        set_thread_count_aside(payloads[2])
        texts = [json.dumps(p, sort_keys=True) for p in payloads]
        assert texts[0] == texts[1] == texts[2]

    def test_simulate_passes_threads_to_collect_samples(self, tmp_path, capsys, monkeypatch):
        seen = []

        def spy(sampler, n, seed, threads=1):
            seen.append(threads)
            return collect(sampler, n, seed, threads=threads)

        collect = cli.collect_samples
        monkeypatch.setattr(cli, "collect_samples", spy)
        code, _, _ = run(capsys, "simulate", "--q", "2", "--hurst", "0.7", "--grid", "16",
                         "--reps", "2", "--n-internal", "64", "--out", str(tmp_path / "p.csv"),
                         "--threads", "2")
        assert code == 0
        assert seen == [2]

    def test_memory_error_is_exit_2(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("cannot allocate the fine mesh")

        monkeypatch.setattr(integrals, "hermite_sheet_increments", exhausted)
        code, out, err = run(capsys, "integral", "--hurst", "0.7", "--reps", "4", "--grid", "64",
                             "--n-internal", "1024", "--panels", "64")
        assert code == 2
        assert out == ""
        assert err == "error: cannot allocate the fine mesh\n"

    @pytest.mark.parametrize("argv,expected", [
        (["verify", "--seed", "0"], 0),
        (["verify"], acceptance.MASTER_SEED),
    ])
    def test_verify_seed(self, capsys, monkeypatch, argv, expected):
        seen = []

        def stub(seed, fast, threads=None):
            seen.append(seed)
            return True, "stub"

        monkeypatch.delenv("HERMLAB_SEED", raising=False)
        monkeypatch.setattr(acceptance, "CRITERIA", [(1, "stub", stub)])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert seen == [expected]
        assert load_json(out.split("\n", 1)[1])["manifest"]["seed"] == expected

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("HERMLAB_SEED", "777")
        code, out, _ = run(capsys, "sweep", "--target", "half",
                           "--hurst-grid", "0.75,0.55", "--reps", "0")
        assert code == 0
        assert load_json(out)["manifest"]["seed"] == 777

    def test_malformed_env_seed_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("HERMLAB_SEED", "abc")
        code, out, err = run(capsys, "ou", "--limit-cov", "--stationary")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "HERMLAB_SEED" in err

    def test_threads_above_the_cap_are_exit_2_before_any_thread(self, capsys, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("a replicate pool started for a refused thread count")

        monkeypatch.setattr(stats, "ThreadPoolExecutor", started)
        code, out, err = run(capsys, "integral", "--hurst", "0.7", "--reps", "4", "--grid", "16",
                             "--n-internal", "64", "--panels", "8",
                             "--threads", str(stats.THREAD_CAP + 1))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"the cap {stats.THREAD_CAP}" in err
