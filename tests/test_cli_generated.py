"""Generated requests for every command, driven through cli.main in-process.

Each request runs twice.  The contract checked on every one:
- the exit code is 0, 1 or 2, and 1 only with a `usage error:` line;
- exit 2 leaves stdout empty and prints one `error:` line;
- no exception escapes main;
- an exit-0 payload is strict JSON with finite numbers;
- the rerun is byte-identical apart from the manifest timestamps (for
  simulate, the CSV too).

Flag values mix served values with boundary, non-finite and malformed
ones.  Budgets stay small (reps <= 8, grid <= 64, --n-internal <= 1024,
and fewer fine cells on the 2-D and 3-D sheets), and `derandomize` with a
fixed `max_examples` makes every run draw the same requests.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from hermlab import cli, stats

SETTINGS = settings(
    derandomize=True, max_examples=60, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NON_FINITE = ["nan", "inf", "-inf"]
MALFORMED = ["x", ""]
COMMON = {"--seed": ["0", "1", "7"], "--threads": ["1", "2"]}
REFUSED_COMMON = {"--seed": ["-1"] + MALFORMED, "--threads": MALFORMED + [str(stats.THREAD_CAP + 1)]}


def flags(served: dict, refused: dict) -> st.SearchStrategy:
    """argv fragments: each flag of `served` left out or given one of its
    values, then at most one flag set to one of its `refused` values."""
    served = {**served, **COMMON}
    refused = {**refused, **REFUSED_COMMON}

    @st.composite
    def build(draw):
        chosen = {k: draw(st.none() | st.sampled_from(v)) for k, v in served.items()}
        if draw(st.booleans()):
            k = draw(st.sampled_from(sorted(refused)))
            chosen[k] = draw(st.sampled_from(refused[k]))
        return tuple(f"{k}={v}" for k, v in chosen.items() if v is not None)

    return build()


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def refuse_constant(name):
    raise AssertionError(f"{name} in a payload")


def without_timestamps(text):
    payload = json.loads(text, parse_constant=refuse_constant)
    payload["manifest"].pop("started")
    payload["manifest"].pop("finished")
    return payload


def check_contract(argv, files=()):
    """Run argv twice and check the contract; `files` are outputs to compare."""
    runs = []
    for _ in range(2):
        code, out, err = invoke(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert err.startswith("usage error: "), (argv, err)
        elif code == 2:
            assert out == "", (argv, out)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        else:
            out = without_timestamps(out)
        written = [Path(f).read_bytes() if Path(f).exists() else None for f in files]
        runs.append((code, out, err, written))
    assert runs[0] == runs[1], argv


@SETTINGS
@given(flags({
    "--f": ["exp_window", "indicator"],
    "--lambda": ["0.5", "1", "3"],
    "--t": ["0.5", "1", "2"],
    "--q": ["1", "2", "3"],
    "--hurst": ["0.55", "0.7", "0.9"],
    "--reps": ["2", "3", "8"],
    "--grid": ["8", "64"],
    "--n-internal": ["64", "256", "1024"],
    "--panels": ["8", "64"],
}, {
    "--f": MALFORMED,
    "--lambda": NON_FINITE + ["0", "-1", "1e300"],
    "--t": NON_FINITE + ["0", "-1", "1e-300"],
    "--q": ["0", "171", "1.5"],
    "--hurst": NON_FINITE + MALFORMED + ["0.5", "1", "0.3"],
    "--reps": ["-1", "0", "1"],
    "--grid": ["0", "1"],
    "--n-internal": ["0", "63"],
    "--panels": ["7", "200000000"],
}))
@example(("--t=1e-300",))
@example(("--lambda=1e300",))
def test_integral(argv):
    check_contract(("integral", "--hurst", "0.7", "--n-internal", "64", "--grid", "16", "--panels", "16",
                    "--reps", "2") + argv)


@SETTINGS
@given(flags({
    "--target": ["one", "half"],
    "--hurst-grid": ["0.7", "0.55,0.75", "0.9,0.6"],
    "--f": ["exp_window", "indicator"],
    "--lambda": ["0.5", "1", "3"],
    "--t": ["0.5", "1", "2"],
    "--q": ["1", "2", "3"],
    "--reps": ["0", "2", "8"],
    "--grid": ["8", "64"],
    "--n-internal": ["64", "256", "1024"],
    "--panels": ["8", "64"],
}, {
    "--target": MALFORMED,
    "--hurst-grid": ["0.7,nan", "0.4", "0.7,", "1"] + MALFORMED,
    "--lambda": NON_FINITE + ["0"],
    "--t": NON_FINITE + ["0", "-1", "1e-300"],
    "--q": ["0", "171"],
    "--reps": ["-1", "1"],
    "--grid": ["0"],
    "--n-internal": ["63"],
    "--panels": ["7", "200000000"],
}))
def test_sweep(argv):
    check_contract(("sweep", "--target", "one", "--hurst-grid", "0.7", "--n-internal", "64",
                    "--grid", "16", "--panels", "16") + argv)


@SETTINGS
@given(flags({
    "--q": ["1", "2", "3"],
    "--h0": ["0.6", "0.51", "0.9"],
    "--hurst": ["0.8", "0.6"],
    "--t": ["0.5", "1"],
    "--s": ["0.5", "1"],
    "--reps": ["0", "2", "8"],
    "--trunc": ["3", "6"],
    "--t-steps": ["8", "16"],
    "--x-steps": ["8", "16"],
    "--n-internal": ["64", "128"],
}, {
    "--q": ["0", "171"],
    "--h0": NON_FINITE + ["0.5", "1"],
    "--hurst": ["0.6,0.6,0.6", "0.5"] + NON_FINITE + MALFORMED,
    "--t": NON_FINITE + ["0", "-1", "1e-300", "1e300"],
    "--s": NON_FINITE + ["0", "-1", "1e-300"],
    "--reps": ["-1", "1"],
    "--trunc": ["0.1", "0", "-1"] + NON_FINITE,
    "--t-steps": ["0"],
    "--n-internal": ["63"],
}))
@example(("--hurst", "0.8,0.8", "--reps", "2"))
@example(("--t", "0", "--reps", "2"))
@example(("--s", "0", "--reps", "2"))
def test_heat(argv):
    check_contract(("heat", "--h0", "0.6", "--hurst", "0.8", "--t-steps", "8",
                    "--x-steps", "8", "--n-internal", "64") + argv)


@SETTINGS
@given(flags({
    "--lambda": ["0.5", "1", "3"],
    "--sigma": ["0.5", "1"],
    "--t": ["0.5", "1", "2"],
    "--s": ["0.5", "1"],
    "--q": ["1", "2", "3"],
    "--hurst": ["0.55", "0.7", "0.9"],
    "--xi": ["0", "1"],
    "--horizon": ["10", "20"],
    "--grid": ["8", "64"],
    "--reps": ["2", "8"],
    "--n-internal": ["64", "1024"],
}, {
    "--limit-cov": MALFORMED,
    "--lambda": NON_FINITE + ["0", "-1"],
    "--sigma": NON_FINITE + ["0"],
    "--t": NON_FINITE + ["0", "-1", "1e-300", "1e300"],
    "--s": NON_FINITE + ["-1"],
    "--q": ["0", "171"],
    "--hurst": NON_FINITE + MALFORMED + ["0.5", "1"],
    "--xi": NON_FINITE,
    "--horizon": ["1", "1e12"] + NON_FINITE,
    "--grid": ["0"],
    "--reps": ["0", "1"],
    "--n-internal": ["63"],
}), st.booleans(), st.booleans())
def test_ou(argv, limit_cov, stationary):
    check_contract(("ou", "--grid", "16", "--reps", "2", "--n-internal", "64")
                   + argv + (("--limit-cov",) if limit_cov else ())
                   + (("--stationary",) if stationary else ()))


@SETTINGS
@given(flags({
    "--q": ["1", "2", "3"],
    "--hurst": ["0.7", "0.3", "0.7,0.8", "0.3,0.3", "0.3,0.4,0.3"],
    "--grid": ["1", "8", "32"],
    "--t-max": ["0.5", "1", "2"],
    "--reps": ["1", "2", "8"],
    "--n-internal": ["64", "256"],
}, {
    "--q": ["0", "171"],
    "--hurst": ["0.5", "1", "0.3,"] + NON_FINITE + MALFORMED,
    "--grid": ["0"],
    "--t-max": NON_FINITE + ["0", "-1"],
    "--reps": ["0", "-1"],
    "--n-internal": ["63"],
}))
def test_simulate(argv):
    with tempfile.TemporaryDirectory() as tmp:
        csv = str(Path(tmp) / "x.csv")
        check_contract(("simulate", "--q", "2", "--hurst", "0.7", "--grid", "8",
                        "--n-internal", "64", "--out", csv) + argv,
                       files=(csv,))


def test_missing_out_directory():
    # one request per command: --out is checked before the command runs
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "missing" / "x.json")
        for argv in (("integral", "--hurst", "0.7"), ("simulate", "--q", "2", "--hurst", "0.7"),
                     ("powercount", "--spec", out)):
            check_contract(argv + ("--out", out))


# ---------------------------------------------------------------------------
# powercount: generated descriptors and exponent strings
# ---------------------------------------------------------------------------

EXPRESSIONS = st.recursive(
    st.sampled_from(["0", "1", "2", "3/5", "1/2", "0.5", "1e-3", "H", "gamma"]),
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from(["+", "-", "*", "/"]), e).map("".join),
        e.map(lambda s: "-" + s),
        e.map(lambda s: "(" + s + ")"),
    ),
    max_leaves=4,
)
REFUSED_EXPRESSIONS = st.sampled_from(["x", "1/0", "2**H", "True", "1j", "", "H*", "1e1001",
                                       "(1-H)/(H-H)"]) | st.text("0123456789+-*/().eHgam ",
                                                                 max_size=8)
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                 st.just([]), st.just({}), REFUSED_EXPRESSIONS)
VALUES = st.sampled_from(["3/5", "4/5", "0.7", "1/2", "1"])


@st.composite
def requests(draw):
    """(descriptor, H, gamma): a descriptor in H and gamma with values for
    both, then at most one malformation of the descriptor or of a value."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    coeff = st.integers(-2, 2) | st.sampled_from(["1", "-1", "1/2", "1e-3"])
    row = st.lists(coeff, min_size=m, max_size=m).filter(lambda r: any(c != 0 for c in r))
    data = {
        "m": m,
        "functionals": [
            {"coeffs": draw(row),
             **({"const": draw(EXPRESSIONS)} if draw(st.booleans()) else {})}
            for _ in range(n)
        ],
        "alphas": draw(st.lists(EXPRESSIONS, min_size=n, max_size=n)),
        "betas": draw(st.lists(EXPRESSIONS, min_size=n, max_size=n)),
    }
    H, gamma = draw(VALUES), draw(VALUES)
    action = draw(st.sampled_from(["keep", "keep", "keep", "drop", "junk", "exponent", "list",
                                   "zero_row", "H", "gamma"]))
    if action == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    elif action == "junk":
        data[draw(st.sampled_from(sorted(data)))] = draw(JUNK)
    elif action == "exponent":
        data[draw(st.sampled_from(["alphas", "betas"]))][0] = draw(REFUSED_EXPRESSIONS)
    elif action == "list":
        data = list(data.values())
    elif action == "zero_row":
        data["functionals"][0]["coeffs"] = [0] * m
    elif action == "H":
        H = draw(REFUSED_EXPRESSIONS | st.none())
    elif action == "gamma":
        gamma = draw(REFUSED_EXPRESSIONS | st.none())
    return data, H, gamma


@SETTINGS
@given(requests())
@example(({"m": 1, "functionals": [{"coeffs": ["1"]}], "alphas": ["H-1"], "betas": ["-2"]},
          "1/0", None))
@example(({"m": 1, "functionals": [{"coeffs": ["1"]}], "alphas": ["1/0"], "betas": ["-2"]},
          None, None))
@example(({"functionals": [{"coeffs": ["1"]}], "alphas": ["0"], "betas": ["-2"]}, None, None))
@example(([{"m": 1}], None, None))
def test_powercount(request):
    data, H, gamma = request
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "system.json"
        spec.write_text(json.dumps(data))
        argv = ("powercount", f"--spec={spec}")
        argv += (f"--H={H}",) if H is not None else ()
        argv += (f"--gamma={gamma}",) if gamma is not None else ()
        check_contract(argv)
