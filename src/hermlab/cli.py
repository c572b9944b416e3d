"""Command-line entry point: reproducible experiments with file outputs.

Every run is fully determined by its flags and master seed; JSON payloads are
byte-identical across identical invocations except for the timestamps inside
the manifest.  CSV outputs get a sidecar <file>.manifest.json.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np
import scipy

from . import __version__
from .core import (
    DomainError,
    ExpWindow,
    GridSpec,
    HermiteSpec,
    HurstMultiIndex,
    IndicatorBox,
    LimitScenario,
    ResourceError,
    UnsupportedError,
    write_fields_csv,
)
from . import acceptance, stats
from .fields import fine_mesh, simulate_fractional_gaussian_sheet, simulate_hermite_sheet
from .integrals import WienerFunctional
from .ou import OUSpec, driving_grid, ou_limit_covariance, simulate_hou
from .powercount import check_integrability, system_from_dict
from .quadrature import QuadratureConfig, inner_product_HH, sigma_limit
from .spde import (
    HeatSpec,
    existence_condition,
    heat_covariance_quadrature,
    heat_limit_covariance,
    sample_mild_solution,
)
from .stats import collect_samples, ks_distance, report_from_samples, target_cdf_hermite_limit


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _hurst_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _manifest(args: argparse.Namespace, started: float) -> dict:
    """Run record; runtime.threads is the cap resolve_threads gives, which a
    default-thread collect_samples call may undercut by running serially.
    A command that drew sheets records their per-axis fine mesh as
    runtime.fine_mesh."""
    flags = {k: v for k, v in sorted(vars(args).items())
             if k != "func" and not k.startswith("_")}
    runtime = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": stats.resolve_threads(args.threads),
    }
    if hasattr(args, "_fine_mesh"):
        runtime["fine_mesh"] = list(args._fine_mesh)
    return {
        "command": args.command,
        "flags": {k: (list(v) if isinstance(v, tuple) else v) for k, v in flags.items()},
        "seed": args.seed,
        "version": __version__,
        "runtime": runtime,
        "started": started,
        "finished": time.time(),
    }


def _emit(payload: dict, args: argparse.Namespace, started: float) -> None:
    payload = dict(payload)
    payload["manifest"] = _manifest(args, started)
    text = json.dumps(payload, indent=2, sort_keys=True)
    out = getattr(args, "out", None)
    if out and getattr(args, "_out_is_data", False):
        # --out already holds the data file; the manifest goes in a sidecar
        with open(str(out) + ".manifest.json", "w") as fh:
            fh.write(text + "\n")
        print(text)
    elif out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("HERMLAB_SEED")
    if env:
        return int(env)
    return acceptance.MASTER_SEED if args.command == "verify" else 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> dict:
    if not args.out:
        raise DomainError("simulate needs --out for the CSV")
    args._out_is_data = True
    hurst = _hurst_list(args.hurst)
    if args.q < 1:
        raise DomainError("q must be >= 1")
    d = len(hurst)
    grid = GridSpec([0.0] * d, [args.t_max] * d, [args.grid] * d)
    gaussian = args.q == 1 and any(h <= 0.5 for h in hurst)
    spec = None if gaussian else HermiteSpec(args.q, HurstMultiIndex(hurst))
    args._fine_mesh = grid.steps if gaussian else fine_mesh(grid.steps, args.n_internal)

    def sampler(stream):
        if gaussian:
            return simulate_fractional_gaussian_sheet(hurst, grid, stream).values
        return simulate_hermite_sheet(spec, grid, args.n_internal, stream).values

    values = collect_samples(sampler, args.reps, args.seed, threads=args.threads)
    write_fields_csv(args.out, grid, values)
    return {
        "rows": int(np.prod(grid.shape)),
        "reps": args.reps,
        "csv": args.out,
        "origin_value": float(values[0].reshape(-1)[0]),
    }


def _make_integrand(args):
    if args.f == "exp_window":
        return ExpWindow(args.lam, args.t)
    if args.f == "indicator":
        return IndicatorBox([0.0], [args.t])
    raise DomainError(f"unknown integrand {args.f!r}")


def _cmd_integral(args) -> dict:
    hurst = float(args.hurst)
    f = _make_integrand(args)
    spec = HermiteSpec(args.q, HurstMultiIndex(hurst))
    grid = GridSpec(0.0, args.t, args.grid)
    functional = WienerFunctional(f, grid)
    args._fine_mesh = fine_mesh(grid.steps, args.n_internal)

    def sampler(stream):
        return functional.sample(spec, args.n_internal, stream)

    samples = collect_samples(sampler, args.reps, args.seed, threads=args.threads)
    rep = report_from_samples(samples, args.seed)
    quad = inner_product_HH(f, f, hurst, QuadratureConfig(panels=args.panels))
    out = rep.as_dict()
    out.update({
        "quadrature_variance": quad,
        "mc_over_quadrature": rep.variance / quad if quad else math.nan,
    })
    return out


def _cmd_sweep(args) -> dict:
    hurst_grid = _hurst_list(args.hurst_grid)
    f = _make_integrand(args)
    spec_grid = GridSpec(0.0, args.t, args.grid)
    functional = WienerFunctional(f, spec_grid)
    quad_vals = [
        inner_product_HH(f, f, h, QuadratureConfig(panels=args.panels)) for h in hurst_grid
    ]
    result: dict = {
        "target": args.target,
        "hurst_grid": list(hurst_grid),
        "quadrature_variances": quad_vals,
    }
    if args.target == "half":
        limit = sigma_limit(f, LimitScenario(a_axes=(0,)), QuadratureConfig(panels=args.panels))
        result["limit_variance"] = limit
        dists = [abs(v - limit) for v in quad_vals]
        result["monotone_toward_limit"] = bool(
            all(dists[i + 1] <= dists[i] for i in range(len(dists) - 1))
        )
    else:
        # H -> 1 limit variance is (int f)^2
        f_int = float(np.sum(functional.weights) * spec_grid.mesh[0])
        result["limit_variance"] = f_int**2
    if args.reps:
        args._fine_mesh = fine_mesh(spec_grid.steps, args.n_internal)
        mc_vars, ks_vals = [], []
        cdf = target_cdf_hermite_limit(args.q)
        for h in hurst_grid:
            spec = HermiteSpec(args.q, HurstMultiIndex(float(h)))

            def sampler(stream, spec=spec):
                return functional.sample(spec, args.n_internal, stream)

            samples = collect_samples(sampler, args.reps, args.seed, threads=args.threads)
            mc_vars.append(float(np.var(samples)))
            if args.target == "one":
                ks_vals.append(ks_distance(samples / f_int, cdf))
        result["mc_variances"] = mc_vars
        if ks_vals:
            result["ks_distances"] = ks_vals
            result["ks_decreasing"] = bool(
                all(ks_vals[i + 1] <= ks_vals[i] for i in range(len(ks_vals) - 1))
            )
    return result


def _cmd_heat(args) -> dict:
    hurst = _hurst_list(args.hurst)
    spec = HeatSpec(
        args.q, args.h0, hurst,
        trunc=args.trunc, t_steps=args.t_steps, x_steps=args.x_steps,
        n_internal=args.n_internal,
    )
    result: dict = {
        "gamma_cond": existence_condition(spec.h0, spec.h, spec.d).gamma_cond,
        "quadrature_covariance": heat_covariance_quadrature(spec, args.t, args.s),
    }
    d = len(hurst)
    scenario = LimitScenario(a_axes=tuple(range(d)))
    if d == 1:
        result["white_noise_limit"] = heat_limit_covariance(scenario, None, args.t, args.s)
    if args.reps:
        args._fine_mesh = fine_mesh(spec.steps, spec.n_internal)
        x = tuple([0.0] * d)

        def sampler(stream):
            return sample_mild_solution(spec, args.t, x, stream)

        samples = collect_samples(sampler, args.reps, args.seed, threads=args.threads)
        rep = report_from_samples(samples, args.seed)
        result.update({f"mc_{k}": v for k, v in rep.as_dict().items()})
        result["mc_over_quadrature"] = rep.variance / result["quadrature_covariance"]
    return result


def _cmd_ou(args) -> dict:
    if args.limit_cov:
        value = ou_limit_covariance(args.limit_cov, args.t, args.s, args.lam, args.sigma)
        return {"kind": args.limit_cov, "t": args.t, "s": args.s, "covariance": value}
    spec = OUSpec(
        lam=args.lam, sigma=args.sigma, q=args.q, H=float(args.hurst),
        xi=args.xi, stationary=args.stationary,
        M=args.horizon,
    )
    grid = GridSpec(0.0, args.t_max, args.grid)
    args._fine_mesh = fine_mesh(driving_grid(spec, grid).steps, args.n_internal)

    def sampler(stream):
        return float(simulate_hou(spec, grid, stream, args.n_internal).values[-1])

    samples = collect_samples(sampler, args.reps, args.seed, threads=args.threads)
    rep = report_from_samples(samples, args.seed)
    out = rep.as_dict()
    kind = "stationary" if args.stationary else "nonstationary"
    out["limit_covariance_half"] = ou_limit_covariance(
        kind, args.t_max, args.t_max, args.lam, args.sigma
    )
    return out


def _cmd_powercount(args) -> dict:
    with open(args.spec) as fh:
        data = json.load(fh)
    H = Fraction(args.H) if args.H else None
    gamma = Fraction(args.gamma) if args.gamma else None
    system = system_from_dict(data, H=H, gamma=gamma)
    return check_integrability(system).as_dict()


def _cmd_verify(args) -> dict:
    ok = acceptance.run_all(seed=args.seed, fast=args.fast, threads=args.threads)
    if not ok:
        raise DomainError("acceptance suite failed")
    return {"acceptance": "pass"}


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="hermlab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_default=None):
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed (fallback: HERMLAB_SEED, then 0; for verify, "
                             "then the acceptance MASTER_SEED)")
        sp.add_argument("--threads", type=int, default=None, help="default: one per CPU")
        sp.add_argument("--out", default=out_default)

    sp = sub.add_parser("simulate", help="Hermite sheet paths -> CSV")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--hurst", required=True, help="comma-separated per-axis Hurst values")
    sp.add_argument("--grid", type=int, default=512)
    sp.add_argument("--t-max", dest="t_max", type=float, default=1.0)
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--n-internal", dest="n_internal", type=int, default=2**14)
    common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("integral", help="Wiener-Hermite integral MC + isometry check -> JSON")
    sp.add_argument("--f", default="exp_window", choices=["exp_window", "indicator"])
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--hurst", required=True)
    sp.add_argument("--reps", type=int, default=5000)
    sp.add_argument("--grid", type=int, default=512)
    sp.add_argument("--n-internal", dest="n_internal", type=int, default=2**14)
    sp.add_argument("--panels", type=int, default=512)
    common(sp)
    sp.set_defaults(func=_cmd_integral)

    sp = sub.add_parser("sweep", help="H-grid limit experiment -> JSON trend report")
    sp.add_argument("--target", choices=["one", "half"], required=True)
    sp.add_argument("--hurst-grid", dest="hurst_grid", required=True)
    sp.add_argument("--f", default="exp_window", choices=["exp_window", "indicator"])
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--reps", type=int, default=0, help="0 = quadrature only")
    sp.add_argument("--grid", type=int, default=512)
    sp.add_argument("--n-internal", dest="n_internal", type=int, default=2**13)
    sp.add_argument("--panels", type=int, default=512)
    common(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("heat", help="mild-solution MC + covariance quadrature -> JSON")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--h0", type=float, required=True)
    sp.add_argument("--hurst", required=True)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--s", type=float, default=1.0)
    sp.add_argument("--reps", type=int, default=0)
    sp.add_argument("--trunc", type=float, default=None)
    sp.add_argument("--t-steps", dest="t_steps", type=int, default=512)
    sp.add_argument("--x-steps", dest="x_steps", type=int, default=512)
    sp.add_argument("--n-internal", dest="n_internal", type=int, default=512)
    common(sp)
    sp.set_defaults(func=_cmd_heat)

    sp = sub.add_parser("ou", help="OU simulation and limit checks -> JSON")
    sp.add_argument("--limit-cov", dest="limit_cov", choices=["nonstationary", "stationary"])
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--s", type=float, default=1.0)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--hurst", default="0.7")
    sp.add_argument("--xi", type=float, default=0.0)
    sp.add_argument("--stationary", action="store_true")
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--t-max", dest="t_max", type=float, default=1.0)
    sp.add_argument("--grid", type=int, default=512)
    sp.add_argument("--reps", type=int, default=2000)
    sp.add_argument("--n-internal", dest="n_internal", type=int, default=2**13)
    common(sp)
    sp.set_defaults(func=_cmd_ou)

    sp = sub.add_parser("powercount", help="system JSON -> integrability verdict JSON")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--H", default=None, help="rational value for the symbol H, e.g. 3/5")
    sp.add_argument("--gamma", default=None, help="rational value for the symbol gamma")
    common(sp)
    sp.set_defaults(func=_cmd_powercount)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--fast", action="store_true", help="reduced replicate counts")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    args.seed = _resolve_seed(args)
    started = time.time()
    try:
        payload = args.func(args)
    except (DomainError, UnsupportedError, ResourceError, RuntimeError, OSError, ValueError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
