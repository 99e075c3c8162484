"""Command line front end: route comparison, verification suites, benchmarks.

Exit codes: 0 on success, 1 on numerical failure (including any failing
verification row), 2 on usage or validation failure.  Validation failures
print a machine-readable error object to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import namedtuple

from .core import (
    ModelParams,
    NumericalError,
    ROUTE_TABLE,
    ROUTES,
    ValidationError,
)

DEFAULT_TOLERANCES = {"route_agreement": 1e-9}
BENCH_REPEATS = 3  # timed evaluations per bench row; the row reports their median

_CONFIG_KEYS = {"L", "gamma", "theta", "mu", "lambda", "routes", "seed",
                "tolerances", "contour"}
_CONTOUR_KEYS = {"center", "radius", "nodes"}


class ConfigError(ValidationError):
    """The job configuration file is malformed."""


def _need_number(value, where):
    # json.load accepts NaN, Infinity and integers past the float range;
    # none of them is a usable parameter.
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{where} must be a finite number")


def _parse_complex(obj, where) -> complex:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ConfigError(
            f"{where} must be an object with exactly the keys 're' and 'im'"
        )
    return complex(_need_number(obj["re"], f"{where}.re"),
                   _need_number(obj["im"], f"{where}.im"))


def _route_list(routes) -> tuple:
    """The requested routes, if they are a nonempty list of distinct names."""
    if (not isinstance(routes, list) or not routes
            or any(r not in ROUTES for r in routes)
            or len(set(routes)) != len(routes)):
        raise ConfigError(
            f"routes must be a nonempty list of distinct entries from "
            f"{list(ROUTES)}"
        )
    return tuple(routes)


class JobConfig(namedtuple("JobConfig",
                            "params lambdas routes tolerances contour")):
    """A fully parsed and validated compute job.

    ``contour`` is a :class:`sosdw.contour.ContourSpec`, or None when the
    job gives none.
    """

    __slots__ = ()


def load_job_config(path: str) -> JobConfig:
    """Parse the strict JSON job format; unknown keys are errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("L", "gamma", "theta", "mu", "lambda", "routes"):
        if key not in raw:
            raise ConfigError(f"missing config key: {key}")

    if isinstance(raw["L"], bool) or not isinstance(raw["L"], int):
        raise ConfigError("L must be an integer")
    L = raw["L"]
    gamma = _parse_complex(raw["gamma"], "gamma")
    theta = _parse_complex(raw["theta"], "theta")
    for key in ("mu", "lambda"):
        if not isinstance(raw[key], list) or len(raw[key]) != L:
            raise ConfigError(f"{key} must be an array of length L")
    mu = tuple(_parse_complex(z, f"mu[{i}]")
               for i, z in enumerate(raw["mu"]))
    lambdas = tuple(_parse_complex(z, f"lambda[{i}]")
                    for i, z in enumerate(raw["lambda"]))

    routes = _route_list(raw["routes"])

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in raw:
        if not isinstance(raw["tolerances"], dict):
            raise ConfigError("tolerances must be an object")
        unknown = set(raw["tolerances"]) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
        for key, value in raw["tolerances"].items():
            tolerance = _need_number(value, f"tolerances.{key}")
            if tolerance <= 0:
                raise ConfigError(f"tolerances.{key} must be positive")
            tolerances[key] = tolerance

    spec = None
    if "contour" in raw:
        cobj = raw["contour"]
        if not isinstance(cobj, dict) or set(cobj) - _CONTOUR_KEYS:
            raise ConfigError(
                f"contour must be an object with keys among "
                f"{sorted(_CONTOUR_KEYS)}"
            )
        if "center" not in cobj or "radius" not in cobj:
            raise ConfigError("contour needs 'center' and 'radius'")
        from .contour import DEFAULT_NODES, ContourSpec
        nodes = cobj.get("nodes", DEFAULT_NODES)
        if isinstance(nodes, bool) or not isinstance(nodes, int):
            raise ConfigError("contour.nodes must be an integer")
        spec = ContourSpec(
            center=_parse_complex(cobj["center"], "contour.center"),
            radius=_need_number(cobj["radius"], "contour.radius"),
            nodes=nodes,
        )

    params = ModelParams(gamma=gamma, theta=theta, mu=mu, L=L)
    return JobConfig(params=params, lambdas=lambdas, routes=routes,
                     tolerances=tolerances, contour=spec)


def _g17(x: float) -> str:
    return f"{x:.17g}"


def pairwise_deviations(values: dict, tol: float) -> list:
    """Relative deviation of every pair of route values, in route order.

    A NaN or infinite value gives a NaN deviation, which is never within
    tolerance.
    """
    names = list(values)
    deviations = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            za, zb = values[names[a]], values[names[b]]
            diff = abs(za - zb)
            scale = max(abs(za), abs(zb))
            rel = diff / scale if scale > 0 else diff
            deviations.append({
                "routes": [names[a], names[b]],
                "relative": rel,
                "within_tolerance": rel < tol,
            })
    return deviations


def compute_report(cfg: JobConfig, with_timings: bool = True) -> dict:
    """Run every requested route and assemble the comparison report."""
    values, routes = {}, {}
    for route in cfg.routes:
        t0 = time.perf_counter()
        value, _ = ROUTE_TABLE[route].evaluate(cfg.params, cfg.lambdas,
                                               cfg.contour)
        wall_ms = (time.perf_counter() - t0) * 1e3
        entry = {"value": {"re": value.real, "im": value.imag}}
        if with_timings:
            entry["wall_ms"] = wall_ms
        values[route] = value
        routes[route] = entry

    return {
        "L": cfg.params.L,
        "routes": routes,
        "deviations": pairwise_deviations(
            values, cfg.tolerances["route_agreement"]),
        "tolerances": cfg.tolerances,
    }


def render_report(report: dict, with_timings: bool) -> str:
    """Human table form of a compute report, floats at 17 digits."""
    lines = [f"partition function report  L={report['L']}"]
    header = f"{'route':<13}{'value':<58}"
    if with_timings:
        header += "wall_ms"
    lines.append(header)
    for route, entry in report["routes"].items():
        v = entry["value"]
        val = f"{_g17(v['re'])} {v['im']:+.17g}j"
        line = f"{route:<13}{val:<58}"
        if with_timings:
            line += f"{entry['wall_ms']:.3f}"
        lines.append(line)
    tol = report["tolerances"]["route_agreement"]
    if report["deviations"]:
        lines.append(f"pairwise relative deviations "
                     f"(tolerance {_g17(tol)}):")
        for dev in report["deviations"]:
            tag = "PASS" if dev["within_tolerance"] else "FAIL"
            pair = "|".join(dev["routes"])
            lines.append(f"  {pair:<24}{_g17(dev['relative']):<26}{tag}")
    return "\n".join(lines)


def cmd_compute(args) -> int:
    cfg = load_job_config(args.config)
    report = compute_report(cfg, with_timings=not args.no_timings)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report, with_timings=not args.no_timings))
    if any(not dev["within_tolerance"] for dev in report["deviations"]):
        return 1
    return 0


def _suite_name(name: str) -> str:
    """A ``verify.SUITES`` name; ``verify`` is imported only to check one."""
    from .verify import SUITES
    if name not in SUITES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {list(SUITES)})")
    return name


def cmd_verify(args) -> int:
    from .verify import SUITE_NAMES, run_suite
    passed = True
    for i, name in enumerate(args.suite or SUITE_NAMES):
        report = run_suite(name, args.seed, args.draws)
        if i:
            print()
        print(report.render(), flush=True)
        passed = passed and report.passed
    return 0 if passed else 1


def cmd_bench(args) -> int:
    import random
    from .sampling import draw_model
    routes = _route_list(
        [r.strip() for r in args.routes.split(",") if r.strip()])
    if args.lmin < 1 or args.lmax < args.lmin:
        raise ConfigError("need 1 <= lmin <= lmax")

    rows = ["route,L,nodes_or_terms,wall_ms,value_re,value_im"]
    for route in routes:
        spec = ROUTE_TABLE[route]
        for L in range(args.lmin, min(args.lmax, spec.cap) + 1):
            rng = random.Random(1000 + L)
            params, lams = draw_model(rng, L, routes=(route,))
            if L == args.lmin:
                # untimed, so that no row times a lazy import
                spec.evaluate(params, lams, None)
            samples = []
            for _ in range(BENCH_REPEATS):
                t0 = time.perf_counter()
                value, detail = spec.evaluate(params, lams, None)
                samples.append((time.perf_counter() - t0) * 1e3)
            wall_ms = sorted(samples)[BENCH_REPEATS // 2]  # the median
            rows.append(
                f"{route},{L},{spec.workload(L, detail)},{wall_ms:.3f},"
                f"{_g17(value.real)},{_g17(value.imag)}"
            )
    text = "\n".join(rows)
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write csv file: {exc}") from exc
        print(f"wrote {len(rows) - 1} rows to {args.csv}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sosdw",
        description="Domain-wall partition function: compute, verify, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="evaluate the partition function by chosen routes"
    )
    p_compute.add_argument("--config", required=True,
                           help="path to a JSON job file")
    p_compute.add_argument("--json", action="store_true",
                           help="machine-readable report")
    p_compute.add_argument("--no-timings", action="store_true",
                           help="omit wall times for bit-reproducible output")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser(
        "verify", help="run randomized identity suites"
    )
    p_verify.add_argument("--suite", action="append", type=_suite_name,
                          help="suite to run; repeat for several "
                               "(default: all, in table order)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--draws", type=int, default=20)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser(
        "bench", help="time each route across a range of system sizes"
    )
    p_bench.add_argument("--lmin", type=int, required=True)
    p_bench.add_argument("--lmax", type=int, required=True)
    p_bench.add_argument("--routes", default=",".join(ROUTES),
                         help="comma list of routes")
    p_bench.add_argument("--csv", default=None,
                         help="write the table to this path")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, NumericalError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}),
              file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1


if __name__ == "__main__":
    sys.exit(main())
