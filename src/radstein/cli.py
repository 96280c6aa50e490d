"""Batch experiment harness.

Subcommands: ``verify`` runs the seeded identity suites; ``bound`` evaluates
requested bounds against exact distances for a JSON experiment spec;
``j2-rate`` sweeps the order-2 star example; ``bernoulli`` bounds a Bernoulli
sum directly from the command line.

Exit codes: 0 success, 2 validation failure, 3 identity-suite failure,
4 domination violation (a bound fell below the exact distance).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from .chaos import ChaosExpansion, evaluate_on_signs, to_table
from .distance import (
    atom_law,
    tv_atoms_vs_poisson,
    tv_exact,
    tv_monte_carlo,
    w1_exact,
)
from .errors import RadsteinError, SpecParseError
from .kernels import Kernel, inner_product
from .model import (
    ENUMERATION_CAP,
    build_model,
    distribution,
    expectation,
    variance,
)
from .verify import CORRUPTION_TAGS, run_verification

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IDENTITY = 3
EXIT_DOMINATION = 4

_ENUMERATION_METHODS = {"main", "main_reduced", "second_order", "wasserstein"}
_KERNEL_METHODS = {"j1", "j2", "jm", "bernoulli", "j2_example"}
_DOMINATION_SLACK = 1e-12


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _is_number(value) -> bool:
    """A JSON number that converts to a finite float; booleans do not count."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _emit(payload: dict, rows: list, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps({**payload, "rows": rows}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            header = list(rows[0])
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row[key]) for key in header])
        text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_kernels(node, location: str) -> dict:
    if not isinstance(node, list):
        raise SpecParseError("kernels must be a list of [tuple, coefficient]", location)
    grouped: dict[int, list] = {}
    for i, pair in enumerate(node):
        where = f"{location}[{i}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SpecParseError("expected a [tuple, coefficient] pair", where)
        key, coeff = pair
        if not isinstance(key, list) or not key:
            raise SpecParseError("index tuple must be a nonempty list", where)
        if any(type(i_) is not int or i_ < 1 for i_ in key):
            raise SpecParseError("indices must be 1-based integers", where)
        if any(a >= b for a, b in zip(key, key[1:])):
            raise SpecParseError("index tuple must be strictly increasing", where)
        if not _is_number(coeff):
            raise SpecParseError("coefficient must be a finite number", where)
        grouped.setdefault(len(key), []).append((tuple(key), float(coeff)))
    return {
        order: Kernel.from_pairs(order, pairs) for order, pairs in grouped.items()
    }


def _resolve_lambda(policy, mean: float, var: float, location: str) -> float:
    if policy == "mean":
        lam = mean
    elif policy == "variance":
        lam = var
    elif _is_number(policy):
        lam = float(policy)
    else:
        raise SpecParseError(
            f"lambda must be a number, 'mean' or 'variance', got {policy!r}", location
        )
    if not (math.isfinite(lam) and lam > 0):
        raise SpecParseError(f"resolved lambda {lam!r} is not positive", location)
    return lam


def _bernoulli_expansion(model) -> ChaosExpansion:
    """sum_k (X_k + 1)/2 as its mean plus the order-1 kernel k -> sqrt(p_k q_k)."""
    kernel = Kernel(1, {(k,): model.sigma[k - 1] for k in range(1, model.size + 1)})
    return ChaosExpansion(float(np.sum(model.p)), {1: kernel})


def _j2_example_exact_tv(n: int, lam: float) -> float:
    """Exact total variation between the order-2 star example's law and Po(lam)."""
    model, kernel = bounds_mod.j2_example_kernel(n)
    table = to_table(model, ChaosExpansion(0.0, {2: kernel}))
    return tv_atoms_vs_poisson(atom_law(model, table.values), lam).value


def _bound_row(report, exact_value, exact_kind: str, shrink: bool) -> dict:
    total = report.total * (1e-4 if shrink else 1.0)
    row = {
        "method": report.method,
        "lambda": report.lam,
        "term_mean_shift": report.term_mean_shift,
        "term_variance_like": report.term_variance_like,
        "term_remainder": report.term_remainder,
        "total": total,
        "exact_kind": exact_kind,
        "exact": exact_value,
        "dominates": (
            None if exact_value is None else total >= exact_value - _DOMINATION_SLACK
        ),
    }
    return row


def _run_bound_spec(doc: dict, shrink: bool) -> tuple:
    functional = doc.get("functional")
    if not isinstance(functional, dict) or len(functional) != 1:
        raise SpecParseError(
            "functional must hold exactly one of: chaos, bernoulli, j2_example",
            "$.functional",
        )
    form, payload = next(iter(functional.items()))
    seed = doc.get("seed", 0)
    if not (type(seed) is int and 0 <= seed < 2**128):
        raise SpecParseError(
            f"seed must be an integer in [0, 2^128), got {seed!r}", "$.seed"
        )
    mc_samples = doc.get("mc_samples")
    if mc_samples is not None and type(mc_samples) is not int:
        raise SpecParseError(
            f"mc_samples must be an integer or null, got {mc_samples!r}",
            "$.mc_samples",
        )
    requested = doc.get("bounds")
    if requested is not None and not (
        isinstance(requested, list) and all(isinstance(m, str) for m in requested)
    ):
        raise SpecParseError("bounds must be a list of method names", "$.bounds")

    if form == "j2_example":
        n = payload.get("n") if isinstance(payload, dict) else None
        if not isinstance(n, int) or n < 2:
            raise SpecParseError("j2_example needs an integer n >= 2", "$.functional")
        requested = requested or ["j2_example"]
        if any(m != "j2_example" for m in requested):
            raise SpecParseError(
                "the j2_example functional supports only the j2_example method",
                "$.bounds",
            )
        record = bounds_mod.j2_example(n)
        lam = _resolve_lambda(doc.get("lambda", "variance"), 0.0, record.lam, "$.lambda")
        if abs(lam - record.lam) > 1e-12:
            raise SpecParseError(
                "the j2_example closed forms are assembled at lambda = Var", "$.lambda"
            )
        exact = _j2_example_exact_tv(n, lam) if n <= ENUMERATION_CAP else None
        report = bounds_mod.BoundReport(
            record.lam,
            record.a1,
            record.a2,
            record.total - record.a1 - record.a2,
            record.total,
            "j2_example",
        )
        row = _bound_row(report, exact, "tv", shrink)
        return [row], {"functional": "j2_example", "n": n}

    model_node = doc.get("model")
    if not isinstance(model_node, dict) or "p" not in model_node:
        raise SpecParseError("model must be an object with a 'p' vector", "$.model")
    if not isinstance(model_node["p"], list) or not all(
        _is_number(pk) for pk in model_node["p"]
    ):
        raise SpecParseError("p must be a list of numbers", "$.model.p")
    try:
        model = build_model(model_node["p"])
    except RadsteinError as err:
        raise SpecParseError(str(err), "$.model.p") from err

    if form == "bernoulli":
        expansion = _bernoulli_expansion(model)
        default_methods = ["bernoulli"]
    elif form == "chaos":
        if not isinstance(payload, dict):
            raise SpecParseError("chaos literal must be an object", "$.functional.chaos")
        kernels = _parse_kernels(payload.get("kernels", []), "$.functional.chaos.kernels")
        mean = payload.get("mean", 0.0)
        if not _is_number(mean):
            raise SpecParseError(
                "mean must be a finite number", "$.functional.chaos.mean"
            )
        expansion = ChaosExpansion(float(mean), kernels)
        if expansion.max_index() > model.size:
            raise SpecParseError(
                f"kernel index {expansion.max_index()} exceeds model size {model.size}",
                "$.functional.chaos.kernels",
            )
        default_methods = ["main"]
    else:
        raise SpecParseError(f"unknown functional form {form!r}", "$.functional")

    requested = requested or default_methods
    known = _ENUMERATION_METHODS | _KERNEL_METHODS
    for method in requested:
        if method not in known or method == "j2_example":
            raise SpecParseError(f"unknown bound method {method!r}", "$.bounds")

    use_enumeration = model.size <= ENUMERATION_CAP
    if not use_enumeration:
        if any(m in _ENUMERATION_METHODS for m in requested):
            raise SpecParseError(
                f"methods {sorted(_ENUMERATION_METHODS)} need N <= {ENUMERATION_CAP}",
                "$.bounds",
            )
        if not mc_samples:
            raise SpecParseError(
                f"N = {model.size} exceeds the enumeration cap; set mc_samples",
                "$.mc_samples",
            )

    table = None
    if use_enumeration:
        try:
            table = to_table(model, expansion)
        except ValueError as err:
            raise SpecParseError(str(err), f"$.functional.{form}") from err
        mean = expectation(model, table)
        var = variance(model, table)
    else:
        mean = expansion.mean
        var = sum(
            math.factorial(o) * inner_product(k, k)
            for o, k in expansion.kernels.items()
        )
    lam = _resolve_lambda(doc.get("lambda", "mean"), mean, var, "$.lambda")

    exact_tv = exact_w1 = None
    if use_enumeration:
        dist = distribution(model, table)
        exact_tv = tv_exact(dist, lam).value
        exact_w1 = w1_exact(dist, lam).value
    elif mc_samples:
        exact_tv = tv_monte_carlo(
            model,
            lambda signs: evaluate_on_signs(model, expansion, signs),
            lam,
            int(mc_samples),
            seed,
        ).value

    rows = []
    streamed = {}
    for method in requested:
        if method in bounds_mod.STREAMED_METHODS:
            streamed = streamed or bounds_mod.enumeration_bounds(
                model, table, lam, set(requested) & set(bounds_mod.STREAMED_METHODS)
            )
            report = streamed[method]
        elif method == "second_order":
            report = bounds_mod.second_order_bound(model, table, lam)
        elif method == "bernoulli":
            report = bounds_mod.bernoulli_bound(model.p, lam)
        elif method == "j1":
            if expansion.orders != [1]:
                raise SpecParseError(
                    "j1 needs a pure order-1 functional", "$.bounds"
                )
            report = bounds_mod.j1_bound(
                model,
                expansion.kernel(1),
                expansion.mean,
                lam,
                check_integer=use_enumeration,
            )
        elif method in ("j2", "jm"):
            orders = expansion.orders
            if len(orders) != 1 or orders[0] < 2:
                raise SpecParseError(
                    f"{method} needs a single fixed order >= 2", "$.bounds"
                )
            fn = bounds_mod.j2_bound if method == "j2" else bounds_mod.jm_bound
            if method == "j2" and orders[0] != 2:
                raise SpecParseError("j2 needs an order-2 kernel", "$.bounds")
            report = fn(
                model,
                expansion.kernel(orders[0]),
                expansion.mean,
                lam,
                check_integer=use_enumeration,
            )
        exact = exact_w1 if method == "wasserstein" else exact_tv
        kind = "w1" if method == "wasserstein" else "tv"
        rows.append(_bound_row(report, exact, kind, shrink))
    return rows, {"functional": form, "n_coordinates": model.size, "seed": seed}


def _resolve_format(args, doc=None) -> str:
    fmt = args.format or (doc.get("format") if isinstance(doc, dict) else None) or "json"
    if fmt not in ("json", "csv"):
        raise SpecParseError(f"format must be 'json' or 'csv', got {fmt!r}", "$.format")
    return fmt


def _cmd_verify(args) -> int:
    report = run_verification(seed=args.seed, corrupt=args.inject_fault)
    rows = [c.as_dict() for c in report.checks]
    for row in rows:
        row.setdefault("witness", None)
    _emit(
        {"command": "verify", "seed": report.seed, "passed": report.passed},
        rows,
        _resolve_format(args),
        args.out,
    )
    if not report.passed:
        failure = report.first_failure()
        sys.stderr.write(f"identity check failed: {failure.name}\n")
        return EXIT_IDENTITY
    return EXIT_OK


def _cmd_bound(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        sys.stderr.write(f"cannot read spec: {err}\n")
        return EXIT_VALIDATION
    except json.JSONDecodeError as err:
        sys.stderr.write(f"spec is not valid JSON: {err}\n")
        return EXIT_VALIDATION
    if not isinstance(doc, dict):
        raise SpecParseError("spec document must be a JSON object", "$")
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.mc_samples is not None:
        doc["mc_samples"] = args.mc_samples
    rows, meta = _run_bound_spec(doc, shrink=args.inject_fault == "shrink-total")
    _emit({"command": "bound", **meta}, rows, _resolve_format(args, doc), args.out)
    if any(row["dominates"] is False for row in rows):
        sys.stderr.write("domination violation: a bound fell below the exact distance\n")
        return EXIT_DOMINATION
    return EXIT_OK


def _cmd_j2_rate(args) -> int:
    if args.n_min < 2 or args.n_max < args.n_min or args.step < 1:
        sys.stderr.write("need 2 <= n-min <= n-max and step >= 1\n")
        return EXIT_VALIDATION
    shrink = args.inject_fault == "shrink-total"
    rows = []
    rate_ok = True
    domination_ok = True
    for n in range(args.n_min, args.n_max + 1, args.step):
        record = bounds_mod.j2_example(n)
        total = record.total * (1e-4 if shrink else 1.0)
        rate = total * math.sqrt(n)
        rate_ok = rate_ok and rate <= bounds_mod.J2_RATE_CONSTANT + 1e-12
        exact = None
        dominates = None
        if n <= 12:
            exact = _j2_example_exact_tv(n, record.lam)
            dominates = total >= exact - _DOMINATION_SLACK
            domination_ok = domination_ok and dominates
        rows.append(
            {
                "n": n,
                "lambda": record.lam,
                "a1": record.a1,
                "a2": record.a2,
                "a3": record.a3,
                "a4": record.a4,
                "a5": record.a5,
                "a6": record.a6,
                "total": total,
                "rate": rate,
                "exact_tv": exact,
                "dominates": dominates,
            }
        )
    _emit(
        {
            "command": "j2-rate",
            "rate_constant": bounds_mod.J2_RATE_CONSTANT,
            "rate_within_constant": rate_ok,
        },
        rows,
        _resolve_format(args),
        args.out,
    )
    if not rate_ok:
        sys.stderr.write("rate constant violated\n")
        return EXIT_IDENTITY
    if not domination_ok:
        sys.stderr.write(
            "domination violation: the closed-form total falls below the exact "
            "total variation of the example's law\n"
        )
        return EXIT_DOMINATION
    return EXIT_OK


def _cmd_bernoulli(args) -> int:
    if not 0 <= args.seed < 2**128:
        sys.stderr.write(f"--seed must be an integer in [0, 2^128), got {args.seed}\n")
        return EXIT_VALIDATION
    try:
        model = build_model(args.p)
    except RadsteinError as err:
        sys.stderr.write(f"{err}\n")
        return EXIT_VALIDATION
    mean = float(np.sum(model.p))
    if args.lam == "mean":
        lam = mean
    else:
        try:
            lam = float(args.lam)
        except ValueError:
            sys.stderr.write(f"invalid lambda {args.lam!r}\n")
            return EXIT_VALIDATION
    if lam <= 0:
        sys.stderr.write("lambda must be positive\n")
        return EXIT_VALIDATION
    report = bounds_mod.bernoulli_bound(model.p, lam)
    exact = None
    if model.size <= ENUMERATION_CAP:
        dist = distribution(model, bounds_mod.bernoulli_sum_table(model))
        exact = tv_exact(dist, lam).value
    elif args.mc_samples:
        expansion = _bernoulli_expansion(model)
        exact = tv_monte_carlo(
            model,
            lambda signs: evaluate_on_signs(model, expansion, signs),
            lam,
            args.mc_samples,
            args.seed,
        ).value
    row = _bound_row(report, exact, "tv", args.inject_fault == "shrink-total")
    _emit(
        {"command": "bernoulli", "n_coordinates": model.size},
        [row],
        _resolve_format(args),
        args.out,
    )
    if row["dominates"] is False:
        sys.stderr.write("domination violation\n")
        return EXIT_DOMINATION
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="radstein",
        description=(
            "Poisson approximation bounds for functionals of finite biased "
            "sign sequences, checked against exact enumeration"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mc-samples", type=int, default=None)
        p.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)

    p_verify = sub.add_parser("verify", help="run the seeded identity suites")
    common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_bound = sub.add_parser("bound", help="evaluate bounds for a JSON spec")
    p_bound.add_argument("spec", help="path to the experiment spec (JSON)")
    common(p_bound)
    p_bound.set_defaults(handler=_cmd_bound)

    p_rate = sub.add_parser("j2-rate", help="sweep the order-2 star example")
    p_rate.add_argument("--n-min", type=int, required=True)
    p_rate.add_argument("--n-max", type=int, required=True)
    p_rate.add_argument("--step", type=int, default=1)
    common(p_rate)
    p_rate.set_defaults(handler=_cmd_j2_rate)

    p_bern = sub.add_parser("bernoulli", help="bound a Bernoulli sum")
    p_bern.add_argument("--p", type=float, nargs="+", required=True)
    p_bern.add_argument("--lambda", dest="lam", default="mean")
    common(p_bern)
    p_bern.set_defaults(handler=_cmd_bernoulli)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.seed is None:
        args.seed = 0
    if args.command == "verify" and args.inject_fault is not None:
        if args.inject_fault not in CORRUPTION_TAGS:
            sys.stderr.write(f"unknown fault tag {args.inject_fault!r}\n")
            return EXIT_VALIDATION
    if args.command == "bernoulli" and args.seed is None:
        args.seed = 0
    try:
        # On huge but finite specs numpy's overflow warnings would precede
        # radstein's own message on stderr.
        with np.errstate(all="ignore"):
            return args.handler(args)
    except SpecParseError as err:
        sys.stderr.write(f"spec error at {err.location or '$'}: {err}\n")
        return EXIT_VALIDATION
    except RadsteinError as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
