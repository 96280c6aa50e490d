"""Batch experiment harness.

Subcommands: ``verify`` runs the seeded identity suites; ``bound`` evaluates
requested bounds against exact distances for a JSON experiment spec, checked
in full before any 2^N table is built; ``j2-rate`` sweeps the order-2 star
example; ``bernoulli`` is ``bound`` on the Bernoulli-sum spec that its flags
spell.  Both bound commands run one spec path, and ``main`` alone writes the
report and picks the exit code.

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
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from .chaos import ChaosExpansion, covariance, evaluate_on_signs, to_table
from .distance import (
    SEED_LIMIT,
    atom_law,
    tv_atoms_vs_poisson,
    tv_exact,
    tv_monte_carlo,
    w1_exact,
)
from .errors import RadsteinError, SpecParseError
from .kernels import Kernel
from .model import (
    ENUMERATION_CAP,
    build_model,
    distribution,
    expectation,
    stable_sum,
    variance,
)
from .verify import CORRUPTION_TAGS, run_verification

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IDENTITY = 3
EXIT_DOMINATION = 4

_ENUMERATION_METHODS = {"main", "main_reduced", "second_order", "wasserstein"}
_KERNEL_METHODS = {"j1", "j2", "jm", "bernoulli"}
_DOMINATION_SLACK = 1e-12
# The most rows one j2-rate sweep may have; a longer one is refused at once.
MAX_SWEEP_ROWS = 10**5


class _Rejected(Exception):
    """A flag or I/O rejection; ``main`` prints its message as is (exit 2)."""


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
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise _Rejected(f"cannot write report: {err}") from err
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
    try:
        return {o: Kernel.from_pairs(o, pairs) for o, pairs in grouped.items()}
    except OverflowError:
        message = "duplicate entries sum beyond the float range"
        raise SpecParseError(message, location) from None


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
    return ChaosExpansion(stable_sum(model.p), {1: kernel})


def _j2_example_exact_tv(n: int, lam: float) -> float:
    """Exact total variation between the order-2 star example's law and Po(lam)."""
    model, kernel = bounds_mod.j2_example_kernel(n)
    table = to_table(model, ChaosExpansion(0.0, {2: kernel}))
    return tv_atoms_vs_poisson(atom_law(model, table.values), lam).value


def _j2_closed_forms(n: int):
    """``bounds.j2_example(n)``, or None where its powers of n overflow."""
    try:
        return bounds_mod.j2_example(n)
    except OverflowError:
        return None


def _dominates(total: float, exact) -> bool | None:
    return None if exact is None else total >= exact - _DOMINATION_SLACK


def _bound_row(report, exact_value, exact_kind: str, shrink: bool) -> dict:
    total = report.total * (1e-4 if shrink else 1.0)
    return {
        "method": report.method,
        "lambda": report.lam,
        "term_mean_shift": report.term_mean_shift,
        "term_variance_like": report.term_variance_like,
        "term_remainder": report.term_remainder,
        "total": total,
        "exact_kind": exact_kind,
        "exact": exact_value,
        "dominates": _dominates(total, exact_value),
    }


def _parse_bound_spec(doc: dict) -> tuple:
    """Every check of a ``bound`` spec except its format, before any work.
    Returns the report header and a function of ``shrink`` that computes the
    rows."""
    functional = doc.get("functional")
    if not isinstance(functional, dict) or len(functional) != 1:
        raise SpecParseError(
            "functional must hold exactly one of: chaos, bernoulli, j2_example",
            "$.functional",
        )
    form, payload = next(iter(functional.items()))
    seed = doc.get("seed", 0)
    if not (type(seed) is int and 0 <= seed < SEED_LIMIT):
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
        record = _j2_closed_forms(n)
        if record is None:
            raise SpecParseError(
                "j2_example's closed forms overflow at this n", "$.functional"
            )
        lam = _resolve_lambda(doc.get("lambda", "variance"), 0.0, record.lam, "$.lambda")
        if abs(lam - record.lam) > 1e-12:
            raise SpecParseError(
                "the j2_example closed forms are assembled at lambda = Var", "$.lambda"
            )
        a1, a2, total = record.a1, record.a2, record.total
        report = bounds_mod.BoundReport(
            record.lam, a1, a2, total - a1 - a2, total, "j2_example"
        )

        def example_rows(shrink: bool) -> list:
            exact = _j2_example_exact_tv(n, lam) if n <= ENUMERATION_CAP else None
            return [_bound_row(report, exact, "tv", shrink)]

        return {"functional": "j2_example", "n": n}, example_rows

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
        default_methods, table_of = ["bernoulli"], bounds_mod.bernoulli_sum_table
        # Sampled rows are +-1, so the sum is each row's count of +1 entries.
        sampled = lambda signs: np.count_nonzero(signs == 1, axis=1)
        moments = stable_sum(model.p), stable_sum(model.p * model.q)
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
        default_methods, moments = ["main"], None
        table_of = functools.partial(to_table, expansion=expansion)
        sampled = functools.partial(evaluate_on_signs, model, expansion)
    else:
        raise SpecParseError(f"unknown functional form {form!r}", "$.functional")

    requested = requested or default_methods
    known = _ENUMERATION_METHODS | _KERNEL_METHODS
    for method in requested:
        if method not in known:
            raise SpecParseError(f"unknown bound method {method!r}", "$.bounds")

    use_enumeration = model.size <= ENUMERATION_CAP
    if not use_enumeration:
        if any(m in _ENUMERATION_METHODS for m in requested):
            raise SpecParseError(
                f"methods {sorted(_ENUMERATION_METHODS)} need N <= {ENUMERATION_CAP}",
                "$.bounds",
            )
        # Only sampling checks that a chaos literal is integer-valued.
        if form == "chaos" and not mc_samples:
            raise SpecParseError(
                f"N = {model.size} exceeds the enumeration cap; set mc_samples",
                "$.mc_samples",
            )

    # The policy's form now; "mean" and "variance" resolve once the table exists.
    policy = doc.get("lambda", "mean")
    _resolve_lambda(policy, 1.0, 1.0, "$.lambda")
    orders = expansion.orders
    for method in requested:
        if method == "bernoulli" and form != "bernoulli":
            raise SpecParseError("bernoulli needs the bernoulli functional", "$.bounds")
        if method == "j1" and orders != [1]:
            raise SpecParseError("j1 needs a pure order-1 functional", "$.bounds")
        if method in ("j2", "jm") and (len(orders) != 1 or orders[0] < 2):
            raise SpecParseError(f"{method} needs a single fixed order >= 2", "$.bounds")
        if method == "j2" and orders[0] != 2:
            raise SpecParseError("j2 needs an order-2 kernel", "$.bounds")

    def spec_rows(shrink: bool) -> list:
        table = None
        if use_enumeration:
            try:
                table = table_of(model)
            except ValueError as err:
                raise SpecParseError(str(err), f"$.functional.{form}") from err
        if moments:
            mean, var = moments
        elif table is not None:
            mean, var = expectation(model, table), variance(model, table)
        else:
            mean = expansion.mean
            var = stable_sum(covariance(model, k, k) for k in expansion.kernels.values())
        lam = _resolve_lambda(policy, mean, var, "$.lambda")
        # Each row meets the exact distance of its kind: from the table's law
        # if there is one (TV only if a row needs it, W1 only for wasserstein),
        # else a Monte Carlo TV if mc_samples is set, else none.  distribution
        # held the table to the integer rule, so the J_m bounds skip theirs.
        exact = {"tv": None, "w1": None}
        if table is not None:
            dist = distribution(model, table)
            if any(m != "wasserstein" for m in requested):
                exact["tv"] = tv_exact(dist, lam).value
            if "wasserstein" in requested:
                exact["w1"] = w1_exact(dist, lam).value
        elif mc_samples:
            exact["tv"] = tv_monte_carlo(model, sampled, lam, mc_samples, seed).value
        rows, streamed = [], {}
        for method in requested:
            if method in bounds_mod.STREAMED_METHODS:
                streamed = streamed or bounds_mod.enumeration_bounds(model, table, lam)
                report = streamed[method]
            elif method == "second_order":
                report = bounds_mod.second_order_bound(model, table, lam)
            elif method == "bernoulli":
                report = bounds_mod.bernoulli_bound(model.p, lam)
            else:
                report = getattr(bounds_mod, f"{method}_bound")(
                    model, expansion.kernel(orders[0]), expansion.mean, lam,
                    check_integer=False,
                )
            kind = "w1" if method == "wasserstein" else "tv"
            rows.append(_bound_row(report, exact[kind], kind, shrink))
        return rows

    return {"functional": form, "n_coordinates": model.size, "seed": seed}, spec_rows


def _resolve_format(args, doc=None) -> str:
    fmt = args.format or (doc.get("format") if isinstance(doc, dict) else None) or "json"
    if fmt not in ("json", "csv"):
        raise SpecParseError(f"format must be 'json' or 'csv', got {fmt!r}", "$.format")
    return fmt


def _domination(rows: list, message: str):
    """The exit code and stderr line for rows of which one is not dominated."""
    if any(row["dominates"] is False for row in rows):
        return EXIT_DOMINATION, message
    return None


def _cmd_verify(args) -> tuple:
    report = run_verification(seed=args.seed, corrupt=args.inject_fault)
    rows = [c.as_dict() for c in report.checks]
    failure = None
    if not report.passed:
        failure = EXIT_IDENTITY, f"identity check failed: {report.first_failure().name}"
    payload = {"command": "verify", "seed": report.seed, "passed": report.passed}
    return payload, rows, _resolve_format(args), failure


def _cmd_bound(args) -> tuple:
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        raise _Rejected(f"cannot read spec: {err}") from err
    except ValueError as err:
        raise _Rejected(f"spec is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise SpecParseError("spec document must be a JSON object", "$")
    return _run_spec(args, doc)


def _run_spec(args, doc: dict) -> tuple:
    """``bound``'s report on ``doc``, its seed and sample count set from any
    flags given, every check made before the rows are computed."""
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.mc_samples is not None:
        doc["mc_samples"] = args.mc_samples
    meta, spec_rows = _parse_bound_spec(doc)
    fmt = _resolve_format(args, doc)
    rows = spec_rows(args.inject_fault == "shrink-total")
    failure = _domination(
        rows, "domination violation: a bound fell below the exact distance"
    )
    return {"command": "bound", **meta}, rows, fmt, failure


def _cmd_j2_rate(args) -> tuple:
    if args.n_min < 2 or args.n_max < args.n_min or args.step < 1:
        raise _Rejected("need 2 <= n-min <= n-max and step >= 1")
    sweep = range(args.n_min, args.n_max + 1, args.step)
    length = (args.n_max - args.n_min) // args.step + 1
    if length > MAX_SWEEP_ROWS:
        raise _Rejected(f"the sweep has {length} rows, over the limit of {MAX_SWEEP_ROWS}")
    if _j2_closed_forms(sweep[-1]) is None:
        raise _Rejected(f"the closed forms overflow at n = {sweep[-1]}")
    shrink = args.inject_fault == "shrink-total"
    rows = []
    for n in sweep:
        record = bounds_mod.j2_example(n)
        total = record.total * (1e-4 if shrink else 1.0)
        exact = _j2_example_exact_tv(n, record.lam) if n <= 12 else None
        rows.append(
            {
                "n": n,
                "lambda": record.lam,
                **{f"a{i}": getattr(record, f"a{i}") for i in range(1, 7)},
                "total": total,
                "rate": total * math.sqrt(n),
                "exact_tv": exact,
                "dominates": _dominates(total, exact),
            }
        )
    rate_ok = all(row["rate"] <= bounds_mod.J2_RATE_CONSTANT + 1e-12 for row in rows)
    failure = _domination(
        rows,
        "domination violation: the closed-form total falls below the exact "
        "total variation of the example's law",
    )
    if not rate_ok:
        failure = EXIT_IDENTITY, "rate constant violated"
    payload = {
        "command": "j2-rate",
        "rate_constant": bounds_mod.J2_RATE_CONSTANT,
        "rate_within_constant": rate_ok,
    }
    return payload, rows, _resolve_format(args), failure


def _cmd_bernoulli(args) -> tuple:
    """``bound`` on the spec the flags spell: the Bernoulli sum of ``--p``
    with its default ``bernoulli`` method; a numeric ``--lambda`` is a number."""
    try:
        lam = float(args.lam)
    except ValueError:
        lam = args.lam
    doc = {"model": {"p": args.p}, "functional": {"bernoulli": {}}, "lambda": lam}
    payload, *report = _run_spec(args, doc)
    return {"command": "bernoulli", "n_coordinates": payload["n_coordinates"]}, *report


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

    def common(p, seed=False, mc_samples=False):
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", default=None, help="write the report to a file")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if mc_samples:
            p.add_argument("--mc-samples", type=int, default=None)
        p.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)

    p_verify = sub.add_parser("verify", help="run the seeded identity suites")
    common(p_verify, seed=True)
    p_verify.set_defaults(handler=_cmd_verify, seed=0)

    p_bound = sub.add_parser("bound", help="evaluate bounds for a JSON spec")
    p_bound.add_argument("spec", help="path to the experiment spec (JSON)")
    common(p_bound, seed=True, mc_samples=True)
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
    common(p_bern, seed=True, mc_samples=True)
    p_bern.set_defaults(handler=_cmd_bernoulli, seed=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    tags = CORRUPTION_TAGS if args.command == "verify" else ("shrink-total",)
    try:
        if args.inject_fault not in (None, *tags):
            raise _Rejected(f"unknown fault tag {args.inject_fault!r}")
        folder = os.path.dirname(args.out or "") or "."
        if not os.path.isdir(folder):
            raise _Rejected(f"cannot write report: no directory {folder!r}")
        # On huge but finite specs numpy's overflow warnings would precede
        # radstein's own message on stderr.
        with np.errstate(all="ignore"):
            payload, rows, fmt, failure = args.handler(args)
        _emit(payload, rows, fmt, args.out)
    except _Rejected as err:
        sys.stderr.write(f"{err}\n")
        return EXIT_VALIDATION
    except SpecParseError as err:
        sys.stderr.write(f"spec error at {err.location or '$'}: {err}\n")
        return EXIT_VALIDATION
    except RadsteinError as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return EXIT_VALIDATION
    if failure is None:
        return EXIT_OK
    code, message = failure
    sys.stderr.write(f"{message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
