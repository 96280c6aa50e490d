"""The three benchmark workloads.

Each workload turns a seed and an input index into plain data (``generate``,
pure Python, no radstein), builds radstein inputs from that data (``build``),
lists the operations to time on those inputs (``operations``: named
zero-argument calls into radstein's public functions), and checks their
outputs (``check``).  A run generates ``BATCH`` inputs and times every
operation on each of them over and over.  ``reference`` runs a fixed case whose
outputs are stored in ``reference.json``; ``alloc_probe`` runs ``main_bound``
once under tracemalloc where the workload calls it.

See README.md in this directory for why each workload and size was chosen.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field

DOMINATION_SLACK = 1e-12
REFERENCE_SEED = "reference"


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


@dataclass(frozen=True)
class Failure:
    """An operation that raised; stands in for its result."""

    error: str


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as err:  # a failed operation is counted, the run goes on
        return Failure(f"{type(err).__name__}: {err}")


def cli_call(rs, argv: list) -> tuple:
    """radstein.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rs.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue(), err.getvalue()


def cli_rows(code, stdout: str) -> list | None:
    """The report rows of a successful CLI call, or None."""
    if code != 0:
        return None
    try:
        return json.loads(stdout)["rows"]
    except (ValueError, KeyError):
        return None


def _rng(workload: str, seed, index: int) -> random.Random:
    # A string seed is hashed with SHA-512, so the stream is the same in
    # every process and on every platform.
    return random.Random(f"{workload}:{seed}:{index}")


def _biased_p(rng: random.Random, n: int, lo: float, hi: float) -> list:
    return [round(rng.uniform(lo, hi), 6) for _ in range(n)]


def _row_values(rows: list, prefix: str = "") -> dict:
    values = {}
    for row in rows:
        values[f"{prefix}{row['method']}.total"] = row["total"]
        if row["exact"] is not None:
            values[f"{prefix}{row['method']}.exact"] = row["exact"]
    return values


def _dominates(report, exact: float) -> bool:
    return report.total >= exact - DOMINATION_SLACK


# --------------------------------------------------------------------------
# enum_bound: `radstein bound` on N = 16 integer-valued chaos literals.


class EnumBound:
    name = "enum_bound"
    N = 12
    BATCH = 4
    METHODS = ["main", "main_reduced", "wasserstein"]

    def generate(self, seed, index: int) -> dict:
        """A spec whose functional is a sum of 3N products of 1-3 Bernoulli
        indicators B_k = p_k + sigma_k Y_k, expanded into chaos orders <= 3.
        Product j < N contains coordinate j + 1, so every coordinate is used
        and every spec enumerates the same 2^N-point space."""
        rng = _rng(self.name, seed, index)
        n = self.N
        p = _biased_p(rng, n, 0.05, 0.45)
        sigma = [math.sqrt(x * (1.0 - x)) for x in p]
        mean = 0.0
        coeffs: dict[tuple, float] = {}
        for j in range(3 * n):
            size = rng.randint(1, 3)
            if j < n:
                others = [k for k in range(1, n + 1) if k != j + 1]
                chosen = {j + 1, *rng.sample(others, size - 1)}
            else:
                chosen = set(rng.sample(range(1, n + 1), size))
            product = sorted(chosen)
            mean += math.prod(p[k - 1] for k in product)
            for order in range(1, len(product) + 1):
                for key in itertools.combinations(product, order):
                    c = math.prod(
                        sigma[k - 1] if k in key else p[k - 1] for k in product
                    )
                    coeffs[key] = coeffs.get(key, 0.0) + c / math.factorial(order)
        return {
            "model": {"p": p},
            "functional": {
                "chaos": {
                    "mean": mean,
                    "kernels": [[list(k), c] for k, c in sorted(coeffs.items())],
                }
            },
            "bounds": list(self.METHODS),
        }

    def build(self, rs, data: dict, workdir: str) -> dict:
        text = json.dumps(data)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        path = os.path.join(workdir, f"spec-{digest}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        model = rs.model.build_model(data["model"]["p"])
        chaos = data["functional"]["chaos"]
        grouped: dict[int, list] = {}
        for key, c in chaos["kernels"]:
            grouped.setdefault(len(key), []).append((key, c))
        expansion = rs.chaos.ChaosExpansion(
            chaos["mean"],
            {o: rs.kernels.Kernel.from_pairs(o, pairs) for o, pairs in grouped.items()},
        )
        table = rs.chaos.to_table(model, expansion)
        integer_ok = not isinstance(attempt(rs.model.integer_values, table), Failure)
        return {"path": path, "model": model, "table": table, "integer": integer_ok}

    def operations(self, rs, inputs: dict) -> list:
        return [("bound", lambda: cli_call(rs, ["bound", inputs["path"]]))]

    def _check_output(self, code, stdout, stderr, tally: Tally, what: str) -> list:
        rows = cli_rows(code, stdout) or []
        ok = [r["method"] for r in rows] == self.METHODS and all(
            r["dominates"] is True for r in rows
        )
        tally.record(ok, f"{what}: exit {code}, {stderr.strip()[:200]}")
        return rows

    def check(self, inputs: dict, outputs, tally: Tally) -> None:
        tally.record(inputs["integer"], "generated functional is not integer-valued")
        self._check_output(*outputs["bound"], tally, "bound")

    def reference(self, rs, workdir: str, tally: Tally) -> dict:
        """The reference spec, run in two subprocesses: OpenMP/BLAS threads at
        1 and at nproc.  Their stdout must be byte-identical."""
        data = self.generate(REFERENCE_SEED, 0)
        inputs = self.build(rs, data, workdir)
        src = os.path.dirname(os.path.dirname(rs.cli.__file__))
        program = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from radstein.cli import main; sys.exit(main(['bound', sys.argv[2]]))"
        )
        outputs = []
        for threads in (1, len(os.sched_getaffinity(0))):
            env = dict(os.environ)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            proc = subprocess.run(
                [sys.executable, "-c", program, src, inputs["path"]],
                capture_output=True,
                env=env,
                timeout=150,
            )
            outputs.append(proc)
        one, many = outputs
        tally.record(
            one.stdout == many.stdout and one.returncode == many.returncode == 0,
            "reference spec: stdout differs between 1 and nproc threads",
        )
        rows = self._check_output(
            one.returncode, one.stdout.decode(), one.stderr.decode(), tally, "reference"
        )
        return _row_values(rows)

    def alloc_probe(self, rs, inputs: dict) -> float:
        model, table = inputs["model"], inputs["table"]
        return _peak_alloc_mb(
            rs.bounds.main_bound, model, table, rs.model.expectation(model, table)
        )


# --------------------------------------------------------------------------
# beyond_cap: N = 40, closed-form bounds and Monte Carlo, no enumeration.


class BeyondCap:
    name = "beyond_cap"
    N = 40
    BATCH = 3

    def generate(self, seed, index: int, triples: int = 250, pairs: int = 300):
        rng = _rng(self.name, seed, index)
        n = self.N
        coords = range(1, n + 1)
        t3 = sorted(rng.sample(list(itertools.combinations(coords, 3)), triples))
        t2 = sorted(rng.sample(list(itertools.combinations(coords, 2)), pairs))
        lam = rng.uniform(1.0, 5.0)
        return {
            "p": _biased_p(rng, n, 0.05, 0.45),
            "order3": [[list(k), rng.uniform(-1.0, 1.0)] for k in t3],
            "order2": [[list(k), rng.uniform(-1.0, 1.0)] for k in t2],
            "shift": lam,
            "lambda": lam,
            "bernoulli_p": _biased_p(rng, n, 0.01, 0.2),
            "mc_seed": rng.randrange(1 << 31),
            "mc_samples": 200_000,
        }

    def build(self, rs, data: dict, workdir: str) -> dict:
        kernel = rs.kernels.Kernel
        return {
            "model": rs.model.build_model(data["p"]),
            "f3": kernel(3, {tuple(k): c for k, c in data["order3"]}),
            "f2": kernel(2, {tuple(k): c for k, c in data["order2"]}),
            "shift": data["shift"],
            "lambda": data["lambda"],
            "bernoulli": [
                "bernoulli",
                "--p",
                *map(repr, data["bernoulli_p"]),
                "--mc-samples",
                str(data["mc_samples"]),
                "--seed",
                str(data["mc_seed"]),
            ],
        }

    def operations(self, rs, inputs: dict) -> list:
        jm, j2 = rs.bounds.jm_bound, rs.bounds.j2_bound
        model, shift, lam = inputs["model"], inputs["shift"], inputs["lambda"]
        f3, f2 = inputs["f3"], inputs["f2"]
        return [
            ("jm3", lambda: attempt(jm, model, f3, shift, lam, check_integer=False)),
            ("j2", lambda: attempt(j2, model, f2, shift, lam, check_integer=False)),
            ("jm2", lambda: attempt(jm, model, f2, shift, lam, check_integer=False)),
            ("bernoulli", lambda: cli_call(rs, inputs["bernoulli"])),
        ]

    def check(self, inputs: dict, outputs: dict, tally: Tally) -> None:
        for key in ("jm3", "j2", "jm2"):
            result = outputs[key]
            tally.record(
                not isinstance(result, Failure) and math.isfinite(result.total),
                f"{key}: {result}",
            )
        j2, jm2 = outputs["j2"], outputs["jm2"]
        if not isinstance(j2, Failure) and not isinstance(jm2, Failure):
            tally.record(
                abs(j2.total - jm2.total) <= 1e-12 * abs(jm2.total),
                f"j2 total {j2.total!r} differs from jm total {jm2.total!r}",
            )
        code, stdout, stderr = outputs["bernoulli"]
        rows = cli_rows(code, stdout) or [{}]
        tally.record(
            rows[0].get("exact") is not None and rows[0].get("dominates") is True,
            f"bernoulli: exit {code}, {stderr.strip()[:200]}",
        )

    def reference(self, rs, workdir: str, tally: Tally) -> dict:
        """Small fixed kernels at N = 40 and the full fixed-seed Monte Carlo."""
        data = self.generate(REFERENCE_SEED, 0, triples=120, pairs=120)
        inputs = self.build(rs, data, workdir)
        outputs = run_all(self.operations(rs, inputs))
        self.check(inputs, outputs, tally)
        values = {}
        for key in ("jm3", "j2", "jm2"):
            if not isinstance(outputs[key], Failure):
                values[f"{key}.total"] = outputs[key].total
        values.update(_row_values(cli_rows(*outputs["bernoulli"][:2]) or [], "mc."))
        return values

    def alloc_probe(self, rs, inputs: dict) -> float:
        return 0.0  # this workload never calls main_bound


# --------------------------------------------------------------------------
# small_sweep: many tiny enumeration problems, verify and a Stein audit.


class SmallSweep:
    name = "small_sweep"
    BATCH = 2
    TABLES = 27
    VERIFY_SEEDS = 1
    TARGET_SETS = 60
    LAMBDAS = (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
    BOUNDS = ("main_bound", "main_bound_reduced", "wasserstein_bound", "second_order_bound")

    def generate(self, seed, index: int, tables: int = TABLES,
                 verify_seeds: int = VERIFY_SEEDS, target_sets: int = TARGET_SETS):
        """Table i has N = 2 + i mod 9, so every input holds the same sizes;
        values are integers 0..3 with at least one nonzero."""
        rng = _rng(self.name, seed, index)
        out = []
        for i in range(tables):
            n = 2 + i % 9
            p = _biased_p(rng, n, 0.05, 0.5)
            values = [rng.randint(0, 3) for _ in range(1 << n)]
            if not any(values):
                values[-1] = 1
            out.append({"p": p, "values": values})
        return {
            "tables": out,
            "verify_seeds": [rng.randrange(1 << 31) for _ in range(verify_seeds)],
            "targets": {
                repr(lam): [
                    [k for k in range(13) if rng.random() < 0.5]
                    for _ in range(target_sets)
                ]
                for lam in self.LAMBDAS
            },
        }

    def build(self, rs, data: dict, workdir: str) -> dict:
        import numpy as np

        tables = []
        for item in data["tables"]:
            model = rs.model.build_model(item["p"])
            values = np.array(item["values"], dtype=float)
            tables.append((model, rs.model.FunctionalTable(model, values)))
        target = rs.chenstein.TargetSet
        return {
            "tables": tables,
            "verify_seeds": data["verify_seeds"],
            "targets": {
                float(lam): [target(frozenset(m)) for m in sets]
                for lam, sets in data["targets"].items()
            },
        }

    def _table(self, rs, model, table) -> dict:
        lam = attempt(rs.model.expectation, model, table)
        if isinstance(lam, Failure):
            return {"error": lam}
        dist = attempt(rs.model.distribution, model, table)
        row = {
            "tv": attempt(rs.distance.tv_exact, dist, lam),
            "w1": attempt(rs.distance.w1_exact, dist, lam),
        }
        for name in self.BOUNDS:
            row[name] = attempt(getattr(rs.bounds, name), model, table, lam)
        return row

    def _tables(self, rs, tables: list) -> list:
        return [self._table(rs, model, table) for model, table in tables]

    def _audit(self, rs, targets: dict) -> list:
        cs = rs.chenstein
        out = []
        for lam, sets in targets.items():
            factors = cs.stein_factors(lam)
            k_max = max(cs.truncation_point(lam, 12), 3)
            out += [(factors, attempt(cs.solve, lam, target, k_max)) for target in sets]
        return out

    def operations(self, rs, inputs: dict) -> list:
        """One operation per group of nine tables (N = 2..10), one per verify
        seed, and the audit."""
        tables = inputs["tables"]
        ops = [
            (f"tables{g}", functools.partial(self._tables, rs, tables[g:g + 9]))
            for g in range(0, len(tables), 9)
        ]
        ops += [
            (f"verify{s}", functools.partial(cli_call, rs, ["verify", "--seed", str(s)]))
            for s in inputs["verify_seeds"]
        ]
        ops.append(("audit", functools.partial(self._audit, rs, inputs["targets"])))
        return ops

    def _check_tables(self, results: list, tally: Tally) -> None:
        for row in results:
            if "error" in row:
                tally.record(False, f"expectation: {row['error']}")
                continue
            tv, w1 = row["tv"], row["w1"]
            tally.record(
                not isinstance(tv, Failure) and not isinstance(w1, Failure),
                f"distances: {tv} {w1}",
            )
            for name in self.BOUNDS:
                report = row[name]
                exact = w1 if name == "wasserstein_bound" else tv
                ok = not isinstance(report, Failure) and (
                    isinstance(exact, Failure) or _dominates(report, exact.value)
                )
                tally.record(ok, f"{name}: {report} does not dominate {exact}")

    def check(self, inputs: dict, outputs: dict, tally: Tally) -> None:
        import numpy as np

        self._check_tables(
            [row for g in range(0, len(inputs["tables"]), 9) for row in outputs[f"tables{g}"]],
            tally,
        )
        for s in inputs["verify_seeds"]:
            code, stdout, stderr = outputs[f"verify{s}"]
            rows = cli_rows(code, stdout)
            ok = bool(rows) and all(row["passed"] is True for row in rows)
            tally.record(ok, f"verify: exit {code}, {stderr.strip()[:200]}")
        for factors, solution in outputs["audit"]:
            if isinstance(solution, Failure):
                tally.record(False, f"solve: {solution}")
                continue
            values = solution.values
            slack = 1e-12
            ok = (
                float(np.max(np.abs(solution.equation_residuals()))) <= 1e-12
                and float(np.max(np.abs(values))) <= factors.sup_bound + slack
                and float(np.max(np.abs(np.diff(values)))) <= factors.diff_bound + slack
                and float(np.max(np.abs(np.diff(values, n=2))))
                <= factors.second_diff_bound + slack
            )
            tally.record(ok, f"stein audit at lambda {solution.lam!r}")

    def reference(self, rs, workdir: str, tally: Tally) -> dict:
        """One fixed table per size N = 2..10 through all four bounds."""
        data = self.generate(REFERENCE_SEED, 0, tables=9, verify_seeds=0, target_sets=0)
        results = self._tables(rs, self.build(rs, data, workdir)["tables"])
        self._check_tables(results, tally)
        values = {}
        for i, row in enumerate(results):
            for key, result in row.items():
                if isinstance(result, Failure):
                    continue
                field_name = "value" if key in ("tv", "w1") else "total"
                values[f"table{i}.{key}"] = getattr(result, field_name)
        return values

    def alloc_probe(self, rs, inputs: dict) -> float:
        model, table = max(inputs["tables"], key=lambda mt: mt[0].size)
        return _peak_alloc_mb(
            rs.bounds.main_bound, model, table, rs.model.expectation(model, table)
        )


def run_all(operations: list) -> dict:
    """Each operation's output, by name, untimed."""
    return {name: operation() for name, operation in operations}


def _peak_alloc_mb(fn, *args) -> float:
    """Peak bytes traced by tracemalloc during one call, in MiB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


WORKLOADS = {w.name: w for w in (EnumBound(), BeyondCap(), SmallSweep())}
