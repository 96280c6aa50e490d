import itertools
import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstein.bounds import (
    J2_RATE_CONSTANT,
    STREAMED_METHODS,
    BoundReport,
    _jm_blocks,
    bernoulli_bound,
    bernoulli_sum_table,
    enumeration_bounds,
    j1_bound,
    j2_bound,
    j2_example,
    j2_example_kernel,
    j2_example_machinery,
    jm_bound,
    main_bound,
    main_bound_reduced,
    second_order_bound,
    wasserstein_bound,
)
from radstein import chaos
from radstein.chaos import ChaosExpansion, to_table
from radstein.distance import tv_exact, w1_exact
from radstein.errors import (
    IndexOutOfRange,
    InvalidLambda,
    NonIntegerValue,
    OrderTooSmall,
)
from radstein.kernels import Kernel, _contract_rows, _made, norm_sq, slice_kernel
from radstein.model import (
    FunctionalTable,
    build_model,
    distribution,
    expectation,
)

import oracles


def formula_kernels(model, f, g):
    """The product formula's kernels above order 0, from the engine call of
    ``multiply`` (``kernels._contract_rows`` at ``chaos._formula_terms``),
    as Kernels, by order."""
    rows = _contract_rows(model, f, g, chaos._formula_terms(f.order, g.order, False))
    return {s: _made(s, keys[:, 1:], values) for s, (keys, values) in rows.items()}


def nonzero(kernels):
    return {s: k for s, k in kernels.items() if not k.is_zero()}


def fluctuation_pair(model, f):
    """The fluctuation block's nonzero kernels of ``_jm_blocks`` and of the
    Kernel route (the slices' sums added over k,
    ``oracles.summed_over_slices``), each hexed."""
    hexed = TestProductFormulaRoute.hexed
    sums = oracles.slice_grouped_kernels(model, f)[1]
    return (
        hexed(nonzero(_jm_blocks(model, f)[0])),
        hexed(nonzero(oracles.summed_over_slices(sums))),
    )


def lead_kernel(order, keys, values, lead):
    """The Kernel of the key rows under ``lead`` (their first column), in
    their order."""
    pick = keys[:, 0] == lead
    return _made(order, keys[pick, 1:], values[pick])


def slice_formula_kernels(model, f):
    """[(k, f_k, {order: kernel})] of each nonzero slice f_k, k ascending,
    from the one engine call of ``chaos._slice_formula``; a slice lacking an
    order holds an empty kernel there."""
    keys, values, grouped = chaos._slice_formula(model, f)
    return [
        (
            x + 1,
            lead_kernel(f.order - 1, keys, values, x),
            {s: lead_kernel(s, *rows, x) for s, rows in grouped.items()},
        )
        for x in sorted(set(keys[:, 0].tolist()))
    ]


def hexed_slice_rows(model, f):
    """{order: [((k - 1, key), float.hex)]} of ``chaos._slice_formula``'s
    rows, in row order."""
    rows = chaos._slice_formula(model, f)[2]
    return {
        s: [
            ((x, tuple(i + 1 for i in key)), v.hex())
            for (x, *key), v in zip(keys.tolist(), values.tolist())
        ]
        for s, (keys, values) in rows.items()
    }


def hexed_slice_sums(model, f):
    """The same of the Kernel route's sums (``oracles.slice_grouped_kernels``)."""
    sums = oracles.slice_grouped_kernels(model, f)[1]
    return {s: [(key, v.hex()) for key, v in entries.items()] for s, entries in sums.items()}


def sup_factor(lam):
    return min(1.0, math.sqrt(2.0 / (math.e * lam)))


def diff_factor(lam):
    return (1.0 - math.exp(-lam)) / lam


def integer_pair_functional(seed, size=6, pairs=2, shift=2.0):
    """shift + sum of Y_i Y_j over disjoint fair-coin pairs: values in N0."""
    rng = random.Random(seed)
    model = build_model([0.5] * size)
    coords = list(range(1, size + 1))
    rng.shuffle(coords)
    entries = {}
    for i in range(pairs):
        a, b = sorted(coords[2 * i : 2 * i + 2])
        entries[(a, b)] = 0.5
    return model, Kernel(2, entries), float(shift)


class TestMainBound:
    def test_constant_functional(self):
        model = build_model([0.3, 0.6])
        lam = 1.5
        report = main_bound(model, FunctionalTable.constant(model, 3.0), lam)
        assert report.term_mean_shift == pytest.approx(
            sup_factor(lam) * abs(lam - 3.0), rel=1e-13
        )
        assert report.term_variance_like == pytest.approx(
            1.0 - math.exp(-lam), rel=1e-13
        )
        assert report.term_remainder == 0.0

    def test_bernoulli_sum_equals_closed_form(self):
        model = build_model([0.12, 0.4, 0.33, 0.25])
        table = bernoulli_sum_table(model)
        for lam in (0.7, float(np.sum(model.p)), 2.0):
            got = main_bound(model, table, lam)
            closed = bernoulli_bound(model.p, lam)
            assert got.total == pytest.approx(closed.total, abs=1e-10)

    def test_reduced_form_is_identical(self):
        rng = random.Random(1)
        model = build_model(oracles.rand_model_p(rng, 7))
        table = FunctionalTable(model, oracles.rand_integer_table(rng, 128))
        lam = expectation(model, table)
        a = main_bound(model, table, lam)
        b = main_bound_reduced(model, table, lam)
        assert report_bits(a) == report_bits(b)
        assert (a.method, b.method) == ("main", "main_reduced")

    def test_reduced_report_is_the_main_report(self):
        # D_k F and D_k L^{-1}F do not depend on omega_k, so integrating X_k
        # out of the remainder is exact: one remainder under two names, down
        # to the bits, with no drift (p = 1/2), with an ignored coordinate and
        # where the remainder overflows.
        rng = random.Random(22)
        cases = []
        for size in range(1, 9):
            p = oracles.rand_model_p(rng, size, 0.02, 0.98)
            for probs in ([0.5] * size, p, [rng.choice([0.5, x]) for x in p]):
                model = build_model(probs)
                values = oracles.rand_integer_table(rng, model.num_outcomes)
                ignored = 1 << rng.randrange(size)
                cases.append((model, values))
                cases.append((model, values[np.arange(model.num_outcomes) & ~ignored]))
                cases.append((model, 1e150 * values))
        overflowed = 0
        for model, values in cases:
            table = FunctionalTable(model, values)
            for lam in (expectation(model, table) or 1.0, rng.uniform(0.05, 8.0)):
                with np.errstate(over="ignore"):
                    a = main_bound(model, table, lam)
                    b = main_bound_reduced(model, table, lam)
                assert report_bits(a) == report_bits(b)
                assert {k: float(v).hex() for k, v in a.detail.items()} == {
                    k: float(v).hex() for k, v in b.detail.items()
                }
                assert (a.method, b.method) == ("main", "main_reduced")
                overflowed += math.isinf(b.term_remainder)
        assert overflowed >= 10

    def test_rejects_non_integer(self):
        model = build_model([0.5, 0.5])
        table = FunctionalTable(model, np.array([0.0, 1.0, 0.5, 2.0]))
        with pytest.raises(NonIntegerValue):
            main_bound(model, table, 1.0)

    def test_rejects_bad_lambda(self):
        model = build_model([0.5])
        with pytest.raises(InvalidLambda):
            main_bound(model, FunctionalTable.constant(model, 1.0), 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_dominates_exact_tv(self, seed):
        rng = random.Random(40 + seed)
        model = build_model(oracles.rand_model_p(rng, rng.randint(2, 9)))
        table = FunctionalTable(
            model, oracles.rand_integer_table(rng, model.num_outcomes)
        )
        lam = expectation(model, table)
        exact = tv_exact(distribution(model, table), lam).value
        assert main_bound(model, table, lam).total >= exact - 1e-12


class TestWassersteinBound:
    def test_constant_functional(self):
        model = build_model([0.4])
        lam = 2.0
        report = wasserstein_bound(model, FunctionalTable.constant(model, 3.0), lam)
        c2 = min(1.0, 8.0 / (3.0 * math.sqrt(2.0 * math.e * lam)))
        assert report.total == pytest.approx(abs(lam - 3.0) + c2 * lam, rel=1e-13)

    def test_bernoulli_mean_kills_first_term(self):
        model = build_model([0.3, 0.2])
        table = bernoulli_sum_table(model)
        report = wasserstein_bound(model, table, float(np.sum(model.p)))
        assert report.term_mean_shift < 1e-12

    def test_large_mean_switches_both_coefficients(self):
        # at lam = 10 both minimum branches flip: 8/(3 sqrt(2 e lam)) < 1 and
        # 2/lam < 4/3
        model = build_model([0.4, 0.5])
        table = bernoulli_sum_table(model)
        lam = 10.0
        report = wasserstein_bound(model, table, lam)
        c2 = 8.0 / (3.0 * math.sqrt(2.0 * math.e * lam))
        assert c2 < 1.0
        sum_pq = float(np.sum(model.p * model.q))
        sum_ppq = float(np.sum(model.p**2 * model.q))
        assert report.term_variance_like == pytest.approx(
            c2 * abs(lam - sum_pq), rel=1e-12
        )
        assert report.term_remainder == pytest.approx(
            (2.0 / lam) * sum_ppq, rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_dominates_exact_w1(self, seed):
        rng = random.Random(60 + seed)
        model = build_model(oracles.rand_model_p(rng, rng.randint(2, 9)))
        table = FunctionalTable(
            model, oracles.rand_integer_table(rng, model.num_outcomes)
        )
        lam = expectation(model, table)
        exact = w1_exact(distribution(model, table), lam).value
        assert wasserstein_bound(model, table, lam).total >= exact - 1e-12


def report_bits(report):
    return tuple(
        float(x).hex()
        for x in (
            report.lam,
            report.term_mean_shift,
            report.term_variance_like,
            report.term_remainder,
            report.total,
        )
    )


def ulps_apart(a, b):
    """Doubles between two finite floats of the same sign."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


class TestEnumerationBounds:
    def test_reproduces_per_method_kernel_route_reports(self):
        rng = random.Random(77)
        for i in range(200):
            size = 1 + i % 10
            p = oracles.rand_model_p(rng, size, 0.02, 0.98)
            if i % 4 == 0:
                p = [rng.choice([0.5, 0.2, 0.85]) for _ in range(size)]
            model = build_model(p)
            values = oracles.rand_integer_table(rng, model.num_outcomes, rng.choice([2, 4, 10]))
            if i % 6 == 0:
                ignored = 1 << rng.randrange(size)
                values = values[np.arange(model.num_outcomes) & ~ignored]
            if not values.any():
                values[-1] = 1.0
            table = FunctionalTable(model, values)
            lam = rng.choice([expectation(model, table), rng.uniform(0.05, 8.0)])
            reports = enumeration_bounds(model, table, lam)
            assert list(reports) == list(STREAMED_METHODS)
            for method, report in reports.items():
                # main_reduced reports main's remainder: integrating X_k out
                # of it is exact, so the per-k sums are one cross-check.
                route = "main" if method == "main_reduced" else method
                terms = oracles.dict_route_bound(model, table, lam, route)
                want = BoundReport(lam, *terms, math.fsum(terms), method)
                assert report.method == method
                assert report_bits(report) == report_bits(want), (i, method)
            assert report_bits(main_bound(model, table, lam)) == report_bits(reports["main"])
            assert report_bits(main_bound_reduced(model, table, lam)) == report_bits(
                reports["main_reduced"]
            )
            assert report_bits(wasserstein_bound(model, table, lam)) == report_bits(
                reports["wasserstein"]
            )
            per_k = oracles.dict_route_bound(model, table, lam, "main_reduced")[2]
            assert ulps_apart(reports["main_reduced"].term_remainder, per_k) <= 4, i

    def test_peak_memory_is_a_few_tables_at_n16(self):
        import tracemalloc

        model = build_model([0.1 + 0.05 * (k % 8) for k in range(16)])
        table = bernoulli_sum_table(model)
        lam = expectation(model, table)
        tracemalloc.start()
        try:
            main_bound(model, table, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * model.num_outcomes


class TestJ1Bound:
    def test_zero_kernel_reduces_to_constant_case(self):
        model = build_model([0.5, 0.5])
        report = j1_bound(model, Kernel.zero(1), 2.0, 1.0)
        constant = main_bound(model, FunctionalTable.constant(model, 2.0), 1.0)
        assert report.total == pytest.approx(constant.total, abs=1e-12)

    def test_bernoulli_kernel_third_term(self):
        model = build_model([0.15, 0.3, 0.45])
        f = Kernel(1, {(k,): model.sigma[k - 1] for k in (1, 2, 3)})
        lam = 0.9
        report = j1_bound(model, f, float(np.sum(model.p)), lam)
        expected = diff_factor(lam) * 2.0 * float(np.sum(model.p**2 * model.q))
        assert report.term_remainder == pytest.approx(expected, rel=1e-12)
        # entrywise nonnegative kernel: the displayed monotone variant agrees
        assert report.detail["term_remainder_monotone_variant"] == pytest.approx(
            report.term_remainder, rel=1e-12
        )

    def test_agrees_with_main_bound(self):
        model = build_model([0.2, 0.5, 0.65, 0.4])
        f = Kernel(1, {(k,): model.sigma[k - 1] for k in range(1, 5)})
        shift = float(np.sum(model.p))
        table = to_table(model, ChaosExpansion(shift, {1: f}))
        for lam in (0.5, shift, 3.0):
            a = j1_bound(model, f, shift, lam)
            b = main_bound(model, table, lam)
            assert a.total == pytest.approx(b.total, abs=1e-10)

    def test_monotone_variant_differs_for_signed_kernels(self):
        # With a negative entry the two displayed forms need not agree; the
        # evaluated form is the one the general bound produces.  Here
        # F = 4 + J_1(f) takes values {0, 5}, so it is a legitimate input.
        model = build_model([0.2])
        f = Kernel(1, {(1,): -2.0})
        report = j1_bound(model, f, 4.0, 1.0)
        variant = report.detail["term_remainder_monotone_variant"]
        assert abs(variant - report.term_remainder) > 1e-3
        table = to_table(model, ChaosExpansion(4.0, {1: f}))
        general = main_bound(model, table, 1.0)
        assert report.total == pytest.approx(general.total, abs=1e-12)

    def test_non_integer_rejected(self):
        model = build_model([0.3, 0.3])
        f = Kernel(1, {(1,): 0.7})
        with pytest.raises(NonIntegerValue):
            j1_bound(model, f, 0.0, 1.0)

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_equals_the_per_coordinate_loop(self, data):
        """The remainder and its monotone variant in float.hex, or the same
        error, as the loop over coordinates on Python floats
        (``oracles.loop_j1_remainders``)."""
        size = data.draw(st.integers(1, 12), label="N")
        p = data.draw(st.lists(st.floats(0.05, 0.95), min_size=size, max_size=size))
        huge = st.sampled_from([1e103, -6e102, 5.7e102, 3e102, 1e80, -1e160])
        coefficient = st.one_of(TestSliceProductKernels.MODERATE, huge)
        entries = data.draw(
            st.dictionaries(st.integers(1, size).map(lambda k: (k,)), coefficient, min_size=1)
        )
        model, f = build_model(p), Kernel(1, entries)
        lam = data.draw(st.floats(0.1, 20.0), label="lambda")

        def run(route):
            try:
                return [t.hex() for t in route()]
            except OverflowError as err:
                return type(err), str(err)

        def terms():
            report = j1_bound(model, f, 1.0, lam, check_integer=False)
            return report.term_remainder, report.detail["term_remainder_monotone_variant"]

        want = run(lambda: oracles.loop_j1_remainders(model, f, lam))
        if isinstance(want, list) and float.fromhex(want[0]) < 0:
            # Small signed coefficients: a report refuses the negative term.
            with pytest.raises(ValueError, match="^bound terms must be nonnegative"):
                terms()
            return
        assert run(terms) == want

    def test_overflowing_coordinate_raises_without_a_warning(self):
        model = build_model([0.3, 0.5])
        f = Kernel(1, {(1,): 1.0, (2,): 1e103})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="^the remainder of coordinate 2 overflows$"):
                j1_bound(model, f, 1.0, 1.5, check_integer=False)


class TestBernoulliBound:
    def test_frozen_example(self):
        report = bernoulli_bound([0.1] * 10, 1.0)
        expected = (1.0 - math.exp(-1.0)) * (0.1 + 2 * 0.09)
        assert report.total == pytest.approx(expected, rel=1e-12)

    def test_mean_matching_inequality(self):
        rng = random.Random(5)
        for _ in range(20):
            p = oracles.rand_model_p(rng, rng.randint(1, 12), lo=0.01, hi=0.6)
            lam = math.fsum(p)
            report = bernoulli_bound(p, lam)
            cap = 3.0 * diff_factor(lam) * math.fsum(x * x for x in p)
            assert report.total <= cap + 1e-12

    @pytest.mark.parametrize("lam", [0.6, 1.0, 2.0])
    def test_dominates_poisson_binomial_tv(self, lam):
        rng = random.Random(int(lam * 10))
        for _ in range(10):
            p = oracles.rand_model_p(rng, rng.randint(1, 14), lo=0.02, hi=0.7)
            from radstein.model import DistributionTable

            dist = DistributionTable(oracles.poisson_binomial_pmf(p))
            exact = tv_exact(dist, lam).value
            assert bernoulli_bound(p, lam).total >= exact - 1e-12


class TestFixedOrderBounds:
    @pytest.mark.parametrize("seed", range(6))
    def test_j2_equals_jm_at_order_two(self, seed):
        rng = random.Random(80 + seed)
        size = rng.randint(3, 7)
        model = build_model(oracles.rand_model_p(rng, size))
        f = oracles.rand_kernel(rng, 2, size)
        lam = rng.uniform(0.3, 3.0)
        shift = float(rng.randint(0, 4))
        a = jm_bound(model, f, shift, lam, check_integer=False)
        remainder, total = oracles.explicit_j2_bound(model.p, f, shift, lam)
        assert a.total == pytest.approx(total, abs=1e-10, rel=1e-10)
        assert a.term_remainder == pytest.approx(remainder, abs=1e-10, rel=1e-10)
        b = j2_bound(model, f, shift, lam, check_integer=False)
        assert (b.method, b.total) == ("j2", a.total)

    def test_order_one_rejected(self):
        model = build_model([0.5, 0.5])
        with pytest.raises(OrderTooSmall):
            jm_bound(model, Kernel(1, {(1,): 1.0}), 0.0, 1.0)
        with pytest.raises(OrderTooSmall):
            j2_bound(model, Kernel(1, {(1,): 1.0}), 0.0, 1.0)

    def test_integer_pair_functional_dominates_tv(self):
        for seed in range(4):
            model, f, shift = integer_pair_functional(seed)
            table = to_table(model, ChaosExpansion(shift, {2: f}))
            lam = expectation(model, table)
            exact = tv_exact(distribution(model, table), lam).value
            for report in (
                jm_bound(model, f, shift, lam),
                j2_bound(model, f, shift, lam),
                main_bound(model, table, lam),
            ):
                assert report.total >= exact - 1e-12

    def test_zero_kernel_reduces_to_constant_case(self):
        model = build_model([0.4, 0.6])
        got = j2_bound(model, Kernel.zero(2), 2.0, 1.0)
        constant = main_bound(model, FunctionalTable.constant(model, 2.0), 1.0)
        assert got.total == pytest.approx(constant.total, abs=1e-12)

    def test_untouched_coordinates_do_not_change_the_bound(self):
        rng = random.Random(17)
        small = build_model([0.3, 0.45, 0.6])
        padded = build_model([0.3, 0.45, 0.6, 0.8, 0.12])
        f = oracles.rand_kernel(rng, 2, 3)
        for lam in (0.4, 1.7):
            a = jm_bound(small, f, 1.0, lam, check_integer=False)
            b = jm_bound(padded, f, 1.0, lam, check_integer=False)
            assert a.total == pytest.approx(b.total, abs=1e-13)

    def test_overflowing_slice_raises_without_a_warning(self):
        # The second kernel's squared slice norm, 1e320, is the one overflow.
        cases = (
            ([0.3, 0.5, 0.3], {(1, 2): 1e77, (2, 3): 1e77}),
            ([0.5, 0.5], {(1, 2): 1e80}),
        )
        message = "^the coordinate block of slice 1 overflows$"
        for p, entries in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OverflowError, match=message):
                    jm_bound(build_model(p), Kernel(2, entries), 1.0, 1.5, check_integer=False)

    @pytest.mark.parametrize(
        "p, named",
        [
            # Slice 2's summands 4 a^4 and 4 a^4 are finite, their sum is not.
            ([0.5, 0.5, 0.5], 2),
            # Slice 1's a^4 / (p q) is inf and comes first in slice order.
            ([0.01, 0.5, 0.5], 1),
        ],
    )
    def test_slice_whose_finite_summands_overflow_is_named(self, p, named):
        a = 3e307**0.25  # about 7.4e76
        f = Kernel(2, {(1, 2): a, (2, 3): a})
        message = f"^the coordinate block of slice {named} overflows$"
        with pytest.raises(OverflowError, match=message):
            jm_bound(build_model(p), f, 1.0, 1.5, check_integer=False)

    def test_order_three_runs_and_is_consistent(self):
        rng = random.Random(90)
        model = build_model(oracles.rand_model_p(rng, 6))
        f = oracles.rand_kernel(rng, 3, 6, density=0.4)
        report = jm_bound(model, f, 1.0, 1.0, check_integer=False)
        assert report.total >= report.term_mean_shift
        assert report.detail["order"] == 3


class TestReferencePathUnused:
    """The bounds and the product formula run on the fused contraction only;
    the permutation-expanding reference path is left to the tests."""

    REFERENCE = (
        "RawTensor",
        "contract",
        "weighted_contract",
    )

    def test_production_never_calls_the_reference_path(self, monkeypatch, tmp_path):
        import sys

        from radstein import kernels
        from radstein.chaos import multiply
        from radstein.cli import main

        def refuse(*args, **kwargs):
            raise AssertionError("production code reached the reference path")

        for name in self.REFERENCE:
            original = getattr(kernels, name)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "radstein" or module is None:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)

        rng = random.Random(31)
        model = build_model(oracles.rand_model_p(rng, 6))
        f2 = oracles.rand_kernel(rng, 2, 6)
        f3 = oracles.rand_kernel(rng, 3, 6, density=0.4)
        j2_bound(model, f2, 1.0, 1.5, check_integer=False)
        jm_bound(model, f2, 1.0, 1.5, check_integer=False)
        jm_bound(model, f3, 1.0, 1.5, check_integer=False)
        multiply(model, f2, f3)
        j2_example_machinery(9)

        pair_model, f, shift = integer_pair_functional(0)
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "model": {"p": pair_model.p.tolist()},
                    "functional": {
                        "chaos": {
                            "mean": shift,
                            "kernels": [[list(k), c] for k, c in f.entries.items()],
                        }
                    },
                    "bounds": ["j2", "jm"],
                }
            ),
            encoding="utf-8",
        )
        assert main(["bound", str(spec), "--out", str(tmp_path / "rows.json")]) == 0


class TestFixedOrderGrouping:
    """The grouped contraction kernels against an enumeration oracle.

    (1/m) sum_k (D_k J_m(f))^2 has mean m! ||f||^2 and order-s kernel
    m * g_s, where g_s is the grouped kernel entering the fluctuation term
    (``_jm_blocks``: the slices' kernels summed over k); decomposing the
    enumerated table recovers both.
    """

    @pytest.mark.parametrize("m,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
    def test_fluctuation_kernels_match_decomposition(self, m, seed):
        from radstein.chaos import decompose
        from radstein.kernels import inner_product
        from radstein.malliavin import gradient_pathwise

        rng = random.Random(seed)
        size = rng.randint(m + 2, 6)
        model = build_model(oracles.rand_model_p(rng, size))
        f = oracles.rand_kernel(rng, m, size, density=0.5)
        table = to_table(model, ChaosExpansion(0.0, {m: f}))
        quad = np.zeros(model.num_outcomes)
        for k in range(1, size + 1):
            quad += gradient_pathwise(model, table, k).values ** 2
        observed = decompose(model, FunctionalTable(model, quad / m))
        assert observed.mean == pytest.approx(
            math.factorial(m) * inner_product(f, f), abs=1e-10
        )
        grouped = _jm_blocks(model, f)[0]
        orders = {s for s, k in grouped.items() if not k.is_zero()}
        for s in orders | set(observed.kernels):
            expected = grouped.get(s, Kernel.zero(s)).scaled(float(m))
            got = observed.kernel(s)
            for key in set(expected.entries) | set(got.entries):
                assert got.entries.get(key, 0.0) == pytest.approx(
                    expected.entries.get(key, 0.0), abs=1e-10
                )

    @pytest.mark.parametrize("m,seed", [(2, 4), (3, 5)])
    def test_slice_kernels_match_decomposition(self, m, seed):
        from radstein.chaos import decompose
        from oracles import kernel_add
        from radstein.kernels import norm_sq, slice_kernel
        from radstein.malliavin import gradient_pathwise

        rng = random.Random(seed)
        size = rng.randint(m + 2, 6)
        model = build_model(oracles.rand_model_p(rng, size))
        f = oracles.rand_kernel(rng, m, size, density=0.5)
        table = to_table(model, ChaosExpansion(0.0, {m: f}))
        for k in range(1, size + 1):
            fk = slice_kernel(f, k)
            if fk.is_zero():
                continue
            sigma = model.sigma[k - 1]
            drift = sigma * (model.p[k - 1] - model.q[k - 1])
            dk = gradient_pathwise(model, table, k).values
            observed = decompose(
                model, FunctionalTable(model, (dk * dk + drift * dk) / (m * m))
            )
            assert observed.mean == pytest.approx(
                math.factorial(m - 1) * norm_sq(fk), abs=1e-10
            )
            grouped = formula_kernels(model, fk, fk)
            special = grouped.get(m - 1, Kernel.zero(m - 1))
            special = kernel_add(special, fk.scaled(drift / m))
            grouped = {**grouped, m - 1: special}
            for s in set(grouped) | set(observed.kernels):
                expected = grouped.get(s, Kernel.zero(s))
                got = observed.kernel(s)
                for key in set(expected.entries) | set(got.entries):
                    assert got.entries.get(key, 0.0) == pytest.approx(
                        expected.entries.get(key, 0.0), abs=1e-10
                    )

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_slices_summed_over_k_are_the_contractions_of_f(self, data):
        """D_k J_m(f) = m J_{m-1}(f(., k)): the fluctuation kernels of
        ``_jm_blocks``, the slices' kernels summed over k, equal the
        contractions of f with itself at r, l >= 1
        (``oracles.grouped_kernels``) per coefficient, up to the rounding of
        each slice's sum before the sum over k: within 1e-10 max |f|^2."""
        size = data.draw(st.integers(2, 9), label="N")
        p = data.draw(
            st.lists(
                st.one_of(st.just(0.5), st.floats(0.05, 0.95)),
                min_size=size,
                max_size=size,
            ),
            label="p",
        )
        model = build_model(p)
        m = data.draw(st.integers(2, min(5, size)), label="m")
        scale = data.draw(st.sampled_from([1e-100, 1e-3, 1.0, 1e3, 1e100]), label="scale")
        key = st.frozensets(st.integers(1, size), min_size=m, max_size=m)
        entries = st.dictionaries(
            key.map(lambda s: tuple(sorted(s))),
            st.floats(-2.0, 2.0),
            min_size=1,
            max_size=20,
        )
        f = Kernel(m, {k: scale * v for k, v in data.draw(entries, label="f").items()})
        got = _jm_blocks(model, f)[0]
        want = oracles.grouped_kernels(model, f, m)
        tol = 1e-10 * float(np.max(np.abs(f.values), initial=0.0)) ** 2
        for s in set(nonzero(got)) | set(nonzero(want)):
            g, w = got.get(s, Kernel.zero(s)).entries, want.get(s, Kernel.zero(s)).entries
            for k in set(g) | set(w):
                assert g.get(k, 0.0) == pytest.approx(w.get(k, 0.0), abs=tol)


class TestProductFormulaRoute:
    """The product formula behind ``multiply`` and ``jm_bound`` against the
    separate (r, l) loops they replaced, kept in ``oracles``: same kernels,
    same reports, the same (r, l) terms formed."""

    @staticmethod
    def hexed(kernels):
        return [
            (order, [(key, v.hex()) for key, v in kernel.entries.items()])
            for order, kernel in kernels.items()
        ]

    @given(st.data())
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_equals_separate_loops_bit_for_bit(self, data):
        from radstein.chaos import multiply
        from radstein.kernels import slice_kernel

        size = data.draw(st.integers(2, 9), label="N")
        p = data.draw(
            st.lists(
                st.one_of(st.just(0.5), st.floats(0.05, 0.95)),
                min_size=size,
                max_size=size,
            ),
            label="p",
        )
        model = build_model(p)
        coefficient = st.one_of(
            st.sampled_from([1.0, -1.0, 0.5]), st.floats(-2.0, 2.0)
        )

        def draw_kernel(order, label):
            key = st.frozensets(
                st.integers(1, size), min_size=order, max_size=order
            ).map(lambda s: tuple(sorted(s)))
            entries = st.dictionaries(key, coefficient, min_size=1, max_size=20)
            return Kernel(order, data.draw(entries, label=label))

        m = data.draw(st.integers(2, min(4, size)), label="m")
        f = draw_kernel(m, "f")
        g_order = data.draw(st.integers(1, min(3, size)), label="order of g")
        g = f if data.draw(st.booleans(), label="g is f") else draw_kernel(g_order, "g")

        got, want = fluctuation_pair(model, f)
        assert got == want
        for k in range(1, size + 1):
            fk = slice_kernel(f, k)
            if not fk.is_zero():
                assert self.hexed(formula_kernels(model, fk, fk)) == self.hexed(
                    oracles.grouped_kernels(model, fk, m)
                )

        mean, kernels = oracles.loop_multiply(model, f, g)
        grouped = formula_kernels(model, f, g)
        assert self.hexed(
            {o: k for o, k in grouped.items() if not k.is_zero()}
        ) == self.hexed(kernels)
        product = multiply(model, f, g)
        assert product.mean.hex() == mean.hex()
        assert self.hexed(product.kernels) == self.hexed(dict(sorted(kernels.items())))

        shift = data.draw(st.sampled_from([0.0, 1.0, 2.5]), label="shift")
        lam = data.draw(st.floats(0.1, 20.0), label="lambda")
        got = jm_bound(model, f, shift, lam, check_integer=False)
        want = oracles.grouped_jm_bound(model, f, shift, lam)
        assert got.method == want.method
        self.assert_same_report(got, want)

    def test_engine_calls_equal_the_separate_loops(self, monkeypatch):
        """jm_bound makes one engine call, batched over all slices of f; its
        (r, l) terms, in order, each over all slices in turn, are the calls
        the separate loops make one at a time, with the loops' coefficients
        as scales.  multiply makes one engine call per kernel pair."""
        from radstein import chaos
        from radstein.chaos import multiply
        from radstein.kernels import slice_kernel

        engine = chaos._contract_rows
        batched = chaos._slice_contract_rows
        one_term = oracles.postings_sym_offdiag_weighted_contract
        calls, scales, batch_calls, oracle_calls = [], [], [], []

        def recorded(model, f, g, terms):
            calls.append([(f.order, g.order, r, ell) for r, ell, _ in terms])
            return engine(model, f, g, terms)

        def batch_recorded(model, f, terms):
            batch = batched(model, f, terms)
            n = f.order - 1
            slices = sorted(set(batch[0][:, 0].tolist()))  # the leads, k - 1
            batch_calls.append(([x + 1 for x in slices], [(n, n, r, ell) for r, ell, _ in terms]))
            scales.append([c for _, _, c in terms])
            return batch

        def oracle_recorded(model, f, g, r, ell):
            oracle_calls.append((f.order, g.order, r, ell))
            return one_term(model, f, g, r, ell)

        monkeypatch.setattr(chaos, "_contract_rows", recorded)
        monkeypatch.setattr(chaos, "_slice_contract_rows", batch_recorded)
        monkeypatch.setattr(
            oracles, "postings_sym_offdiag_weighted_contract", oracle_recorded
        )
        rng = random.Random(17)
        model = build_model(oracles.rand_model_p(rng, 7))
        f3 = oracles.rand_kernel(rng, 3, 7, density=0.5)
        f2 = oracles.rand_kernel(rng, 2, 7)

        jm_bound(model, f3, 1.0, 1.5, check_integer=False)
        oracles.grouped_jm_bound(model, f3, 1.0, 1.5)
        # One batched call for the 7 slices of f, all nonzero here, with
        # five (r, l) terms above order 0 each, and no other engine call.
        assert all(not slice_kernel(f3, k).is_zero() for k in range(1, 8))
        assert calls == []
        ((slices, terms),) = batch_calls
        assert slices == list(range(1, 8))
        assert len(terms) == 5
        assert scales == [[oracles.jm_coefficient(3, r + 1, ell + 1) for _, _, r, ell in terms]]
        sliced = [t for t in terms for _ in slices]
        assert sliced == oracle_calls
        # No order-0 term is formed: n + m - r - l > 0 on every term.
        assert all(n + m - r - ell > 0 for n, m, r, ell in sliced)

        calls.clear()
        oracle_calls.clear()
        multiply(model, f2, f2)
        oracles.loop_multiply(model, f2, f2)
        assert calls == [oracle_calls]
        # The mean's (n, n) term, formed once and last.
        (terms,) = calls
        assert [t for t in terms if t[0] + t[1] == t[2] + t[3]] == [(2, 2, 2, 2)]
        assert terms[-1] == (2, 2, 2, 2)

    def test_reports_at_forty_coordinates_equal_the_separate_loops(self):
        """At N = 40, beyond every enumeration: an order-3 kernel of 60
        triples and an order-2 kernel of 80 pairs."""
        rng = random.Random(4040)
        n = 40
        model = build_model([rng.uniform(0.05, 0.45) for _ in range(n)])
        coords = range(1, n + 1)
        triples = rng.sample(list(itertools.combinations(coords, 3)), 60)
        pairs = rng.sample(list(itertools.combinations(coords, 2)), 80)
        f3 = Kernel(3, {t: rng.uniform(-1.0, 1.0) for t in sorted(triples)})
        f2 = Kernel(2, {t: rng.uniform(-1.0, 1.0) for t in sorted(pairs)})
        lam = rng.uniform(1.0, 5.0)
        for f, bound, method in (
            (f3, jm_bound, "jm"),
            (f2, jm_bound, "jm"),
            (f2, j2_bound, "j2"),
        ):
            got = bound(model, f, lam, lam, check_integer=False)
            assert got.method == method
            self.assert_same_report(got, oracles.grouped_jm_bound(model, f, lam, lam))

    @staticmethod
    def assert_same_report(got, want):
        """Every number in float.hex and every detail by repr."""
        for name in (
            "lam",
            "term_mean_shift",
            "term_variance_like",
            "term_remainder",
            "total",
        ):
            assert getattr(got, name).hex() == getattr(want, name).hex(), name
        assert {k: repr(v) for k, v in got.detail.items()} == {
            k: repr(v) for k, v in want.detail.items()
        }


class TestThreeTermsPerOrder:
    """Output orders that three or more (r, l) terms share: ``multiply`` at
    orders 4 and 4, and ``jm_bound`` at m = 5.  Each coefficient is the
    correctly rounded sum of its correctly rounded, scaled terms, as the
    oracles form it with one ``math.fsum`` per key, in float.hex."""

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_multiply_at_orders_four_and_four(self, symmetric):
        from radstein.chaos import multiply

        hexed = TestProductFormulaRoute.hexed
        for seed in range(40):
            rng = random.Random(seed)
            size = rng.randint(5, 8)
            p = [0.5] * size if symmetric else oracles.rand_model_p(rng, size)
            model = build_model(p)
            f = oracles.rand_kernel(rng, 4, size, density=0.5)
            g = oracles.rand_kernel(rng, 4, size, density=0.5)
            mean, kernels = oracles.loop_multiply(model, f, g)
            product = multiply(model, f, g)
            assert product.mean.hex() == mean.hex()
            assert hexed(product.kernels) == hexed(dict(sorted(kernels.items())))

    def test_jm_bound_at_order_five(self):
        for seed in range(12):
            rng = random.Random(100 + seed)
            size = rng.randint(6, 8)
            model = build_model(oracles.rand_model_p(rng, size))
            f = oracles.rand_kernel(rng, 5, size, density=0.5)
            lam = rng.uniform(0.5, 10.0)
            got, want = fluctuation_pair(model, f)
            assert got == want
            assert hexed_slice_rows(model, f) == hexed_slice_sums(model, f)
            got = jm_bound(model, f, 1.0, lam, check_integer=False)
            want = oracles.grouped_jm_bound(model, f, 1.0, lam)
            TestProductFormulaRoute.assert_same_report(got, want)


class TestSliceProductKernels:
    """The slices' product formula (``chaos._slice_formula``), all slices
    from one engine call, against ``multiply``'s engine call made once per
    nonzero slice (``formula_kernels``): the same slices and the same nonzero kernels in key order
    and float.hex.  An index beyond N raises at the call; any other error has
    the per-slice route's type, and the type and message of the Kernel
    route that forms the terms in the same order
    (``oracles.slice_grouped_kernels``)."""

    MODERATE = st.one_of(st.sampled_from([1.0, -1.0, 0.5]), st.floats(-2.0, 2.0))
    HUGE = st.sampled_from([1e200, -1e300, 1e155, 1e80, -1e77, 1e40])
    # Products near the largest double, so that the terms' sums stay finite
    # and their scaling and the per-order sums overflow.
    NEAR_MAX_ROOT = st.sampled_from([1e153, -7e153, 1.2e154, 3e152, 1.0, -1e150])

    @staticmethod
    def outcomes(route, model, f):
        """(k, f_k, nonzero kernels by order) of each slice of
        route(model, f) hexed, up to the first error, which ends the list as
        (type, message)."""
        hexed, out = TestProductFormulaRoute.hexed, []
        try:
            for k, fk, kernels in route(model, f):
                kernels = {s: h for s, h in sorted(kernels.items()) if not h.is_zero()}
                out.append((k, hexed({fk.order: fk}), hexed(kernels)))
        except (IndexOutOfRange, ValueError, OverflowError) as err:
            out.append((type(err), str(err)))
        return out

    @staticmethod
    def per_slice(model, f):
        """The route the batch replaced: one product formula call per slice."""
        from radstein.kernels import slice_kernel

        for k in range(1, model.size + 1):
            fk = slice_kernel(f, k)
            if not fk.is_zero():
                yield k, fk, formula_kernels(model, fk, fk)

    @staticmethod
    def draw_setup(data, coefficient, orders=(2, 4)):
        size = data.draw(st.integers(1, 12), label="N")
        p = data.draw(
            st.lists(
                st.one_of(st.just(0.5), st.floats(0.05, 0.95)),
                min_size=size,
                max_size=size,
            ),
            label="p",
        )
        m = data.draw(st.integers(*orders), label="m")
        # Indices up to N + 2, so that some slices are empty and some
        # kernels hold an index beyond N.
        extra = data.draw(st.sampled_from([0, 0, 0, 1, 2]), label="beyond N")
        top = max(m, size + extra)
        used = data.draw(
            st.sets(st.integers(1, top), min_size=m, max_size=top), label="indices"
        )
        key = st.sets(st.sampled_from(sorted(used)), min_size=m, max_size=m)
        entries = st.dictionaries(
            key.map(lambda s: tuple(sorted(s))), coefficient, min_size=1, max_size=30
        )
        return build_model(p), Kernel(m, data.draw(entries, label="f"))

    @given(st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_equals_one_call_per_slice_bit_for_bit(self, data):
        # One kernel in four mixes in coefficients whose products overflow.
        mixed = data.draw(st.sampled_from([False, False, False, True]), label="huge")
        coefficient = st.one_of(self.MODERATE, self.HUGE) if mixed else self.MODERATE
        model, f = self.draw_setup(data, coefficient)
        if f.max_index() > model.size:
            message = f"kernel references index {f.max_index()}, model has {model.size}"
            with pytest.raises(IndexOutOfRange, match=f"^{message}$"):
                chaos._slice_formula(model, f)
            return
        got = self.outcomes(slice_formula_kernels, model, f)
        want = self.outcomes(self.per_slice, model, f)
        if all(len(item) == 3 for item in want):
            assert got == want
        else:
            # The batch raises the first error in (r, l)-then-k order, the
            # per-slice route the first in k-then-(r, l) order.
            assert got[:-1] == want[: len(got) - 1]
            assert len(got[-1]) == 2 and got[-1][0] is want[-1][0]

    @given(st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_jm_bound_raises_as_the_per_slice_route(self, data):
        """Overflowing kernels: the same remainder terms, or the same
        exception type and message, as jm_bound's Kernel route
        (``oracles.kernel_route_jm_terms``): one call per slice and term,
        term by term."""
        model, f = self.draw_setup(data, st.one_of(self.HUGE, st.just(1.0)))

        def run(route):
            try:
                with np.errstate(over="ignore"):  # an inf ratio of norms
                    t3, t4 = route()
            except (IndexOutOfRange, ValueError, OverflowError) as err:
                return type(err), str(err)
            return [t.hex() for t in (t3, t4, math.fsum((t3, t4)))]

        def terms():
            report = jm_bound(model, f, 1.0, 1.5, check_integer=False)
            assert report.term_remainder == math.fsum(
                (report.detail["term_fluctuation"], report.detail["term_coordinate_block"])
            )
            return report.detail["term_fluctuation"], report.detail["term_coordinate_block"]

        want = run(lambda: oracles.kernel_route_jm_terms(model, f, 1.5))
        assert run(terms) == want

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_raises_the_first_error_in_term_then_slice_order(self, data):
        """Orders 4 and 5 with huge coefficients, so that one order of a
        slice gathers three terms or more: the batch gives the Kernel route's
        sums (``oracles.slice_grouped_kernels``) in key order and float.hex,
        or raises its error: the first term's that fails, within it the
        first slice's, else the first order's at its first key in output
        order."""
        near = data.draw(st.booleans(), label="near the largest double")
        coefficient = self.NEAR_MAX_ROOT if near else st.one_of(self.HUGE, st.just(1.0))
        model, f = self.draw_setup(data, coefficient, (4, 5))
        if f.max_index() > model.size:
            return

        def run(route):
            try:
                return route()
            except (ValueError, OverflowError) as err:
                return type(err), str(err)

        assert run(lambda: hexed_slice_rows(model, f)) == run(lambda: hexed_slice_sums(model, f))

    def test_an_order_sum_overflows_at_its_first_key(self):
        """Order 5: slice 1's order-3 sum of three terms, each finite,
        overflows, as the Kernel route's ``math.fsum`` does."""
        model = build_model([0.3, 0.5, 0.3, 0.5, 0.1, 0.5])
        f = Kernel(
            5, {(1, 2, 3, 4, 6): 1e153, (1, 2, 3, 4, 5): 3e152, (1, 2, 4, 5, 6): 3e152}
        )
        with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
            oracles.slice_grouped_kernels(model, f)
        with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
            chaos._slice_formula(model, f)

    def test_an_order_raises_at_its_first_key_in_output_order(self):
        """Two terms of order 2 scaled to overflow: (1, 1) holds keys of
        slices 2 and 5 only, and (2, 0) those of slices 1, 2, 3 and 4.  The
        output order runs term by term, so slice 2's key (6, 7) of the first
        term is named, not slice 1's (3, 4) of the second."""
        from radstein import kernels

        model = build_model([0.3, 0.5, 0.1, 0.1, 0.3, 0.3, 0.3])
        f = Kernel(3, {(1, 3, 4): 2.0, (2, 5, 6): 2.0, (2, 5, 7): 2.0})
        keys, _, rows = kernels._slice_contract_rows(model, f, [(1, 1, 1), (2, 0, 1)])
        assert [x for x, *_ in rows[2][0].tolist()] == [1, 4, 0, 1, 1, 2, 3]
        with pytest.raises(ValueError, match=r"^non-finite coefficient at \(6, 7\)$"):
            kernels._slice_contract_rows(model, f, [(1, 1, 1e308), (2, 0, 1e308)])

    def test_first_error_comes_in_term_then_slice_order(self):
        """Slice 3 overflows at its first term, at (1, 2), and slice 1 at its
        second, at (3,): the batch raises slice 3's error at the call, where
        the per-slice route raises slice 1's."""
        model = build_model([0.3, 0.5, 0.3])
        f = Kernel(2, {(1, 3): 1e200, (2, 3): -1e300})
        with pytest.raises(ValueError, match=r"^non-finite coefficient at \(1, 2\)$"):
            chaos._slice_formula(model, f)
        want = self.outcomes(self.per_slice, model, f)
        assert want == [(ValueError, "non-finite coefficient at (3,)")]


class TestArrayRoute:
    """``jm_bound`` keeps the grouped kernels as key rows and coefficients up
    to their norms; the same blocks computed on ``Kernel`` objects with no
    engine code of the package (``oracles.kernel_route_jm_terms``: the
    postings oracle slice by slice, ``kernel_add`` and ``norm_sq``) give the
    same terms in float.hex, or the same exception type and message."""

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_equals_the_kernel_route(self, data):
        setup = TestSliceProductKernels.draw_setup
        huge = data.draw(st.booleans(), label="huge")
        coefficient = (
            st.one_of(TestSliceProductKernels.HUGE, st.just(1.0))
            if huge
            else TestSliceProductKernels.MODERATE
        )
        model, f = setup(data, coefficient)
        lam = data.draw(st.floats(0.1, 20.0), label="lambda")

        def run(route):
            try:
                with np.errstate(over="ignore"):  # an inf ratio of norms
                    return [t.hex() for t in route()]
            except (IndexOutOfRange, ValueError, OverflowError) as err:
                return type(err), str(err)

        def terms():
            detail = jm_bound(model, f, 1.0, lam, check_integer=False).detail
            return detail["term_fluctuation"], detail["term_coordinate_block"]

        assert run(terms) == run(lambda: oracles.kernel_route_jm_terms(model, f, lam))

    @given(st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_columns_are_the_kernel_route_norms(self, data):
        """``_jm_blocks``' arrays in float.hex: the leads are the nonzero
        slices', the slice-norm column holds ``norm_sq(slice_kernel(f, k))``
        and each order's column the ``norm_sq`` of each slice's kernel of
        the Kernel route (``oracles.slice_grouped_kernels``), order m - 1
        with its drift summand (``oracles._drifted``)."""
        model, f = TestSliceProductKernels.draw_setup(data, TestSliceProductKernels.MODERATE)
        if f.max_index() > model.size:
            return
        m = f.order
        _, leads, slice_norms, columns = _jm_blocks(model, f)
        slices, sums = oracles.slice_grouped_kernels(model, f)
        special = oracles._drifted(model, slices, sums.get(m - 1, {}), m)
        ks = [k for k, _ in slices]

        def slice_kernels(s):
            if s == m - 1:
                return [Kernel(s, special.get(k - 1, {})) for k in ks]
            entries = sums.get(s, {})
            return [Kernel(s, {y: v for (x, y), v in entries.items() if x == k - 1}) for k in ks]

        def hexed(norms):
            return [float(x).hex() for x in norms]

        assert (leads + 1).tolist() == ks
        assert hexed(slice_norms) == hexed(norm_sq(slice_kernel(f, k)) for k in ks)
        for s, column in columns.items():
            assert hexed(column) == hexed(map(norm_sq, slice_kernels(s)))


class TestIndexBeyondN:
    """Every entry point that takes a model and a kernel rejects index N + 1
    with one message before any engine work, the summed-only contraction
    (no phi read) included."""

    GOOD = Kernel(2, {(1, 2): 1.0, (2, 3): 0.5})
    BAD = Kernel(2, {(1, 2): 1.0, (2, 4): 0.5})

    @staticmethod
    def entry_points():
        from radstein import kernels, malliavin

        good, bad = TestIndexBeyondN.GOOD, TestIndexBeyondN.BAD
        expansion = ChaosExpansion(1.0, {2: bad})
        # "contracts" to "slice_product_kernels" name the private engine,
        # J_m block and product formula entries behind the bounds and multiply.
        return {
            "contracts": lambda m: kernels._contract_rows(m, good, bad, [(1, 0)]),
            "contracts_summed_only": lambda m: kernels._contract_rows(
                m, bad, bad, [(2, 2), (1, 1)]
            ),
            "contract": lambda m: kernels.sym_offdiag_weighted_contract(
                m, bad, good, 1, 1
            ),
            "slice_contracts": lambda m: kernels._slice_contract_rows(m, bad, [(0, 0)]),
            "product_kernels": lambda m: _jm_blocks(m, bad),
            "slice_product_kernels": lambda m: chaos._slice_formula(m, bad),
            "multiply": lambda m: chaos.multiply(m, good, bad),
            "covariance": lambda m: chaos.covariance(m, good, bad),
            "to_table": lambda m: to_table(m, expansion),
            "evaluate_on_signs": lambda m: chaos.evaluate_on_signs(
                m, expansion, np.ones((2, 3))
            ),
            "j1_bound": lambda m: j1_bound(
                m, Kernel(1, {(4,): 1.0}), 0.0, 1.0, check_integer=False
            ),
            "jm_bound": lambda m: jm_bound(m, bad, 0.0, 1.0, check_integer=False),
            "j2_bound": lambda m: j2_bound(m, bad, 0.0, 1.0, check_integer=False),
            "divergence": lambda m: malliavin.divergence(
                m,
                malliavin.GradientField(
                    {1: ChaosExpansion(0.0, {1: Kernel(1, {(4,): 1.0})})}
                ),
            ),
        }

    @pytest.mark.parametrize(
        "name",
        [
            "contracts", "contracts_summed_only", "contract", "slice_contracts",
            "product_kernels", "slice_product_kernels", "multiply", "covariance",
            "to_table", "evaluate_on_signs", "j1_bound", "jm_bound", "j2_bound",
            "divergence",
        ],
    )
    def test_raises_one_message_at_the_call(self, name):
        from unittest import mock

        from radstein import kernels

        model = build_model([0.3, 0.6, 0.5])
        call = self.entry_points()[name]
        with mock.patch.object(kernels, "_pairs_by_shared_count", side_effect=AssertionError):
            with pytest.raises(
                IndexOutOfRange, match=r"^kernel references index 4, model has 3$"
            ):
                call(model)


class TestSecondOrderBound:
    def test_constant_functional(self):
        model = build_model([0.25, 0.5])
        lam = 0.8
        report = second_order_bound(model, FunctionalTable.constant(model, 1.0), lam)
        assert report.term_remainder == 0.0
        assert report.total == pytest.approx(
            sup_factor(lam) * abs(lam - 1.0) + (1.0 - math.exp(-lam)), rel=1e-12
        )

    def test_bernoulli_specialization_matches_closed_form(self):
        model = build_model([0.1, 0.35, 0.6, 0.22])
        table = bernoulli_sum_table(model)
        for lam in (0.5, float(np.sum(model.p)), 2.5):
            a = second_order_bound(model, table, lam)
            b = bernoulli_bound(model.p, lam)
            assert a.total == pytest.approx(b.total, abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_dominates_exact_tv(self, seed):
        rng = random.Random(70 + seed)
        model = build_model(oracles.rand_model_p(rng, rng.randint(2, 7)))
        table = FunctionalTable(
            model, oracles.rand_integer_table(rng, model.num_outcomes)
        )
        lam = expectation(model, table)
        exact = tv_exact(distribution(model, table), lam).value
        assert second_order_bound(model, table, lam).total >= exact - 1e-12


    def test_reproduces_dict_route_within_4_ulp(self):
        """t1, t2 and the coordinate term keep the dict route's bits.  The m2
        sums over the half omega_l = -1 round apart from the full-space ones,
        so the triple terms, the remainder and the total keep a budget of 4
        ulp (2 is the most seen)."""
        rng = random.Random(91)
        large = {0: 12, 30: 11, 60: 11, 90: 10, 120: 10, 150: 10, 180: 9, 210: 9, 240: 9}
        for i in range(300):
            size = large.get(i, 1 + i % 8)
            p = oracles.rand_model_p(rng, size, 0.01, 0.99)
            if i % 5 == 0:
                p = [rng.choice([0.5, 0.3, 0.85]) for _ in range(size)]
            model = build_model(p)
            values = oracles.rand_integer_table(
                rng, model.num_outcomes, rng.choice([1, 3, 60])
            )
            if i % 7 == 0:
                ignored = 1 << rng.randrange(size)
                values = values[np.arange(model.num_outcomes) & ~ignored]
            table = FunctionalTable(model, values)
            lam = rng.choice([expectation(model, table) or 0.5, rng.uniform(0.05, 9.0)])
            got = second_order_bound(model, table, lam)
            want = oracles.dict_second_order_bound(model, table, lam)
            assert report_bits(got)[:3] == report_bits(want)[:3], i
            assert list(got.detail) == list(want.detail), i
            coordinate = got.detail["term_coordinate"]
            assert coordinate.hex() == want.detail["term_coordinate"].hex(), i
            for name in ("term_remainder", "total"):
                assert ulps_apart(getattr(got, name), getattr(want, name)) <= 4, (i, name)
            for name in ("term_mixed_triple", "term_scaled_triple"):
                assert ulps_apart(got.detail[name], want.detail[name]) <= 4, (i, name)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_second_moments_read_one_half_and_are_symmetric(self, n):
        """Every squared second gradient that m2 reads, D_l D_j F (j < l) and
        D_j D_l F (j > l), is the same on the two omega_l halves, bit for bit;
        m2(l, ., .) is their pair sums over the half omega_l = -1, with the
        halves' weights added, and exactly symmetric.  N = 1 has no second
        gradients."""
        from radstein.bounds import _second_moments
        from radstein.malliavin import gradient_pathwise

        rng = random.Random(400 + n)
        model = build_model(oracles.rand_model_p(rng, n, 0.01, 0.99))
        table = FunctionalTable(model, oracles.rand_integer_table(rng, 1 << n, 9))
        grads = np.array([gradient_pathwise(model, table, k).values for k in range(1, n + 1)])
        m2 = _second_moments(model, grads)
        assert m2.shape == (n, n, n)
        assert m2.tobytes() == m2.transpose(0, 2, 1).tobytes()
        for el in range(1, n + 1):
            halves = model.outcome_weights.reshape(-1, 2, 1 << (el - 1))
            weights = (halves[:, 0] + halves[:, 1]).ravel()
            squares = {}
            for j in set(range(1, n + 1)) - {el}:
                inner, outer = min(j, el), max(j, el)
                inner_table = FunctionalTable(model, grads[inner - 1])
                second = gradient_pathwise(model, inner_table, outer).values ** 2
                pair = second.reshape(-1, 2, 1 << (el - 1))
                assert pair[:, 0].tobytes() == pair[:, 1].tobytes(), (el, j)
                squares[j] = pair[:, 0].ravel()
            for j, k in itertools.combinations_with_replacement(sorted(squares), 2):
                want = math.fsum(weights * squares[j] * squares[k])
                assert m2[el - 1, j - 1, k - 1].hex() == want.hex(), (el, j, k)
            assert not m2[el - 1, el - 1].any() and not m2[el - 1, :, el - 1].any()

    @pytest.mark.parametrize(
        "n,scale,top", [(3, 1e160, 1), (5, 1e153, 3), (4, 1e80, 2), (3, 1e150, 2**40)]
    )
    def test_overflowing_moments_match_dict_route(self, n, scale, top):
        """Squared second gradients overflow to inf; where the other factor
        is inf, the skipped m2(l, l, k) terms are NaN as in the dict route, so
        both routes refuse the same NaN remainder with the same message."""
        model = build_model([0.3] * n)
        values = scale * oracles.rand_integer_table(random.Random(n), 1 << n, top)
        table = FunctionalTable(model, values)
        errors = []
        for route in (second_order_bound, oracles.dict_second_order_bound):
            with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
                route(model, table, 1.0)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("bound terms must be nonnegative, got (")
        assert errors[0].endswith(", nan)")

    def test_peak_memory_is_about_two_tables_per_coordinate_at_n14(self):
        import tracemalloc

        n = 14
        model = build_model([0.1 + 0.05 * (k % 8) for k in range(n)])
        rng = random.Random(5)
        table = FunctionalTable(model, oracles.rand_integer_table(rng, 1 << n, 40))
        lam = expectation(model, table)
        model.outcome_weights
        tracemalloc.start()
        try:
            second_order_bound(model, table, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured: 24.6 tables of 2^N doubles (the N first gradients, then
        # one l's N - 1 half tables and a batch).
        assert peak <= 26 * 8 * model.num_outcomes


class TestJ2Example:
    def test_smallest_case_closed_form(self):
        record = j2_example(2)
        assert record.lam == pytest.approx(1.0 / 16.0, rel=1e-15)
        assert record.total == pytest.approx(3.0 / 16.0, rel=1e-14)
        assert record.a3 == 0.0 and record.a4 == 0.0 and record.a6 == 0.0
        assert record.a5 == pytest.approx(1.0 / 512.0, rel=1e-14)

    def test_a7_vanishes_identically(self):
        for n in (2, 3, 7, 15):
            assert j2_example(n).a7 == 0.0
            assert j2_example_machinery(n).a7 < 1e-30

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 17, 30])
    def test_machinery_matches_closed_forms(self, n):
        closed = j2_example(n)
        machinery = j2_example_machinery(n)
        for name in ("lam", "a1", "a2", "a3", "a4", "a5", "a6", "total"):
            a, b = getattr(closed, name), getattr(machinery, name)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-30)

    def test_machinery_shares_the_jm_bound_blocks(self):
        """A3 and A4 are the squared norms behind jm_bound's fluctuation
        term, bit for bit; A5, A6 and A7 behind its coordinate block, summed
        in another order."""
        from radstein.chenstein import stein_factors

        for n in range(2, 13):
            model, f = j2_example_kernel(n)
            record = j2_example_machinery(n)
            detail = jm_bound(model, f, 0.0, record.lam, check_integer=False).detail
            diff_f = stein_factors(record.lam).diff_bound
            fluct = diff_f * math.sqrt(4 * math.fsum((record.a3, 2 * record.a4)))
            assert detail["term_fluctuation"].hex() == fluct.hex(), n
            coordinate = math.fsum((record.a5, 2 * record.a6, record.a7))
            coordinate = diff_f * math.sqrt(record.lam) * math.sqrt(8 * coordinate)
            assert detail["term_coordinate_block"] == pytest.approx(coordinate, rel=1e-12)

    def test_rate_constant_on_sample(self):
        for n in (2, 10, 100, 1000, 10_000):
            record = j2_example(n)
            assert record.total * math.sqrt(n) <= J2_RATE_CONSTANT

    def test_kernel_matches_variance(self):
        model, kernel = j2_example_kernel(5)
        from radstein.chaos import covariance

        assert covariance(model, kernel, kernel) == pytest.approx(
            j2_example(5).lam, rel=1e-13
        )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            j2_example(1)


class TestBoundReport:
    def test_terms_sum_to_total(self):
        report = bernoulli_bound([0.2, 0.3], 0.5)
        assert report.total == pytest.approx(
            report.term_mean_shift + report.term_variance_like + report.term_remainder,
            abs=1e-15,
        )

    def test_negative_term_rejected(self):
        with pytest.raises(ValueError):
            BoundReport(1.0, -0.1, 0.0, 0.0, -0.1, "x")

    def test_nan_term_rejected_and_infinite_term_kept(self):
        message = r"^bound terms must be nonnegative, got \(0\.0, nan, 0\.0\)$"
        with pytest.raises(ValueError, match=message):
            BoundReport(1.0, 0.0, math.nan, 0.0, math.nan, "x")
        assert BoundReport(1.0, 0.0, math.inf, 0.0, math.inf, "x").total == math.inf

    @pytest.mark.parametrize("bound", ["second_order", "main", "jm"])
    def test_a_bound_with_a_nan_term_raises(self, bound):
        """Values near 1e200 make a gradient product overflow, and inf - inf
        leaves a NaN term; a NaN shift leaves a NaN mean-shift term."""
        model = build_model([0.3, 0.6, 0.4])
        values = np.array([0.0, 1e200, 2e200, 0.0, 3e200, 0.0, 1e200, 2e200])
        table = FunctionalTable(model, values)
        calls = {
            "second_order": lambda: second_order_bound(model, table, 1.0),
            "main": lambda: main_bound(model, table, 1.0),
            "jm": lambda: jm_bound(
                model, Kernel(2, {(1, 2): 0.5}), math.nan, 1.0, check_integer=False
            ),
        }
        message = "^bound terms must be nonnegative, got .*nan"
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
            calls[bound]()
