import random
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstein import kernels
from radstein.errors import (
    IndexOutOfRange,
    InvalidContractionIndices,
    OrderMismatch,
)
from radstein.kernels import (
    Kernel,
    RawTensor,
    contract,
    inner_product,
    norm,
    norm_sq,
    slice_kernel,
    sym_offdiag_weighted_contract,
    weighted_contract,
)
from radstein.model import build_model

import oracles
from oracles import kernel_add, kernel_as_raw, to_kernel


def star_kernel(n):
    """Order-2 kernel with value (n-1)/(2 n^2) on every pair {1, j}."""
    value = (n - 1) / (2.0 * n * n)
    return Kernel(2, {(1, j): value for j in range(2, n + 1)})


def contracts(model, f, g, terms):
    """{order: Kernel} of the terms (r, l, scale) from one engine call
    (``kernels._contract_rows``), which raises as it does."""
    rows = kernels._contract_rows(model, f, g, terms)
    return {s: kernels._made(s, keys[:, 1:], v) for s, (keys, v) in rows.items()}


def slice_contracts(model, f, terms):
    """k -> {order: Kernel} of the terms (r, l, scale) for each nonzero slice
    f_k, k ascending, all from one engine call
    (``kernels._slice_contract_rows``): the rows under lead k - 1."""
    keys, _, rows = kernels._slice_contract_rows(model, f, terms)
    out = {}
    for x in sorted(set(keys[:, 0].tolist())):
        out[x + 1] = {}
        for order, (lead_keys, values) in rows.items():
            pick = lead_keys[:, 0] == x
            out[x + 1][order] = kernels._made(order, lead_keys[pick, 1:], values[pick])
    return out


def hexed(kernels_by_order):
    return {
        order: [(key, v.hex()) for key, v in kernel.entries.items()]
        for order, kernel in kernels_by_order.items()
    }


def tensors_close(a, b, tol=1e-13):
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)


class TestKernelBasics:
    def test_rejects_unsorted_tuple(self):
        with pytest.raises(ValueError):
            Kernel(2, {(2, 1): 1.0})

    @pytest.mark.parametrize(
        "order, key", [(1, (1.5,)), (2, (1, 2.9)), (1, (True,)), (2, (True, 2))]
    )
    def test_rejects_an_index_that_is_not_an_integer(self, order, key):
        message = rf"^tuple {re.escape(str(key))} holds an index that is not an integer$"
        with pytest.raises(ValueError, match=message):
            Kernel(order, {key: 1.0})
        with pytest.raises(ValueError, match=message):
            Kernel.from_pairs(order, [(key, 1.0)])
        with pytest.raises(ValueError, match=message):
            RawTensor(order, {key: 1.0})

    def test_accepts_numpy_integer_indices(self):
        f = Kernel(2, {(1, np.int64(2)): 1.0})
        assert list(f.entries) == [(1, 2)] and type(next(iter(f.entries))[1]) is int
        g = Kernel.from_pairs(2, [((np.int64(2), 1), 1.0)])
        assert list(g.entries) == [(1, 2)]

    @pytest.mark.parametrize(
        "make, order, name",
        [
            (Kernel, 1.5, "kernel"),
            (Kernel, True, "kernel"),
            (Kernel, "1", "kernel"),
            (RawTensor, 2.5, "tensor"),
            (RawTensor, False, "tensor"),
        ],
    )
    def test_rejects_an_order_that_is_not_an_integer(self, make, order, name):
        entries = {(1,): 1.0} if order is True else {}
        message = rf"^{name} order must be an integer, got {re.escape(repr(order))}$"
        with pytest.raises(ValueError, match=message):
            make(order, entries)

    def test_accepts_numpy_integer_orders(self):
        for make in (Kernel, RawTensor):
            tensor = make(np.int64(2), {(1, 2): 1.0})
            assert tensor.order == 2 and type(tensor.order) is int
            assert list(tensor.entries.items()) == [((1, 2), 1.0)]

    def test_prunes_zeros(self):
        assert Kernel(2, {(1, 2): 0.0}).is_zero()

    def test_value_respects_symmetry_and_diagonal(self):
        f = Kernel(2, {(1, 2): 3.0})
        assert oracles.kernel_value(f, (2, 1)) == 3.0
        assert oracles.kernel_value(f, (1, 1)) == 0.0


class TestContract:
    def test_tensor_product_with_unit_scalar(self):
        f = Kernel(2, {(1, 2): 0.7, (2, 3): -0.4})
        result = contract(f, Kernel(0, {(): 1.0}), 0, 0)
        assert result.entries == kernel_as_raw(f).entries

    def test_star_contraction_closed_form(self):
        f = star_kernel(3)
        result = contract(f, f, 2, 1)
        assert result.entries[(1,)] == pytest.approx(2.0 / 81.0, abs=1e-15)
        assert result.entries[(2,)] == pytest.approx(1.0 / 81.0, abs=1e-15)
        assert result.entries[(3,)] == pytest.approx(1.0 / 81.0, abs=1e-15)

    def test_zero_kernel_gives_zero(self):
        f = Kernel(2, {(1, 2): 1.0})
        assert contract(f, Kernel.zero(2), 1, 1).is_zero()

    def test_invalid_indices(self):
        f = Kernel(2, {(1, 2): 1.0})
        with pytest.raises(InvalidContractionIndices):
            contract(f, f, 3, 0)
        with pytest.raises(InvalidContractionIndices):
            contract(f, f, 1, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_sparse_equals_dense_exactly(self, seed):
        rng = random.Random(seed)
        size = rng.randint(2, 6)
        n = rng.randint(1, min(3, size))
        m = rng.randint(1, min(3, size))
        f = oracles.rand_kernel(rng, n, size)
        g = oracles.rand_kernel(rng, m, size)
        support = list(range(1, size + 1))
        for r in range(min(n, m) + 1):
            for ell in range(r + 1):
                sparse = contract(f, g, r, ell)
                assert sparse.entries == oracles.brute_contract(f, g, r, ell, support)

    @pytest.mark.parametrize("seed", range(6))
    def test_norm_inequality(self, seed):
        rng = random.Random(100 + seed)
        size = rng.randint(2, 6)
        n = rng.randint(1, min(3, size))
        m = rng.randint(1, min(3, size))
        f = oracles.rand_kernel(rng, n, size)
        g = oracles.rand_kernel(rng, m, size)
        for r in range(min(n, m) + 1):
            for ell in range(r + 1):
                assert norm(contract(f, g, r, ell)) <= norm(f) * norm(g) + 1e-12


class TestWeightedContract:
    def test_symmetric_model_annihilates(self):
        model = build_model([0.5] * 5)
        rng = random.Random(0)
        f = oracles.rand_kernel(rng, 2, 5)
        g = oracles.rand_kernel(rng, 3, 5)
        for r in range(1, 3):
            for ell in range(r):
                assert weighted_contract(model, f, g, r, ell).is_zero()

    def test_unweighted_convention_when_all_summed(self):
        model = build_model([0.2, 0.6, 0.7])
        f = Kernel(2, {(1, 2): 0.5, (1, 3): -0.25})
        got = weighted_contract(model, f, f, 2, 2)
        assert got.entries == contract(f, f, 2, 2).entries

    def test_star_weighted_norm_closed_form(self):
        for n in (3, 4, 7):
            model = build_model([1.0 / n] * n)
            f = star_kernel(n)
            got = norm_sq(weighted_contract(model, f, f, 2, 1))
            expected = (n - 1) ** 4 * (n - 2) ** 2 / (16.0 * n**7)
            assert got == pytest.approx(expected, rel=1e-13)

    def test_invalid_indices(self):
        model = build_model([0.3, 0.4])
        f = Kernel(1, {(1,): 1.0})
        for fn in (weighted_contract, sym_offdiag_weighted_contract):
            for r, ell in ((2, 0), (1, 2), (0, 1)):
                with pytest.raises(InvalidContractionIndices):
                    fn(model, f, f, r, ell)


class TestToKernel:
    def test_diagonal_only_becomes_empty(self):
        t = RawTensor(2, {(1, 1): 2.0, (3, 3): -1.0})
        assert to_kernel(t).is_zero()

    def test_round_trip(self):
        f = Kernel(3, {(1, 2, 4): 0.1, (2, 3, 4): -0.7})
        assert to_kernel(kernel_as_raw(f)).entries == f.entries

    def test_star_slice_tensor_square_closed_form(self):
        for n in (3, 5):
            f = star_kernel(n)
            fk = slice_kernel(f, 1)
            masked = to_kernel(contract(fk, fk, 0, 0))
            expected = (n - 1) ** 5 * (n - 2) / (16.0 * n**8)
            assert norm_sq(masked) == pytest.approx(expected, rel=1e-13)


class TestNormsAndSlices:
    def test_star_variance_norm(self):
        for n in (2, 3, 10):
            f = star_kernel(n)
            assert 2.0 * norm_sq(f) == pytest.approx((n - 1) ** 3 / n**4, rel=1e-14)

    def test_slice_outside_support(self):
        f = star_kernel(3)
        assert slice_kernel(f, 9).is_zero()

    def test_star_slice_norm_fourth_power(self):
        n = 6
        f = star_kernel(n)
        for k in range(1, n + 1):
            got = norm_sq(slice_kernel(f, k)) ** 2
            expected = (n - 1) ** 4 / (16.0 * n**8)
            expected *= (n - 1) ** 2 if k == 1 else 1.0
            assert got == pytest.approx(expected, rel=1e-13)

    def test_inner_product_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            inner_product(Kernel(1, {(1,): 1.0}), Kernel(2, {(1, 2): 1.0}))

    def test_norm_counts_symmetric_copies(self):
        f = Kernel(2, {(1, 2): 3.0})
        assert norm_sq(f) == pytest.approx(18.0)


class TestFusedContraction:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_symmetrized_masked_path(self, seed):
        rng = random.Random(50 + seed)
        size = rng.randint(2, 6)
        n = rng.randint(1, min(3, size))
        m = rng.randint(1, min(3, size))
        model = build_model(oracles.rand_model_p(rng, size))
        f = oracles.rand_kernel(rng, n, size)
        g = oracles.rand_kernel(rng, m, size)
        for r in range(min(n, m) + 1):
            for ell in range(r + 1):
                fused = sym_offdiag_weighted_contract(model, f, g, r, ell)
                naive = to_kernel(weighted_contract(model, f, g, r, ell))
                assert fused.order == naive.order
                assert tensors_close(fused.entries, naive.entries, 1e-13)

    @given(st.data())
    @settings(max_examples=200, derandomize=True)
    def test_equals_all_pairs_scan_byte_for_byte(self, data):
        size = data.draw(st.integers(1, 12), label="N")
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

        def draw_kernel(label):
            order = data.draw(st.integers(0, min(4, size)), label=f"order {label}")
            key = st.frozensets(
                st.integers(1, size), min_size=order, max_size=order
            ).map(lambda s: tuple(sorted(s)))
            return Kernel(
                order,
                data.draw(
                    st.dictionaries(key, coefficient, max_size=24), label=label
                ),
            )

        f = draw_kernel("f")
        g = f if data.draw(st.booleans(), label="g is f") else draw_kernel("g")
        for r in range(min(f.order, g.order) + 1):
            for ell in range(r + 1):
                fused = sym_offdiag_weighted_contract(model, f, g, r, ell)
                scan = oracles.all_pairs_sym_offdiag_weighted_contract(
                    model, f, g, r, ell
                )
                assert fused.order == scan.order
                assert [(k, v.hex()) for k, v in fused.entries.items()] == [
                    (k, v.hex()) for k, v in scan.entries.items()
                ]


class TestMultiTermEngine:
    """The engine over several terms (r, l, scale) (``kernels._contract_rows``)
    against the postings-map engine it replaced, called once per (r, l),
    each term scaled and the terms of one order added by one ``math.fsum``
    per key (``oracles.fsum_contracts``): the same kernels in key order and
    float.hex, and the same exception.  A kernel index beyond N raises at
    the call."""

    @staticmethod
    def outcome(route):
        """hexed(route()), or the exception it raises as (type, message)."""
        try:
            return hexed(route())
        except (IndexOutOfRange, ValueError, OverflowError) as err:
            return type(err), str(err)

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_equals_one_call_per_term_byte_for_byte(self, data):
        size = data.draw(st.integers(1, 12), label="N")
        p = data.draw(
            st.lists(
                st.one_of(st.just(0.5), st.floats(0.05, 0.95)),
                min_size=size,
                max_size=size,
            ),
            label="p",
        )
        model = build_model(p)
        # Indices up to N + 2: an index beyond N must raise at the call.
        top = size + data.draw(st.sampled_from([0, 0, 1, 2]), label="beyond N")
        coefficient = st.one_of(
            st.sampled_from([1.0, -1.0, 0.5]),
            st.floats(-2.0, 2.0),
            st.sampled_from([1e200, -1e300, 1e155]),
        )

        def draw_kernel(label):
            order = data.draw(st.integers(0, min(4, top)), label=f"order {label}")
            key = st.frozensets(
                st.integers(1, top), min_size=order, max_size=order
            ).map(lambda s: tuple(sorted(s)))
            return Kernel(
                order,
                data.draw(
                    st.dictionaries(key, coefficient, max_size=24), label=label
                ),
            )

        f = draw_kernel("f")
        g = f if data.draw(st.booleans(), label="g is f") else draw_kernel("g")
        # Scales of the product formula, and huge ones that overflow.
        scale = st.sampled_from([1, 2, 3, 6, 36, 1e150, 1e300])
        term = st.integers(0, min(f.order, g.order)).flatmap(
            lambda r: st.tuples(st.just(r), st.integers(0, r), scale)
        )
        terms = data.draw(st.lists(term, min_size=1, max_size=8), label="terms")

        beyond = max(f.max_index(), g.max_index())
        if beyond > size:
            message = f"kernel references index {beyond}, model has {size}"
            with pytest.raises(IndexOutOfRange, match=f"^{message}$"):
                contracts(model, f, g, terms)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.outcome(lambda: contracts(model, f, g, terms))
        assert got == self.outcome(lambda: oracles.fsum_contracts(model, f, g, terms))

    def test_overflow_raises_without_a_numpy_warning(self, capfd):
        model = build_model([0.3, 0.6, 0.5])
        f = Kernel(2, {(1, 2): 1e200, (2, 3): 1e200})
        g = Kernel(2, {(1, 2): 1e150, (2, 3): 1e150})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                contracts(model, f, f, [(1, 0, 1)])
            # Finite terms whose scaling overflows.
            with pytest.raises(ValueError, match="non-finite"):
                contracts(model, g, g, [(1, 0, 1e300)])
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "second, error",
        [(-1e200, ValueError), (1.5e154, OverflowError)],
    )
    def test_sum_errors_match_the_one_term_engine(self, second, error):
        # Two pairs meet at (2, 3) with weights (0.5 * c) * c and
        # (0.5 * second) * c: +inf and -inf for c = 1e200, and two weights of
        # about 1.1e308, whose sum overflows, for c = 1.5e154.
        model = build_model([0.3, 0.6, 0.5])
        c = abs(second)
        f = Kernel(2, {(1, 2): c, (1, 3): second})
        g = Kernel(2, {(1, 3): c, (1, 2): c})
        got = self.outcome(lambda: contracts(model, f, g, [(1, 1, 1)]))
        want = self.outcome(
            lambda: {2: oracles.postings_sym_offdiag_weighted_contract(model, f, g, 1, 1)}
        )
        assert got == want
        assert got[0] is error

    def test_terms_raise_before_orders(self):
        # The first term, (1, 0), is finite, and its scaled coefficient
        # overflows; the second, (1, 1), fails in its own sum (two weights of
        # about 1.1e308).  Every term's error comes before any order's.
        model = build_model([0.3, 0.6, 0.5])
        f = Kernel(2, {(1, 2): 1.5e154, (1, 3): 1.5e154})
        g = Kernel(2, {(1, 3): 1.5e154, (1, 2): 1.5e154})
        with pytest.raises(ValueError, match=r"^non-finite coefficient at \(1, 2, 3\)$"):
            contracts(model, f, g, [(1, 0, 1e300)])
        with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
            contracts(model, f, g, [(1, 0, 1e300), (1, 1, 1)])

    def test_order_errors(self):
        """Each order, in order of its first term, raises at its first key
        whose sum overflows (``math.fsum``'s OverflowError), else at its
        first non-finite coefficient, in output order (the ValueError naming
        the key); scaling alone can make one."""
        model = build_model([0.3, 0.6, 0.5])
        f = Kernel(1, {(1,): 4.0, (2,): 1.0})
        g = Kernel(1, {(3,): 1.0, (2,): 4.0})
        # (0, 0) gives order 2 the coefficients 2.0, 8.0 and 0.5 at (1, 3),
        # (1, 2) and (2, 3), in that output order; (1, 1) gives order 0 the
        # coefficient 4.0.
        got = hexed(contracts(model, f, g, [(0, 0, 1), (1, 1, 1)]))
        assert got == {2: [((1, 3), "0x1.0000000000000p+1"), ((1, 2), "0x1.0000000000000p+3"),
                           ((2, 3), "0x1.0000000000000p-1")], 0: [((), "0x1.0000000000000p+2")]}
        cases = [
            ([(0, 0, 6e307), (0, 0, 6e307)], OverflowError, "intermediate overflow in fsum"),
            ([(0, 0, 1e308)], ValueError, "non-finite coefficient at (1, 3)"),
            ([(0, 0, 1e300), (0, 0, 1e308)], ValueError, "non-finite coefficient at (1, 3)"),
            ([(1, 1, 1e308), (0, 0, 1e308)], ValueError, "non-finite coefficient at ()"),
            ([(0, 0, 1e308), (1, 1, 1e308)], ValueError, "non-finite coefficient at (1, 3)"),
        ]
        for terms, error, message in cases:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                contracts(model, f, g, terms)

    def test_index_beyond_n_raises_at_the_call(self):
        # Index 3 is only ever summed at (1, 1), where no phi is read: the
        # call still raises before any kernel is formed.
        model = build_model([0.3, 0.6])
        f = Kernel(2, {(1, 3): 1.0, (2, 3): 1.0})
        message = "^kernel references index 3, model has 2$"
        for terms in ([(1, 1, 1)], [(1, 1, 1), (1, 0, 2)]):
            with pytest.raises(IndexOutOfRange, match=message):
                contracts(model, f, f, terms)

    def test_invalid_term_raises_before_any_work(self):
        model = build_model([0.3, 0.6])
        f = Kernel(1, {(1,): 1.0})
        with mock.patch.object(kernels, "_summed", side_effect=AssertionError):
            with pytest.raises(InvalidContractionIndices):
                contracts(model, f, f, [(1, 1, 1), (2, 0, 1)])


class TestSlicePairs:
    """The slice side (``kernels._slice_contract_rows``) forms the same-lead
    pairs of all slices in one pair search: each slice gets the kernels of
    one engine call on that slice alone."""

    @given(st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_equals_one_call_per_slice(self, data):
        size = data.draw(st.integers(2, 10), label="N")
        p = data.draw(
            st.lists(st.floats(0.05, 0.95), min_size=size, max_size=size), label="p"
        )
        model = build_model(p)
        m = data.draw(st.integers(2, min(4, size)), label="m")
        key = st.frozensets(st.integers(1, size), min_size=m, max_size=m)
        f = Kernel(
            m,
            data.draw(
                st.dictionaries(
                    key.map(lambda s: tuple(sorted(s))),
                    st.floats(-2.0, 2.0),
                    min_size=1,
                    max_size=40,
                ),
                label="f",
            ),
        )
        terms = [(r, ell, r + 1) for r in range(m) for ell in range(r + 1)]
        got = slice_contracts(model, f, terms)
        for k, kernels_by_order in got.items():
            fk = slice_kernel(f, k)
            assert hexed(kernels_by_order) == hexed(contracts(model, fk, fk, terms))
        assert list(got) == [k for k in range(1, size + 1) if not slice_kernel(f, k).is_zero()]


class TestPairSearch:
    """``kernels._pairs_by_shared_count`` finds the pairs of rows sharing r
    indices through the postings, never forming a pair that does not meet."""

    @given(st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_equals_the_nested_loop_pair_for_pair(self, data):
        # Few distinct indices, so rows share 0..order of them, and large
        # ones, which the lead keys must keep apart from other leads' indices.
        top = kernels._INDEX_LIMIT - 1
        index = st.one_of(st.integers(0, 6), st.sampled_from([1 << 30, top - 1, top]))

        def draw_rows(order, label):
            row = st.lists(index, min_size=order, max_size=order, unique=True).map(sorted)
            rows = data.draw(st.lists(row, max_size=30), label=label)
            return np.array(rows, np.int32).reshape(len(rows), order)

        n = data.draw(st.integers(0, 4), label="order f")
        if data.draw(st.booleans(), label="with a lead"):
            m, tf = n, draw_rows(n, "rows")
            tg = tf
            # Lead 0 most often, so one lead can hold most rows.
            leads = st.lists(
                st.sampled_from([0, 0, 0, 0, 1, 2, top]), min_size=len(tf), max_size=len(tf)
            )
            lead = np.array(sorted(data.draw(leads, label="lead")), np.int32)
        else:
            m = data.draw(st.integers(0, 4), label="order g")
            tf, tg, lead = draw_rows(n, "f rows"), draw_rows(m, "g rows"), None
        counts = data.draw(st.sets(st.integers(0, min(n, m))), label="counts")
        got = kernels._pairs_by_shared_count(tf, tg, counts, lead)
        want = oracles.all_pairs_by_shared_count(tf, tg, counts, lead)
        assert list(got) == list(want)
        for r, (rows_f, rows_g) in got.items():
            assert (rows_f.tolist(), rows_g.tolist()) == want[r]

    def test_forms_no_pair_that_does_not_meet(self):
        # Two 50,000-row kernels on disjoint indices, 2.5e9 pairs that share
        # nothing, and three more g rows that meet f: (1, 2) shares both
        # indices of f's row 0, (3, 200001) one of row 1, and (5, 7) one of
        # row 2 and one of row 3.
        size = 50_000
        f = Kernel(2, {(2 * i + 1, 2 * i + 2): 1.0 for i in range(size)})
        far = {(2 * size + 2 * i + 1, 2 * size + 2 * i + 2): 1.0 for i in range(size)}
        g = Kernel(2, {**far, (1, 2): 1.0, (3, 4 * size + 1): 1.0, (5, 7): 1.0})
        tracemalloc.start()
        try:
            pairs = kernels._pairs_by_shared_count(f.keys, g.keys, {1, 2})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        got = {r: (a.tolist(), b.tolist()) for r, (a, b) in pairs.items()}
        assert got == {1: ([1, 2, 3], [size + 1, size + 2, size + 2]), 2: ([0], [size])}
        assert peak < 64 << 20

    def test_peak_memory_per_meeting(self):
        # A seeded 20,000-entry order-2 kernel at N = 3,000 meets itself
        # 573,826 times.  With each meeting array freed or reused once used,
        # the search peaks near 48 bytes per meeting; with all of them alive
        # at once it took 66.
        size, nnz = 3_000, 20_000
        rng = np.random.default_rng(0)
        keys = np.sort(rng.integers(1, size + 1, (2 * nnz, 2)), axis=1)
        keys = keys[keys[:, 0] < keys[:, 1]]
        first = np.sort(np.unique(keys, axis=0, return_index=True)[1])[:nnz]
        f = Kernel(2, dict(zip(map(tuple, keys[first].tolist()), [1.0] * nnz)))
        meetings = int(np.square(np.bincount(f.keys.ravel()).astype(np.int64)).sum())
        tracemalloc.start()
        try:
            pairs = kernels._pairs_by_shared_count(f.keys, f.keys, {1, 2})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert meetings == 573_826
        assert {r: len(a) for r, (a, _) in pairs.items()} == {1: 533_826, 2: nnz}
        assert peak < 56 * meetings


class TestEngineBuiltKernels:
    def test_entries_equal_public_construction(self):
        rng = random.Random(7)
        model = build_model(oracles.rand_model_p(rng, 8))
        f = oracles.rand_kernel(rng, 3, 8)
        g = oracles.rand_kernel(rng, 2, 8)
        built = [f.scaled(-0.75), kernel_add(f, f.scaled(0.5)), slice_kernel(f, 3)]
        for r in range(3):
            for ell in range(r + 1):
                built.append(sym_offdiag_weighted_contract(model, f, g, r, ell))
        for kernel in built:
            public = Kernel(kernel.order, dict(kernel.entries))
            assert list(public.entries.items()) == list(kernel.entries.items())
            assert all(type(v) is float for v in kernel.entries.values())

    def test_overflowing_product_raises(self):
        model = build_model([0.3, 0.6])
        f = Kernel(1, {(1,): 1e200})
        g = Kernel(1, {(2,): 1e200})
        with pytest.raises(ValueError, match="non-finite"):
            sym_offdiag_weighted_contract(model, f, g, 0, 0)
        with pytest.raises(ValueError, match="non-finite"):
            f.scaled(1e200)

    def test_cancelling_entries_are_dropped(self):
        model = build_model([0.3, 0.6, 0.5])
        f = Kernel(1, {(1,): 1.0, (3,): 1.0})
        g = Kernel(1, {(1,): 1.0, (3,): -1.0})
        tensor = sym_offdiag_weighted_contract(model, f, g, 0, 0)
        assert tensor.order == 2 and tensor.entries == {}
        assert kernel_add(f, f.scaled(-1.0)).entries == {}
        assert f.scaled(0.0).entries == {}
