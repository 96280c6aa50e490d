"""The array Kernel against the dict route it replaced (``oracles.DictKernel``
and the ``oracles.dict_*`` operations): the same key rows and values, byte
for byte and in the same row order, the same floats by ``float.hex``, and
the same first error, type and message."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstein.chaos import ChaosExpansion, decompose, evaluate_on_signs, to_table
from radstein.errors import IndexOutOfRange, MalformedField, OrderMismatch
from radstein.kernels import Kernel, inner_product, norm_sq, slice_kernel
from radstein.malliavin import GradientField, divergence, gradient_chaos
from radstein.model import FunctionalTable, build_model

import oracles
from oracles import DictKernel, array_rows, dict_rows

ERRORS = (ValueError, OverflowError, IndexOutOfRange, MalformedField, OrderMismatch)

COEFFICIENT = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, 0.0, -0.0]),
    st.floats(-2.0, 2.0),
    st.sampled_from([1e200, -1e300, 1.5e308]),
)


def outcome(route):
    """route()'s value, or the exception it raises as (type, message)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return route()
    except ERRORS as err:
        return type(err), str(err)


def hexed(x):
    return x.hex() if isinstance(x, float) else x


def expansion_rows(expansion, rows):
    """(mean, [(order, rows(kernel))]) of an expansion, in its stored order."""
    return expansion.mean.hex(), [(o, rows(k)) for o, k in expansion.kernels.items()]


def draw_mapping(data, order, size, label, coefficient=COEFFICIENT):
    key = st.frozensets(st.integers(1, size), min_size=order, max_size=order)
    mapping = st.dictionaries(key.map(lambda s: tuple(sorted(s))), coefficient, max_size=12)
    return data.draw(mapping, label=label)


def draw_model(data, lo=1, hi=6):
    size = data.draw(st.integers(lo, hi), label="N")
    p = data.draw(st.lists(st.floats(0.05, 0.95), min_size=size, max_size=size), label="p")
    return build_model(p)


def array_and_dict(order, mapping):
    """The Kernel and the DictKernel of one mapping, or the error both raise."""
    got = outcome(lambda: Kernel(order, mapping))
    want = outcome(lambda: DictKernel(order, mapping))
    if isinstance(got, Kernel):
        assert array_rows(got) == dict_rows(want)
        return got, want
    assert got == want
    return None


class TestKernel:
    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_operations_equal_the_dict_route(self, data):
        size = data.draw(st.integers(1, 8), label="N")
        order = data.draw(st.integers(0, min(4, size)), label="order")
        pair = array_and_dict(order, draw_mapping(data, order, size, "f"))
        other = array_and_dict(order, draw_mapping(data, order, size, "g"))
        if pair is None or other is None:
            return
        (f, df), (g, dg) = pair, other
        for a, b, da, db in ((f, g, df, dg), (g, f, dg, df), (f, f, df, df)):
            got = outcome(lambda: inner_product(a, b))
            assert hexed(got) == hexed(outcome(lambda: oracles.dict_inner_product(da, db)))
        want = math.factorial(order) * math.fsum(c * c for c in df.entries.values())
        assert norm_sq(f).hex() == want.hex()
        for a in (2.0, -0.75, 0.0, -0.0, 1e300, float("inf")):
            got = outcome(lambda: array_rows(f.scaled(a)))
            assert got == outcome(lambda: dict_rows(df.scaled(a)))
        for k in range(1, size + 2):
            got = outcome(lambda: array_rows(slice_kernel(f, k)))
            assert got == outcome(lambda: dict_rows(oracles.dict_slice_kernel(df, k)))
        assert f.max_index() == df.max_index() and f.is_zero() == df.is_zero()
        assert dict(f.entries) == df.entries and list(f.entries) == list(df.entries)

    @given(st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_from_pairs_equals_the_dict_route(self, data):
        """Duplicates in any order, keys unsorted, and malformed pairs: the
        same rows, or the same first error."""
        order = data.draw(
            st.one_of(st.integers(0, 3), st.sampled_from([-1, 1.5, True])), label="order"
        )
        index = st.one_of(st.integers(1, 5), st.sampled_from([0, -2, 1.5, True]))
        key = st.one_of(
            st.lists(st.integers(1, 5), min_size=2, max_size=2),
            st.lists(st.integers(1, 5), min_size=0, max_size=4, unique=True),
            st.lists(index, min_size=0, max_size=3),
        )
        value = st.one_of(COEFFICIENT, st.sampled_from([float("inf"), float("nan")]))
        pairs = data.draw(st.lists(st.tuples(key, value), max_size=10), label="pairs")
        got = outcome(lambda: array_rows(Kernel.from_pairs(order, pairs)))
        assert got == outcome(lambda: dict_rows(oracles.dict_from_pairs(order, pairs)))

    def test_from_pairs_errors(self):
        # Each first error in turn: the pairs', the sums', then the checks'.
        cases = [
            (2, [((1, 2), 1e308), ((2, 1), 1e308), ((1, 1), 1.0)], ValueError),
            (2, [((1, 2), 1e308), ((2, 1), 1e308)], OverflowError),
            (1.5, [((1, 2), 1e308), ((2, 1), 1e308)], OverflowError),
            (1.5, [((1, 2), 1.0)], ValueError),
            (2, [((1, 2), float("inf")), ((3,), 1.0)], ValueError),
            (2, [((3,), 1.0), ((1, 2), float("inf"))], ValueError),
            (2, [((0, 2), 1.0)], IndexOutOfRange),
        ]
        for order, pairs, error in cases:
            got = outcome(lambda: Kernel.from_pairs(order, pairs))
            assert got == outcome(lambda: oracles.dict_from_pairs(order, pairs))
            assert got[0] is error

    def test_an_index_beyond_int32_is_refused(self):
        limit = np.iinfo(np.int32).max
        assert Kernel(1, {(limit,): 1.0}).max_index() == limit
        message = rf"^tuple \(1, {limit + 1}\) holds an index beyond {limit}$"
        with pytest.raises(IndexOutOfRange, match=message):
            Kernel(2, {(1, limit + 1): 1.0})
        with pytest.raises(IndexOutOfRange, match=message):
            Kernel.from_pairs(2, [((limit + 1, 1), 1.0)])
        # A zero coefficient is dropped, whatever its index, as before.
        assert Kernel(2, {(1, limit + 1): 0.0}).is_zero()

    def test_is_read_only(self):
        f = Kernel(2, {(1, 2): 1.0, (1, 3): -0.5})
        with pytest.raises(AttributeError):
            f.order = 3
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        with pytest.raises(ValueError):
            f.keys[0, 0] = 2
        with pytest.raises(TypeError):
            f.entries[(1, 2)] = 2.0
        assert f.keys.dtype == np.int32 and f.keys.tolist() == [[0, 1], [0, 2]]


FINITE = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([1.0, -1.0, 0.5]))


def draw_expansion(data, model, label, top=3, coefficient=FINITE):
    """The same random expansion of Kernels and of DictKernels."""
    mean = data.draw(st.floats(-2.0, 2.0), label=f"{label} mean")
    mappings = {
        order: draw_mapping(data, order, model.size, f"{label} order {order}", coefficient)
        for order in range(1, min(top, model.size) + 1)
    }
    return (
        ChaosExpansion(mean, {o: Kernel(o, m) for o, m in mappings.items()}),
        ChaosExpansion(mean, {o: DictKernel(o, m) for o, m in mappings.items()}),
    )


class TestChaosAndMalliavin:
    @given(st.data())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_operations_equal_the_dict_route(self, data):
        model = draw_model(data)
        expansion, dict_expansion = draw_expansion(data, model, "F")
        table = to_table(model, expansion)
        want = oracles.dict_to_table(model, dict_expansion)
        assert table.values.tobytes() == want.values.tobytes()
        seed = data.draw(st.integers(0, 99), label="seed")
        uniforms = np.random.default_rng(seed).random((7, model.size))
        signs = np.where(uniforms < 0.5, 1, -1).astype(np.int8)
        got = evaluate_on_signs(model, expansion, signs)
        want = oracles.dict_evaluate_on_signs(model, dict_expansion, signs)
        assert got.tobytes() == want.tobytes()
        for values in (table.values, np.round(table.values * 4.0)):
            tab = FunctionalTable(model, values)
            got = expansion_rows(decompose(model, tab), array_rows)
            assert got == expansion_rows(oracles.dict_decompose(model, tab), dict_rows)
        for k in range(1, model.size + 2):
            got = expansion_rows(gradient_chaos(expansion, k), array_rows)
            want = oracles.dict_gradient_chaos(dict_expansion, k)
            assert got == expansion_rows(want, dict_rows)
        fields = ({}, {})
        for k in range(1, model.size + 1):
            if model.size > 1 and data.draw(st.booleans(), label=f"component {k}"):
                pair = draw_expansion(data, model, f"u_{k}", 2, COEFFICIENT)
                fields[0][k], fields[1][k] = pair  # values up to 1.5e308 too
        got = outcome(
            lambda: expansion_rows(divergence(model, GradientField(fields[0])), array_rows)
        )
        want = outcome(
            lambda: expansion_rows(
                oracles.dict_divergence(model, GradientField(fields[1])), dict_rows
            )
        )
        assert got == want

    def test_decompose_raises_at_the_same_key(self):
        # Values near the float limit make hi - lo overflow in the transform.
        model = build_model([0.3, 0.6, 0.5])
        for top in (1.7e308, -1.7e308):
            values = np.zeros(8)
            values[[0, 1, 6]] = -top, top, -top
            table = FunctionalTable(model, values)
            with np.errstate(over="ignore", invalid="ignore"):
                got = outcome(lambda: expansion_rows(decompose(model, table), array_rows))
                want = outcome(
                    lambda: expansion_rows(oracles.dict_decompose(model, table), dict_rows)
                )
            assert got == want
            assert got[0] is ValueError and got[1].startswith("non-finite coefficient at ")
