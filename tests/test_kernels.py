import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstein.errors import (
    InvalidContractionIndices,
    OrderMismatch,
)
from radstein.kernels import (
    Kernel,
    RawTensor,
    contract,
    inner_product,
    kernel_as_raw,
    norm,
    norm_sq,
    slice_kernel,
    sym_offdiag_weighted_contract,
    symmetrize,
    to_kernel,
    weighted_contract,
)
from radstein.model import build_model

import oracles


def star_kernel(n):
    """Order-2 kernel with value (n-1)/(2 n^2) on every pair {1, j}."""
    value = (n - 1) / (2.0 * n * n)
    return Kernel(2, {(1, j): value for j in range(2, n + 1)})


def tensors_close(a, b, tol=1e-13):
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)


class TestKernelBasics:
    def test_rejects_unsorted_tuple(self):
        with pytest.raises(ValueError):
            Kernel(2, {(2, 1): 1.0})

    def test_prunes_zeros(self):
        assert Kernel(2, {(1, 2): 0.0}).is_zero()

    def test_value_respects_symmetry_and_diagonal(self):
        f = Kernel(2, {(1, 2): 3.0})
        assert f.value((2, 1)) == 3.0
        assert f.value((1, 1)) == 0.0


class TestContract:
    def test_tensor_product_with_unit_scalar(self):
        f = Kernel(2, {(1, 2): 0.7, (2, 3): -0.4})
        result = contract(f, Kernel.scalar(1.0), 0, 0)
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


class TestSymmetrize:
    def test_fixed_point_on_symmetric_input(self):
        f = Kernel(2, {(1, 2): 0.3, (1, 3): -0.2})
        raw = kernel_as_raw(f)
        assert symmetrize(raw).entries == raw.entries

    def test_two_permutations(self):
        t = RawTensor(2, {(1, 2): 1.0})
        got = symmetrize(t)
        assert got.entries == {(1, 2): 0.5, (2, 1): 0.5}

    def test_projection(self):
        rng = random.Random(5)
        entries = {
            tuple(rng.randint(1, 4) for _ in range(3)): rng.uniform(-1, 1)
            for _ in range(10)
        }
        t = RawTensor(3, entries)
        once = symmetrize(t)
        twice = symmetrize(once)
        assert tensors_close(once.entries, twice.entries, 1e-14)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_norm_nonincreasing(self, seed):
        rng = random.Random(seed)
        entries = {
            tuple(rng.randint(1, 5) for _ in range(2)): rng.uniform(-1, 1)
            for _ in range(rng.randint(1, 12))
        }
        t = RawTensor(2, entries)
        assert norm(symmetrize(t)) <= norm(t) + 1e-12


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
