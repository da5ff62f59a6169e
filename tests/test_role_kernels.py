"""The MDL grid's two kernels, `quantize` and `nmf_kl`, against the plain
loops they replaced. Both kernels are exact rewrites: every centroid,
factor and objective value has to match the loops bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import artifact.roles as roles
from artifact.roles import EPS, NMFResult, generalized_kl, nmf_kl, quantize
from artifact.pipeline import train

from conftest import small_pipeline_config

# The loops the kernels replaced. Their reduction order, iteration count and
# tie rule are the ones the kernels must keep.


def ref_lloyd(matrix, bits):
    """Lloyd quantization, every centroid recomputed every round; also
    returns the number of rounds, 100 when the loop hit its cap."""
    arr = np.asarray(matrix, dtype=float)
    flat = arr.ravel()
    if flat.size == 0:
        return arr.copy(), np.zeros(0), 0
    k = 2 ** bits
    centroids = np.quantile(flat, (np.arange(k) + 0.5) / k)
    assignment = np.zeros(flat.size, dtype=int)
    for rounds in range(100):
        assignment = np.argmin(np.abs(flat[:, None] - centroids[None, :]), axis=1)
        updated = centroids.copy()
        for j in range(k):
            members = flat[assignment == j]
            if members.size:
                updated[j] = members.mean()
        if np.array_equal(updated, centroids):
            break
        centroids = updated
    else:
        rounds = 100
    assignment = np.argmin(np.abs(flat[:, None] - centroids[None, :]), axis=1)
    return centroids[assignment].reshape(arr.shape), centroids, rounds


def ref_quantize(matrix, bits):
    quantized, centroids, _ = ref_lloyd(matrix, bits)
    return quantized, centroids


def ref_nmf_kl(V, r, seed=0, max_iter=200, tol=1e-7):
    """KL multiplicative updates, three G @ F products and a fresh
    divergence per step."""
    V = np.asarray(V, dtype=float)
    n, f = V.shape
    if V.sum() == 0.0:
        return NMFResult(np.zeros((n, r)), np.zeros((r, f)), [0.0], 0)
    rng = np.random.default_rng(seed)
    avg = math.sqrt(V.mean() / r)
    G = avg * np.abs(rng.standard_normal((n, r)))
    F = avg * np.abs(rng.standard_normal((r, f)))
    history = [generalized_kl(V, G @ F)]
    for _ in range(max_iter):
        W = np.maximum(G @ F, EPS)
        F *= (G.T @ (V / W)) / np.maximum(G.sum(axis=0)[:, None], EPS)
        W = np.maximum(G @ F, EPS)
        G *= ((V / W) @ F.T) / np.maximum(F.sum(axis=1)[None, :], EPS)
        d = generalized_kl(V, G @ F)
        history.append(d)
        if history[-2] - d < tol * max(history[-2], EPS):
            break
    return NMFResult(G, F, history, len(history) - 1)


def assert_same_quantization(matrix, bits):
    q, c = quantize(matrix, bits)
    q_ref, c_ref = ref_quantize(matrix, bits)
    assert q.shape == q_ref.shape
    assert np.array_equal(q, q_ref)
    assert np.array_equal(c, c_ref)


# -- quantize -------------------------------------------------------------------


@st.composite
def quantizer_inputs(draw):
    """A nonnegative matrix and a bit width: spread values, a few values
    repeated, or one constant, with zeros mixed in and some outliers."""
    bits = draw(st.integers(1, 6))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    n = rows * cols
    value = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(("spread", "repeats", "constant")))
    if kind == "constant":
        values = [draw(st.just(0.0) | value)] * n
    else:
        if kind == "repeats":
            value = st.sampled_from(draw(st.lists(value, min_size=1, max_size=6)))
        values = draw(st.lists(st.just(0.0) | value, min_size=n, max_size=n))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            values[i] = draw(st.floats(1e3, 1e7))
    return np.array(values).reshape(rows, cols), bits


@given(quantizer_inputs())
@settings(max_examples=300, deadline=None)
def test_quantize_matches_the_lloyd_loop(case):
    assert_same_quantization(*case)


def test_quantize_matches_the_lloyd_loop_at_its_round_cap():
    """A matrix whose centroids still move after 100 rounds: the entries
    take the final centroids, not the ones the last assignment used."""
    u = np.random.default_rng(1732).random(285)
    matrix = (1.0 / (u * u) - 1.0).reshape(57, 5)
    assert ref_lloyd(matrix, 4)[2] == 100
    assert_same_quantization(matrix, 4)


def test_quantize_of_an_empty_matrix():
    assert_same_quantization(np.zeros((0, 3)), 2)


# -- nmf_kl -----------------------------------------------------------------------


def sparse_counts(seed, n=30, f=12):
    """A feature-like matrix: heavy-tailed counts, about a third zeros, and
    one all-zero row and column."""
    rng = np.random.default_rng(seed)
    V = rng.poisson(rng.gamma(0.5, 20.0, size=(n, f))).astype(float)
    V[rng.random((n, f)) < 0.3] = 0.0
    V[0] = 0.0
    V[:, -1] = 0.0
    return V


@pytest.mark.parametrize("data_seed", [0, 1])
@pytest.mark.parametrize("r", [1, 2, 5, 12])
@pytest.mark.parametrize("tol", [0.0, 1e-7, 1e-3])
def test_nmf_kl_matches_the_update_loop(data_seed, r, tol):
    V = sparse_counts(data_seed)
    for seed in (0, 1009 * 7 + r):
        got = nmf_kl(V, r, seed=seed, max_iter=150, tol=tol)
        want = ref_nmf_kl(V, r, seed=seed, max_iter=150, tol=tol)
        assert got.n_iter == want.n_iter
        assert got.history == want.history
        assert np.array_equal(got.G, want.G)
        assert np.array_equal(got.F, want.F)


def test_nmf_kl_matches_the_update_loop_on_a_dense_matrix():
    V = np.random.default_rng(5).uniform(0.0, 3.0, size=(25, 9))
    got = nmf_kl(V, 4, seed=3)
    want = ref_nmf_kl(V, 4, seed=3)
    assert (got.n_iter, got.history) == (want.n_iter, want.history)
    assert np.array_equal(got.G, want.G) and np.array_equal(got.F, want.F)


# -- the bundle -------------------------------------------------------------------


def test_bundle_is_byte_identical_under_the_reference_loops(
    small_streams, small_trained, tmp_path, monkeypatch
):
    monkeypatch.setattr(roles, "quantize", ref_quantize)
    monkeypatch.setattr(roles, "nmf_kl", ref_nmf_kl)
    reference = train(small_pipeline_config(small_streams, tmp_path))
    for name in ("grid.csv", "role_features.csv", "metadata.txt",
                 "role_descriptions.csv"):
        assert (reference.bundle_dir / name).read_bytes() == \
            (small_trained.bundle_dir / name).read_bytes(), name
