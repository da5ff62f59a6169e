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
    repeated, or one constant, with zeros mixed in and some outliers; or
    one of the shapes that are hard for a sorted assignment: entries a few
    ulps apart, magnitudes from 1e-300 to 1e7 in one matrix, entries at
    the exact midpoints of other entries, or so many equal entries that
    several quantile centroids coincide."""
    bits = draw(st.integers(1, 6))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    n = rows * cols
    value = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(("spread", "repeats", "constant", "ulps", "magnitudes",
                                 "midpoints", "duplicated")))
    if kind == "constant":
        values = [draw(st.just(0.0) | value)] * n
    elif kind == "ulps":
        base = draw(st.sampled_from((1e-300, 1e-8, 0.1, 1.0, 3e5)) | value)
        steps = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
        values = [base + i * np.spacing(base) for i in steps]
    elif kind == "magnitudes":
        exponents = st.floats(-300.0, 7.0, allow_nan=False)
        values = [10.0 ** e for e in draw(st.lists(exponents, min_size=n, max_size=n))]
    elif kind == "midpoints":
        ends = sorted(draw(st.lists(value, min_size=2, max_size=5)))
        points = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        values = draw(st.lists(st.sampled_from(points), min_size=n, max_size=n))
    elif kind == "duplicated":
        common = draw(st.just(0.0) | value)
        values = draw(st.lists(st.just(common) | value, min_size=n, max_size=n))
        for i in range(0, n, 7):
            values[i] = common
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


@given(quantizer_inputs())
@settings(max_examples=300, deadline=None)
def test_start_centroids_are_numpys_quantiles(case):
    """np.quantile, which `quantize` no longer calls because it imports
    numpy.ma, at every bit width the MDL grid may ask for."""
    flat = case[0].ravel()
    for bits in (case[1], 16):
        k = 2 ** bits
        want = np.quantile(flat, (np.arange(k) + 0.5) / k)
        assert np.array_equal(roles._start_centroids(np.sort(flat), k), want)


def test_quantize_matches_the_lloyd_loop_at_its_round_cap():
    """A matrix whose centroids still move after 100 rounds: the entries
    take the final centroids, not the ones the last assignment used."""
    u = np.random.default_rng(1732).random(285)
    matrix = (1.0 / (u * u) - 1.0).reshape(57, 5)
    assert ref_lloyd(matrix, 4)[2] == 100
    assert_same_quantization(matrix, 4)


def test_quantize_of_an_empty_matrix():
    assert_same_quantization(np.zeros((0, 3)), 2)


def count_dense_runs(monkeypatch):
    """A list that `quantize`'s dense fallback appends to on each call."""
    calls = []
    dense = roles._lloyd_dense

    def counted(flat, k):
        calls.append(k)
        return dense(flat, k)

    monkeypatch.setattr(roles, "_lloyd_dense", counted)
    return calls


def test_quantize_falls_back_to_the_dense_loop_on_an_ulp_gap(monkeypatch):
    """The centroids start at 1e-200 and 1e-100, which lie within an ulp
    of each other as seen from the entry 1.0: both distances round to 1.0,
    so 1.0 ties between them and goes to centroid 0, below the other. The
    sorted runs cannot express that; the dense loop decides it."""
    matrix = np.array([[1e-200, 1e-100, 1.0, 1e-100, 1e-200]])
    dense = count_dense_runs(monkeypatch)
    assert_same_quantization(matrix, 1)
    assert dense == [2]
    assert quantize(matrix, 1)[1].tolist() == [1.0, 5e-101]


def test_quantize_keeps_to_the_sorted_entries_on_spread_values(monkeypatch):
    matrix = np.random.default_rng(8).gamma(0.5, 20.0, size=(60, 5))
    dense = count_dense_runs(monkeypatch)
    for bits in range(1, 7):
        assert_same_quantization(matrix, bits)
    assert dense == []


def test_quantize_matches_the_lloyd_loop_on_every_call_of_the_mdl_grid(
    small_streams, tmp_path, monkeypatch
):
    """Every matrix the conftest scenario's MDL grid quantizes, G and F of
    each (roles, bits) point."""
    calls = []
    kernel = roles.quantize

    def recorded(matrix, bits):
        calls.append((np.array(matrix, copy=True), bits))
        return kernel(matrix, bits)

    monkeypatch.setattr(roles, "quantize", recorded)
    result = train(small_pipeline_config(small_streams, tmp_path))
    grid = (result.bundle_dir / "grid.csv").read_text().splitlines()[1:]
    assert len(calls) == 2 * len(grid)
    for matrix, bits in calls:
        assert_same_quantization(matrix, bits)


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
