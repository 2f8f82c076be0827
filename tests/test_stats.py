"""Correlation and PCA tests against direct-formula oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornercase.embeddings import EmbeddingSet
from cornercase.errors import DegenerateInputError, ValidationError
from cornercase.stats import (
    _betacf,
    _tie_ends,
    corr_p_value,
    export_pca_coords,
    midranks,
    pca_fit,
    pca_transform,
    pearson,
    regularized_incomplete_beta,
    spearman,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def pearson_formula_oracle(x, y) -> float:
    """Direct covariance/stddev formula."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cov = ((x - x.mean()) * (y - y.mean())).mean()
    return cov / (x.std() * y.std())


def t_cdf_integration_oracle(t: float, df: int, panels: int = 400_000) -> float:
    """Two-sided p-value by Simpson quadrature of the Student-t pdf."""
    const = math.exp(
        math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
    ) / math.sqrt(df * math.pi)

    def pdf(u):
        return const * (1.0 + u * u / df) ** (-(df + 1) / 2.0)

    # integrate the right tail from |t| out to a far cutoff
    lo, hi = abs(t), abs(t) + 60.0
    xs = np.linspace(lo, hi, 2 * panels + 1)
    ys = np.array([pdf(u) for u in xs])
    h = (hi - lo) / (2 * panels)
    tail = h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1::2].sum() + 2 * ys[2:-1:2].sum())
    return 2.0 * tail


def _rank_oracle(values):
    """Midranks by explicit counting."""
    values = list(values)
    out = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(less + (equal + 1) / 2.0)
    return out


def midranks_loop_reference(values) -> np.ndarray:
    """Tie-walking loop that midranks must equal bit for bit."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    i = 0
    sorted_vals = values[order]
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def betacf_reference(a: float, b: float, x: float) -> float:
    """The Lentz loop with its two half-steps written out, which _betacf
    must equal bit for bit."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    return h


# seeded draws of n values: no ties, five levels, signed zeros among
# rounded values, all values equal, and 16-bit map levels k/65535
RANK_DRAWS = {
    "gaussian": lambda rng, n: rng.normal(size=n),
    "five_levels": lambda rng, n: rng.integers(0, 5, size=n).astype(float),
    "signed_zeros": lambda rng, n: np.round(rng.normal(size=n))
    * rng.choice([-0.0, 0.0, 1.0], size=n),
    "all_equal": lambda rng, n: np.full(n, 0.3),
    "sixteen_bit": lambda rng, n: rng.integers(0, 65536, size=n) / 65535.0,
}


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestPearson:
    def test_exact_linear(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        res = pearson(x, 2.0 * x + 1.0)
        assert res.coefficient == 1.0
        assert res.p_value == 0.0
        assert res.kind == "pearson"

    def test_exact_antilinear(self):
        x = np.array([0.5, 1.5, -2.0, 3.0])
        res = pearson(x, -x)
        assert res.coefficient == -1.0

    def test_p_value_against_integration_oracle(self):
        # coefficient 0.5 at n=20
        p = corr_p_value(0.5, 20)
        t = 0.5 * math.sqrt(18) / math.sqrt(1 - 0.25)
        oracle = t_cdf_integration_oracle(t, 18, panels=20_000)
        assert p == pytest.approx(0.0248, abs=1e-3)
        assert p == pytest.approx(oracle, abs=1e-6)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = rng.normal(size=25)
            y = 0.4 * x + rng.normal(size=25)
            assert pearson(x, y).coefficient == pytest.approx(
                pearson_formula_oracle(x, y), abs=1e-12
            )

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0], [1.0])

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    # the mean of three 0.1s or 96.9s does not round back to the value, so
    # centring leaves residues of about 1e-14 rather than zeros
    @pytest.mark.parametrize("value", [0.1, 96.9, 1 / 3])
    @pytest.mark.parametrize("kind", [pearson, spearman])
    def test_constant_input_whose_mean_rounds_away_is_degenerate(self, kind, value):
        with pytest.raises(DegenerateInputError, match="constant input"):
            kind([value] * 3, [0.0, 1.0, 2.0])
        with pytest.raises(DegenerateInputError, match="constant input"):
            kind([0.0, 1.0, 2.0], [value] * 3)

    @given(
        a=st.floats(0.01, 50.0),
        b=st.floats(-100.0, 100.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_positive_affine_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        r0 = pearson(x, y).coefficient
        r1 = pearson(a * x + b, y).coefficient
        r2 = pearson(x, a * y + b).coefficient
        assert r1 == pytest.approx(r0, abs=1e-12)
        assert r2 == pytest.approx(r0, abs=1e-12)

    @pytest.mark.parametrize("kind", [pearson, spearman])
    @pytest.mark.parametrize("y", [[3.0, 5.0], [5.0, 3.0]])
    def test_two_points_carry_no_significance(self, kind, y):
        # two distinct points always give r = +-1, with 0 degrees of freedom
        res = kind([1.0, 2.0], y)
        assert abs(res.coefficient) == 1.0
        assert res.p_value == 1.0

    def test_no_degrees_of_freedom_checked_before_perfect_r(self):
        assert corr_p_value(1.0, 2) == 1.0
        assert corr_p_value(-1.0, 2) == 1.0
        assert corr_p_value(0.3, 2) == 1.0
        assert corr_p_value(1.0, 3) == 0.0

    # unscaled, the squares of these centred values overflow or vanish
    @pytest.mark.parametrize(
        "x, y",
        [
            ([0.0, 1e200, 2e200], [1.0, 2.0, 3.0]),
            ([1e-200, 2e-200, 3e-200], [1.0, 2.0, 3.0]),
            ([0.001, 0.01, 8e307], [96.9, 93.8, 0.0]),
            ([1e308, 1.5e308, 1.7e308], [3.0, 2.0, 1.0]),  # whose sum overflows too
        ],
    )
    def test_float_extremes(self, x, y):
        x = np.array(x)
        want = pearson_formula_oracle(np.ldexp(x, -np.frexp(x.max())[1]), y)
        res = pearson(x, y)
        assert res.coefficient == pytest.approx(want, abs=1e-12)
        # these points are monotone, so the coefficient has Spearman's sign
        assert math.copysign(1.0, res.coefficient) == spearman(x, y).coefficient
        assert res.p_value == corr_p_value(res.coefficient, 3)

    @given(
        seed=st.integers(0, 2**31 - 1),
        ex=st.integers(-900, 900),
        ey=st.integers(-900, 900),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_scaling_keeps_every_bit(self, seed, ex, ey):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=12)
        y = 0.3 * x + rng.normal(size=12)
        assert pearson(np.ldexp(x, ex), np.ldexp(y, ey)) == pearson(x, y)

    def test_p_monotone_in_r_and_n(self):
        ps = [corr_p_value(r, 25) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b < a for a, b in zip(ps, ps[1:]))
        pn = [corr_p_value(0.4, n) for n in (5, 10, 20, 50, 200)]
        assert all(b < a for a, b in zip(pn, pn[1:]))


class TestSpearman:
    def test_monotone_nonlinear(self):
        x = np.array([0.1, 0.7, 1.3, 2.9, 4.0])
        res = spearman(x, np.exp(x))
        assert res.coefficient == 1.0
        assert res.kind == "spearman"

    def test_reversed(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]).coefficient == -1.0

    def test_midrank_ties_hand_case(self):
        x = [1.0, 2.0, 2.0, 3.0]
        y = [1.0, 2.0, 3.0, 4.0]
        rx = _rank_oracle(x)  # [1, 2.5, 2.5, 4]
        ry = _rank_oracle(y)
        assert spearman(x, y).coefficient == pytest.approx(
            pearson_formula_oracle(rx, ry), abs=1e-12
        )

    def test_equals_pearson_on_tie_free_ranks(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.permutation(12).astype(float) + 1.0
            y = rng.permutation(12).astype(float) + 1.0
            assert spearman(x, y).coefficient == pearson(x, y).coefficient

    def test_midranks_match_counting_oracle(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 5, size=30).astype(float)
        np.testing.assert_array_equal(midranks(values), _rank_oracle(values))


class TestMidranksReference:
    @pytest.mark.parametrize("kind", sorted(RANK_DRAWS))
    def test_equals_loop_reference(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(40):
            values = RANK_DRAWS[kind](rng, int(rng.integers(0, 3000)))
            ranks = midranks(values)
            assert ranks.shape == values.shape
            assert np.array_equal(ranks, midranks_loop_reference(values))

    @pytest.mark.parametrize(
        "values, ends",
        [([], []), ([2.5], [1]), ([1.0, 1.0, 2.0], [2, 3]), ([-0.0, 0.0, 0.0], [3])],
    )
    def test_tie_ends(self, values, ends):
        assert _tie_ends(np.array(values)).tolist() == ends

    @pytest.mark.parametrize("values", [[], [2.5]])
    def test_empty_and_single(self, values):
        ranks = midranks(values)
        assert ranks.shape == (len(values),)
        assert np.array_equal(ranks, midranks_loop_reference(values))


class TestIncompleteBeta:
    def test_symmetry_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        for a, b, x in [(2.0, 3.0, 0.3), (9.0, 0.5, 0.75), (0.5, 0.5, 0.2)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    # a and b as corr_p_value passes them (df/2, 1/2) and others, x over
    # (0, 1) including values past the series' switch-over point
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 11.5, 100.0, 4000.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 3.0, 60.0])
    def test_betacf_equals_reference(self, a, b):
        for x in np.linspace(0.0, 1.0, 41)[1:-1].tolist() + [1e-12, 1 - 1e-12]:
            assert _betacf(a, b, x) == betacf_reference(a, b, x)

    def test_uniform_special_case(self):
        # I_x(1, 1) = x
        for x in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)


class TestPca:
    def _embedding_set(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        return EmbeddingSet(
            [f"r{i}" for i in range(len(matrix))], matrix
        )

    def test_collinear_data(self):
        t = np.linspace(-2, 2, 20)
        es = self._embedding_set(np.stack([t, t], axis=1))
        model = pca_fit(es, 1)
        np.testing.assert_allclose(
            model.components[0], [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-9
        )
        # a full-dim fit is disallowed here only by n; check residual variance via k=1
        assert model.explained_variances[0] == pytest.approx(
            np.stack([t, t], axis=1).var(axis=0, ddof=1).sum(), rel=1e-9
        )

    def test_full_rank_completeness(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 6))
        model = pca_fit(self._embedding_set(X), 6)
        total = X.var(axis=0, ddof=1).sum()
        assert model.explained_variances.sum() == pytest.approx(total, rel=1e-9)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 20)) @ rng.normal(size=(20, 20))
        model = pca_fit(self._embedding_set(X), 5)
        # direct dense eigendecomposition of the covariance
        cov = np.cov(X, rowvar=False, ddof=1)
        vals, vecs = np.linalg.eigh(cov)
        order = np.argsort(vals)[::-1][:5]
        np.testing.assert_allclose(model.explained_variances, vals[order], rtol=1e-8)
        for i, col in enumerate(order):
            v = vecs[:, col]
            dot = abs(float(np.dot(v, model.components[i])))
            assert dot == pytest.approx(1.0, abs=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 4))
        model = pca_fit(self._embedding_set(X), 3)
        for comp in model.components:
            assert comp[np.argmax(np.abs(comp))] > 0

    def test_transform_centering(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(25, 5)) + 3.0
        model = pca_fit(self._embedding_set(X), 2)
        np.testing.assert_allclose(pca_transform(model, model.mean[None, :]), 0.0, atol=1e-12)

    def test_transform_variances_match(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 8)) * np.array([5, 3, 2, 1, 1, 1, 0.5, 0.1])
        es = self._embedding_set(X)
        model = pca_fit(es, 4)
        coords = pca_transform(model, es.matrix())
        np.testing.assert_allclose(
            coords.var(axis=0, ddof=1), model.explained_variances, rtol=1e-9, atol=1e-9
        )
        # outputs are uncorrelated
        cov = np.cov(coords, rowvar=False, ddof=1)
        np.testing.assert_allclose(cov - np.diag(np.diag(cov)), 0.0, atol=1e-8)

    def test_full_dim_reconstruction(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 6))
        es = self._embedding_set(X)
        model = pca_fit(es, 6)
        z = es.matrix()[7]
        coords = pca_transform(model, z[None, :])[0]
        recon = model.mean + model.components.T @ coords
        np.testing.assert_allclose(recon, z, atol=1e-8)

    def test_k_too_large_rejected(self):
        rng = np.random.default_rng(9)
        es = self._embedding_set(rng.normal(size=(5, 10)))
        with pytest.raises(ValidationError):
            pca_fit(es, 5)  # k must be <= n-1 = 4

    def test_export_jsonl(self, tmp_path):
        import json

        rng = np.random.default_rng(10)
        es = self._embedding_set(rng.normal(size=(10, 4)))
        model = pca_fit(es, 2)
        path = tmp_path / "coords.jsonl"
        export_pca_coords(model, [("train", es)], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 10
        rec = json.loads(lines[0])
        assert rec["dataset"] == "train" and len(rec["coords"]) == 2

    def test_export_bytes_equal_per_value_format(self, tmp_path, monkeypatch):
        # each row is one "%.9g, ..." format; the bytes must be those of
        # format(v, ".9g") per value, on signed zeros, subnormals and
        # exponents near +-300
        import json

        from cornercase import stats

        coords = np.array(
            [
                [0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e300],
                [-1e-300, 1.2345678912345e-300, -9.87654321e299, 1.7976931348623157e308, 1.5],
                [123456789.123, -0.1, 1 / 3, 2.5e-310, -5e-324],
            ]
        )
        es = self._embedding_set(np.zeros((3, 5)))
        model = stats.PcaModel(np.zeros(5), np.eye(5), np.ones(5))
        monkeypatch.setattr(stats, "pca_transform", lambda model, X: coords)
        path = tmp_path / "coords.jsonl"
        export_pca_coords(model, [("set", es)], path)
        expected = "".join(
            f'{{"id": {json.dumps(ident)}, "dataset": "set", '
            f'"coords": [{", ".join(format(v, ".9g") for v in row)}]}}\n'
            for ident, row in zip(es.ids(), coords.tolist())
        )
        assert path.read_bytes() == expected.encode()
        assert "-0, 4.94065646e-324" in expected and "e+300" in expected and "e-300" in expected
