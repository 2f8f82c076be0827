"""Acceptance suite: one test per exit criterion, run at stated tolerances.

Each criterion prints one [PASS]/[FAIL] line (visible with `pytest -s`).
Timed criteria assert their runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cornercase.bench import (
    emit_report,
    generate_synthetic_benchmark,
    parse_report,
    run_benchmark,
    run_corruption_sweep,
    save_report_json,
)
from cornercase.corruptions import (
    apply_fog,
    apply_gaussian_noise,
    apply_white_box,
    severity_sweep,
)
from cornercase.density import build_knn_index, fit_gmm, knn_kth_sqdist
from cornercase.embeddings import EmbeddingSet, load_embeddings, toy_encode
from cornercase.images import DepthMap, ImageBuffer
from cornercase.metrics import LabeledScores, aupr, auroc, fpr_at_tpr
from cornercase.stats import corr_p_value, pca_fit, pearson, spearman
from cornercase.synthetic import (
    FOG_FAMILY,
    NOISE_FAMILY,
    WHITEBOX_FAMILY,
    scene_set,
)
from cornercase.uncertainty import DirichletParams, dirichlet_pdf_batch, dirichlet_uncertainty


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


# ---------------------------------------------------------------------------
# shared oracles
# ---------------------------------------------------------------------------


def _auroc_oracle(id_s, ood_s):
    gt = (id_s[:, None] > ood_s[None, :]).sum()
    eq = (id_s[:, None] == ood_s[None, :]).sum()
    return 100.0 * (gt + 0.5 * eq) / (id_s.size * ood_s.size)


def _fpr_oracle(id_s, ood_s, target=0.95):
    best = None
    for lam in np.concatenate([id_s, ood_s]):
        if (id_s >= lam).mean() >= target and (best is None or lam > best):
            best = lam
    return 100.0 * (ood_s >= best).mean()


def _ap_oracle(scores, positives):
    n_pos = positives.sum()
    thresholds = np.unique(scores)[::-1]
    predicted = scores[None, :] >= thresholds[:, None]
    tp = (predicted & positives[None, :]).sum(axis=1)
    recall = tp / n_pos
    precision = tp / predicted.sum(axis=1)
    prev = np.concatenate([[0.0], recall[:-1]])
    return 100.0 * ((recall - prev) * precision).sum()


def _aupr_oracle(id_s, ood_s, positive):
    scores = np.concatenate([id_s, ood_s])
    labels = np.concatenate(
        [np.ones(id_s.size, dtype=bool), np.zeros(ood_s.size, dtype=bool)]
    )
    if positive == "out":
        scores, labels = -scores, ~labels
    return _ap_oracle(scores, labels)


def _random_split(rng):
    n_id = int(rng.integers(1, 2001))
    n_ood = int(rng.integers(1, 2001))
    if rng.uniform() < 0.3:
        # tie-heavy: few exactly representable levels
        pool = rng.integers(0, 8, size=6) * 0.125
        id_s = rng.choice(pool, size=n_id) + 0.125
        ood_s = rng.choice(pool, size=n_ood)
    else:
        id_s = rng.normal(loc=0.5, size=n_id)
        ood_s = rng.normal(size=n_ood)
    return LabeledScores(id_scores=id_s, ood_scores=ood_s)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence on 200 random instances"):
        rng = np.random.default_rng(101)
        start = time.time()
        for _ in range(200):
            s = _random_split(rng)
            i, o = s.id_scores, s.ood_scores
            assert auroc(s) == pytest.approx(_auroc_oracle(i, o), abs=1e-9)
            assert fpr_at_tpr(s) == pytest.approx(_fpr_oracle(i, o), abs=1e-9)
            assert aupr(s, "in") == pytest.approx(_aupr_oracle(i, o, "in"), abs=1e-9)
            assert aupr(s, "out") == pytest.approx(_aupr_oracle(i, o, "out"), abs=1e-9)
        elapsed = time.time() - start
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s, budget 60s"


def test_criterion_2_rank_invariance():
    with criterion(2, "metrics invariant under strictly increasing transforms"):
        rng = np.random.default_rng(102)
        transforms = [
            lambda v: np.exp(v / 8.0),
            lambda v: 2.5 * v + 17.0,
            lambda v: v**3,
        ]
        for _ in range(40):
            s = _random_split(rng)
            base = (auroc(s), fpr_at_tpr(s), aupr(s, "in"), aupr(s, "out"))
            for tf in transforms:
                ts = LabeledScores(id_scores=tf(s.id_scores), ood_scores=tf(s.ood_scores))
                got = (auroc(ts), fpr_at_tpr(ts), aupr(ts, "in"), aupr(ts, "out"))
                np.testing.assert_allclose(got, base, atol=1e-9)


def test_criterion_3_em_correctness():
    with criterion(3, "EM monotone log-likelihood and mean recovery on 20 mixtures"):
        rng = np.random.default_rng(103)
        start = time.time()
        for trial in range(20):
            k = (1, 2, 4)[trial % 3]
            dim = int(rng.integers(2, 17))
            # well-separated means: orthogonal-ish lattice points, 12 units apart
            true_means = rng.normal(size=(k, dim))
            true_means /= np.maximum(np.linalg.norm(true_means, axis=1, keepdims=True), 1e-9)
            true_means *= 12.0 * np.arange(1, k + 1)[:, None]
            samples = np.vstack(
                [rng.normal(loc=m, scale=1.0, size=(150, dim)) for m in true_means]
            )
            es = EmbeddingSet.from_matrix(
                [f"m{trial}-{i}" for i in range(len(samples))], samples
            )
            model = fit_gmm(es, components=k, seed=trial)
            trace = model.log_likelihoods
            assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
            # greedy-match fitted means to true means
            remaining = list(range(k))
            for m in true_means:
                dists = [np.linalg.norm(model.means[j] - m) for j in remaining]
                j = int(np.argmin(dists))
                assert dists[j] < 0.5
                remaining.pop(j)
        elapsed = time.time() - start
        assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s, budget 30s"


def test_criterion_4_knn_exactness():
    with criterion(4, "knn_kth_sqdist equals the O(n^2) full-scan oracle exactly"):
        rng = np.random.default_rng(104)
        for _ in range(100):
            n = int(rng.integers(60, 501))
            k = int(rng.integers(1, 51))
            dim = int(rng.integers(2, 17))
            pts = rng.normal(size=(n, dim))
            index = build_knn_index(
                EmbeddingSet.from_matrix([f"p{i}" for i in range(n)], pts), k=k
            )
            queries = rng.normal(size=(5, dim))
            got = knn_kth_sqdist(index, queries)
            for qi, q in enumerate(queries):
                d2 = np.sort(((pts - q) ** 2).sum(axis=1))
                assert got[qi] == d2[k - 1]


def test_criterion_5_synthetic_shift_separation(tmp_path):
    with criterion(
        5,
        "synthetic 6-sigma shift scores within 1.0 of the true-density oracle, "
        "itself within 1.5 of the one-class ceiling; zero shift is chance",
    ):
        cfg0 = generate_synthetic_benchmark(
            dim=64, n_train=500, n_test=500, shift=0.0, seed=105, out_dir=tmp_path / "s0"
        )
        for method, _, rep in run_benchmark(cfg0).rows:
            assert rep.auroc == pytest.approx(50.0, abs=3.0), (
                f"{method} at shift 0: AUROC {rep.auroc:.2f} not within 50 +/- 3"
            )
        cfg6 = generate_synthetic_benchmark(
            dim=64, n_train=500, n_test=500, shift=6.0, seed=105, out_dir=tmp_path / "s6"
        )
        # Neither detector sees the shift direction, so the yardstick is the
        # true ID log-density -||x||^2: on the very same samples, and in
        # population for this geometry.
        id_r2 = (load_embeddings(cfg6.id_test.path).matrix() ** 2).sum(axis=1)
        ood_r2 = (load_embeddings(cfg6.ood_sets[0].path).matrix() ** 2).sum(axis=1)
        oracle = _auroc_oracle(-id_r2, -ood_r2)
        # Population ceiling P(chi2(64) < noncentral chi2(64, 6^2)) by seeded
        # Monte Carlo. Averaged over the unknown unit direction u, the
        # likelihood ratio of N(6u, I) against N(0, I) rises with ||x||, so
        # no score that does not know u does better than -||x||^2.
        rng = np.random.default_rng(0)
        ceiling = 100.0 * np.mean(
            rng.chisquare(64, 2_000_000) < rng.noncentral_chisquare(64, 36.0, 2_000_000)
        )
        assert abs(oracle - ceiling) <= 1.5, (
            f"true-density oracle AUROC {oracle:.2f} is more than 1.5 from the "
            f"population ceiling {ceiling:.2f}: the generator's geometry is off"
        )
        for method, _, rep in run_benchmark(cfg6).rows:
            assert rep.auroc >= oracle - 1.0, (
                f"{method} at shift 6, dim 64: AUROC {rep.auroc:.2f} < "
                f"true-density oracle {oracle:.2f} - 1.0 "
                f"(population ceiling {ceiling:.2f})"
            )


def _toy_model(train_scenes, seed=0):
    es = EmbeddingSet.from_matrix(
        [f"t{i}" for i in range(len(train_scenes))], [toy_encode(img, 4) for img in train_scenes]
    )
    return fit_gmm(es, components=4, seed=seed)


def test_criterion_6_fog_trend():
    with criterion(6, "fog sweep trend: AUROC strictly up, FPR@95 strictly down"):
        start = time.time()
        model = _toy_model(scene_set(FOG_FAMILY, 300, seed=1000))
        clean = [
            (f"s{i}", img) for i, img in enumerate(scene_set(FOG_FAMILY, 220, seed=5000))
        ]
        specs = severity_sweep("fog", "fog-paper", base_seed=0)
        rows, correlations = run_corruption_sweep(clean, specs, model)
        aurocs = [rep.auroc for _, rep in rows]
        fprs = [rep.fpr_at_95 for _, rep in rows]
        assert all(b > a for a, b in zip(aurocs, aurocs[1:])), f"AUROC not strict: {aurocs}"
        assert all(b < a for a, b in zip(fprs, fprs[1:])), f"FPR not strict: {fprs}"
        spearman_auroc = [
            c.coefficient for m, c in correlations if m == "auroc" and c.kind == "spearman"
        ]
        assert spearman_auroc == [1.0]
        elapsed = time.time() - start
        assert elapsed < 300.0, f"criterion 6 took {elapsed:.1f}s, budget 300s"


def test_criterion_7_correlation_signs():
    with criterion(7, "noise and white-box sweeps correlate with the right signs"):
        for family, kind, preset, train_seed, test_seed in (
            (NOISE_FAMILY, "gaussian_noise", "noise-paper", 2000, 6000),
            (WHITEBOX_FAMILY, "white_box", "whitebox-paper", 3000, 7000),
        ):
            model = _toy_model(scene_set(family, 300, seed=train_seed))
            clean = [
                (f"s{i}", img)
                for i, img in enumerate(scene_set(family, 200, seed=test_seed))
            ]
            specs = severity_sweep(kind, preset, base_seed=0)
            _, correlations = run_corruption_sweep(clean, specs, model)
            by_key = {(m, c.kind): c for m, c in correlations}
            fpr_sp = by_key[("fpr_at_95", "spearman")]
            auroc_sp = by_key[("auroc", "spearman")]
            assert fpr_sp.coefficient < 0 and fpr_sp.p_value < 0.05, (
                f"{kind}: Spearman(severity, FPR@95) = {fpr_sp.coefficient:+.3f}, "
                f"p = {fpr_sp.p_value:.3g}"
            )
            assert auroc_sp.coefficient > 0 and auroc_sp.p_value < 0.05, (
                f"{kind}: Spearman(severity, AUROC) = {auroc_sp.coefficient:+.3f}, "
                f"p = {auroc_sp.p_value:.3g}"
            )


def test_criterion_8_corruption_and_dirichlet_exactness():
    with criterion(8, "corruption exactness and Dirichlet normalization"):
        rng = np.random.default_rng(108)
        img = ImageBuffer(rng.uniform(0.0, 0.9, size=(24, 32, 3)))
        # fog beta=0 identity
        np.testing.assert_array_equal(apply_fog(img, None, 0.0).pixels, img.pixels)
        # full-extinction limit equals atmospheric light
        far = DepthMap(depth=np.full((24, 32), 1e9), valid=np.ones((24, 32), dtype=bool))
        np.testing.assert_allclose(
            apply_fog(img, far, 1.0, atmospheric_light=0.6).pixels, 0.6, atol=1e-12
        )
        # white-box pixel-diff count exact (100x100, f=0.01 -> 100 pixels)
        big = ImageBuffer(rng.uniform(0.0, 0.9, size=(100, 100, 3)))
        boxed = apply_white_box(big, 0.01, seed=5)
        assert np.any(boxed.pixels != big.pixels, axis=2).sum() == 100
        # noise determinism byte-exact
        a = apply_gaussian_noise(img, 0.03, seed=9).pixels.tobytes()
        b = apply_gaussian_noise(img, 0.03, seed=9).pixels.tobytes()
        assert a == b
        # Dirichlet Monte-Carlo normalization within 1% for K <= 4
        for kappa in ([2.0, 3.0], [1.5, 2.5, 4.0], [2.0, 1.2, 3.0, 0.8]):
            k = len(kappa)
            P = rng.dirichlet(np.ones(k), size=1_000_000)
            mean_pdf = dirichlet_pdf_batch(DirichletParams(kappa=kappa), P).mean()
            estimate = mean_pdf / math.factorial(k - 1)
            assert abs(estimate - 1.0) < 0.01, f"K={k}: MC integral {estimate:.4f}"
        # scale-inverse property: exact under binary scaling, 1e-12 otherwise
        params = DirichletParams(kappa=[0.7, 2.3, 5.1, 1.9])
        u = dirichlet_uncertainty(params)
        for exp in (-4, -1, 2, 6):
            c = 2.0**exp
            assert dirichlet_uncertainty(DirichletParams(kappa=c * params.kappa)) == u / c
        for c in (0.3, 1.7, 9.42):
            got = dirichlet_uncertainty(DirichletParams(kappa=c * params.kappa))
            assert got == pytest.approx(u / c, rel=1e-12)


def test_criterion_9_statistics_oracles():
    with criterion(9, "correlation, p-value and PCA oracles"):
        rng = np.random.default_rng(109)
        # coefficients against the direct formulas
        for _ in range(50):
            x = rng.normal(size=30)
            y = 0.6 * x + rng.normal(size=30)
            xm, ym = x - x.mean(), y - y.mean()
            r_direct = (xm * ym).sum() / math.sqrt((xm**2).sum() * (ym**2).sum())
            assert pearson(x, y).coefficient == pytest.approx(r_direct, abs=1e-12)
            rx = np.argsort(np.argsort(x)) + 1.0  # tie-free, plain ranks
            ry = np.argsort(np.argsort(y)) + 1.0
            rxm, rym = rx - rx.mean(), ry - ry.mean()
            rho_direct = (rxm * rym).sum() / math.sqrt((rxm**2).sum() * (rym**2).sum())
            assert spearman(x, y).coefficient == pytest.approx(rho_direct, abs=1e-12)
        # p-value for n=20, r=0.5 against Simpson integration of the t pdf
        df = 18
        t = 0.5 * math.sqrt(df) / math.sqrt(1.0 - 0.25)
        const = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(
            df * math.pi
        )
        xs = np.linspace(t, t + 60.0, 2 * 200_000 + 1)
        ys = const * (1.0 + xs * xs / df) ** (-(df + 1) / 2)
        h = (xs[-1] - xs[0]) / (len(xs) - 1)
        oracle = 2.0 * h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1::2].sum() + 2 * ys[2:-1:2].sum())
        p = corr_p_value(0.5, 20)
        assert p == pytest.approx(oracle, abs=1e-3)
        assert p == pytest.approx(0.0248, abs=1e-3)
        # PCA against a dense eigendecomposition oracle, up to sign
        X = rng.normal(size=(100, 20)) @ rng.normal(size=(20, 20))
        es = EmbeddingSet.from_matrix([f"r{i}" for i in range(100)], X)
        model = pca_fit(es, 5)
        cov = np.cov(X, rowvar=False, ddof=1)
        vals, vecs = np.linalg.eigh(cov)
        order = np.argsort(vals)[::-1][:5]
        np.testing.assert_allclose(model.explained_variances, vals[order], rtol=1e-8)
        for i, col in enumerate(order):
            dot = abs(float(np.dot(vecs[:, col], model.components[i])))
            assert dot == pytest.approx(1.0, abs=1e-8)


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "bench runs are byte-identical and reports round-trip"):
        cfg = generate_synthetic_benchmark(
            dim=16, n_train=200, n_test=200, shift=4.0, seed=110, out_dir=tmp_path
        )
        r1, r2 = run_benchmark(cfg), run_benchmark(cfg)
        csv1, csv2 = emit_report(r1, "csv"), emit_report(r2, "csv")
        md1, md2 = emit_report(r1, "markdown"), emit_report(r2, "markdown")
        assert csv1.encode() == csv2.encode()
        assert md1.encode() == md2.encode()
        save_report_json(r1, tmp_path / "a.json")
        save_report_json(r2, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        # the internal parser recovers identical values from both formats
        assert parse_report(csv1, "csv") == parse_report(md1, "markdown")
