"""Acceptance gate: one test per contract-level criterion.

Every criterion prints one PASS/FAIL line in the ``acceptance criteria``
section of the pytest summary, with the measured worst case in the detail
column.  Tolerances are pinned here and nowhere loosened.
"""

import math

import numpy as np

from conftest import random_contraction, random_measure
from ouchaos.chaos import (ChaosExpansion, enumerate_up_to, eval_expansion,
                           exp_functional_coeffs, monomial_coeffs, project)
from ouchaos.evolution import decay_ratio, pst_apply, pst_contraction, \
    pst_via_second_quant
from ouchaos.gaussian import expect, sqrt_apply, white_noise
from ouchaos.numerics import QuadScheme, gauss_expect_err, gh_tensor
from ouchaos.presets import build_preset, diag_arctan_preset
from ouchaos.secondquant import (CMContraction, degree_block, eigen_system,
                                 gamma_eigen, gamma_integral_apply,
                                 gamma_series_apply, hs_norm_gamma,
                                 hyper_witness, mehler_factors, q0_threshold)


def random_polynomial(rng, d, degree):
    idx = enumerate_up_to(d, degree)
    coeffs = rng.uniform(-1.0, 1.0, len(idx))
    powers = np.array([list(a) for a in idx], dtype=int)

    def f(p):
        # integer power tables: one product per degree, not a float power
        # of every (point, term, coordinate) triple
        p = np.atleast_2d(p)
        table = np.ones(p.shape + (degree + 1,))
        for k in range(1, degree + 1):
            table[:, :, k] = table[:, :, k - 1] * p
        terms = np.ones((len(p), len(powers)))
        for j in range(d):
            terms *= table[:, j, powers[:, j]]
        return terms @ coeffs
    return f


def random_expansion(rng, gamma, degree):
    idx = enumerate_up_to(gamma.dim, degree)
    return ChaosExpansion(gamma, degree,
                          dict(zip(idx, rng.uniform(-1.0, 1.0, len(idx)))))


def coeff_gap(e1, e2, d, degree):
    return max(abs(e1[a] - e2[a]) for a in enumerate_up_to(d, degree))


def expansion_dot(e1, e2, degree):
    return sum(e1[a] * e2[a] for a in enumerate_up_to(e1.measure.dim, degree))


def test_criterion_01_series_equals_integral(criterion):
    with criterion(1, "series form = integral form") as rec:
        rng = np.random.default_rng(101)
        worst_gh = 0.0
        worst_mc_sigma = 0.0
        flagged = 0
        for _ in range(50):
            d_in = int(rng.integers(1, 4))
            d_out = int(rng.integers(1, 4))
            mu = random_measure(rng, d_in)
            nu = random_measure(rng, d_out)
            t_op = random_contraction(rng, mu, nu)
            f = random_polynomial(rng, d_in, 4)
            series = gamma_series_apply(
                t_op, project(mu, f, 4, QuadScheme.gauss_hermite(8)))
            x = nu.sample(1, seed=int(rng.integers(1 << 30)))[0]
            lhs = eval_expansion(series, x)
            rhs = gamma_integral_apply(t_op, f, x,
                                       QuadScheme.gauss_hermite(10))
            worst_gh = max(worst_gh, abs(lhs - rhs))
            a, cols = mehler_factors(t_op)
            seed = int(rng.integers(1 << 30))
            est, err = gauss_expect_err(
                f, a @ x, cols, QuadScheme.monte_carlo(1_000_000, seed=seed))
            sigma = abs(est - lhs) / max(err, 1e-15)
            if sigma > 3.0:
                # one >3 sigma draw among 50 is a 12% event, not a
                # discrepancy; a real bias survives an independent redraw
                flagged += 1
                est, err = gauss_expect_err(
                    f, a @ x, cols,
                    QuadScheme.monte_carlo(1_000_000, seed=seed + 1))
                sigma = abs(est - lhs) / max(err, 1e-15)
            worst_mc_sigma = max(worst_mc_sigma, sigma)
        rec.detail = ("gh gap %.2e, worst mc deviation %.2f sigma, "
                      "%d of 50 redrawn" % (worst_gh, worst_mc_sigma, flagged))
        assert worst_gh <= 1e-8
        assert worst_mc_sigma <= 3.0
        assert flagged <= 5


def test_criterion_02_exponential_action(criterion):
    with criterion(2, "exponential functional action") as rec:
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(5):
            mu = random_measure(rng, 2)
            nu = random_measure(rng, 2)
            t_op = random_contraction(rng, mu, nu)
            for _ in range(2):
                z = rng.uniform(-1.0, 1.0, 2)
                image = gamma_series_apply(t_op,
                                           exp_functional_coeffs(mu, z, 6))
                want = exp_functional_coeffs(nu, t_op.matrix @ z, 6)
                worst = max(worst, coeff_gap(image, want, 2, 6))
        rec.detail = "coefficient gap %.2e" % worst
        assert worst <= 1e-10


def test_criterion_03_composition_and_adjoint(criterion):
    with criterion(3, "composition and adjoint laws") as rec:
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(8):
            m3 = random_measure(rng, 3)
            m2 = random_measure(rng, 2)
            m1 = random_measure(rng, 2)
            t1 = random_contraction(rng, m3, m2)
            t2 = random_contraction(rng, m2, m1)
            t3 = random_contraction(rng, m1, m1)
            e = random_expansion(rng, m3, 3)
            lhs = gamma_series_apply(t2.compose(t1), e)
            rhs = gamma_series_apply(t2, gamma_series_apply(t1, e))
            worst = max(worst, coeff_gap(lhs, rhs, 2, 3))
            lhs3 = gamma_series_apply(t3.compose(t2).compose(t1), e)
            rhs3 = gamma_series_apply(t3, gamma_series_apply(t2,
                                      gamma_series_apply(t1, e)))
            worst = max(worst, coeff_gap(lhs3, rhs3, 2, 3))
            g = random_expansion(rng, m2, 3)
            pairing = expansion_dot(gamma_series_apply(t1, e), g, 3)
            dual = expansion_dot(e, gamma_series_apply(t1.adjoint, g), 3)
            worst = max(worst, abs(pairing - dual))
        rec.detail = "coefficient gap %.2e" % worst
        assert worst <= 1e-10


def power_iteration_norm(block):
    gram = block.T @ block
    v = np.ones(gram.shape[0]) / math.sqrt(gram.shape[0])
    rayleigh = 0.0
    for _ in range(5000):
        w = gram @ v
        nxt = float(v @ w)
        v = w / np.linalg.norm(w)
        if abs(nxt - rayleigh) <= 1e-15 * max(1.0, nxt):
            rayleigh = nxt
            break
        rayleigh = nxt
    return math.sqrt(rayleigh)


def test_criterion_04_degreewise_norm(criterion):
    with criterion(4, "degree-n block norm = norm^n") as rec:
        rng = np.random.default_rng(404)
        worst = 0.0
        for _ in range(6):
            mu = random_measure(rng, 2)
            nu = random_measure(rng, 2)
            t_op = random_contraction(rng, mu, nu)
            for n in range(1, 6):
                got = power_iteration_norm(degree_block(t_op, n))
                worst = max(worst, abs(got - t_op.op_norm ** n))
        rec.detail = "norm gap %.2e" % worst
        assert worst <= 1e-6


def test_criterion_05_eigen_structure(criterion):
    with criterion(5, "symmetric eigenvector transport") as rec:
        rng = np.random.default_rng(505)
        worst = 0.0
        for _ in range(5):
            mu = random_measure(rng, 2)
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            m = q @ np.diag(rng.uniform(-0.9, 0.9, 2)) @ q.T
            t_op = CMContraction(mu, mu, m)
            vals, v_op = eigen_system(t_op)
            for alpha in enumerate_up_to(2, 4):
                psi = gamma_series_apply(
                    v_op, ChaosExpansion(mu, alpha.order, {alpha: 1.0}))
                image = gamma_series_apply(t_op, psi)
                t_alpha = gamma_eigen(t_op, alpha)
                gap = max(abs(image[a] - t_alpha * psi[a])
                          for a in enumerate_up_to(2, 4))
                worst = max(worst, gap)
        rec.detail = "coefficient gap %.2e" % worst
        assert worst <= 1e-10


def test_criterion_06_hilbert_schmidt(criterion):
    with criterion(6, "Hilbert-Schmidt degree sum") as rec:
        rng = np.random.default_rng(606)
        worst = 0.0
        paper_gap = 0.0
        for _ in range(5):
            mu = random_measure(rng, 2)
            nu = random_measure(rng, 2)
            m = rng.standard_normal((2, 2))
            m *= rng.uniform(0.4, 0.75) / np.linalg.norm(m, 2)
            t_op = CMContraction(mu, nu, m)
            out = hs_norm_gamma(t_op, 40)
            worst = max(worst, abs(out["partial"] - out["closed_form"]))
            paper_gap = max(paper_gap,
                            abs(out["paper_form"] - out["closed_form"]))
        rec.detail = ("sum gap %.2e; printed product form deviates by "
                      "%.2e and is not used" % (worst, paper_gap))
        assert worst <= 1e-6
        assert paper_gap > 1e-3  # records that the printed form disagrees


def test_criterion_07_hypercontractivity_sharpness(criterion):
    with criterion(7, "sharp hypercontractive window") as rec:
        p = 2.0
        margin = math.inf
        for norm in (0.3, 0.5, 0.8):
            mu = random_measure(np.random.default_rng(707), 2)
            t_op = CMContraction.scalar(mu, norm)
            q0 = q0_threshold(t_op, p)
            h = sqrt_apply(mu, np.array([1.0, 0.0]))
            for alpha in np.linspace(0.02, 0.24, 12):
                w = hyper_witness(t_op, p, q0 - 0.1, h, float(alpha))
                assert w.lq_finite
                assert w.lq_norm <= w.lp_norm * (1.0 + 1e-9)
                margin = min(margin, w.lp_norm - w.lq_norm)
            q_over = q0 + 0.1
            tau2 = norm ** 2
            alpha_div = 0.5 * (1.0 / (2.0 * (q_over * tau2 + 1.0 - tau2))
                               + 1.0 / (2.0 * p))
            w = hyper_witness(t_op, p, q_over, h, alpha_div)
            assert not w.lq_finite
        rec.detail = "min contraction margin %.2e below q0" % margin
        assert margin >= 0.0


def test_criterion_08_ou_representation(criterion):
    with criterion(8, "OU kernel = second quantization") as rec:
        arctan = diag_arctan_preset(1.0, 2.0, 2)
        malliavin = build_preset("malliavin_const",
                                 {"rate_const": -1.0,
                                  "noise_consts": [1.0, 1.0], "dim": 2})
        scheme = QuadScheme.gauss_hermite(14)
        rng = np.random.default_rng(808)
        f = random_polynomial(rng, 2, 3)
        worst = 0.0
        for model in (arctan, malliavin):
            for gap in (0.1, 1.0, 5.0):
                s, t = 0.0, gap
                for x in model.measure_at(s).sample(2, seed=9):
                    direct = pst_apply(model, f, s, t, x, scheme)
                    lifted = pst_via_second_quant(model, f, s, t, x, scheme)
                    worst = max(worst, abs(direct - lifted))
        rec.detail = "pointwise gap %.2e" % worst
        assert worst <= 1e-8


def test_criterion_09_invariance_and_contraction(criterion):
    with criterion(9, "measure invariance + CM contraction") as rec:
        model = diag_arctan_preset(1.0, 2.0, 2)
        scheme = QuadScheme.gauss_hermite(10)
        worst = 0.0
        for (s, t) in [(0.0, 0.7), (-1.0, 0.4)]:
            gamma_s = model.measure_at(s)
            gamma_t = model.measure_at(t)
            for alpha in enumerate_up_to(2, 4):
                pw = np.asarray(alpha, dtype=float)
                f = lambda p, pw=pw: np.prod(np.atleast_2d(p) ** pw, axis=1)
                lhs = expect(gamma_s, lambda p: np.array(
                    [pst_apply(model, f, s, t, x, scheme)
                     for x in np.atleast_2d(p)]), scheme)
                rhs = expect(gamma_t, f, scheme)
                worst = max(worst, abs(lhs - rhs))
        rng = np.random.default_rng(909)
        top = 0.0
        for _ in range(100):
            s = float(rng.uniform(-3.0, 2.0))
            t = s + float(rng.uniform(0.01, 2.5))
            top = max(top, pst_contraction(model, s, t).op_norm)
        rec.detail = ("moment gap %.2e, max ||V|| = %.12f" % (worst, top))
        assert worst <= 1e-8
        assert top <= 1.0 + 1e-10


def test_criterion_10_decay(criterion):
    with criterion(10, "spectral-gap decay at p = 2") as rec:
        model = build_preset("malliavin_const",
                             {"rate_const": -1.0,
                              "noise_consts": [1.0, 1.0], "dim": 2})
        scheme = QuadScheme.gauss_hermite(20)
        s = 0.0
        gaps = np.linspace(0.25, 3.0, 8)
        ratios = []
        worst = 0.0
        for gap in gaps:
            t = s + float(gap)
            ell = pst_contraction(model, s, t)
            gamma_t = model.measure_at(t)
            coeff = np.linalg.svd(ell.matrix.T)[0][:, 0]
            f = lambda p, c=coeff: white_noise(gamma_t, c, p)
            ratio = decay_ratio(model, f, 2.0, s, t, scheme)
            worst = max(worst, abs(ratio - ell.op_norm))
            ratios.append(ratio)
        slope, intercept = np.polyfit(gaps, np.log(ratios), 1)
        fitted = slope * gaps + intercept
        resid = np.log(ratios) - fitted
        r_sq = 1.0 - float(np.sum(resid ** 2)) / float(
            np.sum((np.log(ratios) - np.mean(np.log(ratios))) ** 2))
        rec.detail = ("degree-1 gap %.2e, rate %.6f, R^2 = %.6f"
                      % (worst, slope, r_sq))
        assert worst <= 1e-6
        assert r_sq > 0.999
        assert abs(slope + 1.0) <= 1e-6


def test_criterion_11_mehler_limit(criterion):
    with criterion(11, "scalar quantization = classical OU") as rec:
        rng = np.random.default_rng(111)
        worst = 0.0
        for d in (1, 2, 3):
            gamma = random_measure(rng, d)
            f = random_polynomial(rng, d, 3)
            e = project(gamma, f, 3, QuadScheme.gauss_hermite(8))
            pts, w = gh_tensor(d, 12)
            y = pts * np.sqrt(gamma.eigenvalues)
            for t in (0.3, 1.0):
                c = math.exp(-t)
                quantized = gamma_series_apply(
                    CMContraction.scalar(gamma, c), e)
                for x in gamma.sample(3, seed=5):
                    series = eval_expansion(quantized, x)
                    classical = float(
                        w @ f(c * x + math.sqrt(1.0 - c * c) * y))
                    worst = max(worst, abs(series - classical))
        rec.detail = "pointwise gap %.2e" % worst
        assert worst <= 1e-8


def test_criterion_12_monomial_transport(criterion):
    with criterion(12, "white-noise monomial transport") as rec:
        rng = np.random.default_rng(121)
        worst = 0.0
        for _ in range(6):
            mu = random_measure(rng, 3)
            nu = random_measure(rng, 2)
            t_op = random_contraction(rng, mu, nu)
            for n in range(1, 5):
                hs = [rng.standard_normal(3) for _ in range(n)]
                lhs = gamma_series_apply(t_op, monomial_coeffs(mu, hs))
                rhs = monomial_coeffs(nu, [t_op.matrix @ h for h in hs])
                worst = max(worst, coeff_gap(lhs, rhs, 2, n))
        rec.detail = "coefficient gap %.2e" % worst
        assert worst <= 1e-9
