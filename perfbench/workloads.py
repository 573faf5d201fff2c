"""The benchmark's three workloads.

Each workload turns its seed into one round of operations during set-up,
together with the reference values the outputs are checked against, and
the timed loop repeats that round.  The shape of every operation is fixed;
only its inputs come from the seed, so per-operation cost does not depend
on the seed and per-operation counts repeat exactly.

``run(slot, span)`` makes the program calls of one operation and is all
that is timed.  ``check(slot, output)`` returns the list of problems found
(empty when the output is right).  Slots in ``kept_failing`` hit a known
fault of the program on inputs that do not depend on the seed; they fail
on every run until that fault is mended.
"""

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

import oracles
from ouchaos import chaos, cli, numerics, secondquant
from ouchaos.chaos import ChaosExpansion
from ouchaos.gaussian import SpectralGaussian
from ouchaos.numerics import QuadScheme
from ouchaos.secondquant import CMContraction


def _close(got, want, rtol, atol=0.0):
    return abs(got - want) <= atol + rtol * abs(want)


class Workload:
    kept_failing = {}

    def __init__(self):
        self.slots = []
        self._previous = {}

    def repeat_problems(self, slot, key):
        """Compare an output with the one this slot gave earlier in the run;
        the inputs are identical, so the outputs must be too."""
        problems = []
        if slot in self._previous and self._previous[slot] != key:
            problems.append("output differs from an earlier run of the same inputs")
        self._previous[slot] = key
        return problems


class _Polynomial:
    """Vectorized polynomial sum_a c_a x^a, evaluated from power tables."""

    def __init__(self, powers, coeffs):
        self.powers = np.asarray(powers, dtype=int)
        self.coeffs = np.asarray(coeffs, dtype=float)

    def __call__(self, x):
        x = np.atleast_2d(x)
        top = int(self.powers.max())
        table = np.ones(x.shape + (top + 1,))
        for k in range(1, top + 1):
            table[:, :, k] = table[:, :, k - 1] * x
        terms = np.ones((len(x), len(self.powers)))
        for j in range(x.shape[1]):
            terms *= table[:, j, self.powers[:, j]]
        return terms @ self.coeffs


class Quantize(Workload):
    """Gamma(T) on chaos expansions: projection, the permanent-based series
    form, one degree block, and the Mehler integral form at a few points."""

    DIM = 3
    DEGREE = 4
    PROJECT_NODES = 6      # exact for f * Phi_alpha and f^2 up to degree 11
    POINTS = 3
    ROUND = 4

    def __init__(self, rng, workdir):
        super().__init__()
        d, n = self.DIM, self.DEGREE
        powers = oracles.multi_indices(d, n)
        for _ in range(self.ROUND):
            mu = SpectralGaussian(rng.uniform(0.5, 2.0, d))
            nu = SpectralGaussian(rng.uniform(0.5, 2.0, d))
            m = rng.standard_normal((d, d))
            m *= rng.uniform(0.5, 0.9) / np.linalg.norm(m, 2)
            z = rng.uniform(-0.6, 0.6, d)
            self.slots.append({
                "T": CMContraction(mu, nu, m),
                "f": _Polynomial(powers, rng.uniform(-1.0, 1.0, len(powers))),
                "ez": ChaosExpansion(mu, n, oracles.exp_law_coeffs(z, n)),
                "points": rng.standard_normal((self.POINTS, d))
                * np.sqrt(nu.eigenvalues),
                "want_ez": oracles.exp_law_coeffs(m @ z, n),
                "want_top": float(np.linalg.svd(m, compute_uv=False)[0]) ** n,
            })

    def run(self, slot, span):
        s = self.slots[slot]
        t_op, f = s["T"], s["f"]
        e = chaos.project(t_op.mu, f, self.DEGREE,
                          QuadScheme.gauss_hermite(self.PROJECT_NODES),
                          expect_polynomial=True)
        image = secondquant.gamma_series_apply(t_op, e)
        image_ez = secondquant.gamma_series_apply(t_op, s["ez"])
        block = secondquant.degree_block(t_op, self.DEGREE)
        series = chaos.eval_expansion(image, s["points"])
        mehler = [secondquant.gamma_integral_apply(t_op, f, x) for x in s["points"]]
        return e, image, image_ez, block, series, np.array(mehler)

    def check(self, slot, out):
        s = self.slots[slot]
        e, image, image_ez, block, series, mehler = out
        problems = []
        for alpha, want in s["want_ez"].items():
            if not _close(image_ez[alpha], want, 1e-10, 1e-12):
                problems.append("Gamma(T)E_z != E_Mz at %s: %r vs %r"
                                % (alpha, image_ez[alpha], want))
                break
        gap = np.abs(series - mehler)
        if not np.all(gap <= 1e-8 * np.maximum(1.0, np.abs(mehler))):
            problems.append("series and Mehler forms differ by %.3e" % gap.max())
        top = float(np.linalg.svd(block, compute_uv=False)[0])
        if not _close(top, s["want_top"], 1e-10):
            problems.append("top singular value of the degree block %r, want %r"
                            % (top, s["want_top"]))
        norm_in = math.sqrt(sum(c * c for c in e.coeffs.values()))
        norm_out = math.sqrt(sum(c * c for c in image.coeffs.values()))
        if norm_out > norm_in * (1.0 + 1e-12):
            problems.append("||Gamma(T)f|| = %r exceeds ||f|| = %r" % (norm_out, norm_in))
        key = (tuple(image.sorted_items()), tuple(image_ez.sorted_items()),
               block.tobytes(), mehler.tobytes())
        return problems + self.repeat_problems(slot, key)


class OUTables(Workload):
    """The CLI in-process on generated configs: hyper-scan, decay and
    hs-table for one model and one (s, t) sweep per operation."""

    DIM = 3
    COMMANDS = ("hyper-scan", "decay", "hs-table")
    kept_failing = {2: "evolution.decay_ratio divides by the uncentred norm "
                       "||f|| instead of ||f - m_t f||"}

    def __init__(self, rng, workdir):
        super().__init__()
        d = self.DIM
        # c1 and c2 stay where the tail cut of Q(t, -inf) is the same
        # (delta = 16), and the diag_arctan sweep is fixed: the panel count
        # that q_t_inf needs there depends on where the kink of arctan|r| at
        # r = 0 falls among the panel edges, which would make the cost of
        # the operation depend on the seed
        c1, c2 = rng.uniform(0.8, 1.3), rng.uniform(1.5, 2.5)
        rate = rng.uniform(-1.5, -0.5)
        s0 = rng.uniform(-1.0, 0.5)
        sweeps = [(0.0, [0.4, 0.9]), (s0, sorted(s0 + rng.uniform(0.2, 1.0, 2)))]
        models = [
            ({"preset": "diag_arctan", "params": {"c1": c1, "c2": c2, "dim": d}},
             lambda s, t: oracles.diag_arctan_v(c1, c2, d, s, t)),
            ({"preset": "malliavin_const",
              "params": {"rate_const": rate, "dim": d,
                         "noise_consts": list(rng.uniform(0.5, 1.5, d))}},
             lambda s, t: oracles.constant_rate_v([rate] * d, s, t)),
        ]
        for i, ((model, v_of), (s_val, t_vals)) in enumerate(zip(models, sweeps)):
            index = int(rng.integers(d))
            self._add(workdir, i, model, [s_val], t_vals, [2.0, rng.uniform(1.5, 4.0)],
                      {"kind": "coordinate", "index": index}, v_of,
                      lambda v, k=index: v[k])
        # the kept failing operation, on fixed inputs: the sharp ratio for
        # f = x_0^2 is V_00^2, the program reports sqrt(2/3) V_00^2.  Ten
        # Gauss-Hermite nodes are exact for this f and keep the operation's
        # cost near the other two (the monomial f costs about ten times a
        # coordinate per evaluation), so latency stays close to unimodal.
        heat_rates = -np.arange(1.0, d + 1.0) ** 2
        self._add(workdir, 2,
                  {"preset": "heat1d", "params": {"gamma_exp": 0.25, "dim": d}},
                  [0.0], [0.5], [2.0, 3.0],
                  {"kind": "monomial", "powers": [2] + [0] * (d - 1)},
                  lambda s, t: oracles.constant_rate_v(heat_rates, s, t),
                  lambda v: v[0] ** 2, scheme={"kind": "gauss_hermite", "nodes": 10})
        self.cli_seed = int(rng.integers(1 << 31))

    def _add(self, workdir, slot, model, s_vals, t_vals, p_vals, f, v_of, ratio_of,
             scheme=None):
        sweep = {"s": s_vals, "t": t_vals}
        decay = {"model": model, "sweep": sweep, "f": f}
        if scheme is not None:
            decay["scheme"] = scheme
        configs = {
            "hyper-scan": {"model": model, "sweep": dict(sweep, p=p_vals)},
            "decay": decay,
            "hs-table": {"model": model, "sweep": sweep, "max_degree": 40},
        }
        paths = {}
        for cmd, cfg in configs.items():
            paths[cmd] = os.path.join(workdir, "ou-tables-%d-%s.json" % (slot, cmd))
            with open(paths[cmd], "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        pairs = [(s, t) for s in s_vals for t in t_vals if s <= t]
        self.slots.append({
            "paths": paths, "pairs": pairs, "p": p_vals,
            "v": {pair: v_of(*pair) for pair in pairs},
            "ratio_of": ratio_of,
        })

    def run(self, slot, span):
        out = {}
        for cmd in self.COMMANDS:
            buf = io.StringIO()
            with span("cli." + cmd), contextlib.redirect_stdout(buf):
                cli.main([cmd, "--config", self.slots[slot]["paths"][cmd],
                          "--seed", str(self.cli_seed)], standalone_mode=False)
            out[cmd] = buf.getvalue()
        return out

    def check(self, slot, out):
        s = self.slots[slot]
        problems = []
        tables = {cmd: list(csv.DictReader(io.StringIO(out[cmd], newline="")))
                  for cmd in self.COMMANDS}
        expected_rows = {"hyper-scan": len(s["pairs"]) * len(s["p"]),
                         "decay": len(s["pairs"]), "hs-table": len(s["pairs"])}
        for cmd, rows in tables.items():
            if len(rows) != expected_rows[cmd]:
                problems.append("%s: %d rows, want %d" % (cmd, len(rows), expected_rows[cmd]))
                return problems

        def want(row):
            v = s["v"][(float(row["s"]), float(row["t"]))]
            return v, float(np.max(np.abs(v)))

        def expect(cmd, row, col, value, rtol=1e-8):
            got = float(row[col])
            if not _close(got, value, rtol):
                problems.append("%s (s,t)=(%s,%s): %s = %r, want %r"
                                % (cmd, row["s"], row["t"], col, got, value))

        for row in tables["hyper-scan"]:
            v, norm = want(row)
            q0 = 1.0 + (float(row["p"]) - 1.0) / norm ** 2
            expect("hyper-scan", row, "norm_U", norm)
            expect("hyper-scan", row, "q0", q0)
            if float(row["witness_diverges_at"]) > float(row["q0"]) * (1.0 + 1e-12):
                problems.append("hyper-scan: witness diverges above q0 at (%s,%s)"
                                % (row["s"], row["t"]))
        for row in tables["decay"]:
            v, norm = want(row)
            expect("decay", row, "norm_U_cm", norm)
            expect("decay", row, "q0", 1.0 + 1.0 / norm ** 2)
            expect("decay", row, "hs_norm", float(np.linalg.norm(v)))
            expect("decay", row, "decay_ratio_p2", float(s["ratio_of"](v)))
            if not float(row["tail_cert"]) < 1e-10:
                problems.append("decay: tail certificate %s not below 1e-10" % row["tail_cert"])
        for row in tables["hs-table"]:
            v, norm = want(row)
            expect("hs-table", row, "top_singular", norm)
            expect("hs-table", row, "closed_form", oracles.hs_closed_form(v))
            closed, partial = float(row["closed_form"]), float(row["partial"])
            gap = closed ** 2 - partial ** 2
            slack = 1e-12 * closed ** 2
            if not -slack <= gap <= float(row["tail_bound"]) + slack:
                problems.append("hs-table: truncation gap %.3e outside [0, tail_bound %s]"
                                % (gap, row["tail_bound"]))
        key = tuple(out[cmd] for cmd in self.COMMANDS)
        return problems + self.repeat_problems(slot, key)


class MonteCarlo(Workload):
    """The sampling path: Monte Carlo Gaussian averages with closed-form
    mean and variance, and Monte Carlo chaos projections."""

    SIGMAS = 6.0           # allowed distance from the truth, in standard errors
    STDERR_RTOL = 0.05     # reported stderr against sigma_f / sqrt(n)
    # (kind, dimension, samples, degree); the sample counts put every
    # non-failing operation at a similar cost, so latency stays unimodal
    ROUND = [
        ("offset", 1, 100_000, None),
        ("quadratic", 3, 190_000, None),
        ("quadratic", 4, 140_000, None),
        ("quadratic", 5, 110_000, None),
        ("exponential", 4, 145_000, None),
        ("exponential", 5, 115_000, None),
        ("exponential", 6, 95_000, None),
        ("project", 2, 160_000, 2),
        ("project", 3, 110_000, 2),
        ("project", 3, 110_000, 2),
    ]
    kept_failing = {0: "numerics.mc_estimate forms the variance as E[f^2] - "
                       "mean^2 from raw sums and reports stderr 0.0 for "
                       "f = 1e9 + x_0"}

    def __init__(self, rng, workdir):
        super().__init__()
        for kind, d, n, degree in self.ROUND:
            seed = 0 if kind == "offset" else int(rng.integers(1 << 63))
            slot = {"kind": kind, "n": n, "scheme": QuadScheme.monte_carlo(n, seed=seed)}
            if kind == "project":
                # f = E_z, whose chaos coefficients z^alpha / sqrt(alpha!) are exact
                lam = rng.uniform(0.5, 2.0, d)
                z = rng.standard_normal(d)
                z *= math.sqrt(rng.uniform(0.1, 0.4) / float(z @ z))
                alphas = oracles.multi_indices(d, degree)
                want = oracles.exp_law_coeffs(z, degree)
                slot.update(gamma=SpectralGaussian(lam), degree=degree, alphas=alphas,
                            coeffs=[want[a] for a in alphas],
                            f=lambda x, c=z / np.sqrt(lam), h=0.5 * float(z @ z):
                            np.exp(x @ c - h),
                            var=oracles.exp_product_variances(z, alphas))
            elif kind == "offset":
                slot.update(mean=np.zeros(1), cols=np.ones((1, 1)),
                            f=lambda y: 1e9 + y[:, 0], moments=(1e9, 1.0))
            else:
                mean = rng.uniform(-0.5, 0.5, d)
                cols = rng.standard_normal((d, d)) * (0.5 / math.sqrt(d))
                cov = cols @ cols.T
                if kind == "quadratic":
                    c0, b = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, d)
                    g = rng.uniform(-0.5, 0.5, (d, d))
                    a = 0.5 * (g + g.T)
                    f = (lambda y, c0=c0, b=b, a=a:
                         c0 + y @ b + np.einsum("ij,ij->i", y @ a, y))
                    moments = oracles.quadratic_moments(c0, b, a, mean, cov)
                else:
                    w = rng.standard_normal(d)
                    w *= math.sqrt(rng.uniform(0.05, 0.25) / float(w @ cov @ w))
                    f = lambda y, w=w: np.exp(y @ w)
                    moments = oracles.exponential_moments(w, mean, cov)
                slot.update(mean=mean, cols=cols, f=f, moments=moments)
            self.slots.append(slot)

    def run(self, slot, span):
        s = self.slots[slot]
        if s["kind"] == "project":
            return chaos.project(s["gamma"], s["f"], s["degree"], s["scheme"])
        return numerics.gauss_expect_err(s["f"], s["mean"], s["cols"], s["scheme"])

    def check(self, slot, out):
        s = self.slots[slot]
        problems = []
        if s["kind"] == "project":
            for alpha, c, var in zip(s["alphas"], s["coeffs"], s["var"]):
                err = math.sqrt(max(var, 0.0) / s["n"])
                if not _close(out[alpha], c, 0.0, self.SIGMAS * err + 1e-12):
                    problems.append("coefficient %s = %r, want %r +- %.2e"
                                    % (alpha, out[alpha], c, self.SIGMAS * err))
            key = tuple(out.sorted_items())
        else:
            est, err = out
            mean, var = s["moments"]
            sigma_n = math.sqrt(var / s["n"])
            if not _close(err, sigma_n, self.STDERR_RTOL):
                problems.append("stderr %r, want %r" % (err, sigma_n))
            if not abs(est - mean) <= self.SIGMAS * err:
                problems.append("estimate %r is %.3g reported stderrs from %r"
                                % (est, abs(est - mean) / err if err else math.inf, mean))
            key = (est, err)
        return problems + self.repeat_problems(slot, key)


WORKLOADS = {"quantize": Quantize, "ou-tables": OUTables, "monte-carlo": MonteCarlo}
