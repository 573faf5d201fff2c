"""Batch front-end: verification suites and experiment sweeps, emitted as CSV.

Output contract: RFC 4180 CSV ('.' decimal separator, 17 significant
digits), and identical config plus seed must reproduce the output byte
for byte.  Exit codes: 0 ok, 1 computation or assertion failure,
2 config error.
"""

import csv
import io
import json
import math
import sys

import click
import numpy as np

from .chaos import (enumerate_up_to, eval_expansion, exp_functional_coeffs,
                    phi_alpha, project)
from .errors import ConfigInvalid
from .evolution import (decay_ratio, hyper_threshold, mean_functional,
                        pst_apply, pst_contraction, pst_via_second_quant)
from .gaussian import (SpectralGaussian, cm_norm, exp_functional, expect,
                       sqrt_apply, white_noise)
from .numerics import GH_MAX_NODES, QuadScheme, gh_nodes, gh_tensor, mc_estimate
from .presets import _constant_model, build_preset
from .secondquant import (CMContraction, degree_block, gamma_integral_apply,
                          gamma_series_apply, hs_norm_gamma, hyper_witness,
                          q0_threshold, x_extension)

DEFAULT_MODEL = {"preset": "diag_arctan", "params": {"c1": 1.0, "c2": 2.0,
                                                     "dim": 3}}


def _fail(msg):
    raise ConfigInvalid(msg)


def _require_mapping(obj, where):
    if not isinstance(obj, dict):
        _fail("%s must be a JSON object" % where)
    return obj


def _reject_unknown(cfg, allowed, where):
    extras = sorted(set(cfg) - set(allowed))
    if extras:
        _fail("unknown %s keys: %s" % (where, ", ".join(extras)))


def _is_number(v):
    # JSON booleans are ints to Python, and json.load reads NaN, Infinity
    # and integers too large for a float; the comparison is exact
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _numbers(cfg, key, default, where):
    vals = cfg.get(key, default)
    if (not isinstance(vals, (list, tuple)) or not vals
            or not all(_is_number(v) for v in vals)):
        _fail("%s.%s must be a non-empty list of finite numbers" % (where, key))
    return [float(v) for v in vals]


def _number(cfg, key, default, where):
    if key not in cfg:
        return default
    if not _is_number(cfg[key]):
        _fail("%s.%s must be a finite number" % (where, key))
    return float(cfg[key])


def _integer(cfg, key, default, where, lo=0, hi=None):
    val = cfg.get(key, default)
    if (not isinstance(val, int) or isinstance(val, bool) or val < lo
            or (hi is not None and val > hi)):
        span = ">= %d" % lo if hi is None else "in [%d, %d]" % (lo, hi)
        _fail("%s.%s must be an integer %s" % (where, key, span))
    return val


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        _fail("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        _fail("malformed JSON: %s" % exc)
    return _require_mapping(cfg, "config")


def _model_from(cfg):
    spec = _require_mapping(cfg.get("model", DEFAULT_MODEL), "model")
    _reject_unknown(spec, {"preset", "params", "inline"}, "model")
    if "inline" in spec:
        if "preset" in spec:
            _fail("model takes either preset or inline, not both")
        inner = _require_mapping(spec["inline"], "model.inline")
        _reject_unknown(inner, {"rates", "noise_consts"}, "model.inline")
        if "rates" not in inner:
            _fail("model.inline.rates is required")
        rates = _numbers(inner, "rates", None, "model.inline")
        consts = _numbers(inner, "noise_consts", [1.0] * len(rates),
                          "model.inline")
        if len(consts) != len(rates):
            _fail("model.inline rates and noise_consts lengths differ")
        return _constant_model(rates, consts)
    params = _require_mapping(spec.get("params", {}), "model.params")
    for key in params:
        read = {"noise_consts": _numbers, "dim": _integer}.get(key, _number)
        read(params, key, None, "model.params")
    try:
        return build_preset(spec.get("preset", "diag_arctan"), params)
    except ValueError as exc:  # a parameter out of the preset's range
        _fail(str(exc))


def _sweep_from(cfg, with_p):
    spec = _require_mapping(cfg.get("sweep", {}), "sweep")
    allowed = {"s", "t", "p"} if with_p else {"s", "t"}
    _reject_unknown(spec, allowed, "sweep")
    s_vals = _numbers(spec, "s", [0.0], "sweep")
    t_vals = _numbers(spec, "t", [0.1, 1.0, 2.0], "sweep")
    pairs = [(s, t) for s in s_vals for t in t_vals if s <= t]
    if not pairs:
        _fail("sweep grid contains no pairs with s <= t")
    if not with_p:
        return pairs
    return pairs, _numbers(spec, "p", [2.0], "sweep")


def _scheme_from(cfg, seed):
    spec = cfg.get("scheme")
    if spec is None:
        return None
    spec = _require_mapping(spec, "scheme")
    _reject_unknown(spec, {"kind", "nodes", "samples", "tolerance"}, "scheme")
    kind = spec.get("kind")
    tolerance = _number(spec, "tolerance", None, "scheme")
    if tolerance is not None and tolerance <= 0:
        _fail("scheme.tolerance must be > 0")
    if kind == "gauss_hermite":
        return QuadScheme.gauss_hermite(
            _integer(spec, "nodes", 10, "scheme", 1, GH_MAX_NODES),
            tolerance=tolerance)
    if kind == "monte_carlo":
        if tolerance is not None:
            # the chaos projection of decay forms no Monte Carlo standard error
            _fail("scheme.tolerance is not supported with monte_carlo")
        return QuadScheme.monte_carlo(
            _integer(spec, "samples", 100000, "scheme", 2), seed=seed)
    _fail("scheme.kind must be gauss_hermite or monte_carlo")


def _function_from(cfg, dim):
    spec = _require_mapping(cfg.get("f", {"kind": "coordinate", "index": 0}),
                            "f")
    _reject_unknown(spec, {"kind", "index", "value", "powers"}, "f")
    kind = spec.get("kind")
    if kind == "constant":
        value = _number(spec, "value", 1.0, "f")
        return (lambda p: np.full(len(np.atleast_2d(p)), value)), 0
    if kind == "coordinate":
        index = _integer(spec, "index", 0, "f", 0, dim - 1)
        return (lambda p: np.atleast_2d(p)[:, index]), 1
    if kind == "monomial":
        powers = spec.get("powers")
        if (not isinstance(powers, list) or len(powers) != dim
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           and v >= 0 for v in powers)):
            _fail("f.powers must list one nonnegative integer per coordinate")
        pw = np.asarray(powers, dtype=float)
        return (lambda p: np.prod(np.atleast_2d(p) ** pw, axis=1)), int(sum(powers))
    _fail("f.kind must be constant, coordinate or monomial")


def _contractions_from(cfg):
    cases = cfg.get("contractions", [])
    if not isinstance(cases, list):
        _fail("contractions must be a list")
    out = []
    for i, case in enumerate(cases):
        where = "contractions[%d]" % i
        case = _require_mapping(case, where)
        _reject_unknown(case, {"mu", "nu", "matrix"}, where)
        if "matrix" not in case:
            _fail("%s.matrix is required" % where)
        try:
            matrix = np.asarray(case["matrix"])
        except ValueError:
            _fail("%s.matrix rows differ in length" % where)
        if (matrix.ndim != 2 or matrix.dtype.kind not in "iuf"
                or not np.isfinite(matrix).all()):
            _fail("%s.matrix must be a two-dimensional array of finite "
                  "numbers" % where)
        matrix = matrix.astype(float)
        mu = _numbers(case, "mu", [1.0] * matrix.shape[1], where)
        nu = _numbers(case, "nu", [1.0] * matrix.shape[0], where)
        try:
            out.append(CMContraction(SpectralGaussian(mu),
                                     SpectralGaussian(nu), matrix))
        except ValueError as exc:
            _fail("%s: %s" % (where, exc))
    return out


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _emit_csv(header, rows, out_path):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    data = buf.getvalue()
    if out_path:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


@click.group()
def main():
    """Gaussian chaos, second quantization and non-autonomous OU flows."""


def _command(name, keys):
    """Register body(cfg, seed, out_path) as the subcommand ``name``.

    The command loads --config and rejects top-level keys outside ``keys``.
    A (header, rows) table returned by body goes out as CSV to --out, else
    to the config's ``out``, else to stdout.  ConfigInvalid exits 2 and a
    computation or assertion failure exits 1, each with a one-line message.
    """
    def register(body):
        @main.command(name, help=body.__doc__)
        @click.option("--threads", type=int, default=1, show_default=True,
                      expose_value=False,
                      help="Accepted for interface compatibility; results "
                           "never depend on it.")
        @click.option("--seed", type=click.IntRange(0, 2 ** 64 - 1), default=0,
                      show_default=True,
                      help="Seed for any Monte Carlo scheme.")
        @click.option("--out", "out_path", type=click.Path(), default=None,
                      help="Output file (default stdout).")
        @click.option("--config", "config_path", type=click.Path(),
                      default=None, help="JSON experiment config.")
        def command(config_path, out_path, seed):
            try:
                cfg = _load_config(config_path)
                _reject_unknown(cfg, keys, "config")
                if not isinstance(cfg.get("out", ""), str):
                    _fail("config.out must be a path")
                table = body(cfg, seed, out_path)
                if table is not None:
                    _emit_csv(*table, out_path or cfg.get("out"))
            except ConfigInvalid as exc:
                click.echo("config error: %s" % exc, err=True)
                sys.exit(2)
            except (AssertionError, ArithmeticError, ValueError, RuntimeError,
                    MemoryError) as exc:
                click.echo("failure: %s: %s" % (type(exc).__name__, exc),
                           err=True)
                sys.exit(1)
        return command
    return register


@_command("verify", {"model", "contractions"})
def cmd_verify(cfg, seed, out_path):
    """Run every module's invariant suite and report ok/FAIL per check."""
    model = _model_from(cfg)
    extra = _contractions_from(cfg)
    report = []
    for name, check in _verify_checks(model, extra, seed):
        try:
            check()
        except Exception as exc:  # report and stop at the first failure
            click.echo("FAIL %s: %s: %s" % (name, type(exc).__name__, exc))
            report.append({"name": name, "status": "fail",
                           "error": "%s: %s" % (type(exc).__name__, exc)})
            _write_report(report, out_path)
            sys.exit(1)
        click.echo("ok %s" % name)
        report.append({"name": name, "status": "ok"})
    click.echo("passed %d/%d" % (len(report), len(report)))
    _write_report(report, out_path)


def _write_report(report, out_path):
    if out_path:
        failed = sum(r["status"] != "ok" for r in report)
        doc = {"checks": report, "failed": failed,
               "status": "fail" if failed else "ok"}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _verify_checks(model, extra_contractions, seed):
    rng = np.random.default_rng(seed)
    gamma2 = SpectralGaussian([1.5, 0.7])

    def gauss_hermite_moments():
        xi, w = gh_nodes(8)
        for k in range(0, 16):
            want = 0.0 if k % 2 else float(np.prod(np.arange(1, k, 2)))
            assert abs(w @ xi ** k - want) < 1e-10 * max(1.0, want)

    def mc_determinism():
        f = lambda p: p[:, 0] ** 2
        sampler = lambda gen, size: gen.standard_normal((size, 1))
        a = mc_estimate(f, sampler, 4096, seed)
        b = mc_estimate(f, sampler, 4096, seed)
        assert a == b
        assert abs(a[0] - 1.0) <= 4.0 * a[1]

    def white_noise_calculus():
        z = np.array([0.8, -0.5])
        scheme = QuadScheme.gauss_hermite(20)
        var = expect(gamma2, lambda p: white_noise(gamma2, z, p) ** 2, scheme)
        assert abs(var - z @ z) < 1e-10
        mean = expect(gamma2, lambda p: exp_functional(gamma2, z, p), scheme)
        assert abs(mean - 1.0) < 1e-10

    def chaos_orthonormality():
        idx = enumerate_up_to(2, 3)
        pts, w = gh_tensor(2, 25)
        pts = pts * np.sqrt(gamma2.eigenvalues)
        table = np.stack([phi_alpha(gamma2, a, pts) for a in idx])
        gram = (table * w) @ table.T
        assert np.abs(gram - np.eye(len(idx))).max() < 1e-8

    def chaos_parseval():
        f = lambda p: p[:, 0] ** 3 - 2.0 * p[:, 0] * p[:, 1] + 0.5
        e = project(gamma2, f, 3, QuadScheme.gauss_hermite(12))
        pts = gamma2.sample(16, seed=(seed + 1) % 2 ** 64)
        assert np.abs(eval_expansion(e, pts) - f(pts)).max() < 1e-8

    def random_contraction():
        m = rng.standard_normal((2, 2))
        m *= 0.8 / np.linalg.svd(m, compute_uv=False)[0]
        return CMContraction(gamma2, gamma2, m)

    def series_equals_integral():
        t_op = random_contraction()
        f = lambda p: p[:, 0] ** 3 + p[:, 1] - 0.3 * p[:, 0] * p[:, 1]
        e = project(gamma2, f, 3, QuadScheme.gauss_hermite(12))
        out = gamma_series_apply(t_op, e)
        xs = gamma2.sample(3, seed=(seed + 2) % 2 ** 64)
        lhs = eval_expansion(out, xs)
        rhs = gamma_integral_apply(t_op, f, xs, QuadScheme.gauss_hermite(16))
        assert np.abs(lhs - rhs).max() < 1e-8

    def exponential_action():
        t_op = random_contraction()
        z = np.array([0.4, -0.7])
        image = gamma_series_apply(t_op, exp_functional_coeffs(gamma2, z, 6))
        want = exp_functional_coeffs(gamma2, t_op.matrix @ z, 6)
        for alpha in enumerate_up_to(2, 6):
            assert abs(image[alpha] - want[alpha]) < 1e-10

    def composition_adjoint():
        t1, t2 = random_contraction(), random_contraction()
        both = t2.compose(t1)
        f = lambda p: p[:, 0] ** 2 - p[:, 1]
        e = project(gamma2, f, 2, QuadScheme.gauss_hermite(10))
        lhs = gamma_series_apply(both, e)
        rhs = gamma_series_apply(t2, gamma_series_apply(t1, e))
        for alpha in enumerate_up_to(2, 2):
            assert abs(lhs[alpha] - rhs[alpha]) < 1e-10
        g = project(gamma2, lambda p: p[:, 0] * p[:, 1], 2,
                    QuadScheme.gauss_hermite(10))
        lhs_ip = sum(gamma_series_apply(t1, e)[a] * g[a]
                     for a in enumerate_up_to(2, 2))
        rhs_ip = sum(e[a] * gamma_series_apply(t1.adjoint, g)[a]
                     for a in enumerate_up_to(2, 2))
        assert abs(lhs_ip - rhs_ip) < 1e-10

    def degreewise_norm():
        t_op = random_contraction()
        for n in range(1, 5):
            block = degree_block(t_op, n)
            got = np.linalg.svd(block, compute_uv=False)[0]
            assert abs(got - t_op.op_norm ** n) < 1e-6

    def hs_partial_vs_closed():
        t_op = CMContraction(gamma2, gamma2, np.diag([0.5, 0.5]))
        out = hs_norm_gamma(t_op, 40)
        assert abs(out["partial"] - out["closed_form"]) < 1e-6
        assert abs(out["closed_form"] - 4.0 / 3.0) < 1e-12

    def hyper_witness_window():
        t_op = CMContraction.scalar(gamma2, 0.5)
        p = 2.0
        q0 = q0_threshold(t_op, p)
        h = sqrt_apply(gamma2, np.array([1.0, 0.0]))
        finite = hyper_witness(t_op, p, q0 - 0.1, h, 0.249)
        assert finite.lq_finite
        diverged = hyper_witness(t_op, p, q0 + 0.1, h, 0.249)
        assert not diverged.lq_finite

    def contraction_cases():
        for t_op in extra_contractions:
            t_op.require_contraction()
            out = hs_norm_gamma(t_op, 20)
            assert math.isfinite(out["partial"])

    def ou_cocycle():
        for (s, r, t) in [(-1.0, 0.0, 1.0), (0.3, 0.9, 2.0)]:
            lhs = model.u(t, r) @ model.u(r, s)
            assert np.abs(lhs - model.u(t, s)).max() < 1e-10

    def ou_contraction():
        for _ in range(10):
            s = float(rng.uniform(-2.0, 1.0))
            t = s + float(rng.uniform(0.05, 2.0))
            assert pst_contraction(model, s, t).op_norm <= 1.0 + 1e-10

    def ou_invariance():
        s, t = 0.0, 0.7
        scheme = QuadScheme.gauss_hermite(10)
        gs = model.measure_at(s)
        for f in (lambda p: p[:, 0] ** 2, lambda p: p[:, 0] * p[:, 1]):
            lhs = expect(gs, lambda p: pst_apply(model, f, s, t, p, scheme),
                         scheme)
            rhs = mean_functional(model, f, t, scheme)
            assert abs(lhs - rhs) < 1e-8

    def ou_duality():
        s, t = 0.0, 0.7
        ell = pst_contraction(model, s, t)
        qt, _ = model.q_t_inf(t)
        qs, _ = model.q_t_inf(s)
        lhs = x_extension(ell).matrix @ qt
        assert np.abs(lhs - qs @ model.u(t, s).T).max() < 1e-10

    def ou_representation():
        s, t = 0.0, 0.7
        f = lambda p: p[:, 0] ** 2 - p[:, 1]
        x = model.measure_at(s).sample(1, seed=(seed + 3) % 2 ** 64)[0]
        scheme = QuadScheme.gauss_hermite(12)
        direct = pst_apply(model, f, s, t, x, scheme)
        lifted = pst_via_second_quant(model, f, s, t, x, scheme)
        assert abs(direct - lifted) < 1e-8

    def ou_hyper_threshold():
        q0 = hyper_threshold(model, 0.0, 1.0, 2.0)
        assert math.isfinite(q0) and q0 > 2.0

    return [(check.__name__, check) for check in (
        gauss_hermite_moments, mc_determinism, white_noise_calculus,
        chaos_orthonormality, chaos_parseval, series_equals_integral,
        exponential_action, composition_adjoint, degreewise_norm,
        hs_partial_vs_closed, hyper_witness_window, contraction_cases,
        ou_cocycle, ou_contraction, ou_invariance, ou_duality,
        ou_representation, ou_hyper_threshold)]


@_command("hyper-scan", {"model", "sweep", "out"})
def cmd_hyper_scan(cfg, seed, out_path):
    """Sharp hypercontractivity thresholds over an (s, t, p) grid."""
    model = _model_from(cfg)
    pairs, p_vals = _sweep_from(cfg, with_p=True)
    rows = []
    for (s, t) in pairs:
        ell = pst_contraction(model, s, t)
        norm = ell.op_norm
        _, _, vt = ell._decomposition()
        h = sqrt_apply(ell.mu, vt[0])
        v = cm_norm(ell.mu, h) ** 2
        tau2 = cm_norm(ell.nu, ell.apply_cm(h)) ** 2
        for p in p_vals:
            q0 = q0_threshold(ell, p)
            diverges_at = (math.inf if tau2 == 0.0
                           else 1.0 + (p - 1.0) * v / tau2)
            rows.append((s, t, p, norm, q0, diverges_at))
    return ("s", "t", "p", "norm_U", "q0", "witness_diverges_at"), rows


@_command("decay", {"model", "sweep", "f", "scheme", "out"})
def cmd_decay(cfg, seed, out_path):
    """Mixing diagnostics per (s, t): norms, thresholds, decay ratios."""
    model = _model_from(cfg)
    pairs = _sweep_from(cfg, with_p=False)
    f, degree = _function_from(cfg, model.dim)
    scheme = _scheme_from(cfg, seed)
    rows = []
    for (s, t) in pairs:
        ell = pst_contraction(model, s, t)
        _, cert = model.q_t_inf(t)
        rows.append((s, t, ell.op_norm, q0_threshold(ell, 2.0),
                     float(np.linalg.norm(ell.matrix)),
                     decay_ratio(model, f, 2.0, s, t, scheme, degree=degree),
                     cert))
    return ("s", "t", "norm_U_cm", "q0", "hs_norm", "decay_ratio_p2",
            "tail_cert"), rows


@_command("hs-table", {"model", "sweep", "contractions", "max_degree", "out"})
def cmd_hs_table(cfg, seed, out_path):
    """Hilbert-Schmidt norms of quantized contractions, partial vs closed."""
    max_degree = _integer(cfg, "max_degree", 40, "config")
    if "contractions" in cfg:
        cases = [("", "", t_op) for t_op in _contractions_from(cfg)]
    else:
        model = _model_from(cfg)
        cases = [(s, t, pst_contraction(model, s, t))
                 for (s, t) in _sweep_from(cfg, with_p=False)]
    rows = []
    for (s, t, t_op) in cases:
        out = hs_norm_gamma(t_op, max_degree)
        rows.append((s, t, t_op.op_norm, out["partial"], out["closed_form"],
                     out["paper_form"], out["tail_bound"]))
    return ("s", "t", "top_singular", "partial", "closed_form", "paper_form",
            "tail_bound"), rows


@_command("mehler-demo", {"measure", "t", "f", "points", "nodes", "out"})
def cmd_mehler_demo(cfg, seed, out_path):
    """Quantized scalar contraction against the classical OU semigroup."""
    lam = _numbers(cfg, "measure", [1.0, 0.5], "config")
    times = _numbers(cfg, "t", [0.1, 0.5, 1.0, 2.0], "config")
    if any(t < 0 for t in times):
        _fail("t values must be nonnegative")
    points = _integer(cfg, "points", 5, "config", 1)
    nodes = _integer(cfg, "nodes", 20, "config", 1, GH_MAX_NODES)
    gamma = SpectralGaussian(lam)
    f, degree = _function_from(cfg, gamma.dim)
    e = project(gamma, f, max(degree, 1), QuadScheme.gauss_hermite(
        max(degree + 2, 6)))
    xs = gamma.sample(points, seed=seed)
    pts, w = gh_tensor(gamma.dim, nodes)
    y = pts * np.sqrt(gamma.eigenvalues)
    rows = []
    for t in times:
        c = math.exp(-t)
        quantized = gamma_series_apply(CMContraction.scalar(gamma, c), e)
        dev = 0.0
        for x in xs:
            series = eval_expansion(quantized, x)
            classical = float(w @ f(c * x + math.sqrt(1.0 - c * c) * y))
            dev = max(dev, abs(series - classical))
        rows.append((t, c, dev))
    return ("t", "c", "max_abs_dev"), rows


if __name__ == "__main__":
    main()
