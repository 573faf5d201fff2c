"""Shared caches hand out only values no caller can change.

A ``functools.lru_cache`` result, and a value that ``numerics._kept`` keeps
on its owner for later calls, is the same object for every caller; one
in-place write would change every later result.  Each cached function of
the package must be listed in SAMPLES, and each kept one in KEPT_SAMPLES,
with arguments to call it with, so a cache added later without an entry
fails here.
"""

import ast
import importlib
import inspect
import pathlib
import pickle
import pkgutil

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

import ouchaos
from ouchaos import evolution, numerics, secondquant
from ouchaos.evolution import (decay_ratio, pst_apply, pst_contraction,
                               pst_via_second_quant)
from ouchaos.gaussian import LinearMap, SpectralGaussian
from ouchaos.numerics import QuadScheme, gauss_rule, gh_nodes
from ouchaos.presets import build_preset
from ouchaos.secondquant import (CMContraction, gamma_integral_apply,
                                 mehler_factors)

SAMPLES = {
    "chaos._indices": [(1, 0), (3, 2), (4, 2, (0, 2))],
    "chaos._index_tables": [(3, 2)],
    "chaos._positions": [(3, 2), (0, 0)],
    "chaos._offsets": [(3, 2), (0, 0)],
    "chaos._degree_cut": [(0, 3), (2, 4)],
    "chaos._runs": [(3, 2)],
    "chaos._weighted_basis": [(2, 5), (6, 4)],
    "numerics._legendre_rule": [(8,)],
    "numerics._hermite_rule": [(1,), (12,)],
}


def heat_model():
    return build_preset("heat1d", {"dim": 3})


def contraction():
    mu = SpectralGaussian([1.0, 0.5])
    return CMContraction(mu, mu, [[0.5, 0.1], [0.0, 0.4]])


# kept function -> (owner factory, argument tuples after the owner)
KEPT_SAMPLES = {
    "evolution.OUModel.q_ts": (heat_model, [(0, 1), (0.0, 0.5)]),
    "evolution.OUModel._q_root": (heat_model, [(0.0, 0.5)]),
    "evolution.OUModel.q_t_inf": (heat_model, [(1.0,), (1.0, 1e-6)]),
    "evolution.OUModel._tail_cut": (heat_model, [(1e-10,), (1e-6,)]),
    "evolution.OUModel.measure_at": (heat_model, [(1,)]),
    "evolution.pst_contraction": (heat_model, [(0.0, 0.5), (0.5, 0.5)]),
    "secondquant.CMContraction._decomposition": (contraction, [()]),
    "secondquant.mehler_factors": (contraction, [()]),
}


def cached_functions():
    """module.name of every lru_cache'd function the package defines, at
    module level or on a class."""
    found = {}
    for info in pkgutil.iter_modules(ouchaos.__path__):
        module = importlib.import_module(f"ouchaos.{info.name}")
        owners = [vars(module)] + [vars(c) for c in vars(module).values()
                                   if inspect.isclass(c)
                                   and c.__module__ == module.__name__]
        for owner in owners:
            for name, obj in owner.items():
                if (hasattr(obj, "cache_info")
                        and getattr(obj, "__module__", None) == module.__name__):
                    found[f"{info.name}.{name}"] = obj
    return found


def kept_functions():
    """module.name, or module.Class.name for a method, of every function the
    package source decorates with ``_kept``."""
    found = []
    for path in sorted(pathlib.Path(ouchaos.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(path.stem, tree)] + [
            (f"{path.stem}.{node.name}", node) for node in tree.body
            if isinstance(node, ast.ClassDef)]
        for prefix, scope in scopes:
            found += [f"{prefix}.{node.name}" for node in scope.body
                      if isinstance(node, ast.FunctionDef)
                      and any(isinstance(d, ast.Name) and d.id == "_kept"
                              for d in node.decorator_list)]
    return found


def mutable_parts(value):
    """Writable arrays and mutable containers reachable through tuples."""
    if isinstance(value, np.ndarray):
        return [value] if value.flags.writeable else []
    if isinstance(value, (list, dict, set, bytearray)):
        return [value]
    if isinstance(value, tuple):
        return [part for item in value for part in mutable_parts(item)]
    return []


def test_every_cache_has_sample_arguments():
    assert sorted(cached_functions()) == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_cached_results_are_read_only(name):
    fn = cached_functions()[name]
    for args in SAMPLES[name]:
        result = fn(*args)
        assert fn(*args) is result
        assert mutable_parts(result) == []


def test_every_kept_function_has_sample_arguments():
    assert sorted(kept_functions()) == sorted(KEPT_SAMPLES)


@pytest.mark.parametrize("name", sorted(KEPT_SAMPLES))
def test_kept_results_are_read_only(name):
    module, *path = name.split(".")
    fn = importlib.import_module(f"ouchaos.{module}")
    for attr in path:
        fn = getattr(fn, attr)
    make_owner, samples = KEPT_SAMPLES[name]
    owner = make_owner()
    for args in samples:
        result = fn(owner, *args)
        assert fn(owner, *args) is result
        assert fn(owner, *map(float, args)) is result
        assert mutable_parts(result) == []


def test_kept_values_leave_their_owner_picklable():
    t_op = contraction()
    mehler_factors(t_op)
    copy = pickle.loads(pickle.dumps(t_op))
    assert copy.op_norm == t_op.op_norm
    assert np.array_equal(mehler_factors(copy)[1], mehler_factors(t_op)[1])


def test_pickled_owners_keep_their_arrays_read_only():
    mu = SpectralGaussian([1.0, 0.5, 0.0])
    nu = SpectralGaussian([2.0, 0.3, 0.7])
    t_op = CMContraction(mu, nu, [[0.5, 0.1, 0.0], [0.0, 0.4, 0.0],
                                  [0.1, 0.0, 0.2]])
    t_op.singular_values
    mehler_factors(t_op)
    lin = LinearMap([[1.0, 2.0], [3.0, 4.0]])
    for owner in (mu, lin, t_op):
        copy = pickle.loads(pickle.dumps(owner))
        parts = [vars(copy)] + [vars(m) for m in (getattr(copy, "mu", None),
                                                  getattr(copy, "nu", None)) if m]
        arrays = [v for state in parts for v in state.values()
                  if isinstance(v, np.ndarray)]
        kept = [v for state in parts for v in state.get("_kept", {}).values()]
        assert arrays and all(not a.flags.writeable for a in arrays)
        assert all(mutable_parts(v) == [] for v in kept)
        assert len(kept) == (2 if owner is t_op else 0)
        for name, value in vars(owner).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(vars(copy)[name], value)
    assert np.array_equal(mehler_factors(copy)[0], mehler_factors(t_op)[0])


def test_mutable_parts_sees_writable_arrays():
    frozen = np.zeros(2)
    frozen.flags.writeable = False
    assert mutable_parts((frozen, (1, 2.0))) == []
    assert len(mutable_parts((frozen, (np.zeros(1), [1])))) == 2


def test_gh_nodes_returns_fresh_writable_copies():
    x, w = gh_nodes(6)
    assert x.flags.writeable and w.flags.writeable
    x[0], w[:] = 99.0, 0.0
    x2, w2 = gh_nodes(6)
    assert x2[0] != 99.0 and np.sum(w2) == pytest.approx(1.0, abs=1e-14)


def test_hermite_rule_is_built_once_per_node_count(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return hermegauss(n)

    monkeypatch.setattr(numerics, "hermegauss", counting)
    numerics._hermite_rule.cache_clear()
    mu = SpectralGaussian([1.0, 0.5])
    t_op = CMContraction(mu, mu, [[0.5, 0.1], [0.0, 0.4]])
    f = lambda p: p[:, 0] ** 2 * p[:, 1]
    for _ in range(3):
        gh_nodes(5)
        gauss_rule(QuadScheme.gauss_hermite(5), np.eye(2))
        gamma_integral_apply(t_op, f, [0.3, -0.2], QuadScheme.gauss_hermite(7))
    assert sorted(calls) == [5, 7]


def test_mehler_factors_are_built_once_per_contraction(monkeypatch):
    calls = []
    real = secondquant.psd_sqrt

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(secondquant, "psd_sqrt", counting)
    mu = SpectralGaussian([1.0, 0.5])
    t_op = CMContraction(mu, mu, [[0.5, 0.1], [0.0, 0.4]])
    f = lambda p: p[:, 0] ** 2 * p[:, 1]
    values = [gamma_integral_apply(t_op, f, [0.3, -0.2]) for _ in range(3)]
    assert len(calls) == 1 and len(set(values)) == 1
    assert mutable_parts(mehler_factors(t_op)) == []


def test_contractions_are_built_once_per_model(monkeypatch):
    calls = []

    def counting(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(secondquant, "psd_sqrt",
                        counting("mehler", secondquant.psd_sqrt))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    model = build_preset("heat1d", {"dim": 3})
    f = lambda p: p[:, 0] ** 2 * p[:, 1] - p[:, 2]
    x = np.array([0.2, -0.1, 0.4])
    values = [pst_via_second_quant(model, f, 0.0, 0.5, x) for _ in range(5)]
    assert len(set(values)) == 1
    assert pst_contraction(model, 0.0, 0.5) is pst_contraction(model, 0.0, 0.5)
    # a decay row: the norm columns and the ratio share one contraction
    decay_ratio(model, f, 2.0, 0.0, 0.5, degree=3)
    assert calls.count("mehler") == 1 and calls.count("svd") == 1


def test_transition_roots_are_built_once_per_model(monkeypatch):
    calls = []
    real = evolution.psd_sqrt

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(evolution, "psd_sqrt", counting)
    model = build_preset("heat1d", {"dim": 3})
    f = lambda p: p[:, 0] ** 2 * p[:, 1] - p[:, 2]
    x = np.array([0.2, -0.1, 0.4])
    values = [pst_apply(model, f, 0.0, 0.5, x) for _ in range(5)]
    assert len(calls) == 1 and len(set(values)) == 1
    root = model._q_root(0.0, 0.5)
    with pytest.raises(ValueError):
        root[0, 0] = 99.0


def test_singular_values_cannot_be_overwritten():
    t_op = CMContraction.scalar(SpectralGaussian([1.0, 2.0]), 0.5)
    with pytest.raises(ValueError):
        t_op.singular_values[0] = 3.0
    assert t_op.op_norm == 0.5
    assert mutable_parts(tuple(t_op._decomposition())) == []


def test_cached_covariances_cannot_be_overwritten():
    model = build_preset("heat1d", {"dim": 3})
    fresh = build_preset("heat1d", {"dim": 3})
    q = model.q_ts(0.0, 1.0)
    q_inf, _ = model.q_t_inf(1.0)
    for cov in (q, q_inf):
        with pytest.raises(ValueError):
            cov[0, 0] = 99.0
    assert np.array_equal(model.q_ts(0.0, 1.0), fresh.q_ts(0.0, 1.0))
    assert model.measure_at(1.0) == fresh.measure_at(1.0)
    f = lambda p: p[:, 0] ** 2 - p[:, 2]
    x = np.array([0.2, -0.1, 0.4])
    assert pst_apply(model, f, 0.0, 1.0, x) == pst_apply(fresh, f, 0.0, 1.0, x)


def test_certificate_loop_runs_once_per_model_and_tolerance(monkeypatch):
    loops = []
    real = evolution.OUModel._tail_certificate

    def counting(self, delta):
        if delta == 1.0:  # each loop of the tail cut starts at delta = 1
            loops.append(delta)
        return real(self, delta)

    monkeypatch.setattr(evolution.OUModel, "_tail_certificate", counting)
    model = heat_model()
    f = lambda p: p[:, 0] * p[:, 1] - p[:, 2]
    # Q(t, -inf) at the two times 0 and 0.5 share one cut
    pst_contraction(model, 0.0, 0.5)
    model.q_t_inf(0.5)
    decay_ratio(model, f, 2.0, 0.0, 0.5, degree=2)
    assert len(loops) == 1
    model.q_t_inf(0.5, 1e-6)
    model.q_t_inf(1.0, 1e-6)
    assert len(loops) == 2
