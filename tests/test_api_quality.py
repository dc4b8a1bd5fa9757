"""Meta-tests on API quality: docstrings, exports, picklability.

These keep the "documentation on every public item" and "workers are
plain data" promises honest as the library grows.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro

PUBLIC_MODULES = sorted(
    name
    for _finder, name, _ispkg in pkgutil.walk_packages(repro.__path__, "repro.")
    if not name.split(".")[-1].startswith("_")
)


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        member = getattr(module, name)
        if inspect.isclass(member) or inspect.isfunction(member):
            if (getattr(member, "__module__", "") or "").startswith("repro"):
                yield name, member


class TestDocstrings:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_public_classes_and_functions_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name, member in public_members(module):
            if not (member.__doc__ and member.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(member):
                for mname, method in vars(member).items():
                    if mname.startswith("_") or not inspect.isfunction(method):
                        continue
                    if not (method.__doc__ and method.__doc__.strip()):
                        undocumented.append(f"{name}.{mname}")
        assert not undocumented, f"{module_name}: undocumented public items {undocumented}"


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ exports missing name {name}"

    @pytest.mark.parametrize(
        "package",
        ["repro.core", "repro.graph", "repro.partition", "repro.search",
         "repro.text", "repro.dist", "repro.storage", "repro.workloads",
         "repro.baselines", "repro.bench_support", "repro.live"],
    )
    def test_subpackage_all_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.__all__ exports missing {name}"


class TestPicklability:
    """Everything crossing a process boundary must pickle (forked index builds, workers)."""

    def test_worker_state_pickles(self, tiny_engine):
        from repro.core.coverage import FragmentRuntime

        fragment = tiny_engine.fragments[0]
        index = tiny_engine.indexes[0]
        runtime = FragmentRuntime(fragment, index)
        for payload in (fragment, index, runtime):
            clone = pickle.loads(pickle.dumps(payload))
            assert clone is not None

    def test_queries_pickle(self):
        from repro import rkq, sgkq, sgkq_extended

        for query in (
            sgkq(["a", "b"], 2.0),
            rkq(3, ["a"], 1.0),
            sgkq_extended(all_within=[("a", 1.0)], none_within=[("b", 2.0)]),
        ):
            assert pickle.loads(pickle.dumps(query)) == query

    def test_network_pickles(self, figure1):
        clone = pickle.loads(pickle.dumps(figure1))
        assert list(clone.edges()) == list(figure1.edges())
