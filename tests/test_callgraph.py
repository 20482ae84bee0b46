"""Tests for :mod:`repro.analysis.callgraph` — pass 1 of the project
analyzer: module indexing, name resolution, graph assembly, SCCs.

The fixtures here are tiny synthetic "projects": dicts of module name →
source, indexed and assembled in-memory (no files needed).
"""

import ast

from repro.analysis.callgraph import (
    DYNAMIC,
    build_call_graph,
    collect_import_aliases,
    dotted_name,
    index_module,
    strongly_connected_components,
)


def build(modules: dict[str, str]):
    """``{module: source}`` → the assembled CallGraph."""
    indexes = [
        index_module(ast.parse(source), module, f"{module}.py")
        for module, source in modules.items()
    ]
    return build_call_graph(indexes)


class TestDottedName:
    def test_name_and_attribute_chains(self):
        assert dotted_name(ast.parse("a", mode="eval").body) == "a"
        assert dotted_name(ast.parse("a.b.c", mode="eval").body) == "a.b.c"

    def test_dynamic_shapes_are_none(self):
        assert dotted_name(ast.parse("a[0].b", mode="eval").body) is None
        assert dotted_name(ast.parse("f().g", mode="eval").body) is None


class TestImportAliases:
    def test_plain_aliased_and_from_imports(self):
        tree = ast.parse(
            "import numpy as np\n"
            "import os.path\n"
            "from time import perf_counter as clock\n"
        )
        aliases = collect_import_aliases(tree)
        assert aliases["np"] == "numpy"
        assert aliases["os"] == "os"  # dotted import binds the head
        assert aliases["clock"] == "time.perf_counter"


class TestModuleIndex:
    def test_functions_methods_and_nesting(self):
        index = index_module(
            ast.parse(
                "def top():\n"
                "    def inner():\n"
                "        pass\n"
                "class C:\n"
                "    def meth(self):\n"
                "        pass\n"
                "    async def ameth(self):\n"
                "        pass\n"
            ),
            "m",
            "m.py",
        )
        fns = index.function_map()
        assert set(fns) == {"m.top", "m.top.inner", "m.C.meth", "m.C.ameth"}
        assert fns["m.top.inner"].nested_in == "m.top"
        assert fns["m.C.meth"].nested_in is None  # a method, not a closure
        assert fns["m.C.ameth"].is_async

    def test_call_attribution_and_await_flag(self):
        index = index_module(
            ast.parse(
                "import asyncio\n"
                "async def h():\n"
                "    await asyncio.sleep(0)\n"
                "    helper()\n"
                "def helper():\n"
                "    pass\n"
            ),
            "m",
            "m.py",
        )
        calls = {c.target: c for c in index.calls}
        assert calls["asyncio.sleep"].awaited
        assert calls["asyncio.sleep"].in_async
        assert not calls["m.helper"].awaited
        assert calls["m.helper"].caller == "m.h"


class TestResolution:
    def test_alias_chain_from_import_as(self):
        graph = build(
            {
                "x": "def f():\n    pass\n",
                "m": "from x import f as g\n\ndef use():\n    g()\n",
            }
        )
        assert [e.callee for e in graph.callees("m.use")] == ["x.f"]

    def test_method_vs_function_disambiguation(self):
        graph = build(
            {
                "m": (
                    "def run():\n"
                    "    pass\n"
                    "class C:\n"
                    "    def run(self):\n"
                    "        pass\n"
                    "    def go(self):\n"
                    "        self.run()\n"
                    "        run()\n"
                )
            }
        )
        callees = [e.callee for e in graph.callees("m.C.go")]
        # self.run() is the method; the bare name skips the class scope
        # (Python lookup rules) and finds the module-level function.
        assert callees == ["m.C.run", "m.run"]

    def test_package_reexport_following(self):
        graph = build(
            {
                "p.impl": "def f():\n    pass\n",
                "p": "from p.impl import f\n",
                "q": "import p\n\ndef use():\n    p.f()\n",
            }
        )
        assert [e.callee for e in graph.callees("q.use")] == ["p.impl.f"]

    def test_class_instantiation_maps_to_init(self):
        graph = build(
            {
                "m": (
                    "class C:\n"
                    "    def __init__(self):\n"
                    "        pass\n"
                    "def make():\n"
                    "    return C()\n"
                )
            }
        )
        assert [e.callee for e in graph.callees("m.make")] == ["m.C.__init__"]

    def test_unresolvable_calls_get_dynamic_edges(self):
        graph = build(
            {
                "m": (
                    "def use(handlers, k):\n"
                    "    handlers[k]()\n"
                    "    (lambda: 1)()\n"
                )
            }
        )
        assert graph.dynamic_calls["m.use"] == 2
        assert graph.callees("m.use") == []

    def test_self_on_unknown_attr_is_dynamic(self):
        graph = build(
            {
                "m": (
                    "class C:\n"
                    "    def go(self):\n"
                    "        self.pool.submit(x)\n"
                )
            }
        )
        assert graph.dynamic_calls.get("m.C.go", 0) == 1

    def test_external_calls_are_kept_not_edges(self):
        graph = build({"m": "import time\n\ndef f():\n    time.time()\n"})
        assert graph.callees("m.f") == []
        assert [c.target for c in graph.external_calls["m.f"]] == [
            "time.time"
        ]

    def test_import_cycles_do_not_loop_the_resolver(self):
        # a re-exports from b, b re-exports from a: resolution of a name
        # that bounces between them must terminate (bounded walk).
        graph = build(
            {
                "a": "from b import f\n",
                "b": "from a import f\n",
                "m": "import a\n\ndef use():\n    a.f()\n",
            }
        )
        assert graph.callees("m.use") == []  # unresolved, not a hang


class TestSCCs:
    def test_mutual_recursion_is_one_component(self):
        graph = build(
            {
                "m": (
                    "def a():\n"
                    "    b()\n"
                    "def b():\n"
                    "    a()\n"
                    "def solo():\n"
                    "    a()\n"
                )
            }
        )
        components = strongly_connected_components(graph)
        assert ("m.a", "m.b") in components

    def test_reverse_topological_order(self):
        graph = build(
            {
                "m": (
                    "def leaf():\n"
                    "    pass\n"
                    "def mid():\n"
                    "    leaf()\n"
                    "def top():\n"
                    "    mid()\n"
                )
            }
        )
        components = strongly_connected_components(graph)
        order = {comp: i for i, comp in enumerate(components)}
        assert order[("m.leaf",)] < order[("m.mid",)] < order[("m.top",)]

    def test_self_recursion_terminates(self):
        graph = build({"m": "def f(n):\n    return f(n - 1)\n"})
        assert ("m.f",) in strongly_connected_components(graph)
