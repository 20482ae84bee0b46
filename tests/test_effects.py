"""Tests for :mod:`repro.analysis.effects` — pass 2 of the project
analyzer: base-effect extraction, SCC-aware propagation, witnesses.
"""

import ast

from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.effects import (
    BLOCKING,
    GLOBAL_RNG,
    UNBOUNDED_RETRY,
    UNORDERED_ITER,
    WALL_CLOCK,
    effect_for_call,
    propagate_effects,
    summarize_module,
    summarize_source,
)
from repro.analysis.suppressions import find_suppressions


def propagate(modules: dict[str, str]):
    """``{module: source}`` → the propagated ProjectEffects (with the
    noqa markers in each source honoured, as in a real engine run)."""
    summaries = []
    for module, source in modules.items():
        summaries.append(
            summarize_module(
                ast.parse(source),
                module,
                f"{module}.py",
                suppressions=find_suppressions(source),
            )
        )
    return propagate_effects(summaries, DEFAULT_CONFIG)


class TestEffectForCall:
    def test_primitive_table(self):
        assert effect_for_call("time.time") == WALL_CLOCK
        assert effect_for_call("datetime.datetime.now") == WALL_CLOCK
        assert effect_for_call("time.sleep") == BLOCKING
        assert effect_for_call("subprocess.run") == BLOCKING
        assert effect_for_call("numpy.random.default_rng") == GLOBAL_RNG
        assert effect_for_call("numpy.random.randint") == GLOBAL_RNG
        assert effect_for_call("random.random") == GLOBAL_RNG

    def test_seeding_types_and_pure_calls_are_clean(self):
        assert effect_for_call("numpy.random.SeedSequence") is None
        assert effect_for_call("numpy.random.Generator") is None
        assert effect_for_call("math.sqrt") is None
        assert effect_for_call("time.strftime") is None


class TestSummaries:
    def test_direct_call_effects_land_on_the_function(self):
        summary = summarize_source(
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
            "def g():\n"
            "    return 1\n",
            module="m",
        )
        effects = summary.effect_map()
        [source] = effects["m.f"]
        assert (source.effect, source.detail, source.line) == (
            WALL_CLOCK,
            "time.time",
            3,
        )
        assert "m.g" not in effects

    def test_structural_effects(self):
        summary = summarize_source(
            "def f(xs):\n"
            "    for x in set(xs):\n"
            "        pass\n"
            "def g():\n"
            "    while True:\n"
            "        try:\n"
            "            return work()\n"
            "        except Exception:\n"
            "            continue\n",
            module="m",
        )
        effects = summary.effect_map()
        assert [s.effect for s in effects["m.f"]] == [UNORDERED_ITER]
        assert [s.effect for s in effects["m.g"]] == [UNBOUNDED_RETRY]

    def test_noqa_on_the_primitive_line_blocks_seeding(self):
        source = (
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro: noqa[REP002] timing only\n"
        )
        summary = summarize_module(
            ast.parse(source),
            "m",
            "m.py",
            suppressions=find_suppressions(source),
        )
        assert summary.effect_map() == {}


class TestPropagation:
    def test_chain_and_witnesses(self):
        project = propagate(
            {
                "repro.serve.core": (
                    "import time\n"
                    "def helper():\n"
                    "    return time.time()\n"
                    "def caller():\n"
                    "    return helper()\n"
                    "def top():\n"
                    "    return caller()\n"
                )
            }
        )
        for fn in ("helper", "caller", "top"):
            assert project.has(f"repro.serve.core.{fn}", WALL_CLOCK)
        direct = project.witness("repro.serve.core.helper", WALL_CLOCK)
        assert (direct.kind, direct.detail) == ("direct", "time.time")
        inherited = project.witness("repro.serve.core.caller", WALL_CLOCK)
        assert (inherited.kind, inherited.detail) == (
            "call",
            "repro.serve.core.helper",
        )
        chain = project.chain("repro.serve.core.top", WALL_CLOCK)
        assert [w.kind for w in chain] == ["call", "call", "direct"]
        assert project.render_chain("repro.serve.core.top", WALL_CLOCK) == (
            "repro.serve.core.top → repro.serve.core.caller"
            " → repro.serve.core.helper → time.time"
        )

    def test_cross_module_propagation(self):
        project = propagate(
            {
                "repro.utils.timing": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                ),
                "repro.fairness.metrics": (
                    "from repro.utils.timing import stamp\n"
                    "def score():\n"
                    "    return stamp()\n"
                ),
            }
        )
        assert project.has("repro.fairness.metrics.score", WALL_CLOCK)
        assert project.render_chain(
            "repro.fairness.metrics.score", WALL_CLOCK
        ).endswith("repro.utils.timing.stamp → time.time")

    def test_rng_absorbed_at_entry_points_wall_clock_not(self):
        project = propagate(
            {
                # repro.datasets.* is a seeded entry point: its RNG
                # construction is disciplined by contract.
                "repro.datasets.gen": (
                    "import time\n"
                    "import numpy as np\n"
                    "def make():\n"
                    "    return np.random.default_rng(0)\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                ),
                "repro.fairness.metrics": (
                    "from repro.datasets.gen import make, stamp\n"
                    "def sample():\n"
                    "    return make()\n"
                    "def timed():\n"
                    "    return stamp()\n"
                ),
            }
        )
        # GLOBAL_RNG is absorbed inside the entry-point module ...
        assert not project.has("repro.datasets.gen.make", GLOBAL_RNG)
        assert not project.has("repro.fairness.metrics.sample", GLOBAL_RNG)
        # ... but WALL_CLOCK flows through it untouched.
        assert project.has("repro.datasets.gen.stamp", WALL_CLOCK)
        assert project.has("repro.fairness.metrics.timed", WALL_CLOCK)

    def test_suppressed_primitive_does_not_propagate(self):
        project = propagate(
            {
                "repro.serve.core": (
                    "import time\n"
                    "def helper():\n"
                    "    return time.time()  # repro: noqa[REP002] timing\n"
                    "def caller():\n"
                    "    return helper()\n"
                )
            }
        )
        assert not project.has("repro.serve.core.helper", WALL_CLOCK)
        assert not project.has("repro.serve.core.caller", WALL_CLOCK)

    def test_dynamic_edges_carry_no_effects(self):
        project = propagate(
            {
                "repro.serve.core": (
                    "def use(handlers, k):\n"
                    "    return handlers[k]()\n"
                )
            }
        )
        assert project.effects_of("repro.serve.core.use") == ()

    def test_scc_fixpoint_terminates_with_grounded_chains(self):
        project = propagate(
            {
                "repro.serve.core": (
                    "import time\n"
                    "def ping(n):\n"
                    "    return pong(n)\n"
                    "def pong(n):\n"
                    "    if n:\n"
                    "        return ping(n - 1)\n"
                    "    return time.time()\n"
                )
            }
        )
        for fn in ("ping", "pong"):
            qname = f"repro.serve.core.{fn}"
            assert project.has(qname, WALL_CLOCK)
            chain = project.chain(qname, WALL_CLOCK)
            # Finite and grounded: the last hop is always the primitive,
            # even though ping and pong sit in one SCC.
            assert chain[-1].kind == "direct"
            assert chain[-1].detail == "time.time"

    def test_effects_of_is_deterministically_ordered(self):
        project = propagate(
            {
                "repro.serve.core": (
                    "import time\n"
                    "def f():\n"
                    "    time.sleep(1)\n"
                    "    return time.time()\n"
                )
            }
        )
        assert project.effects_of("repro.serve.core.f") == (
            BLOCKING,
            WALL_CLOCK,
        )
