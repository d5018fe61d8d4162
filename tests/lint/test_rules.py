"""Per-rule tests for the determinism linter: each rule has at least
one positive (finding emitted), one negative (clean idiom accepted),
and one suppressed case."""

from repro.lint import lint_source

def lint(source):
    return lint_source(source, path="case.py")

def codes(source):
    return [f.code for f in lint(source)]

class TestDet001UnseededRandom:
    def test_unseeded_random_constructor_flagged(self):
        assert codes("import random\nrng = random.Random()\n") == [
            "DET001"
        ]

    def test_seeded_constructor_accepted(self):
        assert codes("import random\nrng = random.Random(42)\n") == []

    def test_global_module_function_flagged(self):
        source = "import random\nx = random.choice([1, 2])\n"
        assert codes(source) == ["DET001"]

    def test_injected_rng_accepted(self):
        source = (
            "def pick(items, rng):\n"
            "    return rng.choice(items)\n"
        )
        assert codes(source) == []

    def test_from_import_of_global_function_flagged(self):
        assert codes("from random import choice\n") == ["DET001"]

    def test_from_import_of_random_class_accepted(self):
        assert codes("from random import Random\n") == []

    def test_function_local_import_flagged(self):
        source = (
            "def f():\n"
            "    import random as _random\n"
            "    return _random.Random(0)\n"
        )
        assert codes(source) == ["DET001"]

    def test_module_level_import_accepted(self):
        assert codes("import random\n") == []

    def test_suppression_with_justification(self):
        source = (
            "import random\n"
            "rng = random.Random()"
            "  # lint: disable=DET001 — entropy ablation arm\n"
        )
        assert codes(source) == []

    def test_suppression_of_other_code_does_not_apply(self):
        source = (
            "import random\n"
            "rng = random.Random()  # lint: disable=DET002 — wrong code\n"
        )
        assert codes(source) == ["DET001"]

class TestDet002WallClock:
    def test_time_time_flagged(self):
        assert codes("import time\nnow = time.time()\n") == ["DET002"]

    def test_perf_counter_flagged(self):
        source = "import time\nt0 = time.perf_counter()\n"
        assert codes(source) == ["DET002"]

    def test_datetime_now_flagged(self):
        source = "import datetime\nd = datetime.datetime.now()\n"
        assert codes(source) == ["DET002"]

    def test_from_time_import_flagged(self):
        assert codes("from time import monotonic\n") == ["DET002"]

    def test_simulator_clock_accepted(self):
        source = (
            "def sample(sim):\n"
            "    return sim.now\n"
        )
        assert codes(source) == []

    def test_time_sleep_accepted(self):
        # sleep does not *read* the clock into protocol state.
        assert codes("import time\ntime.sleep(0.1)\n") == []

    def test_suppressed(self):
        source = (
            "import time\n"
            "t = time.time()  # lint: disable=DET002 — wall profiling\n"
        )
        assert codes(source) == []

class TestDet003SetIteration:
    def test_for_over_set_variable_flagged(self):
        source = (
            "def f():\n"
            "    seen = set()\n"
            "    for item in seen:\n"
            "        print(item)\n"
        )
        assert codes(source) == ["DET003"]

    def test_for_over_sorted_set_accepted(self):
        source = (
            "def f():\n"
            "    seen = set()\n"
            "    for item in sorted(seen):\n"
            "        print(item)\n"
        )
        assert codes(source) == []

    def test_annotated_argument_flagged(self):
        source = (
            "from typing import Set\n"
            "def f(visited: Set[int]):\n"
            "    return [v + 1 for v in visited]\n"
        )
        assert codes(source) == ["DET003"]

    def test_self_attribute_flagged(self):
        source = (
            "class Report:\n"
            "    def __init__(self):\n"
            "        self._visited = set()\n"
            "    def dump(self):\n"
            "        for router in self._visited:\n"
            "            print(router)\n"
        )
        assert codes(source) == ["DET003"]

    def test_set_difference_flagged(self):
        source = (
            "def f():\n"
            "    before = set()\n"
            "    after = set()\n"
            "    return [r for r in after - before]\n"
        )
        assert codes(source) == ["DET003"]

    def test_list_of_set_flagged(self):
        source = (
            "def f():\n"
            "    seen = set()\n"
            "    return list(seen)\n"
        )
        assert codes(source) == ["DET003"]

    def test_order_free_consumers_accepted(self):
        source = (
            "def f():\n"
            "    seen = set()\n"
            "    total = sum(x for x in seen)\n"
            "    ok = all(x > 0 for x in seen)\n"
            "    n = len(seen)\n"
            "    return total, ok, n, sorted(seen)\n"
        )
        assert codes(source) == []

    def test_set_comprehension_result_accepted(self):
        # The result is itself unordered, so order cannot escape.
        source = (
            "def f():\n"
            "    seen = set()\n"
            "    return {x + 1 for x in seen}\n"
        )
        assert codes(source) == []

    def test_iterating_a_list_accepted(self):
        source = (
            "def f():\n"
            "    items = [1, 2, 3]\n"
            "    for item in items:\n"
            "        print(item)\n"
        )
        assert codes(source) == []

    def test_suppressed(self):
        source = (
            "def f():\n"
            "    seen = set()\n"
            "    for item in seen:  # lint: disable=DET003 — counted\n"
            "        pass\n"
        )
        assert codes(source) == []

class TestDet004MutableDefault:
    def test_list_literal_default_flagged(self):
        assert codes("def f(items=[]):\n    pass\n") == ["DET004"]

    def test_dict_call_default_flagged(self):
        assert codes("def f(table=dict()):\n    pass\n") == ["DET004"]

    def test_kwonly_default_flagged(self):
        source = "def f(*, cache={}):\n    pass\n"
        assert codes(source) == ["DET004"]

    def test_none_default_accepted(self):
        assert codes("def f(items=None):\n    pass\n") == []

    def test_immutable_defaults_accepted(self):
        assert codes("def f(n=0, name='x', pair=()):\n    pass\n") == []

    def test_suppressed(self):
        source = (
            "def f(items=[]):  # lint: disable=DET004 — frozen constant\n"
            "    pass\n"
        )
        assert codes(source) == []

class TestDet005BroadExcept:
    def test_bare_except_flagged(self):
        source = (
            "def handle(msg):\n"
            "    try:\n"
            "        msg.apply()\n"
            "    except:\n"
            "        pass\n"
        )
        assert codes(source) == ["DET005"]

    def test_broad_exception_flagged(self):
        source = (
            "def handle(msg):\n"
            "    try:\n"
            "        msg.apply()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert codes(source) == ["DET005"]

    def test_broad_in_tuple_flagged(self):
        source = (
            "def handle(msg):\n"
            "    try:\n"
            "        msg.apply()\n"
            "    except (ValueError, Exception):\n"
            "        pass\n"
        )
        assert codes(source) == ["DET005"]

    def test_specific_exception_accepted(self):
        source = (
            "def handle(msg):\n"
            "    try:\n"
            "        msg.apply()\n"
            "    except KeyError:\n"
            "        pass\n"
        )
        assert codes(source) == []

    def test_suppressed(self):
        source = (
            "def handle(msg):\n"
            "    try:\n"
            "        msg.apply()\n"
            "    except Exception:  # lint: disable=DET005 — boundary\n"
            "        raise\n"
        )
        assert codes(source) == []

class TestEngine:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint("def broken(:\n")
        assert [f.code for f in findings] == ["PARSE"]

    def test_findings_sorted_by_location(self):
        source = (
            "import random\n"
            "import time\n"
            "a = time.time()\n"
            "b = random.random()\n"
        )
        findings = lint(source)
        assert [f.code for f in findings] == ["DET002", "DET001"]
        assert [f.line for f in findings] == [3, 4]

    def test_render_is_path_line_col_code(self):
        finding = lint("import random\nx = random.random()\n")[0]
        assert finding.render().startswith("case.py:2:")
        assert "DET001" in finding.render()


class TestDet006SnapshotCoverage:
    """DET006 cross-checks simulator-state classes against the
    checkpoint registry's snapshot allowlists: a new ``self.attr``
    (or ``__slots__`` entry) on a registered class must be added to
    the allowlist — and thus, consciously, to the snapshot method."""

    ENGINE_PATH = "src/repro/sim/engine.py"

    def _codes(self, source, path):
        return [f.code for f in lint_source(source, path=path)]

    COVERED_SIMULATOR = (
        "class Simulator:\n"
        "    def __init__(self):\n"
        "        self._now = 0.0\n"
        "        self._heap = []\n"
        "        self._processed = 0\n"
    )

    def test_covered_attributes_accepted(self):
        assert self._codes(self.COVERED_SIMULATOR, self.ENGINE_PATH) == []

    def test_uncovered_attribute_flagged(self):
        source = self.COVERED_SIMULATOR + "        self._sneaky = {}\n"
        findings = lint_source(source, path=self.ENGINE_PATH)
        assert [f.code for f in findings] == ["DET006"]
        assert "_sneaky" in findings[0].message
        assert "Simulator" in findings[0].message

    def test_uncovered_attribute_reported_once(self):
        source = (
            self.COVERED_SIMULATOR
            + "        self._sneaky = {}\n"
            + "    def reset(self):\n"
            + "        self._sneaky = {}\n"
        )
        assert self._codes(source, self.ENGINE_PATH) == ["DET006"]

    def test_annotated_assignment_flagged(self):
        source = self.COVERED_SIMULATOR + "        self._cache: dict = {}\n"
        assert self._codes(source, self.ENGINE_PATH) == ["DET006"]

    def test_tuple_unpacking_target_flagged(self):
        source = (
            self.COVERED_SIMULATOR
            + "        self._a, self._b = 1, 2\n"
        )
        assert self._codes(source, self.ENGINE_PATH) == [
            "DET006", "DET006",
        ]

    def test_slots_entry_outside_allowlist_flagged(self):
        source = (
            "class Event:\n"
            "    __slots__ = ('time', 'callback', 'bogus')\n"
        )
        findings = lint_source(source, path=self.ENGINE_PATH)
        assert [f.code for f in findings] == ["DET006"]
        assert "bogus" in findings[0].message

    def test_unregistered_class_in_registered_module_accepted(self):
        source = (
            "class Helper:\n"
            "    def __init__(self):\n"
            "        self.anything = 1\n"
        )
        assert self._codes(source, self.ENGINE_PATH) == []

    def test_registered_name_in_other_module_accepted(self):
        source = self.COVERED_SIMULATOR + "        self._sneaky = {}\n"
        assert self._codes(source, "src/repro/analysis/report.py") == []

    def test_path_outside_package_accepted(self):
        source = self.COVERED_SIMULATOR + "        self._sneaky = {}\n"
        assert self._codes(source, "case.py") == []

    def test_suppression_with_justification(self):
        source = (
            self.COVERED_SIMULATOR
            + "        self._scratch = None"
            + "  # lint: disable=DET006 — derived, rebuilt on restore\n"
        )
        assert self._codes(source, self.ENGINE_PATH) == []

    def test_local_variables_not_flagged(self):
        source = (
            "class Simulator:\n"
            "    def __init__(self):\n"
            "        self._now = 0.0\n"
            "        scratch = {}\n"
            "        other._attr = scratch\n"
        )
        assert self._codes(source, self.ENGINE_PATH) == []

    def test_registry_matches_real_sources(self):
        """The shipped sources must be DET006-clean: every registered
        class's attributes are covered by its allowlist."""
        import pathlib

        from repro.checkpoint.registry import SNAPSHOT_REGISTRY

        root = pathlib.Path(__file__).resolve().parents[2] / "src"
        modules = {key.split(":")[0] for key in SNAPSHOT_REGISTRY}
        for module in sorted(modules):
            path = root / (module.replace(".", "/") + ".py")
            findings = lint_source(
                path.read_text(), path=str(path)
            )
            assert [f for f in findings if f.code == "DET006"] == []

    def test_registry_names_only_existing_classes(self):
        """DET006 skips a registered class it cannot find, so a key
        left behind by a deleted or moved class would pass the check
        above silently: every key must resolve to a class defined in
        the module it names."""
        import importlib

        from repro.checkpoint.registry import SNAPSHOT_REGISTRY

        for key in sorted(SNAPSHOT_REGISTRY):
            module, _, name = key.partition(":")
            found = getattr(importlib.import_module(module), name, None)
            assert isinstance(found, type), f"stale registry key {key}"
            assert found.__module__ == module, (
                f"{key} is defined in {found.__module__}"
            )
