"""Planted-violation regressions for the interprocedural rules.

Each test builds a tiny on-disk project under ``tmp_path`` whose
module paths anchor at ``repro`` (so cross-module resolution engages)
and asserts the whole-program pass catches exactly the planted bug.
"""

from repro.lint.engine import lint_project


def write_tree(root, files):
    paths = []
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        paths.append(str(target))
    return sorted(paths)


def run_whole(root, files):
    return lint_project(write_tree(root, files))


def by_code(findings, code):
    return [f for f in findings if f.code == code]


MESSAGES = (
    "class ClaimMessage:\n    pass\n"
    "class CollisionMessage:\n    pass\n"
    "class ReleaseMessage:\n    pass\n"
)


class TestHandlerExhaustiveness:
    def test_missing_dispatch_arm_is_flagged(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/masc/messages.py": MESSAGES,
            "repro/masc/node.py": (
                "from repro.masc.messages import (\n"
                "    ClaimMessage, CollisionMessage)\n"
                "class Node:\n"
                "    def handle(self, m):\n"
                "        if isinstance(m, ClaimMessage):\n"
                "            pass\n"
                "        elif isinstance(m, CollisionMessage):\n"
                "            pass\n"
            ),
        })
        hits = by_code(findings, "DET007")
        assert any("ReleaseMessage" in f.message for f in hits)

    def test_exhaustive_dispatch_is_clean(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/masc/messages.py": MESSAGES,
            "repro/masc/node.py": (
                "from repro.masc.messages import (\n"
                "    ClaimMessage, CollisionMessage, ReleaseMessage)\n"
                "class Node:\n"
                "    def handle(self, m):\n"
                "        if isinstance(m, ClaimMessage):\n"
                "            pass\n"
                "        elif isinstance(m, CollisionMessage):\n"
                "            pass\n"
                "        elif isinstance(m, ReleaseMessage):\n"
                "            pass\n"
            ),
        })
        assert by_code(findings, "DET007") == []

    def test_dead_handler_method_is_flagged(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/masc/messages.py": MESSAGES,
            "repro/masc/node.py": (
                "from repro.masc.messages import (\n"
                "    ClaimMessage, CollisionMessage, ReleaseMessage)\n"
                "class Node:\n"
                "    def handle(self, m):\n"
                "        if isinstance(m, ClaimMessage):\n"
                "            self._handle_claim(m)\n"
                "        elif isinstance(m, CollisionMessage):\n"
                "            pass\n"
                "        elif isinstance(m, ReleaseMessage):\n"
                "            pass\n"
                "    def _handle_claim(self, m):\n"
                "        pass\n"
                "    def _handle_orphan(self, m):\n"
                "        pass\n"
            ),
        })
        hits = by_code(findings, "DET007")
        assert any("_handle_orphan" in f.message for f in hits)
        assert not any("_handle_claim" in f.message for f in hits)

    def test_missing_kind_arm_is_flagged(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/bgp/network.py": "class GribDelta:\n    pass\n",
            "repro/bgmp/sync.py": (
                "def apply(delta):\n"
                "    if delta.kind == 'added':\n"
                "        return 1\n"
                "    elif delta.kind == 'changed':\n"
                "        return 2\n"
            ),
        })
        hits = by_code(findings, "DET007")
        assert any("withdrawn" in f.message for f in hits)

    def test_unknown_kind_literal_is_flagged(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/bgp/network.py": "class GribDelta:\n    pass\n",
            "repro/bgmp/sync.py": (
                "def apply(delta):\n"
                "    if delta.kind == 'added':\n"
                "        return 1\n"
                "    elif delta.kind in ('changed', 'withdrawn'):\n"
                "        return 2\n"
                "    elif delta.kind == 'removd':\n"
                "        return 3\n"
            ),
        })
        hits = by_code(findings, "DET007")
        assert any("removd" in f.message for f in hits)


class TestTimerCallbackEscape:
    def test_lambda_scheduled_on_simulator_is_flagged(self, tmp_path):
        # The required regression: a lambda handed straight to
        # Simulator.schedule must fail the gate.
        findings = run_whole(tmp_path, {
            "repro/sim/engine.py": (
                "class Simulator:\n"
                "    def schedule(self, delay, callback, *args):\n"
                "        pass\n"
            ),
            "repro/masc/node.py": (
                "from repro.sim.engine import Simulator\n"
                "def arm(sim: Simulator):\n"
                "    sim.schedule(1.0, lambda: None)\n"
            ),
        })
        hits = by_code(findings, "DET008")
        assert len(hits) == 1
        assert "lambda" in hits[0].message
        assert hits[0].path.endswith("node.py")

    def test_nested_function_callback_is_flagged(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/masc/node.py": (
                "def arm(sim):\n"
                "    def later():\n"
                "        pass\n"
                "    sim.schedule(1.0, later)\n"
            ),
        })
        hits = by_code(findings, "DET008")
        assert any("later" in f.message for f in hits)

    def test_callback_through_forwarding_wrapper_is_flagged(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/sim/util.py": (
                "def arm_timer(sim, delay, callback):\n"
                "    sim.schedule(delay, callback)\n"
            ),
            "repro/masc/node.py": (
                "from repro.sim.util import arm_timer\n"
                "def go(sim):\n"
                "    arm_timer(sim, 1.0, lambda: None)\n"
            ),
        })
        hits = by_code(findings, "DET008")
        assert any(f.path.endswith("node.py") for f in hits)

    def test_bound_method_callback_is_clean(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/masc/node.py": (
                "class Node:\n"
                "    def on_timer(self):\n"
                "        pass\n"
                "    def arm(self, sim):\n"
                "        sim.schedule(1.0, self.on_timer)\n"
            ),
        })
        assert by_code(findings, "DET008") == []


class TestWorkerPurity:
    def test_worker_mutating_module_global_is_flagged(self, tmp_path):
        # The required regression: a module global mutated inside a
        # parallel_map worker.
        findings = run_whole(tmp_path, {
            "repro/experiments/sweep.py": (
                "RESULTS = []\n"
                "def worker(item):\n"
                "    RESULTS.append(item)\n"
                "    return item\n"
                "def run(items):\n"
                "    return parallel_map(worker, items)\n"
            ),
        })
        hits = by_code(findings, "DET009")
        assert any("RESULTS" in f.message for f in hits)

    def test_transitive_mutation_is_flagged(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/experiments/sweep.py": (
                "COUNTER = {}\n"
                "def bump(item):\n"
                "    COUNTER[item] = 1\n"
                "def worker(item):\n"
                "    bump(item)\n"
                "    return item\n"
                "def run(items):\n"
                "    return parallel_map(worker, items)\n"
            ),
        })
        hits = by_code(findings, "DET009")
        assert any("COUNTER" in f.message for f in hits)

    def test_lambda_worker_is_flagged(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/experiments/sweep.py": (
                "def run(items):\n"
                "    return parallel_map(lambda x: x, items)\n"
            ),
        })
        hits = by_code(findings, "DET009")
        assert any("lambda" in f.message for f in hits)

    def test_worker_reading_mutable_global_is_flagged(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/experiments/sweep.py": (
                "TABLE = {'a': 1}\n"
                "def worker(item):\n"
                "    return TABLE.get(item)\n"
                "def run(items):\n"
                "    return parallel_map(worker, items)\n"
            ),
        })
        hits = by_code(findings, "DET009")
        assert any("TABLE" in f.message for f in hits)

    def test_pure_worker_is_clean(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/experiments/sweep.py": (
                "SCALE = 3\n"
                "def worker(item):\n"
                "    local = []\n"
                "    local.append(item)\n"
                "    return item * SCALE\n"
                "def run(items):\n"
                "    return parallel_map(worker, items)\n"
            ),
        })
        assert by_code(findings, "DET009") == []


class TestTransitiveTaint:
    def test_protocol_chain_to_wall_clock_is_flagged(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/masc/node.py": (
                "from repro.masc.util import stamp\n"
                "def decide():\n"
                "    return stamp()\n"
            ),
            "repro/masc/util.py": (
                "import time\n"
                "def stamp():\n"
                "    return deeper()\n"
                "def deeper():\n"
                "    return time.time()\n"
            ),
        })
        hits = by_code(findings, "DET010")
        assert hits, "expected a transitive taint finding"
        assert any("time.time" in f.message for f in hits)
        # The chain is reported once, at the edge into the sinking
        # function — not at every caller above it.
        chain_hits = [f for f in hits if "deeper" in f.message]
        assert len(chain_hits) == 1

    def test_suppressed_sink_is_an_audited_boundary(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/masc/node.py": (
                "from repro.masc.util import stamp\n"
                "def decide():\n"
                "    return stamp()\n"
            ),
            "repro/masc/util.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  "
                "# lint: disable=DET002 — audited boundary\n"
            ),
        })
        assert by_code(findings, "DET010") == []
        assert by_code(findings, "DET002") == []

    def test_non_protocol_caller_is_not_flagged(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/tools/report.py": (
                "import time\n"
                "def banner():\n"
                "    return time.time()\n"
            ),
        })
        assert by_code(findings, "DET010") == []


class TestSuppressionOfWholeProgramFindings:
    def test_inline_suppression_covers_det008(self, tmp_path):
        findings = run_whole(tmp_path, {
            "repro/masc/node.py": (
                "def arm(sim):\n"
                "    sim.schedule(1.0, lambda: None)  "
                "# lint: disable=DET008 — fires before any checkpoint\n"
            ),
        })
        assert by_code(findings, "DET008") == []
