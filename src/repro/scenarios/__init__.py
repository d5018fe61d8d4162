"""Declarative scenarios: TOML-defined topologies, step schedules,
and expected-state assertions executed on the simulator.

A scenario file declares a world (``[topology]``, ``[[group]]``,
``[masc]``) and a schedule of ``[[step]]`` tables — mutations
(``do``) and assertions (``assert``) at simulation times. The loader
validates everything against the declared world with file:line error
messages; the engine runs the steps through the fault injector and
invariant sanitizer and emits a deterministic state fingerprint.

See ARCHITECTURE.md §15 for the format, verbs, and assertion catalog;
``scenarios/`` at the repo root holds the shipped suite; run it with
``python -m repro scenarios run``.

Import from the modules; ``discover_scenarios``, ``load_scenario``
and ``run_scenario`` are also names of this package only because
``bench/`` reaches them here.
"""

from repro.scenarios.engine import run_scenario
from repro.scenarios.loader import discover_scenarios, load_scenario
