"""TOML scenario loading and validation.

Every failure mode raises :class:`ScenarioError` carrying the file
path and the first line of the offending table, so a broken scenario
fails CI with ``scenarios/foo.toml:17: unknown step verb 'jion'``
rather than a traceback. Semantic validation resolves every name a
step mentions — domains, routers, hosts, groups, MASC nodes, digest
labels — against the declared topology, so typos die at validate
time, not mid-run.
"""

from __future__ import annotations

import math
import re
import tomllib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.addressing.ipv4 import parse_address
from repro.addressing.prefix import Prefix
from repro.migp import MIGP_KINDS
from repro.scenarios.spec import (
    ASSERT_VERBS,
    DOMAIN_KINDS,
    LINK_RELATIONS,
    STEP_VERBS,
    TOPOLOGY_BUILDERS,
    DomainSpec,
    GroupSpec,
    LinkSpec,
    MascNodeSpec,
    MascSpec,
    ScenarioError,
    ScenarioSpec,
    Step,
    TopologySpec,
)
from repro.scenarios.topologies import build_topology

_TOP_LEVEL_KEYS = ("scenario", "topology", "group", "masc", "step")

_SCENARIO_KEYS = (
    "name", "description", "seed", "horizon", "recovery_delay",
    "check_every",
)

#: Step verbs that touch each layer (used to require the matching
#: declaration sections).
_BGMP_VERBS = frozenset(
    v for v in STEP_VERBS
    if v not in (
        "masc-crash", "masc-restart", "partition", "heal", "claim",
        "recover",
    )
)
_MASC_VERBS = frozenset(
    ("masc-crash", "masc-restart", "partition", "heal", "claim")
)


def _array_lines(text: str, name: str) -> List[int]:
    """1-based line numbers of every ``[[name]]`` header."""
    pattern = re.compile(
        r"^\s*\[\[\s*" + re.escape(name) + r"\s*\]\]"
    )
    return [
        index
        for index, line in enumerate(text.splitlines(), start=1)
        if pattern.match(line)
    ]


def _section_line(text: str, name: str) -> int:
    """1-based line number of the ``[name]`` header (0 if absent)."""
    pattern = re.compile(
        r"^\s*\[\s*" + re.escape(name) + r"\s*[\].]"
    )
    for index, line in enumerate(text.splitlines(), start=1):
        if pattern.match(line):
            return index
    return 0


def _decode_error_line(error: tomllib.TOMLDecodeError) -> int:
    match = re.search(r"line (\d+)", str(error))
    return int(match.group(1)) if match else 0


class _Context:
    """Carries the path and per-table line numbers through checks."""

    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path

    def fail(self, message: str, line: int = 0) -> ScenarioError:
        return ScenarioError(message, self.path, line)


def _require_keys(
    ctx: _Context,
    table: dict,
    required: Sequence[str],
    optional: Sequence[str],
    what: str,
    line: int,
) -> None:
    for key in required:
        if key not in table:
            raise ctx.fail(f"{what} is missing key {key!r}", line)
    allowed = set(required) | set(optional)
    for key in table:
        if key not in allowed:
            raise ctx.fail(
                f"{what} has unknown key {key!r} "
                f"(allowed: {', '.join(sorted(allowed))})",
                line,
            )


def _typed(
    ctx: _Context, table: dict, key: str, kinds, what: str, line: int
):
    value = table[key]
    if isinstance(value, bool) and bool not in (
        kinds if isinstance(kinds, tuple) else (kinds,)
    ):
        raise ctx.fail(
            f"{what}: key {key!r} must not be a boolean", line
        )
    if not isinstance(value, kinds):
        names = (
            "/".join(k.__name__ for k in kinds)
            if isinstance(kinds, tuple)
            else kinds.__name__
        )
        raise ctx.fail(
            f"{what}: key {key!r} must be {names}, "
            f"got {type(value).__name__}",
            line,
        )
    return value


def _str_list(
    ctx: _Context, table: dict, key: str, what: str, line: int
) -> List[str]:
    value = table[key]
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ctx.fail(
            f"{what}: key {key!r} must be a list of strings", line
        )
    return value


# ----------------------------------------------------------------------
# Section parsers


def _parse_scenario_table(
    ctx: _Context, data: dict
) -> Tuple[str, str, int, float, float, int]:
    line = _section_line(ctx.text, "scenario")
    if "scenario" not in data:
        raise ctx.fail("missing required [scenario] section")
    table = data["scenario"]
    _require_keys(
        ctx, table, ("name",), _SCENARIO_KEYS, "[scenario]", line
    )
    name = _typed(ctx, table, "name", str, "[scenario]", line)
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", name):
        raise ctx.fail(
            f"scenario name {name!r} must be alphanumeric with "
            "._- separators",
            line,
        )
    description = table.get("description", "")
    seed = table.get("seed", 0)
    horizon = table.get("horizon", 30.0)
    recovery_delay = table.get("recovery_delay", 1.0)
    check_every = table.get("check_every", 1)
    for key, value, kinds in (
        ("description", description, str),
        ("seed", seed, int),
        ("horizon", horizon, (int, float)),
        ("recovery_delay", recovery_delay, (int, float)),
        ("check_every", check_every, int),
    ):
        if key in table:
            _typed(ctx, table, key, kinds, "[scenario]", line)
    if horizon <= 0:
        raise ctx.fail("[scenario] horizon must be positive", line)
    if check_every < 1:
        raise ctx.fail("[scenario] check_every must be >= 1", line)
    return (
        name, description, int(seed), float(horizon),
        float(recovery_delay), int(check_every),
    )


def _parse_topology(ctx: _Context, data: dict) -> Optional[TopologySpec]:
    if "topology" not in data:
        return None
    line = _section_line(ctx.text, "topology")
    table = dict(data["topology"])
    builder = table.pop("builder", None)
    if builder is None:
        raise ctx.fail("[topology] is missing key 'builder'", line)
    if builder not in TOPOLOGY_BUILDERS:
        raise ctx.fail(
            f"unknown topology builder {builder!r} (known: "
            f"{', '.join(sorted(TOPOLOGY_BUILDERS))})",
            line,
        )
    migp = table.pop("migp", "")
    if migp and migp not in MIGP_KINDS:
        raise ctx.fail(
            f"unknown MIGP kind {migp!r} (known: "
            f"{', '.join(sorted(MIGP_KINDS))})",
            line,
        )
    domains = table.pop("domain", [])
    links = table.pop("link", [])
    unicast_only_raw = table.pop("unicast_only", [])
    allowed = set(TOPOLOGY_BUILDERS[builder])
    for key in table:
        if key not in allowed:
            raise ctx.fail(
                f"[topology] builder {builder!r} does not accept "
                f"key {key!r}",
                line,
            )
    if builder == "custom":
        if not domains:
            raise ctx.fail(
                "custom topology needs at least one "
                "[[topology.domain]]",
                line,
            )
    elif domains or links:
        raise ctx.fail(
            "[[topology.domain]]/[[topology.link]] tables require "
            "builder = 'custom'",
            line,
        )
    domain_specs = _parse_domains(ctx, domains)
    link_specs = _parse_links(
        ctx, links, {d.name for d in domain_specs}
    )
    unicast_only = _parse_unicast_only(ctx, unicast_only_raw)
    return TopologySpec(
        builder=builder,
        params=dict(table),
        migp=migp,
        domains=domain_specs,
        links=link_specs,
        unicast_only=unicast_only,
    )


def _parse_domains(
    ctx: _Context, raw: list
) -> Tuple[DomainSpec, ...]:
    lines = _array_lines(ctx.text, "topology.domain")
    specs: List[DomainSpec] = []
    seen: set = set()
    for index, table in enumerate(raw):
        line = lines[index] if index < len(lines) else 0
        what = "[[topology.domain]]"
        _require_keys(
            ctx, table, ("name",), ("kind", "migp"), what, line
        )
        name = _typed(ctx, table, "name", str, what, line)
        if name in seen:
            raise ctx.fail(f"duplicate domain {name!r}", line)
        seen.add(name)
        kind = table.get("kind", "stub")
        if kind not in DOMAIN_KINDS:
            raise ctx.fail(
                f"unknown domain kind {kind!r} (known: "
                f"{', '.join(DOMAIN_KINDS)})",
                line,
            )
        migp = table.get("migp", "")
        if migp and migp not in MIGP_KINDS:
            raise ctx.fail(f"unknown MIGP kind {migp!r}", line)
        specs.append(DomainSpec(name=name, kind=kind, migp=migp))
    return tuple(specs)


def _parse_links(
    ctx: _Context, raw: list, domain_names: set
) -> Tuple[LinkSpec, ...]:
    lines = _array_lines(ctx.text, "topology.link")
    specs: List[LinkSpec] = []
    for index, table in enumerate(raw):
        line = lines[index] if index < len(lines) else 0
        what = "[[topology.link]]"
        _require_keys(
            ctx, table, ("a", "b"), ("relation", "multicast"),
            what, line,
        )
        endpoints = []
        for key in ("a", "b"):
            ref = _typed(ctx, table, key, str, what, line)
            domain_name = ref.partition(":")[0]
            if domain_name not in domain_names:
                raise ctx.fail(
                    f"link endpoint {ref!r} names undeclared domain "
                    f"{domain_name!r}",
                    line,
                )
            endpoints.append(ref)
        relation = table.get("relation", "none")
        if relation not in LINK_RELATIONS:
            raise ctx.fail(
                f"unknown link relation {relation!r} (known: "
                f"{', '.join(LINK_RELATIONS)})",
                line,
            )
        multicast = table.get("multicast", True)
        if not isinstance(multicast, bool):
            raise ctx.fail(
                f"{what}: key 'multicast' must be a boolean", line
            )
        specs.append(
            LinkSpec(
                a=endpoints[0], b=endpoints[1],
                relation=relation, multicast=multicast,
            )
        )
    return tuple(specs)


def _parse_unicast_only(
    ctx: _Context, raw: list
) -> Tuple[Tuple[str, str], ...]:
    lines = _array_lines(ctx.text, "topology.unicast_only")
    pairs: List[Tuple[str, str]] = []
    for index, table in enumerate(raw):
        line = lines[index] if index < len(lines) else 0
        what = "[[topology.unicast_only]]"
        _require_keys(ctx, table, ("a", "b"), (), what, line)
        pairs.append(
            (
                _typed(ctx, table, "a", str, what, line),
                _typed(ctx, table, "b", str, what, line),
            )
        )
    return tuple(pairs)


def _parse_groups(ctx: _Context, data: dict) -> Tuple[GroupSpec, ...]:
    raw = data.get("group", [])
    if not isinstance(raw, list):
        raise ctx.fail(
            "groups must be [[group]] array tables",
            _section_line(ctx.text, "group"),
        )
    lines = _array_lines(ctx.text, "group")
    groups: List[GroupSpec] = []
    seen: set = set()
    for index, table in enumerate(raw):
        line = lines[index] if index < len(lines) else 0
        what = "[[group]]"
        _require_keys(
            ctx, table, ("address", "range", "root"), (), what, line
        )
        address_text = _typed(ctx, table, "address", str, what, line)
        range_text = _typed(ctx, table, "range", str, what, line)
        root = _typed(ctx, table, "root", str, what, line)
        try:
            address = parse_address(address_text)
        except ValueError as error:
            raise ctx.fail(f"bad group address: {error}", line)
        try:
            covering = Prefix.parse(range_text)
        except ValueError as error:
            raise ctx.fail(f"bad group range: {error}", line)
        if not covering.contains_address(address):
            raise ctx.fail(
                f"group {address_text} is outside its declared "
                f"range {range_text}",
                line,
            )
        if address_text in seen:
            raise ctx.fail(
                f"duplicate group {address_text}", line
            )
        seen.add(address_text)
        groups.append(
            GroupSpec(
                address=address,
                address_text=address_text,
                range_text=range_text,
                root=root,
            )
        )
    return tuple(groups)


def _parse_masc(ctx: _Context, data: dict) -> Optional[MascSpec]:
    if "masc" not in data:
        return None
    line = _section_line(ctx.text, "masc")
    table = dict(data["masc"])
    raw_nodes = table.pop("node", [])
    _require_keys(
        ctx, table, (), ("delay", "waiting_period"), "[masc]", line
    )
    if not raw_nodes:
        raise ctx.fail(
            "[masc] needs at least one [[masc.node]]", line
        )
    lines = _array_lines(ctx.text, "masc.node")
    nodes: List[MascNodeSpec] = []
    seen: set = set()
    for index, node_table in enumerate(raw_nodes):
        node_line = lines[index] if index < len(lines) else 0
        what = "[[masc.node]]"
        _require_keys(
            ctx, node_table, ("name",), ("parent",), what, node_line
        )
        name = _typed(ctx, node_table, "name", str, what, node_line)
        if name in seen:
            raise ctx.fail(
                f"duplicate MASC node {name!r}", node_line
            )
        parent = node_table.get("parent", "")
        if parent and parent not in seen:
            raise ctx.fail(
                f"MASC node {name!r} names parent {parent!r} which "
                "is not declared above it",
                node_line,
            )
        seen.add(name)
        nodes.append(MascNodeSpec(name=name, parent=parent))
    delay = table.get("delay", 0.1)
    waiting = table.get("waiting_period", 2.0)
    for key, value in (("delay", delay), ("waiting_period", waiting)):
        if not isinstance(value, (int, float)) or isinstance(
            value, bool
        ) or value <= 0:
            raise ctx.fail(
                f"[masc] {key} must be a positive number", line
            )
    return MascSpec(
        nodes=tuple(nodes),
        delay=float(delay),
        waiting_period=float(waiting),
    )


# ----------------------------------------------------------------------
# Steps


class _World:
    """Name universes the steps are validated against."""

    def __init__(
        self,
        domains: set,
        routers: set,
        groups: set,
        masc_nodes: set,
    ):
        self.domains = domains
        self.routers = routers
        self.groups = groups
        self.masc_nodes = masc_nodes


def _check_ref(
    ctx: _Context,
    step_what: str,
    line: int,
    kind: str,
    name: str,
    universe: set,
) -> None:
    if name not in universe:
        known = ", ".join(sorted(universe)[:8]) or "none declared"
        raise ctx.fail(
            f"{step_what} references unknown {kind} {name!r} "
            f"(known: {known})",
            line,
        )


def _check_target(
    ctx: _Context, what: str, line: int, value: str, world: _World,
    allow_none: bool,
) -> None:
    """Validate a forwarding-target reference: ``none``,
    ``migp:DOMAIN``, ``peer:ROUTER``, or a bare router name."""
    if value == "none":
        if not allow_none:
            raise ctx.fail(
                f"{what}: 'none' is not a valid child target", line
            )
        return
    if value.startswith("migp:"):
        _check_ref(
            ctx, what, line, "domain", value[5:], world.domains
        )
        return
    name = value[5:] if value.startswith("peer:") else value
    _check_ref(ctx, what, line, "router", name, world.routers)


def _validate_step_refs(
    ctx: _Context, step: Step, world: _World, labels: set
) -> None:
    what = f"step {step.verb!r}"
    line = step.line
    args = step.args

    def ref(kind: str, name: str, universe: set) -> None:
        _check_ref(ctx, what, line, kind, name, universe)

    for key in ("group",):
        if key in args:
            ref("group", args[key], world.groups)
    host_keys = ("host", "source", "from")
    if step.verb == "move-root":
        host_keys = ("host", "source")  # move-root's "from" is a domain
    for key in host_keys:
        if key in args:
            value = args[key]
            domain_name, sep, host = value.partition(":")
            if not sep or not host:
                raise ctx.fail(
                    f"{what}: {key} must be DOMAIN:HOST, got "
                    f"{value!r}",
                    line,
                )
            ref("domain", domain_name, world.domains)
    for key in ("a", "b", "router"):
        if key in args:
            ref("router", args[key], world.routers)
    for key in ("node",):
        if key in args:
            ref("MASC node", args[key], world.masc_nodes)
    for key in ("side_a", "side_b"):
        if key in args:
            for name in args[key]:
                ref("MASC node", name, world.masc_nodes)
    for key in ("members", "absent", "expect_reach", "expect_miss"):
        if key in args:
            for name in args[key]:
                ref("domain", name, world.domains)
    if step.verb == "root-domain":
        ref("domain", args["domain"], world.domains)
    if step.verb == "move-root":
        ref("domain", args["to"], world.domains)
        if "from" in args:
            ref("domain", args["from"], world.domains)
        try:
            Prefix.parse(args["range"])
        except ValueError as error:
            raise ctx.fail(f"{what}: bad range: {error}", line)
    if step.verb == "tree-parent":
        _check_target(
            ctx, what, line, args["parent"], world, allow_none=True
        )
    if step.verb == "tree-children":
        for key in ("contains", "excludes"):
            for value in args.get(key, ()):
                _check_target(
                    ctx, what, line, value, world, allow_none=False
                )
    if step.verb == "digest":
        if args["same_as"] not in labels:
            raise ctx.fail(
                f"{what}: no earlier record-digest step defines "
                f"label {args['same_as']!r}",
                line,
            )
    if step.verb == "claim":
        bits = args["bits"]
        if not isinstance(bits, int) or isinstance(bits, bool) or not (
            0 < bits <= 32
        ):
            raise ctx.fail(
                f"{what}: bits must be an integer in 1..32", line
            )


_LIST_KEYS = (
    "side_a", "side_b", "members", "absent", "expect_reach",
    "expect_miss", "contains", "excludes",
)

_BOOL_KEYS = ("may_fail", "must_select", "present", "equal")


def _parse_steps(
    ctx: _Context, data: dict, world: _World, has_masc: bool,
    has_groups: bool,
) -> Tuple[Step, ...]:
    raw = data.get("step", [])
    if not isinstance(raw, list):
        raise ctx.fail(
            "steps must be [[step]] array tables",
            _section_line(ctx.text, "step"),
        )
    if not raw:
        raise ctx.fail("scenario has no [[step]] tables")
    lines = _array_lines(ctx.text, "step")
    steps: List[Step] = []
    labels: set = set()
    for index, table in enumerate(raw):
        line = lines[index] if index < len(lines) else 0
        step = _parse_one_step(ctx, dict(table), line)
        if step.verb in _MASC_VERBS and not has_masc:
            raise ctx.fail(
                f"step {step.verb!r} needs a [masc] section", line
            )
        if step.verb in _BGMP_VERBS and not step.is_assert and (
            not has_groups
        ):
            raise ctx.fail(
                f"step {step.verb!r} needs at least one [[group]]",
                line,
            )
        _validate_step_refs(ctx, step, world, labels)
        if step.verb == "record-digest":
            labels.add(step.args["label"])
        steps.append(step)
    return tuple(steps)


def _parse_one_step(ctx: _Context, table: dict, line: int) -> Step:
    has_do = "do" in table
    has_assert = "assert" in table
    if has_do == has_assert:
        raise ctx.fail(
            "step must have exactly one of 'do' or 'assert'", line
        )
    verb_key = "do" if has_do else "assert"
    verb = table.pop(verb_key)
    catalog = STEP_VERBS if has_do else ASSERT_VERBS
    if not isinstance(verb, str) or verb not in catalog:
        kind = "step" if has_do else "assertion"
        raise ctx.fail(
            f"unknown {kind} verb {verb!r} (known: "
            f"{', '.join(sorted(catalog))})",
            line,
        )
    if "at" not in table:
        raise ctx.fail(
            f"step {verb!r} is missing its 'at' time "
            "(malformed schedule)",
            line,
        )
    at = table.pop("at")
    if not isinstance(at, (int, float)) or isinstance(at, bool):
        raise ctx.fail(
            f"step {verb!r}: 'at' must be a number "
            "(malformed schedule)",
            line,
        )
    if at < 0:
        raise ctx.fail(
            f"step {verb!r}: 'at' is before time zero "
            "(malformed schedule)",
            line,
        )
    if not math.isfinite(at):
        raise ctx.fail(
            f"step {verb!r}: 'at' must be finite, got {at} "
            "(malformed schedule)",
            line,
        )
    required, optional = catalog[verb]
    what = f"step {verb!r}"
    _require_keys(ctx, table, required, optional, what, line)
    for key in _LIST_KEYS:
        if key in table:
            _str_list(ctx, table, key, what, line)
    for key in _BOOL_KEYS:
        if key in table and not isinstance(table[key], bool):
            raise ctx.fail(
                f"{what}: key {key!r} must be a boolean", line
            )
    for key in ("min", "equals", "count"):
        if key in table and (
            not isinstance(table[key], int)
            or isinstance(table[key], bool)
        ):
            raise ctx.fail(
                f"{what}: key {key!r} must be an integer", line
            )
    for key, value in table.items():
        if key in _LIST_KEYS or key in _BOOL_KEYS or key in (
            "min", "equals", "count", "bits"
        ):
            continue
        if not isinstance(value, str):
            raise ctx.fail(
                f"{what}: key {key!r} must be a string", line
            )
    return Step(
        at=float(at),
        verb=verb,
        is_assert=has_assert,
        args=dict(table),
        path=ctx.path,
        line=line,
    )


# ----------------------------------------------------------------------
# Entry points


def parse_scenario(text: str, path: str = "<scenario>") -> ScenarioSpec:
    """Parse and fully validate scenario TOML text."""
    ctx = _Context(text, path)
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ctx.fail(
            f"TOML syntax error: {error}", _decode_error_line(error)
        ) from None
    for key in data:
        if key not in _TOP_LEVEL_KEYS:
            raise ctx.fail(
                f"unknown top-level section [{key}] (allowed: "
                f"{', '.join(_TOP_LEVEL_KEYS)})",
                _section_line(ctx.text, key),
            )
    (
        name, description, seed, horizon, recovery_delay, check_every
    ) = _parse_scenario_table(ctx, data)
    topology_spec = _parse_topology(ctx, data)
    groups = _parse_groups(ctx, data)
    masc = _parse_masc(ctx, data)
    if groups and topology_spec is None:
        raise ctx.fail(
            "[[group]] tables need a [topology] section",
            _array_lines(ctx.text, "group")[0],
        )
    if topology_spec is None and masc is None:
        raise ctx.fail(
            "scenario declares neither [topology] nor [masc] — "
            "nothing to simulate"
        )

    domains: set = set()
    routers: set = set()
    if topology_spec is not None:
        try:
            topology = build_topology(topology_spec)
        except (ScenarioError, ValueError, KeyError) as error:
            raise ctx.fail(
                f"topology failed to build: {error}",
                _section_line(ctx.text, "topology"),
            ) from None
        domains = {d.name for d in topology.domains}
        routers = {r.name for r in topology.routers()}
        group_lines = _array_lines(ctx.text, "group")
        for index, group in enumerate(groups):
            if group.root not in domains:
                raise ctx.fail(
                    f"group {group.address_text} roots at unknown "
                    f"domain {group.root!r}",
                    group_lines[index] if index < len(group_lines)
                    else 0,
                )
    world = _World(
        domains=domains,
        routers=routers,
        groups={g.address_text for g in groups},
        masc_nodes=(
            {n.name for n in masc.nodes} if masc is not None else set()
        ),
    )
    steps = _parse_steps(
        ctx, data, world, has_masc=masc is not None,
        has_groups=bool(groups),
    )
    return ScenarioSpec(
        name=name,
        description=description,
        path=path,
        seed=seed,
        horizon=horizon,
        recovery_delay=recovery_delay,
        check_every=check_every,
        topology=topology_spec,
        groups=groups,
        masc=masc,
        steps=steps,
    )


def load_scenario(path) -> ScenarioSpec:
    """Load and validate one scenario file."""
    file_path = Path(path)
    try:
        text = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise ScenarioError(
            f"cannot read scenario: {error}", str(path)
        ) from None
    return parse_scenario(text, str(path))


def discover_scenarios(directory) -> List[Path]:
    """All ``*.toml`` scenario files under ``directory``, sorted."""
    base = Path(directory)
    if not base.is_dir():
        raise ScenarioError("scenario directory does not exist",
                            path=str(base))
    return sorted(base.glob("*.toml"))
