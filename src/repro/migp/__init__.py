"""Multicast Interior Gateway Protocols (MIGPs).

BGMP is MIGP-independent: "within each domain, any multicast routing
protocol can be used" (sections 3 and 5). This package provides the
domain-level abstraction BGMP composes with — group membership, the
hand-off of data between a domain's border routers and its interior,
and join/leave signalling to the best exit router — plus models of the
concrete protocols the paper names, each with its own control-cost and
data-path behaviour:

- :class:`~repro.migp.dvmrp.Dvmrp` — flood-and-prune with Domain Wide
  Reports; non-RPF border routers must encapsulate incoming data to
  the RPF border router (the Figure 3 encapsulation case).
- :class:`~repro.migp.pim.PimSparse` — Rendezvous Point shared trees;
  senders register-encapsulate to the RP.
- :class:`~repro.migp.pim.PimDense` — flood-and-prune like DVMRP.
- :class:`~repro.migp.cbt.Cbt` — a bidirectional core-based tree.
- :class:`~repro.migp.mospf.Mospf` — membership flooding with
  per-source shortest-path trees.
- :class:`~repro.migp.static.StaticMigp` — a trivial MIGP for
  single-router stub domains.
"""

from repro.migp import base, cbt, dvmrp, mospf, pim, static

MIGP_KINDS = {
    "dvmrp": dvmrp.Dvmrp,
    "pim-sm": pim.PimSparse,
    "pim-dm": pim.PimDense,
    "cbt": cbt.Cbt,
    "mospf": mospf.Mospf,
    "static": static.StaticMigp,
}


def make_migp(
    kind: str, domain, unicast_resolver=None
) -> base.MigpComponent:
    """Instantiate an MIGP by name (see :data:`MIGP_KINDS`)."""
    try:
        cls = MIGP_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown MIGP kind {kind!r}") from None
    return cls(domain, unicast_resolver=unicast_resolver)

