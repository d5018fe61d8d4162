"""Inter-domain topology model.

The unit of topology is the *domain* (Autonomous System). Domains own
border routers and hosts; inter-domain links connect border routers of
neighbouring domains; provider-customer relationships define both the
BGP export policies and the MASC parent-child hierarchy.

Generators build the two topology families the paper evaluates on:
a k-ary provider hierarchy (Figure 2's 50 top-level x 50 children) and
a route-views-like sparse AS graph of ~3326 nodes (Figure 4).
"""
