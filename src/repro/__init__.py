"""Reproduction of "The MASC/BGMP Architecture for Inter-Domain
Multicast Routing" (SIGCOMM 1998).

Top-level entry points:

- :class:`repro.core.system.MulticastInternet` — the assembled architecture.
- :mod:`repro.experiments` — drivers for the paper's figures.
- ``python -m repro`` — the command-line interface.

See README.md for a tour and DESIGN.md for the system inventory.
"""

__version__ = "1.0.0"
