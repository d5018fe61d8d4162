"""Tree-quality and allocation analysis.

:mod:`repro.analysis.trees` implements the four distribution-tree
models compared in Figure 4 (shortest-path, unidirectional shared,
bidirectional shared, hybrid with source-specific branches) at domain
granularity. :mod:`repro.analysis.report` renders experiment results
as fixed-width text tables matching the paper's presentation.
"""
