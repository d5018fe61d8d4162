"""Rule documentation: ``--explain`` and ``--list-rules``."""

from __future__ import annotations

import inspect
import textwrap
from typing import Dict, List, Optional

from repro.lint.rules import RULES_BY_CODE
from repro.lint.whole import WHOLE_RULES_BY_CODE


def _all_rules_by_code() -> Dict[str, object]:
    combined: Dict[str, object] = dict(RULES_BY_CODE)
    combined.update(WHOLE_RULES_BY_CODE)
    return combined


def explain(code: str) -> Optional[str]:
    """The full rationale for one rule code (its class docstring),
    None for unknown codes."""
    code = code.strip().upper()
    if code == "SUP001":
        return (
            "SUP001: suppression hygiene.\n\n"
            "Every `# lint: disable=CODE` (and `disable-file=`) must "
            "carry a justification after the code list — the policy "
            "that used to be enforced by review is checked by the "
            "tool. Write `# lint: disable=DET001 — why this is safe`."
        )
    rule = _all_rules_by_code().get(code)
    if rule is None:
        return None
    doc = inspect.getdoc(rule) or rule.summary
    return f"{code}: {rule.summary}\n\n{textwrap.dedent(doc)}"


def list_rules() -> List[str]:
    """``CODE  summary`` lines for every rule, local and
    whole-program."""
    combined = _all_rules_by_code()
    return [
        f"{code}  {combined[code].summary}" for code in sorted(combined)
    ]
