"""Violation listeners: the sanitizer's live-streaming hook."""

import pickle

import pytest

from repro.sanitizer.core import (
    InvariantSanitizer,
    InvariantViolation,
    check_no_overlapping_claims,
)


class SiblingStub:
    """Two 'siblings' claiming overlapping space trips the overlap
    invariant without building a full MASC tree."""

    class PrefixStub:
        def __init__(self, text):
            self.text = text

        def overlaps(self, other):
            return True

        def __str__(self):
            return self.text

    class ClaimedStub:
        def __init__(self, text):
            self._prefix = SiblingStub.PrefixStub(text)

        def prefixes(self):
            return [self._prefix]

    def __init__(self, name, prefix):
        self.name = name
        self.claimed = self.ClaimedStub(prefix)


def tripped_sanitizer(raise_on_violation):
    sanitizer = InvariantSanitizer(
        masc_siblings=[[
            SiblingStub("M1", "224.0.0.0/16"),
            SiblingStub("M2", "224.0.0.0/17"),
        ]],
        raise_on_violation=raise_on_violation,
    )

    class SimStub:
        now = 7.5

    sanitizer._sim = SimStub()
    return sanitizer


def trip(sanitizer):
    """Run the claim-disjointness check directly (no event loop)."""
    sanitizer.report(
        "claim-disjointness",
        check_no_overlapping_claims(sanitizer.masc_siblings),
    )


class TestListeners:
    def test_listener_sees_recorded_violation(self):
        sanitizer = tripped_sanitizer(raise_on_violation=False)
        seen = []
        sanitizer.add_listener(seen.append)
        trip(sanitizer)
        assert len(seen) == 1
        assert isinstance(seen[0], InvariantViolation)
        assert seen[0].invariant == "claim-disjointness"
        assert sanitizer.violations  # recording still happened

    def test_listener_fires_before_raise(self):
        # Raising mode never reaches the `violations` list — the
        # listener is the only way a live feed sees the violation.
        sanitizer = tripped_sanitizer(raise_on_violation=True)
        seen = []
        sanitizer.add_listener(seen.append)
        with pytest.raises(InvariantViolation):
            trip(sanitizer)
        assert len(seen) == 1
        assert sanitizer.violations == []

    def test_add_remove_idempotent(self):
        sanitizer = tripped_sanitizer(raise_on_violation=False)
        seen = []
        sanitizer.add_listener(seen.append)
        sanitizer.add_listener(seen.append)  # no-op
        trip(sanitizer)
        assert len(seen) == 1
        sanitizer.remove_listener(seen.append)
        sanitizer.remove_listener(seen.append)  # no-op
        trip(sanitizer)
        assert len(seen) == 1

    def test_listeners_do_not_pickle(self):
        sanitizer = tripped_sanitizer(raise_on_violation=False)
        sanitizer.add_listener(print)
        sanitizer._sim = None  # stub is not picklable; detach it
        restored = pickle.loads(pickle.dumps(sanitizer))
        assert restored._listeners == []
        # And the live sanitizer keeps its listener.
        assert sanitizer._listeners == [print]
