"""Exception types and structured diagnostics shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One validation finding: a short machine-readable code plus detail text."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


# the message names this many violations; .violations keeps them all
MAX_LISTED_VIOLATIONS = 20


class _ViolationsError(ValueError):
    """An operation needed a valid object; carries the violations found."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        listed = [str(v) for v in self.violations[:MAX_LISTED_VIOLATIONS]]
        more = len(self.violations) - len(listed)
        if more:
            listed.append(f"(and {more} more)")
        super().__init__("; ".join(listed))


class InvalidPresentationError(_ViolationsError):
    """Raised when an operation needs a valid polygon presentation but got violations."""


class UnknownPairError(KeyError, ValueError):
    """An arc word references a glued pair absent from its surface.  A
    KeyError for lookups by pair, and a ValueError like every refusal."""

    def __str__(self) -> str:
        return f"unknown pair {self.args[0]!r}: no glued side of this surface carries it"


class MixedSurfacesError(ValueError):
    """Two arcs from different surfaces were combined."""


class NoSharedStartError(ValueError):
    """first_divergence needs both arcs to leave the same boundary point."""


class InvalidOpenBookError(_ViolationsError):
    """Raised when an operation needs a valid partial open book but got violations."""


class NotABasisError(ValueError):
    """A product-disk system does not cut its supporting subsurface into disks."""


class OddTwistError(ValueError):
    """Twisted annuli need an even number of half twists to be orientable."""


class ZeroTwistError(ValueError):
    """A zero-twist band is not an annulus summand; the construction is undefined there."""


class HopfOnlyWarning(UserWarning):
    """A non-leading summand is a bare Hopf band, outside the surveyed family."""


class DocumentError(ValueError):
    """A document failed to parse or had an unsupported kind/version."""
