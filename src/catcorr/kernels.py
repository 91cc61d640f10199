"""Overlap kernels mapping coherent-state labels to single-mode overlaps.

Each mode of the superposition is a coherent state |z> paired with its
mirror |-z|; the downstream formulas only see the real overlap
p = <z|-z> in [0, 1]. Three families are supported: the harmonic
oscillator (Weyl-Heisenberg), spin coherent states (su2, labelled by a
half-integer j stored as the integer 2j), and the discrete-series
pseudospin states (su11, labelled by a positive Bargmann index).
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, UnsupportedOverlapError


class Family(str, Enum):
    WEYL_HEISENBERG = "wh"
    SU2 = "su2"
    SU11 = "su11"


@dataclass(frozen=True)
class FamilyParams:
    """Coherent-state family plus its representation label.

    twice_j: integer 2j for su2, so half-integer spins stay exact.
    bargmann_index: positive real k for su11.
    Weyl-Heisenberg takes no label.
    """

    family: Family
    twice_j: int | None = None
    bargmann_index: float | None = None

    def __post_init__(self):
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        if family is Family.SU2:
            if self.twice_j is None or self.bargmann_index is not None:
                raise DomainError("su2 takes twice_j and nothing else")
            if not 1 <= self.twice_j < math.inf or int(self.twice_j) != self.twice_j:
                raise DomainError("twice_j must be a positive integer")
            object.__setattr__(self, "twice_j", int(self.twice_j))
        elif family is Family.SU11:
            if self.bargmann_index is None or self.twice_j is not None:
                raise DomainError("su11 takes bargmann_index and nothing else")
            if not self.bargmann_index > 0:
                raise DomainError("bargmann_index must be positive")
            if math.isinf(self.bargmann_index):
                raise DomainError("bargmann_index must be finite")
        else:
            if self.twice_j is not None or self.bargmann_index is not None:
                raise DomainError("weyl-heisenberg takes no representation label")


WEYL_HEISENBERG = FamilyParams(Family.WEYL_HEISENBERG)


def su2(twice_j: int) -> FamilyParams:
    """Spin coherent family for spin j = twice_j / 2."""
    return FamilyParams(Family.SU2, twice_j=twice_j)


def su11(bargmann_index: float) -> FamilyParams:
    """Pseudospin coherent family with the given discrete-series index."""
    return FamilyParams(Family.SU11, bargmann_index=bargmann_index)


def overlap(z: complex, params: FamilyParams) -> float:
    """Real overlap between the branch states |z> and |-z>.

    Depends only on |z|. Weyl-Heisenberg gives exp(-2|z|^2); su2 and
    su11 give ((1 - |z|^2)/(1 + |z|^2)) raised to 2j and 2k. su11
    labels must stay on the open unit disc; su2 labels with |z| > 1
    and odd 2j would give a negative overlap and are rejected.
    """
    r2 = abs(z) ** 2
    family = params.family
    if family is Family.WEYL_HEISENBERG:
        return math.exp(-2.0 * r2)
    ratio = (1.0 - r2) / (1.0 + r2)
    if family is Family.SU11:
        if r2 >= 1.0:
            raise DomainError("su11 labels must satisfy |z| < 1")
        return ratio ** (2.0 * params.bargmann_index)
    value = ratio ** params.twice_j
    if value < 0.0:
        raise UnsupportedOverlapError(
            "su2 overlap is negative for |z| > 1 with odd 2j; "
            "the correlation formulas need overlaps in [0, 1]"
        )
    return value
