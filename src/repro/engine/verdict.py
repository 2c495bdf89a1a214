"""The unified decision vocabulary every domain reports in.

Before the engine existed, each application of the paper's model kept a
private verdict shape: the machine layer had its own ``DecisionReport``,
the RTDB acceptors re-used it with different conventions, and the ad hoc
routing validator returned an unrelated ``RouteValidation``.  This
module is the single vocabulary they all now share:

* :class:`Verdict` — the three-valued outcome of judging a run
  (Definition 3.4's accept/reject, plus UNDECIDED for horizon-bounded
  judgements that never reached an absorbing state);
* :class:`DecisionReport` — one record per judged input, carrying the
  verdict, the raw acceptance currency (``f_count``), the horizon the
  judgement is confident to, the chronon the absorbing verdict was
  declared at (if any), the rt-SPACE quantity (``space_peak``), and a
  free-form ``evidence`` mapping for strategy- or domain-specific
  artifacts (empirical f-rates, routing-chain violations, …).

The machine layer re-exports both names, so historical imports
(``from repro.machine import Verdict``) keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

__all__ = ["Verdict", "DecisionReport"]


class Verdict(Enum):
    """Outcome of judging a run."""

    ACCEPT = "accept"
    REJECT = "reject"
    UNDECIDED = "undecided"


@dataclass
class DecisionReport:
    """Result of judging one input word (any domain, any strategy).

    ``evidence`` is the extension point: decision strategies and domain
    adapters deposit their artifacts there (``discipline``, empirical
    ``raw_verdict``, routing ``violations``, batch ``seed``, …) instead
    of growing per-domain report classes.  ``strategy`` names the
    decision procedure that produced the report (empty for direct
    machine-level judgements).
    """

    verdict: Verdict
    f_count: int = 0
    horizon: int = 0
    space_peak: int = 0
    decided_at: Optional[int] = None
    evidence: Dict[str, Any] = field(default_factory=dict)
    strategy: str = ""

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPT

    def settle_zeno(self, accepted: bool, at: int) -> "DecisionReport":
        """Settle the report of a frozen-time lasso by its exact
        acceptance: the verdict, ``decided_at`` pinned to the instant
        ``at`` where time stalls, and ``evidence["zeno"] =
        "region-exact"`` (see :func:`repro.engine.strategies.resolve_zeno`)."""
        self.verdict = Verdict.ACCEPT if accepted else Verdict.REJECT
        self.decided_at = at
        self.evidence["zeno"] = "region-exact"
        return self

    def __repr__(self) -> str:  # pragma: no cover
        tag = f", strategy={self.strategy}" if self.strategy else ""
        return (
            f"DecisionReport({self.verdict.value}, f={self.f_count}, "
            f"horizon={self.horizon}, space={self.space_peak}, "
            f"at={self.decided_at}{tag})"
        )
