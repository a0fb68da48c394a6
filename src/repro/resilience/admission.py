"""One admission valve for every inflight budget (docs/overload.md §5).

The dispatcher's count/byte valves, the overload controller's byte
backstop and the front door's estimated-byte budget are three owners of
the same rule: tier ``k`` of ``n_tiers`` may fill ``(k + 1) / n_tiers``
of a byte budget, a per-engine budget caps one engine class, and an
empty valve (or an empty engine slice) always admits, so progress beats
the budget.  "Empty" means no reservation is held.

Reservations are keyed by query id and bookkept in O(1): admission
never rescans the queries it admitted before.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["AdmissionValve"]


class AdmissionValve:
    """Inflight reservations plus the refusal rule over them."""

    def __init__(
        self,
        byte_budget: Optional[int] = None,
        n_tiers: int = 1,
        engine_budgets: Optional[Dict[str, int]] = None,
        max_count: Optional[int] = None,
    ) -> None:
        self.byte_budget = byte_budget
        self.n_tiers = n_tiers
        self.engine_budgets: Dict[str, int] = dict(engine_budgets or {})
        self.max_count = max_count
        # query_id -> (bytes, engine) of every held reservation
        self.reservations: Dict[int, Tuple[int, str]] = {}
        self.inflight_bytes = 0
        self.peak_bytes = 0
        self._engine_bytes: Dict[str, int] = {}
        self._engine_count: Dict[str, int] = {}

    def refusal(
        self, need: int, tier: Optional[int] = None, engine: str = ""
    ) -> Optional[str]:
        """None admits ``need`` bytes; otherwise the ``QueryShed`` reason.

        ``tier`` None grants the whole byte budget.
        """
        held = len(self.reservations)
        if self.max_count is not None and held >= self.max_count:
            return "count-valve"
        if held and self.byte_budget is not None:
            cap = self.byte_budget
            if tier is not None:
                cap = self.byte_budget * (tier + 1) / self.n_tiers
            if self.inflight_bytes + need > cap:
                return "byte-valve"
        cap = self.engine_budgets.get(engine)
        if (
            cap is not None
            and self._engine_count.get(engine)
            and self._engine_bytes[engine] + need > cap
        ):
            return "byte-valve"
        return None

    def reserve(self, query_id: int, need: int, engine: str = "") -> None:
        if query_id in self.reservations:
            raise ValueError(f"query {query_id} already holds a reservation")
        self.reservations[query_id] = (need, engine)
        self.inflight_bytes += need
        self.peak_bytes = max(self.peak_bytes, self.inflight_bytes)
        self._engine_bytes[engine] = self._engine_bytes.get(engine, 0) + need
        self._engine_count[engine] = self._engine_count.get(engine, 0) + 1

    def release(self, query_id: int) -> None:
        """Free ``query_id``'s reservation; a no-op when it holds none."""
        held = self.reservations.pop(query_id, None)
        if held is None:
            return
        need, engine = held
        self.inflight_bytes -= need
        self._engine_bytes[engine] -= need
        self._engine_count[engine] -= 1
