"""Communication accounting for the distributed setting.

The paper's conclusion names "extending to the distributed setting" as
an open direction.  When reproducing distributed protocols in-process,
the quantity of interest is the *communication cost*: how many
messages and how many ``(object_id, score)`` pairs cross the network.
:class:`CommStats` tracks both in the accounting style of
:class:`~repro.storage.stats.IOStats`:

* scalar ``record`` plus bulk ``record_messages`` counters (a batched
  coordinator charges a whole workload slice in one call, with totals
  identical to the scalar per-message loop),
* :meth:`CommStats.snapshot` / snapshot subtraction, so equivalence
  suites can diff the comm cost of one protocol run in isolation, and
* per-round records for the round-based protocols (the threshold
  algorithm), so convergence behavior is observable — not just final
  totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: Wire size of one (object_id, score) pair: two 8-byte words.
PAIR_BYTES = 16


@dataclass(frozen=True)
class CommSnapshot:
    """Immutable view of the counters at a point in time."""

    messages: int = 0
    pairs: int = 0

    @property
    def bytes(self) -> int:
        """Payload bytes shipped (16 bytes per pair)."""
        return self.pairs * PAIR_BYTES

    def __sub__(self, other: "CommSnapshot") -> "CommSnapshot":
        return CommSnapshot(
            messages=self.messages - other.messages,
            pairs=self.pairs - other.pairs,
        )


@dataclass
class RoundRecord:
    """Message/pair counters for one protocol round.

    Beyond the totals, the TA's two access kinds are tracked
    separately — ``sorted_*`` for sorted-access batches, ``random_*``
    for random-access probes — so the comm bill of a threshold run is
    attributable per mechanism.  Records written through the plain
    :meth:`CommStats.record` path leave the split fields at 0.
    """

    messages: int = 0
    pairs: int = 0
    sorted_messages: int = 0
    sorted_pairs: int = 0
    random_messages: int = 0
    random_pairs: int = 0


@dataclass
class CommStats:
    """Message and payload counters for one coordinator.

    ``rounds`` holds one :class:`RoundRecord` per protocol round
    opened with :meth:`start_round`; protocols that are not
    round-based (single-round scatter-gather, top-k merges) leave it
    empty.
    """

    messages: int = 0
    pairs: int = 0
    rounds: List[RoundRecord] = field(default_factory=list)
    #: Queries answered best-effort because some partition had no
    #: surviving replica, and each such query's coverage fraction.
    degraded_queries: int = 0
    coverages: List[float] = field(default_factory=list)
    _open_round: Optional[RoundRecord] = field(
        default=None, repr=False, compare=False
    )

    @property
    def bytes(self) -> int:
        """Payload bytes shipped (16 bytes per pair)."""
        return self.pairs * PAIR_BYTES

    def record(self, num_pairs: int) -> None:
        """One message carrying ``num_pairs`` pairs."""
        self.record_messages(1, num_pairs)

    def record_messages(self, num_messages: int, num_pairs: int) -> None:
        """Charge ``num_messages`` messages carrying ``num_pairs`` total.

        The bulk counterpart of :meth:`record` (compare
        :meth:`IOStats.record_reads`): a batched coordinator models a
        whole workload slice — one logical message per query — with
        one counter update, keeping totals identical to the scalar
        per-query loop.
        """
        self.messages += int(num_messages)
        self.pairs += int(num_pairs)
        if self._open_round is not None:
            self._open_round.messages += int(num_messages)
            self._open_round.pairs += int(num_pairs)

    # ------------------------------------------------------------------
    # TA access kinds (attributable comm bill)
    # ------------------------------------------------------------------
    def record_sorted(self, num_pairs: int) -> None:
        """One sorted-access message carrying ``num_pairs`` pairs."""
        self.record_sorted_messages(1, num_pairs)

    def record_sorted_messages(self, num_messages: int, num_pairs: int) -> None:
        """Bulk sorted-access charge (totals + the round's split)."""
        self.record_messages(num_messages, num_pairs)
        if self._open_round is not None:
            self._open_round.sorted_messages += int(num_messages)
            self._open_round.sorted_pairs += int(num_pairs)

    def record_random(self, num_pairs: int) -> None:
        """One random-access probe message carrying ``num_pairs`` pairs."""
        self.record_random_messages(1, num_pairs)

    def record_random_messages(self, num_messages: int, num_pairs: int) -> None:
        """Bulk random-access charge (totals + the round's split)."""
        self.record_messages(num_messages, num_pairs)
        if self._open_round is not None:
            self._open_round.random_messages += int(num_messages)
            self._open_round.random_pairs += int(num_pairs)

    # ------------------------------------------------------------------
    # degradation (fault-tolerant serving)
    # ------------------------------------------------------------------
    def record_degraded(self, coverage: float) -> None:
        """One query answered over ``coverage`` of its data.

        Charged by coordinators when no replica survives for some
        partition a query touches; the per-query coverage list is what
        the chaos bench aggregates into recall-vs-fault-rate curves.
        """
        self.degraded_queries += 1
        self.coverages.append(float(coverage))

    # ------------------------------------------------------------------
    # rounds (threshold-style protocols)
    # ------------------------------------------------------------------
    def start_round(self) -> None:
        """Open a new protocol round; subsequent records charge into it."""
        self._open_round = RoundRecord()
        self.rounds.append(self._open_round)

    def end_round(self) -> None:
        """Close the current round (records then only update totals)."""
        self._open_round = None

    def snapshot(self) -> CommSnapshot:
        """Capture current counter values."""
        return CommSnapshot(self.messages, self.pairs)

    def reset(self) -> None:
        self.messages = 0
        self.pairs = 0
        self.rounds = []
        self.degraded_queries = 0
        self.coverages = []
        self._open_round = None
