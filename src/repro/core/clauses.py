"""Observation → clause construction, shared by batch and stream (§3.1).

A :class:`PathLedger` is the canonical intermediate between raw
observations and a tomography CNF: the deduplicated censored/clean path
sets of one (URL, anomaly, window) problem, in first-seen order.  Both
consumers build their clauses from it —

- :class:`~repro.core.problem.TomographyProblem` fills a ledger from a
  complete observation group and solves it in one shot (batch);
- :class:`repro.stream.state.ProblemState` appends to a ledger one
  observation at a time and re-derives verdicts incrementally (stream) —

so the two layers cannot drift: a drained stream and a batch run see the
exact same unique-path sets, signatures, and clause orderings, which is
what makes their final results byte-identical.

Clause semantics (mirrored from the paper): a censored observation of path
``X → Y → Z`` contributes the positive clause ``(X ∨ Y ∨ Z)``; a clean
observation contributes one negative unit per AS on the path.  Repeated
identical measurements add no information and are dropped on entry.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set, Tuple

from repro.sat.cnf import CNF, CNFBuilder

# A problem's canonical content: (solution cap, sorted unique censored
# paths, sorted unique clean paths).  Everything a solution contains —
# status, counts, censor/eliminated sets — is a pure function of this.
ProblemSignature = Tuple[
    int, Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]
]


class PathLedger:
    """Deduplicated (path, detected) entries of one problem, in order.

    ``entries`` preserves the *interleaved* first-seen order of censored
    and clean paths — the order CNF clauses are emitted in, so variable
    numbering matches the historical ``TomographyProblem.build_cnf``
    exactly.  ``positive``/``negative`` keep the per-polarity orders the
    propagation fast path consumes.
    """

    __slots__ = (
        "entries",
        "positive",
        "negative",
        "_seen_positive",
        "_seen_negative",
        "_observed",
        "_clause_count",
    )

    def __init__(self) -> None:
        self.entries: List[Tuple[Tuple[int, ...], bool]] = []
        self.positive: List[Tuple[int, ...]] = []
        self.negative: List[Tuple[int, ...]] = []
        self._seen_positive: Set[Tuple[int, ...]] = set()
        self._seen_negative: Set[Tuple[int, ...]] = set()
        self._observed: Set[int] = set()
        self._clause_count = 0

    def add(self, path: Tuple[int, ...], detected: bool) -> bool:
        """Record one observation's path; True when it added information.

        A path already seen at the same polarity is a no-op (and returns
        False) — exactly the deduplication the batch CNF construction
        applies.
        """
        if detected:
            if path in self._seen_positive:
                return False
            self._seen_positive.add(path)
            self.positive.append(path)
            self._clause_count += 1
        else:
            if path in self._seen_negative:
                return False
            self._seen_negative.add(path)
            self.negative.append(path)
            self._clause_count += len(path)
        self.entries.append((path, detected))
        self._observed.update(path)
        return True

    # -- derived structure ------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def had_anomaly(self) -> bool:
        """Whether at least one censored path was recorded."""
        return bool(self.positive)

    def observed_ases(self) -> FrozenSet[int]:
        """Every AS appearing on any recorded path."""
        return frozenset(self._observed)

    @property
    def observed_count(self) -> int:
        """How many ASes :meth:`observed_ases` holds, without the copy."""
        return len(self._observed)

    @property
    def clause_count(self) -> int:
        """CNF clause count: one per censored path, one unit per AS of
        each clean path (duplicates within a path collapse inside a
        positive clause but repeat as units, exactly like CNFBuilder).
        Counted as paths are added, since the stream reads it on every
        verdict snapshot."""
        return self._clause_count

    @property
    def positive_clause_count(self) -> int:
        return len(self.positive)

    def signature(self, solution_cap: int) -> ProblemSignature:
        """Canonical content signature for structural deduplication.

        Path *sets* (not their observation order) determine the solution,
        so the signature sorts them; the solution cap participates because
        it bounds ``num_solutions``.
        """
        return (
            solution_cap,
            tuple(sorted(self.positive)),
            tuple(sorted(self.negative)),
        )

    def build_cnf(self) -> Tuple[CNF, CNFBuilder]:
        """Construct the problem's CNF in first-seen clause order."""
        builder = CNFBuilder()
        for path, detected in self.entries:
            builder.add_clause_named(list(path), positive=detected)
        return builder.build(), builder


__all__ = ["PathLedger", "ProblemSignature"]
