"""CNF formula representation.

Variables are positive integers ``1..num_vars``; a literal is ``+v`` or
``-v`` (DIMACS convention).  :class:`CNFBuilder` additionally maintains a
bidirectional mapping between variables and arbitrary hashable *names* (the
tomography layer names variables after ``(ASN, anomaly)`` pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple


def var_of(literal: int) -> int:
    """The variable underlying a literal.

    >>> var_of(-3)
    3
    """
    if literal == 0:
        raise ValueError("0 is not a valid literal")
    return abs(literal)


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals.

    Duplicate literals are removed on construction; the clause preserves
    first-occurrence order otherwise.  A clause containing both ``v`` and
    ``-v`` is a *tautology* (always true).
    """

    literals: Tuple[int, ...]

    def __init__(self, literals: Iterable[int]) -> None:
        seen: Dict[int, None] = {}
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            seen.setdefault(lit, None)
        object.__setattr__(self, "literals", tuple(seen))

    def __iter__(self) -> Iterator[int]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __contains__(self, literal: int) -> bool:
        return literal in self.literals

    @property
    def is_empty(self) -> bool:
        """An empty clause is unsatisfiable."""
        return not self.literals

    @property
    def is_unit(self) -> bool:
        """A unit clause forces its single literal."""
        return len(self.literals) == 1

    @property
    def is_tautology(self) -> bool:
        """True when the clause contains a literal and its negation."""
        lits = set(self.literals)
        return any(-lit in lits for lit in lits)

    def variables(self) -> set[int]:
        """The set of variables mentioned by this clause."""
        return {abs(lit) for lit in self.literals}

    def satisfied_by(self, assignment: Dict[int, bool]) -> bool:
        """Whether a (possibly partial) assignment satisfies this clause."""
        for lit in self.literals:
            value = assignment.get(abs(lit))
            if value is not None and value == (lit > 0):
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Clause({' '.join(map(str, self.literals))})"


@dataclass
class CNF:
    """A conjunction of :class:`Clause` objects over variables 1..num_vars."""

    num_vars: int
    clauses: List[Clause] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        max_var = max(
            (max(map(abs, c.literals)) for c in self.clauses if c.literals),
            default=0,
        )
        if max_var > self.num_vars:
            raise ValueError(
                f"clause mentions variable {max_var} > num_vars={self.num_vars}"
            )

    def add_clause(self, literals: Iterable[int]) -> Clause:
        """Append a clause, growing ``num_vars`` if needed."""
        clause = literals if isinstance(literals, Clause) else Clause(literals)
        if clause.literals:
            self.num_vars = max(self.num_vars, max(map(abs, clause.literals)))
        self.clauses.append(clause)
        return clause

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def variables(self) -> set[int]:
        """All variables that actually appear in some clause."""
        out: set[int] = set()
        for clause in self.clauses:
            out.update(clause.variables())
        return out

    def copy(self) -> "CNF":
        """A shallow copy sharing immutable clauses."""
        return CNF(self.num_vars, list(self.clauses))


class CNFBuilder:
    """Builds a :class:`CNF` over *named* variables.

    The tomography layer deals in ASes, not integers; this builder allocates
    one solver variable per distinct name and records the mapping both ways.

    >>> builder = CNFBuilder()
    >>> builder.add_clause_named(["AS1", "AS2"])          # AS1 or AS2 censors
    >>> builder.add_clause_named(["AS1"], positive=False)  # AS1 is clean
    >>> cnf = builder.build()
    >>> cnf.num_vars, len(cnf.clauses)
    (2, 2)
    """

    def __init__(self) -> None:
        self._var_by_name: Dict[Hashable, int] = {}
        self._name_by_var: Dict[int, Hashable] = {}
        self._clauses: List[Clause] = []

    def variable(self, name: Hashable) -> int:
        """The solver variable for ``name``, allocating on first use."""
        var = self._var_by_name.get(name)
        if var is None:
            var = len(self._var_by_name) + 1
            self._var_by_name[name] = var
            self._name_by_var[var] = name
        return var

    def name_of(self, var: int) -> Hashable:
        """The name bound to solver variable ``var``."""
        return self._name_by_var[var]

    @property
    def names(self) -> Tuple[Hashable, ...]:
        """All names, in allocation order (variable 1 first)."""
        return tuple(self._var_by_name)

    @property
    def num_vars(self) -> int:
        """Number of variables allocated so far."""
        return len(self._var_by_name)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause of raw integer literals."""
        self._clauses.append(Clause(literals))

    def add_clause_named(
        self, names: Sequence[Hashable], positive: bool = True
    ) -> None:
        """Add a clause over named variables.

        With ``positive=True`` adds the disjunction ``(n1 or n2 or ...)``.
        With ``positive=False`` asserts every name false — one negative unit
        clause per name, which is how a censorship-free path measurement
        constrains every AS on the path.
        """
        if positive:
            self._clauses.append(Clause([self.variable(n) for n in names]))
        else:
            for name in names:
                self._clauses.append(Clause([-self.variable(name)]))

    def build(self) -> CNF:
        """Produce the immutable-ish CNF accumulated so far."""
        return CNF(num_vars=self.num_vars, clauses=list(self._clauses))

    def decode(self, assignment: Dict[int, bool]) -> Dict[Hashable, bool]:
        """Translate a solver assignment back to names."""
        return {
            name: assignment[var]
            for name, var in self._var_by_name.items()
            if var in assignment
        }


__all__ = ["CNF", "Clause", "CNFBuilder", "var_of"]
