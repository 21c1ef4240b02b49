"""Search-based constraint solver used by the symbolic engines.

The solver answers one question: *find an assignment of the input symbols
that satisfies a conjunction of path constraints*.  It combines cheap
structural inversion (``f(x) == c`` patterns over invertible chains),
exhaustive enumeration of very small inputs, and bounded stochastic search.

Cost model.  Inputs of at most 16 bits are enumerated in a fixed order, and
each constraint expression caches on its node the truth it had at every
index already enumerated (keyed by the solver's symbol table, since that
fixes what each index decodes to).  Concolic queries share their path
prefixes, so the cost of enumeration grows with the number of *distinct*
constraints times the inputs enumerated, not with queries times prefix
length.  A query whose whole domain enumerates without a hit is UNSAT and
returns at once; it is still charged its full ``max_evaluations`` budget in
:class:`SolverStatistics`, the budget P1's aliasing and P3's state widening
make an attacker burn.  Wider inputs are searched stochastically, where cost
grows with expression depth and constraint count per candidate.

RNG contract.  The stochastic phase is the only reader of ``self.random``.
A solver of at most 16 bits never reads it as long as its seed assignments
fit their symbols' widths (the engines' seeds always do): its enumeration
either stops at the budget, leaving the stochastic phase none, or covers
the whole domain, where no draw could reach an input not already tried.  A
wider solver draws exactly the stream it always has.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.attacks.solver.expr import (
    BinExpr,
    ConstExpr,
    Expression,
    SymExpr,
    UnExpr,
    simplify,
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class PathConstraint:
    """One branch decision: ``expression`` must evaluate to ``expected``."""

    expression: Expression
    expected: bool

    def holds(self, assignment: Dict[str, int]) -> bool:
        return bool(self.expression.evaluate(assignment)) == self.expected

    def negated(self) -> "PathConstraint":
        return PathConstraint(self.expression, not self.expected)


@dataclass
class SolverStatistics:
    """Work counters (exposed so experiments can report solver pressure)."""

    queries: int = 0
    evaluations: int = 0
    solved: int = 0
    failed: int = 0


class ConstraintSolver:
    """Satisfiability search over input symbols.

    Args:
        symbols: the input symbols (name -> byte width).
        seed: RNG seed for the stochastic phase.
        max_evaluations: per-query budget of candidate evaluations; deeper
            expression sets consume it faster.
    """

    def __init__(self, symbols: Dict[str, int], seed: int = 0,
                 max_evaluations: int = 4000) -> None:
        self.symbols = dict(symbols)
        self.random = random.Random(seed)
        self.max_evaluations = max_evaluations
        self.stats = SolverStatistics()

    # -- helpers ---------------------------------------------------------------
    def _mask(self, name: str) -> int:
        return (1 << (8 * self.symbols[name])) - 1

    def _satisfies(self, constraints: Sequence[PathConstraint],
                   assignment: Dict[str, int]) -> bool:
        self.stats.evaluations += 1
        return all(constraint.holds(assignment) for constraint in constraints)

    def _enumerated(self, assignment: Dict[str, int], names: Sequence[str],
                    value: int) -> Dict[str, int]:
        """Phase 2's candidate at enumeration index ``value``."""
        candidate = dict(assignment)
        for name in names:
            bits = 8 * self.symbols[name]
            candidate[name] = value & ((1 << bits) - 1)
            value >>= bits
        return candidate

    def _truth(self, expression: Expression, key: tuple, size: int) -> bytearray:
        """Truth of ``expression`` per enumeration index: 0 unknown, 1 false,
        2 true.

        Cached in the node's ``_truth`` slot, made on first use, under the
        symbol table ``key``.  An expression reading a symbol outside the
        table depends on the seed assignment too, so it gets a fresh table
        that lives for one query.
        """
        if not expression.symbols().issubset(self.symbols):
            return bytearray(size)
        tables = getattr(expression, "_truth", None)
        if tables is None:
            tables = {}
            object.__setattr__(expression, "_truth", tables)
        truth = tables.setdefault(key, bytearray())
        if len(truth) < size:
            truth.extend(bytes(size - len(truth)))
        return truth

    def _try_invert(self, constraint: PathConstraint,
                    assignment: Dict[str, int]) -> Optional[Dict[str, int]]:
        """Structurally invert ``sym-op-chain == constant`` style constraints."""
        expression = simplify(constraint.expression)
        if not isinstance(expression, BinExpr) or expression.op not in ("eq", "ne"):
            return None
        want_equal = (expression.op == "eq") == constraint.expected
        if not want_equal:
            return None
        left, right = expression.left, expression.right
        if isinstance(left, ConstExpr):
            left, right = right, left
        if not isinstance(right, ConstExpr):
            return None
        target = right.value
        # peel invertible operations off the left side
        node = left
        while True:
            if isinstance(node, SymExpr):
                candidate = dict(assignment)
                candidate[node.name] = target & self._mask(node.name)
                return candidate
            if isinstance(node, BinExpr) and isinstance(node.right, ConstExpr):
                value = node.right.value
                if node.op == "add":
                    target = (target - value) & _MASK64
                elif node.op == "sub":
                    target = (target + value) & _MASK64
                elif node.op == "xor":
                    target = target ^ value
                elif node.op == "mul" and value % 2 == 1:
                    target = (target * pow(value, -1, 1 << 64)) & _MASK64
                elif node.op == "and":
                    # not invertible in general; keep masked target and recurse
                    target = target & value
                else:
                    return None
                node = node.left
                continue
            if isinstance(node, UnExpr) and node.op in ("neg", "not"):
                target = (-target) & _MASK64 if node.op == "neg" else (~target) & _MASK64
                node = node.operand
                continue
            return None

    # -- public API ---------------------------------------------------------------
    def solve(self, constraints: Sequence[PathConstraint],
              seed_assignment: Optional[Dict[str, int]] = None) -> Optional[Dict[str, int]]:
        """Find an assignment satisfying every constraint, or None.

        The search starts from ``seed_assignment`` (the concrete input of the
        path being negated, in concolic use) and consumes at most
        ``max_evaluations`` candidate evaluations.
        """
        self.stats.queries += 1
        assignment = dict(seed_assignment or {name: 0 for name in self.symbols})
        for name in self.symbols:
            assignment.setdefault(name, 0)

        if self._satisfies(constraints, assignment):
            self.stats.solved += 1
            return assignment

        # phase 1: structural inversion of the last (usually the negated) constraint
        for constraint in reversed(list(constraints)):
            candidate = self._try_invert(constraint, assignment)
            if candidate is not None and self._satisfies(constraints, candidate):
                self.stats.solved += 1
                return candidate

        budget = self.max_evaluations
        names = list(self.symbols)

        # phase 2: exhaustive enumeration for tiny input spaces
        total_bits = sum(8 * self.symbols[name] for name in names)
        if total_bits <= 16:
            domain = 1 << total_bits
            tried = min(domain, max(budget, 1))
            key = tuple(self.symbols.items())
            checks = [(constraint.expression, 2 if constraint.expected else 1,
                       self._truth(constraint.expression, key, tried))
                      for constraint in constraints]
            for value in range(tried):
                candidate = None
                for expression, want, truth in checks:
                    known = truth[value]
                    if not known:
                        if candidate is None:
                            candidate = self._enumerated(assignment, names, value)
                        known = truth[value] = 2 if expression.evaluate(candidate) else 1
                    if known != want:
                        break
                else:
                    self.stats.evaluations += value + 1
                    self.stats.solved += 1
                    if candidate is None:
                        candidate = self._enumerated(assignment, names, value)
                    return candidate
            self.stats.evaluations += tried
            budget -= tried
            if tried == domain and all(assignment[name] & self._mask(name) == assignment[name]
                                       for name in names):
                # UNSAT: every candidate phase 3 could draw was just enumerated
                self.stats.evaluations += max(budget, 0)
                self.stats.failed += 1
                return None

        # phase 3: stochastic search (byte flips, random restarts)
        best = dict(assignment)
        while budget > 0:
            candidate = dict(best)
            name = self.random.choice(names)
            mask = self._mask(name)
            mutation = self.random.random()
            if mutation < 0.4:
                byte = self.random.randrange(self.symbols[name])
                candidate[name] = (candidate[name]
                                   ^ (self.random.randrange(256) << (8 * byte))) & mask
            elif mutation < 0.7:
                candidate[name] = self.random.randrange(mask + 1)
            else:
                candidate[name] = (candidate[name] + self.random.choice([1, -1, 16, -16])) & mask
            budget -= 1
            if self._satisfies(constraints, candidate):
                self.stats.solved += 1
                return candidate
            if self.random.random() < 0.2:
                best = candidate
        self.stats.failed += 1
        return None
