"""Differential test: the constraint solver against its previous search.

:class:`OracleSolver` runs ``ConstraintSolver.solve`` as it was before
phase 2 learned to stop at an exhausted domain and to cache each
constraint's truth per enumerated input; the method is kept below verbatim.
Both solvers answer the same query sequence on one instance each, so the
truth memo carries over between queries, and after every query the answers
(including dict key order) and :class:`SolverStatistics` must be equal.

Queries come from two sources: DSE explorations of the attack service's
``serve`` cells, and hypothesis-built path conjunctions over 1- and 2-byte
symbols whose prefixes share expression objects the way concolic queries do.
"""

from dataclasses import replace
from typing import Dict, Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.dse import DseEngine, InputSpec
from repro.attacks.solver.expr import BinExpr, ConstExpr, SymExpr, UnExpr
from repro.attacks.solver.solver import ConstraintSolver, PathConstraint
from repro.service.requests import AttackRequest, _prepared_image


class OracleSolver(ConstraintSolver):
    """The solver with its previous ``solve``: full enumeration, then the
    stochastic phase for whatever budget is left."""

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
            for value in range(1 << total_bits):
                candidate = dict(assignment)
                cursor = value
                for name in names:
                    bits = 8 * self.symbols[name]
                    candidate[name] = cursor & ((1 << bits) - 1)
                    cursor >>= bits
                budget -= 1
                if self._satisfies(constraints, candidate):
                    self.stats.solved += 1
                    return candidate
                if budget <= 0:
                    break

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


# -- queries harvested from DSE ------------------------------------------------

#: Solver queries harvested per exploration.  At these caps every
#: satisfiable DSE query is answered before phase 2, so the enumeration's
#: hits are covered by the generated queries below.
DSE_QUERIES = 16

SERVE_CELLS = [(structure, size, configuration)
               for structure in ("if(bb4,bb4)", "if(if(if,if),if)")
               for configuration in ("ROP1.00", "ROP1.00+OC+IH")
               for size in (1, 2)]


@pytest.mark.parametrize("structure,size,configuration", SERVE_CELLS)
def test_solver_matches_oracle_on_dse_queries(structure, size, configuration):
    """The oracle is the engine's solver while the exploration runs, so no
    truth memo exists yet; the solver then replays the recorded queries."""
    request = AttackRequest(id="differential", structure=structure,
                            input_size=size, configuration=configuration)
    image, symbol = _prepared_image(request)
    engine = DseEngine(image, symbol, InputSpec(argument_sizes=[size]),
                       seed=request.seed, max_instructions=request.max_instructions)
    oracle = OracleSolver(engine.symbols, seed=request.seed)
    recorded = []

    def recording_solve(constraints, seed_assignment=None):
        answer = OracleSolver.solve(oracle, constraints, seed_assignment)
        recorded.append((list(constraints), dict(seed_assignment),
                         answer and dict(answer), replace(oracle.stats)))
        return answer

    oracle.solve = recording_solve
    engine.solver = oracle
    engine.explore(time_budget=600.0, max_executions=request.max_executions,
                   max_solver_queries=DSE_QUERIES)
    assert len(recorded) == DSE_QUERIES

    solver = ConstraintSolver(engine.symbols, seed=request.seed)
    for number, (constraints, seed_assignment, want, stats) in enumerate(recorded):
        got = solver.solve(constraints, seed_assignment)
        assert got == want, f"query {number}"
        assert got is None or list(got) == list(want), f"query {number}"
        assert solver.stats == stats, f"query {number}"


# -- generated path conjunctions -----------------------------------------------

_OPERATORS = ("add", "sub", "mul", "and", "or", "xor", "shr", "mod", "ult", "eq")
_PREDICATES = ("eq", "ne", "ult", "ugt", "sle")
_SYMBOL_TABLES = ({"x": 1}, {"x": 2}, {"x": 1, "y": 1})


def _outcome(solver, constraints, seed_assignment):
    """The answer with its key order, or the exception type raised (phase 1
    inverts a foreign symbol by looking up its width, which fails alike in
    both solvers)."""
    try:
        answer = solver.solve(constraints, seed_assignment)
    except KeyError:
        return KeyError
    return None if answer is None else list(answer.items())


@st.composite
def path_queries(draw):
    """A symbol table of 8 or 16 bits, a DAG of shared subexpressions over
    it, one path of decisions through it and the concolic queries that
    negate each decision (plus the whole path, from another seed).

    Leaves may read a symbol wider than the table declares, or a foreign
    symbol ``z`` the table lacks; seeds may carry ``z`` and values wider
    than a symbol's width.
    """
    symbols = draw(st.sampled_from(_SYMBOL_TABLES))
    constants = st.integers(0, 0x1_ffff).map(ConstExpr)
    nodes = [SymExpr(name, size) for name, size in symbols.items()]
    nodes += draw(st.lists(st.sampled_from([SymExpr("x", 2), SymExpr("z", 1)]),
                           max_size=1))
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:
            nodes.append(UnExpr(draw(st.sampled_from(("neg", "not", "lnot"))),
                                draw(st.sampled_from(nodes))))
        else:
            nodes.append(BinExpr(draw(st.sampled_from(_OPERATORS)),
                                 draw(st.sampled_from(nodes)),
                                 draw(st.sampled_from(nodes) | constants)))
    values = st.integers(0, 0xff)
    wide = st.integers(0, 0x1_ffff)

    def assignment():
        chosen = {name: draw(wide if draw(st.booleans()) else values)
                  for name in symbols}
        if draw(st.booleans()):
            chosen["z"] = draw(values)
        return chosen

    reference = assignment()
    path = []
    for _ in range(draw(st.integers(1, 6))):
        expression = BinExpr(draw(st.sampled_from(_PREDICATES)),
                             draw(st.sampled_from(nodes)),
                             draw(st.sampled_from(nodes) | constants))
        path.append(PathConstraint(expression, bool(expression.evaluate(reference))))
    queries = [(path[:position] + [constraint.negated()], reference)
               for position, constraint in enumerate(path)]
    queries.append((path, assignment()))
    return symbols, queries


@settings(max_examples=200, deadline=None)
@given(case=path_queries(), max_evaluations=st.sampled_from([1, 100, 300]),
       seed=st.integers(0, 3))
def test_solver_matches_oracle_on_generated_queries(case, max_evaluations, seed):
    """Budgets below and above the 1-byte domain, and below the 2-byte one."""
    symbols, queries = case
    solver = ConstraintSolver(symbols, seed=seed, max_evaluations=max_evaluations)
    oracle = OracleSolver(symbols, seed=seed, max_evaluations=max_evaluations)
    for number, (constraints, seed_assignment) in enumerate(queries):
        want = _outcome(oracle, constraints, seed_assignment)
        got = _outcome(solver, constraints, seed_assignment)
        assert got == want, f"query {number}"
        assert solver.stats == oracle.stats, f"query {number}"


# -- RNG contract and memo scope -------------------------------------------------

def _modular(x) -> BinExpr:
    """``x * 7 % 251``: neither phase 1 nor a single guess solves it."""
    return BinExpr("mod", BinExpr("mul", x, ConstExpr(7)), ConstExpr(251))


@pytest.mark.parametrize("symbols,max_evaluations", [
    ({"x": 1}, 100), ({"x": 1}, 300), ({"x": 2}, 300), ({"x": 1, "y": 1}, 4000)])
def test_small_solver_never_reads_its_rng(symbols, max_evaluations):
    """SAT, exhausted and budget-capped queries leave a solver of at most 16
    bits with the RNG state it was built with."""
    x = SymExpr("x", symbols["x"])
    queries = [
        [PathConstraint(BinExpr("eq", _modular(x), ConstExpr(13)), True)],
        [PathConstraint(BinExpr("ugt", x, ConstExpr(0x1_0000)), True)],
        [PathConstraint(BinExpr("eq", x, ConstExpr(0x42)), True)],
        [PathConstraint(BinExpr("eq", _modular(x), ConstExpr(13)), True),
         PathConstraint(BinExpr("ult", x, ConstExpr(0x10)), True)],
    ]
    solver = ConstraintSolver(symbols, seed=9, max_evaluations=max_evaluations)
    oracle = OracleSolver(symbols, seed=9, max_evaluations=max_evaluations)
    state = solver.random.getstate()
    for constraints in queries:
        assert solver.solve(constraints, {"x": 3}) == oracle.solve(constraints, {"x": 3})
        assert solver.stats == oracle.stats
        assert solver.random.getstate() == state
    assert solver.stats.failed >= 2


def test_wide_solver_draws_what_the_oracle_draws():
    symbols = {"x": 1, "y": 2}
    x, y = SymExpr("x", 1), SymExpr("y", 2)
    queries = [
        [PathConstraint(BinExpr("ugt", x, ConstExpr(0x1_0000)), True)],
        [PathConstraint(BinExpr("ult", BinExpr("xor", x, y), ConstExpr(0x40)), True)],
        [PathConstraint(BinExpr("eq", _modular(y), ConstExpr(13)), True)],
    ]
    solver = ConstraintSolver(symbols, seed=9, max_evaluations=300)
    oracle = OracleSolver(symbols, seed=9, max_evaluations=300)
    for constraints in queries:
        seed_assignment = {"x": 200, "y": 0x1234}
        assert solver.solve(constraints, seed_assignment) \
            == oracle.solve(constraints, seed_assignment)
        assert solver.stats == oracle.stats
        assert solver.random.getstate() == oracle.random.getstate()
    assert solver.random.getstate() != ConstraintSolver(symbols, seed=9).random.getstate()


def test_memo_skips_expressions_over_foreign_symbols():
    """``(x + z) & 0xff == 0x5a`` with ``z`` carried by the seed only: its
    truth at an enumeration index depends on ``z``, so it must not be cached
    under the index."""
    x, z = SymExpr("x", 1), SymExpr("z", 1)
    expression = BinExpr("eq", BinExpr("and", BinExpr("add", x, z), ConstExpr(0xFF)),
                         ConstExpr(0x5A))
    constraints = [PathConstraint(expression, True)]
    solver = ConstraintSolver({"x": 1})
    oracle = OracleSolver({"x": 1})
    for foreign in (0x33, 0x10, 0x33):
        seed_assignment = {"x": 0, "z": foreign}
        answer = solver.solve(constraints, seed_assignment)
        assert answer == oracle.solve(constraints, seed_assignment)
        assert answer == {"x": (0x5A - foreign) & 0xFF, "z": foreign}
        assert solver.stats == oracle.stats
    assert getattr(expression, "_truth", None) is None


def test_seed_wider_than_its_symbol_keeps_the_stochastic_phase():
    """An exhausted domain is no proof when the seed holds a value wider than
    its symbol and a constraint reads it at that width: the stochastic phase
    keeps the seed's ``x`` while it draws ``y``, and finds an answer."""
    symbols = {"x": 1, "y": 1}
    constraints = [PathConstraint(BinExpr("eq", SymExpr("x", 2), ConstExpr(0x1FF)), True),
                   PathConstraint(BinExpr("ugt", SymExpr("y", 1), ConstExpr(0)), True)]
    seed_assignment = {"x": 0x1FF, "y": 0}
    solver = ConstraintSolver(symbols, max_evaluations=70_000)
    oracle = OracleSolver(symbols, max_evaluations=70_000)
    answer = solver.solve(constraints, seed_assignment)
    assert answer == oracle.solve(constraints, seed_assignment)
    assert answer is not None and answer["x"] == 0x1FF
    assert solver.stats == oracle.stats
    assert solver.random.getstate() == oracle.random.getstate()


@pytest.mark.parametrize("a,b,quotient,remainder", [
    # exact above 2**53, where a float quotient would round
    ((1 << 62) + 1, 3, 1537228672809129301, 2),
    (-(1 << 62) - 1, 3, -1537228672809129301, -2),
    (-7, 2, -3, -1),  # truncates toward zero, like idiv
    (7, -2, -3, 1),
    (5, 0, 0, 0),     # the expression language defines x / 0 as 0
])
def test_division_evaluates_exactly(a, b, quotient, remainder):
    mask = (1 << 64) - 1
    left, right = ConstExpr(a & mask), ConstExpr(b & mask)
    assert BinExpr("div", left, right).evaluate({}) == quotient & mask
    assert BinExpr("mod", left, right).evaluate({}) == remainder & mask
