"""Symbolic bitvector expressions used by the attack engines.

Expressions are immutable trees over 64-bit values.  They support evaluation
under a concrete assignment of the input symbols, which is what both the
constraint solver (search-based) and the concolic engine (shadow values) need.

Shadow state makes heavy *sharing* inevitable: one register expression feeds
the next instruction's operands, so the live expression set is a DAG whose
unfolded tree is exponentially larger than its node count.  Every structural
query therefore memoizes per node (``depth``/``symbols`` cache on the
immutable node itself) or per call (``evaluate``/``simplify`` carry an
id-keyed memo engaged once an expression is deep enough for sharing to
matter), keeping all of them O(unique nodes) instead of O(tree paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple, Union

_MASK64 = (1 << 64) - 1

#: Expressions at most this deep evaluate by plain recursion: below the
#: threshold the tree cannot hide enough sharing to matter, and skipping the
#: memo keeps the solver's hot loop (thousands of shallow evaluations per
#: query) free of dict traffic.
_MEMO_DEPTH = 8


def _signed(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


@dataclass(frozen=True)
class SymExpr:
    """A free input symbol (one function argument or input byte group)."""

    name: str
    size: int = 8  # in bytes

    def evaluate(self, assignment: Dict[str, int], _memo: Optional[dict] = None) -> int:
        return assignment.get(self.name, 0) & ((1 << (8 * self.size)) - 1)

    def symbols(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def depth(self) -> int:
        return 1

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConstExpr:
    """A constant."""

    value: int

    def evaluate(self, assignment: Dict[str, int], _memo: Optional[dict] = None) -> int:
        return self.value & _MASK64

    def symbols(self) -> FrozenSet[str]:
        return frozenset()

    def depth(self) -> int:
        return 1

    def __str__(self) -> str:
        return hex(self.value)


#: Binary operators understood by :class:`BinExpr`.
BINARY_OPERATORS = (
    "add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr", "sar",
    "eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge",
)


@dataclass(frozen=True)
class BinExpr:
    """A binary operation; comparisons evaluate to 0 or 1."""

    op: str
    left: "Expression"
    right: "Expression"

    def evaluate(self, assignment: Dict[str, int], _memo: Optional[dict] = None) -> int:
        if _memo is None and self.depth() > _MEMO_DEPTH:
            _memo = {}
        if _memo is not None:
            key = id(self)
            cached = _memo.get(key)
            if cached is not None:
                return cached
        a = self.left.evaluate(assignment, _memo) & _MASK64
        b = self.right.evaluate(assignment, _memo) & _MASK64
        value = self._apply(a, b)
        if _memo is not None:
            _memo[key] = value
        return value

    def _apply(self, a: int, b: int) -> int:
        op = self.op
        if op == "add":
            return (a + b) & _MASK64
        if op == "sub":
            return (a - b) & _MASK64
        if op == "mul":
            return (a * b) & _MASK64
        if op == "div" or op == "mod":
            if b == 0:
                return 0
            # exact integer division truncating toward zero, as idiv does
            dividend, divisor = _signed(a), _signed(b)
            quotient = abs(dividend) // abs(divisor)
            if (dividend < 0) != (divisor < 0):
                quotient = -quotient
            if op == "div":
                return quotient & _MASK64
            return (dividend - quotient * divisor) & _MASK64
        if op == "and":
            return a & b
        if op == "or":
            return a | b
        if op == "xor":
            return a ^ b
        if op == "shl":
            return (a << (b & 0x3F)) & _MASK64
        if op == "shr":
            return a >> (b & 0x3F)
        if op == "sar":
            return (_signed(a) >> (b & 0x3F)) & _MASK64
        if op == "eq":
            return int(a == b)
        if op == "ne":
            return int(a != b)
        if op == "ult":
            return int(a < b)
        if op == "ule":
            return int(a <= b)
        if op == "ugt":
            return int(a > b)
        if op == "uge":
            return int(a >= b)
        if op == "slt":
            return int(_signed(a) < _signed(b))
        if op == "sle":
            return int(_signed(a) <= _signed(b))
        if op == "sgt":
            return int(_signed(a) > _signed(b))
        if op == "sge":
            return int(_signed(a) >= _signed(b))
        raise ValueError(f"unknown operator {op!r}")

    def symbols(self) -> FrozenSet[str]:
        cached = self.__dict__.get("_symbols")
        if cached is None:
            cached = self.left.symbols() | self.right.symbols()
            object.__setattr__(self, "_symbols", cached)
        return cached

    def depth(self) -> int:
        cached = self.__dict__.get("_depth")
        if cached is None:
            cached = 1 + max(self.left.depth(), self.right.depth())
            object.__setattr__(self, "_depth", cached)
        return cached

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnExpr:
    """A unary operation: ``neg``, ``not`` or ``lnot``."""

    op: str
    operand: "Expression"

    def evaluate(self, assignment: Dict[str, int], _memo: Optional[dict] = None) -> int:
        if _memo is None and self.depth() > _MEMO_DEPTH:
            _memo = {}
        if _memo is not None:
            key = id(self)
            cached = _memo.get(key)
            if cached is not None:
                return cached
        value = self.operand.evaluate(assignment, _memo) & _MASK64
        if self.op == "neg":
            value = (-value) & _MASK64
        elif self.op == "not":
            value = (~value) & _MASK64
        elif self.op == "lnot":
            value = int(value == 0)
        else:
            raise ValueError(f"unknown operator {self.op!r}")
        if _memo is not None:
            _memo[key] = value
        return value

    def symbols(self) -> FrozenSet[str]:
        cached = self.__dict__.get("_symbols")
        if cached is None:
            cached = self.operand.symbols()
            object.__setattr__(self, "_symbols", cached)
        return cached

    def depth(self) -> int:
        cached = self.__dict__.get("_depth")
        if cached is None:
            cached = 1 + self.operand.depth()
            object.__setattr__(self, "_depth", cached)
        return cached

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class SelectExpr:
    """A symbolic-index read over a memory snapshot (theory-of-arrays style).

    Used by the page memory model (§VII-C3): the snapshot captures the bytes
    of the page the concrete address fell in, and the index expression selects
    within it.
    """

    base_address: int
    snapshot: Tuple[int, ...]
    index: "Expression"
    size: int = 1

    def evaluate(self, assignment: Dict[str, int], _memo: Optional[dict] = None) -> int:
        offset = (self.index.evaluate(assignment, _memo) - self.base_address) & _MASK64
        if offset + self.size > len(self.snapshot):
            return 0
        value = 0
        for i in range(self.size):
            value |= self.snapshot[offset + i] << (8 * i)
        return value

    def symbols(self) -> FrozenSet[str]:
        cached = self.__dict__.get("_symbols")
        if cached is None:
            cached = self.index.symbols()
            object.__setattr__(self, "_symbols", cached)
        return cached

    def depth(self) -> int:
        cached = self.__dict__.get("_depth")
        if cached is None:
            cached = 1 + self.index.depth()
            object.__setattr__(self, "_depth", cached)
        return cached

    def __str__(self) -> str:
        return f"select[{self.base_address:#x}+{len(self.snapshot)}]({self.index})"


Expression = Union[SymExpr, ConstExpr, BinExpr, UnExpr, SelectExpr]


def bitvec(name: str, size: int = 8) -> SymExpr:
    """Create an input symbol of ``size`` bytes."""
    return SymExpr(name, size)


def constant(value: int) -> ConstExpr:
    """Create a constant expression."""
    return ConstExpr(value & _MASK64)


def simplify(expression: Expression, _memo: Optional[dict] = None) -> Expression:
    """Lightweight constant folding.

    The per-call memo keeps shared subtrees simplified once and — just as
    important — *re-shared* in the result, so simplifying a DAG cannot
    explode it into a tree.
    """
    if _memo is None:
        _memo = {}
    cached = _memo.get(id(expression))
    if cached is not None:
        return cached
    result = expression
    if isinstance(expression, BinExpr):
        left = simplify(expression.left, _memo)
        right = simplify(expression.right, _memo)
        if isinstance(left, ConstExpr) and isinstance(right, ConstExpr):
            result = ConstExpr(BinExpr(expression.op, left, right).evaluate({}))
        elif expression.op in ("add", "or", "xor") and isinstance(right, ConstExpr) and right.value == 0:
            result = left
        elif expression.op == "mul" and isinstance(right, ConstExpr) and right.value == 1:
            result = left
        elif left is not expression.left or right is not expression.right:
            result = BinExpr(expression.op, left, right)
    elif isinstance(expression, UnExpr):
        operand = simplify(expression.operand, _memo)
        if isinstance(operand, ConstExpr):
            result = ConstExpr(UnExpr(expression.op, operand).evaluate({}))
        elif operand is not expression.operand:
            result = UnExpr(expression.op, operand)
    _memo[id(expression)] = result
    return result
