"""Symbolic bitvector expressions used by the attack engines.

Expressions are immutable trees over 64-bit values.  They support evaluation
under a concrete assignment of the input symbols, which is what both the
constraint solver (search-based) and the concolic engine (shadow values) need.

Shadow state makes heavy *sharing* inevitable: one register expression feeds
the next instruction's operands, so the live expression set is a DAG whose
unfolded tree is exponentially larger than its node count.  Every structural
query therefore stays O(unique nodes) instead of O(tree paths): ``depth`` and
``symbols`` are computed at construction from the children's stored values,
and ``evaluate``/``simplify`` carry an id-keyed memo per call, engaged once an
expression is deep enough for sharing to matter.

Building nodes is the shadow's per-instruction cost, so the nodes are
slotted classes rather than frozen dataclasses.  They keep the dataclass
contract: ``==`` and ``hash`` compare the field tuple, ``repr`` is
dataclass-style, and assigning or deleting a field raises
``FrozenInstanceError`` (an ``AttributeError``).  ``__init__`` writes each
slot through its descriptor's ``__set__``, bound once after the class.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Dict, FrozenSet, Optional, Tuple, Union

_MASK64 = (1 << 64) - 1

#: Expressions at most this deep evaluate by plain recursion: below the
#: threshold the tree cannot hide enough sharing to matter, and skipping the
#: memo keeps the solver's hot loop (thousands of shallow evaluations per
#: query) free of dict traffic.
_MEMO_DEPTH = 8

#: The symbol set of every constant.
_NO_SYMBOLS: FrozenSet[str] = frozenset()


def _signed(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


#: Binary operators understood by :class:`BinExpr`.
BINARY_OPERATORS = (
    "add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr", "sar",
    "eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge",
)


def apply_binary(op: str, a: int, b: int) -> int:
    """``a op b`` on 64-bit values; comparisons give 0 or 1."""
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


def apply_unary(op: str, value: int) -> int:
    """``op value`` on a 64-bit value: ``neg``, ``not`` or ``lnot``."""
    if op == "neg":
        return (-value) & _MASK64
    if op == "not":
        return (~value) & _MASK64
    if op == "lnot":
        return int(value == 0)
    raise ValueError(f"unknown operator {op!r}")


class _Node:
    """What every expression node shares: the stored ``depth``/``symbols``,
    the solver's truth memo (see ``ConstraintSolver._truth``), and the
    frozen-dataclass contract over the subclass's ``_fields``."""

    __slots__ = ("_depth", "_symbols", "_truth")

    #: The constructor's fields, in order.
    _fields: Tuple[str, ...] = ()

    _depth: int
    _symbols: FrozenSet[str]

    def _key(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def depth(self) -> int:
        return self._depth

    def symbols(self) -> FrozenSet[str]:
        return self._symbols

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> Tuple[Any, ...]:
        return (self.__class__, self._key())


def _setters(cls: type) -> Tuple[Any, ...]:
    """The ``__set__`` of each slot ``cls`` declares, in slot order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__dict__["__slots__"])


_SET_DEPTH, _SET_SYMBOLS = _setters(_Node)[:2]  # ``_truth`` is the solver's to set


class SymExpr(_Node):
    """A free input symbol (one function argument or input byte group)."""

    _fields = __slots__ = ("name", "size")

    name: str
    size: int  # in bytes

    def __init__(self, name: str, size: int = 8) -> None:
        _SET_SYM_NAME(self, name)
        _SET_SYM_SIZE(self, size)
        _SET_DEPTH(self, 1)
        _SET_SYMBOLS(self, frozenset((name,)))

    def evaluate(self, assignment: Dict[str, int], _memo: Optional[dict] = None) -> int:
        return assignment.get(self.name, 0) & ((1 << (8 * self.size)) - 1)

    def __str__(self) -> str:
        return self.name


_SET_SYM_NAME, _SET_SYM_SIZE = _setters(SymExpr)


class ConstExpr(_Node):
    """A constant."""

    _fields = __slots__ = ("value",)

    value: int

    def __init__(self, value: int) -> None:
        _SET_CONST_VALUE(self, value)
        _SET_DEPTH(self, 1)
        _SET_SYMBOLS(self, _NO_SYMBOLS)

    def evaluate(self, assignment: Dict[str, int], _memo: Optional[dict] = None) -> int:
        return self.value & _MASK64

    def __str__(self) -> str:
        return hex(self.value)


_SET_CONST_VALUE, = _setters(ConstExpr)


class BinExpr(_Node):
    """A binary operation; comparisons evaluate to 0 or 1."""

    _fields = __slots__ = ("op", "left", "right")

    op: str
    left: "Expression"
    right: "Expression"

    def __init__(self, op: str, left: "Expression", right: "Expression") -> None:
        _SET_BIN_OP(self, op)
        _SET_BIN_LEFT(self, left)
        _SET_BIN_RIGHT(self, right)
        left_depth, right_depth = left._depth, right._depth
        _SET_DEPTH(self, 1 + (left_depth if left_depth > right_depth else right_depth))
        left_symbols, right_symbols = left._symbols, right._symbols
        if right_symbols <= left_symbols:
            _SET_SYMBOLS(self, left_symbols)
        elif left_symbols <= right_symbols:
            _SET_SYMBOLS(self, right_symbols)
        else:
            _SET_SYMBOLS(self, left_symbols | right_symbols)

    def evaluate(self, assignment: Dict[str, int], _memo: Optional[dict] = None) -> int:
        if _memo is None and self._depth > _MEMO_DEPTH:
            _memo = {}
        if _memo is not None:
            key = id(self)
            cached = _memo.get(key)
            if cached is not None:
                return cached
        a = self.left.evaluate(assignment, _memo) & _MASK64
        b = self.right.evaluate(assignment, _memo) & _MASK64
        value = apply_binary(self.op, a, b)
        if _memo is not None:
            _memo[key] = value
        return value

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


_SET_BIN_OP, _SET_BIN_LEFT, _SET_BIN_RIGHT = _setters(BinExpr)


class UnExpr(_Node):
    """A unary operation: ``neg``, ``not`` or ``lnot``."""

    _fields = __slots__ = ("op", "operand")

    op: str
    operand: "Expression"

    def __init__(self, op: str, operand: "Expression") -> None:
        _SET_UN_OP(self, op)
        _SET_UN_OPERAND(self, operand)
        _SET_DEPTH(self, 1 + operand._depth)
        _SET_SYMBOLS(self, operand._symbols)

    def evaluate(self, assignment: Dict[str, int], _memo: Optional[dict] = None) -> int:
        if _memo is None and self._depth > _MEMO_DEPTH:
            _memo = {}
        if _memo is not None:
            key = id(self)
            cached = _memo.get(key)
            if cached is not None:
                return cached
        value = apply_unary(self.op, self.operand.evaluate(assignment, _memo) & _MASK64)
        if _memo is not None:
            _memo[key] = value
        return value

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


_SET_UN_OP, _SET_UN_OPERAND = _setters(UnExpr)


class SelectExpr(_Node):
    """A symbolic-index read over a memory snapshot (theory-of-arrays style).

    Used by the page memory model (§VII-C3): the snapshot captures the bytes
    of the page the concrete address fell in, and the index expression selects
    within it.
    """

    _fields = __slots__ = ("base_address", "snapshot", "index", "size")

    base_address: int
    snapshot: Tuple[int, ...]
    index: "Expression"
    size: int

    def __init__(self, base_address: int, snapshot: Tuple[int, ...],
                 index: "Expression", size: int = 1) -> None:
        _SET_SELECT_BASE(self, base_address)
        _SET_SELECT_SNAPSHOT(self, snapshot)
        _SET_SELECT_INDEX(self, index)
        _SET_SELECT_SIZE(self, size)
        _SET_DEPTH(self, 1 + index._depth)
        _SET_SYMBOLS(self, index._symbols)

    def evaluate(self, assignment: Dict[str, int], _memo: Optional[dict] = None) -> int:
        offset = (self.index.evaluate(assignment, _memo) - self.base_address) & _MASK64
        if offset + self.size > len(self.snapshot):
            return 0
        value = 0
        for i in range(self.size):
            value |= self.snapshot[offset + i] << (8 * i)
        return value

    def __str__(self) -> str:
        return f"select[{self.base_address:#x}+{len(self.snapshot)}]({self.index})"


_SET_SELECT_BASE, _SET_SELECT_SNAPSHOT, _SET_SELECT_INDEX, _SET_SELECT_SIZE = \
    _setters(SelectExpr)


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
            result = ConstExpr(apply_binary(expression.op, left.value & _MASK64,
                                            right.value & _MASK64))
        elif expression.op in ("add", "or", "xor") and isinstance(right, ConstExpr) and right.value == 0:
            result = left
        elif expression.op == "mul" and isinstance(right, ConstExpr) and right.value == 1:
            result = left
        elif left is not expression.left or right is not expression.right:
            result = BinExpr(expression.op, left, right)
    elif isinstance(expression, UnExpr):
        operand = simplify(expression.operand, _memo)
        if isinstance(operand, ConstExpr):
            result = ConstExpr(apply_unary(expression.op, operand.value & _MASK64))
        elif operand is not expression.operand:
            result = UnExpr(expression.op, operand)
    _memo[id(expression)] = result
    return result
