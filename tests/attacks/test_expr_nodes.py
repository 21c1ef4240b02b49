"""The expression node contract.

Nodes compute ``depth``/``symbols`` once, at construction, from their
children's stored values; these tests recompute both from scratch over
random DAGs.  They also pin the frozen-dataclass behaviour callers rely on:
structural ``==``/``hash`` over the field tuple, a dataclass-style ``repr``,
and read-only fields.
"""

import copy
import pickle
import random
from collections import Counter

import pytest

from repro.attacks.solver.expr import (
    _MEMO_DEPTH,
    BINARY_OPERATORS,
    BinExpr,
    ConstExpr,
    SelectExpr,
    SymExpr,
    UnExpr,
    simplify,
)

_SNAPSHOT = tuple(range(16))


def _samples():
    a = SymExpr("a", 1)
    return [a, ConstExpr(7), BinExpr("add", a, ConstExpr(1)), UnExpr("neg", a),
            SelectExpr(0x1000, _SNAPSHOT, a, 2)]


def _random_dag(rng: random.Random, nodes: int):
    """A DAG whose nodes mostly take recent nodes as children, so it grows
    deep while sharing subtrees."""
    pool = [SymExpr("a", 1), SymExpr("b", 2), SymExpr("c"), ConstExpr(0), ConstExpr(3)]
    for _ in range(nodes):
        def pick():
            return pool[max(0, len(pool) - 1 - int(rng.expovariate(0.5)))]
        kind = rng.random()
        if kind < 0.6:
            pool.append(BinExpr(rng.choice(BINARY_OPERATORS), pick(), pick()))
        elif kind < 0.8:
            pool.append(UnExpr(rng.choice(("neg", "not", "lnot")), pick()))
        elif kind < 0.9:
            pool.append(SelectExpr(0x1000, _SNAPSHOT, pick(), rng.choice((1, 2))))
        else:
            pool.append(ConstExpr(rng.randrange(1 << 64)))
    return pool


def _children(node):
    if isinstance(node, BinExpr):
        return (node.left, node.right)
    if isinstance(node, UnExpr):
        return (node.operand,)
    if isinstance(node, SelectExpr):
        return (node.index,)
    return ()


def _recomputed(node, memo):
    """``(depth, symbols)`` of ``node`` without reading any stored value."""
    key = id(node)
    if key not in memo:
        children = [_recomputed(child, memo) for child in _children(node)]
        symbols = {node.name} if isinstance(node, SymExpr) else set()
        for _, child_symbols in children:
            symbols |= child_symbols
        memo[key] = (1 + max((depth for depth, _ in children), default=0), symbols)
    return memo[key]


@pytest.mark.parametrize("seed", range(8))
def test_stored_depth_and_symbols_match_a_recomputation(seed):
    pool = _random_dag(random.Random(seed), 300)
    memo = {}
    for node in pool:
        depth, symbols = _recomputed(node, memo)
        assert node.depth() == depth
        assert node.symbols() == symbols
        assert isinstance(node.symbols(), frozenset)
    assert max(node.depth() for node in pool) > _MEMO_DEPTH
    uses = Counter(id(child) for node in pool for child in _children(node))
    assert sum(count > 1 for count in uses.values()) > 10  # shared subtrees


def test_symbol_sets_are_reused_when_a_child_adds_nothing():
    a = SymExpr("a", 1)
    assert BinExpr("add", a, ConstExpr(1)).symbols() is a.symbols()
    assert BinExpr("add", ConstExpr(1), a).symbols() is a.symbols()
    assert UnExpr("not", a).symbols() is a.symbols()
    assert ConstExpr(1).symbols() is ConstExpr(2).symbols()
    assert BinExpr("xor", a, SymExpr("b")).symbols() == {"a", "b"}


def test_long_chain_built_bottom_up_has_its_depth_and_symbols():
    node = SymExpr("a")
    for index in range(5000):
        node = BinExpr("add", node, ConstExpr(index))
    assert node.depth() == 5001
    assert node.symbols() == {"a"}


def test_equality_and_hash_follow_the_field_tuple():
    for node, twin in zip(_samples(), _samples()):
        assert node is not twin
        assert node == twin and not node != twin
        fields = tuple(getattr(node, name) for name in node._fields)
        assert hash(node) == hash(twin) == hash(fields)
    a = SymExpr("a", 1)
    assert SymExpr("a", 2) != a
    assert BinExpr("add", a, ConstExpr(1)) != BinExpr("sub", a, ConstExpr(1))
    assert a.__eq__(ConstExpr(1)) is NotImplemented
    assert a.__eq__(("a", 1)) is NotImplemented
    assert a != ("a", 1)


def test_repr_is_dataclass_style():
    node = BinExpr("add", SymExpr("a", 1), ConstExpr(2))
    assert repr(node) == ("BinExpr(op='add', left=SymExpr(name='a', size=1), "
                          "right=ConstExpr(value=2))")
    assert repr(UnExpr("neg", ConstExpr(1))) == "UnExpr(op='neg', operand=ConstExpr(value=1))"


@pytest.mark.parametrize("index", range(len(_samples())))
def test_fields_are_read_only(index):
    node, twin = _samples()[index], _samples()[index]
    for name in node._fields + ("_depth", "_symbols", "unknown"):
        with pytest.raises(AttributeError):
            setattr(node, name, 0)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert node == twin and node.depth() == twin.depth()


@pytest.mark.parametrize("node", _samples(), ids=lambda node: type(node).__name__)
def test_copy_and_pickle_rebuild_an_equal_node(node):
    for rebuilt in (copy.copy(node), copy.deepcopy(node),
                    pickle.loads(pickle.dumps(node))):
        assert rebuilt == node
        assert rebuilt.depth() == node.depth()
        assert rebuilt.symbols() == node.symbols()


def test_constant_folding_matches_evaluation():
    rng = random.Random(0)
    values = (0, 1, 63, -1, 1 << 64, (1 << 63) + 5)
    for op in BINARY_OPERATORS:
        for _ in range(20):
            a = ConstExpr(rng.choice(values + (rng.randrange(1 << 64),)))
            b = ConstExpr(rng.choice(values + (rng.randrange(1 << 64),)))
            assert simplify(BinExpr(op, a, b)) == ConstExpr(BinExpr(op, a, b).evaluate({}))
    for op in ("neg", "not", "lnot"):
        for value in values:
            node = UnExpr(op, ConstExpr(value))
            assert simplify(node) == ConstExpr(node.evaluate({}))
