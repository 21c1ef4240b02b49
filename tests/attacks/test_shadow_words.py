"""The memory shadow's word index against a brute-force scan.

:class:`ShadowTracker` finds the ``memory_exprs`` entries over an access
through ``_words`` (8-byte word -> the keys with a byte in it).  Random
store, symbol and drop sequences over unaligned addresses and every access
width check each query built on it, and the compiled guards' inline word
probe, against a scan of ``memory_exprs``, in a tracker and its forks.
"""

from hypothesis import given, settings, strategies as st

from repro.attacks.shadow import ShadowTracker, _unshadowed, specialize
from repro.attacks.solver.expr import SymExpr
from repro.isa import Mem, Reg
from repro.isa.instructions import make
from repro.isa.registers import Register

_BASE = 0x600000
_SIZES = (1, 2, 4, 8)
_OFFSETS = st.integers(0, 32)
#: Every access a check probes: each width at each offset over the window
#: the entries fall in, and a little past it.
_PROBES = [(offset, size) for offset in range(-8, 48) for size in _SIZES]

#: (operation, offset, size): ``store`` a symbol or a concrete value
#: through the store path, set a ``symbol`` (no overlap handling), or
#: ``drop`` an exact key; ``fork`` continues on a fork of the tracker.
_STEPS = st.lists(st.tuples(
    st.sampled_from(("store", "store_concrete", "symbol", "drop", "fork")),
    _OFFSETS, st.sampled_from(_SIZES)), max_size=30)


def _scan(tracker, address, size):
    return {(start, width) for start, width in tracker.memory_exprs
            if start < address + size and address < start + width}


def _words_of(tracker):
    words = {}
    for start, width in tracker.memory_exprs:
        for word in range(start >> 3, ((start + width - 1) >> 3) + 1):
            words.setdefault(word, set()).add((start, width))
    return words


#: width -> (compiled guard, constants) of ``mov rax, [r15]``
_GUARDS = {}


def _guard_holds(tracker, address, size):
    """The inline guard of ``mov rax, [r15]`` at ``r15 = address``."""
    if size not in _GUARDS:
        fast = specialize(make("mov", Reg(Register.RAX),
                               Mem(base=Register.R15, size=size))).fast
        _GUARDS[size] = (compile(fast.guard, "<guard>", "eval"),
                         dict(fast.constants))
    code, constants = _GUARDS[size]
    return eval(code, dict(constants, _O=tracker,
                           _R={Register.R15: address}))


def _check(tracker):
    assert {word: set(keys) for word, keys in tracker._words.items()} \
        == _words_of(tracker)
    for offset, size in _PROBES:
        address = _BASE + offset
        expected = _scan(tracker, address, size)
        assert set(tracker._entries_over(address, size)) == expected
        assert set(tracker._overlapping_memory(address, size)) \
            == expected - {(address, size)}
        assert _unshadowed(tracker, address, size) == (not expected)
        assert _guard_holds(tracker, address, size) == (not expected)


@settings(max_examples=200, deadline=None)
@given(steps=_STEPS)
def test_word_index_matches_a_scan(steps):
    tracker = ShadowTracker()
    forks = []
    for number, (operation, offset, size) in enumerate(steps):
        address = _BASE + offset
        if operation == "store":
            tracker.store(address, size, SymExpr(f"s{number}"), False)
        elif operation == "store_concrete":
            tracker.store(address, size, None, False)
        elif operation == "symbol":
            tracker.set_memory_symbol(address, size, SymExpr(f"s{number}"))
        elif operation == "drop":
            tracker._set_memory_expr((address, size), None)
        else:
            _check(tracker)
            forks.append((tracker, dict(tracker.memory_exprs)))
            tracker = tracker.fork()
        if operation.startswith("store"):
            # a store leaves no other entry over its bytes
            assert _scan(tracker, address, size) <= {(address, size)}
    _check(tracker)
    for forked, entries in forks:
        # a fork's later changes leave the tracker it was forked from alone
        assert forked.memory_exprs == entries
        _check(forked)
