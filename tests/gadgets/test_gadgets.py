"""Tests for gadget discovery, classification and the diversified pool."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.binary import BinaryImage
from repro.gadgets import GadgetPool, classify_gadget, find_gadgets
from repro.gadgets.finder import find_gadgets_in_image
from repro.gadgets.kinds import KINDS, Hole
from repro.gadgets.pool import GadgetPoolError
from repro.isa import Mem, Reg, assemble
from repro.isa.instructions import CONDITION_CODES, Mnemonic, make
from repro.isa.registers import Register


def _image_with(instructions):
    image = BinaryImage()
    code, _ = assemble(instructions, base_address=image.text.address)
    image.text.append(code)
    return image


def test_finder_locates_intended_gadgets():
    image = _image_with([
        make("pop", Reg(Register.RDI)), make("ret"),
        make("mov", Reg(Register.RAX), Reg(Register.RBX)), make("ret"),
    ])
    gadgets = find_gadgets_in_image(image)
    texts = {g.text() for g in gadgets}
    assert any("pop rdi" in t for t in texts)
    assert any("mov rax, rbx" in t for t in texts)


def test_finder_reports_pops_and_clobbers():
    gadgets = find_gadgets(assemble([make("pop", Reg(Register.RSI)),
                                     make("pop", Reg(Register.RBP)),
                                     make("ret")])[0])
    full = [g for g in gadgets if len(g.pops) == 2]
    assert full and full[0].pops == (Register.RSI, Register.RBP)
    assert Register.RSI in full[0].clobbers


def test_classifier_recognizes_core_kinds():
    cases = {
        ("pop", (Reg(Register.RDI),)): ("pop", {"dst": Register.RDI}),
        ("add", (Reg(Register.RSP), Reg(Register.RSI))): ("add_rsp_r", {"src": Register.RSI}),
        ("neg", (Reg(Register.RCX),)): ("neg", {"dst": Register.RCX}),
        ("mov", (Reg(Register.RAX), Mem(base=Register.RBX))): ("load8", {"dst": Register.RAX, "src": Register.RBX}),
        ("mov", (Mem(base=Register.RBX), Reg(Register.RAX))): ("store8", {"dst": Register.RBX, "src": Register.RAX}),
    }
    for (name, operands), expected in cases.items():
        gadgets = find_gadgets(assemble([make(name, *operands), make("ret")])[0])
        classified = [classify_gadget(g) for g in gadgets if g.length == 2]
        assert expected in classified


def test_pool_synthesizes_missing_gadgets_as_dead_code():
    image = BinaryImage()
    image.text.append(b"")
    pool = GadgetPool(image, seed=1)
    before = image.text.size
    gadget = pool.ensure("pop", dst=Register.R12)
    assert gadget.kind == "pop"
    assert image.text.size > before
    # the synthesized gadget is discoverable by scanning .text afterwards
    assert any(g.address == gadget.address for g in find_gadgets_in_image(image))


def test_pool_respects_avoid_sets():
    image = BinaryImage()
    image.text.append(b"")
    pool = GadgetPool(image, seed=3, diversify=True)
    avoid = frozenset({Register.RBX, Register.R12, Register.R13, Register.R14, Register.R15})
    for _ in range(12):
        gadget = pool.ensure("mov_rr", avoid=avoid, dst=Register.RAX, src=Register.RCX)
        assert not (gadget.clobbers - {Register.RAX}) & avoid


def test_pool_diversification_produces_multiple_variants():
    image = BinaryImage()
    image.text.append(b"")
    pool = GadgetPool(image, seed=5, diversify=True)
    addresses = set()
    for seed in range(10):
        pool.random.seed(seed)
        addresses.add(pool._synthesize(KINDS["pop"], {"dst": Register.RDI}, frozenset()).address)
    assert len(addresses) >= 2


def test_pool_rejects_unknown_kind():
    image = BinaryImage()
    image.text.append(b"")
    pool = GadgetPool(image)
    with pytest.raises(GadgetPoolError):
        pool.ensure("teleport", dst=Register.RAX)


@settings(max_examples=30, deadline=None)
@given(data=st.binary(min_size=0, max_size=200))
def test_finder_never_crashes_on_arbitrary_bytes(data):
    for gadget in find_gadgets(data, base_address=0x400000):
        assert gadget.instructions[-1].name in ("ret",)
        assert 0x400000 <= gadget.address < 0x400000 + len(data)


@pytest.mark.parametrize("instruction", [
    make("mov", Reg(Register.RAX, 1), Mem(base=Register.RBX, size=1)),  # merges, not movzx
    make("mov", Reg(Register.RAX, 4), Mem(base=Register.RBX, size=4)),
    make("add", Reg(Register.RAX, 4), Reg(Register.RBX, 4)),
    make("neg", Reg(Register.RCX, 4)),
    make("cmove", Reg(Register.RAX, 4), Reg(Register.RBX, 4)),
    make("mov", Reg(Register.RAX), Reg(Register.RBX, 4)),
], ids=str)
def test_classifier_rejects_sub_64_bit_lookalikes(instruction):
    gadget = next(g for g in find_gadgets(assemble([instruction, make("ret")])[0])
                  if g.address == 0)
    assert gadget.length == 2
    assert classify_gadget(gadget) is None


#: registers the kind contract samples from (rsp is the redirecting kinds'
#: own operand, so an ``add_rr`` with dst=rsp reads back as ``add_rsp_r``)
_SAMPLED_REGISTERS = [r for r in Register if r is not Register.RSP]


def _sample_params(kind, rng):
    params = {}
    for mnemonic, operands in kind.body:
        if mnemonic in (Mnemonic.CMOV, Mnemonic.SET):
            params["cc"] = rng.choice(CONDITION_CODES)
        for operand in operands:
            if isinstance(operand, Hole) and operand.param not in params:
                params[operand.param] = (rng.randrange(0x600000, 0x700000, 8)
                                         if operand.form in ("abs", "imm")
                                         else rng.choice(_SAMPLED_REGISTERS))
    return params


@pytest.mark.parametrize("name", list(KINDS))
def test_every_kind_classifies_back_from_its_template(name):
    rng = random.Random(name)
    for _ in range(8):
        params = _sample_params(KINDS[name], rng)
        image = BinaryImage()
        image.text.append(b"")
        gadget = GadgetPool(image, diversify=False).ensure(name, **params)
        assert classify_gadget(gadget) == (name, params)
        if KINDS[name].returns:
            # the encoded bytes decode back to the same kind, as reuse sees them
            found = next(g for g in find_gadgets_in_image(image) if g.address == gadget.address
                         and g.length == gadget.length)
            assert classify_gadget(found) == (name, params)


@pytest.mark.parametrize("name", [n for n, k in KINDS.items() if not k.redirects_rsp])
def test_diversified_variants_classify_as_no_kind(name):
    rng = random.Random(name)
    params = _sample_params(KINDS[name], rng)
    image = BinaryImage()
    image.text.append(b"")
    pool = GadgetPool(image, seed=1, diversify=True)
    variants = 0
    for seed in range(16):
        pool.random.seed(seed)
        gadget = pool._synthesize(KINDS[name], params, frozenset())
        if gadget.length > len(KINDS[name].instructions(params)):
            variants += 1
            assert classify_gadget(gadget) is None
        else:
            assert classify_gadget(gadget) == (name, params)
    assert variants
