"""Pinned serializations of the constructed machines.

Each digest is the SHA-256 of ``serialize_machine`` output, so it pins
every state name, symbol name and transition of a construction, in order.
A digest should change only with a deliberate change to its construction.
"""

import hashlib
from functools import cache

import pytest

from iufst import (
    MachineFile,
    ResourceBudgetError,
    build_lf,
    combine_add,
    combine_mul,
    compile_lba,
    dfa_minimize,
    expo_constructor,
    gen_block,
    gen_block_nfa,
    gen_d,
    gen_e,
    gen_unary,
    identity_constructor,
    lba_copy,
    nfa_to_dfa,
    serialize_machine,
    sweep_reduce,
    to_nfa,
)

CTORS = {"id": identity_constructor, "expo": expo_constructor}


def _combined(op, left, right):
    return lambda: op(CTORS[left](("x",)), CTORS[right](("y",))).machine


MACHINES = {
    "gen_d": gen_d,
    "gen_block(2)": lambda: gen_block(2),
    "gen_block(3)": lambda: gen_block(3),
    **{
        f"{op.__name__}({left}[x],{right}[y])": _combined(op, left, right)
        for op in (combine_add, combine_mul)
        for left in CTORS
        for right in CTORS
    },
    "build_lf(id[x])": lambda: build_lf(identity_constructor(("x",))),
    "build_lf(expo[x])": lambda: build_lf(expo_constructor(("x",))),
    "sweep_reduce(e(2,3),3,3)": lambda: sweep_reduce(gen_e(2, 3), 3, 3),
    "sweep_reduce(e(3,4),4,4)": lambda: sweep_reduce(gen_e(3, 4), 4, 4),
    "sweep_reduce(block(2),2,2)": lambda: sweep_reduce(gen_block(2), 2, 2),
    "sweep_reduce(block(3),3,3)": lambda: sweep_reduce(gen_block(3), 3, 3),
    "compile_lba(lba_copy())": lambda: compile_lba(lba_copy()),
}

DIGESTS = {
    "build_lf(expo[x])": "4eca3e3f152c1834f9fc4de24bf0d320fedfe69d58fb44c3f66665e8828a751b",
    "build_lf(id[x])": "4122c5e8d0f83d8d98fb836035f91c629e508cd7f8cccb3ed81c25e789279f0d",
    "combine_add(expo[x],expo[y])": "e8118d01d377c1a4a0158c45bc3ebadff1f0fd0bbd05b6596eec547c24997827",
    "combine_add(expo[x],id[y])": "ecb6fd7956b9463ae18f61a6fa6d745391bfee08007ef171c33862b8da2feea1",
    "combine_add(id[x],expo[y])": "1592c17ea5204d7395eec0b08ff1bd0d7eda88981471e226de098c8948408553",
    "combine_add(id[x],id[y])": "4456063ae028f4e300e3b08c68f0c5f297f026148774510e0860abe65e9fbf2c",
    "combine_mul(expo[x],expo[y])": "71fd78f699ffbf72decc8d5e788cdcda9cda2b201d7b6fcad5f1ee7a725b8100",
    "combine_mul(expo[x],id[y])": "73985e9a347a49ce87bd150fa8371972aa2e227c1022a80db704169d7523f0b4",
    "combine_mul(id[x],expo[y])": "09888a9aa6ed1599062172ab3735622d17431c92d8b2086f2118096aa3d00708",
    "combine_mul(id[x],id[y])": "07ff76de161e6d3f43ad32092df4b2112d0e32f5982e81a7b71a470fc64e74ab",
    "compile_lba(lba_copy())": "27cf06d47f0919124f0ace9ba64b5ebeee0f6bf0d57b9ca6c92a8171e7957727",
    "gen_block(2)": "d5546864431490cb4d930f5d6d4e08c1fa1eb51eff50381b217e4e12fc3e74d2",
    "gen_block(3)": "9c083674c92a203d5e9324fdcaeb55e5b9a1fc691e7afe234f8e73646b02fe5c",
    "gen_d": "f889c61259f746dad0753bccec4dcbb1b2e6193c5677cf6504ee8ed33a1fb82f",
    "sweep_reduce(block(2),2,2)": "0b4f5a9d488ee67bfa1fcf099e61ee032636ce001b51acbd355ab0ff0414259a",
    "sweep_reduce(block(3),3,3)": "050dd08316388f9102400593a6b14c5244fa03d56215cfe361545fb2fb349bd0",
    "sweep_reduce(e(2,3),3,3)": "dda771bd62d6e0b9b6b5e412699787b24ef6b8c44b8e5d0d140a9ad8a4a425ee",
    "sweep_reduce(e(3,4),4,4)": "6791bb24aa29970df7172b4f4dded267fec6791753b08049aa02680ac50c9210",
}


def digest(machine):
    kind = "iufst" if machine.is_deterministic else "niufst"
    text = serialize_machine(MachineFile(kind, machine))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_serialization_pinned(name):
    assert digest(MACHINES[name]()) == DIGESTS[name]


# Powerset and minimal DFAs: subset names list NFA states in declaration
# order, minimal states are m0, m1, ... in breadth-first order.
NFAS = {
    "to_nfa(block(3),3)": lambda: to_nfa(gen_block(3), 3),
    "block_nfa(3)": lambda: gen_block_nfa(3),
    "to_nfa(unary(2,3),3)": lambda: to_nfa(gen_unary(2, 3), 3),
    "to_nfa(e(2,3),3)": lambda: to_nfa(gen_e(2, 3), 3),
}

DFA_DIGESTS = {
    "to_nfa(block(3),3)": (
        "c524a51ea14ca3d073758eb9ae28035511a627747bbe1bc8eb53af9c25628fb2",
        "de9813f34e6d545d5814e51dc51cc9fc761ca3ff847126aed881ffb48eae6021",
    ),
    "block_nfa(3)": (
        "f747434e62ad6f24fc7d7ff3e83121dbb4743ebe327379e288e8e13eda85e798",
        "de9813f34e6d545d5814e51dc51cc9fc761ca3ff847126aed881ffb48eae6021",
    ),
    "to_nfa(unary(2,3),3)": (
        "927bc5d29a285fb2cfe677f07db5606fd52d8e98f59002e06a1aa236c4c2d7b2",
        "17d9c3339d964c1f84ed32fa91853f3d94c90c5e5657d9fde8456275f8058860",
    ),
    "to_nfa(e(2,3),3)": (
        "b88b61b54855f5ec639f47baac99e967dec82409d1f718e98850ab28c30ef4ee",
        "3f3a36dfc1be82c292ec9bc50aad9008f25a2e029c3276132149e185231ac7fe",
    ),
}


@cache
def _nfa(name):
    return NFAS[name]()


def dfa_digest(dfa):
    text = serialize_machine(MachineFile("dfa", dfa))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(NFAS))
def test_dfa_serialization_pinned(name):
    powerset = nfa_to_dfa(_nfa(name))
    assert (dfa_digest(powerset), dfa_digest(dfa_minimize(powerset))) == DFA_DIGESTS[name]


def test_state_cap_counts_discovered_subsets():
    nfa = _nfa("to_nfa(block(3),3)")
    assert len(nfa_to_dfa(nfa, state_cap=4201).states) == 4201
    with pytest.raises(ResourceBudgetError) as err:
        nfa_to_dfa(nfa, state_cap=4200)
    assert str(err.value) == "powerset construction exceeded 4200 states"
