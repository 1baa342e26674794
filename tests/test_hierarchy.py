"""Constructors, closure combinators, and the prefix-copy language."""

import functools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iufst import (
    MachineError,
    build_lf,
    combine_add,
    combine_mul,
    compare_languages,
    expo_constructor,
    identity_constructor,
    in_lf,
    measure_sweep_growth,
    run,
    run_deterministic,
)


def shape_pred(ctor):
    """Membership in {a^m v : |v| = f(m), m >= 1} for a constructor."""

    def pred(w):
        m = next((i for i, s in enumerate(w) if s != "a"), len(w))
        if m < 1:
            return False
        rest = w[m:]
        if any(s not in ctor.payload_alphabet for s in rest):
            return False
        return len(rest) == ctor.fn(m)

    return pred


class TestPrimitiveConstructors:
    def test_identity_examples(self):
        c = identity_constructor(("x", "y"))
        assert run(c.machine, ("a", "a", "x", "y"), 6, 1000).accepted
        assert not run(c.machine, ("a", "a", "x"), 6, 1000).accepted
        assert not run(c.machine, ("x", "x"), 6, 1000).accepted  # m >= 1

    def test_expo_examples(self):
        c = expo_constructor(("x",))
        assert run(c.machine, ("a", "a") + ("x",) * 4, 8, 1000).accepted
        assert not run(c.machine, ("a", "a") + ("x",) * 3, 8, 1000).accepted

    @pytest.mark.parametrize("maker", [identity_constructor, expo_constructor])
    def test_totality_and_containment(self, maker):
        c = maker(("x",))
        for m in range(1, 7):
            w = ("a",) * m + ("x",) * c.fn(m)
            report, _ = run_deterministic(c.machine, w, 2 * m + 6)
            assert report.accepted, (maker, m)
        assert compare_languages(c.machine, shape_pred(c), ("a", "x"), 8) == []

    def test_constructors_deterministic(self):
        assert identity_constructor(("x",)).machine.is_deterministic
        assert expo_constructor(("x",)).machine.is_deterministic

    def test_re_accepting_stability(self):
        # combinators rely on components re-accepting after acceptance
        for maker, m in [(identity_constructor, 3), (expo_constructor, 2)]:
            c = maker(("x",))
            w = ("a",) * m + ("x",) * c.fn(m)
            report, trace = run_deterministic(c.machine, w, 20)
            assert report.accepted
            from iufst import sweep, Completed

            tape = trace[-1]
            for _ in range(3):
                outs = sweep(c.machine, tape)
                assert len(outs) == 1
                out = next(iter(outs))
                assert isinstance(out, Completed)
                assert out.state in c.machine.accepting_set
                tape = out.output

    @pytest.mark.parametrize("maker", [identity_constructor, expo_constructor])
    def test_payload_named_like_a_marked_copy(self, maker):
        # x's marked copy is primed past the payload symbol x'
        c = maker(("x", "x'"))
        for m in (1, 2, 3):
            w = ("a",) * m + tuple(("x", "x'")[i % 2] for i in range(c.fn(m)))
            assert run(c.machine, w, m + 2, 1000).accepted, w
            assert not run(c.machine, w[:-1], m + 2, 1000).accepted, w

    def test_alphabet_clash_rejected(self):
        with pytest.raises(MachineError):
            identity_constructor(("a",))
        with pytest.raises(MachineError):  # "-" blanks a track
            identity_constructor(("-",))
        with pytest.raises(MachineError):
            combine_add(identity_constructor(("x",)), identity_constructor(("x",)))

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda c: replace(c, payload_alphabet=("y",)), "payload symbol 'y' unknown to the machine"),
            (lambda c: replace(c, payload_alphabet=()), "payload alphabet must be non-empty"),
            # a second choice on (q0, a) makes the machine nondeterministic
            (lambda c: combine_add(replace(c, machine=replace(c.machine, transitions={
                **c.machine.transitions, ("q0", "a"): (("Ma", "a'"), ("q0", "a'"))})),
                identity_constructor(("y",))), "constructors must be deterministic"),
        ],
        ids=["unknown-payload", "empty-payload", "nondeterministic"],
    )
    def test_messages(self, call, message):
        with pytest.raises(MachineError) as err:
            call(identity_constructor(("x",)))
        assert type(err.value) is MachineError and str(err.value) == message


def add_pred(cf, cg):
    def pred(w):
        m = next((i for i, s in enumerate(w) if s != "a"), len(w))
        if m < 1:
            return False
        rest = w[m:]
        nf = cf.fn(m)
        vf, vg = rest[:nf], rest[nf:]
        return (
            all(s in cf.payload_alphabet for s in vf)
            and all(s in cg.payload_alphabet for s in vg)
            and len(vf) == nf
            and len(vg) == cg.fn(m)
        )

    return pred


def mul_pred(cf, cg):
    def pred(w):
        m = next((i for i, s in enumerate(w) if s != "a"), len(w))
        if m < 1:
            return False
        rest = list(w[m:])
        factors = []
        i = 0
        while i < len(rest):
            if rest[i] not in cg.payload_alphabet:
                return False
            i += 1
            v = 0
            while i < len(rest) and rest[i] in cf.payload_alphabet:
                v += 1
                i += 1
            factors.append(v)
        return len(factors) == cg.fn(m) and all(v == cf.fn(m) for v in factors)

    return pred


class TestCombinators:
    def test_add_id_id(self):
        c = combine_add(identity_constructor(("x",)), identity_constructor(("y",)))
        assert c.fn(3) == 6
        assert run(c.machine, ("a", "a", "x", "x", "y", "y"), 10, 1000).accepted
        assert not run(c.machine, ("a", "a", "x", "x", "y"), 10, 1000).accepted
        assert c.machine.is_deterministic
        assert compare_languages(c.machine, add_pred(
            identity_constructor(("x",)), identity_constructor(("y",))
        ), ("a", "x", "y"), 7) == []

    def test_add_totality(self):
        pairs = [
            (identity_constructor(("x",)), identity_constructor(("y",))),
            (identity_constructor(("x",)), expo_constructor(("y",))),
            (expo_constructor(("x",)), identity_constructor(("y",))),
            (expo_constructor(("x",)), expo_constructor(("y",))),
        ]
        for cf, cg in pairs:
            c = combine_add(cf, cg)
            for m in range(1, 6):
                w = ("a",) * m + cf.payload_alphabet * 0 + (
                    cf.payload_alphabet[0],
                ) * cf.fn(m) + (cg.payload_alphabet[0],) * cg.fn(m)
                report, _ = run_deterministic(c.machine, w, 2 * m + 8)
                assert report.accepted, (c.name, m)

    def test_mul_id_id(self):
        c = combine_mul(identity_constructor(("x",)), identity_constructor(("y",)))
        assert c.fn(2) == 4
        w = ("a", "a", "y", "x", "x", "y", "x", "x")
        assert run(c.machine, w, 12, 2000).accepted
        w_short = ("a", "a", "y", "x", "x", "y", "x")
        assert not run(c.machine, w_short, 12, 2000).accepted
        assert compare_languages(c.machine, mul_pred(
            identity_constructor(("x",)), identity_constructor(("y",))
        ), ("a", "x", "y"), 8) == []

    def test_mul_totality(self):
        cf = identity_constructor(("x",))
        cg = identity_constructor(("y",))
        c = combine_mul(cf, cg)
        for m in range(1, 5):
            w = ("a",) * m + (("y",) + ("x",) * m) * m
            report, _ = run_deterministic(c.machine, w, 3 * m + 8)
            assert report.accepted, m

    def test_mul_expo_factor(self):
        c = combine_mul(expo_constructor(("x",)), identity_constructor(("y",)))
        m = 2
        w = ("a",) * m + (("y",) + ("x",) * 4) * m
        assert run(c.machine, w, 16, 4000).accepted
        bad = ("a",) * m + ("y",) + ("x",) * 4 + ("y",) + ("x",) * 3
        assert not run(c.machine, bad, 16, 4000).accepted

    def test_combined_sweeps_linearish(self):
        c = combine_add(identity_constructor(("x",)), identity_constructor(("y",)))
        rows = measure_sweep_growth(
            c.machine,
            lambda m: ("a",) * m + ("x",) * m + ("y",) * m,
            range(1, 7),
        )
        sweeps = [s for _p, _l, s in rows]
        assert all(s is not None for s in sweeps)
        assert all(b >= a for a, b in zip(sweeps, sweeps[1:]))  # monotone
        assert all(s <= 2 * p + 4 for (p, _l, s) in rows)


@pytest.fixture(scope="module")
def lf():
    return build_lf(expo_constructor(("x",)))


class TestBuildLf:

    def test_accepts_definition_members(self, lf):
        cex = expo_constructor(("x",))
        for u in [(), ("a",), ("b", "a"), ("a", "b", "b")]:
            m = 2 * len(u) + 1
            w = u + ("$",) + u + ("x",) * (2**m)
            assert in_lf(cex.fn, ("x",), w)
            report, _ = run_deterministic(lf, w, len(w) + 8)
            assert report.accepted, u

    def test_rejects_bad_copy(self, lf):
        w = ("a", "b", "$", "b", "a") + ("x",) * 32
        report, _ = run_deterministic(lf, w, 60)
        assert not report.accepted

    def test_rejects_bad_payload_length(self, lf):
        w = ("a", "b", "$", "a", "b") + ("x",) * 31
        report, _ = run_deterministic(lf, w, 60)
        assert not report.accepted

    def test_full_enumeration(self, lf):
        cex = expo_constructor(("x",))
        assert compare_languages(
            lf, lambda w: in_lf(cex.fn, ("x",), w), ("a", "b", "$", "x"), 8
        ) == []


class TestMeasure:
    def test_uexpo_growth(self, uexpo_machine):
        rows = measure_sweep_growth(uexpo_machine, lambda j: ("a",) * (2**j), range(1, 7))
        sweeps = [s for _p, _l, s in rows]
        assert sweeps == [1, 2, 3, 4, 5, 6]  # one more sweep per doubling

    def test_copy_growth(self, copy_machine):
        def word(j):
            u = tuple("ab"[i % 2] for i in range(j))
            return u + ("$",) + u

        rows = measure_sweep_growth(copy_machine, word, range(1, 7))
        sweeps = [s for _p, _l, s in rows]
        assert sweeps == [2, 3, 4, 5, 6, 7]  # one more sweep per symbol of u

    def test_identity_linear_growth(self):
        c = identity_constructor(("x",))
        rows = measure_sweep_growth(
            c.machine, lambda m: ("a",) * m + ("x",) * m, range(1, 8)
        )
        sweeps = [s for _p, _l, s in rows]
        assert sweeps == [m + 1 for m in range(1, 8)]

    def test_holes_reported(self, uexpo_machine):
        rows = measure_sweep_growth(uexpo_machine, lambda j: ("a",) * (2**j + 1), range(1, 4))
        assert all(s is None for _p, _l, s in rows)


class TestPayloadEncoding:
    @pytest.mark.parametrize("sym", ["x|", "x!", "[x", "x]"])
    def test_track_characters_accepted(self, sym):
        # two-track symbols are tuples rendered once, so a payload symbol
        # holding a rendering character is never split
        c = combine_add(identity_constructor((sym,)), identity_constructor(("y",)))
        w = ("a", "a", sym, sym, "y", "y")
        assert run(c.machine, w, 10, 1000).accepted
        assert not run(c.machine, w[:-1], 10, 1000).accepted

    @pytest.mark.parametrize(
        "op,f_payload,g_payload,member",
        [
            # ("|", "p", "q|r") and ("|", "p|q", "r") would both read [p|q|r] unescaped
            ("add", ("p", "p|q"), ("r", "q|r"), ("a", "a", "p", "p|q", "q|r", "r")),
            ("add", ("x", "x|"), ("|-",), ("a", "a", "x|", "x", "|-", "|-")),
            # ("|", "a|b", "c") and ("!", "a", "b!c") would both read [a|b!c]
            ("mul", ("a|b",), ("c", "b!c"), ("a", "a", "c", "a|b", "a|b", "b!c", "a|b", "a|b")),
        ],
        ids=["p|q-q|r", "x|-|-", "a|b-b!c"],
    )
    def test_track_delimiters_escaped(self, op, f_payload, g_payload, member):
        combine = {"add": combine_add, "mul": combine_mul}[op]
        c = combine(identity_constructor(f_payload), identity_constructor(g_payload))
        assert run(c.machine, member, 16, 10_000).accepted
        assert not run(c.machine, member[:-1], 16, 10_000).accepted

    def test_plain_payload_accepted(self):
        c = combine_add(identity_constructor(("x",)), identity_constructor(("y",)))
        assert run(c.machine, ("a", "x", "y"), 8).accepted


CTORS = {"id": identity_constructor, "expo": expo_constructor}


@functools.cache
def track_machine(op, f, g, x="x", y="y"):
    """The machine ``op`` builds over payload x for the f constructor and
    payload y for the g constructor (unused by build_lf)."""
    cf = CTORS[f]((x,))
    if op == "lf":
        return build_lf(cf)
    return {"add": combine_add, "mul": combine_mul}[op](cf, CTORS[g]((y,))).machine


def member(op, f, g, m):
    """A member of the plain-payload language with prefix parameter m."""
    fn_f, fn_g = CTORS[f]().fn, CTORS[g]().fn
    if op == "add":
        return ("a",) * m + ("x",) * fn_f(m) + ("y",) * fn_g(m)
    if op == "mul":
        return ("a",) * m + (("y",) + ("x",) * fn_f(m)) * fn_g(m)
    u = ("a", "b")[: m // 2]
    return u + ("$",) + u + ("x",) * fn_f(2 * len(u) + 1)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["add", "mul", "lf"]),
    st.sampled_from(sorted(CTORS)),
    st.sampled_from(sorted(CTORS)),
    st.integers(1, 3),
    st.lists(st.text("[]|!;(),./*=~'", min_size=1, max_size=3), min_size=2, max_size=2,
             unique=True),
)
def test_constructions_commute_with_payload_renaming(op, f, g, m, names):
    x, y = names
    renamed = track_machine(op, f, g, x, y)
    plain = track_machine(op, f, g)
    w = member(op, f, g, m)
    rename = {"x": x, "y": y}
    for word in (w, w[:-1]):
        budget = 4 * len(word) + 16
        expected = run(plain, word, budget).accepted
        assert expected == (word == w)
        assert run(renamed, tuple(rename.get(s, s) for s in word), budget).accepted == expected
