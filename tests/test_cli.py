"""Command-line behavior: exit codes, piping through files, output
stability."""

import inspect

import pytest

from iufst import cli
from iufst.cli import FAMILIES, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def e21_file(tmp_path, capsys):
    path = tmp_path / "e21.m"
    assert main(["gen", "e:2,1", "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


class TestRun:
    def test_accept(self, capsys, e21_file):
        code, out, _ = run_cli(capsys, "run", "-m", e21_file, "-w", "a,b,a",
                               "--max-sweeps", "1")
        assert code == 0 and out == "accepted sweeps=1\n"

    def test_reject(self, capsys, e21_file):
        code, out, _ = run_cli(capsys, "run", "-m", e21_file, "-w", "ab")
        assert code == 1 and out.strip() == "rejected"

    def test_unknown_on_cap(self, tmp_path, capsys):
        path = tmp_path / "u.m"
        main(["gen", "uexpo", "-o", str(path)])
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "run", "-m", str(path),
                               "-w", "a" * 12, "--max-sweeps", "1")
        assert code == 3 and out.startswith("unknown")

    def test_tape_cap_bounds_no_lane_walk(self, tmp_path, capsys):
        # at e(2,2)'s bound, the default budget, the lane walk keeps no
        # tape and answers; --trace takes the same walk, so it answers alike
        path = tmp_path / "e22.m"
        main(["gen", "e:2,2", "-o", str(path)])
        capsys.readouterr()
        argv = ("run", "-m", str(path), "-w", "b" + "a" * 7, "--tape-cap", "1")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == "accepted sweeps=2\n"
        code, out, _ = run_cli(capsys, *argv, "--trace")
        assert code == 0 and out.splitlines()[0] == "accepted sweeps=2"
        assert len(out.splitlines()) == 4

    def test_trace_stable(self, capsys, e21_file):
        code1, out1, _ = run_cli(capsys, "run", "-m", e21_file, "-w", "aba", "--trace")
        code2, out2, _ = run_cli(capsys, "run", "-m", e21_file, "-w", "aba", "--trace")
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[1] == "a b a <0"
        assert len(lines) == 3  # header plus two sweep boundaries

    def test_trace_searches_once(self, capsys, e21_file, monkeypatch):
        from iufst import core

        calls = []
        search = core._search

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(core, "_search", counted)
        # 9 sweeps lie past the lane walk's budgets: the tape search answers
        code, out, _ = run_cli(capsys, "run", "-m", e21_file, "-w", "aba", "--trace",
                               "--max-sweeps", "9")
        assert code == 0 and out.splitlines()[1] == "a b a <0"
        assert len(calls) == 1

    def test_trace_walks_lanes_once(self, capsys, e21_file, monkeypatch):
        from iufst import core

        calls = []
        walk = core._run_lanes

        def counted(*args, **kwargs):
            calls.append(args)
            return walk(*args, **kwargs)

        monkeypatch.setattr(core, "_run_lanes", counted)
        monkeypatch.setattr(core, "_search", None)  # never called
        code, out, _ = run_cli(capsys, "run", "-m", e21_file, "-w", "aba", "--trace")
        assert code == 0 and out.splitlines()[1] == "a b a <0"
        assert len(calls) == 1

    def test_trace_gives_the_plain_answer(self, tmp_path, capsys):
        # a false "sweeps 2" line on e(2,3): the default budget rejects, and
        # --max-sweeps 3 walks three lanes whatever the line says, with or
        # without --trace
        from dataclasses import replace

        from iufst import gen_e
        from iufst.textio import MachineFile, serialize_machine

        path = tmp_path / "e23-2.m"
        path.write_text(serialize_machine(MachineFile("niufst", replace(gen_e(2, 3), sweep_bound=2))))
        argv = ("run", "-m", str(path), "-w", "b,a,a,a,a,a,a,a")
        for extra in ((), ("--trace",)):
            code, out, _ = run_cli(capsys, *argv, *extra)
            assert code == 1 and out == "rejected\n"
            code, out, _ = run_cli(capsys, *argv, "--max-sweeps", "3", *extra)
            assert code == 0 and out.splitlines()[0] == "accepted sweeps=3"
            assert len(out.splitlines()) == (5 if extra else 1)

    def test_usage_error(self, capsys, e21_file):
        code, _, err = run_cli(capsys, "run", "-m", "missing-file.m", "-w", "a")
        assert code == 2 and "error" in err


# states p and p,p give lane tuples such as (p, p,p, p) and (p,p, p, p)
COMMA_MACHINE = (
    "kind niufst\nstates p p,p q\ninput a\noutput a <\nendmarker <\n"
    "initial p\naccept q\nsweeps 3\ntrans p a -> p a\ntrans p a -> p,p a\n"
    "trans p,p a -> p a\ntrans p < -> q <\ntrans p,p < -> q <\n"
)


class TestConvertDecide:
    @pytest.mark.parametrize("target,kind", [("nfa", "nfa"), ("min-dfa", "dfa"),
                                             ("reduce:2", "niufst")])
    def test_convert_comma_named_states(self, tmp_path, capsys, target, kind):
        from iufst import parse_machine
        from iufst.oracle import make_acceptor

        src, out_path = tmp_path / "comma.m", tmp_path / "out.m"
        src.write_text(COMMA_MACHINE)
        assert main(["convert", "-m", str(src), "--to", target, "-o", str(out_path)]) == 0
        capsys.readouterr()
        out = parse_machine(out_path.read_text())
        assert out.kind == kind
        source = make_acceptor(parse_machine(COMMA_MACHINE).machine)
        converted = make_acceptor(out.machine)
        for m in range(9):
            assert converted(("a",) * m) == source(("a",) * m), m

    def test_reduce_then_equiv(self, tmp_path, capsys):
        src = tmp_path / "e22.m"
        red = tmp_path / "out.m"
        assert main(["gen", "e:2,2", "-o", str(src)]) == 0
        assert main(["convert", "-m", str(src), "--to", "reduce:2",
                     "-o", str(red)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "decide", "equiv", "-m", str(src),
                               "-n", str(red))
        assert code == 0 and out.strip() == "true"

    def test_convert_to_min_dfa(self, tmp_path, capsys):
        src = tmp_path / "u23.m"
        out_path = tmp_path / "m.m"
        main(["gen", "unary:2,3", "-o", str(src)])
        assert main(["convert", "-m", str(src), "--to", "min-dfa",
                     "-o", str(out_path)]) == 0
        capsys.readouterr()
        text = out_path.read_text()
        assert text.startswith("kind dfa")
        assert len([l for l in text.splitlines() if l.startswith("states")][0].split()) == 9

    def test_convert_dfa_file(self, tmp_path, capsys):
        src, dfa, small = tmp_path / "u23.m", tmp_path / "d.m", tmp_path / "m.m"
        again = tmp_path / "again.m"
        main(["gen", "unary:2,3", "-o", str(src)])
        main(["convert", "-m", str(src), "--to", "dfa", "-o", str(dfa)])
        main(["convert", "-m", str(src), "--to", "min-dfa", "-o", str(small)])
        assert len(dfa.read_text()) > len(small.read_text())
        # dfa takes a dfa file as it is; min-dfa minimizes it
        for target, want in [("dfa", dfa), ("min-dfa", small)]:
            assert main(["convert", "-m", str(dfa), "--to", target, "-o", str(again)]) == 0
            assert again.read_text() == want.read_text()
        capsys.readouterr()

    def test_decide_empty_false_with_witness(self, capsys, e21_file):
        code, out, _ = run_cli(capsys, "decide", "empty", "-m", e21_file)
        assert code == 1 and out.startswith("false witness=")

    def test_decide_empty_true(self, tmp_path, capsys):
        path = tmp_path / "empty.m"
        path.write_text(
            "kind niufst\nstates q\ninput a\noutput a <\nendmarker <\n"
            "initial q\naccept\nsweeps 1\ntrans q a -> q a\n"
        )
        code, out, _ = run_cli(capsys, "decide", "empty", "-m", str(path))
        assert code == 0 and out.strip() == "true"

    def test_decide_finite(self, capsys, e21_file):
        code, out, _ = run_cli(capsys, "decide", "finite", "-m", e21_file)
        assert code == 1 and out.startswith("false pump=")

    def test_subset(self, tmp_path, capsys):
        a = tmp_path / "a.m"
        b = tmp_path / "b.m"
        main(["gen", "e:2,2", "-o", str(a)])
        main(["gen", "e:2,1", "-o", str(b)])
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "decide", "subset", "-m", str(a), "-n", str(b))
        assert code == 0  # multiples of 4 are multiples of 2 (plus b)
        code, out, _ = run_cli(capsys, "decide", "subset", "-m", str(b), "-n", str(a))
        assert code == 1

    def test_state_cap_exhausted_exits_3(self, tmp_path, capsys):
        src = tmp_path / "e23.m"
        red = tmp_path / "red.m"
        assert main(["gen", "e:2,3", "-o", str(src)]) == 0
        assert main(["convert", "-m", str(src), "--to", "reduce:2", "-o", str(red)]) == 0
        capsys.readouterr()
        code, out, err = run_cli(capsys, "decide", "equiv", "-m", str(src), "-n", str(red),
                                 "--state-cap", "4")
        assert code == 3 and out == "" and "state_cap=4" in err
        code, out, _ = run_cli(capsys, "decide", "equiv", "-m", str(src), "-n", str(red),
                               "--state-cap", "1024")
        assert code == 0 and out.strip() == "true"

    def test_state_cap_below_one_is_a_usage_error(self, tmp_path, capsys, e21_file):
        # a one-state NFA has one subset, which a cap of 0 does not admit
        path = tmp_path / "one.m"
        path.write_text("kind nfa\nstates p\ninput a\ninitial p\naccept p\ntrans p a -> p\n")
        for target in ("dfa", "min-dfa"):
            code, out, err = run_cli(capsys, "convert", "-m", str(path), "--to", target,
                                     "--state-cap", "0")
            assert (code, out) == (2, "") and "state_cap must be at least 1" in err
            assert run_cli(capsys, "convert", "-m", str(path), "--to", target,
                           "--state-cap", "1")[0] == 0
        code, out, err = run_cli(capsys, "decide", "universal", "-m", e21_file,
                                 "--state-cap", "0")
        assert (code, out) == (2, "") and "at least 1" in err
        assert run_cli(capsys, "decide", "universal", "-m", e21_file,
                       "--state-cap", "1")[:2] == (1, "false witness=λ\n")

    def test_missing_bound_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "nb.m"
        path.write_text(
            "kind niufst\nstates q\ninput a\noutput a <\nendmarker <\n"
            "initial q\naccept\ntrans q a -> q a\n"
        )
        code, _, err = run_cli(capsys, "decide", "empty", "-m", str(path))
        assert code == 2 and "sweep bound" in err


class TestGenCombineLba:
    # the kind each file is written under: iufst for a deterministic transducer
    KINDS = {"block:2": "niufst", "block-nfa:3": "nfa", "unary:3,2": "iufst", "e:2,2": "niufst",
             "copy": "iufst", "uexpo": "iufst", "d": "niufst", "d:2": "niufst",
             "id-ctor": "iufst", "expo-ctor": "iufst"}

    @pytest.mark.parametrize("spec", list(KINDS))
    def test_gen_roundtrips(self, tmp_path, capsys, spec):
        path = tmp_path / "m.m"
        assert main(["gen", spec, "-o", str(path)]) == 0
        from iufst import parse_machine

        assert parse_machine(path.read_text()).kind == self.KINDS[spec]

    def test_gen_bad_spec(self, capsys):
        code, _, err = run_cli(capsys, "gen", "zork:1")
        assert code == 2

    def test_combine_add_runs(self, tmp_path, capsys):
        path = tmp_path / "c.m"
        assert main(["combine", "add", "--left", "id", "--right", "expo",
                     "-o", str(path)]) == 0
        assert path.read_text().startswith("kind iufst\n")
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "run", "-m", str(path),
                               "-w", "a,x,y,y", "--max-sweeps", "8")
        assert code == 0

    def test_lba_compile_and_run(self, tmp_path, capsys):
        from iufst import MachineFile, lba_anbn, serialize_machine

        src = tmp_path / "anbn.m"
        src.write_text(serialize_machine(MachineFile("lba", lba_anbn())))
        code, out, _ = run_cli(capsys, "lba", "run", "-m", str(src), "-w", "aabb")
        assert code == 0 and out.startswith("accepted steps=")
        compiled = tmp_path / "c.m"
        assert main(["lba", "compile", "-m", str(src), "-o", str(compiled)]) == 0
        assert compiled.read_text().startswith("kind niufst\n")
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "run", "-m", str(compiled), "-w", "aabb",
                               "--max-sweeps", "40")
        assert code == 0 and out.startswith("accepted sweeps=19")

    def test_lba_negative_max_steps_is_an_error(self, tmp_path, capsys):
        from iufst import MachineFile, lba_copy, serialize_machine

        src = tmp_path / "copy.m"
        src.write_text(serialize_machine(MachineFile("lba", lba_copy())))
        code, out, err = run_cli(capsys, "lba", "run", "-m", str(src), "-w", "a,$,a",
                                 "--max-steps", "-1")
        assert code == 2 and out == ""
        assert "max_steps must be >= 0" in err


class TestVerifyMeasure:
    def test_verify_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--lang", "e:2,1", "--max-len", "8")
        assert code == 0 and out.strip() == "ok"

    def test_verify_unary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--lang", "unary:2,2")
        assert code == 0

    def test_verify_d3_corpus_is_over_budget(self, capsys, monkeypatch):
        # the width-3 corpus has 8^8 * 7 * 2 words; counting them builds none:
        # neither a corpus word nor a payload
        def unbuilt(*args):
            raise AssertionError("the over-budget corpus was built")
        monkeypatch.setattr(cli, "d_word", unbuilt)
        monkeypatch.setattr(cli, "product", unbuilt)
        code, out, err = run_cli(capsys, "verify", "--lang", "d:3")
        assert code == 3 and out == ""
        assert err.strip() == ("budget exhausted: the d:3 corpus holds 234,881,024 words, "
                               "more than the cap of 100,000")

    def test_parser_is_built_once(self, capsys):
        assert build_parser() is build_parser()
        assert run_cli(capsys, "verify", "--lang", "copy", "--max-len", "2")[:2] == (0, "ok\n")
        code, out, err = run_cli(capsys, "verify", "--max-len", "2")
        assert code == 2 and out == "" and "--lang" in err
        assert run_cli(capsys, "verify", "--lang", "copy", "--max-len", "2")[:2] == (0, "ok\n")

    def test_measure_csv(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--lang", "uexpo",
                               "--min-param", "1", "--max-param", "4")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "param,length,sweeps"
        assert lines[1] == "1,2,1"
        assert lines[4] == "4,16,4"

    def test_measure_d_starts_at_width_2(self, capsys):
        # L_d has no width-1 words, so a width-1 row could only be a hole
        code, out, _ = run_cli(capsys, "measure", "--lang", "d", "--max-param", "3")
        lines = out.strip().splitlines()
        assert code == 0
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "3"]
        assert all(line.split(",")[2] for line in lines[1:])

    def test_measure_d_width_1_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "measure", "--lang", "d", "--min-param", "1",
                                 "--max-param", "3")
        assert code == 2 and out == ""
        _, _, gen_err = run_cli(capsys, "gen", "d:1")
        assert "d needs k >= 2" in err and err == gen_err


class TestFamilyRegistry:
    @pytest.mark.parametrize(
        "name", [name for name, fam in FAMILIES.items() if fam.pred is not None]
    )
    def test_verify_every_family(self, capsys, name):
        arity = len(inspect.signature(FAMILIES[name].make).parameters)
        spec = name + (":" + ",".join(["2"] * arity) if arity else "")
        code, out, _ = run_cli(capsys, "verify", "--lang", spec, "--max-len", "5")
        assert code == 0 and out.strip() == "ok"

    def test_verify_runs_only_live_prefixes(self, capsys, monkeypatch):
        import iufst.cli
        import iufst.oracle

        fed, ran = [], []
        run = iufst.oracle.run
        monkeypatch.setattr(iufst.oracle, "run", lambda *a: ran.append(a) or run(*a))
        for argv, pred, words, runs in [
            # block(3) declares 3 sweeps: its lane NFA answers every word of
            # up to 2k + 3 = 9 symbols over 0, 1, #
            (["block:3"], "in_block", 29_524, 0),
            # copy's bound is tagged: only the words that three lanes leave
            # neither accepted nor exhausted run (642 at one lane)
            (["copy", "--max-len", "8"], "in_copy", 9_841, 40),
            # d's too: three lanes answer every word of the tree, and the
            # corpus of 1,536 members runs one tape search, which learns
            # the depth of 11 lanes the other corpus words walk at
            (["d:2"], "in_d", 1_536 + 87_381, 1),
        ]:
            fed.clear()
            ran.clear()
            ref = getattr(iufst.cli, pred)
            monkeypatch.setattr(iufst.cli, pred, lambda *a, ref=ref: fed.append(a[-1]) or ref(*a))
            code, out, _ = run_cli(capsys, "verify", "--lang", *argv)
            assert code == 0 and out.strip() == "ok"
            assert len(fed) == words and len(set(fed)) == len(fed)
            assert len(ran) == runs

    def test_verify_honours_max_len(self, capsys, monkeypatch):
        import iufst.cli

        seen = []
        monkeypatch.setattr(iufst.cli, "compare_on_words", lambda m, p, words: [])
        monkeypatch.setattr(
            iufst.cli, "compare_languages",
            lambda m, p, alphabet, max_len: seen.append(max_len) or [],
        )
        for max_len in ("0", "12"):
            code, out, _ = run_cli(capsys, "verify", "--lang", "d:2", "--max-len", max_len)
            assert code == 0 and out.strip() == "ok"
        run_cli(capsys, "verify", "--lang", "d:2")
        assert seen == [0, 12, 8]

    @pytest.mark.parametrize("spec", ["copy", "e:2,3"])
    def test_verify_negative_max_len_is_an_error(self, capsys, spec):
        # a negative length enumerates no word, so "ok" would compare nothing
        code, out, err = run_cli(capsys, "verify", "--lang", spec, "--max-len", "-1")
        assert code == 2 and out == ""
        assert "--max-len must be >= 0" in err

    def test_subset_with_reordered_alphabet(self, tmp_path, capsys, e21_file):
        universal = tmp_path / "all.m"
        universal.write_text(
            "kind niufst\nstates q\ninput b a\noutput b a <\nendmarker <\n"
            "initial q\naccept q\nsweeps 1\n"
            "trans q a -> q a\ntrans q b -> q b\ntrans q < -> q <\n"
        )
        code, out, _ = run_cli(capsys, "decide", "subset", "-m", e21_file,
                               "-n", str(universal))
        assert code == 0 and out.strip() == "true"


class TestExitCodes:
    """Exit codes through ``main``: 0 and 1 answer, 2 is a usage error
    and 3 an exhausted budget.  ``{e21}`` is the e(2,1) transducer file,
    ``{copy}`` the copy transducer's and ``{lba}`` the copy LBA's file;
    ``out`` lists lines stdout holds and ``err`` what stderr holds."""

    @pytest.mark.parametrize("argv, code, out, err", [
        (["verify", "--lang", "copy", "--max-len", "3"], 1,
         ["disagree: $", "disagree: a,$,a", "disagree: b,$,b", "3 disagreement(s)"], ""),
        (["lba", "run", "-m", "{lba}", "-w", "a,$,b"], 1, ["rejected"], ""),
        (["measure", "--lang", "copy", "--max-param", "3"], 0, ["1,3,2", "2,5,3", "3,7,4"], ""),
        (["measure", "--lang", "block:2"], 0, ["param,length,sweeps"], ""),
        (["lba", "run", "-m", "{lba}", "-w", "a,$,a", "--max-steps", "1"], 3,
         ["unknown (step budget 1 exhausted)"], ""),
        (["decide", "equiv", "-m", "{e21}"], 2, [], "needs -n OTHER_MACHINE"),
        (["lba", "run", "-m", "{e21}"], 2, [], "expected an lba machine file"),
        (["run", "-m", "{lba}", "-w", "a"], 2, [], "expected a transducer machine file"),
        (["convert", "-m", "{e21}", "--to", "bogus"], 2, [], "unknown conversion target"),
        (["gen", "e:1,2,3"], 2, [], "bad family parameters"),
        (["combine", "add", "--left", "foo", "--right", "id"], 2, [], "must be id or expo"),
        # f(0) = 0 payload symbols: the empty word has no sweep count, a hole
        (["measure", "--lang", "id-ctor", "--min-param", "0", "--max-param", "2"], 1,
         ["0,0,", "1,2,2", "2,4,3"], ""),
        # no --max-sweeps and no int bound: the default budget of 4|w| + 16 sweeps
        (["run", "-m", "{copy}", "-w", "ab$ba"], 1, ["rejected"], ""),
        (["decide", "universal", "-m", "{e21}"], 1, ["false witness=λ"], ""),
        (["gen", "copy"], 0, ["kind iufst"], ""),
    ], ids=["verify-disagrees", "lba-rejects", "measure-copy", "measure-block",
            "lba-step-budget", "equiv-without-other", "lba-run-transducer", "run-lba",
            "convert-bogus", "gen-arity", "combine-operand", "measure-hole",
            "run-default-budget", "decide-universal", "gen-stdout"])
    def test_exit_code(self, tmp_path, capsys, monkeypatch, e21_file, argv, code, out, err):
        import iufst.cli
        from iufst import MachineFile, gen_copy, lba_copy, serialize_machine

        lba = tmp_path / "copy.lba"
        lba.write_text(serialize_machine(MachineFile("lba", lba_copy())))
        copy = tmp_path / "copy.m"
        copy.write_text(serialize_machine(MachineFile("iufst", gen_copy())))
        # the copy family's reference predicate, made to reject every word
        monkeypatch.setattr(iufst.cli, "in_copy", lambda w: False)
        argv = [a.format(e21=e21_file, copy=copy, lba=lba) for a in argv]
        got, stdout, stderr = run_cli(capsys, *argv)
        assert got == code
        lines = stdout.splitlines()
        assert all(line in lines for line in out), stdout
        assert err in stderr and (stdout == "") == (code == 2)
