"""End-to-end command-line behavior: output shapes and exit codes."""

import copy
import json
import os
import random
import subprocess
import sys

import pytest

import fsub
from fsub import cli
from fsub.cli import run
from fsub.errors import InternalCheckError
from fsub.gen import GenConfig, child_seeds, gen_derivation_pair, gen_narrow_instance
from fsub.parser import print_type
from fsub.subtyper import check_derivation, derivation_from_json, derivation_to_json


def fsub_process(*argv: str) -> subprocess.CompletedProcess:
    """Run the command-line front end in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(fsub.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "fsub.cli", *argv], capture_output=True, text=True, env=env
    )


@pytest.fixture()
def judgment_file(tmp_path):
    def write(text: str, name: str = "judgments.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestCheck:
    def test_all_yes(self, judgment_file, capsys):
        path = judgment_file("|- Top <: Top\n")
        assert run(["check", path]) == 0
        assert capsys.readouterr().out == "YES |- Top <: Top\n"

    def test_comments_and_blanks_skipped(self, judgment_file, capsys):
        path = judgment_file("# a comment\n\n|- Top <: Top\n")
        assert run(["check", path]) == 0
        assert capsys.readouterr().out.count("YES") == 1

    def test_derivation_golden(self, judgment_file, capsys):
        path = judgment_file("X <: Top, Y <: X |- Y <: Top\nX <: Top, Y <: X |- Y <: X\n")
        assert run(["check", path, "--derivation"]) == 0
        assert capsys.readouterr().out == (
            "YES X <: Top, Y <: X |- Y <: Top\n"
            "(top) X <: Top, Y <: X |- Y <: Top\n"
            "YES X <: Top, Y <: X |- Y <: X\n"
            "(trs) X <: Top, Y <: X |- Y <: X\n"
            "  (var) X <: Top, Y <: X |- X <: X\n"
        )

    def test_json_derivation_round_trips(self, judgment_file, capsys):
        path = judgment_file("X <: Top |- Top -> X <: Top -> Top\n")
        assert run(["check", path, "--derivation", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("YES ")
        d = derivation_from_json(lines[1])
        assert check_derivation(d)

    def test_deep_derivation_prints(self, judgment_file, capsys):
        # Reflexivity of a right-nested arrow: 2,001 nodes, 1,001 levels deep.
        n = 1_000
        path = judgment_file("X <: Top |- {0} <: {0}\n".format(" -> ".join(["X"] * (n + 1))))
        assert run(["check", path, "--derivation"]) == 0
        text = capsys.readouterr().out.splitlines()
        assert len(text) == 1 + 2 * n + 1
        assert text[-1] == "  " * n + "(var) X <: Top |- X <: X"
        assert run(["check", path, "--derivation", "--json"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        # Counted on the text: the standard-library decoder stops at about
        # 490 levels.  Braces occur in no type or environment string.
        depth = deepest = 0
        for char in out[1]:
            depth += {"{": 1, "}": -1}.get(char, 0)
            deepest = max(deepest, depth)
        assert deepest == n + 1
        assert out[1].count('{"rule": ') == 2 * n + 1

    def test_no_dominates(self, judgment_file, capsys):
        path = judgment_file("|- Top <: Top -> Top\n|- Top <: Top\n")
        assert run(["check", path]) == 1
        out = capsys.readouterr().out
        assert "NO |- Top <: Top -> Top" in out
        assert "YES |- Top <: Top" in out

    def test_unknown_exit(self, judgment_file):
        path = judgment_file("|- Top -> Top <: Top -> Top\n")
        assert run(["check", path, "--fuel", "1"]) == 2

    def test_no_beats_unknown(self, judgment_file):
        path = judgment_file("|- Top -> Top <: Top -> Top\n|- Top <: Top -> Top\n")
        assert run(["check", path, "--fuel", "1"]) == 1

    def test_parse_error(self, judgment_file, capsys):
        path = judgment_file("|- Top <:\n")
        assert run(["check", path]) == 3
        assert "position" in capsys.readouterr().err

    def test_scoping_error(self, judgment_file, capsys):
        path = judgment_file("X <: Top |- Y <: Top\n")
        assert run(["check", path]) == 3
        assert "not closed" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["check", "/nonexistent/judgments.txt"]) == 3

    def test_stuck_goal_reported(self, judgment_file, capsys):
        path = judgment_file("|- (Top -> Top) -> Top <: Top -> Top\n")
        assert run(["check", path, "--derivation"]) == 1
        assert "stuck at:" in capsys.readouterr().out

    def test_divergent_judgment_is_not_a_verdict(self, judgment_file):
        # Pierce's divergent judgment: the decider runs until the fuel is gone,
        # at the default fuel as at a small one, and answers UNKNOWN.  Run as
        # a separate process so that the interpreter stack is the CLI's own.
        path = judgment_file(
            "X0 <: All X1 <: Top . All Y <: (All X2 <: X1 . All Z <: X2 . Z) . Y"
            " |- X0 <: All X1 <: X0 . All Y <: X1 . Y\n"
        )
        for fuel in ([], ["--fuel", "1000"]):
            undecided = fsub_process("check", path, *fuel)
            assert undecided.returncode == 2
            assert undecided.stdout.startswith("UNKNOWN ")
            assert undecided.stderr == ""

    def test_non_ascii_identifier_is_a_parse_error(self, judgment_file, capsys):
        path = judgment_file("|- \u00e9 <: Top\n")
        assert run(["check", path]) == 3
        assert "unexpected character '\u00e9' at position 3" in capsys.readouterr().err

    def test_parse_error_position_counts_the_indentation(self, judgment_file, capsys):
        # The position is the one in the line as written, indentation and all.
        path = judgment_file("    X <: Top |- X ->\n")
        assert run(["check", path]) == 3
        assert capsys.readouterr().err.startswith(f"{path}:1: unexpected eof '' at position 20 ")

    def test_byte_order_mark_is_ignored(self, judgment_file, capsys, tmp_path):
        for text in ("|- Top <: Top\n", "# a comment\n|- Top <: Top\n"):
            path = tmp_path / "bom.txt"
            path.write_text(text, encoding="utf-8-sig")
            assert path.read_bytes().startswith(b"\xef\xbb\xbf")
            assert run(["check", str(path)]) == 0
            assert capsys.readouterr().out == "YES |- Top <: Top\n"


class TestRefl:
    def test_text_output(self, judgment_file, capsys):
        path = judgment_file("X <: Top |- X\n")
        assert run(["refl", path]) == 0
        assert capsys.readouterr().out == "(var) X <: Top |- X <: X\n"

    def test_json_output(self, judgment_file, capsys):
        path = judgment_file("|- All X <: Top . X -> X\n")
        assert run(["refl", path, "--json"]) == 0
        d = derivation_from_json(capsys.readouterr().out)
        assert check_derivation(d)
        assert d.lhs == d.rhs

    def test_rejects_unscoped(self, judgment_file, capsys):
        # `derive_refl` scopes the line: a type that is not closed in its
        # environment and an environment that is not ok are both rejected
        # with the line's number, after the lines before it are printed.
        for text, lineno in (("|- X\n", 1), ("X <: Top |- X\nX <: Y |- X\n", 2)):
            path = judgment_file(text)
            assert run(["refl", path]) == 3
            out, err = capsys.readouterr()
            assert err == f"{path}:{lineno}: judgment is not well-scoped\n"
            assert out == "(var) X <: Top |- X <: X\n" * (lineno - 1)

    def test_rejects_missing_turnstile(self, judgment_file):
        path = judgment_file("Top\n")
        assert run(["refl", path]) == 3

    def test_parse_errors_give_line_positions(self, judgment_file, capsys):
        # As `check` does: the type ends at position 16 of the line, not at
        # position 4 of the text after `|-`; a bad environment likewise.
        path = judgment_file("X <: Top |- X ->\n")
        assert run(["refl", path]) == 3
        assert capsys.readouterr().err.startswith(f"{path}:1: unexpected eof '' at position 16 ")
        path = judgment_file("X <: Top, Y <: |- X\n")
        assert run(["refl", path]) == 3
        assert capsys.readouterr().err.startswith(f"{path}:1: unexpected eof '' at position 15 ")

    def test_parse_error_positions_count_the_indentation(self, judgment_file, capsys):
        path = judgment_file("    X <: Top |- X ->\n")
        assert run(["refl", path]) == 3
        assert capsys.readouterr().err.startswith(f"{path}:1: unexpected eof '' at position 20 ")
        path = judgment_file("\tX <: Top, Y <: |- X\n")
        assert run(["refl", path]) == 3
        assert capsys.readouterr().err.startswith(f"{path}:1: unexpected eof '' at position 16 ")


class TestTransNarrow:
    def test_trans_composition(self, judgment_file, capsys, tmp_path):
        refl_path = judgment_file("X <: Top |- Top -> X\n", "left.txt")
        assert run(["refl", refl_path, "--json"]) == 0
        left = capsys.readouterr().out.strip()
        (tmp_path / "a.json").write_text(left)
        (tmp_path / "b.json").write_text(left)
        assert run(["trans", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
        out = derivation_from_json(capsys.readouterr().out)
        assert check_derivation(out)

    def test_kernel_fault_is_an_internal_error(self, judgment_file, capsys, tmp_path, monkeypatch):
        path = judgment_file("X <: Top |- X\n")
        assert run(["refl", path, "--json"]) == 0
        (tmp_path / "d.json").write_text(capsys.readouterr().out.strip())

        def fault(d1, d2):
            raise InternalCheckError("boom")

        monkeypatch.setattr(cli, "derive_trans", fault)
        assert run(["trans", str(tmp_path / "d.json"), str(tmp_path / "d.json")]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "internal error: boom\n"

    def test_malformed_strings_are_reported_with_the_file(self, judgment_file, capsys, tmp_path):
        # A type or environment string that does not parse is a parse error
        # in that file, for `trans` and for `narrow` alike.
        path = judgment_file("X <: Top |- X\n")
        assert run(["refl", path, "--json"]) == 0
        good = tmp_path / "good.json"
        good.write_text(capsys.readouterr().out.strip())
        for key, text in (("lhs", "X ->"), ("env", "X <:")):
            bad = tmp_path / f"bad-{key}.json"
            bad.write_text(json.dumps(dict(json.loads(good.read_text()), **{key: text})))
            for argv in (
                ["trans", str(good), str(bad)],
                ["narrow", str(bad), "--pivot", "X", "--new-bound", "Top", "--evidence", str(good)],
            ):
                assert run(argv) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith(f"error: {bad}: unexpected eof '' at position 4 "), captured.err

    def test_derivation_file_with_a_byte_order_mark(self, judgment_file, capsys, tmp_path):
        path = judgment_file("X <: Top |- Top -> X\n")
        assert run(["refl", path, "--json"]) == 0
        left = capsys.readouterr().out.strip()
        (tmp_path / "bom.json").write_text(left, encoding="utf-8-sig")
        assert run(["trans", str(tmp_path / "bom.json"), str(tmp_path / "bom.json")]) == 0
        assert check_derivation(derivation_from_json(capsys.readouterr().out))

    def test_narrow_option_errors_name_the_option(self, judgment_file, capsys, tmp_path):
        path = judgment_file("A <: Top |- A\n")
        assert run(["refl", path, "--json"]) == 0
        (tmp_path / "d.json").write_text(capsys.readouterr().out)
        d = str(tmp_path / "d.json")
        for pivot, bound, message in (
            ("A", "X ->", "error: --new-bound: unexpected eof '' at position 4 "),
            ("Y Z", "Top", "error: --pivot: invalid variable name 'Y Z' at position 0\n"),
        ):
            assert run(["narrow", d, "--pivot", pivot, "--new-bound", bound, "--evidence", d]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(message), captured.err

    def test_trans_middle_mismatch_is_precondition(self, judgment_file, capsys, tmp_path):
        for name, line in (("a", "X <: Top |- X\n"), ("b", "X <: Top |- Top\n")):
            path = judgment_file(line, f"{name}.txt")
            assert run(["refl", path, "--json"]) == 0
            (tmp_path / f"{name}.json").write_text(capsys.readouterr().out.strip())
        code = run(["trans", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 4
        assert "middle types differ" in capsys.readouterr().err

    def test_witness_that_is_not_a_name_is_malformed_input(self, judgment_file, capsys, tmp_path):
        path = judgment_file("|- All X <: Top . X\n")
        assert run(["refl", path, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        for witness in ("1x", "Top", "All"):
            obj["witness"] = witness
            (tmp_path / "bad.json").write_text(json.dumps(obj))
            assert run(["trans", str(tmp_path / "bad.json"), str(tmp_path / "bad.json")]) == 3
            assert "witness must be a variable name" in capsys.readouterr().err

    def test_narrow(self, judgment_file, capsys, tmp_path):
        check_path = judgment_file("A <: Top, X <: Top |- X -> X <: X -> Top\n")
        assert run(["check", check_path, "--derivation", "--json"]) == 0
        derivation_line = capsys.readouterr().out.splitlines()[1]
        (tmp_path / "d.json").write_text(derivation_line)
        from fsub.parser import parse_env
        from fsub.subtyper import Derivation, Rule
        from fsub.syntax import FreeVar, Top as TopTy

        # evidence: A <: Top over the prefix (X's old bound was Top)
        prefix = parse_env("A <: Top")
        evidence = Derivation(Rule.TOP, prefix, FreeVar("A"), TopTy())
        (tmp_path / "ev.json").write_text(derivation_to_json(evidence))
        code = run(
            [
                "narrow",
                str(tmp_path / "d.json"),
                "--pivot",
                "X",
                "--new-bound",
                "A",
                "--evidence",
                str(tmp_path / "ev.json"),
            ]
        )
        assert code == 0
        out = derivation_from_json(capsys.readouterr().out)
        assert check_derivation(out)

    def test_narrow_missing_pivot_is_precondition(self, judgment_file, capsys, tmp_path):
        path = judgment_file("A <: Top |- A\n")
        assert run(["refl", path, "--json"]) == 0
        line = capsys.readouterr().out.strip()
        (tmp_path / "d.json").write_text(line)
        (tmp_path / "ev.json").write_text(line)
        code = run(
            [
                "narrow",
                str(tmp_path / "d.json"),
                "--pivot",
                "Z",
                "--new-bound",
                "Top",
                "--evidence",
                str(tmp_path / "ev.json"),
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("pivot", ["1x", "Top", "All"])
    def test_narrow_pivot_that_is_not_a_name_is_malformed_input(self, judgment_file, capsys, tmp_path, pivot):
        path = judgment_file("A <: Top |- A\n")
        assert run(["refl", path, "--json"]) == 0
        (tmp_path / "d.json").write_text(capsys.readouterr().out)
        code = run(
            [
                "narrow",
                str(tmp_path / "d.json"),
                "--pivot",
                pivot,
                "--new-bound",
                "Top",
                "--evidence",
                str(tmp_path / "d.json"),
            ]
        )
        assert code == 3
        assert f"invalid variable name {pivot!r}" in capsys.readouterr().err


class TestGen:
    def test_judgment_corpus_deterministic(self, capsys):
        assert run(["gen", "--seed", "42", "--count", "20"]) == 0
        first = capsys.readouterr().out
        assert run(["gen", "--seed", "42", "--count", "20"]) == 0
        assert capsys.readouterr().out == first
        assert len(first.splitlines()) == 20

    def test_different_seeds_differ(self, capsys):
        assert run(["gen", "--seed", "1", "--count", "10"]) == 0
        a = capsys.readouterr().out
        assert run(["gen", "--seed", "2", "--count", "10"]) == 0
        assert capsys.readouterr().out != a

    def test_judgment_lines_parse(self, capsys):
        from fsub.parser import parse_judgment

        assert run(["gen", "--seed", "3", "--count", "30"]) == 0
        for line in capsys.readouterr().out.splitlines():
            parse_judgment(line)

    def test_derivation_corpus_valid(self, capsys):
        assert run(["gen", "--seed", "4", "--count", "10", "--derivations"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 20
        pairs = [
            (derivation_from_json(lines[i]), derivation_from_json(lines[i + 1]))
            for i in range(0, 20, 2)
        ]
        for d1, d2 in pairs:
            assert check_derivation(d1) and check_derivation(d2)
            assert d1.rhs == d2.lhs


class TestOracle:
    def test_small_run_agrees(self, capsys):
        code = run(["oracle", "--max-size", "2", "--max-env", "1", "--vars", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.endswith("0 disagreements\n")

    def test_disagreement_is_reported(self, capsys):
        # With no fuel the algorithmic decider answers Unknown, which is not
        # a proof, while the declarative search proves Top <: Top.
        code = run(["oracle", "--fuel", "0", "--max-size", "1", "--max-env", "0", "--vars", "0"])
        assert code == 1
        assert capsys.readouterr().out == (
            "DISAGREE |- Top <: Top: algorithmic=False declarative=True\n1 judgments, 1 disagreements\n"
        )


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert run(["check", "--frobnicate", "x"]) == 3

    def test_unknown_command(self, capsys):
        assert run(["prove"]) == 3

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "FILE", "--fuel", "-1"],
            ["gen", "--seed", "1", "--count", "-3"],
            ["gen", "--seed", "1", "--count", "1", "--max-env", "-1"],
            ["gen", "--seed", "1", "--count", "1", "--max-size", "0"],
            ["gen", "--seed", "1", "--count", "1", "--max-depth", "0"],
            ["oracle", "--max-size", "-1"],
            ["oracle", "--max-env", "-1"],
            ["oracle", "--vars", "-1"],
            ["oracle", "--fuel", "-1"],
        ],
    )
    def test_out_of_range_number_is_a_malformed_invocation(self, argv, judgment_file, capsys):
        path = judgment_file("|- Top <: Top\n")
        assert run([path if arg == "FILE" else arg for arg in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be at least" in captured.err


# The exit codes the module docstring of `fsub.cli` documents.
EXIT_CODES = {0, 1, 2, 3, 4}
# Values that replace a field: each JSON type, names, texts that parse and
# texts that do not.
REPLACEMENTS = (None, 0, -1, 1.5, True, "", "X0", "Top", "1x", "X0 <: Top", "All X <: Top . X", "X ->", [], {},
                ["top"], {"rule": "top"})


def mutate_document(rng: random.Random, doc: dict) -> None:
    """Drop one field of one node of a read derivation document, replace it,
    or copy it (deeply) from another node."""
    nodes = [doc]
    for node in nodes:
        nodes += node["premises"]
    node = rng.choice(nodes)
    key = rng.choice(sorted(node))
    edit = rng.choice(("drop", "replace", "copy"))
    if edit == "drop":
        del node[key]
    elif edit == "replace":
        node[key] = rng.choice(REPLACEMENTS)
    else:
        other = rng.choice(nodes)
        if key in other:
            node[key] = copy.deepcopy(other[key])
        else:
            del node[key]


def mutate_line(rng: random.Random, line: str) -> str:
    """`line` with one word deleted, duplicated, swapped with the one before
    it, replaced by a name or inserted, or with one character inserted."""
    words = line.replace(",", " ,").split(" ")
    i = rng.randrange(len(words))
    edit = rng.choice(("delete", "duplicate", "swap", "name", "insert", "character"))
    if edit == "delete":
        del words[i]
    elif edit == "duplicate":
        words.insert(i, words[i])
    elif edit == "swap":
        words[i - 1], words[i] = words[i], words[i - 1]
    elif edit == "name":
        words[i] = rng.choice(("Top", "X0", "X1", "Y"))
    elif edit == "insert":
        words.insert(i, rng.choice(("Top", "All", "X0", "<:", "->", ".", "(", ")", ",", "|-", "empty")))
    else:
        at = rng.randrange(len(line) + 1)
        return line[:at] + rng.choice(("(", ")", ",", "@", "1", "\u00e9", "\t")) + line[at:]
    return " ".join(words)


class TestMalformedInput:
    """Seeded mutations of well-formed input: every run returns a documented
    exit code, raises nothing and reports no internal error.  The exit codes
    each command meets are pinned, so that the mutations are seen to reach
    past the reader's and the parser's checks."""

    def outcomes(self, capsys, cases) -> set[int]:
        codes = set()
        for argv, shown in cases:
            code = run(argv)
            err = capsys.readouterr().err
            assert code in EXIT_CODES and "internal error" not in err, (shown, code, err)
            codes.add(code)
        return codes

    def test_trans(self, capsys, tmp_path):
        rng = random.Random(41)
        left, right = tmp_path / "left.json", tmp_path / "right.json"

        def cases():
            for seed in child_seeds(41, 200):
                docs = [json.loads(derivation_to_json(d)) for d in gen_derivation_pair(GenConfig(seed=seed))]
                mutate_document(rng, rng.choice(docs))
                left.write_text(json.dumps(docs[0]))
                right.write_text(json.dumps(docs[1]))
                yield ["trans", str(left), str(right)], docs

        assert self.outcomes(capsys, cases()) == {0, 3, 4}

    def test_narrow(self, capsys, tmp_path):
        rng = random.Random(42)
        file, evidence = tmp_path / "d.json", tmp_path / "evidence.json"

        def cases():
            for seed in child_seeds(42, 120):
                split, p, d, d_pq = gen_narrow_instance(GenConfig(seed=seed))
                docs = [json.loads(derivation_to_json(d)), json.loads(derivation_to_json(d_pq))]
                mutate_document(rng, rng.choice(docs))
                file.write_text(json.dumps(docs[0]))
                evidence.write_text(json.dumps(docs[1]))
                argv = ["narrow", str(file), "--pivot", split.pivot_var, "--new-bound", print_type(p),
                        "--evidence", str(evidence)]
                yield argv, docs

        assert self.outcomes(capsys, cases()) == {0, 3, 4}

    def test_check(self, capsys, tmp_path):
        rng = random.Random(43)
        assert run(["gen", "--seed", "43", "--count", "300"]) == 0
        lines = capsys.readouterr().out.splitlines()
        path = tmp_path / "judgments.txt"

        def cases():
            for line in lines:
                mutated = mutate_line(rng, line)
                path.write_text(mutated + "\n", encoding="utf-8")
                yield ["check", str(path), "--fuel", "200"], mutated

        assert self.outcomes(capsys, cases()) == {0, 1, 3}
