import hashlib
import json
import time

import pytest

import fulkerson_lab.cli as cli
from fulkerson_lab.cli import (
    Certificate,
    certificate_of_covering,
    certificate_of_family,
    certificate_of_triple,
    main,
    parse_certificate,
    parse_graph_file,
    write_certificate,
    write_graph_file,
)
from fulkerson_lab.ffamily import covering_from_c5_structure, petersen_expansion
from fulkerson_lab.fulkerson import enumerate_fr_triples
from fulkerson_lab.generators import (
    cube_q3,
    flower_snark,
    goldberg,
    petersen,
    ten_vertex_c5_example,
)
from fulkerson_lab.cli import ParseError

from test_ffamily import pentagons_and_hexagon
from test_fulkerson import chain8


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGraphFileFormat:
    def test_round_trip_is_bit_exact(self):
        for g in (petersen(), flower_snark(5)):
            text = write_graph_file(g)
            assert write_graph_file(parse_graph_file(text)) == text
            assert parse_graph_file(text) == g

    def test_comments_and_blank_lines_ignored(self):
        text = write_graph_file(petersen())
        noisy = "# a comment\n\n" + text.replace("cubic", "cubic", 1)
        assert parse_graph_file(noisy) == petersen()

    def test_truncated_file_rejected(self):
        text = write_graph_file(petersen())
        with pytest.raises(ParseError):
            parse_graph_file("\n".join(text.splitlines()[:-1]))

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            parse_graph_file("graph 3 3\n0 0 1\n1 1 2\n2 2 0\n")

    def test_non_cubic_rejected(self):
        with pytest.raises(ParseError):
            parse_graph_file("cubic 2 1\n0 0 1\n")

    def test_header_with_3n_not_2m_rejected_from_the_header(self, capsys, tmp_path):
        # rejected before any per-vertex list is built for the million vertices
        path = tmp_path / "huge.graph"
        path.write_text("cubic 1000000 0\n")
        code, out, err = run(capsys, "search", str(path), "covering")
        assert code == 2
        assert out == ""
        assert err == "parse error: bad header 'cubic 1000000 0': a cubic graph has 3n = 2m\n"


class TestCertificateFormat:
    def test_round_trip(self):
        cert = Certificate("fr-triple", ((0, 1), (2, 3), (4, 5)))
        text = write_certificate(cert)
        assert parse_certificate(text) == cert
        assert write_certificate(parse_certificate(text)) == text

    def test_ffamily_round_trip(self):
        cert = Certificate("ffamily", ((10,), (11,), (12,), ()),
                           m=(10, 11, 12, 13, 14), n=(0, 2))
        text = write_certificate(cert)
        assert parse_certificate(text) == cert
        assert write_certificate(parse_certificate(text)) == text

    def test_wrong_matching_count_rejected(self):
        with pytest.raises(ParseError):
            parse_certificate("certificate covering\nmatching 0 1\n")

    @pytest.mark.parametrize("text,line", [
        ("certificate fr-triple\nmatching 0 1\nmatching 2 2\nmatching 3\n", "matching 2 2"),
        ("certificate ffamily\nm 0 2 0\nmember\nmember\nmember\nmember\nn\n", "m 0 2 0"),
    ], ids=["fr-triple", "ffamily"])
    def test_repeated_edge_id_rejected(self, text, line):
        with pytest.raises(ParseError, match=f"repeated edge id in '{line}'"):
            parse_certificate(text)


class TestGen:
    def test_petersen(self, capsys):
        code, out, _ = run(capsys, "gen", "petersen")
        assert code == 0
        assert out.splitlines()[0] == "cubic 10 15"

    def test_flower_five(self, capsys):
        code, out, _ = run(capsys, "gen", "flower", "5")
        assert code == 0
        assert out.splitlines()[0] == "cubic 20 30"

    def test_flower_four_exits_two(self, capsys):
        code, _, err = run(capsys, "gen", "flower", "4")
        assert code == 2
        assert "odd" in err

    def test_unknown_family_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "tractor"])
        assert exc.value.code == 2

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "goldberg", "3")
        _, out2, _ = run(capsys, "gen", "goldberg", "3")
        assert out1 == out2

    @pytest.mark.parametrize("args,n", [
        (("theta",), 2), (("k4",), 4), (("k33",), 6), (("cube",), 8),
        (("doubled-cycle", "6"), 6), (("ten-c5",), 10), (("goldberg", "3"), 24),
    ])
    def test_all_families(self, capsys, args, n):
        code, out, _ = run(capsys, "gen", *args)
        assert code == 0
        assert out.splitlines()[0].split()[1] == str(n)

    def test_extra_param_rejected(self, capsys):
        code, _, err = run(capsys, "gen", "petersen", "3")
        assert code == 2


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.graph"
    path.write_text(write_graph_file(petersen()))
    return str(path)


class TestSearchAndVerify:
    def test_search_covering_then_verify(self, capsys, tmp_path, petersen_file):
        code, out, _ = run(capsys, "search", petersen_file, "covering")
        assert code == 0
        cert_path = tmp_path / "covering.cert"
        cert_path.write_text(out)
        code, out, _ = run(capsys, "verify", petersen_file, str(cert_path))
        assert code == 0
        assert "valid" in out

    def test_search_fr_triple_and_ffamily(self, capsys, tmp_path, petersen_file):
        for target in ("fr-triple", "ffamily"):
            code, out, _ = run(capsys, "search", petersen_file, target)
            assert code == 0
            cert_path = tmp_path / f"{target}.cert"
            cert_path.write_text(out)
            code, out, _ = run(capsys, "verify", petersen_file, str(cert_path))
            assert code == 0

    def test_search_all_triples(self, capsys, petersen_file):
        code, out, _ = run(capsys, "search", petersen_file, "fr-triple", "--all")
        assert code == 0
        assert out.count("certificate fr-triple") == 20

    def test_k4_ffamily_exits_one(self, capsys, tmp_path):
        path = tmp_path / "k4.graph"
        from fulkerson_lab.generators import k4

        path.write_text(write_graph_file(k4()))
        code, out, _ = run(capsys, "search", str(path), "ffamily")
        assert code == 1
        assert out == ""

    def test_goldberg5_ffamily_is_absent_within_500k_nodes(self, capsys, tmp_path):
        path = tmp_path / "g5.graph"
        path.write_text(write_graph_file(goldberg(5)))
        code, out, _ = run(capsys, "search", str(path), "ffamily", "--budget", "500000")
        assert code == 1
        assert out == ""

    def test_budget_exhaustion_exits_three(self, capsys, tmp_path):
        path = tmp_path / "j5.graph"
        path.write_text(write_graph_file(flower_snark(5)))
        code, _, _ = run(capsys, "search", str(path), "ffamily", "--budget", "2")
        assert code == 3

    def test_negative_budget_is_a_usage_error(self, capsys, petersen_file):
        with pytest.raises(SystemExit) as exc:
            main(["search", petersen_file, "covering", "--budget", "-5"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err

    def test_malformed_budget_variable_exits_two(self, capsys, petersen_file, monkeypatch):
        monkeypatch.setenv("FULKERSON_LAB_BUDGET", "abc")
        code, out, err = run(capsys, "search", petersen_file, "covering")
        assert code == 2
        assert out == ""
        assert err == ("usage error: $FULKERSON_LAB_BUDGET: expected a non-negative node "
                       "count, got 'abc'\n")
        # --budget replaces the variable, which is then never read
        code, out, _ = run(capsys, "search", petersen_file, "covering", "--budget", "100000")
        assert code == 0
        assert out.startswith("certificate covering")

    def test_bad_covering_exits_one_with_report(self, capsys, tmp_path, petersen_file):
        code, out, _ = run(capsys, "search", petersen_file, "covering")
        lines = out.splitlines()
        lines[2] = lines[1]  # repeat one matching
        cert_path = tmp_path / "bad.cert"
        cert_path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", petersen_file, str(cert_path))
        assert code == 1
        assert "covered" in out

    def test_repeated_edge_id_exits_two(self, capsys, tmp_path, petersen_file):
        _, out, _ = run(capsys, "search", petersen_file, "covering")
        lines = out.splitlines()
        assert lines[1] == "matching 0 2 5 6 14"
        lines[1] += " 0"
        cert_path = tmp_path / "repeat.cert"
        cert_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", petersen_file, str(cert_path))
        assert code == 2
        assert out == ""
        assert err == "parse error: repeated edge id in 'matching 0 2 5 6 14 0'\n"

    def test_truncated_certificate_exits_two(self, capsys, tmp_path, petersen_file):
        cert_path = tmp_path / "trunc.cert"
        cert_path.write_text("certificate covering\nmatching 0 2 5 6 14\n")
        code, _, err = run(capsys, "verify", petersen_file, str(cert_path))
        assert code == 2
        assert "parse error" in err

    def test_search_strategy_flag(self, capsys, tmp_path):
        path = tmp_path / "j5.graph"
        path.write_text(write_graph_file(flower_snark(5)))
        code, out, _ = run(capsys, "search", str(path), "covering", "--strategy", "a1a2")
        assert code == 0
        assert out == """certificate covering
matching 0 2 6 8 14 17 20 23 26 27
matching 0 2 6 9 13 16 20 23 25 27
matching 1 3 10 12 14 15 19 22 25 28
matching 1 4 8 10 12 16 19 22 24 29
matching 3 5 7 9 11 15 18 21 26 29
matching 4 5 7 11 13 17 18 21 24 28
"""

    @pytest.mark.parametrize("extra", [("fr-triple",), ("ffamily",), ("covering", "--all")])
    def test_strategy_that_does_nothing_is_a_usage_error(self, capsys, petersen_file, extra):
        code, out, err = run(capsys, "search", petersen_file, *extra, "--strategy", "color")
        assert code == 2
        assert out == ""
        assert err == "usage error: --strategy applies only to a covering search without --all\n"

    def test_triple_with_common_edge_exits_one(self, capsys, tmp_path, petersen_file):
        code, out, _ = run(capsys, "search", petersen_file, "fr-triple")
        lines = out.splitlines()
        lines[2] = lines[1] = lines[3]  # all three matchings equal
        cert_path = tmp_path / "bad-triple.cert"
        cert_path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", petersen_file, str(cert_path))
        assert code == 1
        assert "invalid certificate" in out

    def test_ffamily_export_annotations(self, capsys, tmp_path, petersen_file):
        code, out, _ = run(capsys, "search", petersen_file, "ffamily")
        cert_path = tmp_path / "fam.cert"
        cert_path.write_text(out)
        code, out, _ = run(capsys, "export", petersen_file, "--format", "json",
                           "--certificate", str(cert_path))
        assert code == 0
        notes = json.loads(out)["annotations"]
        assert set(notes.values()) <= {"m", "A", "B", "C", "D", "n"}
        assert sorted(set(notes.values())) == ["A", "B", "C", "D", "m", "n"]


class TestPipeline:
    def test_petersen_dot_petersen(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base petersen\ndot type1 petersen\n")
        code, out, _ = run(capsys, "pipeline", str(recipe))
        assert code == 0
        assert out.splitlines()[0] == "cubic 18 27"
        assert "certificate ffamily" in out
        assert "certificate covering" in out

    def test_empty_recipe_base_only(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base petersen\n")
        code, out, _ = run(capsys, "pipeline", str(recipe))
        assert code == 0
        assert out.splitlines()[0] == "cubic 10 15"

    def test_bad_step_exits_one_naming_step(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base petersen\ndot type1 k4\n")
        code, _, err = run(capsys, "pipeline", str(recipe))
        assert code == 1
        assert "step 1" in err

    def test_type2_pair_inside_n_exits_one(self, capsys, tmp_path):
        from fulkerson_lab.ffamily import find_ffamily

        fam = find_ffamily(petersen()).value
        bad = min(fam.n_edges.members)
        other = next(e for e in sorted(petersen().edge_ids())
                     if e not in fam.m.members and e not in fam.n_edges.members)
        recipe = tmp_path / "recipe.txt"
        recipe.write_text(f"base petersen\ndot type2 petersen e1={bad} e2={other}\n")
        code, _, err = run(capsys, "pipeline", str(recipe))
        assert code == 1
        assert "step 1" in err

    def test_exhausted_budget_exits_three(self, capsys, tmp_path, monkeypatch):
        # Petersen's first family takes two nodes
        monkeypatch.setenv("FULKERSON_LAB_BUDGET", "1")
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base petersen\ndot type1 petersen\n")
        code, out, err = run(capsys, "pipeline", str(recipe))
        assert code == 3
        assert out == ""
        assert err == ("pipeline failed: the F-family search on the base graph ran out of "
                       "its 1-node budget ($FULKERSON_LAB_BUDGET)\n")

    @pytest.mark.parametrize("line,option", [
        ("dot type1 petersen e1=999", "e1=999"),
        ("dot type2 petersen e3=15", "e3=15"),
    ])
    def test_edge_option_outside_its_graph_exits_two(self, capsys, tmp_path, line, option):
        recipe = tmp_path / "recipe.txt"
        recipe.write_text(f"base petersen\n{line}\n")
        code, out, err = run(capsys, "pipeline", str(recipe))
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: step 1: {option} names no edge")

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_malformed_budget_variable_exits_two(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.setenv("FULKERSON_LAB_BUDGET", value)
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base petersen\ndot type1 petersen\n")
        code, out, err = run(capsys, "pipeline", str(recipe))
        assert code == 2
        assert out == ""
        assert err == ("usage error: $FULKERSON_LAB_BUDGET: expected a non-negative node "
                       f"count, got '{value}'\n")

    def test_emit_intermediate_onto_a_file_exits_two(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base petersen\n")
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        code, out, err = run(capsys, "pipeline", str(recipe), "--emit-intermediate", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: cannot write {target}: ")
        assert target.read_text() == "not a directory\n"

    def test_emit_intermediate(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base petersen\ndot type1 petersen\n")
        outdir = tmp_path / "stages"
        code, _, _ = run(capsys, "pipeline", str(recipe), "--emit-intermediate", str(outdir))
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == ["stage0.graph", "stage1.graph"]

    def test_unparseable_recipe_exits_two(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("start petersen\n")
        code, _, err = run(capsys, "pipeline", str(recipe))
        assert code == 2

    def test_options_on_base_line_exit_two(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base petersen e1=3\n")
        code, out, err = run(capsys, "pipeline", str(recipe))
        assert code == 2
        assert out == ""
        assert err == ("parse error: bad base line 'base petersen e1=3': step options "
                       "belong on dot lines\n")

    def test_options_only_line_exits_two(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base petersen\ne1=3\n")
        code, out, err = run(capsys, "pipeline", str(recipe))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error:")


class TestBadInputExitsTwo:
    """Every malformed input file exits 2 with one `parse error: ...` line on
    stderr, nothing on stdout and no traceback."""

    @staticmethod
    def assert_parse_error(capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"parse error: {message}\n")

    @pytest.mark.parametrize("text,message", [
        ("# nothing\n\n", "empty graph file"),
        ("cubic two 3\n", "bad header numbers in 'cubic two 3'"),
        ("cubic 2 3\n0 0 1\n1 0 1 7\n2 0 1\n", "bad edge line '1 0 1 7'"),
        ("cubic 2 3\n0 0 1\n1 0 x\n2 0 1\n", "bad edge line '1 0 x'"),
        ("cubic 2 3\n0 0 1\n0 0 1\n2 0 1\n", "edge id 0 missing, repeated or out of range"),
        ("cubic 2 3\n0 0 1\n1 0 1\n3 0 1\n", "edge id 3 missing, repeated or out of range"),
        ("cubic 2 3\n0 0 0\n1 0 1\n2 1 1\n",
         "not a cubic graph: cubic graph may not contain loops"),
    ], ids=["empty", "header-numbers", "edge-fields", "edge-number", "edge-repeated",
            "edge-out-of-range", "loop"])
    def test_graph_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        self.assert_parse_error(capsys, ["search", str(path), "covering"], message)

    def test_unreadable_file(self, capsys, tmp_path):
        path = tmp_path / "missing.graph"
        self.assert_parse_error(capsys, ["search", str(path), "covering"],
                                f"cannot read {path}: [Errno 2] No such file or directory: "
                                f"'{path}'")

    @pytest.mark.parametrize("text,message", [
        ("", "empty certificate file"),
        ("certificate\n", "bad header 'certificate'"),
        ("certificate pairing\n", "unknown certificate kind 'pairing'"),
        ("certificate covering\nmember 0 1\n", "unexpected line 'member 0 1'"),
        ("certificate ffamily\nm 0 1\nm 2 3\n", "duplicate m line"),
        ("certificate ffamily\nn 0 1\nn 2 3\n", "duplicate n line"),
        ("certificate fr-triple\nmatching 0 a 2\n", "bad edge ids in '0 a 2'"),
        ("certificate ffamily\nm 0 2 5 6 14\nmember 0\nmember 2\nmember 5\nn 1 3\n",
         "ffamily certificate needs m, four members and n"),
    ], ids=["empty", "header", "kind", "unexpected-line", "duplicate-m", "duplicate-n",
            "edge-ids", "ffamily-parts"])
    def test_certificate(self, capsys, tmp_path, petersen_file, text, message):
        path = tmp_path / "bad.cert"
        path.write_text(text)
        self.assert_parse_error(capsys, ["verify", petersen_file, str(path)], message)

    @pytest.mark.parametrize("text,message", [
        ("# only a comment\n", "empty recipe"),
        ("base petersen\ndot type1 petersen e4=1\n", "unknown step option 'e4'"),
        ("base petersen\ndot type1 petersen e1=x\n", "bad value in 'e1=x'"),
        ("base petersen\nbase petersen\n", "duplicate base line"),
        ("base petersen\ndot type3 petersen\n", "bad dot line 'dot type3 petersen'"),
        ("base petersen\ndot type1 flower 4\n",
         "bad dot factor in 'dot type1 flower 4': flower graph needs an odd k >= 3, got 4"),
        ("dot type1 petersen\n", "recipe has no base line"),
        ("base pentagon\n", "bad base line 'base pentagon': unknown family 'pentagon'"),
        ("base petersen 3\n", "bad base line 'base petersen 3': petersen takes no parameter"),
        ("base flower\n",
         "bad base line 'base flower': flower takes exactly one integer parameter"),
        ("base\n", "bad base line 'base': names no family"),
    ], ids=["empty", "step-option", "value", "duplicate-base", "dot-line", "dot-factor",
            "no-base", "base-family", "base-parameter", "base-no-parameter", "base-no-family"])
    def test_recipe(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.recipe"
        path.write_text(text)
        self.assert_parse_error(capsys, ["pipeline", str(path)], message)


class TestGoldenOutput:
    """Byte-exact certificates: the CLI's canonical order must not drift."""

    J5_COVERING = """certificate covering
matching 0 2 6 8 14 17 20 23 26 27
matching 0 2 6 9 13 16 20 23 25 27
matching 1 4 8 10 12 16 19 22 24 29
matching 1 3 10 12 14 15 19 22 25 28
matching 3 5 7 9 11 15 18 21 26 29
matching 4 5 7 11 13 17 18 21 24 28
"""
    G5_COVERING = """certificate covering
matching 1 3 7 12 13 14 19 20 21 26 27 28 33 36 40 46 50 56 58 59
matching 1 3 8 10 13 15 17 20 22 24 27 29 31 36 42 46 52 56 58 59
matching 2 4 6 9 11 16 18 22 24 28 33 37 40 43 44 47 51 53 54 55
matching 2 4 6 8 10 14 19 23 25 30 32 37 41 43 44 45 52 53 54 55
matching 0 5 7 12 15 17 23 25 30 32 34 35 38 39 41 47 48 49 50 57
matching 0 5 9 11 16 18 21 26 29 31 34 35 38 39 42 45 48 49 51 57
"""
    # 20 certificates, 1699 bytes; the first one is spelled out
    PETERSEN_TRIPLES_SHA256 = "5f7353f83b669e8ca2eb62b5e2b95489263ceac1f1904be970e58b12d9ed5470"
    PETERSEN_FIRST_TRIPLE = """certificate fr-triple
matching 0 2 5 6 14
matching 0 3 8 9 12
matching 1 3 6 7 10

"""
    J5_FFAMILY = """certificate ffamily
m 0 2 6 8 14 17 20 23 26 27
member 8
member 14
member 17
member 26
n 9 13 16 25
"""
    # 30 certificates, 2499 bytes; the first one is spelled out
    PETERSEN_FAMILIES_SHA256 = "e1016d246583ee2989baa6130def3ac446cf5a1e6a5808c0c4fccf2451a36bce"
    PETERSEN_FIRST_FAMILY = """certificate ffamily
m 0 2 5 6 14
member 2
member 5
member 6
member 14
n 3 8 9 12

"""

    @pytest.mark.parametrize("make,want", [
        (lambda: flower_snark(5), J5_COVERING),
        (lambda: goldberg(5), G5_COVERING),
    ], ids=["J5", "G5"])
    def test_search_covering(self, capsys, tmp_path, make, want):
        path = tmp_path / "g.graph"
        path.write_text(write_graph_file(make()))
        code, out, _ = run(capsys, "search", str(path), "covering")
        assert code == 0
        assert out == want

    def test_search_all_petersen_triples(self, capsys, petersen_file):
        code, out, _ = run(capsys, "search", petersen_file, "fr-triple", "--all")
        assert code == 0
        assert out.startswith(self.PETERSEN_FIRST_TRIPLE)
        assert hashlib.sha256(out.encode()).hexdigest() == self.PETERSEN_TRIPLES_SHA256

    # `search.J11.fr-triple` in bench/golden.json, taken from the enumerating search
    J11_TRIPLE_SHA256 = "6742e91e1e96724914000243f1affeb63725c2108d36aa3350b0fbe979e15680"

    def test_search_j11_fr_triple(self, capsys, tmp_path):
        path = tmp_path / "j11.graph"
        path.write_text(write_graph_file(flower_snark(11)))
        code, out, _ = run(capsys, "search", str(path), "fr-triple")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.J11_TRIPLE_SHA256

    def test_enumerate_fr_triples_gives_the_pinned_triples(self):
        res = enumerate_fr_triples(petersen())
        assert res.complete
        out = "\n".join(write_certificate(certificate_of_triple(t)) for t in res.value)
        assert hashlib.sha256(out.encode()).hexdigest() == self.PETERSEN_TRIPLES_SHA256

    def test_search_j5_ffamily(self, capsys, tmp_path):
        path = tmp_path / "j5.graph"
        path.write_text(write_graph_file(flower_snark(5)))
        code, out, _ = run(capsys, "search", str(path), "ffamily")
        assert code == 0
        assert out == self.J5_FFAMILY

    def test_search_all_petersen_families(self, capsys, petersen_file):
        code, out, _ = run(capsys, "search", petersen_file, "ffamily", "--all")
        assert code == 0
        assert out.count("certificate ffamily") == 30
        assert out.startswith(self.PETERSEN_FIRST_FAMILY)
        assert hashlib.sha256(out.encode()).hexdigest() == self.PETERSEN_FAMILIES_SHA256

    # stdout of `pipeline` on `base petersen`, `dot type1 petersen`, then 1 or 8
    # lines of `dot type2 petersen`: `pipeline.composite26` and `pipeline.chain8`
    # in bench/golden.json
    PIPELINE_SHA256 = {
        1: "0a038d6e1a09b6540b22a47671c96af85bec1386a87a56bdb53713de9234ca27",
        8: "a4e5edfc5bfc720da57dfae0b8df16e9db4cf77f472cc7d3a7934883d093533e",
    }

    @pytest.mark.parametrize("type2_steps", [1, 8], ids=["composite26", "chain8"])
    def test_pipeline(self, capsys, tmp_path, type2_steps):
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base petersen\ndot type1 petersen\n"
                          + "dot type2 petersen\n" * type2_steps)
        code, out, _ = run(capsys, "pipeline", str(recipe))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PIPELINE_SHA256[type2_steps]

    J5_A1A2_COVERING_SHA256 = "80b75850425c6b5ba6b3b89aa5d096ad94ce1b454a110eb21d3c7e17a24573f4"

    def test_search_j5_covering_by_a1a2(self, capsys, tmp_path):
        path = tmp_path / "j5.graph"
        path.write_text(write_graph_file(flower_snark(5)))
        code, out, _ = run(capsys, "search", str(path), "covering", "--strategy", "a1a2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.J5_A1A2_COVERING_SHA256

    # taken from the index-triple scan that A1A2 walked before the pair walk
    A1A2_COVERING_SHA256 = {
        "J7": "c9271e2f91785183eda6db1f42b4fde1bf7aae55a927aed5cad1cee680f836da",
        "G5": "3548e82ff02437e7f8d1f63bc6d7f2e3b612e7e2d754a4d515ee6cd0b2e4f8cf",
        "J15": "4de9dee9cb9d6187f1b35ba94301e153048a31ecbb9e8af87432c3a57da02621",
        "chain8": "224ac20a80f6643a251a82febbace362d72ae53a9eb4082464b7bb28a6ed0546",
    }

    @pytest.mark.parametrize("name,make", [
        ("J7", lambda: flower_snark(7)), ("G5", lambda: goldberg(5)),
        ("J15", lambda: flower_snark(15)), ("chain8", chain8),
    ], ids=["J7", "G5", "J15", "chain8"])
    def test_search_covering_by_a1a2(self, capsys, tmp_path, name, make):
        path = tmp_path / "g.graph"
        path.write_text(write_graph_file(make()))
        code, out, _ = run(capsys, "search", str(path), "covering", "--strategy", "a1a2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.A1A2_COVERING_SHA256[name]

    # the certificates of the covering and of the family
    EXPANSION_C5_SHA256 = ("1ad81274f6edde772349f4a76b51b0b8112ff9abbee8254833d145a61acc7eb3",
                           "6aa1e0aea1998585c3e43c9ab4c7fdc737eeb4ae7566eff08451213fd25e70a9")

    def test_c5_structure_of_the_petersen_expansion(self):
        res = covering_from_c5_structure(petersen_expansion().graph)
        certs = (certificate_of_covering(res.covering), certificate_of_family(res.family))
        assert tuple(hashlib.sha256(write_certificate(c).encode()).hexdigest()
                     for c in certs) == self.EXPANSION_C5_SHA256


class TestVerifyFamilyOutput:
    """Byte-exact `verify` reports for invalid F-family certificates."""

    @pytest.mark.parametrize("make,cert,want", [
        (pentagons_and_hexagon,
         "certificate ffamily\nm 16 17 18 19 20 21 22 23\nmember 16\nmember 17\n"
         "member 18 22 23\nmember 19\nn 0 2 5 7 11 14\n",
         "member 2 is not balanced for the perfect matching\n"
         "cycle 2 (at vertex 10): member 2 splits the cycle into an even arc (not balanced)\n"),
        (petersen,
         "certificate ffamily\nm 0 2 5 6 14\nmember\nmember\nmember\nmember\nn\n",
         "member 0 is not balanced for the perfect matching\n"
         "member 1 is not balanced for the perfect matching\n"
         "member 2 is not balanced for the perfect matching\n"
         "member 3 is not balanced for the perfect matching\n"
         "cycle 0 (at vertex 0): an odd cycle must meet each member exactly once\n"
         "cycle 1 (at vertex 1): an odd cycle must meet each member exactly once\n"),
        (ten_vertex_c5_example,
         "certificate ffamily\nm 10 11 12 13 14\nmember 10\nmember 11\nmember 12\n"
         "member 13\nn 1 3 6 8\n",
         "cycle 0 (at vertex 0): N does not restrict to a valid 2-edge matching "
         "of the determined vertices\n"),
        (cube_q3,
         "certificate ffamily\nm 0 5 8 11\nmember 0 5\nmember 8 11\nmember\nmember\n"
         "n 1 3 9 10\n",
         "member 2 is empty\nmember 3 is empty\n"),
    ], ids=["unbalanced-member", "odd-cycle-count", "n-not-a-pairing", "empty-members"])
    def test_invalid_family_report(self, capsys, tmp_path, make, cert, want):
        graph_path = tmp_path / "g.graph"
        graph_path.write_text(write_graph_file(make()))
        cert_path = tmp_path / "fam.cert"
        cert_path.write_text(cert)
        code, out, _ = run(capsys, "verify", str(graph_path), str(cert_path))
        assert code == 1
        assert out == want


class TestExport:
    def test_dot_with_covering_annotations(self, capsys, tmp_path, petersen_file):
        code, out, _ = run(capsys, "search", petersen_file, "covering")
        cert_path = tmp_path / "c.cert"
        cert_path.write_text(out)
        code, out, _ = run(capsys, "export", petersen_file, "--format", "dot",
                           "--certificate", str(cert_path))
        assert code == 0
        assert out.startswith("graph cubic {")
        # every edge label carries its two covering members
        labels = [line.split('label="')[1].split('"')[0]
                  for line in out.splitlines() if "label=" in line]
        assert len(labels) == 15
        assert all(len(lab.split(":")[1].split(",")) == 2 for lab in labels)

    def test_json_graph_only(self, capsys, petersen_file):
        code, out, _ = run(capsys, "export", petersen_file, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 10 and data["m"] == 15
        assert len(data["edges"]) == 15

    def test_bad_format_exits_two(self, capsys, petersen_file):
        with pytest.raises(SystemExit) as exc:
            main(["export", petersen_file, "--format", "svg"])
        assert exc.value.code == 2

    def test_unbindable_certificate_exits_one(self, capsys, tmp_path, petersen_file):
        _, out, _ = run(capsys, "search", petersen_file, "covering")
        lines = out.splitlines()
        lines[1] += " 999"
        cert_path = tmp_path / "c.cert"
        cert_path.write_text("\n".join(lines) + "\n")
        for fmt in ("dot", "json"):
            code, out, err = run(capsys, "export", petersen_file, "--format", fmt,
                                 "--certificate", str(cert_path))
            assert code == 1
            assert out == ""
            assert err == "invalid certificate: edge id 999 not in host graph\n"

    def test_covering_with_wrong_coverage_still_exports(self, capsys, tmp_path, petersen_file):
        _, out, _ = run(capsys, "search", petersen_file, "covering")
        lines = out.splitlines()
        lines[2] = lines[1]  # binds, but covers some edges once or three times
        cert_path = tmp_path / "c.cert"
        cert_path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", petersen_file, str(cert_path))
        assert code == 1
        code, out, _ = run(capsys, "export", petersen_file, "--format", "json",
                           "--certificate", str(cert_path))
        assert code == 0
        assert json.loads(out)["annotations"]["0"] == "0,1"

    def test_export_deterministic(self, capsys, petersen_file):
        _, out1, _ = run(capsys, "export", petersen_file, "--format", "json")
        _, out2, _ = run(capsys, "export", petersen_file, "--format", "json")
        assert out1 == out2


class TestThreadsFlag:
    def test_threads_is_a_usage_error(self, capsys, petersen_file):
        with pytest.raises(SystemExit) as exc:
            main(["search", petersen_file, "covering", "--threads", "4"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


class TestPatchPoints:
    """The CLI looks its library functions up in its own namespace on every
    call, so replacing them there (as an outside-in tracer does) sees every
    call the CLI makes."""

    @pytest.mark.parametrize("target,first,every", [
        ("fr-triple", "find_fr_triple", "enumerate_fr_triples"),
        ("covering", "find_fulkerson_covering", "enumerate_fulkerson_coverings"),
        ("ffamily", "find_ffamily", "enumerate_ffamilies"),
    ])
    def test_search_calls_the_names_bound_in_the_cli(self, capsys, monkeypatch,
                                                      petersen_file, target, first, every):
        calls = []

        def recording(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in (first, every):
            monkeypatch.setattr(cli, name, recording(name))
        code, _, _ = run(capsys, "search", petersen_file, target)
        assert (code, calls) == (0, [first])
        code, _, _ = run(capsys, "search", petersen_file, target, "--all")
        assert (code, calls) == (0, [first, every])

    def test_generators_are_looked_up_on_every_call(self, capsys, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(cli, "petersen", lambda: calls.append("petersen") or petersen())
        run(capsys, "gen", "petersen")
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base petersen\ndot type1 petersen\n")
        code, _, _ = run(capsys, "pipeline", str(recipe))
        assert code == 0
        assert calls == ["petersen"] * 3


class TestFirstMatchReach:
    """Searches that stop at a first match read the lazy canonical stream:
    outputs as when they listed every matching, at a fraction of the time,
    and "unknown" rather than "absent" past the matching cap."""

    # stdout of the listing searches, pinned from one run of them (J15 took
    # 1.4 s and the flower pipeline 13.8 s)
    J15_FFAMILY_SHA256 = "fefaca5fc64e9a464d2adcb4fb5ef36dfc5f40b88dc168ab02e7a03c1bfd13ec"
    FLOWER17_PIPELINE_SHA256 = "74090a52c05f64bf79bcf4d73aca313b4bc3462350074ff7a6dfb56d44748336"

    def test_search_j15_ffamily(self, capsys, tmp_path):
        path = tmp_path / "j15.graph"
        path.write_text(write_graph_file(flower_snark(15)))
        start = time.perf_counter()
        code, out, _ = run(capsys, "search", str(path), "ffamily")
        assert time.perf_counter() - start < 0.1
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.J15_FFAMILY_SHA256

    def test_flower17_pipeline(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base flower 17\ndot type1 petersen\ndot type2 petersen\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "pipeline", str(recipe))
        assert time.perf_counter() - start < 0.5
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.FLOWER17_PIPELINE_SHA256

    # ten-c5's first matching with a two-odd-cycle 2-factor is its 9th of 9
    @pytest.mark.parametrize("cap,exit_code", [(None, 0), (9, 0), (8, 3), (2, 3)])
    def test_ten_c5_factor_past_the_cap_exits_three(self, capsys, tmp_path, monkeypatch,
                                                    cap, exit_code):
        if cap is not None:
            monkeypatch.setattr("fulkerson_lab.matchcolor.DEFAULT_PM_LIMIT", cap)
        recipe = tmp_path / "recipe.txt"
        recipe.write_text("base petersen\ndot type2 ten-c5\n")
        code, _, err = run(capsys, "pipeline", str(recipe))
        assert code == exit_code
        if exit_code:
            assert err.startswith("pipeline failed: step 1 failed: none of the first")
