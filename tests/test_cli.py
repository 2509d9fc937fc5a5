import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrgr.vgring
from arrgr.arrangement import arrangement_from_json, braid, save_arrangement
from arrgr.circuits import circuits_from_arrangement, circuits_from_json
from arrgr.cli import main
from arrgr.corpus import parallel_pair


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chambers_text(capsys):
    code, out, _ = run(capsys, "--braid", "3", "chambers")
    assert code == 0
    assert out.splitlines()[:2] == ["+++", "++-"]
    assert "count: 6" in out


def test_chambers_json_roundtrips_arrangement(capsys):
    code, out, _ = run(capsys, "--braid", "3", "chambers", "--json")
    assert code == 0
    data = json.loads(out)
    assert arrangement_from_json(data["arrangement"]) == braid(3)
    assert data["count"] == 6


def test_circuits_json_roundtrips(capsys):
    code, out, _ = run(capsys, "--json", "--braid", "4", "circuits")
    assert code == 0
    data = json.loads(out)
    assert data["axioms_ok"] is True
    assert circuits_from_json(data) == circuits_from_arrangement(braid(4))


def test_vg_json_schema(capsys):
    code, out, _ = run(capsys, "--braid", "3", "vg", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [1, 4, 6, 6]
    assert data["gr"] == [1, 3, 2, 0]
    assert data["chambers"] == 6
    assert data["presentation_dim"] == 6


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ["vg", "rees"])
@pytest.mark.parametrize("name, source", [
    ("braid3", ["--braid", "3"]),
    ("semi3", ["--semiorder", "3"]),
    ("pair", None),
])
def test_relation_listing_matches_golden(capsys, tmp_path, command, name, source):
    """The full text output, so a reordered or re-signed relation shows."""
    if source is None:
        path = tmp_path / "pair.json"
        save_arrangement(parallel_pair(), path)
        source = ["--file", str(path)]
    code, out, _ = run(capsys, *source, command)
    assert code == 0
    assert out == (GOLDEN / f"{name}_{command}.txt").read_text()


def test_vg_point_example(capsys, tmp_path):
    path = tmp_path / "point.json"
    save_arrangement(
        arrangement_from_json({"dim": 1, "forms": [
            {"linear": ["1"], "constant": "0", "label": "x"}]}), path)
    code, out, _ = run(capsys, "--file", str(path), "vg")
    assert code == 0
    assert "dims:   1 2" in out
    assert "ex^2 - ex" in out


def test_poincare_text(capsys):
    code, out, _ = run(capsys, "--semiorder", "3", "poincare")
    assert code == 0
    assert out.strip() == "1 + 6t^2 + 12t^4"


def test_characters_b4_table(capsys):
    code, out, _ = run(capsys, "--braid", "4", "characters",
                       "--group", "Sn-coordinates")
    assert code == 0
    assert "grade 2: (3,1):1  (2,2):2  (2,1,1):1  (1,1,1,1):1" in out
    assert "chamber char: 24  0  0  0  0" in out


def test_characters_in_dimension_zero(capsys, tmp_path):
    # S_0 has one class, the empty partition "()", and Q^0 one chamber
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": 0, "forms": []}))
    code, out, err = run(capsys, "--file", str(path), "characters")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["classes:      ()", "class sizes:  1"]
    code, out, err = run(capsys, "--file", str(path), "characters", "--json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["classes"], data["chamber_character"]) == (["()"], ["1"])


def test_order_flag(capsys):
    code, out, _ = run(capsys, "--braid", "3", "nbc", "--order", "23,13,12")
    assert code == 0
    assert "grade 1: 3" in out
    code, _, err = run(capsys, "--braid", "3", "nbc", "--order", "23,13")
    assert code == 2


@pytest.mark.parametrize("command", ["rees", "poincare"])
def test_order_does_not_change_the_nbc_counts(capsys, command):
    """The NBC counts do not depend on the ordering, so `rees` and
    `poincare` print the same with and without `--order`; a bad order is
    still refused."""
    plain = run(capsys, "--semiorder", "3", command)
    assert plain[0] == 0
    assert run(capsys, "--semiorder", "3", command,
               "--order", "32,31,23,21,13,12") == plain
    assert run(capsys, "--semiorder", "3", command, "--order", "32,31")[0] == 2


def test_semiorder4_gets_an_answer(capsys):
    """Its affine circuits fail the central elimination axiom, but only
    across empty flats, which used to reject the whole arrangement."""
    code, out, _ = run(capsys, "--semiorder", "4", "nbc", "--json")
    assert code == 0
    assert json.loads(out)["counts"] == [1, 12, 60, 110]
    for command in ("circuits", "vg", "rees", "cordovil"):
        assert run(capsys, "--semiorder", "4", command)[0] == 0, command


def test_rees_and_cordovil_pass(capsys):
    assert run(capsys, "--semiorder", "2", "rees")[0] == 0
    assert run(capsys, "--braid", "3", "cordovil")[0] == 0


@pytest.mark.parametrize("fault", ["leading form", "spot check"])
def test_cordovil_verification_failure_exits_1(capsys, monkeypatch, fault):
    """A leading form that matches no circuit boundary, or a monomial whose
    straightening is not idempotent, fails `cordovil` with exit code 1."""
    import arrgr.cli
    from arrgr.cordovil import CordovilAlgebra, LeadingFormReport
    if fault == "leading form":
        monkeypatch.setattr(arrgr.cli, "leading_form_check",
                            lambda A, ordering: LeadingFormReport(False, (), ("x",)))
        line = "leading forms: MISMATCH"
    else:
        straighten = CordovilAlgebra.straighten
        calls = []

        def drifting(self, poly):  # every second call answers twice the first
            calls.append(poly)
            el = straighten(self, poly)
            return 2 * el if len(calls) % 2 == 0 else el
        monkeypatch.setattr(CordovilAlgebra, "straighten", drifting)
        line = "straightening spot checks: FAILED"
    code, out, _ = run(capsys, "--braid", "3", "cordovil")
    assert code == 1
    assert line in out.splitlines()


def test_input_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "--braid", "1", "chambers")[0] == 2
    assert run(capsys, "chambers")[0] == 2  # no source
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "--file", str(bad), "chambers")[0] == 2
    missing = tmp_path / "missing.json"
    assert run(capsys, "--file", str(missing), "chambers")[0] == 2


@pytest.mark.parametrize("constant, code", [
    ("0.1", 2), ("true", 2), ('"1/10"', 0), ('"-3/4"', 0), ('"1e5000"', 2),
    ('"0.5"', 2), ('" 1"', 2), ('"+1"', 2), ('"1_0"', 2), ('"\\u0661"', 2),
], ids=["float", "boolean", "rational-string", "negative-rational-string",
        "exponent", "decimal", "space", "plus-sign", "underscore", "non-ascii-digit"])
def test_arrangement_numbers_must_be_exact(capsys, tmp_path, constant, code):
    """Only integers and the canonical strings `arrangement_to_json` writes
    are read; an exponent would build a 5000-digit numerator."""
    path = tmp_path / "point.json"
    path.write_text('{"dim": 1, "forms": [{"linear": ["1"], '
                    f'"constant": {constant}, "label": "x"}}]}}')
    got, out, err = run(capsys, "--file", str(path), "chambers")
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1
    else:
        assert out.splitlines() == ["+", "-", "count: 2"]


@pytest.mark.parametrize("data, message", [
    ({"forms": []}, "malformed arrangement data: missing key 'dim'"),
    ({"dim": 1, "forms": [{"linear": ["1"], "constant": 0}]},
     "malformed arrangement data: missing key 'label'"),
    ([{"dim": 1}], "malformed arrangement data: expected an object, not a list"),
    ({"dim": 1, "forms": {"linear": ["1"], "constant": 0, "label": "x"}},
     'malformed arrangement data: "forms" must be a list, not an object'),
    ({"dim": 1, "forms": ["x"]},
     "malformed arrangement data: a form must be an object, not a string"),
    ({"dim": 1, "forms": [{"linear": ["1"], "constant": 0.1, "label": "x"}]},
     '0.1 is not exact; write integers or rational strings like "1/10"'),
    ({"dim": None, "forms": []},
     'malformed arrangement data: "dim" must be an integer or a rational '
     "string, not null"),
    ({"dim": 1, "forms": [{"linear": ["1"], "constant": [1], "label": "x"}]},
     'malformed arrangement data: "constant" must be an integer or a rational '
     "string, not a list"),
    ({"dim": 2, "forms": [{"linear": ["1", None], "constant": 0, "label": "x"}]},
     'malformed arrangement data: a "linear" entry must be an integer or a '
     "rational string, not null"),
    ({"dim": "abc", "forms": []},
     'malformed arrangement data: "dim" must be an integer or a rational '
     'string, not "abc"'),
    ({"dim": "1/2", "forms": []},
     'malformed arrangement data: "dim" must be an integer, not "1/2"'),
    ({"dim": 1, "forms": [{"linear": ["1"], "constant": "x", "label": "x"}]},
     'malformed arrangement data: "constant" must be an integer or a rational '
     'string, not "x"'),
    ({"dim": 2, "forms": [{"linear": ["1", "1/x"], "constant": 0, "label": "x"}]},
     'malformed arrangement data: a "linear" entry must be an integer or a '
     'rational string, not "1/x"'),
    ({"dim": 1, "forms": [{"linear": ["1"], "constant": "1\n2", "label": "x"}]},
     'malformed arrangement data: "constant" must be an integer or a rational '
     'string, not "1\\n2"'),
    ({"dim": 1, "forms": [{"linear": ["1"], "constant": "1e5000", "label": "x"}]},
     'malformed arrangement data: "constant" must be an integer or a rational '
     'string, not "1e5000"'),
    # a long string is quoted by its first 32 characters and its length
    ({"dim": 1, "forms": [{"linear": ["1e" + "1" * 5000], "constant": 0, "label": "x"}]},
     'malformed arrangement data: a "linear" entry must be an integer or a '
     'rational string, not "1e' + "1" * 30 + '"... (5002 characters)'),
    ({"dim": "1" * 5000 + "/1", "forms": []},
     'malformed arrangement data: "dim" must be an integer, not "'
     + "1" * 32 + '"... (5002 characters)'),
    ({"dim": 1, "forms": [{"linear": ["1/" + "0" * 5000], "constant": 0, "label": "x"}]},
     '"1/' + "0" * 30 + '"... (5002 characters) has a zero denominator'),
], ids=["missing-key", "missing-form-key", "top-level-list", "forms-object",
        "form-string", "float", "null-dim", "list-constant", "null-linear-entry",
        "string-dim", "rational-dim", "string-constant", "string-linear-entry",
        "multiline-constant", "exponent-constant", "long-linear-entry",
        "long-rational-dim", "long-zero-denominator"])
def test_arrangement_error_prefix_only_for_parse_errors(capsys, tmp_path, data, message):
    """An input error raised while reading a form keeps its own message;
    the "malformed arrangement data: " prefix is for parse errors only."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "--file", str(path), "chambers")
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("linear, kind", [("12", "a string"), (12, "an integer"),
                                          (None, "null")],
                         ids=["string", "integer", "null"])
def test_arrangement_linear_part_must_be_a_list(capsys, tmp_path, linear, kind):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"dim": 2, "forms": [
        {"linear": linear, "constant": "0", "label": "x"}]}))
    code, out, err = run(capsys, "--file", str(path), "chambers")
    assert (code, out) == (2, "")
    assert err == f'input error: "linear" must be a list, not {kind}\n'


@pytest.mark.parametrize("label, kind", [(None, "null"), (True, "a boolean"),
                                         (1.5, "a float"), (["x"], "a list")],
                         ids=["null", "boolean", "float", "list"])
def test_arrangement_labels_must_be_strings_or_integers(capsys, tmp_path, label, kind):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"dim": 1, "forms": [
        {"linear": ["1"], "constant": "0", "label": label}]}))
    code, out, err = run(capsys, "--file", str(path), "chambers")
    assert (code, out) == (2, "")
    assert err == ('input error: "label": a label must be a string or an '
                   f"integer, not {kind}\n")


def test_closed_stdout_exits_141_silently():
    """A reader that leaves early (`arrgr ... | head`) is not an input
    error: exit 128 + SIGPIPE and nothing on stderr."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "arrgr.cli", "--braid", "5",
                             "chambers"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=root)
    proc.stdout.close()  # before the child has computed anything to write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize("action", [
    [{"flips": {"a": -1}}],
    [],
    [{"perm": {"a": "a", "b": "b"}, "flips": {"a": "-1/2"}}],
], ids=["missing-perm", "empty-action", "non-integer-flip"])
def test_malformed_group_file_exit_2(capsys, tmp_path, action):
    arr = tmp_path / "pair.json"
    save_arrangement(parallel_pair(), arr)
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"group": "S2", "action": action}))
    code, out, err = run(capsys, "--file", str(arr), "characters",
                         "--group", str(group))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("label, kind", [(1.0, "a float"), (True, "a boolean"),
                                         (None, "null")],
                         ids=["float", "boolean", "null"])
def test_group_file_labels_must_be_strings_or_integers(capsys, tmp_path, label, kind):
    arr = tmp_path / "pair.json"
    save_arrangement(parallel_pair(), arr)
    group = tmp_path / "group.json"
    group.write_text(json.dumps(
        {"group": "S2", "action": [{"perm": {"a": label, "b": "b"}}]}))
    code, out, err = run(capsys, "--file", str(arr), "characters",
                         "--group", str(group))
    assert (code, out) == (2, "")
    assert err == ('input error: "perm": a label must be a string or an '
                   f"integer, not {kind}\n")


def test_group_file_unknown_label_keeps_its_message(capsys, tmp_path):
    arr = tmp_path / "pair.json"
    save_arrangement(parallel_pair(), arr)
    group = tmp_path / "group.json"
    group.write_text(json.dumps(
        {"group": "S2", "action": [{"perm": {"a": "x", "b": "b"}}]}))
    code, out, err = run(capsys, "--file", str(arr), "characters",
                         "--group", str(group))
    assert (code, out) == (2, "")
    assert err == "input error: no hyperplane labelled 'x'\n"
    group.write_text(json.dumps(
        {"group": "S2", "action": [{"perm": {"a": "a", "b": "b"},
                                    "flips": {"a": 0.5}}]}))
    code, out, err = run(capsys, "--file", str(arr), "characters",
                         "--group", str(group))
    assert (code, out) == (2, "")
    assert err == ('input error: "flips": a flip must be the integer 1 or -1, '
                   "not a float\n")


@pytest.mark.parametrize("element, message", [
    ({"perm": {"a": "a", "b": "b"}, "flips": {"a": "x"}},
     '"flips": a flip must be the integer 1 or -1, not a string'),
    ({"perm": {"a": "a", "b": "b"}, "flips": {"a": None}},
     '"flips": a flip must be the integer 1 or -1, not null'),
    ({"perm": {"a": "a", "b": "b"}, "flips": {"a": "-1"}},
     '"flips": a flip must be the integer 1 or -1, not a string'),
    ({"perm": {"a": "a", "b": "b"}, "flips": {"a": True}},
     '"flips": a flip must be the integer 1 or -1, not a boolean'),
    ({"perm": {"a": "a", "b": "b"}, "flips": {"a": 2}},
     '"flips": a flip must be the integer 1 or -1, not 2'),
    ({"perm": {"a": "a", "b": "b"}, "flips": ["a"]},
     '"flips" must be an object mapping labels to 1 or -1, not a list'),
    ({"perm": ["a"]}, '"perm" must be an object mapping labels to labels, not a list'),
    ({"perm": None}, '"perm" must be an object mapping labels to labels, not null'),
    ("a", "a group element must be an object, not a string"),
    ([{"perm": {"a": "a"}}], "a group element must be an object, not a list"),
], ids=["flip-string", "flip-null", "flip-string-minus-one", "flip-boolean",
        "flip-two", "flips-list", "perm-list", "perm-null", "element-string",
        "element-list"])
def test_group_file_fields_name_their_json_kind(capsys, tmp_path, element, message):
    """A wrong-shaped group element names its field and JSON kind, in the
    same words on every Python version, and a flip is the integer 1 or -1
    only: the string "-1" is refused."""
    arr = tmp_path / "pair.json"
    save_arrangement(parallel_pair(), arr)
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"group": "S2", "action": [element]}))
    code, out, err = run(capsys, "--file", str(arr), "characters",
                         "--group", str(group))
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("name, kind", [(None, "null"), (["S3"], "a list"),
                                        (3, "an integer")],
                         ids=["null", "list", "integer"])
def test_group_name_must_be_a_string(capsys, tmp_path, name, kind):
    """A group name that is not a JSON string is an input error naming its
    JSON kind, not its Python repr printed as the name."""
    group = tmp_path / "group.json"
    group.write_text(json.dumps(
        {"group": name, "action": [{"perm": {"12": "12", "13": "13", "23": "23"}}]}))
    code, out, err = run(capsys, "--braid", "3", "characters", "--group", str(group),
                         "--json")
    assert (code, out, err) == (2, "", f'input error: "group" must be a string, not {kind}\n')


def test_group_file_element_that_is_not_a_symmetry_exits_2(capsys, tmp_path):
    from test_symmetry import NOT_A_SYMMETRY
    group = tmp_path / "group.json"
    group.write_text(json.dumps(NOT_A_SYMMETRY))
    code, out, err = run(capsys, "--braid", "3", "characters", "--group", str(group))
    assert (code, out) == (2, "")
    assert err.startswith("input error: group element 2 (12->13, 13->12, 23->23) "
                          "is not a symmetry: image sign vector ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--file", "--group"])
def test_non_utf8_file_exits_2(capsys, tmp_path, flag):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    argv = (["--file", str(path), "chambers"] if flag == "--file"
            else ["--braid", "3", "characters", "--group", str(path)])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: not UTF-8 text: byte 0: invalid start byte\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python reads integer literals of any length")
@pytest.mark.parametrize("flag, dim, entry", [
    ("--file", "1", "1" * 5000), ("--group", "1", "1" * 5000),
    ("--file", "1", '"' + "1" * 5000 + '"'), ("--file", '"' + "1" * 5000 + '"', "1"),
], ids=["file-literal", "group-literal", "file-string", "dim-string"])
def test_numbers_over_the_digit_limit_exit_2(capsys, tmp_path, flag, dim, entry):
    """A number of 5000 digits is a one-line input error, not a traceback:
    as a JSON integer literal it names the file (`json.load` refuses it),
    as a string it is malformed arrangement data (`Fraction` refuses it),
    and as a "dim" string its digits are counted, not quoted."""
    path = tmp_path / "big.json"
    path.write_text('{"dim": ' + dim + ', "forms": [{"linear": [' + entry + '], '
                    '"constant": 0, "label": "x"}]}')
    argv = (["--file", str(path), "chambers"] if flag == "--file"
            else ["--braid", "3", "characters", "--group", str(path)])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    if dim != "1":
        assert err == ('input error: malformed arrangement data: "dim" has 5000 '
                       "digits, more than Python converts\n")
        return
    where = f"{path}: " if entry.isdigit() else "malformed arrangement data: "
    assert err.startswith(f"input error: {where}") and err.count("\n") == 1


@pytest.mark.parametrize("form, text", [
    ('{"linear": ["1/0"], "constant": "0", "label": "x"}', "1/0"),
    ('{"linear": ["1"], "constant": "3/00", "label": "x"}', "3/00"),
], ids=["linear", "constant"])
def test_zero_denominator_exits_2(capsys, tmp_path, form, text):
    path = tmp_path / "point.json"
    path.write_text(f'{{"dim": 1, "forms": [{form}]}}')
    code, out, err = run(capsys, "--file", str(path), "chambers")
    assert (code, out, err) == (2, "", f'input error: "{text}" has a zero denominator\n')


def test_generator_size_is_checked_before_building(capsys, monkeypatch):
    import arrgr.cli

    def refuse(n):
        raise AssertionError(f"generator called with n = {n}")

    for name in ("braid", "semiorder", "boolean"):
        monkeypatch.setattr(arrgr.cli, name, refuse)
    code, out, err = run(capsys, "--braid", "2000", "chambers")
    assert (code, out) == (3, "")
    assert err == "resource bound: arrangement has 1999000 > --nmax 14 forms\n"
    assert run(capsys, "--semiorder", "4", "--nmax", "11", "chambers")[0] == 3
    assert run(capsys, "--boolean", "15", "chambers")[0] == 3


def test_resource_bound_exit_3(capsys):
    assert run(capsys, "--braid", "20", "chambers")[0] == 3
    assert run(capsys, "--braid", "3", "--nmax", "2", "chambers")[0] == 3


@pytest.mark.parametrize("command", ["vg", "characters"])
def test_consistency_error_exits_1_with_one_line(capsys, monkeypatch, command):
    """A failed internal check reaches the user as one stderr line and exit
    code 1, with nothing on stdout: here the NBC certificate, forced to see
    dependent columns."""
    monkeypatch.setattr(arrgr.vgring, "_independent_mod_2", lambda A, sets: False)
    assert run(capsys, "--braid", "3", command) == (
        1, "", "consistency error: NBC certificate failed: the NBC columns "
               "are dependent mod 2\n")


def test_file_source(capsys, tmp_path):
    path = tmp_path / "pair.json"
    save_arrangement(parallel_pair(), path)
    code, out, _ = run(capsys, "--file", str(path), "chambers")
    assert code == 0
    assert "count: 3" in out


def test_json_flag_before_subcommand(capsys):
    code, out, _ = run(capsys, "--json", "--braid", "2", "poincare")
    assert code == 0
    assert json.loads(out)["coeffs"] == [1, 1]
