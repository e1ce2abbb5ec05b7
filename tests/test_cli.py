from __future__ import annotations

import json
import shutil

import pytest

from groundedl.cli import main
from conftest import FIXTURES


@pytest.fixture
def files(tmp_path):
    for name in ("gadget_i.graph", "c4.graph", "c4_grounded_l.json",
                 "gadget_i_lj.json", "k222.graph"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_match_found(files, capsys):
    code, out, _ = run(capsys, "match", "-g", str(files / "gadget_i.graph"), "-p", "P2")
    assert code == 0
    assert json.loads(out.splitlines()[0]) == {
        "positions": [1, 2, 3, 4], "vertices": [1, 2, 3, 4]}


def test_match_absent(files, capsys):
    code, out, _ = run(capsys, "match", "-g", str(files / "c4.graph"), "-p", "P1", "--all")
    assert code == 1 and out == ""


def test_orders(files, capsys):
    code, out, _ = run(capsys, "orders", "-g", str(files / "c4.graph"),
                       "--patterns", "P1,P2", "--limit", "2")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[0]["order"] == [1, 2, 4, 3]
    assert len(lines) == 2


def test_orders_none(files, capsys):
    code, out, _ = run(capsys, "orders", "-g", str(files / "k222.graph"),
                       "--patterns", "MPT")
    assert code == 1 and out == ""


def test_recognize_member(files, capsys):
    code, out, _ = run(capsys, "recognize", "-g", str(files / "c4.graph"),
                       "--class", "grounded-l")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True and payload["order"] == [1, 2, 4, 3]


def test_recognize_nonmember(files, capsys):
    code, out, _ = run(capsys, "recognize", "-g", str(files / "k222.graph"),
                       "--class", "mpt")
    assert code == 1 and json.loads(out)["member"] is False


def test_recognize_budget_exhausted(tmp_path, capsys):
    graph = tmp_path / "c5.graph"
    graph.write_text("5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n")
    code, out, _ = run(capsys, "recognize", "-g", str(graph),
                       "--class", "grounded-lj", "--budget", "1")
    assert code == 3 and json.loads(out)["budget_exhausted"] is True


def test_build_then_verify_ok(files, capsys, tmp_path):
    code, out, _ = run(capsys, "build", "-g", str(files / "c4.graph"),
                       "--class", "grounded-l")
    assert code == 0
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(out)
    code, out, _ = run(capsys, "verify", "-g", str(files / "c4.graph"),
                       "-r", str(rep_file))
    assert code == 0 and json.loads(out)["ok"] is True


def test_verify_failure_is_data(files, capsys):
    # gadget witness against the wrong graph: extra/missing edges, exit 1
    code, out, _ = run(capsys, "verify", "-g", str(files / "c4.graph"),
                       "-r", str(files / "gadget_i_lj.json"))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False


def test_verify_rejects_boolean_vertex(files, capsys):
    doc = json.loads((files / "c4_grounded_l.json").read_text())
    doc["shapes"][0]["vertex"] = True
    bad = files / "bool_vertex.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "-g", str(files / "c4.graph"), "-r", str(bad))
    assert code == 2 and out == "" and "vertex" in err


def test_oracle_feasible_and_infeasible(files, capsys):
    code, out, _ = run(capsys, "oracle", "-g", str(files / "gadget_i.graph"),
                       "--types", "l")
    assert code == 1 and out.strip() == "infeasible"
    code, out, _ = run(capsys, "oracle", "-g", str(files / "gadget_i.graph"),
                       "--types", "lj")
    assert code == 0
    assert json.loads(out)["types"] == ["L", "L", "J", "L"]


def test_extend(files, capsys, tmp_path):
    code, out, _ = run(capsys, "extend", "-g", str(files / "c4.graph"),
                       "-r", str(files / "c4_grounded_l.json"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["shapes"]) == 24


def test_gadget_check(files, capsys):
    code, out, _ = run(capsys, "gadget", "--id", "t3i", "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["l-only-infeasible"] == "checked-pass"
    assert payload["checks"]["cycle-extension-not-grounded-l"] == "asserted-by-paper"


def test_render(files, capsys, tmp_path):
    out_file = tmp_path / "out.svg"
    code, _, _ = run(capsys, "render", "-r", str(files / "gadget_i_lj.json"),
                     "-o", str(out_file), "--labels")
    assert code == 0
    assert out_file.read_text().startswith("<svg")


def test_usage_error_bad_file(capsys):
    code, _, err = run(capsys, "match", "-g", "/nonexistent.graph", "-p", "P1")
    assert code == 2 and "error" in err


def test_usage_error_bad_format(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("2 1\n1 3\n")
    code, _, err = run(capsys, "match", "-g", str(bad), "-p", "P1")
    assert code == 2 and "outside" in err


def _c4_rep_with(files, edit) -> str:
    doc = json.loads((files / "c4_grounded_l.json").read_text())
    edit(doc)
    path = files / "hostile.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("edit,message", [
    (lambda d: d.update(shapes=5), "'shapes' must be a list"),
    (lambda d: d["shapes"][0].update(reach="1e999999999"), "exponent 999999999 exceeds"),
    (lambda d: d["shapes"][0].update(reach="1" * 1001), "more than 1000 digits"),
    (lambda d: d.update(kind="GROUNDED_STRING", shapes=[
        {"vertex": 1, "tag": "POLYLINE", "points": [1, 2]}]), "points must be"),
])
def test_verify_hostile_representation_exits_2(files, capsys, edit, message):
    code, out, err = run(capsys, "verify", "-g", str(files / "c4.graph"),
                         "-r", _c4_rep_with(files, edit))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_match_huge_header_exits_2(tmp_path, capsys):
    bad = tmp_path / "huge.graph"
    bad.write_text("99999999999 0\n")
    code, out, err = run(capsys, "match", "-g", str(bad), "-p", "P1")
    assert code == 2 and out == ""
    assert err == "error: graph order 99999999999 exceeds the limit 10000\n"
