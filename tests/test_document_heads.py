"""A command's ``--json`` flag always gives a document, and a series of
tensors names its structure by the rule a tensor follows."""

import io
import json

from hopftower.cli import run_command
from hopftower.jsonio import document_for, dumps, from_document, loads
from hopftower.linear import Tensor, TensorSpace
from hopftower.nsym import NSymElement, z
from hopftower.series import TruncatedSeries
from hopftower.sym import SymElement, e
from hopftower.verify import _QT_SPACE_11


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(argv), out, err)
    return code, out.getvalue().rstrip("\n")


def test_characteristic_numbers_print_scalar_documents():
    for argv, number in [(("charnum", "cp", "--dim", "3", "--partition", "2,1"), 20),
                         (("charnum", "quasitoric", "--space", _QT_SPACE_11,
                           "--composition", "1,1"), 4),
                         (("charnum", "quasitoric", "--space", _QT_SPACE_11,
                           "--composition", "2"), 0)]:
        assert run(*argv) == (0, str(number))
        code, out = run(*argv, "--json")
        assert (code, out) == (0, dumps(document_for(number)))
        assert loads(out) == number
    assert run("charnum", "cp", "--dim", "3", "--partition", "2,1", "--json") == (
        0, '{"algebra":"scalar","terms":[{"index":[],"coeff":"20"}]}')


def test_a_series_of_nsym_tensors_names_its_structure():
    nn = TensorSpace(NSymElement, NSymElement)
    s = TruncatedSeries(nn, {1: Tensor.of(z(1), z(1)), 2: Tensor.of(z(2), z())}, 2)
    doc = document_for(s, "bfk")
    assert list(doc)[:3] == ["algebra", "factors", "structure"]
    assert doc["structure"] == document_for(Tensor.of(z(1), z(1)), "bfk")["structure"] == "bfk"
    assert from_document(json.loads(dumps(doc))) == s
    assert "structure" not in document_for(s)
    sym = TruncatedSeries(TensorSpace(SymElement, SymElement), {1: Tensor.of(e(1), e(1))}, 2)
    assert "structure" not in document_for(sym, "bfk")
