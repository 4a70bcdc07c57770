import numpy as np

from treebsde.artifacts import write_csv, write_json


def test_write_csv_formats_each_value_kind_exactly(tmp_path):
    path = tmp_path / "kinds.csv"
    write_csv(str(path), ("s", "b", "nb", "i", "ni", "f", "nf"), [
        ("a", True, np.bool_(False), 7, np.int64(-3), 0.1, np.float64(-2.5e-7)),
        ("", False, np.bool_(True), 0, np.int64(10 ** 12), 1.0, np.float64(np.inf)),
    ])
    assert path.read_bytes() == (
        b"s,b,nb,i,ni,f,nf\n"
        b"a,1,0,7,-3,1.00000000000e-01,-2.50000000000e-07\n"
        b",0,1,0,1000000000000,1.00000000000e+00,inf\n")


def test_write_json_sorts_keys_and_ends_with_a_newline(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"b": 1, "a": "é"})
    assert path.read_bytes() == '{\n  "a": "é",\n  "b": 1\n}\n'.encode("utf-8")
