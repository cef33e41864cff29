import copy
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import b2sets
from b2sets.cli import main
from b2sets.codes import int_det
from b2sets.construct import (
    build_meyer,
    build_product,
    build_proposition,
    build_w,
    build_w_circ,
)
from b2sets.errors import ParameterError
from b2sets.io import (
    canonical_json,
    family_from_dict,
    family_to_dict,
    load_elements,
    load_family,
    parse_element,
    save_elements,
    save_family,
)
from oracles import sampled_minors


@pytest.mark.parametrize(
    "family",
    [
        build_w(3, 10),
        build_w_circ(5, 14),
        build_w_circ(3, 6),
        build_meyer(4),
        build_proposition(2, 2),
        build_product(3, 6),
    ],
    ids=["W", "Wcirc", "Wcirc-warned", "meyer", "proposition", "product"],
)
def test_family_round_trip(family, tmp_path):
    path = tmp_path / "fam.json"
    save_family(family, path)
    loaded = load_family(path)
    assert loaded.kind == family.kind
    assert loaded.ambient == family.ambient
    assert loaded.params == family.params
    assert loaded.warnings == family.warnings
    assert [p.name for p in loaded.parts] == [p.name for p in family.parts]
    assert loaded.union_values() == family.union_values()
    if family.code:
        assert loaded.code == family.code
        assert loaded.matrix.rows == family.matrix.rows
    # serialization is canonical: dumping again is byte-identical
    assert canonical_json(family_to_dict(loaded)) == path.read_text()


def test_decimal_sparse_consistency_checked(tmp_path):
    fam = build_w(2, 3)
    data = family_to_dict(fam)
    data["parts"][0]["elements"][0]["decimal"] = "999"
    with pytest.raises(ParameterError):
        family_from_dict(data)


TAMPER_FAMILIES = {
    "W": family_to_dict(build_w(2, 3)),
    "Wcirc": family_to_dict(build_w_circ(3, 6)),
    "meyer": family_to_dict(build_meyer(4)),
    "proposition": family_to_dict(build_proposition(2, 2)),
    "product": family_to_dict(build_product(3, 6)),
}


def _key_paths(node, path=()):
    """(path, edit) for every distinct key path of a family payload, list
    indices collapsed to the first entry: "leaf" for each stored value,
    "append" for each list."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _key_paths(node[key], path + (key,))
    elif isinstance(node, list):
        yield path, "append"
        if node:
            yield from _key_paths(node[0], path + (0,))
    else:
        yield path, "leaf"


def _tampered(data, path, edit):
    data = copy.deepcopy(data)
    *head, last = path
    node = data
    for key in head:
        node = node[key]
    value = node[last]
    if edit == "append":
        value.append(copy.deepcopy(value[0]) if value else 0)
    elif value is None:
        node[last] = 0
    else:
        node[last] = value + ("x" if isinstance(value, str) else 1)
    return data


TAMPER_CASES = [
    pytest.param(name, path, edit, id=f"{name}-{'.'.join(map(str, path))}-{edit}")
    for name, data in TAMPER_FAMILIES.items()
    for path, edit in _key_paths(data)
]


def test_tamper_cases_cover_every_stored_field():
    leaves = {
        name: sum(1 for _, edit in _key_paths(data) if edit == "leaf")
        for name, data in TAMPER_FAMILIES.items()
    }
    assert leaves == {"W": 21, "Wcirc": 23, "meyer": 12, "proposition": 13, "product": 56}


@pytest.mark.parametrize("name,path,edit", TAMPER_CASES)
def test_tampered_field_rejected(name, path, edit):
    with pytest.raises(ParameterError):
        family_from_dict(_tampered(TAMPER_FAMILIES[name], path, edit))


@pytest.mark.parametrize("field", ["k", "n"])
@pytest.mark.parametrize("value", [True, 3.0, "3", None])
def test_recipe_params_must_be_ints(field, value):
    data = copy.deepcopy(TAMPER_FAMILIES["W"])
    data["params"][field] = value
    with pytest.raises(ParameterError, match=f"params.{field}"):
        family_from_dict(data)


def test_forged_lattice_size_cannot_pass_a_certificate(tmp_path, capsys):
    fam = tmp_path / "w20.json"
    out = tmp_path / "report.json"
    certify = ["certify", str(fam), "--g", "1", "--parts", "2", "--out", str(out)]
    assert main(["build", "--kind", "W", "--k", "3", "--n", "20", "--out", str(fam)]) == 0
    assert main(certify) == 1  # lhs=57 <= capacity=102: no certificate
    data = json.loads(fam.read_text())
    data["params"]["lattice_size"] = 10**6
    fam.write_text(canonical_json(data))
    out.unlink()
    capsys.readouterr()
    assert main(certify) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "params.lattice_size" in captured.err


FORGED_RECIPES = {
    "W-n": (build_w(3, 10), "n", 10**5),
    "W-k": (build_w(3, 10), "k", 10**4),
    # k below the listed element count passes the cap, so these build the
    # code vectors and the d x ceil(d/2) matrix for d >= k before the
    # empty lattice stops them
    "W-k200": (build_w(3, 30), "k", 200),
    "Wcirc-k400": (build_w_circ(5, 35), "k", 400),
    # W(3,60) lists 1,710 elements: its 1,710 code vectors of length 2,047
    # are checked against their theorem in O(k*d), not pair by pair
    "W-k1710": (build_w(3, 60), "k", 1710),
    "meyer-n_max": (build_meyer(4), "n_max", 10**6),
    "proposition-k": (build_proposition(2, 2), "k", 40),
    "product-n": (build_product(3, 6), "n", 10**4),
}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("name", sorted(FORGED_RECIPES))
def test_forged_recipe_is_rejected_before_building(name, tmp_path):
    # The rebuild may hold no more elements than the file lists, so an
    # inflated recipe is a quick configuration error, not an unbounded
    # build. The child runs with a 1 GB address-space limit.
    family, field, value = FORGED_RECIPES[name]
    data = family_to_dict(family)
    data["params"][field] = value
    path = tmp_path / "forged.json"
    path.write_text(canonical_json(data))
    env = dict(os.environ, PYTHONPATH=str(Path(b2sets.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "b2sets.cli", "analyze", str(path), "--check", "b2"],
        capture_output=True,
        text=True,
        timeout=20,
        env=env,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr


def _overlong_n(path):
    data = family_to_dict(build_w(3, 10))
    data["params"]["n"] = 1
    text = canonical_json(data).replace('"n": 1,', '"n": ' + "7" * 5000 + ",")
    assert "7" * 5000 in text
    path.write_text(text)


def _nested_pair(path):
    # [[[..., 1], 1], 1]: one element, a pair nested 980 deep, written as
    # text so that building the file needs no recursion
    depth = 980
    path.write_text(
        '{"schema": "b2sets.elements/1", "elements": [' + "[" * depth + "1" + ", 1]" * depth + "]}"
    )


@pytest.mark.parametrize(
    "make",
    [
        _overlong_n,
        lambda path: path.write_bytes(b"\xff\xfe{}"),
        Path.mkdir,
        lambda path: path.write_text("[" * 100_000 + "]" * 100_000),
        _nested_pair,
    ],
    ids=["overlong-int", "not-utf8", "directory", "nested-arrays", "nested-pair"],
)
def test_unreadable_json_is_a_config_error(make, tmp_path):
    # json.loads raises a plain ValueError for an integer longer than the
    # int-string limit (4,300 digits) and a RecursionError for arrays
    # nested too deeply, read_text a ValueError for bytes that are not
    # UTF-8 and an OSError for a directory; a pair whose coordinate is not
    # a scalar is rejected without recursing into it. None may end in a
    # traceback. (An unreadable file is the same OSError branch.)
    path = tmp_path / "bad.json"
    make(path)
    env = dict(os.environ, PYTHONPATH=str(Path(b2sets.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "b2sets.cli", "analyze", str(path), "--check", "b2"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sampled_matrix_check_survives_reload(tmp_path):
    # C(17, 9) = 24,310 minors is above the exhaustive limit, so the build
    # rests on the theorem's hypotheses; the reloaded matrix is the same
    # and a seeded sample of its minors is invertible
    family = build_w_circ(17, 98)
    assert family.size() == 17
    path = tmp_path / "wc17.json"
    save_family(family, path)
    matrix = load_family(path).matrix
    assert matrix == family.matrix
    assert all(int_det(minor) != 0 for minor in sampled_minors(matrix.rows))


def test_elements_file_round_trip(tmp_path):
    path = tmp_path / "elems.json"
    save_elements([5, -25, (3, 4)], path)
    assert load_elements(path) == [5, -25, (3, 4)]


def test_load_elements_accepts_family(tmp_path):
    fam = build_w(2, 3)
    path = tmp_path / "fam.json"
    save_family(fam, path)
    vals = load_elements(path)
    assert [v.to_integer() for v in vals] == [
        v.to_integer() for v in fam.union_values()
    ]


def test_parse_element_forms():
    assert parse_element("5^2") == 25
    assert parse_element("-3") == -3
    assert parse_element(7) == 7
    assert parse_element(["5^1", "-1"]) == (5, -1)
    with pytest.raises(ParameterError):
        parse_element(True)
    with pytest.raises(ParameterError):
        parse_element([[1, 2], 3])


def test_sparse_power_past_the_int_string_limit_is_a_config_error():
    # 5^99999999999 would be an int of about 29 GB; the exponent is checked
    # before any power is built, against the digits int() converts by
    # default, so the child exits 2 at once. Its timeout turns a hang into
    # a failure.
    env = dict(os.environ, PYTHONPATH=str(Path(b2sets.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "b2sets.cli", "analyze", "--values", "5^1+5^99999999999",
         "--check", "b2"],
        capture_output=True,
        text=True,
        timeout=20,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    # 5^6151 has 4,300 digits and 5^6152 has 4,301; a 4,300-digit decimal,
    # whose balanced expansion may reach 5^6152, is still read
    limit = 4300
    assert len(str(parse_element("5^6151"))) == limit
    with pytest.raises(ParameterError):
        parse_element("-2*5^6152+5^3")
    assert parse_element("9" * limit) == 10**limit - 1


def test_reject_unknown_schema(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"schema": "nope/9"}))
    with pytest.raises(ParameterError):
        load_elements(path)


def test_non_object_file_is_a_config_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ParameterError):
        load_elements(path)
    with pytest.raises(ParameterError):
        load_family(path)
    assert main(["analyze", str(path), "--check", "b2"]) == 2
