import argparse
import errno
import hashlib
import json
import os
from pathlib import Path

import pytest

from homprop.algebra import structure_map
from homprop.builtins import (
    BUILTIN_NAMES,
    AsVariant,
    SubgroupTag,
    as_g,
    as_variant,
    associativity,
    bialgebra,
    ybe,
)
from homprop.linalg import make_map
from homprop.cli import build_parser, main
from homprop.corpus import (
    SL2_SPACE,
    dual_numbers,
    dual_numbers_beta,
    flip_beta,
    flip_ybe,
    sl2,
    sl2_beta,
    sl2_gamma,
)
from homprop.linalg import GradedSpace, compose, inverse_map
from homprop.presentation import (
    Presentation,
    homify_multiplicative,
    homify_typed,
    theta_min,
)
from homprop.term import GeneratorSymbol, Signature, generator, vcomp
from homprop.serialize import (
    algebra_to_json,
    dumps,
    endomorphism_to_json,
    presentation_from_json,
    presentation_to_json,
)

from oracles import linear_term


def write(tmp_path: Path, name: str, data) -> str:
    path = tmp_path / name
    path.write_text(dumps(data))
    return str(path)


def run(args, tmp_path, out_name="report.json"):
    out = tmp_path / out_name
    code = main(args + ["--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_check_dual_numbers(tmp_path):
    algebra = write(tmp_path, "dual.json", algebra_to_json(dual_numbers()))
    code, report = run(["check", "--builtin", "as", "--algebra", algebra], tmp_path)
    assert code == 0
    assert report["status"] == "pass"


def test_check_failure_exit_code(tmp_path):
    data = algebra_to_json(dual_numbers())
    data["maps"]["mu"][0][0] = "0"
    data["maps"]["mu"][1][0] = "1"  # e.e = x: not associative
    algebra = write(tmp_path, "bad.json", data)
    code, report = run(["check", "--builtin", "as", "--algebra", algebra], tmp_path)
    assert code == 1
    assert report["status"] == "fail"


def test_check_with_presentation_file(tmp_path):
    pres = write(tmp_path, "as.json", presentation_to_json(as_g(SubgroupTag.E)))
    algebra = write(tmp_path, "dual.json", algebra_to_json(dual_numbers()))
    code, report = run(
        ["check", "--presentation", pres, "--algebra", algebra], tmp_path
    )
    assert code == 0 and report["status"] == "pass"


def test_homify_bialgebra_theta_min(tmp_path):
    code, data = run(
        ["homify", "--builtin", "bialgebra", "--plan", "theta-min"], tmp_path,
        out_name="hom.json",
    )
    assert code == 0
    parsed = presentation_from_json(data)
    expected = homify_typed(bialgebra(), theta_min((1, 2, 3, 4)))
    assert parsed.relations == expected.relations


def test_homify_multiplicative(tmp_path):
    code, data = run(
        ["homify", "--builtin", "ybe", "--plan", "multiplicative"], tmp_path,
        out_name="hybe.json",
    )
    assert code == 0
    names = [g["name"] for g in data["generators"]]
    assert names == ["braiding", "alpha"]
    assert len(data["relations"]) == 2


def test_normality_pass_and_fail(tmp_path):
    code, report = run(["normality", "--builtin", "ybe"], tmp_path)
    assert code == 0
    assert report["relations"][0]["degree"] == 3
    bad = {
        "generators": [
            {"name": "mu", "out": 1, "in": 2, "degree": 0},
            {"name": "nu", "out": 1, "in": 3, "degree": 0},
        ],
        "relations": [[
            {"coef": "1", "monomial": {"gen": "nu"}},
            {"coef": "-1", "monomial": {"vcomp": [
                {"gen": "mu"},
                {"tensor": [{"gen": "mu"}, {"unit": True}]},
            ]}},
        ]],
    }
    pres = write(tmp_path, "bad.json", bad)
    code, report = run(["normality", "--presentation", pres], tmp_path)
    assert code == 1
    assert report["status"] == "not-normal"


def test_yau_twist_command(tmp_path):
    algebra = write(tmp_path, "flip.json", algebra_to_json(flip_ybe()))
    beta = write(tmp_path, "beta.json", endomorphism_to_json(flip_beta()))
    code, report = run(
        ["yau-twist", "--builtin", "ybe", "--plan", "multiplicative",
         "--algebra", algebra, "--beta", beta],
        tmp_path,
    )
    assert code == 0
    assert report["status"] == "pass"
    assert "alpha" in report["twisted"]
    assert report["hom_presentation"]["generators"][1]["name"] == "alpha"


def hom_dual_structure(q):
    """The Yau-twisted dual numbers: mu -> beta . mu, alpha -> beta."""
    beta = dual_numbers_beta(2)
    base = dual_numbers()
    mu = q.signature["mu"]
    return base.with_assignments({
        mu: compose(beta, base[mu]),
        q.signature["alpha"]: beta,
    })


def test_twist_command_on_hom_algebra(tmp_path):
    # build the hom-algebra of the yau twist, then twist it again via the CLI
    p = as_g(SubgroupTag.E)
    q = homify_typed(p, theta_min(p.labels))
    lam = hom_dual_structure(q)
    algebra = write(tmp_path, "hom_dual.json", algebra_to_json(lam))
    beta = write(tmp_path, "beta.json", endomorphism_to_json(dual_numbers_beta(2)))
    code, report = run(
        ["twist", "--builtin", "as", "--plan", "theta-min",
         "--algebra", algebra, "--beta", beta],
        tmp_path,
    )
    assert code == 0 and report["status"] == "pass"


def test_internal_error_is_exit_4(tmp_path, monkeypatch, capsys):
    from homprop import twist

    def broken(*args):
        raise AssertionError("twisting preconditions hold but the twisted "
                             "structure fails verification")

    monkeypatch.setattr(twist, "_verified_result", broken)
    p = as_g(SubgroupTag.E)
    lam = hom_dual_structure(homify_typed(p, theta_min(p.labels)))
    algebra = write(tmp_path, "hom_dual.json", algebra_to_json(lam))
    beta = write(tmp_path, "beta.json", endomorphism_to_json(dual_numbers_beta(2)))
    capsys.readouterr()
    code, report = run(
        ["twist", "--builtin", "as", "--plan", "theta-min",
         "--algebra", algebra, "--beta", beta],
        tmp_path,
    )
    out, err = capsys.readouterr()
    assert (code, report, out) == (4, None, "")
    assert err == ("internal error: twisting preconditions hold but the twisted "
                   "structure fails verification\n")


def test_twist_refuses_s_not_i(tmp_path):
    p, plan = as_variant(AsVariant.II1)
    q = homify_typed(p, plan)
    lam = dual_numbers().with_assignments(
        {q.signature["alpha"]: dual_numbers_beta(2)}
    )  # refused before any relation check runs
    algebra = write(tmp_path, "hom.json", algebra_to_json(lam))
    beta = write(tmp_path, "beta.json", endomorphism_to_json(dual_numbers_beta(2)))
    code = main([
        "twist", "--builtin", "as-ii1", "--algebra", algebra, "--beta", beta,
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2


def test_derived_command(tmp_path):
    p = as_g(SubgroupTag.E)
    q = homify_multiplicative(p)
    lam = hom_dual_structure(q)
    algebra = write(tmp_path, "mult.json", algebra_to_json(lam))
    code, report = run(
        ["derived", "--builtin", "as", "--algebra", algebra, "--n", "2"], tmp_path
    )
    assert code == 0 and report["status"] == "pass"
    assert report["twisted"]["alpha"] == [["1", "0"], ["0", "8"]]


def test_morphism_command(tmp_path):
    algebra = write(tmp_path, "dual.json", algebra_to_json(dual_numbers()))
    beta = write(tmp_path, "beta.json", endomorphism_to_json(dual_numbers_beta(2)))
    code, report = run(
        ["morphism", "--builtin", "as", "--algebra", algebra, "--beta", beta], tmp_path
    )
    assert code == 0 and report["status"] == "pass"
    bad = write(
        tmp_path, "bad.json",
        endomorphism_to_json(
            make_map(dual_numbers().space, dual_numbers().space, [[1, 1], [0, 0]])
        ),
    )
    code, report = run(
        ["morphism", "--builtin", "as", "--algebra", algebra, "--beta", bad], tmp_path
    )
    assert code == 1
    assert report["witness_generator"] == "mu"


def test_iso_check_command(tmp_path):
    algebra = write(tmp_path, "sl2.json", algebra_to_json(sl2()))
    beta = sl2_beta(2)
    gamma = sl2_gamma()
    beta2 = compose(compose(gamma, beta), inverse_map(gamma))
    beta_f = write(tmp_path, "beta.json", endomorphism_to_json(beta))
    beta2_f = write(tmp_path, "beta2.json", endomorphism_to_json(beta2))
    gamma_f = write(tmp_path, "gamma.json", endomorphism_to_json(gamma))
    code, report = run(
        ["iso-check", "--builtin", "as-g:a3", "--algebra", algebra,
         "--beta", beta_f, "--beta2", beta2_f, "--gamma", gamma_f],
        tmp_path,
    )
    assert code == 0
    assert report["status"] == "pass"
    assert report["char_poly_beta"] == report["char_poly_beta2"]


def test_builtins_command(tmp_path):
    code, report = run(["builtins"], tmp_path)
    assert code == 0
    names = [row["name"] for row in report["builtins"]]
    assert "ybe" in names and "nambu:3" in names
    ybe_row = next(r for r in report["builtins"] if r["name"] == "ybe")
    assert ybe_row["unit_count"] == 6
    assert ybe_row["degrees"] == [3]


def test_graph_dump_deterministic(tmp_path):
    out1 = tmp_path / "dump1.txt"
    out2 = tmp_path / "dump2.txt"
    assert main(["graph-dump", "--builtin", "bialgebra", "--out", str(out1)]) == 0
    assert main(["graph-dump", "--builtin", "bialgebra", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    assert "relation 2 monomial 1" in out1.read_text()


# sha256 of the graph-dump stdout per (builtin, --ainf-sign-offset), so the
# text format cannot drift unnoticed.
GRAPH_DUMP_DIGESTS = {
    ("as", 0): "89452fc52836165515342f1a49c5dff34c05c753b1073f5705febcdb43615c37",
    ("as-g:e", 0): "89452fc52836165515342f1a49c5dff34c05c753b1073f5705febcdb43615c37",
    ("as-g:12", 0): "a62e694e3074096c4749de6a9ef9073639f732600782667a238bcbe5a3a59756",
    ("as-g:23", 0): "bc4a5e61f38a6b0893a510c5f84cb32049ce35e75be56bbe1b53f6d05f2b26eb",
    ("as-g:a3", 0): "ff6b8f61d41940e4459f9affc0e91c60866f786c61f8a8929857b5840aec9afe",
    ("as-g:s3", 0): "1fe29f85ebdbe7cd7f3101bd6736eeef08c4cb62f3f4af805f8173dcf7bf4727",
    ("as-ii1", 0): "89452fc52836165515342f1a49c5dff34c05c753b1073f5705febcdb43615c37",
    ("as-iii", 0): "89452fc52836165515342f1a49c5dff34c05c753b1073f5705febcdb43615c37",
    ("nambu:2", 0): "e7aee0ce50b7f2dffc7a0086fb71367cf5ae5a05cf00d89dc083074130c19dd6",
    ("nambu:3", 0): "975b3ae024574fb2dcb9cb2182e3bcab764d95a6064cee140d585b5fb84298cc",
    ("bialgebra", 0): "795902db85425258991ce4c82d2f733459d8d8cdcef6a4e5cc88d4fb3535b5c3",
    ("bialgebra-generalized", 0): "795902db85425258991ce4c82d2f733459d8d8cdcef6a4e5cc88d4fb3535b5c3",
    ("ybe", 0): "6168b036ef642c78556a033c3ac4892b01d37bf4e56521533f4e55ae364bab49",
    ("ainf:3", 0): "01f93c679201a9c502e2a3db9840fb33cee1426e8a0fb13d69bef9f6a0920bf0",
    ("linf:3", 0): "67958eb4bc1e87cc9a0c5edbe5c1a63dc87a10bc121e527496049aa983e72677",
    ("ainf:3", 1): "66872b2fec622072a36637b069c12675b036748ba259210164ead8c295742810",
    ("linf:3", 1): "a2ba357dfdc8015dba743aabcad4595cc4ca461e9691886eafd61f2f03d17a85",
    ("ainf:4", 1): "14f6385477bb841e680a5d351636f16e5df0e701e6be3f7da609f2e2aa5f6fa7",
}


def test_graph_dump_golden_digests(capsys):
    assert {name for name, offset in GRAPH_DUMP_DIGESTS if offset == 0} == set(BUILTIN_NAMES)
    for (name, offset), digest in GRAPH_DUMP_DIGESTS.items():
        flag = ["--ainf-sign-offset", "1"] if offset else []
        assert main(["graph-dump", "--builtin", name, *flag]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, offset)


def test_deep_monomial_has_no_recursion_limit(tmp_path, capsys):
    # 1,500 rows is deeper than the default recursion limit of 1,000.
    rows = [{"gen": "f"}] * 1500
    pres = write(tmp_path, "deep.json", {
        "generators": [{"name": "f", "out": 1, "in": 1}],
        "relations": [[{"coef": "1", "monomial": {"vcomp": rows}}]],
    })
    dump = tmp_path / "dump.txt"
    assert main(["graph-dump", "--presentation", pres, "--out", str(dump)]) == 0
    text = dump.read_text()
    assert "v1499: f (1,1)" in text and "v1500" not in text
    assert main(["normality", "--presentation", pres]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["relations"][0]["degree"] == 1500
    assert err == ""


def test_wide_row_is_read_in_one_layer(tmp_path, capsys):
    # 2,000 factors side by side: one layer, joined in one step.
    pres = write(tmp_path, "wide.json", {
        "generators": [{"name": "f", "out": 1, "in": 1}],
        "relations": [[{"coef": "1", "monomial": {"tensor": [{"gen": "f"}] * 2000}}]],
    })
    assert main(["normality", "--presentation", pres]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["relations"][0]["degree"] == 1
    assert err == ""


@pytest.mark.parametrize("kind", ["tensor", "vcomp"])
def test_deep_nesting_below_the_json_limit_is_read(tmp_path, kind):
    # 450 nested nodes are about 900 JSON levels: json.loads reads them, so
    # the monomial reader must not recurse once per level.
    depth = 450
    monomial = f'{{"{kind}": [' * depth + '{"gen": "f"}' + ']}' * depth
    path = tmp_path / "nested.json"
    path.write_text('{"generators": [{"name": "f", "out": 1, "in": 1}], '
                    '"relations": [[{"coef": "1", "monomial": ' + monomial + '}]]}')
    dump = tmp_path / "dump.txt"
    assert main(["graph-dump", "--presentation", str(path), "--out", str(dump)]) == 0
    assert "v0: f (1,1)" in dump.read_text()


MISMATCH = {"vcomp": [{"gen": "mu"}, {"gen": "mu"}]}


@pytest.mark.parametrize("relations, message", [
    # Within one monomial, a malformed node is reported before a vertical
    # mismatch, even one that comes earlier.
    ([[{"coef": "1", "monomial": {"tensor": [MISMATCH, {"gen": "nope"}]}}]],
     "unknown generator 'nope'"),
    # Monomials are read in order: the first relation's mismatch wins.
    ([[{"coef": "1", "monomial": MISMATCH}], [{"coef": "1", "monomial": {"gen": "nope"}}]],
     "vertical composition expects inner arity 2, found 1"),
])
def test_parse_errors_rank_within_and_across_monomials(tmp_path, capsys, relations, message):
    pres = write(tmp_path, "p.json", {
        "generators": [{"name": "mu", "out": 1, "in": 2}],
        "relations": relations,
    })
    assert main(["normality", "--presentation", pres]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize("node", [
    {"unit": False},
    {"unit": 0},
    {"gen": "mu", "perm": [1, 2]},
])
def test_malformed_term_node_is_an_input_error(tmp_path, capsys, node):
    # Each node used to be read as a unit or as one of its two kinds.
    pres = write(tmp_path, "p.json", {
        "generators": [{"name": "mu", "out": 1, "in": 2}],
        "relations": [[{"coef": "1", "monomial": {"vcomp": [{"gen": "mu"}, {"tensor": [
            {"gen": "mu"}, node]}]}}]],
    })
    assert main(["normality", "--presentation", pres]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: ") and repr(node) in err


@pytest.mark.parametrize("name", [["mu"], {"a": 1}])
def test_unhashable_generator_name_is_an_input_error(tmp_path, capsys, name):
    # A list or an object cannot be looked up by name; it is still unknown.
    pres = write(tmp_path, "p.json", {
        "generators": [{"name": "mu", "out": 1, "in": 2}],
        "relations": [[{"coef": "1", "monomial": {"gen": name}}]],
    })
    assert main(["normality", "--presentation", pres]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: unknown generator {name!r}\n"


@pytest.mark.parametrize("name, message", [
    ("ainf: 3", "unknown builtin 'ainf: 3'"),
    ("ainf:+3", "unknown builtin 'ainf:+3'"),
    ("ainf:1_0", "unknown builtin 'ainf:1_0'"),
    ("ainf:\u0663", "unknown builtin 'ainf:\u0663'"),
    ("linf:0", "l_infinity needs N >= 1, got 0"),
    ("nambu:1", "nambu needs n >= 2, got 1"),
])
def test_builtin_sizes_are_plain_decimal_digits(capsys, name, message):
    # int() would read the first four as 3, 3, 10 and 3.
    assert main(["normality", "--builtin", name]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {message}\n"


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # 600 nested vcomps are about 1,200 JSON levels, too deep for json.loads.
    depth = 600
    monomial = '{"vcomp": [' * depth + '{"gen": "f"}' + ']}' * depth
    path = tmp_path / "nested.json"
    path.write_text('{"generators": [{"name": "f", "out": 1, "in": 1}], '
                    '"relations": [[{"coef": "1", "monomial": ' + monomial + '}]]}')
    assert main(["normality", "--presentation", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {path}: JSON nested too deeply\n"


def test_report_determinism_byte_identical(tmp_path):
    algebra = write(tmp_path, "dual.json", algebra_to_json(dual_numbers()))
    _, _ = run(["check", "--builtin", "as", "--algebra", algebra], tmp_path, "r1.json")
    _, _ = run(["check", "--builtin", "as", "--algebra", algebra], tmp_path, "r2.json")
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_input_error_exit_codes(tmp_path):
    code = main(["check", "--builtin", "as", "--algebra", str(tmp_path / "nope.json")])
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["check", "--builtin", "as", "--algebra", str(bad)])
    assert code == 3
    code = main(["check", "--builtin", "unknown-name", "--algebra", str(bad)])
    assert code == 3


def test_unreadable_input_is_an_input_error(tmp_path, capsys):
    # A directory where a JSON file is expected.
    code = main(["check", "--builtin", "as", "--algebra", str(tmp_path)])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: cannot read {tmp_path}: {os.strerror(errno.EISDIR)}\n"


@pytest.mark.parametrize("command", ["check", "graph-dump"])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, command):
    algebra = write(tmp_path, "dual.json", algebra_to_json(dual_numbers()))
    args = {"check": ["check", "--builtin", "as", "--algebra", algebra],
            "graph-dump": ["graph-dump", "--builtin", "bialgebra"]}[command]
    out = tmp_path / "missing" / "r.json"
    assert main(args + ["--out", str(out)]) == 3
    assert not out.exists()
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"input error: cannot write {out}: {os.strerror(errno.ENOENT)}\n"


def test_check_report_golden_sl2_bracket_not_associative(tmp_path):
    mu = associativity().signature["mu"]
    bracket = sl2()[as_g(SubgroupTag.A3).signature["mu"]]
    algebra = write(tmp_path, "sl2.json", algebra_to_json(structure_map(SL2_SPACE, {mu: bracket})))
    out = tmp_path / "report.json"
    assert main(["check", "--builtin", "as", "--algebra", algebra, "--out", str(out)]) == 1
    assert out.read_text() == "\n".join([
        "{",
        '  "command": "check",',
        '  "relations": [',
        "    {",
        '      "index": 0,',
        '      "max_abs_entry": "4",',
        '      "passed": false',
        "    }",
        "  ],",
        '  "status": "fail"',
        "}",
        "",
    ])


def test_relation_with_values_in_two_degree_blocks_is_an_input_error(tmp_path, capsys):
    pres = write(tmp_path, "p.json", {
        "generators": [{"name": "a", "out": 1, "in": 1, "degree": 0},
                       {"name": "b", "out": 1, "in": 1, "degree": 1}],
        "relations": [[{"coef": "1", "monomial": {"gen": "a"}},
                       {"coef": "1", "monomial": {"gen": "b"}}]],
    })
    algebra = write(tmp_path, "a.json", {
        "space": {"dims": {"0": 1, "1": 1}},
        "maps": {"a": [["1", "0"], ["0", "1"]], "b": [["0", "0"], ["1", "0"]]},
    })
    assert main(["check", "--presentation", pres, "--algebra", algebra]) == 3
    assert "cannot add degrees 0 and 1" in capsys.readouterr().err


def test_inexact_numbers_are_input_errors(tmp_path, capsys):
    data = algebra_to_json(dual_numbers())
    data["maps"]["mu"][0][0] = 0.1
    algebra = write(tmp_path, "float.json", data)
    assert main(["check", "--builtin", "as", "--algebra", algebra]) == 3
    assert "0.1 is not exact" in capsys.readouterr().err

    good = write(tmp_path, "dual.json", algebra_to_json(dual_numbers()))
    beta = endomorphism_to_json(dual_numbers_beta(2))
    beta["matrix"][1][0] = True
    beta_file = write(tmp_path, "bool.json", beta)
    assert main(["morphism", "--builtin", "as", "--algebra", good, "--beta", beta_file]) == 3
    assert "True is not exact" in capsys.readouterr().err

    pres = presentation_to_json(as_g(SubgroupTag.E))
    pres["relations"][0][0]["coef"] = 1.0
    pres_file = write(tmp_path, "coef.json", pres)
    assert main(["check", "--presentation", pres_file, "--algebra", good]) == 3
    assert "1.0 is not exact" in capsys.readouterr().err


def test_ainf_sign_offset_flag(tmp_path):
    code, data = run(
        ["homify", "--builtin", "ainf:2", "--plan", "theta-min",
         "--ainf-sign-offset", "1"],
        tmp_path, out_name="h.json",
    )
    assert code == 0


def test_homify_emits_to_stdout(tmp_path, capsys):
    assert main(["homify", "--builtin", "as", "--plan", "theta-min"]) == 0
    captured = capsys.readouterr()
    assert '"alpha"' in captured.out


def _generator_field(key, value):
    def edit(data):
        data["generators"][0][key] = value
    return edit


def _top_level(key, value):
    def edit(data):
        data[key] = value
    return edit


def _first_monomial(value):
    def edit(data):
        data["relations"][0][0]["monomial"] = value
    return edit


BAD_PRESENTATIONS = {
    "relations-string": (_top_level("relations", "x"), "relations must be a list"),
    "generators-number": (_top_level("generators", 5), "generators must be a list"),
    "relation-item-number": (_top_level("relations", [[5]]), "relation item needs"),
    "in-float": (_generator_field("in", 1.5), "in: 1.5 is not an integer"),
    "in-bool": (_generator_field("in", True), "in: True is not an integer"),
    "in-negative": (_generator_field("in", -1), "in: -1 is below 0"),
    "in-string": (_generator_field("in", "2"), "in: '2' is not an integer"),
    "perm-number": (_first_monomial({"perm": 3}), "perm must be a list"),
    "perm-bool": (_first_monomial({"perm": [True]}), "perm image: True is not an integer"),
    "tensor-number": (_first_monomial({"tensor": 5}), "tensor must be a list"),
}


@pytest.mark.parametrize("case", BAD_PRESENTATIONS)
def test_malformed_presentation_fields_are_input_errors(tmp_path, capsys, case):
    edit, message = BAD_PRESENTATIONS[case]
    data = presentation_to_json(as_g(SubgroupTag.E))
    edit(data)
    pres = write(tmp_path, "p.json", data)
    algebra = write(tmp_path, "dual.json", algebra_to_json(dual_numbers()))
    assert main(["check", "--presentation", pres, "--algebra", algebra]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


@pytest.mark.parametrize("dim,message", [
    (1.7, "dims['0']: 1.7 is not an integer"),
    (-1, "dims['0']: -1 is below 0"),
], ids=["float", "negative"])
def test_bad_dimensions_are_input_errors(tmp_path, capsys, dim, message):
    data = algebra_to_json(dual_numbers())
    data["space"]["dims"]["0"] = dim
    algebra = write(tmp_path, "a.json", data)
    assert main(["check", "--builtin", "as", "--algebra", algebra]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("S,message", [
    (5, "S must be a list"),
    ([1.0], "S label: 1.0 is not an integer"),
    (["1"], "S label: '1' is not an integer"),
], ids=["number", "float-label", "string-label"])
def test_malformed_plan_fields_are_input_errors(tmp_path, capsys, S, message):
    plan = write(tmp_path, "plan.json", {"S": S, "theta": [[1]]})
    assert main(["homify", "--builtin", "as", "--plan", plan]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


@pytest.mark.parametrize("maps", ["mu", ["mu"]], ids=["string", "list"])
def test_non_object_maps_are_input_errors(tmp_path, capsys, maps):
    data = algebra_to_json(dual_numbers())
    data["maps"] = maps
    algebra = write(tmp_path, "a.json", data)
    assert main(["check", "--builtin", "as", "--algebra", algebra]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "maps must be an object" in err


@pytest.mark.parametrize("names,block", [
    (None, "alpha_"),
    (["a", "b"], "b"),
], ids=["default-names", "given-names"])
def test_empty_theta_block_is_a_precondition_failure(tmp_path, capsys, names, block):
    data = {"S": [1, 2], "theta": [[1, 2], []]}
    if names is not None:
        data["names"] = names
    plan = write(tmp_path, "plan.json", data)
    assert main(["homify", "--builtin", "as", "--plan", plan]) == 2
    assert capsys.readouterr().err == f"precondition failed: block {block!r} is empty\n"


class _ReadRecorder(argparse.Namespace):
    """A namespace that remembers which attributes were read."""

    def __init__(self) -> None:
        super().__init__()
        self._reads: set[str] = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_declared_option_is_read(tmp_path):
    dual = write(tmp_path, "dual.json", algebra_to_json(dual_numbers()))
    beta = write(tmp_path, "beta.json", endomorphism_to_json(dual_numbers_beta(2)))
    identity = write(tmp_path, "id.json", endomorphism_to_json(dual_numbers_beta(1)))
    mult = write(tmp_path, "mult.json", algebra_to_json(
        hom_dual_structure(homify_multiplicative(associativity()))))
    b = ["--builtin", "as"]
    invocations = {
        "check": [*b, "--algebra", dual],
        "homify": [*b, "--plan", "theta-min"],
        "normality": b,
        "twist": [*b, "--plan", "multiplicative", "--algebra", mult, "--beta", beta],
        "derived": [*b, "--algebra", mult, "--n", "2"],
        "yau-twist": [*b, "--algebra", dual, "--beta", beta],
        "morphism": [*b, "--algebra", dual, "--algebra2", dual, "--beta", beta],
        "iso-check": [*b, "--plan", "theta-min", "--algebra", dual, "--algebra2", dual,
                      "--beta", beta, "--beta2", beta, "--gamma", identity],
        "builtins": [],
        "graph-dump": b,
    }
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(invocations)
    for command, argv in invocations.items():
        args = parser.parse_args([command, *argv, "--out", str(tmp_path / "out")],
                                 namespace=_ReadRecorder())
        args._reads.clear()  # forget the reads made while parsing
        assert args.func(args) == 0, command
        declared = {a.dest for a in subparsers[command]._actions
                    if not isinstance(a, argparse._HelpAction)}
        unread = declared - args._reads
        assert not unread, f"{command} declares options it never reads: {sorted(unread)}"


def test_singular_gamma_is_a_precondition_failure(tmp_path, capsys):
    dual = write(tmp_path, "dual.json", algebra_to_json(dual_numbers()))
    beta = write(tmp_path, "beta.json", endomorphism_to_json(dual_numbers_beta(1)))
    gamma = write(tmp_path, "gamma.json", endomorphism_to_json(
        make_map(dual_numbers().space, dual_numbers().space, [[1, 0], [0, 0]])))
    assert main(["iso-check", "--builtin", "as", "--algebra", dual, "--beta", beta,
                 "--gamma", gamma]) == 2
    assert capsys.readouterr().err == "precondition failed: gamma must be invertible\n"


def _no_units(tmp_path) -> dict:
    """Files for ``f.f - f.f.f``, a presentation without unit occurrences,
    and the idempotent line ``f = 1`` that satisfies it."""
    f = GeneratorSymbol("f", 1, 1)
    p = Presentation(Signature((f,)), (
        linear_term([(1, vcomp(generator(f), generator(f))),
                     (-1, vcomp(generator(f), generator(f), generator(f)))]),))
    line = GradedSpace.ungraded(1)
    one = make_map(line, line, [[1]])
    return {
        "presentation": write(tmp_path, "p.json", presentation_to_json(p)),
        "algebra": write(tmp_path, "a.json", algebra_to_json(structure_map(line, {f: one}))),
        "one": write(tmp_path, "one.json", endomorphism_to_json(one)),
    }


@pytest.mark.parametrize("plan", ["theta-min", "theta-max", None])
def test_no_unit_occurrences_is_a_precondition_failure(tmp_path, capsys, plan):
    files = _no_units(tmp_path)
    plan_args = ["--plan", plan] if plan else []
    argv = ["iso-check", "--presentation", files["presentation"], *plan_args,
            "--algebra", files["algebra"], "--beta", files["one"], "--gamma", files["one"]]
    assert main(argv) == 2
    assert capsys.readouterr().err == "precondition failed: S must be non-empty\n"
    argv = ["homify", "--presentation", files["presentation"], *plan_args]
    if plan:
        assert main(argv) == 2
        assert capsys.readouterr().err == "precondition failed: S must be non-empty\n"
    else:  # the multiplicative hom-ification needs no unit occurrences
        assert main(argv) == 0


def test_in_process_calls_do_not_share_options(tmp_path, capsys):
    dual = write(tmp_path, "dual.json", algebra_to_json(dual_numbers()))
    out = tmp_path / "first.json"
    assert main(["check", "--builtin", "as", "--algebra", dual, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["check", "--builtin", "as", "--algebra", dual]) == 0
    assert capsys.readouterr().out == out.read_text()

    mult = write(tmp_path, "mult.json", algebra_to_json(
        hom_dual_structure(homify_multiplicative(associativity()))))
    assert main(["derived", "--builtin", "as", "--algebra", mult, "--n", "3"]) == 0
    third = capsys.readouterr().out
    assert main(["derived", "--builtin", "as", "--algebra", mult]) == 0
    first = capsys.readouterr().out
    assert main(["derived", "--builtin", "as", "--algebra", mult, "--n", "1"]) == 0
    assert capsys.readouterr().out == first != third


@pytest.mark.parametrize("out_in, dims, matrix, message", [
    # Entries (0,1) and (1,0) both break homogeneity; the row-major first is named.
    ((1, 1), {"0": 1, "1": 1}, [["0", "1"], ["1", "0"]],
     "entry (0,1) breaks homogeneity: target degree 0 != 1 + 0"),
    ((1, 1), {"0": 1, "1": 1}, [["1", "0"], ["0"]], "matrix must be 2x2"),
    ((1, 1), {"0": 1, "1": 1}, [["1", "0"]], "matrix must be 2x2"),
    ((1, 9), {"0": 1}, [["1"]], "tensor width 9 exceeds cap 8"),
])
def test_map_input_errors_keep_their_text(tmp_path, capsys, out_in, dims, matrix, message):
    pres = write(tmp_path, "p.json", {
        "generators": [{"name": "f", "out": out_in[0], "in": out_in[1], "degree": 0}],
        "relations": [],
    })
    algebra = write(tmp_path, "a.json", {"space": {"dims": dims}, "maps": {"f": matrix}})
    assert main(["check", "--presentation", pres, "--algebra", algebra]) == 3
    assert capsys.readouterr() == ("", f"input error: {message}\n")


def test_morphism_report_golden_dual_numbers_diag21(tmp_path):
    # diag(2, 1) doubles the unit e, while mu(2e, 2e) = 4e: not a morphism.
    algebra = write(tmp_path, "dual.json", algebra_to_json(dual_numbers()))
    space = dual_numbers().space
    beta = write(tmp_path, "diag.json",
                 endomorphism_to_json(make_map(space, space, [[2, 0], [0, 1]])))
    out = tmp_path / "report.json"
    argv = ["morphism", "--builtin", "as", "--algebra", algebra, "--beta", beta, "--out", str(out)]
    assert main(argv) == 1
    assert out.read_text() == "\n".join([
        "{",
        '  "command": "morphism",',
        '  "difference": [',
        "    [",
        '      "-2",',
        '      "0",',
        '      "0",',
        '      "0"',
        "    ],",
        "    [",
        '      "0",',
        '      "-1",',
        '      "-1",',
        '      "0"',
        "    ]",
        "  ],",
        '  "status": "fail",',
        '  "witness_generator": "mu"',
        "}",
        "",
    ])


def test_yau_twist_report_golden_flip_ybe(tmp_path):
    algebra = write(tmp_path, "flip.json", algebra_to_json(flip_ybe()))
    beta = write(tmp_path, "beta.json", endomorphism_to_json(flip_beta()))
    out = tmp_path / "report.json"
    assert main(["yau-twist", "--builtin", "ybe", "--plan", "multiplicative",
                 "--algebra", algebra, "--beta", beta, "--out", str(out)]) == 0

    def gen(name):
        return {"gen": name}

    def row(*names):
        return {"tensor": [gen(n) for n in names]}

    def rel(left, right):
        return [{"coef": "1", "monomial": {"vcomp": left}},
                {"coef": "-1", "monomial": {"vcomp": right}}]

    ab, ba = row("alpha", "braiding"), row("braiding", "alpha")
    expected = {
        "command": "yau-twist",
        "hom_presentation": {
            "generators": [{"degree": 0, "in": 2, "name": "braiding", "out": 2},
                           {"degree": 0, "in": 1, "name": "alpha", "out": 1}],
            "relations": [
                rel([gen("braiding"), row("alpha", "alpha")],
                    [row("alpha", "alpha"), gen("braiding")]),
                rel([ab, ba, ab], [ba, ab, ba]),
            ],
        },
        "relations": [{"index": i, "max_abs_entry": "0", "passed": True} for i in (0, 1)],
        "status": "pass",
        "twisted": {
            "alpha": [["1", "1"], ["0", "1"]],
            "braiding": [["1", "1", "1", "1"], ["0", "0", "1", "1"],
                         ["0", "1", "0", "1"], ["0", "0", "0", "1"]],
        },
    }
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
