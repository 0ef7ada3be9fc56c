import copy
import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import ramseycert
from ramseycert import cli, coloring, graphs
from ramseycert.cli import main
from ramseycert.coloring import certificate_core


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_build_graph_t2(capsys, tmp_path):
    out_path = tmp_path / "g0_t2.graph"
    code, out, err = run(capsys, "build-graph", "--t", "2", "--out", str(out_path))
    assert code == 0
    assert "n=2 m=0 max_clique=1 lemma1: OK" in out
    assert out_path.read_text().splitlines()[0] == "g0 t=2 n=2 m=0"
    assert "params: command=build-graph" in err


def test_build_graph_rejects_odd_t(capsys):
    code, _, err = run(capsys, "build-graph", "--t", "5")
    assert code == 2
    assert "construction requires even t" in err


def test_census_command(capsys, tmp_path):
    out_path = tmp_path / "census.csv"
    code, out, _ = run(capsys, "census", "--t", "4", "--out", str(out_path))
    assert code == 0
    assert "nonempty_total=39" in out
    assert "within_bound=yes" in out
    rows = out_path.read_text().splitlines()
    assert rows[0] == "k,i_k"
    assert rows[1:] == ["0,1", "1,8", "2,16", "3,12", "4,3"]


def test_census_requires_input(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["census"])
    assert exc_info.value.code == 2
    assert "--t" in capsys.readouterr().err


def test_certify_t4_m1(capsys):
    code, out, _ = run(capsys, "certify", "--t", "4", "--m", "1")
    assert code == 0
    assert "certified N=9, r(4;3) >= 10, E = 2898/4096" in out
    assert "p_ind = 23/128" in out
    code, _, _ = run(capsys, "certify", "--t", "4", "--m", "1")
    assert code == 0


def test_certify_t4_m0(capsys):
    code, out, _ = run(capsys, "certify", "--t", "4", "--m", "0")
    assert code == 0
    assert "certified N=6, r(4;2) >= 7, E = 15/32" in out


@pytest.mark.parametrize(
    "t, m, n",
    [(8, 1, 173), (8, 2, 740), (8, 3, 3202), (10, 1, 710), (10, 2, 5221)],
)
def test_certify_from_closed_form_census(capsys, tmp_path, monkeypatch, t, m, n):
    monkeypatch.setenv("HOME", str(tmp_path))
    code, out, _ = run(capsys, "certify", "--t", str(t), "--m", str(m))
    assert code == 0
    assert f"certified N={n}, r({t};{m + 2}) >= {n + 1}" in out
    # neither the working directory nor the home directory gains a file
    assert list(tmp_path.iterdir()) == []


def test_certify_nothing_certifiable(capsys):
    code, _, err = run(capsys, "certify", "--t", "2", "--m", "1")
    assert code == 1
    assert "no certifiable N" in err


@pytest.mark.parametrize("t", [-2, 0, 1])
def test_certify_rejects_a_clique_target_below_2(capsys, t):
    # the expectation checks t before it reads a census, so every m names the clique target
    for m in ("0", "1"):
        code, _, err = run(capsys, "certify", "--t", str(t), "--m", m)
        assert code == 2
        assert f"error: clique target must be at least 2, got {t}" in err


def test_generate_writes_spec_and_echoes_seed(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    code, out, err = run(
        capsys,
        "generate", "--t", "4", "--m", "1", "--N", "9",
        "--seed", "1", "--spec-out", str(spec_path),
    )
    assert code == 0
    spec = json.loads(spec_path.read_text())
    assert spec == {"kind": "blowup", "t": 4, "m": 1, "ell": 3, "N": 9, "seed": 1}
    assert json.loads(out) == spec
    assert "seed=1" in err


def test_generate_defaults_seed_but_prints_it(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    code, _, err = run(
        capsys, "generate", "--t", "4", "--m", "0", "--N", "6", "--spec-out", str(spec_path)
    )
    assert code == 0
    seed = json.loads(spec_path.read_text())["seed"]
    assert f"seed={seed}" in err


def test_generate_default_seed_is_64_bit(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(random.SystemRandom, "getrandbits", lambda self, k: (1 << k) - 1)
    spec_path = tmp_path / "spec.json"
    code, _, _ = run(
        capsys, "generate", "--t", "4", "--m", "1", "--N", "9", "--spec-out", str(spec_path)
    )
    assert code == 0
    assert json.loads(spec_path.read_text())["seed"] == (1 << 64) - 1


def test_generate_large_n_writes_spec_without_drawing(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("coloring drawn only to write its spec")

    monkeypatch.setattr(coloring, "generate_blowup_coloring", refuse)
    monkeypatch.setattr(cli, "regenerate", refuse)
    spec_path = tmp_path / "spec.json"
    code, out, _ = run(
        capsys,
        "generate", "--t", "30", "--m", "2", "--N", "100000000",
        "--seed", "7", "--spec-out", str(spec_path),
    )
    assert code == 0
    spec = {"kind": "blowup", "t": 30, "m": 2, "ell": 4, "N": 100000000, "seed": 7}
    assert json.loads(spec_path.read_text()) == spec
    assert json.loads(out) == spec


def test_generate_rejects_t_outside_construction(capsys, tmp_path):
    code, _, err = run(
        capsys, "generate", "--t", "32", "--m", "1", "--N", "9", "--spec-out", str(tmp_path / "s")
    )
    assert code == 2
    assert "t must be between 2 and 30" in err
    assert not (tmp_path / "s").exists()


def test_generate_refuses_n_below_t(capsys, tmp_path):
    code, _, err = run(
        capsys, "generate", "--t", "4", "--m", "1", "--N", "3", "--spec-out", str(tmp_path / "s")
    )
    assert code == 2
    assert "N=3 is below the clique target t=4" in err
    assert not (tmp_path / "s").exists()


def test_generate_edge_dump(capsys, tmp_path):
    dump = tmp_path / "edges.csv"
    code, _, _ = run(
        capsys,
        "generate", "--t", "4", "--m", "1", "--N", "6", "--seed", "3",
        "--spec-out", str(tmp_path / "s.json"), "--edge-dump", str(dump),
    )
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "x,y,color" and len(lines) == 16


def test_generate_edge_dump_guard(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "generate", "--t", "4", "--m", "0", "--N", "2500",
        "--spec-out", str(tmp_path / "s.json"), "--edge-dump", str(tmp_path / "d.csv"),
    )
    assert code == 2
    # the parameters are echoed first, and the refusal comes before the spec is written
    assert 0 <= err.find("params: command=generate") < err.find("edge dumps are limited")
    assert not (tmp_path / "s.json").exists()


def _write_spec(tmp_path, capsys, seed):
    spec_path = tmp_path / "spec.json"
    run(
        capsys,
        "generate", "--t", "4", "--m", "1", "--N", "9",
        "--seed", str(seed), "--spec-out", str(spec_path),
    )
    return spec_path


def test_verify_produces_certificate(capsys, tmp_path):
    spec_path = _write_spec(tmp_path, capsys, seed=1)
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "verify", "--spec-file", str(spec_path), "--certificate-out", str(cert_path),
    )
    assert code == 0
    assert "verified: r(4;3) >= 10" in out
    cert = json.loads(cert_path.read_text())
    assert cert["verified"] is True
    assert cert["expectation"]["p_ind_exact"] == "23/128"
    assert cert["expectation"]["certified_bound"] == 10


def test_verify_retries_and_logs_failures(capsys, tmp_path):
    spec_path = _write_spec(tmp_path, capsys, seed=0)
    cert_path = tmp_path / "cert.json"
    code, _, err = run(
        capsys,
        "verify", "--spec-file", str(spec_path),
        "--max-tries", "4", "--certificate-out", str(cert_path),
    )
    assert code == 0
    assert "try seed=0" in err
    assert json.loads(cert_path.read_text())["seed"] == 1


def test_verify_unverified_exit_code(capsys, tmp_path):
    spec_path = _write_spec(tmp_path, capsys, seed=0)
    code, _, err = run(
        capsys,
        "verify", "--spec-file", str(spec_path), "--max-tries", "1",
        "--certificate-out", str(tmp_path / "cert.json"),
    )
    assert code == 1
    assert "unverified after 1 tries" in err


def test_verify_missing_spec_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--spec-file", str(tmp_path / "absent.json"))
    assert code == 2


@pytest.mark.parametrize("content", [None, "[1]"])
@pytest.mark.parametrize(
    "command, flag", [("verify", "--spec-file"), ("recheck", "--certificate-file")]
)
def test_bad_input_file_still_echoes_params(capsys, tmp_path, command, flag, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    code, _, err = run(capsys, command, flag, str(path))
    assert code == 2
    assert f"params: command={command} {flag[2:].replace('-', '_')}={path}" in err
    assert "error: " in err


# each command on small inputs with every default left out, and its echo:
# every argument of the subparser, in parser order, its default resolved
ECHOES = [
    ("build-graph", ["--t", "2"], "t=2 out=g0_t2.graph"),
    ("census", ["--t", "4"], "t=4 out=census_t4.csv"),
    ("certify", ["--t", "4", "--m", "1"], "t=4 m=1"),
    (
        "generate",
        ["--t", "4", "--m", "1", "--N", "9", "--edge-dump", "edges.txt"],
        "t=4 m=1 N=9 seed=7 spec_out=coloring_t4_m1_N9.json edge_dump=edges.txt",
    ),
    (
        "verify",
        ["--spec-file", "spec.json"],
        "spec_file=spec.json max_tries=64 certificate_out=spec.certificate.json",
    ),
    (
        "bounds-table",
        ["--ell-min", "2", "--ell-max", "3"],
        "ell_min=2 ell_max=3 out=bounds_table.csv",
    ),
    ("recheck", ["--certificate-file", "cert.json"], "certificate_file=cert.json"),
    ("verify-g0", ["--graph-file", "g.graph"], "graph_file=g.graph"),
]


@pytest.mark.parametrize("command, argv, echoed", ECHOES, ids=[case[0] for case in ECHOES])
def test_params_line_echoes_every_argument_in_parser_order(
    capsys, monkeypatch, command, argv, echoed
):
    spec = coloring.ColoringSpec(kind="blowup", t=4, m=1, ell=3, N=9, seed=1)
    Path("spec.json").write_bytes(coloring.canonical_json_bytes(spec.to_json_dict()))
    coloring.save_certificate(coloring.verify_coloring(spec), "cert.json")
    graphs.write_graph_file(graphs.build_g0(2), 2, "g.graph")
    monkeypatch.setattr(random.SystemRandom, "getrandbits", lambda self, k: 7)
    code, _, err = run(capsys, command, *argv)
    assert code == 0
    assert err.splitlines()[0] == f"params: command={command} {echoed}"


_DROP = object()


def _edited(doc, path, value=_DROP):
    """A deep copy of `doc` with the item at `path` replaced, or dropped."""
    doc = copy.deepcopy(doc)
    *outer, last = path
    inner = doc
    for key in outer:
        inner = inner[key]
    if value is _DROP:
        del inner[last]
    else:
        inner[last] = value
    return doc


BLOWUP_SPEC = {"kind": "blowup", "t": 4, "m": 1, "ell": 3, "N": 9, "seed": 1}
PRODUCT_SPEC = {
    "kind": "product", "t": 4, "m": 0, "ell": 6, "N": 81, "seed": 0,
    "factors": [BLOWUP_SPEC, {**BLOWUP_SPEC, "seed": 2}],
}
ERDOS_SPEC = {"kind": "erdos", "t": 4, "m": 0, "ell": 2, "N": 9, "seed": 1}
# a uniform leaf (seed 3 holds no K_4) times a blowup; it verifies
UNIFORM_LEAF_SPEC = {
    "kind": "product", "t": 4, "m": 0, "ell": 5, "N": 81, "seed": 0,
    "factors": [{**ERDOS_SPEC, "seed": 3}, BLOWUP_SPEC],
}


@pytest.mark.parametrize(
    "document, message",
    [
        (_edited(BLOWUP_SPEC, ["seed"]), "spec.seed is missing"),
        (_edited(BLOWUP_SPEC, ["t"], "six"), "spec.t must be an integer, got str"),
        (_edited(BLOWUP_SPEC, ["N"], 9.0), "spec.N must be an integer, got float"),
        (_edited(BLOWUP_SPEC, ["m"], True), "spec.m must be an integer, got bool"),
        ([BLOWUP_SPEC], "spec must be an object, got list"),
        (_edited(PRODUCT_SPEC, ["factors", 1, "seed"]), "spec.factors[1].seed is missing"),
        (_edited(PRODUCT_SPEC, ["factors"], "both"), "spec.factors must be a list, got str"),
        (_edited(PRODUCT_SPEC, ["factors", 0], 7), "spec.factors[0] must be an object, got int"),
        (_edited(PRODUCT_SPEC, ["m"], 7), "product colorings have m = 0, got m=7"),
        (_edited(PRODUCT_SPEC, ["seed"], 5), "randomness in the factors, so seed = 0, got seed=5"),
        (_edited(BLOWUP_SPEC, ["seed_note"], "lucky"), "spec.seed_note is an unknown field"),
        (_edited(PRODUCT_SPEC, ["factors", 1, "note"], 1), "spec.factors[1].note is an unknown field"),
        ({**BLOWUP_SPEC, "factors": [BLOWUP_SPEC] * 2}, "blowup colorings have no factors"),
        ({**ERDOS_SPEC, "m": 1}, "uniform random colorings have m = 0"),
        ({**ERDOS_SPEC, "t": -1}, "clique target must be non-negative, got -1"),
        ({**ERDOS_SPEC, "factors": [ERDOS_SPEC] * 2}, "uniform random colorings have no factors"),
        (_edited(PRODUCT_SPEC, ["factors", 1]), "product colorings need at least two factors"),
        (_edited(PRODUCT_SPEC, ["N"], 80), "product N must be 81, got 80"),
        (_edited(PRODUCT_SPEC, ["ell"], 5), "product ell must be 6, got 5"),
        ({**ERDOS_SPEC, "t": 1}, "clique target must be at least 2, got 1"),
        (
            _edited(PRODUCT_SPEC, ["factors", 1, "N"], 0),
            "spec.factors[1]: N must be in 1..4294967296, got 0",
        ),
        # verification is linear in ell; past the guard, yet small enough that an unguarded
        # run fails this case in about a second instead of exhausting memory
        ({**ERDOS_SPEC, "ell": 10**5}, "spec: ell must be at most 10000, got 100000"),
        # a product's factors are its leaves, so a product factor is refused, not unfolded
        (
            {**PRODUCT_SPEC, "ell": 9, "N": 729, "factors": [PRODUCT_SPEC, BLOWUP_SPEC]},
            "spec.factors[0] is a product: list its factors in its place",
        ),
        # every leaf is decided at the product's t, so a uniform leaf's own t must be it
        (
            _edited(UNIFORM_LEAF_SPEC, ["factors", 0, "t"], 17),
            "spec: factors[0] is a uniform coloring decided at the product's t=4, got t=17",
        ),
    ],
)
def test_verify_rejects_malformed_spec(capsys, tmp_path, document, message):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(document))
    code, _, err = run(capsys, "verify", "--spec-file", str(spec_path))
    assert code == 2
    assert message in err
    assert not (tmp_path / "bad.certificate.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: _edited(d, ["seed"]), "certificate.seed is missing"),
        (lambda d: _edited(d, ["witness"]), "certificate.witness is missing"),
        (lambda d: _edited(d, ["verified"], "yes"), "certificate.verified must be a boolean"),
        (lambda d: _edited(d, ["t"], "four"), "certificate.t must be an integer, got str"),
        (lambda d: [d], "certificate must be an object, got list"),
        (lambda d: _edited(d, ["spec"], [1, 2]), "certificate.spec must be an object, got list"),
        (lambda d: _edited(d, ["spec", "seed"]), "certificate.spec.seed is missing"),
        (
            lambda d: _edited(d, ["witness"], {"color": 2, "vertices": [0, "1"]}),
            "certificate.witness.vertices[1] must be an integer, got str",
        ),
        (
            lambda d: _edited(d, ["expectation", "expected_count_exact"], None),
            "certificate.expectation.expected_count_exact must be a string, got NoneType",
        ),
        (
            lambda d: _edited(d, ["expectation", "per_set_mono_exact"], "1/0"),
            "certificate.expectation: ",
        ),
        (
            lambda d: _edited(d, ["search_stats"], []),
            "certificate.search_stats must be an object, got list",
        ),
        (
            lambda d: _edited(d, ["expectation", "certified_bound"]),
            "certificate.expectation.certified_bound is missing",
        ),
        (
            lambda d: _edited(d, ["claimed_bound"], 1_000_000_000),
            "certificate.claimed_bound is an unknown field",
        ),
        (lambda d: _edited(d, ["spec", "note"], "x"), "certificate.spec.note is an unknown field"),
        (
            lambda d: _edited(d, ["expectation", "extra"], 0),
            "certificate.expectation.extra is an unknown field",
        ),
        (
            lambda d: _edited(d, ["witness"], {"color": 2, "vertices": [0, 1, 2, 3], "why": ""}),
            "certificate.witness.why is an unknown field",
        ),
        (
            lambda d: _edited(d, ["format"], "ramseycert.certificate/2"),
            "unsupported certificate format 'ramseycert.certificate/2'",
        ),
        (
            lambda d: _edited(d, ["witness"], {"color": 0, "vertices": [0, 1, 2, 3]}),
            "certificate.witness: colors are 1-based, got 0",
        ),
        (
            lambda d: _edited(d, ["witness"], {"color": 2, "vertices": [3, 2, 1, 0]}),
            "certificate.witness: witness vertices must be strictly ascending",
        ),
    ],
)
def test_recheck_rejects_malformed_certificate(capsys, tmp_path, edit, message):
    spec_path = _write_spec(tmp_path, capsys, seed=1)
    cert_path = tmp_path / "cert.json"
    run(capsys, "verify", "--spec-file", str(spec_path), "--certificate-out", str(cert_path))
    cert_path.write_text(json.dumps(edit(json.loads(cert_path.read_text()))))
    code, _, err = run(capsys, "recheck", "--certificate-file", str(cert_path))
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "seed, edit, value, message",
    [
        # seed 0 holds the witness color=2 vertices=[0, 2, 4, 5]; seed 1 verifies
        (0, ["witness", "vertices"], [0, 2, 4, 99], "witness.vertices does not reproduce"),
        (0, ["witness", "color"], 4, "witness.color does not reproduce"),
        (0, ["witness", "vertices"], [0, 2, 4], "witness.vertices does not reproduce"),
        (
            1,
            ["expectation", "census_fingerprint"],
            "0" * 64,
            "expectation.census_fingerprint does not reproduce from its spec and seed",
        ),
        (
            1,
            ["expectation", "expected_count_exact"],
            "1/2",
            "expectation.expected_count_exact does not reproduce from its spec and seed",
        ),
        (
            1,
            ["expectation", "expected_count"],
            "0.01",
            "expectation.expected_count does not reproduce from its spec and seed",
        ),
        (
            1,
            ["expectation", "certified_bound"],
            99,
            "expectation.certified_bound does not reproduce from its spec and seed",
        ),
        # equal to the replay's 23/128, but not the bytes verify writes
        (
            1,
            ["expectation", "p_ind_exact"],
            "46/256",
            "expectation.p_ind_exact does not reproduce from its spec and seed",
        ),
        (1, ["spec", "factors"], None, "spec.factors does not reproduce from its spec and seed"),
        (1, ["t"], 5, "t does not reproduce from its spec and seed"),
        (1, ["seed"], 0, "verified does not reproduce from its spec and seed"),
    ],
    ids=[
        "vertex-out-of-range", "color-out-of-range", "short-witness",
        "census-fingerprint", "expected-count-exact", "expected-count", "certified-bound",
        "p-ind-exact-not-canonical", "spec-factors-null", "t", "seed",
    ],
)
def test_recheck_names_the_tampered_field(capsys, tmp_path, seed, edit, value, message):
    spec_path = _write_spec(tmp_path, capsys, seed=seed)
    cert_path = tmp_path / "cert.json"
    run(
        capsys,
        "verify", "--spec-file", str(spec_path), "--max-tries", "1",
        "--certificate-out", str(cert_path),
    )
    cert_path.write_text(json.dumps(_edited(json.loads(cert_path.read_text()), edit, value)))
    code, _, err = run(capsys, "recheck", "--certificate-file", str(cert_path))
    assert code == 1
    assert f"recheck failed: certificate.{message}" in err


@pytest.mark.parametrize("t", [5, 10, 1], ids=["past-census", "past-N", "below-2"])
def test_recheck_replays_at_spec_t_whatever_t_the_file_holds(capsys, tmp_path, t):
    # the replay runs at spec.t=4, so t and expectation.t edited together do not
    # reproduce; t is the first of them in certificate order
    spec_path = _write_spec(tmp_path, capsys, seed=1)
    cert_path = tmp_path / "cert.json"
    run(capsys, "verify", "--spec-file", str(spec_path), "--certificate-out", str(cert_path))
    doc = _edited(json.loads(cert_path.read_text()), ["t"], t)
    cert_path.write_text(json.dumps(_edited(doc, ["expectation", "t"], t)))
    code, _, err = run(capsys, "recheck", "--certificate-file", str(cert_path))
    assert code == 1
    assert "recheck failed: certificate.t does not reproduce" in err


def test_recheck_names_t_on_a_product_below_spec_t(capsys, tmp_path):
    # no expectation block, so t is the only field edited; a replay at the
    # file's t=3 would find a triangle and blame verified instead
    spec_path = tmp_path / "product.json"
    spec_path.write_text(json.dumps(PRODUCT_SPEC))
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "verify", "--spec-file", str(spec_path), "--certificate-out", str(cert_path)
    )
    assert code == 0
    doc = json.loads(cert_path.read_text())
    assert doc["expectation"] is None
    cert_path.write_text(json.dumps(_edited(doc, ["t"], 3)))
    code, _, err = run(capsys, "recheck", "--certificate-file", str(cert_path))
    assert code == 1
    assert "recheck failed: certificate.t does not reproduce from its spec and seed" in err


def test_recheck_names_a_product_seed_other_than_0(capsys, tmp_path):
    # a product replays at its spec's seed 0, so any other seed does not reproduce
    spec_path = tmp_path / "square.json"
    spec_path.write_text(json.dumps({**PRODUCT_SPEC, "factors": [BLOWUP_SPEC] * 2}))
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "verify", "--spec-file", str(spec_path), "--certificate-out", str(cert_path)
    )
    assert code == 0
    cert_path.write_text(json.dumps(_edited(json.loads(cert_path.read_text()), ["seed"], 5)))
    code, _, err = run(capsys, "recheck", "--certificate-file", str(cert_path))
    assert code == 1
    assert "recheck failed: certificate.seed does not reproduce from its spec and seed" in err


THREE_LEAF_SPEC = {
    "kind": "product", "t": 4, "m": 0, "ell": 9, "N": 729, "seed": 0,
    "factors": [*PRODUCT_SPEC["factors"], BLOWUP_SPEC],
}


def _leaves(value, keys=()):
    """(keys, value) for every leaf of a JSON value, in document order."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, (*keys, key))
    else:
        yield keys, value


def _dotted(keys):
    """A leaf's keys as recheck and the validation messages write them: spec.factors[0].seed."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys)[1:]


def _leaf_edit(path, value, blowup_expectation):
    """Another value for one leaf, of the type the leaf holds where it is not null.

    A seed moves to 0, which gives t=4 m=1 N=9 a witness, or from 0 to 1;
    other numbers and strings grow, booleans flip, and null becomes what
    the field holds elsewhere.
    """
    if path.endswith("seed"):
        return 0 if value else 1
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "0"
    return {
        "witness": {"color": 2, "vertices": [0, 1, 2, 3]},
        "expectation": blowup_expectation,
        "expectation.certified_bound": 10,
    }[path]


def _recheck_outcome(capsys, cert_path, doc):
    """Recheck `doc`: "OK", "exit 2", or the path an exit-1 recheck names as not reproducing."""
    cert_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "recheck", "--certificate-file", str(cert_path))
    last = err.splitlines()[-1]
    if code == 0:
        return "OK"
    if code == 2:
        assert last.startswith("error: "), last
        return "exit 2"
    assert code == 1, (code, err)
    prefix, suffix = "recheck failed: certificate.", " does not reproduce from its spec and seed"
    assert last.startswith(prefix) and last.endswith(suffix), last
    return last[len(prefix):-len(suffix)]


@pytest.mark.parametrize(
    "spec, outcomes",
    [
        (
            BLOWUP_SPEC,
            # the replay runs at seed, not spec.seed; seed 0 holds a witness
            {"spec.N": "expectation.N", "spec.seed": "OK", "seed": "verified"},
        ),
        (
            {**BLOWUP_SPEC, "seed": 0},
            {
                "spec.N": "expectation.N",
                "spec.seed": "OK",
                "seed": "verified",  # seed 1 verifies
                "witness.vertices[2]": "exit 2",  # [0, 2, 5, 5] is not strictly ascending
            },
        ),
        (
            THREE_LEAF_SPEC,
            {
                "spec.t": "t",
                "spec.factors[0].seed": "verified",
                "spec.factors[1].seed": "verified",
                "spec.factors[2].seed": "verified",
            },
        ),
        (
            UNIFORM_LEAF_SPEC,
            {"spec.factors[0].seed": "verified", "spec.factors[1].seed": "verified"},
        ),
    ],
    ids=["verified-blowup", "witnessed-blowup", "three-leaf-product", "uniform-leaf-product"],
)
def test_recheck_every_leaf_edit(capsys, tmp_path, spec, outcomes):
    # each leaf of the core edited in turn: recheck exits 1 naming the leaf (a
    # list item names its list, which compares whole) unless listed above; an
    # unknown format or a spec that no longer validates exits 2
    doc = certificate_core(
        coloring.verify_coloring(coloring.ColoringSpec.from_json_dict(spec)).to_json_dict()
    )
    cert_path = tmp_path / "cert.json"
    assert _recheck_outcome(capsys, cert_path, doc) == "OK"
    expectation = coloring.verify_coloring(
        coloring.ColoringSpec.from_json_dict(BLOWUP_SPEC)
    ).to_json_dict()["expectation"]
    got, expected = {}, {}
    for keys, value in _leaves(doc):
        path = _dotted(keys)
        edited = _edited(doc, keys, _leaf_edit(path, value, expectation))
        got[path] = _recheck_outcome(capsys, cert_path, edited)
        default = "exit 2" if path == "format" or path.startswith("spec.") else path.split("[")[0]
        expected[path] = outcomes.get(path, default)
    assert outcomes.keys() <= got.keys()
    assert got == expected
    if spec["kind"] == "product":  # every leaf's t is read, and no factor is a product
        assert "OK" not in got.values()


def test_recheck_accepts_a_seed_that_also_verifies(capsys, tmp_path):
    # seed 2 verifies too, so the edited file is a true certificate of seed 2
    doc = coloring.verify_coloring(coloring.ColoringSpec.from_json_dict(BLOWUP_SPEC)).to_json_dict()
    assert _recheck_outcome(capsys, tmp_path / "cert.json", _edited(doc, ["seed"], 2)) == "OK"


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _search_stats_but_time(doc):
    return {k: v for k, v in doc["search_stats"].items() if k != "wall_time_sec"}


@pytest.mark.parametrize("name", ["r8_9.product", "r8_8.square", "r8_12.cube"])
def test_committed_example_certificate_rechecks(capsys, tmp_path, name):
    # the one proof of each committed bound: a fresh verify of the spec must print
    # the bound and reproduce the committed core. Every example is a product, which
    # replays at its seed 0, so this is what a recheck of the committed file does;
    # it also pins the search_stats, wall time aside, which a recheck ignores
    spec_path, fresh_path = EXAMPLES / f"{name}.json", tmp_path / "fresh.certificate.json"
    spec = json.loads(spec_path.read_text(encoding="ascii"))
    committed = json.loads((EXAMPLES / f"{name}.certificate.json").read_text(encoding="ascii"))
    coloring.Certificate.from_json_dict(committed)
    assert committed["spec"] == spec
    code, out, _ = run(
        capsys, "verify", "--spec-file", str(spec_path), "--certificate-out", str(fresh_path)
    )
    assert code == 0
    assert out.startswith(f"verified: r({spec['t']};{spec['ell']}) >= {spec['N'] + 1} ")
    fresh = json.loads(fresh_path.read_text(encoding="ascii"))
    core = coloring.canonical_json_bytes(certificate_core(committed))
    assert coloring.canonical_json_bytes(certificate_core(fresh)) == core
    assert _search_stats_but_time(fresh) == _search_stats_but_time(committed)


def _nested_spec(depth):
    """A product spec `depth` products deep, as JSON text (json.dumps would recurse as deep)."""
    blowup = {"kind": "blowup", "t": 2, "m": 0, "ell": 2, "seed": 0}
    text, ell = json.dumps({**blowup, "N": 2}), 2
    one_vertex = json.dumps({**blowup, "N": 1})
    for _ in range(depth):
        ell += 2
        text = (
            f'{{"kind": "product", "t": 2, "m": 0, "ell": {ell}, "N": 2, "seed": 0, '
            f'"factors": [{text}, {one_vertex}]}}'
        )
    return text


def test_deeply_nested_input_exits_2(capsys, tmp_path):
    # 600 products nest 1200 JSON containers, past the default recursion limit of 1000
    spec_path, cert_path = tmp_path / "deep.json", tmp_path / "deep.certificate.json"
    spec_path.write_text(_nested_spec(600))
    code, _, err = run(capsys, "verify", "--spec-file", str(spec_path))
    assert code == 2
    assert err.endswith("error: input nested too deeply\n") and "Traceback" not in err
    assert not cert_path.exists()

    cert_path.write_text(
        f'{{"format": "{coloring.CERTIFICATE_FORMAT}", "spec": {_nested_spec(600)}, '
        f'"seed": 0, "t": 2, "verified": false, "exhaustive": true, '
        f'"witness": {{"color": 1, "vertices": [0, 1]}}, "expectation": null}}'
    )
    code, _, err = run(capsys, "recheck", "--certificate-file", str(cert_path))
    assert code == 2
    assert err.endswith("error: input nested too deeply\n") and "Traceback" not in err


def test_generate_refuses_m_past_the_guard(capsys, tmp_path):
    # ell = m + 2 is bounded like any spec's; an unguarded run would draw 10^5 tables
    code, _, err = run(
        capsys,
        "generate", "--t", "4", "--m", str(10**5), "--N", "10",
        "--spec-out", str(tmp_path / "s.json"), "--edge-dump", str(tmp_path / "d.csv"),
    )
    assert code == 2
    assert "error: ell must be at most 10000, got 100002" in err
    assert not (tmp_path / "s.json").exists() and not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["verify", "--spec-file", "spec.json", "--max-tries", "0"],
            "max_tries must be positive, got 0",
        ),
        (["certify", "--t", "4", "--m", "-1"], "m must be non-negative, got -1"),
    ],
    ids=["max-tries-0", "negative-m"],
)
def test_out_of_range_argument_exits_2(capsys, tmp_path, argv, message):
    _write_spec(tmp_path, capsys, seed=1)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"error: {message}" in err


def test_verify_and_recheck_reject_non_ascii_bytes(capsys, tmp_path):
    spec_path = _write_spec(tmp_path, capsys, seed=1)
    cert_path = tmp_path / "cert.json"
    run(capsys, "verify", "--spec-file", str(spec_path), "--certificate-out", str(cert_path))
    for command, flag, path in (
        ("verify", "--spec-file", spec_path),
        ("recheck", "--certificate-file", cert_path),
    ):
        path.write_bytes(path.read_bytes().replace(b'"blowup"', b'"blowup\xc3\xa9"'))
        code, _, err = run(capsys, command, flag, str(path))
        assert code == 2
        assert "can't decode byte 0xc3" in err


def test_verify_deterministic_across_runs_and_threads(capsys, tmp_path):
    spec_path = _write_spec(tmp_path, capsys, seed=1)
    certs = []
    for name in ("a", "b", "c"):
        path = tmp_path / f"cert_{name}.json"
        run(
            capsys,
            "verify", "--spec-file", str(spec_path), "--certificate-out", str(path),
        )
        payload = json.loads(path.read_text())
        certs.append(
            json.dumps(certificate_core(payload), sort_keys=True).encode()
        )
    assert certs[0] == certs[1] == certs[2]


def test_bounds_table_command(capsys, tmp_path):
    out_path = tmp_path / "bounds.csv"
    code, out, _ = run(
        capsys, "bounds-table", "--ell-min", "2", "--ell-max", "6", "--out", str(out_path)
    )
    assert code == 0
    assert "ell=4 source=this_paper rate=5/4 base=2.378" in out
    rows = out_path.read_text().splitlines()
    assert rows[0].startswith("ell,source,")
    assert len(rows) == 1 + 4 * 5


def test_verify_g0_command(capsys, tmp_path):
    graph_path = tmp_path / "g.graph"
    run(capsys, "build-graph", "--t", "4", "--out", str(graph_path))
    code, out, _ = run(capsys, "verify-g0", "--graph-file", str(graph_path))
    assert code == 0
    assert "lemma1: OK file: OK" in out

    # drop one edge but keep the header consistent: content no longer matches
    lines = graph_path.read_text().splitlines()
    lines[0] = "g0 t=4 n=8 m=11"
    graph_path.write_text("\n".join(lines[:-1]) + "\n")
    code, _, err = run(capsys, "verify-g0", "--graph-file", str(graph_path))
    assert code == 1
    assert "does not match" in err


K = 3  # the edited edge line, `1 3` at t=4 and at t=6

# (id, edit of the file's lines, exit code, the line the message names: None for
# the line after the file's last). The header is compared after the edge lines.
TAMPERS = [
    ("drop", lambda lines: lines[: K - 1] + lines[K:], 1, K),
    ("duplicate", lambda lines: lines[:K] + lines[K - 1 :], 1, K + 1),
    ("swap", lambda lines: lines[: K - 1] + [lines[K], lines[K - 1]] + lines[K + 1 :], 1, K),
    ("append", lambda lines: lines + [b"0 1\n"], 1, None),
    ("digit", lambda lines: lines[: K - 1] + [b"1 4\n"] + lines[K:], 1, K),
    ("crlf", lambda lines: [line.replace(b"\n", b"\r\n") for line in lines], 2, 1),
    ("blank-line", lambda lines: lines[:1] + [b"\n"] + lines[1:], 2, 2),
    ("header-m", lambda lines: [lines[0].replace(b" m=", b" m=1")] + lines[1:], 1, 1),
    ("header-t-padded", lambda lines: [lines[0].replace(b" t=", b" t=0")] + lines[1:], 1, 1),
]


@pytest.mark.parametrize(
    "edit, code, number", [tamper[1:] for tamper in TAMPERS], ids=[tamper[0] for tamper in TAMPERS]
)
@pytest.mark.parametrize("t", [4, 6])
def test_verify_g0_names_the_tampered_line(capsys, tmp_path, t, edit, code, number):
    graph_path = tmp_path / "g.graph"
    run(capsys, "build-graph", "--t", str(t), "--out", str(graph_path))
    lines = graph_path.read_bytes().splitlines(keepends=True)
    assert lines[K - 1] == b"1 3\n"
    graph_path.write_bytes(b"".join(edit(lines)))
    got, _, err = run(capsys, "verify-g0", "--graph-file", str(graph_path))
    assert got == code
    named = f"graph file line {number or len(lines) + 1}: "
    if code == 1:
        assert err.splitlines()[-1].startswith(named)
        assert "does not match the construction" in err
    else:
        assert f"error: {named}" in err


def test_verify_g0_reads_a_bounded_line(capsys, tmp_path):
    # a valid header, then 8 MB with no line end: read line by line without a
    # limit, the one line alone would take 8 MB
    graph_path = tmp_path / "long.graph"
    graph_path.write_bytes(b"g0 t=4 n=8 m=12\n" + b"1" * 8_000_000)
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "verify-g0", "--graph-file", str(graph_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "error: graph file line 2: longer than 64 bytes" in err
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "content, message",
    [
        (b"g0 t=5 n=16 m=0\n", "header field t: construction requires even t"),
        (b"g0 t=4 n=9 m=0\n", "header field n: t=4 needs n=8, got 9"),
        (b"g0 t=x n=8 m=0\n", "header field t must be a non-negative integer, got 'x'"),
        (b"g0 t=4 n=8 m=1\n0 1 2\n", "line 2: 3 fields, expected `i j`"),
        (b"g0 t=4 n=8 m=1\n0 \xc3\xa9\n", "line 2: non-ASCII byte"),
        (b"g0 t=16 n=32768 m=0\n", "header field t: t=16 gives G0 32768 vertices, past the guard"),
    ],
    ids=[
        "odd-t", "n-not-matching-t", "t-not-integer", "three-token-edge-line", "non-ascii",
        "t-past-guard",
    ],
)
def test_verify_g0_rejects_malformed_graph_file(capsys, tmp_path, content, message):
    graph_path = tmp_path / "bad.graph"
    graph_path.write_bytes(content)
    code, _, err = run(capsys, "verify-g0", "--graph-file", str(graph_path))
    assert code == 2
    assert f"error: graph file {message}" in err


def test_lemma1_lines_come_from_the_proof_not_the_search(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Lemma 1 checked by exhaustive search")

    monkeypatch.setattr(graphs, "max_clique", refuse)
    monkeypatch.setattr(cli, "max_clique", refuse, raising=False)
    graph_path = tmp_path / "g0_t8.graph"
    code, out, _ = run(capsys, "build-graph", "--t", "8", "--out", str(graph_path))
    assert code == 0
    assert out == "n=128 m=4032 max_clique=7 lemma1: OK\n"
    code, out, _ = run(capsys, "verify-g0", "--graph-file", str(graph_path))
    assert code == 0
    assert out == "n=128 m=4032 max_clique=7 lemma1: OK file: OK\n"


def test_build_graph_refuses_t_past_the_guard(capsys, tmp_path):
    graph_path = tmp_path / "g.graph"
    code, _, err = run(capsys, "build-graph", "--t", "16", "--out", str(graph_path))
    assert code == 2
    assert "error: t=16 gives G0 32768 vertices, past the guard 10000" in err
    assert not graph_path.exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_console_entry_point(tmp_path):
    # The child runs the same package this suite imported (src/ or an install
    # location) and otherwise gets nothing from the caller's environment.
    package_root = Path(ramseycert.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "ramseycert.cli", "certify", "--t", "4", "--m", "0"],
        capture_output=True,
        text=True,
        env={"PATH": "", "PYTHONPATH": str(package_root)},
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "certified N=6" in proc.stdout


def test_import_loads_neither_dataclasses_inspect_nor_csv():
    # short runs spend much of their time starting up, so importing the
    # package must not pull these in; -I ignores PYTHONPATH, so the child
    # puts the package this suite imported on sys.path itself
    package_root = Path(ramseycert.__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(package_root)!r}); before = set(sys.modules); "
        "import ramseycert; print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "ramseycert.coloring" in loaded
    assert not loaded & {"dataclasses", "inspect", "csv"}, sorted(loaded)
