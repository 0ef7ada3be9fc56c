import copy
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ramseycert
from ramseycert import cli, coloring
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

    # build_g0(30) alone would need 2^29 rows: refuse it too, so a regression
    # fails here instead of exhausting memory
    monkeypatch.setattr(coloring, "build_g0", refuse)
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
    assert "edge dumps are limited" in err


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
    ],
)
def test_verify_rejects_malformed_spec(capsys, tmp_path, document, message):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(document))
    code, _, err = run(capsys, "verify", "--spec-file", str(spec_path))
    assert code == 2
    assert message in err


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
        (0, ["witness", "vertices"], [0, 2, 4, 99], "witness.vertices: 99 out of range for N=9"),
        (0, ["witness", "color"], 4, "witness.color 4 exceeds ell=3"),
        (0, ["witness", "vertices"], [0, 2, 4], "witness.vertices must hold t=4 vertices"),
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
        (1, ["t"], 5, "t 5 does not match certificate.expectation.t"),
        (1, ["seed"], 0, "verified does not reproduce from its spec and seed"),
    ],
    ids=[
        "vertex-out-of-range", "color-out-of-range", "short-witness",
        "census-fingerprint", "expected-count-exact", "t", "seed",
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


def test_recheck_roundtrip_and_tamper(capsys, tmp_path):
    spec_path = _write_spec(tmp_path, capsys, seed=1)
    cert_path = tmp_path / "cert.json"
    run(capsys, "verify", "--spec-file", str(spec_path), "--certificate-out", str(cert_path))

    code, out, _ = run(capsys, "recheck", "--certificate-file", str(cert_path))
    assert code == 0
    assert "recheck: OK" in out

    tampered = json.loads(cert_path.read_text())
    tampered["verified"] = False  # contradicts exhaustive search with no witness
    cert_path.write_text(json.dumps(tampered))
    code, _, err = run(capsys, "recheck", "--certificate-file", str(cert_path))
    assert code == 1
    assert "recheck failed" in err


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


@pytest.mark.parametrize(
    "content, message",
    [
        (b"g0 t=5 n=16 m=0\n", "header field t: construction requires even t"),
        (b"g0 t=4 n=9 m=0\n", "header field n: t=4 needs n=8, got 9"),
        (b"g0 t=x n=8 m=0\n", "header field t must be a non-negative integer, got 'x'"),
        (b"g0 t=4 n=8 m=1\n0 1 2\n", "line 2: 3 fields, expected `i j`"),
        (b"g0 t=4 n=8 m=1\n0 \xc3\xa9\n", "line 2: non-ASCII byte"),
    ],
    ids=["odd-t", "n-not-matching-t", "t-not-integer", "three-token-edge-line", "non-ascii"],
)
def test_verify_g0_rejects_malformed_graph_file(capsys, tmp_path, content, message):
    graph_path = tmp_path / "bad.graph"
    graph_path.write_bytes(content)
    code, _, err = run(capsys, "verify-g0", "--graph-file", str(graph_path))
    assert code == 2
    assert f"error: graph file {message}" in err


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
