"""The command-line interface: reports, exit codes, determinism, round-trips."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from chaincodes.cli import main

GAL_RING = {"p": 2, "n": 2, "r": 2, "k": 2, "t": 1, "g_tail": [1, 0], "f": [1, 1, 1]}
EIS_RING = {"p": 2, "n": 2, "r": 1, "k": 2, "t": 1, "g_tail": [1, 0]}
GAL_CODE = {"family": "galois", "ring": GAL_RING, "N": 3, "e": [[0, 2], [1, 3]]}
EIS_CODE = {"family": "eisenstein", "ring": EIS_RING, "N": 3, "a": [[1, 1, 0], [0, 1, 0]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in [
        ("gal_ring", GAL_RING),
        ("eis_ring", EIS_RING),
        ("gal_code", GAL_CODE),
        ("eis_code", EIS_CODE),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_ring_info_worked_example(files, capsys):
    code, rep = run(capsys, "ring", "info", "--ring", files["gal_ring"])
    assert code == 0
    assert rep["m"] == 3 and rep["log_p_card"] == 6
    assert rep["extension_degrees"]["ring_over_coefficient_ring"] == "3/2"
    assert rep["extension_degrees"]["coefficient_ring_over_zpn"] == "2"


def test_ring_info_z4(tmp_path, capsys):
    p = tmp_path / "z4.json"
    p.write_text(json.dumps({"p": 2, "n": 2, "r": 1, "k": 1, "t": 1, "g_tail": [1]}))
    code, rep = run(capsys, "ring", "info", "--ring", str(p))
    assert code == 0
    assert rep["m"] == 2 and rep["log_p_card"] == 2
    assert len(rep["ideal_chain_log_p"]) == 3  # R > <x> > 0


def test_ring_info_eis_has_8_elements(files, capsys):
    code, rep = run(capsys, "ring", "info", "--ring", files["eis_ring"])
    assert code == 0 and rep["log_p_card"] == 3


def test_cosets_report(files, capsys):
    code, rep = run(capsys, "cosets", "--ring", files["gal_ring"], "--N", "3")
    assert code == 0
    assert rep["u"] == 0 and rep["v"] == 1
    assert rep["cosets_p"] == [[0], [1, 2]]
    assert rep["kappa_split"] == {"1,0": 1, "1,1": 1}


def test_idempotents_report(files, capsys):
    code, rep = run(capsys, "idempotents", "--ring", files["gal_ring"], "--N", "3")
    assert code == 0
    assert rep["eps"][0] == [[[3, 0], [0, 0]], [[3, 0], [0, 0]], [[3, 0], [0, 0]]]
    assert rep["mu_perm"] == [0, 1]
    assert rep["theta"] == [[[3, 0], [1, 0]], [[1, 0], [2, 0]]]


def test_code_build_report(files, capsys):
    code, rep = run(capsys, "code", "build", "--code", files["gal_code"])
    assert code == 0
    assert rep["log_p_card"] == 8
    assert rep["min_weight"] == 2
    code, rep = run(capsys, "code", "build", "--code", files["eis_code"])
    assert code == 0 and rep["log_p_card"] == 5 and rep["min_weight"] == 1


def test_code_build_with_separate_ring_flag(files, capsys, tmp_path):
    bare = {k: v for k, v in GAL_CODE.items() if k != "ring"}
    p = tmp_path / "bare.json"
    p.write_text(json.dumps(bare))
    code, rep = run(
        capsys, "code", "build", "--code", str(p), "--ring", files["gal_ring"]
    )
    assert code == 0 and rep["log_p_card"] == 8


def test_code_dual_report_and_round_trip(files, capsys, tmp_path):
    code, rep = run(capsys, "code", "dual", "--code", files["gal_code"])
    assert code == 0
    assert rep["log_p_card"] == 8 and rep["dual_log_p_card"] == 10
    assert rep["ambient_log_p"] == 18
    assert rep["self_dual"] is False
    # the emitted dual spec feeds back into code build
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(json.dumps(rep["dual_spec"]))
    code2, rep2 = run(capsys, "code", "build", "--code", str(dual_path))
    assert code2 == 0 and rep2["log_p_card"] == 10


def test_code_dual_eisenstein(files, capsys):
    code, rep = run(capsys, "code", "dual", "--code", files["eis_code"])
    assert code == 0
    assert rep["log_p_card"] == 5 and rep["dual_log_p_card"] == 4
    assert rep["self_dual"] is False


def test_code_weights(files, capsys):
    code, rep = run(capsys, "code", "weights", "--code", files["eis_code"])
    assert code == 0
    assert sum(rep["weights"].values()) == 2**5


def test_chars_table(files, capsys):
    code, rep = run(capsys, "chars", "--ring", files["eis_ring"])
    assert code == 0
    assert rep["beta_exponents"][1] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert rep["beta_exponents"][4] == [0, 0, 0, 0, 2, 2, 2, 2]
    assert rep["root_order"] == 4


def test_chars_rejects_rank_two(files, capsys):
    code = main(["chars", "--ring", files["gal_ring"]])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("n", [11, 21])
def test_chars_over_cap_exits_2(n, tmp_path, capsys):
    ring = tmp_path / "big.json"
    ring.write_text(json.dumps({"p": 2, "n": n, "r": 1, "k": 1, "t": 1, "g_tail": [1]}))
    assert main(["chars", "--ring", str(ring)]) == 2
    assert capsys.readouterr().out == ""


def test_verify_both_families(files, capsys):
    assert main(["verify", "--code", files["gal_code"]]) == 0
    capsys.readouterr()
    assert main(["verify", "--code", files["eis_code"]]) == 0
    capsys.readouterr()


def test_verify_over_cap_exits_2(files, capsys):
    assert main(["verify", "--code", files["gal_code"], "--cap", "5"]) == 2
    capsys.readouterr()


def test_weights_over_cap_exits_2(files, capsys):
    assert main(["code", "weights", "--code", files["gal_code"], "--cap", "3"]) == 2
    capsys.readouterr()


def test_family_ring_rank_mismatch_exits_2(files, capsys, tmp_path):
    bad = {"family": "eisenstein", "ring": GAL_RING, "N": 3, "a": [[1, 0, 0], [0, 0, 0]]}
    p = tmp_path / "rank.json"
    p.write_text(json.dumps(bad))
    assert main(["code", "build", "--code", str(p)]) == 2
    capsys.readouterr()


def test_verify_non_coprime_length(files, capsys, tmp_path):
    bad = dict(EIS_CODE)
    bad["N"] = 6
    bad["a"] = [[1, 0, 0], [0, 0, 0]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["verify", "--code", str(p)]) == 2
    capsys.readouterr()


def test_malformed_spec_exit_code(files, capsys, tmp_path):
    p = tmp_path / "malformed.json"
    p.write_text('{"family": "galois", "N": 3}')
    assert main(["code", "build", "--code", str(p)]) == 2
    capsys.readouterr()
    p2 = tmp_path / "broken.json"
    p2.write_text("{not json")
    assert main(["code", "build", "--code", str(p2)]) == 2
    capsys.readouterr()
    assert main(["code", "build", "--code", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_deterministic_output(files, capsys):
    _, first = run(capsys, "idempotents", "--ring", files["gal_ring"], "--N", "3")
    main(["idempotents", "--ring", files["gal_ring"], "--N", "3"])
    second_raw = capsys.readouterr().out
    main(["idempotents", "--ring", files["gal_ring"], "--N", "3"])
    third_raw = capsys.readouterr().out
    assert second_raw == third_raw  # byte-identical


def test_out_flag(files, capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["ring", "info", "--ring", files["gal_ring"], "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["m"] == 3
    assert capsys.readouterr().out == ""


def test_cold_commands_do_not_import_numpy(files):
    """ring info, cosets and idempotents never load numpy, which keeps a cold
    CLI start down to the interpreter and the ring code."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    ring = files["gal_ring"]
    script = textwrap.dedent(
        f"""
        import sys
        from chaincodes.cli import main

        for argv in (["ring", "info"], ["cosets", "--N", "7"], ["idempotents", "--N", "7"]):
            if main(argv + ["--ring", {ring!r}]) != 0:
                sys.exit(f"{{argv}} failed")
        sys.exit("numpy was imported" if "numpy" in sys.modules else 0)
        """
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr


def test_wrong_dual_fails_under_python_O(files):
    """The counting identity is an explicit check: a wrong dual exits nonzero
    with `python -O` too."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = textwrap.dedent(
        f"""
        import sys
        from chaincodes import galois_codes
        from chaincodes.cli import main

        assert False, "asserts must be off"
        galois_codes.dual_galois_code = lambda spec: spec
        sys.exit(main(["code", "dual", "--code", {files["gal_code"]!r}]))
        """
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode != 0
    assert out.stderr.startswith("error:"), out.stderr
    assert out.stdout == ""
