"""Output checks that turn a fast wrong answer into a failed op.

Each checker returns (ok, detail).  `python3 bench/checks.py` runs the
self-test: every checker must accept a genuine output and reject tampered
copies of it.  `--record-digests` rewrites cli_digests.json from the current
program; do that only when a change to CLI output is intended.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import sys

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digests.json")


def load_digests():
    with open(DIGEST_FILE) as fh:
        return json.load(fh)


def digest_key(cmd, name, N):
    return f"{cmd} {name}" if cmd == "ring info" else f"{cmd} {name} N{N}"


def check_digest(digests, key, out):
    """Seed-independent CLI requests must print the recorded bytes."""
    want = digests.get(key)
    if want is None:
        return False, f"no recorded digest for {key!r}"
    got = hashlib.sha256(out).hexdigest()
    return (got == want), f"{key}: sha256 {got[:12]} != recorded {want[:12]}"


def check_counting(log_c, log_d, N, ring_log_p):
    ok = log_c + log_d == N * ring_log_p
    return ok, f"log|C| + log|C^perp| = {log_c} + {log_d} != N log|R| = {N * ring_log_p}"


def check_cli_dual(report, spec):
    """A `code dual` report: counting identity, echo, and the dual recipe."""
    ring = spec["ring"]
    m = ring["k"] * (ring["n"] - 1) + ring["t"]
    N, log_r = spec["N"], ring["r"] * m
    if report.get("ambient_log_p") != N * log_r:
        return False, f"ambient_log_p {report.get('ambient_log_p')} != {N * log_r}"
    ok, detail = check_counting(report["log_p_card"], report["dual_log_p_card"], N, log_r)
    if not ok:
        return ok, detail
    echo = report["spec"]
    key = "e" if spec["family"] == "galois" else "a"
    if echo.get("family") != spec["family"] or echo.get("N") != N or echo.get(key) != spec[key]:
        return False, "spec echo differs from the request"
    if not isinstance(report.get("self_dual"), bool):
        return False, "self_dual is not a boolean"
    width = N * ring["r"] * ring["k"]
    if any(len(row) != width for row in report["dual_generators"]):
        return False, f"dual generator rows are not {width} wide"
    if spec["family"] == "galois":
        dual = report["dual_spec"]
        if dual.get("basis") != "theta":
            return False, "dual of an omega spec must come back in the theta basis"
        flipped = sorted(m - x for row in spec["e"] for x in row)
        if sorted(x for row in dual["e"] for x in row) != flipped:
            return False, "dual exponents are not m - e over the mu-paired components"
    return True, ""


def check_galois_dual(res):
    spec, code, dual = res["spec"], res["code"], res["dual"]
    ok, detail = check_counting(code.log_p_card, dual.log_p_card, spec.N, spec.ring.log_p_card)
    if not ok:
        return ok, detail
    if res["formula"] != code.log_p_card:
        return False, f"closed-form log|C| {res['formula']} != built {code.log_p_card}"
    back = res["back"]
    if (back.e, back.basis) != (spec.e, spec.basis):
        return False, "dual of the dual spec differs from the spec"
    return True, ""


def check_eisenstein_dual(res):
    spec, code, dual = res["spec"], res["code"], res["dual"]
    ok, detail = check_counting(code.log_p_card, dual.log_p_card, spec.N, spec.ring.log_p_card)
    if not ok:
        return ok, detail
    if res["equal"] is not True:
        return False, "dual of the dual differs from the code"
    closed = res["closed"].a
    if any(a > c for row, crow in zip(spec.a, closed) for a, c in zip(row, crow)):
        return False, "normalize_spec dropped an indicator"
    return True, ""


def check_decomposed(got, spec):
    if (got.e, got.basis) != (spec.e, spec.basis):
        return False, f"decomposed exponents {got.e} != built {spec.e}"
    return True, ""


def check_true(value):
    return value is True, f"expected True, got {value!r}"


def check_weights(weights, code):
    """Counts sum to p^log|C|, with exactly one word of weight 0."""
    total = code.ring.p ** code.log_p_card
    if sum(weights.values()) != total:
        return False, f"weight counts sum to {sum(weights.values())}, not {total}"
    if weights.get(0) != 1:
        return False, f"{weights.get(0)} words of weight 0"
    if any(not 0 <= w <= code.N for w in weights):
        return False, "weight outside [0, N]"
    return True, ""


def check_oracle(report):
    return report.verdict == "pass", f"oracle verdict {report.verdict}: {report.details}"


# -- self-test -------------------------------------------------------------------


def self_test(workdir):
    """Every checker accepts a genuine output and rejects tampered ones.

    Returns the list of failures (empty when every checker behaves).
    """
    from chaincodes import cli, codes, oracle

    import workloads as wl

    failures = []

    def expect(label, verdict, want):
        if verdict[0] is not want:
            failures.append(f"{label}: checker said {verdict[0]}, expected {want}")

    def tampered(res, key, value):
        out = dict(res)
        out[key] = value
        return out

    demo, eis = wl.make_ring("demo"), wl.make_ring("eis")
    rng = wl.slot_rng(0, "self-test")

    fake = {"ring info demo": hashlib.sha256(b"{}\n").hexdigest()}
    expect("digest genuine", check_digest(fake, "ring info demo", b"{}\n"), True)
    expect("digest tampered", check_digest(fake, "ring info demo", b"{ }\n"), False)
    expect("digest missing", check_digest(fake, "ring info eis", b"{}\n"), False)

    spec = wl.galois_spec(demo, 3, rng, rate=0.5)
    res = wl.galois_dual_op(spec)
    expect("galois genuine", check_galois_dual(res), True)
    bigger = dataclasses.replace(res["dual"], log_p_card=res["dual"].log_p_card + 1)
    expect("galois counting", check_galois_dual(tampered(res, "dual", bigger)), False)
    expect("galois formula", check_galois_dual(tampered(res, "formula", res["formula"] + 1)), False)
    wrong_back = dataclasses.replace(res["back"], e=tuple(tuple(3 - x for x in row) for row in spec.e))
    expect("galois round trip", check_galois_dual(tampered(res, "back", wrong_back)), False)

    res = wl.eisenstein_dual_op(wl.eisenstein_spec(eis, 3, rng, 0.5))
    expect("eisenstein genuine", check_eisenstein_dual(res), True)
    expect("eisenstein round trip", check_eisenstein_dual(tampered(res, "equal", False)), False)
    smaller = dataclasses.replace(res["dual"], log_p_card=res["dual"].log_p_card - 1)
    expect("eisenstein counting", check_eisenstein_dual(tampered(res, "dual", smaller)), False)
    dropped = dataclasses.replace(res["closed"], a=tuple((0,) * len(row) for row in res["closed"].a))
    expect("eisenstein closure", check_eisenstein_dual(tampered(res, "closed", dropped)), False)

    spec = wl.galois_spec(eis, 7, rng, rate=0.5)
    code = wl.gc.build_galois_code(spec)
    weights = codes.weight_enumerator(code)
    expect("weights genuine", check_weights(weights, code), True)
    extra = dict(weights)
    extra[max(extra)] += 1
    expect("weights sum", check_weights(extra, code), False)
    two_zeros = dict(weights)
    two_zeros[0] = 2
    two_zeros[max(two_zeros)] -= 1
    expect("weights zero word", check_weights(two_zeros, code), False)

    got = wl.gc.decompose_to_spec(code)
    expect("decompose genuine", check_decomposed(got, spec), True)
    bumped = [list(row) for row in got.e]
    bumped[0][0] = (bumped[0][0] + 1) % (eis.m + 1)
    off = dataclasses.replace(got, e=tuple(map(tuple, bumped)))
    expect("decompose tampered", check_decomposed(off, spec), False)
    expect("query genuine", check_true(codes.is_shift_closed(code)), True)
    expect("query tampered", check_true(False), False)

    report = oracle.cross_check(wl.galois_spec(eis, 3, rng, rate=0.5))
    expect("oracle genuine", check_oracle(report), True)
    expect("oracle tampered", check_oracle(dataclasses.replace(report, verdict="fail")), False)

    spec = wl.galois_spec(demo, 3, rng, rate=0.5)
    request = {"family": "galois", "ring": wl.RING_SPECS["demo"], "N": 3,
               "e": [list(row) for row in spec.e], "basis": "omega"}
    code_path = os.path.join(workdir, "self-test-code.json")
    out_path = os.path.join(workdir, "self-test-dual.json")
    wl.write_json(code_path, request)
    if cli.main(["code", "dual", "--code", code_path, "--out", out_path]) != 0:
        failures.append("code dual request failed")
        return failures
    with open(out_path) as fh:
        report = json.load(fh)
    expect("cli dual genuine", check_cli_dual(report, request), True)
    for label, mutate in [
        ("cli dual counting", lambda r: r.__setitem__("dual_log_p_card", r["dual_log_p_card"] + 1)),
        ("cli dual ambient", lambda r: r.__setitem__("ambient_log_p", r["ambient_log_p"] - 1)),
        ("cli dual basis", lambda r: r["dual_spec"].__setitem__("basis", "omega")),
        ("cli dual exponents", lambda r: r["dual_spec"]["e"][0].__setitem__(0, -1)),
        ("cli dual echo", lambda r: r["spec"].__setitem__("N", 5)),
    ]:
        bad = copy.deepcopy(report)
        mutate(bad)
        expect(label, check_cli_dual(bad, request), False)
    return failures


def record_digests(workdir):
    """Run every seed-independent cli-cold request and store its digest."""
    import run
    import workloads as wl

    env = wl.cli_env(run.ROOT)
    for name, spec in wl.RING_SPECS.items():
        wl.write_json(os.path.join(workdir, f"ring-{name}.json"), spec)
    requests = {("ring info", name, 0) for name in wl.RING_SPECS}
    requests |= {(cmd, name, N) for name, N in wl.CLI_PAIRS for cmd in ("cosets", "idempotents")}
    digests = {}
    for cmd, name, N in sorted(requests):
        code, out, _ = wl.spawn_cli(wl.cli_argv(cmd, name, N, workdir), env, workdir, timeout=600)
        if code != 0:
            raise SystemExit(f"{cmd} {name} N={N} exited {code}")
        digests[digest_key(cmd, name, N)] = hashlib.sha256(out).hexdigest()
    with open(DIGEST_FILE, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import run

    workdir = run.prepare()
    try:
        if sys.argv[1:] == ["--record-digests"]:
            record_digests(workdir)
            sys.exit(0)
        problems = self_test(workdir)
        for line in problems:
            print(line)
        print("self-test:", "FAIL" if problems else "every checker rejects its tampered input")
        sys.exit(1 if problems else 0)
    finally:
        run.cleanup(workdir)
