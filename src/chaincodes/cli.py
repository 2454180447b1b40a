"""Command-line front end.

Subcommands: ring info, cosets, idempotents, code build, code dual,
code weights, chars, verify.  All reports are JSON with sorted keys, so
identical inputs produce byte-identical stdout.  Exit codes: 0 success,
2 usage or parameter error (including over-cap requests), 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import CertificateError, ChainCodesError, ParameterError, TooLargeError
from .polyfactory import classify_cosets
from .rings import ChainRing

# numpy and the code modules are imported inside the commands that use them,
# so `ring info`, `cosets` and `idempotents` start without importing numpy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY_FAIL = 3


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return _jsonable(obj.tolist())
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _emit(report, out_path):
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _ring_from_args(args, embedded=None):
    if embedded is not None:
        return ChainRing.from_json(embedded)
    if getattr(args, "ring", None) is None:
        raise ParameterError("no ring spec: pass --ring or embed one in the code spec")
    return ChainRing.from_json(_load_json(args.ring))


def _code_spec_from_args(args):
    from . import eisenstein_codes as ec
    from . import galois_codes as gc

    obj = _load_json(args.code)
    ring = _ring_from_args(args, obj.get("ring"))
    family = obj.get("family")
    if "N" not in obj:
        raise ParameterError("code spec needs N")
    N = int(obj["N"])
    if family == "galois":
        if "e" not in obj:
            raise ParameterError("galois code spec needs an exponent matrix e")
        return gc.GaloisCodeSpec(
            ring=ring, N=N, e=obj["e"], basis=obj.get("basis", "omega")
        )
    if family == "eisenstein":
        if "a" not in obj:
            raise ParameterError("eisenstein code spec needs an indicator matrix a")
        return ec.EisensteinCodeSpec(ring=ring, N=N, a=obj["a"])
    raise ParameterError(f"unknown code family {family!r}")


def _poly_json(poly):
    return [c.to_json() for c in poly]


def cmd_ring_info(args):
    ring = _ring_from_args(args)
    report = {
        "p": ring.p,
        "n": ring.n,
        "r": ring.r,
        "k": ring.k,
        "t": ring.t,
        "m": ring.m,
        "log_p_card": ring.log_p_card,
        "ideal_chain_log_p": [ring.r * (ring.m - v) for v in range(ring.m + 1)],
        "extension_degrees": {
            "ring_over_coefficient_ring": Fraction(ring.m, ring.n),
            "coefficient_ring_over_zpn": Fraction(ring.r, 1),
            "ring_over_zpn": Fraction(ring.r * ring.m, ring.n),
        },
        "ring": ring.to_json(),
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_cosets(args):
    ring = _ring_from_args(args)
    cls = classify_cosets(args.N, ring.p, ring.r)
    report = {
        "N": cls.N,
        "p": cls.p,
        "r": cls.r,
        "leaders": list(cls.leaders),
        "u": cls.u,
        "v": cls.v,
        "cosets_p": [list(c) for c in cls.cosets_p],
        "cosets_pr": [list(c) for c in cls.cosets_pr],
        "kappa": list(cls.kappa),
        "kappa_split": {f"{i},{h}": v for (i, h), v in sorted(cls.kappa_split.items())},
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_idempotents(args):
    from .idempotents import idempotent_system

    ring = _ring_from_args(args)
    sys_ = idempotent_system(ring, args.N)
    report = {
        "N": args.N,
        "eps": [_poly_json(e) for e in sys_.eps],
        "eps_split": {f"{i},{h}": _poly_json(e) for (i, h), e in sorted(sys_.eps_split.items())},
        "mu_perm": list(sys_.mu_perm),
        "m_polys": {
            "m": [_poly_json(mp) for mp in sys_.m_polys["m"]],
            "m_split": {
                f"{i},{h}": _poly_json(mp)
                for (i, h), mp in sorted(sys_.m_polys["m_split"].items())
            },
        },
        "theta": [c.to_json() for c in sys_.theta],
        "ring": ring.to_json(),
    }
    _emit(report, args.out)
    return EXIT_OK


def _build_handle(spec):
    from . import eisenstein_codes as ec
    from . import galois_codes as gc

    if isinstance(spec, gc.GaloisCodeSpec):
        return gc.build_galois_code(spec)
    return ec.build_eisenstein_code(spec)


def cmd_code_build(args):
    from . import codes

    spec = _code_spec_from_args(args)
    handle = _build_handle(spec)
    report = {
        "spec": spec.to_json(),
        "log_p_card": handle.log_p_card,
        "generators": handle.stack.rows,
    }
    try:
        weights = codes.weight_enumerator(handle, args.cap)
        report["min_weight"] = min((w for w in weights if w > 0), default=0)
    except TooLargeError:
        report["min_weight"] = None
    _emit(report, args.out)
    return EXIT_OK


def cmd_code_dual(args):
    from . import eisenstein_codes as ec
    from . import galois_codes as gc
    from . import modlinalg

    spec = _code_spec_from_args(args)
    handle = _build_handle(spec)
    ambient = spec.N * spec.ring.log_p_card
    if isinstance(spec, gc.GaloisCodeSpec):
        dual_spec = gc.dual_galois_code(spec)
        dual_handle = gc.build_galois_code(dual_spec)
        report = {
            "spec": spec.to_json(),
            "dual_spec": dual_spec.to_json(),
            "log_p_card": handle.log_p_card,
            "dual_log_p_card": dual_handle.log_p_card,
            "self_dual": gc.is_self_dual(spec),
            "dual_generators": dual_handle.stack.rows,
        }
    else:
        dual_handle = ec.eisenstein_dual_code(handle)
        report = {
            "spec": spec.to_json(),
            "log_p_card": handle.log_p_card,
            "dual_log_p_card": dual_handle.log_p_card,
            "self_dual": bool(modlinalg.stacks_equal(handle.stack, dual_handle.stack)),
            "dual_generators": dual_handle.stack.rows,
        }
    if handle.log_p_card + dual_handle.log_p_card != ambient:
        raise CertificateError("counting identity failed: log|C| + log|C^dual| != N log|R|")
    report["ambient_log_p"] = ambient
    _emit(report, args.out)
    return EXIT_OK


def cmd_code_weights(args):
    from . import codes

    spec = _code_spec_from_args(args)
    handle = _build_handle(spec)
    weights = codes.weight_enumerator(handle, args.cap)
    report = {
        "spec": spec.to_json(),
        "log_p_card": handle.log_p_card,
        "weights": {str(w): c for w, c in sorted(weights.items())},
        "min_weight": min((w for w in weights if w > 0), default=0),
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_chars(args):
    from . import eisenstein_codes as ec

    ring = _ring_from_args(args)
    table = ec.character_table(ring)
    report = {
        "ring": ring.to_json(),
        "element_order": [e.to_json() for e in ring.elements()],
        "beta_exponents": table,
        "root_order": ring.pn,
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_verify(args):
    from . import oracle

    spec = _code_spec_from_args(args)
    report = oracle.cross_check(spec, cap_log2=args.cap)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed() else EXIT_VERIFY_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chaincodes",
        description="additive cyclic codes over finite commutative chain rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, ring=False, code=False, N=False, cap=None):
        if ring:
            sp.add_argument("--ring", help="path to a ring spec JSON")
        if code:
            sp.add_argument("--code", required=True, help="path to a code spec JSON")
        if N:
            sp.add_argument("--N", type=int, required=True, help="code length")
        if cap is not None:
            sp.add_argument("--cap", type=int, default=cap, help="enumeration cap (log2)")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")

    ring_parser = sub.add_parser("ring", help="ring-level reports")
    ring_sub = ring_parser.add_subparsers(dest="ring_command", required=True)
    sp = ring_sub.add_parser("info", help="parameters, sizes, extension degrees")
    add_common(sp, ring=True)
    sp.set_defaults(func=cmd_ring_info)

    sp = sub.add_parser("cosets", help="cyclotomic coset classification")
    add_common(sp, ring=True, N=True)
    sp.set_defaults(func=cmd_cosets)

    sp = sub.add_parser("idempotents", help="primitive idempotent report")
    add_common(sp, ring=True, N=True)
    sp.set_defaults(func=cmd_idempotents)

    code_parser = sub.add_parser("code", help="build and dualize codes")
    code_sub = code_parser.add_subparsers(dest="code_command", required=True)
    sp = code_sub.add_parser("build", help="build a code from a spec")
    add_common(sp, ring=True, code=True, cap=24)
    sp.set_defaults(func=cmd_code_build)
    sp = code_sub.add_parser("dual", help="dualize a code spec")
    add_common(sp, ring=True, code=True)
    sp.set_defaults(func=cmd_code_dual)
    sp = code_sub.add_parser("weights", help="weight enumerator")
    add_common(sp, ring=True, code=True, cap=24)
    sp.set_defaults(func=cmd_code_weights)

    sp = sub.add_parser("chars", help="character table of a rank-1 ring")
    add_common(sp, ring=True)
    sp.set_defaults(func=cmd_chars)

    sp = sub.add_parser("verify", help="brute-force cross-check of a spec")
    add_common(sp, ring=True, code=True, cap=20)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ChainCodesError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input ({exc})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
