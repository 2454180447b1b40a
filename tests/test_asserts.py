"""Checks that correctness depends on must survive `python -O`."""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chaincodes"
MAX_ASSERTS = 0  # a check raises a ChainCodesError instead


def test_no_new_bare_asserts():
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = sum(isinstance(node, ast.Assert) for node in ast.walk(tree))
        if found:
            counts[path.name] = found
    assert sum(counts.values()) <= MAX_ASSERTS, counts


def run_optimized(body):
    """Run body under `python -O` (asserts stripped) and return its stdout lines."""
    script = "assert False, 'asserts must be off'\n" + textwrap.dedent(body)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_forced_inversion_failures_raise_under_python_O():
    """A wrong residue inverse in ChainRing._invert is refused, not returned."""
    lines = run_optimized(
        """
        from chaincodes import intpoly
        from chaincodes.errors import CertificateError
        from chaincodes.rings import ChainRing

        ring = ChainRing(2, 2, 2, 2, 1, [1, 0], f=[1, 1, 1])
        # a gcd other than 1, then gcd 1 with a wrong Bezout inverse
        for gcd in (([1, 1], [1], [0]), ([1], [1], [0])):
            intpoly.fp_ext_gcd = lambda a, b, p, gcd=gcd: gcd
            try:
                ring.omega.invert()
                print("returned")
            except CertificateError:
                print("refused")
        """
    )
    assert lines == ["refused", "refused"]


def test_forced_hensel_failures_raise_under_python_O():
    """A lift that is not exact is refused by _lift_pair and by hensel_lift."""
    lines = run_optimized(
        """
        from chaincodes import intpoly, polyfactory
        from chaincodes.errors import CertificateError

        def attempt():
            try:
                polyfactory.hensel_lift([-1, 0, 0, 1], [[1, 1], [1, 1, 1]], 2, 2)
                print("returned")
            except CertificateError:
                print("refused")

        bezout = intpoly.fp_ext_gcd
        intpoly.fp_ext_gcd = lambda a, b, p: ([1], [0], [0])  # _lift_pair never corrects
        attempt()
        intpoly.fp_ext_gcd = bezout
        polyfactory._lift_pair = lambda h, f, g, p, n: (f, g)  # hensel_lift gets the mod-p pair
        attempt()
        """
    )
    assert lines == ["refused", "refused"]
