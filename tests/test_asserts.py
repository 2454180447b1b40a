"""Checks that correctness depends on must survive `python -O`."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chaincodes"
MAX_ASSERTS = 12  # the ones left; a new check raises a ChainCodesError instead


def test_no_new_bare_asserts():
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = sum(isinstance(node, ast.Assert) for node in ast.walk(tree))
        if found:
            counts[path.name] = found
    assert sum(counts.values()) <= MAX_ASSERTS, counts
