"""tests/oracle.py is the one home of the references the differential
tests compare chatmt against: a second copy in a test module would drift
from it, and a change would have to edit both."""
import ast
import re
from pathlib import Path

# What a reference is named; a test function (test_*) is not one.
REFERENCE = re.compile(r"_ref_|reference_|.*_oracle$")


def test_references_are_defined_only_in_the_oracle():
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in sorted(Path(__file__).parent.glob("*.py")) if path.name != "oracle.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not node.name.startswith("test_") and REFERENCE.match(node.name)]
    assert found == []
