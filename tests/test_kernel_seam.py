"""Only ``kernel_seam.py`` calls or patches the private names of
``persistd.bottleneck``, and no test file imports another, so that a kernel
change to a private call shape edits one test file.  The source-text
checks ``test_pair_keys_road.py`` and ``test_trace_hooks.py``, which name
the hooks they check, and the mutation runner are exempt."""

import re
from pathlib import Path

from persistd import bottleneck

TESTS = Path(__file__).parent
EXEMPT = {"kernel_seam.py", "test_pair_keys_road.py", "test_trace_hooks.py", "mutants/run.py"}
# Private functions and classes of bottleneck.py, private attributes read
# or patched through the module, and imports of test files.
PRIVATE = [name for name, value in vars(bottleneck).items() if name.startswith("_")
           and getattr(value, "__module__", None) == bottleneck.__name__]
FORBIDDEN = re.compile(rf"\b(?:{'|'.join(PRIVATE)})\b|\bbottleneck\s*\.\s*_(?!_)"
                       r"|attr\(\s*bottleneck\s*,\s*[\"']_|persistd\.bottleneck\s+import[^\n]*\b_"
                       r"|^\s*(?:from|import)\s+(?:tests\.)?test_")


def test_only_the_seam_names_private_kernel_names():
    assert len(FORBIDDEN.findall((TESTS / "kernel_seam.py").read_text())) >= 10
    found = [f"{path.relative_to(TESTS)}:{number}: {line.strip()}"
             for path in sorted(TESTS.rglob("*.py"))
             if path.relative_to(TESTS).as_posix() not in EXEMPT
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if FORBIDDEN.search(line)]
    assert not found, "\n".join(found)
