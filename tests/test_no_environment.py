"""Environment guard for the package: no module of src/equivar reads the
process environment (os.environ, os.getenv and their bytes forms), so a
command's behaviour is set by its arguments alone.  Names met only in string
literals and comments do not count (test_no_dead_code._code)."""

import re

from test_no_dead_code import SRC, _code

_READS = re.compile(r"\b(environb?|getenvb?)\b")


def _reads_environment(text):
    return bool(_READS.search(_code(text)))


def test_no_module_reads_the_environment():
    assert [p.name for p in sorted(SRC.rglob("*.py"))
            if _reads_environment(p.read_text(encoding="utf-8"))] == []


def test_guard_flags_a_read_but_not_a_mention():
    assert _reads_environment("import os\n\nLIMIT = os.environ.get('LIMIT', '20')\n")
    assert _reads_environment("from os import getenv\n\nLIMIT = getenv('LIMIT')\n")
    assert not _reads_environment('"""No environ read here."""\n\n# nor getenv\nX = 1\n')
