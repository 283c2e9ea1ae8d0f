"""README.md's one Python example runs as written against the package's imports."""

import re
from pathlib import Path

from entwatch.detector import RANSOMWARE

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "README.md should hold exactly one python block"
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    result = namespace["result"]
    assert result.verdict == RANSOMWARE
    assert result.alerts
