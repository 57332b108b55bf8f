"""Every ```python block of README.md runs as written, so the documented
scorer hook and calls cannot drift from the code.

Run as a script (`python tests/test_readme.py`) it runs the same blocks
against whichever pbmf the interpreter imports, an installed one included."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    """The source of each ```python block of the README, in order."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def run_block(source: str) -> dict:
    """Run one block as a script of its own and return its globals."""
    namespace = {"__name__": "__main__"}
    exec(compile(source, f"{README.name} python block", "exec"), namespace)
    return namespace


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert blocks, "README.md has no python block"
    for source in blocks:
        run_block(source)


if __name__ == "__main__":
    import pbmf

    print(f"running {len(python_blocks())} README python block(s) against {pbmf.__file__}")
    test_readme_python_blocks_run()
