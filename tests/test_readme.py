"""README's examples run as written: each ``$ galois ...`` command prints
exactly the lines shown under it, and the "Library use" block runs."""

import pathlib
import re
import shlex

import pytest

from galoischeck.cli import main

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def shell_examples():
    """(argv, expected stdout) of every ``$ galois`` command in README's sh
    blocks; a command's output runs to the next blank line."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for chunk in block.split("\n\n"):
            command, *output = chunk.strip("\n").split("\n")
            if command.startswith("$ galois "):
                argv = shlex.split(command.removeprefix("$ galois "))
                examples.append((argv, "".join(f"{line}\n" for line in output)))
    return examples


EXAMPLES = shell_examples()


def test_readme_has_three_command_examples():
    assert len(EXAMPLES) == 3


@pytest.mark.parametrize("argv,expected", EXAMPLES,
                         ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_command_output_is_exact(capsys, argv, expected):
    code = main(argv)
    out = capsys.readouterr()
    assert (out.out, out.err) == (expected, "")
    assert code == (1 if "verdict: fail" in expected else 0)


def test_readme_library_block_runs():
    section = README.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
