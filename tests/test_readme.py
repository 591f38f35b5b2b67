import re
from pathlib import Path

from symprox.scalarprox import _ALIASES, _PEN_PARAMS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the README's one python block is run as written and its solve converges
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["report"].stop_reason == "tolerance"


def test_readme_penalty_table_matches_pen_params():
    # the kernel-spec penalty table lists exactly the kinds of _PEN_PARAMS,
    # each with its own parameters in order and the aliases that name it
    text = README.read_text()
    table = text[text.index("| penalty (default `none`) | aliases | parameters |"):].split("\n\n")[0]
    listed = {}
    for row in table.splitlines()[2:]:
        kinds, aliases, params = (re.findall(r"`(\w+)`", cell) for cell in row.split("|")[1:4])
        assert sorted(aliases) == sorted(a for a, k in _ALIASES.items() if k in kinds), row
        listed.update((kind, tuple(params)) for kind in kinds)
    assert listed == _PEN_PARAMS
