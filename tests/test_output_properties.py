"""Property tests: the enumerate-binomials listing writer prints exactly
what json.dumps({**head, "patterns": items}, indent=2) prints, while its
rows, JSON text already laid out at depth 4, are written as they are drawn.
Every other payload is printed by json.dumps itself."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from toricdegen import cli

# quotes, backslashes, control characters and non-ASCII text, including
# characters outside the Basic Multilingual Plane
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€😀'),
                          st.characters()), max_size=8)
_SCALARS = st.one_of(
    st.none(), st.booleans(), _TEXT,
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([0, -1, 2 ** 64, 2 ** 64 + 1, -2 ** 64 - 1]),
    st.floats())
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=15)
_PAYLOADS = st.dictionaries(_TEXT, _TREES, max_size=5)
# the listing's head: any payload but its patterns key, which the writer
# adds last
_HEADS = _PAYLOADS.map(lambda payload: {key: value for key, value
                                        in payload.items()
                                        if key != "patterns"})


def _rows(items):
    """Each item's JSON text laid out at depth 4, drawn one at a time."""
    return (json.dumps(item, indent=2).replace("\n", "\n    ")
            for item in items)


def _listing_text(head, items) -> str:
    return "".join(cli._listing_json(head, _rows(items)))


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(_HEADS, st.lists(_TREES, max_size=4))
def test_streamed_lists_match_built_ones(head, items):
    expected = json.dumps({**head, "patterns": items}, indent=2) + "\n"
    assert _listing_text(head, items) == expected


@pytest.mark.parametrize("items", [[], [0], [[1, 2], {"a": [3]}, "x", None]])
def test_generator_value_matches_list(items):
    head = {"n": 2, "d": 3, "count": len(items)}
    expected = json.dumps({**head, "patterns": items}, indent=2) + "\n"
    assert _listing_text(head, items) == expected


def test_writes_are_gathered(monkeypatch):
    # about 64 KiB per write call, whatever the size of the pieces
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(cli.sys, "stdout", Recorder())
    pieces = ["x" * 1000] * 300 + ["y"]
    cli._write(iter(pieces))
    assert "".join(writes) == "".join(pieces)
    assert len(writes) == 5
    assert all(len(text) >= 65536 for text in writes[:-1])
