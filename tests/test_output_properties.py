"""Property tests: the CLI's JSON writer prints exactly what
json.dumps(payload, indent=2) prints.  A built value goes through the
standard library's encoder; a value that is an iterator, as only the
enumerate-binomials listing is, yields rows of JSON text already laid out
at depth 4, which are written as they are drawn."""

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


def _pieces_text(payload) -> str:
    return "".join(cli._json_pieces(payload))


def _rows(items):
    """Each item's JSON text laid out at depth 4, drawn one at a time."""
    return (json.dumps(item, indent=2).replace("\n", "\n    ")
            for item in items)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(_PAYLOADS, st.data())
def test_streamed_lists_match_built_ones(payload, data):
    expected = json.dumps(payload, indent=2) + "\n"
    assert _pieces_text(payload) == expected
    lists = [key for key, value in payload.items() if isinstance(value, list)]
    streamed = data.draw(st.sets(st.sampled_from(lists)) if lists
                         else st.just(set()))
    mixed = {key: _rows(value) if key in streamed else value
             for key, value in payload.items()}
    assert _pieces_text(mixed) == expected


@pytest.mark.parametrize("items", [[], [0], [[1, 2], {"a": [3]}, "x", None]])
def test_generator_value_matches_list(items):
    payload = {"count": len(items), "patterns": items, "tail": True}
    streamed = dict(payload, patterns=_rows(items))
    assert _pieces_text(streamed) == json.dumps(payload, indent=2) + "\n"


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
